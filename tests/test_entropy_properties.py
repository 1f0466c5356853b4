"""Property test: one entropy pass over many spectra gives each spectrum the bits of its own pass."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from araki_mi import fermion  # noqa: E402
from araki_mi.operators import xlogx  # noqa: E402

# Eigenvalues as the solvers return them: inside [0, 1], exactly 0 or 1 (signed zero too), or
# rounding inside the slack outside [0, 1], which the pass clamps.
_ENTRY = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0]),
                   st.floats(-fermion.SPECTRUM_SLACK, 0.0), st.floats(1.0, 1.0 + fermion.SPECTRUM_SLACK))
_SPECTRA = st.lists(st.lists(_ENTRY, max_size=300).map(np.array), min_size=1, max_size=8)


def one_spectrum(w: np.ndarray) -> float:
    """The pass over one spectrum before it took several: summed by np.add.accumulate from +0.0."""
    w = np.clip(w, 0.0, 1.0)
    terms = -(xlogx(w) + xlogx(1.0 - w))
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_SPECTRA)
def test_one_pass_has_the_bits_of_a_pass_per_spectrum(spectra):
    together = np.array(fermion._binary_entropy_sums(*spectra))
    apart = np.array([fermion._binary_entropy_sums(w)[0] for w in spectra])
    assert together.view(np.uint64).tolist() == apart.view(np.uint64).tolist()
    assert apart.view(np.uint64).tolist() == np.array([one_spectrum(w) for w in spectra]).view(np.uint64).tolist()
