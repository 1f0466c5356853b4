"""Discretized free-fermion vacuum covariance and mutual information.

The vacuum two-point function of the chiral free fermion is the Hardy-space
projection kernel.  On the integer lattice it becomes the half-frequency band
projection: diagonal 1/2, and for odd site separation delta an off-diagonal
entry of magnitude 1/(pi |delta|).  A finite union of interval blocks gives a
compression of that projection, so the covariance matrix C satisfies
0 <= C <= 1 exactly, which the entropy function

    h(x) = -x ln x - (1-x) ln(1-x)

requires.  The mutual information of the two regions is

    Tr sigma_C = S_1 + S_2 - S_12,   S_X = sum h(spec C_X),

and compressing C by centered sub-windows commuting with the region selector
yields a nondecreasing sequence converging to the full value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .operators import (ENTROPY_SLACK, HERMITICITY_TOL, RECOMPOSITION_TOL, _eigh_eigenvalues,
                        _eigvalsh_eigenvalues, xlogx)

SPECTRUM_SLACK = 1e-9
TWO_PATH_TOL = 1e-9
MAX_SITES = 4096        # C is one dense n x n complex matrix, 256 MiB at the limit; the
                        # largest admitted mi peaks at about 490 MiB RSS (README)


def _fits_float(x: numbers.Real) -> bool:
    """Finite as a float; False for an integer too large to convert."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _endpoint(x) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"interval endpoint {x!r} is not a number")
    if not _fits_float(x):
        raise ValueError(f"interval endpoint {x!r} is not finite")
    return float(x)


def _checked_intervals(intervals, split: int) -> Tuple[Tuple[float, float], ...]:
    """Nonempty intervals with disjoint closures, as float pairs, split into two nonempty regions."""
    try:
        ivs = tuple((_endpoint(a), _endpoint(b)) for a, b in intervals)
    except TypeError as exc:
        raise ValueError(f"intervals must be [a, b] pairs of numbers ({exc})") from None
    if len(ivs) < 2:
        raise ValueError("need at least two intervals")
    for a, b in ivs:
        if not a < b:
            raise ValueError(f"empty interval ({a}, {b})")
    ordered = sorted(ivs)
    for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]):
        if b1 >= a2:
            raise ValueError("intervals must have disjoint closures")
    if isinstance(split, bool) or not isinstance(split, numbers.Integral):
        raise ValueError(f"split must be an integer, got {split!r}")
    if not 1 <= split < len(ivs):
        raise ValueError("split must leave both regions nonempty")
    return ivs


@dataclass(frozen=True)
class IntervalConfig:
    """Disjoint real intervals with a lattice resolution (sites per unit length)."""

    intervals: Tuple[Tuple[float, float], ...]
    resolution: float
    split: int = 1          # first `split` intervals form region 1
    components: int = 1     # fermion multiplicity; MI scales linearly

    def __post_init__(self):
        object.__setattr__(self, "intervals", _checked_intervals(self.intervals, self.split))
        res, comp = self.resolution, self.components
        if isinstance(res, bool) or not isinstance(res, numbers.Real):
            raise ValueError(f"resolution must be a number, got {res!r}")
        if not (_fits_float(res) and res > 0):
            raise ValueError("resolution must be positive and finite")
        integral = isinstance(comp, numbers.Integral) or (isinstance(comp, float) and comp.is_integer())
        if isinstance(comp, bool) or not integral or comp < 1:
            raise ValueError(f"components must be a positive integer, got {comp!r}")
        if not _fits_float(comp):
            raise ValueError("components must be a positive integer within the float range")


@dataclass
class CovarianceSystem:
    c: Optional[np.ndarray]   # complex Hermitian covariance in Fortran order, rows in interval
                              # order; None once sigma_trace has taken it
    inside: np.ndarray        # bool: the row belongs to region 1
    sites: np.ndarray         # integer lattice site of each row of c
    counts: Tuple[int, ...]   # rows of each interval block, in interval order


@dataclass
class MISeries:
    window_sizes: Tuple[int, ...]
    values: Tuple[float, ...]
    extrapolated: float
    extrapolation_error: float

    def __post_init__(self):
        for lo, hi in zip(self.values, self.values[1:]):
            if hi < lo - SPECTRUM_SLACK:
                raise ValueError(f"window series not nondecreasing: {lo} -> {hi}")


def _site_blocks(config: IntervalConfig) -> list[Tuple[int, int]]:
    spans = [(b - a) * config.resolution for a, b in config.intervals]
    if not all(math.isfinite(span) for span in spans):
        raise ValueError(f"lattice sites exceed the limit of {MAX_SITES}; lower the resolution")
    counts = [max(2, int(round(span))) for span in spans]
    if sum(counts) > MAX_SITES:
        raise ValueError(f"{sum(counts)} lattice sites exceed the limit of {MAX_SITES}; lower the resolution")
    blocks = [(int(round(a * config.resolution)), n) for (a, _), n in zip(config.intervals, counts)]
    ordered = sorted(blocks)
    for (s1, c1), (s2, _) in zip(ordered, ordered[1:]):
        if s2 < s1 + c1 + 1:
            raise ValueError("resolution too coarse: site blocks touch or overlap")
    return blocks


def _kernel(d: np.ndarray) -> np.ndarray:
    """The kernel at integer separations d: 1/2 at 0, -i/(pi d) at odd d, 0 at even d."""
    odd = (d % 2) != 0
    return np.where(odd, -1j / (math.pi * np.where(odd, d, 1)), np.where(d == 0, 0.5, 0.0))


def hardy_kernel(sites: np.ndarray) -> np.ndarray:
    """Half-frequency band projection kernel on the given integer sites, symmetrised.

    Entry (i, j) is sym(s_i - s_j) = (k(d) + conj k(-d)) / 2, bit for bit that
    of (K + K^H) / 2, whose signed zeros the bits of S_12 depend on (zhetrd,
    the tridiagonal reduction of eigh and of `_eigh_eigenvalues`, reads them).
    Each pair of runs of consecutive sites is a Toeplitz block, copied from a
    strided view of a 1-D table of sym.  The matrix is in Fortran order, the
    layout in which LAPACK reduces it in place (`sigma_trace`).
    ArithmeticError unless sym(-d) = conj sym(d).
    """
    edges = np.r_[0, np.flatnonzero(np.diff(sites) != 1) + 1, sites.size]
    c = np.empty((sites.size, sites.size), dtype=complex, order="F")
    for i0, i1 in zip(edges, edges[1:]):
        for j0, j1 in zip(edges, edges[1:]):
            d = np.arange(sites[i0] - sites[j1 - 1], sites[i1 - 1] - sites[j0] + 1)
            kd, km = _kernel(d), _kernel(-d)
            table = 0.5 * (kd + km.conj())
            if not np.array_equal(0.5 * (km + kd.conj()), table.conj()):
                raise ArithmeticError("covariance kernel is not Hermitian")
            # T[i, j] = table[i - j + cols - 1]
            c[i0:i1, j0:j1] = np.lib.stride_tricks.sliding_window_view(table, j1 - j0)[:, ::-1]
    return c


def build_covariance(config: IntervalConfig) -> CovarianceSystem:
    blocks = _site_blocks(config)
    sites = np.concatenate([np.arange(s, s + n) for s, n in blocks])
    counts = tuple(n for _, n in blocks)
    inside = np.repeat(np.arange(len(counts)) < config.split, counts)
    return CovarianceSystem(c=hardy_kernel(sites), inside=inside, sites=sites, counts=counts)


def _binary_entropy_sums(*spectra: np.ndarray) -> list[float]:
    """sum h(w) over each spectrum, from one x ln x pass over all of them."""
    parts = [np.asarray(s, dtype=float) for s in spectra]
    w = np.concatenate(parts)
    if w.size and (w.min() < -ENTROPY_SLACK or w.max() > 1.0 + ENTROPY_SLACK):
        raise ArithmeticError(f"eigenvalue outside [0, 1]: range [{w.min()}, {w.max()}]")
    w = np.clip(w, 0.0, 1.0)
    wlogw = xlogx(np.stack((w, 1.0 - w)))
    terms = -(wlogw[0] + wlogw[1])
    # Each spectrum is summed strictly left to right from +0.0, not pairwise:
    # the reported digits of every mutual information depend on this order.
    bounds = np.cumsum([p.size for p in parts])[:-1]
    return [float(np.add.accumulate(np.concatenate(([0.0], t)))[-1]) for t in np.split(terms, bounds)]


def _gathered(c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """c[rows][:, rows] in Fortran order, the layout in which LAPACK reduces it in place."""
    return c.T[np.ix_(rows, rows)].T


def _half_identity_defect(m: np.ndarray, rows: np.ndarray) -> float:
    """||m[rows, rows] - I/2||_F."""
    block = m[np.ix_(rows, rows)]
    block.flat[::rows.size + 1] -= 0.5
    return float(np.linalg.norm(block))


def _even_odd_block(m: np.ndarray, even: np.ndarray, scale: float) -> np.ndarray:
    """The block B = m[even, odd], once m = [[I/2, B], [B^H, I/2]] in the parity split is checked.

    The Hardy kernel couples only sites of opposite parity.  ArithmeticError
    if the same-parity blocks miss I/2 by more than HERMITICITY_TOL * max(1, scale).
    An imaginary B, as every off-diagonal entry of the lattice covariance is,
    comes back as the real B.imag, and a real one as B.real: their singular
    values are those of B, in real arithmetic and half the memory.
    """
    e, o = np.flatnonzero(even), np.flatnonzero(~even)
    defect = math.hypot(_half_identity_defect(m, e), _half_identity_defect(m, o))
    if defect > HERMITICITY_TOL * max(1.0, scale):
        raise ArithmeticError(f"covariance breaks the sublattice structure (defect {defect:.3e})")
    block = np.ix_(e, o)
    if not m.real[block].any():
        return m.imag[block]
    if not m.imag[block].any():
        return m.real[block]
    return m[block]


def _sublattice_entropies(*blocks: np.ndarray) -> list[float]:
    """Entropy sums h(spec m) of matrices m = [[I/2, B], [B^H, I/2]], from their blocks B.

    spec m = 1/2 +- svd(B), padded with |rows - columns| eigenvalues 1/2
    (entropy ln 2 each).
    """
    sums = _binary_entropy_sums(*(0.5 + np.linalg.svd(b, compute_uv=False) for b in blocks))
    return [2.0 * h + abs(b.shape[0] - b.shape[1]) * math.log(2.0) for h, b in zip(sums, blocks)]


def _region_spectrum(c: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
    """(||C_X||_F, eigvalsh(C_X)) of the region block C_X = C[rows, rows], reduced in place."""
    block = _gathered(c, rows)
    return float(np.linalg.norm(block)), _eigvalsh_eigenvalues(block)


def _handed_over(sys: CovarianceSystem) -> np.ndarray:
    """sys.c, with None left in its place: a callee passed the result holds its only reference."""
    c, sys.c = sys.c, None
    return c


def sigma_trace(sys: CovarianceSystem) -> float:
    """Tr sigma_C = S_1 + S_2 - S_12, computed by two independent routes.

    The returned value takes S_12 from `_eigh_eigenvalues` of C: zhetrd and
    dstedc of numpy's LAPACK, the bits of `eigh` without the eigenvectors of
    C (the reported digits are pinned to that LAPACK path; np.linalg.eigh
    itself where numpy's LAPACK lacks the symbols).  Those eigenvalues
    must sum to Tr C, have 2-norm ||C||_F and lie in [0, 1] up to
    SPECTRUM_SLACK.  S_X comes from `_eigvalsh_eigenvalues` of each region
    block, the bits of `eigvalsh`.  The check recomputes all three entropies
    from half-size real SVDs, which share no factorization with the first
    route: B = C[even, odd] is gathered once, and each region's block is its
    sub-block B[region & even, region & odd].

    sigma_trace takes ownership of sys.c, which must be C in Fortran order,
    as `build_covariance` and `_windowed_system` make it, so that the one
    n x n matrix alive during each LAPACK reduction is the one it overwrites.
    The moments, the region blocks (each gathered in Fortran layout and
    reduced in place by zhetrd + dsterf), the sublattice check and B come
    first; then C itself goes to zhetrd, with no copy, and sys.c is left None,
    so C is freed before dstedc allocates its n x n workspaces.  A C-order
    array cannot stand in for C (see `_eigh_eigenvalues`); it is copied.
    """
    c = sys.c
    if c is None:
        raise ValueError("this covariance system was consumed by an earlier sigma_trace")
    norm, trace = float(np.linalg.norm(c)), np.trace(c).real
    regions = (np.flatnonzero(sys.inside), np.flatnonzero(~sys.inside))
    (scale1, w1), (scale2, w2) = (_region_spectrum(c, rows) for rows in regions)
    # A region block's same-parity blocks are sub-blocks of C's, so one check
    # against the smaller region's scale is as strict as a check per matrix.
    even = sys.sites % 2 == 0
    b = _even_odd_block(c, even, min(scale1, scale2))
    del c
    w = _eigh_eigenvalues(_handed_over(sys))
    miss = max(abs(w.sum() - trace), abs(np.linalg.norm(w) - norm))
    if miss > RECOMPOSITION_TOL * max(1.0, norm):
        raise ArithmeticError(f"covariance eigenvalues miss the trace or norm of C ({miss:.3e})")
    if w[0] < -SPECTRUM_SLACK or w[-1] > 1.0 + SPECTRUM_SLACK:
        raise ArithmeticError(f"covariance spectrum escapes [0, 1]: [{w[0]}, {w[-1]}]")
    s1, s2, s12 = _binary_entropy_sums(w1, w2, w)
    value = s1 + s2 - s12
    in_e, in_o = sys.inside[even], sys.inside[~even]
    h1, h2, h12 = _sublattice_entropies(b[np.ix_(in_e, in_o)], b[np.ix_(~in_e, ~in_o)], b)
    check = h1 + h2 - h12
    if abs(check - value) > TWO_PATH_TOL * max(1.0, abs(value)):
        raise ArithmeticError(f"sigma trace routes disagree: eigensolve {value} vs sublattice SVD {check}")
    if value < -SPECTRUM_SLACK:
        raise ArithmeticError(f"negative mutual information {value}")
    return value


def mutual_information_value(config: IntervalConfig) -> float:
    """Mutual information of the two regions, in nats."""
    return config.components * sigma_trace(build_covariance(config))


def _windowed_system(sys: CovarianceSystem, fraction: float) -> CovarianceSystem:
    """Centered sub-window of every interval block; windows at growing
    fractions are nested and commute with the region selector."""
    keep, counts = [], []
    start = 0
    for i, count in enumerate(sys.counts):
        w = int(round(fraction * count))
        if w < 1:
            raise ValueError(f"window fraction {fraction} leaves interval {i} empty")
        lo = start + (count - w) // 2
        keep.append(np.arange(lo, lo + w))
        counts.append(w)
        start += count
    rows = np.concatenate(keep)
    # A block of a symmetrised matrix is symmetrised already (bit for bit).
    return CovarianceSystem(c=_gathered(sys.c, rows), inside=sys.inside[rows],
                            sites=sys.sites[rows], counts=tuple(counts))


def mi_convergence(config: IntervalConfig, window_fractions: Sequence[float]) -> MISeries:
    """Tr sigma_{C_p} along centered windows growing to the full system."""
    fracs = [float(f) for f in window_fractions]
    if not fracs or any(f2 <= f1 for f1, f2 in zip(fracs, fracs[1:])):
        raise ValueError("window fractions must be strictly increasing")
    if not 0.0 < fracs[0] <= 1.0 or fracs[-1] != 1.0:
        raise ValueError("window fractions must lie in (0, 1] and end at 1")
    sys = build_covariance(config)
    sizes, values = [], []
    for f in fracs:
        wsys = sys if f == 1.0 else _windowed_system(sys, f)
        sizes.append(len(wsys.sites))
        values.append(config.components * sigma_trace(wsys))
    err = abs(values[-1] - values[-2]) if len(values) > 1 else math.inf
    return MISeries(window_sizes=tuple(sizes), values=tuple(values),
                    extrapolated=values[-1], extrapolation_error=err)


def richardson(values: Sequence[float]) -> tuple[float, float]:
    """(extrapolated value, uncertainty) for values at successively doubled resolution.

    Assumes v(h) = v + c h^p; the order p is estimated from the last three
    values.  Falls back to the finest value with the last increment as the
    uncertainty when the differences do not behave like a power law.
    """
    v = [float(x) for x in values]
    if len(v) < 2:
        return v[-1], math.inf
    d_last = v[-1] - v[-2]
    if len(v) < 3:
        return v[-1], abs(d_last)
    d_prev = v[-2] - v[-3]
    if d_last == 0.0:
        return v[-1], 0.0
    ratio = d_prev / d_last
    if ratio <= 1.0:
        return v[-1], abs(d_last)
    p = math.log2(ratio)
    correction = d_last / (2**p - 1.0)
    return v[-1] + correction, abs(correction)


def resolution_study(config: IntervalConfig, resolutions: Sequence[float]) -> dict:
    """MI at each resolution plus a Richardson extrapolation to the continuum."""
    res = [float(r) for r in resolutions]
    if any(r2 <= r1 for r1, r2 in zip(res, res[1:])):
        raise ValueError("resolutions must be increasing")
    values = []
    for r in res:
        cfg = IntervalConfig(intervals=config.intervals, resolution=r,
                             split=config.split, components=config.components)
        values.append(mutual_information_value(cfg))
    extrapolated, err = richardson(values)
    return {"resolutions": res, "values": values,
            "extrapolated": extrapolated, "uncertainty": err}


def continuum_mi(intervals: Sequence[Sequence[float]], split: int = 1) -> float:
    """Continuum mutual information, in nats, between the first `split` intervals and the rest.

    Casini-Fosco-Huerta (J. Stat. Mech. 2005, arXiv:cond-mat/0505563): a
    c = 1 Dirac fermion, which the lattice's doubled Fermi point makes this
    model at one component, has on a union of intervals (a_i, b_i) the entropy

        S = (1/3) [sum_i ln(b_i - a_i)
                   + sum_{i<j} ln(|a_j - b_i| |b_j - a_i| / (|a_j - a_i| |b_j - b_i|))]

    plus a cut-off constant per interval.  In S_1 + S_2 - S_12 only the pairs
    with one interval in each region are left.
    """
    ivs = _checked_intervals(intervals, split)
    total = 0.0
    for a1, b1 in ivs[:split]:
        for a2, b2 in ivs[split:]:
            total += math.log(abs(a2 - a1) * abs(b2 - b1) / (abs(a2 - b1) * abs(b2 - a1)))
    return total / 3.0
