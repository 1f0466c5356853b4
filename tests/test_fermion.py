import hashlib
import io
import json
import math
import os
import subprocess
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from sys import executable

import numpy as np
import pytest

from araki_mi import fermion, operators
from araki_mi.cli import main
from araki_mi.fermion import (
    CovarianceSystem,
    IntervalConfig,
    build_covariance,
    continuum_mi,
    hardy_kernel,
    mi_convergence,
    mutual_information_value,
    resolution_study,
    richardson,
    sigma_trace,
)
from araki_mi.operators import _eigh_eigenvalues, _eigvalsh_eigenvalues, xlogx

LN2 = math.log(2.0)
STANDARD = ((0.0, 1.0), (2.0, 3.0))


def toy_matrix(offdiag: complex) -> np.ndarray:
    return np.array([[0.5, offdiag], [np.conj(offdiag), 0.5]], dtype=complex)


def toy_system(offdiag: complex) -> CovarianceSystem:
    """toy_matrix on sites 0 and 1, one site per region: sym(-1) = x, sym(0) = 1/2, sym(1) = conj x."""
    def table(v):
        return np.array([v], dtype=complex)
    return CovarianceSystem(runs=((0, 1), (1, 1)), split=1, lowest=((0, -1), (1, 0)),
                            tables=((table(0.5), table(offdiag)), (table(np.conj(offdiag)), table(0.5))))


def system_sites(sys: CovarianceSystem) -> np.ndarray:
    """The lattice site of each row of C, runs in order."""
    return np.concatenate([np.arange(s, s + n) for s, n in sys.runs])


def region_rows(sys: CovarianceSystem) -> tuple[np.ndarray, np.ndarray]:
    inside = np.repeat(np.arange(len(sys.runs)) < sys.split, [n for _, n in sys.runs])
    return np.flatnonzero(inside), np.flatnonzero(~inside)


def system_on(sites: np.ndarray) -> CovarianceSystem:
    """The covariance system on the runs of consecutive sites of a site list."""
    edges = np.r_[0, np.flatnonzero(np.diff(sites) != 1) + 1, sites.size]
    runs = tuple((int(sites[a]), int(b - a)) for a, b in zip(edges, edges[1:]))
    tables, lowest = fermion._kernel_tables(runs)
    return CovarianceSystem(runs=runs, split=1, tables=tables, lowest=lowest)


def workspace(sys: CovarianceSystem) -> np.ndarray:
    """A workspace of the size sigma_trace takes."""
    n = sys.size
    return np.empty(2 * n * n + 4 * n + 16)


def sublattice_entropy(sys: CovarianceSystem) -> float:
    """Entropy sum h(spec C) of one covariance from the singular values of its even-odd block."""
    return fermion._sublattice_entropies(fermion._sublattice_singular_values(sys, workspace(sys), None))[0]


def with_table(sys: CovarianceSystem, i: int, j: int, d: int, value: complex) -> CovarianceSystem:
    """sys with the entry at separation d of table (i, j), and conj of it at -d of table (j, i), set."""
    tables = [[t.copy() for t in row] for row in sys.tables]
    tables[i][j][d - sys.lowest[i][j]] = value
    tables[j][i][-d - sys.lowest[j][i]] = np.conj(value)
    return replace(sys, tables=tuple(map(tuple, tables)))


def bits(a) -> np.ndarray:
    """The bit patterns of an array's entries, in row-major order whatever its layout."""
    return np.ascontiguousarray(a).view(np.uint64)


def lattice_sites(intervals, resolution) -> np.ndarray:
    blocks = fermion._site_blocks(IntervalConfig(intervals=intervals, resolution=resolution))
    return np.concatenate([np.arange(s, s + n) for s, n in blocks])


# the mi-sweep geometries of the benchmark
SWEEP_GEOMETRIES = ("[[0,1],[2,3]]", "[[0,1],[1.5,2.5]]", "[[0,1],[1.25,2.25]]", "[[0,0.5],[1,2.5]]",
                    "[[0,1.5],[2,3]]", "[[0,0.75],[1.25,2],[2.5,3.25]]", "[[0,1],[1.5,2],[2.5,3.5]]",
                    "[[0,0.5],[0.75,1.5],[2,3]]")


class TestIntervalConfig:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            IntervalConfig(intervals=((0, 1), (0.5, 2)), resolution=8)

    def test_rejects_touching_closures(self):
        with pytest.raises(ValueError):
            IntervalConfig(intervals=((0, 1), (1, 2)), resolution=8)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            IntervalConfig(intervals=((1, 1), (2, 3)), resolution=8)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            IntervalConfig(intervals=STANDARD, resolution=0)

    @pytest.mark.parametrize("resolution", ["abc", "64", None, [64], True, 10**400])
    def test_rejects_unusable_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            IntervalConfig(intervals=STANDARD, resolution=resolution)

    @pytest.mark.parametrize("components", ["x", 2.5, None, [1], True, math.inf, 0, 2**1100])
    def test_rejects_unusable_components(self, components):
        with pytest.raises(ValueError, match="components"):
            IntervalConfig(intervals=STANDARD, resolution=8, components=components)

    @pytest.mark.parametrize("endpoint", ["3", True, None, 10**400, math.nan])
    def test_rejects_unusable_endpoint(self, endpoint):
        with pytest.raises(ValueError, match="endpoint"):
            IntervalConfig(intervals=((0, 1), (2, endpoint)), resolution=8)

    def test_integral_float_components_accepted(self):
        assert IntervalConfig(intervals=STANDARD, resolution=8, components=2.0).components == 2.0


class TestHardyKernel:
    def test_single_site(self):
        assert np.allclose(hardy_kernel(np.array([3])), [[0.5]])

    def test_adjacent_sites(self):
        kappa = 1.0 / math.pi
        expected = np.array([[0.5, 1j * kappa], [-1j * kappa, 0.5]])
        assert np.allclose(hardy_kernel(np.array([0, 1])), expected, atol=1e-15)

    def test_even_separation_vanishes(self):
        k = hardy_kernel(np.array([0, 2]))
        assert k[0, 1] == 0.0

    @staticmethod
    def symmetrised_formula(sites):
        """(K + K^H) / 2 with K built entry by entry from the n x n separations."""
        delta = sites[:, None] - sites[None, :]
        odd = (delta % 2) != 0
        k = np.where(odd, -1j / (math.pi * np.where(odd, delta, 1)), 0.0)
        np.fill_diagonal(k, 0.5)
        return 0.5 * (k + k.conj().T)

    @pytest.mark.parametrize("intervals,resolutions", [
        *((json.loads(g), (16, 32, 48, 64, 80, 96)) for g in SWEEP_GEOMETRIES),
        ([[2, 3], [0, 1]], (40,)),
        ([[0, 1], [1.3, 2.7]], (512,)),   # 1229 sites
    ])
    def test_gathered_matrix_bit_identical_to_formula(self, intervals, resolutions):
        # signed zeros included: the bits of eigh, so the reported digits, depend on them
        for resolution in resolutions:
            sites = lattice_sites(intervals, resolution)
            c = hardy_kernel(sites)
            assert c.flags.f_contiguous      # the layout LAPACK reduces in place
            assert np.array_equal(bits(c), bits(self.symmetrised_formula(sites)))

    # one site, no two sites adjacent, runs out of order, and runs 10**12 sites apart (tables per pair
    # of runs, never one table over the whole span)
    @pytest.mark.parametrize("sites", [np.array([3]), 2 * np.arange(6), np.r_[np.arange(5, 9), np.arange(-3, 2)],
                                       np.r_[np.arange(4), 10**12 + np.arange(3)]])
    def test_scattered_sites_bit_identical_to_formula(self, sites):
        assert np.array_equal(bits(hardy_kernel(sites)), bits(self.symmetrised_formula(sites)))

    @pytest.mark.parametrize("resolution", [8, 16, 32])
    def test_spectrum_in_unit_interval(self, resolution):
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=resolution))
        w = np.linalg.eigvalsh(hardy_kernel(system_sites(sys)))
        assert np.max(np.abs(w - np.clip(w, 0.0, 1.0))) <= 1e-9


class TestSigmaTrace:
    def test_block_diagonal_gives_zero(self):
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        # the tables between the two regions zeroed
        blocked = replace(sys, tables=tuple(tuple(t if (i < sys.split) == (j < sys.split) else np.zeros_like(t)
                                                  for j, t in enumerate(row)) for i, row in enumerate(sys.tables)))
        assert sigma_trace(blocked) == pytest.approx(0.0, abs=1e-10)

    def test_toy_half_offdiagonal(self):
        assert sigma_trace(toy_system(0.5)) == pytest.approx(2 * LN2, abs=1e-10)

    def test_toy_quarter_offdiagonal(self):
        # 2 h(1/2) - h(3/4) - h(1/4), frozen from 40-digit evaluation
        expected = 0.2616240718822739182584036124674354208202
        assert sigma_trace(toy_system(0.25)) == pytest.approx(expected, abs=1e-12)
        assert sigma_trace(toy_system(0.25j)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("offdiag,dtype", [(0.25, np.float64), (0.25j, np.float64),
                                               (0.25 * np.exp(1j * np.pi / 5), np.complex128)])
    def test_check_svd_arithmetic(self, monkeypatch, offdiag, dtype):
        # real and imaginary off-diagonals take the real SVD, a genuinely complex one the complex SVD
        svd, seen = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda b, **kw: seen.append((b.shape, b.dtype)) or svd(b, **kw))
        expected = 0.2616240718822739182584036124674354208202
        assert sigma_trace(toy_system(offdiag)) == pytest.approx(expected, abs=1e-12)
        # the 1 x 1 even-odd block of C; the regions' blocks are empty
        assert [d for shape, d in seen if shape == (1, 1)] == [np.dtype(dtype)]

    @pytest.mark.parametrize("perturb", [
        lambda w: w + np.r_[1e-6, np.zeros(w.size - 1)],             # moves the trace
        lambda w: w + np.r_[-1e-6, np.zeros(w.size - 2), 1e-6],      # keeps the trace, moves the norm
    ], ids=["trace", "norm"])
    def test_perturbed_covariance_eigenvalues_raise(self, monkeypatch, perturb):
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        pinned = fermion._eigh_eigenvalues
        monkeypatch.setattr(fermion, "_eigh_eigenvalues", lambda m, *args: perturb(pinned(m, *args)))
        with pytest.raises(ArithmeticError, match="miss the trace or norm"):
            sigma_trace(sys)

    def test_one_eigensolve_real_svds_no_matmul(self, monkeypatch):
        # regression guard: no n^3 recomposition of C, and no complex SVD on the lattice covariance
        calls, ufuncs = [], []

        class Watched(np.ndarray):
            """Records every ufunc applied to a watched array or to one derived from it (`@` included)."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                ufuncs.append(ufunc.__name__)
                plain = [x.view(np.ndarray) if isinstance(x, Watched) else x for x in inputs]
                if "out" in kwargs:
                    kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, Watched) else x for x in kwargs["out"])
                result = getattr(ufunc, method)(*plain, **kwargs)
                return result.view(Watched) if isinstance(result, np.ndarray) else result

        def watched(module, name):
            original = getattr(module, name)

            def call(a, *args, **kwargs):
                calls.append((name, a.shape, a.dtype))
                return original(a, *args, **kwargs)
            monkeypatch.setattr(module, name, call)

        for name in ("eigh", "eigvalsh", "svd", "svdvals", "eig", "eigvals", "inv", "solve", "qr"):
            watched(np.linalg, name)
        watched(fermion, "_eigh_eigenvalues")
        watched(fermion, "_eigvalsh_eigenvalues")
        sys = build_covariance(IntervalConfig(intervals=((0.0, 1.0), (1.5, 2.5), (3.0, 3.75)), resolution=16, split=2))
        n = sys.size
        regions = [(rows.size, rows.size) for rows in region_rows(sys)]
        # every array np.empty makes is watched: the workspace that C and its blocks are copied into included
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *args, **kwargs: empty(*args, **kwargs).view(Watched))
        for name in ("matmul", "dot", "vdot", "einsum", "tensordot", "inner", "outer", "kron"):
            monkeypatch.setattr(np, name, lambda *args, name=name, **kwargs: pytest.fail(f"np.{name} called"))
        assert sigma_trace(sys) > 0
        assert [shape for name, shape, _ in calls if name == "_eigh_eigenvalues"] == [(n, n)]
        assert [shape for name, shape, _ in calls if name == "_eigvalsh_eigenvalues"] == regions
        # np.linalg.eigh and eigvalsh run only as those eigensolves' fallbacks
        pinned = operators._pinned_lapack() is not None
        assert [shape for name, shape, _ in calls if name == "eigh"] == ([] if pinned else [(n, n)])
        assert [shape for name, shape, _ in calls if name == "eigvalsh"] == ([] if pinned else regions)
        assert ({name for name, _, _ in calls} - {"eigh", "eigvalsh"}
                == {"_eigh_eigenvalues", "_eigvalsh_eigenvalues", "svd"})
        assert all(dtype == np.float64 for name, _, dtype in calls if name == "svd")
        assert ufuncs and "matmul" not in ufuncs

    @staticmethod
    def traced_peak(solve) -> int:
        if operators._pinned_lapack() is None:
            pytest.skip("without numpy's zhetrd, dstedc and dsterf, eigh and eigvalsh copy their input")
        tracemalloc.start()
        try:
            assert solve()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_set_is_one_matrix_and_a_half(self):
        # every block is copied from the kernel tables into one workspace of one n x n complex
        # matrix and 4 n + 16 doubles, which zhetrd reduces in place and dstedc's workspaces reuse:
        # the traced peak of a 614-site solve stays below 1.2 n x n complex matrices (1.38 when
        # the region blocks were gathered from a C held next to them)
        sys = build_covariance(IntervalConfig(intervals=((0, 1), (1.3, 2.7)), resolution=256))
        n = sys.size
        peak = self.traced_peak(lambda: sigma_trace(sys) > 0)
        assert n == 614
        assert peak <= 1.2 * 16 * n * n

    def test_window_series_working_set_is_one_matrix(self):
        # the windows share the O(n) tables, so no C is held while a window is solved
        # (1.72 n x n complex matrices when C was)
        config = IntervalConfig(intervals=STANDARD, resolution=512)
        peak = self.traced_peak(lambda: mi_convergence(config, [0.25, 0.5, 0.75, 1.0]).window_sizes[-1] == 1024)
        assert peak <= 1.2 * 16 * 1024 * 1024

    def test_spectrum_escaping_unit_interval_raises(self):
        # spectrum 1/2 -+ 0.6 = (-0.1, 1.1): no covariance of a quasi-free state
        with pytest.raises(ArithmeticError, match="escapes"):
            sigma_trace(toy_system(0.6))

    def test_region_swap_symmetry(self):
        a = mutual_information_value(IntervalConfig(intervals=STANDARD, resolution=16))
        b = mutual_information_value(IntervalConfig(intervals=((2.0, 3.0), (0.0, 1.0)), resolution=16))
        assert a == pytest.approx(b, abs=1e-12)

    def test_component_multiplicity(self):
        base = mutual_information_value(IntervalConfig(intervals=STANDARD, resolution=16))
        tripled = mutual_information_value(IntervalConfig(intervals=STANDARD, resolution=16, components=3))
        assert tripled == pytest.approx(3 * base, abs=1e-12)


class TestSublatticeCrossCheck:
    # site sets with n_even == n_odd, n_even > n_odd and n_even < n_odd
    SITE_SETS = [np.arange(0, 8), np.arange(0, 7), np.r_[np.arange(-3, 2), np.arange(5, 9)]]

    @pytest.mark.parametrize("sites", SITE_SETS)
    def test_spectrum_matches_eigvalsh(self, sites):
        m = hardy_kernel(sites)
        even = sites % 2 == 0
        s = np.linalg.svd(m[np.ix_(even, ~even)], compute_uv=False)
        pad = abs(int(even.sum()) - int((~even).sum()))
        spectrum = np.sort(np.concatenate([0.5 + s, 0.5 - s, np.full(pad, 0.5)]))
        assert np.max(np.abs(spectrum - np.linalg.eigvalsh(m))) <= 1e-12
        expected = fermion._binary_entropy_sums(np.linalg.eigvalsh(m))[0]
        assert sublattice_entropy(system_on(sites)) == pytest.approx(expected, abs=1e-12)

    def test_broken_parity_structure_raises(self):
        # C[0, 2] = C[2, 0] = 1e-6: an entry at an even separation
        sys = system_on(np.arange(0, 6))
        with pytest.raises(ArithmeticError, match="sublattice"):
            sublattice_entropy(with_table(sys, 0, 0, -2, 1e-6))
        with pytest.raises(ArithmeticError, match="sublattice"):
            sublattice_entropy(with_table(sys, 0, 0, 0, 0.5 + 1e-6))
        # tables read at separations one off, so that the odd ones count as even
        shifted = tuple(tuple(lo + 1 for lo in row) for row in sys.lowest)
        with pytest.raises(ArithmeticError, match="sublattice"):
            sublattice_entropy(replace(sys, lowest=shifted))
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        shifted = tuple(tuple(lo + (i != j) for j, lo in enumerate(row)) for i, row in enumerate(sys.lowest))
        with pytest.raises(ArithmeticError, match="sublattice"):
            sigma_trace(replace(sys, lowest=shifted))

    def test_same_parity_defect_in_one_region_raises(self):
        # one Hermitian entry between two sites of region 2 at an even separation breaks that
        # region's table only
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        with pytest.raises(ArithmeticError, match="sublattice"):
            sigma_trace(with_table(sys, 1, 1, 4, 1e-6))

    def test_perturbed_eigensolve_is_caught(self, monkeypatch):
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        eigvalsh = fermion._eigvalsh_eigenvalues
        # shrink the region spectra toward 1/2: still inside [0, 1], wrong entropy
        monkeypatch.setattr(fermion, "_eigvalsh_eigenvalues", lambda m: 0.5 + (eigvalsh(m) - 0.5) * (1 - 1e-6))
        with pytest.raises(ArithmeticError, match="disagree"):
            sigma_trace(sys)

    # canonical stdout (numpy 2.4.6, OpenBLAS 0.3.31); a change to the cross-check must keep it byte-identical
    GOLDEN = {
        ("mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "32"):
            '{"extrapolated":0.095824058326393846,"extrapolation_error":0.045378173136537026,'
            '"mi_nats":0.095824058326393846,"series":[{"value":0.0051757376952479284,"window":16},'
            '{"value":0.021440783289491616,"window":32},{"value":0.050445885189856821,"window":48},'
            '{"value":0.095824058326393846,"window":64}]}\n',
        ("converge", "--intervals", "[[0,1],[2,3]]", "--resolutions", "16,32,64"):
            '{"extrapolated":0.09589399472689196,"resolutions":[16,32,64],'
            '"uncertainty":1.7456640411180436e-05,'
            '"values":[0.095613809078369361,0.095824058326393846,0.095876538086480778]}\n',
        # region 1 after region 2 in row order, windows that do not divide the blocks evenly
        ("mi", "--intervals", "[[2,3],[0,1]]", "--resolution", "40", "--fractions", "0.3,0.6,1"):
            '{"extrapolated":0.095849252661708739,"extrapolation_error":0.064458100515474737,'
            '"mi_nats":0.095849252661708739,"series":[{"value":0.0075389046989924324,"window":24},'
            '{"value":0.031391152146234003,"window":48},{"value":0.095849252661708739,"window":80}]}\n',
        # endpoints off the lattice sites, up to 615 sites
        ("converge", "--intervals", "[[0,1],[1.3,2.7]]", "--resolutions", "32,64,128,256"):
            '{"extrapolated":0.3338464377145538,"resolutions":[32,64,128,256],'
            '"uncertainty":0.0030647377727133218,'
            '"values":[0.32539159639220161,0.33746504732379989,0.33691117548726712,0.3338464377145538]}\n',
        ("mi", "--intervals", "[[0,0.75],[1.25,2],[2.5,3.25]]", "--resolution", "48"):
            '{"extrapolated":0.18010582879114434,"extrapolation_error":0.087463234558822656,'
            '"mi_nats":0.18010582879114434,"series":[{"value":0.0093615230212060752,"window":27},'
            '{"value":0.038920618017773023,"window":54},{"value":0.092642594232321684,"window":81},'
            '{"value":0.18010582879114434,"window":108}]}\n',
    }

    @pytest.mark.parametrize("argv", list(GOLDEN), ids=["mi", "converge", "mi-reversed-regions", "converge-off-site",
                                                 "mi-three-intervals"])
    def test_canonical_output_unchanged(self, capsys, argv):
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == self.GOLDEN[argv]


class TestMISweepDigest:
    # SHA-256 of the stdout of `mi` at resolutions 16 and 32 with --components 1 and 2, in that
    # order, for each mi-sweep geometry of the benchmark (numpy 2.4.6, OpenBLAS 0.3.31).
    DIGESTS = {
        "[[0,1],[2,3]]": "8a8342c526724330a2faec6ac1a62ecf1012e596c22e3ac74d68c5a0a66b1c10",
        "[[0,1],[1.5,2.5]]": "a0403605ea04b2a0da05a1f907d6fa965493a8b2ce4a28553d0f026f0dafaa45",
        "[[0,1],[1.25,2.25]]": "c609ff37f0fab83f397620c670c86f28bbca0cb496a29b7e49c65ee63b7a1faf",
        "[[0,0.5],[1,2.5]]": "ee51b17b9cf4a1be8cf33b6f5a055bba2ac343aabd93eb4184623e62d8d149d6",
        "[[0,1.5],[2,3]]": "882de44e7ee9afaaeb19632c8e5e766c91ff76b2bf31405022b4141cf62e1cdd",
        "[[0,0.75],[1.25,2],[2.5,3.25]]": "51af32a804b336f411b7678c41ba54c4622cbefef9585e1826efffd40e2e0a8b",
        "[[0,1],[1.5,2],[2.5,3.5]]": "874be59068a58c16389ecde040507f8b2c587250a59505373e19652d23d326ab",
        "[[0,0.5],[0.75,1.5],[2,3]]": "3db205bbfb152297eee15e5720a7b767b76845e0edf5fc6872b522a1aea8f25e",
    }

    @pytest.mark.parametrize("intervals", list(DIGESTS))
    def test_stdout_matches_recorded_digest(self, intervals):
        out = io.StringIO()
        with redirect_stdout(out):
            for resolution in ("16", "32"):
                for components in ("1", "2"):
                    assert main(["mi", "--intervals", intervals, "--resolution", resolution,
                                 "--components", components]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.DIGESTS[intervals]


class TestOneBlasThread:
    # SHA-256 of the stdout of each command in a child interpreter on one OpenBLAS thread, the
    # setting the benchmark runs (numpy 2.4.6, OpenBLAS 0.3.31).  The goldens above hold at the
    # host's default thread count; the off-site converge differs from its golden in the last
    # digits on one thread.
    DIGESTS = {
        ("converge", "--intervals", "[[0,1],[1.3,2.7]]", "--resolutions", "32,64,128,256"):
            "5c8e39c9ccfd2d750fd849dd97e4d905737972330507736a6f0f28eebbd80c59",
        ("mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "64"):
            "8d3a79c375437753f48124eb5dfa10908c40789b3eaa065bb0f73ee47e7a34dc",
    }

    @pytest.mark.parametrize("argv", list(DIGESTS), ids=["converge-off-site", "mi"])
    def test_stdout_matches_recorded_digest(self, argv):
        src = str(Path(fermion.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); from araki_mi.cli import main; sys.exit(main(sys.argv[1:]))"
        out = subprocess.run([executable, "-c", code, *argv], capture_output=True, check=True,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert hashlib.sha256(out.stdout).hexdigest() == self.DIGESTS[argv]


class TestPinnedEigenvalues:
    """S_12's eigenvalues: zhetrd + dstedc of numpy's LAPACK, the bits of eigh without its eigenvectors;
    the regions': zhetrd + dsterf, the bits of eigvalsh; each reduces its matrix in place."""

    # every mi-sweep geometry x resolution, and the mi-large systems up to 614 sites (above
    # zhetrd's blocking crossover and dstedc's small-size cutoff), each with its windows
    SYSTEMS = ([(json.loads(g), r) for g in TestMISweepDigest.DIGESTS for r in (16, 32, 48, 64, 80, 96)]
               + [(g, r) for g in ([[0, 1], [2, 3]], [[0, 1], [1.3, 2.7]]) for r in (32, 64, 128, 256)])

    @staticmethod
    def assert_bits_of_eigh(c):
        expected = np.linalg.eigh(c)[0]      # before c is overwritten
        n = c.shape[0]
        # as sigma_trace calls it: c copied into the start of a workspace that dstedc's arrays then reuse
        ws = np.empty(2 * n * n + 4 * n + 16)
        in_workspace = ws[:2 * n * n].view(complex).reshape((n, n), order="F")
        in_workspace[...] = c
        assert np.array_equal(bits(_eigh_eigenvalues(in_workspace, ws)), bits(expected))
        assert np.array_equal(bits(_eigh_eigenvalues(c)), bits(expected))

    @staticmethod
    def systems_with_windows(intervals, resolution):
        sys = build_covariance(IntervalConfig(intervals=intervals, resolution=resolution))
        return [fermion._windowed_system(sys, f) for f in (0.25, 0.5, 0.75)] + [sys]

    @pytest.mark.parametrize("intervals,resolution", SYSTEMS)
    def test_bits_of_eigh_with_windows(self, intervals, resolution):
        for wsys in self.systems_with_windows(intervals, resolution):
            c = hardy_kernel(system_sites(wsys))
            assert c.flags.f_contiguous
            self.assert_bits_of_eigh(c)

    @pytest.mark.parametrize("intervals,resolution", SYSTEMS)
    def test_region_bits_of_eigvalsh_with_windows(self, intervals, resolution):
        for wsys in self.systems_with_windows(intervals, resolution):
            c, ws = hardy_kernel(system_sites(wsys)), workspace(wsys)
            for region, rows in enumerate(region_rows(wsys)):
                expected = np.linalg.eigvalsh(c[np.ix_(rows, rows)])
                block = fermion._square_block(wsys, ws, region)
                assert block.flags.f_contiguous
                assert np.array_equal(bits(_eigvalsh_eigenvalues(block)), bits(expected))

    @pytest.mark.parametrize("intervals,resolution", SYSTEMS)
    def test_blocks_copied_from_tables_are_gathers_of_the_kernel(self, intervals, resolution):
        # regions, windows, the parity blocks of each region, B and C, signed zeros included
        systems = self.systems_with_windows(intervals, resolution)
        full = systems[-1]
        c = hardy_kernel(system_sites(full))
        row_of = {site: row for row, site in enumerate(system_sites(full))}
        parts = {0: np.real, 1: np.imag, None: lambda m: m}
        for wsys in systems:
            ws = workspace(wsys)
            sites = system_sites(wsys)
            assert wsys.part == 1          # every odd-separation entry is imaginary
            for region, rows in zip((0, 1, None), [*region_rows(wsys), np.arange(sites.size)]):
                gathered = [row_of[s] for s in sites[rows]]
                block = fermion._square_block(wsys, ws, region)
                assert block.flags.f_contiguous
                assert np.array_equal(bits(block), bits(c[np.ix_(gathered, gathered)]))
                even = [row_of[s] for s in sites[rows] if s % 2 == 0]
                odd = [row_of[s] for s in sites[rows] if s % 2 != 0]
                for part, of in parts.items():
                    b = fermion._block(wsys, ws, fermion._shares(wsys, region, 0), fermion._shares(wsys, region, 1),
                                       part)
                    assert np.array_equal(bits(b), bits(of(c[np.ix_(even, odd)])))

    @pytest.mark.parametrize("c", [np.zeros((0, 0)), np.array([[0.25]]), toy_matrix(0.25j)],
                             ids=["empty", "1x1", "toy"])
    def test_bits_of_eigh_on_tiny_matrices(self, c):
        expected = np.linalg.eigvalsh(c)
        self.assert_bits_of_eigh(c.copy())
        assert np.array_equal(bits(_eigvalsh_eigenvalues(c)), bits(expected))

    def test_fallback_without_the_binding_gives_the_same_bits(self, monkeypatch):
        config = IntervalConfig(intervals=((0, 1), (1.3, 2.7)), resolution=64)
        pinned = sigma_trace(build_covariance(config))
        eigh, eigvalsh, shapes = np.linalg.eigh, np.linalg.eigvalsh, []
        monkeypatch.setattr(operators, "_pinned_lapack", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(("eigh", m.shape)) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(("eigvalsh", m.shape)) or eigvalsh(m))
        sys = build_covariance(config)
        regions = [("eigvalsh", (rows.size, rows.size)) for rows in region_rows(sys)]
        n = sys.size
        assert np.float64(sigma_trace(sys)).view(np.uint64) == np.float64(pinned).view(np.uint64)
        assert shapes == regions + [("eigh", (n, n))]


class TestEntropyKernel:
    def test_xlogx_vanishes_at_zero_and_one(self):
        out = xlogx(np.array([0.0, 1.0]))
        assert out[0] == 0.0 and out[1] == 0.0

    def test_xlogx_clips_rounding_noise(self):
        assert xlogx(np.array([-5e-9]))[0] == 0.0

    def test_xlogx_rejects_negative_beyond_slack(self):
        with pytest.raises(ArithmeticError):
            xlogx(np.array([0.5, -1e-7]))

    def test_binary_entropy_sum_matches_scalar_reference(self):
        w = np.random.default_rng(12).uniform(0.0, 1.0, size=257)
        w[:3] = (0.0, 1.0, 0.5)
        reference = 0.0
        for x in w:
            if 0.0 < x < 1.0:
                reference += -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)
        assert fermion._binary_entropy_sums(w) == [pytest.approx(reference, rel=1e-14, abs=0.0)]

    def test_binary_entropy_sum_range_check(self):
        assert fermion._binary_entropy_sums(np.array([])) == [0.0]
        with pytest.raises(ArithmeticError, match="outside"):
            fermion._binary_entropy_sums(np.array([0.5, 1.0 + 1e-7]))
        with pytest.raises(ArithmeticError, match="outside"):
            fermion._binary_entropy_sums(np.array([0.5]), np.array([-1e-7]))

    def test_binary_entropy_sums_equal_one_spectrum_at_a_time(self):
        # the kernel before it took several spectra: two x ln x passes per spectrum
        def one_spectrum(w):
            w = np.clip(w, 0.0, 1.0)
            terms = -(xlogx(w) + xlogx(1.0 - w))
            return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])

        rng = np.random.default_rng(5)
        spectra = [rng.uniform(0.0, 1.0, size=n) for n in (0, 1, 7, 300, 0, 64)]
        spectra[2][:2] = (0.0, 1.0)
        assert fermion._binary_entropy_sums(*spectra) == [one_spectrum(w) for w in spectra]


class TestSiteLimit:
    def test_limit_admits_4096_sites(self):
        cfg = IntervalConfig(intervals=((0.0, 1.0), (2.0, 3.0)), resolution=2048)
        assert sum(n for _, n in fermion._site_blocks(cfg)) == 4096 <= fermion.MAX_SITES

    def test_oversized_request_refused_before_allocation(self, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated despite the site limit")

        monkeypatch.setattr(fermion, "hardy_kernel", no_alloc)
        monkeypatch.setattr(fermion, "_kernel_tables", no_alloc)
        monkeypatch.setattr(fermion.np, "arange", no_alloc)
        cfg = IntervalConfig(intervals=STANDARD, resolution=fermion.MAX_SITES)
        with pytest.raises(ValueError, match="limit"):
            build_covariance(cfg)

    def test_overflowing_site_count_refused(self):
        # (b - a) * resolution overflows to inf; int(round(inf)) would raise OverflowError.
        cfg = IntervalConfig(intervals=((-1e308, 0.0), (1.0, 1e308)), resolution=64)
        with pytest.raises(ValueError, match="limit"):
            build_covariance(cfg)


class TestMIConvergence:
    def test_singleton_fraction(self):
        cfg = IntervalConfig(intervals=STANDARD, resolution=16)
        series = mi_convergence(cfg, [1.0])
        assert series.values[0] == pytest.approx(mutual_information_value(cfg), abs=1e-12)

    def test_one_point_series_bounds_nothing(self):
        # as richardson does for one resolution: a single value has no error estimate
        cfg = IntervalConfig(intervals=STANDARD, resolution=16)
        assert mi_convergence(cfg, [1.0]).extrapolation_error == math.inf
        assert richardson([0.5])[1] == math.inf

    def test_window_series_nondecreasing(self):
        cfg = IntervalConfig(intervals=STANDARD, resolution=32)
        series = mi_convergence(cfg, [0.25, 0.5, 0.75, 1.0])
        assert all(b >= a - 1e-9 for a, b in zip(series.values, series.values[1:]))
        assert series.window_sizes[-1] == 64

    def test_rejects_fraction_not_ending_at_one(self):
        cfg = IntervalConfig(intervals=STANDARD, resolution=16)
        with pytest.raises(ValueError):
            mi_convergence(cfg, [0.25, 0.5])

    def test_rejects_empty_window(self):
        cfg = IntervalConfig(intervals=STANDARD, resolution=4)
        with pytest.raises(ValueError):
            mi_convergence(cfg, [0.01, 1.0])


class TestResolutionBehavior:
    def test_doubling_self_convergence(self):
        cfg = IntervalConfig(intervals=STANDARD, resolution=64)
        study = resolution_study(cfg, [64, 128])
        rel = abs(study["values"][1] - study["values"][0]) / study["values"][1]
        assert rel < 0.01

    def test_richardson_on_synthetic_power_law(self):
        # v(h) = 1 + h^2 at h = 1/32, 1/64, 1/128
        values = [1 + (1 / 32) ** 2, 1 + (1 / 64) ** 2, 1 + (1 / 128) ** 2]
        extrapolated, err = richardson(values)
        assert extrapolated == pytest.approx(1.0, abs=1e-9)
        assert err < 1e-4

    def test_separation_decay(self):
        values = []
        for gap in (1, 2, 4, 8):
            cfg = IntervalConfig(intervals=((0.0, 1.0), (1.0 + gap, 2.0 + gap)), resolution=16)
            values.append(mutual_information_value(cfg))
        assert all(b < a for a, b in zip(values, values[1:]))


class TestContinuumOracle:
    def test_two_intervals_closed_form(self):
        # I = (1/3) ln((a2 - a1)(b2 - b1) / ((a2 - b1)(b2 - a1))); region order does not matter
        assert continuum_mi(STANDARD) == pytest.approx(math.log(4.0 / 3.0) / 3.0, rel=1e-15)
        assert continuum_mi(STANDARD[::-1]) == continuum_mi(STANDARD)

    def test_rejects_what_interval_config_rejects(self):
        for intervals, split in ((STANDARD, 2), (STANDARD, 1.5), (STANDARD, True),
                                 (((0, 1), (0.5, 2)), 1), (((0, 1), (2, "3")), 1)):
            with pytest.raises(ValueError):
                continuum_mi(intervals, split)
            with pytest.raises(ValueError):
                IntervalConfig(intervals=intervals, resolution=8, split=split)

    # Endpoints on lattice sites at every resolution; off-site endpoints are a known defect
    # of the Richardson uncertainty.  Measured |extrapolated - continuum| is 1.8e-9 to
    # 2.1e-7 against uncertainties of 4.4e-6 to 1.5e-5.
    @pytest.mark.parametrize("intervals,split", [
        (((0, 1), (2, 3)), 1),
        (((0, 1), (1.25, 2.25)), 1),
        (((0, 0.5), (1, 2.5)), 1),
        (((0, 1), (1.5, 2), (2.5, 3.5)), 1),
        (((0, 1), (1.5, 2), (2.5, 3.5)), 2),
    ])
    def test_extrapolation_covers_continuum(self, intervals, split):
        study = resolution_study(IntervalConfig(intervals=intervals, resolution=16, split=split),
                                 [16, 32, 64, 128])
        assert abs(study["extrapolated"] - continuum_mi(intervals, split)) <= study["uncertainty"]


class TestScalingInvariance:
    @staticmethod
    def scaled_pair(cfg: IntervalConfig, scale: float) -> tuple[float, float]:
        """MI of the config and of the same geometry scaled, at equal site counts."""
        scaled = IntervalConfig(intervals=tuple((a * scale, b * scale) for a, b in cfg.intervals),
                                resolution=cfg.resolution / scale)
        return mutual_information_value(cfg), mutual_information_value(scaled)

    def test_unit_scale(self):
        base, scaled = self.scaled_pair(IntervalConfig(intervals=STANDARD, resolution=16), 1.0)
        assert base == scaled

    @pytest.mark.parametrize("scale", [2.0, 10.0])
    def test_scale_with_matched_site_counts(self, scale):
        base, scaled = self.scaled_pair(IntervalConfig(intervals=STANDARD, resolution=40), scale)
        assert scaled == pytest.approx(base, abs=1e-6)
