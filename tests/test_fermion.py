import io
import itertools
import json
import math
import os
import subprocess
import threading
import time
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from sys import executable, getswitchinterval, setswitchinterval

import numpy as np
import pytest

from araki_mi import fermion, operators
from araki_mi.cli import main
from araki_mi.fermion import (
    CovarianceSystem,
    IntervalConfig,
    KernelTables,
    build_covariance,
    mi_convergence,
    mutual_information_value,
    resolution_study,
    richardson,
    sigma_trace,
)
from araki_mi.operators import (HermitianOperator, OrthoProjection, _eigh_eigenvalues, _eigvalsh_eigenvalues,
                                _singular_values, xlogx)
from araki_mi.relent import BipartiteShape, DensityMatrix, mutual_information
from araki_mi.tau import tau_spectral
from oracles import continuum_mi, hardy_kernel
from record_mi_goldens import FILE, GROUPS, SWEEP_GEOMETRIES, collect

LN2 = math.log(2.0)
STANDARD = ((0.0, 1.0), (2.0, 3.0))


def toy_matrix(offdiag: complex) -> np.ndarray:
    return np.array([[0.5, offdiag], [np.conj(offdiag), 0.5]], dtype=complex)


def toy_system(offdiag: complex) -> CovarianceSystem:
    """toy_matrix on sites 0 and 1, one site per region: sym(-1) = x, sym(0) = 1/2, sym(1) = conj x."""
    def table(v):
        return np.array([v], dtype=complex)
    return CovarianceSystem(runs=((0, 1), (1, 1)), split=1, kernel=KernelTables(
        lowest=((0, -1), (1, 0)), tables=((table(0.5), table(offdiag)), (table(np.conj(offdiag)), table(0.5)))))


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
    return CovarianceSystem(runs=runs, split=1, kernel=KernelTables(*fermion._kernel_tables(runs)))


def workspace(sys: CovarianceSystem) -> np.ndarray:
    """A workspace of the size sigma_trace takes: C's 2 n^2 + 4 n + 16 entries, or on a few sites an SVD's need."""
    return np.empty(max(need for need, *_ in fermion._system_jobs(sys)))


def sublattice_entropy(sys: CovarianceSystem) -> float:
    """Entropy sum h(spec C) of one covariance from the singular values of its even-odd block."""
    even, odd = fermion._shares(sys, None, 0), fermion._shares(sys, None, 1)
    s, pad = fermion._sublattice_singular_values(sys, workspace(sys), even, odd)
    return 2.0 * fermion._binary_entropy_sums(0.5 + s)[0] + pad * LN2


def square_block(sys: CovarianceSystem, ws: np.ndarray, region) -> np.ndarray:
    """The block of a region, or (None) C itself, copied into the start of ws."""
    rows = fermion._shares(sys, region)
    return fermion._block(sys, ws, rows, rows)


def with_table(sys: CovarianceSystem, i: int, j: int, d: int, value: complex) -> CovarianceSystem:
    """sys with the entry at separation d of table (i, j), and conj of it at -d of table (j, i), set."""
    tables, lowest = [[t.copy() for t in row] for row in sys.kernel.tables], sys.kernel.lowest
    tables[i][j][d - lowest[i][j]] = value
    tables[j][i][-d - lowest[j][i]] = np.conj(value)
    return replace(sys, kernel=KernelTables(tuple(map(tuple, tables)), lowest))


def bits(a) -> np.ndarray:
    """The bit patterns of an array's entries, in row-major order whatever its layout."""
    return np.ascontiguousarray(a).view(np.uint64)


def gathered_kernel(sys: CovarianceSystem) -> np.ndarray:
    """C as `sigma_trace` reduces it: copied from the system's tables into a workspace."""
    return square_block(sys, workspace(sys), None)


@pytest.fixture(scope="module")
def recorded() -> dict:
    """The stdout of every pinned MI request, collected once for the golden tests."""
    return collect()


def assert_recorded(now: dict, cls: str, group: str) -> None:
    """One group's stdout against mi_goldens.json; a failure names both numpy and BLAS stacks."""
    golden = json.loads(FILE.read_text())
    assert now[cls][group] == golden[cls][group], f"recorded on {golden['stack']}, run on {now['stack']}"


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
    """The C that `sigma_trace` reduces, gathered from the tables, against the oracle C of `oracles`."""

    def test_single_site(self):
        assert np.allclose(gathered_kernel(system_on(np.array([3]))), [[0.5]])

    def test_adjacent_sites(self):
        kappa = 1.0 / math.pi
        expected = np.array([[0.5, 1j * kappa], [-1j * kappa, 0.5]])
        assert np.allclose(gathered_kernel(system_on(np.array([0, 1]))), expected, atol=1e-15)

    def test_even_separation_vanishes(self):
        k = gathered_kernel(system_on(np.array([0, 2])))
        assert k[0, 1] == 0.0

    @pytest.mark.parametrize("intervals,resolutions", [
        *((json.loads(g), (16, 32, 48, 64, 80, 96)) for g in SWEEP_GEOMETRIES),
        ([[2, 3], [0, 1]], (40,)),
        ([[0, 1], [1.3, 2.7]], (512,)),   # 1229 sites
    ])
    def test_gathered_matrix_bit_identical_to_formula(self, intervals, resolutions):
        # signed zeros included: the bits of eigh, so the reported digits, depend on them
        for resolution in resolutions:
            sys = build_covariance(IntervalConfig(intervals=intervals, resolution=resolution))
            c = gathered_kernel(sys)
            assert c.flags.f_contiguous      # the layout LAPACK reduces in place
            assert np.array_equal(bits(c), bits(hardy_kernel(system_sites(sys))))

    # one site, no two sites adjacent, runs out of order, and runs 10**12 sites apart (tables per pair
    # of runs, never one table over the whole span)
    @pytest.mark.parametrize("sites", [np.array([3]), 2 * np.arange(6), np.r_[np.arange(5, 9), np.arange(-3, 2)],
                                       np.r_[np.arange(4), 10**12 + np.arange(3)]])
    def test_scattered_sites_bit_identical_to_formula(self, sites):
        assert np.array_equal(bits(gathered_kernel(system_on(sites))), bits(hardy_kernel(sites)))

    @pytest.mark.parametrize("resolution", [8, 16, 32])
    def test_spectrum_in_unit_interval(self, resolution):
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=resolution))
        w = np.linalg.eigvalsh(gathered_kernel(sys))
        assert np.max(np.abs(w - np.clip(w, 0.0, 1.0))) <= 1e-9


class TestSigmaTrace:
    def test_block_diagonal_gives_zero(self):
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        # the tables between the two regions zeroed
        blocked = replace(sys, kernel=replace(sys.kernel, tables=tuple(
            tuple(t if (i < sys.split) == (j < sys.split) else np.zeros_like(t) for j, t in enumerate(row))
            for i, row in enumerate(sys.kernel.tables))))
        assert sigma_trace(blocked) == pytest.approx(0.0, abs=1e-10)

    def test_toy_half_offdiagonal(self):
        assert sigma_trace(toy_system(0.5j)) == pytest.approx(2 * LN2, abs=1e-10)

    def test_toy_quarter_offdiagonal(self):
        # 2 h(1/2) - h(3/4) - h(1/4), frozen from 40-digit evaluation
        expected = 0.2616240718822739182584036124674354208202
        assert sigma_trace(toy_system(0.25j)) == pytest.approx(expected, abs=1e-12)
        assert sigma_trace(toy_system(-0.25j)) == pytest.approx(expected, abs=1e-12)

    def test_check_svd_arithmetic(self, monkeypatch):
        # the imaginary off-diagonal's check takes the real SVD of its imaginary part
        svd, seen = fermion._singular_values, []
        monkeypatch.setattr(fermion, "_singular_values", lambda b, ws: seen.append(b.copy()) or svd(b, ws))
        expected = 0.2616240718822739182584036124674354208202
        assert sigma_trace(toy_system(0.25j)) == pytest.approx(expected, abs=1e-12)
        # the 1 x 1 even-odd block of C; the regions' blocks are empty
        assert [(b.dtype, b.tolist()) for b in seen if b.shape == (1, 1)] == [(np.float64, [[0.25]])]

    @pytest.mark.parametrize("offdiag", [0.25, 0.25 * np.exp(1j * np.pi / 5)], ids=["real", "complex"])
    def test_refuses_an_offdiagonal_with_a_real_part(self, offdiag):
        # the sublattice check: every odd-separation entry of the tables is purely imaginary
        with pytest.raises(ArithmeticError, match="sublattice"):
            toy_system(offdiag)

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

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_one_eigensolve_real_svds_no_matmul(self, monkeypatch, lanes):
        # regression guard: no n^3 recomposition of C, and no complex SVD on the lattice covariance
        # (two lanes solve the region blocks side by side, in either order)
        monkeypatch.setattr(fermion, "_lanes", lambda: lanes)
        monkeypatch.setattr(fermion, "LANE_MIN_SITES", 0)
        order = list if lanes == 1 else sorted
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
        watched(fermion, "_singular_values")
        sys = build_covariance(IntervalConfig(intervals=((0.0, 1.0), (1.5, 2.5), (3.0, 3.75)), resolution=16, split=2))
        n = sys.size
        regions = [(rows.size, rows.size) for rows in region_rows(sys)]
        # every array np.empty makes is watched, the workspace included, and so are C and its blocks,
        # which are copied into views of the workspace
        empty, block = np.empty, fermion._block
        monkeypatch.setattr(np, "empty", lambda *args, **kwargs: empty(*args, **kwargs).view(Watched))
        monkeypatch.setattr(fermion, "_block", lambda *args, **kwargs: block(*args, **kwargs).view(Watched))
        for name in ("matmul", "dot", "vdot", "einsum", "tensordot", "inner", "outer", "kron"):
            monkeypatch.setattr(np, name, lambda *args, name=name, **kwargs: pytest.fail(f"np.{name} called"))
        assert sigma_trace(sys) > 0
        assert [shape for name, shape, _ in calls if name == "_eigh_eigenvalues"] == [(n, n)]
        assert order(shape for name, shape, _ in calls if name == "_eigvalsh_eigenvalues") == order(regions)
        svds = [shape for name, shape, _ in calls if name == "_singular_values"]      # B of each region and of C
        assert order(svds) == order((fermion._shares(sys, r, 0)[1], fermion._shares(sys, r, 1)[1]) for r in (0, 1, None))
        # np.linalg.eigh, eigvalsh and svd run only as those solves' fallbacks
        pinned = operators._pinned_lapack() is not None
        assert [shape for name, shape, _ in calls if name == "eigh"] == ([] if pinned else [(n, n)])
        assert [shape for name, shape, _ in calls if name == "eigvalsh"] == ([] if pinned else regions)
        assert order(shape for name, shape, _ in calls if name == "svd") == ([] if pinned else order(svds))
        assert ({name for name, _, _ in calls} - {"eigh", "eigvalsh", "svd"}
                == {"_eigh_eigenvalues", "_eigvalsh_eigenvalues", "_singular_values"})
        assert all(dtype == np.float64 for name, _, dtype in calls if name in ("_singular_values", "svd"))
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

    @pytest.mark.parametrize("argv,sizes", [
        (("mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "64"), [32, 64, 96, 128]),
        (("converge", "--intervals", "[[0,1],[2,3]]", "--resolutions", "16,32,64"), [32, 64, 128]),
    ], ids=["mi", "converge"])
    @pytest.mark.parametrize("lanes", [1, 2])
    def test_one_workspace_per_request(self, monkeypatch, argv, sizes, lanes):
        # every window of an mi and every resolution of a converge solves in one workspace of
        # 2 n^2 + 4 n + 16 doubles, n the size of the request's largest system, on either lane count
        # (with no job below LANE_MIN_SITES none solves beside C, whose slice then ends the workspace)
        monkeypatch.setattr(fermion, "_lanes", lambda: lanes)
        monkeypatch.setattr(fermion, "LANE_MIN_SITES", 0)
        allocated, solved_in = [], []
        empty, eigh = np.empty, fermion._eigh_eigenvalues
        monkeypatch.setattr(np, "empty", lambda *args, **kwargs: allocated.append(
            empty(*args, **kwargs)) or allocated[-1])
        monkeypatch.setattr(fermion, "_eigh_eigenvalues", lambda c, workspace: (
            solved_in.append((c.shape[0], workspace)) or eigh(c, workspace)))
        with redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0
        n, m = max(sizes), min(sizes)
        # no float64 array but a workspace holds an m x m complex matrix (zhetrd's work is complex)
        workspaces = [a for a in allocated if a.dtype == np.float64 and a.size >= 2 * m * m]
        assert [a.size for a in workspaces] == [2 * n * n + 4 * n + 16]
        # in request order on one lane; on two the largest solve runs alone, after the others
        solved = [size for size, _ in solved_in]
        assert solved == sizes if lanes == 1 else (sorted(solved) == sizes and solved[-1] == n)
        # each solve gets the workspace or a slice of it
        assert all(workspace is workspaces[0] or workspace.base is workspaces[0] for _, workspace in solved_in)

    @pytest.mark.parametrize("argv", [
        ("mi", "--intervals", "[[0,1],[2,3]]", "--resolution", "64"),
        ("converge", "--intervals", "[[0,1],[1.3,2.7]]", "--resolutions", "32,64,128,256"),
    ], ids=["mi", "converge"])
    def test_two_lane_workspace_adds_one_small_job(self, monkeypatch, argv):
        # when C solves on the worker beside the jobs below LANE_MIN_SITES sites, the one workspace is
        # C's need, rounded up to 64 bytes, and the largest need among those jobs
        monkeypatch.setattr(fermion, "_lanes", lambda: 2)
        allocated, planned = [], []
        empty, system_jobs = np.empty, fermion._system_jobs
        monkeypatch.setattr(np, "empty", lambda *args, **kwargs: allocated.append(
            empty(*args, **kwargs)) or allocated[-1])
        monkeypatch.setattr(fermion, "_system_jobs", lambda sys: planned.append(system_jobs(sys)) or planned[-1])
        with redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0
        *others, (need, *_) = [job for jobs in planned for job in jobs]      # C is the last job
        small = max(job[0] for job in others if job[1] < fermion.LANE_MIN_SITES)
        assert [a.size for a in allocated if a.dtype == np.float64 and a.size >= need] == [-(-need // 8) * 8 + small]

    def test_spectrum_escaping_unit_interval_raises(self):
        # spectrum 1/2 -+ 0.6 = (-0.1, 1.1): no covariance of a quasi-free state
        with pytest.raises(ArithmeticError, match="escapes"):
            sigma_trace(toy_system(0.6j))

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
        shifted = tuple(tuple(lo + 1 for lo in row) for row in sys.kernel.lowest)
        with pytest.raises(ArithmeticError, match="sublattice"):
            sublattice_entropy(replace(sys, kernel=replace(sys.kernel, lowest=shifted)))
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        lowest = sys.kernel.lowest
        shifted = tuple(tuple(lo + (i != j) for j, lo in enumerate(row)) for i, row in enumerate(lowest))
        with pytest.raises(ArithmeticError, match="sublattice"):
            sigma_trace(replace(sys, kernel=replace(sys.kernel, lowest=shifted)))

    def test_tables_checked_once_per_set(self, monkeypatch):
        # the windows of an mi share their system's checked tables; each resolution of a converge
        # has its own tables, checked once
        checked, check = [], KernelTables.__post_init__
        monkeypatch.setattr(KernelTables, "__post_init__", lambda kt: checked.append(kt.tables) or check(kt))
        config = IntervalConfig(intervals=STANDARD, resolution=8)
        assert len(mi_convergence(config, [0.25, 0.5, 0.75, 1.0]).values) == 4
        assert len(checked) == 1
        checked.clear()
        assert len(resolution_study(config, [8, 16, 32])["values"]) == 3
        assert len(checked) == 3 and len({id(tables) for tables in checked}) == 3
        # a system built from other tables is still checked
        with pytest.raises(ArithmeticError, match="sublattice"):
            with_table(build_covariance(config), 1, 0, 10, 1e-6)
        assert len(checked) == 5

    @pytest.mark.parametrize("i,j,d,value", [(0, 1, -9, complex(0, np.nan)), (0, 0, 1, complex(0, np.inf))])
    def test_non_finite_odd_entry_refused(self, i, j, d, value):
        # an odd separation's real part is 0 here, so only a finiteness test refuses it before LAPACK
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        with pytest.raises(ArithmeticError, match="not finite"):
            with_table(sys, i, j, d, value)

    def test_float_tables_refused(self):
        # the tables' real parts keep the sublattice structure, but `_block` reads only complex128
        kernel = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8)).kernel
        with pytest.raises(TypeError, match="complex128"):
            replace(kernel, tables=tuple(tuple(t.real.copy() for t in row) for row in kernel.tables))

    def test_windows_share_the_kernel(self):
        sys = build_covariance(IntervalConfig(intervals=STANDARD, resolution=8))
        assert all(fermion._windowed_system(sys, f).kernel is sys.kernel for f in (0.25, 0.5, 0.75))

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

    # canonical stdout at one and at two BLAS threads alike: a change to the cross-check must keep it
    @pytest.mark.parametrize("group", list(GROUPS["TestSublatticeCrossCheck"]))
    def test_canonical_output_unchanged(self, recorded, group):
        assert_recorded(recorded, type(self).__name__, group)


class TestMISweepDigest:
    @pytest.mark.parametrize("group", list(GROUPS["TestMISweepDigest"]))
    def test_stdout_matches_recorded_digest(self, recorded, group):
        assert_recorded(recorded, type(self).__name__, group)


class TestOneBlasThread:
    @pytest.mark.parametrize("group", list(GROUPS["TestOneBlasThread"]))
    def test_stdout_matches_recorded_digest(self, recorded, group):
        assert_recorded(recorded, type(self).__name__, group)


LANE_PRELUDE = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
from araki_mi import cli, fermion, operators
from araki_mi.fermion import IntervalConfig, mi_convergence, resolution_study

lanes = int(sys.argv[2])
fermion._lanes = lambda: lanes
lapack_call, on_worker = operators._lapack_call, []
def recorded(*args):
    on_worker.append(threading.current_thread() is not threading.main_thread())
    return lapack_call(*args)
operators._lapack_call = recorded
"""
LANE_CHILD = LANE_PRELUDE + """
fermion.LANE_MIN_SITES = 0          # every solve that fits may go to the worker
for intervals, resolutions in (("[[0,1],[2,3]]", "32,64,128"), ("[[0,1],[1.3,2.7]]", "32,64,128")):
    assert cli.main(["mi", "--intervals", intervals, "--resolution", "128"]) == 0
    assert cli.main(["converge", "--intervals", intervals, "--resolutions", resolutions]) == 0
three = IntervalConfig(intervals=((0, 0.75), (1.25, 2), (2.5, 3.25)), resolution=128, split=2)
print(json.dumps([v.hex() for v in mi_convergence(three, [0.25, 0.5, 0.75, 1.0]).values]))
print(json.dumps([v.hex() for v in resolution_study(three, [32, 64, 128])["values"]]))
print(sum(on_worker), len(on_worker), file=sys.stderr)
"""
# the package's own lane constants on the mi-sweep geometries, where every C of at least
# LANE_MIN_C_SITES sites solves on the worker beside its request's smaller jobs
SWEEP_LANE_CHILD = LANE_PRELUDE + f"""
for intervals in {SWEEP_GEOMETRIES!r}:
    for resolution in ("64", "80", "96"):
        assert cli.main(["mi", "--intervals", intervals, "--resolution", resolution]) == 0
    assert cli.main(["converge", "--intervals", intervals, "--resolutions", "16,32,64,128"]) == 0
print(sum(on_worker), len(on_worker), file=sys.stderr)
"""


class TestLanes:
    """The solves of a request on one or two lanes: the lane count moves no bit, the worker makes
    no call that the benchmark's tracer wraps, and a failure on it surfaces after it is joined."""

    @staticmethod
    def child(lanes: int, code: str = LANE_CHILD) -> subprocess.CompletedProcess:
        src = str(Path(fermion.__file__).resolve().parents[1])
        return subprocess.run([executable, "-c", code, src, str(lanes)], capture_output=True, text=True,
                              check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})

    def test_lane_count_moves_no_bit(self):
        one, two = self.child(1), self.child(2)
        assert one.stdout == two.stdout and one.stdout.count("\n") == 6
        worker_calls, calls = map(int, two.stderr.split())
        assert int(one.stderr.split()[0]) == 0 and 0 < worker_calls < calls

    def test_lane_count_moves_no_bit_at_the_package_constants(self):
        one, two = self.child(1, SWEEP_LANE_CHILD), self.child(2, SWEEP_LANE_CHILD)
        assert one.stdout == two.stdout and one.stdout.count("\n") == 4 * len(SWEEP_GEOMETRIES)
        worker_calls, calls = map(int, two.stderr.split())
        assert int(one.stderr.split()[0]) == 0 and 0 < worker_calls < calls

    def test_worker_calls_nothing_the_tracer_wraps(self):
        # every np.linalg function and every public araki_mi function (the benchmark tracer's
        # spans, which share one stack) runs on the main thread during two-lane requests at the
        # package's constants: an mi whose C of 154 sites solves beside all its other jobs, and a
        # converge whose jobs of at least LANE_MIN_SITES sites also take the worker before its C
        code = """
import sys, threading
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/../bench"]
import numpy as np
from araki_mi import cli, fermion, operators
from tracer import Tracer
fermion._lanes = lambda: 2
threads, lapack_call = [], operators._lapack_call
def on(name, fn):
    def wrapper(*args, **kwargs):
        threads.append((name, threading.current_thread() is threading.main_thread()))
        return fn(*args, **kwargs)
    return wrapper
operators._lapack_call = on("lapack", lapack_call)
for name in np.linalg.__all__:
    if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
        setattr(np.linalg, name, on("numpy.linalg." + name, getattr(np.linalg, name)))
tracer = Tracer().install()         # its np.linalg wrappers call the ones above
call = tracer._call
tracer._call = lambda name, fn, args, kwargs: on(name, call)(name, fn, args, kwargs)
tracer.request = 0
assert cli.main(["mi", "--intervals", "[[0,1],[1.3,2.7]]", "--resolution", "64"]) == 0
assert cli.main(["converge", "--intervals", "[[0,1],[1.3,2.7]]", "--resolutions", "32,64,128,256"]) == 0
print()
print(sorted({name for name, main in threads if not main}), len(threads))
print(sorted({name.split(".")[0] for name, main in threads if main}))
"""
        out = self.child(2, code).stdout.splitlines()
        assert out[-2].startswith("['lapack'] ")         # the worker made LAPACK calls and nothing else
        assert out[-1] == "['cli', 'fermion', 'lapack', 'linalg', 'numpy', 'operators', 'report']"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_threads_reads_numpys_openblas(self, threads):
        if operators._pinned_lapack() is None:
            pytest.skip("numpy's LAPACK lacks the scipy-openblas symbols")
        src = str(Path(fermion.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); from araki_mi import operators; "
                "print(operators._blas_threads_getter()())")
        out = subprocess.run([executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)})
        assert out.stdout.split() == [str(threads)]

    @staticmethod
    def planned(lanes: int = 2, c_sites: int = 500, fail: bool = False) -> tuple[list, list, int]:
        """(results, (job, on main thread, byte offset, entries) of each solve in the order the lanes ran
        them, workspace entries) of six stand-in jobs at the package's lane constants, whose last, C, needs
        401 entries (408 rounded up to 64 bytes): jobs 0-2 have at least LANE_MIN_SITES sites, 3 and 4 fewer.
        On two lanes jobs 0 and 1, the first each lane pulls, wait for each other, so both lanes work."""
        seen, workspaces = [], set()
        both = threading.Barrier(2, timeout=30) if lanes == 2 else None

        def solve(k):
            def job(view):
                ws = view if view.base is None else view.base
                workspaces.add(ws.size)
                seen.append((k, threading.current_thread() is threading.main_thread(),
                             view.ctypes.data - ws.ctypes.data, view.size))
                if both and k < 2:
                    both.wait()
                if fail and k == 0:
                    raise ArithmeticError("stand-in failure")
                return k
            return job

        # (need, sites, solve): in phase 1 the worker's slice, 297 entries after the main thread's 104, fits jobs 0-2
        jobs = [(100, 300, solve(0)), (50, 290, solve(1)), (30, 280, solve(2)),
                (20, 100, solve(3)), (40, 50, solve(4)), (401, c_sites, solve(5))]
        assert fermion.LANE_MIN_C_SITES <= 500 and all(
            (sites >= fermion.LANE_MIN_SITES) == (k < 3) for k, (_, sites, _) in enumerate(jobs[:5]))
        out = fermion._run_jobs(jobs, lanes)
        assert len(workspaces) == 1
        return out, seen, workspaces.pop()

    # the slice of each lane: phase 1 main ws[:104], worker ws[104:401]; phase 2 worker ws[:401], main ws[408:]
    PHASE_1 = {True: (0, 104), False: (8 * 104, 297)}
    PHASE_2 = {True: (8 * 408, 40), False: (0, 401)}

    @staticmethod
    def by_lane(seen) -> dict:
        """The jobs each lane ran, in the order it ran them (True: the main thread)."""
        return {lane: [k for k, main, *_ in seen if main == lane] for lane in (True, False)}

    def test_c_solves_on_the_worker_beside_the_small_jobs(self):
        # phase 1: jobs 0-2 on both lanes inside C's slice, each lane most sites first; phase 2: C first
        # on the worker in ws[:401], then the small jobs on either lane, most sites first, in its slice
        out, seen, size = self.planned()
        assert out == [0, 1, 2, 3, 4, 5] and size == 408 + 40
        assert sorted(k for k, *_ in seen) == [0, 1, 2, 3, 4, 5]
        assert {k for k, *_ in seen[:3]} == {0, 1, 2}                  # phase 1 ends before phase 2 starts
        assert all((offset, entries) == (self.PHASE_1 if k < 3 else self.PHASE_2)[main]
                   for k, main, offset, entries in seen)
        ran = self.by_lane(seen)
        worker, c_at = ran[False], ran[False].index(5)
        assert set(worker[:c_at]) <= {0, 1, 2} and set(worker[c_at + 1:]) <= {3, 4}
        assert {ran[True][0], worker[0]} == {0, 1}                      # both lanes pulled one of the largest
        assert all(r == sorted(r) for r in (ran[True], worker[:c_at], worker[c_at + 1:]))     # most sites first

    @pytest.mark.parametrize("lanes,c_sites", [(2, fermion.LANE_MIN_C_SITES - 1), (1, 500)], ids=["small-c", "one-lane"])
    def test_c_runs_alone_last(self, lanes, c_sites):
        # a C below LANE_MIN_C_SITES, or any C on one lane, runs alone on the main thread after the others,
        # in a workspace of its own need; the small jobs stay on the main thread, and one lane runs the
        # jobs in request order
        out, seen, size = self.planned(lanes, c_sites)
        assert out == [0, 1, 2, 3, 4, 5] and size == 401 and seen[-1] == (5, True, 0, 401)
        assert sorted(k for k, *_ in seen) == [0, 1, 2, 3, 4, 5]
        assert all((offset, entries) == self.PHASE_1[main] for k, main, offset, entries in seen[:-1])
        ran = self.by_lane(seen)
        if lanes == 1:
            assert ran == {True: [0, 1, 2, 3, 4, 5], False: []}
        else:
            assert set(ran[False]) <= {0, 1, 2} and {ran[True][0], ran[False][0]} == {0, 1}
            assert all(r == sorted(r) for r in (ran[True], ran[False]))

    def test_failure_skips_c_but_not_the_jobs_beside_it(self):
        # C does not start once a job has failed; the small jobs still run, so every system before
        # the failing one has its results
        out, seen, _ = self.planned(fail=True)
        assert isinstance(out[0], ArithmeticError) and out[1:] == [1, 2, 3, 4, None]
        assert sorted(k for k, *_ in seen) == [0, 1, 2, 3, 4]
        assert all((offset, entries) == (self.PHASE_1 if k < 3 else self.PHASE_2)[main]
                   for k, main, offset, entries in seen)

    def test_errors_surface_system_by_system(self, monkeypatch):
        # converge at 64, 128, 256 and 512 sites: a region solve of 256 sites (the last system's, on
        # two lanes before C) and one of 64 (the second system's, beside C) both fail; the second
        # system's failure is raised, as a loop over the systems would raise it, and C never starts
        monkeypatch.setattr(fermion, "_lanes", lambda: 2)
        eigvalsh, eigh, solved = fermion._eigvalsh_eigenvalues, fermion._eigh_eigenvalues, []

        def failing(c):
            if c.shape[0] in (64, 256):
                raise ArithmeticError(f"stand-in failure at {c.shape[0]} sites")
            return eigvalsh(c)

        monkeypatch.setattr(fermion, "_eigvalsh_eigenvalues", failing)
        monkeypatch.setattr(fermion, "_eigh_eigenvalues", lambda c, ws: solved.append(c.shape[0]) or eigh(c, ws))
        config = IntervalConfig(intervals=STANDARD, resolution=32)
        with pytest.raises(ArithmeticError, match="at 64 sites"):
            resolution_study(config, [32, 64, 128, 256])
        assert sorted(solved) == [64, 128, 256]
        # with the second system sound, the fourth system's failure is raised after the others are checked
        monkeypatch.setattr(fermion, "_eigvalsh_eigenvalues", lambda c: failing(c) if c.shape[0] > 64 else eigvalsh(c))
        with pytest.raises(ArithmeticError, match="at 256 sites"):
            resolution_study(config, [32, 64, 128, 256])

    @pytest.mark.parametrize("min_sites", [0, fermion.LANE_MIN_SITES], ids=["all-solves", "c-beside"])
    def test_worker_failure_surfaces_after_join(self, capsys, monkeypatch, min_sites):
        # with no floor the worker fails on a solve before C; at the package's, on C (154 sites)
        monkeypatch.setattr(fermion, "_lanes", lambda: 2)
        monkeypatch.setattr(fermion, "LANE_MIN_SITES", min_sites)
        lapack_call, failed = operators._lapack_call, []

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                failed.append(args[0])
                raise ArithmeticError("LAPACK failed on the worker")
            return lapack_call(*args)

        monkeypatch.setattr(operators, "_lapack_call", failing)
        before = threading.active_count()
        code = main(["mi", "--intervals", "[[0,1],[1.3,2.7]]", "--resolution", "64"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "") and failed
        assert json.loads(captured.err) == {"detail": "LAPACK failed on the worker",
                                            "error": "numerical"}
        assert threading.active_count() == before

    @pytest.mark.parametrize("geometry", [json.loads(g) for g in SWEEP_GEOMETRIES] + [[[0, 1], [2, 3.01]]])
    def test_shared_region_jobs_solve_equal_matrices(self, geometry):
        # a job shared by the two regions is solved on bit-equal blocks, also in windows of runs of
        # unequal length (100 and 101 sites: the windows of 25 and 50 sites share their region job)
        sys = build_covariance(IntervalConfig(intervals=geometry, resolution=100))
        eig0, eig1, *_ = fermion._system_jobs(sys)
        assert (eig0 is eig1) == (len(geometry) == 2 and sys.runs[0][1] == sys.runs[1][1])
        for wsys in [sys] + [fermion._windowed_system(sys, f) for f in (0.25, 0.5, 0.75)]:
            eig0, eig1, svd0, svd1, *_ = fermion._system_jobs(wsys)
            ws0, ws1 = workspace(wsys), workspace(wsys)
            if eig0 is eig1:
                assert bits(square_block(wsys, ws0, 0)).tobytes() == bits(
                    square_block(wsys, ws1, 1)).tobytes()
            if svd0 is svd1:
                blocks = [fermion._block(wsys, ws, fermion._shares(wsys, r, 0), fermion._shares(wsys, r, 1), part=1)
                          for ws, r in ((ws0, 0), (ws1, 1))]
                assert bits(blocks[0]).tobytes() == bits(blocks[1]).tobytes()


class TestPullInvariants:
    """Two lanes pull the real jobs of a converge of 16 to 64 sites, each held for a seeded random delay, at
    floors low enough that it runs both phases.  Whichever lane takes a job: every job runs once, in a slice
    it fits; jobs that overlap in time use disjoint slices; a phase-1 worker job has LANE_MIN_SITES sites;
    C runs first on the worker in phase 2, and not at all after a phase-1 failure; every bit equals one
    lane's; and errors surface system by system."""

    SYSTEMS = [build_covariance(IntervalConfig(intervals=STANDARD, resolution=r)) for r in (8, 16, 24, 32)]
    MIN_SITES = 24

    def run(self, monkeypatch, seed: int, failing: int = 0):
        """(sigma traces or the exception raised, (job, sites, need, on main thread, first entry, entries,
        start, end) of each solve, the jobs of each system in order, the failing jobs); jobs are numbered in
        the order of the request's job list, and `failing` of them, drawn from the seed, raise."""
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(fermion, "_lanes", lambda: 2)
        monkeypatch.setattr(fermion, "LANE_MIN_SITES", self.MIN_SITES)
        monkeypatch.setattr(fermion, "LANE_MIN_C_SITES", 16)
        count = sum(len({id(job) for job in fermion._system_jobs(sys)}) for sys in self.SYSTEMS)
        fail = set(rng.choice(count, failing, replace=False).tolist())
        log, held, originals, order = [], {}, [], []
        system_jobs = fermion._system_jobs

        def hold(job):
            key, (need, sites, solve), delay = len(held), job, rng.uniform(0.0, 0.003)

            def run(view):
                ws = view if view.base is None else view.base
                start = time.perf_counter()
                time.sleep(delay)
                try:
                    if key in fail:
                        raise ArithmeticError(f"stand-in failure of job {key}")
                    return solve(view)
                finally:
                    log.append((key, sites, need, threading.current_thread() is threading.main_thread(),
                                (view.ctypes.data - ws.ctypes.data) // 8, view.size, start, time.perf_counter()))
            return key, (need, sites, run)

        def jobs_of(sys):
            jobs = system_jobs(sys)
            originals.append(jobs)          # keeps each job's id unique while the request runs
            for job in jobs:
                if id(job) not in held:     # a job two regions share is held once
                    held[id(job)] = hold(job)
            order.append([held[id(job)][0] for job in jobs])
            return [held[id(job)][1] for job in jobs]

        monkeypatch.setattr(fermion, "_system_jobs", jobs_of)
        interval = getswitchinterval()
        setswitchinterval(1e-6)         # the lanes switch often, also between a pick and its removal
        try:
            result = fermion._sigma_traces(self.SYSTEMS)
        except ArithmeticError as exc:
            result = exc
        finally:
            setswitchinterval(interval)
        return result, log, order, fail

    def check_plan(self, log, c):
        """The invariants of every run; whether C ran."""
        keys = [key for key, *_ in log]
        assert len(keys) == len(set(keys))
        assert all(need <= entries for _, _, need, _, _, entries, *_ in log)
        for a, b in itertools.combinations(log, 2):
            if a[6] < b[7] and b[6] < a[7]:         # overlapping in time
                assert a[4] + a[5] <= b[4] or b[4] + b[5] <= a[4]
        # the worker's phase-1 slice starts after the main thread's, its phase-2 slice at the workspace's start
        worker = [(key, sites, first) for key, sites, _, main, first, *_ in log if not main]
        phase_1 = list(itertools.takewhile(lambda job: job[2] > 0, worker))
        phase_2 = worker[len(phase_1):]
        assert all(sites >= self.MIN_SITES for _, sites, _ in phase_1)
        assert all(first == 0 and (sites < self.MIN_SITES or key == c) for key, sites, first in phase_2)
        ran_c = c in keys
        if ran_c:       # first in phase 2, in ws[:need(C)]
            assert phase_2[0][0] == c and log[keys.index(c)][5] == log[keys.index(c)][2]
        return ran_c

    @pytest.mark.parametrize("seed", range(6))
    def test_every_job_once_and_bits_of_one_lane(self, monkeypatch, seed):
        monkeypatch.setattr(fermion, "_lanes", lambda: 1)
        expected = fermion._sigma_traces(self.SYSTEMS)
        values, log, order, _ = self.run(monkeypatch, seed)
        jobs = sorted({key for keys in order for key in keys})
        assert sorted(key for key, *_ in log) == jobs
        assert self.check_plan(log, jobs[-1])
        assert not all(main for _, _, _, main, *_ in log) and any(main for _, _, _, main, *_ in log)
        assert np.array_equal(bits(values), bits(expected))

    @pytest.mark.parametrize("seed", range(6))
    def test_failures_surface_system_by_system(self, monkeypatch, seed):
        error, log, order, fail = self.run(monkeypatch, seed, failing=1 + seed % 2)
        keys = [key for keys in order for key in keys]
        c = keys[-1]
        assert isinstance(error, ArithmeticError)
        assert str(error) == f"stand-in failure of job {next(key for key in keys if key in fail)}"
        phase_1_failed = any(sites >= self.MIN_SITES and key in fail and key != c for key, sites, *_ in log)
        assert self.check_plan(log, c) == (not phase_1_failed)
        assert sorted(key for key, *_ in log) == sorted(set(keys) - ({c} if phase_1_failed else set()))


class TestPinnedEigenvalues:
    """S_12's eigenvalues: zhetrd + dstedc of numpy's LAPACK, the bits of eigh without its eigenvectors;
    the regions': zhetrd + dsterf, the bits of eigvalsh; each reduces its matrix in place."""

    # every mi-sweep geometry x resolution, and the mi-large systems up to 614 sites (above
    # zhetrd's blocking crossover and dstedc's small-size cutoff), each with its windows
    SYSTEMS = ([(json.loads(g), r) for g in SWEEP_GEOMETRIES for r in (16, 32, 48, 64, 80, 96)]
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
        assert np.array_equal(bits(_eigh_eigenvalues(c, np.empty(2 * n * n + 4 * n + 16))), bits(expected))

    def test_short_or_complex_workspace_refused(self):
        # the size and dtype check keeps each lane's dstedc arrays inside its own workspace slice
        c = gathered_kernel(build_covariance(IntervalConfig(intervals=STANDARD, resolution=8)))
        n = c.shape[0]
        for ws in (np.empty(n * n), np.empty(2 * n * n + 4 * n + 16, dtype=complex)):
            with pytest.raises(ValueError, match="workspace"):
                _eigh_eigenvalues(c.copy(order="F"), ws)

    @staticmethod
    def systems_with_windows(intervals, resolution):
        sys = build_covariance(IntervalConfig(intervals=intervals, resolution=resolution))
        return [fermion._windowed_system(sys, f) for f in (0.25, 0.5, 0.75)] + [sys]

    @pytest.mark.parametrize("intervals,resolution", SYSTEMS)
    def test_bits_of_eigh_with_windows(self, intervals, resolution):
        for wsys in self.systems_with_windows(intervals, resolution):
            c = gathered_kernel(wsys)
            assert c.flags.f_contiguous
            self.assert_bits_of_eigh(c)

    @pytest.mark.parametrize("intervals,resolution", SYSTEMS)
    def test_region_bits_of_eigvalsh_with_windows(self, intervals, resolution):
        for wsys in self.systems_with_windows(intervals, resolution):
            c, ws = hardy_kernel(system_sites(wsys)), workspace(wsys)
            for region, rows in enumerate(region_rows(wsys)):
                expected = np.linalg.eigvalsh(c[np.ix_(rows, rows)])
                block = square_block(wsys, ws, region)
                assert block.flags.f_contiguous
                assert np.array_equal(bits(_eigvalsh_eigenvalues(block)), bits(expected))

    @pytest.mark.parametrize("intervals,resolution", SYSTEMS)
    def test_hardy_kernel_equals_the_kernel_written_out(self, intervals, resolution):
        # the oracle C against a second writing of it: sym(d) = (k(d) + conj k(-d)) / 2
        # is evaluated at every d = s_i - s_j directly, with k(0) = 1/2, k(d) = -i/(pi d) at odd d, else 0
        def k(d):
            odd = d % 2 != 0
            out = np.where(d == 0, 0.5, 0.0).astype(complex)
            out[odd] = -1j / (math.pi * d[odd])
            return out

        for wsys in self.systems_with_windows(intervals, resolution):
            sites = system_sites(wsys)
            d = sites[:, None] - sites[None, :]
            assert np.array_equal(bits(hardy_kernel(sites)), bits(0.5 * (k(d) + np.conj(k(-d)))))

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
            for region, rows in zip((0, 1, None), [*region_rows(wsys), np.arange(sites.size)]):
                gathered = [row_of[s] for s in sites[rows]]
                block = square_block(wsys, ws, region)
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

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 200), (7, 3), (300, 20), (512, 512)])
    def test_bits_of_svd(self, shape):
        # as a lane solves it: the block copied in Fortran order into the start of its workspace slice
        # (64-byte aligned, as each lane's is), whose entries after the block take dgesdd's work array
        m, k = shape
        b = np.random.default_rng(m * k).standard_normal(shape)
        expected = np.linalg.svd(b, compute_uv=False)
        view = np.empty(8 + m * k + operators._svd_workspace(m, k))[8:]
        block = view[:m * k].reshape(shape, order="F")
        block[...] = b
        assert np.array_equal(bits(_singular_values(block, view)), bits(expected))
        if operators._pinned_lapack() is not None:
            with pytest.raises(ValueError, match="workspace"):
                _singular_values(b.copy(order="F"), view[:-1])

    @pytest.mark.parametrize("intervals,resolution", SYSTEMS)
    def test_sublattice_bits_of_svd_with_windows(self, intervals, resolution):
        # the check route's singular values of B, of C and of each region, are svd's of its gathered block
        for wsys in self.systems_with_windows(intervals, resolution):
            sites, ws = system_sites(wsys), workspace(wsys)
            c = hardy_kernel(sites)
            for region, rows in zip((0, 1, None), [*region_rows(wsys), np.arange(sites.size)]):
                even, odd = rows[sites[rows] % 2 == 0], rows[sites[rows] % 2 != 0]
                expected = np.linalg.svd(c[np.ix_(even, odd)].imag, compute_uv=False)
                shares = fermion._shares(wsys, region, 0), fermion._shares(wsys, region, 1)
                assert np.array_equal(bits(fermion._sublattice_singular_values(wsys, ws, *shares)[0]), bits(expected))

    def test_fallback_without_the_binding_gives_the_same_bits(self, monkeypatch):
        config = IntervalConfig(intervals=((0, 1), (1.3, 2.7)), resolution=64)
        pinned = sigma_trace(build_covariance(config))
        eigh, eigvalsh, svd, shapes = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd, []
        monkeypatch.setattr(operators, "_pinned_lapack", lambda: None)
        monkeypatch.setattr(fermion, "_blas_threads_getter", lambda: None)     # so one lane, as without the symbols
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(("eigh", m.shape)) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(("eigvalsh", m.shape)) or eigvalsh(m))
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: shapes.append(("svd", m.shape)) or svd(m, **kw))
        sys = build_covariance(config)
        regions = [("eigvalsh", (rows.size, rows.size)) for rows in region_rows(sys)]
        svds = [("svd", (fermion._shares(sys, r, 0)[1], fermion._shares(sys, r, 1)[1])) for r in (0, 1, None)]
        n = sys.size
        assert np.float64(sigma_trace(sys)).view(np.uint64) == np.float64(pinned).view(np.uint64)
        assert shapes == regions + svds + [("eigh", (n, n))]


class TestEntropyKernel:
    def test_xlogx_vanishes_at_zero_and_one(self):
        out = xlogx(np.array([0.0, 1.0]))
        assert out[0] == 0.0 and out[1] == 0.0

    def test_xlogx_clips_rounding_noise(self):
        assert xlogx(np.array([-5e-9]))[0] == 0.0

    def test_xlogx_rejects_negative_beyond_slack(self):
        with pytest.raises(ArithmeticError):
            xlogx(np.array([0.5, -1e-7]))

    def test_xlogx_slack_scales_with_each_spectrum(self):
        # -1e-8 max(1, max |w|) along the last axis: eigh's zero eigenvalues of a large PSD matrix pass
        assert xlogx(np.array([-0.5, 1e8]))[0] == 0.0
        with pytest.raises(ArithmeticError, match="-1.000e-07"):
            xlogx(np.array([[-0.5, 1e8], [-1e-7, 1.0]]))

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
        # sigma_trace checks the spectrum of C against [0, 1]; here rounding outside it is clamped
        assert fermion._binary_entropy_sums(np.array([0.5, 1.0 + 1e-7]), np.array([-1e-7])) == \
            fermion._binary_entropy_sums(np.array([0.5, 1.0]), np.array([0.0]))

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
    # 2.1e-7 against uncertainties of 4.4e-6 to 1.5e-5; on the off-integer ladder 20..160
    # (384 sites at 160, whose C solves beside the smaller jobs on two lanes), 3.6e-8 against 4.8e-6.
    LADDERS = {((0, 1), (1.3, 2.7)): (20, 40, 80, 160)}     # else 16..128

    @pytest.mark.parametrize("intervals,split", [
        (((0, 1), (2, 3)), 1),
        (((0, 1), (1.25, 2.25)), 1),
        (((0, 0.5), (1, 2.5)), 1),
        (((0, 1), (1.5, 2), (2.5, 3.5)), 1),
        (((0, 1), (1.5, 2), (2.5, 3.5)), 2),
        (((0, 1), (1.3, 2.7)), 1),
    ])
    def test_extrapolation_covers_continuum(self, intervals, split):
        resolutions = self.LADDERS.get(intervals, (16, 32, 64, 128))
        study = resolution_study(IntervalConfig(intervals=intervals, resolution=resolutions[0], split=split),
                                 resolutions)
        assert abs(study["extrapolated"] - continuum_mi(intervals, split)) <= study["uncertainty"]


class TestTauRoute:
    """The paper's definition through the `tau` module: for the free fermion, Araki's relative
    entropy is Tr tau_C + Tr tau_{1-C} with P the region-1 mask, since Tr tau_A = Tr A ln A - Tr B ln B."""

    @pytest.mark.parametrize("resolution", [16, 32])    # 32 and 64 sites
    def test_tau_traces_equal_mutual_information(self, resolution):
        # measured relative gaps: 9.7e-13 at 32 sites, 8.6e-13 at 64
        config = IntervalConfig(intervals=STANDARD, resolution=resolution)
        sys = build_covariance(config)
        c = hardy_kernel(system_sites(sys))
        p = OrthoProjection.from_mask(sys.size, region_rows(sys)[0])
        value = sum(tau_spectral(HermitianOperator(m), p).trace for m in (c, np.eye(sys.size) - c))
        assert value == pytest.approx(mutual_information_value(config), rel=1e-11)


def jordan_wigner_annihilators(n: int) -> list[np.ndarray]:
    """c_j = Z (x) ... (x) Z (x) sigma^- (x) 1 (x) ... (x) 1 on n modes, mode 0 the leftmost factor."""
    z, lower = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = []
    for j in range(n):
        c = np.ones((1, 1))
        for factor in [z] * j + [lower] + [np.eye(2)] * (n - j - 1):
            c = np.kron(c, factor)
        ops.append(c)
    return ops


class TestFockSpaceOracle:
    """The paper's definition end to end: the Gaussian state of C on Fock space through relent.

    rho ~ exp(-sum h_ij c_i^dagger c_j) with h = ln((1 - C)/C) (Peschel, J. Phys. A 36 (2003)
    L205) has <c_i^dagger c_j> = C_ji, and its mutual information between the modes of region
    1 (the first 2^n1 tensor factor) and the rest is an independent route to sigma_trace.
    """

    @pytest.mark.parametrize("intervals,resolution", [
        (((0, 1), (2, 3)), 4),
        (((0, 1), (1.5, 2.5)), 4),
        (((0, 0.75), (1.25, 2), (2.5, 3.25)), 3),
    ])
    def test_relative_entropy_route_equals_sigma_trace(self, intervals, resolution):
        cfg = IntervalConfig(intervals=intervals, resolution=resolution)
        sys = build_covariance(cfg)
        n, n1 = sys.size, sum(count for _, count in sys.runs[:sys.split])
        assert n <= 8                           # the dense Fock-space build grows as 4^n
        c = hardy_kernel(system_sites(sys))     # region 1's sites first
        w, u = np.linalg.eigh(c)
        h = (u * np.log((1.0 - w) / w)) @ u.conj().T
        ops = jordan_wigner_annihilators(n)
        ham = sum(h[i, j] * ops[i].T @ ops[j] for i in range(n) for j in range(n))
        e, v = np.linalg.eigh(0.5 * (ham + ham.conj().T))
        rho = (v * np.exp(-(e - e[0]))) @ v.conj().T
        rho = rho / np.trace(rho).real
        two_point = np.array([[np.trace(rho @ ops[i].T @ ops[j]) for j in range(n)] for i in range(n)])
        assert np.max(np.abs(two_point - c.T)) <= 1e-12
        mi = mutual_information(DensityMatrix(0.5 * (rho + rho.conj().T)), BipartiteShape(2**n1, 2**(n - n1)))
        assert mi > 1e-3
        assert mi == pytest.approx(sigma_trace(sys), abs=1e-12)


class TestScalingInvariance:
    @staticmethod
    def scaled(cfg: IntervalConfig, scale: float) -> IntervalConfig:
        """The same geometry scaled, at equal site counts."""
        return IntervalConfig(intervals=tuple((a * scale, b * scale) for a, b in cfg.intervals),
                              resolution=cfg.resolution / scale)

    def scaled_pair(self, cfg: IntervalConfig, scale: float) -> tuple[float, float]:
        """MI of the config and of the same geometry scaled."""
        return mutual_information_value(cfg), mutual_information_value(self.scaled(cfg, scale))

    def test_unit_scale(self):
        base, scaled = self.scaled_pair(IntervalConfig(intervals=STANDARD, resolution=16), 1.0)
        assert base == scaled

    @pytest.mark.parametrize("scale", [2.0, 10.0])
    def test_scale_with_matched_site_counts(self, scale):
        # scaling the intervals and the spacing alike gives the same lattice, so the same MI bits
        cfg = IntervalConfig(intervals=STANDARD, resolution=40)
        assert build_covariance(self.scaled(cfg, scale)).runs == build_covariance(cfg).runs
        base, scaled = self.scaled_pair(cfg, scale)
        assert scaled == base

    @pytest.mark.parametrize("intervals", [
        ((5, 6), (7, 8)), ((100, 101), (102, 103)),    # translations by whole sites
        ((1 / 64, 65 / 64), (129 / 64, 193 / 64)),     # by one site, which flips every site's parity
        ((-3, -2), (-1, 0)),                           # the mirror image, its intervals in the same order
    ])
    def test_lattice_symmetries(self, intervals):
        # a translated lattice has the same C and a mirrored one its complex conjugate: the same MI bits
        base = mutual_information_value(IntervalConfig(intervals=STANDARD, resolution=64))
        assert mutual_information_value(IntervalConfig(intervals=intervals, resolution=64)) == base
