import math

import numpy as np
import pytest

from araki_mi import audits, spectral
from araki_mi.operators import OrthoProjection
from araki_mi.rand import random_block_projection, random_projection, random_unitary
from araki_mi.spectral import (
    SingularProfile,
    SmoothKernelSpec,
    fan_inequality_check,
    fit_decay_slope,
    fourier_eigenvalues,
    full_grid_kernel,
    gaussian_bump_symbol,
    half_power_summability_diagnostic,
    offdiag_half_trace,
    singular_profile,
    smooth_kernel_matrix,
)


class TestSingularProfile:
    def test_zero_matrix(self):
        prof = singular_profile(np.zeros((4, 4)))
        assert np.all(prof.values == 0.0)
        assert prof.half_power_sum() == 0.0

    def test_rank_one(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        prof = singular_profile(np.outer(u, v))
        assert prof.values == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_matches_squared_eigenvalue_route(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        mu = singular_profile(f).values
        lam = np.sort(np.linalg.eigvalsh(f.conj().T @ f))[::-1]
        assert np.allclose(mu**2, lam, atol=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        u = random_unitary(rng, 8)
        v = random_unitary(rng, 8)
        assert np.allclose(singular_profile(u @ f @ v).values, singular_profile(f).values, atol=1e-9)

    def test_rejects_increasing_values(self):
        with pytest.raises(ValueError):
            SingularProfile(np.array([1.0, 2.0]))


class TestFanInequality:
    def test_zero_partner(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((5, 5))
        rep = fan_inequality_check(f, np.zeros((5, 5)))
        assert rep["violations"] == 0
        assert rep["worst_margin"] >= -1e-12

    def test_identity_pair(self):
        rep = fan_inequality_check(np.eye(4), np.eye(4))
        assert rep["violations"] == 0

    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_matches_pairwise_loop(self, dim):
        rng = np.random.default_rng(dim)
        f, g = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
        mu_s, mu_f, mu_g = (spectral.singular_profile(x).values for x in (f + g, f, g))
        margins = [mu_f[n] + mu_g[m] - mu_s[n + m] for n in range(dim) for m in range(dim - n)]
        # a tolerance that every margin violates, so the count is checked too
        tol = -1.0 - max(margins)
        assert fan_inequality_check(f, g, tol=tol) == {
            "checked": len(margins), "violations": len(margins), "worst_margin": min(margins)}
        assert fan_inequality_check(f, g)["violations"] == sum(x < -1e-10 for x in margins)

    def test_randomized_battery(self):
        rep = audits.fan_audit(trials=100, seed=3)
        assert rep.violations == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fan_inequality_check(np.eye(2), np.eye(3))


class TestOffdiagHalfTrace:
    def test_block_diagonal_gives_zero(self):
        p = OrthoProjection.from_mask(4, [0, 1])
        f = np.diag([1.0, 2.0, 3.0, 4.0])
        lhs, rhs = offdiag_half_trace(f, p)
        assert lhs == pytest.approx(0.0, abs=1e-12)

    def test_all_ones_hand_case(self):
        p = OrthoProjection.from_mask(2, [0])
        lhs, rhs = offdiag_half_trace(np.ones((2, 2)), p)
        assert lhs == pytest.approx(2.0, abs=1e-10)
        # (sqrt(2)+1) sqrt(2), frozen from 40-digit evaluation
        assert rhs == pytest.approx(3.41421356237309504880168872420969807857, abs=1e-12)

    def test_randomized_battery(self):
        rep = audits.half_power_audit(trials=300, seed=4)
        assert rep.violations == 0

    @staticmethod
    def _compressions(f, p, monkeypatch):
        seen = []
        singular_values = spectral._singular_values

        def recording(m):
            seen.append(m)
            return singular_values(m)

        monkeypatch.setattr(spectral, "_singular_values", recording)
        offdiag_half_trace(f, p)
        return seen[0], seen[2]  # F1 and the corner PFP; seen[1] is F itself

    def test_mask_selection_equals_dense_products(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(2, 12))
            f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            p = random_block_projection(rng, dim)
            pm = p.mat
            qm = np.eye(dim) - pm
            f1, corner = self._compressions(f, p, monkeypatch)
            assert np.array_equal(f1, pm @ f @ qm + qm @ f @ pm)
            assert np.array_equal(corner, pm @ f @ pm)

    def test_dense_projection_uses_products(self, monkeypatch):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        p = random_projection(rng, 6, 2)
        monkeypatch.setattr(OrthoProjection, "membership",
                            property(lambda self: pytest.fail("selector used")))
        pm = p.mat
        qm = np.eye(6) - pm
        f1, corner = self._compressions(f, p, monkeypatch)
        assert f1.tobytes() == (pm @ f @ qm + qm @ f @ pm).tobytes()
        assert corner.tobytes() == (pm @ f @ pm).tobytes()


def pairwise_kernel(symbol, pts):
    n = pts.shape[0]
    m = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            m[j, k] = symbol(pts[j] - pts[k])
    return m


def counting(symbol):
    def wrapped(x):
        wrapped.calls += 1
        return symbol(x)

    wrapped.calls = 0
    return wrapped


def cosine_symbol(cube_side):
    return lambda x: complex(sum(math.cos(2 * math.pi * (a + 1) * xi / cube_side) for a, xi in enumerate(x)))


class TestDifferenceKernel:
    @pytest.mark.parametrize("cube_side,grid,dims,symbol", [
        (1.0, 16, 1, gaussian_bump_symbol(1.0, 0.2)),
        (1.3, 12, 1, gaussian_bump_symbol(1.3, 0.3)),
        (1.0, 5, 2, cosine_symbol(1.0)),
    ])
    def test_equals_pairwise_loop(self, cube_side, grid, dims, symbol):
        spec = SmoothKernelSpec(cube_side=cube_side, grid=grid, dims=dims, symbol=symbol)
        pts = spec.grid_points()
        expected = pairwise_kernel(symbol, pts)
        assert np.array_equal(spectral._difference_kernel(symbol, pts), expected)
        assert np.array_equal(full_grid_kernel(spec), expected)

    @pytest.mark.parametrize("cube_side,grid,dims", [(1.0, 16, 1), (1.3, 12, 1), (1.0, 5, 2)])
    def test_one_call_per_distinct_difference(self, cube_side, grid, dims):
        spec = SmoothKernelSpec(cube_side=cube_side, grid=grid, dims=dims, symbol=cosine_symbol(cube_side))
        pts = spec.grid_points()
        sym = counting(spec.symbol)
        spectral._difference_kernel(sym, pts)
        distinct = {tuple(x) for x in (pts[:, None, :] - pts[None, :, :]).reshape(-1, dims)}
        assert sym.calls <= len(distinct)

    def test_power_of_two_spacing_calls(self):
        spec = SmoothKernelSpec(cube_side=1.0, grid=16, dims=1, symbol=cosine_symbol(1.0))
        spec.symbol = counting(spec.symbol)
        full_grid_kernel(spec)
        assert spec.symbol.calls == 2 * 16 - 1

    @pytest.mark.parametrize("cube_side,grid,dims,r1,r2", [
        (1.3, 12, 1, [0, 1, 2, 7], [4, 5, 10]),
        (1.0, 5, 2, [(0, 0), (0, 1), (1, 1)], [(3, 3), (4, 2)]),
    ])
    def test_smooth_kernel_blocks_unchanged(self, cube_side, grid, dims, r1, r2):
        symbol = cosine_symbol(cube_side)
        spec = SmoothKernelSpec(cube_side=cube_side, grid=grid, dims=dims, symbol=symbol)
        blocks = smooth_kernel_matrix(spec, r1, r2)
        idx = np.asarray(r1 + r2, dtype=int).reshape(len(r1) + len(r2), dims)
        expected = pairwise_kernel(symbol, idx * (cube_side / grid))
        n1 = len(r1)
        assert np.array_equal(blocks.full, expected)
        assert np.array_equal(blocks.block12, expected[:n1, n1:])
        assert blocks.p1.mask == tuple(range(n1))


class TestSmoothKernel:
    def test_zero_symbol(self):
        spec = SmoothKernelSpec(cube_side=1.0, grid=16, dims=1, symbol=lambda x: 0.0 + 0.0j)
        blocks = smooth_kernel_matrix(spec, range(0, 4), range(8, 12))
        assert np.all(blocks.full == 0.0)

    def test_cosine_symbol_rank_two(self):
        spec = SmoothKernelSpec(cube_side=1.0, grid=32, dims=1,
                                symbol=lambda x: complex(math.cos(2 * math.pi * float(x[0]))))
        blocks = smooth_kernel_matrix(spec, range(0, 8), range(16, 24))
        mu = singular_profile(blocks.full).values
        assert mu[2] <= 1e-10 * mu[0]
        # Fourier oracle: a single cosine mode carries exactly two frequencies
        fe = np.abs(fourier_eigenvalues(spec))
        assert np.count_nonzero(fe > 1e-9 * fe.max()) == 2

    def test_overlapping_regions_rejected(self):
        spec = SmoothKernelSpec(cube_side=1.0, grid=16, dims=1, symbol=lambda x: 0.0j)
        with pytest.raises(ValueError):
            smooth_kernel_matrix(spec, range(0, 5), range(4, 8))

    def test_rejects_nonperiodic_symbol(self):
        with pytest.raises(ValueError):
            SmoothKernelSpec(cube_side=1.0, grid=16, dims=1, symbol=lambda x: complex(float(x[0])))

    def test_gaussian_bump_decay_at_64(self):
        spec = SmoothKernelSpec(cube_side=1.0, grid=64, dims=1,
                                symbol=gaussian_bump_symbol(1.0, 0.2))
        prof = singular_profile(full_grid_kernel(spec))
        assert fit_decay_slope(prof.values, 5, 32) <= -6.0

    def test_fourier_diagonalization_matches_dense(self):
        spec = SmoothKernelSpec(cube_side=2.0, grid=48, dims=1,
                                symbol=gaussian_bump_symbol(2.0, 0.3))
        dense = np.sort(np.abs(np.linalg.eigvalsh(full_grid_kernel(spec).real)))[::-1]
        fe = np.sort(np.abs(fourier_eigenvalues(spec)))[::-1]
        assert np.max(np.abs(dense - fe)) <= 1e-8

    def test_two_dimensional_kernel(self):
        spec = SmoothKernelSpec(cube_side=1.0, grid=8, dims=2,
                                symbol=gaussian_bump_symbol(1.0, 0.25, images=3))
        r1 = [(0, 0), (0, 1), (1, 0)]
        r2 = [(5, 5), (5, 6)]
        blocks = smooth_kernel_matrix(spec, r1, r2)
        assert blocks.full.shape == (5, 5)
        assert blocks.block12.shape == (3, 2)


class TestHalfPowerDiagnostic:
    def test_finite_rank_plateaus(self):
        prof = SingularProfile(np.array([2.0, 1.0] + [0.0] * 98))
        plateau, tail = half_power_summability_diagnostic(prof)
        assert plateau
        assert tail == 0.0

    def test_quartic_decay_plateaus_with_tail(self):
        n = np.arange(1, 8_388_609, dtype=float)
        plateau, tail = half_power_summability_diagnostic(SingularProfile(n**-4))
        assert plateau
        # tail of sum n^-2 beyond N is ~ 1/N
        assert tail == pytest.approx(1.0 / n[-1], rel=0.05)

    def test_harmonic_decay_does_not_plateau(self):
        n = np.arange(1, 100_001, dtype=float)
        plateau, tail = half_power_summability_diagnostic(SingularProfile(n**-1))
        assert not plateau
        assert tail == math.inf

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            half_power_summability_diagnostic(SingularProfile(np.array([])))


class TestDesignatedKernel:
    def test_slope_and_plateau_at_128(self):
        spec = spectral.designated_test_kernel(grid=128)
        prof = singular_profile(full_grid_kernel(spec))
        assert fit_decay_slope(prof.values, 5, 64) <= -6.0
        plateau, _ = half_power_summability_diagnostic(prof)
        assert plateau
