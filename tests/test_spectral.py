import math

import numpy as np
import pytest

from araki_mi import audits, spectral
from araki_mi.operators import OrthoProjection
from araki_mi.rand import random_unitary
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
