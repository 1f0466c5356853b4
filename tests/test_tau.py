import math

import numpy as np
import pytest

from araki_mi import audits, tau
from araki_mi.operators import HermitianOperator, OrthoProjection
from araki_mi.rand import random_block_projection, random_projection, random_psd

LN2 = math.log(2.0)


def hand_instance():
    return HermitianOperator([[1, 1], [1, 1]]), OrthoProjection.from_mask(2, [0])


def commuting_instance():
    a = HermitianOperator(np.diag([0.3, 1.2, 2.5, 0.7]))
    p = OrthoProjection.from_mask(4, [0, 2])
    return a, p


class TestPinch:
    def test_commuting_is_identity(self):
        a, p = commuting_instance()
        assert np.allclose(tau.pinch(a, p).mat, a.mat, atol=1e-12)

    def test_hand_block(self):
        a, p = hand_instance()
        assert np.allclose(tau.pinch(a, p).mat, np.eye(2), atol=1e-12)

    def test_reflection_identity_and_half_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            dim = int(rng.integers(2, 10))
            a = random_psd(rng, dim)
            p = random_block_projection(rng, dim)
            b = tau.pinch(a, p)
            u = 2 * p.mat - np.eye(dim)
            assert np.linalg.norm(b.mat - 0.5 * (a.mat + u @ a.mat @ u)) <= 1e-12
            assert np.linalg.eigvalsh(b.mat - 0.5 * a.mat)[0] >= -1e-10

    def test_rejects_non_psd(self):
        a = HermitianOperator(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            tau.pinch(a, OrthoProjection.from_mask(2, [0]))


class TestBlockCompress:
    def test_mask_selection_equals_dense_products(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 12))
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            p = random_block_projection(rng, dim)
            pm = p.mat
            qm = np.eye(dim) - pm
            assert np.array_equal(tau._block_compress(m, p), pm @ m @ pm + qm @ m @ qm)

    def test_dense_projection_uses_products(self, monkeypatch):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        p = random_projection(rng, 6, 3)
        monkeypatch.setattr(OrthoProjection, "membership",
                            property(lambda self: pytest.fail("selector used")))
        pm = p.mat
        qm = np.eye(6) - pm
        assert tau._block_compress(m, p).tobytes() == (pm @ m @ pm + qm @ m @ qm).tobytes()


class TestTauSpectral:
    def test_commuting_gives_zero(self):
        a, p = commuting_instance()
        assert np.linalg.norm(tau.tau_spectral(a, p).tau.mat) <= 1e-12

    def test_hand_value(self):
        a, p = hand_instance()
        res = tau.tau_spectral(a, p)
        assert np.allclose(res.tau.mat, LN2 * np.eye(2), atol=1e-12)
        assert res.trace == pytest.approx(2 * LN2, abs=1e-12)

    def test_trace_nonnegative_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            a = random_psd(rng, dim)
            p = random_block_projection(rng, dim)
            assert tau.tau_spectral(a, p).trace >= -1e-8

    def test_block_diagonal_wrt_p(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 10))
            a = random_psd(rng, dim)
            p = random_block_projection(rng, dim)
            t = tau.tau_spectral(a, p).tau.mat
            q = np.eye(dim) - p.mat
            assert np.linalg.norm(p.mat @ t @ q) <= 1e-10


class TestTauIntegral:
    def test_commuting_gives_zero(self):
        a, p = commuting_instance()
        assert np.linalg.norm(tau.tau_integral(a, p).tau.mat) <= 1e-8

    def test_matches_spectral_hand_case(self):
        a, p = hand_instance()
        diff = tau.tau_integral(a, p).tau.mat - tau.tau_spectral(a, p).tau.mat
        assert np.linalg.norm(diff) <= 1e-6

    def test_matches_spectral_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_psd(rng, 8)
            p = random_block_projection(rng, 8)
            ri = tau.tau_integral(a, p)
            rs = tau.tau_spectral(a, p)
            assert np.linalg.norm(ri.tau.mat - rs.tau.mat) <= 1e-6
            assert ri.quadrature_error_estimate is not None

    def test_rejects_bad_tolerance(self):
        a, p = hand_instance()
        with pytest.raises(ValueError):
            tau.tau_integral(a, p, tol=0.0)


class TestEpsilonShift:
    def test_commuting_stays_zero(self):
        a, p = commuting_instance()
        for eps in (0.1, 0.01):
            assert np.linalg.norm(tau.tau_epsilon_shift(a, p, eps).mat) <= 1e-10

    def test_shift_decreases_tau(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = random_psd(rng, 6)
            p = random_block_projection(rng, 6)
            t0 = tau.tau_spectral(a, p).tau.mat
            diff = t0 - tau.tau_epsilon_shift(a, p, 0.1).mat
            assert np.linalg.eigvalsh(diff)[0] >= -1e-9

    def test_epsilon_chain_monotone(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 6)
        p = random_block_projection(rng, 6)
        t_a = tau.tau_spectral(a, p).tau.mat
        t1 = tau.tau_epsilon_shift(a, p, 1e-3)
        t2 = tau.tau_epsilon_shift(a, p, 1e-1)
        assert np.linalg.eigvalsh(t_a - t1.mat)[0] >= -1e-9
        assert np.linalg.eigvalsh(t1.mat - t2.mat)[0] >= -1e-9

    def test_shift_norm_vanishes(self):
        rng = np.random.default_rng(6)
        a = random_psd(rng, 6)
        p = random_block_projection(rng, 6)
        t0 = tau.tau_spectral(a, p).tau.mat
        gaps = [np.linalg.norm(tau.tau_epsilon_shift(a, p, eps).mat - t0)
                for eps in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rejects_nonpositive_eps(self):
        a, p = hand_instance()
        with pytest.raises(ValueError):
            tau.tau_epsilon_shift(a, p, 0.0)


class TestFiniteRankMonotonicity:
    def test_identity_window(self):
        rng = np.random.default_rng(7)
        a = random_psd(rng, 6)
        p = random_block_projection(rng, 6)
        full, windowed = tau.finite_rank_monotonicity(a, p, OrthoProjection(np.eye(6)))
        assert full == pytest.approx(windowed, abs=1e-10)

    def test_zero_window(self):
        rng = np.random.default_rng(8)
        a = random_psd(rng, 6)
        p = random_block_projection(rng, 6)
        full, windowed = tau.finite_rank_monotonicity(a, p, OrthoProjection(np.zeros((6, 6))))
        assert windowed == 0.0
        assert full >= -1e-8

    def test_nested_windows(self):
        rng = np.random.default_rng(9)
        a = random_psd(rng, 12)
        p = OrthoProjection.from_mask(12, range(6))
        w1 = OrthoProjection.from_mask(12, [2, 3, 8, 9])
        w2 = OrthoProjection.from_mask(12, [1, 2, 3, 4, 7, 8, 9, 10])
        full, v1 = tau.finite_rank_monotonicity(a, p, w1)
        _, v2 = tau.finite_rank_monotonicity(a, p, w2)
        assert v1 <= v2 + 1e-8
        assert v2 <= full + 1e-8

    def test_rejects_noncommuting_window(self):
        rng = np.random.default_rng(10)
        a = random_psd(rng, 4)
        p = OrthoProjection.from_mask(4, [0, 1])
        v = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)
        w = OrthoProjection(np.outer(v, v))
        v2 = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
        bad = OrthoProjection(np.outer(v2, v2))
        with pytest.raises(ValueError):
            tau.finite_rank_monotonicity(a, p, bad)
        # sanity: a commuting non-block window is accepted
        tau.finite_rank_monotonicity(a, p, w)


class TestResolventBound:
    def test_identity_case(self):
        a = HermitianOperator(np.eye(3))
        p = OrthoProjection.from_mask(3, [0])
        rows = tau.resolvent_bound_check(a, p, [1.0])
        assert rows[0]["lhs"] == pytest.approx(0.5, abs=1e-12)
        assert rows[0]["ok"]

    def test_hand_case_small_t(self):
        a, p = hand_instance()
        rows = tau.resolvent_bound_check(a, p, [0.01])
        assert rows[0]["rhs"] == pytest.approx(math.sqrt(2) * 10, abs=1e-10)
        assert rows[0]["ok"]

    def test_randomized_battery(self):
        rep = audits.resolvent_audit(trials=100, seed=20)
        assert rep.violations == 0


class TestKeyTraceBound:
    def test_commuting_vanishes(self):
        a, p = commuting_instance()
        d, bound = tau.key_trace_bound(a, p, 0.1)
        assert d == pytest.approx(0.0, abs=1e-9)
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        a, p = hand_instance()
        d, bound = tau.key_trace_bound(a, p, 0.1)
        # B - A has eigenvalues +-1, so the bound is 2(pi sqrt(2) + 3 ln 2)
        assert bound == pytest.approx(2 * (math.pi * math.sqrt(2) + 3 * LN2), abs=1e-10)
        assert 0.0 <= d <= bound

    def test_epsilon_sequence_monotone_and_bounded(self):
        rng = np.random.default_rng(11)
        a = random_psd(rng, 8)
        p = random_block_projection(rng, 8)
        bound = tau.key_bound_constant(a, p)
        prev = -math.inf
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            d, b = tau.key_trace_bound(a, p, eps)
            assert b == pytest.approx(bound)
            assert d >= prev - 1e-9
            assert d <= bound + 1e-6
            prev = d


class TestIntegralRepresentation:
    def test_integrand_psd_battery(self):
        rep = audits.integrand_psd_audit(trials=200, seed=21)
        assert rep.violations == 0

    def test_large_t_tail_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = random_psd(rng, 6)
            p = random_block_projection(rng, 6)
            assert tau.tail_integral_identity_gap(a, p) <= 1e-6
