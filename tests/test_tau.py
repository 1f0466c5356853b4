import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from araki_mi import audits, tau
from araki_mi.operators import HermitianOperator, OrthoProjection, xlogx
from araki_mi.rand import (gaussian_matrix, psd_from_factor, random_block_projection, random_projection,
                           random_psd, random_unitary)

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

    def test_near_commuting_wide_spectrum(self):
        # tau_A is decades below its two terms P A ln A P + (1-P) A ln A (1-P) and B ln B, each
        # Hermitian only to about eps ||A ln A||; judged against ||tau||, 26 of these 30 raised
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, p = near_commuting_instance(rng)
            res = tau.tau_spectral(a, p)
            closed = np.sum(xlogx(a.eigenvalues)) - np.sum(xlogx(np.linalg.eigvalsh(tau.pinch(a, p).mat)))
            assert abs(res.trace - closed) <= 1e-13 * np.linalg.norm(xlogx(a.eigenvalues))


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

    @pytest.mark.parametrize("integral", [tau.tau_integral, tau.tail_integral_identity_gap,
                                          lambda a, p, tol: tau.truncated_trace(a, p, 0.1, tol)])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_integrals_refuse_bad_tolerance_before_work(self, monkeypatch, integral, tol):
        # no integrand is built
        monkeypatch.setattr(tau, "_BlockIntegrand", lambda a, p: pytest.fail("integrand built"))
        a, p = hand_instance()
        with pytest.raises(ValueError, match="tol must be positive"):
            integral(a, p, tol=tol)


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

    def test_tail_identity_to_rounding_level(self):
        rng = np.random.default_rng(13)
        for dim in range(5, 41, 5):
            a = random_psd(rng, dim)
            p = random_block_projection(rng, dim)
            assert tau.tail_integral_identity_gap(a, p) <= 1e-12


def wide_spectrum_instance(rng):
    """(A, P, eps): rank-deficient A of dim 3-24 with eigenvalues from 1e-12 to 1e6, P a mask.

    A is diag(A_hi, A_lo), each block in a random basis: A_hi has eigenvalues in
    [1e-3, 1e6], A_lo in [1e-12, 1e-3] and at least one zero.  eigh keeps the
    two blocks apart in this order.  In one basis for the whole spectrum, or
    with the coordinates permuted, it finds the zero eigenvalues only to about
    +-2e-10, which the PSD check's tolerance, -1e-10 times max(1, ||A||), admits.
    """
    n = int(rng.integers(3, 25))
    hi = int(rng.integers(1, n - 1))
    w_lo = 10.0 ** rng.uniform(-12.0, -3.0, n - hi)
    w_lo[rng.choice(n - hi, size=int(rng.integers(1, n - hi)), replace=False)] = 0.0
    m = np.zeros((n, n), dtype=complex)
    for w, side in ((10.0 ** rng.uniform(-3.0, 6.0, hi), slice(0, hi)), (w_lo, slice(hi, n))):
        u = random_unitary(rng, w.size)
        m[side, side] = (u * w) @ u.conj().T
    return (HermitianOperator(m), random_block_projection(rng, n),
            float(10.0 ** rng.uniform(-3.0, -1.0)))


def near_commuting_instance(rng):
    """(A, P): A of dim 3-24 with eigenvalues from 1e-12 to 1e6, nearly commuting with a mask P.

    Each side of P gets its eigenvalues in a random basis; the whole is then
    turned by exp(i theta H) for a random Hermitian H and theta in
    [1e-8, 1e-3], so tau_A is many decades below ||A ln A||.
    """
    n = int(rng.integers(3, 25))
    p = random_block_projection(rng, n)
    m = np.zeros((n, n), dtype=complex)
    for side in (p.membership, ~p.membership):
        idx = np.flatnonzero(side)
        u = random_unitary(rng, idx.size)
        m[np.ix_(idx, idx)] = (u * 10.0 ** rng.uniform(-12.0, 6.0, idx.size)) @ u.conj().T
    g = gaussian_matrix(rng, n, n)
    theta = 10.0 ** rng.uniform(-8.0, -3.0)
    v = HermitianOperator(g + g.conj().T).apply(lambda w: np.exp(1j * theta * w))
    return HermitianOperator(v @ m @ v.conj().T), p


def closed_truncated_trace(a, b, eps):
    """Tr D_eps = sum over spec B of mu ln((1+mu)/(eps+mu)) minus the same sum over spec A."""
    def total(w):
        w = np.clip(w, 0.0, None)
        return float(np.sum(w * np.log1p((1.0 - eps) / (eps + w))))

    return total(np.linalg.eigvalsh(b)) - total(np.linalg.eigvalsh(a))


class TestWideSpectrum:
    # Node counts of the 30 instances, counted through _BlockIntegrand.__call__:
    # 16 464, 1 890 and 9 198 with the maps t = x^2, eps^(1-v) and 1/v^2, against
    # 27 846, 4 578 and 18 858 with t = s/(1-s), t itself and 1/u, which also
    # missed tau by up to 24 times the bound below.  The budgets leave about 15 %.
    BUDGETS = {"tau": 19_000, "d_eps": 2_200, "tail": 10_600}

    def test_wide_spectrum_battery(self, monkeypatch):
        nodes = {name: 0 for name in self.BUDGETS}
        quadrature = ["tau"]
        integrand = tau._BlockIntegrand.__call__

        def counted(self, t):
            nodes[quadrature[0]] += np.size(t)
            return integrand(self, t)

        monkeypatch.setattr(tau._BlockIntegrand, "__call__", counted)
        rng = np.random.default_rng(37)
        for _ in range(30):
            a, p, eps = wide_spectrum_instance(rng)
            norm_a = max(1.0, float(np.linalg.norm(a.mat)))
            quadrature[0] = "tau"
            gap = np.linalg.norm(tau.tau_integral(a, p).tau.mat - tau.tau_spectral(a, p).tau.mat)
            # the requested tolerance, plus the rounding of terms of size ||A ln A||
            assert gap <= 1e-8 + 1e-14 * np.linalg.norm(xlogx(a.eigenvalues))
            quadrature[0] = "d_eps"
            d_eps = tau.truncated_trace(a, p, eps)
            assert abs(d_eps - closed_truncated_trace(a.mat, tau.pinch(a, p).mat, eps)) <= 1e-13 * norm_a
            quadrature[0] = "tail"
            assert tau.tail_integral_identity_gap(a, p) <= 1e-12 * norm_a
        for name, budget in self.BUDGETS.items():
            assert 0 < nodes[name] <= budget, name


def test_permuted_wide_spectrum_is_psd():
    # with A's coordinates permuted, eigh finds its zero eigenvalues only to about eps ||A||
    # (+-2e-10 at ||A|| ~ 1e6); an absolute tolerance of -1e-10 refused 4 of these 300 draws
    rng = np.random.default_rng(0)
    for _ in range(300):
        a, p, _ = wide_spectrum_instance(rng)
        perm = rng.permutation(a.dim)
        permuted = HermitianOperator(a.mat[np.ix_(perm, perm)])
        assert tau.pinch(permuted, p).trace() == pytest.approx(permuted.trace(), rel=1e-12)
    # relative, not absent: an eigenvalue below -1e-10 ||A|| is still refused
    with pytest.raises(ValueError, match="not PSD"):
        tau.pinch(HermitianOperator(np.diag([1e6, -1e-3])), OrthoProjection.from_mask(2, [0]))
    with pytest.raises(ValueError, match="not PSD"):
        tau.pinch(HermitianOperator(np.diag([0.5, -2e-10])), OrthoProjection.from_mask(2, [0]))


def assembled(blocks, t):
    """The block integrand at each t, as full matrices in the original coordinates."""
    r, n = blocks.sizes[0], sum(blocks.sizes)
    out = []
    for pp, qq in zip(*blocks(t)):
        m = np.zeros((n, n), dtype=complex)
        m[:r, :r], m[r:, r:] = pp, qq
        out.append(blocks.restore(m))
    return out


def exact_resolvent(a, t):
    """(U, V) with (t + A)^{-1} = U + iV in Fractions, for a Gaussian-integer Hermitian A and a float t.

    Fraction-free Gauss-Jordan on the integer real embedding
    q [[t + X, -Y], [Y, t + X]] of q (t + A), where t = p/q and A = X + iY,
    against the first n columns of the identity; the embedding is positive
    definite, so no pivot vanishes.  Every division is exact, the last pivot
    is the determinant, and the right-hand block ends as the matching columns
    of the adjugate.
    """
    n = len(a)
    p, q = Fraction(t).as_integer_ratio()
    re = [[p * (i == j) + q * int(a[i][j].real) for j in range(n)] for i in range(n)]
    im = [[q * int(a[i][j].imag) for j in range(n)] for i in range(n)]
    rows = ([re[i] + [-x for x in im[i]] + [int(i == j) for j in range(n)] for i in range(n)]
            + [im[i] + re[i] + [0] * n for i in range(n)])
    prev = 1
    for k, pivot in enumerate(rows):
        for i, row in enumerate(rows):
            if i != k:
                rows[i] = [(pivot[k] * x - row[k] * y) // prev for x, y in zip(row, pivot)]
        prev = pivot[k]
    return ([[Fraction(q * x, prev) for x in row[2 * n:]] for row in rows[:n]],
            [[Fraction(q * x, prev) for x in row[2 * n:]] for row in rows[n:]])


def exact_integrand(a, inside, t):
    """The resolvent integrand t (P(t+A)^{-1}P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1}), rounded from exact values."""
    u, v = exact_resolvent(a, t)
    out = np.zeros(a.shape, dtype=complex)
    for side in (inside, ~inside):
        idx = np.flatnonzero(side)
        u_b, v_b = exact_resolvent(a[np.ix_(idx, idx)], t)
        for bi, i in enumerate(idx):
            for bj, j in enumerate(idx):
                out[i, j] = complex(float(Fraction(t) * (u[i][j] - u_b[bi][bj])),
                                    float(Fraction(t) * (v[i][j] - v_b[bi][bj])))
    return out


class TestBlockIntegrand:
    # t >= 0.1: for rank-deficient A and small t, t + A is so ill conditioned
    # that neither form keeps 1e-12
    T = np.array([0.1, 0.3, 1.0, 4.5, 1e3, 1e5, 1e8])

    @staticmethod
    def projections(rng, n):
        for rank in sorted({0, 1, n - 1, n}):
            yield OrthoProjection.from_mask(n, rng.choice(n, size=rank, replace=False))
        yield random_projection(rng, n, int(rng.integers(0, n + 1)))

    def test_equals_direct_integrand(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            rank_a = int(rng.integers(1, n + 1))
            a = HermitianOperator(psd_from_factor(gaussian_matrix(rng, n, rank_a)))
            for p in self.projections(rng, n):
                blocks = tau._BlockIntegrand(a, p)
                assert min(blocks.sizes) == blocks.sizes[0] == min(p.rank(), n - p.rank())
                direct = tau.resolvent_integrand(a, tau.pinch(a, p), p, self.T)
                for got, ref in zip(assembled(blocks, self.T), direct):
                    assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))

    def test_small_t_against_exact_resolvents(self):
        # Rank-3 A = G G^H of dim 8, G with entries in {-1, 0, 1} + i{-1, 0, 1}, so t + A is
        # nearly singular at small t.  Worst relative error over these 20 instances: 7.1e-10 at
        # t = 1e-6 and 1.2e-12 at t = 1e-3 (at most 1.3e-9 and 1.2e-12 over ten more seeds);
        # the bounds leave a factor of about eight.  Inverting t + A_QQ and t + A_PP outright
        # instead of solving gave 1.6e-3 and 1.9e-9 here.
        rng = np.random.default_rng(36)
        t = np.array([1e-6, 1e-3])
        bounds = (1e-8, 1e-11)
        for _ in range(20):
            g = rng.integers(-1, 2, (8, 3)) + 1j * rng.integers(-1, 2, (8, 3))
            a = g @ g.conj().T
            mask = rng.choice(8, size=int(rng.integers(1, 8)), replace=False)
            p = OrthoProjection.from_mask(8, mask)
            blocks = tau._BlockIntegrand(HermitianOperator(a), p)
            for x, got, bound in zip(t.tolist(), assembled(blocks, t), bounds):
                ref = exact_integrand(a, p.membership, x)
                assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref)

    def test_integrals_reject_non_psd_and_mismatch(self):
        for a, p in ((HermitianOperator(np.diag([1.0, -1.0])), OrthoProjection.from_mask(2, [0])),
                     (HermitianOperator(np.eye(3)), OrthoProjection.from_mask(2, [0]))):
            for integral in (tau.tau_integral, lambda a, p: tau.truncated_trace(a, p, 0.1),
                             tau.tail_integral_identity_gap):
                with pytest.raises(ValueError):
                    integral(a, p)


def recorded_quadratures(monkeypatch):
    """Record (f, lo, hi, tol, integral, error) of every `_quad_gk21` call."""
    calls = []
    quad = tau._quad_gk21

    def record(f, lo, hi, tol):
        y, err = quad(f, lo, hi, tol)
        calls.append((f, lo, hi, tol, y, err))
        return y, err

    monkeypatch.setattr(tau, "_quad_gk21", record)
    return calls


def quad_vec_oracle(f, lo, hi, tol):
    """scipy's quad_vec on the scalar form of a batched integrand."""
    quad_vec = pytest.importorskip("scipy.integrate").quad_vec
    return quad_vec(lambda x: f(np.array([x]))[0], lo, hi, epsabs=tol, epsrel=0.0, quadrature="gk21")


def node_by_node_gk21(f, lo, hi):
    """`tau._gk21` with its sums written as loops over the nodes, QUADPACK's order."""
    kronrod, gauss = tau._WEIGHTS[:, 0].tolist(), tau._WEIGHTS[1::2, 1].tolist()
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = f((c[:, None] + h[:, None] * tau._NODES).ravel()).reshape(lo.size, tau._NODES.size, -1)
    s_k = s_k_abs = s_g = s_k_dabs = 0.0
    for i, v in enumerate(kronrod):
        s_k = s_k + v * fv[:, i]
        s_k_abs = s_k_abs + v * np.abs(fv[:, i])
    for i, w in enumerate(gauss):
        s_g = s_g + w * fv[:, 2 * i + 1]
    y0 = s_k / 2.0
    for i, v in enumerate(kronrod):
        s_k_dabs = s_k_dabs + v * np.abs(fv[:, i] - y0)
    out = []
    for j in range(lo.size):
        err = float(np.linalg.norm((s_k[j] - s_g[j]) * h[j]))
        dabs = float(np.linalg.norm(s_k_dabs[j] * h[j]))
        round_err = float(np.linalg.norm(50 * sys.float_info.epsilon * h[j] * s_k_abs[j]))
        if dabs != 0 and err != 0:
            err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
        if round_err > sys.float_info.min:
            err = max(err, round_err)
        out.append((h[j] * s_k[j], err, round_err))
    return out


class TestGK21Quadrature:
    @pytest.mark.parametrize("intervals", [1, 64, 256])
    @pytest.mark.parametrize("columns", [1, 26, 1600])
    def test_sums_equal_node_by_node_loops(self, intervals, columns):
        rng = np.random.default_rng(intervals * columns)
        values = rng.standard_normal((intervals * tau._NODES.size, columns))
        values *= 10.0 ** rng.uniform(-4.0, 4.0, values.shape)
        f = lambda x: values[:x.size]
        lo = np.sort(rng.uniform(-1.0, 1.0, intervals))
        hi = lo + rng.uniform(1e-3, 1.0, intervals)
        for (y, err, round_err), (y_ref, err_ref, round_ref) in zip(tau._gk21(f, lo, hi),
                                                                    node_by_node_gk21(f, lo, hi)):
            assert np.array_equal(y, y_ref)
            assert (err, round_err) == (err_ref, round_ref)

    def test_tau_integrals_equal_quad_vec(self, monkeypatch):
        calls = recorded_quadratures(monkeypatch)
        rng = np.random.default_rng(30)
        for _ in range(12):
            dim = int(rng.integers(3, 13))
            a = random_psd(rng, dim)
            p = random_block_projection(rng, dim)
            tau.tau_integral(a, p)
            tau.truncated_trace(a, p, float(10.0 ** rng.uniform(-3.0, -1.0)))
            tau.tail_integral_identity_gap(a, p)
        assert len(calls) == 36
        for f, lo, hi, tol, y, err in calls:
            y_ref, err_ref = quad_vec_oracle(f, lo, hi, tol)
            assert np.array_equal(y, y_ref)
            assert err == err_ref

    def test_dense_projection_equals_quad_vec(self, monkeypatch):
        calls = recorded_quadratures(monkeypatch)
        rng = np.random.default_rng(31)
        a = random_psd(rng, 7)
        tau.tau_integral(a, random_projection(rng, 7, 3))
        (f, lo, hi, tol, y, err), = calls
        y_ref, err_ref = quad_vec_oracle(f, lo, hi, tol)
        assert np.array_equal(y, y_ref) and err == err_ref

    def test_integrands_equal_scalar_formula(self, monkeypatch):
        # at every node, the batched integrand equals the scalar Schur-complement formula in Python floats
        calls = recorded_quadratures(monkeypatch)
        rng = np.random.default_rng(34)
        a = random_psd(rng, 5)
        p = random_block_projection(rng, 5)
        tau.tau_integral(a, p)
        tau.truncated_trace(a, p, 0.01)
        tau.tail_integral_identity_gap(a, p)
        blocks = tau._BlockIntegrand(a, p)
        eye_p, eye_q = (np.eye(d) for d in blocks.sizes)

        def integrand(t):
            shifted = t * eye_p + blocks.a_pp
            w_h = np.linalg.solve(t * eye_q + blocks.a_qq, blocks.a_qp)
            k = blocks.a_pq @ w_h
            y = np.linalg.inv(shifted - k)
            return np.concatenate([(t * (np.linalg.solve(shifted, k) @ y)).ravel(),
                                   (t * (w_h @ y @ w_h.conj().T)).ravel()])

        def squared(s):
            # t = x^2, x = s/(1-s)
            r = 1.0 - s
            x = s / r
            return integrand(x * x) * (2.0 * x / (r * r))

        def logarithmic(v):
            # t = eps^(1-v), numpy's power as in the batched form (C pow() differs on about 1 in 20)
            t = float(np.power(0.01, 1.0 - v))
            return integrand(t) * (-math.log(0.01) * t)

        def inverse_square(v):
            # t = 1/v^2
            v2 = v * v
            return integrand(1.0 / v2) * (2.0 / (v2 * v))

        for (f, lo, hi, _, _, _), form in zip(calls, (squared, logarithmic, inverse_square)):
            x = rng.uniform(lo, hi, 1500)
            expected = [np.concatenate([m.real, m.imag]) for m in map(form, x.tolist())]
            assert np.array_equal(f(x), np.array(expected))

    def test_quadratures_solve_and_invert_only(self, monkeypatch):
        # regression guard: the integral route takes no eigendecomposition of A, B or their
        # blocks, so it stays independent of tau_spectral; P's eigh is its only eigensolve
        calls, in_quadrature = [], []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "inv", "solve", "qr", "cholesky"):
            def call(m, *args, original=getattr(np.linalg, name), name=name, **kwargs):
                calls.append((name, m))
                return original(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, call)
        quadrature = tau._quad_gk21

        def recorded(f, lo, hi, tol):
            start = len(calls)
            out = quadrature(f, lo, hi, tol)
            in_quadrature.append({name for name, _ in calls[start:]})
            return out

        monkeypatch.setattr(tau, "_quad_gk21", recorded)
        rng = np.random.default_rng(38)
        a = random_psd(rng, 9)
        a.eigenvalues  # the PSD check reads them: decomposed here, its calls cleared below
        mask, dense = random_block_projection(rng, 9), random_projection(rng, 9, 4)
        calls.clear()
        tau.tau_integral(a, mask)
        tau.truncated_trace(a, mask, 0.01)
        assert {name for name, _ in calls} == {"solve", "inv"}
        calls.clear()
        tau.tau_integral(a, dense)
        assert [m is dense.mat for name, m in calls if name not in ("solve", "inv")] == [True]
        tau.tail_integral_identity_gap(a, mask)  # its closed form, after the quadrature, diagonalizes B
        assert in_quadrature == [{"solve", "inv"}] * 4

    def test_polynomial_exact_on_one_interval(self):
        powers = np.array([0, 1, 7, 20, 31])
        f = lambda x: x[:, None] ** powers
        exact = (2.0 ** (powers + 1) - (-1.0) ** (powers + 1)) / (powers + 1)
        ((y, _, _),) = tau._gk21(f, np.array([-1.0]), np.array([2.0]))
        assert np.allclose(y, exact, rtol=1e-14, atol=0.0)
        y, err = tau._quad_gk21(f, -1.0, 2.0, 1e-6)
        assert np.allclose(y, exact, rtol=1e-14, atol=0.0)
        y_ref, err_ref = quad_vec_oracle(f, -1.0, 2.0, 1e-6)
        assert np.array_equal(y, y_ref) and err == err_ref

    def test_arctan_integrand(self):
        f = lambda x: np.stack([1.0 / (1.0 + x * x), -2.0 / (1.0 + x * x)], axis=1)
        y, err = tau._quad_gk21(f, 0.0, 1.0, 1e-12)
        assert np.all(np.abs(y - np.array([1.0, -2.0]) * math.pi / 4) <= err + 1e-16)
        y_ref, err_ref = quad_vec_oracle(f, 0.0, 1.0, 1e-12)
        assert np.array_equal(y, y_ref) and err == err_ref

    def test_spike_over_budget_raises(self):
        # |x - 1/3|^{-1/2} integrates to 2(sqrt(1/3) + sqrt(2/3)); the estimate at
        # tol 1e-6 is about 1e-7, above a 1e-8 budget
        f = lambda x: (slice(None), (np.abs(x - 1.0 / 3.0)[:, None, None] ** -0.5,))
        with pytest.raises(tau.ConvergenceError) as info:
            tau._integrate_matrix(f, (1,), 0.0, 1.0, 1e-6, 1e-8, "spike")
        assert info.value.residual > 1e-8
        m, err = tau._integrate_matrix(f, (1,), 0.0, 1.0, 1e-6, 1e-6, "spike")
        assert abs(m[0, 0] - 2 * (math.sqrt(1 / 3) + math.sqrt(2 / 3))) <= err

    def test_nan_integrand_stops_and_raises(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return slice(None), (np.sqrt(x - 0.5)[:, None, None],)  # NaN left of 1/2

        with np.errstate(invalid="ignore"), pytest.raises(tau.ConvergenceError) as info:
            tau._integrate_matrix(f, (1,), 0.0, 1.0, 1e-8, 1.0, "nan")
        assert not math.isfinite(info.value.residual)
        assert len(calls) == 2  # the first interval, then one round

    def test_array_integrand_equals_scalar_calls(self):
        rng = np.random.default_rng(32)
        t = np.array([1e-6, 0.01, 0.3, 1.0, 4.5, 1e5])
        for proj in (random_block_projection, lambda r, d: random_projection(r, d, 2)):
            a = random_psd(rng, 5)
            p = proj(rng, 5)
            b = tau.pinch(a, p)
            stack = tau.resolvent_integrand(a, b, p, t)
            assert stack.shape == (t.size, 5, 5)
            assert np.array_equal(stack, np.stack([tau.resolvent_integrand(a, b, p, float(x)) for x in t]))
            assert tau.resolvent_integrand(a, b, p, 0.3).shape == (5, 5)

    def test_node_count_matches_quad_vec(self, monkeypatch):
        # same rule, same nodes: batching changes the number of integrand calls only
        calls = recorded_quadratures(monkeypatch)
        sizes = []
        integrand = tau._BlockIntegrand.__call__
        monkeypatch.setattr(tau._BlockIntegrand, "__call__",
                            lambda self, t: sizes.append(np.size(t)) or integrand(self, t))
        rng = np.random.default_rng(33)
        tau.tau_integral(random_psd(rng, 6), random_block_projection(rng, 6))
        batched = list(sizes)
        sizes.clear()
        f, lo, hi, tol, _, _ = calls[0]
        quad_vec_oracle(f, lo, hi, tol)
        assert sum(batched) == sum(sizes) > 21
        assert len(batched) < sum(batched) / 21
