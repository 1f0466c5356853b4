import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from araki_mi import audits, operators, tau
from araki_mi.operators import HermitianOperator, OrthoProjection, hermitian_stack, xlogx
from araki_mi.rand import (block_membership, gaussian_matrix, psd_from_factor, random_block_projection,
                           random_psd)
from oracles import random_unitary

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
            u = 2 * np.diag(p.membership) - np.eye(dim)
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
            pm = np.diag(p.membership)
            qm = np.eye(dim) - pm
            assert np.array_equal(tau._block_compress(m, p.membership), pm @ m @ pm + qm @ m @ qm)


class TestSymmetrisedInputs:
    """The pinch and the reordered A of the integrals are used as they are: each is bit for bit
    its own symmetrisation when A is symmetrised, as the audits' stacks and every
    `HermitianOperator.mat` are.  (The shifts of tau_{A+eps} move eigenvalues, not A.)"""

    @staticmethod
    def assert_own_symmetrisation(m):
        assert np.array_equal(hermitian_stack(m).view(np.uint64), np.ascontiguousarray(m).view(np.uint64))

    def test_audit_stacks(self):
        rng = np.random.default_rng(22)
        for dim in range(2, 41):
            a = hermitian_stack(psd_from_factor(np.stack([gaussian_matrix(rng, dim, dim) for _ in range(3)])))
            inside = np.stack([block_membership(rng, dim) for _ in range(3)])
            self.assert_own_symmetrisation(tau._block_compress(a, inside))

    def test_operators(self):
        # a random_psd, a rotated spectrum with zero eigenvalues (Hermitian only to rounding before
        # HermitianOperator symmetrises it), and a diagonal with signed-zero off-diagonal entries
        rng = np.random.default_rng(23)
        for dim in range(2, 41):
            u = random_unitary(rng, dim)
            w = rng.uniform(0.0, 2.0, dim)
            w[:dim // 3] = 0.0
            zeros = np.full((dim, dim), complex(-0.0, -0.0))
            np.fill_diagonal(zeros, w)
            for a in (random_psd(rng, dim), HermitianOperator((u * w) @ u.conj().T), HermitianOperator(zeros)):
                p = random_block_projection(rng, dim)
                self.assert_own_symmetrisation(tau._block_compress(a.mat, p.membership))
                self.assert_own_symmetrisation(a.mat[tau._BlockIntegrand(a, p).order])

    def test_results_taken_without_a_second_check(self, monkeypatch):
        # pinch, tau_spectral and tau_integral wrap the matrices they have just symmetrised as they
        # are: each is its own symmetrisation, so HermitianOperator's check and copy would change nothing
        rng = np.random.default_rng(24)
        checked, stack = [], operators.hermitian_stack
        for dim in (2, 5, 9):
            a, p = random_psd(rng, dim), random_block_projection(rng, dim)
            monkeypatch.setattr(operators, "hermitian_stack", lambda m, *args: checked.append(m) or stack(m, *args))
            results = [tau.pinch(a, p), tau.tau_spectral(a, p).tau, tau.tau_integral(a, p).tau]
            monkeypatch.setattr(operators, "hermitian_stack", stack)
            assert checked == []
            for result in results:
                assert result.dim == dim
                self.assert_own_symmetrisation(result.mat)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_operator_refused(value):
    # a NaN Hermiticity defect used to pass the check; eigh then failed to converge
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.eye(3) * value)


class TestOrthoProjection:
    @pytest.mark.parametrize("dim, indices, message", [
        (4, [1.7], "must be integers"),    # int(1.7) used to keep coordinate 1
        (4, [0, 2.0], "must be integers"),
        (4, [True], "must be integers"),
        (4, [np.True_], "must be integers"),
        (4, ["1"], "must be integers"),
        (4, [4], "out of range"),
        (4, [0, -1], "out of range"),
        (-1, [], "dim must be a non-negative integer"),
        # accepted, then a TypeError inside numpy at `membership`; "3" raised TypeError at once
        (2.5, [0], "dim must be a non-negative integer"),
        (3.0, [0], "dim must be a non-negative integer"),
        (True, [0], "dim must be a non-negative integer"),
        ("3", [0], "dim must be a non-negative integer"),
    ])
    def test_mask_refuses_bad_input(self, dim, indices, message):
        with pytest.raises(ValueError, match=message):
            OrthoProjection.from_mask(dim, indices)


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
            pm = np.diag(p.membership)
            assert np.linalg.norm(pm @ t @ (np.eye(dim) - pm)) <= 1e-10

    @pytest.mark.parametrize("scale", [1e8, 1e9])
    def test_large_rank_deficient_psd_matches_integral(self, scale):
        # A = s M M^H / 3 is PSD of rank 3; eigh returns its zero eigenvalues down to -3.1e-8 at
        # s = 1e8 and -1.1e-6 at 1e9, which _check_psd accepts (-1e-10 ||A||), and so does x ln x
        a = HermitianOperator(scale * psd_from_factor(gaussian_matrix(np.random.default_rng(3), 6, 3)))
        p = OrthoProjection.from_mask(6, [0, 2, 4])
        assert a.eigenvalues[0] < -1e-8
        spectral_ = tau.tau_spectral(a, p).tau.mat
        assert np.linalg.norm(spectral_ - tau.tau_integral(a, p).tau.mat) <= 3e-11 * scale

    def test_near_commuting_wide_spectrum(self):
        # tau_A is decades below its two terms P A ln A P + (1-P) A ln A (1-P) and B ln B, each
        # Hermitian only to about eps ||A ln A||; judged against ||tau||, 26 of these 30 raised
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, p = near_commuting_instance(rng)
            res = tau.tau_spectral(a, p)
            closed = np.sum(xlogx(a.eigenvalues)) - np.sum(xlogx(np.linalg.eigvalsh(tau.pinch(a, p).mat)))
            assert abs(res.trace - closed) <= 1e-13 * np.linalg.norm(xlogx(a.eigenvalues))


def mask_projections(rng, n):
    """Random masks of dim n of rank 0, 1, n - 1 and n."""
    for rank in sorted({0, 1, n - 1, n}):
        yield OrthoProjection.from_mask(n, rng.choice(n, size=rank, replace=False))


def large_psd(scale):
    """A = s M M^H (M a 6 x 3 complex Gaussian from seed 3), rank 3, with the mask [0, 2, 4]."""
    m = gaussian_matrix(np.random.default_rng(3), 6, 3)
    return HermitianOperator(scale * (m @ m.conj().T)), OrthoProjection.from_mask(6, [0, 2, 4])


class TestTauIntegral:
    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_default_tol_resolves_large_psd(self, scale):
        # the error budgets scale with max(1, ||A||); absolute ones raised ConvergenceError here
        a, p = large_psd(scale)
        gap = np.linalg.norm(tau.tau_integral(a, p).tau.mat - tau.tau_spectral(a, p).tau.mat)
        assert gap <= 1e-11 * scale
        assert tau.tail_integral_identity_gap(a, p) <= 1e-11 * scale

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

    def test_rank_deficient_family_returns(self):
        # A = G G^H, G 6 x 5, has one eigenvalue 0 to rounding.  On 8 of these 1 500 draws eigh
        # finds it just above n eps ||A|| (6.4e-16 at seed 0, mask [0, ..., 4]), so A counts as
        # nonsingular and its first node, e^-PAD below that eigenvalue, lands near 1e-23, where
        # t + A_PP - K is singular in floating point and inv raised LinAlgError.  The first
        # node is floored at n eps ||A||
        for seed in range(300):
            a = HermitianOperator(psd_from_factor(gaussian_matrix(np.random.default_rng(seed), 6, 5)))
            for k in range(1, 6):
                p = OrthoProjection.from_mask(6, range(k))
                result = tau.tau_integral(a, p)
                assert np.linalg.norm(result.tau.mat - tau.tau_spectral(a, p).tau.mat) <= 1e-12

    def test_zero_operator_gives_zero(self):
        # no eigenvalue is positive, so no node range: tau is 0, as tau_spectral's is
        a, p = HermitianOperator(np.zeros((3, 3))), OrthoProjection.from_mask(3, [1])
        result = tau.tau_integral(a, p)
        assert not result.tau.mat.any() and result.quadrature_error_estimate == 0.0
        assert tau.tail_integral_identity_gap(a, p) == 0.0


def shifted(a, p, eps):
    """tau_{A + eps} by the audits' kernel."""
    return tau._tau_shifts(a.mat, a.eigenvalues, a.eigenvectors, p.membership, [eps])[0]


def tau_shifted_oracle(a, inside, eps):
    """tau_{A + eps} from eigh of A + eps and of its pinch B + eps: a decomposition per shift, where
    `_tau_shifts` reuses the eigenbases of A and B for every shift."""
    def f(m):
        w, u = np.linalg.eigh(m)
        return (u * xlogx(w)) @ u.conj().T

    m = a + eps * np.eye(len(a))
    same = inside[:, None] == inside[None, :]
    t = np.where(same, f(m), 0) - f(np.where(same, m, 0))
    return 0.5 * (t + t.conj().T)


def resolvent_norm_oracle(a, b, t):
    """||(t+B)^{-1} A|| by an inverse and an SVD, where `_resolvent_bounds` reads it from B's eigenbasis."""
    return np.linalg.norm(np.linalg.inv(t * np.eye(len(b)) + b) @ a, 2)


def rank_one_instance(rng, dim):
    """(A = x x^dagger, P, x)."""
    x = gaussian_matrix(rng, dim, 1)[:, 0]
    return HermitianOperator(np.outer(x, x.conj())), random_block_projection(rng, dim), x


class TestEpsilonShift:
    def test_commuting_stays_zero(self):
        a, p = commuting_instance()
        for eps in (0.1, 0.01):
            assert np.linalg.norm(shifted(a, p, eps)) <= 1e-10

    def test_shift_decreases_tau(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = random_psd(rng, 6)
            p = random_block_projection(rng, 6)
            t0 = tau.tau_spectral(a, p).tau.mat
            diff = t0 - shifted(a, p, 0.1)
            assert np.linalg.eigvalsh(diff)[0] >= -1e-9

    def test_epsilon_chain_monotone(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 6)
        p = random_block_projection(rng, 6)
        t_a = tau.tau_spectral(a, p).tau.mat
        t1 = shifted(a, p, 1e-3)
        t2 = shifted(a, p, 1e-1)
        assert np.linalg.eigvalsh(t_a - t1)[0] >= -1e-9
        assert np.linalg.eigvalsh(t1 - t2)[0] >= -1e-9

    def test_shift_norm_vanishes(self):
        rng = np.random.default_rng(6)
        a = random_psd(rng, 6)
        p = random_block_projection(rng, 6)
        t0 = tau.tau_spectral(a, p).tau.mat
        gaps = [np.linalg.norm(shifted(a, p, eps) - t0)
                for eps in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rank_one_closed_form(self):
        # A = x x^dagger, y = Px, z = (1-P)x, c(r) = (f(r+s) - f(s))/r with f(x) = x ln x:
        # tau_{A+s} = (c(|x|^2) - c(|y|^2)) y y^dagger + (c(|x|^2) - c(|z|^2)) z z^dagger
        rng = np.random.default_rng(8)
        for dim in range(2, 11):
            a, p, x = rank_one_instance(rng, dim)
            y, z = np.where(p.membership, x, 0), np.where(p.membership, 0, x)
            r_x, r_y, r_z = (float(np.vdot(v, v).real) for v in (x, y, z))
            for s in (0.0, 0.1, 0.01):
                def c(r):
                    return (xlogx(r + s) - xlogx(s)) / r
                closed = (c(r_x) - c(r_y)) * np.outer(y, y.conj()) + (c(r_x) - c(r_z)) * np.outer(z, z.conj())
                assert np.abs(shifted(a, p, s) - closed).max() <= 1e-14 * max(1.0, r_x)

    def test_kernel_agrees_with_eigh_of_shifted_operators(self):
        # 200 instances of the audit's dims; shift 0 is tau_A
        rng = np.random.default_rng(9)
        shifts = (0.0, *audits.EPS_VALUES, 1e-3)
        for _ in range(200):
            dim = int(rng.integers(2, 13))
            a, p = random_psd(rng, dim), random_block_projection(rng, dim)
            got = tau._tau_shifts(a.mat, a.eigenvalues, a.eigenvectors, p.membership, shifts)
            for s, m in zip(shifts, got):
                assert np.abs(m - tau_shifted_oracle(a.mat, p.membership, s)).max() <= 1e-13


class TestResolventBound:
    def test_identity_case(self):
        a = HermitianOperator(np.eye(3))
        p = OrthoProjection.from_mask(3, [0])
        (lhs,), (rhs,) = tau._resolvent_bounds(a.mat, a.eigenvalues, p.membership, [1.0])
        assert lhs == pytest.approx(0.5, abs=1e-12)
        assert lhs <= rhs + 1e-10

    def test_hand_case_small_t(self):
        a, p = hand_instance()
        (lhs,), (rhs,) = tau._resolvent_bounds(a.mat, a.eigenvalues, p.membership, [0.01])
        assert rhs == pytest.approx(math.sqrt(2) * 10, abs=1e-10)
        assert lhs <= rhs + 1e-10

    def test_commuting_closed_form(self):
        # A commutes with P, so B = A and ||(t+A)^{-1} A|| = max_i w_i / (t + w_i)
        a, p = commuting_instance()
        w = a.eigenvalues
        lhs, _ = tau._resolvent_bounds(a.mat, w, p.membership, audits.T_SAMPLES)
        for t, got in zip(audits.T_SAMPLES, lhs.tolist()):
            assert got == pytest.approx(float(np.max(w / (t + w))), rel=4 * tau.EPS)

    def test_rank_one_closed_form(self):
        # A = x x^dagger, B = y y^dagger + z z^dagger with y = Px, z = (1-P)x orthogonal, so
        # ||(t+B)^{-1} A|| = |x| ||(t+B)^{-1} x|| = |x| (|y|^2/(t+|y|^2)^2 + |z|^2/(t+|z|^2)^2)^{1/2}
        rng = np.random.default_rng(10)
        for dim in range(2, 13):
            a, p, x = rank_one_instance(rng, dim)
            r_x, r_y, r_z = (float(np.vdot(v, v).real) for v in (x, x[p.membership], x[~p.membership]))
            lhs, _ = tau._resolvent_bounds(a.mat, a.eigenvalues, p.membership, audits.T_SAMPLES)
            for t, got in zip(audits.T_SAMPLES, lhs.tolist()):
                closed = math.sqrt(r_x * (r_y / (t + r_y) ** 2 + r_z / (t + r_z) ** 2))
                assert got == pytest.approx(closed, rel=16 * tau.EPS)

    def test_kernel_agrees_with_inverse_and_svd(self):
        # 200 instances of the audit's dims.  Both routes are backward stable, so each lhs carries
        # a rounding error of order eps kappa lhs, kappa = (t + max v) / (t + min v) the condition
        # number of t + B (v its eigenvalues); the audit's margins agree to 1e-13.
        rng = np.random.default_rng(11)
        t = np.array(audits.T_SAMPLES)
        for _ in range(200):
            dim = int(rng.integers(2, 13))
            a, p = random_psd(rng, dim), random_block_projection(rng, dim)
            b = tau.pinch(a, p)
            lhs, rhs = tau._resolvent_bounds(a.mat, a.eigenvalues, p.membership, t)
            oracle = np.array([resolvent_norm_oracle(a.mat, b.mat, s) for s in t])
            kappa = (t + b.eigenvalues[-1]) / (t + b.eigenvalues[0])
            assert np.all(np.abs(lhs - oracle) <= 1e-14 * kappa * oracle)
            assert abs(np.min(rhs - lhs) - np.min(rhs - oracle)) <= 1e-13

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

    @pytest.mark.parametrize("eps", [0.0, 1.0, -1.0, math.nan])
    def test_truncated_trace_refuses_bad_eps_before_work(self, monkeypatch, eps):
        # no spectrum is taken
        calls = recorded_linalg(monkeypatch)
        a, p = hand_instance()
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            tau.truncated_trace(a, p, eps)
        assert calls == []

    def test_bound_equals_its_definition(self):
        # the definition: the sum over the eigenvalues lam of the n x n matrix B - A with
        # |lam| > EIG_FLOOR; A of full rank, rank n // 2 and rank 1
        rng = np.random.default_rng(39)
        for n in range(2, 41):
            for rank_a in sorted({1, n // 2, n}):
                g = gaussian_matrix(rng, n, rank_a)
                a = HermitianOperator(g @ g.conj().T / n)
                root_norm = math.sqrt(a.operator_norm())
                for p in mask_projections(rng, n):
                    lams = np.abs(np.linalg.eigvalsh(tau.pinch(a, p).mat - a.mat))
                    ref = sum(math.pi * root_norm * math.sqrt(lam) + 3.0 * lam * math.log((1.0 + lam) / lam)
                              for lam in lams[lams > tau.EIG_FLOOR].tolist())
                    assert abs(tau.key_bound_constant(a, p) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("scale", [1e6, 1e10])
    def test_truncated_trace_against_60_digits(self, scale):
        # The reference sums f(x) = x ln(1 + (1-eps)/(eps+x)) over the spectra of the rounded A
        # and of its blocks, found at 60 digits.  eigvalsh finds each eigenvalue to about
        # n eps_mach ||A||, which moves f by at most ln(1/eps) times that.
        mpmath = pytest.importorskip("mpmath")
        a, p = large_psd(scale)
        eps = 0.01
        inside = p.membership
        with mpmath.workdps(60):
            def total(m):
                w = mpmath.eighe(mpmath.matrix(m.tolist()), eigvals_only=True)
                return sum(x * mpmath.log1p((1 - mpmath.mpf(eps)) / (eps + x)) for x in w)

            exact = (total(a.mat[np.ix_(inside, inside)]) + total(a.mat[np.ix_(~inside, ~inside)])
                     - total(a.mat))
            error = float(abs(tau.truncated_trace(a, p, eps) - exact))
        assert error <= a.dim * np.finfo(float).eps * a.operator_norm() * (1.0 + math.log(1.0 / eps))

    def test_key_estimate_takes_no_quadrature(self, monkeypatch):
        # regression guard: both sides are closed forms from spectra and evaluate no integrand node;
        # the bound builds the (A, P) decomposition (one eigh per block) and takes the svd of its p x q
        # block A_PQ, and Tr D_eps reads the block spectra of that decomposition, decomposing nothing
        calls = recorded_linalg(monkeypatch)
        for name in ("__call__", "integral"):
            monkeypatch.setattr(tau._BlockIntegrand, name, lambda *args: pytest.fail("quadrature"))
        a = random_psd(np.random.default_rng(40), 9)
        a.eigenvalues  # the PSD checks, ||A|| and Tr D_eps read them: decomposed here, its calls cleared below
        p = OrthoProjection.from_mask(9, [1, 4, 6])
        calls.clear()
        tau.key_bound_constant(a, p)
        assert [(name, m.shape) for name, m in calls] == [("eigh", (3, 3)), ("eigh", (6, 6)), ("svd", (3, 6))]
        calls.clear()
        tau.truncated_trace(a, p, 0.01)
        assert calls == []


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


def quadrature_truncated_trace(a, p, eps):
    """Tr D_eps by 16-point Gauss-Legendre panels in s = ln t over [ln eps, 0], at most 1 long.

    In s the integrand is t G(t), each of whose spectral terms is analytic in
    |Im s| < pi, 2 pi or more half-lengths off each panel.
    """
    blocks = tau._BlockIntegrand(a, p)
    edges = np.linspace(math.log(eps), 0.0, math.ceil(-math.log(eps)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = np.exp(((edges[:-1, None] + half) + half * tau._GL_NODES).ravel())
    d = blocks.integral(t, (half * tau._GL_WEIGHTS).ravel() * t)
    return float(np.trace(d.real))


def estimate_cover(a, result):
    """What tau_integral's estimate covers: its own error, plus tau_spectral's rounding of
    terms of size ||A ln A||."""
    return result.quadrature_error_estimate + 1e-14 * np.linalg.norm(xlogx(a.eigenvalues))


def oracle_mix_instances(seed=0):
    """(A, P) of the benchmark's oracle-mix tau requests, drawn as bench/workloads.py draws them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for dim in (10, 15, 20, 25, 30, 35, 40):
        for _ in range(3):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mask = np.sort(rng.choice(dim, size=int(rng.integers(1, dim)), replace=False))
            rng.uniform(-3.0, -1.0)  # the request's eps
            yield HermitianOperator(m @ m.conj().T / dim), OrthoProjection.from_mask(dim, mask)


def near_commuting_battery():
    rng = np.random.default_rng(0)
    return [near_commuting_instance(rng) for _ in range(30)]


@pytest.mark.parametrize("instances, budget", [(oracle_mix_instances, 1e-6), (near_commuting_battery, math.inf)])
def test_estimate_covers_gap(instances, budget):
    # the a-priori estimate bounds the gap to tau_spectral, up to tau_spectral's own rounding
    # (the wide-spectrum battery checks the same); oracle-mix's gate refuses estimates above 1e-6
    for a, p in instances():
        result = tau.tau_integral(a, p)
        assert np.linalg.norm(result.tau.mat - tau.tau_spectral(a, p).tau.mat) <= estimate_cover(a, result)
        assert result.quadrature_error_estimate <= budget


def test_oracle_mix_node_count(monkeypatch):
    # 1 713 + 672 nodes, counted through _BlockIntegrand.__call__, against 3 129 + 1 323 for
    # scipy's quad_vec in t = (s/(1-s))^2 and 1/v^2; the budget is the total's
    sizes = []
    integrand = tau._BlockIntegrand.__call__
    monkeypatch.setattr(tau._BlockIntegrand, "__call__", lambda self, t: sizes.append(t.size) or integrand(self, t))
    for a, p in oracle_mix_instances():
        tau.tau_integral(a, p)
        tau.tail_integral_identity_gap(a, p)
    assert sum(sizes) <= 2_600


class TestWideSpectrum:
    # Node counts of the 30 instances, counted through _BlockIntegrand.__call__:
    # 4 212 and 3 648 with the trapezoid rule in ln t and the Gauss-Legendre panels
    # in t^{-1/2}, against 16 464 and 9 198 for an adaptive Gauss-Kronrod rule
    # (scipy's quad_vec) in t = (s/(1-s))^2 and 1/v^2.  The budgets leave about 15 %.
    BUDGETS = {"tau": 4_850, "tail": 4_200}

    def test_wide_spectrum_battery(self, monkeypatch):
        nodes = Counter()
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
            result = tau.tau_integral(a, p)
            gap = np.linalg.norm(result.tau.mat - tau.tau_spectral(a, p).tau.mat)
            # the requested tolerance, plus the rounding of terms of size ||A ln A||
            assert gap <= 1e-8 + 1e-14 * np.linalg.norm(xlogx(a.eigenvalues))
            assert gap <= estimate_cover(a, result)
            quadrature[0] = "oracle"
            d_eps = quadrature_truncated_trace(a, p, eps)
            assert abs(tau.truncated_trace(a, p, eps) - d_eps) <= 1e-13 * norm_a
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
    return [blocks.restore(blocks.rotated(pp, qq)) for pp, qq in zip(*blocks(t))]


def schur_integrand(a, blocks, t):
    """The integrand at a float t in the original coordinates, by the Schur complement of t + A
    in the reordered coordinates, with solves and no eigendecomposition.

    With X_Q = (t + A_QQ)^{-1}, W^H = X_Q A_QP, K = A_PQ W^H and
    Y = (t + A_PP - K)^{-1}, the PP and QQ blocks of (t + A)^{-1} are Y and
    X_Q + W^H Y W, so the integrand's are t (t + A_PP)^{-1} K Y and t W^H Y W.
    """
    r = blocks.sizes[0]
    m = a.mat[blocks.order]
    shifted = t * np.eye(r) + m[:r, :r]
    w_h = np.linalg.solve(t * np.eye(len(m) - r) + m[r:, r:], m[r:, :r])
    k = m[:r, r:] @ w_h
    y = np.linalg.inv(shifted - k)
    out = np.zeros_like(m)
    out[:r, :r], out[r:, r:] = t * (np.linalg.solve(shifted, k) @ y), t * (w_h @ y @ w_h.conj().T)
    return blocks.restore(out)


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

    def test_equals_direct_integrand(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            rank_a = int(rng.integers(1, n + 1))
            a = HermitianOperator(psd_from_factor(gaussian_matrix(rng, n, rank_a)))
            for p in mask_projections(rng, n):
                blocks = tau._BlockIntegrand(a, p)
                assert min(blocks.sizes) == blocks.sizes[0] == min(p.rank(), n - p.rank())
                direct = tau.resolvent_integrand(a, tau.pinch(a, p), p, self.T)
                for got, ref in zip(assembled(blocks, self.T), direct):
                    assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))

    def test_equals_schur_complement_by_solves(self, monkeypatch):
        # the integrand of the blocks' eigenbases, rotated back, against the Schur complement of
        # the reordered coordinates (solves, no eigendecomposition), at every node of both rules
        # and at t = 1e-20 ... 1e8, on the 21 oracle-mix instances.  The relative gap is below
        # 0.65 n eps kappa(t + A) there (kappa up to 1e5 at small t); the bound leaves a factor 6
        calls = recorded_integrals(monkeypatch)
        for a, p in oracle_mix_instances():
            calls.clear()
            tau.tau_integral(a, p)
            tau.tail_integral_identity_gap(a, p)
            blocks, w = tau._BlockIntegrand(a, p), a.eigenvalues
            for t in [np.logspace(-20.0, 8.0, 29)] + [t for t, _, _ in calls]:
                for x, got in zip(t.tolist(), assembled(blocks, t)):
                    ref = schur_integrand(a, blocks, x)
                    kappa = (x + w[-1]) / (x + w[0])
                    assert np.linalg.norm(got - ref) <= 4.0 * a.dim * tau.EPS * kappa * np.linalg.norm(ref)

    def test_small_t_against_exact_resolvents(self):
        # Rank-3 A = G G^H of dim 8, G with entries in {-1, 0, 1} + i{-1, 0, 1}, so t + A is
        # nearly singular at small t.  Worst relative error over these 20 instances: 3.9e-9 at
        # t = 1e-6 and 3.7e-12 at t = 1e-3 (at most 4.1e-9 and 4.3e-12 over seeds 37-46), about
        # eps kappa(t + A); the bounds leave a factor of about 2.4.  The Schur complement by
        # solves in the reordered coordinates (schur_integrand) read 7.1e-10 and 1.2e-12, and
        # inverting t + A_QQ and t + A_PP outright 1.6e-3 and 1.9e-9.
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

    def test_integrals_of_rank_zero_and_full_rank_vanish(self):
        # one of the two blocks is empty and the other's integrand is 0, as tau_spectral's tau is
        a = random_psd(np.random.default_rng(37), 4)
        for p in (OrthoProjection.from_mask(4, []), OrthoProjection.from_mask(4, range(4))):
            assert tau._BlockIntegrand(a, p).sizes == (0, 4)
            assert not tau.tau_integral(a, p).tau.mat.any()
            assert tau.truncated_trace(a, p, 0.1) == 0.0
            assert tau.key_trace_bound(a, p, 0.1) == (0.0, 0.0)
            assert tau.tail_integral_identity_gap(a, p) == 0.0
            assert tau.tau_spectral(a, p).trace == 0.0

    def test_integrals_reject_non_psd_and_mismatch(self):
        for a, p in ((HermitianOperator(np.diag([1.0, -1.0])), OrthoProjection.from_mask(2, [0])),
                     (HermitianOperator(np.eye(3)), OrthoProjection.from_mask(2, [0]))):
            for integral in (tau.tau_integral, lambda a, p: tau.truncated_trace(a, p, 0.1),
                             tau.tail_integral_identity_gap, tau.pinch, tau.tau_spectral, tau.key_bound_constant,
                             lambda a, p: tau.key_trace_bound(a, p, 0.1)):
                with pytest.raises(ValueError):
                    integral(a, p)


def recorded_integrals(monkeypatch):
    """Record (t, weights, sum) of every `_BlockIntegrand.integral` call, the sum restored."""
    calls = []
    integral = tau._BlockIntegrand.integral

    def record(self, t, weights):
        out = integral(self, t, weights)
        calls.append((t, weights, self.restore(out)))
        return out

    monkeypatch.setattr(tau._BlockIntegrand, "integral", record)
    return calls


def recorded_linalg(monkeypatch):
    """Record (name, matrix) of every np.linalg decomposition, inverse and solve."""
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "inv", "solve", "qr", "cholesky"):
        def call(m, *args, original=getattr(np.linalg, name), name=name, **kwargs):
            calls.append((name, m))
            return original(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)
    return calls


def quad_vec_integral(blocks, lo):
    """scipy's quad_vec of the block integrand over [lo, inf), in the original coordinates."""
    quad_vec = pytest.importorskip("scipy.integrate").quad_vec

    def full(t):
        pp, qq = blocks(np.array([t]))
        return blocks.rotated(pp[0], qq[0])

    return blocks.restore(quad_vec(full, lo, math.inf, epsabs=1e-14, epsrel=0.0)[0])


class TestQuadratures:
    def test_rules_match_quad_vec(self, monkeypatch):
        # both fixed rules against scipy's adaptive Gauss-Kronrod rule on the same integrand
        calls = recorded_integrals(monkeypatch)
        rng = np.random.default_rng(31)
        for _ in range(4):
            dim = int(rng.integers(3, 7))
            a, p = random_psd(rng, dim), random_block_projection(rng, dim)
            blocks = tau._BlockIntegrand(a, p)
            bound = 1e-13 * max(1.0, a.operator_norm())
            whole = quad_vec_integral(blocks, 0.0)
            assert np.linalg.norm(tau.tau_integral(a, p).tau.mat - 0.5 * (whole + whole.conj().T)) <= bound
            tau.tail_integral_identity_gap(a, p)
            assert np.linalg.norm(calls[-1][2] - quad_vec_integral(blocks, 1.0)) <= bound

    def test_integrands_equal_scalar_formula(self, monkeypatch):
        # at every node of both rules, the batched integrand equals the scalar formula of the
        # blocks' eigenbases, node by node, and the trapezoid's nodes are STEP apart in ln t
        calls = recorded_integrals(monkeypatch)
        rng = np.random.default_rng(34)
        a = random_psd(rng, 5)
        p = random_block_projection(rng, 5)
        tau.tau_integral(a, p)
        tau.tail_integral_identity_gap(a, p)
        blocks = tau._BlockIntegrand(a, p)

        def integrand(t):
            nd = blocks.n / (t + blocks.lam)
            k = nd @ blocks.n.conj().T
            ty = t * np.linalg.inv(np.diag(t + blocks.sigma) - k)
            return np.concatenate([((k @ ty) / (t + blocks.sigma)[:, None]).ravel(),
                                   (nd.conj().T @ ty @ nd).ravel()])

        (t_tau, w_tau, _), (t_tail, w_tail, _) = calls
        assert np.allclose(np.diff(np.log(t_tau)), tau.STEP, rtol=1e-12, atol=0.0)
        assert np.array_equal(w_tau, tau.STEP * t_tau)
        assert t_tail.min() >= 1.0 and np.all(w_tail > 0.0)
        for t in (t_tau, t_tail):
            pp, qq = blocks(t)
            batched = np.concatenate([pp.reshape(t.size, -1), qq.reshape(t.size, -1)], axis=1)
            assert np.array_equal(batched, np.array([integrand(x) for x in t.tolist()]))

    def test_quadratures_decompose_blocks_only(self, monkeypatch):
        # regression guard: the four tau quantities of one (A, P) decompose neither A nor the n x n
        # pinch B, so the integral stays independent of tau_spectral; together they take one eigh of
        # each diagonal block, when the decomposition is built, one svd of the p x q block (the key
        # bound's), and one p x p inverse stack per chunk of nodes
        calls, in_quadrature = recorded_linalg(monkeypatch), []
        integral = tau._BlockIntegrand.integral

        def recorded(self, t, weights):
            start = len(calls)
            out = integral(self, t, weights)
            in_quadrature.append((t.size, [(name, m.shape) for name, m in calls[start:]]))
            return out

        monkeypatch.setattr(tau._BlockIntegrand, "integral", recorded)
        monkeypatch.setattr(tau, "CHUNK_ENTRIES", 20 * 9 * 9)   # 20 nodes a chunk
        rng = np.random.default_rng(38)
        a = random_psd(rng, 9)
        a.eigenvalues  # the PSD check and the node placement read them: decomposed here, its calls cleared below
        mask = random_block_projection(rng, 9)
        r = min(mask.rank(), 9 - mask.rank())
        blocks = [("eigh", (r, r)), ("eigh", (9 - r, 9 - r))]
        calls.clear()
        tau.tau_integral(a, mask)
        tau.tail_integral_identity_gap(a, mask)
        tau.truncated_trace(a, mask, 0.01)
        tau.key_bound_constant(a, mask)
        inverses = [call for _, inside in in_quadrature for call in inside]
        assert r > 0 and len(in_quadrature) == 2
        assert [(name, m.shape) for name, m in calls] == blocks + inverses + [("svd", (r, 9 - r))]
        for size, inside in in_quadrature:
            assert inside == [("inv", (min(20, size - start), r, r)) for start in range(0, size, 20)]

    def test_decomposition_slot_follows_the_mask(self):
        # one operator asked with P, then P', then 1 - P gives, bit for bit, what a fresh operator
        # gives for each mask: the slot keeps one (A, P) decomposition and rebuilds it for another P
        rng = np.random.default_rng(44)
        mat = random_psd(rng, 9).mat
        shared = HermitianOperator._of_symmetrised(mat)

        def results(a, p):
            integral = tau.tau_integral(a, p)
            return (integral.tau.mat, integral.trace, integral.quadrature_error_estimate,
                    tau.tail_integral_identity_gap(a, p), tau.truncated_trace(a, p, 0.01), tau.key_bound_constant(a, p))

        for indices in ([0, 3, 4], [1, 2, 5, 7], [1, 2, 5, 6, 7, 8]):     # P, P', 1 - P
            p = OrthoProjection.from_mask(9, indices)
            for got, fresh in zip(results(shared, p), results(HermitianOperator(mat), p)):
                assert np.array_equal(got, fresh)
            assert shared._blocks[0] == p.mask

    @pytest.mark.parametrize("dim", [2, 5, 9])
    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    def test_sums_equal_node_by_node_loops(self, monkeypatch, dim, per_chunk):
        # the chunked sum visits every node once, in chunks of at most CHUNK_ENTRIES // n^2
        # nodes, and equals the sum of the integrand evaluated one node at a time
        if per_chunk is not None:
            monkeypatch.setattr(tau, "CHUNK_ENTRIES", per_chunk * dim * dim)
        size = tau.CHUNK_ENTRIES // (dim * dim)
        rng = np.random.default_rng(40 + dim)
        a, p = random_psd(rng, dim), random_block_projection(rng, dim)
        blocks = tau._BlockIntegrand(a, p)
        t = np.exp(tau.STEP * np.arange(-40, 41))
        weights = tau.STEP * t * rng.uniform(0.5, 1.5, t.size)
        r = blocks.sizes[0]
        expected = np.zeros((dim, dim), dtype=complex)
        for x, w in zip(t.tolist(), weights.tolist()):
            pp, qq = blocks(np.array([x]))
            expected[:r, :r] += w * pp[0]
            expected[r:, r:] += w * qq[0]
        expected = blocks.rotated(expected[:r, :r], expected[r:, r:])   # in the eigenbases until here
        scale = float(np.sum(weights * np.linalg.norm(assembled(blocks, t), axis=(1, 2))))
        chunks = []
        blocks_at = tau._BlockIntegrand.__call__

        def recorded(self, t):
            chunks.append(t.copy())
            return blocks_at(self, t)

        monkeypatch.setattr(tau._BlockIntegrand, "__call__", recorded)
        got = blocks.integral(t, weights)
        assert all(c.size <= size for c in chunks) and len(chunks) == -(-t.size // size)
        assert np.array_equal(np.concatenate(chunks), t)
        if size == 1:
            assert np.array_equal(got, expected)
        else:  # a sum of 81 terms: within 81 eps of their total norm
            assert np.linalg.norm(got - expected) <= 1e-14 * scale

    @pytest.mark.parametrize("integral", [tau.tau_integral, tau.tail_integral_identity_gap])
    def test_non_finite_integrand_raises(self, monkeypatch, integral):
        blocks_at = tau._BlockIntegrand.__call__

        def poisoned(self, t):
            pp, qq = blocks_at(self, t)
            qq[-1] = math.nan     # the last node of each chunk
            return pp, qq

        monkeypatch.setattr(tau._BlockIntegrand, "__call__", poisoned)
        a, p = random_psd(np.random.default_rng(32), 6), OrthoProjection.from_mask(6, [1, 3])
        with pytest.raises(tau.ConvergenceError) as info:
            integral(a, p)
        assert not math.isfinite(info.value.residual)

    def test_array_integrand_equals_scalar_calls(self):
        rng = np.random.default_rng(32)
        t = np.array([1e-6, 0.01, 0.3, 1.0, 4.5, 1e5])
        a = random_psd(rng, 5)
        p = random_block_projection(rng, 5)
        b = tau.pinch(a, p)
        stack = tau.resolvent_integrand(a, b, p, t)
        assert stack.shape == (t.size, 5, 5)
        assert np.array_equal(stack, np.stack([tau.resolvent_integrand(a, b, p, float(x)) for x in t]))
        assert tau.resolvent_integrand(a, b, p, 0.3).shape == (5, 5)

