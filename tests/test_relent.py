import math

import numpy as np
import pytest

from araki_mi import relent
from araki_mi.rand import random_density
from araki_mi.relent import (
    BipartiteShape,
    DensityMatrix,
    TraceExpectation,
    conditional_expectation,
    entropy_index_gap,
    mutual_information,
    partial_trace,
    reduced_state,
    relative_entropy,
    von_neumann_entropy,
)

LN2 = math.log(2.0)
# h(1/4) via 40-digit mpmath evaluation
H_QUARTER = 0.5623351446188083502880303152244588576654


def bell_state() -> DensityMatrix:
    return DensityMatrix.pure([1, 0, 0, 1])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix([[0.5, 0.3], [0.0, 0.5]])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, value):
        # a NaN Hermiticity defect and a NaN trace defect both passed their checks
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.eye(3) * value)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix([[1.1, 0], [0, -0.1]])

    def test_clamps_tiny_negatives(self):
        rho = DensityMatrix([[1 + 5e-11, 0], [0, -5e-11]])
        assert rho.eigenvalues[0] == 0.0


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(DensityMatrix.pure([1, 0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(LN2, abs=1e-12)

    def test_quarter_mixture(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert von_neumann_entropy(rho) == pytest.approx(H_QUARTER, abs=1e-13)


class TestKeptSums:
    def test_rows_equal_one_dimensional_sums_of_the_kept_entries(self):
        # np.sum's pairwise blocks depend on the length, so a row with dropped
        # entries must not be summed as a zero-padded full row.
        rng = np.random.default_rng(3)
        for d in (3, 9, 17, 40):
            x = rng.standard_normal((25, d))
            keep = rng.random((25, d)) < 0.7
            keep[0] = True
            got = relent._kept_sums(x, keep)
            assert all(got[i] == np.sum(x[i][keep[i]]) for i in range(25))


class TestRelativeEntropy:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(0), 4)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_mixed(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sigma = DensityMatrix(np.eye(2) / 2)
        assert relative_entropy(rho, sigma) == pytest.approx(LN2, abs=1e-12)

    def test_support_violation_is_infinite(self):
        rho = DensityMatrix(np.eye(2) / 2)
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        assert relative_entropy(rho, sigma) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))

    def test_positivity_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            rho = random_density(rng, dim)
            sigma = random_density(rng, dim)
            assert relative_entropy(rho, sigma) >= -1e-10

    def test_monotone_under_restriction(self):
        rng = np.random.default_rng(12)
        shape = BipartiteShape(2, 3)
        for _ in range(200):
            rho = random_density(rng, 6)
            sigma = random_density(rng, 6)
            full = relative_entropy(rho, sigma)
            part = relative_entropy(reduced_state(rho, shape, "B"), reduced_state(sigma, shape, "B"))
            assert part <= full + 1e-8


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        rho = DensityMatrix(np.kron(a.mat, b.mat))
        assert mutual_information(rho, BipartiteShape(2, 3)) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self):
        assert mutual_information(bell_state(), BipartiteShape(2, 2)) == pytest.approx(2 * LN2, abs=1e-10)

    def test_classically_correlated(self):
        rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
        assert mutual_information(rho, BipartiteShape(2, 2)) == pytest.approx(LN2, abs=1e-10)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            mutual_information(bell_state(), BipartiteShape(2, 3))


class TestConditionalExpectation:
    def test_unitality(self):
        e = TraceExpectation(BipartiteShape(2, 3), "A")
        assert np.allclose(conditional_expectation(np.eye(6), e), np.eye(6))

    def test_bell_state_flattens(self):
        e = TraceExpectation(BipartiteShape(2, 2), "A")
        out = conditional_expectation(bell_state().mat, e)
        assert np.allclose(out, np.eye(4) / 4, atol=1e-12)

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        e = TraceExpectation(BipartiteShape(2, 3), "B")
        for _ in range(10):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            x = m + m.conj().T
            once = conditional_expectation(x, e)
            assert np.allclose(conditional_expectation(once, e), once, atol=1e-12)

    def test_positivity(self):
        rng = np.random.default_rng(5)
        e = TraceExpectation(BipartiteShape(2, 2), "A")
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            out = conditional_expectation(m @ m.conj().T, e)
            assert np.linalg.eigvalsh(out)[0] >= -1e-12


class TestEntropyIndexGap:
    def test_invariant_state_has_zero_gap(self):
        rng = np.random.default_rng(6)
        sigma = random_density(rng, 2)
        rho = DensityMatrix(np.kron(np.eye(2) / 2, sigma.mat))
        e = TraceExpectation(BipartiteShape(2, 2), "A")
        s, bound = entropy_index_gap(2, rho, e)
        assert s == pytest.approx(0.0, abs=1e-10)
        assert bound == pytest.approx(2 * LN2)

    def test_bell_state_saturates(self):
        e = TraceExpectation(BipartiteShape(2, 2), "A")
        s, bound = entropy_index_gap(2, bell_state(), e)
        assert s == pytest.approx(bound, abs=1e-9)

    def test_random_states_respect_bound(self):
        rng = np.random.default_rng(7)
        e = TraceExpectation(BipartiteShape(2, 2), "A")
        for _ in range(100):
            s, bound = entropy_index_gap(2, random_density(rng, 4), e)
            assert s <= bound + 1e-8


class TestTheorem515Properties:
    def test_conditional_expectation_identity(self):
        # S(rho, psi.E) = S(rho_B, psi) + S(rho, rho.E)
        rng = np.random.default_rng(8)
        shape = BipartiteShape(2, 3)
        e = TraceExpectation(shape, "A")
        for _ in range(50):
            rho = random_density(rng, 6)
            psi = random_density(rng, 3)
            psi_e = DensityMatrix(np.kron(np.eye(2) / 2, psi.mat))
            lhs = relative_entropy(rho, psi_e)
            rhs = relative_entropy(reduced_state(rho, shape, "A"), psi) + relative_entropy(
                rho, DensityMatrix(conditional_expectation(rho.mat, e)))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_dominance_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            mu = float(rng.uniform(0.1, 0.9))
            rho = random_density(rng, dim)
            gamma = random_density(rng, dim)
            sigma = DensityMatrix(mu * rho.mat + (1 - mu) * gamma.mat)
            assert relative_entropy(rho, sigma) <= math.log(1 / mu) + 1e-8

    def test_martingale_chain(self):
        # nested block subalgebras of a 2x2x2 system
        rng = np.random.default_rng(10)
        for _ in range(30):
            rho = random_density(rng, 8)
            sigma = random_density(rng, 8)
            full = relative_entropy(rho, sigma)
            shape_23 = BipartiteShape(4, 2)   # factors (12) x (3)
            rho_12 = partial_trace(rho.mat, shape_23, "B")
            sig_12 = partial_trace(sigma.mat, shape_23, "B")
            mid = relative_entropy(DensityMatrix(rho_12), DensityMatrix(sig_12))
            shape_12 = BipartiteShape(2, 2)
            rho_1 = partial_trace(rho_12, shape_12, "B")
            sig_1 = partial_trace(sig_12, shape_12, "B")
            small = relative_entropy(DensityMatrix(rho_1), DensityMatrix(sig_1))
            assert small <= mid + 1e-8
            assert mid <= full + 1e-8
            last = relative_entropy(rho, sigma)
            assert last == pytest.approx(full, abs=1e-8)


class TestPimsnerPopa:
    def test_margin_nonnegative(self):
        rng = np.random.default_rng(13)
        e = TraceExpectation(BipartiteShape(2, 3), "A")
        for _ in range(200):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            assert relent._pimsner_popa_margins(m @ m.conj().T, e) >= -1e-9
