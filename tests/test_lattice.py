from fractions import Fraction

import numpy as np
import pytest

from araki_mi.lattice import (
    MAX_DENSE_ENTRIES,
    GramMatrix,
    RationalEmbedding,
    coset_count,
    embed_rational,
    exact_ldl_pivots,
    integer_determinant,
    integralize,
    is_even,
    root_lattice,
    solve_integer_system,
    sublattice_index,
)

ROOT_NAMES = ("A1", "A2", "A3", "D4", "E8")


def random_gram(rng: np.random.Generator, n: int) -> GramMatrix:
    while True:
        m = rng.integers(-3, 4, size=(n, n))
        g = m.T @ m
        if integer_determinant(g.tolist()) > 0 and np.max(np.abs(g)) <= 20:
            return GramMatrix(tuple(tuple(int(x) for x in row) for row in g))


class TestGramMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GramMatrix(((1, 2), (3, 1)))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            GramMatrix(((1, 2), (2, 1)))

    def test_root_lattice_determinants(self):
        # det A_n = n+1, det D4 = 4, det E8 = 1
        expected = {"A1": 2, "A2": 3, "A3": 4, "D4": 4, "E8": 1}
        for name, det in expected.items():
            assert integer_determinant(root_lattice(name).entries) == det


class TestSolveIntegerSystem:
    def test_known_solution(self):
        x = solve_integer_system([[2, -1], [-1, 2]], [1, 0])
        assert x == [Fraction(2, 3), Fraction(1, 3)]

    def test_singular_rejected(self):
        with pytest.raises(ArithmeticError):
            solve_integer_system([[1, 1], [1, 1]], [1, 0])


class TestEmbedRational:
    def test_a1_base_case(self):
        emb = embed_rational(root_lattice("A1"))
        assert emb.r == 2
        assert emb.k == 1
        assert emb.dense_vectors() == [[Fraction(1), Fraction(1)]]

    def test_dense_expansion_at_budget(self):
        emb = embed_rational(GramMatrix(((MAX_DENSE_ENTRIES,),)))
        vecs = emb.dense_vectors(max_r=MAX_DENSE_ENTRIES)
        assert len(vecs) == 1 and len(vecs[0]) == MAX_DENSE_ENTRIES

    def test_dense_expansion_over_budget_refused(self):
        # rank 2, r = (MAX_DENSE_ENTRIES // 2 + 1) + 1: just over the entry budget
        emb = embed_rational(GramMatrix(((MAX_DENSE_ENTRIES // 2 + 1, 0), (0, 1))))
        assert emb.n * emb.r > MAX_DENSE_ENTRIES
        with pytest.raises(ValueError, match="budget"):
            emb.dense_vectors(max_r=emb.r)

    def test_identity_gram(self):
        g = GramMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        emb = embed_rational(g)
        assert emb.gram() == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]

    def test_a2_exact(self):
        g = root_lattice("A2")
        emb = embed_rational(g)
        assert emb.gram() == [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]
        k, int_rows = integralize(emb)
        assert k == 2
        # Gram of the scaled vectors is k^2 G, exactly
        scaled = RationalEmbedding(segment_lengths=emb.segment_lengths,
                                   rows=tuple(tuple(Fraction(v) for v in row) for row in int_rows),
                                   residuals=emb.residuals)
        assert scaled.gram() == [[Fraction(k * k * g.entries[i][j]) for j in range(2)] for i in range(2)]

    @pytest.mark.parametrize("name", ROOT_NAMES)
    def test_root_lattice_corpus(self, name):
        g = root_lattice(name)
        emb = embed_rational(g)
        gram = emb.gram()
        for i in range(g.n):
            for j in range(g.n):
                assert gram[i][j] == g.entries[i][j]

    @pytest.mark.parametrize("name", ROOT_NAMES)
    def test_residuals_match_ldl_pivots(self, name):
        g = root_lattice(name)
        assert list(embed_rational(g).residuals) == exact_ldl_pivots(g)

    def test_random_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            g = random_gram(rng, n)
            emb = embed_rational(g)
            gram = emb.gram()
            for i in range(n):
                for j in range(n):
                    assert gram[i][j] == g.entries[i][j]
            assert all(rv > 0 for rv in emb.residuals)
            assert list(emb.residuals) == exact_ldl_pivots(g)


class TestIntegralize:
    def test_integer_embedding_k_one(self):
        emb = embed_rational(GramMatrix(((1, 0), (0, 1))))
        k, _ = integralize(emb)
        assert k == 1

    def test_lcm_of_denominators(self):
        emb = RationalEmbedding(segment_lengths=(1, 1),
                                rows=((Fraction(1, 2), Fraction(1, 3)),),
                                residuals=(Fraction(1),))
        k, int_rows = integralize(emb)
        assert k == 6
        assert int_rows == ((3, 2),)

    @pytest.mark.parametrize("name", ROOT_NAMES)
    def test_scaled_gram_law(self, name):
        g = root_lattice(name)
        emb = embed_rational(g)
        k, int_rows = integralize(emb)
        scaled = RationalEmbedding(segment_lengths=emb.segment_lengths,
                                   rows=tuple(tuple(Fraction(v) for v in row) for row in int_rows),
                                   residuals=emb.residuals)
        gram = scaled.gram()
        for i in range(g.n):
            for j in range(g.n):
                assert gram[i][j] == k * k * g.entries[i][j]


class TestSublatticeIndex:
    def test_k_one(self):
        assert sublattice_index(root_lattice("A2"), 1) == 1

    def test_rank_two_k_two(self):
        g = GramMatrix(((1, 0), (0, 1)))
        assert sublattice_index(g, 2) == 4
        assert coset_count(2, 2) == 4

    def test_e8_k_three(self):
        assert sublattice_index(root_lattice("E8"), 3) == 6561

    def test_coset_oracle_small(self):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                g = GramMatrix(tuple(tuple(2 * int(i == j) for j in range(n)) for i in range(n)))
                assert sublattice_index(g, k) == coset_count(n, k)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sublattice_index(root_lattice("A1"), 0)


class TestEvenness:
    def test_a1_even(self):
        assert is_even(root_lattice("A1"))

    def test_fermion_lattice_odd(self):
        assert not is_even(GramMatrix(((1,),)))

    def test_e8_even(self):
        assert is_even(root_lattice("E8"))

    def test_even_pipeline_composition(self):
        # even lattice -> k L sits isometrically (up to the k^2 scale) in Z^r
        for name in ROOT_NAMES:
            g = root_lattice(name)
            if not is_even(g):
                continue
            emb = embed_rational(g)
            k, int_rows = integralize(emb)
            assert k >= 1 and emb.r >= g.n
            assert all(isinstance(v, int) for row in int_rows for v in row)
