import hashlib
import json
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from araki_mi.cli import main
from araki_mi.lattice import (
    MAX_DENSE_ENTRIES,
    ROOT_LATTICE_GRAMS,
    GramMatrix,
    RationalEmbedding,
    _bareiss_pivots,
    embed_rational,
    exact_ldl_pivots,
    integer_determinant,
    integralize,
    is_even,
    root_lattice,
    sublattice_index,
)
from oracles import coset_count

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

    @pytest.mark.parametrize("entries,order", [
        ([[0]], 1), ([[-1, 0], [0, 1]], 1), ([[0, 1], [1, 0]], 1),
        ([[1, 2], [2, 1]], 2), ([[1, 1], [1, 1]], 2),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], 3), ([[2, 1, 1], [1, 2, 1], [1, 1, -3]], 3),
        ([[1, 1, 1], [1, 2, 2], [1, 2, 2]], 3),
    ])
    def test_first_nonpositive_minor_named(self, entries, order):
        with pytest.raises(ValueError) as info:
            GramMatrix(entries)
        assert str(info.value) == f"leading principal minor of order {order} is not positive"


def leibniz_determinant(m) -> int:
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


class TestBareissPivots:
    def test_pivots_are_leading_minors_until_nonpositive(self):
        # entries in [-2, 2] with forced zero rows and repeated columns give
        # zero pivots, row exchanges and singular matrices
        rng = np.random.default_rng(7)
        matrices = [[[0, 1], [1, 0]], [[1, 2], [2, 4]]]
        for trial in range(300):
            n = int(rng.integers(1, 6))
            m = rng.integers(-2, 3, size=(n, n))
            if trial % 3 == 0:
                m[rng.integers(0, n)] = 0
            if trial % 5 == 0 and n > 1:
                m[:, 1] = m[:, 0]
            matrices.append(m.tolist())
        for m in matrices:
            assert integer_determinant(m) == leibniz_determinant(m)
            minors = [integer_determinant([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
            for minor, pivot in zip(minors, _bareiss_pivots(m)):
                assert pivot == minor
                if pivot <= 0:
                    break
        assert integer_determinant([[0, 1], [1, 0]]) == -1


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

    def test_pivots_equal_a_fraction_elimination(self):
        # the pivots come from the Bareiss minors; an LDL^T elimination in Fractions is the oracle
        def eliminated(g):
            a = [[Fraction(x) for x in row] for row in g.entries]
            for k in range(g.n):
                for i in range(k + 1, g.n):
                    factor = a[i][k] / a[k][k]
                    a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
            return [a[k][k] for k in range(g.n)]

        rng = np.random.default_rng(7)
        for g in [root_lattice(name) for name in ROOT_NAMES] + [random_gram(rng, n) for n in range(1, 7)]:
            assert exact_ldl_pivots(g) == eliminated(g)

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


def golden_grams() -> dict:
    """The root lattices, then M^T M (M nonsingular, entries in [-3, 3]) and
    B^T B + I (entries of B in [-2, 2]) for each rank 1..16, seeded."""
    grams = {name: [list(row) for row in g] for name, g in ROOT_LATTICE_GRAMS.items()}
    rng = np.random.default_rng(8)
    for n in range(1, 17):
        while True:
            m = rng.integers(-3, 4, size=(n, n))
            if integer_determinant(m.tolist()) != 0:
                break
        b = rng.integers(-2, 3, size=(n, n))
        grams[f"mtm{n}"] = (m.T @ m).tolist()
        grams[f"btb{n}"] = (b.T @ b + np.eye(n, dtype=int)).tolist()
    return grams


GOLDEN_GRAMS = golden_grams()


# SHA-256 of the canonical `embed --gram` stdout, recorded when each projection
# still came from an integer solve of its own; embed output must not move.
EMBED_STDOUT_SHA256 = {
    "A1": "077b2919107b3827d67ab733fd13b703978e13f61dd77615405f45a7492f50d6",
    "A2": "22a6c3b75b221e29bfd3fce1b99b6bed699005736d1e5e4366e9f391ee734c88",
    "A3": "d8aab91e7c4752dac4aebadfe7b27135458aa4de4cc6a9ce06f9a898df134ca9",
    "D4": "f6225d27a91eadd414af1fde626085f9d424330f71964d7a068d8b4845f206bf",
    "E8": "0e787be67c1a27b4ea610cf3dcde845851249080541c96c81d7f7f7a937debab",
    "mtm1": "73ee890698ea1573ae355b3dcb59edf7327bef043a09cee1939b40308d381cd2",
    "btb1": "077b2919107b3827d67ab733fd13b703978e13f61dd77615405f45a7492f50d6",
    "mtm2": "0170b55c440701184cbf85e4056a6f4c68209043bd89206b33608190345f9669",
    "btb2": "c5efe4b7431e48314f605e77af11f7c2e1f019fc8f61b2acf841abcdde04e228",
    "mtm3": "832a7cc7b432402d6d3840bc65576c5968fb9ccce7b065c8315c5336752f583b",
    "btb3": "2652eab2489c6b33d3ae90ae2ee995b8f44004ed0e518030264840c27fc55a9c",
    "mtm4": "9b9b33d0ce2620a229c9a6aa4fc57a39d60011935c09bed86ed784d2a5c502e1",
    "btb4": "f9aa7c7c93dc5217a14aa1252d2696d6683ae2e9cefa74ff2904238e88d55ec7",
    "mtm5": "02a75c72058a3b8b72a2d455692098d67cf9a6e961978bda2f40eded1e406761",
    "btb5": "07a5a84c87a7a345ba54e1ab1077973dfd75c9d2fe72b59311fa718deac3ea45",
    "mtm6": "0046a8bccaf3d70c43d8b6bfd50f94cef1766ab074b2eae2b71f4b5ed1ffd788",
    "btb6": "5e06b57c020138d2cbd96d309a78295dd8eeb66c58503dbc65fd555966291488",
    "mtm7": "b2676ec49b56371ed267d4339b84fa1b383ca55216ca3b39c899065dbd68c137",
    "btb7": "7e973a876035aac18d4165e250341a1985224caf1ebe99560beff76515dbc2ee",
    "mtm8": "6fddaa759353f6a7cd571329826dbf875890071b51e257326d7aae3b0948fe0f",
    "btb8": "05d48e0725b28c3f5974ac2b6d6cb6b77f15b010f44be98a4832ae21a5db0a31",
    "mtm9": "8b750951042a2c6596270dcb93a1ded6befb64ed286e377f4343d126ef9999a1",
    "btb9": "f3763c889a029a491ab1761075e6580fe7153d04d7fbf8886f244f582a7ff0e2",
    "mtm10": "035efab5ec84fe2c4c71ebe9811b5ca101c92aafdd4598c378707025f955114e",
    "btb10": "573a71a3644d891d5f4add748abaa2214ce895eb1bd20299c3f1b8df2a5a0d69",
    "mtm11": "98c667f59c92f3377f3bcbd4414bbef412f869421ef176723f9647837aafc0c7",
    "btb11": "a329abb2664b7f66f1339d4d95da06eab52056054700e6aadbc323eb0b5e2937",
    "mtm12": "f035fb6ffb2b426641c7735bc6fba0ba97405ba1179db519657c1753961f8b27",
    "btb12": "6f3ce5a8f6c9ec9dadbc066f0ea8503caa418ca2ef18cc25383c0ccc41a8b354",
    "mtm13": "b169338f4ae463157ba6596865170d0da5ef8c9c1a1612c86e9e4ad865904ce6",
    "btb13": "0d2a63ca80ce0504f08843e10cbcb6fa7eb4e56fe47f44e8242f347cdd9d16da",
    "mtm14": "a43528370224f840b4f278e301fb5c5b8205c292932a9670f9071de9ede4e7ef",
    "btb14": "2fa9084c8a4ce95414c70e7e15c6344d71b5a30eee17c488b4784c2e31eb0cfb",
    "mtm15": "57e1e60874a6c4bcae997cbfaf308d01cd1432c3af03fa166830396b43781a88",
    "btb15": "887c3591cb0089ae55f9babad544dfda8b15e118792eb71be56db1e3f12eb49b",
    "mtm16": "4dee09fe0ea4b01f1c46231073ae0175c3d199bd103a6ed44d381fe386676bb8",
    "btb16": "24751c7b1d1e753d9a85178dda163b952063982d9251b3d256401f9e6d4cb3fc",
}


class TestEmbedGolden:
    @pytest.mark.parametrize("name,gram", GOLDEN_GRAMS.items())
    def test_stdout_matches_recorded_digest(self, capsys, name, gram):
        assert main(["embed", "--gram", json.dumps(gram)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == EMBED_STDOUT_SHA256[name]


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

    @pytest.mark.parametrize("name", GOLDEN_GRAMS)     # the root lattices and ranks 1 to 16
    def test_scaled_gram_law(self, name):
        # sum_s L_s (k A_i)_s (k A_j)_s = k^2 G_ij, in Python integers
        g = GramMatrix(GOLDEN_GRAMS[name])
        emb = embed_rational(g)
        k, int_rows = integralize(emb)
        for i in range(g.n):
            for j in range(g.n):
                inner = sum(length * x * y for length, x, y in zip(emb.segment_lengths, int_rows[i], int_rows[j]))
                assert inner == k * k * g.entries[i][j]


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
