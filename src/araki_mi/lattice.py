"""Exact rational embeddings of positive integral lattices.

Every positive-definite integer Gram matrix G of rank n admits vectors
A_1, ..., A_n in Q^r with A_i . A_j = G_ij exactly; scaling by the least
common multiple k of all denominators puts k A_i in Z^r.  The construction
is inductive: A_1 = (1, ..., 1) of length G_11, and each new vector is its
projection onto the span of the previous ones plus a positive rational
residual p/q, realized by appending p*q coordinates each equal to 1/q.

The appended coordinates are constant in blocks, so vectors are stored
run-length compressed: the coordinate space is a list of segments and every
vector holds one rational value per segment.  A_j vanishes past segment j,
and segment j has length L_j = p_j q_j while A_j takes the value 1/q_j on it,
so the vectors are lower triangular over segments with L_j A_j[j] = p_j.  The
projection y of the new vector A_n therefore follows by forward substitution,
y_j = (G_nj - sum_{s<j} L_s A_j[s] y_s) / p_j, with no linear system to solve.
For random Gram matrices p*q can be astronomically large; the segmented form
keeps everything exact and small.  No floating point is used anywhere in this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

# Most Fraction references dense_vectors will build (rank x r), whatever max_r allows.
MAX_DENSE_ENTRIES = 1_000_000


@dataclass(frozen=True)
class GramMatrix:
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple(tuple(_integer(x) for x in row) for row in self.entries)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"Gram matrix must be a list of integer rows ({exc})") from None
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("Gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        for m, minor in enumerate(_bareiss_pivots(rows), start=1):
            if minor <= 0:
                raise ValueError(f"leading principal minor of order {m} is not positive")

    @property
    def n(self) -> int:
        return len(self.entries)


def _integer(x) -> int:
    if isinstance(x, bool):
        raise ValueError(f"Gram entry {x!r} is not an integer")
    i = int(x)
    if i != x:
        raise ValueError(f"Gram entry {x!r} is not an integer")
    return i


def _bareiss_pivots(m: Sequence[Sequence[int]]) -> Iterator[int]:
    """Signed pivots of Bareiss fraction-free elimination of an integer matrix.

    Until a row exchange, the m-th value yielded is the leading principal minor
    of order m; the last value yielded is the determinant (0 at the first
    column with no nonzero pivot candidate).
    """
    a = [list(map(int, row)) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        yield sign * a[k][k]
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]


def integer_determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss fraction-free elimination."""
    *_, det = _bareiss_pivots(m)
    return det


@dataclass
class RationalEmbedding:
    """Vectors in Q^r, run-length compressed over constant coordinate segments."""

    segment_lengths: Tuple[int, ...]
    rows: Tuple[Tuple[Fraction, ...], ...]   # rows[i][s]: value of A_i on segment s
    residuals: Tuple[Fraction, ...]          # step residuals (Schur complements)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def r(self) -> int:
        return sum(self.segment_lengths)

    @property
    def k(self) -> int:
        return math.lcm(*(v.denominator for row in self.rows for v in row))

    def dense_vectors(self, max_r: int = 100_000) -> List[List[Fraction]]:
        if self.r > max_r:
            raise ValueError(f"embedding dimension {self.r} too large to expand densely")
        if self.n * self.r > MAX_DENSE_ENTRIES:
            raise ValueError(f"dense expansion of {self.n} x {self.r} entries exceeds "
                             f"the budget of {MAX_DENSE_ENTRIES}")
        out = []
        for row in self.rows:
            vec: List[Fraction] = []
            for s, length in enumerate(self.segment_lengths):
                vec.extend([row[s]] * length)
            out.append(vec)
        return out


def embed_rational(g: GramMatrix) -> RationalEmbedding:
    """Isometric embedding of the lattice with Gram matrix g into Q^r.

    Every step is exact `Fraction` arithmetic, so A_i . A_j = G_ij holds by
    construction and is not checked again here.
    """
    gm = g.entries
    segments: List[int] = [gm[0][0]]
    rows: List[List[Fraction]] = [[Fraction(1)]]
    residuals: List[Fraction] = [Fraction(gm[0][0])]
    for step in range(1, g.n):
        proj: List[Fraction] = []
        for j in range(step):
            dot = sum((segments[s] * rows[j][s] * proj[s] for s in range(j)), Fraction(0))
            proj.append((gm[step][j] - dot) / residuals[j].numerator)
        proj_sq = sum((length * proj[s] ** 2 for s, length in enumerate(segments)), Fraction(0))
        # a Schur complement of g, so positive: GramMatrix has checked g by Sylvester's criterion
        residual = Fraction(gm[step][step]) - proj_sq
        p, q = residual.numerator, residual.denominator
        for row in rows:
            row.append(Fraction(0))
        proj.append(Fraction(1, q))
        segments.append(p * q)
        rows.append(proj)
        residuals.append(residual)
    return RationalEmbedding(segment_lengths=tuple(segments), rows=tuple(tuple(r) for r in rows),
                             residuals=tuple(residuals))


def integralize(e: RationalEmbedding) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Minimal integer k with k A_i integral, and the segment values of k A_i."""
    k = e.k     # the lcm of the denominators, so every k * v is an integer
    return k, tuple(tuple((k * v).numerator for v in row) for row in e.rows)


def sublattice_index(g: GramMatrix, k: int) -> int:
    """|L / kL| = det(k B) / det(B) = k^n for any basis B of L."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return k ** g.n


def is_even(g: GramMatrix) -> bool:
    return all(g.entries[i][i] % 2 == 0 for i in range(g.n))


def exact_ldl_pivots(g: GramMatrix) -> List[Fraction]:
    """Pivots (Schur complements) of the exact LDL^T decomposition of g.

    The m-th pivot is the ratio of the leading principal minors of orders m
    and m - 1, read from the Bareiss pass that validates g.  Independent
    cross-check: the step residuals of embed_rational, found by forward
    substitution, must equal these pivots.
    """
    minors = list(_bareiss_pivots(g.entries))
    return [Fraction(m, prev) for prev, m in zip([1, *minors], minors)]


ROOT_LATTICE_GRAMS = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "D4": ((2, 0, -1, 0), (0, 2, -1, 0), (-1, -1, 2, -1), (0, 0, -1, 2)),
    "E8": (
        (2, -1, 0, 0, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0, 0, 0),
        (0, -1, 2, -1, 0, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, -1),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, 0),
        (0, 0, 0, 0, -1, 0, 0, 2),
    ),
}


def root_lattice(name: str) -> GramMatrix:
    try:
        return GramMatrix(ROOT_LATTICE_GRAMS[name])
    except KeyError:
        raise ValueError(f"unknown root lattice {name!r}") from None
