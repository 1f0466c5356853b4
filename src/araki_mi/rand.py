"""Seeded random instance generators for tests and audits.

Each generator draws its numbers first and makes the instance from them
second; `psd_from_factor` and `density_from_factor` also take stacks of
draws, which the audits use to make many instances in one call.  The
audits draw a batch of trials, one generator each, with `gaussian_stacks`
and `block_memberships`: each generator draws the bits of `gaussian_matrix`
and `block_membership` and is left in the same state.
"""

from __future__ import annotations

import numpy as np

from .operators import HermitianOperator, OrthoProjection
from .relent import DensityMatrix


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex matrix with independent standard normal real and imaginary parts."""
    return gaussian_stacks([rng], rows, cols)[0][0]


def psd_from_factor(m: np.ndarray) -> np.ndarray:
    """M M^dagger / dim of a dim x dim factor, or of each factor of a stack."""
    return m @ np.swapaxes(m.conj(), -1, -2) / m.shape[-1]


def density_from_factor(m: np.ndarray) -> np.ndarray:
    """M M^dagger / Tr(M M^dagger) of a dim x rank factor, or of each factor of a stack."""
    rho = m @ np.swapaxes(m.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def block_membership(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Boolean membership of a random coordinate mask with rank in [1, dim-1]."""
    return block_memberships([rng], dim)[0]


def gaussian_stacks(rngs, rows: int, cols: int | None = None, count: int = 1) -> list[np.ndarray]:
    """count (len(rngs), rows, cols) stacks (cols defaults to rows); matrix j of stack i
    is the i-th of count gaussian_matrix(rngs[j], rows, cols) draws.  One standard_normal
    call per generator draws them all, the real parts and then the imaginary parts of
    each in turn."""
    parts = np.empty((len(rngs), count, 2, rows, rows if cols is None else cols))
    for rng, part in zip(rngs, parts):
        rng.standard_normal(out=part)
    return [parts[:, i, 0] + 1j * parts[:, i, 1] for i in range(count)]


def block_memberships(rngs, dim: int) -> np.ndarray:
    """The (len(rngs), dim) stack of block_membership(rng, dim) of each generator."""
    inside = np.zeros((len(rngs), dim), dtype=bool)
    for rng, row in zip(rngs, inside):
        row[rng.choice(dim, size=int(rng.integers(1, dim)), replace=False)] = True
    return inside


def random_psd(rng: np.random.Generator, dim: int) -> HermitianOperator:
    return HermitianOperator(psd_from_factor(gaussian_matrix(rng, dim, dim)))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank density matrix from a dim x dim Gaussian factor."""
    return DensityMatrix(density_from_factor(gaussian_matrix(rng, dim, dim)))


def random_block_projection(rng: np.random.Generator, dim: int) -> OrthoProjection:
    """Coordinate-mask projection with rank in [1, dim-1]."""
    return OrthoProjection.from_mask(dim, np.flatnonzero(block_membership(rng, dim)))

