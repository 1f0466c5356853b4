"""Seeded random instance generators for tests and audits.

Each generator draws its numbers first and makes the instance from them
second; `psd_from_factor` and `density_from_factor` also take stacks of
draws, which the audits use to make many instances in one call.
"""

from __future__ import annotations

import numpy as np

from .operators import HermitianOperator, OrthoProjection
from .relent import DensityMatrix


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex matrix with independent standard normal real and imaginary parts."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def psd_from_factor(m: np.ndarray) -> np.ndarray:
    """M M^dagger / dim of a dim x dim factor, or of each factor of a stack."""
    return m @ np.swapaxes(m.conj(), -1, -2) / m.shape[-1]


def density_from_factor(m: np.ndarray) -> np.ndarray:
    """M M^dagger / Tr(M M^dagger) of a dim x rank factor, or of each factor of a stack."""
    rho = m @ np.swapaxes(m.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def block_membership(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Boolean membership of a random coordinate mask with rank in [1, dim-1]."""
    rank = int(rng.integers(1, dim))
    inside = np.zeros(dim, dtype=bool)
    inside[rng.choice(dim, size=rank, replace=False)] = True
    return inside


def random_psd(rng: np.random.Generator, dim: int) -> HermitianOperator:
    return HermitianOperator(psd_from_factor(gaussian_matrix(rng, dim, dim)))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian_matrix(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    rank = dim if rank is None else rank
    return DensityMatrix(density_from_factor(gaussian_matrix(rng, dim, rank)))


def random_block_projection(rng: np.random.Generator, dim: int) -> OrthoProjection:
    """Coordinate-mask projection with rank in [1, dim-1]."""
    return OrthoProjection.from_mask(dim, np.flatnonzero(block_membership(rng, dim)))


def random_projection(rng: np.random.Generator, dim: int, rank: int) -> OrthoProjection:
    """General (non-block) projection of the given rank."""
    u = random_unitary(rng, dim)
    v = u[:, :rank]
    return OrthoProjection(v @ v.conj().T)
