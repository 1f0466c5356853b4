"""Finite-dimensional entropy engine.

Density matrices, von Neumann and relative entropy, mutual information via
partial traces, normalized-partial-trace conditional expectations, and the
entropy/index gap for the expectation onto one tensor factor.

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import _conj_t, _frobenius, _square_complex, _square_stack, hermitian_stack, xlogx

EIG_CLAMP = 1e-10
TRACE_TOL = 1e-10
SUPPORT_TOL = 1e-10
MI_CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class BipartiteShape:
    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("factor dimensions must be positive")

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b


@dataclass(frozen=True)
class TraceExpectation:
    """Conditional expectation replacing one factor by its normalized trace."""

    shape: BipartiteShape
    traced_factor: str  # "A" or "B"

    def __post_init__(self):
        if self.traced_factor not in ("A", "B"):
            raise ValueError("traced_factor must be 'A' or 'B'")


def _density_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(symmetrised matrices, clipped eigenvalues, eigenvectors) of density matrices.

    Takes a matrix or a (..., n, n) stack; ValueError unless each is Hermitian,
    of unit trace and PSD to the tolerances.
    """
    m = hermitian_stack(mats, "density matrix")
    tr = np.real(np.trace(m, axis1=-2, axis2=-1))
    off = np.abs(tr - 1.0)
    if np.any(off > TRACE_TOL):
        raise ValueError(f"trace is {tr.flat[np.argmax(off)]}, not 1")
    w, u = np.linalg.eigh(m)
    if np.any(w[..., 0] < -EIG_CLAMP):
        raise ValueError(f"negative eigenvalue {np.min(w[..., 0]):.3e} beyond tolerance")
    return m, np.clip(w, 0.0, None), u


class DensityMatrix:
    """Unit-trace PSD Hermitian matrix with cached spectrum."""

    def __init__(self, mat):
        self.mat, self.eigenvalues, self.eigenvectors = _density_stack(_square_complex(mat))
        self.dim = self.mat.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def partial_trace(mat: np.ndarray, shape: BipartiteShape, which: str) -> np.ndarray:
    """Trace out factor `which` of a dim_a*dim_b matrix, or of each matrix of a stack."""
    da, db = shape.dim_a, shape.dim_b
    if mat.shape[-2:] != (da * db, da * db):
        raise ValueError(f"matrix shape {mat.shape} does not match {da}x{db} split")
    t = mat.reshape(*mat.shape[:-2], da, db, da, db)
    if which == "A":
        return np.einsum("...ijik->...jk", t)
    if which == "B":
        return np.einsum("...ijkj->...ik", t)
    raise ValueError("which must be 'A' or 'B'")


def reduced_state(rho: DensityMatrix, shape: BipartiteShape, which: str) -> DensityMatrix:
    """Reduced density matrix on the factor complementary to `which`."""
    return DensityMatrix(partial_trace(rho.mat, shape, which))


def _kept_sums(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """np.sum of x[keep] along the last axis, row by row.

    A row with dropped entries is summed on its own: dropping entries
    regroups np.sum's pairwise blocks, so padding them with zeros could move
    the last bit.
    """
    rows, kept = x.reshape(-1, x.shape[-1]), keep.reshape(-1, keep.shape[-1])
    out = np.sum(np.where(kept, rows, 0.0), axis=-1)
    for i in np.flatnonzero(~np.all(kept, axis=-1)):
        out[i] = np.sum(rows[i][kept[i]])
    return out.reshape(x.shape[:-1])


def _entropy_sums(w: np.ndarray) -> np.ndarray:
    """sum lambda ln lambda over the positive eigenvalues, along the last axis (= -S)."""
    return _kept_sums(xlogx(w), w > 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda_i ln lambda_i, with 0 ln 0 := 0."""
    return float(-_entropy_sums(rho.eigenvalues))


def _relative_entropies(rho: np.ndarray, w_rho: np.ndarray, w_sigma: np.ndarray,
                        u_sigma: np.ndarray) -> np.ndarray:
    """Tr(rho ln rho - rho ln sigma) of a pair or of stacks of pairs; +inf off the support.

    rho with eigenvalues w_rho, sigma = u_sigma diag(w_sigma) u_sigma^dagger.
    """
    kernel = w_sigma <= SUPPORT_TOL
    outside = np.zeros(kernel.shape[:-1], dtype=bool)
    if np.any(kernel):
        k = (u_sigma * kernel[..., None, :]) @ _conj_t(u_sigma)  # projection onto ker sigma
        outside = _frobenius(k @ rho @ k) > SUPPORT_TOL
    keep = ~kernel
    weights = np.real(np.einsum("...ij,...jk,...ki->...i", _conj_t(u_sigma), rho, u_sigma))
    term2 = _kept_sums(np.log(np.where(keep, w_sigma, 1.0)) * weights, keep)
    return np.where(outside, math.inf, _entropy_sums(w_rho) - term2)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho ln rho - rho ln sigma); +inf when supp(rho) is not inside supp(sigma)."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return float(_relative_entropies(rho.mat, rho.eigenvalues, sigma.eigenvalues, sigma.eigenvectors))


def mutual_information(rho_ab: DensityMatrix, shape: BipartiteShape) -> float:
    """S(rho_A) + S(rho_B) - S(rho_AB).

    Also evaluates the relative entropy S(rho_AB, rho_A (x) rho_B) and insists
    the two routes agree; the identity is part of the contract, not an option.
    """
    if rho_ab.dim != shape.total:
        raise ValueError(f"state dim {rho_ab.dim} does not match shape {shape}")
    rho_a = reduced_state(rho_ab, shape, "B")
    rho_b = reduced_state(rho_ab, shape, "A")
    mi = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b) - von_neumann_entropy(rho_ab)
    product = DensityMatrix(np.kron(rho_a.mat, rho_b.mat))
    alt = relative_entropy(rho_ab, product)
    if math.isfinite(alt) and abs(alt - mi) > MI_CROSS_CHECK_TOL:
        raise ArithmeticError(f"mutual information routes disagree: {mi} vs {alt}")
    return mi


def conditional_expectation(x: np.ndarray, e: TraceExpectation) -> np.ndarray:
    """Replace the traced factor by (normalized partial trace) x identity, matrix by matrix."""
    m = _square_stack(x)
    shape = e.shape
    if m.shape[-2:] != (shape.total, shape.total):
        raise ValueError(f"matrix shape {m.shape} does not match {shape}")
    if e.traced_factor == "A":
        red = partial_trace(m, shape, "A") / shape.dim_a
        return np.kron(np.eye(shape.dim_a), red)
    red = partial_trace(m, shape, "B") / shape.dim_b
    return np.kron(red, np.eye(shape.dim_b))


def entropy_index_gap(k: int, rho: DensityMatrix, e: TraceExpectation) -> tuple[float, float]:
    """Relative entropy S(rho, rho.E) against the index bound ln(k^2) for k (x) k."""
    if k < 1:
        raise ValueError("k must be positive")
    if rho.dim != k * k or e.shape != BipartiteShape(k, k):
        raise ValueError("expected a state and expectation on a k x k bipartition")
    return float(_entropy_index_gaps(rho.mat, rho.eigenvalues, e)), math.log(k * k)


def _entropy_index_gaps(rho: np.ndarray, w_rho: np.ndarray, e: TraceExpectation) -> np.ndarray:
    """S(rho, rho.E) of a state or a stack of states on k (x) k with eigenvalues w_rho.

    Returned as computed: the caller compares it with the index bound ln(k^2).
    """
    _, w_sigma, u_sigma = _density_stack(conditional_expectation(rho, e))
    return _relative_entropies(rho, w_rho, w_sigma, u_sigma)


def _pimsner_popa_margins(a: np.ndarray, e: TraceExpectation) -> np.ndarray:
    """Smallest eigenvalue of E(a) - a / d^2, d the traced factor dimension, of a matrix or of
    each matrix of a stack (one eigvalsh call).

    Nonnegative for PSD a, as the expectation has index d^2; returned as
    computed, so the caller decides.
    """
    d = e.shape.dim_a if e.traced_factor == "A" else e.shape.dim_b
    diff = conditional_expectation(a, e) - a / d**2
    return np.linalg.eigvalsh(0.5 * (diff + _conj_t(diff)))[..., 0]
