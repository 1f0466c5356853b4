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

from .operators import _square_complex, hermitian_matrix, xlogx

EIG_CLAMP = 1e-10
TRACE_TOL = 1e-10
SUPPORT_TOL = 1e-10


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


class DensityMatrix:
    """Unit-trace PSD Hermitian matrix with cached spectrum."""

    def __init__(self, mat):
        m = hermitian_matrix(mat, "density matrix")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr}, not 1")
        w, u = np.linalg.eigh(m)
        if w[0] < -EIG_CLAMP:
            raise ValueError(f"negative eigenvalue {w[0]:.3e} beyond tolerance")
        self.mat = m
        self.dim = m.shape[0]
        self.eigenvalues = np.clip(w, 0.0, None)
        self.eigenvectors = u

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def partial_trace(mat: np.ndarray, shape: BipartiteShape, which: str) -> np.ndarray:
    """Trace out factor `which` of a dim_a*dim_b matrix."""
    da, db = shape.dim_a, shape.dim_b
    if mat.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {mat.shape} does not match {da}x{db} split")
    t = mat.reshape(da, db, da, db)
    if which == "A":
        return np.einsum("ijik->jk", t)
    if which == "B":
        return np.einsum("ijkj->ik", t)
    raise ValueError("which must be 'A' or 'B'")


def reduced_state(rho: DensityMatrix, shape: BipartiteShape, which: str) -> DensityMatrix:
    """Reduced density matrix on the factor complementary to `which`."""
    return DensityMatrix(partial_trace(rho.mat, shape, which))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda_i ln lambda_i, with 0 ln 0 := 0."""
    w = rho.eigenvalues
    # positive part only: zeros add nothing but would regroup np.sum's pairwise blocks
    return float(-np.sum(xlogx(w[w > 0.0])))


def _support_kernel_overlap(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    w, u = sigma.eigenvalues, sigma.eigenvectors
    kern = u[:, w <= SUPPORT_TOL]
    if kern.shape[1] == 0:
        return 0.0
    k = kern @ kern.conj().T
    return float(np.linalg.norm(k @ rho.mat @ k))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr(rho ln rho - rho ln sigma); +inf when supp(rho) is not inside supp(sigma)."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if _support_kernel_overlap(rho, sigma) > SUPPORT_TOL:
        return math.inf
    term1 = -von_neumann_entropy(rho)
    ws, us = sigma.eigenvalues, sigma.eigenvectors
    keep = ws > SUPPORT_TOL
    weights = np.real(np.einsum("ij,jk,ki->i", us.conj().T, rho.mat, us))
    term2 = float(np.sum(np.log(ws[keep]) * weights[keep]))
    return term1 - term2


def scaled_relative_entropy(lam: float, rho: DensityMatrix, lam2: float, sigma: DensityMatrix) -> float:
    """Entropy of the unnormalized functionals lam*rho vs lam2*sigma."""
    if lam <= 0 or lam2 <= 0:
        raise ValueError("scales must be positive")
    return lam * relative_entropy(rho, sigma) + lam * math.log(lam / lam2)


def mutual_information(rho_ab: DensityMatrix, shape: BipartiteShape, cross_check_tol: float = 1e-8) -> float:
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
    if math.isfinite(alt) and abs(alt - mi) > cross_check_tol:
        raise ArithmeticError(f"mutual information routes disagree: {mi} vs {alt}")
    return mi


def conditional_expectation(x: np.ndarray, e: TraceExpectation) -> np.ndarray:
    """Replace the traced factor by (normalized partial trace) x identity."""
    m = _square_complex(x)
    shape = e.shape
    if m.shape != (shape.total, shape.total):
        raise ValueError(f"matrix shape {m.shape} does not match {shape}")
    if e.traced_factor == "A":
        red = partial_trace(m, shape, "A") / shape.dim_a
        return np.kron(np.eye(shape.dim_a), red)
    red = partial_trace(m, shape, "B") / shape.dim_b
    return np.kron(red, np.eye(shape.dim_b))


def expectation_state(rho: DensityMatrix, e: TraceExpectation) -> DensityMatrix:
    """Density matrix of the composed functional omega . E.

    E is self-adjoint for the trace inner product, so this is just E(rho)
    (already unit trace).
    """
    return DensityMatrix(conditional_expectation(rho.mat, e))


def entropy_index_gap(k: int, rho: DensityMatrix, e: TraceExpectation) -> tuple[float, float]:
    """Relative entropy S(rho, rho.E) against the index bound ln(k^2) for k (x) k."""
    if k < 1:
        raise ValueError("k must be positive")
    if rho.dim != k * k or e.shape != BipartiteShape(k, k):
        raise ValueError("expected a state and expectation on a k x k bipartition")
    s = relative_entropy(rho, expectation_state(rho, e))
    bound = math.log(k * k)
    if s > bound + 1e-8:
        raise ArithmeticError(f"index bound violated: {s} > ln(k^2) = {bound}")
    return s, bound


def pimsner_popa_margin(a: np.ndarray, e: TraceExpectation) -> float:
    """Smallest eigenvalue of E(a) - a / d^2, d the traced factor dimension.

    Nonnegative for PSD a: the expectation has index d^2.
    """
    d = e.shape.dim_a if e.traced_factor == "A" else e.shape.dim_b
    diff = conditional_expectation(a, e) - np.asarray(a, dtype=complex) / d**2
    return float(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[0])


def pimsner_popa_constant_search(e: TraceExpectation, trials: int, rng: np.random.Generator) -> float:
    """Brute-force the best constant over random rank-one projections.

    For p = |psi><psi| the largest lam with E(p) >= lam p is
    1 / <psi| E(p)^{-1} |psi>; we report the minimum over the sampled psi.
    """
    n = e.shape.total
    best = math.inf
    for _ in range(trials):
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        ep = conditional_expectation(np.outer(psi, psi.conj()), e)
        sol = np.linalg.lstsq(ep, psi, rcond=None)[0]
        lam = 1.0 / float(np.real(np.vdot(psi, sol)))
        best = min(best, lam)
    return best
