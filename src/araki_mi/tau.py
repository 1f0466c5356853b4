"""Pinching and the tau operator.

For positive A and a projection P, with B = PAP + (1-P)A(1-P),

    tau_A = P A ln A P + (1-P) A ln A (1-P) - B ln B.

Two evaluation routes are provided: spectral functional calculus, and the
resolvent-integral representation

    tau_A = int_0^inf t ( P (t+A)^{-1} P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1} ) dt,

whose integrand is positive semidefinite (operator convexity of 1/x).  The
module also exposes the epsilon-shift comparison tau_{A+eps} <= tau_A, the
finite-window trace monotonicity, the resolvent norm bound
||(t+B)^{-1} A|| <= ||A||^{1/2} t^{-1/2}, and the uniform trace bound on the
truncated integral D_eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import HermitianOperator, OrthoProjection, commutator_norm, xlogx

PSD_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _require_psd(a: HermitianOperator) -> None:
    if a.min_eigenvalue() < -PSD_TOL:
        raise ValueError(f"operator is not PSD (min eigenvalue {a.min_eigenvalue():.3e})")


def _integrate_matrix(f: Callable[[float], np.ndarray], dim: int, lo: float, hi: float,
                      tol: float, budget: float, what: str) -> tuple[np.ndarray, float]:
    """Adaptive Gauss-Kronrod quadrature of a complex dim x dim matrix function.

    Returns (integral, error estimate); ConvergenceError if the estimate
    exceeds `budget`.
    """
    # Imported here: scipy.integrate takes about 0.5 s to import, which every
    # command would otherwise pay at start-up.
    from scipy.integrate import quad_vec

    def flat(x: float) -> np.ndarray:
        m = f(x)
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    y, err = quad_vec(flat, lo, hi, epsabs=tol, epsrel=0.0, quadrature="gk21")
    err = float(err)
    if err > budget:
        raise ConvergenceError(f"{what} quadrature residual {err:.3e} exceeds budget", residual=err)
    k = dim * dim
    return y[:k].reshape(dim, dim) + 1j * y[k:].reshape(dim, dim), err


@dataclass
class TauResult:
    tau: HermitianOperator
    trace: float
    method: str  # "spectral" or "integral"
    quadrature_error_estimate: Optional[float] = None


def pinch(a: HermitianOperator, p: OrthoProjection) -> HermitianOperator:
    """B = PAP + (1-P)A(1-P) = (A + UAU)/2 with U = 2P - 1."""
    _require_psd(a)
    if a.dim != p.dim:
        raise ValueError("dimension mismatch between operator and projection")
    return HermitianOperator(_block_compress(a.mat, p))


def _block_compress(m: np.ndarray, p: OrthoProjection) -> np.ndarray:
    """PMP + (1-P)M(1-P).

    For a mask projection these are the entries of M whose row and column lie
    on the same side of the mask, and zeros elsewhere, so they are selected
    rather than multiplied out; the two agree under ==, only the sign of an
    exact zero can differ.
    """
    if p.mask is not None:
        inside = p.membership
        return np.where(inside[:, None] == inside[None, :], m, 0j)
    pm = p.mat
    qm = np.eye(p.dim) - pm
    return pm @ m @ pm + qm @ m @ qm


def tau_spectral(a: HermitianOperator, p: OrthoProjection) -> TauResult:
    """tau via functional calculus with f(x) = x ln x (f(0) := 0)."""
    _require_psd(a)
    b = pinch(a, p)
    fa = a.apply(xlogx)
    fb = b.apply(xlogx)
    tau = HermitianOperator(_block_compress(fa, p) - fb)
    return TauResult(tau=tau, trace=tau.trace(), method="spectral")


def resolvent_integrand(a: HermitianOperator, b: HermitianOperator, p: OrthoProjection, t: float) -> np.ndarray:
    """t ( P(t+A)^{-1}P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1} )."""
    eye = np.eye(a.dim)
    ra = np.linalg.inv(t * eye + a.mat)
    rb = np.linalg.inv(t * eye + b.mat)
    return t * (_block_compress(ra, p) - rb)


def tau_integral(a: HermitianOperator, p: OrthoProjection, tol: float = 1e-8) -> TauResult:
    """tau via adaptive quadrature of the resolvent integral.

    The substitution t = s/(1-s) maps (0, inf) to (0, 1); the transformed
    integrand is bounded at both ends (norm <= 3 near t = 0, O(t^{-2}) decay
    at infinity).
    """
    _require_psd(a)
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = pinch(a, p)
    n = a.dim

    def f(s: float) -> np.ndarray:
        if s <= 0.0 or s >= 1.0 - 1e-14:
            return np.zeros((n, n))
        t = s / (1.0 - s)
        return resolvent_integrand(a, b, p, t) / (1.0 - s) ** 2

    m, err = _integrate_matrix(f, n, 0.0, 1.0, tol, 100 * max(tol, 1e-12), "tau")
    tau = HermitianOperator(0.5 * (m + m.conj().T))
    return TauResult(tau=tau, trace=tau.trace(), method="integral", quadrature_error_estimate=err)


def tau_epsilon_shift(a: HermitianOperator, p: OrthoProjection, eps: float) -> HermitianOperator:
    """tau_{A + eps I}; always <= tau_A in the PSD order."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    shifted = HermitianOperator(a.mat + eps * np.eye(a.dim))
    return tau_spectral(shifted, p).tau


def restrict_to_window(a: HermitianOperator, p: OrthoProjection, window: OrthoProjection,
                       tol: float = 1e-10) -> tuple[HermitianOperator, OrthoProjection]:
    """Compress (A, P) to the range of a window projection commuting with P."""
    if commutator_norm(window, p) > tol:
        raise ValueError("window must commute with the projection")
    v = window.range_basis()
    aw = HermitianOperator(v.conj().T @ a.mat @ v)
    pw = OrthoProjection(v.conj().T @ p.mat @ v)
    return aw, pw


def finite_rank_monotonicity(a: HermitianOperator, p: OrthoProjection,
                             window: OrthoProjection) -> tuple[float, float]:
    """(Tr tau_A, Tr tau_{A_w}) for a window commuting with P; full >= windowed."""
    _require_psd(a)
    full = tau_spectral(a, p).trace
    if window.rank() == 0:
        windowed = 0.0
    else:
        aw, pw = restrict_to_window(a, p, window)
        windowed = tau_spectral(aw, pw).trace
    if full < windowed - 1e-8:
        raise ArithmeticError(f"trace monotonicity violated: {full} < {windowed}")
    return full, windowed


def resolvent_bound_check(a: HermitianOperator, p: OrthoProjection,
                          t_samples: Sequence[float]) -> list[dict]:
    """Check ||(t+B)^{-1} A|| <= ||A||^{1/2} / t^{1/2} at each sampled t."""
    _require_psd(a)
    b = pinch(a, p)
    norm_a = a.operator_norm()
    rows = []
    eye = np.eye(a.dim)
    for t in t_samples:
        lhs = float(np.linalg.norm(np.linalg.inv(t * eye + b.mat) @ a.mat, ord=2))
        rhs = math.sqrt(norm_a) / math.sqrt(t)
        rows.append({"t": float(t), "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
                     "ok": lhs <= rhs + 1e-10})
    return rows


def key_bound_constant(a: HermitianOperator, p: OrthoProjection, eig_floor: float = 1e-12) -> float:
    """Epsilon-independent bound on Tr D_eps from the eigenvalues of B - A.

    Sum over nonzero eigenvalues lam of B - A of
    pi ||A||^{1/2} |lam|^{1/2} + 3 |lam| ln((1 + |lam|)/|lam|).
    """
    b = pinch(a, p)
    lams = np.linalg.eigvalsh(b.mat - a.mat)
    norm_a = a.operator_norm()
    total = 0.0
    for lam in np.abs(lams):
        if lam <= eig_floor:
            continue
        total += math.pi * math.sqrt(norm_a) * math.sqrt(lam) + 3.0 * lam * math.log((1.0 + lam) / lam)
    return total


def truncated_trace(a: HermitianOperator, p: OrthoProjection, eps: float,
                    tol: float = 1e-10) -> float:
    """Tr D_eps = Tr int_eps^1 t((t+A)^{-1} - (t+B)^{-1}) dt by quadrature."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    b = pinch(a, p)
    d, _ = _integrate_matrix(lambda t: resolvent_integrand(a, b, p, t), a.dim, eps, 1.0,
                             tol, 100 * max(tol, 1e-12), "D_eps")
    return float(np.trace(d.real))


def key_trace_bound(a: HermitianOperator, p: OrthoProjection, eps: float) -> tuple[float, float]:
    """(Tr D_eps, eps-independent bound); 0 <= Tr D_eps <= bound."""
    _require_psd(a)
    d_eps = truncated_trace(a, p, eps)
    bound = key_bound_constant(a, p)
    if d_eps < -1e-8:
        raise ArithmeticError(f"Tr D_eps negative: {d_eps}")
    if d_eps > bound + 1e-6:
        raise ArithmeticError(f"Tr D_eps {d_eps} exceeds bound {bound}")
    return d_eps, bound


def tail_integral_identity_gap(a: HermitianOperator, p: OrthoProjection, tol: float = 1e-9) -> float:
    """Frobenius gap between int_1^inf of the integrand and its closed form.

    The closed form is -B ln(B+1) + P A ln(A+1) P + (1-P) A ln(A+1) (1-P).
    """
    _require_psd(a)
    b = pinch(a, p)
    n = a.dim

    def f(u: float) -> np.ndarray:
        # t = 1/u maps (0, 1] to [1, inf)
        if u <= 1e-14:
            return np.zeros((n, n))
        return resolvent_integrand(a, b, p, 1.0 / u) / u**2

    tail, _ = _integrate_matrix(f, n, 0.0, 1.0, tol, 100 * tol, "tail")

    def xlog1p(w: np.ndarray) -> np.ndarray:
        return np.clip(w, 0.0, None) * np.log1p(np.clip(w, 0.0, None))

    closed = _block_compress(a.apply(xlog1p), p) - b.apply(xlog1p)
    return float(np.linalg.norm(tail - closed))
