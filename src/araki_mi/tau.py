"""Pinching and the tau operator.

A projection P is a coordinate mask (`OrthoProjection`).  For positive A,
with B = PAP + (1-P)A(1-P),

    tau_A = P A ln A P + (1-P) A ln A (1-P) - B ln B.

A projection given as a matrix is a mask in its own eigenbasis, and tau and
the pinch are unitarily covariant, so a caller with a dense P rotates A to
that basis first.

Two evaluation routes are provided: spectral functional calculus, and the
resolvent-integral representation

    tau_A = int_0^inf t ( P (t+A)^{-1} P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1} ) dt,

whose integrand is positive semidefinite (operator convexity of 1/x).  B is
block diagonal once the coordinates are reordered, and so is the integrand;
the quadratures sum its two diagonal blocks, from the Schur complement of
t + A by thin solves and one inverse, without eigendecomposing A or B
(`_BlockIntegrand`).  Both rules are fixed and placed a priori from A's
spectrum: `tau_integral` takes the trapezoid rule in u = ln t, where every
spectral term is analytic in the strip |Im u| < pi, and the tail integral
16-point Gauss-Legendre panels in v = t^{-1/2}.  The 21 tau instances of the
benchmark's oracle-mix at seed 0 take 1 713 + 672 integrand nodes, against
3 129 + 1 323 for an adaptive Gauss-Kronrod rule to the same accuracy.
`resolvent_integrand`, the direct definition, stays as the tests' oracle.
Also here: Tr D_eps and its uniform bound, in closed form from spectra, and
the stacked kernels of the audits (tau_{A+eps} <= tau_A, the resolvent bound
||(t+B)^{-1} A|| <= ||A||^{1/2} t^{-1/2} and the integrand's positivity), which
return what the audit compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .operators import (HermitianOperator, OrthoProjection, _conj_t, functional_calculus, spectral_norms,
                        symmetrised, xlogx)

PSD_TOL = 1e-10
EPS = float(np.finfo(float).eps)
EIG_FLOOR = 1e-12      # singular values of A_PQ (so eigenvalues of B - A) at or below this count as zero


class ConvergenceError(RuntimeError):
    """A quadrature's error bound exceeds its budget, or its sum is not finite."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _check_psd(w: np.ndarray) -> None:
    """ValueError unless every spectrum (ascending, along the last axis) is >= -PSD_TOL * max(1, ||A||).

    eigh finds a zero eigenvalue of A only to about machine epsilon times
    ||A||, so the tolerance scales with each matrix's operator norm.
    """
    lowest = w[..., 0]
    if lowest.min() >= -PSD_TOL:       # within the tolerance at any scale
        return
    refused = lowest < -PSD_TOL * np.maximum(1.0, np.maximum(w[..., -1], -lowest))
    if refused.any():
        raise ValueError(f"operator is not PSD (min eigenvalue {np.min(lowest[refused]):.3e})")


def _check_dims(a: HermitianOperator, p: OrthoProjection) -> None:
    if a.dim != p.dim:
        raise ValueError("dimension mismatch between operator and projection")


# Gauss-Legendre 16-point rule on [-1, 1]: the positive nodes and their weights.
_XGL = (0.989400934991649932596154173450333, 0.944575023073232576077988415534608,
        0.865631202387831743880467897712393, 0.755404408355003033895101194847442,
        0.617876244402643748446671764048791, 0.458016777657227386342419442983578,
        0.281603550779258913230460501460496, 0.095012509837637440185319335424958)
_WGL = (0.027152459411754094851780572456018, 0.062253523938647892862843836994378,
        0.095158511682492784809925107602246, 0.124628971255533872052476282192016,
        0.149595988816576732081501730547479, 0.169156519395002538189312079030360,
        0.182603415044923588866763667969220, 0.189450610455068496285396723208283)
_GL_NODES = np.array(_XGL + tuple(-x for x in reversed(_XGL)))
_GL_WEIGHTS = np.array(_WGL + tuple(reversed(_WGL)))
STEP = 0.55            # trapezoid step in u = ln t; its aliasing error is 8 pi ||A||_F / (e^{2 pi^2 / STEP} - 1)
PAD = 18.0             # nodes reach e^PAD beyond the spectrum's ends (e^{2 PAD} below a singular A's)
CHUNK_ENTRIES = 1 << 17  # integrand matrix entries per call, at most
ROUNDING = 4.0          # tau_integral's rounding error, in units of n eps ||A||_F


@dataclass
class TauResult:
    tau: HermitianOperator
    trace: float
    quadrature_error_estimate: Optional[float] = None


def pinch(a: HermitianOperator, p: OrthoProjection) -> HermitianOperator:
    """B = PAP + (1-P)A(1-P) = (A + UAU)/2 with U = 2P - 1."""
    _check_dims(a, p)
    return HermitianOperator._of_symmetrised(_pinched(a.mat, a.eigenvalues, p.membership))


# The kernels below take a matrix or a (..., d, d) stack with P given as the
# (..., d) boolean membership of mask projections, and do every LAPACK step
# as one stacked call; stacked LAPACK calls give each matrix the bits of its
# own call, so a single matrix is their unstacked case.  A is symmetrised
# (`hermitian_stack`'s output, as is every `HermitianOperator.mat`), and so are
# its selections, permutations and diagonal shifts: symmetrising one returns it
# bit for bit, so none of them is checked or symmetrised again.

def _block_compress(m: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """PMP + (1-P)M(1-P) for the mask P with membership `inside`.

    These are the entries of M whose row and column lie on the same side of
    the mask, and zeros elsewhere, so they are selected rather than
    multiplied out; the two agree under ==, only the sign of an exact zero
    can differ.
    """
    return np.where(inside[..., :, None] == inside[..., None, :], m, 0j)


def _pinched(a: np.ndarray, w_a: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Pinch B of PSD A with eigenvalues w_a."""
    _check_psd(w_a)
    return _block_compress(a, inside)


def _tau_spectral(a: np.ndarray, w_a: np.ndarray, u_a: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Symmetrised tau_A of PSD A = u_a diag(w_a) u_a^dagger, f(x) = x ln x.

    Both terms are u f(w) u^dagger of eigenpairs from eigh, a backward-stable
    solver, so they are Hermitian by construction, up to rounding of order
    n eps ||A ln A||.
    """
    b = _pinched(a, w_a, inside)
    fa = _block_compress(functional_calculus(w_a, u_a, xlogx), inside)
    fb = functional_calculus(*np.linalg.eigh(b), xlogx)
    return symmetrised(fa - fb)


def _tau_shifted(a: np.ndarray, inside: np.ndarray, eps: float) -> np.ndarray:
    """Symmetrised tau_{A + eps I}."""
    shifted = a + eps * np.eye(a.shape[-1])
    return _tau_spectral(shifted, *np.linalg.eigh(shifted), inside)


def _resolvent_integrand(a: np.ndarray, b: np.ndarray, inside: np.ndarray, t) -> np.ndarray:
    """The integrand at each t of a scalar or 1-D array t, along a new axis -3.

    The inverses are one stacked `inv` each, so every matrix equals the one
    for its scalar t.
    """
    tt = np.reshape(np.asarray(t, dtype=float), (-1, 1, 1))
    eye = np.eye(a.shape[-1])
    ra = np.linalg.inv(tt * eye + a[..., None, :, :])
    rb = np.linalg.inv(tt * eye + b[..., None, :, :])
    return tt * (_block_compress(ra, inside[..., None, :]) - rb)


def _resolvent_bounds(a: np.ndarray, w_a: np.ndarray, inside: np.ndarray,
                      t_samples) -> tuple[np.ndarray, np.ndarray]:
    """(||(t+B)^{-1} A||, ||A||^{1/2} / t^{1/2}) at each sampled t, along a last axis."""
    b = _pinched(a, w_a, inside)
    eye = np.eye(a.shape[-1])
    lhs = np.stack([np.linalg.norm(np.linalg.inv(t * eye + b) @ a, ord=2, axis=(-2, -1))
                    for t in t_samples], axis=-1)
    rhs = np.sqrt(spectral_norms(w_a))[..., None] / np.sqrt(np.asarray(t_samples, dtype=float))
    return lhs, rhs


def tau_spectral(a: HermitianOperator, p: OrthoProjection) -> TauResult:
    """tau via functional calculus with f(x) = x ln x (f(0) := 0)."""
    _check_dims(a, p)
    tau = HermitianOperator._of_symmetrised(_tau_spectral(a.mat, a.eigenvalues, a.eigenvectors, p.membership))
    return TauResult(tau=tau, trace=tau.trace())


def resolvent_integrand(a: HermitianOperator, b: HermitianOperator, p: OrthoProjection,
                        t: float | np.ndarray) -> np.ndarray:
    """t ( P(t+A)^{-1}P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1} ); at a 1-D array t, the (k, n, n) stack.

    The direct definition, the tests' oracle, for moderate t only: its terms
    near 1 cancel to order ||A||^2 / t^2, so from t ~ ||A|| eps^{-1/2} (about
    7e7 ||A||) on no digit is left.  `tau_integral` does not call it (it sums
    `_BlockIntegrand`); the `integrand_psd` audit samples t <= 10 only.
    """
    out = _resolvent_integrand(a.mat, b.mat, p.membership, t)
    return out if np.ndim(t) else out[0]


class _BlockIntegrand:
    """The resolvent integrand of (A, P) as its two diagonal blocks.

    The coordinates of A are reordered, the smaller of the ranges of P and
    1 - P first (the integrand is symmetric in the two); B and the integrand
    are block diagonal there.
    At a 1-D array t it gives the (k, p, p) and (k, q, q) stacks of the
    blocks: with X_P = (t + A_PP)^{-1}, X_Q = (t + A_QQ)^{-1}, W^H = X_Q A_QP,
    K = A_PQ W^H, Y = (t + A_PP - K)^{-1}, the PP and QQ blocks of (t + A)^{-1}
    are Y and X_Q + W^H Y W, so the integrand's are t X_P K Y = t (Y - X_P) and
    t W^H Y W.  X_Q and X_P enter only through thin products, so they are
    solves; Y is the one inverse, and no block is a difference of inverses.
    `scale`, max(1, ||A||), scales tau_integral's refusal budget: the
    integrand and its rounding grow with ||A||.
    """

    def __init__(self, a: HermitianOperator, p: OrthoProjection):
        _check_dims(a, p)
        _check_psd(a.eigenvalues)
        self.scale = max(1.0, a.operator_norm())
        first = p.membership
        if 2 * np.count_nonzero(first) > p.dim:
            first = ~first
        order = np.argsort(~first, kind="stable")
        self.order = np.ix_(order, order)
        r = np.count_nonzero(first)
        self.sizes = (r, p.dim - r)
        m = a.mat[self.order]     # a permutation of a symmetrised matrix, so symmetrised
        self.a_pp, self.a_qq = m[:r, :r].copy(), m[r:, r:].copy()
        self.a_pq, self.a_qp = m[:r, r:].copy(), m[r:, :r].copy()
        self.eye_p, self.eye_q = np.eye(r), np.eye(p.dim - r)

    def __call__(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tt = t.reshape(-1, 1, 1)
        shifted = tt * self.eye_p + self.a_pp
        w_h = np.linalg.solve(tt * self.eye_q + self.a_qq, self.a_qp)
        k = self.a_pq @ w_h
        y = np.linalg.inv(shifted - k)
        return tt * (np.linalg.solve(shifted, k) @ y), tt * (w_h @ y @ _conj_t(w_h))

    def integral(self, t: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_k weights_k G(t_k), block diagonal in the reordered coordinates; the
        nodes go CHUNK_ENTRIES // n^2 at a time.  ConvergenceError if not finite."""
        r, n = self.sizes[0], sum(self.sizes)
        out = np.zeros((n, n), dtype=complex)
        size = max(1, CHUNK_ENTRIES // (n * n))
        for start in range(0, t.size, size):
            pp, qq = self(t[start:start + size])
            w = weights[start:start + size]
            out[:r, :r] += np.tensordot(w, pp, axes=1)
            out[r:, r:] += np.tensordot(w, qq, axes=1)
        if not np.isfinite(out).all():
            raise ConvergenceError("quadrature sum is not finite", residual=math.nan)
        return out

    def restore(self, m: np.ndarray) -> np.ndarray:
        """A matrix of the reordered coordinates in the original ones."""
        out = np.empty_like(m)
        out[self.order] = m
        return out


def tau_integral(a: HermitianOperator, p: OrthoProjection, tol: float = 1e-8) -> TauResult:
    """tau by the trapezoid rule in u = ln t, with a-priori nodes and error bound.

    In u the integrand is t G(t), whose Fourier transform at w is
    pi (B^{1-iw} - P A^{1-iw} P - (1-P) A^{1-iw} (1-P)) / (i sinh(pi w)); so
    the rule of step STEP aliases at most 8 pi ||A||_F / (e^{2 pi^2/STEP} - 1)
    (Trefethen and Weideman, SIAM Rev. 56 (2014) 385).  The nodes run from
    e^{-PAD} below A's smallest eigenvalue (e^{-2 PAD} below its smallest
    positive one if A is singular, and not below 4 |lam_min|) to T, e^PAD above
    its largest.  Beyond T the sum goes on as its leading term, A_PQ A_QP and
    A_QP A_PQ times STEP / (e^STEP - 1) / T.  The estimate is the aliasing, the
    truncation at both ends (||G|| <= min(1, t / lam_min) below, the series in
    1/t above) and ROUNDING n eps ||A||_F; ConvergenceError above
    100 max(tol, 1e-12) max(1, ||A||).  Oracle-mix (seed 0): 1 713 nodes.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    blocks = _BlockIntegrand(a, p)
    w = a.eigenvalues
    top, n, r = float(w[-1]), a.dim, blocks.sizes[0]
    if not top > 0.0:       # A is 0 to rounding, and so is tau
        zero = HermitianOperator._of_symmetrised(np.zeros((n, n), dtype=complex))
        return TauResult(tau=zero, trace=0.0, quadrature_error_estimate=0.0)
    floor = n * EPS * top   # eigenvalues at or below it are 0 to rounding
    lowest = float(w[w > floor][0])
    if w[0] > floor:
        t_lo = lowest * math.exp(-PAD)
        below = math.sqrt(n) * STEP * t_lo * t_lo / lowest / math.expm1(2.0 * STEP)
    else:
        t_lo = max(lowest * math.exp(-2.0 * PAD), -4.0 * float(w[0]))
        below = math.sqrt(n) * STEP * t_lo / math.expm1(STEP)
    count = math.ceil((math.log(top) + PAD - math.log(t_lo)) / STEP)
    t = t_lo * np.exp(STEP * np.arange(count + 1))
    m = blocks.integral(t, STEP * t)
    beyond = STEP / math.expm1(STEP) / t[-1]
    m[:r, :r] += beyond * (blocks.a_pq @ blocks.a_qp)
    m[r:, r:] += beyond * (blocks.a_qp @ blocks.a_pq)
    fro, ratio = math.sqrt(float(np.dot(w, w))), top / t[-1]
    above = 2.0 * fro * ratio * ratio / (1.0 - ratio) * STEP / math.expm1(2.0 * STEP)
    err = 8.0 * math.pi * fro / math.expm1(2.0 * math.pi ** 2 / STEP) + below + above + ROUNDING * n * EPS * fro
    if not err <= 100 * max(tol, 1e-12) * blocks.scale:
        raise ConvergenceError(f"tau quadrature error bound {err:.3e} exceeds budget", residual=err)
    m = blocks.restore(m)
    tau = HermitianOperator._of_symmetrised(0.5 * (m + m.conj().T))
    return TauResult(tau=tau, trace=tau.trace(), quadrature_error_estimate=err)


def key_bound_constant(a: HermitianOperator, p: OrthoProjection) -> float:
    """Epsilon-independent bound on Tr D_eps from the singular values sigma of A_PQ.

    Sum over nonzero eigenvalues lam of B - A of pi ||A||^{1/2} |lam|^{1/2} +
    3 |lam| ln((1 + |lam|)/|lam|); B - A = -(PAQ + QAP), so they are +-sigma.
    """
    _check_dims(a, p)
    _check_psd(a.eigenvalues)
    sigma = np.linalg.svd(a.mat[np.ix_(p.membership, ~p.membership)], compute_uv=False)
    sigma = sigma[sigma > EIG_FLOOR]
    return 2.0 * float(np.sum(math.pi * math.sqrt(a.operator_norm()) * np.sqrt(sigma)
                              + 3.0 * sigma * np.log((1.0 + sigma) / sigma)))


def truncated_trace(a: HermitianOperator, p: OrthoProjection, eps: float) -> float:
    """Tr D_eps = Tr int_eps^1 t((t+A)^{-1} - (t+B)^{-1}) dt, from spectra.

    int_eps^1 t/(t+x) dt = 1 - eps - f(x), f(x) = x ln(1 + (1-eps)/(eps+x)), so
    Tr D_eps is f summed over the eigvalsh spectra of A_PP and A_QQ minus over
    A's (exactly 0 when P is 0 or 1).  Below 0, the rounding of a PSD A where
    f stops being defined at -eps, f is its tangent x ln(1/eps).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    _check_dims(a, p)
    _check_psd(a.eigenvalues)
    if p.rank() in (0, p.dim):
        return 0.0

    def total(w: np.ndarray) -> float:
        return float(np.sum(w * np.log1p((1.0 - eps) / (eps + np.clip(w, 0.0, None)))))

    sides = (p.membership, ~p.membership)
    return total(np.concatenate([np.linalg.eigvalsh(a.mat[np.ix_(s, s)]) for s in sides])) - total(a.eigenvalues)


def key_trace_bound(a: HermitianOperator, p: OrthoProjection, eps: float) -> tuple[float, float]:
    """(Tr D_eps, eps-independent bound), as computed; the key estimate is 0 <= Tr D_eps <= bound."""
    return truncated_trace(a, p, eps), key_bound_constant(a, p)


def tail_integral_identity_gap(a: HermitianOperator, p: OrthoProjection) -> float:
    """Frobenius gap between int_1^inf of the integrand and its closed form.

    The closed form is -B ln(B+1) + P A ln(A+1) P + (1-P) A ln(A+1) (1-P).  The
    quadrature substitutes t = 1/v^2, v in (0, 1], Jacobian 2/v^3, which turns
    the O(t^{-2}) decay into O(v), and takes 16-point Gauss-Legendre panels
    [1/2, 1], [1/4, 1/2], ... down to the first edge at or below 2/||A||^{1/2},
    and [0, that edge]: the integrand's poles, at v = +-i/lam^{1/2}, stay an
    edge's half-length or more off each panel.  Oracle-mix (seed 0): 672 nodes.
    """
    blocks = _BlockIntegrand(a, p)
    top = float(a.eigenvalues[-1])
    halvings = math.ceil(0.5 * math.log2(top / 4.0)) if top > 4.0 else 0
    edges = np.concatenate([[0.0], 0.5 ** np.arange(halvings, -1, -1)])
    half = 0.5 * np.diff(edges)[:, None]
    v = ((edges[:-1, None] + half) + half * _GL_NODES).ravel()
    tail = blocks.integral(1.0 / (v * v), (half * _GL_WEIGHTS).ravel() * 2.0 / (v * v * v))

    def xlog1p(w: np.ndarray) -> np.ndarray:
        return np.clip(w, 0.0, None) * np.log1p(np.clip(w, 0.0, None))

    closed = _block_compress(a.apply(xlog1p), p.membership) - pinch(a, p).apply(xlog1p)
    return float(np.linalg.norm(blocks.restore(tail) - closed))
