"""Pinching and the tau operator.

For positive A and a projection P, with B = PAP + (1-P)A(1-P),

    tau_A = P A ln A P + (1-P) A ln A (1-P) - B ln B.

Two evaluation routes are provided: spectral functional calculus, and the
resolvent-integral representation

    tau_A = int_0^inf t ( P (t+A)^{-1} P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1} ) dt,

whose integrand is positive semidefinite (operator convexity of 1/x).  B is
block diagonal in a basis adapted to P, and so is the integrand; the
quadratures integrate its two diagonal blocks, from the Schur complement of
t + A by thin solves and one inverse, without eigendecomposing A or B
(`_BlockIntegrand`).  The integrand changes near t = the eigenvalues of A and
of its blocks, often decades apart, so each quadrature substitutes a map that
spreads the decades out (t = x^2 with x = s/(1-s); eps^(1-v); 1/v^2): the 21
tau instances of the benchmark's oracle-mix at seed 0 take 5 775 integrand
nodes, 12 369 with the maps t = s/(1-s), t and 1/u.  `resolvent_integrand`,
the direct definition, stays for the positivity audit and as the tests'
oracle.  The integrals use the module's own adaptive 21-point Gauss-Kronrod
rule (`_quad_gk21`), which follows scipy's `quad_vec` (quadrature="gk21")
step for step, with one stacked integrand call per round.  Also here:
tau_{A+eps} <= tau_A, the finite-window trace monotonicity, the resolvent bound
||(t+B)^{-1} A|| <= ||A||^{1/2} t^{-1/2} and the uniform bound on Tr D_eps.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import (HermitianOperator, OrthoProjection, _conj_t, check_hermitian, checked_eigh,
                        commutator_norm, functional_calculus, hermitian_stack, spectral_norms, symmetrised,
                        xlogx)

PSD_TOL = 1e-10
EIG_FLOOR = 1e-12      # eigenvalues of B - A at or below this count as zero


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

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


def _require_psd(a: HermitianOperator) -> None:
    _check_psd(a.eigenvalues)


def _check_dims(a: HermitianOperator, p: OrthoProjection) -> None:
    if a.dim != p.dim:
        raise ValueError("dimension mismatch between operator and projection")


# Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK qk21): the non-negative
# Kronrod nodes and their weights, and the weights of the 10-point Gauss rule
# that reuses the odd-indexed nodes.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_NODES = np.array(_XGK + tuple(-x for x in reversed(_XGK[:-1])))
# One row per node: its Kronrod weight, and its Gauss weight at nodes 1, 3,
# ..., 19.  Read as strided columns, they keep every einsum of `_gk21` summing
# node by node; a contiguous weight vector against a contiguous node axis (a
# one-column integrand) makes einsum use vector accumulators, in another order.
_WEIGHTS = np.zeros((_NODES.size, 2))
_WEIGHTS[:, 0] = _WGK + tuple(reversed(_WGK[:-1]))
_WEIGHTS[1::2, 1] = _WG + tuple(reversed(_WG))
SPLITS_PER_ROUND = 128   # intervals bisected per adaptive round, at most
MAX_INTERVALS = 10_000


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v.dot(v)))


def _gk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray) -> list[tuple[np.ndarray, float, float]]:
    """(integral, error estimate, rounding error) of f on each [lo_j, hi_j].

    f maps a 1-D array of nodes to the (nodes, m) array of its values.  The
    sums run node by node (each einsum adds the nodes' terms in order, as
    QUADPACK does) and the estimate is QUADPACK's, in the 2-norm.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fv = f((c[:, None] + h[:, None] * _NODES).ravel()).reshape(lo.size, _NODES.size, -1)
    kronrod, gauss = _WEIGHTS[:, 0], _WEIGHTS[1::2, 1]
    s_k = np.einsum("lim,i->lm", fv, kronrod)
    s_k_abs = np.einsum("lim,i->lm", np.abs(fv), kronrod)
    s_g = np.einsum("lim,i->lm", fv[:, 1::2], gauss)
    dev = fv - s_k[:, None] / 2.0
    s_k_dabs = np.einsum("lim,i->lm", np.abs(dev, out=dev), kronrod)
    hh = h[:, None]
    diff, dabs_vec = (s_k - s_g) * hh, s_k_dabs * hh
    round_vec = (50 * sys.float_info.epsilon * h)[:, None] * s_k_abs
    out = []
    for j in range(lo.size):
        err, dabs, round_err = _norm(diff[j]), _norm(dabs_vec[j]), _norm(round_vec[j])
        if dabs != 0 and err != 0:
            err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
        if round_err > sys.float_info.min:
            err = max(err, round_err)
        out.append((h[j] * s_k[j], err, round_err))
    return out


def _quad_gk21(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
               tol: float) -> tuple[np.ndarray, float]:
    """Globally adaptive GK21 quadrature of a vector function to absolute `tol`.

    Rule, error estimate, heap order, rounds and stopping test are those of
    scipy.integrate.quad_vec(f, lo, hi, epsabs=tol, epsrel=0, quadrature="gk21"),
    so result and estimate are bit for bit the same; each round evaluates the
    nodes of all its intervals in one call of f.  Returns (integral, error
    estimate); the estimate is not finite if f produced a non-finite value.
    """
    ((total, global_error, rounding_error),) = _gk21(f, np.array([lo]), np.array([hi]))
    heap = [(-global_error, lo, hi, 0, total)]
    total = total.copy()
    serial = 1  # breaks ties in the heap before the arrays are compared
    while heap and len(heap) < MAX_INTERVALS:
        popped, err_sum = [], 0.0
        while heap and len(popped) < SPLITS_PER_ROUND:
            if popped and err_sum > global_error - tol / 8:
                break
            popped.append(heapq.heappop(heap))
            err_sum += -popped[-1][0]
        ends = [(x1, 0.5 * (x1 + x2), x2) for _, x1, x2, _, _ in popped]
        edges = np.array([(x1, c, c, x2) for x1, c, x2 in ends]).reshape(-1, 2)
        halves = _gk21(f, edges[:, 0], edges[:, 1])
        for (neg_err, _, _, _, old), (x1, c, x2), (s1, err1, round1), (s2, err2, round2) in zip(
                popped, ends, halves[::2], halves[1::2]):
            old_err = -neg_err
            total += s1 + s2 - old
            global_error += err1 + err2 - old_err
            rounding_error += round1 + round2
            heapq.heappush(heap, (-err1, x1, c, serial, s1))
            heapq.heappush(heap, (-err2, c, x2, serial + 1, s2))
            serial += 2
        if len(heap) >= 2 and (global_error < tol / 8 or global_error < rounding_error):
            break
        if not (math.isfinite(global_error) and math.isfinite(rounding_error)):
            break
    return total, global_error + rounding_error


def _integrate_matrix(f: Callable[[np.ndarray], tuple], sizes: tuple[int, ...], lo: float,
                      hi: float, tol: float, budget: float, what: str) -> tuple[np.ndarray, float]:
    """Adaptive GK21 quadrature of a complex block-diagonal matrix function.

    `sizes` are the sizes of the diagonal blocks, and f maps a 1-D array of k
    nodes to (rows, blocks): the nodes where the integrand may be nonzero (a
    mask, or slice(None)) and the tuple of the blocks' (rows, d, d) stacks
    there.  Only the blocks' entries are integrated.  Returns (integral,
    error estimate), the integral as the block-diagonal matrix;
    ConvergenceError if the estimate exceeds `budget` or is not finite.
    """
    ends = np.cumsum([0] + [d * d for d in sizes])

    def flat(x: np.ndarray) -> np.ndarray:
        # real parts of all blocks, then imaginary parts, one row per node
        rows, blocks = f(x)
        out = np.zeros((x.size, 2, ends[-1]))
        for block, start, stop in zip(blocks, ends, ends[1:]):
            part = block.reshape(-1, stop - start)
            out[rows, 0, start:stop] = part.real
            out[rows, 1, start:stop] = part.imag
        return out.reshape(x.size, -1)

    y, err = _quad_gk21(flat, lo, hi, tol)
    if not err <= budget:
        raise ConvergenceError(f"{what} quadrature residual {err:.3e} exceeds budget", residual=err)
    z = y[:ends[-1]] + 1j * y[ends[-1]:]
    out = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    for d, o, start, stop in zip(sizes, np.cumsum([0, *sizes]), ends, ends[1:]):
        out[o:o + d, o:o + d] = z[start:stop].reshape(d, d)
    return out, err


@dataclass
class TauResult:
    tau: HermitianOperator
    trace: float
    method: str  # "spectral" or "integral"
    quadrature_error_estimate: Optional[float] = None


def pinch(a: HermitianOperator, p: OrthoProjection) -> HermitianOperator:
    """B = PAP + (1-P)A(1-P) = (A + UAU)/2 with U = 2P - 1."""
    _check_dims(a, p)
    return HermitianOperator(_pinched(a.mat, a.eigenvalues, p))


# The kernels below take a matrix or a (..., d, d) stack with P given as an
# OrthoProjection or as the (..., d) boolean membership of mask projections,
# and do every LAPACK step as one stacked call.  The public single-instance
# functions are their unstacked case; stacked LAPACK calls give each matrix
# the bits of its own call.

def _block_compress(m: np.ndarray, p) -> np.ndarray:
    """PMP + (1-P)M(1-P).

    For a mask projection these are the entries of M whose row and column lie
    on the same side of the mask, and zeros elsewhere, so they are selected
    rather than multiplied out; the two agree under ==, only the sign of an
    exact zero can differ.
    """
    if isinstance(p, OrthoProjection):
        if p.mask is None:
            pm = p.mat
            qm = np.eye(p.dim) - pm
            return pm @ m @ pm + qm @ m @ qm
        p = p.membership
    return np.where(p[..., :, None] == p[..., None, :], m, 0j)


def _pinched(a: np.ndarray, w_a: np.ndarray, p) -> np.ndarray:
    """Symmetrised pinch B of PSD A with eigenvalues w_a."""
    _check_psd(w_a)
    return hermitian_stack(_block_compress(a, p))


def _tau_spectral(a: np.ndarray, w_a: np.ndarray, u_a: np.ndarray, p) -> np.ndarray:
    """Symmetrised tau_A of PSD A = u_a diag(w_a) u_a^dagger, f(x) = x ln x.

    Each of the two terms is checked for Hermiticity against its own norm,
    of the order of ||A ln A||: their difference tau can be far smaller than
    either, and it carries their rounding.
    """
    b = _pinched(a, w_a, p)
    fa = _block_compress(functional_calculus(w_a, u_a, xlogx), p)
    fb = functional_calculus(*checked_eigh(b), xlogx)
    check_hermitian(np.stack((fa, fb)), "a term of tau")
    return symmetrised(fa - fb)


def _tau_shifted(a: np.ndarray, p, eps: float) -> np.ndarray:
    """Symmetrised tau_{A + eps I}."""
    shifted = hermitian_stack(a + eps * np.eye(a.shape[-1]))
    return _tau_spectral(shifted, *checked_eigh(shifted), p)


def _resolvent_integrand(a: np.ndarray, b: np.ndarray, p, t) -> np.ndarray:
    """The integrand at each t of a scalar or 1-D array t, along a new axis -3.

    The inverses are one stacked `inv` each, so every matrix equals the one
    for its scalar t.
    """
    tt = np.reshape(np.asarray(t, dtype=float), (-1, 1, 1))
    eye = np.eye(a.shape[-1])
    ra = np.linalg.inv(tt * eye + a[..., None, :, :])
    rb = np.linalg.inv(tt * eye + b[..., None, :, :])
    if not isinstance(p, OrthoProjection):
        p = p[..., None, :]
    return tt * (_block_compress(ra, p) - rb)


def _resolvent_bounds(a: np.ndarray, w_a: np.ndarray, p, t_samples) -> tuple[np.ndarray, np.ndarray]:
    """(||(t+B)^{-1} A||, ||A||^{1/2} / t^{1/2}) at each sampled t, along a last axis."""
    b = _pinched(a, w_a, p)
    eye = np.eye(a.shape[-1])
    lhs = np.stack([np.linalg.norm(np.linalg.inv(t * eye + b) @ a, ord=2, axis=(-2, -1))
                    for t in t_samples], axis=-1)
    rhs = np.sqrt(spectral_norms(w_a))[..., None] / np.sqrt(np.asarray(t_samples, dtype=float))
    return lhs, rhs


def tau_spectral(a: HermitianOperator, p: OrthoProjection) -> TauResult:
    """tau via functional calculus with f(x) = x ln x (f(0) := 0)."""
    _check_dims(a, p)
    tau = HermitianOperator(_tau_spectral(a.mat, a.eigenvalues, a.eigenvectors, p))
    return TauResult(tau=tau, trace=tau.trace(), method="spectral")


def resolvent_integrand(a: HermitianOperator, b: HermitianOperator, p: OrthoProjection,
                        t: float | np.ndarray) -> np.ndarray:
    """t ( P(t+A)^{-1}P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1} ).

    For a 1-D array t, the (k, n, n) stack of the integrand at each t.
    """
    out = _resolvent_integrand(a.mat, b.mat, p, t)
    return out if np.ndim(t) else out[0]


class _BlockIntegrand:
    """The resolvent integrand of (A, P) as its two diagonal blocks.

    A is taken to a basis adapted to P (coordinates reordered for a mask, P's
    eigenbasis otherwise), the smaller of the ranges of P and 1 - P first (the
    integrand is symmetric in the two); B and the integrand are block diagonal
    there.  At a 1-D array t it gives the (k, p, p) and (k, q, q) stacks of the
    blocks: with X_P = (t + A_PP)^{-1}, X_Q = (t + A_QQ)^{-1}, W^H = X_Q A_QP,
    K = A_PQ W^H, Y = (t + A_PP - K)^{-1}, the PP and QQ blocks of (t + A)^{-1}
    are Y and X_Q + W^H Y W, so the integrand's are t X_P K Y = t (Y - X_P) and
    t W^H Y W.  X_Q and X_P enter only through thin products, so they are
    solves; Y is the one inverse, and no block is a difference of inverses.
    """

    def __init__(self, a: HermitianOperator, p: OrthoProjection):
        _check_dims(a, p)
        _require_psd(a)
        if p.mask is None:
            w, basis = np.linalg.eigh(p.mat)
            first = w > 0.5
        else:
            first, basis = p.membership, np.eye(p.dim)
        if 2 * np.count_nonzero(first) > p.dim:
            first = ~first
        self.basis = basis[:, np.argsort(~first, kind="stable")]
        r = np.count_nonzero(first)
        self.sizes = (r, p.dim - r)
        m = hermitian_stack(_conj_t(self.basis) @ a.mat @ self.basis)
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

    def restore(self, m: np.ndarray) -> np.ndarray:
        """A matrix of the adapted basis in the original coordinates."""
        return self.basis @ m @ _conj_t(self.basis)


def tau_integral(a: HermitianOperator, p: OrthoProjection, tol: float = 1e-8) -> TauResult:
    """tau via adaptive quadrature of the resolvent integral.

    Substitutes t = x^2, x = s/(1-s), s in (0, 1), Jacobian 2x/(1-s)^2: the
    integrand (norm <= 3 near t = 0, O(t^{-2}) at infinity) becomes O(s) and
    O(1-s) at the ends, and a decade of t is half a decade of x.  Oracle-mix
    (seed 0): 3 129 nodes; t = s/(1-s) took 6 573, x^3 3 633, x^4 3 381.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    blocks = _BlockIntegrand(a, p)

    def f(s: np.ndarray) -> tuple:
        live = (s > 0.0) & (s < 1.0 - 1e-14)
        r = 1.0 - s[live]
        x = s[live] / r
        return live, [block * (2.0 * x / (r * r)).reshape(-1, 1, 1) for block in blocks(x * x)]

    m, err = _integrate_matrix(f, blocks.sizes, 0.0, 1.0, tol, 100 * max(tol, 1e-12), "tau")
    m = blocks.restore(m)
    tau = HermitianOperator(0.5 * (m + m.conj().T))
    return TauResult(tau=tau, trace=tau.trace(), method="integral", quadrature_error_estimate=err)


def tau_epsilon_shift(a: HermitianOperator, p: OrthoProjection, eps: float) -> HermitianOperator:
    """tau_{A + eps I}; always <= tau_A in the PSD order."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_dims(a, p)
    return HermitianOperator(_tau_shifted(a.mat, p, eps))


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
    _check_dims(a, p)
    lhs, rhs = _resolvent_bounds(a.mat, a.eigenvalues, p, t_samples)
    return [{"t": float(t), "lhs": l, "rhs": r, "margin": r - l, "ok": l <= r + 1e-10}
            for t, l, r in zip(t_samples, lhs.tolist(), rhs.tolist())]


def key_bound_constant(a: HermitianOperator, p: OrthoProjection) -> float:
    """Epsilon-independent bound on Tr D_eps from the eigenvalues of B - A.

    Sum over nonzero eigenvalues lam of B - A of
    pi ||A||^{1/2} |lam|^{1/2} + 3 |lam| ln((1 + |lam|)/|lam|).
    """
    b = pinch(a, p)
    lams = np.linalg.eigvalsh(b.mat - a.mat)
    norm_a = a.operator_norm()
    total = 0.0
    for lam in np.abs(lams):
        if lam <= EIG_FLOOR:
            continue
        total += math.pi * math.sqrt(norm_a) * math.sqrt(lam) + 3.0 * lam * math.log((1.0 + lam) / lam)
    return total


def truncated_trace(a: HermitianOperator, p: OrthoProjection, eps: float,
                    tol: float = 1e-10) -> float:
    """Tr D_eps = Tr int_eps^1 t((t+A)^{-1} - (t+B)^{-1}) dt by quadrature.

    Substitutes t = eps^(1-v), v in [0, 1], Jacobian -ln(eps) t: each decade of
    [eps, 1] gets the same length of v.  Oracle-mix (seed 0): 1 323 nodes (t: 3 591).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    blocks = _BlockIntegrand(a, p)

    def f(v: np.ndarray) -> tuple:
        t = eps ** (1.0 - v)
        return slice(None), [block * (-math.log(eps) * t).reshape(-1, 1, 1) for block in blocks(t)]

    d, _ = _integrate_matrix(f, blocks.sizes, 0.0, 1.0, tol, 100 * max(tol, 1e-12), "D_eps")
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

    The closed form is -B ln(B+1) + P A ln(A+1) P + (1-P) A ln(A+1) (1-P).  The
    quadrature substitutes t = 1/v^2, v in (0, 1], Jacobian 2/v^3: the O(t^{-2})
    decay becomes O(v).  Oracle-mix (seed 0): 1 323 nodes (t = 1/u: 2 205).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    blocks = _BlockIntegrand(a, p)

    def f(v: np.ndarray) -> tuple:
        live = v > 1e-14
        v2 = v[live] * v[live]
        return live, [block * (2.0 / (v2 * v[live])).reshape(-1, 1, 1) for block in blocks(1.0 / v2)]

    tail, _ = _integrate_matrix(f, blocks.sizes, 0.0, 1.0, tol, 100 * tol, "tail")

    def xlog1p(w: np.ndarray) -> np.ndarray:
        return np.clip(w, 0.0, None) * np.log1p(np.clip(w, 0.0, None))

    closed = _block_compress(a.apply(xlog1p), p) - pinch(a, p).apply(xlog1p)
    return float(np.linalg.norm(blocks.restore(tail) - closed))
