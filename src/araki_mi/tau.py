"""Pinching and the tau operator.

A projection P is a coordinate mask (`OrthoProjection` says how a dense P
becomes one).  For positive A, with B = PAP + (1-P)A(1-P),

    tau_A = P A ln A P + (1-P) A ln A (1-P) - B ln B.

Two evaluation routes are provided: spectral functional calculus, and the
resolvent-integral representation

    tau_A = int_0^inf t ( P (t+A)^{-1} P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1} ) dt,

whose integrand is positive semidefinite (operator convexity of 1/x).  B is
block diagonal once the coordinates are reordered, and so is the integrand.
`_BlockIntegrand` is the one decomposition of (A, P), built once and kept on
A: the reordered blocks, their eigenpairs and A_PQ.  The quadratures sum the
integrand's two blocks in those eigenbases, from the Schur complement of
t + A by one inverse per node, without decomposing A or B or evaluating
x ln x; Tr D_eps and its uniform bound read the block spectra and the
singular values of A_PQ, in closed form.  Both rules are fixed and placed a
priori from A's spectrum: `tau_integral` takes the trapezoid rule in
u = ln t, where every spectral term is analytic in the strip |Im u| < pi, and
the tail integral 16-point Gauss-Legendre panels in v = t^{-1/2}.
`tau_spectral` keeps its own eigh of B, the independent route, and
`resolvent_integrand`, the direct definition, is the tests' oracle.  Also
here: the stacked kernels of the audits (tau_{A+eps} <= tau_A, the resolvent
bound ||(t+B)^{-1} A|| <= ||A||^{1/2} t^{-1/2} and the integrand's
positivity), which return what the audit compares.
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


def _checked(a: HermitianOperator, p: OrthoProjection) -> np.ndarray:
    """A's spectrum; ValueError unless A and P match in dimension and A is PSD.  Each public
    function here checks its A and P once, by this; the kernels trust the package's matrices."""
    if a.dim != p.dim:
        raise ValueError("dimension mismatch between operator and projection")
    _check_psd(a.eigenvalues)
    return a.eigenvalues


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
    _checked(a, p)
    return HermitianOperator._of_symmetrised(_block_compress(a.mat, p.membership))


# The kernels below take a matrix or a (..., d, d) stack with P given as the
# (..., d) boolean membership of mask projections, and do every LAPACK step
# as one stacked call; stacked LAPACK calls give each matrix the bits of its
# own call, so a single matrix is their unstacked case.  A is PSD, checked by
# the public function that took it or made so by the audit that drew it, and
# symmetrised (as is every `HermitianOperator.mat`), and so are its selections
# and permutations: symmetrising one returns it bit for bit, so none of them
# is checked or symmetrised again.

def _block_compress(m: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """PMP + (1-P)M(1-P) for the mask P with membership `inside`.

    These are the entries of M whose row and column lie on the same side of
    the mask, and zeros elsewhere, so they are selected rather than
    multiplied out; the two agree under ==, only the sign of an exact zero
    can differ.
    """
    return np.where(inside[..., :, None] == inside[..., None, :], m, 0j)


def _tau_shifts(a: np.ndarray, w_a: np.ndarray, u_a: np.ndarray, inside: np.ndarray, shifts) -> np.ndarray:
    """Symmetrised tau_{A + s} of PSD A = u_a diag(w_a) u_a^dagger at each s of `shifts`, along a new axis -3.

    The pinch of A + s is B + s, so the eigenpairs of A and B serve every s:
    f(A + s) = u_a f(w_a + s) u_a^dagger with f(x) = x ln x.  Both terms are
    u f(w) u^dagger of eigenpairs from eigh, a backward-stable solver, so they
    are Hermitian by construction, up to rounding of order n eps ||A ln A||.
    """
    s = np.asarray(shifts, dtype=float)[:, None]
    w_b, u_b = np.linalg.eigh(_block_compress(a, inside))
    fa = functional_calculus(w_a[..., None, :] + s, u_a[..., None, :, :], xlogx)
    fb = functional_calculus(w_b[..., None, :] + s, u_b[..., None, :, :], xlogx)
    return symmetrised(_block_compress(fa, inside[..., None, :]) - fb)


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
    """(||(t+B)^{-1} A||, ||A||^{1/2} / t^{1/2}) at each sampled t, along a last axis.

    With B = V diag(v) V^dagger and G = V^dagger A^2 V, the norm is
    lambda_max(D_t G D_t)^{1/2}, D_t = diag(1/(t + v)): one eigh of B and one
    eigvalsh stacked over every t.
    """
    v, u_b = np.linalg.eigh(_block_compress(a, inside))
    av = a @ u_b
    g = (_conj_t(av) @ av)[..., None, :, :]
    t = np.asarray(t_samples, dtype=float)
    d = 1.0 / (t[:, None] + v[..., None, :])
    top = np.linalg.eigvalsh(d[..., :, None] * g * d[..., None, :])[..., -1]
    rhs = np.sqrt(spectral_norms(w_a))[..., None] / np.sqrt(t)
    return np.sqrt(top), rhs


def tau_spectral(a: HermitianOperator, p: OrthoProjection) -> TauResult:
    """tau via functional calculus with f(x) = x ln x (f(0) := 0)."""
    w_a = _checked(a, p)
    tau = HermitianOperator._of_symmetrised(_tau_shifts(a.mat, w_a, a.eigenvectors, p.membership, (0.0,))[0])
    return TauResult(tau=tau, trace=tau.trace())


def resolvent_integrand(a: HermitianOperator, b: HermitianOperator, p: OrthoProjection,
                        t: float | np.ndarray) -> np.ndarray:
    """t ( P(t+A)^{-1}P + (1-P)(t+A)^{-1}(1-P) - (t+B)^{-1} ); at a 1-D array t, the (k, n, n) stack.

    The direct definition, the tests' oracle, for moderate t only: its terms
    near 1 cancel to order ||A||^2 / t^2, so from t ~ ||A|| eps^{-1/2} (about
    7e7 ||A||) on no digit is left.  The quadratures do not call it (they sum
    the (A, P) decomposition's `_BlockIntegrand`); `integrand_psd` samples t <= 10 only.
    """
    out = _resolvent_integrand(a.mat, b.mat, p.membership, t)
    return out if np.ndim(t) else out[0]


class _BlockIntegrand:
    """The one decomposition of (A, P), and the resolvent integrand as its two diagonal blocks.

    The coordinates of A are reordered, the smaller of the ranges of P and
    1 - P first (the integrand is symmetric in the two); B and the integrand
    are block diagonal there.  With A_PP = U diag(sigma) U^H and A_QQ =
    V diag(lam) V^H (one eigh each, here) and N = U^H A_PQ V, at a 1-D array t
    it gives the (k, p, p) and (k, q, q) stacks of the blocks in U and V: with
    D = diag(1/(t + lam)), E = diag(1/(t + sigma)), K = N D N^H and
    Y = (t + diag(sigma) - K)^{-1}, the PP and QQ blocks of (t + A)^{-1} are Y
    and D + D N^H Y N D, so the integrand's are t E K Y = t (Y - E) and
    t (N D)^H Y (N D), both products with t Y, Y the one inverse; no block is a
    difference of inverses, and A and B are never decomposed.  `of` builds it
    once per (A, P) for the quadratures, `truncated_trace` (spec B is sigma
    and lam) and `key_bound_constant` (the singular values of a_pq).
    """

    def __init__(self, a: HermitianOperator, p: OrthoProjection):
        first = p.membership if 2 * p.rank() <= p.dim else ~p.membership
        order = np.argsort(~first, kind="stable")
        self.order = np.ix_(order, order)
        r = np.count_nonzero(first)
        self.sizes = (r, p.dim - r)
        m = a.mat[self.order]     # a permutation of a symmetrised matrix, so symmetrised
        self.a_pq = m[:r, r:].copy()
        (self.sigma, self.u), (self.lam, self.v) = np.linalg.eigh(m[:r, :r]), np.linalg.eigh(m[r:, r:])
        self.n = _conj_t(self.u) @ self.a_pq @ self.v

    @classmethod
    def of(cls, a: HermitianOperator, p: OrthoProjection) -> "_BlockIntegrand":
        """The decomposition of (A, P), kept in A's one slot under P's mask; another P replaces it."""
        if a._blocks is None or a._blocks[0] != p.mask:
            a._blocks = (p.mask, cls(a, p))
        return a._blocks[1]

    def __call__(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tt, d = t[:, None], np.arange(self.sizes[0])
        nd = self.n / (tt + self.lam)[:, None, :]
        k = nd @ _conj_t(self.n)
        y = -k
        y[:, d, d] += tt + self.sigma
        ty = tt[:, :, None] * np.linalg.inv(y)
        return (k @ ty) / (tt + self.sigma)[:, :, None], _conj_t(nd) @ ty @ nd

    def rotated(self, pp: np.ndarray, qq: np.ndarray) -> np.ndarray:
        """The blocks pp and qq, in U and V, as one matrix of the reordered coordinates."""
        r, n = self.sizes[0], sum(self.sizes)
        out = np.zeros((n, n), dtype=complex)
        out[:r, :r], out[r:, r:] = self.u @ pp @ _conj_t(self.u), self.v @ qq @ _conj_t(self.v)
        return out

    def integral(self, t: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_k weights_k G(t_k) in the reordered coordinates: CHUNK_ENTRIES // n^2 nodes at a
        time, summed in U and V and rotated back once.  ConvergenceError if not finite."""
        sums = [np.zeros((d, d), dtype=complex) for d in self.sizes]
        size = max(1, CHUNK_ENTRIES // sum(self.sizes) ** 2)
        for start in range(0, t.size, size):
            w = weights[start:start + size]
            for total, block in zip(sums, self(t[start:start + size])):
                total += np.tensordot(w, block, axes=1)
        out = self.rotated(*sums)
        if not np.isfinite(out).all():
            raise ConvergenceError("quadrature sum is not finite", residual=math.nan)
        return out

    def restore(self, m: np.ndarray) -> np.ndarray:
        """A matrix of the reordered coordinates in the original ones."""
        out = np.empty_like(m)
        out[self.order] = m
        return out


def tau_integral(a: HermitianOperator, p: OrthoProjection) -> TauResult:
    """tau by the trapezoid rule in u = ln t, with a-priori nodes and error bound.

    In u the integrand is t G(t), whose Fourier transform at w is
    pi (B^{1-iw} - P A^{1-iw} P - (1-P) A^{1-iw} (1-P)) / (i sinh(pi w)); so
    the rule of step STEP aliases at most 8 pi ||A||_F / (e^{2 pi^2/STEP} - 1)
    (Trefethen and Weideman, SIAM Rev. 56 (2014) 385).  The nodes run from
    e^{-PAD} below A's smallest eigenvalue (e^{-2 PAD} below its smallest
    positive one if A is singular, and not below 4 |lam_min|), but not below
    n eps ||A||, where t + A_PP - K turns singular in floating point, to T,
    e^PAD above A's largest.  Beyond T the sum goes on as its leading term,
    A_PQ A_QP and A_QP A_PQ times STEP / (e^STEP - 1) / T.  The estimate is the
    aliasing, the truncation at both ends (||G|| <= min(1, t / lam_min) below,
    the series in 1/t above) and ROUNDING n eps ||A||_F; ConvergenceError
    above 1e-6 max(1, ||A||).  Oracle-mix (seed 0): 1 713 nodes.
    """
    w = _checked(a, p)
    blocks = _BlockIntegrand.of(a, p)
    top, n, r = float(w[-1]), a.dim, blocks.sizes[0]
    if not top > 0.0:       # A is 0 to rounding, and so is tau
        zero = HermitianOperator._of_symmetrised(np.zeros((n, n), dtype=complex))
        return TauResult(tau=zero, trace=0.0, quadrature_error_estimate=0.0)
    floor = n * EPS * top   # eigenvalues at or below it are 0 to rounding
    lowest = float(w[w > floor][0])
    if w[0] > floor:
        t_lo = max(lowest * math.exp(-PAD), floor)
        below = math.sqrt(n) * STEP * t_lo * t_lo / lowest / math.expm1(2.0 * STEP)
    else:
        t_lo = max(lowest * math.exp(-2.0 * PAD), -4.0 * float(w[0]), floor)
        below = math.sqrt(n) * STEP * t_lo / math.expm1(STEP)
    count = math.ceil((math.log(top) + PAD - math.log(t_lo)) / STEP)
    t = t_lo * np.exp(STEP * np.arange(count + 1))
    m = blocks.integral(t, STEP * t)
    beyond = STEP / math.expm1(STEP) / t[-1]
    m[:r, :r] += beyond * (blocks.a_pq @ _conj_t(blocks.a_pq))
    m[r:, r:] += beyond * (_conj_t(blocks.a_pq) @ blocks.a_pq)
    fro, ratio = math.sqrt(float(np.dot(w, w))), top / t[-1]
    above = 2.0 * fro * ratio * ratio / (1.0 - ratio) * STEP / math.expm1(2.0 * STEP)
    err = 8.0 * math.pi * fro / math.expm1(2.0 * math.pi ** 2 / STEP) + below + above + ROUNDING * n * EPS * fro
    if not err <= 1e-6 * max(1.0, top):   # the integrand and its rounding grow with ||A||
        raise ConvergenceError(f"tau quadrature error bound {err:.3e} exceeds budget", residual=err)
    tau = HermitianOperator._of_symmetrised(symmetrised(blocks.restore(m)))
    return TauResult(tau=tau, trace=tau.trace(), quadrature_error_estimate=err)


def key_bound_constant(a: HermitianOperator, p: OrthoProjection) -> float:
    """Epsilon-independent bound on Tr D_eps from the singular values sigma of A_PQ.

    Sum over nonzero eigenvalues lam of B - A of pi ||A||^{1/2} |lam|^{1/2} +
    3 |lam| ln((1 + |lam|)/|lam|); B - A = -(PAQ + QAP), so they are +-sigma,
    from the A_PQ of the (A, P) decomposition.
    """
    _checked(a, p)
    sigma = np.linalg.svd(_BlockIntegrand.of(a, p).a_pq, compute_uv=False)
    sigma = sigma[sigma > EIG_FLOOR]
    return 2.0 * float(np.sum(math.pi * math.sqrt(a.operator_norm()) * np.sqrt(sigma)
                              + 3.0 * sigma * np.log((1.0 + sigma) / sigma)))


def truncated_trace(a: HermitianOperator, p: OrthoProjection, eps: float) -> float:
    """Tr D_eps = Tr int_eps^1 t((t+A)^{-1} - (t+B)^{-1}) dt, from spectra.

    int_eps^1 t/(t+x) dt = 1 - eps - f(x), f(x) = x ln(1 + (1-eps)/(eps+x)), so
    Tr D_eps is f summed over spec B (the (A, P) decomposition's sigma and
    lam) minus over A's (exactly 0 when P is 0 or 1).  Below 0, the rounding
    of a PSD A where f stops being defined at -eps, f is its tangent x ln(1/eps).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    w_a = _checked(a, p)
    if p.rank() in (0, p.dim):
        return 0.0

    def total(w: np.ndarray) -> float:
        return float(np.sum(w * np.log1p((1.0 - eps) / (eps + np.clip(w, 0.0, None)))))

    blocks = _BlockIntegrand.of(a, p)
    return total(np.concatenate([blocks.sigma, blocks.lam])) - total(w_a)


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
    top = float(_checked(a, p)[-1])
    blocks = _BlockIntegrand.of(a, p)
    halvings = math.ceil(0.5 * math.log2(top / 4.0)) if top > 4.0 else 0
    edges = np.concatenate([[0.0], 0.5 ** np.arange(halvings, -1, -1)])
    half = 0.5 * np.diff(edges)[:, None]
    v = ((edges[:-1, None] + half) + half * _GL_NODES).ravel()
    tail = blocks.integral(1.0 / (v * v), (half * _GL_WEIGHTS).ravel() * 2.0 / (v * v * v))

    def xlog1p(w: np.ndarray) -> np.ndarray:
        return np.clip(w, 0.0, None) * np.log1p(np.clip(w, 0.0, None))

    pinched = blocks.rotated(np.diag(xlog1p(blocks.sigma)), np.diag(xlog1p(blocks.lam)))
    return float(np.linalg.norm(blocks.restore(tail + pinched) - _block_compress(a.apply(xlog1p), p.membership)))
