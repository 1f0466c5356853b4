"""Singular-value diagnostics.

Ky Fan's inequality for singular values, the (sqrt(2)+1) bound on the
half-power trace of the off-diagonal part PF(1-P) + (1-P)FP, and discretized
smooth periodic kernels whose singular values decay faster than any
polynomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import OrthoProjection

HALF_POWER_CONST = math.sqrt(2.0) + 1.0


def _checked_singular_values(v: np.ndarray) -> np.ndarray:
    """Nonincreasing, nonnegative singular values along the last axis, clipped at 0."""
    if v.shape[-1] and np.any(np.diff(v, axis=-1) > 1e-12 * np.maximum(1.0, v[..., :1])):
        raise ValueError("singular values must be nonincreasing")
    if v.shape[-1] and np.any(v[..., -1] < -1e-12):
        raise ValueError("singular values must be nonnegative")
    return np.clip(v, 0.0, None)


def _singular_values(f: np.ndarray) -> np.ndarray:
    """Checked singular values of a matrix or of each matrix of a stack (one LAPACK call)."""
    return _checked_singular_values(np.linalg.svd(f, compute_uv=False))


def _half_power_partials(v: np.ndarray) -> np.ndarray:
    """Partial sums of mu_n^{1/2}, accumulated in index order, along the last axis."""
    return np.cumsum(np.sqrt(v), axis=-1)


def _half_power_sums(v: np.ndarray) -> np.ndarray:
    """sum_n mu_n^{1/2} along the last axis; 0 for no values."""
    if not v.shape[-1]:
        return np.zeros(v.shape[:-1])
    return _half_power_partials(v)[..., -1]


@dataclass
class SingularProfile:
    values: np.ndarray
    half_power_partials: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = _checked_singular_values(np.asarray(self.values, dtype=float))
        self.half_power_partials = _half_power_partials(self.values)

    def half_power_sum(self) -> float:
        return float(_half_power_sums(self.values))


def singular_profile(f: np.ndarray) -> SingularProfile:
    return SingularProfile(values=_singular_values(np.asarray(f, dtype=complex)))


def _fan_margins(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """mu_{n+1}(F) + mu_{m+1}(G) - mu_{n+m+1}(F+G) over all valid (n, m), along a last axis."""
    mu_s = _singular_values(f + g)
    mu_f = _singular_values(f)
    mu_g = _singular_values(g)
    n, k = np.triu_indices(mu_s.shape[-1])  # all n <= k, with m = k - n
    return mu_f[..., n] + mu_g[..., k - n] - mu_s[..., k]


def fan_inequality_check(f: np.ndarray, g: np.ndarray, tol: float = 1e-10) -> dict:
    """mu_{n+m+1}(F+G) <= mu_{n+1}(F) + mu_{m+1}(G) over all valid (n, m)."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape:
        raise ValueError("shapes must match")
    margins = _fan_margins(f, g)
    worst = float(margins.min()) if margins.size else math.inf
    return {"checked": int(margins.size), "violations": int(np.count_nonzero(margins < -tol)),
            "worst_margin": worst}


def _offdiag_half_traces(f: np.ndarray, p, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """(Tr |F1|^{1/2}, (sqrt(2)+1) Tr |F|^{1/2}) of a matrix or a (..., d, d) stack.

    p is an OrthoProjection or the (..., d) boolean membership of mask
    projections; ArithmeticError if a bound fails.
    """
    if isinstance(p, OrthoProjection) and p.mask is None:
        pm = p.mat
        qm = np.eye(p.dim) - pm
        f1 = pm @ f @ qm + qm @ f @ pm
        pfp = pm @ f @ pm
    else:
        # Mask projection: F1 and PFP select entries of F, no products needed.
        inside = p.membership if isinstance(p, OrthoProjection) else p
        f1 = np.where(inside[..., :, None] != inside[..., None, :], f, 0j)
        pfp = np.where(inside[..., :, None] & inside[..., None, :], f, 0j)
    lhs = _half_power_sums(_singular_values(f1))
    rhs = HALF_POWER_CONST * _half_power_sums(_singular_values(f))
    for name, value in (("half-power", lhs), ("corner half-power", _half_power_sums(_singular_values(pfp)))):
        if np.any(value > rhs + tol):
            worst = np.argmax(value - rhs)
            raise ArithmeticError(f"{name} bound violated: {value.flat[worst]} > {rhs.flat[worst]}")
    return lhs, rhs


def offdiag_half_trace(f: np.ndarray, p: OrthoProjection, tol: float = 1e-8) -> tuple[float, float]:
    """Half-power trace of F1 = PF(1-P) + (1-P)FP against (sqrt(2)+1) Tr |F|^{1/2}.

    Also enforces the companion bound for the corner PFP.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (p.dim, p.dim):
        raise ValueError("shape mismatch")
    lhs, rhs = _offdiag_half_traces(f, p, tol)
    return float(lhs), float(rhs)


@dataclass
class SmoothKernelSpec:
    """Smooth periodic convolution symbol on a cube of side L, N grid points per axis."""

    cube_side: float
    grid: int
    dims: int
    symbol: Callable[[np.ndarray], complex]

    def __post_init__(self):
        if self.cube_side <= 0 or self.grid < 2 or self.dims < 1:
            raise ValueError("invalid kernel spec")
        self._spot_check()

    def _spot_check(self, samples: int = 8, tol: float = 1e-10):
        rng = np.random.default_rng(0)
        for _ in range(samples):
            x = rng.uniform(-self.cube_side, self.cube_side, size=self.dims)
            gx = self.symbol(x)
            for axis in range(self.dims):
                shifted = x.copy()
                shifted[axis] += self.cube_side
                if abs(self.symbol(shifted) - gx) > tol * max(1.0, abs(gx)):
                    raise ValueError("symbol is not periodic at sampled points")
            if abs(np.conj(self.symbol(-x)) - gx) > tol * max(1.0, abs(gx)):
                raise ValueError("symbol is not conjugate-symmetric at sampled points")

    def grid_points(self) -> np.ndarray:
        axis = np.arange(self.grid) * (self.cube_side / self.grid)
        grids = np.meshgrid(*([axis] * self.dims), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass
class KernelBlocks:
    full: np.ndarray          # kernel over the union grid
    block12: np.ndarray       # region1 x region2 sub-block
    p1: OrthoProjection       # selector of region1 inside the union


def _normalize_region(region, dims: int) -> np.ndarray:
    idx = np.asarray(list(region), dtype=int)
    if idx.ndim == 1:
        idx = idx[:, None]
    if idx.shape[1] != dims:
        raise ValueError("region index arity does not match kernel dimension")
    return idx


def smooth_kernel_matrix(spec: SmoothKernelSpec, region1, region2) -> KernelBlocks:
    """Kernel matrix G(x_j - y_k) over two disjoint index subsets of the grid."""
    r1 = _normalize_region(region1, spec.dims)
    r2 = _normalize_region(region2, spec.dims)
    if set(map(tuple, r1)) & set(map(tuple, r2)):
        raise ValueError("regions must be disjoint")
    h = spec.cube_side / spec.grid
    pts = np.concatenate([r1, r2], axis=0) * h
    n = pts.shape[0]
    full = _difference_kernel(spec.symbol, pts)
    n1 = r1.shape[0]
    p1 = OrthoProjection.from_mask(n, range(n1))
    return KernelBlocks(full=full, block12=full[:n1, n1:], p1=p1)


def _difference_kernel(symbol: Callable[[np.ndarray], complex], pts: np.ndarray) -> np.ndarray:
    """Matrix symbol(pts[j] - pts[k]), calling symbol once per distinct difference.

    The differences are deduplicated on their bit patterns, so the symbol
    sees exactly the vectors the pairwise loop would pass it.
    """
    n, d = pts.shape
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(n * n, d)
    bits, inverse = np.unique(diffs.view(np.uint64), axis=0, return_inverse=True)
    values = np.empty(bits.shape[0], dtype=complex)
    for u, x in enumerate(bits.view(np.float64)):
        values[u] = symbol(x)
    return values[inverse.ravel()].reshape(n, n)


def full_grid_kernel(spec: SmoothKernelSpec) -> np.ndarray:
    """Kernel over the entire cube grid; diagonalized by the discrete Fourier basis."""
    return _difference_kernel(spec.symbol, spec.grid_points())


def fourier_eigenvalues(spec: SmoothKernelSpec) -> np.ndarray:
    """Eigenvalues of the full-grid kernel via the DFT of one row of samples."""
    axis = np.arange(spec.grid) * (spec.cube_side / spec.grid)
    grids = np.meshgrid(*([axis] * spec.dims), indexing="ij")
    samples = np.empty([spec.grid] * spec.dims, dtype=complex)
    for idx in np.ndindex(*samples.shape):
        samples[idx] = spec.symbol(np.array([g[idx] for g in grids]))
    return np.fft.fftn(samples).ravel()


def fit_decay_slope(values: np.ndarray, n_lo: int, n_hi: int, floor: float = 1e-13) -> float:
    """Least-squares slope of log mu_n vs log n over indices [n_lo, n_hi] (1-based)."""
    v = np.asarray(values, dtype=float)
    scale = v[0] if v.size and v[0] > 0 else 1.0
    ns, ys = [], []
    for n in range(n_lo, min(n_hi, v.size) + 1):
        if v[n - 1] > floor * scale:
            ns.append(math.log(n))
            ys.append(math.log(v[n - 1]))
    if len(ns) < 3:
        raise ValueError("not enough usable singular values for a decay fit")
    slope = np.polyfit(ns, ys, 1)[0]
    return float(slope)


def half_power_summability_diagnostic(profile: SingularProfile) -> tuple[bool, float]:
    """(plateau flag, tail estimate) for the half-power partial sums.

    Plateau: the relative increment over the last decade of indices is below
    1e-6.  The tail is estimated by a power-law fit on the trailing decade;
    a fit too shallow for convergence yields an infinite tail.
    """
    v = profile.values
    n = v.size
    if n == 0:
        raise ValueError("empty profile")
    partials = profile.half_power_partials
    total = partials[-1]
    if total == 0.0:
        return True, 0.0
    start = max(0, n // 10 - 1)
    increment = total - partials[start]
    plateau = bool(increment <= 1e-6 * total)
    tail_lo = max(1, n - max(10, n // 10))
    tail_vals = v[tail_lo - 1:]
    if np.all(tail_vals <= 0.0):
        return plateau, 0.0
    ns = np.log(np.arange(tail_lo, n + 1)[tail_vals > 0])
    ys = np.log(tail_vals[tail_vals > 0])
    if ns.size < 3:
        return plateau, 0.0
    slope, intercept = np.polyfit(ns, ys, 1)
    half_slope = slope / 2.0
    if half_slope >= -1.0:
        return plateau, math.inf
    # integral tail of C^{1/2} m^{slope/2} beyond m = n
    tail = math.exp(intercept / 2.0) * n ** (half_slope + 1.0) / (-half_slope - 1.0)
    return plateau, float(tail)


def designated_test_kernel(grid: int = 128) -> "SmoothKernelSpec":
    """The standard smooth test kernel: periodized Gaussian, width L/5, d = 1."""
    return SmoothKernelSpec(cube_side=1.0, grid=grid, dims=1,
                            symbol=gaussian_bump_symbol(1.0, 0.2))


def gaussian_bump_symbol(cube_side: float, width: float, images: int = 6) -> Callable[[np.ndarray], complex]:
    """Periodized Gaussian bump: smooth, even, real, period cube_side per axis."""

    def symbol(x: np.ndarray) -> complex:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        total = 0.0
        for shift in itertools.product(range(-images, images + 1), repeat=x.size):
            y = x + cube_side * np.asarray(shift)
            total += math.exp(-float(np.dot(y, y)) / (2.0 * width**2))
        return complex(total)

    return symbol
