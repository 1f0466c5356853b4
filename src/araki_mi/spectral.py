"""Singular-value diagnostics.

Ky Fan's inequality for singular values, the (sqrt(2)+1) bound on the
half-power trace of the off-diagonal part PF(1-P) + (1-P)FP, and smooth
periodic kernels, discretized on the whole grid, whose singular values decay
faster than any polynomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

HALF_POWER_CONST = math.sqrt(2.0) + 1.0


def _checked_singular_values(v: np.ndarray) -> np.ndarray:
    """Singular values a caller supplies, checked nonincreasing and nonnegative, clipped at 0."""
    if v.shape[-1] and np.any(np.diff(v, axis=-1) > 1e-12 * np.maximum(1.0, v[..., :1])):
        raise ValueError("singular values must be nonincreasing")
    if v.shape[-1] and np.any(v[..., -1] < -1e-12):
        raise ValueError("singular values must be nonnegative")
    return np.clip(v, 0.0, None)


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


def singular_profile(f: np.ndarray) -> SingularProfile:
    return SingularProfile(values=np.linalg.svd(np.asarray(f, dtype=complex), compute_uv=False))


def _fan_margins(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """mu_{n+1}(F) + mu_{m+1}(G) - mu_{n+m+1}(F+G) over all valid (n, m), along a last axis.

    Of a pair or of stacks of pairs, returned as computed: the caller decides.
    """
    # gesdd returns singular values nonincreasing and nonnegative, so they need no check
    mu_s = np.linalg.svd(f + g, compute_uv=False)
    mu_f = np.linalg.svd(f, compute_uv=False)
    mu_g = np.linalg.svd(g, compute_uv=False)
    n, k = np.triu_indices(mu_s.shape[-1])  # all n <= k, with m = k - n
    return mu_f[..., n] + mu_g[..., k - n] - mu_s[..., k]


def _offdiag_half_traces(f: np.ndarray, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Tr |F1|^{1/2}, (sqrt(2)+1) Tr |F|^{1/2}) of a matrix or a (..., d, d) stack.

    `inside` is the (..., d) boolean membership of mask projections: F1
    selects entries of F, no products needed.  Both sides are returned
    whatever they are; the caller decides.
    """
    f1 = np.where(inside[..., :, None] != inside[..., None, :], f, 0j)
    lhs = _half_power_sums(np.linalg.svd(f1, compute_uv=False))
    return lhs, HALF_POWER_CONST * _half_power_sums(np.linalg.svd(f, compute_uv=False))


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

    def _spot_check(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            x = rng.uniform(-self.cube_side, self.cube_side, size=self.dims)
            gx = self.symbol(x)
            tol = 1e-10 * max(1.0, abs(gx))
            for axis in range(self.dims):
                shifted = x.copy()
                shifted[axis] += self.cube_side
                if abs(self.symbol(shifted) - gx) > tol:
                    raise ValueError("symbol is not periodic at sampled points")
            if abs(np.conj(self.symbol(-x)) - gx) > tol:
                raise ValueError("symbol is not conjugate-symmetric at sampled points")

    def grid_points(self) -> np.ndarray:
        axis = np.arange(self.grid) * (self.cube_side / self.grid)
        grids = np.meshgrid(*([axis] * self.dims), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def _difference_kernel(symbol: Callable[[np.ndarray], complex], pts: np.ndarray) -> np.ndarray:
    """Matrix symbol(pts[j] - pts[k]), calling symbol once per distinct difference.

    The differences are deduplicated on their bit patterns (0.0 and -0.0 differ), so the symbol
    sees exactly the vectors the pairwise loop would pass it, in the order of a stable lexsort of
    the uint64 rows with column 0 as primary key: the order of `np.unique(bits, axis=0)`.
    """
    n, d = pts.shape
    bits = (pts[:, None, :] - pts[None, :, :]).reshape(n * n, d).view(np.uint64)
    order = np.lexsort(bits.T[::-1])
    ordered = bits[order]
    first = np.ones(n * n, dtype=bool)  # row starts a new distinct difference
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(n * n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    values = np.array([symbol(x) for x in ordered[first].view(np.float64)], dtype=complex)
    return values[inverse].reshape(n, n)


def full_grid_kernel(spec: SmoothKernelSpec) -> np.ndarray:
    """Kernel over the entire cube grid; diagonalized by the discrete Fourier basis."""
    return _difference_kernel(spec.symbol, spec.grid_points())


def fourier_eigenvalues(spec: SmoothKernelSpec) -> np.ndarray:
    """Eigenvalues of the full-grid kernel via the DFT of one row of samples."""
    samples = np.array([spec.symbol(x) for x in spec.grid_points()], dtype=complex)
    return np.fft.fftn(samples.reshape([spec.grid] * spec.dims)).ravel()


def fit_decay_slope(values: np.ndarray, n_lo: int, n_hi: int) -> float:
    """Least-squares slope of log mu_n vs log n over indices [n_lo, n_hi] (1-based), mu_n > 1e-13 mu_1."""
    if n_lo < 1:
        raise ValueError(f"indices are 1-based: n_lo must be at least 1, got {n_lo!r}")
    v = np.asarray(values, dtype=float)
    scale = v[0] if v.size and v[0] > 0 else 1.0
    ns, ys = [], []
    for n in range(n_lo, min(n_hi, v.size) + 1):
        if v[n - 1] > 1e-13 * scale:
            ns.append(math.log(n))
            ys.append(math.log(v[n - 1]))
    if len(ns) < 3:
        raise ValueError("not enough usable singular values for a decay fit")
    slope = np.polyfit(ns, ys, 1)[0]
    return float(slope)


def half_power_summability_diagnostic(profile: SingularProfile) -> tuple[bool, float]:
    """(plateau flag, tail estimate) for the half-power partial sums.

    Plateau: the relative increment over indices n/10..n is below 1e-6.  The
    tail is estimated by a power-law fit on the last max(10, n // 10) values;
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


def gaussian_bump_symbol(cube_side: float, width: float) -> Callable[[np.ndarray], complex]:
    """Periodized Gaussian bump, images up to 6 periods away per axis: smooth, even, real, period cube_side.

    Summed in Python floats from 0.0, left to right over the images in `itertools.product` order. At d = 1
    this is bit for bit the former per-image numpy form; at d >= 2 each |y|^2 is summed left to right and
    can differ from `np.dot`'s in the last bit.
    """
    offsets = [cube_side * s for s in range(-6, 7)]
    scale = 2.0 * width**2

    def symbol(x: np.ndarray) -> complex:
        squares = [[(xi + o) * (xi + o) for o in offsets] for xi in np.asarray(x, dtype=float).ravel().tolist()]
        total = 0.0
        for sq in itertools.product(*squares):
            total += math.exp(-sum(sq) / scale)
        return complex(total)

    return symbol
