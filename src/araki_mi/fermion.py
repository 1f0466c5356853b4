"""Discretized free-fermion vacuum covariance and mutual information.

The vacuum two-point function of the chiral free fermion is the Hardy-space
projection kernel.  On the integer lattice it becomes the half-frequency band
projection: diagonal 1/2, and for odd site separation delta an off-diagonal
entry of magnitude 1/(pi |delta|).  A finite union of interval blocks gives a
compression of that projection, so the covariance matrix C satisfies
0 <= C <= 1 exactly, which the entropy function

    h(x) = -x ln x - (1-x) ln(1-x)

requires.  The mutual information of the two regions is

    Tr sigma_C = S_1 + S_2 - S_12,   S_X = sum h(spec C_X),

and compressing C by centered sub-windows commuting with the region selector
yields a nondecreasing sequence converging to the full value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .operators import ENTROPY_SLACK, RECOMPOSITION_TOL, _eigh_eigenvalues, _eigvalsh_eigenvalues, xlogx

SPECTRUM_SLACK = 1e-9
TWO_PATH_TOL = 1e-9
MAX_SITES = 4096        # a solve's workspace holds one dense n x n complex matrix, 256 MiB
                        # at the limit; the largest admitted mi peaks at about 300 MiB RSS (README)


def _fits_float(x: numbers.Real) -> bool:
    """Finite as a float; False for an integer too large to convert."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _endpoint(x) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"interval endpoint {x!r} is not a number")
    if not _fits_float(x):
        raise ValueError(f"interval endpoint {x!r} is not finite")
    return float(x)


def _checked_intervals(intervals, split: int) -> Tuple[Tuple[float, float], ...]:
    """Nonempty intervals with disjoint closures, as float pairs, split into two nonempty regions."""
    try:
        ivs = tuple((_endpoint(a), _endpoint(b)) for a, b in intervals)
    except TypeError as exc:
        raise ValueError(f"intervals must be [a, b] pairs of numbers ({exc})") from None
    if len(ivs) < 2:
        raise ValueError("need at least two intervals")
    for a, b in ivs:
        if not a < b:
            raise ValueError(f"empty interval ({a}, {b})")
    ordered = sorted(ivs)
    for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]):
        if b1 >= a2:
            raise ValueError("intervals must have disjoint closures")
    if isinstance(split, bool) or not isinstance(split, numbers.Integral):
        raise ValueError(f"split must be an integer, got {split!r}")
    if not 1 <= split < len(ivs):
        raise ValueError("split must leave both regions nonempty")
    return ivs


@dataclass(frozen=True)
class IntervalConfig:
    """Disjoint real intervals with a lattice resolution (sites per unit length)."""

    intervals: Tuple[Tuple[float, float], ...]
    resolution: float
    split: int = 1          # first `split` intervals form region 1
    components: int = 1     # fermion multiplicity; MI scales linearly

    def __post_init__(self):
        object.__setattr__(self, "intervals", _checked_intervals(self.intervals, self.split))
        res, comp = self.resolution, self.components
        if isinstance(res, bool) or not isinstance(res, numbers.Real):
            raise ValueError(f"resolution must be a number, got {res!r}")
        if not (_fits_float(res) and res > 0):
            raise ValueError("resolution must be positive and finite")
        integral = isinstance(comp, numbers.Integral) or (isinstance(comp, float) and comp.is_integer())
        if isinstance(comp, bool) or not integral or comp < 1:
            raise ValueError(f"components must be a positive integer, got {comp!r}")
        if not _fits_float(comp):
            raise ValueError("components must be a positive integer within the float range")


@dataclass(frozen=True)
class CovarianceSystem:
    """The covariance C on runs of consecutive lattice sites, as the kernel tables it is copied from.

    Rows are the sites of each run in turn, runs in interval order.  The
    block of C on the rows of run i and the columns of run j is Toeplitz:
    the entry for sites s and t is tables[i][j][s - t - lowest[i][j]], the
    symmetrised kernel at separation s - t.  A window keeps a sub-run of each
    run and the tables.  ArithmeticError unless every even separation other
    than 0 holds 0 and separation 0 holds 1/2 (the sublattice structure).
    """

    runs: Tuple[Tuple[int, int], ...]           # (first site, sites) of each run
    split: int                                  # the first `split` runs form region 1
    tables: Tuple[Tuple[np.ndarray, ...], ...]  # complex, one per ordered pair of runs
    lowest: Tuple[Tuple[int, ...], ...]         # the separation at index 0 of each table
    part: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        odd_real = odd_imag = False
        for i, (row, lows) in enumerate(zip(self.tables, self.lowest)):
            for j, (table, lo) in enumerate(zip(row, lows)):
                even, odd = table[lo % 2::2], table[(lo + 1) % 2::2]
                zero = -lo if i == j else None      # index of separation 0
                if np.count_nonzero(even) != (zero is not None) or (zero is not None and table[zero] != 0.5):
                    raise ArithmeticError("covariance breaks the sublattice structure")
                odd_real = odd_real or bool(odd.real.any())
                odd_imag = odd_imag or bool(odd.imag.any())
        # The part, real (0) or imaginary (1), that holds every entry of the even x odd block,
        # or None for both: an imaginary block, as the lattice's is, has the singular values
        # of its imaginary part, a real matrix, so its SVD runs in real arithmetic.
        object.__setattr__(self, "part", None if odd_real and odd_imag else int(not odd_real))

    @property
    def size(self) -> int:
        return sum(count for _, count in self.runs)


@dataclass
class MISeries:
    window_sizes: Tuple[int, ...]
    values: Tuple[float, ...]
    extrapolated: float
    extrapolation_error: float

    def __post_init__(self):
        for lo, hi in zip(self.values, self.values[1:]):
            if hi < lo - SPECTRUM_SLACK:
                raise ValueError(f"window series not nondecreasing: {lo} -> {hi}")


def _site_blocks(config: IntervalConfig) -> list[Tuple[int, int]]:
    spans = [(b - a) * config.resolution for a, b in config.intervals]
    if not all(math.isfinite(span) for span in spans):
        raise ValueError(f"lattice sites exceed the limit of {MAX_SITES}; lower the resolution")
    counts = [max(2, int(round(span))) for span in spans]
    if sum(counts) > MAX_SITES:
        raise ValueError(f"{sum(counts)} lattice sites exceed the limit of {MAX_SITES}; lower the resolution")
    blocks = [(int(round(a * config.resolution)), n) for (a, _), n in zip(config.intervals, counts)]
    ordered = sorted(blocks)
    for (s1, c1), (s2, _) in zip(ordered, ordered[1:]):
        if s2 < s1 + c1 + 1:
            raise ValueError("resolution too coarse: site blocks touch or overlap")
    return blocks


def _kernel(d: np.ndarray) -> np.ndarray:
    """The kernel at integer separations d: 1/2 at 0, -i/(pi d) at odd d, 0 at even d."""
    odd = (d % 2) != 0
    return np.where(odd, -1j / (math.pi * np.where(odd, d, 1)), np.where(d == 0, 0.5, 0.0))


def _kernel_tables(runs: Sequence[Tuple[int, int]]):
    """(tables, lowest): sym(d) = (k(d) + conj k(-d)) / 2 at every separation d between two runs.

    tables[i][j][m] is sym at d = lowest[i][j] + m, from the first site of run
    i minus the last of run j up to the last of i minus the first of j, so a
    table per ordered pair of runs, never one over the whole span.  Bit for
    bit the entries of (K + K^H) / 2, whose signed zeros the bits of S_12
    depend on (zhetrd, the tridiagonal reduction of eigh and of
    `_eigh_eigenvalues`, reads them).  ArithmeticError unless sym(-d) = conj sym(d).
    """
    tables, lowest = [], []
    for si, ni in runs:
        row, lows = [], []
        for sj, nj in runs:
            d = np.arange(si - (sj + nj - 1), si + ni - sj)
            kd, km = _kernel(d), _kernel(-d)
            table = 0.5 * (kd + km.conj())
            if not np.array_equal(0.5 * (km + kd.conj()), table.conj()):
                raise ArithmeticError("covariance kernel is not Hermitian")
            row.append(table)
            lows.append(int(d[0]))
        tables.append(tuple(row))
        lowest.append(tuple(lows))
    return tuple(tables), tuple(lowest)


def _fill(out: np.ndarray, tables, lowest, rows, cols, part: Optional[int] = None) -> np.ndarray:
    """out = C[rows, cols] (its real or imaginary part for part 0 or 1), copied from the tables.

    rows and cols list (run, first site, step, sites) of each run's share.
    Each pair of shares is a Toeplitz block, read through a strided view of
    its table: one row down is `step` entries on, one column right `step`
    entries back.
    """
    r = 0
    for i, s, step, m in rows:
        c = 0
        for j, t, _, k in cols:
            if m and k:
                table = tables[i][j]
                unit = table.itemsize            # a complex entry; its two float halves for a part
                buf, dtype = (table, table.dtype) if part is None else (table.view(np.float64), np.float64)
                offset = (s - t - lowest[i][j]) * unit + (0 if part is None else part * unit // 2)
                out[r:r + m, c:c + k] = np.ndarray((m, k), dtype, buf, offset, (step * unit, -step * unit))
            c += k
        r += m
    return out


def hardy_kernel(sites: np.ndarray) -> np.ndarray:
    """Half-frequency band projection kernel on the given integer sites, symmetrised.

    Entry (i, j) is sym(s_i - s_j), filled for every row from the tables of
    `_kernel_tables` over the runs of consecutive sites, in Fortran order.
    ArithmeticError unless sym(-d) = conj sym(d).
    """
    edges = np.r_[0, np.flatnonzero(np.diff(sites) != 1) + 1, sites.size]
    runs = [(int(sites[a]), int(b - a)) for a, b in zip(edges, edges[1:])]
    shares = [(i, s, 1, n) for i, (s, n) in enumerate(runs)]
    c = np.empty((sites.size, sites.size), dtype=complex, order="F")
    return _fill(c, *_kernel_tables(runs), shares, shares)


def build_covariance(config: IntervalConfig) -> CovarianceSystem:
    runs = tuple(_site_blocks(config))
    tables, lowest = _kernel_tables(runs)
    return CovarianceSystem(runs=runs, split=config.split, tables=tables, lowest=lowest)


def _binary_entropy_sums(*spectra: np.ndarray) -> list[float]:
    """sum h(w) over each spectrum, from one x ln x pass over all of them."""
    parts = [np.asarray(s, dtype=float) for s in spectra]
    w = np.concatenate(parts)
    if w.size and (w.min() < -ENTROPY_SLACK or w.max() > 1.0 + ENTROPY_SLACK):
        raise ArithmeticError(f"eigenvalue outside [0, 1]: range [{w.min()}, {w.max()}]")
    w = np.clip(w, 0.0, 1.0)
    wlogw = xlogx(np.stack((w, 1.0 - w)))
    terms = -(wlogw[0] + wlogw[1])
    # Each spectrum is summed strictly left to right from +0.0, not pairwise:
    # the reported digits of every mutual information depend on this order.
    bounds = np.cumsum([p.size for p in parts])[:-1]
    return [float(np.add.accumulate(np.concatenate(([0.0], t)))[-1]) for t in np.split(terms, bounds)]


def _shares(sys: CovarianceSystem, region: Optional[int], parity: Optional[int] = None) -> list:
    """(run, first site, step, sites) of each run of region 0, 1 or (None) both, keeping the
    sites of one parity (0 even, 1 odd) or (None) all of them."""
    runs = range(len(sys.runs))
    if region is not None:
        runs = runs[:sys.split] if region == 0 else runs[sys.split:]
    shares = []
    for i in runs:
        s, n = sys.runs[i]
        if parity is None:
            shares.append((i, s, 1, n))
        else:
            first = s + (s - parity) % 2
            shares.append((i, first, 2, (s + n - first + 1) // 2))
    return shares


def _block(sys: CovarianceSystem, ws: np.ndarray, rows: list, cols: list, part: Optional[int] = None) -> np.ndarray:
    """C[rows, cols] (or its real or imaginary part) copied from the tables into the start of
    the float64 workspace ws, in Fortran order, the layout in which LAPACK reduces it in place."""
    shape = (sum(m for *_, m in rows), sum(k for *_, k in cols))
    dtype = complex if part is None else np.float64
    out = ws[:shape[0] * shape[1] * (2 if part is None else 1)].view(dtype).reshape(shape, order="F")
    return _fill(out, sys.tables, sys.lowest, rows, cols, part)


def _square_block(sys: CovarianceSystem, ws: np.ndarray, region: Optional[int]) -> np.ndarray:
    """The block of a region, or (None) C itself, copied into the start of ws."""
    shares = _shares(sys, region)
    return _block(sys, ws, shares, shares)


def _sublattice_singular_values(sys: CovarianceSystem, ws: np.ndarray, region: Optional[int]):
    """(svd(B), |rows - columns| of B) of the block B = C[even, odd] of a region or (None) of C.

    The Hardy kernel couples only sites of opposite parity, so C and each
    region block is [[I/2, B], [B^H, I/2]] in the parity split (checked on
    the tables by CovarianceSystem), and its spectrum is 1/2 +- svd(B),
    padded with 1/2.  B is copied from the tables in the arithmetic of
    `sys.part`.
    """
    b = _block(sys, ws, _shares(sys, region, 0), _shares(sys, region, 1), sys.part)
    return np.linalg.svd(b, compute_uv=False), abs(b.shape[0] - b.shape[1])


def _sublattice_entropies(*spectra) -> list[float]:
    """Entropy sums h(spec m) of matrices m = [[I/2, B], [B^H, I/2]], from (svd(B), |rows - columns| of B).

    spec m = 1/2 +- svd(B), padded with |rows - columns| eigenvalues 1/2
    (entropy ln 2 each).
    """
    sums = _binary_entropy_sums(*(0.5 + s for s, _ in spectra))
    return [2.0 * h + pad * math.log(2.0) for h, (_, pad) in zip(sums, spectra)]


def sigma_trace(sys: CovarianceSystem) -> float:
    """Tr sigma_C = S_1 + S_2 - S_12, computed by two independent routes.

    The returned value takes S_12 from `_eigh_eigenvalues` of C: zhetrd and
    dstedc of numpy's LAPACK, the bits of `eigh` without the eigenvectors of
    C (the reported digits are pinned to that LAPACK path; np.linalg.eigh
    itself where numpy's LAPACK lacks the symbols).  Those eigenvalues
    must sum to Tr C, have 2-norm ||C||_F and lie in [0, 1] up to
    SPECTRUM_SLACK.  S_X comes from `_eigvalsh_eigenvalues` of each region
    block, the bits of `eigvalsh`.  The check recomputes all three entropies
    from half-size real SVDs of the even x odd blocks B of C and of each
    region, which share no factorization with the first route.

    Every matrix is copied from the system's tables into one float64
    workspace of 2 n^2 + 4 n + 16 entries, and no stage holds a second
    n x n array: each region block, reduced in place by zhetrd + dsterf;
    each block B and its SVD; then C, which zhetrd reduces in place, and
    dstedc's workspaces carved from the same array.
    """
    n = sys.size
    ws = np.empty(2 * n * n + 4 * n + 16)
    w1, w2 = (_eigvalsh_eigenvalues(_square_block(sys, ws, region)) for region in (0, 1))
    svds = [_sublattice_singular_values(sys, ws, region) for region in (0, 1, None)]
    c = _square_block(sys, ws, None)
    norm, trace = float(np.linalg.norm(c)), np.trace(c).real
    w = _eigh_eigenvalues(c, ws)
    miss = max(abs(w.sum() - trace), abs(np.linalg.norm(w) - norm))
    if miss > RECOMPOSITION_TOL * max(1.0, norm):
        raise ArithmeticError(f"covariance eigenvalues miss the trace or norm of C ({miss:.3e})")
    if w[0] < -SPECTRUM_SLACK or w[-1] > 1.0 + SPECTRUM_SLACK:
        raise ArithmeticError(f"covariance spectrum escapes [0, 1]: [{w[0]}, {w[-1]}]")
    s1, s2, s12 = _binary_entropy_sums(w1, w2, w)
    value = s1 + s2 - s12
    h1, h2, h12 = _sublattice_entropies(*svds)
    check = h1 + h2 - h12
    if abs(check - value) > TWO_PATH_TOL * max(1.0, abs(value)):
        raise ArithmeticError(f"sigma trace routes disagree: eigensolve {value} vs sublattice SVD {check}")
    if value < -SPECTRUM_SLACK:
        raise ArithmeticError(f"negative mutual information {value}")
    return value


def mutual_information_value(config: IntervalConfig) -> float:
    """Mutual information of the two regions, in nats."""
    return config.components * sigma_trace(build_covariance(config))


def _windowed_system(sys: CovarianceSystem, fraction: float) -> CovarianceSystem:
    """Centered sub-run of every run, with the same tables; windows at growing
    fractions are nested and commute with the region selector."""
    runs = []
    for i, (first, count) in enumerate(sys.runs):
        w = int(round(fraction * count))
        if w < 1:
            raise ValueError(f"window fraction {fraction} leaves interval {i} empty")
        runs.append((first + (count - w) // 2, w))
    return replace(sys, runs=tuple(runs))


def mi_convergence(config: IntervalConfig, window_fractions: Sequence[float]) -> MISeries:
    """Tr sigma_{C_p} along centered windows growing to the full system."""
    fracs = [float(f) for f in window_fractions]
    if not fracs or any(f2 <= f1 for f1, f2 in zip(fracs, fracs[1:])):
        raise ValueError("window fractions must be strictly increasing")
    if not all(0.0 < f <= 1.0 for f in fracs) or fracs[-1] != 1.0:
        raise ValueError("window fractions must lie in (0, 1] and end at 1")
    sys = build_covariance(config)
    sizes, values = [], []
    for f in fracs:
        wsys = sys if f == 1.0 else _windowed_system(sys, f)
        sizes.append(wsys.size)
        values.append(config.components * sigma_trace(wsys))
    err = abs(values[-1] - values[-2]) if len(values) > 1 else math.inf
    return MISeries(window_sizes=tuple(sizes), values=tuple(values),
                    extrapolated=values[-1], extrapolation_error=err)


def richardson(values: Sequence[float]) -> tuple[float, float]:
    """(extrapolated value, uncertainty) for values at successively doubled resolution.

    Assumes v(h) = v + c h^p; the order p is estimated from the last three
    values.  Falls back to the finest value with the last increment as the
    uncertainty when the differences do not behave like a power law.
    """
    v = [float(x) for x in values]
    if len(v) < 2:
        return v[-1], math.inf
    d_last = v[-1] - v[-2]
    if len(v) < 3:
        return v[-1], abs(d_last)
    d_prev = v[-2] - v[-3]
    if d_last == 0.0:
        return v[-1], 0.0
    ratio = d_prev / d_last
    if ratio <= 1.0:
        return v[-1], abs(d_last)
    p = math.log2(ratio)
    correction = d_last / (2**p - 1.0)
    return v[-1] + correction, abs(correction)


def resolution_study(config: IntervalConfig, resolutions: Sequence[float]) -> dict:
    """MI at each resolution plus a Richardson extrapolation to the continuum."""
    res = [float(r) for r in resolutions]
    if any(r2 <= r1 for r1, r2 in zip(res, res[1:])):
        raise ValueError("resolutions must be increasing")
    values = []
    for r in res:
        cfg = IntervalConfig(intervals=config.intervals, resolution=r,
                             split=config.split, components=config.components)
        values.append(mutual_information_value(cfg))
    extrapolated, err = richardson(values)
    return {"resolutions": res, "values": values,
            "extrapolated": extrapolated, "uncertainty": err}


def continuum_mi(intervals: Sequence[Sequence[float]], split: int = 1) -> float:
    """Continuum mutual information, in nats, between the first `split` intervals and the rest.

    Casini-Fosco-Huerta (J. Stat. Mech. 2005, arXiv:cond-mat/0505563): a
    c = 1 Dirac fermion, which the lattice's doubled Fermi point makes this
    model at one component, has on a union of intervals (a_i, b_i) the entropy

        S = (1/3) [sum_i ln(b_i - a_i)
                   + sum_{i<j} ln(|a_j - b_i| |b_j - a_i| / (|a_j - a_i| |b_j - b_i|))]

    plus a cut-off constant per interval.  In S_1 + S_2 - S_12 only the pairs
    with one interval in each region are left.
    """
    ivs = _checked_intervals(intervals, split)
    total = 0.0
    for a1, b1 in ivs[:split]:
        for a2, b2 in ivs[split:]:
            total += math.log(abs(a2 - a1) * abs(b2 - b1) / (abs(a2 - b1) * abs(b2 - a1)))
    return total / 3.0
