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

import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .operators import (_blas_threads_getter, _eigh_eigenvalues, _eigvalsh_eigenvalues, _singular_values,
                        _svd_workspace, xlogx)

SPECTRUM_SLACK = 1e-9
RECOMPOSITION_TOL = 1e-9    # the eigenvalues of C against its trace and Frobenius norm
TWO_PATH_TOL = 1e-9
LANE_MIN_SITES = 256    # a smaller solve is not the worker's before C, but waits to run beside it (README)
LANE_MIN_C_SITES = 96   # a smaller C runs alone after the other solves, not on the worker beside them: an mi
                        # took 1.00x the time of C alone at a C of 80 sites, 0.89x at 90 and 96, 0.80x at 128 (README)
MAX_SITES = 4096        # a request's one workspace holds a dense n x n complex matrix of its largest
                        # system, 256 MiB at the limit; an mi or converge that reaches it peaks at
                        # about 300 MiB RSS (README)


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
        pairs = [(a, b) for a, b in intervals]
    except (TypeError, ValueError) as exc:      # not iterable, or an interval of other than two entries
        raise ValueError(f"intervals must be [a, b] pairs of numbers ({exc})") from None
    ivs = tuple((_endpoint(a), _endpoint(b)) for a, b in pairs)
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
class KernelTables:
    """The symmetrised kernel at every separation between two runs of sites, the tables C is copied from.

    C's entry for site s of run i and site t of run j is tables[i][j][s - t - lowest[i][j]].  Checked once,
    when built (windows share their parent's): TypeError unless each table is 1-D contiguous complex128, the
    one layout `_block` reads; ArithmeticError unless every entry is finite, every even separation other
    than 0 holds 0, separation 0 holds 1/2 and every odd one has real part 0 (the sublattice structure, with
    a purely imaginary even x odd block).
    """

    tables: Tuple[Tuple[np.ndarray, ...], ...]  # one per ordered pair of runs
    lowest: Tuple[Tuple[int, ...], ...]         # the separation at index 0 of each table

    def __post_init__(self):
        for i, (row, lows) in enumerate(zip(self.tables, self.lowest)):
            for j, (table, lo) in enumerate(zip(row, lows)):
                if table.dtype != complex or table.ndim != 1 or not table.flags.c_contiguous:
                    raise TypeError(f"kernel table ({i}, {j}) is not 1-D contiguous complex128")
                even, odd = table[lo % 2::2], table[(lo + 1) % 2::2]
                zero = -lo if i == j else None      # index of separation 0
                if (not np.isfinite(table).all() or np.count_nonzero(even) != (zero is not None)
                        or (zero is not None and table[zero] != 0.5) or odd.real.any()):
                    raise ArithmeticError("covariance is not finite or breaks the sublattice structure")


@dataclass(frozen=True)
class CovarianceSystem:
    """The covariance C on runs of consecutive lattice sites, as the kernel tables it is copied from.

    Rows are the sites of each run in turn, runs in interval order.  A window
    keeps a sub-run of each run and its parent's kernel.
    """

    runs: Tuple[Tuple[int, int], ...]   # (first site, sites) of each run
    split: int                          # the first `split` runs form region 1
    kernel: KernelTables

    @property
    def size(self) -> int:
        return sum(count for _, count in self.runs)


@dataclass
class MISeries:
    window_sizes: Tuple[int, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        for lo, hi in zip(self.values, self.values[1:]):
            if hi < lo - SPECTRUM_SLACK:
                raise ArithmeticError(f"window series not nondecreasing: {lo} -> {hi}")


def _site_blocks(config: IntervalConfig) -> list[Tuple[int, int]]:
    spans = [(b - a) * config.resolution for a, b in config.intervals]
    if not all(math.isfinite(span) for span in spans):
        raise ValueError(f"lattice sites exceed the limit of {MAX_SITES}; lower the resolution")
    counts = [max(2, int(round(span))) for span in spans]
    if sum(counts) > MAX_SITES:
        raise ValueError(f"{sum(counts)} lattice sites exceed the limit of {MAX_SITES}; lower the resolution")
    blocks = [(int(round(a * config.resolution)), n) for (a, _), n in zip(config.intervals, counts)]
    # `_kernel_tables` takes np.arange up to one past the largest separation, float64 if that leaves int64
    if max(s + n for s, n in blocks) - min(s for s, _ in blocks) > np.iinfo(np.int64).max:
        raise ValueError("lattice sites too far apart: every separation must fit in int64; lower the resolution")
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
    `_eigh_eigenvalues`, reads them).  sym(-d) = conj sym(d) exactly: float
    addition commutes and conj is exact.
    """
    tables, lowest = [], []
    for si, ni in runs:
        row, lows = [], []
        for sj, nj in runs:
            d = np.arange(si - (sj + nj - 1), si + ni - sj)
            row.append(0.5 * (_kernel(d) + _kernel(-d).conj()))
            lows.append(int(d[0]))
        tables.append(tuple(row))
        lowest.append(tuple(lows))
    return tuple(tables), tuple(lowest)


def build_covariance(config: IntervalConfig) -> CovarianceSystem:
    runs = tuple(_site_blocks(config))
    return CovarianceSystem(runs=runs, split=config.split, kernel=KernelTables(*_kernel_tables(runs)))


def _binary_entropy_sums(*spectra: np.ndarray) -> list[float]:
    """sum h(w) over each spectrum, from one x ln x pass over all of them.

    Each spectrum is summed strictly left to right from +0.0, not pairwise:
    the reported digits of every mutual information depend on this order.
    Its terms follow a +0.0 on a row of a table padded with +0.0, which adds
    nothing to such a sum, and all rows are accumulated at once.
    """
    sizes = np.array([len(s) for s in spectra])
    w = np.clip(np.concatenate(spectra), 0.0, 1.0)
    wlogw = xlogx(np.stack((w, 1.0 - w)))
    rows = np.zeros((sizes.size, sizes.max() + 1))
    rows[:, 1:][np.arange(sizes.max()) < sizes[:, None]] = -(wlogw[0] + wlogw[1])
    return np.add.accumulate(rows, axis=1)[:, -1].tolist()


def _shares(sys: CovarianceSystem, region: Optional[int], parity: Optional[int] = None) -> tuple[list, int]:
    """((run, first site, step, sites) of each run of region 0, 1 or (None) both, keeping the
    sites of one parity (0 even, 1 odd) or (None) all of them; their number of sites)."""
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
    return shares, sum(m for *_, m in shares)


def _block(sys: CovarianceSystem, ws: np.ndarray, rows: tuple, cols: tuple, part: Optional[int] = None) -> np.ndarray:
    """C[rows, cols] (its real or imaginary part for part 0 or 1) for the `_shares` rows and cols, copied into
    the start of the float64 workspace ws in Fortran order, the layout in which LAPACK reduces it in place.
    Each pair of shares is a Toeplitz block, a strided view of its kernel table: one row down is `step`
    entries on, one column right `step` entries back; a complex entry is 16 bytes, its real part the first 8."""
    (row_shares, m), (col_shares, k) = rows, cols
    dtype, half = (complex, 0) if part is None else (np.float64, 8 * part)
    out, tables, lowest = np.ndarray((m, k), dtype, ws, order="F"), sys.kernel.tables, sys.kernel.lowest
    r = 0
    for i, s, step, p in row_shares:
        c = 0
        for j, t, _, q in col_shares:
            if p and q:
                out[r:r + p, c:c + q] = np.ndarray((p, q), dtype, tables[i][j], (s - t - lowest[i][j]) * 16 + half,
                                                   (16 * step, -16 * step))
            c += q
        r += p
    return out


def _sublattice_singular_values(sys: CovarianceSystem, ws: np.ndarray, even: tuple, odd: tuple):
    """(svd(B), |rows - columns| of B) of the block B = C[even, odd] of a region or of C.

    The Hardy kernel couples only sites of opposite parity, so C and each
    region block is [[I/2, B], [B^H, I/2]] in the parity split (checked on
    the tables by KernelTables), and its spectrum is 1/2 +- svd(B),
    padded with 1/2.  B is purely imaginary (also checked there), so it has
    the singular values of its imaginary part, a real matrix copied from the
    tables into the start of ws, where `_singular_values` reduces it.
    """
    b = _block(sys, ws, even, odd, part=1)
    return _singular_values(b, ws), abs(b.shape[0] - b.shape[1])


def _covariance_spectrum(sys: CovarianceSystem, ws: np.ndarray, rows: tuple):
    """(eigenvalues, ||C||_F, Tr C) of C, copied into the start of ws and reduced there; the norm is
    np.linalg.norm's bit for bit, from its dot products of views of C, without calling np.linalg."""
    c = _block(sys, ws, rows, rows)
    v = c.ravel(order="K")
    norm, trace = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)), np.trace(c).real
    return _eigh_eigenvalues(c, ws), norm, trace


def _system_jobs(sys: CovarianceSystem) -> list:
    """(workspace entries, sites, solve(ws)) of each region's eigenvalues, the SVDs of the blocks B of each
    region and C, and C's eigenvalues; single-run regions of equal length share one job.  An SVD needs its
    block and dgesdd's work array.  The share lists and sizes of every block are planned here, once per
    system, for its jobs."""
    runs = sys.runs
    plan = {(r, parity): _shares(sys, r, parity) for r in (0, 1, None) for parity in (None, 0, 1)}
    eig = [(2 * rows[1] ** 2, rows[1], lambda ws, rows=rows: _eigvalsh_eigenvalues(_block(sys, ws, rows, rows)))
           for rows in (plan[0, None], plan[1, None])]
    svd = [(even[1] * odd[1] + _svd_workspace(even[1], odd[1]), max(even[1], odd[1]),
            lambda ws, even=even, odd=odd: _sublattice_singular_values(sys, ws, even, odd))
           for even, odd in ((plan[r, 0], plan[r, 1]) for r in (0, 1, None))]
    if sys.split == 1 and len(runs) == 2 and runs[0][1] == runs[1][1]:    # svd[0] if one parity
        eig[1], svd[1] = eig[0], svd[runs[0][0] % 2 != runs[1][0] % 2]
    n, c = sys.size, plan[None, None]
    return [*eig, *svd, (2 * n * n + 4 * n + 16, n, lambda ws: _covariance_spectrum(sys, ws, c))]


def _lanes() -> int:
    """2 where the OpenBLAS of `_pinned_lapack` runs one thread and the process may use two CPUs, else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = _blas_threads_getter()
    return 2 if cpus >= 2 and threads is not None and threads() == 1 else 1


def _run_jobs(jobs: list, lanes: int) -> list:
    """The result or raised exception of each job of `_system_jobs`, solved in one new workspace.

    C, the last job of largest need (the last system's C from 17 sites on), needs ws[:need(C)]; one lane
    runs every job in order there, C last, unless a job has failed.  On two lanes, if C has LANE_MIN_C_SITES,
    the jobs below LANE_MIN_SITES sites are "beside" C.  Phase 1 runs the others but C: the main thread in
    ws[:split] (split their largest need, 64-byte aligned), and a worker in ws[split:need(C)] if one of at
    least LANE_MIN_SITES sites fits there.  Phase 2: unless a job has failed, the worker solves C in
    ws[:need(C)], then joins the main thread on the beside jobs, in ws[:need(C)] and in the 64-byte aligned
    slice after it.  Else C runs alone, after the others.  Each free lane pulls from one pool, under a lock,
    the job with the most sites left that fits its slice (and, for the phase-1 worker, has LANE_MIN_SITES).
    Which lane runs a job may follow timing; the workspace, each slice's size and 64-byte alignment, and so
    every bit, follow the request only."""
    c = max(reversed(range(len(jobs))), key=lambda i: jobs[i][0])
    need, out = jobs[c][0], [None] * len(jobs)
    rest = [i for i in range(len(jobs)) if i != c]
    beside = [i for i in rest if jobs[i][1] < LANE_MIN_SITES] if lanes == 2 and jobs[c][1] >= LANE_MIN_C_SITES else []
    first = [i for i in rest if i not in beside]
    at = -(-need // 8) * 8      # the beside slice starts 64-byte aligned after C's
    ws = np.empty(at + max(jobs[i][0] for i in beside) if beside else need)
    lock = threading.Lock()

    def solve(i, view):
        try:
            out[i] = jobs[i][2](view)
        except Exception as exc:        # raised by the caller, in order, after the worker is joined
            out[i] = exc

    def pull(pool, view, min_sites=0):
        while True:
            with lock:
                fits = [i for i in pool if jobs[i][0] <= view.size and jobs[i][1] >= min_sites]
                if not fits:
                    return
                i = min(fits, key=lambda i: -jobs[i][1])
                pool.remove(i)
            solve(i, view)

    def pair(main, worker):
        thread = threading.Thread(target=worker)
        thread.start()
        try:
            main()
        finally:
            thread.join()

    split = -(-max((jobs[i][0] for i in first), default=0) // 8) * 8
    if lanes == 2 and any(jobs[i][1] >= LANE_MIN_SITES and jobs[i][0] <= need - split for i in first):
        pair(lambda: pull(first, ws[:split]), lambda: pull(first, ws[split:need], LANE_MIN_SITES))
    else:
        for i in first:
            solve(i, ws[:split])
    c_runs = not any(isinstance(result, Exception) for result in out)

    def worker():
        if c_runs:
            solve(c, ws[:need])
        pull(beside, ws[:need])

    if beside:
        pair(lambda: pull(beside, ws[at:]), worker)
    elif c_runs:
        solve(c, ws[:need])
    return out


def _sigma_traces(systems: Sequence[CovarianceSystem]) -> list[float]:
    """sigma_trace of each system, from one `_run_jobs` of their distinct jobs, planned on the lane count
    read here once, and one entropy pass over the spectra of both routes of every system; errors
    surface system by system, as in a loop over the systems."""
    slots = [_system_jobs(sys) for sys in systems]
    jobs = list({id(job): job for jobs in slots for job in jobs}.values())
    done = dict(zip(map(id, jobs), _run_jobs(jobs, _lanes())))
    results = [[done[id(job)] for job in jobs] for jobs in slots]
    solved = list(itertools.takewhile(lambda r: not any(isinstance(x, Exception) for x in r), results))
    # per system: S_1, S_2, S_12 from the eigenvalues, then their sublattice halves from 1/2 + svd(B)
    sums = _binary_entropy_sums(*(spectrum for w1, w2, *svds, (w, _, _) in solved
                                  for spectrum in (w1, w2, w, *(0.5 + s for s, _ in svds)))) if solved else []
    values = []
    for k, (w1, w2, *svds, (w, norm, trace)) in enumerate(solved):
        miss = max(abs(w.sum() - trace), abs(np.linalg.norm(w) - norm))
        if miss > RECOMPOSITION_TOL * max(1.0, norm):
            raise ArithmeticError(f"covariance eigenvalues miss the trace or norm of C ({miss:.3e})")
        if w[0] < -SPECTRUM_SLACK or w[-1] > 1.0 + SPECTRUM_SLACK:
            raise ArithmeticError(f"covariance spectrum escapes [0, 1]: [{w[0]}, {w[-1]}]")
        s1, s2, s12, *halves = sums[6 * k:6 * k + 6]
        value = s1 + s2 - s12
        # each padding eigenvalue 1/2 of [[I/2, B], [B^H, I/2]] adds ln 2
        h1, h2, h12 = (2.0 * h + pad * math.log(2.0) for h, (_, pad) in zip(halves, svds))
        check = h1 + h2 - h12
        if abs(check - value) > TWO_PATH_TOL * max(1.0, abs(value)):
            raise ArithmeticError(f"sigma trace routes disagree: eigensolve {value} vs sublattice SVD {check}")
        if value < -SPECTRUM_SLACK:
            raise ArithmeticError(f"negative mutual information {value}")
        values.append(value)
    if len(solved) < len(results):
        raise next(x for x in results[len(solved)] if isinstance(x, Exception))
    return values


def sigma_trace(sys: CovarianceSystem) -> float:
    """Tr sigma_C = S_1 + S_2 - S_12, computed by two independent routes.

    The returned value takes S_12 from `_eigh_eigenvalues` of C, the bits of
    `eigh` without the eigenvectors of C (the reported digits are pinned to
    that LAPACK path).  Those eigenvalues must sum to Tr C, have 2-norm
    ||C||_F and lie in [0, 1] up to SPECTRUM_SLACK.  S_X comes from
    `_eigvalsh_eigenvalues` of each region block, the bits of `eigvalsh`.
    The check recomputes all three entropies from half-size real SVDs of
    the even x odd blocks B of C and of each region, which share no
    factorization with the first route; the singular values come from
    `_singular_values`, the bits of `svd`.  Each matrix is copied from the
    tables into one workspace per request (`_sigma_traces`) and reduced in
    place; equal region blocks are solved once.  At one OpenBLAS thread the
    solves run on two lanes (`_run_jobs`), which move no bit: each lane
    pulls the largest job left that fits its slice, and the worker starts
    the largest C as soon as the large jobs are done.  The entropy sums of
    both routes of every system take one pass per request.
    """
    return _sigma_traces([sys])[0]


def mutual_information_value(config: IntervalConfig) -> float:
    """Mutual information of the two regions, in nats."""
    return config.components * sigma_trace(build_covariance(config))


def _windowed_system(sys: CovarianceSystem, fraction: float) -> CovarianceSystem:
    """Centered sub-run of every run, sharing sys's kernel tables, checked when sys was built; windows
    at growing fractions are nested and commute with the region selector."""
    runs = []
    for i, (first, count) in enumerate(sys.runs):
        w = int(round(fraction * count))
        if w < 1:
            raise ValueError(f"window fraction {fraction} leaves interval {i} empty")
        runs.append((first + (count - w) // 2, w))
    return replace(sys, runs=tuple(runs))


def _refuse_repeats(systems: Sequence[CovarianceSystem], inputs: Sequence[float], what: str) -> None:
    """ValueError naming both inputs when two systems of a request are the same lattice (equal runs): their
    values would agree exactly, so `mi`'s window series would hold two equal entries and `converge`'s
    uncertainty would read 0."""
    consequence = {"window fractions": "the window series would hold two equal entries",
                   "resolutions": "the extrapolation's uncertainty would read 0"}[what]
    first = {}
    for sys, x in zip(systems, inputs):
        if sys.runs in first:
            raise ValueError(f"{what} {first[sys.runs]!r} and {x!r} give the same lattice, whose values would agree "
                             f"exactly: {consequence}")
        first[sys.runs] = x


def mi_convergence(config: IntervalConfig, window_fractions: Sequence[float]) -> MISeries:
    """Tr sigma_{C_p} along centered windows growing to the full system."""
    fracs = [float(f) for f in window_fractions]
    if not fracs or any(f2 <= f1 for f1, f2 in zip(fracs, fracs[1:])):
        raise ValueError("window fractions must be strictly increasing")
    if not all(0.0 < f <= 1.0 for f in fracs) or fracs[-1] != 1.0:
        raise ValueError("window fractions must lie in (0, 1] and end at 1")
    sys = build_covariance(config)
    windows = [sys if f == 1.0 else _windowed_system(sys, f) for f in fracs]
    _refuse_repeats(windows, fracs, "window fractions")
    values = [config.components * v for v in _sigma_traces(windows)]
    return MISeries(window_sizes=tuple(wsys.size for wsys in windows), values=tuple(values))


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
    if not res or any(r2 <= r1 for r1, r2 in zip(res, res[1:])):
        raise ValueError("resolutions must be nonempty and increasing")
    # Every system is built, and an oversized one refused, before the first solve.
    systems = [build_covariance(replace(config, resolution=r)) for r in res]
    _refuse_repeats(systems, res, "resolutions")
    values = [config.components * v for v in _sigma_traces(systems)]
    extrapolated, err = richardson(values)
    return {"resolutions": res, "values": values,
            "extrapolated": extrapolated, "uncertainty": err}

