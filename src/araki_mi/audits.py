"""Randomized inequality audits.

Each audit runs seeded random instances through one of the proved operator
inequalities and reports the violation count and the worst margin (positive
margin = slack, negative = violation).  Every trial draws from its own
spawned RNG stream, so the report is deterministic for a fixed seed.

The trials are drawn one by one, then evaluated together: the trials of a
chunk are grouped by dimension and each group goes through the library's
stacked kernels, one LAPACK call per step.  Stacked calls give every matrix
the bits of its own call, so the rows equal those of trial-by-trial
evaluation; they are emitted in trial order.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import rand, relent, spectral, tau
from .operators import checked_eigh, hermitian_stack
from .relent import BipartiteShape, TraceExpectation
from .report import AuditReport

# Largest random dimension of each randomized suite (dims are drawn from [2, MAX_DIM]).
MAX_DIM = {"pinch": 12, "epsilon_shift": 10, "resolvent_bound": 12, "integrand_psd": 10,
           "fan_inequality": 20, "half_power_bound": 20}
EPS_VALUES = (0.1, 0.01)
T_SAMPLES = (1e-3, 1e-2, 0.1, 1.0, 10.0)
PIMSNER_POPA_M = 3     # dimension of the factor that E keeps
AUDIT_TOL = 1e-9
# Every trial keeps a row in the report (about 0.3 KiB), so the count is
# refused above this before anything is allocated.
MAX_TRIALS = 100_000
# Trials whose streams are spawned and whose dimensions are drawn together
# (about 0.9 KiB of generator state each), and the most matrix entries a
# stacked call may hold (64 KiB complex): the working set stays the same
# whatever the trial count, and large matrices go a few at a time.
CHUNK_TRIALS = 256
BATCH_ENTRIES = 1 << 12
# index-analog states are k^2 x k^2 dense matrices; at most this many entries.
MAX_STATE_ENTRIES = 1_000_000
MAX_K = math.isqrt(math.isqrt(MAX_STATE_ENTRIES))
# An index-analog trial costs about 6.3e-9 s * (INDEX_TRIAL_OVERHEAD +
# INDEX_K4_WEIGHT * k^4 + k^6) through the CLI on a 2-CPU box: k^6 for the
# eigensolves of its k^2 x k^2 states, a fixed part (drawing, its report row),
# and a k^4 term that the timings at k = 5-16 need, the three fitted together
# to 31 timed runs at k = 1-31.  Requests of more work are refused; the largest
# admitted ones take about a minute at every k (52-67 s, README lists them).
INDEX_TRIAL_OVERHEAD = 16_000
INDEX_K4_WEIGHT = 120
MAX_INDEX_WORK = 9_000_000_000


def _run_trials(dim_of: Callable[[np.random.Generator], int], draw: Callable[..., tuple],
                evaluate: Callable[..., dict], trials: int, seed: int) -> list[dict]:
    """Rows of `trials` seeded trials, in trial order.

    Trial i draws from its own stream: first its dim, dim_of(rng), then
    draw(rng, dim), a tuple of arrays.  evaluate(dim, *stacks) gets those
    arrays for a batch of trials of one dim, stacked along a new leading
    axis, and returns the batch's row columns.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    root = np.random.SeedSequence(seed)
    rows: list[dict] = []
    for start in range(0, trials, CHUNK_TRIALS):
        rngs = [np.random.default_rng(s) for s in root.spawn(min(CHUNK_TRIALS, trials - start))]
        rows.extend(_chunk_rows(rngs, start, dim_of, draw, evaluate))
    return rows


def _chunk_rows(rngs: list, start: int, dim_of, draw, evaluate) -> list[dict]:
    groups: dict[int, list[int]] = {}
    for j, rng in enumerate(rngs):
        groups.setdefault(dim_of(rng), []).append(j)
    rows: list = [None] * len(rngs)
    for dim, members in groups.items():
        step = max(1, BATCH_ENTRIES // (dim * dim))
        for batch in (members[i:i + step] for i in range(0, len(members), step)):
            stacks = [np.stack(arrays) for arrays in zip(*(draw(rngs[j], dim) for j in batch))]
            columns = evaluate(dim, *stacks)
            for j, values in zip(batch, zip(*(np.asarray(c).tolist() for c in columns.values()))):
                rows[j] = {"trial": start + j, **dict(zip(columns, values))}
    return rows


def _summarize(suite: str, rows: list[dict], tol: float = AUDIT_TOL) -> AuditReport:
    worst = min((r["margin"] for r in rows), default=math.inf)
    violations = sum(1 for r in rows if r["margin"] < -tol)
    return AuditReport(suite=suite, trials=len(rows), violations=violations,
                       worst_margin=worst, rows=rows)


def _random_dim(suite: str) -> Callable[[np.random.Generator], int]:
    return lambda rng: int(rng.integers(2, MAX_DIM[suite] + 1))


def _psd_and_mask(rng: np.random.Generator, dim: int) -> tuple:
    """The draws of random_psd, then of random_block_projection."""
    factor = rand.gaussian_matrix(rng, dim, dim)
    return factor, rand.block_membership(rng, dim)


def _psd(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, eigenvalues, eigenvectors) of the random_psd operators of a stack of factors."""
    a = hermitian_stack(rand.psd_from_factor(factors))
    return (a, *checked_eigh(a))


def pinch_audit(trials: int, seed: int) -> AuditReport:
    """B = (A + UAU)/2 exactly and B - A/2 is PSD."""

    def evaluate(dim: int, factors: np.ndarray, inside: np.ndarray) -> dict:
        a, w_a, _ = _psd(factors)
        b = tau._pinched(a, w_a, inside)
        u = np.zeros(a.shape, dtype=complex)
        u[:, np.arange(dim), np.arange(dim)] = np.where(inside, 1.0, -1.0)  # 2P - 1
        # Frobenius norms that reach the report keep np.linalg.norm's own summation order.
        gap = np.array([np.linalg.norm(g) for g in b - 0.5 * (a + u @ a @ u)])
        half_margin = np.linalg.eigvalsh(b - 0.5 * a)[:, 0]
        return {"dim": np.full(len(a), dim), "identity_gap": gap,
                "margin": np.minimum(half_margin, 1e-12 - gap)}

    return _summarize("pinch", _run_trials(_random_dim("pinch"), _psd_and_mask, evaluate, trials, seed))


def epsilon_shift_audit(trials: int, seed: int) -> AuditReport:
    """tau_A - tau_{A+eps} is PSD for every eps > 0."""

    def evaluate(dim: int, factors: np.ndarray, inside: np.ndarray) -> dict:
        a, w_a, u_a = _psd(factors)
        t0 = tau._tau_spectral(a, w_a, u_a, inside)
        margin = np.full(len(a), math.inf)
        for eps in EPS_VALUES:
            shifted = tau._tau_shifted(a, inside, eps)
            margin = np.minimum(margin, np.linalg.eigvalsh(t0 - shifted)[:, 0])
        return {"dim": np.full(len(a), dim), "margin": margin}

    rows = _run_trials(_random_dim("epsilon_shift"), _psd_and_mask, evaluate, trials, seed)
    return _summarize("epsilon_shift", rows)


def resolvent_audit(trials: int, seed: int) -> AuditReport:
    """||(t+B)^{-1} A|| <= ||A||^{1/2} t^{-1/2} at the sampled t."""

    def evaluate(dim: int, factors: np.ndarray, inside: np.ndarray) -> dict:
        a, w_a, _ = _psd(factors)
        lhs, rhs = tau._resolvent_bounds(a, w_a, inside, T_SAMPLES)
        return {"dim": np.full(len(a), dim), "margin": np.min(rhs - lhs, axis=-1)}

    rows = _run_trials(_random_dim("resolvent_bound"), _psd_and_mask, evaluate, trials, seed)
    return _summarize("resolvent_bound", rows)


def integrand_psd_audit(trials: int, seed: int) -> AuditReport:
    """Operator convexity: the resolvent integrand is PSD at every t > 0."""

    def evaluate(dim: int, factors: np.ndarray, inside: np.ndarray) -> dict:
        a, w_a, _ = _psd(factors)
        b = tau._pinched(a, w_a, inside)
        margin = np.full(len(a), math.inf)
        for t in T_SAMPLES:
            m = tau._resolvent_integrand(a, b, inside, t)[:, 0]
            margin = np.minimum(margin, np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m.conj(), -1, -2)))[:, 0])
        return {"dim": np.full(len(a), dim), "margin": margin}

    rows = _run_trials(_random_dim("integrand_psd"), _psd_and_mask, evaluate, trials, seed)
    return _summarize("integrand_psd", rows)


def fan_audit(trials: int, seed: int) -> AuditReport:
    """Fan's singular value inequality on random pairs."""

    def draw(rng: np.random.Generator, dim: int) -> tuple:
        f = rand.gaussian_matrix(rng, dim, dim)
        return f, rand.gaussian_matrix(rng, dim, dim)

    def evaluate(dim: int, f: np.ndarray, g: np.ndarray) -> dict:
        margins = spectral._fan_margins(f, g)
        return {"dim": np.full(len(f), dim), "margin": np.min(margins, axis=-1),
                "checked": np.full(len(f), margins.shape[-1])}

    rows = _run_trials(_random_dim("fan_inequality"), draw, evaluate, trials, seed)
    return _summarize("fan_inequality", rows, tol=1e-10)


def half_power_audit(trials: int, seed: int) -> AuditReport:
    """Tr |F1|^{1/2} <= (sqrt(2)+1) Tr |F|^{1/2} on random matrices."""

    def draw(rng: np.random.Generator, dim: int) -> tuple:
        f = rand.gaussian_matrix(rng, dim, dim)
        return f, rand.block_membership(rng, dim)

    def evaluate(dim: int, f: np.ndarray, inside: np.ndarray) -> dict:
        lhs, rhs = spectral._offdiag_half_traces(f, inside)
        return {"dim": np.full(len(f), dim), "margin": rhs - lhs}

    rows = _run_trials(_random_dim("half_power_bound"), draw, evaluate, trials, seed)
    return _summarize("half_power_bound", rows)


def _check_k(k: int, trials: int) -> None:
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K} (k^2 x k^2 states of at most "
                         f"{MAX_STATE_ENTRIES} entries), got {k}")
    if trials > max_index_trials(k):
        overhead = INDEX_TRIAL_OVERHEAD + INDEX_K4_WEIGHT * k**4
        raise ValueError(f"trials * ({overhead} + k^6) must be at most {MAX_INDEX_WORK} (about a minute of "
                         f"work; {overhead} = {INDEX_TRIAL_OVERHEAD} + {INDEX_K4_WEIGHT} k^4 is a trial's cost "
                         f"besides its k^6 eigensolves), so at most {max_index_trials(k)} trials at k = {k}, "
                         f"got {trials}; lower --k or --trials")


def max_index_trials(k: int) -> int:
    """The most index-analog trials admitted at k.

    trials * (INDEX_TRIAL_OVERHEAD + INDEX_K4_WEIGHT k^4 + k^6) <= MAX_INDEX_WORK.
    """
    return MAX_INDEX_WORK // (INDEX_TRIAL_OVERHEAD + INDEX_K4_WEIGHT * k**4 + k**6)


def _fixed_dim(dim: int) -> Callable[[np.random.Generator], int]:
    return lambda rng: dim


def _square_factor(rng: np.random.Generator, dim: int) -> tuple:
    """The draw of random_psd or of a full-rank random_density."""
    return (rand.gaussian_matrix(rng, dim, dim),)


def index_audit(trials: int, seed: int, k: int = 2) -> AuditReport:
    """Entropy/index gap: S(rho, rho.E) <= ln(k^2) on random states."""
    _check_k(k, trials)
    e = TraceExpectation(shape=BipartiteShape(k, k), traced_factor="A")
    bound = math.log(k * k)

    def evaluate(dim: int, factors: np.ndarray) -> dict:
        rho, w_rho, _ = relent._density_stack(rand.density_from_factor(factors))
        s = relent._entropy_index_gaps(rho, w_rho, e)
        return {"s": s, "margin": bound - s}

    rows = _run_trials(_fixed_dim(k * k), _square_factor, evaluate, trials, seed)
    return _summarize("entropy_index_gap", rows, tol=1e-8)


def pimsner_popa_audit(trials: int, seed: int, k: int = 2) -> AuditReport:
    """E(a) >= a / k^2 for PSD a on the k (x) m factor algebra."""
    _check_k(k, trials)
    e = TraceExpectation(shape=BipartiteShape(k, PIMSNER_POPA_M), traced_factor="A")

    def evaluate(dim: int, factors: np.ndarray) -> dict:
        a = hermitian_stack(rand.psd_from_factor(factors))
        return {"margin": relent._pimsner_popa_margins(a, e)}

    rows = _run_trials(_fixed_dim(k * PIMSNER_POPA_M), _square_factor, evaluate, trials, seed)
    return _summarize("pimsner_popa", rows)


def tau_audit(trials: int, seed: int) -> list[AuditReport]:
    """The operator-inequality battery behind the tau engine."""
    return [
        pinch_audit(trials, seed),
        epsilon_shift_audit(trials, seed + 1),
        resolvent_audit(trials, seed + 2),
        integrand_psd_audit(trials, seed + 3),
    ]


def spectral_audit(trials: int, seed: int) -> list[AuditReport]:
    return [fan_audit(trials, seed), half_power_audit(trials, seed + 1)]
