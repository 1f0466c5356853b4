"""Randomized inequality audits.

Each audit runs seeded random instances through one of the proved operator
inequalities and reports the violation count and the worst margin (positive
margin = slack, negative = violation).  Every trial draws from its own
spawned RNG stream, so the report is deterministic for a fixed seed.

The trials of a chunk are grouped by dimension; each group is drawn
straight into its stacks, each trial from its own stream as it would draw
alone, and goes through the library's stacked kernels, one LAPACK call per
step.  Stacked calls give every matrix the bits of its own call, so the rows
equal those of trial-by-trial evaluation; they are emitted in trial order.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import rand, relent, spectral, tau
from .operators import _frobenius, symmetrised
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
# (about 0.9 KiB of generator state each), and the most entries of a batch's
# stack of matrices (64 KiB complex; a tau kernel stacks up to
# len(T_SAMPLES) of them per trial): the working set stays the same
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


def _run_trials(dim_of: Callable[[np.random.Generator], int], draw: Callable[..., list],
                evaluate: Callable[..., dict], trials: int, seed: int) -> list[dict]:
    """Rows of `trials` seeded trials, in trial order.

    Trial i draws from its own stream: first its dim, dim_of(rng), then its
    instance.  draw(rngs, dim) draws a batch of trials of one dim, with one
    generator each, as a sequence of stacks along a leading trial axis;
    evaluate(dim, *stacks) returns the batch's row columns.
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
            columns = evaluate(dim, *draw([rngs[j] for j in batch], dim))
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


def _square_and_mask(rngs: list, dim: int) -> list:
    """The draws of random_psd, then of random_block_projection, of each generator."""
    return [*rand.gaussian_stacks(rngs, dim), rand.block_memberships(rngs, dim)]


def _psd(factors: np.ndarray) -> np.ndarray:
    """The random_psd operators of a stack of factors: PSD by construction, so no kernel checks them."""
    return symmetrised(rand.psd_from_factor(factors))


def pinch_audit(trials: int, seed: int) -> AuditReport:
    """B = (A + UAU)/2 exactly and B - A/2 is PSD."""

    def evaluate(dim: int, factors: np.ndarray, inside: np.ndarray) -> dict:
        a = _psd(factors)
        b = tau._block_compress(a, inside)
        sign = np.where(inside, 1.0, -1.0)  # the diagonal of U = 2P - 1
        uau = sign[:, :, None] * a * sign[:, None, :]
        # Each entry of the difference is a - (a + a)/2 or 0 - (a - a)/2, exactly 0 in floating point too,
        # so no summation order reaches the report.
        gap = _frobenius(b - 0.5 * (a + uau))
        half_margin = np.linalg.eigvalsh(b - 0.5 * a)[:, 0]
        return {"dim": np.full(len(a), dim), "identity_gap": gap,
                "margin": np.minimum(half_margin, 1e-12 - gap)}

    return _summarize("pinch", _run_trials(_random_dim("pinch"), _square_and_mask, evaluate, trials, seed))


def epsilon_shift_audit(trials: int, seed: int) -> AuditReport:
    """tau_A - tau_{A+eps} is PSD for every eps > 0."""

    def evaluate(dim: int, factors: np.ndarray, inside: np.ndarray) -> dict:
        a = _psd(factors)
        taus = tau._tau_shifts(a, *np.linalg.eigh(a), inside, (0.0, *EPS_VALUES))
        gaps = np.linalg.eigvalsh(taus[:, :1] - taus[:, 1:])[..., 0]
        return {"dim": np.full(len(a), dim), "margin": np.min(gaps, axis=-1)}

    rows = _run_trials(_random_dim("epsilon_shift"), _square_and_mask, evaluate, trials, seed)
    return _summarize("epsilon_shift", rows)


def resolvent_audit(trials: int, seed: int) -> AuditReport:
    """||(t+B)^{-1} A|| <= ||A||^{1/2} t^{-1/2} at the sampled t."""

    def evaluate(dim: int, factors: np.ndarray, inside: np.ndarray) -> dict:
        a = _psd(factors)
        # eigh, not eigvalsh: rhs reads ||A|| from these bits, those of HermitianOperator.eigenvalues.
        lhs, rhs = tau._resolvent_bounds(a, np.linalg.eigh(a)[0], inside, T_SAMPLES)
        return {"dim": np.full(len(a), dim), "margin": np.min(rhs - lhs, axis=-1)}

    rows = _run_trials(_random_dim("resolvent_bound"), _square_and_mask, evaluate, trials, seed)
    return _summarize("resolvent_bound", rows)


def integrand_psd_audit(trials: int, seed: int) -> AuditReport:
    """Operator convexity: the resolvent integrand is PSD at every t > 0."""

    def evaluate(dim: int, factors: np.ndarray, inside: np.ndarray) -> dict:
        a = _psd(factors)
        m = tau._resolvent_integrand(a, tau._block_compress(a, inside), inside, T_SAMPLES)
        return {"dim": np.full(len(a), dim), "margin": np.min(np.linalg.eigvalsh(symmetrised(m))[..., 0], axis=-1)}

    rows = _run_trials(_random_dim("integrand_psd"), _square_and_mask, evaluate, trials, seed)
    return _summarize("integrand_psd", rows)


def fan_audit(trials: int, seed: int) -> AuditReport:
    """Fan's singular value inequality on random pairs."""

    def evaluate(dim: int, f: np.ndarray, g: np.ndarray) -> dict:
        margins = spectral._fan_margins(f, g)
        return {"dim": np.full(len(f), dim), "margin": np.min(margins, axis=-1),
                "checked": np.full(len(f), margins.shape[-1])}

    rows = _run_trials(_random_dim("fan_inequality"), lambda rngs, dim: rand.gaussian_stacks(rngs, dim, count=2),
                       evaluate, trials, seed)
    return _summarize("fan_inequality", rows, tol=1e-10)


def half_power_audit(trials: int, seed: int) -> AuditReport:
    """Tr |F1|^{1/2} <= (sqrt(2)+1) Tr |F|^{1/2} on random matrices."""

    def evaluate(dim: int, f: np.ndarray, inside: np.ndarray) -> dict:
        lhs, rhs = spectral._offdiag_half_traces(f, inside)
        return {"dim": np.full(len(f), dim), "margin": rhs - lhs}

    rows = _run_trials(_random_dim("half_power_bound"), _square_and_mask, evaluate, trials, seed)
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


def index_audit(trials: int, seed: int, k: int = 2) -> AuditReport:
    """Entropy/index gap: S(rho, rho.E) <= ln(k^2) on random states."""
    _check_k(k, trials)
    e = TraceExpectation(shape=BipartiteShape(k, k), traced_factor="A")
    bound = math.log(k * k)

    def evaluate(dim: int, factors: np.ndarray) -> dict:
        rho = symmetrised(rand.density_from_factor(factors))  # a density matrix by construction
        s = relent._entropy_index_gaps(rho, np.clip(np.linalg.eigh(rho)[0], 0.0, None), e)
        return {"s": s, "margin": bound - s}

    rows = _run_trials(_fixed_dim(k * k), rand.gaussian_stacks, evaluate, trials, seed)
    return _summarize("entropy_index_gap", rows, tol=1e-8)


def pimsner_popa_audit(trials: int, seed: int, k: int = 2) -> AuditReport:
    """E(a) >= a / k^2 for PSD a on the k (x) m factor algebra."""
    _check_k(k, trials)
    e = TraceExpectation(shape=BipartiteShape(k, PIMSNER_POPA_M), traced_factor="A")

    def evaluate(dim: int, factors: np.ndarray) -> dict:
        return {"margin": relent._pimsner_popa_margins(_psd(factors), e)}

    rows = _run_trials(_fixed_dim(k * PIMSNER_POPA_M), rand.gaussian_stacks, evaluate, trials, seed)
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
