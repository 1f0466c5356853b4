"""Randomized inequality audits.

Each audit runs seeded random instances through one of the proved operator
inequalities and reports the violation count and the worst margin (positive
margin = slack, negative = violation).  Every trial draws from its own
spawned RNG stream, so the report is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import rand, relent, spectral, tau
from .relent import BipartiteShape, TraceExpectation
from .report import AuditReport

DEFAULT_T_SAMPLES = (1e-3, 1e-2, 0.1, 1.0, 10.0)
AUDIT_TOL = 1e-9
# Every trial's RNG stream is spawned up front (about 0.36 KiB each), so the
# count is refused above this before anything is allocated.
MAX_TRIALS = 100_000


def _run_trials(fn: Callable[[np.random.Generator, int], dict], trials: int, seed: int) -> list[dict]:
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    seeds = np.random.SeedSequence(seed).spawn(trials)
    return [fn(np.random.default_rng(s), i) for i, s in enumerate(seeds)]


def _summarize(suite: str, rows: list[dict], tol: float = AUDIT_TOL) -> AuditReport:
    worst = min((r["margin"] for r in rows), default=math.inf)
    violations = sum(1 for r in rows if r["margin"] < -tol)
    return AuditReport(suite=suite, trials=len(rows), violations=violations,
                       worst_margin=worst, rows=rows)


def pinch_audit(trials: int, seed: int, max_dim: int = 12) -> AuditReport:
    """B = (A + UAU)/2 exactly and B - A/2 is PSD."""

    def one(rng: np.random.Generator, i: int) -> dict:
        dim = int(rng.integers(2, max_dim + 1))
        a = rand.random_psd(rng, dim)
        p = rand.random_block_projection(rng, dim)
        b = tau.pinch(a, p)
        u = 2 * p.mat - np.eye(dim)
        identity_gap = float(np.linalg.norm(b.mat - 0.5 * (a.mat + u @ a.mat @ u)))
        half_margin = float(np.linalg.eigvalsh(b.mat - 0.5 * a.mat)[0])
        return {"trial": i, "dim": dim, "identity_gap": identity_gap,
                "margin": min(half_margin, 1e-12 - identity_gap)}

    return _summarize("pinch", _run_trials(one, trials, seed))


def epsilon_shift_audit(trials: int, seed: int, max_dim: int = 10,
                        eps_values: Sequence[float] = (0.1, 0.01)) -> AuditReport:
    """tau_A - tau_{A+eps} is PSD for every eps > 0."""

    def one(rng: np.random.Generator, i: int) -> dict:
        dim = int(rng.integers(2, max_dim + 1))
        a = rand.random_psd(rng, dim)
        p = rand.random_block_projection(rng, dim)
        t0 = tau.tau_spectral(a, p).tau
        margin = math.inf
        for eps in eps_values:
            diff = t0.mat - tau.tau_epsilon_shift(a, p, eps).mat
            margin = min(margin, float(np.linalg.eigvalsh(diff)[0]))
        return {"trial": i, "dim": dim, "margin": margin}

    return _summarize("epsilon_shift", _run_trials(one, trials, seed))


def resolvent_audit(trials: int, seed: int, max_dim: int = 12,
                    t_samples: Sequence[float] = DEFAULT_T_SAMPLES) -> AuditReport:
    """||(t+B)^{-1} A|| <= ||A||^{1/2} t^{-1/2} at the sampled t."""

    def one(rng: np.random.Generator, i: int) -> dict:
        dim = int(rng.integers(2, max_dim + 1))
        a = rand.random_psd(rng, dim)
        p = rand.random_block_projection(rng, dim)
        rows = tau.resolvent_bound_check(a, p, t_samples)
        return {"trial": i, "dim": dim, "margin": min(r["margin"] for r in rows)}

    return _summarize("resolvent_bound", _run_trials(one, trials, seed))


def integrand_psd_audit(trials: int, seed: int, max_dim: int = 10,
                        t_samples: Sequence[float] = DEFAULT_T_SAMPLES) -> AuditReport:
    """Operator convexity: the resolvent integrand is PSD at every t > 0."""

    def one(rng: np.random.Generator, i: int) -> dict:
        dim = int(rng.integers(2, max_dim + 1))
        a = rand.random_psd(rng, dim)
        p = rand.random_block_projection(rng, dim)
        b = tau.pinch(a, p)
        margin = math.inf
        for t in t_samples:
            m = tau.resolvent_integrand(a, b, p, t)
            margin = min(margin, float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]))
        return {"trial": i, "dim": dim, "margin": margin}

    return _summarize("integrand_psd", _run_trials(one, trials, seed))


def fan_audit(trials: int, seed: int, max_dim: int = 20) -> AuditReport:
    """Fan's singular value inequality on random pairs."""

    def one(rng: np.random.Generator, i: int) -> dict:
        dim = int(rng.integers(2, max_dim + 1))
        f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rep = spectral.fan_inequality_check(f, g)
        return {"trial": i, "dim": dim, "margin": rep["worst_margin"],
                "checked": rep["checked"]}

    return _summarize("fan_inequality", _run_trials(one, trials, seed), tol=1e-10)


def half_power_audit(trials: int, seed: int, max_dim: int = 20) -> AuditReport:
    """Tr |F1|^{1/2} <= (sqrt(2)+1) Tr |F|^{1/2} on random matrices."""

    def one(rng: np.random.Generator, i: int) -> dict:
        dim = int(rng.integers(2, max_dim + 1))
        f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        p = rand.random_block_projection(rng, dim)
        lhs, rhs = spectral.offdiag_half_trace(f, p)
        return {"trial": i, "dim": dim, "margin": rhs - lhs}

    return _summarize("half_power_bound", _run_trials(one, trials, seed))


def index_audit(trials: int, seed: int, k: int = 2) -> AuditReport:
    """Entropy/index gap: S(rho, rho.E) <= ln(k^2) on random states."""
    e = TraceExpectation(shape=BipartiteShape(k, k), traced_factor="A")
    bound = math.log(k * k)

    def one(rng: np.random.Generator, i: int) -> dict:
        rho = rand.random_density(rng, k * k)
        s, _ = relent.entropy_index_gap(k, rho, e)
        return {"trial": i, "s": s, "margin": bound - s}

    rows = _run_trials(one, trials, seed)
    rep = _summarize("entropy_index_gap", rows, tol=1e-8)
    return rep


def pimsner_popa_audit(trials: int, seed: int, k: int = 2, m: int = 3) -> AuditReport:
    """E(a) >= a / k^2 for PSD a on the k (x) m factor algebra."""
    e = TraceExpectation(shape=BipartiteShape(k, m), traced_factor="A")

    def one(rng: np.random.Generator, i: int) -> dict:
        a = rand.random_psd(rng, k * m).mat
        return {"trial": i, "margin": relent.pimsner_popa_margin(a, e)}

    return _summarize("pimsner_popa", _run_trials(one, trials, seed))


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
