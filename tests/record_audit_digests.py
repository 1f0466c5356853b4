"""The audits trial by trial, and the SHA-256 of each pinned audit stdout in `audit_digests.json`.

Each trial's row comes from the library's single-instance calls on the trial's own spawned stream,
and each stdout from those rows through `_summarize` and `canonical_json`, never from the batched
audits; the batched CLI must print the same bytes.  For a meant answer change only,
`python tests/record_audit_digests.py` re-records the digests; it writes nothing if any CLI stdout
differs from the trial-by-trial one, and prints the old and new digest of each (command, trials, seed).
"""
import functools
import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
from araki_mi import audits, rand, relent, spectral, tau  # noqa: E402
from araki_mi.cli import main  # noqa: E402
from araki_mi.relent import BipartiteShape, TraceExpectation  # noqa: E402
from araki_mi.report import canonical_json  # noqa: E402

FILE = HERE / "audit_digests.json"
COMMAND_ARGS = {"tau-audit": [], "fan-audit": [], "index-analog": ["--k", "2"]}
# 50 trials at seeds 0-2; 500 trials at the benchmark's audit-battery seeds for its seed 0;
# 0, 1 and CHUNK_TRIALS - 1 .. + 1 trials.
CASES = sorted([(c, 50, s) for c in COMMAND_ARGS for s in range(3)]
               + [("tau-audit", 500, 2968811710), ("fan-audit", 500, 3677149159), ("index-analog", 500, 745650761)]
               + [(c, t, 5) for c in COMMAND_ARGS for t in (0, 1, 255, 256, 257)])


def trial_rows(one, trials, seed):
    streams = np.random.SeedSequence(seed).spawn(trials)
    return [one(np.random.default_rng(s), i) for i, s in enumerate(streams)]


def pinch_trial(rng, i, max_dim=12):
    dim = int(rng.integers(2, max_dim + 1))
    a = rand.random_psd(rng, dim)
    p = rand.random_block_projection(rng, dim)
    b = tau.pinch(a, p)
    u = 2 * np.diag(p.membership) - np.eye(dim)
    gap = float(np.linalg.norm(b.mat - 0.5 * (a.mat + u @ a.mat @ u)))
    half = float(np.linalg.eigvalsh(b.mat - 0.5 * a.mat)[0])
    return {"trial": i, "dim": dim, "identity_gap": gap, "margin": min(half, 1e-12 - gap)}


def epsilon_shift_trial(rng, i, max_dim=10):
    dim = int(rng.integers(2, max_dim + 1))
    a = rand.random_psd(rng, dim)
    p = rand.random_block_projection(rng, dim)
    t0 = tau.tau_spectral(a, p).tau
    margin = min(float(np.linalg.eigvalsh(t0.mat - tau._tau_shifts(a.mat, a.eigenvalues, a.eigenvectors,
                                                                   p.membership, [eps])[0])[0])
                 for eps in (0.1, 0.01))
    return {"trial": i, "dim": dim, "margin": margin}


def resolvent_trial(rng, i, max_dim=12):
    dim = int(rng.integers(2, max_dim + 1))
    a = rand.random_psd(rng, dim)
    p = rand.random_block_projection(rng, dim)
    lhs, rhs = tau._resolvent_bounds(a.mat, a.eigenvalues, p.membership, audits.T_SAMPLES)
    return {"trial": i, "dim": dim, "margin": min((rhs - lhs).tolist())}


def integrand_trial(rng, i, max_dim=10):
    dim = int(rng.integers(2, max_dim + 1))
    a = rand.random_psd(rng, dim)
    p = rand.random_block_projection(rng, dim)
    b = tau.pinch(a, p)
    margin = math.inf
    for t in audits.T_SAMPLES:
        m = tau.resolvent_integrand(a, b, p, t)
        margin = min(margin, float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]))
    return {"trial": i, "dim": dim, "margin": margin}


def fan_trial(rng, i, max_dim=20):
    dim = int(rng.integers(2, max_dim + 1))
    f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    margins = spectral._fan_margins(f, g)
    return {"trial": i, "dim": dim, "margin": min(margins.tolist()), "checked": margins.size}


def half_power_trial(rng, i, max_dim=20):
    dim = int(rng.integers(2, max_dim + 1))
    f = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lhs, rhs = spectral._offdiag_half_traces(f, rand.random_block_projection(rng, dim).membership)
    return {"trial": i, "dim": dim, "margin": float(rhs - lhs)}


def index_trial(rng, i, k=3):
    e = TraceExpectation(shape=BipartiteShape(k, k), traced_factor="A")
    s, bound = relent.entropy_index_gap(k, rand.random_density(rng, k * k), e)
    return {"trial": i, "s": s, "margin": bound - s}


def pimsner_popa_trial(rng, i, k=3, m=3):
    e = TraceExpectation(shape=BipartiteShape(k, m), traced_factor="A")
    return {"trial": i, "margin": float(relent._pimsner_popa_margins(rand.random_psd(rng, k * m).mat, e))}


# Each command's suites in its order: (suite, trial, seed offset, violation tolerance).
SUITES = {
    "tau-audit": [("pinch", pinch_trial, 0, 1e-9), ("epsilon_shift", epsilon_shift_trial, 1, 1e-9),
                  ("resolvent_bound", resolvent_trial, 2, 1e-9), ("integrand_psd", integrand_trial, 3, 1e-9)],
    "fan-audit": [("fan_inequality", fan_trial, 0, 1e-10), ("half_power_bound", half_power_trial, 1, 1e-9)],
    "index-analog": [("entropy_index_gap", functools.partial(index_trial, k=2), 0, 1e-8),
                     ("pimsner_popa", functools.partial(pimsner_popa_trial, k=2), 1, 1e-9)],
}


def library_stdout(command: str, trials: int, seed: int) -> str:
    """The command's stdout, built from its trials one by one."""
    reports = [audits._summarize(suite, trial_rows(one, trials, seed + offset), tol)
               for suite, one, offset, tol in SUITES[command]]
    return canonical_json([rep.to_payload() for rep in reports]) + "\n"


def cli_stdout(command: str, trials: int, seed: int) -> str:
    with redirect_stdout(io.StringIO()) as out:
        assert main([command, *COMMAND_ARGS[command], "--trials", str(trials), "--seed", str(seed)]) == 0
    return out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def recorded() -> dict:
    """{(command, trials, seed): SHA-256} of the file."""
    return {(d["command"], d["trials"], d["seed"]): d["sha256"] for d in json.loads(FILE.read_text())["digests"]}


if __name__ == "__main__":
    old, new = recorded() if FILE.exists() else {}, {}
    for case in CASES:
        stdout = library_stdout(*case)
        if cli_stdout(*case) != stdout:
            sys.exit(f"{case}: the CLI's stdout differs from the trial-by-trial one: nothing written")
        new[case] = digest(stdout)
    for case in CASES:
        print(*case, old.get(case, "-"), new[case], sep="  ")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    FILE.write_text(json.dumps({"stack": f"numpy {np.__version__}, {blas['name']} {blas['version']}",
                                "digests": [dict(zip(("command", "trials", "seed", "sha256"), (*case, new[case])))
                                            for case in CASES]}, indent=1) + "\n")
