"""Benchmark workloads: request lists, warm-up lists and correctness gates.

A request is one user-visible operation: an `araki-mi` command run in
process through `araki_mi.cli.main(argv)`, or a library call where the CLI
has no command.  Each request has a gate that checks its output against an
oracle independent of the code path under test, and a digest that is
compared with `reference.json` (recorded at DEFAULT_SEED) to a stated
tolerance.

`mi-large` and `mi-sweep` use fixed geometries, so their reference applies
at every seed.  `audit-battery` and `oracle-mix` draw their instances from
the workload seed; their seeded requests are compared with the reference
only at DEFAULT_SEED, and every other gate applies at every seed.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from araki_mi import cli, lattice, spectral, tau
from araki_mi.operators import HermitianOperator, OrthoProjection

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Request:
    id: str
    run: Callable[[Any], Any]                  # run(tracer or None) -> output
    gate: Callable[[Any, dict], list]          # gate(output, earlier outputs) -> [(gate, detail)]
    digest: Callable[[Any], dict]              # values compared with the reference
    seeded: bool = False                       # input drawn from the workload seed


# ---- oracles ----------------------------------------------------------------

def cfh_mutual_information(intervals) -> float:
    """Casini-Fosco-Huerta continuum MI of two intervals for a c = 1 Dirac fermion."""
    (a1, b1), (a2, b2) = sorted(tuple(iv) for iv in intervals)
    return math.log((a2 - a1) * (b2 - b1) / ((a2 - b1) * (b2 - a1))) / 3.0


def _xlogx_sum(w: np.ndarray) -> float:
    w = np.clip(w, 0.0, None)
    pos = w[w > 0.0]
    return float(np.sum(pos * np.log(pos)))


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


# ---- CLI requests -----------------------------------------------------------

def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_request(rid, argv, gate, digest, seeded=False) -> Request:
    def checked(out, ctx):
        if out["rc"] != 0:
            return [("exit", f"exit code {out['rc']}: {out['stderr'].strip()[:200]}")]
        out["payload"] = json.loads(out["stdout"])
        return gate(out["payload"], ctx)

    return Request(rid, lambda tracer: run_cli(argv), checked,
                   lambda out: digest(out["payload"]), seeded)


def _interval_text(intervals) -> str:
    return json.dumps(intervals, separators=(",", ":"))


def converge_request(intervals, resolutions) -> Request:
    res = ",".join(str(r) for r in resolutions)

    def gate(p, ctx):
        oracle = cfh_mutual_information(intervals)
        err = p["extrapolated"] - oracle
        if not abs(err) <= p["uncertainty"]:
            return [("cfh", f"|extrapolated - CFH| = {abs(err):.3e} > uncertainty {p['uncertainty']:.3e}")]
        return []

    return _cli_request(f"converge {_interval_text(intervals)} {res}",
                        ["converge", "--intervals", _interval_text(intervals), "--resolutions", res],
                        gate, lambda p: {"values": p["values"], "extrapolated": p["extrapolated"],
                                         "uncertainty": p["uncertainty"]})


def mi_request(intervals, resolution, components=1, windows=4) -> Request:
    rid = f"mi {_interval_text(intervals)} r{resolution} c{components}"
    single = f"mi {_interval_text(intervals)} r{resolution} c1"

    def gate(p, ctx):
        values = [row["value"] for row in p["series"]]
        problems = []
        if len(values) != windows:
            problems.append(("windows", f"{len(values)} windows, expected {windows}"))
        if any(b < a - 1e-9 for a, b in zip(values, values[1:])) or p["mi_nats"] != values[-1]:
            problems.append(("series", "window series not nondecreasing or not ending at mi_nats"))
        if components > 1:
            base = ctx.get(single, {}).get("payload")
            if base is None:
                problems.append(("components", f"no components=1 output for {single}"))
            elif not close(p["mi_nats"], components * base["mi_nats"], 1e-12):
                problems.append(("components", f"{p['mi_nats']!r} != {components} x {base['mi_nats']!r}"))
        return problems

    argv = ["mi", "--intervals", _interval_text(intervals), "--resolution", str(resolution),
            "--components", str(components)]
    return _cli_request(rid, argv, gate, lambda p: {"series": [row["value"] for row in p["series"]]})


AUDIT_SUITES = {
    "tau-audit": ("pinch", "epsilon_shift", "resolvent_bound", "integrand_psd"),
    "fan-audit": ("fan_inequality", "half_power_bound"),
    "index-analog": ("entropy_index_gap", "pimsner_popa"),
}


def audit_request(command, trials, seed, extra=()) -> Request:
    def gate(reports, ctx):
        problems = []
        suites = tuple(r["suite"] for r in reports)
        if suites != AUDIT_SUITES[command]:
            problems.append(("suites", f"suites {suites}"))
        for r in reports:
            if r["trials"] != trials or len(r["rows"]) != trials:
                problems.append(("trials", f"{r['suite']}: {r['trials']} trials, expected {trials}"))
            if r["violations"] != 0:
                problems.append(("violations", f"{r['suite']}: {r['violations']} violations"))
        return problems

    argv = [command, *extra, "--trials", str(trials), "--seed", str(seed)]
    return _cli_request(command, argv, gate,
                        lambda reports: {r["suite"]: r["worst_margin"] for r in reports}, seeded=True)


# ---- library requests (oracle-mix) ------------------------------------------

def tau_request(rng: np.random.Generator, dim: int, rid: str) -> Request:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a_mat = m @ m.conj().T / dim
    mask = np.sort(rng.choice(dim, size=int(rng.integers(1, dim)), replace=False)).tolist()
    eps = float(10.0 ** rng.uniform(-3.0, -1.0))

    def run(tracer):
        a = HermitianOperator(a_mat)
        p = OrthoProjection.from_mask(dim, mask)
        integral = tau.tau_integral(a, p)
        spectral_ = tau.tau_spectral(a, p)
        d_eps, bound = tau.key_trace_bound(a, p, eps)
        tail_gap = tau.tail_integral_identity_gap(a, p)
        return {"integral": integral, "spectral": spectral_, "d_eps": d_eps, "bound": bound,
                "tail_gap": tail_gap}

    def gate(out, ctx):
        problems = []
        gap = float(np.linalg.norm(out["integral"].tau.mat - out["spectral"].tau.mat))
        if not gap <= 1e-7:
            problems.append(("tau_routes", f"Frobenius gap {gap:.3e} between tau_integral and tau_spectral"))
        qerr = out["integral"].quadrature_error_estimate
        if qerr is None or not qerr <= 1e-6:
            problems.append(("quadrature", f"quadrature_error_estimate {qerr!r}"))
        # Tr tau = Tr A ln A - Tr B ln B, B the block-diagonal part of A (pinching keeps the trace).
        sel = np.zeros(dim, dtype=bool)
        sel[mask] = True
        b_mat = np.where(sel[:, None] == sel[None, :], a_mat, 0.0)
        oracle = _xlogx_sum(np.linalg.eigvalsh(a_mat)) - _xlogx_sum(np.linalg.eigvalsh(b_mat))
        if not close(out["integral"].trace, oracle, 1e-7, 1e-9):
            problems.append(("trace_oracle", f"Tr tau {out['integral'].trace!r} vs {oracle!r}"))
        if not -1e-8 <= out["d_eps"] <= out["bound"]:
            problems.append(("key_bound", f"Tr D_eps {out['d_eps']!r} outside [0, {out['bound']!r}]"))
        if not out["tail_gap"] <= 1e-7:
            problems.append(("tail_identity", f"tail gap {out['tail_gap']:.3e}"))
        return problems

    def digest(out):
        return {"trace": out["spectral"].trace, "d_eps": out["d_eps"], "bound": float(out["bound"])}

    return Request(rid, run, gate, digest, seeded=True)


def kernel_request(grid: int) -> Request:
    def run(tracer):
        spec = spectral.designated_test_kernel(grid)
        if tracer is not None:
            spec.symbol = tracer.counted(spec.symbol, "spectral.symbol")
        dense = spectral.full_grid_kernel(spec)
        fourier = spectral.fourier_eigenvalues(spec)
        profile = spectral.singular_profile(dense)
        plateau, tail = spectral.half_power_summability_diagnostic(profile)
        slope = spectral.fit_decay_slope(profile.values, 2, 12)
        return {"dense": dense, "fourier": fourier, "profile": profile, "plateau": plateau,
                "tail": tail, "slope": slope}

    def gate(out, ctx):
        problems = []
        fourier = out["fourier"]
        scale = float(np.max(np.abs(fourier)))
        eig = np.linalg.eigvalsh(out["dense"])
        if not float(np.max(np.abs(eig - np.sort(fourier.real)))) <= 1e-9 * scale:
            problems.append(("fourier", "dense kernel spectrum differs from fourier_eigenvalues"))
        if not float(np.max(np.abs(fourier.imag))) <= 1e-9 * scale:
            problems.append(("fourier", "fourier eigenvalues of a real even symbol are not real"))
        sv = np.sort(np.abs(fourier))[::-1]
        if not float(np.max(np.abs(out["profile"].values - sv))) <= 1e-9 * scale:
            problems.append(("singular", "singular_profile differs from |fourier eigenvalues|"))
        if not (out["plateau"] and math.isfinite(out["tail"]) and out["slope"] < -4.0):
            problems.append(("decay", f"plateau {out['plateau']}, tail {out['tail']!r}, slope {out['slope']!r}"))
        return problems

    return Request(f"kernel grid{grid}", run, gate,
                   lambda out: {"slope": out["slope"], "top": out["profile"].values[:8].tolist()})


def lattice_request(name: str, gram) -> Request:
    entries = tuple(tuple(int(x) for x in row) for row in gram)

    def run(tracer):
        g = lattice.GramMatrix(entries)
        emb = lattice.embed_rational(g)
        k, ints = lattice.integralize(emb)
        return {"emb": emb, "k": k, "ints": ints, "pivots": lattice.exact_ldl_pivots(g)}

    def gate(out, ctx):
        problems = []
        emb, k, ints = out["emb"], out["k"], out["ints"]
        n = len(entries)
        # Exact reproduction in Python integers: sum_s len_s (k A_i)_s (k A_j)_s = k^2 G_ij.
        for i in range(n):
            for j in range(i, n):
                dot = sum(length * ints[i][s] * ints[j][s] for s, length in enumerate(emb.segment_lengths))
                if dot != k * k * entries[i][j]:
                    problems.append(("gram", f"entry ({i}, {j}) not reproduced"))
        if [Fraction(x) for x in emb.residuals] != out["pivots"]:
            problems.append(("pivots", "embedding residuals differ from exact_ldl_pivots"))
        return problems

    return Request(f"lattice {name}", run, gate, lambda out: {"k": out["k"]}, seeded=name != "E8")


def random_gram(rng: np.random.Generator, rank: int) -> list[list[int]]:
    """B^T B + I for an integer B with entries in [-2, 2]: positive definite."""
    b = rng.integers(-2, 3, size=(rank, rank))
    return (b.T @ b + np.eye(rank, dtype=np.int64)).tolist()


# ---- workloads --------------------------------------------------------------

MI_SWEEP_GEOMETRIES = (
    [[0, 1], [2, 3]],
    [[0, 1], [1.5, 2.5]],
    [[0, 1], [1.25, 2.25]],
    [[0, 0.5], [1, 2.5]],
    [[0, 1.5], [2, 3]],
    [[0, 0.75], [1.25, 2], [2.5, 3.25]],
    [[0, 1], [1.5, 2], [2.5, 3.5]],
    [[0, 0.5], [0.75, 1.5], [2, 3]],
)
MI_SWEEP_RESOLUTIONS = (16, 32, 48, 64, 80, 96)


def build(workload: str, seed: int) -> list[Request]:
    """The fixed request list of one pass of `workload` at `seed`."""
    if workload == "mi-large":
        resolutions = (32, 64, 128, 256, 512)
        return [converge_request([[0, 1], [2, 3]], resolutions),
                converge_request([[0, 1], [1.3, 2.7]], resolutions),
                mi_request([[0, 1], [2, 3]], 512)]
    if workload == "mi-sweep":
        return [mi_request(geom, res, comp)
                for geom in MI_SWEEP_GEOMETRIES
                for res in MI_SWEEP_RESOLUTIONS
                for comp in (1, 2)]
    seeds = np.random.SeedSequence(seed)
    if workload == "audit-battery":
        s_tau, s_fan, s_index = (int(s) for s in seeds.generate_state(3))
        return [audit_request("tau-audit", 500, s_tau),
                audit_request("fan-audit", 500, s_fan),
                audit_request("index-analog", 500, s_index, extra=("--k", "2"))]
    if workload == "oracle-mix":
        # Three instances per size, so the cost of a pass varies little between seeds.
        rng = np.random.default_rng(seeds)
        requests = [tau_request(rng, dim, f"tau d{dim}.{k}") for dim in (10, 15, 20, 25, 30, 35, 40)
                    for k in range(3)]
        requests.append(kernel_request(128))
        requests.append(lattice_request("E8", lattice.ROOT_LATTICE_GRAMS["E8"]))
        requests.extend(lattice_request(f"rank{n}.{k}", random_gram(rng, n)) for n in (4, 8, 12, 16)
                        for k in range(3))
        return requests
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str) -> list[Request]:
    """Small requests through the same entry points, run once before timing."""
    if workload in ("mi-large", "mi-sweep"):
        return [mi_request([[0, 1], [2, 3]], 8), converge_request([[0, 1], [2, 3]], (8, 16, 32))]
    if workload == "audit-battery":
        return [audit_request("tau-audit", 3, 1), audit_request("fan-audit", 3, 1),
                audit_request("index-analog", 3, 1, extra=("--k", "2"))]
    rng = np.random.default_rng(1)
    return [tau_request(rng, 4, "tau d4"), kernel_request(16), lattice_request("A2", lattice.ROOT_LATTICE_GRAMS["A2"])]


# ---- reference comparison ---------------------------------------------------

def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(value, ref, rel: float, abs_: float, where: str = "") -> list[str]:
    """Differences between a digest and its reference: floats to tolerance, the rest exactly."""
    if isinstance(ref, dict) and isinstance(value, dict):
        if set(ref) != set(value):
            return [f"{where}: keys {sorted(value)} != {sorted(ref)}"]
        return [d for k in ref for d in compare(value[k], ref[k], rel, abs_, f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(value, (list, tuple)):
        if len(ref) != len(value):
            return [f"{where}: length {len(value)} != {len(ref)}"]
        return [d for i, (v, r) in enumerate(zip(value, ref)) for d in compare(v, r, rel, abs_, f"{where}[{i}]")]
    if isinstance(ref, float) or isinstance(value, float):
        return [] if close(float(value), float(ref), rel, abs_) else [f"{where}: {value!r} != {ref!r}"]
    return [] if value == ref else [f"{where}: {value!r} != {ref!r}"]


def check(request: Request, out, ctx: dict, workload: str, seed: int, reference: dict) -> list:
    """All gate failures of one request, as (gate, detail) pairs."""
    problems = request.gate(out, ctx)
    if any(gate == "exit" for gate, _ in problems) or (request.seeded and seed != reference["default_seed"]):
        return problems
    ref = reference["workloads"].get(workload, {}).get(request.id)
    if ref is None:
        return problems + [("reference", "no reference value recorded")]
    tol = reference["tolerance"]
    diffs = compare(request.digest(out), ref, tol["rel"], tol["abs"])
    return problems + [("reference", d) for d in diffs[:3]]
