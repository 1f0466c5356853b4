"""Runs one workload in this interpreter and prints its result as one JSON line.

    python3 bench/worker.py --workload mi-sweep --seed 0 --seconds 10 --trace 0

`bench/run.py` starts this in a fresh interpreter with a fixed environment;
it is not meant to be called directly.  The loop is closed with one client:
each request starts only after the previous one has finished.

Untraced (`--trace 0`): one warm-up pass over small requests, then passes
over the workload's fixed request list until `--seconds` would be exceeded
(at least one pass).  Traced (`--trace 1`): warm-up, one untraced pass, then
one traced pass, so that call counts are those of exactly one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import workloads
from calib import Calibrator
from tracer import Tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
THREAD_VARS = ("ARAKI_MI_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Per-layer metrics summed over every span of the layer rather than one span.
LAYER_SUMS = ("audits", "rand", "linalg")


def provenance() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_pass(requests, workload, seed, reference, tracer=None, calibrator=None) -> list[dict]:
    """Run every request once, in order; time it and gate its output."""
    ctx: dict = {}
    rows = []
    for i, req in enumerate(requests):
        if calibrator is not None:
            calibrator.sample()
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            out = req.run(tracer)
        except Exception as exc:  # a request that raises is a failed request
            out = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.request = -1
        if out is None:
            problems = [("raised", error)]
            out = {}
        else:
            problems = workloads.check(req, out, ctx, workload, seed, reference)
            ctx[req.id] = out
        payload = out.get("payload")  # parsed CLI output; audits print a list of reports
        rows.append({"id": req.id, "seconds": seconds, "problems": problems,
                     "output_bytes": len(out.get("stdout", "")),
                     "trials": sum(r["trials"] for r in payload) if isinstance(payload, list) else 0})
    return rows


def tally(passes: list[list[dict]], known_defects) -> dict:
    known = {(d["request"], d["gate"]) for d in known_defects}
    rows = [row for rows in passes for row in rows]
    failed = [row for row in rows if row["problems"]]
    unexpected = sorted({f"{row['id']}: {gate}: {detail}" for row in failed
                         for gate, detail in row["problems"] if (row["id"], gate) not in known})
    return {"attempted": len(rows), "failed": len(failed), "unexpected": unexpected,
            "known": sorted({f"{row['id']}: {gate}: {detail}" for row in failed
                             for gate, detail in row["problems"] if (row["id"], gate) in known})}


def spread(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = values[min(n - 1, int(pct / 100.0 * n))]
            break
    return out


def wall_s(passes: list[list[dict]]) -> float:
    """Time for the fixed request list: the sum over requests of each one's median."""
    return sum(statistics.median(p[i]["seconds"] for p in passes) for i in range(len(passes[0])))


def per_layer(names, tracer: Tracer, rows: list[dict], untraced_s: float, traced_s: float,
              error_rate: float) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    special = {
        "linalg.decomp_n3": tracer.decomp_n3,
        "linalg.eig_per_sigma_trace":
            (calls["linalg.eigh"] + calls["linalg.eigvalsh"]) / calls["fermion.sigma_trace"]
            if calls["fermion.sigma_trace"] else 0.0,
        "tau.integrand_per_tau_integral":
            tracer.descendant_calls("tau.resolvent_integrand", "tau.tau_integral") / calls["tau.tau_integral"]
            if calls["tau.tau_integral"] else 0.0,
        "audits.trials": sum(row["trials"] for row in rows),
        "report.output_bytes": sum(row["output_bytes"] for row in rows),
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
        "error_rate": error_rate,
    }
    values = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif kind == "self_s":
            values[name] = tracer.layer_self_s(base) if base in LAYER_SUMS else self_s.get(base, 0.0)
        elif kind == "calls":
            values[name] = tracer.layer_calls(base) if base in LAYER_SUMS else calls.get(base, 0)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        reference: dict | None = None) -> dict:
    reference = reference or workloads.load_reference()
    requests = workloads.build(workload, seed)
    for req in workloads.warmup(workload):
        req.run(None)
    result = {"workload": workload, "seed": seed, "trace": int(trace), "provenance": provenance()}
    if not trace:
        passes: list[list[dict]] = []
        calibrator = Calibrator()
        start = perf_counter()
        while True:
            passes.append(run_pass(requests, workload, seed, reference, calibrator=calibrator))
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        calibrator.sample(force=True)
        result.update(tally(passes, reference["known_defects"]))
        result["passes"] = len(passes)
        result["wall_raw_s"] = wall_s(passes)
        result["calibration_s"] = calibrator.samples
        result["pass_s"] = spread([sum(r["seconds"] for r in p) for p in passes])
        result["request_s"] = spread([r["seconds"] for p in passes for r in p])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result
    untraced = run_pass(requests, workload, seed, reference)
    tracer = Tracer().install()
    try:
        traced = run_pass(requests, workload, seed, reference, tracer)
    finally:
        tracer.uninstall()
    counts = tally([untraced, traced], reference["known_defects"])
    result.update(counts)
    result["passes"] = 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    result["per_layer"] = per_layer(names, tracer, traced, sum(r["seconds"] for r in untraced),
                                    sum(r["seconds"] for r in traced),
                                    counts["failed"] / counts["attempted"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload}-seed{seed}.json")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for span dumps")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
