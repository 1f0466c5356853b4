"""araki-mi benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Workloads: mi-large, mi-sweep, audit-battery,
oracle-mix (see bench/README.md).

With `--trace 0` it times set-up (fresh interpreters importing the
workload's entry points, median of several) and then runs the workload in
one fresh interpreter (`bench/worker.py`), reporting the end-to-end metrics
of BENCHMARK.json.  With `--trace 1` the worker runs one untraced and one
traced pass and the per-layer metrics are reported instead.

Every child runs with a fixed environment: single-threaded BLAS and
ARAKI_MI_THREADS=1.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
run's provenance and distributions.  Exits non-zero, printing no result,
when the checkout has no `src/araki_mi` or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
# Median of bench/calib.py's calibration_s() on the 2-CPU box the baseline was
# recorded on (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
# Timings are scaled by REFERENCE_S / median(calibration samples of the same
# run): seconds at the reference speed.  The shared host's speed drifts by up
# to a third over minutes for all code alike, and the scaling removes that.
REFERENCE_S = 0.085
# The entry points each workload imports; `setup_s` times importing them.
ENTRY_MODULES = {
    "mi-large": ("araki_mi.cli",),
    "mi-sweep": ("araki_mi.cli",),
    "audit-battery": ("araki_mi.cli",),
    "oracle-mix": ("araki_mi.tau", "araki_mi.spectral", "araki_mi.lattice"),
}


def child_env() -> dict:
    """Explicit environment for every child interpreter."""
    env = {key: os.environ[key] for key in ("PATH", "HOME", "LANG", "TMPDIR") if key in os.environ}
    env.update({
        "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(BENCH))),
        "PYTHONHASHSEED": "0",
        "ARAKI_MI_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def time_setup(workload: str, env: dict) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has imported the workload's entry points.

    The child stamps the system-wide monotonic clock once its imports are
    done, so interpreter teardown and the parent's polling are not counted.
    It then takes two machine-speed calibration samples (bench/calib.py)
    and reports the second; the first only warms up.
    Returns (setup samples, calibration samples).
    """
    code = (f"import {', '.join(ENTRY_MODULES[workload])}; import time; t = time.monotonic(); "
            f"import calib; print(repr(t), *[calib.calibration_s() for _ in range(2)][1:])")
    setup, calibration = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first spawn warms the page and bytecode caches
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if i:
            stamp, *cal = (float(x) for x in proc.stdout.split())
            setup.append(stamp - t0)
            calibration.extend(cal)
    return setup, calibration


def run_worker(args, env: dict) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="araki-mi benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(ENTRY_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "araki_mi" / "__init__.py").is_file():
        sys.stderr.write(f"error: no araki_mi sources under {ROOT / 'src'}\n")
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    env = child_env()
    try:
        setup, calibration = ([], []) if args.trace else time_setup(args.workload, env)
        result = run_worker(args, env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    if args.trace:
        values = result["per_layer"]
        declared = spec["per_layer"]
    else:
        run_cal = result.pop("calibration_s")
        values = {"setup_s": statistics.median(setup) * REFERENCE_S / statistics.median(calibration),
                  "wall_s": result["wall_raw_s"] * REFERENCE_S / statistics.median(run_cal),
                  "peak_rss_mb": result["peak_rss_mb"]}
        declared = spec["end_to_end"]
        result["calibration_s"] = {"setup": statistics.median(calibration), "run": statistics.median(run_cal),
                                   "n": len(calibration) + len(run_cal)}
        result["setup_raw_s"] = {"n": len(setup), "median": statistics.median(setup), "samples": setup}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(json.dumps({"provenance": result["provenance"]}, sort_keys=True))
    print(json.dumps({key: result[key] for key in ("workload", "seed", "passes", "pass_s", "request_s", "wall_raw_s",
                                                  "setup_raw_s", "calibration_s")
                      if key in result}, sort_keys=True))
    if result["failed"]:
        print(json.dumps({"known_defects": result["known"], "unexpected_failures": result["unexpected"]}))
    print(json.dumps({"correct": not result["unexpected"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
