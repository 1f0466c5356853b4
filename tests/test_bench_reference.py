"""The benchmark's digests still match `bench/reference.json`.

One pass of each workload's request list at the reference seed, in a child
interpreter on one BLAS thread (the benchmark's setting; the digits of the
large MI solves follow the thread count).  Each request's gate runs only to
parse its output: a request that exits non-zero fails here, but the gates'
verdicts stay the benchmark's `failed` count, which includes the recorded
CFH defect of mi-large (ROADMAP item 12).  Every digest must match its
reference to the recorded tolerance.  Nothing under `bench/` is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("mi-large", "mi-sweep", "audit-battery", "oracle-mix")

CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from bench import workloads

reference = workloads.load_reference()
tol = reference["tolerance"]
problems = []
for workload in sys.argv[3:]:
    recorded, ctx = reference["workloads"][workload], {}
    for request in workloads.build(workload, reference["default_seed"]):
        out = request.run(None)
        exits = [detail for gate, detail in request.gate(out, ctx) if gate == "exit"]
        ctx[request.id] = out
        where = f"{workload} {request.id}"
        problems += [f"{where}: {detail}" for detail in exits] or workloads.compare(
            request.digest(out), recorded.get(request.id), tol["rel"], tol["abs"], where)
print(json.dumps(problems))
"""


def test_digests_match_the_benchmark_reference():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-c", CHILD, str(ROOT), str(ROOT / "src"), *WORKLOADS],
                         env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1]) == []
