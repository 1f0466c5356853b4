"""The tier-1 MI pins, each pinned request's stdout in `mi_goldens.json`.  For a meant answer change only,
`python tests/record_mi_goldens.py` re-records them unless an independent MI oracle fails."""
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
sys.path.insert(0, SRC)
from araki_mi.cli import main  # noqa: E402

FILE = HERE / "mi_goldens.json"
SWEEP_GEOMETRIES = ("[[0,1],[2,3]]", "[[0,1],[1.5,2.5]]", "[[0,1],[1.25,2.25]]", "[[0,0.5],[1,2.5]]",
                    "[[0,1.5],[2,3]]", "[[0,0.75],[1.25,2],[2.5,3.25]]", "[[0,1],[1.5,2],[2.5,3.5]]",
                    "[[0,0.5],[0.75,1.5],[2,3]]")
GROUPS = {
    "TestSublatticeCrossCheck": {
        "mi": ["mi --intervals [[0,1],[2,3]] --resolution 32"],
        "converge": ["converge --intervals [[0,1],[2,3]] --resolutions 16,32,64"],
        # region 1 after region 2 in row order, windows that do not divide the blocks evenly
        "mi-reversed-regions": ["mi --intervals [[2,3],[0,1]] --resolution 40 --fractions 0.3,0.6,1"],
        "mi-three-intervals": ["mi --intervals [[0,0.75],[1.25,2],[2.5,3.25]] --resolution 48"]},
    # mi at resolutions 16 and 32 with 1 and 2 components on each mi-sweep geometry of the benchmark
    "TestMISweepDigest": {g: [f"mi --intervals {g} --resolution {r} --components {c}" for r in (16, 32) for c in (1, 2)]
                          for g in SWEEP_GEOMETRIES},
    # in one child on one OpenBLAS thread, the benchmark's setting: the off-site converge prints other digits at two
    "TestOneBlasThread": {
        "converge-off-site": ["converge --intervals [[0,1],[1.3,2.7]] --resolutions 32,64,128,256"],
        "mi": ["mi --intervals [[0,1],[2,3]] --resolution 64"]},
}


def run(groups: dict) -> dict:
    """The stdout of each request of each group, run in this process."""
    def stdout(request):
        with redirect_stdout(io.StringIO()) as out:
            assert main(request.split()) == 0, request
        return out.getvalue()
    return {group: {request: stdout(request) for request in requests} for group, requests in groups.items()}


def collect() -> dict:
    """Every group's stdout, and the numpy and BLAS it ran on."""
    code = "import json, record_mi_goldens as g; print(json.dumps(g.run(g.GROUPS['TestOneBlasThread'])))"
    child = subprocess.run([sys.executable, "-c", code], cwd=HERE, stdout=subprocess.PIPE, text=True, check=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"stack": f"numpy {np.__version__}, {blas['name']} {blas['version']}",
            **{cls: run(groups) for cls, groups in GROUPS.items() if cls != "TestOneBlasThread"},
            "TestOneBlasThread": json.loads(child.stdout)}


def floats(node, path: str = "") -> dict:
    """{path: value} of each float of a parsed stdout."""
    if isinstance(node, float):
        return {path: node}
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return {p: v for key, child in items for p, v in floats(child, f"{path}/{key}").items()}


if __name__ == "__main__":
    oracles = ["-k", "TestContinuumOracle or TestFockSpaceOracle or TestTauRoute or TestScalingInvariance",
               str(HERE / "test_fermion.py")]
    if subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *oracles],
                      env={**os.environ, "PYTHONPATH": SRC}).returncode:
        sys.exit("an MI oracle fails: nothing written")
    old, new = json.loads(FILE.read_text()) if FILE.exists() else {}, collect()
    for cls, group, request in ((c, g, r) for c in GROUPS for g in GROUPS[c] for r in GROUPS[c][g]):
        was, now = (floats(json.loads(d.get(cls, {}).get(group, {}).get(request, "{}"))) for d in (old, new))
        for field in was | now:
            a, b = was.get(field), now.get(field)
            print(request, field, a, b, "-" if a is None or b is None else f"{(b - a) / abs(a):.2e}", sep="  ")
    FILE.write_text(json.dumps(new, indent=1) + "\n")
