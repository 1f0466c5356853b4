"""Record bench/reference.json: every request's digest at the default seed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 ARAKI_MI_THREADS=1 python3 bench/record_reference.py

Re-record only when a change to the program is meant to change its
answers, and say so in CHANGES.md.  The tolerance and the list of known
defects in the existing file are kept.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import ENTRY_MODULES


def main() -> int:
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {"tolerance": {"rel": 1e-9, "abs": 1e-12}, "known_defects": []}
    reference["default_seed"] = workloads.DEFAULT_SEED
    reference["workloads"] = {}
    for name in ENTRY_MODULES:
        requests = workloads.build(name, workloads.DEFAULT_SEED)
        outputs: dict = {}
        for req in requests:
            out = req.run(None)
            problems = req.gate(out, outputs)
            if any(gate == "exit" for gate, _ in problems):
                raise SystemExit(f"{name}: {req.id}: {problems}")
            outputs[req.id] = out
        reference["workloads"][name] = {req.id: req.digest(outputs[req.id]) for req in requests}
        print(f"{name}: {len(requests)} requests", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
