"""Command-line front end.

Subcommands:

  mi            mutual information for an interval configuration
  converge      resolution study with Richardson extrapolation
  tau-audit     randomized operator-inequality battery (tau engine)
  fan-audit     Fan inequality and half-power bound battery
  embed         exact rational lattice embedding from a Gram matrix
  index-analog  entropy/index gap on random states

Exit codes: 0 success, 1 audited inequality violated, 2 usage error,
3 numerical or internal failure (diagnostic JSON on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

from numpy.linalg import LinAlgError

from . import fermion   # the other commands import audits and lattice, which mi and converge never load
from .report import canonical_json, csv_lines

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


def _write(text: str, out) -> None:
    """Write to stdout (out None, newline-terminated) or to the opened --output file."""
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        out.write(text)


def _load_json(inline: str | None, path: str | None):
    if inline is not None:
        return json.loads(inline)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fields(payload: dict, flag: str, names: tuple[str, ...]) -> dict:
    """payload, if it holds names[0] and no field outside `names`; else a usage error naming the field."""
    if names[0] not in payload:
        raise ValueError(f'{flag} JSON object has no "{names[0]}" field')
    unread = [name for name in payload if name not in names]
    if unread:
        raise ValueError(f"{flag} JSON object has fields no code reads: {', '.join(map(json.dumps, unread))}")
    return payload


def _interval_config(args, resolution: float) -> fermion.IntervalConfig:
    """From --intervals, or from the --input object, whose fields override the flags."""
    if args.input is None:
        payload = {"intervals": json.loads(args.intervals)}
    else:
        payload = _load_json(None, args.input)
        if not isinstance(payload, dict):
            raise ValueError('--input must hold a JSON object {"intervals": ...}')
        # converge reads its resolutions from --resolutions only
        _fields(payload, "--input", ("intervals", "components") + (("resolution",) if args.command == "mi" else ()))
    return fermion.IntervalConfig(intervals=payload["intervals"], resolution=payload.get("resolution", resolution),
                                  components=payload.get("components", args.components))


def cmd_mi(args) -> int:
    cfg = _interval_config(args, args.resolution)
    fractions = [float(f) for f in args.fractions.split(",")] if args.fractions is not None else [0.25, 0.5, 0.75, 1.0]
    series = fermion.mi_convergence(cfg, fractions)
    if args.format == "csv":
        _write(csv_lines(("window", "value"), zip(series.window_sizes, series.values)), args.out)
    else:
        payload = {
            "mi_nats": series.values[-1],
            "series": [{"window": w, "value": v} for w, v in zip(series.window_sizes, series.values)],
        }
        _write(canonical_json(payload), args.out)
    return 0


def cmd_converge(args) -> int:
    resolutions = [float(r) for r in args.resolutions.split(",")]
    study = fermion.resolution_study(_interval_config(args, resolutions[0]), resolutions)
    if args.format == "csv":
        _write(csv_lines(("resolution", "value"), zip(study["resolutions"], study["values"])), args.out)
    else:
        _write(canonical_json(study), args.out)
    return 0


def _emit_audits(reports, args) -> int:
    if args.format == "csv":
        rows = []
        for rep in reports:
            rows.append((rep.suite, rep.trials, rep.violations, rep.worst_margin))
        _write(csv_lines(("suite", "trials", "violations", "worst_margin"), rows), args.out)
    else:
        _write(canonical_json([rep.to_payload() for rep in reports]), args.out)
    return 1 if any(rep.violations for rep in reports) else 0


def cmd_tau_audit(args) -> int:
    from . import audits
    return _emit_audits(audits.tau_audit(args.trials, args.seed), args)


def cmd_fan_audit(args) -> int:
    from . import audits
    return _emit_audits(audits.spectral_audit(args.trials, args.seed), args)


def cmd_embed(args) -> int:
    from . import lattice
    gram_payload = _load_json(args.gram, args.input)
    if isinstance(gram_payload, dict):
        gram_payload = _fields(gram_payload, "--gram" if args.gram is not None else "--input", ("gram",))["gram"]
    g = lattice.GramMatrix(gram_payload)
    emb = lattice.embed_rational(g)
    k, int_rows = lattice.integralize(emb)
    payload = {
        "rank": emb.n,
        "target_dimension": emb.r,
        "k": k,
        "even": lattice.is_even(g),
        "segment_lengths": list(emb.segment_lengths),
        "vectors": [[str(v) for v in row] for row in emb.rows],
        "scaled_integer_vectors": [list(row) for row in int_rows],
        "residuals": [str(rv) for rv in emb.residuals],
    }
    if emb.r <= args.dense_limit:
        payload["dense_vectors"] = [[f"{v.numerator}/{v.denominator}" for v in vec]
                                    for vec in emb.dense_vectors(max_r=args.dense_limit)]
    _write(canonical_json(payload), args.out)
    return 0


def cmd_index_analog(args) -> int:
    from . import audits
    reports = [audits.index_audit(args.trials, args.seed, k=args.k),
               audits.pimsner_popa_audit(args.trials, args.seed + 1, k=args.k)]
    return _emit_audits(reports, args)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):   # no abbreviated flags; the subcommands' parsers are _Parsers too
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):   # raised, so that main writes the JSON diagnostic
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="araki-mi",
                     description="free-fermion mutual information and operator inequality toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def source(p, inline, example, fields):     # the inline flag or an --input file, not both
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(inline, help=f'inline JSON, e.g. "{example}"')
        group.add_argument("--input", help=f"JSON file {{{fields}}}")

    p = sub.add_parser("mi", help="mutual information for two disjoint intervals")
    source(p, "--intervals", "[[0,1],[2,3]]", '"intervals": [...], "resolution": r, "components": c')
    p.add_argument("--resolution", type=float, default=64)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--fractions", help="comma-separated window fractions ending at 1")
    common(p)

    p = sub.add_parser("converge", help="resolution study with Richardson extrapolation")
    source(p, "--intervals", "[[0,1],[2,3]]", '"intervals": [...], "components": c')
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--resolutions", default="32,64,128,256")
    common(p)

    p = sub.add_parser("tau-audit", help="pinching/resolvent inequality battery")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("fan-audit", help="singular-value inequality battery")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("embed", help="exact rational embedding of an integral lattice (JSON output)")
    source(p, "--gram", "[[2,-1],[-1,2]]", '"gram": [[...], ...]')
    p.add_argument("--dense-limit", type=int, default=512)
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")

    p = sub.add_parser("index-analog", help="entropy/index gap on random states")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Opened, like a shell redirection, before the command runs, so that an
        # unwritable path is refused before the work rather than after it.
        # Opening would truncate the --input file unread, so -o naming it is refused.
        path, source = args.output, getattr(args, "input", None)
        if None not in (path, source) and all(map(os.path.exists, (path, source))) and os.path.samefile(path, source):
            raise ValueError(f"--output {path!r} names the --input file, which would be truncated before it is read")
        with nullcontext() if path in (None, "-") else open(path, "w", encoding="utf-8") as out:
            args.out = out
            # Looked up by name at call time, so the cached parser holds no command function.
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit:      # --help, after printing it; every usage error raises ValueError
        return 0
    except (ArithmeticError, RuntimeError, LinAlgError) as exc:     # LinAlgError is a ValueError
        sys.stderr.write(canonical_json({"error": "numerical", "detail": str(exc)}) + "\n")
        return NUMERICAL_ERROR
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(canonical_json({"error": "usage", "detail": str(exc)}) + "\n")
        return USAGE_ERROR
    except Exception as exc:    # exit 1 is reserved for an audited violation
        sys.stderr.write(canonical_json({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}) + "\n")
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
