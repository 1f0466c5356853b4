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
import sys
from contextlib import nullcontext

from . import audits, fermion, lattice
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


def _load_json_arg(inline: str | None, path: str | None, flag: str):
    if inline is not None:
        return json.loads(inline)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    raise ValueError(f"{flag} required")


def _field(payload: dict, name: str, flag: str):
    """payload[name]; a usage error naming the field if the JSON object lacks it."""
    if name not in payload:
        raise ValueError(f'{flag} JSON object has no "{name}" field')
    return payload[name]


def _interval_config(args) -> fermion.IntervalConfig:
    if args.input:
        payload = _load_json_arg(None, args.input, "--input")
        if not isinstance(payload, dict):
            raise ValueError('--input must hold a JSON object {"intervals": ...}')
        intervals = _field(payload, "intervals", "--input")
        resolution = payload.get("resolution", args.resolution)
        components = payload.get("components", args.components)
    else:
        intervals = _load_json_arg(args.intervals, None, "--intervals")
        resolution = args.resolution
        components = args.components
    return fermion.IntervalConfig(intervals=intervals, resolution=resolution, components=components)


def cmd_mi(args) -> int:
    cfg = _interval_config(args)
    fractions = [float(f) for f in args.fractions.split(",")] if args.fractions else [0.25, 0.5, 0.75, 1.0]
    series = fermion.mi_convergence(cfg, fractions)
    if args.format == "csv":
        _write(csv_lines(("window", "value"), zip(series.window_sizes, series.values)), args.out)
    else:
        payload = {
            "mi_nats": series.values[-1],
            "series": [{"window": w, "value": v} for w, v in zip(series.window_sizes, series.values)],
            "extrapolated": series.extrapolated,
            "extrapolation_error": series.extrapolation_error,
        }
        _write(canonical_json(payload), args.out)
    return 0


def cmd_converge(args) -> int:
    cfg = _interval_config(args)
    resolutions = [float(r) for r in args.resolutions.split(",")]
    study = fermion.resolution_study(cfg, resolutions)
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
    return _emit_audits(audits.tau_audit(args.trials, args.seed), args)


def cmd_fan_audit(args) -> int:
    return _emit_audits(audits.spectral_audit(args.trials, args.seed), args)


def cmd_embed(args) -> int:
    gram_payload = _load_json_arg(args.gram, args.input, "--gram")
    if isinstance(gram_payload, dict):
        gram_payload = _field(gram_payload, "gram", "--gram" if args.gram is not None else "--input")
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
    reports = [audits.index_audit(args.trials, args.seed, k=args.k),
               audits.pimsner_popa_audit(args.trials, args.seed + 1, k=args.k)]
    return _emit_audits(reports, args)


class _Parser(argparse.ArgumentParser):
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

    p = sub.add_parser("mi", help="mutual information for two disjoint intervals")
    p.add_argument("--intervals", help='inline JSON, e.g. "[[0,1],[2,3]]"')
    p.add_argument("--input", help="JSON config file")
    p.add_argument("--resolution", type=float, default=64)
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--fractions", help="comma-separated window fractions ending at 1")
    common(p)

    p = sub.add_parser("converge", help="resolution study with Richardson extrapolation")
    p.add_argument("--intervals")
    p.add_argument("--input")
    p.add_argument("--resolution", type=float, default=64)
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

    p = sub.add_parser("embed", help="exact rational embedding of an integral lattice")
    p.add_argument("--gram", help='inline JSON matrix, e.g. "[[2,-1],[-1,2]]"')
    p.add_argument("--input", help='JSON file {"gram": [[...], ...]}')
    p.add_argument("--dense-limit", type=int, default=512)
    common(p)

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
        path = args.output
        with nullcontext() if path in (None, "-") else open(path, "w", encoding="utf-8") as out:
            args.out = out
            # Looked up by name at call time, so the cached parser holds no command function.
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit:      # --help, after printing it; every usage error raises ValueError
        return 0
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(canonical_json({"error": "usage", "detail": str(exc)}) + "\n")
        return USAGE_ERROR
    except (ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(canonical_json({"error": "numerical", "detail": str(exc)}) + "\n")
        return NUMERICAL_ERROR
    except Exception as exc:    # exit 1 is reserved for an audited violation
        sys.stderr.write(canonical_json({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}) + "\n")
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
