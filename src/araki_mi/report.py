"""Deterministic report serialization: canonical JSON and CSV."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Any, Iterable, Sequence


@dataclass
class AuditReport:
    suite: str
    trials: int
    violations: int
    worst_margin: float
    rows: list = field(default_factory=list)

    def to_payload(self) -> dict:
        return dict(vars(self))


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


def canonical_json(obj: Any) -> str:
    """JSON with sorted keys and 17-significant-digit floats; byte-stable."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):    # control characters escaped, non-ASCII kept as is
        return encode_basestring(obj)
    if isinstance(obj, dict):
        items = sorted((str(k), v) for k, v in obj.items())
        body = ",".join(f"{canonical_json(k)}:{canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return canonical_json(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    def cell(v) -> str:
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"
