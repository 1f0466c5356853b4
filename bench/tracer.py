"""Span tracer that instruments araki_mi from outside the package.

`Tracer.install()` replaces, by attribute assignment, every public function
of every `araki_mi` submodule, the constructors and public methods of the
classes defined there, and the numpy/scipy linear-algebra and quadrature
entry points the package calls.  `uninstall()` puts the originals back.
Nothing under `src/` is edited.

Each wrapped call records a span `[name, start, end, parent, request]`.
Spans nest on one stack (the benchmark runs with ARAKI_MI_THREADS=1, so
every call happens on the main thread).  A span's self time is its duration
minus the time covered by its child spans.  Spans stay in memory and are
written out by `dump()` when the run ends.

Calls made while no request is active (input generation, correctness gates)
pass straight through and are not recorded.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

# Span names that are shorter than the attribute path.
RENAMED = {"operators.HermitianOperator.apply": "operators.apply"}

# numpy.linalg / scipy.linalg functions counted at the package boundary.
LINALG_FUNCS = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "inv", "solve",
                "lstsq", "qr", "cholesky", "det", "slogdet", "norm")
# Of those, the O(n^3) factorizations summed into linalg.decomp_n3.
DECOMPOSITIONS = frozenset(LINALG_FUNCS) - {"norm"}


def _n3(a) -> int:
    """batch * m * n * min(m, n) for a (..., m, n) array argument."""
    shape = getattr(a, "shape", None)
    if not shape or len(shape) < 2:
        return 0
    batch = 1
    for s in shape[:-2]:
        batch *= int(s)
    m, n = int(shape[-2]), int(shape[-1])
    return batch * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.decomp_n3 = 0         # sum of batch * m * n * min(m, n) over decompositions
        self.request = -1          # index of the active request, -1 when idle
        self._stack: list[int] = []
        self._child: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)  # recursion folds into the outer span
        idx = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
        self.spans.append(span)
        stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            child = self._child.pop()
            span[1], span[2] = t0, t1
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - child
            if self._child:
                self._child[-1] += t1 - t0

    def _wrap(self, fn, name, when=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request < 0 or (when is not None and not when(*args)):
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_boundary(self, fn, name, n3: bool):
        """Wrap a numpy/scipy function; only calls made from araki_mi count."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request < 0 or not sys._getframe(1).f_globals.get("__name__", "").startswith("araki_mi"):
                return fn(*args, **kwargs)
            if n3 and args:
                tracer.decomp_n3 += _n3(args[0])
            return tracer._call(name, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name):
        """Count calls of a callable handed to the package (no span)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request >= 0:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _instrument_class(self, short, cls):
        base = f"{short}.{cls.__name__}"
        if "__init__" in cls.__dict__:
            self._set(cls, "__init__", self._wrap(cls.__dict__["__init__"], base))
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_"):
                continue
            name = RENAMED.get(f"{base}.{attr}", f"{base}.{attr}")
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
        if base == "operators.HermitianOperator" and "_decompose" in cls.__dict__:
            # operators.eig: the first eigen-access (eigh plus recomposition check)
            self._set(cls, "_decompose", self._wrap(cls.__dict__["_decompose"], "operators.eig",
                                                    when=lambda op: op._w is None))

    def install(self) -> "Tracer":
        import numpy.linalg
        import scipy.integrate
        import scipy.linalg

        import araki_mi

        modules = [importlib.import_module(f"araki_mi.{m.name}")
                   for m in pkgutil.iter_modules(araki_mi.__path__)]
        replaced = {}  # id(original function) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._instrument_class(short, obj)
        for owner in (numpy.linalg, scipy.linalg):
            for fn_name in LINALG_FUNCS:
                fn = getattr(owner, fn_name, None)
                if fn is not None:
                    wrapper = self._wrap_boundary(fn, f"linalg.{fn_name}", fn_name in DECOMPOSITIONS)
                    replaced[id(fn)] = wrapper
                    self._set(owner, fn_name, wrapper)
        quad_vec = scipy.integrate.quad_vec
        replaced[id(quad_vec)] = self._wrap_boundary(quad_vec, "integrate.quad_vec", False)
        self._set(scipy.integrate, "quad_vec", replaced[id(quad_vec)])
        # Rebind every reference the package holds, including `from x import f` copies.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ---- results ---------------------------------------------------------

    def descendant_calls(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        total = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            total += parent >= 0
        return total

    def layer_self_s(self, prefix: str) -> float:
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix + ".")), 0.0)

    def layer_calls(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix + "."))

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "request"],
                       "names": names,
                       "spans": [[index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, r]
                                 for n, s, e, p, r in self.spans]}, fh, separators=(",", ":"))
