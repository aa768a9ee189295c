"""Outside-in tracing of the package's layers.

The tracer wraps public functions by replacing the module and class
attributes the package itself calls through (every `homlie.*` module
attribute bound to the function, so `homlie.lab.matrix_rank` is wrapped
along with `homlie.system.rank`). Spans therefore follow the real call
path and nothing is re-implemented. Spans live in memory until `write`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Wrapped functions as "<module>.<function>" or "<module>.<Class>.<method>",
# relative to the homlie package. Field methods are deliberately absent:
# they run millions of times per operation and their cost shows up as the
# self time of the linalg and system callers.
LAYERS = (
    "lab.genericity_experiment",
    "lab.invariance_battery",
    "cli.main",
    "files.load_algebra",
    "files.dumps_canonical",
    "files.matrix_to_obj",
    "files.kernel_to_obj",
    "algebra.random_algebra",
    "algebra.random_invertible_map",
    "algebra.SkewAlgebra.transport",
    "algebra.LinearMap.inverse",
    "algebra.LinearMap.compose",
    "system.build_matrix",
    "system.rank",
    "system.kernel_basis",
    "system.is_in_kernel",
    "system.determinant",
    "linalg.rank",
    "linalg.rref",
    "linalg.nullspace",
    "linalg.mat_vec",
    "linalg.det",
)

# Pseudo-layer for the tracer's own counting work, so that it is not
# charged to the caller's self time.
TRACER = "tracer"


def _resolve(qualname: str):
    """(owner, attribute, function) for a LAYERS entry."""
    parts = qualname.split(".")
    owner = importlib.import_module("homlie." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def patch(qualname: str, make_wrapper) -> list:
    """Replace a function wherever the package binds it; returns the undo list.

    Module-level functions are replaced in every loaded homlie module that
    holds the same object; methods are replaced on their class.
    """
    owner, attr, original = _resolve(qualname)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        sites = [(owner, attr)]
    else:
        sites = [
            (mod, name)
            for modname, mod in list(sys.modules.items())
            if modname == "homlie" or modname.startswith("homlie.")
            for name, value in list(vars(mod).items())
            if value is original
        ]
    for obj, name in sites:
        setattr(obj, name, wrapper)
    return [(obj, name, original) for obj, name in sites]


def unpatch(undo: list) -> None:
    for obj, name, original in reversed(undo):
        setattr(obj, name, original)


def _nonzeros(M) -> int:
    return sum(1 for row in M.rows for x in row if x)


def _decision(tracer, full: bool) -> None:
    tracer.count("decisions", 1)
    tracer.count("full_rank", int(full))


# Counters computed from a wrapped call's arguments and result, outside its
# span: name -> fn(tracer, args, result).
OBSERVERS = {
    "system.build_matrix": lambda t, a, M: (
        t.count("system.build_matrix.entries", M.nrows * M.ncols),
        t.count("system.build_matrix.nonzeros", _nonzeros(M)),
    ),
    "system.kernel_basis": lambda t, a, K: (
        t.count("system.kernel_basis.vectors", K.nullity),
        _decision(t, K.nullity == 0),
    ),
    "system.rank": lambda t, a, r: _decision(t, r == a[0].ncols),
    "system.determinant": lambda t, a, d: _decision(t, d != 0),
    "files.dumps_canonical": lambda t, a, s: t.count("files.dumps_canonical.bytes",
                                                      len(s.encode("utf-8"))),
}


class Tracer:
    """Spans (name, start_ns, end_ns, parent, op) and counters, in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = -1
        self._stack = []
        self._undo = []

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(self, args, result)
                spans.append((TRACER, end, clock(), parent, self.op))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name in LAYERS:
            self._undo += patch(name, lambda fn, name=name: self._wrap(name, fn))

    def remove(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def self_times_ns(self, factor: dict | None = None) -> dict:
        """Total self time per layer: span time minus its direct children.

        `factor` maps an operation index to a factor its spans are scaled by.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        factor = factor or {}
        out = {}
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            out[name] = out.get(name, 0) + ((end - start) - child[idx]) * factor.get(op, 1.0)
        return out

    def calls(self) -> dict:
        out = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def top_level_ns(self) -> int:
        """Time covered by outermost layer spans (tracer work excluded)."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent < 0 and name != TRACER)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
