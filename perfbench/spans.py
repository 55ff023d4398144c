"""In-memory span tracer that times the engine's layers from the outside.

``Tracer.install`` replaces the public functions of each engine module with
wrappers that open a span around the call.  Because the module attribute
itself is replaced, calls a module makes to its own functions are caught
too.  ``Tracer.uninstall`` puts the original functions back, so code run
afterwards is not traced.

A span is a list ``[name, start, end, parent, root, extra]``; ``parent`` and
``root`` are span indices (-1 for no parent), and ``extra`` holds counters
a measure function derived from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, ROOT, EXTRA = range(6)

# Engine modules in dependency order, each a layer.
LAYERS = ("linalg", "curverep", "divisors", "jacobian", "hyperelliptic", "cantor")
# Private by name, but the entry point that jacobian and divisors call.
PRIVATE_ENTRIES = frozenset({"_apply_mul"})


def _rref_work(args, result) -> dict:
    rows, cols = args[1].shape
    return {"elim_ops": len(result[1]) * rows * cols}


def _table_bytes(args, result) -> dict:
    tables = getattr(args[0], "tables", None)
    return {"bytes": tables.nbytes if tables is not None else 0}


MEASURES = {
    "linalg.rref": _rref_work,
    "curverep.mult_matrix": _table_bytes,
}


def layer_modules():
    import importlib

    return [importlib.import_module(f"jacarith.{name}") for name in LAYERS]


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__.lstrip('_')}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                self.spans[idx][EXTRA] = measure(args, result)
            return result
        return traced

    def install(self, modules) -> None:
        """Wrap every engine function reachable as a module attribute.

        Functions a module imported from another engine module are wrapped
        there too, under the name of the module that defines them.
        """
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith("jacarith.")):
                    continue
                if attr.startswith("_") and attr not in PRIVATE_ENTRIES:
                    continue
                name = span_name(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(name, obj, MEASURES.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "root", "extra"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def aggregate(spans, selfs, keep_root) -> dict:
    """Per span name: calls, self seconds and summed extras, over the spans
    whose root span satisfies ``keep_root``."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, selfs):
        if not keep_root(spans[span[ROOT]]):
            continue
        entry = out[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span[END] - span[START]
        for key, value in (span[EXTRA] or {}).items():
            entry[key] += value
    return out
