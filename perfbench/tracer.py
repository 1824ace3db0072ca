"""Span tracing of pcpkit's layer modules, installed from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper wherever pcpkit holds a direct reference to the original
(``from .pairs import check_necessary`` in ``construct``, ``cldui`` and
``cli``; ``decompose_comparison`` in ``abssep``; the package namespace).
Each call records a span ``(id, parent id, name, start, end)``; at the end of
an operation the spans are folded into per-function totals, where a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

LAYERS = ("linalg", "pairs", "construct", "cldui", "abssep", "fileio", "cli")
ROUTES = ("decompose_diagonal_x", "decompose_2x2", "decompose_comparison", "decompose_recursive")
VERDICT_CLASSES = ("separable", "entangled_ppt", "entangled_realignment", "inconclusive")
SUBCOMMANDS = ("check-pair", "decompose", "check-state", "abs-ppt")


def _route_hook(counters, args, kwargs, out):
    if out.ok:
        counters["decomposed"] = counters.get("decomposed", 0) + 1


def _recursive_hook(counters, args, kwargs, out):
    _route_hook(counters, args, kwargs, out)
    counters["attempts"] = counters.get("attempts", 0) + int(out.info.get("attempts", 0))


def _verdict_hook(counters, args, kwargs, out):
    label = out.verdict if out.verdict != "entangled" else f"entangled_{out.criterion}"
    counters[label] = counters.get(label, 0) + 1


def _certificate_hook(counters, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    counters["bytes"] = counters.get("bytes", 0) + os.path.getsize(path)


HOOKS = {
    **{f"construct.{r}": _route_hook for r in ROUTES},
    "construct.decompose_recursive": _recursive_hook,
    "cldui.separability_verdict": _verdict_hook,
    "fileio.save_certificate": _certificate_hook,
}


class Aggregate:
    """Per-function totals: calls, total and self nanoseconds, hook counters."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, dict[str, int]] = {}

    def add_span(self, name: str, dur: int, self_ns: int) -> None:
        s = self.stats.setdefault(name, [0, 0, 0])
        s[0] += 1
        s[1] += dur
        s[2] += self_ns

    def merge(self, other: "Aggregate") -> None:
        for name, (calls, total, own) in other.stats.items():
            s = self.stats.setdefault(name, [0, 0, 0])
            s[0] += calls
            s[1] += total
            s[2] += own
        for name, counts in other.counters.items():
            mine = self.counters.setdefault(name, {})
            for key, value in counts.items():
                mine[key] = mine.get(key, 0) + value

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def total_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e6

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e6

    def counter(self, name: str, key: str) -> int:
        return self.counters.get(name, {}).get(key, 0)

    def to_json(self) -> dict:
        return {"stats": self.stats, "counters": self.counters}

    @classmethod
    def from_json(cls, doc: dict) -> "Aggregate":
        agg = cls()
        agg.stats = {k: list(v) for k, v in doc["stats"].items()}
        agg.counters = {k: dict(v) for k, v in doc["counters"].items()}
        return agg


class Tracer:
    def __init__(self):
        self.agg = Aggregate()
        self._spans: list[tuple[int, int | None, str, int, int]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if hook is not None:
                hook(self.agg.counters.setdefault(name, {}), args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere they are bound."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pcpkit.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pcpkit" or modname.startswith("pcpkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    @contextmanager
    def section(self):
        """Fold the spans recorded inside the block into the totals."""
        self._spans.clear()
        try:
            yield
        finally:
            children: dict[int, int] = {}
            for sid, parent, name, start, end in self._spans:
                if parent is not None:
                    children[parent] = children.get(parent, 0) + end - start
            for sid, parent, name, start, end in self._spans:
                dur = end - start
                self.agg.add_span(name, dur, dur - children.get(sid, 0))
            self._spans.clear()

    def take(self) -> Aggregate:
        """Return the totals so far and start new ones."""
        agg, self.agg = self.agg, Aggregate()
        return agg


def run_traced_cli(argv: list[str], out_path: str) -> int:
    """Import the CLI, install the wrappers, run one command, write its totals."""
    start = time.perf_counter_ns()
    cli = importlib.import_module("pcpkit.cli")
    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.section():
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        doc = tracer.agg.to_json()
        doc["import_ns"] = import_ns
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return code
