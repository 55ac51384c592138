"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces each traced public function at every module
attribute that refers to it -- the names its callers bind, such as
`sinr_map_irs` in `coverage`, `placement` and `cli` -- with a wrapper that
records a span, and returns a function that puts the originals back.

Each thread keeps its own span stack.  A span that starts in a thread
with an empty stack (a sweep pool worker) takes the open
`placement.optimize_placement` span as its parent.  A span's self time is
its duration minus the durations of its children on the same thread, so
the waiting time of `optimize_placement` on its pool is part of its self
time, and self times summed over threads can exceed wall time.

Spans are aggregated in memory per (parent, name) edge and written out
when the run ends.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

_points = lambda args, result: result.values.size  # noqa: E731

# span name -> the per-layer metrics reported for it
SPANS = {
    "cli.run": ("self_s",),
    "scenario.load_scenario": ("calls", "self_s"),
    "scenario.with_panel_position": ("calls", "self_s"),
    "coverage.sinr_map_irs": ("calls", "self_s", "points"),
    "coverage.sinr_map_conventional": ("calls", "self_s", "points"),
    "coverage.cell_edge_points": ("calls", "self_s", "points"),
    "coverage.edge_stats": ("calls", "self_s", "points"),
    "coverage.map_to_csv": ("calls", "self_s", "bytes"),
    "placement.optimize_placement": ("calls", "self_s"),
    "placement.evaluate_placement": ("calls", "self_s"),
    "placement.compare_models": ("calls", "self_s"),
    "placement.ranking_to_csv": ("self_s",),
    "placement.enumerate_candidates": ("self_s",),
    "linkbudget.irs_rx_power": ("calls", "self_s"),
    "linkbudget.conventional_rx_power": ("calls", "self_s"),
    "linkbudget.incidence_angles": ("calls", "self_s"),
    "sinr.interference_power": ("calls", "self_s"),
    "sinr.sinr": ("calls", "self_s"),
}
# span name -> its work count, taken from (args, result)
WORK = {
    "coverage.sinr_map_irs": _points,
    "coverage.sinr_map_conventional": _points,
    "coverage.cell_edge_points": lambda args, result: len(result),
    "coverage.edge_stats": lambda args, result: len(args[1]),
    "coverage.map_to_csv": lambda args, result: len(result),
    "placement.optimize_placement": lambda args, result: len(result),
}
# functions whose calls are counted without a span: too frequent to time
COUNTED = ("linkbudget.distance",)
FANOUT = "placement.optimize_placement"


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._fanout: list | None = None
        self.counters: dict[str, float] = {}

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._tables.append(state[1])
        return state

    def _span(self, name, fn, work):
        def traced(*args, **kwargs):
            stack, table = self._state()
            parent = stack[-1][0] if stack else (self._fanout[0] if self._fanout else "")
            frame = [name, 0.0]
            stack.append(frame)
            if name == FANOUT:
                self._fanout = frame
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if name == FANOUT:
                    self._fanout = None
                if stack:
                    stack[-1][1] += elapsed
                row = table.setdefault((parent, name), [0, 0.0, 0])
                row[0] += 1
                row[1] += elapsed - frame[1]
            if work is not None:
                row[2] += work(args, result)
            return result

        return traced

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            _, table = self._state()
            table.setdefault(("", name), [0, 0.0, 0])[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every binding of the traced functions; returns the undo."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "irs_planner" or n.startswith("irs_planner."))]
        originals = {}
        for name in list(SPANS) + list(COUNTED):
            module, attr = name.split(".")
            fn = getattr(sys.modules["irs_planner." + module], attr)
            wrapped = (self._count(name, fn) if name in COUNTED
                       else self._span(name, fn, WORK.get(name)))
            originals[id(fn)] = (fn, wrapped)
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    patched.append((module, attr, value))

        def restore():
            for module, attr, value in patched:
                setattr(module, attr, value)

        return restore

    def add(self, name: str, amount: float) -> None:
        """A count measured by the caller at a layer boundary."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def edges(self) -> list[dict]:
        """Every (parent, span) edge with its calls, self time and work."""
        merged: dict[tuple, list] = {}
        with self._lock:
            for table in self._tables:
                for key, row in table.items():
                    total = merged.setdefault(key, [0, 0.0, 0])
                    for k in range(3):
                        total[k] += row[k]
        return [{"parent": p, "span": n, "calls": c, "self_s": s, "work": w}
                for (p, n), (c, s, w) in sorted(merged.items())]

    def totals(self) -> dict[str, list]:
        """span -> [calls, self seconds, work] summed over threads and parents."""
        out: dict[str, list] = {}
        for edge in self.edges():
            total = out.setdefault(edge["span"], [0, 0.0, 0])
            total[0] += edge["calls"]
            total[1] += edge["self_s"]
            total[2] += edge["work"]
        return out
