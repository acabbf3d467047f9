"""Span tracing around the library's public functions, from outside the library.

``Tracer.install`` replaces each listed public function wherever a
``cycleramsey`` module binds it (the defining module, the package and every
module that imported it by name), plus ``Graph.__init__``. Calls made through
those names open a span: name, start, end and parent. Spans are kept in
compact arrays and written out once, at the end. ``uninstall`` restores the
original objects. Library code is not modified.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

MODULES = (
    "cycleramsey",
    "cycleramsey.graphs",
    "cycleramsey.cycles",
    "cycleramsey.matchings",
    "cycleramsey.bounds",
    "cycleramsey.constructions",
    "cycleramsey.search",
    "cycleramsey.harness",
    "cycleramsey.cli",
)

# (defining module, public function) for every layer boundary that is traced.
TRACED = (
    ("graphs", "components"),
    ("graphs", "bipartition"),
    ("graphs", "load_graph"),
    ("graphs", "dump_graph"),
    ("graphs", "load_coloring"),
    ("graphs", "dump_coloring"),
    ("cycles", "has_cycle_of_length"),
    ("cycles", "longest_cycle"),
    ("matchings", "maximum_matching"),
    ("matchings", "best_component_matching"),
    ("matchings", "tutte_partition"),
    ("bounds", "floor_parity"),
    ("bounds", "sqrt_enclosure"),
    ("bounds", "theorem_coefficient"),
    ("bounds", "xi"),
    ("bounds", "lemma_dwa_host_size"),
    ("bounds", "lemma_trzy_host_size"),
    ("bounds", "construction_sizes"),
    ("constructions", "build_odd_triple"),
    ("constructions", "build_eeo_four_part"),
    ("constructions", "build_eeo_three_part"),
    ("constructions", "build_oee_four_part"),
    ("constructions", "verify_claims"),
    ("search", "arrow_exhaustive"),
    ("search", "arrow_randomized"),
    ("search", "coloring_avoids_all"),
    ("harness", "lemma_harness"),
    ("cli", "run"),
)

GRAPH_INIT = "graphs.Graph"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}  # span -> exception class name
        self.results: list[tuple[str, object]] = []  # (span name, return value)
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        span = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._open.append(span)
        return span

    def finish(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn, keep_result: bool):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[span] = type(exc).__name__
                raise
            finally:
                self.finish(span)
            if keep_result:
                self.results.append((name, out))
            return out

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for home, attr in TRACED:
            original = getattr(importlib.import_module(f"cycleramsey.{home}"), attr)
            # verdicts and harness reports carry the layer's work counters
            keep = (home, attr) in (
                ("search", "arrow_exhaustive"),
                ("search", "arrow_randomized"),
                ("harness", "lemma_harness"),
            )
            wrapper = self._wrap(f"{home}.{attr}", original, keep)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        graph = importlib.import_module("cycleramsey.graphs").Graph
        self._saved.append((graph, "__init__", graph.__init__))
        graph.__init__ = self._wrap(GRAPH_INIT, graph.__init__, False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time covered by its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[span] - self.start[span]
        return own

    def has_ancestor(self, span: int, name_id: int) -> bool:
        span = self.parent[span]
        while span >= 0:
            if self.name_of[span] == name_id:
                return True
            span = self.parent[span]
        return False

    def write(self, path) -> None:
        """One line per span: id, parent, name, start and end in microseconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            out.write("id,parent,name,start_us,end_us,error\n")
            for span in range(len(self.start)):
                out.write(
                    f"{span},{self.parent[span]},{self.names[self.name_of[span]]},"
                    f"{(self.start[span] - t0) * 1e6:.1f},"
                    f"{(self.end[span] - t0) * 1e6:.1f},"
                    f"{self.errors.get(span, '')}\n"
                )
