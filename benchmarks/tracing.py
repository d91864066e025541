"""Span tracing of the library's public functions, installed from outside.

Each listed function is wrapped where its callers look it up: in the module
that defines it, in every ``nc2ent`` module that imported it by name, and in
the package namespace. Methods and the ``ClassicalSet`` constructor are
wrapped on their class. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import nc2ent

# module -> public names whose calls become spans
TRACED = {
    "linalg": ("synthesize_unitary", "factor_gram", "schmidt_decompose", "gram_of", "negativity"),
    "conversion": ("ClassicalSet", "epsilon_max", "make_split", "build_conversion",
                   "Conversion.convert", "Conversion.convert_density", "classical_rank"),
    "witness": ("swap_style_witness", "nonclassicality_witness", "detect"),
    "gcnot": ("sweep_surface", "optimal_epsilon", "maximal_input_count", "output_entanglement"),
    "symmetric": ("coherent_state", "splitting_isometry", "symmetric_power_matrix"),
    "modesplit": ("run_protocol", "apply_tunneling", "sector_probabilities", "project_sector"),
}


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count"
        units[f"{span}.ms"] = "ms"
        units[f"{span}.self_ms"] = "ms"
    units["conversion.make_split.failed"] = "count"
    units["modesplit.run_protocol.success_ratio"] = "ratio"
    units["modesplit.rounds_per_run"] = "rounds/run"
    return units


class Tracer:
    """Records (name, start_ns, end_ns, parent, failed) spans; the parent is
    the index of the enclosing span, or -1."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, bool]] = []
        self.protocol_runs = 0
        self.protocol_successes = 0
        self.protocol_rounds = 0
        self._stack: list[int] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, observe=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            failed = True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name_id, start, end, parent, failed)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_protocol(self, result) -> None:
        self.protocol_runs += 1
        self.protocol_successes += int(result.succeeded)
        self.protocol_rounds += result.rounds

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [nc2ent] + [m for name, m in sys.modules.items() if name.startswith("nc2ent.")]
        for module_name, names in TRACED.items():
            module = sys.modules[f"nc2ent.{module_name}"]
            for name in names:
                label = f"{module_name}.{name}"
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, method, self.span(label, cls.__dict__[method]))
                    continue
                original = getattr(module, name)
                if isinstance(original, type):
                    self._patch(original, "__init__", self.span(label, original.__init__))
                    continue
                observe = self._observe_protocol if label == "modesplit.run_protocol" else None
                wrapped = self.span(label, original, observe)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def root(self, fn):
        """Wrap one benchmark operation, so its spans share one root."""
        return self.span("op", fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the run: calls, inclusive ms and self ms per
        traced function, the failed make_split count and the protocol ratios."""
        calls = defaultdict(int)
        total = defaultdict(int)
        child = defaultdict(int)
        failed = defaultdict(int)
        for name_id, start, end, parent, did_fail in self.spans:
            calls[name_id] += 1
            total[name_id] += end - start
            failed[name_id] += did_fail
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(int)
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            own[name_id] += end - start - child[index]
        out = {}
        for span in span_names():
            name_id = self._ids[span]
            out[f"{span}.calls"] = calls[name_id]
            out[f"{span}.ms"] = total[name_id] / 1e6
            out[f"{span}.self_ms"] = own[name_id] / 1e6
        out["conversion.make_split.failed"] = failed[self._ids["conversion.make_split"]]
        runs = self.protocol_runs
        out["modesplit.run_protocol.success_ratio"] = self.protocol_successes / runs if runs else 0.0
        out["modesplit.rounds_per_run"] = self.protocol_rounds / runs if runs else 0.0
        return out

    def dump(self) -> dict:
        """All spans in compact form: a name table and [name, start_ns,
        end_ns, parent, failed] rows."""
        return {"names": self.names, "columns": ["name", "start_ns", "end_ns", "parent", "failed"],
                "spans": [list(s) for s in self.spans]}
