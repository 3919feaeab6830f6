"""Span recorder and call wrappers for the traced benchmark run.

Tracing lives entirely in the benchmark: ``Tracer.install`` wraps the
public functions of each trustrel module from outside.  Because
``from .algebra import evaluate`` copies the binding, a wrapped
function is rebound under every name, in every loaded trustrel module,
that refers to the original.  A span records its name, start, end,
parent span and operation id; spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

#: Modules whose public functions are all wrapped: every function
#: defined in the module whose name does not start with ``_``.
#: ``errors`` holds no functions.
MODULES = (
    "trustrel.algebra", "trustrel.catalog", "trustrel.relations",
    "trustrel.report", "trustrel.cli",
)
#: Span names other than ``<module>.<function>``.
SPAN_NAMES = {
    "trustrel.catalog.assessment_from_dict": "catalog.parse",
    "trustrel.catalog.validate_assessment": "catalog.validate",
    "trustrel.catalog.aggregate_masses": "catalog.aggregate",
    "trustrel.report.run_whatif": "report.sweep",
    "trustrel.report.band_table_from_dict": "report.band_table",
}
#: Methods wrapped on classes: (module, class, attribute, span name).
METHODS = (
    ("trustrel.relations", "RelationStore", "evaluate_relation", "relations.insert"),
    ("trustrel.relations", "RelationStore", "query_relation", "relations.query"),
    ("trustrel.relations", "RelationStore", "relation_matrix", "relations.matrix"),
    ("trustrel.relations", "RelationStore", "to_dict", "relations.to_dict"),
    ("trustrel.relations", "RelationStore", "from_dict", "relations.from_dict"),
    ("trustrel.relations", "RelationStore", "save", "relations.save"),
    ("trustrel.relations", "RelationStore", "load", "relations.load"),
    ("trustrel.report", "EvaluationReport", "to_json", "report.render.json"),
    ("trustrel.report", "EvaluationReport", "to_text", "report.render.text"),
    ("trustrel.report", "EvaluationReport", "to_csv", "report.render.csv"),
    ("trustrel.report", "SweepResult", "to_json", "report.sweep_render.json"),
    ("trustrel.report", "SweepResult", "to_text", "report.sweep_render.text"),
    ("trustrel.report", "SweepResult", "to_csv", "report.sweep_render.csv"),
)

# Span tuple fields.
ID, PARENT, OP, NAME, START, END = range(6)


class Tracer:
    """Records spans for calls into trustrel while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # counts taken where the work happens
        self.bounds_keys: set = set()
        self.matrix_cells = 0
        self.sweep_points = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._op = 0
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name):
        """``fn`` recording a span named ``name`` (or ``name(args)``)."""
        tracer = self
        before, after = {
            "algebra.compute_bounds": (self._note_bounds, None),
            "relations.matrix": (self._note_matrix, None),
            "report.sweep": (None, self._note_sweep),
        }.get(name, (None, None))

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, tracer._op, span_name, start, end))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; its spans share an id."""
        self._op += 1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, 0, self._op, name, start, end))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded trustrel."""
        modules = [m for n, m in sys.modules.items() if n == "trustrel" or n.startswith("trustrel.")]
        for module, attr, original in public_functions():
            span = SPAN_NAMES.get(f"{module}.{attr}", f"{module.split('.')[1]}.{attr}")
            if (module, attr) == ("trustrel.cli", "main"):
                span = _cli_span_name
            traced = self._wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, original))
        for module, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self._wrap(raw.__func__, span))
            else:
                traced = self._wrap(raw, span)
            setattr(cls, attr, traced)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _note_bounds(self, args, kwargs) -> None:
        weights = args[0] if args else kwargs["weights"]
        signs = args[1] if len(args) > 1 else kwargs.get("signs", "default")
        self.bounds_keys.add((weights, signs))

    def _note_matrix(self, args, kwargs) -> None:
        nation_ids = args[1] if len(args) > 1 else kwargs["nation_ids"]
        self.matrix_cells += len(nation_ids) ** 2

    def _note_sweep(self, result) -> None:
        self.sweep_points += len(result.rows)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in µs from the first span."""
        origin = min((s[START] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s[START]):
                out.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "op": s[OP], "name": s[NAME],
                    "start_us": (s[START] - origin) / 1e3, "end_us": (s[END] - origin) / 1e3,
                }) + "\n")


def public_functions() -> list[tuple[str, str, object]]:
    """(module, name, function) of every loaded module's public functions."""
    found = []
    for module in MODULES:
        if module in sys.modules:
            for attr, value in vars(sys.modules[module]).items():
                if inspect.isfunction(value) and value.__module__ == module and not attr.startswith("_"):
                    found.append((module, attr, value))
    return found


def _cli_span_name(args) -> str:
    argv = args[0] if args else None
    command = argv[0] if argv else "none"
    return f"cli.main.{command}"


#: Span names whose descendants are counted separately by ``within``.
ENCLOSING = ("report.sweep", "relations.matrix")


class SpanSummary:
    """Per-name call counts, durations and self times of recorded spans.

    A span's self time is its duration minus its children's durations
    (calls are sequential, so children never overlap).  Root spans are
    the benchmark's operations; their total is the workload's wall time.
    Self times and the wall time leave out the set-up operation, whose
    calls still count and are still timed.
    """

    def __init__(self, spans: list[tuple], setup_op: str = "op.setup") -> None:
        child_ns: dict[int, int] = defaultdict(int)
        names = {}
        parents = {}
        setup_ids = {s[OP] for s in spans if s[PARENT] == 0 and s[NAME] == setup_op}
        for s in spans:
            child_ns[s[PARENT]] += s[END] - s[START]
            names[s[ID]] = s[NAME]
            parents[s[ID]] = s[PARENT]
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.within: dict[tuple[str, str], int] = defaultdict(int)
        self.op_ns = 0
        for s in spans:
            duration = s[END] - s[START]
            self.durations[s[NAME]].append(duration)
            if s[OP] not in setup_ids:
                self.self_ns[s[NAME]] += duration - child_ns[s[ID]]
                if s[PARENT] == 0:
                    self.op_ns += duration
            parent = s[PARENT]
            while parent:
                if names[parent] in ENCLOSING:
                    self.within[(names[parent], s[NAME])] += 1
                    break
                parent = parents[parent]

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def module_self_ns(self, module: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == module)
