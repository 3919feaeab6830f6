"""The ``assess`` workload: the analyst's library loop.

Each document of a seeded stream is parsed, validated, built into a
report under one of a few fixed weight profiles and rendered as JSON,
text or CSV in rotation; some carry a band table, every
``gen.SWEEP_EVERY``-th also gets a weight sweep and a property sweep,
and every ``gen.INVALID_EVERY``-th is invalid and must be rejected.
One client, closed loop: the next document starts when the last ends.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from statistics import median
from time import perf_counter_ns

import gen
import oracle
from common import catalog_props, op, percentile, raised

#: Documents in the traced run's fixed work (30 of them carry sweeps).
FIXED_DOCUMENTS = 600
#: Documents per measured block, about 1 s with today's trustrel on a
#: 2-vCPU VM; every SWEEP_EVERY documents in it hold one sweep document.
BLOCK_DOCUMENTS = 1000
WEIGHT_GRID = (0.0, 1.0, 1.0 / (gen.SWEEP_POINTS - 1))


class AssessWorkload:
    name = "assess"
    package = "trustrel"
    tail = 0.99
    ops_in_children = False

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.props = catalog_props(root)
        self.catalog_ref = oracle.props_by_id(self.props)

    def prepare(self, tr) -> None:
        """Set-up the program pays once: the default catalog and profiles."""
        self.tr = tr
        self.catalog = tr.default_catalog()
        self.profiles = [tr.WeightVector(*w) for w in gen.WEIGHT_PROFILES]

    def ready(self) -> list[str]:
        return []

    def process(self, case: gen.AssessCase) -> dict:
        """Run one document through the library; returns what it produced."""
        tr = self.tr
        assessment = tr.assessment_from_dict(json.loads(case.text))
        validation = tr.validate_assessment(assessment, self.catalog)
        if not validation.ok:
            return {"validation": validation}
        weights = self.profiles[case.profile]
        bands = tr.band_table_from_dict(case.bands) if case.bands else None
        report = tr.build_report(self.catalog, assessment, weights, bands=bands)
        if case.fmt == "json":
            rendered = report.to_json()
        elif case.fmt == "csv":
            rendered = report.to_csv()
        else:
            rendered = report.to_text()
        out = {"validation": validation, "report": report, "rendered": rendered}
        if case.sweep is not None:
            category, prop, cap = case.sweep
            start = perf_counter_ns()
            out["weight_sweep"] = tr.run_whatif(
                self.catalog, assessment, weights,
                tr.SensitivitySpec("weight", category, *WEIGHT_GRID),
            )
            out["property_sweep"] = tr.run_whatif(
                self.catalog, assessment, weights,
                tr.SensitivitySpec("property", prop, *gen.sweep_grid(cap)),
            )
            out["sweep_ns"] = perf_counter_ns() - start
        return out

    def check(self, case: gen.AssessCase, out: dict) -> list[str]:
        """Compare one document's outcome with the oracle."""
        validation = out["validation"]
        if case.defect is not None:
            want = oracle.expected_violations(case.doc, self.catalog_ref)
            if validation.ok:
                return [f"{case.defect} document accepted"]
            if len(validation.violations) != want:
                return [f"{len(validation.violations)} violations, oracle {want}"]
            return []
        if not validation.ok:
            return ["valid document rejected: " + "; ".join(validation.violations)]
        weights = gen.WEIGHT_PROFILES[case.profile]
        report = out["report"]
        problems = oracle.check_report(report, case.doc, self.catalog_ref, weights, case.bands)
        problems += oracle.check_rendering(case.fmt, out["rendered"], report)
        if case.sweep is not None:
            category, prop, cap = case.sweep
            problems += oracle.check_sweep(
                out["weight_sweep"], case.doc, self.catalog_ref, weights,
                "weight", category, WEIGHT_GRID, gen.SWEEP_POINTS)
            problems += oracle.check_sweep(
                out["property_sweep"], case.doc, self.catalog_ref, weights,
                "property", prop, gen.sweep_grid(cap), gen.SWEEP_POINTS)
        return problems

    def _one(self, index: int, tally, tracer=None) -> tuple[int, dict]:
        case = gen.assess_case(self.seed, index, self.props)
        out: dict = {}
        start = perf_counter_ns()
        try:
            with op(tracer, "op.document"):
                out = self.process(case)
            problems = []
        except Exception as err:  # an unexpected failure is a failed operation
            problems = raised(err)
        elapsed = perf_counter_ns() - start
        tally.record(f"assess document {index}", problems or self.check(case, out))
        return elapsed, out

    def block(self, index: int, tally) -> list[tuple]:
        """Documents of block ``index`` as one segment: (position,
        latencies, samples).  Blocks hold different documents, but each
        holds enough of them that their costs average out."""
        latencies = array("q")
        samples = {"sweep_ns": [], "sweep_points": 0}
        for doc in range(index * BLOCK_DOCUMENTS, (index + 1) * BLOCK_DOCUMENTS):
            elapsed, out = self._one(doc, tally)
            latencies.append(elapsed)
            if "sweep_ns" in out:
                samples["sweep_ns"].append(out["sweep_ns"])
                samples["sweep_points"] += len(out["weight_sweep"].rows) + len(out["property_sweep"].rows)
        return [("documents", latencies, samples)]

    def detail(self, samples: dict, ops, rate: float) -> list[tuple]:
        """The workload's own named metrics."""
        n, points = len(ops), samples["sweep_points"]
        return [
            ("assess_ops_per_s", rate, "1/s", f"{n} documents per busy second"),
            ("assess_p50_us", median(ops) / 1e3, "us", f"median of {n}"),
            ("assess_p99_us", percentile(ops, 0.99) / 1e3, "us",
             f"p99 of {n}, {n - int(0.99 * n)} beyond"),
            ("sweep_points_per_s", points / (sum(samples["sweep_ns"]) / 1e9), "1/s",
             f"{points} points in {len(samples['sweep_ns'])} sweep pairs"),
        ]

    def fixed(self, tally, tracer) -> dict:
        """The traced run's fixed work: the first FIXED_DOCUMENTS documents."""
        for index in range(FIXED_DOCUMENTS):
            self._one(index, tally, tracer)
        return {}
