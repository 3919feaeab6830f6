"""The ``store`` workload: the relation-store lifecycle.

One lifecycle builds a fresh store of ``NATIONS`` nations: every
ordered pair is evaluated over 1-2 windows with fresh random weights,
then point queries (contained, near-miss, undefined, self) and full
N x N matrices read it back, a mixed phase replaces existing records
between queries, and a save -> load round trip ends it.  Lifecycles
repeat until the run's time is up.  One client, closed loop.
"""

from __future__ import annotations

import random
from array import array
from itertools import chain
from pathlib import Path
from statistics import median
from time import perf_counter_ns

import gen
import oracle
from common import catalog_props, op, percentile, raised

# Per lifecycle.  The read and mixed-phase sizes are assumed, not taken
# from real usage; README.md ("Traffic mix") gives the reasons.
NATIONS = 60
QUERIES = 400
MATRIX_WINDOWS = 4
MATRICES_PER_LIFECYCLE = 2
MIXED = 300
#: Writes per segment of the write phase.
INSERT_CHUNK = 1000


class StoreWorkload:
    name = "store"
    package = "trustrel"
    tail = 0.99
    ops_in_children = False

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.props = catalog_props(root)
        self.catalog_ref = oracle.props_by_id(self.props)
        self.plan = gen.store_plan(seed, NATIONS, QUERIES, MATRIX_WINDOWS)

    def prepare(self, tr) -> None:
        """Set-up the program pays once: the catalog and the nation registry."""
        self.tr = tr
        self.catalog = tr.default_catalog()
        self.new_store()

    def ready(self) -> list[str]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return []

    def new_store(self):
        tr = self.tr
        store = tr.RelationStore()
        for nation in self.plan.nations:
            store.register_nation(tr.Nation(nation))
        return store

    def _write(self, store, reference, lifecycle, index, key, samples, tally, tracer) -> None:
        """Evaluate one record; only ``evaluate_relation`` is timed."""
        tr = self.tr
        doc, weights = gen.store_record(self.seed, lifecycle, index, self.props, key)
        subject, object, start, end = key
        problems = []
        try:
            with op(tracer, "op.insert"):
                assessment = tr.assessment_from_dict(doc)
                vector = tr.WeightVector(*weights)
                begin = perf_counter_ns()
                record = store.evaluate_relation(subject, object, assessment, self.catalog, vector)
                samples["insert"].append(perf_counter_ns() - begin)
        except Exception as err:  # an unexpected failure is a failed operation
            problems = raised(err)
        m = oracle.masses(doc, self.catalog_ref)
        if not problems:
            problems = oracle.check_evaluation(record.evaluation, m, weights)
            if (record.window.start, record.window.end) != (start, end):
                problems.append(f"record window {record.window}")
        label = oracle.labels_for(oracle.trust_mass(m, weights), oracle.bounds(weights))
        reference.put(subject, object, start, end,
                      record.label if not problems else sorted(label)[0])
        tally.record(f"insert {subject}->{object} {start}", problems)

    def _query(self, store, reference, query, samples, tally, tracer) -> None:
        subject, object, start, end, kind = query
        window = self.tr.DateWindow(start, end)
        try:
            with op(tracer, "op.query"):
                begin = perf_counter_ns()
                record = store.query_relation(subject, object, window)
                samples["query"].append(perf_counter_ns() - begin)
            problems = oracle.check_query(record, reference, subject, object, start, end)
        except Exception as err:  # an unexpected failure is a failed operation
            problems = raised(err)
        tally.record(f"{kind} query {subject}->{object}", problems)

    def lifecycle(self, lifecycle: int, tally, tracer=None) -> tuple[list[tuple], dict]:
        """Write, read, mix and round-trip one fresh store.

        Returns the lifecycle's segments, (position, latencies, samples)
        with one position per phase and per INSERT_CHUNK writes, and the
        store facts the traced run reports.
        """
        tr = self.tr
        store = self.new_store()
        reference = oracle.ReferenceStore()
        plan = self.plan
        segments = []

        def close(position, samples: dict) -> None:
            latencies = array("q", chain.from_iterable(samples.values()))
            segments.append((position, latencies, samples))

        for first in range(0, len(plan.keys), INSERT_CHUNK):
            samples = self.new_samples()
            for index in range(first, min(first + INSERT_CHUNK, len(plan.keys))):
                self._write(store, reference, lifecycle, index, plan.keys[index], samples, tally, tracer)
            close(("insert", first), samples)
        samples = self.new_samples()
        for query in plan.queries:
            self._query(store, reference, query, samples, tally, tracer)
        close(("query",), samples)
        for j in range(MATRICES_PER_LIFECYCLE):
            k = (lifecycle * MATRICES_PER_LIFECYCLE + j) % MATRIX_WINDOWS
            start, end = plan.matrix_windows[k]
            window = tr.DateWindow(start, end)
            samples = self.new_samples()
            try:
                with op(tracer, "op.matrix"):
                    begin = perf_counter_ns()
                    rows = store.relation_matrix(plan.nations, window)
                    samples["matrix"].append(perf_counter_ns() - begin)
                problems = oracle.check_matrix(rows, reference, plan.nations, start, end)
            except Exception as err:  # an unexpected failure is a failed operation
                problems = raised(err)
            tally.record(f"matrix {start}..{end}", problems)
            close(("matrix", k), samples)
        rng = random.Random(f"store-mixed:{self.seed}:{lifecycle}")
        samples = self.new_samples()
        for j in range(MIXED):
            key = plan.keys[rng.randrange(len(plan.keys))]
            self._write(store, reference, lifecycle, len(plan.keys) + j, key, samples, tally, tracer)
            self._query(store, reference, plan.queries[j % len(plan.queries)], samples, tally, tracer)
        close(("mixed",), samples)
        path = self.workdir / "store.json"
        samples = self.new_samples()
        try:
            with op(tracer, "op.roundtrip"):
                begin = perf_counter_ns()
                store.save(path)
                loaded = tr.RelationStore.load(path)
                samples["roundtrip"].append(perf_counter_ns() - begin)
            problems = [] if loaded == store else ["loaded store differs from the saved one"]
        except Exception as err:  # an unexpected failure is a failed operation
            problems = raised(err)
        tally.record("save/load round trip", problems)
        close(("roundtrip",), samples)
        facts = {"records": len(store.records),
                 "store_bytes": path.stat().st_size if path.exists() else 0}
        return segments, facts

    @staticmethod
    def new_samples() -> dict:
        return {"insert": array("q"), "query": array("q"), "matrix": [], "roundtrip": []}

    def block(self, index: int, tally) -> list[tuple]:
        """Lifecycle ``index`` as segments: (position, latencies, samples)."""
        return self.lifecycle(index, tally)[0]

    def detail(self, samples: dict, ops, rate: float) -> list[tuple]:
        """The workload's own named metrics."""
        inserts, queries = samples["insert"], samples["query"]
        return [
            ("store_insert_p50_us", median(inserts) / 1e3, "us", f"median of {len(inserts)}"),
            ("store_insert_p99_us", percentile(inserts, 0.99) / 1e3, "us", f"p99 of {len(inserts)}"),
            ("store_query_p50_us", median(queries) / 1e3, "us", f"median of {len(queries)}"),
            ("store_query_p99_us", percentile(queries, 0.99) / 1e3, "us", f"p99 of {len(queries)}"),
            ("store_matrix_s", median(samples["matrix"]) / 1e9, "s",
             f"median of {len(samples['matrix'])} {NATIONS}x{NATIONS} matrices"),
            ("store_roundtrip_s", median(samples["roundtrip"]) / 1e9, "s",
             f"median of {len(samples['roundtrip'])} save+load"),
        ]

    def fixed(self, tally, tracer) -> dict:
        """The traced run's fixed work: lifecycle 0."""
        return self.lifecycle(0, tally, tracer)[1]

