"""The ``cli`` workload: sequential subprocess calls of ``trustrel.cli``.

Set-up writes the input files (catalog, assessments, band tables, a
malformed document and a 20-nation store).  The calls then cycle
through ``evaluate``, ``whatif``, ``matrix`` and ``validate``; three
of every 24 are expected to fail with exit status 1 or 2.  Every call
must print exactly what the same rendering prints in-process.  One
client, closed loop: the next process starts when the last has exited.
"""

from __future__ import annotations

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from pathlib import Path
from statistics import median
from time import perf_counter_ns

import gen
import oracle
from common import catalog_props, child_env, op, percentile, raised

#: Subprocess runs behind each start-up probe median.
PROBES = 10
CALL_TIMEOUT_S = 120


class CliWorkload:
    name = "cli"
    package = "trustrel.cli"
    tail = 0.90
    # each call runs in a child process, which the in-process reference
    # job does not track, so only setup_s is scaled
    ops_in_children = True

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.rel = workdir.relative_to(root).as_posix()
        self.props = catalog_props(root)
        self.catalog_ref = oracle.props_by_id(self.props)
        self.plan = gen.cli_plan(seed, self.props, self.rel)
        self.env = child_env(root)

    def prepare(self, tr) -> None:
        """Set-up: load the catalog and write every input file."""
        self.tr = tr
        self.catalog = tr.default_catalog()
        self.workdir.mkdir(parents=True, exist_ok=True)
        tr.save_catalog(self.catalog, self.workdir / "catalog.json")
        for name, text in self.plan.files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        store = tr.RelationStore()
        for nation in self.plan.store_nations:
            store.register_nation(tr.Nation(nation))
        for doc, weights in self.plan.store_records:
            store.evaluate_relation(doc["subject"], doc["object"], tr.assessment_from_dict(doc),
                                    self.catalog, tr.WeightVector(*weights))
        store.save(self.workdir / "store.json")
        self.records = len(store.records)

    # -- expected outputs ---------------------------------------------------

    def ready(self) -> list[str]:
        """Render every call's expected stdout in-process and check it."""
        reference = oracle.ReferenceStore()
        for doc, weights in self.plan.store_records:
            m = oracle.masses(doc, self.catalog_ref)
            labels = oracle.labels_for(oracle.trust_mass(m, weights), oracle.bounds(weights))
            window = doc["window"]
            reference.put(doc["subject"], doc["object"], date.fromisoformat(window["start"]),
                          date.fromisoformat(window["end"]), sorted(labels)[0])
        self.expected = []
        problems = []
        for call in self.plan.calls:
            stdout, found = self._expected(call, reference)
            self.expected.append(stdout.encode("utf-8"))
            problems += [f"{call.argv[0]}: {p}" for p in found]
        return problems

    def _expected(self, call: gen.CliCall, reference) -> tuple[str, list[str]]:
        tr, meta, command = self.tr, call.meta, call.argv[0]
        if "fails" in meta:
            return "", []
        if command in ("evaluate", "whatif"):
            doc = self.plan.docs[meta["doc"]]
            weights = gen.WEIGHT_PROFILES[meta["profile"]]
            assessment = tr.load_assessment(self.workdir / f"a{meta['doc']}.json")
            vector = tr.WeightVector(*weights)
        if command == "evaluate":
            bands_doc = bands = None
            if meta["bands"] is not None:
                bands_doc = gen.band_table_doc(weights)
                bands = tr.load_band_table(self.workdir / f"bands{meta['bands']}.json")
            result = tr.build_report(self.catalog, assessment, vector, bands=bands)
            stdout = _render(result, meta["fmt"])
            problems = oracle.check_report(result, doc, self.catalog_ref, weights, bands_doc)
            return stdout, problems + oracle.check_rendering(meta["fmt"], stdout, result)
        if command == "whatif":
            spec = tr.SensitivitySpec(meta["kind"], meta["target"], *meta["grid"])
            result = tr.run_whatif(self.catalog, assessment, vector, spec)
            return _render(result, meta["fmt"]), oracle.check_sweep(
                result, doc, self.catalog_ref, weights, meta["kind"], meta["target"],
                meta["grid"], gen.SWEEP_POINTS)
        if command == "matrix":
            store = tr.RelationStore.load(self.workdir / "store.json")
            ids = meta["nations"] or [n.id for n in store.nations]
            start, end = meta["window"]
            rows = store.relation_matrix(ids, tr.DateWindow(start, end))
            return (oracle.matrix_stdout(ids, rows, meta["fmt"]),
                    oracle.check_matrix(rows, reference, ids, start, end))
        # validate
        lines, problems = [], []
        if meta["catalog"]:
            lines.append(f"catalog {self.rel}/catalog.json: OK ({len(self.catalog.properties)} properties)")
        if meta["doc"] is not None:
            path = f"{self.rel}/a{meta['doc']}.json"
            report = tr.validate_assessment(tr.load_assessment(path), self.catalog)
            lines += [f"warning: {w}" for w in report.warnings]
            if report.ok:
                lines.append(f"assessment {path}: OK ({len(self.plan.docs[meta['doc']]['entries'])} entries)")
            else:
                lines += [f"violation: {v}" for v in report.violations]
                lines.append(f"assessment {path}: INVALID ({len(report.violations)} violations)")
            want = oracle.expected_violations(self.plan.docs[meta["doc"]], self.catalog_ref)
            if len(report.violations) != want:
                problems.append(f"{len(report.violations)} violations, oracle {want}")
        return "".join(line + "\n" for line in lines), problems

    # -- subprocess calls -----------------------------------------------------

    def _call(self, index: int, tally) -> int:
        call = self.plan.calls[index]
        begin = perf_counter_ns()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "trustrel.cli", *call.argv], cwd=self.root,
                env=self.env, capture_output=True, timeout=CALL_TIMEOUT_S,
            )
            elapsed = perf_counter_ns() - begin
            problems = oracle.check_cli(proc.returncode, proc.stdout,
                                        call.expected_status, self.expected[index])
        except (OSError, subprocess.SubprocessError) as err:
            elapsed = perf_counter_ns() - begin
            problems = raised(err)
        tally.record(f"cli {call.argv[0]} #{index}", problems)
        return elapsed

    def block(self, index: int, tally) -> list[tuple]:
        """One cycle through the calls, each call its own segment:
        (position, latencies, samples)."""
        return [(("call", i), [self._call(i, tally)], {}) for i in range(len(self.plan.calls))]

    def detail(self, samples: dict, ops, rate: float) -> list[tuple]:
        """The workload's own named metrics."""
        n = len(ops)
        return [
            ("cli_p50_ms", median(ops) / 1e6, "ms", f"median of {n} calls"),
            ("cli_p90_ms", percentile(ops, 0.90) / 1e6, "ms", f"p90 of {n} calls, {n - int(0.9 * n)} beyond"),
        ]

    # -- traced run -------------------------------------------------------------

    def fixed(self, tally, tracer) -> dict:
        """The traced run's fixed work: one cycle through ``cli.main`` in-process."""
        cli = sys.modules["trustrel.cli"]
        stdout_bytes = 0
        for index, call in enumerate(self.plan.calls):
            out, err = io.StringIO(), io.StringIO()
            try:
                with op(tracer, "op.cli"), redirect_stdout(out), redirect_stderr(err):
                    status = cli.main(list(call.argv))
                stdout = out.getvalue().encode("utf-8")
                stdout_bytes += len(stdout)
                problems = oracle.check_cli(status, stdout, call.expected_status, self.expected[index])
            except Exception as exc:  # an unexpected failure is a failed operation
                problems = raised(exc)
            tally.record(f"cli.main {call.argv[0]} #{index}", problems)
        return {"stdout_bytes": stdout_bytes, "records": self.records,
                "store_bytes": (self.workdir / "store.json").stat().st_size}

    def probes(self) -> dict:
        """Medians of bare interpreter start-up and of importing trustrel.cli."""
        def run(code: str) -> float:
            times = []
            for _ in range(PROBES):
                begin = perf_counter_ns()
                subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                               check=True, capture_output=True, timeout=CALL_TIMEOUT_S)
                times.append(perf_counter_ns() - begin)
            return median(times) / 1e6

        startup = run("pass")
        return {"cli.interp_startup_ms": startup,
                "cli.import_ms": run("import trustrel.cli") - startup}


def _render(result, fmt: str) -> str:
    """What the CLI prints for a report or sweep in ``fmt``."""
    if fmt == "json":
        return result.to_json() + "\n"
    if fmt == "csv":
        return result.to_csv()
    return result.to_text() + "\n"
