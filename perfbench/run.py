"""trustrel benchmark: one seeded workload, checked against an oracle.

Usage, from the root of a checkout (trustrel is imported from src/):

    python3 perfbench/run.py --workload assess|store|cli|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures for S seconds with no tracing and prints the
end-to-end metrics.  ``--trace 1`` runs the workload's fixed traced
work, with and without call wrappers around each module's public
functions, and prints the per-layer metrics.  Lines starting with
``#`` are the run record and each metric with its sample count; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every
output matched the oracle.  ``--workload all`` runs the three
workloads in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

import gen
import oracle
from common import percentile
from oracle import Tally
from spans import SpanSummary, Tracer
from wl_assess import AssessWorkload
from wl_cli import CliWorkload
from wl_store import StoreWorkload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOADS = {"assess": AssessWorkload, "store": StoreWorkload, "cli": CliWorkload}
#: Untraced and traced passes over the fixed work in a traced run.
TRACE_ROUNDS = 3
#: Reference jobs timed after each block's set-up.
REFERENCE_REPEATS = 5
#: Assess documents generated and checked by one reference job.
REFERENCE_DOCUMENTS = 10
#: The reference job's time, in ns, on the host that scaled time metrics
#: read as on: roughly its time on the 2-vCPU x86-64 VM (Python 3.11)
#: where the benchmark was written.
REFERENCE_NS = 2_000_000


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, extra: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "machine": platform.machine(),
        "commit": git_commit(ROOT), **extra,
    }


def fresh_import(package: str):
    """Import trustrel anew (module code runs again) and return it."""
    for name in [n for n in sys.modules if n == "trustrel" or n.startswith("trustrel.")]:
        del sys.modules[name]
    importlib.import_module(package)
    return sys.modules["trustrel"]


def set_up(workload) -> float:
    """Import trustrel afresh and prepare the workload; returns seconds."""
    begin = perf_counter()
    workload.prepare(fresh_import(workload.package))
    return perf_counter() - begin


def reference_job(workload) -> int:
    """Time, in ns, of fixed pure-Python work that never touches trustrel:
    generate the first REFERENCE_DOCUMENTS assess documents of seed 0 and
    recompute their trust masses and labels with the oracle."""
    begin = perf_counter_ns()
    for index in range(REFERENCE_DOCUMENTS):
        case = gen.assess_case(0, index, workload.props)
        if case.defect is None:
            weights = gen.WEIGHT_PROFILES[case.profile]
            m = oracle.masses(case.doc, workload.catalog_ref)
            oracle.labels_for(oracle.trust_mass(m, weights), oracle.bounds(weights))
    return perf_counter_ns() - begin


def to_reference_host(value: float, unit: str, slowdown: float) -> float:
    """``value`` as it would read on the reference host: times shrink and
    rates grow by the measured slowdown; other units stay as measured."""
    if unit in ("s", "ms", "us"):
        return value / slowdown
    if unit == "1/s":
        return value * slowdown
    return value


def measure(workload, seconds: float, tally) -> dict:
    """Run whole blocks for ``seconds``, each followed by one set-up.

    A block is a list of segments, (position, latencies, samples); the
    position says which part of the workload a segment is, so segments
    at one position do the same kind and amount of work.  On a shared
    VM the same code runs up to 1.7x faster or slower from one second
    to the next as other tenants come and go.  So at each position the
    segments are ranked by throughput and only the faster half is
    kept, and likewise for set-ups; every end-to-end time metric comes
    from what is kept.  That cannot help when the whole run falls in a
    slow minute.  So a reference job that never touches trustrel is
    timed after each set-up, and every time spent in this process is
    scaled by the median of its faster half over REFERENCE_NS; times of
    operations that run in child processes (``ops_in_children``) are
    not.
    Latencies are kept as 8-byte integers and the peak RSS is read
    before any summary is computed, so it follows the program's memory
    rather than the number of operations finished.
    """
    positions: dict = defaultdict(list)
    setups, reference = [], array("q")
    start = perf_counter()
    block = 0
    while not setups or perf_counter() < start + seconds:
        for position, latencies, samples in workload.block(block, tally):
            positions[position].append((latencies, samples))
        block += 1
        setups.append(set_up(workload))
        reference.extend(reference_job(workload) for _ in range(REFERENCE_REPEATS))
    rss = peak_rss_mb(workload)
    ops, samples, segments = array("q"), {}, 0
    for found in positions.values():
        found.sort(key=lambda segment: len(segment[0]) / sum(segment[0]), reverse=True)
        for latencies, part in faster_half(found):
            segments += 1
            ops.extend(latencies)
            for key, value in part.items():
                samples[key] = samples[key] + value if key in samples else value
    rate = len(ops) / (sum(ops) / 1e9)
    slowdown = median(faster_half(sorted(reference))) / REFERENCE_NS
    ops_slowdown = 1.0 if workload.ops_in_children else slowdown
    detail = [(name, to_reference_host(value, unit, ops_slowdown), unit, note)
              for name, value, unit, note in workload.detail(samples, ops, rate)]
    return {"ops": ops, "rate": rate, "setup_times": faster_half(sorted(setups)),
            "blocks": block, "segments": sum(map(len, positions.values())),
            "kept_segments": segments, "peak_rss_mb": rss, "slowdown": slowdown,
            "ops_slowdown": ops_slowdown,
            "reference_jobs": len(reference), "detail": detail}


def faster_half(ranked: list) -> list:
    """The first half, rounded up, of a list ranked fastest first."""
    return ranked[: (len(ranked) + 1) // 2]


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process, or of its largest child for the cli workload."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, measured) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled to the reference host, and the
    sample counts and unscaled values behind them."""
    ops = measured["ops"]
    wall = {
        "setup_s": median(measured["setup_times"]),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ops_per_s": measured["rate"],
        "latency_p50_us": median(ops) / 1e3,
        "latency_tail_us": percentile(ops, workload.tail) / 1e3,
    }
    units = metric_units("end_to_end")
    values = {name: to_reference_host(
                  value, units[name],
                  measured["slowdown"] if name == "setup_s" else measured["ops_slowdown"])
              for name, value in wall.items()}
    samples = {"host_slowdown": measured["slowdown"], "ops_slowdown": measured["ops_slowdown"],
               "reference_jobs": measured["reference_jobs"],
               "unscaled": wall,
               "blocks": measured["blocks"], "segments": measured["segments"],
               "kept_segments": measured["kept_segments"],
               "setup_s": len(measured["setup_times"]), "operations": len(ops),
               "tail_percentile": workload.tail * 100,
               "beyond_tail": len(ops) - int(workload.tail * len(ops))}
    return values, samples


def trace_run(workload, tally, seed: int) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the fixed work."""
    workload.fixed(tally, None)  # warm-up: caches filled, lazy set-up done
    plain_ns, traced = [], []
    for round_ in range(TRACE_ROUNDS):
        plain = Tracer()
        with plain.op("op.setup"):
            workload.prepare(workload.tr)
        workload.fixed(tally, plain)
        plain_ns.append(SpanSummary(plain.spans).op_ns)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.op("op.setup"):
                workload.prepare(workload.tr)
            facts = workload.fixed(tally, tracer)
        finally:
            tracer.uninstall()
        if round_ == 0:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
        traced.append((tracer, SpanSummary(tracer.spans), facts))
    probes = workload.probes() if hasattr(workload, "probes") else {}
    metrics = layer_metrics(traced, probes, median(s.op_ns for _, s, _ in traced) / median(plain_ns) - 1)
    counts = [counts_of(layer_metrics([t], probes, 0.0)) for t in traced]
    if any(c != counts[0] for c in counts):
        tally.record("count metrics repeat across traced passes", ["counts differ between passes"])
    return metrics, {"traced_passes": TRACE_ROUNDS, "spans_per_pass": len(traced[0][0].spans)}


#: Units of the per-layer metrics that are counts or ratios of counts;
#: these must repeat exactly for a seed.
COUNT_UNITS = ("count", "ratio", "bytes", "bytes/record")


def counts_of(metrics: dict) -> dict:
    units = metric_units("per_layer")
    return {k: v for k, v in metrics.items() if units[k] in COUNT_UNITS}


def layer_metrics(traced, probes: dict, overhead: float) -> dict:
    """Per-layer metrics from the traced passes.

    Counts come from the first pass; per-call times are medians over
    every pass's spans; shares are medians over passes.  A timing whose
    call never happened in this workload reads 0.
    """
    tracer, first, facts = traced[0]
    pooled: dict[str, list[int]] = {}
    for _, summary, _ in traced:
        for name, durations in summary.durations.items():
            pooled.setdefault(name, []).extend(durations)

    def per_call(name: str, scale: float) -> float:
        return median(pooled[name]) / scale if name in pooled else 0.0

    def share(module: str) -> float:
        return median(s.module_self_ns(module) / s.op_ns for _, s, _ in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = first.calls

    def sweep(name: str) -> int:
        return first.within[("report.sweep", name)]

    points = tracer.sweep_points
    passes = calls("catalog.validate") + calls("catalog.aggregate") - sweep("catalog.aggregate")
    m = {
        "algebra.evaluate.calls": calls("algebra.evaluate"),
        "algebra.evaluate.us": per_call("algebra.evaluate", 1e3),
        "algebra.compute_bounds.calls": calls("algebra.compute_bounds"),
        "algebra.compute_bounds.us": per_call("algebra.compute_bounds", 1e3),
        "algebra.self_share": share("algebra"),
        "algebra.bounds_reuse_share": ratio(
            calls("algebra.compute_bounds") - len(tracer.bounds_keys), calls("algebra.compute_bounds")),
        "catalog.parse.us": per_call("catalog.parse", 1e3),
        "catalog.validate.us": per_call("catalog.validate", 1e3),
        "catalog.aggregate.us": per_call("catalog.aggregate", 1e3),
        "catalog.self_share": share("catalog"),
        "catalog.passes_per_assessment": ratio(passes, calls("catalog.parse")),
        "catalog.default_catalog.calls": calls("catalog.default_catalog"),
        "catalog.default_catalog.us": per_call("catalog.default_catalog", 1e3),
        "relations.insert.us": per_call("relations.insert", 1e3),
        "relations.records": facts.get("records", 0),
        "relations.query.us": per_call("relations.query", 1e3),
        "relations.matrix.s": per_call("relations.matrix", 1e9),
        "relations.matrix.queries_per_cell": ratio(
            first.within[("relations.matrix", "relations.query")], tracer.matrix_cells),
        "relations.self_share": share("relations"),
        "relations.to_dict.s": per_call("relations.to_dict", 1e9),
        "relations.from_dict.s": per_call("relations.from_dict", 1e9),
        "relations.save.s": per_call("relations.save", 1e9),
        "relations.load.s": per_call("relations.load", 1e9),
        "relations.bytes_per_record": ratio(facts.get("store_bytes", 0), facts.get("records", 0)),
        "report.build_report.us": per_call("report.build_report", 1e3),
        "report.render.json.us": per_call("report.render.json", 1e3),
        "report.render.text.us": per_call("report.render.text", 1e3),
        "report.render.csv.us": per_call("report.render.csv", 1e3),
        "report.self_share": share("report"),
        "report.sweep.us_per_point": ratio(sum(first.durations.get("report.sweep", ())) / 1e3, points),
        "report.sweep.evaluate_per_point": ratio(sweep("algebra.evaluate"), points),
        "report.sweep.bounds_per_point": ratio(sweep("algebra.compute_bounds"), points),
        "report.sweep.aggregate_per_point": ratio(sweep("catalog.aggregate"), points),
        "cli.interp_startup_ms": probes.get("cli.interp_startup_ms", 0.0),
        "cli.import_ms": probes.get("cli.import_ms", 0.0),
        "cli.main.evaluate.ms": per_call("cli.main.evaluate", 1e6),
        "cli.main.whatif.ms": per_call("cli.main.whatif", 1e6),
        "cli.main.matrix.ms": per_call("cli.main.matrix", 1e6),
        "cli.main.validate.ms": per_call("cli.main.validate", 1e6),
        "cli.stdout_bytes": facts.get("stdout_bytes", 0),
        "cli.self_share": share("cli"),
        "trace.overhead_share": overhead,
    }
    return m


def run_all(args) -> int:
    """Run each workload in its own process and print every metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"# {name}: exit status {proc.returncode}", file=sys.stderr)
            return 2
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trustrel" / "__init__.py").is_file():
        print(f"perfbench: no trustrel sources under {ROOT / 'src'}; "
              "run it from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        set_up(workload)
        tally.record("expected outputs", workload.ready())
        if args.trace:
            values, samples = trace_run(workload, tally, args.seed)
            units = metric_units("per_layer")
            detail = []
        else:
            measured = measure(workload, args.seconds, tally)
            values, samples = end_to_end(workload, measured)
            units = metric_units("end_to_end")
            detail = measured["detail"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    error_rate = tally.failed / tally.attempted
    detail.append(("error_rate", error_rate, "fraction", f"{tally.failed} of {tally.attempted} operations"))

    if set(values) != set(units):
        print(f"perfbench: metrics computed {sorted(values)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    print("# record " + json.dumps(run_record(args, {"samples": samples})))
    for name, value, unit, note in detail:
        print(f"# {name} = {value!r} {unit}  ({note})")
    for name, value in values.items():
        print(f"# {name} = {value!r} {units[name]}")
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
