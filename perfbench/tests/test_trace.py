"""Wrappers are rebound under every name and removed afterwards."""

import trustrel as tr
import trustrel.algebra
import trustrel.relations
import trustrel.report
from spans import SpanSummary, Tracer


def test_install_rebinds_every_copy_and_uninstall_restores():
    original = trustrel.algebra.evaluate
    tracer = Tracer()
    tracer.install()
    try:
        for module in (tr, trustrel.algebra, trustrel.relations, trustrel.report):
            assert module.evaluate is not original
        with tracer.op("op.test"):
            tr.evaluate(tr.CategoryMassVector(0.5, 0.2, 0.1), tr.WeightVector(0.45, 0.1, 0.45))
    finally:
        tracer.uninstall()
    for module in (tr, trustrel.algebra, trustrel.relations, trustrel.report):
        assert module.evaluate is original
    summary = SpanSummary(tracer.spans)
    assert summary.calls("algebra.evaluate") == 1
    assert summary.calls("algebra.compute_bounds") == 1
    assert len(tracer.bounds_keys) == 1
    assert summary.op_ns >= max(summary.durations["algebra.evaluate"])


def test_self_time_subtracts_children():
    # (id, parent, op, name, start, end)
    spans = [
        (2, 1, 1, "report.sweep", 10, 60),
        (3, 2, 1, "algebra.evaluate", 20, 30),
        (4, 3, 1, "algebra.compute_bounds", 22, 26),
        (1, 0, 1, "op.document", 0, 100),
        (6, 5, 2, "catalog.default_catalog", 0, 5),
        (5, 0, 2, "op.setup", 0, 10),
    ]
    summary = SpanSummary(spans)
    assert summary.self_ns["report.sweep"] == 40
    assert summary.self_ns["algebra.evaluate"] == 6
    assert summary.module_self_ns("algebra") == 10
    assert summary.op_ns == 100
    assert summary.calls("catalog.default_catalog") == 1
    assert summary.module_self_ns("catalog") == 0
    assert summary.within[("report.sweep", "algebra.compute_bounds")] == 1


def test_cross_module_helpers_are_traced_under_their_caller():
    catalog = tr.default_catalog()
    doc = {
        "subject": "AAA", "object": "BBB",
        "window": {"start": "2000-01-01", "end": "2001-01-01"},
        "entries": [{"property": "f.P1", "value": 0.1,
                     "evidence": [{"date": "2000-06-01", "source": "s", "summary": ""}]}],
        "notes": "",
    }
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op("op.test"):
            assessment = tr.assessment_from_dict(doc)
            weights = tr.WeightVector(0.45, 0.1, 0.45)
            tr.build_report(catalog, assessment, weights)
            tr.run_whatif(catalog, assessment, weights, tr.SensitivitySpec("property", "f.P1", 0.0, 0.2, 0.1))
    finally:
        tracer.uninstall()
    summary = SpanSummary(tracer.spans)
    assert summary.calls("catalog.window_from_dict") == 1
    assert summary.calls("algebra.interpret_strength") == 1
    assert summary.within[("report.sweep", "catalog.replace_entry_value")] == 3
    assert summary.self_ns["catalog.replace_entry_value"] > 0
