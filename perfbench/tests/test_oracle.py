"""The oracle accepts what trustrel computes and flags corrupted outcomes."""

import dataclasses
from datetime import date

import pytest

import gen
import oracle
import trustrel as tr


@pytest.fixture(scope="module")
def catalog():
    return tr.default_catalog()


def valid_case(props, index=1):
    case = gen.assess_case(11, index, props)
    assert case.defect is None
    return case


def report_for(case, catalog):
    assessment = tr.assessment_from_dict(case.doc)
    bands = tr.band_table_from_dict(case.bands) if case.bands else None
    weights = tr.WeightVector(*gen.WEIGHT_PROFILES[case.profile])
    return tr.build_report(catalog, assessment, weights, bands=bands)


def test_accepts_correct_reports(props, catalog):
    ref = oracle.props_by_id(props)
    for i in range(40):
        case = gen.assess_case(11, i, props)
        if case.defect:
            continue
        report = report_for(case, catalog)
        weights = gen.WEIGHT_PROFILES[case.profile]
        assert oracle.check_report(report, case.doc, ref, weights, case.bands) == []
        for fmt, text in (("json", report.to_json()), ("text", report.to_text()), ("csv", report.to_csv())):
            assert oracle.check_rendering(fmt, text, report) == []


def test_flags_a_corrupted_label(props, catalog):
    case = valid_case(props)
    report = report_for(case, catalog)
    wrong = next(label for label in ("hostile", "neutral", "friendly") if label != report.label)
    corrupted = dataclasses.replace(report, label=wrong)
    problems = oracle.check_report(corrupted, case.doc, oracle.props_by_id(props),
                                   gen.WEIGHT_PROFILES[case.profile], case.bands)
    assert any("label" in p for p in problems)


def test_flags_a_corrupted_trust_mass(props, catalog):
    case = valid_case(props)
    report = report_for(case, catalog)
    corrupted = dataclasses.replace(report, trust_mass=report.trust_mass + 1e-9)
    assert oracle.check_report(corrupted, case.doc, oracle.props_by_id(props),
                               gen.WEIGHT_PROFILES[case.profile], case.bands)


def test_flags_a_wrong_exit_status():
    assert oracle.check_cli(0, b"out\n", 0, b"out\n") == []
    assert oracle.check_cli(1, b"out\n", 0, b"out\n") == ["exit status 1, expected 0"]
    assert oracle.check_cli(0, b"out \n", 0, b"out\n")


def test_flags_a_corrupted_sweep_row(props, catalog):
    case = gen.assess_case(11, 0, props)
    category, prop, cap = case.sweep
    weights = gen.WEIGHT_PROFILES[case.profile]
    result = tr.run_whatif(catalog, tr.assessment_from_dict(case.doc), tr.WeightVector(*weights),
                           tr.SensitivitySpec("property", prop, *gen.sweep_grid(cap)))
    ref = oracle.props_by_id(props)
    args = (case.doc, ref, weights, "property", prop, gen.sweep_grid(cap), gen.SWEEP_POINTS)
    assert oracle.check_sweep(result, *args) == []
    rows = list(result.rows)
    rows[50] = dataclasses.replace(rows[50], trust_mass=rows[50].trust_mass + 0.01)
    assert oracle.check_sweep(dataclasses.replace(result, rows=tuple(rows)), *args)


def test_invalid_documents_match_the_expected_violations(props, catalog):
    ref = oracle.props_by_id(props)
    for i in range(gen.INVALID_EVERY - 1, 200, gen.INVALID_EVERY):
        case = gen.assess_case(2, i, props)
        report = tr.validate_assessment(tr.assessment_from_dict(case.doc), catalog)
        assert not report.ok
        assert len(report.violations) == oracle.expected_violations(case.doc, ref) >= 1


def test_reference_store_matches_the_relation_store(props, catalog):
    plan = gen.store_plan(4, 6, 60, 2)
    store = tr.RelationStore()
    for nation in plan.nations:
        store.register_nation(tr.Nation(nation))
    reference = oracle.ReferenceStore()
    for i, key in enumerate(plan.keys):
        doc, weights = gen.store_record(4, 0, i, props, key)
        record = store.evaluate_relation(key[0], key[1], tr.assessment_from_dict(doc),
                                         catalog, tr.WeightVector(*weights))
        reference.put(*key, record.label)
    for subject, object, start, end, _ in plan.queries:
        record = store.query_relation(subject, object, tr.DateWindow(start, end))
        assert oracle.check_query(record, reference, subject, object, start, end) == []
    start, end = plan.matrix_windows[0]
    rows = store.relation_matrix(plan.nations, tr.DateWindow(start, end))
    assert oracle.check_matrix(rows, reference, plan.nations, start, end) == []
    rows[0][1] = "friendly" if rows[0][1] != "friendly" else "hostile"
    assert oracle.check_matrix(rows, reference, plan.nations, start, end)


def test_reference_store_rules():
    reference = oracle.ReferenceStore()
    reference.put("A", "B", date(2000, 1, 1), date(2009, 12, 31), "hostile")
    reference.put("A", "B", date(2002, 1, 1), date(2003, 12, 31), "friendly")
    assert reference.query("A", "B", date(2002, 6, 1), date(2002, 7, 1)) == ("friendly", 0)
    assert reference.query("A", "B", date(2001, 6, 1), date(2002, 7, 1)) == ("hostile", 0)
    assert reference.query("A", "B", date(1999, 6, 1), date(2002, 7, 1)) == ("undefined", 2)
    assert reference.query("B", "A", date(2002, 6, 1), date(2002, 7, 1)) == ("undefined", 0)
    assert reference.query("A", "A", date(1800, 1, 1), date(1800, 1, 2)) == ("friendly", 0)
