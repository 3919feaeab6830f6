"""The same seed gives byte-identical inputs; another seed gives others."""

import json

import gen


def snapshot(seed: int, props) -> str:
    cases = [gen.assess_case(seed, i, props) for i in range(60)]
    plan = gen.store_plan(seed, 12, 40, 4)
    records = [gen.store_record(seed, 0, i, props, key) for i, key in enumerate(plan.keys[:30])]
    cli = gen.cli_plan(seed, props, ".bench_work/cli")
    return json.dumps(
        {
            "assess": [(c.text, c.profile, c.fmt, c.bands, c.defect, c.sweep) for c in cases],
            "store": [plan.nations, plan.keys, plan.queries, plan.matrix_windows, records],
            "cli": [cli.files, cli.store_records, [(c.argv, c.expected_status) for c in cli.calls]],
        },
        default=str,
        sort_keys=True,
    )


def test_same_seed_gives_identical_inputs(props):
    assert snapshot(7, props) == snapshot(7, props)


def test_different_seed_gives_different_inputs(props):
    assert snapshot(7, props) != snapshot(8, props)


def test_stream_mixes_invalid_documents_sweeps_and_bands(props):
    cases = [gen.assess_case(3, i, props) for i in range(300)]
    assert {c.defect for c in cases if c.defect} == set(gen.DEFECTS)
    assert sum(c.defect is not None for c in cases) == 300 // gen.INVALID_EVERY
    assert all(c.defect is None for c in cases if c.sweep)
    assert sum(c.sweep is not None for c in cases) == 300 // gen.SWEEP_EVERY
    assert any(c.bands for c in cases)


def test_valid_values_stay_under_caps_and_evidence_inside_window(props):
    caps = {p[0]: p[2] for p in props}
    for i in range(100):
        case = gen.assess_case(5, i, props)
        if case.defect:
            continue
        window = case.doc["window"]
        for entry in case.doc["entries"]:
            assert 0.0 <= entry["value"] <= caps[entry["property"]]
            assert 1 <= len(entry["evidence"]) <= 3
            for link in entry["evidence"]:
                assert window["start"] <= link["date"] <= window["end"]


def test_cli_plan_has_expected_failures(props):
    plan = gen.cli_plan(1, props, "w")
    statuses = [c.expected_status for c in plan.calls]
    assert statuses.count(1) == 2 and statuses.count(2) == 1
    assert {c.argv[0] for c in plan.calls} == {"evaluate", "whatif", "matrix", "validate"}
