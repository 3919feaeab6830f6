"""Unit tests for reports and what-if sweeps."""

import dataclasses
import datetime as dt
import json
import sys
import threading

import pytest

import trustrel as tr
from trustrel import RelationCategory as RC
from trustrel import report
from trustrel.report import _WEIGHT_FRAMES, MAX_SWEEP_POINTS, _weight_frame

from document_edits import DELETE, mutated
from sweep_reference import replace_entry_value

WINDOW = tr.DateWindow(dt.date(2001, 1, 1), dt.date(2005, 12, 31))


class TestEvaluationReport:
    def test_case_study_report(self, catalog, usa_assessment, case_weights):
        report = tr.build_report(catalog, usa_assessment, case_weights)
        assert abs(report.trust_mass - 0.48) <= 1e-12
        assert abs(report.strength - 0.48) <= 1e-12
        assert report.label == "friendly"
        assert report.interpretation.no_hostile
        assert report.catalog_version == catalog.version
        assert "USA->GBR" in report.assessment_ref

    def test_json_is_full_precision(self, catalog, usa_assessment, case_weights):
        report = tr.build_report(catalog, usa_assessment, case_weights)
        decoded = json.loads(report.to_json())
        # json round-trips repr exactly, so these are the same floats
        assert decoded["trust_mass"] == report.trust_mass
        assert decoded["bounds"]["middle_band_high"] == report.bounds.middle_band_high

    def test_text_numbers_round_trip_at_6dp(self, catalog, rival_assessment, generic_weights):
        report = tr.build_report(
            catalog, rival_assessment, generic_weights, mode="free"
        )
        decoded = json.loads(report.to_json())
        text = report.to_text()
        assert f"{decoded['trust_mass']:.6f}" in text
        assert f"{decoded['strength']:.6f}" in text
        for name in ("hostile", "neutral", "friendly"):
            assert f"{name}={decoded['masses'][name]:.6f}" in text
            assert f"{name}={decoded['weights'][name]:.6f}" in text
        for name in ("lower", "upper", "middle_band_low", "middle_band_high"):
            assert f"{decoded['bounds'][name]:.6f}" in text

    def test_text_follows_pipeline_order(self, catalog, usa_assessment, case_weights):
        text = tr.build_report(catalog, usa_assessment, case_weights).to_text()
        positions = [text.index(k) for k in
                     ("weights", "bounds", "masses", "trust_mass", "strength", "label")]
        assert positions == sorted(positions)

    def test_csv_has_header_and_row(self, catalog, usa_assessment, case_weights):
        lines = tr.build_report(catalog, usa_assessment, case_weights).to_csv().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("weight_hostile,")
        assert "friendly" in lines[1]

    def test_band_label_included(self, catalog, rival_assessment, generic_weights, septuple_bands):
        report = tr.build_report(
            catalog, rival_assessment, generic_weights, bands=septuple_bands, mode="free"
        )
        assert report.band_label == "Near-Hostile"
        assert "Near-Hostile" in report.to_text()


class TestReweight:
    def test_preserves_ratio_of_other_two(self):
        w = tr.WeightVector(0.45, 0.10, 0.45)
        out = tr.reweight(w, RC.HOSTILE, 0.2)
        assert abs(out.hostile - 0.2) <= 1e-12
        assert abs(out.neutral / out.friendly - w.neutral / w.friendly) <= 1e-9
        assert abs(out.hostile + out.neutral + out.friendly - 1.0) <= 1e-9

    def test_rejects_unabsorbable_remainder(self):
        w = tr.WeightVector(1.0, 0.0, 0.0)
        with pytest.raises(tr.ValidationError, match="renormalize"):
            tr.reweight(w, RC.HOSTILE, 0.8)

    def test_full_weight_allowed_when_others_zero(self):
        w = tr.WeightVector(1.0, 0.0, 0.0)
        out = tr.reweight(w, RC.HOSTILE, 1.0)
        assert out == w


class TestSensitivitySpec:
    def test_descending_grid(self):
        spec = tr.SensitivitySpec("weight", "hostile", 0.45, 0.05, 0.05)
        values = spec.values()
        assert len(values) == 9
        assert abs(values[0] - 0.45) <= 1e-12
        assert abs(values[-1] - 0.05) <= 1e-9

    def test_single_point_grid(self):
        spec = tr.SensitivitySpec("weight", "hostile", 0.45, 0.45, 0.05)
        assert spec.values() == [0.45]

    def test_rejects_bad_step(self):
        for step in (0.0, float("inf"), float("nan")):
            with pytest.raises(tr.ValidationError, match=f"finite, got {step}"):
                tr.SensitivitySpec("weight", "hostile", 0.0, 1.0, step)
        # rejected before values() would overflow or build the grid
        for step in (5e-324, 1e-12):
            with pytest.raises(tr.ValidationError, match=f"step {step} makes more than"):
                tr.SensitivitySpec("weight", "hostile", 0.0, 1.0, step)

    def test_grid_point_limit(self):
        assert len(tr.SensitivitySpec("weight", "hostile", 1.0, 0.0, 1e-5).values()) == 100_001
        with pytest.raises(tr.ValidationError, match="more than 100001 grid points"):
            tr.SensitivitySpec("weight", "hostile", 1.0, 0.0, 0.99999e-5)

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(tr.ValidationError, match=r"\[0, 1\]"):
            tr.SensitivitySpec("weight", "hostile", -0.2, 0.5, 0.1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(tr.ValidationError, match="target kind"):
            tr.SensitivitySpec("mass", "hostile", 0.0, 1.0, 0.1)

    def test_rejects_unknown_category(self):
        with pytest.raises(tr.ValidationError, match="target"):
            tr.SensitivitySpec("weight", "harsh", 0.0, 1.0, 0.1)


class TestWhatIf:
    def test_hostile_weight_sweep_flips_at_twenty_percent(
        self, catalog, rival_assessment, generic_weights
    ):
        spec = tr.SensitivitySpec("weight", "hostile", 0.45, 0.05, 0.05)
        result = tr.run_whatif(
            catalog, rival_assessment, generic_weights, spec, mode="free"
        )
        assert result.base_label == "hostile"
        labels = [row.label for row in result.rows]
        assert labels == ["hostile"] * 5 + ["neutral"] * 3 + ["friendly"]
        assert abs(result.first_flip - 0.20) <= 1e-9
        assert [row.flipped for row in result.rows] == [False] * 5 + [True] * 4

    def test_friendly_property_sweep_never_flips(
        self, catalog, usa_assessment, case_weights
    ):
        spec = tr.SensitivitySpec("property", "f.P1", 0.5, 0.0, 0.05)
        result = tr.run_whatif(catalog, usa_assessment, case_weights, spec)
        assert result.base_label == "friendly"
        assert all(row.label == "friendly" for row in result.rows)
        assert result.first_flip is None
        assert len(result.rows) == 11

    def test_single_row_sweep_never_flips(self, catalog, usa_assessment, case_weights):
        spec = tr.SensitivitySpec("property", "f.P1", 0.5, 0.5, 0.1)
        result = tr.run_whatif(catalog, usa_assessment, case_weights, spec)
        assert len(result.rows) == 1
        assert not result.rows[0].flipped
        assert result.first_flip is None

    def test_property_sweep_requires_existing_entry(
        self, catalog, usa_assessment, case_weights
    ):
        spec = tr.SensitivitySpec("property", "f.P4", 0.1, 0.0, 0.05)
        with pytest.raises(tr.ValidationError) as err:
            tr.run_whatif(catalog, usa_assessment, case_weights, spec)
        assert str(err.value) == "expected exactly one entry for 'f.P4', found 0"
        # an assessment may list a property twice, but not one that is swept
        twice = dataclasses.replace(
            usa_assessment, entries=usa_assessment.entries + (tr.AssessmentEntry("f.P6", 0.0),)
        )
        spec = tr.SensitivitySpec("property", "f.P6", 0.1, 0.0, 0.05)
        with pytest.raises(tr.ValidationError) as err:
            tr.run_whatif(catalog, twice, case_weights, spec)
        assert str(err.value) == "expected exactly one entry for 'f.P6', found 2"

    def test_descending_grid_whose_first_point_breaks_its_cap_builds_no_row(
        self, catalog, usa_assessment, case_weights, monkeypatch
    ):
        # f.P1 has cap 0.5, and the grid starts above it
        built = []
        monkeypatch.setattr(report, "SweepRow", lambda *row: built.append(row))
        spec = tr.SensitivitySpec("property", "f.P1", 0.6, 0.0, 0.1)
        with pytest.raises(tr.ValidationError) as err:
            tr.run_whatif(catalog, usa_assessment, case_weights, spec)
        assert str(err.value) == "value 0.6 for 'f.P1' exceeds its cap 0.5 (strict mode)"
        assert built == []

    def test_text_and_csv_render(self, catalog, usa_assessment, case_weights):
        spec = tr.SensitivitySpec("property", "f.P1", 0.5, 0.0, 0.25)
        result = tr.run_whatif(catalog, usa_assessment, case_weights, spec)
        text = result.to_text()
        assert "base label: friendly" in text
        assert "no flip in sweep" in text
        csv_lines = result.to_csv().splitlines()
        assert csv_lines[0] == "value,trust_mass,strength,label,flipped"
        assert len(csv_lines) == 4

    def test_category_total_within_tolerance_of_one_is_accepted(self, catalog, case_weights):
        # In this order the friendly caps sum to 1.0000000000000002.
        ids = ["f.P2", "f.P3", "f.P5", "f.P6", "f.P1", "f.P4"]
        entries = [tr.AssessmentEntry(pid, catalog.by_id[pid].cap) for pid in ids]
        assessment = tr.Assessment("AAA", "BBB", WINDOW, tuple(entries))
        spec = tr.SensitivitySpec("property", "f.P5", 0.0, 0.075, 0.025)
        result = tr.run_whatif(catalog, assessment, case_weights, spec)
        swept = replace_entry_value(assessment, "f.P5", result.rows[-1].value)
        masses = tr.aggregate_masses(swept, catalog)
        assert masses.friendly == 1.0000000000000002
        last = tr.evaluate(masses, case_weights)
        assert (result.rows[-1].trust_mass, result.rows[-1].strength) == (
            last.trust_mass, last.strength
        )

    def test_invalid_grid_point_raises_that_points_error(
        self, catalog, usa_assessment, case_weights
    ):
        # n.P1 has cap 0.25: 0.0, 0.1 and 0.2 pass, 0.1 + 0.2 does not
        spec = tr.SensitivitySpec("property", "n.P1", 0.0, 1.0, 0.1)
        with pytest.raises(tr.ValidationError) as err:
            tr.run_whatif(catalog, usa_assessment, case_weights, spec)
        assert str(err.value) == (
            "value 0.30000000000000004 for 'n.P1' exceeds its cap 0.25 (strict mode)"
        )


def _clear_frames():
    _WEIGHT_FRAMES[:] = [None] * len(_WEIGHT_FRAMES)


def _slot_points():
    """Points each weight-sweep slot holds, a failing point counted as one."""
    return [
        len(grid) // 8 + (error is not None)
        for _, (grid, error) in filter(None, _WEIGHT_FRAMES)
    ]


class TestWeightFrameMemo:
    def test_keeps_the_last_frame_of_each_swept_category(self, case_weights):
        _clear_frames()
        hostile = tr.SensitivitySpec("weight", "hostile", 0.0, 1.0, 0.05)
        neutral = tr.SensitivitySpec("weight", "neutral", 0.0, 1.0, 0.05)

        def frame(spec, weights=case_weights):
            return _weight_frame(weights, spec.target_category(), tr.DEFAULT_SIGNS, spec)

        first = frame(hostile)
        other = frame(neutral)
        assert frame(hostile) is first
        # a new grid replaces only its own category's slot
        finer = frame(tr.SensitivitySpec("weight", "hostile", 0.0, 1.0, 0.025))
        assert finer is not first and len(finer[0]) // 8 == 41
        assert frame(neutral) is other
        # and so does a new profile
        shifted = frame(neutral, tr.WeightVector(0.3, 0.3, 0.4))
        assert shifted is not other
        assert _WEIGHT_FRAMES[0][1] is finer and _WEIGHT_FRAMES[1][1] is shifted
        assert _WEIGHT_FRAMES[2] is None

    def test_no_slot_holds_more_than_max_sweep_points(
        self, catalog, usa_assessment, case_weights
    ):
        _clear_frames()
        for category in tr.CATEGORIES:
            full = tr.SensitivitySpec("weight", category.value, 0.0, 1.0, 1e-5)
            rows = tr.run_whatif(catalog, usa_assessment, case_weights, full).rows
            assert len(rows) == MAX_SWEEP_POINTS
        assert _slot_points() == [MAX_SWEEP_POINTS] * 3
        # a friendly sweep down from 1 under weights (0, 0, 1) fails at its
        # second point, so its frame holds one point and the failure
        spec = tr.SensitivitySpec("weight", "friendly", 1.0, 0.0, 0.5)
        with pytest.raises(tr.ValidationError, match="cannot renormalize"):
            tr.run_whatif(catalog, usa_assessment, tr.WeightVector(0.0, 0.0, 1.0), spec)
        assert _slot_points() == [MAX_SWEEP_POINTS, MAX_SWEEP_POINTS, 2]

    def test_threads_sharing_the_memo_get_single_thread_results(self, catalog, usa_assessment):
        profiles = [(0.4, 0.2, 0.4), (0.45, 0.1, 0.45), (0.0, 0.5, 0.5)]
        grids = [(0.0, 1.0, 0.01), (1.0, 0.0, 0.02)]
        jobs = [
            (tr.WeightVector(*w), tr.SensitivitySpec("weight", c.value, *grid), signs)
            for w in profiles for c in tr.CATEGORIES for grid in grids
            for signs in (tr.DEFAULT_SIGNS, tr.ScalarConfig(1, -1, 1))
        ]
        # three 33,334-point frames, so a rebuilt frame can be a large one
        jobs += [
            (tr.WeightVector(*w), tr.SensitivitySpec("weight", "neutral", 0.0, 1.0, 3e-5),
             tr.DEFAULT_SIGNS)
            for w in profiles
        ]

        def run(job):
            weights, spec, signs = job
            try:
                return repr(tr.run_whatif(catalog, usa_assessment, weights, spec, signs))
            except tr.ValidationError as err:
                return str(err)

        _clear_frames()
        want = [run(job) for job in jobs]
        _clear_frames()
        got = [None] * 4

        def worker(k):
            # each thread starts a quarter further into the jobs
            shift = k * len(jobs) // 4
            results = [None] * len(jobs)
            for i in [*range(shift, len(jobs)), *range(shift)]:
                results[i] = run(jobs[i])
            got[k] = results

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4
        assert max(_slot_points()) <= MAX_SWEEP_POINTS


class TestBandTableDocuments:
    def test_round_trip(self, septuple_bands):
        doc = tr.band_table_to_dict(septuple_bands)
        assert tr.band_table_from_dict(doc) == septuple_bands

    def test_malformed_parent(self):
        doc = {"bands": [{"label": "x", "low": 0, "high": 1, "parent": "up"}]}
        with pytest.raises(tr.SchemaError, match="parent"):
            tr.band_table_from_dict(doc)

    def test_missing_bands_key(self):
        with pytest.raises(tr.SchemaError, match="bands"):
            tr.band_table_from_dict({})

    def test_int_edges_read_as_floats(self):
        table = tr.band_table_from_dict(mutated(BAND_DOC, [(B + ("low",), 0)]))
        assert table.bands[1].low == 0.0 and type(table.bands[1].low) is float
        assert table == tr.band_table_from_dict(BAND_DOC)


# --- every read of a band table document, and the error it reports ----------

BAND_DOC = {"bands": [
    {"label": "cold", "low": -0.4, "high": 0.0, "parent": "hostile"},
    {"label": "calm", "low": 0.0, "high": 0.2, "parent": "neutral"},
]}
B = ("bands", 1)
CATEGORY_NAMES = "hostile, neutral, friendly"
# (case, [(path, new value or DELETE), ...], message): every error is a
# SchemaError, and the messages are those the reader gave before its
# location strings became lazy
BAND_READ_ERRORS = [
    ("document_wrong_type", [((), ["x"])], "band_table: expected an object"),
    ("bands_missing", [(("bands",), DELETE)], "band_table: missing field 'bands'"),
    ("bands_wrong_type", [(("bands",), {})], "band_table.bands: expected list, got dict"),
    ("bands_null", [(("bands",), None)], "band_table.bands: expected list, got NoneType"),
    ("band_wrong_type", [(B, "calm")], "band_table.bands[1]: expected an object"),
    ("label_missing", [(B + ("label",), DELETE)], "band_table.bands[1]: missing field 'label'"),
    ("label_wrong_type", [(B + ("label",), 3)], "band_table.bands[1].label: expected str, got int"),
    ("low_missing", [(B + ("low",), DELETE)], "band_table.bands[1]: missing field 'low'"),
    ("low_string", [(B + ("low",), "0.0")],
     "band_table.bands[1].low: expected a number, got '0.0'"),
    ("low_too_large", [(B + ("low",), 10 ** 400)],
     f"band_table.bands[1].low: 1{'0' * 400} is too large for a number"),
    ("high_missing", [(B + ("high",), DELETE)], "band_table.bands[1]: missing field 'high'"),
    ("high_bool", [(B + ("high",), True)], "band_table.bands[1].high: expected a number, got True"),
    ("parent_missing", [(B + ("parent",), DELETE)], "band_table.bands[1]: missing field 'parent'"),
    ("parent_wrong_type", [(B + ("parent",), 1)],
     "band_table.bands[1].parent: expected str, got int"),
    ("parent_unknown", [(B + ("parent",), "Neutral")],
     f"band_table.bands[1].parent: category must be one of {CATEGORY_NAMES}, got 'Neutral'"),
    # two faults: the one read first is reported
    ("first_band_first", [(("bands", 0, "parent"), "up"), (B + ("label",), DELETE)],
     f"band_table.bands[0].parent: category must be one of {CATEGORY_NAMES}, got 'up'"),
    ("label_before_parent", [(B + ("parent",), "up"), (B + ("label",), None)],
     "band_table.bands[1].label: expected str, got NoneType"),
    ("low_before_high", [(B + ("high",), DELETE), (B + ("low",), False)],
     "band_table.bands[1].low: expected a number, got False"),
]


@pytest.mark.parametrize("changes, message", [case[1:] for case in BAND_READ_ERRORS],
                         ids=[case[0] for case in BAND_READ_ERRORS])
def test_band_table_read_error_messages(changes, message):
    with pytest.raises(tr.TrustrelError) as err:
        tr.band_table_from_dict(mutated(BAND_DOC, changes))
    assert type(err.value) is tr.SchemaError
    assert str(err.value) == message


class TestSweepRowContract:
    ROW = tr.SweepRow(0.25, 0.125, 0.5, "neutral", True)

    def test_construction_styles_agree(self):
        keywords = tr.SweepRow(flipped=True, label="neutral", strength=0.5,
                               trust_mass=0.125, value=0.25)
        assert keywords == self.ROW
        assert tr.SweepRow(0.25, 0.125, 0.5, "neutral", False) != self.ROW
        with pytest.raises(TypeError):
            tr.SweepRow(0.25, 0.125, 0.5, "neutral")

    def test_repr_hash_and_dict_form(self):
        assert repr(self.ROW) == (
            "SweepRow(value=0.25, trust_mass=0.125, strength=0.5, label='neutral', flipped=True)"
        )
        assert hash(self.ROW) == hash((0.25, 0.125, 0.5, "neutral", True))
        assert list(self.ROW.as_dict().items()) == [
            ("value", 0.25), ("trust_mass", 0.125), ("strength", 0.5),
            ("label", "neutral"), ("flipped", True),
        ]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.ROW.label = "hostile"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del self.ROW.label

    def test_fields_and_replace(self):
        names = [f.name for f in dataclasses.fields(tr.SweepRow)]
        assert names == ["value", "trust_mass", "strength", "label", "flipped"]
        assert dataclasses.replace(self.ROW, flipped=False) == tr.SweepRow(
            0.25, 0.125, 0.5, "neutral", False)
