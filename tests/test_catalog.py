"""Unit tests for catalogs, assessments, and aggregation."""

import dataclasses
import datetime as dt
import math

import pytest

import trustrel as tr
from trustrel import RelationCategory as RC

from document_edits import DELETE, mutated

EXPECTED_CAPS = {
    "h.P1": 0.5, "h.P2": 0.2, "h.P3": 0.075, "h.P4": 0.125, "h.P5": 0.05, "h.P6": 0.05,
    "n.P1": 0.25, "n.P2": 0.35, "n.P3": 0.40,
    "f.P1": 0.5, "f.P2": 0.2, "f.P3": 0.1, "f.P4": 0.1, "f.P5": 0.075, "f.P6": 0.025,
}

WINDOW = tr.DateWindow(dt.date(2001, 1, 1), dt.date(2005, 12, 31))


def entry(prop, value, when=dt.date(2002, 6, 1)):
    return tr.AssessmentEntry(prop, value, (tr.EvidenceLink(when, "test source", "event"),))


def make_assessment(entries, subject="USA", obj="GBR", window=WINDOW):
    return tr.Assessment(subject=subject, object=obj, window=window, entries=tuple(entries))


class TestDefaultCatalog:
    def test_all_caps_match(self, catalog):
        assert len(catalog.properties) == 15
        for prop_id, cap in EXPECTED_CAPS.items():
            assert catalog.by_id[prop_id].cap == cap

    def test_friendly_caps(self, catalog):
        caps = [p.cap for p in catalog.for_category(RC.FRIENDLY)]
        assert caps == [0.5, 0.2, 0.1, 0.1, 0.075, 0.025]

    def test_neutral_caps(self, catalog):
        caps = [p.cap for p in catalog.for_category(RC.NEUTRAL)]
        assert caps == [0.25, 0.35, 0.40]

    def test_category_totals(self, catalog):
        for category in tr.CATEGORIES:
            total = sum(p.cap for p in catalog.for_category(category))
            assert abs(total - 1.0) <= 1e-9


class TestCatalogValidation:
    def test_bad_cap_total_names_category(self):
        doc = tr.catalog_to_dict(tr.default_catalog())
        for raw in doc["properties"]:
            if raw["id"] == "h.P3":
                raw["cap"] = 0.175  # hostile now totals 1.1
        with pytest.raises(tr.ValidationError, match="hostile"):
            tr.catalog_from_dict(doc)

    def test_duplicate_id_rejected(self):
        doc = tr.catalog_to_dict(tr.default_catalog())
        doc["properties"].append(dict(doc["properties"][0]))
        with pytest.raises(tr.ValidationError, match="duplicate"):
            tr.catalog_from_dict(doc)

    def test_unknown_category_is_schema_error(self):
        doc = {"version": "x", "properties": [
            {"id": "z.P1", "category": "ambivalent", "cap": 1.0, "description": ""}]}
        with pytest.raises(tr.SchemaError, match="category"):
            tr.catalog_from_dict(doc)

    def test_missing_field_is_schema_error(self):
        with pytest.raises(tr.SchemaError, match="missing field"):
            tr.catalog_from_dict({"version": "x"})

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": "x",\n  "properties": [}', encoding="utf-8")
        with pytest.raises(tr.SchemaError, match="line 2"):
            tr.load_catalog(path)

    def test_cap_out_of_range(self):
        with pytest.raises(tr.ValidationError, match="cap"):
            tr.PropertyDef("h.P1", RC.HOSTILE, 1.5)


class TestAggregation:
    def test_case_study_masses(self, catalog, usa_assessment):
        masses = tr.aggregate_masses(usa_assessment, catalog)
        assert masses.hostile == 0.0
        assert abs(masses.neutral - 1.0) <= 1e-12
        assert abs(masses.friendly - 0.70) <= 1e-12

    def test_empty_assessment(self, catalog):
        masses = tr.aggregate_masses(make_assessment([]), catalog)
        assert masses == tr.CategoryMassVector(0.0, 0.0, 0.0)

    def test_generic_example_needs_free_mode(self, catalog, rival_assessment):
        masses = tr.aggregate_masses(rival_assessment, catalog, mode="free")
        assert abs(masses.hostile - 0.9) <= 1e-12
        assert abs(masses.neutral - 0.6) <= 1e-12
        assert abs(masses.friendly - 0.15) <= 1e-12

    def test_generic_example_breaks_strict_caps(self, catalog, rival_assessment):
        with pytest.raises(tr.ValidationError, match="cap"):
            tr.aggregate_masses(rival_assessment, catalog, mode="strict")

    def test_unknown_property(self, catalog):
        with pytest.raises(tr.ValidationError, match="h.P9"):
            tr.aggregate_masses(make_assessment([entry("h.P9", 0.1)]), catalog)

    def test_strict_cap_enforced(self, catalog):
        with pytest.raises(tr.ValidationError, match="cap"):
            tr.aggregate_masses(make_assessment([entry("f.P6", 0.3)]), catalog)

    def test_category_overflow_rejected(self, catalog):
        entries = [entry("n.P1", 0.9), entry("n.P2", 0.9)]
        with pytest.raises(tr.ValidationError, match="exceeds 1"):
            tr.aggregate_masses(make_assessment(entries), catalog, mode="free")

    def test_unreferenced_properties_contribute_zero(self, catalog):
        masses = tr.aggregate_masses(make_assessment([entry("f.P1", 0.5)]), catalog)
        assert masses == tr.CategoryMassVector(0.0, 0.0, 0.5)

    def test_bad_mode_rejected(self, catalog):
        with pytest.raises(tr.ValidationError, match="mode"):
            tr.aggregate_masses(make_assessment([]), catalog, mode="lenient")

    def test_linearity_over_disjoint_entries(self, catalog):
        first = [entry("f.P1", 0.3), entry("h.P2", 0.1)]
        second = [entry("n.P2", 0.2), entry("f.P3", 0.05)]
        combined = tr.aggregate_masses(make_assessment(first + second), catalog)
        a = tr.aggregate_masses(make_assessment(first), catalog)
        b = tr.aggregate_masses(make_assessment(second), catalog)
        for category in tr.CATEGORIES:
            assert abs(combined[category] - (a[category] + b[category])) <= 1e-12


class TestValidateAssessment:
    def test_case_study_fixture_is_clean(self, catalog, usa_assessment):
        report = tr.validate_assessment(usa_assessment, catalog)
        assert report.ok
        assert report.violations == []

    def test_unknown_id_reported(self, catalog):
        report = tr.validate_assessment(
            make_assessment([entry("h.P9", 0.1)]), catalog
        )
        assert not report.ok
        assert any("h.P9" in v for v in report.violations)

    def test_evidence_outside_window(self, catalog):
        bad = tr.AssessmentEntry(
            "f.P1", 0.5, (tr.EvidenceLink(dt.date(2007, 1, 1), "late source"),)
        )
        report = tr.validate_assessment(make_assessment([bad]), catalog)
        assert len(report.violations) == 1
        assert "2007" in report.violations[0]

    def test_collects_every_violation(self, catalog):
        entries = [
            entry("h.P9", 0.1),
            tr.AssessmentEntry("f.P1", 0.5, (tr.EvidenceLink(dt.date(2007, 1, 1), "x"),)),
            entry("f.P6", 0.3),
        ]
        report = tr.validate_assessment(make_assessment(entries), catalog)
        assert len(report.violations) == 3

    def test_missing_evidence_is_a_warning(self, catalog):
        report = tr.validate_assessment(
            make_assessment([tr.AssessmentEntry("f.P1", 0.5)]), catalog
        )
        assert report.ok
        assert any("no supporting evidence" in w for w in report.warnings)

    def test_duplicate_property_is_a_warning(self, catalog):
        report = tr.validate_assessment(
            make_assessment([entry("f.P3", 0.05), entry("f.P3", 0.05)]), catalog
        )
        assert report.ok
        assert any("more than once" in w for w in report.warnings)

    def test_a_property_listed_twice_may_not_exceed_its_cap_in_total(
        self, catalog, usa_assessment, case_weights
    ):
        # the fixture observes f.P6 at its cap 0.025; a second entry at the
        # cap brings the property's total to 0.05
        twice = dataclasses.replace(
            usa_assessment, entries=usa_assessment.entries + (entry("f.P6", 0.025),)
        )
        message = "entries for 'f.P6' total 0.05, above its cap 0.025 (strict mode)"
        report = tr.validate_assessment(twice, catalog)
        assert report.violations == [message]
        assert report.warnings == ["property 'f.P6' appears more than once"]
        for run in (lambda: tr.aggregate_masses(twice, catalog),
                    lambda: tr.build_report(catalog, twice, case_weights)):
            with pytest.raises(tr.ValidationError) as err:
                run()
            assert str(err.value) == message
        # free mode bounds each value by [0, 1] only
        assert tr.validate_assessment(twice, catalog, "free").ok
        assert tr.aggregate_masses(twice, catalog, "free").friendly == 0.725

    @pytest.mark.parametrize("values, violations", [
        ((0.0125, 0.0125), []),
        ((0.02, 0.02), ["entries for 'f.P6' total 0.04, above its cap 0.025 (strict mode)"]),
        # an entry above the cap by itself keeps the single-value message
        ((0.02, 0.03), ["value 0.03 for 'f.P6' exceeds its cap 0.025 (strict mode)"]),
        # a total already above the cap is not reported again
        ((0.03, 0.01), ["value 0.03 for 'f.P6' exceeds its cap 0.025 (strict mode)"]),
        ((0.02, 0.02, 0.02), ["entries for 'f.P6' total 0.04, above its cap 0.025 (strict mode)"]),
        ((0.01, 0.01, 0.01), ["entries for 'f.P6' total 0.03, above its cap 0.025 (strict mode)"]),
    ], ids=["at_cap", "total_above", "value_above", "after_value_above", "reported_once",
            "third_entry"])
    def test_cap_bounds_each_value_and_the_running_total(self, catalog, values, violations):
        report = tr.validate_assessment(make_assessment([entry("f.P6", v) for v in values]),
                                        catalog)
        assert report.violations == violations


class TestDocuments:
    def test_catalog_round_trip(self, catalog):
        assert tr.catalog_from_dict(tr.catalog_to_dict(catalog)) == catalog

    def test_catalog_file_round_trip(self, catalog, tmp_path):
        path = tmp_path / "catalog.json"
        tr.save_catalog(catalog, path)
        assert tr.load_catalog(path) == catalog

    def test_assessment_round_trip(self, usa_assessment, tmp_path):
        assert tr.assessment_from_dict(tr.assessment_to_dict(usa_assessment)) == usa_assessment
        path = tmp_path / "assessment.json"
        tr.save_assessment(usa_assessment, path)
        assert tr.load_assessment(path) == usa_assessment

    def test_window_validation(self):
        with pytest.raises(tr.ValidationError, match="after"):
            tr.DateWindow(dt.date(2005, 1, 1), dt.date(2001, 1, 1))

    def test_bad_date_is_schema_error(self):
        doc = {
            "subject": "A", "object": "B",
            "window": {"start": "not-a-date", "end": "2005-12-31"},
            "entries": [],
        }
        with pytest.raises(tr.SchemaError, match="ISO-8601"):
            tr.assessment_from_dict(doc)

    @pytest.mark.parametrize("raw", ["20010101", "2001-W01-1", "2001W011"])
    def test_only_yyyy_mm_dd_dates_parse_on_every_python(self, raw):
        doc = {
            "subject": "A", "object": "B",
            "window": {"start": raw, "end": "2005-12-31"},
            "entries": [],
        }
        message = f"assessment.window.start: expected an ISO-8601 date, got '{raw}'"
        with pytest.raises(tr.SchemaError, match=message):
            tr.assessment_from_dict(doc)

    def test_entry_value_bounds(self):
        with pytest.raises(tr.ValidationError):
            tr.AssessmentEntry("f.P1", 1.2)
        with pytest.raises(tr.ValidationError):
            tr.AssessmentEntry("f.P1", -0.2)


# --- bytes that are not a JSON document --------------------------------------

@pytest.mark.parametrize("load", [tr.load_assessment, tr.load_catalog, tr.load_band_table,
                                  tr.RelationStore.load],
                         ids=["assessment", "catalog", "band_table", "store"])
@pytest.mark.parametrize("content, detail", [
    (b"\xff\xfe", "not UTF-8 text: invalid start byte at byte 0"),
    (b'{"note": "caf\xe9"}', "not UTF-8 text: invalid continuation byte at byte 13"),
    (b"[" * 200_000, "invalid JSON: nested too deeply"),
], ids=["bom_bytes", "latin1_byte", "nested_too_deep"])
def test_unreadable_document_is_schema_error(tmp_path, load, content, detail):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(tr.SchemaError) as err:
        load(path)
    assert str(err.value) == f"{path}: {detail}"


# --- every read of an assessment document, and the error it reports --------

PIN_DOC = {
    "subject": "USA", "object": "GBR",
    "window": {"start": "2001-01-01", "end": "2005-12-31"},
    "entries": [
        {"property": "n.P1", "value": 0.2, "evidence": []},
        {"property": "f.P1", "value": 0.3, "evidence": [
            {"date": "2002-06-01", "source": "s0", "summary": "x"},
            {"date": "2003-06-01", "source": "s1", "summary": "y"},
        ]},
    ],
    "notes": "n",
}
W, E, L = ("window",), ("entries", 1), ("entries", 1, "evidence", 1)
TOO_LARGE = 10 ** 400
SE, VE = tr.SchemaError, tr.ValidationError
# (case, [(path, new value or DELETE), ...], error type, message); the
# messages are those the reader gave before its location strings became lazy
READ_ERRORS = [
    ("document_wrong_type", [((), ["x"])], SE, "assessment: expected an object"),
    ("window_missing", [(W, DELETE)], SE, "assessment: missing field 'window'"),
    ("window_wrong_type", [(W, ["2001-01-01"])], SE, "assessment.window: expected dict, got list"),
    ("start_missing", [(W + ("start",), DELETE)], SE, "assessment.window: missing field 'start'"),
    ("start_wrong_type", [(W + ("start",), 20010101)], SE,
     "assessment.window.start: expected str, got int"),
    ("start_bad_date", [(W + ("start",), "2001-13-01")], SE,
     "assessment.window.start: expected an ISO-8601 date, got '2001-13-01'"),
    ("end_missing", [(W + ("end",), DELETE)], SE, "assessment.window: missing field 'end'"),
    ("end_wrong_type", [(W + ("end",), None)], SE,
     "assessment.window.end: expected str, got NoneType"),
    ("end_bad_date", [(W + ("end",), "2001/12/31")], SE,
     "assessment.window.end: expected an ISO-8601 date, got '2001/12/31'"),
    ("entries_missing", [(("entries",), DELETE)], SE, "assessment: missing field 'entries'"),
    ("entries_wrong_type", [(("entries",), {})], SE, "assessment.entries: expected list, got dict"),
    ("entry_wrong_type", [(E, "f.P1")], SE, "assessment.entries[1]: expected an object"),
    ("evidence_wrong_type", [(E + ("evidence",), {})], SE,
     "assessment.entries[1].evidence: expected list, got dict"),
    ("evidence_null", [(E + ("evidence",), None)], SE,
     "assessment.entries[1].evidence: expected list, got NoneType"),
    ("link_wrong_type", [(L, "2003-06-01")], SE,
     "assessment.entries[1].evidence[1]: expected an object"),
    ("date_missing", [(L + ("date",), DELETE)], SE,
     "assessment.entries[1].evidence[1]: missing field 'date'"),
    ("date_wrong_type", [(L + ("date",), 2003)], SE,
     "assessment.entries[1].evidence[1].date: expected str, got int"),
    ("date_bad_date", [(L + ("date",), "2003-02-30")], SE,
     "assessment.entries[1].evidence[1]: expected an ISO-8601 date, got '2003-02-30'"),
    ("source_missing", [(L + ("source",), DELETE)], SE,
     "assessment.entries[1].evidence[1]: missing field 'source'"),
    ("source_wrong_type", [(L + ("source",), 1)], SE,
     "assessment.entries[1].evidence[1].source: expected str, got int"),
    ("summary_wrong_type", [(L + ("summary",), False)], SE,
     "assessment.entries[1].evidence[1].summary: expected str, got bool"),
    ("property_missing", [(E + ("property",), DELETE)], SE,
     "assessment.entries[1]: missing field 'property'"),
    ("property_wrong_type", [(E + ("property",), 7)], SE,
     "assessment.entries[1].property: expected str, got int"),
    ("value_missing", [(E + ("value",), DELETE)], SE, "assessment.entries[1]: missing field 'value'"),
    ("value_wrong_type", [(E + ("value",), "0.3")], SE,
     "assessment.entries[1].value: expected a number, got '0.3'"),
    ("value_bool", [(E + ("value",), True)], SE,
     "assessment.entries[1].value: expected a number, got True"),
    ("value_too_large", [(E + ("value",), TOO_LARGE)], SE,
     f"assessment.entries[1].value: 1{'0' * 400} is too large for a number"),
    ("subject_missing", [(("subject",), DELETE)], SE, "assessment: missing field 'subject'"),
    ("subject_wrong_type", [(("subject",), ["USA"])], SE,
     "assessment.subject: expected str, got list"),
    ("object_missing", [(("object",), DELETE)], SE, "assessment: missing field 'object'"),
    ("object_wrong_type", [(("object",), 3.5)], SE, "assessment.object: expected str, got float"),
    ("notes_wrong_type", [(("notes",), None)], SE, "assessment.notes: expected str, got NoneType"),
    # invariants of the value types carry no location
    ("value_above_one", [(E + ("value",), 1.5)], VE,
     "observed value for 'f.P1' must lie in [0, 1], got 1.5"),
    ("value_nan", [(E + ("value",), math.nan)], VE,
     "observed value for 'f.P1' must lie in [0, 1], got nan"),
    ("window_reversed", [(W + ("start",), "2006-01-01")], VE,
     "window start 2006-01-01 is after its end 2005-12-31"),
    # two faults in one document: the one read first is reported
    ("entry_before_subject", [(("entries", 0, "value"), "x"), (("subject",), DELETE)], SE,
     "assessment.entries[0].value: expected a number, got 'x'"),
    ("first_entry_first", [(("entries", 0, "property"), DELETE), (E + ("value",), None)], SE,
     "assessment.entries[0]: missing field 'property'"),
    ("evidence_before_property", [(E + ("property",), DELETE), (L + ("date",), "x")], SE,
     "assessment.entries[1].evidence[1]: expected an ISO-8601 date, got 'x'"),
    ("value_range_before_subject", [(E + ("value",), 1.5), (("subject",), 1)], VE,
     "observed value for 'f.P1' must lie in [0, 1], got 1.5"),
    ("window_before_entries", [(W + ("end",), "2000-01-01"), (("entries",), DELETE)], VE,
     "window start 2001-01-01 is after its end 2000-01-01"),
]


@pytest.mark.parametrize("changes, kind, message",
                         [case[1:] for case in READ_ERRORS], ids=[case[0] for case in READ_ERRORS])
def test_assessment_read_error_messages(changes, kind, message):
    with pytest.raises(tr.TrustrelError) as err:
        tr.assessment_from_dict(mutated(PIN_DOC, changes))
    assert type(err.value) is kind
    assert str(err.value) == message


def test_pin_document_reads_cleanly():
    assessment = tr.assessment_from_dict(PIN_DOC)
    assert [e.property_id for e in assessment.entries] == ["n.P1", "f.P1"]
    assert assessment.entries[1].evidence[1] == tr.EvidenceLink(dt.date(2003, 6, 1), "s1", "y")


# --- the per-item value types keep their dataclass contract -----------------

DAY = dt.date(2002, 6, 1)
LINK = tr.EvidenceLink(DAY, "wire", "talks")


class TestEvidenceLinkContract:
    def test_construction_styles_agree(self):
        assert tr.EvidenceLink(DAY, "wire", "talks") == LINK
        assert tr.EvidenceLink(summary="talks", source="wire", date=DAY) == LINK
        assert tr.EvidenceLink(DAY, "wire").summary == ""
        assert tr.EvidenceLink(DAY, "wire") == tr.EvidenceLink(date=DAY, source="wire", summary="")
        assert LINK != tr.EvidenceLink(DAY, "wire", "other")

    def test_repr_and_hash(self):
        assert repr(LINK) == (
            "EvidenceLink(date=datetime.date(2002, 6, 1), source='wire', summary='talks')"
        )
        assert hash(LINK) == hash((DAY, "wire", "talks"))

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LINK.source = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del LINK.source

    def test_fields_and_replace(self):
        assert [f.name for f in dataclasses.fields(tr.EvidenceLink)] == ["date", "source", "summary"]
        assert dataclasses.replace(LINK, summary="") == tr.EvidenceLink(DAY, "wire")
        assert vars(LINK) == {"date": DAY, "source": "wire", "summary": "talks"}

    def test_missing_argument(self):
        with pytest.raises(TypeError):
            tr.EvidenceLink(DAY)


class TestAssessmentEntryContract:
    def test_construction_styles_agree(self):
        entry_ = tr.AssessmentEntry("f.P1", 0.3, (LINK,))
        assert tr.AssessmentEntry(evidence=(LINK,), value=0.3, property_id="f.P1") == entry_
        assert tr.AssessmentEntry("f.P1", 0.3).evidence == ()
        assert tr.AssessmentEntry("f.P1", 0.3) == tr.AssessmentEntry(property_id="f.P1", value=0.3)
        assert tr.AssessmentEntry("f.P1", 0.3) != entry_

    def test_list_evidence_is_stored_as_a_tuple(self):
        entry_ = tr.AssessmentEntry("f.P1", 0.3, [LINK])
        assert type(entry_.evidence) is tuple
        assert entry_ == tr.AssessmentEntry("f.P1", 0.3, (LINK,))

    def test_repr_and_hash(self):
        entry_ = tr.AssessmentEntry("f.P1", 0.3, [LINK])
        assert repr(entry_) == (
            "AssessmentEntry(property_id='f.P1', value=0.3, evidence=(EvidenceLink("
            "date=datetime.date(2002, 6, 1), source='wire', summary='talks'),))"
        )
        assert hash(entry_) == hash(("f.P1", 0.3, (LINK,)))

    def test_frozen(self):
        entry_ = tr.AssessmentEntry("f.P1", 0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry_.value = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del entry_.value

    def test_fields_and_replace(self):
        entry_ = tr.AssessmentEntry("f.P1", 0.3, [LINK])
        names = [f.name for f in dataclasses.fields(tr.AssessmentEntry)]
        assert names == ["property_id", "value", "evidence"]
        assert dataclasses.replace(entry_, value=0.5) == tr.AssessmentEntry("f.P1", 0.5, (LINK,))
        with pytest.raises(tr.ValidationError):
            dataclasses.replace(entry_, value=1.5)

    @pytest.mark.parametrize("value, shown", [(1.5, "1.5"), (math.nan, "nan"), (-0.2, "-0.2")])
    def test_value_outside_unit_interval(self, value, shown):
        with pytest.raises(tr.ValidationError) as err:
            tr.AssessmentEntry("f.P1", value)
        assert str(err.value) == f"observed value for 'f.P1' must lie in [0, 1], got {shown}"
