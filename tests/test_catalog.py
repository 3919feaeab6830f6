"""Unit tests for catalogs, assessments, and aggregation."""

import datetime as dt

import pytest

import trustrel as tr
from trustrel import RelationCategory as RC

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
        assert any("more than once" in w for w in report.warnings)


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
