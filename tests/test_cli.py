"""CLI surface tests: subcommands, exit statuses, output formats."""

import json
import pathlib

import pytest

import trustrel as tr
from trustrel.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
CATALOG = str(REPO_ROOT / "src" / "trustrel" / "data" / "default_catalog.json")
USA = str(FIXTURES / "usa_gbr_2001_2005.json")
RIVAL = str(FIXTURES / "rival_pair_1950s.json")
BANDS = str(FIXTURES / "septuple_bands.json")


@pytest.fixture
def store_path(tmp_path, catalog, usa_assessment):
    store = tr.RelationStore()
    store.register_nation(tr.Nation("USA", "United States of America"))
    store.register_nation(tr.Nation("GBR", "Great Britain"))
    store.evaluate_relation(
        "USA", "GBR", usa_assessment, catalog, tr.WeightVector(0.40, 0.20, 0.40)
    )
    path = tmp_path / "store.json"
    store.save(path)
    return str(path)


class TestValidate:
    def test_shipped_catalog_ok(self, capsys):
        assert main(["validate", "--catalog", CATALOG]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_cap_total_exits_one(self, tmp_path, capsys):
        doc = tr.catalog_to_dict(tr.default_catalog())
        for raw in doc["properties"]:
            if raw["id"] == "h.P3":
                raw["cap"] = 0.175
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--catalog", str(path)]) == 1
        assert "hostile" in capsys.readouterr().out

    def test_assessment_not_checked_against_an_invalid_catalog(self, tmp_path, capsys):
        doc = tr.catalog_to_dict(tr.default_catalog())
        for raw in doc["properties"]:
            if raw["id"] == "h.P1":
                raw["cap"] = 0.99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--catalog", str(path), "--assessment", USA]) == 1
        out = capsys.readouterr().out
        assert f"catalog {path}: INVALID: hostile caps must total 1.0, got 1.49" in out
        assert f"assessment {USA}: NOT CHECKED (catalog {path} is invalid)" in out
        assert ": OK (" not in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "--catalog", "/nonexistent/cat.json"]) == 2

    def test_assessment_against_explicit_catalog(self, capsys):
        code = main(
            ["validate", "--catalog", CATALOG, "--assessment", RIVAL, "--cap-mode", "free"]
        )
        assert code == 0

    def test_assessment_cap_violations_reported(self, capsys):
        # strict mode trips over the free-mode fixture values
        assert main(["validate", "--assessment", RIVAL]) == 1
        out = capsys.readouterr().out
        assert "violation" in out

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--catalog", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_oversized_integer_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"version": "1", "properties": [' + "9" * 5000 + "]}", encoding="utf-8")
        assert main(["validate", "--catalog", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestEvaluate:
    def test_case_study_text(self, capsys):
        code = main(
            ["evaluate", "--catalog", CATALOG, "--assessment", USA,
             "--weights", "0.40,0.20,0.40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trust_mass  0.480000" in out
        assert "strength    0.480000" in out
        assert "label       friendly" in out
        assert "no_hostile=true" in out

    def test_generic_example_json(self, capsys):
        code = main(
            ["evaluate", "--catalog", CATALOG, "--assessment", RIVAL,
             "--weights", "0.45,0.10,0.45", "--cap-mode", "free", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["trust_mass"] - -0.2775) <= 1e-12
        assert abs(doc["strength"] - 0.5325) <= 1e-12
        assert doc["label"] == "hostile"

    def test_long_form_weight_flags(self, capsys):
        code = main(
            ["evaluate", "--catalog", CATALOG, "--assessment", USA,
             "--weight-hostile", "0.40", "--weight-neutral", "0.20",
             "--weight-friendly", "0.40", "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["label"] == "friendly"

    def test_band_table_flag(self, capsys):
        code = main(
            ["evaluate", "--catalog", CATALOG, "--assessment", RIVAL,
             "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
             "--bands", BANDS, "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["band_label"] == "Near-Hostile"

    def test_strict_mode_failure_names_stage(self, capsys):
        code = main(
            ["evaluate", "--catalog", CATALOG, "--assessment", RIVAL,
             "--weights", "0.45,0.10,0.45"]
        )
        assert code == 1
        assert "evaluation:" in capsys.readouterr().err

    def test_bad_weights_rejected(self, capsys):
        code = main(
            ["evaluate", "--catalog", CATALOG, "--assessment", USA,
             "--weights", "0.5,0.5,0.5"]
        )
        assert code == 1
        assert "weights" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["nan", "inf", "-0.1"])
    def test_bad_delta_rejected(self, delta, capsys):
        code = main(
            ["evaluate", "--catalog", CATALOG, "--assessment", USA,
             "--weights", "0.40,0.20,0.40", "--delta", delta, "--format", "json"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: evaluation: delta must be finite and non-negative, got {float(delta)}\n"
        )

    def test_json_round_trips_report(self, capsys, catalog, usa_assessment):
        main(["evaluate", "--catalog", CATALOG, "--assessment", USA,
              "--weights", "0.40,0.20,0.40", "--format", "json"])
        decoded = json.loads(capsys.readouterr().out)
        report = tr.build_report(catalog, usa_assessment, tr.WeightVector(0.40, 0.20, 0.40))
        assert decoded == json.loads(report.to_json())


class TestMatrix:
    def test_two_by_two(self, store_path, capsys):
        code = main(
            ["matrix", "--store", store_path, "--nations", "USA,GBR",
             "--window", "2001-01-01:2005-12-31"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].split() == ["USA", "friendly", "friendly"]
        assert lines[2].split() == ["GBR", "undefined", "friendly"]

    def test_csv_format(self, store_path, capsys):
        main(["matrix", "--store", store_path, "--nations", "USA,GBR",
              "--window", "2001-01-01:2005-12-31", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "USA,friendly,friendly"
        assert lines[2] == "GBR,undefined,friendly"

    def test_unknown_nation_named(self, store_path, capsys):
        code = main(
            ["matrix", "--store", store_path, "--nations", "USA,XYZ",
             "--window", "2001-01-01:2005-12-31"]
        )
        assert code == 1
        assert "XYZ" in capsys.readouterr().err

    def test_empty_nation_list(self, store_path, capsys):
        code = main(
            ["matrix", "--store", store_path, "--nations", "",
             "--window", "2001-01-01:2005-12-31"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_defaults_to_all_registered(self, store_path, capsys):
        main(["matrix", "--store", store_path, "--window", "2001-01-01:2005-12-31"])
        out = capsys.readouterr().out
        assert "GBR" in out and "USA" in out


class TestWhatIf:
    def test_weight_sweep_text(self, capsys):
        code = main(
            ["whatif", "--catalog", CATALOG, "--assessment", RIVAL,
             "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
             "--target", "weight:hostile", "--sweep", "0.45:0.05:0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "base label: hostile" in out
        assert "first flip at hostile=0.200000" in out
        assert out.count("*flip*") == 4

    def test_property_sweep_csv(self, capsys):
        code = main(
            ["whatif", "--catalog", CATALOG, "--assessment", USA,
             "--weights", "0.40,0.20,0.40",
             "--target", "property:f.P1", "--sweep", "0.5:0:0.05",
             "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        assert all(line.endswith("friendly,false") for line in lines[1:])

    def test_bad_target_rejected(self, capsys):
        code = main(
            ["whatif", "--catalog", CATALOG, "--assessment", USA,
             "--target", "weight", "--sweep", "0:1:0.1"]
        )
        assert code == 1


class TestCatalogShow:
    def test_text_lists_all_properties(self, capsys):
        assert main(["catalog", "show"]) == 0
        out = capsys.readouterr().out
        for prop_id in ("h.P1", "n.P3", "f.P6"):
            assert prop_id in out

    def test_json_matches_shipped_document(self, capsys, catalog):
        assert main(["catalog", "show", "--format", "json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert tr.catalog_from_dict(decoded) == catalog


class TestDeterminism:
    def test_json_output_is_byte_identical(self, capsys):
        argv = ["evaluate", "--catalog", CATALOG, "--assessment", USA,
                "--weights", "0.40,0.20,0.40", "--format", "json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_csv_output_is_byte_identical(self, capsys):
        argv = ["whatif", "--catalog", CATALOG, "--assessment", RIVAL,
                "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
                "--target", "weight:hostile", "--sweep", "0.45:0.05:0.05",
                "--format", "csv"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    @pytest.mark.parametrize("command", [
        ["evaluate", "--format", "json"],
        ["whatif", "--target", "property:n.P3", "--sweep", "0.4:0:0.04"],
    ])
    def test_signs_led_by_minus_read_alike_in_both_spellings(self, command, capsys):
        argv = command[:1] + ["--catalog", CATALOG, "--assessment", USA,
                              "--weights", "0.30,0.30,0.40"] + command[1:]
        outputs = []
        for signs in (["--signs", "-,-,+"], ["--signs=-,-,+"], ["--sig", "-,-,+"]):
            assert main(argv + signs) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1] == outputs[2]
