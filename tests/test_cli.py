"""CLI surface tests: subcommands, exit statuses, output formats."""

import csv
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import trustrel as tr
from trustrel.cli import main

from document_edits import DELETE, mutated

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

    def test_entry_without_evidence_is_a_warning_line(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({
            "subject": "USA", "object": "GBR",
            "window": {"start": "2001-01-01", "end": "2005-12-31"},
            "entries": [{"property": "f.P1", "value": 0.3}],
        }), encoding="utf-8")
        assert main(["validate", "--assessment", str(path)]) == 0
        assert capsys.readouterr().out == (
            "warning: entry 'f.P1' has no supporting evidence\n"
            f"assessment {path}: OK (1 entries)\n"
        )

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

    def test_csv_quotes_ids_so_rows_keep_their_width(self, tmp_path, capsys):
        ids = ["USA", "GBR,UK", 'FR"A']
        store = tr.RelationStore()
        for nation_id in ids:
            store.register_nation(tr.Nation(nation_id))
        path = tmp_path / "store.json"
        store.save(path)
        assert main(["matrix", "--store", str(path), "--window", "2001-01-01:2005-12-31",
                     "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [len(row) for row in rows] == [4] * 4
        assert rows[0][1:] == [row[0] for row in rows[1:]] == sorted(ids)

    def test_csv_header_names_the_same_nations(self, tmp_path, capsys):
        store = tr.RelationStore()
        for nation_id in ["USA", "GBR,UK", 'FR"A']:
            store.register_nation(tr.Nation(nation_id))
        path = tmp_path / "store.json"
        store.save(path)
        args = ["matrix", "--store", str(path), "--window", "2001-01-01:2005-12-31",
                "--format", "csv"]
        assert main(args) == 0
        matrix = capsys.readouterr().out
        header = matrix.splitlines()[0]
        assert header == 'subject\\object,"FR""A","GBR,UK",USA'
        nations = header.partition(",")[2]
        assert main(args + ["--nations", nations]) == 0
        assert capsys.readouterr().out == matrix
        # plain lists and empty parts read as before
        assert main(args + ["--nations", ',USA,,"GBR,UK"']) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["subject\\object", "USA", "GBR,UK"]

    def test_nations_not_one_csv_record(self, store_path, capsys):
        code = main(["matrix", "--store", store_path, "--nations", "USA\nGBR,FRA",
                     "--window", "2001-01-01:2005-12-31"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: nations: --nations is not one CSV record: ")

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

    @pytest.mark.parametrize("step", ["5e-324", "1e-12"])
    def test_too_fine_sweep_exits_one_without_traceback(self, step):
        done = subprocess.run(
            [sys.executable, "-m", "trustrel.cli", "whatif", "--catalog", CATALOG,
             "--assessment", USA, "--target", "weight:hostile", "--sweep", f"0:1:{step}"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            f"error: sweep: sweep step {step} makes more than 100001 grid points\n"
        )


class TestUnreadableDocuments:
    """Bytes that are not a JSON document exit 2 with a one-line error."""

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200_000],
                             ids=["not_utf8", "nested_too_deep"])
    @pytest.mark.parametrize("command", [
        ["validate", "--assessment", "{doc}"],
        ["evaluate", "--catalog", "{doc}", "--assessment", USA],
        ["matrix", "--store", "{doc}", "--window", "2001-01-01:2005-12-31"],
    ], ids=["validate_assessment", "evaluate_catalog", "matrix_store"])
    def test_exits_two_without_traceback(self, tmp_path, content, command):
        doc = tmp_path / "doc.json"
        doc.write_bytes(content)
        done = subprocess.run(
            [sys.executable, "-m", "trustrel.cli", *(a.format(doc=doc) for a in command)],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and f"{doc}: " in done.stderr
        assert done.stderr.count("\n") == 1



@pytest.fixture
def failing_docs(tmp_path):
    """Documents that fail to read or to check, one per failing stage."""
    caps = tr.catalog_to_dict(tr.default_catalog())
    for raw in caps["properties"]:
        if raw["id"] == "h.P3":
            raw["cap"] = 0.175
    store = tr.RelationStore()
    store.register_nation(tr.Nation("USA"))
    store.register_nation(tr.Nation("GBR"))
    store.save(tmp_path / "store.json")
    docs = {
        "broken.json": '{"version": "1",',
        "caps.json": json.dumps(caps),
        "no_entries.json": json.dumps({
            "subject": "USA", "object": "GBR",
            "window": {"start": "2001-01-01", "end": "2005-12-31"},
        }),
        "bands.json": json.dumps({"bands": 3}),
        "bad_store.json": json.dumps({"nations": [{"id": 3}], "records": []}),
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


EVALUATE = ["evaluate", "--catalog", CATALOG, "--assessment", USA]
WHATIF = ["whatif", "--catalog", CATALOG, "--assessment", USA]
WINDOW = ["--window", "2001-01-01:2005-12-31"]

#: failure -> (argv, exit status, stderr); "{tmp}" is the ``failing_docs`` directory
STAGE_FAILURES = {
    "catalog_bad_json": (
        ["evaluate", "--catalog", "{tmp}/broken.json", "--assessment", USA], 2,
        "error: catalog: {tmp}/broken.json: invalid JSON at line 1 column 17: "
        "Expecting property name enclosed in double quotes\n"),
    "catalog_caps_total": (
        ["evaluate", "--catalog", "{tmp}/caps.json", "--assessment", USA], 1,
        "error: catalog: hostile caps must total 1.0, got 1.1\n"),
    "assessment": (
        ["whatif", "--catalog", CATALOG, "--assessment", "{tmp}/no_entries.json",
         "--target", "weight:hostile", "--sweep", "0:1:0.5"], 2,
        "error: assessment: assessment: missing field 'entries'\n"),
    "weights_both_forms": (
        EVALUATE + ["--weights", "0.4,0.2,0.4", "--weight-hostile", "0.4"], 1,
        "error: weights: use either --weights or the --weight-* flags, not both\n"),
    "weights_count": (
        EVALUATE + ["--weights", "0.4,0.6"], 1,
        "error: weights: --weights takes three comma-separated values "
        "ordered hostile,neutral,friendly\n"),
    "weights_empty": (
        EVALUATE + ["--weights", ""], 1,
        "error: weights: --weights takes three comma-separated values "
        "ordered hostile,neutral,friendly\n"),
    "weights_not_numbers": (
        EVALUATE + ["--weights", "0.4,x,0.4"], 1,
        "error: weights: --weights values must be numbers, got '0.4,x,0.4'\n"),
    "weights_long_form_incomplete": (
        EVALUATE + ["--weight-hostile", "0.4", "--weight-neutral", "0.6"], 1,
        "error: weights: all three of --weight-hostile, --weight-neutral, "
        "--weight-friendly are required\n"),
    "weights_sum": (
        WHATIF + ["--weights", "0.5,0.5,0.5", "--target", "weight:hostile",
                  "--sweep", "0:1:0.5"], 1,
        "error: weights: weights must sum to 1, got 1.5\n"),
    "signs": (
        EVALUATE + ["--signs", "+,0,+"], 1,
        "error: signs: --signs takes three of -/+ ordered hostile,neutral,friendly, "
        "got '+,0,+'\n"),
    "bands": (
        EVALUATE + ["--bands", "{tmp}/bands.json"], 2,
        "error: bands: band_table.bands: expected list, got int\n"),
    "evaluation": (
        ["evaluate", "--catalog", CATALOG, "--assessment", RIVAL,
         "--weights", "0.45,0.10,0.45"], 1,
        "error: evaluation: value 0.15 for 'h.P4' exceeds its cap 0.125 (strict mode)\n"),
    "sweep_target": (
        WHATIF + ["--target", "weight", "--sweep", "0:1:0.1"], 1,
        "error: sweep: --target must look like weight:hostile or property:f.P1, "
        "got 'weight'\n"),
    "sweep_grid": (
        WHATIF + ["--target", "weight:hostile", "--sweep", "0:1"], 1,
        "error: sweep: --sweep must look like FROM:TO:STEP, got '0:1'\n"),
    "sweep_not_numbers": (
        WHATIF + ["--target", "weight:hostile", "--sweep", "a:b:c"], 1,
        "error: sweep: --sweep values must be numbers, got 'a:b:c'\n"),
    "store": (
        ["matrix", "--store", "{tmp}/bad_store.json"] + WINDOW, 2,
        "error: store: store.nations[0].id: expected str, got int\n"),
    "window": (
        ["matrix", "--store", "{tmp}/store.json", "--window", "2001-01-01"], 2,
        "error: window: expected a date range START:END, got '2001-01-01'\n"),
    "matrix": (
        ["matrix", "--store", "{tmp}/store.json", "--nations", "USA,XYZ"] + WINDOW, 1,
        "error: matrix: nation 'XYZ' is not registered\n"),
    "nothing_to_validate": (
        ["validate"], 2, "error: nothing to validate: pass --catalog and/or --assessment\n"),
    "missing_file": (
        ["evaluate", "--catalog", "{tmp}/missing.json", "--assessment", USA], 2,
        "error: [Errno 2] No such file or directory: '{tmp}/missing.json'\n"),
}


@pytest.mark.parametrize("case", STAGE_FAILURES)
def test_stage_failure_exit_status_and_line(case, failing_docs, capsys):
    argv, status, stderr = STAGE_FAILURES[case]
    assert main([arg.format(tmp=failing_docs) for arg in argv]) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr.format(tmp=failing_docs)


@pytest.mark.parametrize("command", [["catalog", "show"], ["validate", "--assessment", USA]],
                         ids=["catalog_show", "validate"])
def test_damaged_shipped_catalog_exits_two_without_traceback(tmp_path, command):
    package = tmp_path / "trustrel"
    shutil.copytree(REPO_ROOT / "src" / "trustrel", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    data = package / "data" / "default_catalog.json"
    text = data.read_text(encoding="utf-8")
    data.write_text(text[: len(text) // 2], encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "trustrel.cli", *command],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {data}: invalid JSON at line ")
    assert done.stderr.count("\n") == 1

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


# --- every call exits 0, 1 or 2 ----------------------------------------------

#: The documents a fuzzed call edits, by the option that names them.
FUZZ_SOURCES = {
    "catalog": [CATALOG],
    "assessment": [USA, RIVAL],
    "bands": [BANDS],
    "store": [str(REPO_ROOT / "tests" / "golden" / "doc_store_three_nations.json")],
}
FUZZ_DOCS = {path: json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
             for paths in FUZZ_SOURCES.values() for path in paths}
EDIT_VALUES = [DELETE, None, True, 0, 1, -1, 0.5, 1.5, -0.0, math.nan, math.inf, "x", "",
               "2001-13-01", "hostile", [], {}, [{}], 10 ** 400]
NUMBERS = ["0", "1", "0.5", "0.4", "0.2", "-0.0", "nan", "inf", "-inf", "1e400", "-0.1", "x", ""]


def _paths(doc, path=()):
    """The path of ``doc`` and of every field and list item inside it."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _edited(source, changes):
    """The bytes of document ``source`` with each of ``changes`` that still
    has a target applied in turn."""
    doc = FUZZ_DOCS[source]
    for change in changes:
        try:
            doc = mutated(doc, [change])
        except (KeyError, IndexError, TypeError):  # an earlier change removed the path
            pass
    return json.dumps(doc).encode()


def _edits(source):
    """Bytes of document ``source`` with up to three fields or items edited."""
    edit = st.tuples(st.sampled_from(list(_paths(FUZZ_DOCS[source]))), st.sampled_from(EDIT_VALUES))
    edit = edit.filter(lambda change: change[0] or change[1] is not DELETE)  # keep a document
    return st.lists(edit, max_size=3).map(lambda changes: _edited(source, changes))


EDITED = {source: _edits(source) for source in FUZZ_DOCS}


def _slot(kind):
    """A document for the option ``kind``: mostly its own kind, as is or
    edited, else another kind, random bytes, or None for a missing file."""
    own = st.sampled_from(FUZZ_SOURCES[kind])
    return st.sampled_from(["own"] * 3 + ["edited"] * 3 + ["other", "bytes", "missing"]).flatmap(
        lambda pick: {"own": own.map(lambda source: _edited(source, [])),
                      "edited": own.flatmap(EDITED.get),
                      "other": st.sampled_from(list(EDITED.values())).flatmap(lambda edits: edits),
                      "bytes": st.binary(max_size=40),
                      "missing": st.none()}[pick])


WINDOWS = ["2001-01-01:2005-12-31", "1900-01-01:2100-12-31", "2001-01-01",
           "2005-01-01:2001-01-01", "x:y", "2001-13-01:2002-01-01"]
NATIONS = ["ALPHA,GBR,USA", '"USA","GBR"', 'USA,"GB,R"', '"USA', ",,", "", "XYZ", "USA,'GBR'"]
TARGETS = ["weight:hostile", "weight:neutral", "weight:friendly", "weight:up", "property:f.P1",
           "property:h.P4", "property:n.P3", "property:zz", "weight", ":"]
GRID = ["0", "1", "0.5", "0.25", "0.1", "-0.0", "nan", "inf", "1e400", "-0.1", "1e-12", "5e-324", "x"]


def _joined(values, sep):
    return st.lists(st.sampled_from(values), min_size=2, max_size=4).map(sep.join)


@st.composite
def cli_calls(draw):
    """An argv for ``main``, with ``{name}`` for the path of each document
    in the dict returned with it.  Every option value is joined to its
    flag by "=", as argparse takes a separate value led by "-" for an
    option; only --signs is also written apart, as ``main`` joins it."""
    docs = {}

    def doc(kind):
        docs[kind] = draw(_slot(kind))
        return [f"--{kind}={{{kind}}}"]

    def opt(name, values, required=False):
        value = draw(values if isinstance(values, st.SearchStrategy) else st.sampled_from(values))
        return [f"--{name}={value}"] if required or draw(st.booleans()) else []

    command = draw(st.sampled_from(["evaluate", "whatif", "validate", "matrix"]))
    argv = [command]
    if command == "validate":
        for kind in ("catalog", "assessment"):
            if draw(st.booleans()):
                argv += doc(kind)
        return argv + opt("cap-mode", ["strict", "free", "lax"]), docs
    if command == "matrix":
        argv += doc("store") + opt("window", WINDOWS, required=True) + opt("nations", NATIONS)
        return argv + opt("format", ["text", "csv", "json"]), docs
    argv += doc("catalog") + doc("assessment")
    argv += opt("weights", st.one_of(
        st.sampled_from(["0.4,0.2,0.4", "0.45,0.1,0.45", "-0.0,0.5,0.5", "1,0,0"]),
        _joined(NUMBERS, ",")))
    for category in ("hostile", "neutral", "friendly"):
        argv += opt(f"weight-{category}", NUMBERS)
    signs = draw(_joined(["-", "+", "0", ""], ","))
    argv += draw(st.sampled_from([[], ["--signs", signs], [f"--signs={signs}"]]))
    argv += opt("cap-mode", ["strict", "free", "lax"]) + opt("format", ["text", "json", "csv", "xml"])
    if command == "evaluate":
        if draw(st.booleans()):
            argv += doc("bands")
        return argv + opt("delta", ["0.1", "0", "nan", "inf", "-0.1"]), docs
    argv += opt("target", TARGETS, required=True) + opt("sweep", st.one_of(
        st.sampled_from(["0:1:0.25", "1:0:0.5", "0.4:0:0.1", "0:0.2:0.1"]), _joined(GRID, ":")),
        required=True)
    return argv, docs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_calls())
def test_every_call_exits_zero_one_or_two(call):
    argv, docs = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"{name}.json") for name in docs}
        for name, content in docs.items():
            if content is not None:
                pathlib.Path(paths[name]).write_bytes(content)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = main([arg.format(**paths) for arg in argv])
        except SystemExit as exit:  # argparse refused the command line
            assert exit.code == 2
            return
    assert status in (0, 1, 2)
    if status == 2 or (status == 1 and argv[0] != "validate"):
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    elif status == 0:
        assert err.getvalue() == ""


# --- state independence ---------------------------------------------------------

#: name -> argv of calls that read or leave state a later call could see:
#: masses kept on an assessment, weight-sweep frames, the shipped catalog
ALONE_CALLS = {
    "evaluate_text": EVALUATE + ["--weights", "0.4,0.2,0.4"],
    "evaluate_json": EVALUATE + ["--weights", "0.4,0.2,0.4", "--format", "json"],
    "evaluate_csv_bands": ["evaluate", "--catalog", CATALOG, "--assessment", RIVAL,
                           "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
                           "--bands", BANDS, "--format", "csv"],
    "whatif_weight": WHATIF + ["--weights", "0.4,0.2,0.4", "--target", "weight:hostile",
                               "--sweep", "0:1:0.1"],
    "whatif_weight_rival": ["whatif", "--catalog", CATALOG, "--assessment", RIVAL,
                            "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
                            "--target", "weight:hostile", "--sweep", "0.45:0.05:0.05"],
    "whatif_property": WHATIF + ["--weights", "0.4,0.2,0.4", "--target", "property:f.P1",
                                 "--sweep", "0.5:0:0.05"],
    "whatif_property_over_cap": WHATIF + ["--target", "property:n.P1", "--sweep", "0:1:0.1"],
    "validate": ["validate", "--catalog", CATALOG, "--assessment", USA],
    "matrix": ["matrix", "--store", FUZZ_SOURCES["store"][0],
               "--window", "1900-01-01:2100-12-31"],
}


@pytest.fixture(scope="module")
def alone():
    """Status, stdout and stderr of each call of ALONE_CALLS in a fresh process."""
    runs = {}
    for name, argv in ALONE_CALLS.items():
        done = subprocess.run(
            [sys.executable, "-m", "trustrel.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            capture_output=True, text=True, timeout=60,
        )
        runs[name] = (done.returncode, done.stdout, done.stderr)
    return runs


@pytest.mark.parametrize("order", [list(ALONE_CALLS), list(reversed(ALONE_CALLS))],
                         ids=["forward", "reversed"])
def test_calls_in_one_process_print_what_each_prints_alone(order, alone):
    for name in order:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(ALONE_CALLS[name])
        assert (status, out.getvalue(), err.getvalue()) == alone[name], name
