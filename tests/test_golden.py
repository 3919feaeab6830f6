"""Byte-for-byte CLI output pinned against committed golden files.

The files under ``tests/golden/`` hold the stdout (for failing calls,
the stderr) of ``trustrel whatif`` and ``trustrel evaluate``
as written by the per-point sweep of commit a05d4f1, before the sweep
loop was hoisted; the ``cannot_renormalize`` files were written by
commit 3f06407, before sweep points moved to plain floats.  Any change
to a single printed digit, row or error message fails here.  Regenerate
only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import pathlib
import sys

import pytest

from trustrel.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden"
CATALOG = "src/trustrel/data/default_catalog.json"
USA = "fixtures/usa_gbr_2001_2005.json"
RIVAL = "fixtures/rival_pair_1950s.json"
FORMATS = ("json", "csv", "text")

#: name -> (argv without --format, expected exit status)
CASES = {
    "whatif_rival_weight_hostile": (
        ["whatif", "--catalog", CATALOG, "--assessment", RIVAL,
         "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
         "--target", "weight:hostile", "--sweep", "0.45:0.05:0.05"], 0),
    "whatif_rival_weight_friendly_ascending": (
        ["whatif", "--catalog", CATALOG, "--assessment", RIVAL,
         "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
         "--target", "weight:friendly", "--sweep", "0:1:0.05"], 0),
    "whatif_rival_property_h.P2": (
        ["whatif", "--catalog", CATALOG, "--assessment", RIVAL,
         "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
         "--target", "property:h.P2", "--sweep", "0:0.3:0.03"], 0),
    "whatif_usa_property_f.P1": (
        ["whatif", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "0.40,0.20,0.40",
         "--target", "property:f.P1", "--sweep", "0.5:0:0.05"], 0),
    "whatif_usa_weight_neutral_signs": (
        ["whatif", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "0.40,0.20,0.40", "--signs=+,-,+",
         "--target", "weight:neutral", "--sweep", "0:1:0.1"], 0),
    "whatif_usa_property_n.P3_signs": (
        ["whatif", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "0.30,0.30,0.40", "--signs=-,-,+",
         "--target", "property:n.P3", "--sweep", "0.4:0:0.04"], 0),
    # strict mode aborts at the first point above the cap (0.3 > 0.25)
    "whatif_usa_property_n.P1_over_cap": (
        ["whatif", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "0.40,0.20,0.40",
         "--target", "property:n.P1", "--sweep", "0:1:0.1"], 1),
    # free mode aborts where the hostile total passes 1
    "whatif_rival_property_h.P1_over_total": (
        ["whatif", "--catalog", CATALOG, "--assessment", RIVAL,
         "--weights", "0.45,0.10,0.45", "--cap-mode", "free",
         "--target", "property:h.P1", "--sweep", "0:1:0.05"], 1),
    # a negative friendly sign is degenerate once the friendly weight leaves 0
    "whatif_usa_weight_friendly_degenerate": (
        ["whatif", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "0.5,0.5,0", "--signs=-,+,-",
         "--target", "weight:friendly", "--sweep", "0:0.3:0.1"], 1),
    # the other two weights are both zero, so they cannot absorb 1 - 0.75
    "whatif_usa_weight_hostile_cannot_renormalize": (
        ["whatif", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "1,0,0",
         "--target", "weight:hostile", "--sweep", "1:0.5:0.25"], 1),
    # an infinite step is rejected before any grid point is evaluated
    "whatif_usa_property_f.P1_infinite_step": (
        ["whatif", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "0.40,0.20,0.40",
         "--target", "property:f.P1", "--sweep", "0:1:inf"], 1),
    "whatif_usa_weight_hostile_infinite_step": (
        ["whatif", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "0.40,0.20,0.40",
         "--target", "weight:hostile", "--sweep", "0:1:inf"], 1),
    # all-positive signs: the lower bound is the int 0, so JSON prints
    # "lower": 0 (not 0.0) and text/csv print 0.000000
    "evaluate_usa_signs_all_positive": (
        ["evaluate", "--catalog", CATALOG, "--assessment", USA,
         "--weights", "0.40,0.20,0.40", "--signs=+,+,+"], 0),
}


def run_cli(argv):
    """(exit status, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_calls():
    """(golden file, argv, exit status): stdout on success, else stderr."""
    for name, (argv, code) in CASES.items():
        for fmt in FORMATS:
            yield f"{name}.{fmt}.{'err' if code else 'out'}", argv + ["--format", fmt], code


@pytest.mark.parametrize(
    "golden, argv, code", [pytest.param(*call, id=call[0]) for call in golden_calls()]
)
def test_cli_output_matches_golden_bytes(golden, argv, code, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    status, out, err = run_cli(argv)
    assert status == code
    pinned, other = (err, out) if code else (out, err)
    assert pinned.encode() == (GOLDEN / golden).read_bytes()
    assert other == ""


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import os

    os.chdir(REPO_ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for golden, argv, code in golden_calls():
        status, out, err = run_cli(argv)
        assert status == code, (golden, status, err)
        (GOLDEN / golden).write_bytes((err if code else out).encode())
