"""Byte-for-byte pins of the documents trustrel writes.

The round-trip tests read back what the writers write, so a format
change made to a writer and its reader together would still pass them.
Here each written document is compared with a file under
``tests/golden/`` written by commit 23795fa: the shipped catalog, the
USA assessment fixture, a three-nation relation store built from the
fixtures, and the stdout of ``trustrel catalog show --format json``.
Regenerate only for an intended change to a document format:

    PYTHONPATH=src python tests/test_documents.py --write
"""

import contextlib
import dataclasses
import datetime as dt
import pathlib
import sys

import pytest

import trustrel as tr
from trustrel.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
GOLDEN = REPO_ROOT / "tests" / "golden"


def _usa():
    return tr.load_assessment(FIXTURES / "usa_gbr_2001_2005.json")


def _save_store(path):
    """Four records over three nations: a band label, two windows for one
    pair, all-positive signs (an int 0 lower bound) and a hostile verdict."""
    catalog, usa = tr.default_catalog(), _usa()
    rival = tr.load_assessment(FIXTURES / "rival_pair_1950s.json")
    store = tr.RelationStore()
    store.register_nation(tr.Nation("USA", "United States of America"))
    store.register_nation(tr.Nation("GBR", "Great Britain"))
    store.register_nation(tr.Nation("ALPHA", un_member=False))
    store.evaluate_relation(
        "USA", "GBR", usa, catalog, tr.WeightVector(0.45, 0.10, 0.45),
        bands=tr.load_band_table(FIXTURES / "septuple_bands.json"),
    )
    wider = tr.DateWindow(dt.date(2000, 1, 1), dt.date(2006, 12, 31))
    store.evaluate_relation(
        "USA", "GBR", dataclasses.replace(usa, window=wider), catalog,
        tr.WeightVector(0.40, 0.20, 0.40),
    )
    store.evaluate_relation(
        "GBR", "USA", dataclasses.replace(usa, subject="GBR", object="USA"), catalog,
        tr.WeightVector(0.30, 0.30, 0.40), signs=tr.ScalarConfig(1, 1, 1),
    )
    store.evaluate_relation(
        "ALPHA", "USA", dataclasses.replace(rival, object="USA"), catalog,
        tr.WeightVector(0.45, 0.10, 0.45), mode="free",
    )
    store.save(path)


def _catalog_show(path):
    with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        assert main(["catalog", "show", "--format", "json"]) == 0


#: golden file -> writer of that document to a path
WRITERS = {
    "doc_default_catalog.json": lambda path: tr.save_catalog(tr.default_catalog(), path),
    "doc_usa_assessment.json": lambda path: tr.save_assessment(_usa(), path),
    "doc_store_three_nations.json": _save_store,
    "catalog_show.json.out": _catalog_show,
}


@pytest.mark.parametrize("golden", WRITERS)
def test_written_document_matches_golden_bytes(golden, tmp_path):
    WRITERS[golden](tmp_path / golden)
    assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    for golden, write in WRITERS.items():
        write(GOLDEN / golden)
