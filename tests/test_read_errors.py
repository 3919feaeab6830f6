"""Every one-field edit of four small documents, and what reading it gives.

Each document trustrel reads (an assessment, a band table, a relation
store and a catalog) is broken one field at a time: the field deleted,
or set to each of ``EDIT_VALUES``; the whole document is replaced too.
The outcome of reading each copy, ``ok`` or the error's type and full
message, is compared line for line with ``tests/golden/read_errors.txt``,
where the 401 digits of ``10**400`` are written as ``10**400``.
Regenerate only for an intended change to a reader's errors:

    PYTHONPATH=src python tests/test_read_errors.py --write
"""

import pathlib
import re
import sys

import pytest

import trustrel as tr

from document_edits import DELETE, mutated
from test_catalog import PIN_DOC
from test_report import BAND_DOC

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "read_errors.txt"

#: Two records over two nations: a band label, all-positive signs (an int 0
#: lower bound) and a null band label, as ``RelationStore.to_dict`` wrote them.
STORE_DOC = {
    "nations": [
        {"id": "GBR", "name": "", "un_member": False},
        {"id": "USA", "name": "United States", "un_member": True},
    ],
    "records": [
        {"subject": "GBR", "object": "USA",
         "window": {"start": "2001-01-01", "end": "2005-12-31"},
         "assessment_ref": "GBR->USA@2001-01-01..2005-12-31 (catalog default-1)",
         "weights": {"hostile": 0.5, "neutral": 0.25, "friendly": 0.25},
         "signs": {"hostile": 1, "neutral": 1, "friendly": 1},
         "evaluation": {"trust_mass": 0.0, "strength": 0.0, "label": "hostile",
                        "no_hostile": True, "band_label": None,
                        "bounds": {"lower": 0, "upper": 1.0,
                                   "middle_band_low": 0.5, "middle_band_high": 0.75}}},
        {"subject": "USA", "object": "GBR",
         "window": {"start": "2001-01-01", "end": "2005-12-31"},
         "assessment_ref": "USA->GBR@2001-01-01..2005-12-31 (catalog default-1)",
         "weights": {"hostile": 0.45, "neutral": 0.1, "friendly": 0.45},
         "signs": {"hostile": -1, "neutral": 1, "friendly": 1},
         "evaluation": {"trust_mass": 0.15500000000000003, "strength": 0.15500000000000003,
                        "label": "friendly", "no_hostile": True,
                        "band_label": "Weak-Friendly",
                        "bounds": {"lower": -0.45, "upper": 0.55, "middle_band_low": 0.0,
                                   "middle_band_high": 0.10000000000000003}}},
    ],
}

#: One property per category, each capped at 1.
CATALOG_DOC = {
    "version": "v1",
    "properties": [
        {"id": "h.P1", "category": "hostile", "cap": 1.0, "description": "war"},
        {"id": "n.P1", "category": "neutral", "cap": 1.0, "description": "talks"},
        {"id": "f.P1", "category": "friendly", "cap": 1.0, "description": "treaty"},
    ],
}

#: document name -> (the document, its reader)
DOCUMENTS = {
    "assessment": (PIN_DOC, tr.assessment_from_dict),
    "band_table": (BAND_DOC, tr.band_table_from_dict),
    "store": (STORE_DOC, tr.RelationStore.from_dict),
    "catalog": (CATALOG_DOC, tr.catalog_from_dict),
}

#: Each edit by its name in the golden file: DELETE, or the value set.
EDIT_VALUES = {
    "delete": DELETE, "None": None, "True": True, "0": 0, "1": 1, "-1": -1,
    "0.5": 0.5, "nan": float("nan"), "'x'": "x", "[]": [], "{}": {},
    "10**400": 10 ** 400,
}


def _paths(doc, prefix=()):
    """The path of every field and list item inside ``doc``, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = prefix + (key,)
        yield path
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


def _outcome(read, doc) -> str:
    try:
        read(doc)
    except Exception as err:  # any type a reader raises is part of the pin
        return f"{type(err).__name__}: {err}".replace(str(10 ** 400), "10**400")
    return "ok"


def outcomes(name: str) -> list[str]:
    """The outcomes of every edit of document ``name``: one line per field
    and outcome, naming the field and, joined by ``|``, the edits that
    give that outcome, in ``EDIT_VALUES`` order."""
    doc, read = DOCUMENTS[name]
    lines = []
    for path in [()] + list(_paths(doc)):
        edits_by_outcome: dict[str, list[str]] = {}
        for edit, value in EDIT_VALUES.items():
            if path or value is not DELETE:
                outcome = _outcome(read, mutated(doc, [(path, value)]))
                assert "\n" not in outcome, outcome
                edits_by_outcome.setdefault(outcome, []).append(edit)
        where = name + "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)
        lines += [f"{where} {'|'.join(edits)} -> {outcome}"
                  for outcome, edits in edits_by_outcome.items()]
    lines.append(f"{name} unedited -> {_outcome(read, doc)}")
    return lines


def _golden() -> dict[str, list[str]]:
    pinned: dict[str, list[str]] = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        pinned.setdefault(re.match(r"\w+", line)[0], []).append(line)
    return pinned


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_one_field_edit_reads_as_pinned(name):
    assert outcomes(name) == _golden()[name]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(
        "".join(line + "\n" for name in DOCUMENTS for line in outcomes(name)),
        encoding="utf-8",
    )
