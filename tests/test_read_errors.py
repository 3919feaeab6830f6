"""Every one-field edit of four small documents, and what reading it gives.

Each document trustrel reads (an assessment, a band table, a relation
store and a catalog) is broken one field at a time: the field deleted,
or set to each of ``EDIT_VALUES``; the whole document is replaced too.
The outcome of reading each copy, ``ok`` or the error's type and full
message, is compared line for line with ``tests/golden/read_errors.txt``,
where the 401 digits of ``10**400`` are written as ``10**400``.
Regenerate only for an intended change to a reader's errors:

    PYTHONPATH=src python tests/test_read_errors.py --write

The assessment, band table and store readers build their values with
``_unchecked`` builders, which skip the constructors' checks.  A property
over drawn one-field edits reads each copy again with every builder
replaced by its checked constructor: the values must be the same, field by
field and type by type, and the outcome must be the same, with no
constructor ever refusing what its reader accepted.
"""

import dataclasses
import pathlib
import re
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _read_and_scan(doc):
    """An assessment read from ``doc``, and the outcome of scanning it in
    each cap mode, whose masses are built unchecked too."""
    assessment = tr.assessment_from_dict(doc)
    catalog = tr.default_catalog()
    return (assessment, *(_read(lambda a: tr.aggregate_masses(a, catalog, mode), assessment)
                          for mode in tr.catalog.CAP_MODES))


def _load_store(doc):
    """The nations and records of the store read from ``doc``."""
    store = tr.RelationStore.from_dict(doc)
    return store.nations, store.records


#: document name -> its reader, and the types it builds with ``_unchecked``
UNCHECKED_READS = {
    "assessment": (_read_and_scan, (tr.EvidenceLink, tr.AssessmentEntry, tr.Assessment,
                                    tr.CategoryMassVector)),
    "band_table": (tr.band_table_from_dict, (tr.Band, tr.BandTable)),
    "store": (_load_store, (tr.RelationRecord,)),
}

#: A field's new value: an edit of ``EDIT_VALUES``, any JSON value, or a
#: date, category or number near a field's edge.
JSON_VALUES = st.one_of(
    st.sampled_from(list(EDIT_VALUES.values())),
    st.sampled_from(["2001-01-01", "2005-12-31", "2006-01-01", "2000-12-31", "hostile",
                     "neutral", "friendly", -0.0, 1.0000000001, 2**53 + 1, float("inf")]),
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
                 lambda inner: st.lists(inner, max_size=2)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=3),
)


def _read(read, doc):
    """``(value, None)`` read from ``doc``, or ``(None, (type, message))``."""
    try:
        return read(doc), None
    except Exception as err:  # any type a reader raises is part of the outcome
        return None, (type(err), str(err))


@contextmanager
def _checked_builds(types, refusals):
    """Each type's ``_unchecked`` replaced by its checked constructor, which
    appends each refusal to ``refusals``."""
    def checked(cls):
        def build(*args):
            try:
                return cls(*args)
            except tr.ValidationError as err:
                refusals.append(f"{cls.__name__}: {err}")
                raise
        return staticmethod(build)

    saved = {cls: vars(cls)["_unchecked"] for cls in types}
    try:
        for cls in types:
            cls._unchecked = checked(cls)
        yield
    finally:
        for cls, build in saved.items():
            cls._unchecked = build


def _same(ours, theirs):
    """``ours`` is ``theirs`` field by field: each value, nested ones too, of
    the same type, and each other field of the same type and repr."""
    assert type(ours) is type(theirs)
    if dataclasses.is_dataclass(ours):
        assert vars(ours).keys() == vars(theirs).keys()
        for name in vars(ours):
            _same(getattr(ours, name), getattr(theirs, name))
    elif type(ours) is tuple:
        assert len(ours) == len(theirs)
        for one, other in zip(ours, theirs):
            _same(one, other)
    else:
        assert repr(ours) == repr(theirs)


@pytest.mark.parametrize("name", UNCHECKED_READS)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_an_unchecked_build_is_the_checked_one(name, data):
    doc = DOCUMENTS[name][0]
    read, types = UNCHECKED_READS[name]
    path = data.draw(st.sampled_from([()] + list(_paths(doc))))
    edited = mutated(doc, [(path, data.draw(JSON_VALUES))])
    refusals = []
    with _checked_builds(types, refusals):
        checked = _read(read, edited)
    unchecked = _read(read, edited)
    assert refusals == []  # every document a constructor would refuse, its reader refused
    assert unchecked[1] == checked[1]
    _same(unchecked[0], checked[0])


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(
        "".join(line + "\n" for name in DOCUMENTS for line in outcomes(name)),
        encoding="utf-8",
    )
