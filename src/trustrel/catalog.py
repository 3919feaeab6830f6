"""Property catalogs and evidence-backed assessments.

A catalog names the observable properties of each relation category
(wars, treaties, trade, sanctions, ...) and caps how much each may
contribute; within a category the caps total exactly 1.  An assessment
records, for one directed nation pair over a date window, the observed
value of each property together with the evidence behind it.  Summing a
category's observed values yields the evidence mass fed to the algebra.

Two cap modes govern observed values: ``strict`` (the default) bounds
every value, and the total of the entries that name one property, by
that property's cap; ``free`` bounds values only by [0, 1].  Either way
a category's total mass may not exceed 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from pathlib import Path

from .algebra import CATEGORIES, TOLERANCE, CategoryMassVector, RelationCategory, _frozen
from .errors import SchemaError, ValidationError

CAP_MODES = ("strict", "free")


@_frozen
class DateWindow:
    """Closed date range an assessment's evidence was gathered over."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValidationError(
                f"window start {self.start} is after its end {self.end}"
            )

    def contains(self, other: "DateWindow") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "DateWindow") -> bool:
        return self.start <= other.end and other.start <= self.end

    def covers(self, day: date) -> bool:
        return self.start <= day <= self.end

    def __str__(self) -> str:
        return f"{self.start.isoformat()}..{self.end.isoformat()}"


@_frozen
class PropertyDef:
    """One named, capped contribution within a category's catalog."""

    id: str
    category: RelationCategory
    cap: float
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("property id must be non-empty")
        if not 0.0 <= self.cap <= 1.0:
            raise ValidationError(
                f"cap of {self.id!r} must lie in [0, 1], got {self.cap}"
            )


@_frozen
class PropertyCatalog:
    """Versioned set of property definitions covering all three categories."""

    version: str
    properties: tuple[PropertyDef, ...]

    def __post_init__(self) -> None:
        self.__dict__["properties"] = tuple(self.properties)
        seen: set[str] = set()
        for prop in self.properties:
            if prop.id in seen:
                raise ValidationError(f"duplicate property id {prop.id!r}")
            seen.add(prop.id)
        for category in CATEGORIES:
            # left to right from the int 0, as compute_bounds: sum() compensates from 3.12 on
            total = 0
            for prop in self.properties:
                if prop.category is category:
                    total += prop.cap
            if abs(total - 1.0) > TOLERANCE:
                raise ValidationError(
                    f"{category} caps must total 1.0, got {total}"
                )

    @cached_property
    def by_id(self) -> dict[str, PropertyDef]:
        return {p.id: p for p in self.properties}

    def for_category(self, category: RelationCategory) -> tuple[PropertyDef, ...]:
        return tuple(p for p in self.properties if p.category is category)


@_frozen
class EvidenceLink:
    """Pointer to one event backing an observed property value."""

    date: date
    source: str
    summary: str = ""


@_frozen
class AssessmentEntry:
    """Observed value for one catalog property, with its evidence."""

    property_id: str
    value: float
    evidence: tuple[EvidenceLink, ...] = ()

    def __post_init__(self) -> None:
        self.__dict__["evidence"] = tuple(self.evidence)
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(
                f"observed value for {self.property_id!r} must lie in [0, 1], got {self.value}"
            )


@_frozen
class Assessment:
    """Observed property values of one directed pair over one window."""

    subject: str
    object: str
    window: DateWindow
    entries: tuple[AssessmentEntry, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        self.__dict__["entries"] = tuple(self.entries)

    def __getstate__(self) -> dict:
        # masses a scan kept stay with this object: a copy or pickle scans again
        state = dict(self.__dict__)
        state.pop(_KEPT_MASSES, None)
        return state

    @property
    def ref(self) -> str:
        """Short provenance string identifying this assessment."""
        return f"{self.subject}->{self.object}@{self.window}"


@dataclass
class AssessmentReport:
    """Everything wrong (and questionable) about an assessment, at once."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


#: Instance-dict key of the masses a clean ``validate_assessment`` scan
#: keeps with an assessment, as one ``(catalog, mode, masses)`` tuple.
#: Not a dataclass field, so ``==``, ``hash``, ``repr``, ``replace`` and
#: the document never see it.
_KEPT_MASSES = "_kept_masses"


def aggregate_masses(
    assessment: Assessment,
    catalog: PropertyCatalog,
    mode: str = "strict",
) -> CategoryMassVector:
    """Sum observed values into one evidence mass per category.

    Properties never referenced contribute 0.  Raises ValidationError
    on an unknown property id, a value or a property's total above its
    cap in strict mode, or a category total above 1.  When
    ``validate_assessment`` found no violation in this assessment with
    this same catalog object and mode, the masses it kept are returned
    unscanned.  This function keeps none, so calling it twice without
    validating scans twice.
    """
    masses = _kept(assessment, catalog, mode)
    return _scan(assessment, catalog, mode) if masses is None else masses


def validate_assessment(
    assessment: Assessment,
    catalog: PropertyCatalog,
    mode: str = "strict",
) -> AssessmentReport:
    """Collect every violation in an assessment without stopping early.

    Violations: unknown property ids, cap breaches by a value or by a
    property's total (strict mode), category totals above 1, evidence
    dated outside the window.
    Warnings: entries with no evidence at all, duplicated property ids.
    """
    report = AssessmentReport()
    _scan(assessment, catalog, mode, report)
    return report


def _valid_masses(
    assessment: Assessment, catalog: PropertyCatalog, mode: str
) -> CategoryMassVector:
    """The masses of an assessment that ``validate_assessment`` finds no
    violation in; otherwise ValidationError listing every violation.
    Masses kept by an earlier clean scan are returned unscanned."""
    masses = _kept(assessment, catalog, mode)
    if masses is None:
        report = AssessmentReport()
        masses = _scan(assessment, catalog, mode, report)
        if not report.ok:
            raise ValidationError("assessment is invalid: " + "; ".join(report.violations))
    return masses


def _kept(assessment: Assessment, catalog: PropertyCatalog, mode: str) -> CategoryMassVector | None:
    """Masses a clean ``validate_assessment`` scan kept for this catalog object and mode."""
    kept = assessment.__dict__.get(_KEPT_MASSES)
    return kept[2] if kept is not None and kept[0] is catalog and kept[1] == mode else None


def _scan(assessment: Assessment, catalog: PropertyCatalog, mode: str,
          report: AssessmentReport | None = None) -> CategoryMassVector | None:
    """The one pass behind ``aggregate_masses`` and ``validate_assessment``.

    Without a report the first violation raises ValidationError.  With
    one, every violation and warning is collected in entry order, and
    the masses are returned only when there is no violation; only then
    are they kept with the assessment for ``aggregate_masses`` and
    ``_valid_masses``, keyed on the catalog object and the mode: the
    assessment, its entries and the catalog are frozen, so the same scan
    would return them again.  They are published as one tuple, so readers
    need no lock.  A scan without a report keeps nothing.
    """
    if mode not in CAP_MODES:
        raise ValidationError(f"cap mode must be one of {CAP_MODES}, got {mode!r}")

    def violation(message: str) -> None:
        if report is None:
            raise ValidationError(message)
        report.violations.append(message)

    by_id = catalog.by_id
    window = assessment.window
    start, end = window.start, window.end
    # one slot per category, in CATEGORIES order: indexing a list skips
    # hashing a RelationCategory, which Enum does in Python, per entry
    totals = [0.0, 0.0, 0.0]
    running: dict[str, float] = {}  # each property's total over the entries so far
    for entry in assessment.entries:
        pid, value = entry.property_id, entry.value
        if report is not None:
            if pid in running:
                report.warnings.append(f"property {pid!r} appears more than once")
            if not entry.evidence:
                report.warnings.append(f"entry {pid!r} has no supporting evidence")
            for link in entry.evidence:
                if not start <= link.date <= end:
                    report.violations.append(
                        f"evidence for {pid!r} dated {link.date} "
                        f"falls outside the window {window}"
                    )
        before = running.get(pid, 0.0)
        running[pid] = before + value
        prop = by_id.get(pid)
        if prop is None:
            violation(f"unknown property id {pid!r}")
            continue
        message = _cap_breach(prop, value, mode, before)
        if message is not None:
            violation(message)
        totals[CATEGORIES.index(prop.category)] += value
    for category, total in zip(CATEGORIES, totals):
        message = _total_breach(category, total)
        if message is not None:
            violation(message)
    if report is not None and not report.ok:  # its totals may exceed 1
        return None
    masses = CategoryMassVector(*totals)
    if report is not None:
        assessment.__dict__[_KEPT_MASSES] = (catalog, mode, masses)
    return masses


def _cap_breach(prop: PropertyDef, value: float, mode: str, before: float = 0.0) -> str | None:
    """Why ``value`` may not be observed for ``prop`` in strict mode: it
    breaks the cap by itself, or brings the total of the property's entries
    above it from ``before``, the total of the earlier ones.  A total that
    was above the cap already is not reported again."""
    cap = prop.cap + TOLERANCE
    if mode == "strict" and value > cap:
        return f"value {value} for {prop.id!r} exceeds its cap {prop.cap} (strict mode)"
    if mode == "strict" and before <= cap < before + value:
        return f"entries for {prop.id!r} total {before + value}, above its cap {prop.cap} (strict mode)"
    return None


def _total_breach(category: RelationCategory, total: float) -> str | None:
    """Why ``total`` may not be a category's mass, if it exceeds 1."""
    return f"{category} mass {total} exceeds 1" if total > 1.0 + TOLERANCE else None


# --- document parsing and serialization -------------------------------------

_MISSING = object()


def _field(doc: dict, key: str, kind: type, where: str, default=_MISSING):
    """Field ``key`` of the object ``doc``, checked to be a ``kind``; a
    float takes any JSON number, but no number takes a bool.  A field with
    a ``default`` may be absent, or null if the default is None.  Errors
    are located at ``where``, or relative to ``doc`` when it is "".

    Every reader of a document reads each field through this, once and in
    a fixed order, so the first fault read is the one reported; a document,
    a field and a list item (in ``_items``) are each checked once to be an
    object.  A location is built only for the error: each item of a list is
    read relative to itself, and ``_items`` prefixes its location if it fails.
    """
    value = doc.get(key, default)
    if type(value) is kind:  # the common case, decided by the checks below too
        return value
    if value is _MISSING:
        raise SchemaError(f"{where}: missing field {key!r}")
    if value is default:
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{where}.{key}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise SchemaError(f"{where}.{key}: {value} is too large for a number") from None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(
            f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _items(raw: list, read, where: str) -> tuple:
    """Each item of the list ``raw``, checked to be an object, read by ``read``;
    a SchemaError located relative to item i is raised again located at ``where[i]``."""
    items = []
    try:
        for item in raw:
            if not isinstance(item, dict):
                raise SchemaError(": expected an object")
            items.append(read(item))
    except SchemaError as err:  # item i failed: its location is built only now
        raise SchemaError(f"{where}[{len(items)}]{err}") from None
    return tuple(items)


#: Each category by its document name, read without an Enum call.
_CATEGORY_BY_NAME = {c.value: c for c in CATEGORIES}


def _parse_category(raw: str, where: str) -> RelationCategory:
    category = _CATEGORY_BY_NAME.get(raw)
    if category is None:
        valid = ", ".join(c.value for c in CATEGORIES)
        raise SchemaError(f"{where}: category must be one of {valid}, got {raw!r}")
    return category


def _parse_date(raw: str, where: str, key: str = "") -> date:
    """The date ``raw``; an error is located at ``where`` followed by ``key``."""
    # YYYY-MM-DD only, as on Python 3.10: from 3.11 fromisoformat also
    # takes 20010101 and week dates such as 2001-W01-1
    try:
        if len(raw) == 10 and raw[4] == raw[7] == "-":
            return date.fromisoformat(raw)
    except (TypeError, ValueError):
        pass
    raise SchemaError(f"{where}{key}: expected an ISO-8601 date, got {raw!r}")


def catalog_from_dict(doc: dict) -> PropertyCatalog:
    """Build a catalog from its document form, checking all invariants."""
    if not isinstance(doc, dict):
        raise SchemaError("catalog: expected an object")
    version = _field(doc, "version", str, "catalog")
    properties = _items(_field(doc, "properties", list, "catalog"), _property_from_dict,
                        "catalog.properties")
    return PropertyCatalog(version=version, properties=properties)


def _property_from_dict(doc: dict) -> PropertyDef:
    """One property of a catalog document; errors are relative to it."""
    return PropertyDef(_field(doc, "id", str, ""),
                       _parse_category(_field(doc, "category", str, ""), ""),
                       _field(doc, "cap", float, ""), _field(doc, "description", str, "", ""))


def catalog_to_dict(catalog: PropertyCatalog) -> dict:
    return {
        "version": catalog.version,
        "properties": [
            {
                "id": p.id,
                "category": p.category.value,
                "cap": p.cap,
                "description": p.description,
            }
            for p in catalog.properties
        ],
    }


def window_from_dict(doc: dict, where: str) -> DateWindow:
    """A window object; errors are located at ``where``."""
    return DateWindow(_parse_date(_field(doc, "start", str, where), where, ".start"),
                      _parse_date(_field(doc, "end", str, where), where, ".end"))


def window_to_dict(window: DateWindow) -> dict:
    return {"start": window.start.isoformat(), "end": window.end.isoformat()}


def window_from_text(text: str) -> DateWindow:
    """Parse a START:END pair of ISO dates into a window."""
    start, sep, end = text.partition(":")
    if not sep:
        raise SchemaError(f"expected a date range START:END, got {text!r}")
    return DateWindow(
        start=_parse_date(start, "window.start"),
        end=_parse_date(end, "window.end"),
    )


def assessment_from_dict(doc: dict) -> Assessment:
    """Build an assessment from its document form, reading the window,
    entries, subject, object and notes in that order, and in an entry its
    evidence, then property and value."""
    if not isinstance(doc, dict):
        raise SchemaError("assessment: expected an object")
    window = window_from_dict(_field(doc, "window", dict, "assessment"), "assessment.window")
    entries = _items(_field(doc, "entries", list, "assessment"), _entry_from_dict,
                     "assessment.entries")
    return Assessment(_field(doc, "subject", str, "assessment"),
                      _field(doc, "object", str, "assessment"), window, entries,
                      _field(doc, "notes", str, "assessment", ""))


def _entry_from_dict(doc: dict) -> AssessmentEntry:
    """One entry of an assessment document; errors are relative to it."""
    evidence = _items(_field(doc, "evidence", list, "", []), _link_from_dict, ".evidence")
    return AssessmentEntry(_field(doc, "property", str, ""), _field(doc, "value", float, ""),
                           evidence)


def _link_from_dict(doc: dict) -> EvidenceLink:
    """One evidence link of an entry; errors are relative to it."""
    return EvidenceLink(_parse_date(_field(doc, "date", str, ""), ""),
                        _field(doc, "source", str, ""), _field(doc, "summary", str, "", ""))


def assessment_to_dict(assessment: Assessment) -> dict:
    return {
        "subject": assessment.subject,
        "object": assessment.object,
        "window": window_to_dict(assessment.window),
        "entries": [
            {
                "property": e.property_id,
                "value": e.value,
                "evidence": [
                    {
                        "date": link.date.isoformat(),
                        "source": link.source,
                        "summary": link.summary,
                    }
                    for link in e.evidence
                ],
            }
            for e in assessment.entries
        ],
        "notes": assessment.notes,
    }


def _load_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    except RecursionError:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply") from None
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except ValueError as err:  # an integer with more digits than Python converts
        raise SchemaError(f"{path}: invalid JSON: {err}") from None


def _dumps(doc: dict) -> str:
    """The JSON text trustrel writes: two-space indent, sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _save_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(_dumps(doc) + "\n", encoding="utf-8")


def load_catalog(path: str | Path) -> PropertyCatalog:
    """Read and validate a catalog JSON document."""
    return catalog_from_dict(_load_json(path))


def save_catalog(catalog: PropertyCatalog, path: str | Path) -> None:
    _save_json(catalog_to_dict(catalog), path)


def load_assessment(path: str | Path) -> Assessment:
    """Read and validate an assessment JSON document."""
    return assessment_from_dict(_load_json(path))


def save_assessment(assessment: Assessment, path: str | Path) -> None:
    _save_json(assessment_to_dict(assessment), path)


def default_catalog() -> PropertyCatalog:
    """The property catalog shipped with the package."""
    return load_catalog(Path(__file__).with_name("data") / "default_catalog.json")
