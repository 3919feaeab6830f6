"""Property catalogs and evidence-backed assessments.

A catalog names the observable properties of each relation category
(wars, treaties, trade, sanctions, ...) and caps how much each may
contribute; within a category the caps total exactly 1.  An assessment
records, for one directed nation pair over a date window, the observed
value of each property together with the evidence behind it.  Summing a
category's observed values yields the evidence mass fed to the algebra.

Two cap modes govern observed values: ``strict`` (the default) bounds
every value by its property's cap, ``free`` bounds values only by
[0, 1].  Either way a category's total mass may not exceed 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from datetime import date
from functools import cached_property
from importlib import resources
from pathlib import Path

from .algebra import CATEGORIES, TOLERANCE, CategoryMassVector, RelationCategory
from .errors import SchemaError, ValidationError

CAP_MODES = ("strict", "free")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PropertyCatalog:
    """Versioned set of property definitions covering all three categories."""

    version: str
    properties: tuple[PropertyDef, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "properties", tuple(self.properties))
        seen: set[str] = set()
        for prop in self.properties:
            if prop.id in seen:
                raise ValidationError(f"duplicate property id {prop.id!r}")
            seen.add(prop.id)
        for category in CATEGORIES:
            total = sum(p.cap for p in self.properties if p.category is category)
            if abs(total - 1.0) > TOLERANCE:
                raise ValidationError(
                    f"{category} caps must total 1.0, got {total}"
                )

    @cached_property
    def by_id(self) -> dict[str, PropertyDef]:
        return {p.id: p for p in self.properties}

    def for_category(self, category: RelationCategory) -> tuple[PropertyDef, ...]:
        return tuple(p for p in self.properties if p.category is category)


@dataclass(frozen=True)
class EvidenceLink:
    """Pointer to one event backing an observed property value."""

    date: date
    source: str
    summary: str = ""


@dataclass(frozen=True)
class AssessmentEntry:
    """Observed value for one catalog property, with its evidence."""

    property_id: str
    value: float
    evidence: tuple[EvidenceLink, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence", tuple(self.evidence))
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(
                f"observed value for {self.property_id!r} must lie in [0, 1], "
                f"got {self.value}"
            )


@dataclass(frozen=True)
class Assessment:
    """Observed property values of one directed pair over one window."""

    subject: str
    object: str
    window: DateWindow
    entries: tuple[AssessmentEntry, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

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


def aggregate_masses(
    assessment: Assessment,
    catalog: PropertyCatalog,
    mode: str = "strict",
) -> CategoryMassVector:
    """Sum observed values into one evidence mass per category.

    Properties never referenced contribute 0.  Raises ValidationError
    on an unknown property id, a value above its cap in strict mode, or
    a category total above 1.
    """
    return _scan(assessment, catalog, mode)


def validate_assessment(
    assessment: Assessment,
    catalog: PropertyCatalog,
    mode: str = "strict",
) -> AssessmentReport:
    """Collect every violation in an assessment without stopping early.

    Violations: unknown property ids, cap breaches (strict mode),
    category totals above 1, evidence dated outside the window.
    Warnings: entries with no evidence at all, duplicated property ids.
    """
    report = AssessmentReport()
    _scan(assessment, catalog, mode, report)
    return report


def _scan(assessment: Assessment, catalog: PropertyCatalog, mode: str,
          report: AssessmentReport | None = None) -> CategoryMassVector | None:
    """The one pass behind ``aggregate_masses`` and ``validate_assessment``.

    Without a report the first violation raises ValidationError.  With
    one, every violation and warning is collected in entry order, and
    the masses are returned only when there is no violation.
    """
    if mode not in CAP_MODES:
        raise ValidationError(f"cap mode must be one of {CAP_MODES}, got {mode!r}")

    def violation(message: str | None) -> None:
        if message is not None:
            if report is None:
                raise ValidationError(message)
            report.violations.append(message)

    totals = {c: 0.0 for c in CATEGORIES}
    seen: set[str] = set()
    for entry in assessment.entries:
        pid = entry.property_id
        if report is not None:
            if pid in seen:
                report.warnings.append(f"property {pid!r} appears more than once")
            seen.add(pid)
            if not entry.evidence:
                report.warnings.append(f"entry {pid!r} has no supporting evidence")
            for link in entry.evidence:
                if not assessment.window.covers(link.date):
                    report.violations.append(
                        f"evidence for {pid!r} dated {link.date} "
                        f"falls outside the window {assessment.window}"
                    )
        prop = catalog.by_id.get(pid)
        if prop is None:
            violation(f"unknown property id {pid!r}")
            continue
        violation(_cap_breach(prop, entry.value, mode))
        totals[prop.category] += entry.value
    for category, total in totals.items():
        violation(_total_breach(category, total))
    if report is None or report.ok:
        return CategoryMassVector(*totals.values())
    return None


def _cap_breach(prop: PropertyDef, value: float, mode: str) -> str | None:
    """Why ``value`` may not be observed for ``prop``, if it breaks the cap."""
    over = mode == "strict" and value > prop.cap + TOLERANCE
    return f"value {value} for {prop.id!r} exceeds its cap {prop.cap} (strict mode)" if over else None


def _total_breach(category: RelationCategory, total: float) -> str | None:
    """Why ``total`` may not be a category's mass, if it exceeds 1."""
    return f"{category} mass {total} exceeds 1" if total > 1.0 + TOLERANCE else None


def replace_entry_value(
    assessment: Assessment, property_id: str, value: float
) -> Assessment:
    """Copy an assessment with one entry's observed value replaced.

    The property must appear exactly once.
    """
    index = _entry_index(assessment, property_id)
    entries = list(assessment.entries)
    entries[index] = replace(entries[index], value=value)
    return replace(assessment, entries=tuple(entries))


def _entry_index(assessment: Assessment, property_id: str) -> int:
    """Position of the one entry observing ``property_id``."""
    positions = [
        i for i, e in enumerate(assessment.entries) if e.property_id == property_id
    ]
    if len(positions) != 1:
        raise ValidationError(
            f"expected exactly one entry for {property_id!r}, "
            f"found {len(positions)}"
        )
    return positions[0]


# --- document parsing and serialization -------------------------------------

_MISSING = object()


def _require(doc: dict, key: str, kind: type, where: str, default=_MISSING):
    """Field ``key`` of the object ``doc``, checked to be a ``kind``; a
    float takes any JSON number, but no number takes a bool.  A field with
    a ``default`` may be absent, or null if the default is None."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
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


def _parse_category(raw: str, where: str) -> RelationCategory:
    try:
        return RelationCategory(raw)
    except ValueError:
        valid = ", ".join(c.value for c in CATEGORIES)
        raise SchemaError(f"{where}: category must be one of {valid}, got {raw!r}") from None


def _parse_date(raw: str, where: str) -> date:
    # YYYY-MM-DD only, as on Python 3.10: from 3.11 fromisoformat also
    # takes 20010101 and week dates such as 2001-W01-1
    try:
        if len(raw) == 10 and raw[4] == raw[7] == "-":
            return date.fromisoformat(raw)
    except (TypeError, ValueError):
        pass
    raise SchemaError(f"{where}: expected an ISO-8601 date, got {raw!r}")


def catalog_from_dict(doc: dict) -> PropertyCatalog:
    """Build a catalog from its document form, checking all invariants."""
    version = _require(doc, "version", str, "catalog")
    raw_props = _require(doc, "properties", list, "catalog")
    properties = []
    for i, raw in enumerate(raw_props):
        where = f"catalog.properties[{i}]"
        properties.append(
            PropertyDef(
                id=_require(raw, "id", str, where),
                category=_parse_category(_require(raw, "category", str, where), where),
                cap=_require(raw, "cap", float, where),
                description=_require(raw, "description", str, where, ""),
            )
        )
    return PropertyCatalog(version=version, properties=tuple(properties))


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


def window_from_dict(doc: dict, where: str = "window") -> DateWindow:
    return DateWindow(
        start=_parse_date(_require(doc, "start", str, where), f"{where}.start"),
        end=_parse_date(_require(doc, "end", str, where), f"{where}.end"),
    )


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
    """Build an assessment from its document form."""
    window = window_from_dict(_require(doc, "window", dict, "assessment"), "assessment.window")
    entries = []
    for i, raw in enumerate(_require(doc, "entries", list, "assessment")):
        where = f"assessment.entries[{i}]"
        evidence = []
        for j, raw_link in enumerate(_require(raw, "evidence", list, where, [])):
            link_where = f"{where}.evidence[{j}]"
            evidence.append(
                EvidenceLink(
                    date=_parse_date(_require(raw_link, "date", str, link_where), link_where),
                    source=_require(raw_link, "source", str, link_where),
                    summary=_require(raw_link, "summary", str, link_where, ""),
                )
            )
        entries.append(
            AssessmentEntry(
                property_id=_require(raw, "property", str, where),
                value=_require(raw, "value", float, where),
                evidence=tuple(evidence),
            )
        )
    return Assessment(
        subject=_require(doc, "subject", str, "assessment"),
        object=_require(doc, "object", str, "assessment"),
        window=window,
        entries=tuple(entries),
        notes=_require(doc, "notes", str, "assessment", ""),
    )


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
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except ValueError as err:  # an integer with more digits than Python converts
        raise SchemaError(f"{path}: invalid JSON: {err}") from None


def _save_json(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    text = resources.files("trustrel.data").joinpath("default_catalog.json").read_text("utf-8")
    return catalog_from_dict(json.loads(text))
