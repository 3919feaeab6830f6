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
    _check_mode(mode)
    totals = {c: 0.0 for c in CATEGORIES}
    for entry in assessment.entries:
        prop = catalog.by_id.get(entry.property_id)
        if prop is None:
            raise ValidationError(f"unknown property id {entry.property_id!r}")
        if mode == "strict" and entry.value > prop.cap + TOLERANCE:
            raise ValidationError(
                f"value {entry.value} for {entry.property_id!r} exceeds its "
                f"cap {prop.cap} (strict mode)"
            )
        totals[prop.category] += entry.value
    for category in CATEGORIES:
        if totals[category] > 1.0 + TOLERANCE:
            raise ValidationError(
                f"{category} mass {totals[category]} exceeds 1"
            )
    return CategoryMassVector(
        hostile=totals[RelationCategory.HOSTILE],
        neutral=totals[RelationCategory.NEUTRAL],
        friendly=totals[RelationCategory.FRIENDLY],
    )


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
    _check_mode(mode)
    report = AssessmentReport()
    totals = {c: 0.0 for c in CATEGORIES}
    seen: set[str] = set()
    for entry in assessment.entries:
        if entry.property_id in seen:
            report.warnings.append(
                f"property {entry.property_id!r} appears more than once"
            )
        seen.add(entry.property_id)
        if not entry.evidence:
            report.warnings.append(
                f"entry {entry.property_id!r} has no supporting evidence"
            )
        for link in entry.evidence:
            if not assessment.window.covers(link.date):
                report.violations.append(
                    f"evidence for {entry.property_id!r} dated {link.date} "
                    f"falls outside the window {assessment.window}"
                )
        prop = catalog.by_id.get(entry.property_id)
        if prop is None:
            report.violations.append(
                f"unknown property id {entry.property_id!r}"
            )
            continue
        if mode == "strict" and entry.value > prop.cap + TOLERANCE:
            report.violations.append(
                f"value {entry.value} for {entry.property_id!r} exceeds its "
                f"cap {prop.cap} (strict mode)"
            )
        totals[prop.category] += entry.value
    for category in CATEGORIES:
        if totals[category] > 1.0 + TOLERANCE:
            report.violations.append(
                f"{category} mass {totals[category]} exceeds 1"
            )
    return report


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


def _check_mode(mode: str) -> None:
    if mode not in CAP_MODES:
        raise ValidationError(f"cap mode must be one of {CAP_MODES}, got {mode!r}")


# --- document parsing and serialization -------------------------------------

def _require(doc: dict, key: str, kind: type, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{where}.{key}: expected a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
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
    try:
        return date.fromisoformat(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: expected an ISO-8601 date, got {raw!r}") from None


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
                description=str(raw.get("description", "")),
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
        for j, raw_link in enumerate(raw.get("evidence", []) if isinstance(raw, dict) else []):
            link_where = f"{where}.evidence[{j}]"
            evidence.append(
                EvidenceLink(
                    date=_parse_date(_require(raw_link, "date", str, link_where), link_where),
                    source=_require(raw_link, "source", str, link_where),
                    summary=str(raw_link.get("summary", "")),
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
        notes=str(doc.get("notes", "")),
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


def load_catalog(path: str | Path) -> PropertyCatalog:
    """Read and validate a catalog JSON document."""
    return catalog_from_dict(_load_json(path))


def save_catalog(catalog: PropertyCatalog, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(catalog_to_dict(catalog), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_assessment(path: str | Path) -> Assessment:
    """Read and validate an assessment JSON document."""
    return assessment_from_dict(_load_json(path))


def save_assessment(assessment: Assessment, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(assessment_to_dict(assessment), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def default_catalog() -> PropertyCatalog:
    """The property catalog shipped with the package."""
    text = resources.files("trustrel.data").joinpath("default_catalog.json").read_text("utf-8")
    return catalog_from_dict(json.loads(text))
