"""Evaluation reports and what-if sensitivity sweeps.

A report echoes every input next to every computed quantity so an
evaluation can be audited line by line; rendering follows the pipeline
order weights -> bounds -> masses -> trust mass -> strength -> label.
Sweeps re-run the pipeline while one weight or one observed property
value moves across a grid, flagging the points where the classification
flips away from the base configuration.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections.abc import Iterator
from itertools import repeat
from pathlib import Path

from .algebra import (
    CATEGORIES,
    DEFAULT_SIGNS,
    TOLERANCE,
    Band,
    BandTable,
    CategoryMassVector,
    RelationCategory,
    ScalarBounds,
    ScalarConfig,
    StrengthInterpretation,
    WeightVector,
    _check_strength,
    _classify,
    _Fields,
    _frozen,
    compute_bounds,
    evaluate,
    interpret_strength,
)
from .catalog import (
    Assessment,
    PropertyCatalog,
    _cap_breach,
    _dumps,
    _field,
    _items,
    _load_json,
    _parse_category,
    _total_breach,
    aggregate_masses,
)
from .errors import SchemaError, ValidationError

#: Decimal places used by the text and CSV renderings.
TEXT_PRECISION = 6


@_frozen
class EvaluationReport:
    """One evaluation with its inputs echoed for audit."""

    catalog_version: str
    assessment_ref: str
    weights: WeightVector
    signs: ScalarConfig
    bounds: ScalarBounds
    masses: CategoryMassVector
    trust_mass: float
    strength: float
    label: str
    interpretation: StrengthInterpretation
    band_label: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready form at full float precision."""
        return {
            "provenance": {
                "catalog_version": self.catalog_version,
                "assessment": self.assessment_ref,
            },
            "weights": self.weights.as_dict(),
            "signs": self.signs.as_dict(),
            "bounds": self.bounds.as_dict(),
            "masses": self.masses.as_dict(),
            "trust_mass": self.trust_mass,
            "strength": self.strength,
            "label": self.label,
            "band_label": self.band_label,
            "interpretation": self.interpretation.as_dict(),
        }

    def to_json(self) -> str:
        return _dumps(self.to_dict())

    def to_text(self) -> str:
        """Fixed-precision rendering in pipeline order."""
        p = f".{TEXT_PRECISION}f"
        flags = self.interpretation
        lines = [
            f"weights     hostile={self.weights.hostile:{p}}  "
            f"neutral={self.weights.neutral:{p}}  friendly={self.weights.friendly:{p}}",
            f"signs       hostile={self.signs.hostile:+d}  "
            f"neutral={self.signs.neutral:+d}  friendly={self.signs.friendly:+d}",
            f"bounds      lower={self.bounds.lower:{p}}  upper={self.bounds.upper:{p}}  "
            f"middle=[{self.bounds.middle_band_low:{p}}, {self.bounds.middle_band_high:{p}}]",
            f"masses      hostile={self.masses.hostile:{p}}  "
            f"neutral={self.masses.neutral:{p}}  friendly={self.masses.friendly:{p}}",
            f"trust_mass  {self.trust_mass:{p}}",
            f"strength    {self.strength:{p}}",
            f"label       {self.label}",
        ]
        if self.band_label is not None:
            lines.append(f"band        {self.band_label}")
        lines.append(
            "flags       "
            f"contradiction_prone={_flag(flags.contradiction_prone)}  "
            f"fair_consistent={_flag(flags.fair_consistent)}  "
            f"neutral_biased={_flag(flags.neutral_biased)}  "
            f"no_hostile={_flag(flags.no_hostile)}"
        )
        lines.append(
            f"provenance  catalog={self.catalog_version}  assessment={self.assessment_ref}"
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        p = f".{TEXT_PRECISION}f"
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            [
                "weight_hostile", "weight_neutral", "weight_friendly",
                "sign_hostile", "sign_neutral", "sign_friendly",
                "lower", "upper", "middle_band_low", "middle_band_high",
                "mass_hostile", "mass_neutral", "mass_friendly",
                "trust_mass", "strength", "label", "band_label",
            ]
        )
        writer.writerow(
            [
                f"{self.weights.hostile:{p}}", f"{self.weights.neutral:{p}}",
                f"{self.weights.friendly:{p}}",
                self.signs.hostile, self.signs.neutral, self.signs.friendly,
                f"{self.bounds.lower:{p}}", f"{self.bounds.upper:{p}}",
                f"{self.bounds.middle_band_low:{p}}", f"{self.bounds.middle_band_high:{p}}",
                f"{self.masses.hostile:{p}}", f"{self.masses.neutral:{p}}",
                f"{self.masses.friendly:{p}}",
                f"{self.trust_mass:{p}}", f"{self.strength:{p}}",
                self.label, self.band_label or "",
            ]
        )
        return buffer.getvalue()


def _flag(value: bool) -> str:
    return "true" if value else "false"


def build_report(
    catalog: PropertyCatalog,
    assessment: Assessment,
    weights: WeightVector,
    signs: ScalarConfig = DEFAULT_SIGNS,
    bands: BandTable | None = None,
    mode: str = "strict",
    delta: float = 0.1,
) -> EvaluationReport:
    """Aggregate an assessment and evaluate it into a full report."""
    masses = aggregate_masses(assessment, catalog, mode=mode)
    evaluation = evaluate(masses, weights, signs, bands=bands)
    interpretation = interpret_strength(evaluation, masses.neutral, delta=delta)
    return EvaluationReport(
        catalog_version=catalog.version,
        assessment_ref=assessment.ref,
        weights=weights,
        signs=signs,
        bounds=evaluation.bounds,
        masses=masses,
        trust_mass=evaluation.trust_mass,
        strength=evaluation.strength,
        label=evaluation.label.value,
        interpretation=interpretation,
        band_label=evaluation.band_label,
    )


# --- sensitivity sweeps ------------------------------------------------------

TARGET_KINDS = ("weight", "property")

#: Most points one sweep grid may have: a step of 1e-5 across all of [0, 1].
MAX_SWEEP_POINTS = 100_001


@_frozen
class SensitivitySpec:
    """What to sweep and over which grid.

    ``target_kind`` is "weight" (target names a category) or "property"
    (target names a catalog property observed by the assessment).  The
    grid runs from ``start`` to ``stop`` inclusive in increments of
    ``step``; descending sweeps are allowed.  When a weight is swept
    the other two weights rescale proportionally so the total stays 1.
    """

    target_kind: str
    target: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if self.target_kind not in TARGET_KINDS:
            raise ValidationError(
                f"target kind must be one of {TARGET_KINDS}, got {self.target_kind!r}"
            )
        if self.target_kind == "weight":
            self.target_category()
        if not 0.0 < self.step < math.inf:
            raise ValidationError(f"sweep step must be positive and finite, got {self.step}")
        for value in (self.start, self.stop):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"sweep endpoints must lie in [0, 1], got {value}"
                )
        # floor(x) + 1 <= MAX_SWEEP_POINTS exactly when x < MAX_SWEEP_POINTS,
        # which also rejects an infinite x before floor() would overflow
        if not self._last_index() < MAX_SWEEP_POINTS:
            raise ValidationError(
                f"sweep step {self.step} makes more than {MAX_SWEEP_POINTS} grid points"
            )

    def target_category(self) -> RelationCategory:
        try:
            return RelationCategory(self.target)
        except ValueError:
            valid = ", ".join(c.value for c in CATEGORIES)
            raise ValidationError(
                f"weight target must be one of {valid}, got {self.target!r}"
            ) from None

    def values(self) -> list[float]:
        """The swept grid, from start to stop inclusive."""
        count = int(math.floor(self._last_index()))
        direction = 1.0 if self.stop >= self.start else -1.0
        # clamp away float drift so grid points stay inside [0, 1]
        return [
            min(max(self.start + direction * i * self.step, 0.0), 1.0)
            for i in range(count + 1)
        ]

    def _last_index(self) -> float:
        """Index of the grid's last point, before flooring."""
        return abs(self.stop - self.start) / self.step + TOLERANCE


@_frozen
class SweepRow(_Fields):
    """One grid point: swept input value and the resulting evaluation."""

    value: float
    trust_mass: float
    strength: float
    label: str
    flipped: bool


@_frozen
class SweepResult:
    """All rows of a sweep plus the first classification flip, if any."""

    target_kind: str
    target: str
    base_label: str
    rows: tuple[SweepRow, ...]
    first_flip: float | None

    def to_dict(self) -> dict:
        return {
            "target_kind": self.target_kind,
            "target": self.target,
            "base_label": self.base_label,
            "first_flip": self.first_flip,
            "rows": [row.as_dict() for row in self.rows],
        }

    def to_json(self) -> str:
        return _dumps(self.to_dict())

    def to_text(self) -> str:
        p = f".{TEXT_PRECISION}f"
        p10, p12 = f">10{p}", f">12{p}"
        lines = [f"{'value':>10}  {'trust_mass':>12}  {'strength':>10}  label"]
        for row in self.rows:
            marker = "  *flip*" if row.flipped else ""
            lines.append(
                f"{row.value:{p10}}  {row.trust_mass:{p12}}  "
                f"{row.strength:{p10}}  {row.label}{marker}"
            )
        lines.append(f"base label: {self.base_label}")
        if self.first_flip is None:
            lines.append("no flip in sweep")
        else:
            lines.append(f"first flip at {self.target}={self.first_flip:{p}}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        p = f".{TEXT_PRECISION}f"
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["value", "trust_mass", "strength", "label", "flipped"])
        for row in self.rows:
            writer.writerow(
                [
                    f"{row.value:{p}}", f"{row.trust_mass:{p}}",
                    f"{row.strength:{p}}", row.label,
                    _flag(row.flipped),
                ]
            )
        return buffer.getvalue()


def reweight(
    weights: WeightVector, category: RelationCategory, value: float
) -> WeightVector:
    """Set one category's weight; the other two rescale proportionally.

    Fails when the other two weights are both zero and cannot absorb
    the remainder.
    """
    index = CATEGORIES.index(category)
    others = [weights.hostile, weights.neutral, weights.friendly]
    del others[index]
    other_sum = others[0] + others[1]
    remainder = 1.0 - value
    if other_sum <= 0.0:
        if abs(remainder) > TOLERANCE:
            raise ValidationError(
                f"cannot renormalize: weights other than {category} are both zero"
            )
        scaled = [0.0, 0.0]
    else:
        scale = remainder / other_sum
        scaled = [others[0] * scale, others[1] * scale]
    scaled.insert(index, value)
    return WeightVector(*scaled)


#: The last weight-sweep frame of each swept category, in ``CATEGORIES``
#: order, as ``(key, frame)``: one list item is read or replaced at once,
#: and a published pair is never changed, so threads share it unlocked.
_WEIGHT_FRAMES: list = [None] * len(CATEGORIES)


def _weight_frame(
    weights: WeightVector, category: RelationCategory, signs: ScalarConfig,
    spec: SensitivitySpec,
) -> tuple[array, str | None]:
    """What a weight sweep computes at each grid point without the
    assessment, ``reweight`` then ``compute_bounds``, up to the first
    point that fails.

    A frame is ``(grid, error)``: ``grid`` holds eight floats per grid
    point (value, the reweighted hostile, neutral and friendly weights,
    then lower, upper, middle band low and high), and ``error`` is the
    message of the first failing point, or None.
    """
    index = CATEGORIES.index(category)
    others = [weights.hostile, weights.neutral, weights.friendly]
    del others[index]
    # exact bits, so 0.0 and -0.0 (which a row can print) are two keys
    key = (
        array("d", (*others, spec.start, spec.stop, spec.step)).tobytes(),
        signs.hostile, signs.neutral, signs.friendly,
    )
    slot = _WEIGHT_FRAMES[index]
    if slot is not None and slot[0] == key:
        return slot[1]
    grid, error = array("d"), None
    for value in spec.values():
        try:
            w = reweight(weights, category, value)
            b = compute_bounds(w, signs)
        except ValidationError as err:
            error = str(err)
            break
        grid.extend((value, w.hostile, w.neutral, w.friendly,
                     b.lower, b.upper, b.middle_band_low, b.middle_band_high))
    frame = (grid, error)
    _WEIGHT_FRAMES[index] = (key, frame)
    return frame


def run_whatif(
    catalog: PropertyCatalog,
    assessment: Assessment,
    weights: WeightVector,
    spec: SensitivitySpec,
    signs: ScalarConfig = DEFAULT_SIGNS,
    mode: str = "strict",
) -> SweepResult:
    """Sweep one input across its grid and evaluate every point.

    The base label comes from the unswept configuration; each row is
    flagged when its label differs, and the first such grid value is
    reported as the flip point.  One loop evaluates the points of either
    source, each 11 floats (value, masses, weights, the scale's four
    edges): the weight frame below, or the swept property's value added
    to its category's prefix and tail.  Each point is computed on plain
    floats by the operations that evaluating it alone performs, so each
    row is bit for bit that evaluation's, and is checked by the same
    functions that the value types call.  The sweep stops at its first
    failing point with the error that evaluating it alone raises: the
    loop checks each point it gets, and a source raises in place of a
    point it cannot give (a cap or category-total breach, or the frame's).

    A weight sweep's reweighted weights and scales do not depend on the
    assessment, so the process keeps one frame of them per swept
    category: the last one built, keyed on the exact unswept weights,
    the signs and the grid.  That holds at most three frames of
    ``MAX_SWEEP_POINTS`` points, and alternating weight profiles or
    grids within one category rebuild the frame on every sweep; there is
    no setting.
    """
    base_masses = aggregate_masses(assessment, catalog, mode=mode)
    base = evaluate(base_masses, weights, signs)
    base_label = base.label
    masses = [base_masses.hostile, base_masses.neutral, base_masses.friendly]
    if spec.target_kind == "weight":
        points = _weight_points(weights, spec, signs, masses)
    else:
        points = _property_points(catalog, assessment, spec, mode, masses, weights, base.bounds)
    # masses are floats, so float signs give the int signs' bits, multiplied faster
    sh, sn, sf = float(signs.hostile), float(signs.neutral), float(signs.friendly)
    rows = []
    first_flip = None
    for value, mh, mn, mf, wh, wn, wf, lower, upper, band_low, band_high in points:
        # compute_trust_mass, compute_strength, classify, TrustEvaluation
        trust_mass = mh * sh * wh + mn * sn * wn + mf * sf * wf
        strength = mh * wh + mn * wn + mf * wf
        # a side of the scale with no weight is the int 0 (as a float it is
        # never 0.0), which the off-scale message prints as "0"
        label = _classify(trust_mass, lower or 0, upper or 0, band_low, band_high)
        _check_strength(strength)
        flipped = label is not base_label
        if flipped and first_flip is None:
            first_flip = value
        # _value_ is the member's value, read without the Enum.value property
        rows.append(SweepRow(value, trust_mass, strength, label._value_, flipped))
    return SweepResult(
        target_kind=spec.target_kind,
        target=spec.target,
        base_label=base_label.value,
        rows=tuple(rows),
        first_flip=first_flip,
    )


def _weight_points(
    weights: WeightVector, spec: SensitivitySpec, signs: ScalarConfig, masses: list
) -> Iterator[tuple]:
    """A weight sweep's points from its frame, then the frame's error."""
    grid, error = _weight_frame(weights, spec.target_category(), signs, spec)
    floats = iter(grid)
    # zip reads its arguments in turn: the value, the masses, the frame's other seven
    yield from zip(floats, *map(repeat, masses), *[floats] * 7)
    if error is not None:
        raise ValidationError(error)


def _property_points(
    catalog: PropertyCatalog, assessment: Assessment, spec: SensitivitySpec, mode: str,
    masses: list, weights: WeightVector, bounds: ScalarBounds,
) -> Iterator[tuple]:
    """A property sweep's points, each cap or total breach raised in place."""
    # the swept category adds the entries before the swept one, the value,
    # then the entries after it, as aggregate_masses does, which found every
    # entry's id in the catalog
    prop = catalog.by_id.get(spec.target)
    category = None if prop is None else prop.category
    found, prefix, tail = 0, 0.0, []
    for entry in assessment.entries:
        if entry.property_id == spec.target:
            found += 1
        elif catalog.by_id[entry.property_id].category is category:
            if found:
                tail.append(entry.value)
            else:
                prefix += entry.value
    if found != 1:
        raise ValidationError(f"expected exactly one entry for {spec.target!r}, found {found}")
    index = CATEGORIES.index(category)
    wh, wn, wf = weights.hostile, weights.neutral, weights.friendly
    b = bounds
    lower, upper, band_low, band_high = b.lower, b.upper, b.middle_band_low, b.middle_band_high
    for value in spec.values():
        # the other entries passed their checks in base_masses
        total = prefix + value
        for later in tail:
            total += later
        # no observed-value range check: SensitivitySpec.values() clamps to [0, 1]
        breach = _cap_breach(prop, value, mode) or _total_breach(category, total)
        if breach:
            raise ValidationError(breach)
        # no CategoryMassVector check: a sum of values >= 0 that _total_breach caps
        masses[index] = total
        mh, mn, mf = masses
        yield value, mh, mn, mf, wh, wn, wf, lower, upper, band_low, band_high


# --- band table documents ----------------------------------------------------

def band_table_from_dict(doc: dict) -> BandTable:
    """Build a band table from its document form, reading label, low, high
    and parent in that order in each band."""
    if not isinstance(doc, dict):
        raise SchemaError("band_table: expected an object")
    return BandTable(_items(_field(doc, "bands", list, "band_table"), _band_from_dict,
                            "band_table.bands"))


def _band_from_dict(doc: dict) -> Band:
    """One band of a band table document; errors are relative to it."""
    return Band(_field(doc, "label", str, ""), _field(doc, "low", float, ""),
                _field(doc, "high", float, ""),
                _parse_category(_field(doc, "parent", str, ""), ".parent"))


def band_table_to_dict(table: BandTable) -> dict:
    return {
        "bands": [
            {"label": b.label, "low": b.low, "high": b.high, "parent": b.parent.value}
            for b in table.bands
        ]
    }


def load_band_table(path: str | Path) -> BandTable:
    """Read a band table JSON document."""
    return band_table_from_dict(_load_json(path))
