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
import json
import math
from dataclasses import dataclass
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
    _bounds,
    _check_strength,
    _check_weights,
    _classify,
    evaluate,
    interpret_strength,
)
from .catalog import (
    Assessment,
    PropertyCatalog,
    _cap_breach,
    _entry_index,
    _load_json,
    _parse_category,
    _require,
    _total_breach,
    aggregate_masses,
)
from .errors import ValidationError

#: Decimal places used by the text and CSV renderings.
TEXT_PRECISION = 6


@dataclass(frozen=True)
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        """Fixed-precision rendering in pipeline order."""
        p = TEXT_PRECISION
        flags = self.interpretation
        lines = [
            f"weights     hostile={self.weights.hostile:.{p}f}  "
            f"neutral={self.weights.neutral:.{p}f}  friendly={self.weights.friendly:.{p}f}",
            f"signs       hostile={self.signs.hostile:+d}  "
            f"neutral={self.signs.neutral:+d}  friendly={self.signs.friendly:+d}",
            f"bounds      lower={self.bounds.lower:.{p}f}  upper={self.bounds.upper:.{p}f}  "
            f"middle=[{self.bounds.middle_band_low:.{p}f}, {self.bounds.middle_band_high:.{p}f}]",
            f"masses      hostile={self.masses.hostile:.{p}f}  "
            f"neutral={self.masses.neutral:.{p}f}  friendly={self.masses.friendly:.{p}f}",
            f"trust_mass  {self.trust_mass:.{p}f}",
            f"strength    {self.strength:.{p}f}",
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
        p = TEXT_PRECISION
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
                f"{self.weights.hostile:.{p}f}", f"{self.weights.neutral:.{p}f}",
                f"{self.weights.friendly:.{p}f}",
                self.signs.hostile, self.signs.neutral, self.signs.friendly,
                f"{self.bounds.lower:.{p}f}", f"{self.bounds.upper:.{p}f}",
                f"{self.bounds.middle_band_low:.{p}f}", f"{self.bounds.middle_band_high:.{p}f}",
                f"{self.masses.hostile:.{p}f}", f"{self.masses.neutral:.{p}f}",
                f"{self.masses.friendly:.{p}f}",
                f"{self.trust_mass:.{p}f}", f"{self.strength:.{p}f}",
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


@dataclass(frozen=True)
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
        span = self.stop - self.start
        count = int(math.floor(abs(span) / self.step + TOLERANCE))
        direction = 1.0 if span >= 0 else -1.0
        # clamp away float drift so grid points stay inside [0, 1]
        return [
            min(max(self.start + direction * i * self.step, 0.0), 1.0)
            for i in range(count + 1)
        ]


@dataclass(frozen=True)
class SweepRow:
    """One grid point: swept input value and the resulting evaluation."""

    value: float
    trust_mass: float
    strength: float
    label: str
    flipped: bool

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "trust_mass": self.trust_mass,
            "strength": self.strength,
            "label": self.label,
            "flipped": self.flipped,
        }


@dataclass(frozen=True)
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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        p = TEXT_PRECISION
        lines = [f"{'value':>10}  {'trust_mass':>12}  {'strength':>10}  label"]
        for row in self.rows:
            marker = "  *flip*" if row.flipped else ""
            lines.append(
                f"{row.value:>10.{p}f}  {row.trust_mass:>12.{p}f}  "
                f"{row.strength:>10.{p}f}  {row.label}{marker}"
            )
        lines.append(f"base label: {self.base_label}")
        if self.first_flip is None:
            lines.append("no flip in sweep")
        else:
            lines.append(f"first flip at {self.target}={self.first_flip:.{p}f}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        p = TEXT_PRECISION
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["value", "trust_mass", "strength", "label", "flipped"])
        for row in self.rows:
            writer.writerow(
                [
                    f"{row.value:.{p}f}", f"{row.trust_mass:.{p}f}",
                    f"{row.strength:.{p}f}", row.label,
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
    return WeightVector(*_reweight(others, index, value))


def _reweight(others: list[float], index: int, value: float) -> list[float]:
    """``reweight`` on floats: ``others`` are the weights besides the one
    at ``index``, which becomes ``value``."""
    other_sum = others[0] + others[1]
    remainder = 1.0 - value
    if other_sum <= 0.0:
        if abs(remainder) > TOLERANCE:
            raise ValidationError(
                f"cannot renormalize: weights other than {CATEGORIES[index]} are both zero"
            )
        scaled = [0.0, 0.0]
    else:
        scale = remainder / other_sum
        scaled = [others[0] * scale, others[1] * scale]
    scaled.insert(index, value)
    return scaled


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
    reported as the flip point.  What the grid leaves fixed is computed
    once.  Each point is computed on plain floats by the operations that
    evaluating it alone performs, so each row is bit for bit that
    evaluation's, and is checked by the same functions that the value
    types and ``reweight`` call.  The sweep stops at its first failing
    grid point, with the error that evaluating that point alone raises.
    """
    base_masses = aggregate_masses(assessment, catalog, mode=mode)
    base = evaluate(base_masses, weights, signs)
    masses = [base_masses.hostile, base_masses.neutral, base_masses.friendly]
    w = [weights.hostile, weights.neutral, weights.friendly]
    sh, sn, sf = signs.hostile, signs.neutral, signs.friendly
    b = base.bounds
    lower, upper, band_low, band_high = b.lower, b.upper, b.middle_band_low, b.middle_band_high
    sweep_weight = spec.target_kind == "weight"
    if sweep_weight:
        index = CATEGORIES.index(spec.target_category())
        others = w[:index] + w[index + 1:]
    else:
        # the swept category adds the entries before the swept one, the
        # value, then the entries after it, as aggregate_masses does
        position = _entry_index(assessment, spec.target)
        prop = catalog.by_id[spec.target]
        index = CATEGORIES.index(prop.category)
        prefix, tail = 0.0, []
        for i, entry in enumerate(assessment.entries):
            if catalog.by_id[entry.property_id].category is prop.category:
                if i < position:
                    prefix += entry.value
                elif i > position:
                    tail.append(entry.value)
    rows = []
    first_flip = None
    for value in spec.values():
        if sweep_weight:  # reweight, WeightVector, compute_bounds
            w = _reweight(others, index, value)
            _check_weights(*w)
            lower, upper, band_low, band_high = _bounds(*w, signs)
        else:  # the other entries passed their checks in base_masses
            total = prefix + value
            for later in tail:
                total += later
            # no observed-value range check: SensitivitySpec.values() clamps to [0, 1]
            breach = _cap_breach(prop, value, mode) or _total_breach(prop.category, total)
            if breach:
                raise ValidationError(breach)
            # no CategoryMassVector check: a sum of values >= 0 that _total_breach caps
            masses[index] = total
        # compute_trust_mass, compute_strength, classify, TrustEvaluation
        trust_mass = masses[0] * sh * w[0] + masses[1] * sn * w[1] + masses[2] * sf * w[2]
        strength = masses[0] * w[0] + masses[1] * w[1] + masses[2] * w[2]
        label = _classify(trust_mass, lower, upper, band_low, band_high)
        _check_strength(strength)
        flipped = label is not base.label
        if flipped and first_flip is None:
            first_flip = value
        rows.append(SweepRow(value, trust_mass, strength, label.value, flipped))
    return SweepResult(
        target_kind=spec.target_kind,
        target=spec.target,
        base_label=base.label.value,
        rows=tuple(rows),
        first_flip=first_flip,
    )


# --- band table documents ----------------------------------------------------

def band_table_from_dict(doc: dict) -> BandTable:
    """Build a band table from its document form."""
    bands = []
    for i, raw in enumerate(_require(doc, "bands", list, "band_table")):
        where = f"band_table.bands[{i}]"
        bands.append(
            Band(
                label=_require(raw, "label", str, where),
                low=_require(raw, "low", float, where),
                high=_require(raw, "high", float, where),
                parent=_parse_category(_require(raw, "parent", str, where), f"{where}.parent"),
            )
        )
    return BandTable(bands)


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
