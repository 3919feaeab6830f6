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
from itertools import chain, compress, repeat
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
    _edges,
    _Fields,
    _frozen,
    _in_range,
    _number,
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

#: The columns of ``EvaluationReport.to_csv``, and its header line, which
#: ``csv.writer`` would write the same: no name needs quoting.
_CSV_COLUMNS = (
    "weight_hostile", "weight_neutral", "weight_friendly",
    "sign_hostile", "sign_neutral", "sign_friendly",
    "lower", "upper", "middle_band_low", "middle_band_high",
    "mass_hostile", "mass_neutral", "mass_friendly",
    "trust_mass", "strength", "label", "band_label",
)
_CSV_HEADER = ",".join(_CSV_COLUMNS) + "\n"


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
        buffer.write(_CSV_HEADER)
        csv.writer(buffer, lineterminator="\n").writerow(
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
        _number(self.step, "sweep step")
        if not 0.0 < self.step < math.inf:
            raise ValidationError(f"sweep step must be positive and finite, got {self.step}")
        _in_range(self.start, "sweep endpoints")
        _in_range(self.stop, "sweep endpoints")
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
        start, step = self.start, self.step
        # clamp away float drift so grid points stay inside [0, 1]
        return [
            0.0 if (x := start + direction * i * step) < 0.0 else 1.0 if x > 1.0 else x
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
    o0, o1 = [weights[c] for c in CATEGORIES if c is not category]
    return WeightVector(*_reweighted(o0, o1, index, value))


def _reweighted(o0: float, o1: float, index: int, value: float) -> tuple:
    """``value`` at category ``index`` and the other two weights ``o0`` and
    ``o1`` rescaled to fill the rest, in category order, unchecked."""
    other_sum = o0 + o1
    remainder = 1.0 - value
    if other_sum <= 0.0:
        if abs(remainder) > TOLERANCE:
            raise ValidationError(
                f"cannot renormalize: weights other than {CATEGORIES[index]} are both zero"
            )
        a = b = 0.0
    else:
        scale = remainder / other_sum
        a, b = o0 * scale, o1 * scale
    return (value, a, b) if index == 0 else (a, value, b) if index == 1 else (a, b, value)


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
    reported as the flip point.  The grid is evaluated a column at a time.
    A source gives a column per number of a point: the masses, the weights
    and the scale's four edges (an empty side is ``compute_bounds``' int
    0), and a column that does not change across the grid as a
    ``repeat()``.  A weight sweep reweights and scales each grid value; a
    property sweep adds each to its category's prefix and tail.  Every
    number is computed on plain floats by the operations that evaluating
    its point alone performs, so each row is bit for bit that
    evaluation's.  The sweep fails at its lowest failing point with the
    error that evaluating that point alone raises, a point's source checks
    first: a source stops its columns before the first point it cannot
    give (a cap or category-total breach, or a weight sweep's failing
    reweight or scale) and returns that point's error, and the scale and
    strength checks are one test of the whole grid, replayed point by
    point only if it fails.  Neither source keeps anything between sweeps.
    """
    base_masses = aggregate_masses(assessment, catalog, mode=mode)
    base = evaluate(base_masses, weights, signs)
    base_label = base.label._value_
    masses = (base_masses.hostile, base_masses.neutral, base_masses.friendly)
    values = spec.values()
    if spec.target_kind == "weight":
        columns, error = _weight_columns(weights, spec, signs, masses, values)
    else:
        columns, error = _property_columns(catalog, assessment, spec, mode, masses, weights,
                                           base.bounds, values)
    mh, mn, mf, wh, wn, wf, lower, upper, band_low, band_high = columns
    # masses are floats, so float signs give the int signs' bits, multiplied faster
    sh, sn, sf = float(signs.hostile), float(signs.neutral), float(signs.friendly)
    # compute_trust_mass, compute_strength and classify, a column each
    trust_mass = [h * sh * a + n * sn * b + f * sf * c
                  for h, n, f, a, b, c in zip(mh, mn, mf, wh, wn, wf)]
    strength = [h * a + n * b + f * c for h, n, f, a, b, c in zip(mh, mn, mf, wh, wn, wf)]
    # _value_ is the member's value, read without the Enum.value property
    hostile, neutral, friendly = [c._value_ for c in CATEGORIES]
    labels = [hostile if t < low else neutral if t <= high else friendly
              for t, low, high in zip(trust_mass, band_low, band_high)]
    # the checks of _classify and _check_strength for the whole grid at once
    # (an empty grid, whose first point failed, passes): by min and max on a
    # property sweep's fixed scale; a weight sweep's fixed masses, each at
    # most 1, put every score on its point's scale up to rounding, as each
    # point's weights lie in [0, 1], but a mass may reach 1 + TOLERANCE
    if spec.target_kind == "weight":
        on_scale = max(masses) <= 1.0
    else:
        b = base.bounds
        on_scale = (b.lower - TOLERANCE <= min(trust_mass, default=0.0)
                    and max(trust_mass, default=0.0) <= b.upper + TOLERANCE)
    if not (on_scale and -TOLERANCE <= min(strength, default=0.0)
            and max(strength, default=0.0) <= 1.0 + TOLERANCE):
        for point in zip(trust_mass, lower, upper, band_low, band_high, strength):
            _classify(*point[:5])
            _check_strength(point[5])
    if error is not None:
        raise error
    flipped = [label != base_label for label in labels]
    return SweepResult(
        target_kind=spec.target_kind,
        target=spec.target,
        base_label=base_label,
        rows=tuple(map(SweepRow, values, trust_mass, strength, labels, flipped)),
        first_flip=next(compress(values, flipped), None),
    )


def _weight_columns(
    weights: WeightVector, spec: SensitivitySpec, signs: ScalarConfig, masses: tuple,
    values: list,
) -> tuple:
    """A weight sweep's columns, which stop before its first failing point,
    and that point's error, or None: each point reweighted and scaled on
    plain floats by the operations of ``_reweighted`` and ``_edges``, the
    code of ``reweight`` and ``compute_bounds``; a point that may fail a
    check is left to those two functions, which raise its error."""
    category = spec.target_category()
    index = CATEGORIES.index(category)
    # float signs give the int signs' bits, multiplied faster
    sh, sn, sf = float(signs.hostile), float(signs.neutral), float(signs.friendly)
    o0, o1 = [weights[c] for c in CATEGORIES if c is not category]
    other_sum, error = o0 + o1, None
    if other_sum <= 0.0:  # _reweighted refuses the first value the others cannot absorb
        for k, value in enumerate(values):
            try:
                _reweighted(o0, o1, index, value)
            except ValidationError as err:  # the points before it stay
                values, error = values[:k], err
                break
        a = b = [0.0] * len(values)
    else:  # _reweighted's scale and products, a column each
        scales = [(1.0 - value) / other_sum for value in values]
        a, b = [o0 * scale for scale in scales], [o1 * scale for scale in scales]
    if not values:
        return ((),) * 10, error
    wh, wn, wf = (values, a, b) if index == 0 else (a, values, b) if index == 1 else (a, b, values)
    lower, upper, band_low, band_high = zip(*[_edges(h, n, f, sh, sn, sf)
                                              for h, n, f in zip(wh, wn, wf)])
    columns = [wh, wn, wf, lower, upper, band_low, band_high]
    # the value types' other checks hold for every reweighted point:
    # weights >= 0 summing to 1 within a few ulps, as does the scale's
    # width, and band_low >= lower, as wh >= 0; under a positive friendly
    # sign the middle band is ordered and inside the scale up to rounding.
    # A NaN weight, 0 times an infinite scale, has an infinite one beside it.
    if not (sf > 0.0 and max(chain(wh, wn, wf)) <= 1.0):
        for k, (h, n, f, up, low, high) in enumerate(zip(wh, wn, wf, upper, band_low, band_high)):
            if not (h <= 1.0 and n <= 1.0 and f <= 1.0 and low <= high + TOLERANCE
                    and high <= up + TOLERANCE):
                try:
                    compute_bounds(reweight(weights, category, values[k]), signs)
                except ValidationError as err:
                    columns = [column[:k] for column in columns]
                    error = err
                    break
    return (*map(repeat, masses), *columns), error


def _property_columns(
    catalog: PropertyCatalog, assessment: Assessment, spec: SensitivitySpec, mode: str,
    masses: tuple, weights: WeightVector, bounds: ScalarBounds, values: list,
) -> tuple:
    """A property sweep's columns, which stop before its first cap or total
    breach, and that breach's error, or None."""
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
    # the other entries passed their checks in base_masses
    totals = [prefix + value for value in values]
    for later in tail:
        totals = [total + later for total in totals]
    # no observed-value range check: SensitivitySpec.values() clamps to [0, 1];
    # _cap_breach and _total_breach for the whole grid, replayed point by
    # point when a point may breach
    error = None
    if ((mode == "strict" and max(values) > prop.cap + TOLERANCE)
            or max(totals) > 1.0 + TOLERANCE):
        for k, (value, total) in enumerate(zip(values, totals)):
            breach = _cap_breach(prop, value, mode) or _total_breach(category, total)
            if breach:
                totals, error = totals[:k], ValidationError(breach)
                break
    # no CategoryMassVector check: a sum of values >= 0 that _total_breach caps
    b = bounds
    columns = [*map(repeat, (*masses, weights.hostile, weights.neutral, weights.friendly,
                             b.lower, b.upper, b.middle_band_low, b.middle_band_high))]
    columns[CATEGORIES.index(category)] = totals
    return columns, error


# --- band table documents ----------------------------------------------------

def band_table_from_dict(doc: dict) -> BandTable:
    """Build a band table from its document form, reading label, low, high
    and parent in that order in each band."""
    if not isinstance(doc, dict):
        raise SchemaError("band_table: expected an object")
    return BandTable._unchecked(_items(_field(doc, "bands", list, "band_table"), _band_from_dict,
                                       "band_table.bands"))


def _band_from_dict(doc: dict) -> Band:
    """One band of a band table document; errors are relative to it."""
    return Band._unchecked(_field(doc, "label", str, ""), _field(doc, "low", float, ""),
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
