"""Signed weighted-score calculus for directed trust relations.

A directed relation between two nations is scored over three evidence
categories: hostile, neutral, and friendly.  The observer assigns each
category a weight (the three weights sum to 1) and a sign (hostile is
negative by default).  Evidence aggregates into a mass in [0, 1] per
category, and the signed weighted sum of the masses, the *trust mass*,
lands on an interval scale of total width 1.  The scale's middle band
classifies a score as neutral; anything below is hostile, anything above
friendly.  The unsigned weighted sum, the *strength*, measures how much
evidence backs the score regardless of direction: the gap between
strength and trust mass is exactly twice the weighted hostile mass, so
the two coincide precisely when no hostile evidence contributed.

All functions here are pure and operate on immutable value types, so
they are safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError

#: Absolute tolerance for normalization and equality checks.
TOLERANCE = 1e-9


class RelationCategory(Enum):
    """The three mutually exclusive relation categories."""

    HOSTILE = "hostile"
    NEUTRAL = "neutral"
    FRIENDLY = "friendly"

    def __str__(self) -> str:
        return self.value


#: Canonical ordering: hostile first, friendly last.
CATEGORIES = (
    RelationCategory.HOSTILE,
    RelationCategory.NEUTRAL,
    RelationCategory.FRIENDLY,
)


class _PerCategory:
    """Mixin for value containers with one field per relation category."""

    def __getitem__(self, category: RelationCategory) -> float:
        return getattr(self, category.value)

    def _items(self) -> tuple[tuple[str, float], ...]:
        """(category name, value) pairs in canonical order."""
        return (("hostile", self.hostile), ("neutral", self.neutral), ("friendly", self.friendly))

    def as_dict(self) -> dict[str, float]:
        return dict(self._items())


@dataclass(frozen=True)
class WeightVector(_PerCategory):
    """Observer emphasis per category: each in [0, 1], summing to 1."""

    hostile: float
    neutral: float
    friendly: float

    def __post_init__(self) -> None:
        _check_weights(self.hostile, self.neutral, self.friendly)

    @classmethod
    def uniform(cls) -> "WeightVector":
        """Equal emphasis on all three categories."""
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def _check_weights(hostile: float, neutral: float, friendly: float) -> None:
    """``WeightVector``'s check: each weight in [0, 1], summing to 1."""
    for name, weight in (("hostile", hostile), ("neutral", neutral), ("friendly", friendly)):
        if not 0.0 <= weight <= 1.0:
            raise ValidationError(f"{name} weight must lie in [0, 1], got {weight}")
    total = hostile + neutral + friendly
    if abs(total - 1.0) > TOLERANCE:
        raise ValidationError(f"weights must sum to 1, got {total}")


def validate_weights(hostile: float, neutral: float, friendly: float) -> WeightVector:
    """Check three raw weights and return them as a WeightVector.

    Rejects any weight outside [0, 1] and any triple whose sum deviates
    from 1 by more than the shared tolerance.
    """
    return WeightVector(hostile, neutral, friendly)


@dataclass(frozen=True)
class ScalarConfig(_PerCategory):
    """Direction of each category's contribution: exactly -1 or +1."""

    hostile: int = -1
    neutral: int = 1
    friendly: int = 1

    def __post_init__(self) -> None:
        for name, sign in self._items():
            if type(sign) is not int or sign not in (-1, 1):
                raise ValidationError(f"{name} sign must be -1 or +1, got {sign}")


#: Hostile counts against the score; neutral and friendly count toward it.
DEFAULT_SIGNS = ScalarConfig()


@dataclass(frozen=True)
class ScalarBounds:
    """Interval scale a trust mass lands on, with its neutral middle band.

    Scores below the middle band classify hostile, scores inside it
    neutral (both ends included), scores above it friendly.  The scale
    always spans a total width of 1.
    """

    lower: float
    upper: float
    middle_band_low: float
    middle_band_high: float

    def __post_init__(self) -> None:
        _check_scale(self.lower, self.upper, self.middle_band_low, self.middle_band_high)

    def as_dict(self) -> dict[str, float]:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "middle_band_low": self.middle_band_low,
            "middle_band_high": self.middle_band_high,
        }


@dataclass(frozen=True)
class CategoryMassVector(_PerCategory):
    """Aggregated evidence mass per category, each in [0, 1].

    Masses are independent across categories; their sum may exceed 1.
    """

    hostile: float
    neutral: float
    friendly: float

    def __post_init__(self) -> None:
        for name, mass in self._items():
            if not -TOLERANCE <= mass <= 1.0 + TOLERANCE:
                raise ValidationError(f"{name} mass must lie in [0, 1], got {mass}")


def compute_bounds(
    weights: WeightVector, signs: ScalarConfig = DEFAULT_SIGNS
) -> ScalarBounds:
    """Build the interval scale for a weight/sign configuration.

    Negatively signed categories stack below zero and set the lower
    bound; positively signed ones set the upper bound, so the scale
    always has total width 1.  The middle band runs from one hostile
    weight above the lower bound to the signed friendly weight below
    the upper bound; under the default signs that is exactly
    [0, neutral weight].

    Raises ValidationError when the sign/weight combination is
    degenerate (empty middle band, or a band escaping the scale).
    """
    return ScalarBounds(*_bounds(weights.hostile, weights.neutral, weights.friendly, signs))


def _bounds(
    hostile: float, neutral: float, friendly: float, signs: ScalarConfig
) -> tuple[float, float, float, float]:
    """``compute_bounds``' lower, upper and middle band, with its checks."""
    signed_friendly = signs.friendly * friendly
    signed = (signs.hostile * hostile, signs.neutral * neutral, signed_friendly)
    # sum() keeps the int 0 of an empty side, which JSON prints as 0; from
    # Python 3.12 it also sums floats compensated, unlike a chain of +
    lower = sum([v for v in signed if v < 0.0])
    upper = sum([v for v in signed if v > 0.0])
    band_low, band_high = lower + hostile, upper - signed_friendly
    try:
        _check_scale(lower, upper, band_low, band_high)
    except ValidationError as err:
        raise ValidationError(f"degenerate sign/weight combination: {err}") from None
    return lower, upper, band_low, band_high


def _check_scale(lower: float, upper: float, band_low: float, band_high: float) -> None:
    """``ScalarBounds``' check: ordered edges on a scale of total width 1."""
    ordered = (
        lower <= band_low + TOLERANCE
        and band_low <= band_high + TOLERANCE
        and band_high <= upper + TOLERANCE
    )
    if not ordered:
        raise ValidationError(
            "bounds must satisfy lower <= middle_band_low <= middle_band_high <= upper, "
            f"got ScalarBounds(lower={lower!r}, upper={upper!r}, "
            f"middle_band_low={band_low!r}, middle_band_high={band_high!r})"
        )
    if abs((upper - lower) - 1.0) > TOLERANCE:
        raise ValidationError(f"interval scale must have total width 1, got {upper - lower}")


def compute_trust_mass(
    masses: CategoryMassVector,
    weights: WeightVector,
    signs: ScalarConfig = DEFAULT_SIGNS,
) -> float:
    """Signed weighted sum of the category masses, hostile term first.

    Each category's mass pairs with that same category's sign and
    weight.
    """
    return (
        masses.hostile * signs.hostile * weights.hostile
        + masses.neutral * signs.neutral * weights.neutral
        + masses.friendly * signs.friendly * weights.friendly
    )


def compute_strength(masses: CategoryMassVector, weights: WeightVector) -> float:
    """Unsigned weighted sum of the category masses, in [0, 1]."""
    return (
        masses.hostile * weights.hostile
        + masses.neutral * weights.neutral
        + masses.friendly * weights.friendly
    )


def classify(trust_mass: float, bounds: ScalarBounds) -> RelationCategory:
    """Place a trust mass on the scale: hostile below the middle band,
    neutral inside it (closed on both ends), friendly above it.

    A score outside [lower, upper] (beyond tolerance) signals
    inconsistent inputs and is rejected.
    """
    return _classify(
        trust_mass, bounds.lower, bounds.upper, bounds.middle_band_low, bounds.middle_band_high
    )


def _classify(
    trust_mass: float, lower: float, upper: float, band_low: float, band_high: float
) -> RelationCategory:
    """``classify`` on the scale's four edges."""
    if not lower - TOLERANCE <= trust_mass <= upper + TOLERANCE:
        raise ValidationError(f"trust mass {trust_mass} lies outside the scale [{lower}, {upper}]")
    if trust_mass < band_low:
        return RelationCategory.HOSTILE
    if trust_mass <= band_high:
        return RelationCategory.NEUTRAL
    return RelationCategory.FRIENDLY


@dataclass(frozen=True)
class Band:
    """One labelled sub-interval of a category's region on the scale."""

    label: str
    low: float
    high: float
    parent: RelationCategory


@dataclass(frozen=True)
class BandTable:
    """Ordered, contiguous refinement of the scale into labelled bands.

    Each band must stay inside its parent category's region: hostile
    bands below the middle band, neutral bands inside it, friendly
    bands above it.  Together the bands must cover [lower, upper]
    exactly.  No default table ships; observers define their own.
    """

    bands: tuple[Band, ...]

    def __init__(self, bands) -> None:
        object.__setattr__(self, "bands", tuple(bands))

    def validate_against(self, bounds: ScalarBounds) -> None:
        """Raise ValidationError unless this table tiles ``bounds``."""
        if not self.bands:
            raise ValidationError("band table has no bands")
        if abs(self.bands[0].low - bounds.lower) > TOLERANCE:
            raise ValidationError(
                f"first band starts at {self.bands[0].low}, scale starts at {bounds.lower}"
            )
        if abs(self.bands[-1].high - bounds.upper) > TOLERANCE:
            raise ValidationError(
                f"last band ends at {self.bands[-1].high}, scale ends at {bounds.upper}"
            )
        regions = {
            RelationCategory.HOSTILE: (bounds.lower, bounds.middle_band_low),
            RelationCategory.NEUTRAL: (bounds.middle_band_low, bounds.middle_band_high),
            RelationCategory.FRIENDLY: (bounds.middle_band_high, bounds.upper),
        }
        for band in self.bands:
            if not band.low < band.high:
                raise ValidationError(
                    f"band {band.label!r} must have low < high, got "
                    f"[{band.low}, {band.high}]"
                )
            region_low, region_high = regions[band.parent]
            if band.low < region_low - TOLERANCE or band.high > region_high + TOLERANCE:
                raise ValidationError(
                    f"band {band.label!r} [{band.low}, {band.high}] leaves its "
                    f"parent {band.parent} region [{region_low}, {region_high}]"
                )
        for previous, current in zip(self.bands, self.bands[1:]):
            if abs(previous.high - current.low) > TOLERANCE:
                raise ValidationError(
                    f"bands {previous.label!r} and {current.label!r} do not meet: "
                    f"{previous.high} vs {current.low}"
                )


def classify_extended(trust_mass: float, bands: BandTable) -> str:
    """Label of the unique band containing the score.

    Bands include their low edge and exclude their high edge, except
    the final band which includes both.  A score outside the table's
    total cover is rejected.
    """
    first, last = bands.bands[0], bands.bands[-1]
    if not first.low - TOLERANCE <= trust_mass <= last.high + TOLERANCE:
        raise ValidationError(
            f"trust mass {trust_mass} lies outside the band table cover "
            f"[{first.low}, {last.high}]"
        )
    for band in bands.bands[:-1]:
        if trust_mass < band.high:
            return band.label
    return last.label


@dataclass(frozen=True)
class TrustEvaluation:
    """Full outcome of one evaluation: score, strength, label, scale."""

    trust_mass: float
    strength: float
    label: RelationCategory
    bounds: ScalarBounds
    no_hostile: bool
    band_label: str | None = None

    def __post_init__(self) -> None:
        if not self.bounds.lower - TOLERANCE <= self.trust_mass <= self.bounds.upper + TOLERANCE:
            raise ValidationError(
                f"trust mass {self.trust_mass} outside "
                f"[{self.bounds.lower}, {self.bounds.upper}]"
            )
        _check_strength(self.strength)


def _check_strength(strength: float) -> None:
    """``TrustEvaluation``'s strength check."""
    if not -TOLERANCE <= strength <= 1.0 + TOLERANCE:
        raise ValidationError(f"strength must lie in [0, 1], got {strength}")


def evaluate(
    masses: CategoryMassVector,
    weights: WeightVector,
    signs: ScalarConfig = DEFAULT_SIGNS,
    bands: BandTable | None = None,
) -> TrustEvaluation:
    """Run the whole pipeline: scale, trust mass, strength, label.

    Equivalent, field by field, to calling compute_bounds,
    compute_trust_mass, compute_strength, classify and (when a band
    table is supplied) classify_extended separately.
    """
    bounds = compute_bounds(weights, signs)
    trust_mass = compute_trust_mass(masses, weights, signs)
    strength = compute_strength(masses, weights)
    label = classify(trust_mass, bounds)
    band_label = None
    if bands is not None:
        bands.validate_against(bounds)
        band_label = classify_extended(trust_mass, bands)
    return TrustEvaluation(
        trust_mass=trust_mass,
        strength=strength,
        label=label,
        bounds=bounds,
        no_hostile=weights.hostile * masses.hostile == 0.0,
        band_label=band_label,
    )


@dataclass(frozen=True)
class StrengthInterpretation:
    """Qualitative reading of a strength value, as independent flags.

    contradiction_prone
        Strength near 1: the observation window likely mixes strongly
        opposing regimes (war years next to alliance years).
    fair_consistent
        Strength near 0.5: a consistent, fairly supported reading in
        whichever direction the trust mass points.
    neutral_biased
        Strength near the weighted neutral mass: the evidence leans on
        the neutral category.
    no_hostile
        Strength and trust mass are identical and positive, which can
        only happen when no hostile evidence entered the computation.

    The raw and weighted distances from the neutral mass are reported
    alongside, since "near" is a judgement call left to the observer.
    """

    contradiction_prone: bool
    fair_consistent: bool
    neutral_biased: bool
    no_hostile: bool
    weighted_neutral_distance: float
    raw_neutral_distance: float
    delta: float

    def as_dict(self) -> dict:
        return {
            "contradiction_prone": self.contradiction_prone,
            "fair_consistent": self.fair_consistent,
            "neutral_biased": self.neutral_biased,
            "no_hostile": self.no_hostile,
            "weighted_neutral_distance": self.weighted_neutral_distance,
            "raw_neutral_distance": self.raw_neutral_distance,
            "delta": self.delta,
        }


def interpret_strength(
    evaluation: TrustEvaluation, neutral_mass: float, delta: float = 0.1
) -> StrengthInterpretation:
    """Flag the qualitative readings of an evaluation's strength.

    ``neutral_mass`` must be the neutral category mass that produced
    the evaluation.  ``delta``, finite and non-negative, is the distance
    within which a value counts as "near".  Zero strength carries no
    evidence at all, so no nearness flag fires for it.
    """
    if not 0.0 <= delta < math.inf:
        raise ValidationError(f"delta must be finite and non-negative, got {delta}")
    strength = evaluation.strength
    # Middle-band width recovers the neutral weight for every accepted
    # sign configuration.
    neutral_weight = evaluation.bounds.middle_band_high - evaluation.bounds.middle_band_low
    weighted_distance = abs(strength - neutral_mass * neutral_weight)
    has_evidence = strength > 0.0
    return StrengthInterpretation(
        contradiction_prone=has_evidence and abs(strength - 1.0) <= delta,
        fair_consistent=has_evidence and abs(strength - 0.5) <= delta,
        neutral_biased=has_evidence and weighted_distance <= delta,
        no_hostile=(
            abs(strength - evaluation.trust_mass) <= TOLERANCE
            and strength > 0.0
            and evaluation.trust_mass > 0.0
        ),
        weighted_neutral_distance=weighted_distance,
        raw_neutral_distance=abs(strength - neutral_mass),
        delta=delta,
    )
