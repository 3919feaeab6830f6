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

Every frozen value type is declared with ``_frozen``: a dataclass with
an ``__init__`` of the same signature and defaults that writes each field
straight into the instance dict, then calls ``__post_init__`` if the
class has one, where the dataclass ``__init__`` would call
``object.__setattr__`` per field.  ``dataclasses.fields``/``replace`` and
pickling are the dataclass's own.  On CPython 3.11 and 3.12 an attribute
read costs about 35 ns once the instance dict was written, against 14 ns
before; the weights, the signs and the catalog read on every document
have their dict written anyway, by ``as_dict`` or the cached ``by_id``,
so only ``PropertyDef`` reads cost more, about 20 of them per document in
the assessment scan.

All twenty share one ``__eq__``, ``__hash__``, ``__repr__``,
``__setattr__`` and ``__delattr__`` in place of the five that
``dataclass(frozen=True)`` would compile from generated source for each
class at import, a cost every CLI call pays; only ``_frozen``'s
``__init__`` is compiled per class (and from 3.13 on one batch per
``dataclass()`` call, whatever it generates).  The seven types a
document reader or the assessment scan builds after checking every field
(``CategoryMassVector``, ``Band``, ``BandTable``, ``EvidenceLink``,
``AssessmentEntry``, ``Assessment`` and ``RelationRecord``) also get a
positional ``_unchecked`` builder, compiled in the same ``exec`` as their
``__init__``: the same dict writes without the ``__post_init__``, so each
field read from a document is checked once.  The others have none, as
each builder costs compile time at every import.  The shared
``__setattr__`` and ``__delattr__`` raise the dataclass's
``FrozenInstanceError`` for every name, on a subclass too, where the
generated ones refuse only field names; ``__dataclass_params__.frozen``
reads False, so ``dataclass()`` refuses a ``frozen=True`` subclass.
The shared ``__eq__`` and ``__hash__`` behave as the generated ones do
on Python 3.10 to 3.12: a value is compared and hashed as the tuple of
its fields.  From 3.13 on the generated ``__eq__`` compares field by
field, so there two values holding the same NaN object differ; the
shared one finds them equal on every Python.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from reprlib import recursive_repr

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


def _field_values(value) -> tuple:
    """The fields of a value type, in order: what it is compared and hashed by."""
    return tuple([getattr(value, name) for name in value.__match_args__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _field_values(self) == _field_values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_field_values(self))


@recursive_repr()
def _repr(self) -> str:
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({shown})"


def _number(value, what: str) -> None:
    """Refuse ``value``, named ``what``, unless it is an int or a float; as
    in a document, a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")


def _float_number(value, what: str) -> None:
    """Refuse ``value``, named ``what``, unless it is a number (see
    ``_number``) that a float holds exactly: an int past a float's range or
    precision would be written as one number and read back as another, or
    not at all.  A float, NaN too, passes."""
    _number(value, what)
    try:
        exact = isinstance(value, float) or float(value) == value
    except OverflowError:
        exact = False
    if not exact:
        raise ValidationError(f"{what} must be a number that a float holds exactly, got {value}")


def _in_range(value, what: str, low: float = 0.0, high: float = 1.0) -> None:
    """Refuse ``value``, named ``what``, unless it is a number (see
    ``_number``) in ``[low, high]``; the message names the interval [0, 1],
    which a tolerance may widen."""
    if type(value) is float and low <= value <= high:
        return
    _number(value, what)
    if not low <= value <= high:
        raise ValidationError(f"{what} must lie in [0, 1], got {value}")


def _string(value, what: str) -> None:
    """Refuse ``value``, named ``what``, unless it is a str."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")


def _typed(value, kind: type, what: str) -> None:
    """Refuse ``value``, named ``what``, unless its type is exactly ``kind``:
    a ``datetime`` is not a ``date``, as a writer would keep its time."""
    if type(value) is not kind:
        raise ValidationError(f"{what} must be of type {kind.__name__}, got {value!r}")


def _tuple_of(items, kind: type, what: str) -> tuple:
    """``items`` as a tuple, refused, named ``what``, unless it is iterable
    and each item's type is exactly ``kind``."""
    try:
        items = tuple(items)
    except TypeError:
        raise ValidationError(
            f"{what} must hold only {kind.__name__} values, got {items!r}") from None
    for item in items:
        if type(item) is not kind:
            raise ValidationError(f"{what} must hold only {kind.__name__} values, got {item!r}")
    return items


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls: type | None = None, *, unchecked: bool = False):
    """A dataclass frozen by the shared ``__setattr__`` and ``__delattr__``,
    with the shared ``__eq__``, ``__hash__`` and ``__repr__`` and a
    generated ``__init__`` that writes the fields into the instance dict
    (see the module docstring).  Every field is positional and compared,
    field defaults must be plain values, and no field may be named
    ``self``, ``fields``, ``_new`` or ``_cls``.

    ``@_frozen(unchecked=True)`` compiles, in the same ``exec``, the static
    method ``_unchecked``: a builder with the same parameters that makes
    the instance with ``object.__new__`` and does the same dict writes,
    but calls no ``__post_init__``.  Call it only with arguments that the
    ``__post_init__`` would accept unchanged: each field of the type it
    checks, each sequence already a tuple.  A document reader that makes
    every check the constructor makes may use it; a new check in the
    constructor must then be made by each such reader too."""
    if cls is None:
        return lambda cls: _frozen(cls, unchecked=unchecked)
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    namespace = {"__name__": cls.__module__, "_new": object.__new__, "_cls": cls}
    declared = fields(cls)
    params, stores = [], ""
    for f in declared:
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores += f"    fields[{f.name!r}] = {f.name}\n"
    params = ", ".join(params)
    post_init = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    source = f"def __init__(self, {params}):\n    fields = self.__dict__\n{stores}{post_init}"
    if unchecked:
        source += (f"def _unchecked({params}):\n    self = _new(_cls)\n"
                   f"    fields = self.__dict__\n{stores}    return self\n")
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in declared}, "return": None}
    cls.__init__ = init
    if unchecked:
        namespace["_unchecked"].__qualname__ = f"{cls.__qualname__}._unchecked"
        cls._unchecked = staticmethod(namespace["_unchecked"])
    return cls


class _Fields:
    """Mixin for value types whose dict form is their fields, in order."""

    def as_dict(self) -> dict:
        return dict(vars(self))


class _PerCategory(_Fields):
    """Mixin for value containers with one field per relation category."""

    def __getitem__(self, category: RelationCategory) -> float:
        return getattr(self, category.value)


@_frozen
class WeightVector(_PerCategory):
    """Observer emphasis per category: each in [0, 1], summing to 1."""

    hostile: float
    neutral: float
    friendly: float

    def __post_init__(self) -> None:
        hostile, neutral, friendly = self.hostile, self.neutral, self.friendly
        _in_range(hostile, "hostile weight")
        _in_range(neutral, "neutral weight")
        _in_range(friendly, "friendly weight")
        total = hostile + neutral + friendly
        if abs(total - 1.0) > TOLERANCE:
            raise ValidationError(f"weights must sum to 1, got {total}")

    @classmethod
    def uniform(cls) -> "WeightVector":
        """Equal emphasis on all three categories."""
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@_frozen
class ScalarConfig(_PerCategory):
    """Direction of each category's contribution: exactly -1 or +1."""

    hostile: int = -1
    neutral: int = 1
    friendly: int = 1

    def __post_init__(self) -> None:
        for name, sign in vars(self).items():
            if type(sign) is not int or sign not in (-1, 1):
                raise ValidationError(f"{name} sign must be -1 or +1, got {sign}")


#: Hostile counts against the score; neutral and friendly count toward it.
DEFAULT_SIGNS = ScalarConfig()


@_frozen
class ScalarBounds(_Fields):
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
        ordered = (
            self.lower <= self.middle_band_low + TOLERANCE
            and self.middle_band_low <= self.middle_band_high + TOLERANCE
            and self.middle_band_high <= self.upper + TOLERANCE
        )
        if not ordered:
            raise ValidationError(
                "bounds must satisfy lower <= middle_band_low <= middle_band_high <= upper, "
                f"got {self!r}"
            )
        if abs((self.upper - self.lower) - 1.0) > TOLERANCE:
            raise ValidationError(
                f"interval scale must have total width 1, got {self.upper - self.lower}"
            )


@_frozen(unchecked=True)
class CategoryMassVector(_PerCategory):
    """Aggregated evidence mass per category, each in [0, 1].

    Masses are independent across categories; their sum may exceed 1.
    """

    hostile: float
    neutral: float
    friendly: float

    def __post_init__(self) -> None:
        _in_range(self.hostile, "hostile mass", -TOLERANCE, 1.0 + TOLERANCE)
        _in_range(self.neutral, "neutral mass", -TOLERANCE, 1.0 + TOLERANCE)
        _in_range(self.friendly, "friendly mass", -TOLERANCE, 1.0 + TOLERANCE)


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
    try:
        return ScalarBounds(*_edges(weights.hostile, weights.neutral, weights.friendly,
                                    signs.hostile, signs.neutral, signs.friendly))
    except ValidationError as err:
        raise ValidationError(f"degenerate sign/weight combination: {err}") from None


def _edges(wh: float, wn: float, wf: float, sh: float, sn: float, sf: float) -> tuple:
    """The scale's lower and upper bounds and middle band edges for plain
    weights and signs, unchecked."""
    hostile, neutral, friendly = sh * wh, sn * wn, sf * wf
    # left to right from the int 0, so an empty side prints as 0: sum() does
    # the same before Python 3.12, but compensates float sums from 3.12 on
    lower = upper = 0
    if hostile < 0.0:
        lower += hostile
    elif hostile > 0.0:
        upper += hostile
    if neutral < 0.0:
        lower += neutral
    elif neutral > 0.0:
        upper += neutral
    if friendly < 0.0:
        lower += friendly
    elif friendly > 0.0:
        upper += friendly
    return lower, upper, lower + wh, upper - friendly


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
    _check_on_scale(trust_mass, lower, upper)
    if trust_mass < band_low:
        return RelationCategory.HOSTILE
    if trust_mass <= band_high:
        return RelationCategory.NEUTRAL
    return RelationCategory.FRIENDLY


def _check_on_scale(trust_mass: float, lower: float, upper: float) -> None:
    """``classify``'s and ``TrustEvaluation``'s check: the score lies on the scale."""
    if not lower - TOLERANCE <= trust_mass <= upper + TOLERANCE:
        raise ValidationError(f"trust mass {trust_mass} lies outside the scale [{lower}, {upper}]")


@_frozen(unchecked=True)
class Band:
    """One labelled sub-interval of a category's region on the scale."""

    label: str
    low: float
    high: float
    parent: RelationCategory

    def __post_init__(self) -> None:
        _string(self.label, "band label")
        _float_number(self.low, "band low")
        _float_number(self.high, "band high")
        _typed(self.parent, RelationCategory, "band parent")


@_frozen(unchecked=True)
class BandTable:
    """Ordered, contiguous refinement of the scale into labelled bands.

    Each band must stay inside its parent category's region: hostile
    bands below the middle band, neutral bands inside it, friendly
    bands above it.  Together the bands must cover [lower, upper]
    exactly.  No default table ships; observers define their own.
    """

    bands: tuple[Band, ...]

    def __post_init__(self) -> None:
        self.__dict__["bands"] = _tuple_of(self.bands, Band, "band table")

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
        # one region per category, in CATEGORIES order: indexing skips
        # hashing a RelationCategory, which Enum does in Python
        regions = (
            (bounds.lower, bounds.middle_band_low),
            (bounds.middle_band_low, bounds.middle_band_high),
            (bounds.middle_band_high, bounds.upper),
        )
        for band in self.bands:
            if not band.low < band.high:
                raise ValidationError(
                    f"band {band.label!r} must have low < high, got "
                    f"[{band.low}, {band.high}]"
                )
            region_low, region_high = regions[CATEGORIES.index(band.parent)]
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
    total cover is rejected, as is a table with no bands.
    """
    if not bands.bands:
        raise ValidationError("band table has no bands")
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


@_frozen
class TrustEvaluation:
    """Full outcome of one evaluation: score, strength, label, scale."""

    trust_mass: float
    strength: float
    label: RelationCategory
    bounds: ScalarBounds
    no_hostile: bool
    band_label: str | None = None

    def __post_init__(self) -> None:
        _check_on_scale(self.trust_mass, self.bounds.lower, self.bounds.upper)
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


@_frozen
class StrengthInterpretation(_Fields):
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
        Strength and trust mass agree within tolerance and are positive:
        some evidence entered, and none of it with a negative sign.
        Under the default signs that is the weighted hostile mass being
        0.  Under a positive hostile sign, hostile evidence counts toward
        the score and leaves this flag set, where
        ``TrustEvaluation.no_hostile``, which says that the weighted
        hostile mass is exactly 0 whatever the signs, is False.

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
