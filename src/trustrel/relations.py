"""Nation registry and directed relation store.

Relations are directed: what one nation thinks of another says nothing
about the reverse direction, and nothing carries over transitively
through third parties.  A nation's relation to itself is always
friendly and is synthesized on demand rather than stored.  A pair that
was never evaluated is explicitly *undefined*, which is distinct from
an evaluated pair with zero evidence (that one is neutral).

The store accepts a single writer and any number of concurrent
readers: every mutation swaps in a fresh mapping under a lock, so a
reader always sees a consistent snapshot.
"""

from __future__ import annotations

import copy
import threading
from pathlib import Path

from .algebra import (
    CATEGORIES,
    DEFAULT_SIGNS,
    TOLERANCE,
    BandTable,
    CategoryMassVector,
    ScalarConfig,
    TrustEvaluation,
    WeightVector,
    _frozen,
    classify,
    compute_bounds,
    evaluate,
)
from .catalog import (
    Assessment,
    DateWindow,
    PropertyCatalog,
    _field,
    _load_json,
    _save_json,
    _valid_masses,
    window_from_dict,
    window_to_dict,
)
from .errors import SchemaError, ValidationError


@_frozen
class Nation:
    """A sovereign state; UN membership is a caller-supplied flag."""

    id: str
    name: str = ""
    un_member: bool = True

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("nation id must be non-empty")


@_frozen
class RelationRecord:
    """One directed perception over one window: evaluated or undefined."""

    subject: str
    object: str
    window: DateWindow
    evaluation: TrustEvaluation | None = None
    weights: WeightVector | None = None
    signs: ScalarConfig | None = None
    assessment_ref: str | None = None
    near_misses: tuple[str, ...] = ()

    @property
    def defined(self) -> bool:
        return self.evaluation is not None

    @property
    def label(self) -> str:
        """Classification label, or "undefined" for unevaluated pairs."""
        return self.evaluation.label.value if self.evaluation else "undefined"


# A nation trusts itself completely: all emphasis and all evidence on
# the friendly category puts the score at the very top of the scale.
_SELF_WEIGHTS = WeightVector(0.0, 0.0, 1.0)
_SELF_EVALUATION = evaluate(CategoryMassVector(0.0, 0.0, 1.0), _SELF_WEIGHTS)

_CATEGORY_NAMES = tuple(c.value for c in CATEGORIES)


class RelationStore:
    """Registry of nations plus their evaluated directed relations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._nations: dict[str, Nation] = {}
        # (subject, object) -> that pair's records by window
        self._records: dict[tuple[str, str], dict[DateWindow, RelationRecord]] = {}

    # -- registry -------------------------------------------------------

    def register_nation(self, nation: Nation) -> Nation:
        """Add a nation; duplicate ids are rejected."""
        with self._lock:
            if nation.id in self._nations:
                raise ValidationError(f"nation {nation.id!r} is already registered")
            nations = dict(self._nations)
            nations[nation.id] = nation
            self._nations = nations
        return nation

    def nation(self, nation_id: str) -> Nation:
        found = self._nations.get(nation_id)
        if found is None:
            raise ValidationError(f"nation {nation_id!r} is not registered")
        return found

    @property
    def nations(self) -> tuple[Nation, ...]:
        return tuple(sorted(self._nations.values(), key=lambda n: n.id))

    @property
    def records(self) -> tuple[RelationRecord, ...]:
        return tuple(
            windows[window]
            for _, windows in sorted(self._records.items())
            for window in sorted(windows, key=lambda w: (w.start, w.end))
        )

    # -- evaluation and queries ------------------------------------------

    def evaluate_relation(
        self,
        subject: str,
        object: str,
        assessment: Assessment,
        catalog: PropertyCatalog,
        weights: WeightVector,
        signs: ScalarConfig = DEFAULT_SIGNS,
        mode: str = "strict",
        bands: BandTable | None = None,
    ) -> RelationRecord:
        """Evaluate one directed perception and store the record.

        Re-evaluating the same (subject, object, window) replaces the
        earlier record; distinct windows coexist.  Self-relations are
        fixed friendly and cannot be evaluated.
        """
        self._check_pair(subject, object)
        if assessment.subject != subject or assessment.object != object:
            raise ValidationError(
                f"assessment covers {assessment.subject!r}->{assessment.object!r}, "
                f"not {subject!r}->{object!r}"
            )
        masses = _valid_masses(assessment, catalog, mode)
        evaluation = evaluate(masses, weights, signs, bands=bands)
        record = RelationRecord(
            subject=subject,
            object=object,
            window=assessment.window,
            evaluation=evaluation,
            weights=weights,
            signs=signs,
            assessment_ref=f"{assessment.ref} (catalog {catalog.version})",
        )
        pair = (subject, object)
        with self._lock:
            records = dict(self._records)
            records[pair] = {**records.get(pair, {}), assessment.window: record}
            self._records = records
        return record

    def _check_pair(self, subject: str, object: str) -> None:
        self.nation(subject)
        self.nation(object)
        if subject == object:
            raise ValidationError(
                f"self-relation {subject!r} is fixed friendly and cannot be evaluated"
            )

    def query_relation(
        self, subject: str, object: str, window: DateWindow
    ) -> RelationRecord:
        """Look up the perception of ``subject`` toward ``object``.

        A stored record matches when its window fully contains the
        queried range; with several matches the narrowest window wins.
        Overlapping-but-not-containing records are listed as near
        misses on the undefined result.  No record is ever derived
        from the reverse direction or through third nations.
        """
        self.nation(subject)
        self.nation(object)
        if subject == object:
            return self._self_record(subject, window)
        windows = self._records.get((subject, object), {})
        containing = [w for w in windows if w.contains(window)]
        if containing:
            return windows[min(containing, key=lambda w: (w.end - w.start, w.start))]
        near = tuple(
            f"{subject}->{object}@{w}"
            for w in sorted((w for w in windows if w.overlaps(window)), key=lambda w: (w.start, w.end))
        )
        return RelationRecord(subject=subject, object=object, window=window, near_misses=near)

    def relation_matrix(
        self, nation_ids: list[str], window: DateWindow
    ) -> list[list[str]]:
        """N x N matrix of labels; the diagonal is always friendly.

        The matrix is not symmetrized and no transitive fill-in is
        performed; unevaluated cells stay "undefined".  Every cell is
        read from one snapshot of the store.
        """
        # a shallow copy shares the published maps, which no write changes in place
        snapshot = copy.copy(self)
        return [
            [snapshot.query_relation(row, col, window).label for col in nation_ids]
            for row in nation_ids
        ]

    @staticmethod
    def _self_record(nation_id: str, window: DateWindow) -> RelationRecord:
        return RelationRecord(
            subject=nation_id,
            object=nation_id,
            window=window,
            evaluation=_SELF_EVALUATION,
            weights=_SELF_WEIGHTS,
            signs=DEFAULT_SIGNS,
            assessment_ref="synthesized self-relation",
        )

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        # records first: nations are only ever added, so the nations read
        # after them include every nation they name
        records = [_record_to_dict(r) for r in self.records]
        return {
            "nations": [
                {"id": n.id, "name": n.name, "un_member": n.un_member}
                for n in self.nations
            ],
            "records": records,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RelationStore":
        """Rebuild a store from its document form, re-deriving every record;
        a nation or record that does not parse, breaks an invariant or
        disagrees with the calculus is a SchemaError naming it."""
        if not isinstance(doc, dict):
            raise SchemaError("store: expected an object")
        store = cls()
        for i, raw in enumerate(_field(doc, "nations", list, "store")):
            try:
                store.register_nation(_nation_from_dict(raw))
            except (SchemaError, ValidationError) as err:
                raise _located(f"store.nations[{i}]", err) from None
        for i, raw in enumerate(_field(doc, "records", list, "store")):
            try:
                record = _record_from_dict(raw)
                store._check_pair(record.subject, record.object)
                windows = store._records.setdefault((record.subject, record.object), {})
                if record.window in windows:
                    raise ValidationError(f"duplicate record for {record.subject}->"
                                          f"{record.object}@{record.window}")
                windows[record.window] = record
            except (SchemaError, ValidationError) as err:
                raise _located(f"store.records[{i}]", err) from None
        return store

    def save(self, path: str | Path) -> None:
        _save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str | Path) -> "RelationStore":
        return cls.from_dict(_load_json(path))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationStore):
            return NotImplemented
        return self._nations == other._nations and self._records == other._records


def _record_to_dict(record: RelationRecord) -> dict:
    evaluation = record.evaluation
    return {
        "subject": record.subject,
        "object": record.object,
        "window": window_to_dict(record.window),
        "assessment_ref": record.assessment_ref,
        "weights": record.weights.as_dict(),
        "signs": record.signs.as_dict(),
        "evaluation": {
            "trust_mass": evaluation.trust_mass,
            "strength": evaluation.strength,
            "label": evaluation.label.value,
            "no_hostile": evaluation.no_hostile,
            "band_label": evaluation.band_label,
            "bounds": evaluation.bounds.as_dict(),
        },
    }


def _located(where: str, err: SchemaError | ValidationError) -> SchemaError:
    """``err``, raised reading the store item at ``where``, as a SchemaError
    naming it; a SchemaError's own location is relative to the item."""
    if isinstance(err, SchemaError):
        return SchemaError(f"{where}{err}")
    return SchemaError(f"{where}: {err}")


def _nation_from_dict(doc: dict) -> Nation:
    """One nation of a store document; errors are relative to it."""
    if not isinstance(doc, dict):
        raise SchemaError(": expected an object")
    return Nation(_field(doc, "id", str, ""), _field(doc, "name", str, "", ""),
                  _field(doc, "un_member", bool, "", True))


def _record_from_dict(doc: dict) -> RelationRecord:
    """Rebuild a stored record through the calculus: bounds from the stored
    weights and signs, the label from the stored trust mass, each equal to
    what was stored, and a strength no smaller than the trust mass's
    magnitude.  Strength minus trust mass is twice the weighted mass of
    the negatively signed categories, so when only hostile may be
    negative a ``no_hostile`` record has strength equal to its trust
    mass.  Band tables are not stored, so ``band_label`` is only
    type-checked.  Errors are relative to the record, for the caller,
    which knows its index, to locate."""
    if not isinstance(doc, dict):
        raise SchemaError(": expected an object")
    weights = WeightVector(**_fields(doc, "weights", _CATEGORY_NAMES, float))
    signs = ScalarConfig(**_fields(doc, "signs", _CATEGORY_NAMES, int))
    raw_eval = _field(doc, "evaluation", dict, "")
    bounds = compute_bounds(weights, signs)
    stored = _fields(raw_eval, "bounds", bounds.as_dict(), float, ".evaluation")
    if stored != bounds.as_dict():
        raise SchemaError(f".evaluation.bounds: {stored} are not the bounds of the weights and signs")
    trust_mass = _field(raw_eval, "trust_mass", float, ".evaluation")
    label = classify(trust_mass, bounds)
    stored = _field(raw_eval, "label", str, ".evaluation")
    if stored != label.value:
        raise SchemaError(f".evaluation.label: trust mass {trust_mass} is {label}, not {stored!r}")
    # trust mass sums +p or -p over the terms p whose sum is the strength
    strength = _field(raw_eval, "strength", float, ".evaluation")
    if strength < abs(trust_mass) - TOLERANCE:
        raise SchemaError(f".evaluation.strength: {strength} is below |trust mass| {abs(trust_mass)}")
    subject = _field(doc, "subject", str, "")
    object_ = _field(doc, "object", str, "")
    window = window_from_dict(_field(doc, "window", dict, ""), ".window")
    no_hostile = _field(raw_eval, "no_hostile", bool, ".evaluation")
    band_label = _field(raw_eval, "band_label", str, ".evaluation", None)
    evaluation = TrustEvaluation(trust_mass, strength, label, bounds, no_hostile, band_label)
    assessment_ref = _field(doc, "assessment_ref", str, "", None)
    record = RelationRecord(subject, object_, window, evaluation, weights, signs, assessment_ref)
    if (no_hostile and signs.neutral == signs.friendly == 1
            and abs(strength - trust_mass) > TOLERANCE):
        raise SchemaError(
            f".evaluation.no_hostile: true, but strength {strength} is not the trust mass {trust_mass}"
        )
    return record


def _fields(doc: dict, key: str, names, kind: type, where: str = "") -> dict:
    """The fields ``names`` of the object ``doc[key]``, each a ``kind``;
    errors are located at ``where``."""
    raw = _field(doc, key, dict, where)
    try:
        return {name: _field(raw, name, kind, "") for name in names}
    except SchemaError as err:  # its location is built only now
        raise SchemaError(f"{where}.{key}{err}") from None
