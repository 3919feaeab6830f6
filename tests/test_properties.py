"""Property-based tests for the calculus invariants."""

import copy
import dataclasses
import datetime as dt
import json
import pathlib
import pickle
import sys
import tempfile
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import trustrel as tr
import trustrel.catalog
from trustrel import RelationCategory as RC
from trustrel.algebra import TOLERANCE
from trustrel.catalog import CAP_MODES
from trustrel.report import _WEIGHT_FRAMES

from sweep_reference import replace_entry_value

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def weight_vectors(draw):
    # Cut [0, 1] at two grid points so each weight is 0 or >= 0.001;
    # that keeps region widths well clear of the comparison tolerance.
    i = draw(st.integers(0, 1000))
    j = draw(st.integers(0, 1000))
    lo, hi = min(i, j), max(i, j)
    parts = [lo / 1000.0, (hi - lo) / 1000.0, (1000 - hi) / 1000.0]
    order = draw(st.permutations([0, 1, 2]))
    return tr.WeightVector(parts[order[0]], parts[order[1]], parts[order[2]])


mass_vectors = st.builds(tr.CategoryMassVector, units, units, units)


@given(weight_vectors(), mass_vectors)
def test_trust_mass_stays_on_the_scale(w, m):
    ev = tr.evaluate(m, w)
    assert ev.bounds.lower - 1e-9 <= ev.trust_mass <= ev.bounds.upper + 1e-9


@given(weight_vectors(), mass_vectors)
def test_strength_stays_in_unit_interval(w, m):
    assert -1e-9 <= tr.compute_strength(m, w) <= 1.0 + 1e-9


@given(weight_vectors())
def test_scale_width_equals_total_signed_weight(w):
    bounds = tr.compute_bounds(w)
    assert abs((bounds.upper - bounds.lower) - 1.0) <= 1e-9
    signed_total = sum(abs(tr.DEFAULT_SIGNS[c] * w[c]) for c in tr.CATEGORIES)
    assert abs(signed_total - 1.0) <= 1e-9


@given(weight_vectors(), mass_vectors)
def test_strength_gap_is_twice_weighted_hostile_mass(w, m):
    trust = tr.compute_trust_mass(m, w)
    strength = tr.compute_strength(m, w)
    assert abs((strength - trust) - 2.0 * w.hostile * m.hostile) <= 1e-9


@given(weight_vectors(), mass_vectors)
def test_trust_equals_strength_iff_no_weighted_hostile_mass(w, m):
    trust = tr.compute_trust_mass(m, w)
    strength = tr.compute_strength(m, w)
    product = w.hostile * m.hostile
    if product == 0.0:
        assert trust == strength
    elif product > 1e-9:
        assert abs(trust - strength) > 1e-9
    # products inside (0, 1e-9] sit below the comparison tolerance


@given(weight_vectors(), mass_vectors, units)
def test_monotone_in_each_mass(w, m, bump):
    base = tr.compute_trust_mass(m, w)
    more_hostile = tr.CategoryMassVector(min(1.0, m.hostile + bump), m.neutral, m.friendly)
    assert tr.compute_trust_mass(more_hostile, w) <= base + 1e-12
    more_neutral = tr.CategoryMassVector(m.hostile, min(1.0, m.neutral + bump), m.friendly)
    assert tr.compute_trust_mass(more_neutral, w) >= base - 1e-12
    more_friendly = tr.CategoryMassVector(m.hostile, m.neutral, min(1.0, m.friendly + bump))
    assert tr.compute_trust_mass(more_friendly, w) >= base - 1e-12


@given(weight_vectors(), mass_vectors)
def test_classify_agrees_with_evaluate(w, m):
    ev = tr.evaluate(m, w)
    assert tr.classify(ev.trust_mass, ev.bounds) is ev.label


@given(weight_vectors(), mass_vectors)
def test_no_hostile_flag_tracks_weighted_hostile_mass(w, m):
    ev = tr.evaluate(m, w)
    assert ev.no_hostile == (w.hostile * m.hostile == 0.0)


def _split_region(low, high, parent, prefix, pieces):
    width = high - low
    if width <= 1e-9:
        return []
    if width <= 1e-6:
        pieces = 1
    edges = [low + width * i / pieces for i in range(pieces + 1)]
    edges[0], edges[-1] = low, high
    return [
        tr.Band(f"{prefix}{i}", edges[i], edges[i + 1], parent)
        for i in range(pieces)
    ]


def build_band_table(bounds, hostile_pieces, neutral_pieces, friendly_pieces):
    bands = (
        _split_region(bounds.lower, bounds.middle_band_low, RC.HOSTILE, "h", hostile_pieces)
        + _split_region(bounds.middle_band_low, bounds.middle_band_high, RC.NEUTRAL, "n", neutral_pieces)
        + _split_region(bounds.middle_band_high, bounds.upper, RC.FRIENDLY, "f", friendly_pieces)
    )
    return tr.BandTable(bands)


@given(
    weight_vectors(),
    mass_vectors,
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_extended_band_parent_agrees_with_classify(w, m, kh, kn, kf):
    bounds = tr.compute_bounds(w)
    table = build_band_table(bounds, kh, kn, kf)
    table.validate_against(bounds)
    ev = tr.evaluate(m, w, bands=table)
    # At coinciding endpoints the half-open band convention may hand the
    # point to the neighbouring parent; skip those boundary cases.
    edge_distance = min(
        min(abs(ev.trust_mass - b.low), abs(ev.trust_mass - b.high))
        for b in table.bands
    )
    if edge_distance <= 2e-9:
        return
    winning = next(b for b in table.bands if b.label == ev.band_label)
    assert winning.parent is ev.label


@given(weight_vectors(), mass_vectors, weight_vectors(), mass_vectors)
def test_evaluation_order_does_not_matter(w1, m1, w2, m2):
    # Pure functions: evaluating two directions in either order yields
    # the same pair of results.
    first_then_second = (tr.evaluate(m1, w1), tr.evaluate(m2, w2))
    second_then_first = (tr.evaluate(m2, w2), tr.evaluate(m1, w1))
    assert first_then_second == (second_then_first[1], second_then_first[0])


raw_weights = st.floats(min_value=-0.2, max_value=1.2, allow_nan=False)


@given(raw_weights, raw_weights, raw_weights)
def test_weight_validation_accepts_exactly_the_normalized_triples(h, n, f):
    in_range = all(0.0 <= x <= 1.0 for x in (h, n, f))
    normalized = abs((h + n + f) - 1.0) <= 1e-9
    try:
        tr.WeightVector(h, n, f)
        accepted = True
    except tr.ValidationError:
        accepted = False
    assert accepted == (in_range and normalized)


@given(weight_vectors(), st.integers(0, 1000))
@settings(max_examples=200)
def test_reweight_preserves_normalization_and_ratio(w, thousandths):
    value = thousandths / 1000.0
    try:
        rescaled = tr.reweight(w, RC.HOSTILE, value)
    except tr.ValidationError:
        assert w.neutral + w.friendly == 0.0 and abs(1.0 - value) > 1e-9
        return
    assert abs(rescaled.hostile - value) <= 1e-12
    assert abs(rescaled.hostile + rescaled.neutral + rescaled.friendly - 1.0) <= 1e-9
    if w.friendly > 0.0 and rescaled.friendly > 0.0:
        assert abs(
            rescaled.neutral / rescaled.friendly - w.neutral / w.friendly
        ) <= 1e-9


# --- what-if sweeps against the per-point composition -----------------------

CATALOG = tr.default_catalog()
PROPERTY_IDS = [p.id for p in CATALOG.properties]
SIGN_CONFIGS = [
    tr.ScalarConfig(h, n, f) for h in (-1, 1) for n in (-1, 1) for f in (-1, 1)
]
# A negative friendly sign is degenerate unless the friendly weight is 0;
# drawing from the other four half the time keeps most sweeps valid.
sign_configs = st.one_of(
    st.sampled_from([s for s in SIGN_CONFIGS if s.friendly == 1]),
    st.sampled_from(SIGN_CONFIGS),
)
WINDOW = tr.DateWindow(dt.date(2001, 1, 1), dt.date(2005, 12, 31))


@st.composite
def zero_prone_weights(draw):
    # Cut [0, 1] at two points of a 0.05 grid: a weight is 0 often.
    i = draw(st.integers(0, 20))
    j = draw(st.integers(i, 20))
    parts = [i / 20.0, (j - i) / 20.0, (20 - j) / 20.0]
    order = draw(st.permutations([0, 1, 2]))
    return tr.WeightVector(parts[order[0]], parts[order[1]], parts[order[2]])


@st.composite
def swept_assessments(draw):
    """An assessment, a target entry and a grid; about half are invalid.

    The target's category holds two to five entries.  One draw in four
    may put values anywhere in [0, 1] (over cap, totals above 1), one
    in four sweeps all of [0, 1] instead of [0, cap], and one in five
    adds an entry whose property is already observed.  A non-finite step
    is rejected by ``SensitivitySpec`` itself, so none is drawn.
    """
    category = draw(st.sampled_from(tr.CATEGORIES))
    same = [p.id for p in CATALOG.for_category(category)]
    target = draw(st.sampled_from(same))
    rest = [pid for pid in same if pid != target]
    ids = [target] + draw(st.lists(st.sampled_from(rest), min_size=1, max_size=4, unique=True))
    ids += draw(st.lists(st.sampled_from([p for p in PROPERTY_IDS if p not in same]),
                         max_size=6, unique=True))
    if draw(st.integers(0, 4)) == 0:
        ids.append(draw(st.sampled_from(ids)))
    ids = draw(st.permutations(ids))
    loose = draw(st.integers(0, 3)) == 0
    values = [
        draw(st.one_of(st.floats(0.0, 1.0 if loose else cap), st.just(cap)))
        for cap in (CATALOG.by_id[pid].cap for pid in ids)
    ]
    entries = [tr.AssessmentEntry(pid, v) for pid, v in zip(ids, values)]
    assessment = tr.Assessment("AAA", "BBB", WINDOW, tuple(entries))
    top = 1.0 if draw(st.integers(0, 3)) == 0 else CATALOG.by_id[target].cap
    start, stop = draw(st.floats(0.0, top)), draw(st.floats(0.0, top))
    return assessment, category, target, (start, stop, draw(st.floats(0.02, 0.5)))


def _outcome(fn):
    try:
        return fn()
    except tr.ValidationError as err:
        return type(err), str(err)


def _reference_whatif(catalog, assessment, weights, spec, signs, mode):
    """The sweep as a fresh evaluation of every grid point."""
    base_masses = tr.aggregate_masses(assessment, catalog, mode=mode)
    base_label = tr.evaluate(base_masses, weights, signs).label.value
    rows, first_flip = [], None
    for value in spec.values():
        if spec.target_kind == "weight":
            point = tr.reweight(weights, spec.target_category(), value)
            ev = tr.evaluate(base_masses, point, signs)
        else:
            swept = replace_entry_value(assessment, spec.target, value)
            ev = tr.evaluate(tr.aggregate_masses(swept, catalog, mode=mode), weights, signs)
        flipped = ev.label.value != base_label
        if flipped and first_flip is None:
            first_flip = value
        rows.append(tr.SweepRow(value, ev.trust_mass, ev.strength, ev.label.value, flipped))
    return tr.SweepResult(spec.target_kind, spec.target, base_label, tuple(rows), first_flip)


@given(
    swept_assessments(),
    st.one_of(zero_prone_weights(), weight_vectors()),
    sign_configs,
    st.sampled_from(("strict", "free")),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_whatif_equals_per_point_evaluation(case, weights, signs, mode, sweep_weight):
    assessment, category, target, grid = case
    if sweep_weight:
        spec = tr.SensitivitySpec("weight", category.value, *grid)
    else:
        spec = tr.SensitivitySpec("property", target, *grid)
    args = (CATALOG, assessment, weights, spec, signs, mode)
    got = _outcome(lambda: tr.run_whatif(*args))
    want = _outcome(lambda: _reference_whatif(*args))
    assert got == want
    if isinstance(want, tr.SweepResult):
        # == treats 0.0 and -0.0 alike; the rendering does not
        assert got.to_json() == want.to_json()


# Category masses of exactly 1 + TOLERANCE (free mode) under weights that
# sum to within TOLERANCE of 1 pass every check of a point but the one
# named; the drawn cases above do not reach these two.  The swept f.P2
# moves from 0 (the valid base) to 1e-9, so the friendly mass reaches
# 1 + TOLERANCE.
EDGE_POINTS = {
    "strength": (
        [("h.P1", 1.0), ("n.P1", 1.0), ("f.P1", 1.0), ("f.P2", 0.0)],
        tr.WeightVector(0.3, 0.3, 0.4 + 9e-10), tr.DEFAULT_SIGNS,
        "strength must lie in [0, 1], got 1.0000000013",
    ),
    "outside_scale": (
        [("n.P1", 1.0), ("n.P2", 1e-9), ("f.P1", 1.0), ("f.P2", 0.0)],
        tr.WeightVector(0.0, 0.08, 1.0 - 0.08 - 9e-10), tr.ScalarConfig(1, 1, 1),
        "trust mass 1.0000000001000002 lies outside the scale [0, 0.9999999991]",
    ),
}


@pytest.mark.parametrize("entries, weights, signs, message", EDGE_POINTS.values(), ids=EDGE_POINTS)
def test_whatif_fails_at_a_point_past_only_its_last_check(entries, weights, signs, message):
    entries = tuple(tr.AssessmentEntry(pid, value) for pid, value in entries)
    assessment = tr.Assessment("AAA", "BBB", WINDOW, entries)
    spec = tr.SensitivitySpec("property", "f.P2", 0.0, 1e-9, 1e-9)
    args = (CATALOG, assessment, weights, spec, signs, "free")
    assert _outcome(lambda: _reference_whatif(*args)) == (tr.ValidationError, message)
    assert _outcome(lambda: tr.run_whatif(*args)) == (tr.ValidationError, message)


# Weight sweeps of the friendly weight from 0 that the drawn cases do not
# reliably reach: a negative friendly sign turns degenerate as soon as the
# weight leaves 0, and a subnormal hostile weight rescales to infinity.
WEIGHT_EDGE_POINTS = {
    "degenerate_scale": (
        tr.WeightVector(0.5, 0.5, 0.0), tr.ScalarConfig(-1, 1, -1),
        "degenerate sign/weight combination: bounds must satisfy lower <= middle_band_low"
        " <= middle_band_high <= upper, got ScalarBounds(lower=-0.55, upper=0.45,"
        " middle_band_low=-0.10000000000000003, middle_band_high=0.55)",
    ),
    "weight_range": (
        tr.WeightVector(5e-324, 0.0, 1.0), tr.DEFAULT_SIGNS,
        "hostile weight must lie in [0, 1], got inf",
    ),
}


@pytest.mark.parametrize("weights, signs, message", WEIGHT_EDGE_POINTS.values(), ids=WEIGHT_EDGE_POINTS)
def test_weight_whatif_fails_with_the_point_alone_error(weights, signs, message):
    entries = tuple(
        tr.AssessmentEntry(pid, value) for pid, value in [("h.P1", 0.5), ("n.P1", 0.25), ("f.P1", 0.5)]
    )
    assessment = tr.Assessment("AAA", "BBB", WINDOW, entries)
    spec = tr.SensitivitySpec("weight", "friendly", 0.0, 0.3, 0.1)
    args = (CATALOG, assessment, weights, spec, signs, "strict")
    assert _outcome(lambda: _reference_whatif(*args)) == (tr.ValidationError, message)
    assert _outcome(lambda: tr.run_whatif(*args)) == (tr.ValidationError, message)


# --- weight sweeps against the process's frame per swept category ---------

def _rendered(fn):
    """A sweep's rows and its three renderings, or its error."""
    try:
        result = fn()
    except tr.ValidationError as err:
        return type(err), str(err)
    return result.rows, result.to_json(), result.to_csv(), result.to_text()


def _assessment(pairs):
    entries = tuple(tr.AssessmentEntry(pid, value) for pid, value in pairs)
    return tr.Assessment("AAA", "BBB", WINDOW, entries)


# Free-mode masses of 1 + TOLERANCE in hostile and neutral, weights whose
# friendly share is 0 and a negative friendly sign: the first point of a
# friendly sweep up from 0 fails its strength or scale check, every later
# one the scale's weight check.  The scale's empty lower side prints as 0.
_AT_TOLERANCE = [("h.P1", 1.0), ("h.P2", 1e-9), ("n.P1", 1.0), ("n.P2", 1e-9), ("f.P1", 0.5)]
# Under all-negative signs an all-zero assessment scores -0.0 while the
# zero friendly weight is 0.0, and 0.0 once that weight is -0.0.
_ALL_ZERO = [("h.P1", 0.0), ("n.P1", 0.0)]


@given(
    swept_assessments(),
    st.one_of(zero_prone_weights(), weight_vectors()),
    st.sampled_from(SIGN_CONFIGS),
    st.sampled_from(("strict", "free")),
    st.booleans(),
)
@example(
    (_assessment(_AT_TOLERANCE), RC.FRIENDLY, None, (0.0, 0.2, 0.1)),
    tr.WeightVector(0.003, 1 - 9e-10 - 0.003, 0.0), tr.ScalarConfig(1, 1, -1), "free", True,
)
@example(
    (_assessment(_AT_TOLERANCE), RC.FRIENDLY, None, (0.0, 0.2, 0.1)),
    tr.WeightVector(0.016, 1 - 5e-10 - 0.016, 0.0), tr.ScalarConfig(1, 1, -1), "free", True,
)
@example(
    (_assessment(_ALL_ZERO), RC.HOSTILE, None, (0.0, 0.5, 0.25)),
    tr.WeightVector(0.5, 0.5, 0.0), tr.ScalarConfig(-1, -1, -1), "free", False,
)
@settings(max_examples=200, deadline=None)
def test_weight_sweep_is_the_same_cold_warm_evicted_and_per_signed_zero(
    case, weights, signs, mode, ascending
):
    assessment, category, _, (start, stop, step) = case
    low, high = sorted((start, stop))
    ends = (low, high) if ascending else (high, low)
    spec = tr.SensitivitySpec("weight", category.value, *ends, step)

    def run(w, grid=spec):
        return _rendered(lambda: tr.run_whatif(CATALOG, assessment, w, grid, signs, mode))

    _WEIGHT_FRAMES[:] = [None] * len(_WEIGHT_FRAMES)
    cold = run(weights)
    assert cold == _rendered(
        lambda: _reference_whatif(CATALOG, assessment, weights, spec, signs, mode))
    assert run(weights) == cold
    # every zero weight left unswept turned to -0.0: its own frame
    signed_zero = tr.WeightVector(*(
        -0.0 if c is not category and weights[c] == 0.0 else weights[c] for c in tr.CATEGORIES
    ))
    _WEIGHT_FRAMES[:] = [None] * len(_WEIGHT_FRAMES)
    cold_signed_zero = run(signed_zero)
    assert run(weights) == cold
    assert run(signed_zero) == cold_signed_zero
    # other profiles, then another grid, each evicting the category's frame
    for w in tr.WeightVector.uniform(), tr.WeightVector(0.6, 0.15, 0.25):
        run(w)
        assert run(weights) == cold
    finer = tr.SensitivitySpec("weight", category.value, low, high, step / 2)
    assert run(weights, finer) == _rendered(
        lambda: _reference_whatif(CATALOG, assessment, weights, finer, signs, mode))
    assert run(weights) == cold


def _enum_keyed_bounds(weights, signs):
    signed = {c: signs[c] * weights[c] for c in tr.CATEGORIES}
    # left to right from the int 0, not sum(), which compensates from Python 3.12 on
    lower = upper = 0
    for v in signed.values():
        if v < 0.0:
            lower += v
        elif v > 0.0:
            upper += v
    return lower, upper, lower + weights.hostile, upper - signed[RC.FRIENDLY]


@given(st.one_of(zero_prone_weights(), weight_vectors()), st.sampled_from(SIGN_CONFIGS))
# a compensated sum gives upper 0.9999999999999999 here, a left-to-right one 1.0
@example(tr.WeightVector(0.29, 0.02, 0.69), tr.ScalarConfig(1, 1, 1))
def test_bounds_match_enum_keyed_formula_in_value_and_type(weights, signs):
    want = _enum_keyed_bounds(weights, signs)
    got = _outcome(lambda: tr.compute_bounds(weights, signs))
    if isinstance(got, tr.ScalarBounds):
        got = (got.lower, got.upper, got.middle_band_low, got.middle_band_high)
        assert [repr(v) for v in got] == [repr(v) for v in want]
    else:
        assert got[1].startswith("degenerate sign/weight combination")


def _enum_keyed_reweight(weights, category, value):
    others = [c for c in tr.CATEGORIES if c is not category]
    scale = (1.0 - value) / (weights[others[0]] + weights[others[1]])
    scaled = {c: weights[c] * scale for c in others}
    scaled[category] = value
    return tuple(scaled[c] for c in tr.CATEGORIES)


@given(weight_vectors(), st.sampled_from(tr.CATEGORIES), units)
def test_reweight_matches_enum_keyed_formula(weights, category, value):
    others = [weights[c] for c in tr.CATEGORIES if c is not category]
    if others[0] + others[1] <= 0.0:
        return
    got = _outcome(lambda: tr.reweight(weights, category, value))
    if isinstance(got, tr.WeightVector):
        got = (got.hostile, got.neutral, got.friendly)
        assert got == _enum_keyed_reweight(weights, category, value)


# --- stores: round trip and single-field mutation ---------------------------

@st.composite
def valid_stores(draw):
    """A store built through ``evaluate_relation``: two to four nations and
    up to six records with drawn windows, entries, weights and signs, half
    of them classified against a band table as well."""
    store = tr.RelationStore()
    ids = draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC", "DDD"]),
                        min_size=2, max_size=4, unique=True))
    for nation_id in ids:
        store.register_nation(tr.Nation(nation_id, draw(st.text(max_size=3)), draw(st.booleans())))
    for _ in range(draw(st.integers(0, 6))):
        subject, object = draw(st.permutations(ids))[:2]
        start = dt.date(2000, 1, 1) + dt.timedelta(days=draw(st.integers(0, 3000)))
        window = tr.DateWindow(start, start + dt.timedelta(days=draw(st.integers(0, 3000))))
        pids = draw(st.lists(st.sampled_from(PROPERTY_IDS), max_size=6, unique=True))
        entries = tuple(tr.AssessmentEntry(p, draw(st.floats(0.0, CATALOG.by_id[p].cap)))
                        for p in pids)
        weights = draw(st.one_of(zero_prone_weights(), weight_vectors()))
        signs = draw(sign_configs)
        bounds = _outcome(lambda: tr.compute_bounds(weights, signs))
        if not isinstance(bounds, tr.ScalarBounds):
            continue  # degenerate sign/weight combination
        bands = build_band_table(bounds, 1, 2, 1) if draw(st.booleans()) else None
        if bands is not None and _outcome(lambda: bands.validate_against(bounds)) is not None:
            bands = None  # a zero-width region cannot hold a band
        assessment = tr.Assessment(subject, object, window, entries)
        store.evaluate_relation(subject, object, assessment, CATALOG, weights, signs, bands=bands)
    return store


@given(valid_stores())
@settings(max_examples=150, deadline=None)
def test_store_round_trips_exactly(store):
    assert tr.RelationStore.from_dict(store.to_dict()) == store
    with tempfile.TemporaryDirectory() as tmp:
        first, second = pathlib.Path(tmp) / "a.json", pathlib.Path(tmp) / "b.json"
        store.save(first)
        loaded = tr.RelationStore.load(first)
        assert loaded == store
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


_DELETE = object()
leaf_values = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.integers(-2, 2), st.floats(),
    st.text(max_size=4), st.sampled_from(["hostile", "neutral", "friendly", "AAA", "2001-01-01"]),
    st.just([]), st.just({}),
)


@given(valid_stores(), st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_store_is_rejected_or_agrees_with_the_calculus(store, data):
    original = json.dumps(store.to_dict())
    for *parents, last in _leaf_paths(store.to_dict()):
        doc = json.loads(original)
        node = doc
        for key in parents:
            node = node[key]
        old = node[last]
        values = leaf_values
        if isinstance(old, (int, float)) and not isinstance(old, bool):
            values = st.one_of(values, st.sampled_from([old + 1e-12, old - 1e-12, old + 0.25]))
        new = data.draw(values)
        if new is _DELETE:
            del node[last]
        else:
            node[last] = new
        doc = json.loads(json.dumps(doc))
        try:
            loaded = tr.RelationStore.from_dict(doc)
        except tr.SchemaError:
            continue
        registered = {nation.id for nation in loaded.nations}
        for record in loaded.records:
            evaluation = record.evaluation
            assert evaluation.bounds == tr.compute_bounds(record.weights, record.signs)
            assert evaluation.label is tr.classify(evaluation.trust_mass, evaluation.bounds)
            assert record.subject != record.object
            assert {record.subject, record.object} <= registered
        if new is not _DELETE:  # a deleted optional field comes back as its default
            # nothing stored is silently replaced by what the calculus derives
            assert _sorted_store(loaded.to_dict()) == _sorted_store(doc)


def _sorted_store(doc):
    """Nations and records in the order ``to_dict`` writes them."""
    return (
        sorted(doc["nations"], key=lambda n: n["id"]),
        sorted(doc["records"], key=lambda r: (r["subject"], r["object"],
                                              r["window"]["start"], r["window"]["end"])),
    )


# --- the one assessment scan against the two it replaced ---------------------

def _reference_aggregate(assessment, catalog, mode="strict"):
    """``aggregate_masses`` as it was before it shared its scan, with the
    strict-mode cap bounding a property's total too."""
    if mode not in CAP_MODES:
        raise tr.ValidationError(f"cap mode must be one of {CAP_MODES}, got {mode!r}")
    totals = {c: 0.0 for c in tr.CATEGORIES}
    observed: dict[str, float] = {}
    for entry in assessment.entries:
        prop = catalog.by_id.get(entry.property_id)
        if prop is None:
            raise tr.ValidationError(f"unknown property id {entry.property_id!r}")
        message = _reference_cap_breach(prop, entry.value, observed, mode)
        if message is not None:
            raise tr.ValidationError(message)
        totals[prop.category] += entry.value
    for category in tr.CATEGORIES:
        if totals[category] > 1.0 + TOLERANCE:
            raise tr.ValidationError(
                f"{category} mass {totals[category]} exceeds 1"
            )
    return tr.CategoryMassVector(
        hostile=totals[RC.HOSTILE],
        neutral=totals[RC.NEUTRAL],
        friendly=totals[RC.FRIENDLY],
    )


def _reference_cap_breach(prop, value, observed, mode):
    """The strict-mode cap breach of one entry, if any: its value above the
    cap, or the first entry after which its property's total, summed in
    entry order into ``observed``, is above the cap."""
    earlier = observed.get(prop.id)
    total = observed[prop.id] = value if earlier is None else earlier + value
    if mode != "strict":
        return None
    if value > prop.cap + TOLERANCE:
        return f"value {value} for {prop.id!r} exceeds its cap {prop.cap} (strict mode)"
    if total > prop.cap + TOLERANCE and (earlier is None or earlier <= prop.cap + TOLERANCE):
        return f"entries for {prop.id!r} total {total}, above its cap {prop.cap} (strict mode)"
    return None


def _reference_validate(assessment, catalog, mode="strict"):
    """``validate_assessment`` as it was before it shared its scan, with the
    strict-mode cap bounding a property's total too."""
    if mode not in CAP_MODES:
        raise tr.ValidationError(f"cap mode must be one of {CAP_MODES}, got {mode!r}")
    report = tr.AssessmentReport()
    totals = {c: 0.0 for c in tr.CATEGORIES}
    seen: set[str] = set()
    observed: dict[str, float] = {}
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
        message = _reference_cap_breach(prop, entry.value, observed, mode)
        if message is not None:
            report.violations.append(message)
        totals[prop.category] += entry.value
    for category in tr.CATEGORIES:
        if totals[category] > 1.0 + TOLERANCE:
            report.violations.append(
                f"{category} mass {totals[category]} exceeds 1"
            )
    return report


def _reference_evaluate_relation(assessment, catalog, mode, weights):
    """The record's evaluation as validate-then-aggregate produced it."""
    report = _reference_validate(assessment, catalog, mode)
    if not report.ok:
        raise tr.ValidationError("assessment is invalid: " + "; ".join(report.violations))
    return tr.evaluate(_reference_aggregate(assessment, catalog, mode), weights)


@st.composite
def scanned_assessments(draw):
    """Up to twelve entries drawn with replacement from the catalog and two
    unknown ids (so duplicates occur), valued under or anywhere above the
    cap (so totals pass 1), each with zero to two evidence links dated
    inside or outside the window."""
    entries = []
    for pid in draw(st.lists(st.sampled_from(PROPERTY_IDS + ["h.P99", "x.P1"]), max_size=12)):
        cap = CATALOG.by_id[pid].cap if pid in CATALOG.by_id else 1.0
        value = draw(st.one_of(st.floats(0.0, cap), st.just(cap), units))
        days = draw(st.lists(st.integers(-400, 2200), max_size=2))
        links = tuple(tr.EvidenceLink(WINDOW.start + dt.timedelta(days=d), "src") for d in days)
        entries.append(tr.AssessmentEntry(pid, value, links))
    return tr.Assessment("AAA", "BBB", WINDOW, tuple(entries))


@given(scanned_assessments(), st.sampled_from(("strict", "free", "lenient")))
@settings(max_examples=500, deadline=None)
def test_one_scan_matches_separate_aggregate_and_validate(assessment, mode):
    for run, reference in ((tr.aggregate_masses, _reference_aggregate),
                           (tr.validate_assessment, _reference_validate)):
        got = _outcome(lambda: run(assessment, CATALOG, mode))
        want = _outcome(lambda: reference(assessment, CATALOG, mode))
        assert got == want  # masses, or violations and warnings in order, or the error
    store = tr.RelationStore()
    for nation_id in ("AAA", "BBB"):
        store.register_nation(tr.Nation(nation_id))
    weights = tr.WeightVector(0.4, 0.2, 0.4)
    got = _outcome(lambda: store.evaluate_relation("AAA", "BBB", assessment, CATALOG, weights,
                                                   mode=mode).evaluation)
    assert got == _outcome(lambda: _reference_evaluate_relation(assessment, CATALOG, mode, weights))


# --- masses kept by a clean scan against a never-scanned copy ---------------

ROTATED = tr.PropertyCatalog("rotated", tuple(
    dataclasses.replace(p, category=tr.CATEGORIES[(tr.CATEGORIES.index(p.category) + 1) % 3])
    for p in CATALOG.properties
))


def _results(assessment, weights, signs, specs, mode):
    """What aggregate, report and sweeps return for ``assessment`` in
    ``mode``: masses bit for bit, the report and its three renderings,
    each sweep's rows and renderings; or the error each raises."""
    def masses():
        m = tr.aggregate_masses(assessment, CATALOG, mode)
        return [v.hex() for v in (m.hostile, m.neutral, m.friendly)]

    def report():
        r = tr.build_report(CATALOG, assessment, weights, signs, mode=mode)
        return r, r.to_json(), r.to_text(), r.to_csv()

    return [_outcome(masses), _outcome(report)] + [
        _rendered(lambda: tr.run_whatif(CATALOG, assessment, weights, spec, signs, mode))
        for spec in specs
    ]


@given(
    swept_assessments(),
    st.one_of(zero_prone_weights(), weight_vectors()),
    sign_configs,
    st.sampled_from(CAP_MODES),
)
@settings(max_examples=200, deadline=None)
def test_kept_masses_change_nothing_a_later_call_returns(case, weights, signs, mode):
    assessment, category, target, grid = case
    specs = (tr.SensitivitySpec("weight", category.value, *grid),
             tr.SensitivitySpec("property", target, *grid))

    def unscanned():
        return _results(dataclasses.replace(assessment), weights, signs, specs, mode)

    # a scan with an equal catalog that is another object, with one that
    # files each category's properties under the next category, or in the
    # other mode keeps masses (when clean) that no call in ``mode`` may be served
    twin = tr.PropertyCatalog(CATALOG.version, CATALOG.properties)
    other = "free" if mode == "strict" else "strict"
    for scan_catalog, scan_mode in ((twin, mode), (ROTATED, mode), (CATALOG, other)):
        tr.validate_assessment(assessment, scan_catalog, scan_mode)
        assert _results(assessment, weights, signs, specs, mode) == unscanned()
    tr.validate_assessment(assessment, CATALOG, mode)
    assert _results(assessment, weights, signs, specs, mode) == unscanned()
    fresh = dataclasses.replace(assessment)
    assert assessment == fresh and hash(assessment) == hash(fresh)
    assert repr(assessment) == repr(fresh)
    assert tr.assessment_to_dict(assessment) == tr.assessment_to_dict(fresh)
    assert dataclasses.asdict(assessment) == dataclasses.asdict(fresh)
    assert pickle.dumps(assessment) == pickle.dumps(fresh)
    assert vars(copy.deepcopy(assessment)) == vars(fresh)


def test_validate_then_report_and_sweep_scan_once(monkeypatch, usa_assessment):
    scans = []
    scan = trustrel.catalog._scan
    monkeypatch.setattr(trustrel.catalog, "_scan", lambda *args: scans.append(args) or scan(*args))
    assessment = dataclasses.replace(usa_assessment)
    weights = tr.WeightVector(0.4, 0.2, 0.4)
    assert tr.validate_assessment(assessment, CATALOG).ok
    tr.build_report(CATALOG, assessment, weights)
    assert len(scans) == 1
    tr.run_whatif(CATALOG, assessment, weights, tr.SensitivitySpec("weight", "hostile", 0, 1, 0.5))
    assert len(scans) == 1
    tr.build_report(CATALOG, assessment, weights, mode="free")
    assert len(scans) == 2
    # only validate_assessment keeps masses: the strict ones are still kept,
    # and aggregation without validating scans every time
    tr.build_report(CATALOG, assessment, weights)
    assert len(scans) == 2
    fresh = dataclasses.replace(usa_assessment)
    tr.aggregate_masses(fresh, CATALOG)
    tr.aggregate_masses(fresh, CATALOG)
    assert len(scans) == 4


def test_threads_sharing_an_assessment_get_their_own_masses(usa_assessment):
    assessment = dataclasses.replace(usa_assessment)
    keys = [(c, m) for c in (CATALOG, ROTATED) for m in CAP_MODES]
    want = {key: tr.aggregate_masses(dataclasses.replace(assessment), *key) for key in keys}
    assert want[CATALOG, "strict"] != want[ROTATED, "strict"]
    errors = []

    def work(key):
        try:
            for i in range(500):
                if i % 2:
                    assert tr.validate_assessment(assessment, *key).ok
                assert tr.aggregate_masses(assessment, *key) == want[key]
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(keys[i % len(keys)],)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# --- the pair-keyed store against the flat scan it replaced ------------------

class _FlatStore:
    """The store's former index: one map keyed (subject, object, start, end),
    queried by scanning every record (methods copied from the old store)."""

    def __init__(self, nations):
        self._nations = {nation.id: nation for nation in nations}
        self._records = {}

    def put(self, record):
        key = (record.subject, record.object, record.window.start, record.window.end)
        self._records[key] = record

    def nation(self, nation_id):
        found = self._nations.get(nation_id)
        if found is None:
            raise tr.ValidationError(f"nation {nation_id!r} is not registered")
        return found

    def query_relation(self, subject, object, window):
        self.nation(subject)
        self.nation(object)
        if subject == object:
            return self._self_record(subject, window)
        records = self._records
        containing = []
        overlapping = []
        for record in records.values():
            if record.subject != subject or record.object != object:
                continue
            if record.window.contains(window):
                containing.append(record)
            elif record.window.overlaps(window):
                overlapping.append(record)
        if containing:
            containing.sort(key=lambda r: (r.window.end - r.window.start, r.window.start))
            return containing[0]
        near = tuple(
            f"{record.subject}->{record.object}@{record.window}"
            for record in sorted(overlapping, key=lambda r: (r.window.start, r.window.end))
        )
        return tr.RelationRecord(subject=subject, object=object, window=window, near_misses=near)

    def relation_matrix(self, nation_ids, window):
        for nation_id in nation_ids:
            self.nation(nation_id)
        return [
            [self.query_relation(row, col, window).label for col in nation_ids]
            for row in nation_ids
        ]

    @staticmethod
    def _self_record(nation_id, window):
        weights = tr.WeightVector(0.0, 0.0, 1.0)
        evaluation = tr.evaluate(tr.CategoryMassVector(0.0, 0.0, 1.0), weights, tr.DEFAULT_SIGNS)
        return tr.RelationRecord(
            subject=nation_id,
            object=nation_id,
            window=window,
            evaluation=evaluation,
            weights=weights,
            signs=tr.DEFAULT_SIGNS,
            assessment_ref="synthesized self-relation",
        )


# Five dates 100 days apart: drawn windows share starts, nest, overlap
# and repeat, so replacements and near-miss ties are common.
INDEX_DATES = [dt.date(2000, 1, 1) + dt.timedelta(days=100 * k) for k in range(5)]
INDEX_WINDOWS = [tr.DateWindow(a, b) for a in INDEX_DATES for b in INDEX_DATES if a <= b]


@st.composite
def store_writes(draw):
    """Three or four nations and up to twelve ``evaluate_relation`` writes,
    each with one property value and its own weights."""
    ids = ["AAA", "BBB", "CCC", "DDD"][:draw(st.integers(3, 4))]
    writes = []
    for _ in range(draw(st.integers(0, 12))):
        subject, object = draw(st.permutations(ids))[:2]
        pid = draw(st.sampled_from(PROPERTY_IDS))
        entry = tr.AssessmentEntry(pid, draw(st.floats(0.0, CATALOG.by_id[pid].cap)))
        window = draw(st.sampled_from(INDEX_WINDOWS))
        writes.append((tr.Assessment(subject, object, window, (entry,)), draw(weight_vectors())))
    return ids, writes


@given(store_writes())
@settings(max_examples=300, deadline=None)
def test_pair_index_answers_like_the_flat_scan(case):
    ids, writes = case
    store = tr.RelationStore()
    for nation_id in ids:
        store.register_nation(tr.Nation(nation_id))
    flat = _FlatStore(store.nations)
    for assessment, weights in writes:
        flat.put(store.evaluate_relation(assessment.subject, assessment.object,
                                         assessment, CATALOG, weights))
    # ``records`` and so ``save`` list records in the flat map's key order
    assert store.records == tuple(flat._records[key] for key in sorted(flat._records))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "store.json"
        store.save(path)
        loaded = tr.RelationStore.load(path)
    matrix_ids = ids + ["ZZZ"] if len(writes) % 2 else ids  # an unregistered id fails alike
    for window in INDEX_WINDOWS:
        for subject in ids:
            for object in ids:  # both directions and the diagonal
                # records compare their near_misses tuples as well, so the
                # loaded store answers exactly like the one it was saved from
                want = flat.query_relation(subject, object, window)
                assert store.query_relation(subject, object, window) == want
                assert loaded.query_relation(subject, object, window) == want
        want = _outcome(lambda: flat.relation_matrix(matrix_ids, window))
        assert _outcome(lambda: store.relation_matrix(matrix_ids, window)) == want
        assert _outcome(lambda: loaded.relation_matrix(matrix_ids, window)) == want
