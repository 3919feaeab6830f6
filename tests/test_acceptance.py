"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import datetime as dt
import json
import pathlib
import random

import pytest

import trustrel as tr
from trustrel import RelationCategory as RC
from trustrel.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
CATALOG_PATH = str(REPO_ROOT / "src" / "trustrel" / "data" / "default_catalog.json")
USA_PATH = str(FIXTURES / "usa_gbr_2001_2005.json")
RIVAL_PATH = str(FIXTURES / "rival_pair_1950s.json")

GOLDEN_TOL = 1e-12
PROP_TOL = 1e-9


def test_c1_golden_reproduction_generic_example():
    weights = tr.WeightVector(0.45, 0.10, 0.45)
    masses = tr.CategoryMassVector(0.9, 0.6, 0.15)
    ev = tr.evaluate(masses, weights)
    assert abs(ev.trust_mass - -0.2775) <= GOLDEN_TOL
    assert abs(ev.strength - 0.5325) <= GOLDEN_TOL
    assert ev.label is RC.HOSTILE
    assert abs(ev.bounds.lower - -0.45) <= GOLDEN_TOL
    assert abs(ev.bounds.upper - 0.55) <= GOLDEN_TOL
    assert abs(ev.bounds.middle_band_low - 0.0) <= GOLDEN_TOL
    assert abs(ev.bounds.middle_band_high - 0.10) <= GOLDEN_TOL
    print("ACCEPTANCE 1 PASS - golden generic example reproduced to 1e-12")


def test_c2_case_study_reproduction(catalog, usa_assessment):
    weights = tr.WeightVector(0.40, 0.20, 0.40)
    masses = tr.aggregate_masses(usa_assessment, catalog)
    assert abs(masses.hostile - 0.0) <= GOLDEN_TOL
    assert abs(masses.neutral - 1.0) <= GOLDEN_TOL
    assert abs(masses.friendly - 0.70) <= GOLDEN_TOL
    ev = tr.evaluate(masses, weights)
    assert abs(ev.trust_mass - 0.48) <= GOLDEN_TOL
    assert abs(ev.strength - 0.48) <= GOLDEN_TOL
    assert ev.label is RC.FRIENDLY
    assert ev.no_hostile
    print("ACCEPTANCE 2 PASS - case-study fixture reproduced to 1e-12")


def test_c3_catalog_fidelity(catalog):
    expected = {
        "h.P1": 0.5, "h.P2": 0.2, "h.P3": 0.075, "h.P4": 0.125,
        "h.P5": 0.05, "h.P6": 0.05,
        "n.P1": 0.25, "n.P2": 0.35, "n.P3": 0.40,
        "f.P1": 0.5, "f.P2": 0.2, "f.P3": 0.1, "f.P4": 0.1,
        "f.P5": 0.075, "f.P6": 0.025,
    }
    assert len(catalog.properties) == len(expected) == 15
    for prop_id, cap in expected.items():
        assert catalog.by_id[prop_id].cap == cap
    for category in tr.CATEGORIES:
        total = sum(p.cap for p in catalog.for_category(category))
        assert abs(total - 1.0) <= PROP_TOL
    print("ACCEPTANCE 3 PASS - shipped catalog caps match and total 1.0")


def _random_weights(rng):
    lo, hi = sorted((rng.randint(0, 1000), rng.randint(0, 1000)))
    parts = [lo / 1000.0, (hi - lo) / 1000.0, (1000 - hi) / 1000.0]
    rng.shuffle(parts)
    return tr.WeightVector(*parts)


def _band_table_for(bounds, rng):
    bands = []
    regions = (
        (bounds.lower, bounds.middle_band_low, RC.HOSTILE, "h"),
        (bounds.middle_band_low, bounds.middle_band_high, RC.NEUTRAL, "n"),
        (bounds.middle_band_high, bounds.upper, RC.FRIENDLY, "f"),
    )
    for low, high, parent, prefix in regions:
        width = high - low
        if width <= PROP_TOL:
            continue
        pieces = 1 if width <= 1e-6 else rng.randint(1, 3)
        edges = [low + width * k / pieces for k in range(pieces + 1)]
        edges[0], edges[-1] = low, high
        bands.extend(
            tr.Band(f"{prefix}{k}", edges[k], edges[k + 1], parent)
            for k in range(pieces)
        )
    return tr.BandTable(bands)


def test_c4_randomized_property_suite():
    rng = random.Random(20250809)
    cases = 10_000
    for i in range(cases):
        weights = _random_weights(rng)
        if i % 5 == 0:
            masses = tr.CategoryMassVector(0.0, rng.random(), rng.random())
        else:
            masses = tr.CategoryMassVector(rng.random(), rng.random(), rng.random())

        ev = tr.evaluate(masses, weights)
        bounds = ev.bounds
        # score range and strength range
        assert bounds.lower - PROP_TOL <= ev.trust_mass <= bounds.upper + PROP_TOL
        assert -PROP_TOL <= ev.strength <= 1.0 + PROP_TOL
        # strength gap identity
        gap = ev.strength - ev.trust_mass
        assert abs(gap - 2.0 * weights.hostile * masses.hostile) <= PROP_TOL
        # equality iff no weighted hostile mass
        product = weights.hostile * masses.hostile
        if product == 0.0:
            assert ev.trust_mass == ev.strength
        elif product > PROP_TOL:
            assert abs(ev.trust_mass - ev.strength) > PROP_TOL
        assert ev.no_hostile == (product == 0.0)
        # monotonicity in each mass
        bump = rng.random()
        lower_is_worse = tr.compute_trust_mass(
            tr.CategoryMassVector(min(1.0, masses.hostile + bump), masses.neutral, masses.friendly),
            weights,
        )
        assert lower_is_worse <= ev.trust_mass + GOLDEN_TOL
        for better in (
            tr.CategoryMassVector(masses.hostile, min(1.0, masses.neutral + bump), masses.friendly),
            tr.CategoryMassVector(masses.hostile, masses.neutral, min(1.0, masses.friendly + bump)),
        ):
            assert tr.compute_trust_mass(better, weights) >= ev.trust_mass - GOLDEN_TOL
        # classification consistency
        assert tr.classify(ev.trust_mass, bounds) is ev.label
        # extended-band parent agreement
        table = _band_table_for(bounds, rng)
        table.validate_against(bounds)
        band_label = tr.classify_extended(ev.trust_mass, table)
        edge_distance = min(
            min(abs(ev.trust_mass - b.low), abs(ev.trust_mass - b.high))
            for b in table.bands
        )
        if edge_distance > 2.0 * PROP_TOL:
            winning = next(b for b in table.bands if b.label == band_label)
            assert winning.parent is ev.label

    # weight normalization acceptance/rejection on raw triples
    for _ in range(cases):
        triple = [rng.uniform(-0.2, 1.2) for _ in range(3)]
        should_accept = all(0.0 <= x <= 1.0 for x in triple) and (
            abs(sum(triple) - 1.0) <= PROP_TOL
        )
        try:
            tr.WeightVector(*triple)
            accepted = True
        except tr.ValidationError:
            accepted = False
        assert accepted == should_accept
    print(f"ACCEPTANCE 4 PASS - {cases} randomized cases hold all invariants at 1e-9")


def _oracle_trust(h, n, f, wh, wn, wf):
    # straight-line reimplementation, kept independent of the library
    return h * -1.0 * wh + n * 1.0 * wn + f * 1.0 * wf


def _oracle_label(t, wh, wn, wf):
    lower = -wh
    upper = wn + wf
    middle_low = lower + wh
    middle_high = upper - wf
    if t < middle_low:
        return "hostile"
    if t <= middle_high:
        return "neutral"
    return "friendly"


def test_c5_oracle_equivalence():
    # full 0.05-step grid over masses and weights
    grid = [i / 20.0 for i in range(21)]
    mass_grid = [
        tr.CategoryMassVector(a, b, c) for a in grid for b in grid for c in grid
    ]
    checked = 0
    for i in range(21):
        for j in range(21 - i):
            weights = tr.WeightVector(i / 20.0, j / 20.0, (20 - i - j) / 20.0)
            wh, wn, wf = weights.hostile, weights.neutral, weights.friendly
            for m in mass_grid:
                library = tr.compute_trust_mass(m, weights)
                oracle = _oracle_trust(m.hostile, m.neutral, m.friendly, wh, wn, wf)
                assert abs(library - oracle) <= GOLDEN_TOL
                checked += 1
    assert checked == 231 * 21 ** 3

    catalog = tr.default_catalog()

    # sweep fixture 1: hostile weight 0.45 -> 0.05 on the rival pair
    rival = tr.load_assessment(RIVAL_PATH)
    h = n = f = 0.0
    for entry in rival.entries:
        prop = catalog.by_id[entry.property_id]
        if prop.category is RC.HOSTILE:
            h += entry.value
        elif prop.category is RC.NEUTRAL:
            n += entry.value
        else:
            f += entry.value
    spec = tr.SensitivitySpec("weight", "hostile", 0.45, 0.05, 0.05)
    result = tr.run_whatif(
        catalog, rival, tr.WeightVector(0.45, 0.10, 0.45), spec, mode="free"
    )
    base_label = _oracle_label(_oracle_trust(h, n, f, 0.45, 0.10, 0.45), 0.45, 0.10, 0.45)
    assert result.base_label == base_label
    oracle_flip = None
    assert len(result.rows) == 9
    for k, row in enumerate(result.rows):
        value = 0.45 - k * 0.05
        scale = (1.0 - value) / (0.10 + 0.45)
        wn, wf = 0.10 * scale, 0.45 * scale
        t = _oracle_trust(h, n, f, value, wn, wf)
        label = _oracle_label(t, value, wn, wf)
        assert abs(row.value - value) <= GOLDEN_TOL
        assert abs(row.trust_mass - t) <= GOLDEN_TOL
        assert row.label == label
        if oracle_flip is None and label != base_label:
            oracle_flip = value
    assert result.first_flip == oracle_flip
    assert abs(oracle_flip - 0.20) <= GOLDEN_TOL

    # sweep fixture 2: friendly war-ally value 0.5 -> 0 on the case study
    usa = tr.load_assessment(USA_PATH)
    base_f = sum(
        e.value for e in usa.entries if catalog.by_id[e.property_id].category is RC.FRIENDLY
    )
    base_n = sum(
        e.value for e in usa.entries if catalog.by_id[e.property_id].category is RC.NEUTRAL
    )
    spec2 = tr.SensitivitySpec("property", "f.P1", 0.5, 0.0, 0.05)
    result2 = tr.run_whatif(catalog, usa, tr.WeightVector(0.40, 0.20, 0.40), spec2)
    assert len(result2.rows) == 11
    for k, row in enumerate(result2.rows):
        value = max(0.5 - k * 0.05, 0.0)
        f_mass = base_f - 0.5 + value
        t = _oracle_trust(0.0, base_n, f_mass, 0.40, 0.20, 0.40)
        label = _oracle_label(t, 0.40, 0.20, 0.40)
        assert abs(row.trust_mass - t) <= GOLDEN_TOL
        assert row.label == label == "friendly"
    assert result2.first_flip is None
    print("ACCEPTANCE 5 PASS - grid and sweep rows match the independent oracle to 1e-12")


def _random_assessment(rng, catalog, subject, obj, window):
    entries = []
    for prop in catalog.properties:
        if rng.random() < 0.4:
            entries.append(
                tr.AssessmentEntry(
                    prop.id,
                    prop.cap * rng.choice((0.0, 0.25, 0.5, 1.0)),
                    (tr.EvidenceLink(window.start, "synthetic event log"),),
                )
            )
    return tr.Assessment(subject=subject, object=obj, window=window, entries=tuple(entries))


def test_c6_relation_store_laws(catalog):
    rng = random.Random(42)
    window = tr.DateWindow(dt.date(2000, 1, 1), dt.date(2009, 12, 31))
    weights = tr.WeightVector(0.40, 0.20, 0.40)
    ids = [f"N{k:02d}" for k in range(6)]

    for _ in range(40):
        store = tr.RelationStore()
        for nation_id in ids:
            store.register_nation(tr.Nation(nation_id))

        pairs = [(a, b) for a in ids for b in ids if a != b]
        rng.shuffle(pairs)
        chosen = pairs[: rng.randint(3, 8)]
        ops = [
            (a, b, _random_assessment(rng, catalog, a, b, window)) for a, b in chosen
        ]

        evaluated = set()
        for subject, obj, assessment in ops:
            others_before = {
                (r.subject, r.object): r
                for r in store.records
                if (r.subject, r.object) != (subject, obj)
            }
            store.evaluate_relation(subject, obj, assessment, catalog, weights)
            evaluated.add((subject, obj))
            # storing one direction never creates, modifies, or deletes others
            others_after = {
                (r.subject, r.object): r
                for r in store.records
                if (r.subject, r.object) != (subject, obj)
            }
            assert others_before == others_after

        # reflexive friendly diagonal
        for nation_id in ids:
            assert store.query_relation(nation_id, nation_id, window).label == "friendly"

        # unevaluated directions stay undefined; no symmetry, no transitivity
        for a in ids:
            for b in ids:
                if a == b or (a, b) in evaluated:
                    continue
                assert store.query_relation(a, b, window).label == "undefined"

        # order independence of the whole evaluation sequence
        reversed_store = tr.RelationStore()
        for nation_id in ids:
            reversed_store.register_nation(tr.Nation(nation_id))
        for subject, obj, assessment in reversed(ops):
            reversed_store.evaluate_relation(subject, obj, assessment, catalog, weights)
        assert reversed_store == store

    # explicit three-nation chain: (A,B) and (B,C) stored, (A,C) undefined
    store = tr.RelationStore()
    for nation_id in ("A", "B", "C"):
        store.register_nation(tr.Nation(nation_id))
    store.evaluate_relation(
        "A", "B", _random_assessment(rng, catalog, "A", "B", window), catalog, weights
    )
    store.evaluate_relation(
        "B", "C", _random_assessment(rng, catalog, "B", "C", window), catalog, weights
    )
    assert store.query_relation("A", "C", window).label == "undefined"
    assert store.query_relation("B", "A", window).label == "undefined"
    print("ACCEPTANCE 6 PASS - store laws hold over randomized operation sequences")


def test_c7_cli_determinism_and_round_trips(capsys, tmp_path, catalog, usa_assessment):
    for argv in (
        ["evaluate", "--catalog", CATALOG_PATH, "--assessment", USA_PATH,
         "--weights", "0.40,0.20,0.40", "--format", "json"],
        ["evaluate", "--catalog", CATALOG_PATH, "--assessment", RIVAL_PATH,
         "--weights", "0.45,0.10,0.45", "--cap-mode", "free", "--format", "json"],
    ):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        json.loads(first)  # and it is well-formed JSON

    # document round-trips: load(serialize(x)) == x
    assert tr.catalog_from_dict(tr.catalog_to_dict(catalog)) == catalog
    rival = tr.load_assessment(RIVAL_PATH)
    for assessment in (usa_assessment, rival):
        assert tr.assessment_from_dict(tr.assessment_to_dict(assessment)) == assessment

    store = tr.RelationStore()
    store.register_nation(tr.Nation("USA", "United States of America"))
    store.register_nation(tr.Nation("GBR", "Great Britain"))
    store.evaluate_relation(
        "USA", "GBR", usa_assessment, catalog, tr.WeightVector(0.40, 0.20, 0.40)
    )
    path = tmp_path / "store.json"
    store.save(path)
    assert tr.RelationStore.load(path) == store
    print("ACCEPTANCE 7 PASS - CLI output byte-identical; documents round-trip")
