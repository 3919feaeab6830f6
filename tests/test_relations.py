"""Unit tests for the nation registry and relation store."""

import copy
import dataclasses
import datetime as dt
import json

import pytest

import trustrel
import trustrel as tr
from trustrel.cli import main

WINDOW = tr.DateWindow(dt.date(2001, 1, 1), dt.date(2005, 12, 31))
CASE_WEIGHTS = tr.WeightVector(0.40, 0.20, 0.40)


@pytest.fixture
def store():
    s = tr.RelationStore()
    s.register_nation(tr.Nation("USA", "United States of America", un_member=True))
    s.register_nation(tr.Nation("GBR", "Great Britain", un_member=True))
    s.register_nation(tr.Nation("FRA", "France", un_member=True))
    return s


def empty_assessment(subject, obj, window=WINDOW):
    return tr.Assessment(subject=subject, object=obj, window=window)


class TestRegistry:
    def test_register_and_lookup(self, store):
        assert store.nation("USA").name == "United States of America"
        assert [n.id for n in store.nations] == ["FRA", "GBR", "USA"]

    def test_duplicate_rejected(self, store):
        with pytest.raises(tr.ValidationError, match="already registered"):
            store.register_nation(tr.Nation("USA"))

    def test_unregistered_lookup_fails(self, store):
        with pytest.raises(tr.ValidationError, match="not registered"):
            store.nation("XYZ")


class TestEvaluateRelation:
    def test_case_study(self, store, catalog, usa_assessment):
        record = store.evaluate_relation(
            "USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS
        )
        assert record.label == "friendly"
        assert abs(record.evaluation.trust_mass - 0.48) <= 1e-12
        assert record.evaluation.no_hostile

    def test_self_relation_rejected(self, store, catalog, usa_assessment):
        with pytest.raises(tr.ValidationError, match="self-relation"):
            store.evaluate_relation(
                "USA", "USA", usa_assessment, catalog, CASE_WEIGHTS
            )

    def test_unregistered_nation_rejected(self, store, catalog, usa_assessment):
        with pytest.raises(tr.ValidationError, match="not registered"):
            store.evaluate_relation("USA", "XYZ", usa_assessment, catalog, CASE_WEIGHTS)

    def test_mismatched_assessment_rejected(self, store, catalog, usa_assessment):
        with pytest.raises(tr.ValidationError, match="covers"):
            store.evaluate_relation("GBR", "USA", usa_assessment, catalog, CASE_WEIGHTS)

    def test_invalid_assessment_rejected(self, store, catalog):
        bad = tr.Assessment(
            subject="USA",
            object="GBR",
            window=WINDOW,
            entries=(tr.AssessmentEntry("h.P9", 0.1),),
        )
        with pytest.raises(tr.ValidationError, match="h.P9"):
            store.evaluate_relation("USA", "GBR", bad, catalog, CASE_WEIGHTS)

    def test_validated_assessment_is_scanned_once_when_stored(
        self, store, catalog, usa_assessment, monkeypatch
    ):
        scans = []
        scan = trustrel.catalog._scan
        monkeypatch.setattr(trustrel.catalog, "_scan",
                            lambda *args: scans.append(args) or scan(*args))
        assessment = dataclasses.replace(usa_assessment)
        assert tr.validate_assessment(assessment, catalog).ok
        record = store.evaluate_relation("USA", "GBR", assessment, catalog, CASE_WEIGHTS)
        assert len(scans) == 1
        assert record == store.evaluate_relation(
            "USA", "GBR", dataclasses.replace(usa_assessment), catalog, CASE_WEIGHTS)
        assert len(scans) == 2
        # another mode, or an equal catalog that is another object, scans again
        store.evaluate_relation("USA", "GBR", assessment, catalog, CASE_WEIGHTS, mode="free")
        twin = tr.PropertyCatalog(catalog.version, catalog.properties)
        store.evaluate_relation("USA", "GBR", assessment, twin, CASE_WEIGHTS)
        assert len(scans) == 4

    def test_masses_kept_by_aggregation_do_not_skip_the_date_check(self, store, catalog):
        late = tr.EvidenceLink(dt.date(2009, 1, 1), "wire")
        assessment = tr.Assessment("USA", "GBR", WINDOW, (tr.AssessmentEntry("f.P1", 0.3, (late,)),))
        assert tr.aggregate_masses(assessment, catalog).friendly == 0.3
        with pytest.raises(tr.ValidationError) as err:
            store.evaluate_relation("USA", "GBR", assessment, catalog, CASE_WEIGHTS)
        assert str(err.value) == (
            "assessment is invalid: evidence for 'f.P1' dated 2009-01-01 "
            "falls outside the window 2001-01-01..2005-12-31"
        )
        assert store.records == ()

    def test_zero_evidence_is_neutral_not_undefined(self, store, catalog):
        record = store.evaluate_relation(
            "GBR", "USA", empty_assessment("GBR", "USA"), catalog, CASE_WEIGHTS
        )
        assert record.defined
        assert record.label == "neutral"
        assert record.evaluation.trust_mass == 0.0

    def test_replacement_same_window(self, store, catalog, usa_assessment):
        store.evaluate_relation("USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS)
        store.evaluate_relation(
            "USA", "GBR",
            tr.Assessment(subject="USA", object="GBR", window=usa_assessment.window),
            catalog, CASE_WEIGHTS,
        )
        assert len(store.records) == 1
        assert store.query_relation("USA", "GBR", WINDOW).label == "neutral"

    def test_distinct_windows_coexist(self, store, catalog):
        early = tr.DateWindow(dt.date(1990, 1, 1), dt.date(1999, 12, 31))
        store.evaluate_relation(
            "USA", "GBR", empty_assessment("USA", "GBR", early), catalog, CASE_WEIGHTS
        )
        store.evaluate_relation(
            "USA", "GBR", empty_assessment("USA", "GBR"), catalog, CASE_WEIGHTS
        )
        assert len(store.records) == 2


class TestQueryRelation:
    def test_contained_window_matches(self, store, catalog, usa_assessment):
        store.evaluate_relation("USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS)
        narrow = tr.DateWindow(dt.date(2002, 1, 1), dt.date(2003, 12, 31))
        assert store.query_relation("USA", "GBR", narrow).label == "friendly"

    def test_reverse_direction_stays_undefined(self, store, catalog, usa_assessment):
        store.evaluate_relation("USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS)
        record = store.query_relation("GBR", "USA", WINDOW)
        assert not record.defined
        assert record.label == "undefined"

    def test_overlap_without_containment_is_near_miss(self, store, catalog, usa_assessment):
        store.evaluate_relation("USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS)
        shifted = tr.DateWindow(dt.date(2004, 1, 1), dt.date(2007, 12, 31))
        record = store.query_relation("USA", "GBR", shifted)
        assert not record.defined
        assert len(record.near_misses) == 1
        assert "USA->GBR" in record.near_misses[0]

    def test_same_start_near_misses_keep_their_order_after_save_and_load(
        self, store, catalog, tmp_path
    ):
        # written long window first: insertion order would list it first
        for end in (dt.date(2000, 4, 10), dt.date(2000, 1, 1)):
            window = tr.DateWindow(dt.date(2000, 1, 1), end)
            store.evaluate_relation(
                "USA", "GBR", empty_assessment("USA", "GBR", window), catalog, CASE_WEIGHTS
            )
        query = tr.DateWindow(dt.date(2000, 1, 1), dt.date(2000, 7, 19))
        near = store.query_relation("USA", "GBR", query).near_misses
        assert near == (
            "USA->GBR@2000-01-01..2000-01-01",
            "USA->GBR@2000-01-01..2000-04-10",
        )
        store.save(tmp_path / "store.json")
        loaded = tr.RelationStore.load(tmp_path / "store.json")
        assert loaded.query_relation("USA", "GBR", query).near_misses == near

    def test_narrowest_containing_window_wins(self, store, catalog):
        wide = tr.DateWindow(dt.date(2000, 1, 1), dt.date(2009, 12, 31))
        store.evaluate_relation(
            "USA", "GBR", empty_assessment("USA", "GBR", wide), catalog, CASE_WEIGHTS
        )
        narrow_assessment = tr.Assessment(
            subject="USA", object="GBR", window=WINDOW,
            entries=(tr.AssessmentEntry("f.P1", 0.5), tr.AssessmentEntry("n.P1", 0.25)),
        )
        store.evaluate_relation("USA", "GBR", narrow_assessment, catalog, CASE_WEIGHTS)
        query = tr.DateWindow(dt.date(2002, 1, 1), dt.date(2003, 1, 1))
        assert store.query_relation("USA", "GBR", query).window == WINDOW

    def test_self_query_is_always_friendly(self, store):
        for window in (WINDOW, tr.DateWindow(dt.date(1800, 1, 1), dt.date(1800, 1, 2))):
            record = store.query_relation("USA", "USA", window)
            assert record.defined
            assert record.label == "friendly"
        assert len(store.records) == 0

    def test_no_transitive_inference(self, store, catalog):
        store.evaluate_relation(
            "USA", "GBR", empty_assessment("USA", "GBR"), catalog, CASE_WEIGHTS
        )
        store.evaluate_relation(
            "GBR", "FRA", empty_assessment("GBR", "FRA"), catalog, CASE_WEIGHTS
        )
        assert store.query_relation("USA", "FRA", WINDOW).label == "undefined"


class TestMatrix:
    def test_two_nations_one_direction(self, store, catalog, usa_assessment):
        store.evaluate_relation("USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS)
        matrix = store.relation_matrix(["USA", "GBR"], WINDOW)
        assert matrix == [["friendly", "friendly"], ["undefined", "friendly"]]

    def test_single_nation(self, store):
        assert store.relation_matrix(["USA"], WINDOW) == [["friendly"]]

    def test_empty_list(self, store):
        assert store.relation_matrix([], WINDOW) == []

    def test_unregistered_id_named(self, store):
        with pytest.raises(tr.ValidationError, match="XYZ"):
            store.relation_matrix(["USA", "XYZ"], WINDOW)


class TestOrderIndependence:
    def test_pair_evaluation_commutes(self, store, catalog):
        forward = tr.Assessment(
            subject="USA", object="GBR", window=WINDOW,
            entries=(tr.AssessmentEntry("f.P1", 0.5),),
        )
        backward = tr.Assessment(
            subject="GBR", object="USA", window=WINDOW,
            entries=(tr.AssessmentEntry("h.P1", 0.5),),
        )
        other = tr.RelationStore()
        for nation in store.nations:
            other.register_nation(nation)

        store.evaluate_relation("USA", "GBR", forward, catalog, CASE_WEIGHTS)
        store.evaluate_relation("GBR", "USA", backward, catalog, CASE_WEIGHTS)
        other.evaluate_relation("GBR", "USA", backward, catalog, CASE_WEIGHTS)
        other.evaluate_relation("USA", "GBR", forward, catalog, CASE_WEIGHTS)

        assert store.query_relation("USA", "GBR", WINDOW) == other.query_relation("USA", "GBR", WINDOW)
        assert store.query_relation("GBR", "USA", WINDOW) == other.query_relation("GBR", "USA", WINDOW)
        assert store == other

    def test_storing_one_direction_never_touches_the_other(self, store, catalog):
        before = store.query_relation("GBR", "USA", WINDOW)
        store.evaluate_relation(
            "USA", "GBR", empty_assessment("USA", "GBR"), catalog, CASE_WEIGHTS
        )
        after = store.query_relation("GBR", "USA", WINDOW)
        assert before == after
        assert not after.defined


class TestUnMemberGuarantee:
    def test_un_membership_evidence_never_leaves_relation_undefined(self, store, catalog):
        # With the neutral UN-membership property observed at cap, every
        # registered pair evaluates to a defined relation.
        assessment = tr.Assessment(
            subject="FRA", object="USA", window=WINDOW,
            entries=(tr.AssessmentEntry("n.P1", 0.25),),
        )
        store.evaluate_relation("FRA", "USA", assessment, catalog, CASE_WEIGHTS)
        record = store.query_relation("FRA", "USA", WINDOW)
        assert record.defined
        assert record.label != "undefined"


class TestConcurrency:
    def test_readers_stay_consistent_while_writer_replaces_records(self, store, catalog):
        import threading

        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    record = store.query_relation("USA", "GBR", WINDOW)
                    assert record.label in ("undefined", "friendly", "neutral", "hostile")
                    matrix = store.relation_matrix(["USA", "GBR"], WINDOW)
                    assert matrix[0][0] == "friendly" and matrix[1][1] == "friendly"
                except Exception as exc:  # surfaced after join
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for k in range(50):
            assessment = tr.Assessment(
                subject="USA", object="GBR", window=WINDOW,
                entries=(tr.AssessmentEntry("f.P1", 0.5 * (k % 2)),),
            )
            store.evaluate_relation("USA", "GBR", assessment, catalog, CASE_WEIGHTS)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []



class TestOneStoreState:
    """A save and a matrix each read one state of the store, even when a
    write lands between two of their reads."""

    def test_saved_store_loads_when_a_nation_and_its_record_land_mid_save(self, store, catalog):
        class WriteAfterNations(tr.RelationStore):
            wrote = False

            @property
            def nations(self):
                nations = super().nations
                if not self.wrote:
                    self.wrote = True
                    self.register_nation(tr.Nation("ZZZ"))
                    self.evaluate_relation(
                        "ZZZ", "USA", empty_assessment("ZZZ", "USA"), catalog, CASE_WEIGHTS
                    )
                return nations

        writing = WriteAfterNations()
        for nation in store.nations:
            writing.register_nation(nation)
        writing.evaluate_relation("USA", "GBR", empty_assessment("USA", "GBR"), catalog, CASE_WEIGHTS)
        loaded = tr.RelationStore.from_dict(writing.to_dict())
        assert [n.id for n in loaded.nations] == ["FRA", "GBR", "USA"]
        assert [(r.subject, r.object) for r in loaded.records] == [("USA", "GBR")]

    def test_matrix_is_one_store_state_when_writes_land_mid_matrix(
        self, store, catalog, usa_assessment, monkeypatch
    ):
        ids = ["USA", "GBR"]
        before = store.relation_matrix(ids, WINDOW)
        nation, calls = tr.RelationStore.nation, []

        def nation_then_write(self, nation_id):
            calls.append(nation_id)
            if len(calls) == 5:  # after the USA row, before the GBR->USA cell
                for subject, obj in [("USA", "GBR"), ("GBR", "USA")]:
                    pair = dataclasses.replace(usa_assessment, subject=subject, object=obj)
                    store.evaluate_relation(subject, obj, pair, catalog, CASE_WEIGHTS)
            return nation(self, nation_id)

        monkeypatch.setattr(tr.RelationStore, "nation", nation_then_write)
        during = store.relation_matrix(ids, WINDOW)
        monkeypatch.undo()
        after = store.relation_matrix(ids, WINDOW)
        assert before != after
        assert during in (before, after)

class TestPersistence:
    def test_round_trip(self, store, catalog, usa_assessment, tmp_path):
        store.evaluate_relation("USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS)
        store.evaluate_relation(
            "GBR", "FRA", empty_assessment("GBR", "FRA"), catalog, CASE_WEIGHTS
        )
        path = tmp_path / "store.json"
        store.save(path)
        loaded = tr.RelationStore.load(path)
        assert loaded == store
        assert loaded.query_relation("USA", "GBR", WINDOW).label == "friendly"

    def test_dict_round_trip(self, store, catalog, usa_assessment):
        store.evaluate_relation("USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS)
        assert tr.RelationStore.from_dict(store.to_dict()) == store

    def test_store_is_never_equal_to_another_type(self):
        assert tr.RelationStore().__eq__(1) is NotImplemented
        assert (tr.RelationStore() == 1) is False

    def test_malformed_store_is_schema_error(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text('{"nations": []}', encoding="utf-8")
        with pytest.raises(tr.SchemaError, match="records"):
            tr.RelationStore.load(path)


def _set(*path, value):
    """Break a store document by setting the field at ``path`` to ``value``."""
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return corrupt


def _append(key, item):
    return lambda doc: doc[key].append(copy.deepcopy(item(doc)))


# name -> (the location the error must name, how the document is broken).
# records[0] is GBR->FRA (no evidence, neutral), records[1] USA->GBR
# (trust mass 0.48, middle band [0, 0.2], friendly); nations are FRA, GBR, USA.
STORE_DEFECTS = {
    "unregistered subject": ("store.records[0]", _set("records", 0, "subject", value="XYZ")),
    "unregistered object": ("store.records[1]", _set("records", 1, "object", value="XYZ")),
    "self-relation": ("store.records[0]", _set("records", 0, "object", value="GBR")),
    "duplicate key": ("store.records[2]", _append("records", lambda doc: doc["records"][1])),
    "bounds unrelated to weights and signs": (
        "store.records[1].evaluation.bounds",
        _set("records", 1, "evaluation", "bounds", "middle_band_high", value=0.3)),
    "label unrelated to trust mass": (
        "store.records[1].evaluation.label",
        _set("records", 1, "evaluation", "label", value="hostile")),
    "string weight": ("store.records[0].weights.neutral",
                      _set("records", 0, "weights", "neutral", value="0.2")),
    "bool sign": ("store.records[0].signs.friendly",
                  _set("records", 0, "signs", "friendly", value=True)),
    "float sign": ("store.records[0].signs.hostile",
                   _set("records", 0, "signs", "hostile", value=-1.0)),
    "non-string nation id": ("store.nations[0].id", _set("nations", 0, "id", value=7)),
    "non-string record id": ("store.records[1].subject", _set("records", 1, "subject", value=7)),
    "non-bool un_member": ("store.nations[2].un_member",
                           _set("nations", 2, "un_member", value=1)),
    "duplicate nation": ("store.nations[3]", _append("nations", lambda doc: {"id": "USA"})),
    "weights not summing to 1": ("store.records[0]",
                                 _set("records", 0, "weights", "hostile", value=0.5)),
    "window start after end": ("store.records[1]",
                               _set("records", 1, "window", "start", value="2006-01-01")),
    "trust mass off the scale": ("store.records[1]",
                                 _set("records", 1, "evaluation", "trust_mass", value=2.0)),
    "strength above 1": ("store.records[1]",
                         _set("records", 1, "evaluation", "strength", value=1.5)),
    "strength below the trust mass": ("store.records[1].evaluation.strength",
                                      _set("records", 1, "evaluation", "strength", value=0.0)),
    "integer too large for a float": ("store.records[1].evaluation.strength",
                                      _set("records", 1, "evaluation", "strength", value=10**400)),
    "no_hostile with strength apart from the trust mass": (
        "store.records[1].evaluation.no_hostile",
        _set("records", 1, "evaluation", "strength", value=0.9)),
}


@pytest.mark.parametrize(
    "where, corrupt", STORE_DEFECTS.values(), ids=list(STORE_DEFECTS)
)
def test_store_load_rejects_what_it_cannot_rederive(
    where, corrupt, store, catalog, usa_assessment, tmp_path, capsys
):
    store.evaluate_relation("USA", "GBR", usa_assessment, catalog, CASE_WEIGHTS)
    store.evaluate_relation(
        "GBR", "FRA", empty_assessment("GBR", "FRA"), catalog, CASE_WEIGHTS
    )
    doc = store.to_dict()
    assert tr.RelationStore.from_dict(copy.deepcopy(doc)) == store
    corrupt(doc)
    with pytest.raises(tr.SchemaError) as err:
        tr.RelationStore.from_dict(doc)
    assert str(err.value).startswith(where)
    path = tmp_path / "store.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["matrix", "--store", str(path), "--window", "2001-01-01:2005-12-31"]) == 2
    assert where in capsys.readouterr().err
