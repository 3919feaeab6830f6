"""The dataclass contract of every frozen value type, one table for all.

All are declared with ``algebra._frozen``: a frozen dataclass whose
generated ``__init__`` fills the instance dict directly, and which shares
``algebra``'s one ``__eq__``, ``__hash__`` and ``__repr__``.  These tests
pin what a caller sees of them: fields in order, construction, ``replace``,
immutability, equality and hashing, ``repr``, pickling and copying, the
dict form, and every message a ``__post_init__`` raises.  They also pin
the structure that keeps import cheap (the only methods compiled from
generated source are ``__init__``, ``__setattr__`` and ``__delattr__``,
and the ``__init__`` is ``_frozen``'s)
and check the shared methods against a twin made by
``dataclasses.make_dataclass`` over drawn field values, on every
Python.  The one case where the twin differs, on 3.13 and later, is
pinned apart: two values holding the same NaN object.
"""

import copy
import dataclasses
import datetime as dt
import inspect
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trustrel as tr
from trustrel import RelationCategory as RC

H, N, F = RC.HOSTILE, RC.NEUTRAL, RC.FRIENDLY
DAY = dt.date(2002, 6, 1)
WINDOW = tr.DateWindow(dt.date(2001, 1, 1), dt.date(2005, 12, 31))
LINK = tr.EvidenceLink(DAY, "wire", "talks")
ENTRY = tr.AssessmentEntry("f.P1", 0.3, (LINK,))
WEIGHTS = tr.WeightVector(0.4, 0.2, 0.4)
BOUNDS = tr.ScalarBounds(-0.4, 0.6, 0.0, 0.2)
EVALUATION = tr.TrustEvaluation(0.12, 0.12, F, BOUNDS, True)
CALM = tr.Band("calm", 0.0, 0.2, N)
ROW = tr.SweepRow(0.25, 0.125, 0.5, "neutral", True)
UNIT_CAPS = (tr.PropertyDef("h", H, 1.0), tr.PropertyDef("n", N, 1.0), tr.PropertyDef("f", F, 1.0))
INTERPRETATION = tr.StrengthInterpretation(False, True, False, True, 0.1, 0.2, 0.1)

# (type, constructor arguments, field names in order, fields to replace)
VALUE_TYPES = [
    (tr.WeightVector, (0.4, 0.2, 0.4), ("hostile", "neutral", "friendly"),
     {"hostile": 0.2, "friendly": 0.6}),
    (tr.ScalarConfig, (-1, 1, 1), ("hostile", "neutral", "friendly"), {"neutral": -1}),
    (tr.ScalarBounds, (-0.4, 0.6, 0.0, 0.2),
     ("lower", "upper", "middle_band_low", "middle_band_high"), {"middle_band_high": 0.1}),
    (tr.CategoryMassVector, (0.1, 0.2, 0.3), ("hostile", "neutral", "friendly"), {"friendly": 1.0}),
    (tr.Band, ("calm", 0.0, 0.2, N), ("label", "low", "high", "parent"), {"parent": F}),
    (tr.BandTable, ((tr.Band("cold", -0.4, 0.0, H), CALM),), ("bands",), {"bands": (CALM,)}),
    (tr.TrustEvaluation, (0.12, 0.12, F, BOUNDS, True, None),
     ("trust_mass", "strength", "label", "bounds", "no_hostile", "band_label"),
     {"band_label": "calm"}),
    (tr.StrengthInterpretation, (False, True, False, True, 0.1, 0.2, 0.1),
     ("contradiction_prone", "fair_consistent", "neutral_biased", "no_hostile",
      "weighted_neutral_distance", "raw_neutral_distance", "delta"), {"delta": 0.05}),
    (tr.DateWindow, (dt.date(2001, 1, 1), dt.date(2005, 12, 31)), ("start", "end"),
     {"end": dt.date(2001, 1, 1)}),
    (tr.PropertyDef, ("f.P1", F, 0.5, "alliance"), ("id", "category", "cap", "description"),
     {"cap": 0.25}),
    (tr.PropertyCatalog, ("v1", UNIT_CAPS), ("version", "properties"), {"version": "v2"}),
    (tr.EvidenceLink, (DAY, "wire", "talks"), ("date", "source", "summary"), {"summary": ""}),
    (tr.AssessmentEntry, ("f.P1", 0.3, (LINK,)), ("property_id", "value", "evidence"),
     {"value": 0.5}),
    (tr.Assessment, ("USA", "GBR", WINDOW, (ENTRY,), "n"),
     ("subject", "object", "window", "entries", "notes"), {"notes": ""}),
    (tr.EvaluationReport,
     ("v1", "USA->GBR@2001-01-01..2005-12-31", WEIGHTS, tr.DEFAULT_SIGNS, BOUNDS,
      tr.CategoryMassVector(0.0, 0.0, 0.3), 0.12, 0.12, "neutral", INTERPRETATION, None),
     ("catalog_version", "assessment_ref", "weights", "signs", "bounds", "masses",
      "trust_mass", "strength", "label", "interpretation", "band_label"),
     {"band_label": "calm"}),
    (tr.SensitivitySpec, ("weight", "hostile", 0.0, 1.0, 0.5),
     ("target_kind", "target", "start", "stop", "step"), {"step": 0.25}),
    (tr.SweepRow, (0.25, 0.125, 0.5, "neutral", True),
     ("value", "trust_mass", "strength", "label", "flipped"), {"flipped": False}),
    (tr.SweepResult, ("weight", "hostile", "friendly", (ROW,), 0.25),
     ("target_kind", "target", "base_label", "rows", "first_flip"), {"first_flip": None}),
    (tr.Nation, ("USA", "United States", True), ("id", "name", "un_member"), {"un_member": False}),
    (tr.RelationRecord,
     ("USA", "GBR", WINDOW, EVALUATION, WEIGHTS, tr.DEFAULT_SIGNS, "ref", ("USA->GBR@x",)),
     ("subject", "object", "window", "evaluation", "weights", "signs", "assessment_ref",
      "near_misses"), {"near_misses": ()}),
]
CASES = pytest.mark.parametrize("cls, args, names, change", VALUE_TYPES,
                                ids=[case[0].__name__ for case in VALUE_TYPES])


def test_every_frozen_value_type_is_in_the_table():
    found = {
        obj for module in (tr.algebra, tr.catalog, tr.report, tr.relations)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen
    }
    assert found == {case[0] for case in VALUE_TYPES}
    assert len(found) == 20


@CASES
def test_fields_in_order_and_the_signature_they_give(cls, args, names, change):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    params = inspect.signature(cls).parameters
    assert tuple(params) == names
    for f in dataclasses.fields(cls):
        want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert params[f.name].default == want


@CASES
def test_construction_fills_each_field(cls, args, names, change):
    value = cls(*args)
    assert vars(value) == dict(zip(names, args))
    assert cls(**dict(zip(names, args))) == value
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
    if required:
        with pytest.raises(TypeError):
            cls(*args[:required - 1])
    else:
        assert cls() == cls(*[f.default for f in dataclasses.fields(cls)])


@CASES
def test_replace(cls, args, names, change):
    value = cls(*args)
    changed = dataclasses.replace(value, **change)
    assert changed == cls(**{**dict(zip(names, args)), **change})
    assert changed != value
    assert dataclasses.replace(value) == value


@CASES
def test_frozen_on_set_and_delete(cls, args, names, change):
    value = cls(*args)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert vars(value) == dict(zip(names, args))


@CASES
def test_equality_hash_and_repr(cls, args, names, change):
    value, twin = cls(*args), cls(*args)
    assert value == twin and value is not twin
    assert hash(value) == hash(twin) == hash(args)
    assert value != args
    shown = ", ".join(f"{name}={arg!r}" for name, arg in zip(names, args))
    assert repr(value) == f"{cls.__name__}({shown})"


@CASES
def test_eq_hash_and_repr_are_shared_and_only_three_methods_are_generated(
        cls, args, names, change):
    shared = (tr.algebra._eq, tr.algebra._hash, tr.algebra._repr)
    assert all(vars(cls)[name] is method
               for name, method in zip(("__eq__", "__hash__", "__repr__"), shared))
    assert cls.__match_args__ == names
    generated = {name for name, member in vars(cls).items()
                 if callable(member) and inspect.unwrap(member).__code__.co_filename == "<string>"}
    assert generated == {"__init__", "__setattr__", "__delattr__"}
    # _frozen's __init__ reads no name but the instance dict, which it fills
    # field by field, and __post_init__; the dataclass one stores each field
    # through object.__setattr__
    post_init = ("__post_init__",) if hasattr(cls, "__post_init__") else ()
    assert cls.__init__.__code__.co_names == ("__dict__",) + post_init


#: Field values for the twin comparison: -0.0 beside 0.0, 1 beside 1.0
#: and True, and values of every field type in the table.
FIELD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1, True, False, -1, None, "", "x", (), (LINK,), DAY, H, F]),
    st.floats(allow_nan=False), st.text(max_size=2))


def _bare(cls, values):
    """An instance holding ``values`` without running ``__init__``, so that
    values no ``__post_init__`` would accept reach the shared methods too."""
    value = cls.__new__(cls)
    value.__dict__.update(zip(_names(cls), values))
    return value


@CASES
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_shared_methods_match_a_generated_twin(cls, args, names, change, data):
    twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    known = [st.sampled_from([arg, change.get(name, arg)]) for name, arg in zip(names, args)]
    first = data.draw(st.tuples(*(st.one_of(v, FIELD_VALUES) for v in known)))
    other = data.draw(st.tuples(*(st.one_of(st.just(v), FIELD_VALUES) for v in first)))
    ours, theirs = (_bare(cls, first), _bare(cls, other)), (twin(*first), twin(*other))
    assert (ours[0] == ours[1]) == (theirs[0] == theirs[1])
    assert (ours[0] != ours[1]) == (theirs[0] != theirs[1])
    assert [hash(v) for v in ours] == [hash(v) for v in theirs]
    assert [repr(v) for v in ours] == [repr(v) for v in theirs]


@CASES
def test_another_class_or_a_subclass_is_not_implemented(cls, args, names, change):
    value, twin = cls(*args), dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    sub = type(f"Sub{cls.__name__}", (cls,), {})(*args)
    for other in (twin(*args), sub, args, object()):
        assert value.__eq__(other) is NotImplemented
        assert value != other
    assert sub.__eq__(value) is NotImplemented


@pytest.mark.parametrize("make", [
    lambda nan: tr.SweepRow(nan, 0.125, 0.5, "neutral", True),
    lambda nan: tr.Band("calm", 0.0, nan, N),
], ids=["SweepRow", "Band"])
def test_values_holding_one_nan_object_are_equal(make):
    # tuple comparison takes an identical object as equal, so the same NaN
    # object in both values compares equal; the field-by-field __eq__ that
    # dataclass() generates from Python 3.13 on finds them unequal
    assert make(math.nan) == make(math.nan) and hash(make(math.nan)) == hash(make(math.nan))
    assert make(float("nan")) != make(float("nan"))


@CASES
def test_pickle_and_deepcopy_round_trips(cls, args, names, change):
    value = cls(*args)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is cls
        assert copied == value and hash(copied) == hash(value)
        assert vars(copied) == vars(value)


@CASES
def test_dict_form_keeps_field_order(cls, args, names, change):
    value = cls(*args)
    assert dataclasses.asdict(value) == dataclasses.asdict(cls(*args))
    if hasattr(cls, "as_dict"):
        assert list(value.as_dict().items()) == list(zip(names, args))


def test_sequences_are_stored_as_tuples():
    assert tr.BandTable([CALM]).bands == (CALM,)
    assert tr.AssessmentEntry("f.P1", 0.3, [LINK]).evidence == (LINK,)
    assert tr.Assessment("USA", "GBR", WINDOW, [ENTRY]).entries == (ENTRY,)
    assert tr.PropertyCatalog("v1", list(UNIT_CAPS)).properties == UNIT_CAPS


# (case, type, constructor arguments, message), byte for byte
POST_INIT_ERRORS = [
    ("weight_range_hostile", tr.WeightVector, (1.5, -0.25, -0.25),
     "hostile weight must lie in [0, 1], got 1.5"),
    ("weight_range_neutral", tr.WeightVector, (0.5, -0.1, 0.6),
     "neutral weight must lie in [0, 1], got -0.1"),
    ("weight_range_friendly_nan", tr.WeightVector, (0.5, 0.5, math.nan),
     "friendly weight must lie in [0, 1], got nan"),
    ("weight_range_first_field_named", tr.WeightVector, (0.5, 2.0, -1.5),
     "neutral weight must lie in [0, 1], got 2.0"),
    ("weight_sum", tr.WeightVector, (0.5, 0.5, 0.5), "weights must sum to 1, got 1.5"),
    ("sign_hostile_zero", tr.ScalarConfig, (0, 1, 1), "hostile sign must be -1 or +1, got 0"),
    ("sign_neutral_bool", tr.ScalarConfig, (-1, True, 1),
     "neutral sign must be -1 or +1, got True"),
    ("sign_friendly_float", tr.ScalarConfig, (-1, 1, 1.0),
     "friendly sign must be -1 or +1, got 1.0"),
    ("sign_first_field_named", tr.ScalarConfig, (-1, 2, 0), "neutral sign must be -1 or +1, got 2"),
    ("bounds_order", tr.ScalarBounds, (0.0, 1.0, 0.5, 0.4),
     "bounds must satisfy lower <= middle_band_low <= middle_band_high <= upper, got "
     "ScalarBounds(lower=0.0, upper=1.0, middle_band_low=0.5, middle_band_high=0.4)"),
    ("bounds_width", tr.ScalarBounds, (0.0, 2.0, 0.5, 0.6),
     "interval scale must have total width 1, got 2.0"),
    ("mass_hostile", tr.CategoryMassVector, (1.5, 0.0, 0.0),
     "hostile mass must lie in [0, 1], got 1.5"),
    ("mass_neutral", tr.CategoryMassVector, (0.0, -0.5, 0.0),
     "neutral mass must lie in [0, 1], got -0.5"),
    ("mass_friendly_nan", tr.CategoryMassVector, (0.0, 0.0, math.nan),
     "friendly mass must lie in [0, 1], got nan"),
    ("mass_first_field_named", tr.CategoryMassVector, (2.0, 3.0, 0.0),
     "hostile mass must lie in [0, 1], got 2.0"),
    ("evaluation_off_scale", tr.TrustEvaluation, (2.0, 0.5, F, BOUNDS, True),
     "trust mass 2.0 lies outside the scale [-0.4, 0.6]"),
    ("evaluation_strength", tr.TrustEvaluation, (0.1, 1.5, F, BOUNDS, False),
     "strength must lie in [0, 1], got 1.5"),
    ("window_reversed", tr.DateWindow, (dt.date(2006, 1, 1), dt.date(2005, 12, 31)),
     "window start 2006-01-01 is after its end 2005-12-31"),
    ("property_id_empty", tr.PropertyDef, ("", F, 0.5), "property id must be non-empty"),
    ("property_cap", tr.PropertyDef, ("f.P1", F, 1.5), "cap of 'f.P1' must lie in [0, 1], got 1.5"),
    ("catalog_duplicate", tr.PropertyCatalog, ("v1", UNIT_CAPS + UNIT_CAPS[:1]),
     "duplicate property id 'h'"),
    ("catalog_total", tr.PropertyCatalog, ("v1", (tr.PropertyDef("h", H, 0.5),) + UNIT_CAPS[1:]),
     "hostile caps must total 1.0, got 0.5"),
    # summed left to right from 0 on every Python: sum() compensates from 3.12 on
    ("catalog_total_summed_in_order", tr.PropertyCatalog,
     ("v1", tuple(tr.PropertyDef(f"h{i}", H, cap) for i, cap in enumerate((0.7, 0.1, 0.2, 0.1, 0.3)))
      + UNIT_CAPS[1:]),
     "hostile caps must total 1.0, got 1.4000000000000001"),
    ("entry_value", tr.AssessmentEntry, ("f.P1", 1.5), "observed value for 'f.P1' must lie in [0, 1], got 1.5"),
    ("entry_value_nan", tr.AssessmentEntry, ("f.P1", math.nan, [LINK]),
     "observed value for 'f.P1' must lie in [0, 1], got nan"),
    ("spec_kind", tr.SensitivitySpec, ("size", "hostile", 0.0, 1.0, 0.5),
     "target kind must be one of ('weight', 'property'), got 'size'"),
    ("spec_category", tr.SensitivitySpec, ("weight", "up", 0.0, 1.0, 0.5),
     "weight target must be one of hostile, neutral, friendly, got 'up'"),
    ("spec_step", tr.SensitivitySpec, ("property", "f.P1", 0.0, 1.0, 0.0),
     "sweep step must be positive and finite, got 0.0"),
    ("spec_endpoint", tr.SensitivitySpec, ("property", "f.P1", 0.0, 1.5, 0.5),
     "sweep endpoints must lie in [0, 1], got 1.5"),
    ("spec_points", tr.SensitivitySpec, ("property", "f.P1", 0.0, 1.0, 1e-6),
     "sweep step 1e-06 makes more than 100001 grid points"),
    ("nation_id", tr.Nation, ("",), "nation id must be non-empty"),
]


@pytest.mark.parametrize("cls, args, message", [case[1:] for case in POST_INIT_ERRORS],
                         ids=[case[0] for case in POST_INIT_ERRORS])
def test_post_init_error_messages(cls, args, message):
    with pytest.raises(tr.TrustrelError) as err:
        cls(*args)
    assert type(err.value) is tr.ValidationError
    assert str(err.value) == message
    valid = next(case[1] for case in VALUE_TYPES if case[0] is cls)
    with pytest.raises(tr.ValidationError) as err:
        dataclasses.replace(cls(*valid), **dict(zip(_names(cls), args)))
    assert str(err.value) == message


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]
