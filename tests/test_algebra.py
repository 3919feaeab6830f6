"""Unit tests for the scoring calculus."""

import dataclasses

import pytest

import trustrel as tr
from trustrel import RelationCategory as RC


class TestWeights:
    def test_accepts_generic_example(self):
        w = tr.WeightVector(0.45, 0.10, 0.45)
        assert w.hostile == 0.45 and w.neutral == 0.10 and w.friendly == 0.45

    def test_accepts_case_study(self):
        tr.WeightVector(0.40, 0.20, 0.40)

    def test_accepts_uniform(self):
        w = tr.WeightVector(1 / 3, 1 / 3, 1 / 3)
        assert abs(w.hostile + w.neutral + w.friendly - 1.0) <= 1e-9

    def test_rejects_bad_sum(self):
        with pytest.raises(tr.ValidationError, match="sum to 1"):
            tr.WeightVector(0.5, 0.5, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(tr.ValidationError, match=r"\[0, 1\]"):
            tr.WeightVector(-0.1, 0.6, 0.5)
        with pytest.raises(tr.ValidationError):
            tr.WeightVector(1.2, -0.1, -0.1)

    def test_rejects_nan(self):
        with pytest.raises(tr.ValidationError):
            tr.WeightVector(float("nan"), 0.5, 0.5)

    def test_zero_weight_is_accepted(self):
        tr.WeightVector(0.0, 0.5, 0.5)

    def test_indexing_by_category(self):
        w = tr.WeightVector(0.45, 0.10, 0.45)
        assert w[RC.NEUTRAL] == 0.10
        assert w.as_dict() == {"hostile": 0.45, "neutral": 0.10, "friendly": 0.45}


class TestSigns:
    def test_default_signs(self):
        assert tr.DEFAULT_SIGNS.hostile == -1
        assert tr.DEFAULT_SIGNS.neutral == 1
        assert tr.DEFAULT_SIGNS.friendly == 1

    def test_rejects_other_values(self):
        with pytest.raises(tr.ValidationError, match="sign"):
            tr.ScalarConfig(hostile=0)
        with pytest.raises(tr.ValidationError):
            tr.ScalarConfig(friendly=2)


class TestBounds:
    def test_generic_example(self, generic_weights):
        b = tr.compute_bounds(generic_weights)
        assert abs(b.lower - -0.45) <= 1e-12
        assert abs(b.upper - 0.55) <= 1e-12
        assert abs(b.middle_band_low - 0.0) <= 1e-12
        assert abs(b.middle_band_high - 0.10) <= 1e-12

    def test_case_study(self, case_weights):
        b = tr.compute_bounds(case_weights)
        assert abs(b.lower - -0.40) <= 1e-12
        assert abs(b.upper - 0.60) <= 1e-12
        assert abs(b.middle_band_low - 0.0) <= 1e-12
        assert abs(b.middle_band_high - 0.20) <= 1e-12

    def test_uniform_weights(self):
        # Hand-evaluated: lower -1/3, upper 2/3, middle band [0, 1/3].
        b = tr.compute_bounds(tr.WeightVector.uniform())
        assert abs(b.lower - -1 / 3) <= 1e-12
        assert abs(b.upper - 2 / 3) <= 1e-12
        assert abs(b.middle_band_low) <= 1e-12
        assert abs(b.middle_band_high - 1 / 3) <= 1e-12

    def test_scale_width_is_one(self, generic_weights, case_weights):
        for w in (generic_weights, case_weights, tr.WeightVector.uniform()):
            b = tr.compute_bounds(w)
            assert abs((b.upper - b.lower) - 1.0) <= 1e-9

    def test_negative_neutral_sign_shifts_band(self):
        # Flipping neutral to negative is a legal configuration: the
        # middle band moves below zero but the scale keeps width 1.
        w = tr.WeightVector(0.45, 0.10, 0.45)
        b = tr.compute_bounds(w, tr.ScalarConfig(neutral=-1))
        assert abs(b.lower - -0.55) <= 1e-12
        assert abs(b.upper - 0.45) <= 1e-12
        assert abs(b.middle_band_low - -0.10) <= 1e-12
        assert abs(b.middle_band_high - 0.0) <= 1e-12

    def test_degenerate_combination_rejected(self):
        # A negative friendly sign pushes the band top above the scale.
        w = tr.WeightVector(0.45, 0.10, 0.45)
        with pytest.raises(tr.ValidationError, match="degenerate"):
            tr.compute_bounds(w, tr.ScalarConfig(friendly=-1))

    def test_bounds_ordering_enforced(self):
        with pytest.raises(tr.ValidationError):
            tr.ScalarBounds(lower=0.0, upper=1.0, middle_band_low=0.8, middle_band_high=0.2)
        with pytest.raises(tr.ValidationError, match="width"):
            tr.ScalarBounds(lower=-0.2, upper=0.2, middle_band_low=0.0, middle_band_high=0.1)


class TestTrustMass:
    def test_generic_example(self, generic_weights):
        m = tr.CategoryMassVector(0.9, 0.6, 0.15)
        assert abs(tr.compute_trust_mass(m, generic_weights) - -0.2775) <= 1e-12

    def test_case_study(self, case_weights):
        m = tr.CategoryMassVector(0.0, 1.0, 0.70)
        assert abs(tr.compute_trust_mass(m, case_weights) - 0.48) <= 1e-12

    def test_zero_masses(self, generic_weights):
        m = tr.CategoryMassVector(0.0, 0.0, 0.0)
        assert tr.compute_trust_mass(m, generic_weights) == 0.0

    def test_mass_range_validated(self):
        with pytest.raises(tr.ValidationError):
            tr.CategoryMassVector(1.5, 0.0, 0.0)
        with pytest.raises(tr.ValidationError):
            tr.CategoryMassVector(0.0, -0.5, 0.0)

    def test_mass_sum_may_exceed_one(self):
        tr.CategoryMassVector(0.9, 0.6, 0.15)


class TestStrength:
    def test_generic_example(self, generic_weights):
        m = tr.CategoryMassVector(0.9, 0.6, 0.15)
        assert abs(tr.compute_strength(m, generic_weights) - 0.5325) <= 1e-12

    def test_case_study(self, case_weights):
        m = tr.CategoryMassVector(0.0, 1.0, 0.70)
        assert abs(tr.compute_strength(m, case_weights) - 0.48) <= 1e-12

    def test_zero_masses(self, case_weights):
        assert tr.compute_strength(tr.CategoryMassVector(0, 0, 0), case_weights) == 0.0


class TestClassify:
    def test_hostile(self, generic_weights):
        b = tr.compute_bounds(generic_weights)
        assert tr.classify(-0.2775, b) is RC.HOSTILE

    def test_friendly(self, case_weights):
        b = tr.compute_bounds(case_weights)
        assert tr.classify(0.48, b) is RC.FRIENDLY

    def test_neutral_inside_band(self, generic_weights):
        b = tr.compute_bounds(generic_weights)
        assert tr.classify(0.05, b) is RC.NEUTRAL

    def test_band_ends_are_neutral(self, generic_weights):
        b = tr.compute_bounds(generic_weights)
        assert tr.classify(b.middle_band_low, b) is RC.NEUTRAL
        assert tr.classify(b.middle_band_high, b) is RC.NEUTRAL

    def test_out_of_range_rejected(self, generic_weights):
        b = tr.compute_bounds(generic_weights)
        with pytest.raises(tr.ValidationError, match="outside"):
            tr.classify(0.7, b)
        with pytest.raises(tr.ValidationError):
            tr.classify(-0.46, b)
        with pytest.raises(tr.ValidationError, match="nan lies outside"):
            tr.classify(float("nan"), b)


class TestBandTable:
    def test_septuple_example(self, septuple_bands, generic_weights):
        septuple_bands.validate_against(tr.compute_bounds(generic_weights))
        assert tr.classify_extended(-0.2775, septuple_bands) == "Near-Hostile"

    def test_middle_band_point_maps_to_neutral_band(self, septuple_bands):
        assert tr.classify_extended(0.05, septuple_bands) == "Neutral"

    def test_last_band_includes_upper_end(self, septuple_bands):
        assert tr.classify_extended(0.55, septuple_bands) == "Friendly"

    def test_low_edge_inclusive_high_edge_exclusive(self, septuple_bands):
        assert tr.classify_extended(-0.30, septuple_bands) == "Near-Hostile"
        assert tr.classify_extended(0.10, septuple_bands) == "Weak-Friendly"

    def test_out_of_cover_rejected(self, septuple_bands):
        with pytest.raises(tr.ValidationError, match="cover"):
            tr.classify_extended(0.551, septuple_bands)
        with pytest.raises(tr.ValidationError, match="nan lies outside"):
            tr.classify_extended(float("nan"), septuple_bands)

    def test_gap_rejected(self, generic_weights):
        bounds = tr.compute_bounds(generic_weights)
        table = tr.BandTable(
            [
                tr.Band("low", -0.45, -0.10, RC.HOSTILE),
                tr.Band("mid", 0.0, 0.10, RC.NEUTRAL),
                tr.Band("high", 0.10, 0.55, RC.FRIENDLY),
            ]
        )
        with pytest.raises(tr.ValidationError, match="meet"):
            table.validate_against(bounds)

    def test_wrong_parent_region_rejected(self, generic_weights):
        bounds = tr.compute_bounds(generic_weights)
        table = tr.BandTable(
            [
                tr.Band("low", -0.45, 0.0, RC.HOSTILE),
                tr.Band("mid", 0.0, 0.20, RC.NEUTRAL),  # overruns the band top
                tr.Band("high", 0.20, 0.55, RC.FRIENDLY),
            ]
        )
        with pytest.raises(tr.ValidationError, match="parent"):
            table.validate_against(bounds)

    def test_incomplete_cover_rejected(self, generic_weights):
        bounds = tr.compute_bounds(generic_weights)
        table = tr.BandTable(
            [
                tr.Band("low", -0.45, 0.0, RC.HOSTILE),
                tr.Band("mid", 0.0, 0.10, RC.NEUTRAL),
            ]
        )
        with pytest.raises(tr.ValidationError, match="ends at"):
            table.validate_against(bounds)

    def test_empty_table_rejected(self, generic_weights):
        with pytest.raises(tr.ValidationError, match="no bands"):
            tr.BandTable([]).validate_against(tr.compute_bounds(generic_weights))

    def test_empty_table_classifies_no_score(self):
        with pytest.raises(tr.ValidationError, match="^band table has no bands$"):
            tr.classify_extended(0.1, tr.BandTable(()))

    @pytest.mark.parametrize("bands, message", [
        ([("h", -0.3, 0.0, RC.HOSTILE), ("n", 0.0, 0.2, RC.NEUTRAL), ("f", 0.2, 0.6, RC.FRIENDLY)],
         "first band starts at -0.3, scale starts at -0.4"),
        ([("h", -0.4, 0.0, RC.HOSTILE), ("n", 0.0, 0.0, RC.NEUTRAL), ("f", 0.0, 0.6, RC.FRIENDLY)],
         "band 'n' must have low < high, got [0.0, 0.0]"),
    ], ids=["first_band_off_the_scale", "empty_band"])
    def test_tiling_error_messages(self, bands, message):
        bounds = tr.compute_bounds(tr.WeightVector(0.4, 0.2, 0.4))
        with pytest.raises(tr.ValidationError) as err:
            tr.BandTable([tr.Band(*band) for band in bands]).validate_against(bounds)
        assert str(err.value) == message


class TestEvaluate:
    def test_generic_example(self, generic_weights):
        ev = tr.evaluate(tr.CategoryMassVector(0.9, 0.6, 0.15), generic_weights)
        assert abs(ev.trust_mass - -0.2775) <= 1e-12
        assert abs(ev.strength - 0.5325) <= 1e-12
        assert ev.label is RC.HOSTILE
        assert not ev.no_hostile

    def test_case_study(self, case_weights):
        ev = tr.evaluate(tr.CategoryMassVector(0.0, 1.0, 0.70), case_weights)
        assert abs(ev.trust_mass - 0.48) <= 1e-12
        assert abs(ev.strength - 0.48) <= 1e-12
        assert ev.label is RC.FRIENDLY
        assert ev.no_hostile

    def test_zero_masses_classify_neutral(self, generic_weights):
        ev = tr.evaluate(tr.CategoryMassVector(0.0, 0.0, 0.0), generic_weights)
        assert ev.trust_mass == 0.0
        assert ev.label is RC.NEUTRAL

    def test_matches_individual_steps(self, generic_weights, septuple_bands):
        m = tr.CategoryMassVector(0.9, 0.6, 0.15)
        ev = tr.evaluate(m, generic_weights, bands=septuple_bands)
        bounds = tr.compute_bounds(generic_weights)
        assert ev.bounds == bounds
        assert ev.trust_mass == tr.compute_trust_mass(m, generic_weights)
        assert ev.strength == tr.compute_strength(m, generic_weights)
        assert ev.label is tr.classify(ev.trust_mass, bounds)
        assert ev.band_label == tr.classify_extended(ev.trust_mass, septuple_bands)

    def test_no_hostile_tracks_weighted_hostile_mass(self, generic_weights):
        assert tr.evaluate(tr.CategoryMassVector(0.0, 0.2, 0.1), generic_weights).no_hostile
        assert not tr.evaluate(tr.CategoryMassVector(0.3, 0.2, 0.1), generic_weights).no_hostile
        w = tr.WeightVector(0.0, 0.5, 0.5)
        assert tr.evaluate(tr.CategoryMassVector(0.3, 0.2, 0.1), w).no_hostile

    def test_off_scale_evaluation_raises_classify_message(self, case_weights):
        bounds = tr.compute_bounds(case_weights)
        with pytest.raises(tr.ValidationError) as from_classify:
            tr.classify(0.7, bounds)
        with pytest.raises(tr.ValidationError) as from_evaluation:
            tr.TrustEvaluation(0.7, 0.7, RC.FRIENDLY, bounds, True)
        assert str(from_evaluation.value) == str(from_classify.value)
        assert str(from_classify.value).startswith("trust mass 0.7 lies outside the scale")


class TestInterpretation:
    def test_generic_example_is_fair_consistent(self, generic_weights):
        ev = tr.evaluate(tr.CategoryMassVector(0.9, 0.6, 0.15), generic_weights)
        flags = tr.interpret_strength(ev, 0.6)
        assert flags.fair_consistent
        assert not flags.no_hostile
        assert not flags.contradiction_prone

    def test_case_study_has_no_hostile(self, case_weights):
        ev = tr.evaluate(tr.CategoryMassVector(0.0, 1.0, 0.70), case_weights)
        flags = tr.interpret_strength(ev, 1.0)
        assert flags.no_hostile
        assert flags.fair_consistent

    def test_zero_evidence_raises_no_flags(self, generic_weights):
        ev = tr.evaluate(tr.CategoryMassVector(0.0, 0.0, 0.0), generic_weights)
        flags = tr.interpret_strength(ev, 0.0)
        assert not flags.contradiction_prone
        assert not flags.fair_consistent
        assert not flags.neutral_biased
        assert not flags.no_hostile

    def test_contradiction_prone_near_one(self):
        w = tr.WeightVector(0.45, 0.10, 0.45)
        ev = tr.evaluate(tr.CategoryMassVector(1.0, 1.0, 1.0), w)
        flags = tr.interpret_strength(ev, 1.0)
        assert flags.contradiction_prone

    def test_neutral_biased_uses_weighted_mass(self):
        # All evidence neutral: strength equals the weighted neutral mass.
        w = tr.WeightVector(0.3, 0.4, 0.3)
        ev = tr.evaluate(tr.CategoryMassVector(0.0, 1.0, 0.0), w)
        flags = tr.interpret_strength(ev, 1.0)
        assert flags.neutral_biased
        assert abs(flags.weighted_neutral_distance) <= 1e-9
        assert abs(flags.raw_neutral_distance - 0.6) <= 1e-9

    def test_no_hostile_flags_differ_under_a_positive_hostile_sign(self):
        # the evaluation's flag reads the weighted hostile mass, the
        # interpretation's only whether any evidence entered with a negative sign
        w, plus = tr.WeightVector(0.45, 0.10, 0.45), tr.ScalarConfig(1, 1, 1)
        ev = tr.evaluate(tr.CategoryMassVector(0.9, 0.6, 0.15), w, plus)
        assert not ev.no_hostile
        assert tr.interpret_strength(ev, 0.6).no_hostile
        assert ev.strength == ev.trust_mass > 0.0

    def test_delta_is_configurable(self, generic_weights):
        ev = tr.evaluate(tr.CategoryMassVector(0.9, 0.6, 0.15), generic_weights)
        assert not tr.interpret_strength(ev, 0.6, delta=0.01).fair_consistent
        assert tr.interpret_strength(ev, 0.6, delta=0.0).delta == 0.0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: tr.WeightVector(0.5, 1.5, -1.0), "neutral weight must lie in [0, 1], got 1.5"),
        (lambda: tr.WeightVector(-0.1, 0.6, 0.5), "hostile weight must lie in [0, 1], got -0.1"),
        (lambda: tr.CategoryMassVector(0.2, 0.3, 1.1), "friendly mass must lie in [0, 1], got 1.1"),
        (lambda: tr.ScalarConfig(neutral=0), "neutral sign must be -1 or +1, got 0"),
        (lambda: tr.ScalarConfig(hostile=2, friendly=0), "hostile sign must be -1 or +1, got 2"),
        (lambda: tr.ScalarConfig(True, 1.0, 1), "hostile sign must be -1 or +1, got True"),
        (lambda: tr.ScalarConfig(friendly=1.0), "friendly sign must be -1 or +1, got 1.0"),
    ],
)
def test_value_type_messages_name_the_first_bad_category(build, message):
    with pytest.raises(tr.ValidationError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "value",
    [
        tr.WeightVector(0.45, 0.10, 0.45),
        tr.ScalarConfig(-1, -1, 1),
        tr.CategoryMassVector(0.9, 0.6, 0.15),
        tr.compute_bounds(tr.WeightVector(0.45, 0.10, 0.45)),
        tr.interpret_strength(
            tr.evaluate(tr.CategoryMassVector(0.9, 0.6, 0.15), tr.WeightVector(0.45, 0.10, 0.45)),
            0.6,
        ),
        tr.SweepRow(0.25, -0.1, 0.4, "hostile", True),
    ],
    ids=lambda value: type(value).__name__,
)
def test_dict_form_is_the_fields_in_order(value):
    doc = value.as_dict()
    names = [f.name for f in dataclasses.fields(value)]
    assert list(doc) == names
    assert all(doc[name] is getattr(value, name) for name in names)
