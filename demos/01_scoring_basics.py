"""Walk through the scoring calculus on a worked two-nation example.

An observer weighs the three relation categories, aggregated evidence
masses arrive per category, and the signed weighted sum lands on an
interval scale whose middle band separates hostile from neutral from
friendly.
"""

import trustrel as tr

# The observer cares equally about hostile and friendly signals and
# only a little about neutral background noise.
weights = tr.WeightVector(0.45, 0.10, 0.45)
print("weights:", weights.as_dict())

# Hostile evidence counts against the score; the rest counts toward it.
print("signs:  ", tr.DEFAULT_SIGNS.as_dict())

# The interval scale those choices induce.  Its total width is always 1.
bounds = tr.compute_bounds(weights)
print(f"scale:   [{bounds.lower:+.4f}, {bounds.upper:+.4f}]")
print(f"neutral band: [{bounds.middle_band_low:.4f}, {bounds.middle_band_high:.4f}]")
print()

# A decade with a war, some sanctions, plenty of diplomatic contact,
# and a little residual goodwill.
masses = tr.CategoryMassVector(hostile=0.9, neutral=0.6, friendly=0.15)
print("evidence masses:", masses.as_dict())

trust = tr.compute_trust_mass(masses, weights)
strength = tr.compute_strength(masses, weights)
print(f"trust mass = {trust:+.4f}   (signed: where the relation sits)")
print(f"strength   = {strength:.4f}    (unsigned: how much evidence backs it)")

label = tr.classify(trust, bounds)
print(f"classification: {label}")
print()

# The one-call version bundles all of the steps.
evaluation = tr.evaluate(masses, weights)
assert evaluation.trust_mass == trust and evaluation.label is label

# Strength near 0.5 reads as a consistent, fairly supported verdict.
flags = tr.interpret_strength(evaluation, masses.neutral)
print("interpretation flags:")
for name, value in flags.as_dict().items():
    print(f"  {name} = {value}")
