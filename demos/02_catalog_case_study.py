"""Score the USA -> Great Britain relation for 2001-2005.

Evidence is organized by a property catalog: each observable kind of
event has a cap on how much mass it may contribute, and the caps of a
category total 1.  The shipped catalog plus an assessment of the real
2001-2005 window produce a friendly classification with no hostile
evidence at all.
"""

import pathlib

import trustrel as tr

REPO = pathlib.Path(__file__).resolve().parents[1]

catalog = tr.default_catalog()
print(f"catalog {catalog.version}: {len(catalog.properties)} properties")
for category in tr.CATEGORIES:
    caps = [p.cap for p in catalog.for_category(category)]
    print(f"  {category}: caps {caps} (total {sum(caps):.2f})")
print()

assessment = tr.load_assessment(REPO / "fixtures" / "usa_gbr_2001_2005.json")
print(f"assessment {assessment.ref}: {len(assessment.entries)} observed properties")
for entry in assessment.entries:
    print(f"  {entry.property_id} = {entry.value:<6} ({entry.evidence[0].summary})")
print()

# The validator reports every problem at once; this fixture is clean.
report = tr.validate_assessment(assessment, catalog)
print(f"validation: {'OK' if report.ok else report.violations}")

masses = tr.aggregate_masses(assessment, catalog)
print(f"masses: hostile={masses.hostile}  neutral={masses.neutral}  friendly={masses.friendly}")
print()

# 40:20:40 emphasis, reflecting how many properties each category has.
weights = tr.WeightVector(0.40, 0.20, 0.40)
evaluation = tr.evaluate(masses, weights)
print(f"trust mass = {evaluation.trust_mass:+.4f}")
print(f"strength   = {evaluation.strength:.4f}")
print(f"label      = {evaluation.label}")

# Trust mass and strength coincide exactly: no hostile property was
# observed, so nothing pulled the signed score below the unsigned one.
flags = tr.interpret_strength(evaluation, masses.neutral)
print(f"no hostile evidence: {flags.no_hostile}")
