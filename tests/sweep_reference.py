"""Per-point reference helpers for the what-if sweep tests."""

from dataclasses import replace

from trustrel import Assessment, ValidationError


def replace_entry_value(
    assessment: Assessment, property_id: str, value: float
) -> Assessment:
    """Copy an assessment with one entry's observed value replaced.

    The property must appear exactly once.
    """
    positions = [i for i, e in enumerate(assessment.entries) if e.property_id == property_id]
    if len(positions) != 1:
        raise ValidationError(
            f"expected exactly one entry for {property_id!r}, found {len(positions)}"
        )
    entries = list(assessment.entries)
    entries[positions[0]] = replace(entries[positions[0]], value=value)
    return replace(assessment, entries=tuple(entries))
