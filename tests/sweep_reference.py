"""Per-point reference helpers for the what-if sweep tests."""

from dataclasses import replace

from trustrel.catalog import Assessment, _entry_index


def replace_entry_value(
    assessment: Assessment, property_id: str, value: float
) -> Assessment:
    """Copy an assessment with one entry's observed value replaced.

    The property must appear exactly once.
    """
    index = _entry_index(assessment, property_id)
    entries = list(assessment.entries)
    entries[index] = replace(entries[index], value=value)
    return replace(assessment, entries=tuple(entries))
