"""Independent oracle and failure accounting for the trustrel benchmark.

The oracle never calls trustrel.  It recomputes every trust mass as
sum(value x sign x weight) from the generated documents, every label
from the middle-band rule, and every store read from a plain
dict-of-lists reference, then compares them with what the program
returned.  Each check returns a list of problems; an empty list means
the outcome matched.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import date

CATEGORIES = ("hostile", "neutral", "friendly")
DEFAULT_SIGNS = (-1, 1, 1)
#: Agreement required between the program and the oracle.
EPS = 1e-12
#: The calculus' own tolerance for "category mass exceeds 1".
MASS_TOLERANCE = 1e-9
#: Text and CSV renderings print six decimals.
RENDER_EPS = 5e-7 + EPS

Weights = tuple[float, float, float]


def props_by_id(props) -> dict[str, tuple[str, float]]:
    """id -> (category, cap) from generator (id, category, cap) triples."""
    return {p[0]: (p[1], p[2]) for p in props}


def masses(doc: dict, catalog: dict[str, tuple[str, float]],
           replace: tuple[str, float] | None = None) -> Weights:
    """Per-category sums of observed values, in entry order.

    ``replace`` swaps one property's value first, as a property sweep does.
    """
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for entry in doc["entries"]:
        value = entry["value"]
        if replace is not None and entry["property"] == replace[0]:
            value = replace[1]
        totals[catalog[entry["property"]][0]] += value
    return (totals["hostile"], totals["neutral"], totals["friendly"])


def bounds(weights: Weights) -> tuple[float, float, float, float]:
    """(lower, upper, middle_band_low, middle_band_high) of the scale."""
    signed = [s * w for s, w in zip(DEFAULT_SIGNS, weights)]
    lower = sum(v for v in signed if v < 0.0)
    upper = sum(v for v in signed if v > 0.0)
    return (lower, upper, lower + weights[0], upper - signed[2])


def trust_mass(m: Weights, weights: Weights) -> float:
    s = DEFAULT_SIGNS
    return m[0] * s[0] * weights[0] + m[1] * s[1] * weights[1] + m[2] * s[2] * weights[2]


def strength(m: Weights, weights: Weights) -> float:
    return m[0] * weights[0] + m[1] * weights[1] + m[2] * weights[2]


def labels_for(tm: float, scale: tuple[float, float, float, float]) -> set[str]:
    """Labels the middle-band rule allows for ``tm``.

    Hostile below the band, neutral inside it (both ends closed),
    friendly above.  Within EPS of a band edge either side is accepted.
    """
    _, _, low, high = scale
    if tm < low:
        labels = {"hostile"}
    elif tm <= high:
        labels = {"neutral"}
    else:
        labels = {"friendly"}
    if abs(tm - low) <= EPS:
        labels |= {"hostile", "neutral"}
    if abs(tm - high) <= EPS:
        labels |= {"neutral", "friendly"}
    return labels


def band_labels_for(tm: float, bands_doc: dict) -> set[str]:
    """Band labels allowed for ``tm``: a band holds its low edge, not its
    high edge, except the last band, which holds both."""
    bands = bands_doc["bands"]
    allowed = set()
    for i, band in enumerate(bands):
        below_high = tm <= band["high"] + EPS if i == len(bands) - 1 else tm < band["high"] + EPS
        if band["low"] - EPS <= tm and below_high:
            allowed.add(band["label"])
    return allowed


def expected_violations(doc: dict, catalog: dict[str, tuple[str, float]]) -> int:
    """Number of violations strict validation must report for ``doc``."""
    start = date.fromisoformat(doc["window"]["start"])
    end = date.fromisoformat(doc["window"]["end"])
    count = 0
    totals = dict.fromkeys(CATEGORIES, 0.0)
    for entry in doc["entries"]:
        for link in entry["evidence"]:
            if not start <= date.fromisoformat(link["date"]) <= end:
                count += 1
        if entry["property"] not in catalog:
            count += 1
            continue
        category, cap = catalog[entry["property"]]
        if entry["value"] > cap:
            count += 1
        totals[category] += entry["value"]
    return count + sum(1 for total in totals.values() if total > 1.0 + MASS_TOLERANCE)


def _close(name: str, got: float, want: float, eps: float = EPS) -> list[str]:
    if abs(got - want) <= eps:
        return []
    return [f"{name}: got {got!r}, oracle {want!r}"]


def check_evaluation(evaluation, m: Weights, weights: Weights,
                     bands_doc: dict | None = None) -> list[str]:
    """Check a TrustEvaluation-like object (trust_mass, strength, label,
    bounds, band_label) against the recomputed values."""
    tm = trust_mass(m, weights)
    scale = bounds(weights)
    problems = _close("trust_mass", evaluation.trust_mass, tm)
    problems += _close("strength", evaluation.strength, strength(m, weights))
    got = evaluation.bounds
    for name, want in zip(("lower", "upper", "middle_band_low", "middle_band_high"), scale):
        problems += _close(f"bounds.{name}", getattr(got, name), want)
    label = evaluation.label if isinstance(evaluation.label, str) else evaluation.label.value
    if label not in labels_for(tm, scale):
        problems.append(f"label {label!r} for trust mass {tm!r}, scale {scale}")
    if bands_doc is not None and evaluation.band_label not in band_labels_for(tm, bands_doc):
        problems.append(f"band label {evaluation.band_label!r} for trust mass {tm!r}")
    if bands_doc is None and evaluation.band_label is not None:
        problems.append(f"unexpected band label {evaluation.band_label!r}")
    return problems


def check_report(report, doc: dict, catalog, weights: Weights,
                 bands_doc: dict | None = None) -> list[str]:
    """Check an EvaluationReport: echoed masses plus the evaluation."""
    m = masses(doc, catalog)
    problems = []
    for name, want in zip(CATEGORIES, m):
        problems += _close(f"masses.{name}", getattr(report.masses, name), want)
    return problems + check_evaluation(report, m, weights, bands_doc)


def check_rendering(fmt: str, text: str, report) -> list[str]:
    """Check that a rendering carries the report's trust mass and labels."""
    if fmt == "json":
        doc = json.loads(text)
        fields = (doc["trust_mass"], doc["label"], doc["band_label"])
        eps = EPS
    elif fmt == "csv":
        row = list(csv.DictReader(io.StringIO(text)))[0]
        fields = (float(row["trust_mass"]), row["label"], row["band_label"] or None)
        eps = RENDER_EPS
    else:
        lines = dict(line.split(None, 1) for line in text.splitlines())
        fields = (float(lines["trust_mass"]), lines["label"], lines.get("band"))
        eps = RENDER_EPS
    problems = _close(f"{fmt} trust_mass", fields[0], report.trust_mass, eps)
    if fields[1] != report.label:
        problems.append(f"{fmt} label {fields[1]!r}, report {report.label!r}")
    if fields[2] != report.band_label:
        problems.append(f"{fmt} band label {fields[2]!r}, report {report.band_label!r}")
    return problems


def reweight(weights: Weights, category: str, value: float) -> Weights:
    """Set one weight; the other two rescale in proportion."""
    index = CATEGORIES.index(category)
    others = [i for i in range(3) if i != index]
    scale = (1.0 - value) / (weights[others[0]] + weights[others[1]])
    out = [w * scale for w in weights]
    out[index] = value
    return (out[0], out[1], out[2])


def check_sweep(result, doc: dict, catalog, weights: Weights, kind: str,
                target: str, grid: tuple[float, float, float], points: int) -> list[str]:
    """Check every row of a what-if sweep, its base label and first flip."""
    base_m = masses(doc, catalog)
    problems = []
    if result.base_label not in labels_for(trust_mass(base_m, weights), bounds(weights)):
        problems.append(f"sweep base label {result.base_label!r}")
    if len(result.rows) != points:
        return problems + [f"sweep has {len(result.rows)} rows, expected {points}"]
    start, _, step = grid
    first_flip = None
    for i, row in enumerate(result.rows):
        value = min(max(start + i * step, 0.0), 1.0)
        problems += _close(f"row {i} value", row.value, value)
        if kind == "weight":
            point_w, point_m = reweight(weights, target, value), base_m
        else:
            point_w, point_m = weights, masses(doc, catalog, replace=(target, value))
        tm = trust_mass(point_m, point_w)
        problems += _close(f"row {i} trust_mass", row.trust_mass, tm)
        problems += _close(f"row {i} strength", row.strength, strength(point_m, point_w))
        if row.label not in labels_for(tm, bounds(point_w)):
            problems.append(f"row {i} label {row.label!r} for trust mass {tm!r}")
        if row.flipped != (row.label != result.base_label):
            problems.append(f"row {i} flipped={row.flipped} with label {row.label!r}")
        if row.flipped and first_flip is None:
            first_flip = row.value
    if result.first_flip != first_flip:
        problems.append(f"first flip {result.first_flip!r}, rows say {first_flip!r}")
    return problems


class ReferenceStore:
    """Plain dict-of-lists model of the relation store's read rules."""

    def __init__(self) -> None:
        self.windows: dict[tuple[str, str], list[list]] = {}

    def put(self, subject: str, object: str, start: date, end: date, label: str) -> None:
        """Store a label; the same (pair, window) replaces the old one."""
        stored = self.windows.setdefault((subject, object), [])
        for item in stored:
            if item[0] == start and item[1] == end:
                item[2] = label
                return
        stored.append([start, end, label])

    def query(self, subject: str, object: str, start: date, end: date) -> tuple[str, int]:
        """(label, near-miss count): the diagonal is friendly, the
        narrowest containing window wins, and without one the cell is
        undefined with every overlapping window listed as a near miss."""
        if subject == object:
            return "friendly", 0
        stored = self.windows.get((subject, object), [])
        containing = [w for w in stored if w[0] <= start and end <= w[1]]
        if containing:
            return min(containing, key=lambda w: (w[1] - w[0], w[0]))[2], 0
        return "undefined", sum(1 for w in stored if w[0] <= end and start <= w[1])


def check_query(record, reference: ReferenceStore, subject: str, object: str,
                start: date, end: date) -> list[str]:
    label, near = reference.query(subject, object, start, end)
    problems = []
    if record.label != label:
        problems.append(f"query {subject}->{object} {start}..{end}: {record.label!r}, reference {label!r}")
    if len(record.near_misses) != near:
        problems.append(f"query {subject}->{object}: {len(record.near_misses)} near misses, reference {near}")
    return problems


def check_matrix(rows: list[list[str]], reference: ReferenceStore, ids: list[str],
                 start: date, end: date) -> list[str]:
    problems = []
    if len(rows) != len(ids) or any(len(row) != len(ids) for row in rows):
        return [f"matrix shape differs from {len(ids)}x{len(ids)}"]
    for subject, row in zip(ids, rows):
        for object, cell in zip(ids, row):
            want = reference.query(subject, object, start, end)[0]
            if cell != want:
                problems.append(f"matrix {subject}->{object}: {cell!r}, reference {want!r}")
    return problems


def matrix_stdout(ids: list[str], rows: list[list[str]], fmt: str) -> str:
    """What ``trustrel matrix`` prints for these labels."""
    if not ids:
        return ""
    if fmt == "csv":
        lines = [",".join(["subject\\object"] + ids)]
        lines += [",".join([n] + row) for n, row in zip(ids, rows)]
    else:
        width = max(max(len(c) for row in rows for c in row), max(len(n) for n in ids))
        lines = [" ".join([" " * width] + [n.ljust(width) for n in ids]).rstrip()]
        lines += [" ".join([n.ljust(width)] + [c.ljust(width) for c in row]).rstrip()
                  for n, row in zip(ids, rows)]
    return "\n".join(lines) + "\n"


def check_cli(status: int, stdout: bytes, expected_status: int, expected_stdout: bytes) -> list[str]:
    """A CLI call must exit as expected and print exactly the in-process rendering."""
    problems = []
    if status != expected_status:
        problems.append(f"exit status {status}, expected {expected_status}")
    if stdout != expected_stdout:
        problems.append(f"stdout differs ({len(stdout)} bytes, expected {len(expected_stdout)})")
    return problems


class Tally:
    """Operations attempted and failed; keeps the first few problems."""

    KEEP = 10

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < self.KEEP:
                self.problems.append(f"{what}: " + "; ".join(problems[:3]))
