"""Seeded inputs for the trustrel benchmark.

Every input is built from the workload seed and plain catalog data
(property id, category, cap).  Nothing here imports trustrel: the
program under test only ever sees the documents and files made here.
The same seed always gives byte-identical inputs, because each item
draws from its own ``random.Random`` keyed by a string (string seeds
hash with SHA-512, independent of ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, timedelta

CATEGORIES = ("hostile", "neutral", "friendly")

# The traffic mix below is assumed, not taken from real usage; README.md
# ("Traffic mix") gives the reason for each number and what it makes
# each metric mean.

#: Fixed observer profiles (hostile, neutral, friendly); documents in
#: the assess workload rotate through them, so compute_bounds sees the
#: same (weights, signs) over and over.  The first two are the profiles
#: of the demos; the other two are skewed so labels differ by profile.
WEIGHT_PROFILES = (
    (0.45, 0.10, 0.45),
    (0.40, 0.20, 0.40),
    (0.25, 0.35, 0.40),
    (0.60, 0.15, 0.25),
)
FORMATS = ("json", "text", "csv")
DEFECTS = ("over_cap", "unknown_property", "evidence_outside_window")

#: Every SWEEP_EVERY-th assess document also gets a weight sweep and a
#: property sweep of SWEEP_POINTS grid points each, so any run of
#: SWEEP_EVERY documents holds exactly one.  Sweep documents are
#: 5% of the stream, more than the 1% above the 99th percentile, so
#: assess latency_tail_us is the latency of a sweep document.
SWEEP_EVERY = 20
SWEEP_POINTS = 101
#: Every INVALID_EVERY-th assess document (offset so it never carries a
#: sweep) has one defect and must be rejected: 4% of the stream.
INVALID_EVERY = 25
#: Every BANDS_EVERY-th valid assess document is scored with a band table.
BANDS_EVERY = 5

FIRST_DAY = date(1950, 1, 1)
LAST_START_DAY = date(2012, 12, 31)
#: Query windows in this range overlap no generated window.
EMPTY_ERA = (date(1900, 1, 1), date(1940, 12, 31))

#: A catalog property as the generator sees it: (id, category, cap).
Prop = tuple[str, str, float]


def props_from_catalog_doc(doc: dict) -> list[Prop]:
    """Plain (id, category, cap) triples from a catalog document."""
    return [(p["id"], p["category"], float(p["cap"])) for p in doc["properties"]]


def _day(rng: random.Random, low: date, high: date) -> date:
    return low + timedelta(days=rng.randint(0, (high - low).days))


def random_window(rng: random.Random) -> tuple[date, date]:
    """A window of one to ten years starting between 1950 and 2012."""
    start = _day(rng, FIRST_DAY, LAST_START_DAY)
    return start, start + timedelta(days=rng.randint(365, 3650))


def random_weights(rng: random.Random) -> tuple[float, float, float]:
    """Fresh weights in [0, 1] summing to 1, from two uniform cut points."""
    low, high = sorted((rng.random(), rng.random()))
    return (low, high - low, 1.0 - high)


def _value_under(rng: random.Random, cap: float) -> float:
    # Micro-unit grid: the value is never above the cap, and its JSON
    # form stays short.
    return rng.randint(0, round(cap * 1_000_000)) / 1_000_000


def _evidence(rng: random.Random, start: date, end: date) -> list[dict]:
    return [
        {
            "date": _day(rng, start, end).isoformat(),
            "source": f"src-{rng.randrange(10**6):06d}",
            "summary": "",
        }
        for _ in range(rng.randint(1, 3))
    ]


def assessment_doc(
    rng: random.Random,
    props: list[Prop],
    subject: str,
    object: str,
    window: tuple[date, date],
) -> dict:
    """A valid assessment document: a random subset of properties per
    category, each valued under its cap, with 1-3 evidence links dated
    inside the window."""
    start, end = window
    entries = []
    for category in CATEGORIES:
        in_category = [p for p in props if p[1] == category]
        for prop_id, _, cap in rng.sample(in_category, rng.randint(1, len(in_category))):
            entries.append(
                {
                    "property": prop_id,
                    "value": _value_under(rng, cap),
                    "evidence": _evidence(rng, start, end),
                }
            )
    return {
        "subject": subject,
        "object": object,
        "window": {"start": start.isoformat(), "end": end.isoformat()},
        "entries": entries,
        "notes": "",
    }


def inject_defect(rng: random.Random, doc: dict, props: list[Prop], kind: str) -> None:
    """Make ``doc`` invalid in one way; the oracle counts the violations."""
    entries = doc["entries"]
    if kind == "over_cap":
        caps = {p[0]: p[2] for p in props}
        entry = rng.choice(entries)
        entry["value"] = min(1.0, caps[entry["property"]] + 0.05)
    elif kind == "unknown_property":
        entries.append(
            {
                "property": f"x.P{rng.randint(50, 99)}",
                "value": 0.01,
                "evidence": [{"date": doc["window"]["start"], "source": "src-x", "summary": ""}],
            }
        )
    elif kind == "evidence_outside_window":
        start = date.fromisoformat(doc["window"]["start"])
        link = rng.choice(entries)["evidence"][0]
        link["date"] = (start - timedelta(days=rng.randint(1, 400))).isoformat()
    else:
        raise ValueError(f"unknown defect {kind!r}")


def band_table_doc(weights: tuple[float, float, float]) -> dict:
    """Five bands tiling the default-sign scale of ``weights``."""
    hostile, neutral, friendly = weights
    upper = neutral + friendly
    edges = (-hostile, -hostile / 2, 0.0, neutral, neutral + friendly / 2, upper)
    labels = ("Hostile", "Weak-Hostile", "Neutral", "Weak-Friendly", "Friendly")
    parents = ("hostile", "hostile", "neutral", "friendly", "friendly")
    return {
        "bands": [
            {"label": label, "low": low, "high": high, "parent": parent}
            for label, low, high, parent in zip(labels, edges, edges[1:], parents)
        ]
    }


def nation_ids(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct three-letter codes, sorted."""
    ids: set[str] = set()
    while len(ids) < count:
        ids.add("".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(3)))
    return sorted(ids)


# --- assess workload ---------------------------------------------------------

@dataclass(frozen=True)
class AssessCase:
    """One document of the assess stream and how to process it."""

    index: int
    text: str
    doc: dict
    profile: int
    fmt: str
    bands: dict | None
    defect: str | None
    # (category, property id, property cap) to sweep, or None
    sweep: tuple[str, str, float] | None


def assess_case(seed: int, index: int, props: list[Prop]) -> AssessCase:
    """Document ``index`` of the seeded assess stream."""
    rng = random.Random(f"assess:{seed}:{index}")
    subject, object = nation_ids(rng, 2)
    doc = assessment_doc(rng, props, subject, object, random_window(rng))
    profile = index % len(WEIGHT_PROFILES)
    defect = None
    if index % INVALID_EVERY == INVALID_EVERY - 1:
        defect = DEFECTS[(index // INVALID_EVERY) % len(DEFECTS)]
        inject_defect(rng, doc, props, defect)
    sweep = None
    if defect is None and index % SWEEP_EVERY == 0:
        caps = {p[0]: p[2] for p in props}
        target = rng.choice([e["property"] for e in doc["entries"]])
        sweep = (rng.choice(CATEGORIES), target, caps[target])
    bands = None
    if defect is None and index % BANDS_EVERY == 1:
        bands = band_table_doc(WEIGHT_PROFILES[profile])
    return AssessCase(
        index=index,
        text=json.dumps(doc, sort_keys=True),
        doc=doc,
        profile=profile,
        fmt=FORMATS[index % len(FORMATS)],
        bands=bands,
        defect=defect,
        sweep=sweep,
    )


def sweep_grid(cap: float) -> tuple[float, float, float]:
    """(start, stop, step) of a SWEEP_POINTS-point grid over [0, cap]."""
    return (0.0, cap, cap / (SWEEP_POINTS - 1))


# --- store workload ----------------------------------------------------------

@dataclass(frozen=True)
class StorePlan:
    """Nations, stored windows and read mix of the store workload."""

    nations: list[str]
    # every stored (subject, object, start, end), in write order
    keys: list[tuple[str, str, date, date]]
    # (subject, object, start, end, kind) point queries
    queries: list[tuple[str, str, date, date, str]]
    matrix_windows: list[tuple[date, date]]


QUERY_KINDS = ("contained", "near_miss", "undefined", "self")


def store_plan(seed: int, nations: int, queries: int, matrices: int) -> StorePlan:
    """Every ordered pair of ``nations`` nations gets 1-2 windows."""
    rng = random.Random(f"store-plan:{seed}")
    ids = nation_ids(rng, nations)
    windows: dict[tuple[str, str], list[tuple[date, date]]] = {}
    keys = []
    for subject in ids:
        for object in ids:
            if subject == object:
                continue
            pair = []
            count = rng.randint(1, 2)
            while len(pair) < count:
                window = random_window(rng)
                if window not in pair:
                    pair.append(window)
            windows[(subject, object)] = pair
            keys.extend((subject, object, start, end) for start, end in pair)
    reads = []
    pairs = list(windows)
    for i in range(queries):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]
        subject, object = rng.choice(pairs)
        start, end = rng.choice(windows[(subject, object)])
        if kind == "contained":
            q_start = _day(rng, start, end)
            q_end = _day(rng, q_start, end)
        elif kind == "near_miss":
            q_start = start - timedelta(days=rng.randint(1, 400))
            q_end = _day(rng, start, end)
        elif kind == "undefined":
            q_start = _day(rng, *EMPTY_ERA)
            q_end = _day(rng, q_start, EMPTY_ERA[1])
        else:
            object = subject
            q_start, q_end = start, end
        reads.append((subject, object, q_start, q_end, kind))
    matrix_windows = []
    for _ in range(matrices):
        start = _day(rng, date(1960, 1, 1), date(2010, 12, 31))
        matrix_windows.append((start, start + timedelta(days=rng.randint(30, 365))))
    return StorePlan(ids, keys, reads, matrix_windows)


def store_record(
    seed: int, lifecycle: int, index: int, props: list[Prop],
    key: tuple[str, str, date, date],
) -> tuple[dict, tuple[float, float, float]]:
    """Assessment document and fresh weights for one store write."""
    rng = random.Random(f"store-record:{seed}:{lifecycle}:{index}")
    subject, object, start, end = key
    return assessment_doc(rng, props, subject, object, (start, end)), random_weights(rng)


# --- cli workload ------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    """One subprocess call, the exit status expected, and what it asks
    for (``meta``), so the expected output can be rendered in-process."""

    argv: tuple[str, ...]
    expected_status: int
    meta: dict


@dataclass(frozen=True)
class CliPlan:
    """Input files (name -> text), the store to build and the call cycle."""

    files: dict[str, str]
    docs: list[dict]
    store_nations: list[str]
    # (assessment document, weights) per stored record
    store_records: list[tuple[dict, tuple[float, float, float]]]
    calls: list[CliCall]


def _arg(value: float) -> str:
    return repr(float(value))


def cli_plan(seed: int, props: list[Prop], workdir: str) -> CliPlan:
    """Files under ``workdir`` (a relative path) and a cycle of 24 calls.

    The cycle holds 10 ``evaluate``, 4 ``whatif``, 6 ``matrix`` and 4
    ``validate`` calls (an assumed mix; see README.md, "Traffic mix").
    Three of the 24 calls fail on purpose: ``evaluate`` and ``validate``
    of an over-cap assessment (exit 1) and ``evaluate`` of malformed
    JSON (exit 2).
    """
    rng = random.Random(f"cli:{seed}")
    files: dict[str, str] = {}
    docs = []
    for i in range(4):
        subject, object = nation_ids(rng, 2)
        doc = assessment_doc(rng, props, subject, object, random_window(rng))
        docs.append(doc)
        files[f"a{i}.json"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    invalid = assessment_doc(rng, props, "INV", "BAD", random_window(rng))
    inject_defect(rng, invalid, props, "over_cap")
    docs.append(invalid)
    files["a4.json"] = json.dumps(invalid, indent=2, sort_keys=True) + "\n"
    files["malformed.json"] = files["a0.json"][: len(files["a0.json"]) // 2]
    for p, weights in enumerate(WEIGHT_PROFILES):
        files[f"bands{p}.json"] = json.dumps(band_table_doc(weights), indent=2) + "\n"

    nations = nation_ids(rng, 20)
    records = []
    for subject in nations:
        for object in nations:
            if subject != object:
                for _ in range(rng.randint(1, 2)):
                    window = random_window(rng)
                    records.append(
                        (assessment_doc(rng, props, subject, object, window), random_weights(rng))
                    )

    def path(name: str) -> str:
        return f"{workdir}/{name}"

    def weights_arg(p: int) -> str:
        return ",".join(_arg(w) for w in WEIGHT_PROFILES[p])

    catalog = ("--catalog", path("catalog.json"))
    calls = []
    for i in range(8):
        meta = {"doc": i % 4, "profile": (i + i // 4) % 4, "fmt": FORMATS[i % 3], "bands": None}
        argv = ("evaluate", *catalog, "--assessment", path(f"a{meta['doc']}.json"),
                "--weights", weights_arg(meta["profile"]), "--format", meta["fmt"])
        if i in (3, 6):
            meta["bands"] = meta["profile"]
            argv += ("--bands", path(f"bands{meta['profile']}.json"))
        calls.append(CliCall(argv, 0, meta))
    for i in range(4):
        if i % 2 == 0:
            kind, target, grid = "weight", CATEGORIES[i // 2], (0.0, 1.0, 0.01)
        else:
            kind = "property"
            target = rng.choice(docs[i]["entries"])["property"]
            grid = sweep_grid({p[0]: p[2] for p in props}[target])
        meta = {"doc": i, "profile": i, "fmt": FORMATS[i % 3], "kind": kind,
                "target": target, "grid": grid}
        calls.append(CliCall(
            ("whatif", *catalog, "--assessment", path(f"a{i}.json"),
             "--weights", weights_arg(i), "--target", f"{kind}:{target}",
             "--sweep", ":".join(_arg(g) for g in grid), "--format", meta["fmt"]),
            0, meta,
        ))
    for i in range(6):
        start, end = random_window(rng)
        meta = {"window": (start, end), "nations": None, "fmt": "text"}
        argv = ("matrix", "--store", path("store.json"),
                "--window", f"{start.isoformat()}:{end.isoformat()}")
        if i % 2:
            meta["nations"], meta["fmt"] = sorted(rng.sample(nations, 8)), "csv"
            argv += ("--nations", ",".join(meta["nations"]), "--format", "csv")
        calls.append(CliCall(argv, 0, meta))
    for doc, with_catalog, status in ((1, False, 0), (2, True, 0), (None, True, 0), (4, True, 1)):
        argv = ("validate",) + (catalog if with_catalog else ())
        if doc is not None:
            argv += ("--assessment", path(f"a{doc}.json"))
        calls.append(CliCall(argv, status, {"doc": doc, "catalog": with_catalog}))
    for name, status in (("a4.json", 1), ("malformed.json", 2)):
        calls.append(CliCall(
            ("evaluate", *catalog, "--assessment", path(name), "--format", "json"),
            status, {"fails": name},
        ))
    return CliPlan(files, docs, nations, records, calls)
