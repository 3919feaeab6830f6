"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import json
import math
import os
import traceback
from contextlib import nullcontext
from pathlib import Path

import gen

#: The catalog document the generator and the oracle read directly,
#: without trustrel's parser.
CATALOG_FILE = Path("src") / "trustrel" / "data" / "default_catalog.json"


def catalog_props(root: Path) -> list[gen.Prop]:
    return gen.props_from_catalog_doc(json.loads((root / CATALOG_FILE).read_text("utf-8")))


def percentile(values: list, q: float):
    """Nearest-rank percentile (``q`` in (0, 1]) of unsorted values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op(tracer, name: str):
    """Root span ``name`` when tracing or timing a fixed run, else nothing."""
    return tracer.op(name) if tracer is not None else nullcontext()


def raised(err: BaseException) -> list[str]:
    """Problem list for an operation that raised, naming where it raised."""
    frame = traceback.extract_tb(err.__traceback__)[-1] if err.__traceback__ else None
    where = f" at {Path(frame.filename).name}:{frame.lineno}" if frame else ""
    return [f"raised {type(err).__name__}{where}: {err}"]


def child_env(root: Path) -> dict[str, str]:
    """Environment for subprocesses that must import trustrel from src/."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
