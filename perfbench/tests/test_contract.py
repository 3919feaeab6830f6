"""BENCHMARK.json names workloads the runner has and a set-up metric.

The runner reads metric names and units from BENCHMARK.json and refuses
to print a result whose metrics differ from them.
"""

import json

from conftest import ROOT

import run


def test_benchmark_json_names_runner_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])
