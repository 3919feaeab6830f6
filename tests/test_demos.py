"""Every narrative demo runs to completion against the source tree and
prints, byte for byte, the output pinned in ``tests/golden/demo_<stem>.out``.

The pinned files hold each demo's stdout as printed by commit f13d21b.
Regenerate one only for an intended change to its output:

    PYTHONPATH=src python demos/<stem>.py > tests/golden/demo_<stem>.out
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
GOLDEN = REPO_ROOT / "tests" / "golden"


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"demo_{demo.stem}.out").read_text(encoding="utf-8")
