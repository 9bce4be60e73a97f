import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    # each demo in a fresh interpreter against the source tree
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
