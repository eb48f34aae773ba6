"""Every script under ``examples/`` runs to completion.

Each example runs as its own subprocess with ``PYTHONPATH=src``, the
way the README tells users to run them, so an API change that breaks
an example fails here instead of on a user's machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Command-line arguments per example (default: none).  The paper-table
#: script runs on s27 alone to keep the suite fast.
ARGS = {"paper_tables.py": ["s27"]}


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
