"""Every documented ``emit_bench.py`` invocation must still parse.

CI and the verification recipe run ``benchmarks/emit_bench.py`` with
fixed flag sets.  A bench mode deleted without its CI step would only
fail on the runner; parsing each command with the script's own
argument parser catches it in the tier-1 suite.  Plain regex over the
YAML (folded ``run: >`` blocks joined first), because the numpy-free
CI leg installs only pytest and hypothesis.
"""

import importlib.util
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (ROOT / ".github" / "workflows" / "ci.yml",
           ROOT / ".claude" / "skills" / "verify" / "SKILL.md")

_COMMAND = re.compile(r"python3? benchmarks/emit_bench\.py([^\n#]*)")


def _load_emit_bench():
    spec = importlib.util.spec_from_file_location(
        "emit_bench", ROOT / "benchmarks" / "emit_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _joined_lines(text):
    """The text with each folded ``key: >`` block on one line."""
    out = []
    fold_indent = None
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip())
        if fold_indent is not None and line.strip() and \
                indent > fold_indent:
            out[-1] += " " + line.strip()
            continue
        fold_indent = indent if line.rstrip().endswith(": >") else None
        out.append(line)
    return out


def bench_commands(path):
    """The argument lists of every ``emit_bench.py`` call in ``path``."""
    return [shlex.split(match.group(1))
            for line in _joined_lines(path.read_text())
            for match in _COMMAND.finditer(line)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_documented_commands_parse(path):
    parser = _load_emit_bench()._parser()
    commands = bench_commands(path)
    assert commands, f"no emit_bench.py command found in {path.name}"
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"{path.name}: emit_bench.py {' '.join(argv)} "
                        f"is rejected (exit {exc.code})")


def test_ci_keeps_every_gate():
    """The perf and quality gates CI runs, with their bounds."""
    commands = {" ".join(argv)
                for argv in bench_commands(SOURCES[0])}
    assert commands == {
        "--quick --gate 1.5",
        "--engine-matrix --quick --gate-numpy 3.0",
        "--power --gate 1.0",
        "--collapse --quick --gate 1.0 -o BENCH_collapse_quick.json",
        "--delay --gate 3.0 -o BENCH_delay_ci.json",
    }


def test_removed_modes_rejected():
    """The deleted candidate-scan, trial-batch and ADI bench modes."""
    parser = _load_emit_bench()._parser()
    for flag in ("--phase1", "--trials", "--adi"):
        with pytest.raises(SystemExit):
            parser.parse_args([flag, "--quick"])
