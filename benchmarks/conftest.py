"""Shared benchmark fixtures.

The full experiment suite is run once per pytest session and shared by
every ``bench_table*`` file; each bench then times its table assembly
and prints the regenerated rows (compare them against the paper's
tables -- see EXPERIMENTS.md for the recorded side-by-side).

The engine knob (mirroring the CLI's ``--engine``) applies to the
shared suite run, so every table bench can be timed under either
backend: ``--repro-engine {auto,interp}`` / ``REPRO_BENCH_ENGINE``.

Set ``REPRO_BENCH_FULL=1`` to run all reproduced circuits instead of
the quick subset (slower by an order of magnitude).
"""

from __future__ import annotations

import os

import pytest

from repro.circuits import suite as suite_mod
from repro.experiments import run_suite


def pytest_addoption(parser):
    parser.addoption("--repro-full", action="store_true", default=False,
                     help="run the full circuit suite in benches")
    parser.addoption("--repro-engine", choices=("auto", "interp"),
                     default=None,
                     help="evaluation backend for the suite run")


def _knob(request, option: str, env: str, default: str) -> str:
    """CLI option wins, then the environment variable, then default."""
    value = request.config.getoption(option)
    if value is None:
        value = os.environ.get(env) or default
    return value


@pytest.fixture(scope="session")
def suite_runs(request):
    """All per-circuit experiment results (computed once)."""
    full = (request.config.getoption("--repro-full")
            or os.environ.get("REPRO_BENCH_FULL") == "1")
    engine = _knob(request, "--repro-engine", "REPRO_BENCH_ENGINE",
                   "auto")
    profiles = suite_mod.suite(quick=not full)
    return run_suite(profiles, seed=1, delay=True, engine=engine,
                     verbose=True)
