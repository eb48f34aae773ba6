"""One C-kernel build per harness run.

The supervisor compiles the pass kernel once, into a run-scoped
directory, and every worker dlopens that object instead of compiling
its own.  ``$CC`` points at a wrapper that logs each call and then
execs the real compiler, so the log counts the builds of the whole
process tree.
"""

import os
import stat
import tempfile

import pytest

from repro.experiments.harness import HarnessConfig, JobSpec, run_jobs
from repro.sim import npsim

CIRCUITS = ("s27", "b02", "b06")


@pytest.fixture
def cc_log(monkeypatch, tmp_path):
    """Log every compiler call; point every temp dir at ``tmp/``."""
    if npsim.kernel_unavailable_reason() is not None:
        pytest.skip(npsim.kernel_unavailable_reason())
    real_cc = npsim._find_cc()
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "cc-wrapper"
    wrapper.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\n'
                       f'exec "{real_cc}" "$@"\n')
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IEXEC)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("CC", str(wrapper))
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    return log, scratch


def _specs():
    return [JobSpec(c, seed=1, arms=("random",), with_baselines=False)
            for c in CIRCUITS]


def _compiles(log):
    return log.read_text().splitlines() if log.exists() else []


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_compile_per_run(cc_log, jobs):
    log, scratch = cc_log
    out = run_jobs(_specs(), HarnessConfig(jobs=jobs))
    assert out.ok
    assert [r.name for r in out.runs] == list(CIRCUITS)
    assert len(_compiles(log)) == 1
    assert os.listdir(scratch) == []  # the run-scoped dir is gone


def test_build_dir_removed_after_timeout_kill(cc_log):
    log, scratch = cc_log
    out = run_jobs(_specs()[:2],
                   HarnessConfig(timeout=2.0, backoff_base=0.01,
                                 chaos=lambda s, a: ("hang" if s.circuit
                                                     == "s27" else None)))
    assert [r.status for r in out.records] == ["timeout", "ok"]
    assert len(_compiles(log)) == 1
    assert os.listdir(scratch) == []


def test_interp_runs_build_nothing(cc_log):
    log, scratch = cc_log
    specs = [JobSpec("s27", seed=1, arms=("random",),
                     with_baselines=False, engine="interp")]
    assert run_jobs(specs, HarnessConfig()).ok
    assert _compiles(log) == []
    assert os.listdir(scratch) == []
