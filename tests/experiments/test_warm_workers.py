"""Warm harness workers: one process per ``--jobs`` slot.

A worker serves job after job as long as each ends ``ok``; any other
ending (error, hard exit, timeout, stall) retires it, and a retry
always starts in a fresh process.  The supervisor's ``Process`` starts
on the spawn context are counted to see which happened.
"""

import multiprocessing.context

import pytest

from repro.experiments import reporting
from repro.experiments.harness import HarnessConfig, JobSpec, run_jobs

CIRCUITS = ("s27", "b02", "b06")


@pytest.fixture
def starts(monkeypatch):
    """Every worker process the supervisor starts."""
    started = []
    real_start = multiprocessing.context.SpawnProcess.start

    def counting_start(self):
        started.append(self)
        return real_start(self)

    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start",
                        counting_start)
    return started


def _specs(circuits=CIRCUITS):
    return [JobSpec(c, seed=1, arms=("random",), with_baselines=False)
            for c in circuits]


def _cfg(**kw):
    kw.setdefault("backoff_base", 0.01)
    return HarnessConfig(**kw)


def _chaos_on(circuit, directive):
    """``directive`` on the first attempt of ``circuit``'s job."""
    return lambda spec, attempt: (directive if spec.circuit == circuit
                                  and attempt == 1 else None)


def _untimed(value):
    """``run_to_dict`` output without wall-clock fields."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items()
                if k != "seconds" and not k.endswith("_s")}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _statuses(outcome):
    return [(r.circuit, r.status, r.attempts) for r in outcome.records]


def test_one_worker_serves_every_job(starts):
    out = run_jobs(_specs(), _cfg(jobs=1))
    assert _statuses(out) == [(c, "ok", 1) for c in CIRCUITS]
    assert len(starts) == 1


def test_hard_exit_loses_only_the_job_in_flight(starts):
    out = run_jobs(_specs(), _cfg(jobs=1, chaos=_chaos_on("b02", "exit")))
    assert len(starts) == 2
    assert _statuses(out) == [("s27", "ok", 1), ("b02", "failed", 1),
                              ("b06", "ok", 1)]
    assert "exit code" in out.records[1].error
    inline = run_jobs(_specs(), _cfg(isolate=False))
    expected = {r.name: _untimed(reporting.run_to_dict(r))
                for r in inline.runs}
    assert [r.name for r in out.runs] == ["s27", "b06"]
    for run in out.runs:
        assert _untimed(reporting.run_to_dict(run)) == expected[run.name]


def test_stall_kill_respawns(starts):
    out = run_jobs(_specs(("s27", "b02")),
                   _cfg(stall_timeout=1.0, heartbeat_interval=0.2,
                        chaos=_chaos_on("s27", "hang")))
    assert _statuses(out) == [("s27", "stall", 1), ("b02", "ok", 1)]
    assert len(starts) == 2


def test_retry_starts_in_a_fresh_worker(starts):
    """The crashed job's retry skips the warm worker b02 left idle."""
    out = run_jobs(_specs(("s27", "b02")),
                   _cfg(retries=1, chaos=_chaos_on("s27", "crash")))
    assert sorted(_statuses(out)) == [("b02", "ok", 1), ("s27", "ok", 2)]
    assert len(starts) == 3
