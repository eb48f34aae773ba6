"""Resilient suite execution: isolation, timeouts, retries, resume.

:func:`repro.experiments.runner.run_suite` is a bare serial loop -- one
hung ATPG call or one crash on a single circuit discards every
completed :class:`CircuitRun` and produces no tables at all.  This
module gives long experiment campaigns the resilience a multi-circuit
fault-simulation sweep needs:

* every ``(circuit, seed)`` job runs in an isolated worker subprocess
  (``multiprocessing`` with the ``spawn`` start method), so a crash or
  an out-of-control computation cannot take the campaign down;
* a per-job wall-clock **timeout** kills hung workers;
* failed and timed-out jobs are **retried** with exponential backoff,
  perturbing the seed on the final attempt (a different random ``T0``
  often steers around a pathological case);
* every outcome is recorded as a structured :class:`JobRecord`
  (``ok`` / ``failed`` / ``timeout`` / ``stall`` / ``skipped-resume``
  / ``skipped-lint``, attempt count, seconds, traceback, last-seen
  progress);
* workers stream **heartbeats** over the result pipe (current arm,
  phase, faults remaining; see
  :mod:`repro.experiments.supervision`); the supervisor kills a
  worker whose heartbeat goes quiet for ``stall_timeout`` seconds --
  catching a genuinely hung worker long before the wall-clock fuse,
  while a slow-but-alive one keeps running;
* at every phase boundary the worker persists **salvage** state (see
  :mod:`repro.experiments.salvage`); a retry resumes from the last
  completed phase byte-identically instead of recomputing, and a job
  that ultimately fails with salvage on disk is reported as a
  :class:`~repro.experiments.salvage.PartialRun`;
* completed runs are **checkpointed** incrementally to a JSONL run
  store, so an interrupted or partially failed campaign resumes from
  the checkpoint instead of recomputing;
* one **reuse rule** guards both stores: a checkpoint or salvage file
  stands in for a requested run only if it recorded every
  :data:`~repro.experiments.runner.RESULT_KNOBS` entry with the
  requested value (:func:`~repro.experiments.runner.same_result_knobs`);
* a **pre-flight lint** (structural rules only; see
  :mod:`repro.analysis`) runs once per distinct circuit before any
  worker is spawned: a circuit with error-severity findings would
  crash (or silently mislead) every attempt, so its jobs are recorded
  as ``skipped-lint`` with the rule ids instead of burning
  ``retries + 1`` subprocesses to rediscover the problem.

Run-store layout (``run_dir``)::

    runs.jsonl      one completed CircuitRun per line (checkpoint)
    journal.jsonl   one JobRecord per finished job, every invocation
    salvage/        per-job phase-boundary state (deleted on success)
    quarantine/     corrupt records moved aside by loads and `doctor`

``runs.jsonl`` and ``journal.jsonl`` are append-only; every line is
wrapped in the versioned, CRC32-trailed envelope of
:mod:`repro.experiments.salvage`.  A corrupt line -- truncated
trailing write, bit rot, a partial overwrite -- is **quarantined** on
load: moved to ``quarantine/`` and removed from the store, so the
affected job (and only it) is recomputed on resume, and so is a line
without the envelope or a run record missing a field the current
writer always produces.  ``repro-compact doctor`` runs the same
verification standalone and reports what it found.

Chaos hook
----------
``HarnessConfig.chaos`` is a callable invoked once per attempt with
``(spec, attempt)``; it may return a directive that forces a failure
mode deterministically -- the fault-injection surface the tests use:

``"crash"``
    the worker raises (clean traceback comes back),
``"exit"``
    the worker dies via ``os._exit`` (no traceback, like a segfault),
``"hang"``
    the worker freezes before doing any work (no heartbeats; killed
    by the stall timeout if set, else the wall clock),
``"corrupt-checkpoint"``
    a garbage line is appended to ``runs.jsonl`` before the attempt
    (the attempt itself then runs normally),
``"crash@phaseN"`` / ``"stall@phaseN"``
    enacted inside the pipeline when phase ``N`` begins -- after the
    previous phase's salvage flushed,
``"corrupt-salvage"``
    every salvage flush is damaged on disk and the worker dies at the
    first phase boundary; the retry must quarantine the rot and
    recompute fresh.

The same directives are reachable without code through the
``REPRO_CHAOS`` environment variable
(``[circuit:]directive[,...]``, first attempts only); see
:func:`repro.experiments.supervision.chaos_from_env`.
"""

from __future__ import annotations

import os
import random
import time
import traceback
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..circuits import suite
from ..circuits.suite import CircuitProfile
from . import reporting
from .reporting import Table
from .runner import (CircuitRun, JobSpec, resolve_profiles, run_circuit,
                     same_result_knobs)
from .salvage import (PartialRun, SalvageStore, SalvageWriter, encode_line,
                      load_jsonl, salvage_usable)
from .supervision import (CHAOS_KINDS, ProgressReporter, WorkerHooks,
                          chaos_from_env, freeze, parse_chaos)

#: Added to the base seed when the final retry perturbs it.  Never
#: applied when salvage exists -- a perturbed seed would mix
#: two random streams into one result.
SEED_PERTURBATION = 7919

_POLL_INTERVAL = 0.02

#: Directives a chaos callable may return (re-exported; the full
#: grammar, including ``@phaseN`` scopes, lives in
#: :func:`repro.experiments.supervision.parse_chaos`).
CHAOS_DIRECTIVES = CHAOS_KINDS

ChaosFn = Callable[[JobSpec, int], Optional[str]]

@dataclass
class JobRecord:
    """Structured outcome of one job across all its attempts."""

    circuit: str
    seed: int
    status: str   # ok | failed | timeout | stall | skipped-resume
    #             # | skipped-lint
    attempts: int
    seconds: float
    error: Optional[str] = None
    #: Analyzer rule ids behind a ``skipped-lint`` outcome (empty
    #: otherwise).  Stored in the journal; JSON round-trips lists, so
    #: ``__post_init__`` re-tuples.
    lint_rules: Tuple[str, ...] = ()
    #: Last heartbeat-reported position (``arm/phase``), for the job
    #: summary; None when the worker never reported.
    progress: Optional[str] = None
    #: Furthest phase any arm's salvage completed when the job
    #: ultimately failed (0: nothing salvaged).
    salvaged_phase: int = 0

    def __post_init__(self) -> None:
        self.lint_rules = tuple(self.lint_rules)

    @property
    def failed(self) -> bool:
        return self.status in ("failed", "timeout", "stall")

    @property
    def skipped_lint(self) -> bool:
        return self.status == "skipped-lint"

    @property
    def reason(self) -> str:
        """Short annotation for degraded table rows."""
        if self.status == "timeout":
            return "timeout"
        if self.status == "stall":
            return (f"stall at {self.progress}" if self.progress
                    else "stall")
        if self.skipped_lint:
            return "lint: " + ",".join(self.lint_rules or ("?",))
        if self.error:
            last = self.error.strip().splitlines()[-1]
            return last[:60]
        return self.status


@dataclass
class HarnessConfig:
    """Resilience knobs for :func:`run_suite_resilient`.

    Attributes
    ----------
    timeout:
        Per-attempt wall-clock limit in seconds (None: unlimited).
        Enforced only in isolated mode -- in-process workers cannot be
        interrupted safely.
    stall_timeout:
        Kill a worker whose heartbeat goes quiet for this many
        seconds (None: stall detection off).  Isolated mode only.
        Independent of ``timeout``: the wall clock bounds total work,
        the stall timeout bounds silence.
    heartbeat_interval:
        Seconds between worker heartbeats.  Keep well under
        ``stall_timeout`` (a worker is expected to miss no more than
        a couple of beats while healthy).
    retries:
        Extra attempts after the first failure (total = retries + 1).
    jobs:
        Worker subprocesses running concurrently.
    run_dir:
        Checkpoint directory; None disables checkpointing (and
        phase-boundary salvage, which lives under it).
    resume:
        Reuse completed runs found in ``run_dir`` instead of
        recomputing them (recorded as ``skipped-resume``).
    backoff_base:
        Minimum retry delay in seconds.  Retries use decorrelated
        jitter seeded from the job identity: the delay is drawn
        uniformly from ``[base, 3 * previous_delay]`` and capped at
        ``backoff_cap``, so simultaneous worker failures don't retry
        in lockstep while staying deterministic per job.
    backoff_cap:
        Upper bound on any single retry delay.
    isolate:
        Run jobs in subprocesses (default).  ``False`` keeps the old
        in-process behavior with retry/backoff/checkpoint support but
        no timeouts and no crash isolation beyond ``except``.
    chaos:
        Fault-injection callable ``(spec, attempt) -> directive`` --
        see the module docstring.  When None, the ``REPRO_CHAOS``
        environment variable is consulted (see
        :func:`repro.experiments.supervision.chaos_from_env`).
    """

    timeout: Optional[float] = None
    stall_timeout: Optional[float] = None
    heartbeat_interval: float = 1.0
    retries: int = 0
    jobs: int = 1
    run_dir: Optional[Union[str, Path]] = None
    resume: bool = False
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    isolate: bool = True
    chaos: Optional[ChaosFn] = None


@dataclass
class SuiteOutcome:
    """Everything a resilient campaign produced."""

    runs: List[CircuitRun]
    records: List[JobRecord] = field(default_factory=list)
    #: Ultimately-failed jobs that left salvage behind, keyed by
    #: circuit: phase-level progress and known coverage figures (the
    #: ``PARTIAL(phase k/4)`` table rows).
    partials: Dict[str, PartialRun] = field(default_factory=dict)

    @property
    def failed_records(self) -> List[JobRecord]:
        return [r for r in self.records if r.failed]

    @property
    def skipped_records(self) -> List[JobRecord]:
        """Jobs the pre-flight lint refused to run."""
        return [r for r in self.records if r.skipped_lint]

    @property
    def ok(self) -> bool:
        """True iff no job ultimately failed (lint skips are
        deliberate outcomes, not failures)."""
        return not self.failed_records

    @property
    def failures(self) -> Dict[str, str]:
        """``{circuit: reason}`` for the table renderers.

        Covers both failed and lint-skipped jobs; the latter carry a
        ``lint: <rule,...>`` reason that the renderers turn into a
        ``SKIPPED(...)`` row.
        """
        out = {r.circuit: r.reason for r in self.failed_records}
        for r in self.skipped_records:
            out.setdefault(r.circuit, r.reason)
        return out

    def failure_summary(self) -> Table:
        """One row per job, for the end-of-campaign report."""
        table = Table("Job summary",
                      ["circuit", "seed", "status", "attempts",
                       "seconds", "progress", "salvaged", "lint"])
        for record in self.records:
            salvaged = (f"phase {record.salvaged_phase}/4"
                        if record.salvaged_phase else None)
            table.add_row(record.circuit, record.seed, record.status,
                          record.attempts, record.seconds,
                          record.progress, salvaged,
                          ",".join(record.lint_rules) or None)
        return table


# ----------------------------------------------------------------------
# Run store (checkpoint)
# ----------------------------------------------------------------------

class RunStore:
    """Append-only JSONL checkpoint of completed runs + job journal.

    Every appended line carries the versioned CRC32 envelope of
    :mod:`repro.experiments.salvage`; loads verify each line and
    **quarantine** (move to ``quarantine/``, repair the store) any
    that fail, so corruption costs one recompute, never the campaign.
    """

    RUNS_NAME = "runs.jsonl"
    JOURNAL_NAME = "journal.jsonl"

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.runs_path = self.run_dir / self.RUNS_NAME
        self.journal_path = self.run_dir / self.JOURNAL_NAME

    @property
    def salvage(self) -> SalvageStore:
        """The per-job phase-boundary salvage store under this dir."""
        return SalvageStore(self.run_dir)

    def append_run(self, spec: JobSpec, run: CircuitRun) -> None:
        line = encode_line({"circuit": spec.circuit, "seed": spec.seed,
                            "run": reporting.run_to_dict(run)})
        self._append(self.runs_path, line)

    def append_record(self, record: JobRecord) -> None:
        self._append(self.journal_path, encode_line(asdict(record)))

    @staticmethod
    def _append(path: Path, line: str) -> None:
        with open(path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load_runs(self) -> Tuple[Dict[Tuple[str, int], CircuitRun], int]:
        """Checkpointed runs keyed by (circuit, seed).

        Returns ``(runs, n_quarantined)``.  Lines failing CRC/version
        verification are quarantined; verified lines whose payload
        nevertheless cannot rebuild a run (schema drift) are counted
        too but left in place.
        """
        runs: Dict[Tuple[str, int], CircuitRun] = {}
        payloads, corrupt = load_jsonl(self.runs_path, self.run_dir)
        for entry in payloads:
            try:
                key = (entry["circuit"], entry["seed"])
                runs[key] = reporting.run_from_dict(entry["run"])
            except Exception:
                corrupt += 1
        return runs, corrupt

    def load_records(self) -> List[JobRecord]:
        """Every JobRecord ever journalled (corrupt lines
        quarantined)."""
        records: List[JobRecord] = []
        payloads, _corrupt = load_jsonl(self.journal_path, self.run_dir)
        for payload in payloads:
            try:
                records.append(JobRecord(**payload))
            except Exception:
                continue
        return records

    def corrupt_checkpoint(self) -> None:
        """Chaos helper: append a garbage line to the run store."""
        with open(self.runs_path, "a") as handle:
            handle.write('{"circuit": "zzz", "broken\n')


# ----------------------------------------------------------------------
# Worker (runs in the spawned subprocess)
# ----------------------------------------------------------------------

def _build_hooks(spec: JobSpec, seed: int, directive: Optional[str],
                 run_dir: Optional[str], conn: Any,
                 heartbeat_interval: float,
                 isolated: bool) -> WorkerHooks:
    """Assemble one attempt's supervision bundle (worker side).

    Unscoped immediate directives (hang/crash/exit) are enacted right
    here, before any work; phase-scoped ones and ``corrupt-salvage``
    ride into the hooks and fire inside the pipeline.
    """
    chaos = parse_chaos(directive) if directive else None
    if chaos is not None and chaos.phase is None \
            and chaos.kind != "corrupt-salvage":
        if chaos.kind == "hang":
            freeze()  # no heartbeats ever: the stall timeout's case
        elif chaos.kind == "crash":
            raise RuntimeError("chaos: injected worker crash")
        elif chaos.kind == "exit":
            os._exit(13)
        chaos = None
    salvage = None
    if run_dir is not None:
        salvage = SalvageWriter(
            SalvageStore(run_dir), spec.circuit, seed, spec.result_knobs,
            corrupt_after_write=(chaos is not None
                                 and chaos.kind == "corrupt-salvage"))
    reporter = ProgressReporter(conn, heartbeat_interval)
    return WorkerHooks(reporter, salvage, chaos, isolated=isolated)


def _worker_main(conn, spec_dict: Dict[str, Any], seed: int,
                 directive: Optional[str],
                 run_dir: Optional[str] = None,
                 heartbeat_interval: float = 1.0) -> None:
    """Subprocess body: run one circuit job, send the result back.

    Must stay importable at module top level for ``spawn``; the spec
    travels as ``asdict(spec)``.  The pipe carries ``("heartbeat",
    status)`` messages while the job runs and exactly one final
    ``("ok", run_dict)`` or ``("error", traceback)``; the heartbeat
    pump is stopped before the final send (the pipe is not safe for
    concurrent writers).
    """
    reporter = None
    try:
        spec = JobSpec(**spec_dict)
        hooks = _build_hooks(spec, seed, directive, run_dir, conn,
                             heartbeat_interval, isolated=True)
        reporter = hooks.reporter
        reporter.start()
        run = run_circuit(suite.profile(spec.circuit), seed=seed,
                          hooks=hooks, **spec.options())
        reporter.stop()
        conn.send(("ok", reporting.run_to_dict(run)))
    except BaseException:
        try:
            if reporter is not None:
                reporter.stop()
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent went away
            pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass


def _run_attempt_inline(spec: JobSpec, seed: int,
                        directive: Optional[str],
                        store: Optional[RunStore]) -> Tuple[str, Any]:
    """One attempt without process isolation (``isolate=False``).

    Phase-boundary salvage works inline too (it only needs the run
    dir); heartbeats go nowhere (no pipe) but phase-scoped chaos still
    fires, with ``stall`` degrading to a raise -- an inline worker
    cannot be killed from outside.
    """
    try:
        if directive in ("crash", "exit", "hang"):
            raise RuntimeError(f"chaos: injected {directive} (in-process)")
        run_dir = str(store.run_dir) if store is not None else None
        hooks = _build_hooks(spec, seed, directive, run_dir, conn=None,
                             heartbeat_interval=0.0, isolated=False)
        run = run_circuit(suite.profile(spec.circuit), seed=seed,
                          hooks=hooks, **spec.options())
        return "ok", run
    except Exception:
        return "error", traceback.format_exc()


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------

@dataclass
class _JobState:
    spec: JobSpec
    attempts: int = 0
    not_before: float = 0.0
    seconds: float = 0.0
    last_error: Optional[str] = None
    last_status: str = "failed"
    last_delay: float = 0.0
    progress: Optional[str] = None


class _ActiveWorker:
    __slots__ = ("state", "proc", "conn", "started", "deadline",
                 "last_beat")

    def __init__(self, state, proc, conn, started, deadline) -> None:
        self.state = state
        self.proc = proc
        self.conn = conn
        self.started = started
        self.deadline = deadline
        # Launch counts as a beat: a worker is granted one full stall
        # window to come up before silence becomes suspicious.
        self.last_beat = started


def _attempt_seed(spec: JobSpec, attempt: int, config: HarnessConfig,
                  has_salvage: bool = False) -> int:
    """The seed this attempt runs under: the base seed, offset by
    :data:`SEED_PERTURBATION` on the final attempt of a job with
    retries.

    The perturbation is skipped when salvage exists:
    salvaged phases were computed under the base seed, and resuming
    them under a perturbed one would splice two random streams into
    one result.
    """
    total = config.retries + 1
    if total > 1 and attempt == total and not has_salvage:
        return spec.seed + SEED_PERTURBATION
    return spec.seed


def _retry_delay(state: _JobState, config: HarnessConfig) -> float:
    """Decorrelated-jitter backoff, deterministic per (job, attempt).

    AWS-style: draw uniformly from ``[base, 3 * previous]``, capped.
    Seeded from the job identity so reruns behave identically while
    different jobs failing together spread their retries apart.
    """
    spec = state.spec
    key = f"{spec.circuit}:{spec.seed}:{state.attempts}"
    rng = random.Random(zlib.crc32(key.encode("utf-8")))
    prev = state.last_delay or config.backoff_base
    delay = rng.uniform(config.backoff_base,
                        max(config.backoff_base, prev * 3))
    delay = min(config.backoff_cap, delay)
    state.last_delay = delay
    return delay


def _progress_text(status: Dict[str, Any]) -> Optional[str]:
    """Render one heartbeat status as a short ``arm/phase`` label."""
    arm, phase = status.get("arm"), status.get("phase")
    if arm is None and phase is None:
        return None
    text = f"{arm or '?'}/{phase or '?'}"
    remaining = status.get("faults_remaining")
    if remaining is not None:
        text += f" ({remaining} faults left)"
    return text


def _preflight_rules(circuit: str,
                     cache: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
    """Error-severity lint rule ids for one suite circuit (cached).

    Only the cheap structural rules run (``xinit=False``).  Resolution
    or analysis problems never fail the pre-flight: a circuit that is
    unknown, unbuildable or un-lintable returns no rules and its job
    runs (and fails) normally, keeping the real traceback.
    """
    if circuit not in cache:
        rules: Tuple[str, ...] = ()
        try:
            from ..analysis.rules import lint_netlist
            report = lint_netlist(suite.profile(circuit).build(),
                                  xinit=False)
            rules = tuple(dict.fromkeys(d.rule for d in report.errors))
        except Exception:
            pass
        cache[circuit] = rules
    return cache[circuit]


def _chaos_directive(config: HarnessConfig, store: Optional[RunStore],
                     spec: JobSpec, attempt: int) -> Optional[str]:
    if config.chaos is None:
        return None
    directive = config.chaos(spec, attempt)
    if directive is None:
        return None
    parse_chaos(directive)  # validate before shipping to a worker
    if directive == "corrupt-checkpoint":
        if store is not None:
            store.corrupt_checkpoint()
        return None
    return directive


def run_jobs(specs: Sequence[JobSpec],
             config: Optional[HarnessConfig] = None,
             verbose: bool = False) -> SuiteOutcome:
    """Execute ``specs`` resiliently; the core of the harness.

    Jobs run in up to ``config.jobs`` worker subprocesses; each attempt
    gets ``config.timeout`` seconds; failures retry with exponential
    backoff.  With ``config.run_dir`` set, completed runs checkpoint
    incrementally, and ``config.resume`` skips jobs the checkpoint
    already holds.  Runs come back in ``specs`` order (failed jobs are
    simply absent); consult :attr:`SuiteOutcome.records` for the
    per-job story.
    """
    config = config or HarnessConfig()
    if config.chaos is None:
        env_chaos = os.environ.get("REPRO_CHAOS")
        if env_chaos:
            config = replace(config, chaos=chaos_from_env(env_chaos))
    store = RunStore(config.run_dir) if config.run_dir else None

    results: Dict[Tuple[str, int], CircuitRun] = {}
    records: List[JobRecord] = []
    partials: Dict[str, PartialRun] = {}
    pending: List[_JobState] = []
    lint_cache: Dict[str, Tuple[str, ...]] = {}

    checkpoint: Dict[Tuple[str, int], CircuitRun] = {}
    if store is not None and config.resume:
        checkpoint, corrupt = store.load_runs()
        if corrupt and verbose:  # pragma: no cover - cosmetic
            print(f"  (checkpoint: skipped {corrupt} corrupt line(s))")

    for spec in specs:
        cached = checkpoint.get(spec.key)
        if cached is not None and _checkpoint_usable(cached, spec):
            results[spec.key] = cached
            record = JobRecord(spec.circuit, spec.seed, "skipped-resume",
                               attempts=0, seconds=0.0)
            records.append(record)
            if store is not None:
                store.append_record(record)
            if verbose:
                print(f"  {spec.circuit}: resumed from checkpoint")
            continue
        rules = _preflight_rules(spec.circuit, lint_cache)
        if rules:
            record = JobRecord(spec.circuit, spec.seed, "skipped-lint",
                               attempts=0, seconds=0.0,
                               error="lint: " + ", ".join(rules),
                               lint_rules=rules)
            records.append(record)
            if store is not None:
                store.append_record(record)
            if verbose:
                print(f"  {spec.circuit}: skipped "
                      f"(lint: {', '.join(rules)})")
            continue
        pending.append(_JobState(spec))

    if config.isolate:
        _run_isolated(pending, config, store, results, records,
                      partials, verbose)
    else:
        _run_inline(pending, config, store, results, records,
                    partials, verbose)

    runs = [results[s.key] for s in specs if s.key in results]
    return SuiteOutcome(runs=runs, records=records, partials=partials)


def _checkpoint_usable(run: CircuitRun, spec: JobSpec) -> bool:
    """A cached run satisfies the request: it holds the requested
    arms, baselines and delay report, and was produced under the
    requested result knobs (:func:`same_result_knobs`).  A
    delay-bearing checkpoint also serves a plain request."""
    if not all(a in run.arms for a in spec.arms):
        return False
    if spec.with_baselines and run.baseline4 is None:
        return False
    if spec.delay and run.delay is None:
        return False
    return same_result_knobs(run.knobs, spec.result_knobs)


def _finish(state: _JobState, status: str, payload: Any,
            config: HarnessConfig, store: Optional[RunStore],
            results: Dict[Tuple[str, int], CircuitRun],
            records: List[JobRecord], pending: List[_JobState],
            partials: Dict[str, PartialRun], verbose: bool) -> None:
    """Record one finished attempt; reschedule or finalize the job."""
    spec = state.spec
    if status == "ok":
        run = payload if isinstance(payload, CircuitRun) \
            else reporting.run_from_dict(payload)
        results[spec.key] = run
        record = JobRecord(spec.circuit, spec.seed, "ok",
                           attempts=state.attempts,
                           seconds=round(state.seconds, 3),
                           progress=state.progress)
        records.append(record)
        if store is not None:
            store.append_run(spec, run)
            store.append_record(record)
            # The job checkpointed whole; its salvage is now stale.
            store.salvage.discard(spec.circuit, spec.seed)
        if verbose:
            print(f"  {spec.circuit}: ok in {state.seconds:.1f}s "
                  f"(attempt {state.attempts})")
        return

    state.last_status = status
    state.last_error = payload
    if state.attempts <= config.retries:
        delay = _retry_delay(state, config)
        state.not_before = time.monotonic() + delay
        pending.append(state)
        if verbose:
            print(f"  {spec.circuit}: {status} (attempt "
                  f"{state.attempts}), retrying in {delay:.1f}s")
        return

    salvaged_phase = 0
    if store is not None:
        payload_salvage = store.salvage.load(spec.circuit, spec.seed)
        if payload_salvage is not None and salvage_usable(
                payload_salvage, spec.result_knobs, spec.seed):
            partial = PartialRun.from_salvage(
                payload_salvage,
                reason=f"{status} after {state.attempts} attempt(s)")
            if partial.phases_completed:
                partials[spec.circuit] = partial
                salvaged_phase = partial.phases_completed

    record = JobRecord(spec.circuit, spec.seed, status,
                       attempts=state.attempts,
                       seconds=round(state.seconds, 3),
                       error=payload,
                       progress=state.progress,
                       salvaged_phase=salvaged_phase)
    records.append(record)
    if store is not None:
        store.append_record(record)
    if verbose:
        print(f"  {spec.circuit}: {status} after "
              f"{state.attempts} attempt(s)")


def _has_salvage(store: Optional[RunStore], spec: JobSpec) -> bool:
    return store is not None and store.salvage.exists(spec.circuit,
                                                      spec.seed)


def _run_inline(pending: List[_JobState], config: HarnessConfig,
                store: Optional[RunStore],
                results: Dict[Tuple[str, int], CircuitRun],
                records: List[JobRecord],
                partials: Dict[str, PartialRun],
                verbose: bool) -> None:
    """Serial in-process execution (no isolation, no timeouts)."""
    while pending:
        state = pending.pop(0)
        wait = state.not_before - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        state.attempts += 1
        directive = _chaos_directive(config, store, state.spec,
                                     state.attempts)
        seed = _attempt_seed(state.spec, state.attempts, config,
                             _has_salvage(store, state.spec))
        started = time.monotonic()
        status, payload = _run_attempt_inline(state.spec, seed,
                                              directive, store)
        state.seconds += time.monotonic() - started
        _finish(state, "ok" if status == "ok" else "failed", payload,
                config, store, results, records, pending, partials,
                verbose)


def _run_isolated(pending: List[_JobState], config: HarnessConfig,
                  store: Optional[RunStore],
                  results: Dict[Tuple[str, int], CircuitRun],
                  records: List[JobRecord],
                  partials: Dict[str, PartialRun],
                  verbose: bool) -> None:
    """Subprocess execution with timeouts, stall detection and bounded
    parallelism."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    max_workers = max(1, config.jobs)
    active: List[_ActiveWorker] = []

    def launch(state: _JobState) -> None:
        state.attempts += 1
        directive = _chaos_directive(config, store, state.spec,
                                     state.attempts)
        seed = _attempt_seed(state.spec, state.attempts, config,
                             _has_salvage(store, state.spec))
        run_dir = str(store.run_dir) if store is not None else None
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, asdict(state.spec), seed, directive,
                  run_dir, config.heartbeat_interval),
            daemon=True)
        proc.start()
        child_conn.close()
        now = time.monotonic()
        deadline = now + config.timeout if config.timeout else None
        active.append(_ActiveWorker(state, proc, parent_conn, now,
                                    deadline))

    def settle(worker: _ActiveWorker, status: str, payload: Any) -> None:
        active.remove(worker)
        worker.conn.close()
        worker.state.seconds += time.monotonic() - worker.started
        _finish(worker.state, status, payload, config, store, results,
                records, pending, partials, verbose)

    def drain(worker: _ActiveWorker) -> bool:
        """Consume pipe messages; True if the worker was settled.

        Heartbeats update the worker's liveness stamp and last-seen
        progress; the single final ``ok``/``error`` message settles
        the job.  EOF without a final message is a hard death
        (``os._exit``, segfault).
        """
        try:
            while worker.conn.poll():
                kind, payload = worker.conn.recv()
                if kind == "heartbeat":
                    worker.last_beat = time.monotonic()
                    worker.state.progress = _progress_text(payload)
                    continue
                worker.proc.join(timeout=5)
                settle(worker, "ok" if kind == "ok" else "failed",
                       payload)
                return True
        except (EOFError, OSError):
            worker.proc.join(timeout=5)
            settle(worker, "failed",
                   f"worker died without a result "
                   f"(exit code {worker.proc.exitcode})")
            return True
        return False

    try:
        while pending or active:
            now = time.monotonic()
            ready = [s for s in pending if s.not_before <= now]
            while ready and len(active) < max_workers:
                state = ready.pop(0)
                pending.remove(state)
                launch(state)

            if not active:
                # Everything left is backing off; sleep to the nearest.
                wake = min(s.not_before for s in pending)
                time.sleep(max(0.0, wake - time.monotonic()))
                continue

            time.sleep(_POLL_INTERVAL)
            for worker in list(active):
                if drain(worker):
                    continue
                now = time.monotonic()
                if worker.deadline is not None and now >= worker.deadline:
                    worker.proc.kill()
                    worker.proc.join(timeout=5)
                    settle(worker, "timeout",
                           f"killed after exceeding the "
                           f"{config.timeout}s per-job timeout")
                elif (config.stall_timeout is not None
                      and now - worker.last_beat > config.stall_timeout):
                    worker.proc.kill()
                    worker.proc.join(timeout=5)
                    last = worker.state.progress or "no heartbeat seen"
                    settle(worker, "stall",
                           f"killed after {config.stall_timeout}s "
                           f"without a heartbeat (last: {last})")
                elif not worker.proc.is_alive():
                    worker.proc.join()
                    settle(worker, "failed",
                           f"worker died without a result "
                           f"(exit code {worker.proc.exitcode})")
    finally:
        for worker in active:  # pragma: no cover - only on hard errors
            worker.proc.kill()
            worker.proc.join(timeout=5)


def run_suite_resilient(
    profiles: Optional[Sequence[CircuitProfile]] = None,
    quick: bool = True,
    seed: int = 1,
    config: Optional[HarnessConfig] = None,
    verbose: bool = False,
    **options: Any,
) -> SuiteOutcome:
    """Resilient drop-in for :func:`repro.experiments.runner.run_suite`.

    Same run options (``options``: the :class:`JobSpec` fields, i.e.
    :func:`~repro.experiments.runner.run_circuit`'s keyword options);
    adds the :class:`HarnessConfig` resilience layer and returns a
    :class:`SuiteOutcome` instead of a bare list.  Suite profiles are
    dispatched to workers *by name*, so explicit ``profiles`` must
    come from the suite registry.
    """
    specs = [JobSpec(circuit=p.name, seed=seed, **options)
             for p in resolve_profiles(profiles, quick=quick)]
    return run_jobs(specs, config=config, verbose=verbose)
