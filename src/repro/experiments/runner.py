"""Per-circuit experiment runner.

One :class:`CircuitRun` gathers everything the paper's five tables need
for one circuit: the combinational test set, both arms of the proposed
procedure (sequential-generator ``T0`` and random ``T0``), the [4]
static baseline, the [2,3]-style dynamic baseline, and (optionally)
transition-fault coverage of the final test sets.

Runs are deterministic for a given profile + seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import api
from ..atpg import comb_set as comb_set_mod
from ..circuits.suite import CircuitProfile, suite
from ..core.combine import CombineResult
from ..core.dynamic import DynamicResult
from ..core.proposed import ProposedResult
from ..core.scan_test import ScanTestSet
from ..delay.clocking import DelayReport, measure_delay
from ..delay.transition import TransitionSim
from ..power.activity import ActivityEngine, PowerReport


@dataclass
class ArmResult:
    """One arm (T0 source) of the proposed procedure."""

    t0_source: str
    t0_length: int
    result: ProposedResult
    seconds: float


@dataclass
class CircuitRun:
    """All measurements for one suite circuit."""

    profile: CircuitProfile
    n_ffs: int
    n_gates: int
    n_faults: int
    n_detectable: int
    comb_tests: int
    arms: Dict[str, ArmResult]
    baseline4: Optional[CombineResult]
    dynamic: Optional[DynamicResult]
    seconds: float = 0.0
    #: Engine instrumentation (``SimCounters.as_dict()`` of the
    #: sequential simulator, summed over everything this run did).
    counters: Dict[str, Any] = field(default_factory=dict)
    #: Structural lint findings for the circuit, as
    #: ``Diagnostic.to_dict()`` dicts (JSON-able; see
    #: :mod:`repro.analysis.diagnostics`).  Empty for clean circuits.
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    #: Power measurements of the final test sets; see
    #: :class:`repro.power.activity.PowerReport`.
    power: Optional[PowerReport] = None
    #: At-speed quality of the final test sets: TDF coverage plus the
    #: test-clock cycle budget (``None`` unless the run was produced
    #: with ``delay=True``); see
    #: :class:`repro.delay.clocking.DelayReport`.
    delay: Optional[DelayReport] = None
    #: The knobs this run was produced under (engine, x_fill,
    #: power_budget, delay).  The harness compares the
    #: :data:`RESULT_KNOBS` among them against a resumed job's spec so
    #: a checkpoint written under different knobs is recomputed, not
    #: reused.
    knobs: Dict[str, Any] = field(default_factory=dict)
    #: Faults the static fault-space analyzer *proved* untestable
    #: (constant lines, unobservable cones, const-blocked paths; see
    #: :mod:`repro.analysis.faultspace`).  These are excluded from
    #: simulation and can never count against coverage.
    n_untestable: int = 0

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def transition(self) -> Dict[str, float]:
        """Transition-fault coverage (%) per final test set, flattened
        from :attr:`delay` (empty without a delay report)."""
        if self.delay is None:
            return {}
        return {label: summary.coverage
                for label, summary in self.delay.sets.items()}

    @property
    def lint_rules(self) -> List[str]:
        """Unique rule ids among :attr:`diagnostics`, in pass order."""
        seen: List[str] = []
        for d in self.diagnostics:
            rule = str(d.get("rule", ""))
            if rule and rule not in seen:
                seen.append(rule)
        return seen


#: The :func:`run_circuit` options that can change a run's test sets.
#: Stored work -- a checkpointed run or phase-boundary salvage -- may
#: stand in for a requested run only when it recorded every one of
#: them with the requested value (:func:`same_result_knobs`).
#: ``engine`` is absent because every engine produces identical
#: results; ``delay`` only adds a measurement, so the checkpoint rule
#: checks for the report instead.
RESULT_KNOBS = ("x_fill", "power_budget")

#: Result knobs that earlier versions offered and this one does not,
#: each with the only value this version reproduces (the knob off).
#: Stored work recorded under any other value came from code that is
#: gone, so it serves no request; records without the key are fine.
RETIRED_KNOBS = {"adi": False, "scoap": False}


def same_result_knobs(recorded: Mapping[str, Any],
                      requested: Mapping[str, Any]) -> bool:
    """True iff both mappings hold every :data:`RESULT_KNOBS` entry
    with equal values and ``recorded`` holds no :data:`RETIRED_KNOBS`
    entry at another value.  A missing result knob fails: a record
    that does not say how it was produced cannot stand in for a run."""
    return all(name in recorded and name in requested
               and recorded[name] == requested[name]
               for name in RESULT_KNOBS) and \
        all(recorded.get(name, off) == off
            for name, off in RETIRED_KNOBS.items())


@dataclass(frozen=True)
class JobSpec:
    """One run request: a suite circuit, a seed and :func:`run_circuit`'s
    keyword options, one field each (same names, same defaults).

    The spec is the only carrier of a run's options: the resilient
    harness ships it across the ``spawn`` boundary as
    ``dataclasses.asdict`` and workers rebuild it with
    ``JobSpec(**spec_dict)``; both worker paths then call
    ``run_circuit(profile, seed=..., hooks=..., **spec.options())``.
    """

    circuit: str
    seed: int = 1
    arms: Tuple[str, ...] = ("seqgen", "random")
    with_baselines: bool = True
    delay: bool = False
    engine: str = "auto"
    x_fill: str = "random"
    power_budget: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(self.arms))

    @property
    def key(self) -> Tuple[str, int]:
        """Checkpoint identity (circuit, base seed)."""
        return (self.circuit, self.seed)

    @property
    def result_knobs(self) -> Dict[str, Any]:
        """This spec's :data:`RESULT_KNOBS` values."""
        return {name: getattr(self, name) for name in RESULT_KNOBS}

    def options(self) -> Dict[str, Any]:
        """:func:`run_circuit`'s keyword options (every field but
        ``circuit`` and ``seed``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("circuit", "seed")}


def run_circuit(
    profile: CircuitProfile,
    seed: int = 1,
    arms: Sequence[str] = ("seqgen", "random"),
    with_baselines: bool = True,
    delay: bool = False,
    engine: str = "auto",
    x_fill: str = "random",
    power_budget: Optional[float] = None,
    hooks: Optional[Any] = None,
) -> CircuitRun:
    """Run every experiment on one circuit.

    Parameters
    ----------
    profile:
        Suite profile (carries the circuit builder and budgets).
    seed:
        Master seed.
    arms:
        Which ``T0`` sources to run ("seqgen" and/or "random").
    with_baselines:
        Also run the [4] and [2,3] baselines.
    delay:
        Also measure at-speed quality of the final test sets:
        transition-fault coverage (on the C kernel under
        ``"auto"`` when it loads, the big-int reference otherwise)
        plus the test-clock cycle budget, recorded as
        :attr:`CircuitRun.delay`.
    engine:
        Simulation backend (``"auto"`` or the ``"interp"``
        reference), forwarded to
        :meth:`repro.api.Workbench.for_netlist`.
    x_fill, power_budget:
        Don't-care fill strategy and optional peak shift-WTM budget,
        forwarded to :func:`repro.api.compact_tests` /
        :func:`repro.api.baseline_static`.  The power of every final
        test set is measured regardless (it is cheap) and recorded in
        :attr:`CircuitRun.power`.
    hooks:
        Optional :class:`repro.experiments.supervision.WorkerHooks`:
        heartbeat updates, phase-boundary salvage flushes, and -- on a
        retry -- salvaged state to resume each arm from (a completed
        arm is reused outright; a mid-pipeline arm resumes past its
        completed phases).
    """
    started = time.time()
    netlist = profile.build()
    wb = api.Workbench.for_netlist(netlist, engine=engine, lint=True)
    comb = comb_set_mod.generate(wb.circuit, wb.faults, seed=seed,
                                 x_fill=x_fill)
    if hooks is not None:
        hooks.bind_counters(wb.counters, len(wb.faults))
        hooks.job_meta({
            "n_ffs": netlist.num_ffs,
            "n_gates": netlist.num_gates,
            "n_faults": len(wb.faults),
            "n_detectable": len(comb.detectable),
            "comb_tests": len(comb.tests),
            "n_untestable": wb.n_untestable,
        })

    arm_results: Dict[str, ArmResult] = {}
    for source in arms:
        t0_started = time.time()
        if hooks is not None:
            salvaged = hooks.completed_arm(source)
            if salvaged is not None:
                arm_results[source] = salvaged
                continue
        if source == "seqgen":
            length = profile.seq_budget
        elif source == "random":
            length = profile.t0_length
        else:
            raise ValueError(f"unknown arm {source!r}")
        observer = resume = None
        if hooks is not None:
            observer = hooks.arm_observer(source)
            resume = hooks.arm_resume(source)
        result = api.compact_tests(
            netlist, seed=seed, t0_source=source, t0_length=length,
            comb_tests=comb.tests, workbench=wb,
            x_fill=x_fill, power_budget=power_budget,
            observer=observer, resume=resume)
        arm_result = ArmResult(
            t0_source=source, t0_length=length, result=result,
            seconds=time.time() - t0_started)
        arm_results[source] = arm_result
        if hooks is not None:
            hooks.arm_completed(source, arm_result)

    baseline4 = None
    dynamic = None
    if with_baselines:
        baseline4 = api.baseline_static(netlist, seed=seed,
                                        comb_tests=comb.tests,
                                        workbench=wb,
                                        power_budget=power_budget)
        dynamic = api.baseline_dynamic(netlist, seed=seed,
                                       comb_tests=comb.tests,
                                       workbench=wb)

    power_engine = ActivityEngine(wb.circuit, wb.counters)
    power = PowerReport(x_fill=x_fill, budget=power_budget)
    for source, arm in arm_results.items():
        final = arm.result.compacted_set or arm.result.test_set
        power.sets[source] = power_engine.set_power(final).summary()
    if baseline4 is not None:
        power.sets["baseline4"] = power_engine.set_power(
            baseline4.test_set).summary()

    delay_report: Optional[DelayReport] = None
    if delay:
        tsim = TransitionSim(wb.circuit, counters=wb.counters)
        sets: Dict[str, ScanTestSet] = {}
        if baseline4 is not None:
            sets["baseline4"] = baseline4.test_set
        for source, arm in arm_results.items():
            sets[source] = arm.result.compacted_set or \
                arm.result.test_set
        delay_report = measure_delay(tsim, sets)

    return CircuitRun(
        profile=profile,
        n_ffs=netlist.num_ffs,
        n_gates=netlist.num_gates,
        n_faults=len(wb.faults),
        n_detectable=len(comb.detectable),
        comb_tests=len(comb.tests),
        arms=arm_results,
        baseline4=baseline4,
        dynamic=dynamic,
        seconds=time.time() - started,
        counters=wb.counters.as_dict(),
        diagnostics=[d.to_dict() for d in wb.diagnostics],
        power=power,
        delay=delay_report,
        knobs={
            "engine": engine,
            "x_fill": x_fill,
            "power_budget": power_budget,
            "delay": delay,
        },
        n_untestable=wb.n_untestable,
    )


def resolve_profiles(
    profiles: Optional[Sequence[CircuitProfile]] = None,
    quick: bool = True,
) -> List[CircuitProfile]:
    """The explicit profile list, or the quick/full suite default."""
    if profiles is None:
        return suite(quick=quick)
    return list(profiles)


def run_suite(
    profiles: Optional[Sequence[CircuitProfile]] = None,
    quick: bool = True,
    seed: int = 1,
    verbose: bool = False,
    **options: Any,
) -> List[CircuitRun]:
    """Run the whole suite serially, in process.

    This is the simple path: one crash or hang voids the whole run.
    Long campaigns should prefer
    :func:`repro.experiments.harness.run_suite_resilient`, which adds
    worker isolation, timeouts, retries and checkpoint-resume.

    ``options`` are :func:`run_circuit`'s keyword options (the
    :class:`JobSpec` fields), forwarded to every circuit.
    """
    runs = []
    for profile in resolve_profiles(profiles, quick=quick):
        run = run_circuit(profile, seed=seed, **options)
        if verbose:  # pragma: no cover - console feedback only
            print(f"  {profile.name}: {run.seconds:.1f}s")
        runs.append(run)
    return runs
