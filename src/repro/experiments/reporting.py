"""Plain-text table rendering and JSON (de)serialization for results.

The renderers aim for the paper's look: fixed-width columns, one row
per circuit, a ``total`` row where the paper prints one.

The second half of the module turns :class:`~repro.experiments.runner.
CircuitRun` (and everything it embeds) into plain JSON-able dicts and
back.  Vectors are stored as compact ``"01x"`` strings; fault sets as
sorted index lists.  The round trip is exact, which is what lets the
resilient harness checkpoint completed runs and resume a campaign.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from ..core.combine import CombineResult, CombineStats
from ..core.dynamic import DynamicResult
from ..core.proposed import IterationLog, ProposedResult
from ..core.scan_test import ScanTest, ScanTestSet
from ..delay.clocking import DelayReport
from ..power.activity import PowerReport
from ..sim import values as V


class Table:
    """A titled grid of rows used by every experiment report."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[Any]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, expected {len(self.headers)}")
        self.rows.append(list(cells))

    def render(self) -> str:
        """Fixed-width text rendering."""
        cells = [self.headers] + [[_fmt(c) for c in row]
                                  for row in self.rows]
        widths = [max(len(str(row[i])) for row in cells)
                  for i in range(len(self.headers))]
        lines = [self.title]
        lines.append("  ".join(str(h).ljust(w)
                               for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(str(c).ljust(w)
                                   for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {"title": self.title, "headers": self.headers,
                "rows": self.rows}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if cell is None:
        return "-"
    return str(cell)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically, creating parent dirs.

    The content lands in a sibling temp file first and is moved into
    place with :func:`os.replace`, so a mid-write interrupt can never
    leave a truncated artifact under the final name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            tmp.unlink()


def dump_json(tables: Sequence[Table], path: Union[str, Path]) -> None:
    """Write a list of tables as JSON (for regression tracking)."""
    payload = [t.to_dict() for t in tables]
    atomic_write_text(path, json.dumps(payload, indent=2))


def render_all(tables: Sequence[Table]) -> str:
    """Render several tables separated by blank lines."""
    return "\n\n".join(t.render() for t in tables)


# ----------------------------------------------------------------------
# CircuitRun (de)serialization
# ----------------------------------------------------------------------

def _vec_to_json(vector: V.Vector) -> str:
    return V.vec_str(vector)


def _vec_from_json(text: str) -> V.Vector:
    return V.vec(text)


def scan_test_to_dict(test: ScanTest) -> Dict[str, Any]:
    return {"si": _vec_to_json(test.scan_in),
            "vectors": [_vec_to_json(v) for v in test.vectors]}


def scan_test_from_dict(data: Dict[str, Any]) -> ScanTest:
    return ScanTest(_vec_from_json(data["si"]),
                    tuple(_vec_from_json(v) for v in data["vectors"]))


def test_set_to_dict(test_set: ScanTestSet) -> Dict[str, Any]:
    return {"n_sv": test_set.n_state_vars,
            "tests": [scan_test_to_dict(t) for t in test_set.tests]}


def test_set_from_dict(data: Dict[str, Any]) -> ScanTestSet:
    return ScanTestSet(data["n_sv"],
                       [scan_test_from_dict(t) for t in data["tests"]])


def _faults_to_json(faults) -> List[int]:
    return sorted(faults)


def proposed_to_dict(result: ProposedResult) -> Dict[str, Any]:
    return {
        "tau_seq": scan_test_to_dict(result.tau_seq),
        "test_set": test_set_to_dict(result.test_set),
        "compacted_set": (test_set_to_dict(result.compacted_set)
                          if result.compacted_set is not None else None),
        "t0_length": result.t0_length,
        "t0_detected": _faults_to_json(result.t0_detected),
        "seq_detected": _faults_to_json(result.seq_detected),
        "final_detected": _faults_to_json(result.final_detected),
        "added_tests": result.added_tests,
        "uncovered": _faults_to_json(result.uncovered),
        "iterations": [dataclasses.asdict(i) for i in result.iterations],
        "combine_stats": (dataclasses.asdict(result.combine_stats)
                          if result.combine_stats is not None else None),
    }


def proposed_from_dict(data: Dict[str, Any]) -> ProposedResult:
    compacted = data.get("compacted_set")
    stats = data.get("combine_stats")
    return ProposedResult(
        tau_seq=scan_test_from_dict(data["tau_seq"]),
        test_set=test_set_from_dict(data["test_set"]),
        compacted_set=(test_set_from_dict(compacted)
                       if compacted is not None else None),
        t0_length=data["t0_length"],
        t0_detected=set(data["t0_detected"]),
        seq_detected=set(data["seq_detected"]),
        final_detected=set(data["final_detected"]),
        added_tests=data["added_tests"],
        uncovered=set(data["uncovered"]),
        iterations=[IterationLog(**i) for i in data["iterations"]],
        combine_stats=CombineStats(**stats) if stats is not None else None,
    )


def combine_result_to_dict(result: CombineResult) -> Dict[str, Any]:
    return {"test_set": test_set_to_dict(result.test_set),
            "detected": _faults_to_json(result.detected),
            "stats": dataclasses.asdict(result.stats)}


def combine_result_from_dict(data: Dict[str, Any]) -> CombineResult:
    return CombineResult(test_set_from_dict(data["test_set"]),
                         set(data["detected"]),
                         CombineStats(**data["stats"]))


def dynamic_result_to_dict(result: DynamicResult) -> Dict[str, Any]:
    return {"test_set": test_set_to_dict(result.test_set),
            "detected": _faults_to_json(result.detected),
            "uncovered": _faults_to_json(result.uncovered)}


def dynamic_result_from_dict(data: Dict[str, Any]) -> DynamicResult:
    return DynamicResult(test_set_from_dict(data["test_set"]),
                         set(data["detected"]),
                         set(data["uncovered"]))


def arm_to_dict(arm: "ArmResult") -> Dict[str, Any]:
    return {"t0_source": arm.t0_source,
            "t0_length": arm.t0_length,
            "result": proposed_to_dict(arm.result),
            "seconds": arm.seconds}


def arm_from_dict(data: Dict[str, Any]) -> "ArmResult":
    from .runner import ArmResult
    return ArmResult(t0_source=data["t0_source"],
                     t0_length=data["t0_length"],
                     result=proposed_from_dict(data["result"]),
                     seconds=data["seconds"])


def run_to_dict(run: "CircuitRun") -> Dict[str, Any]:
    """Serialize a :class:`CircuitRun` (profile stored by name)."""
    return {
        "circuit": run.profile.name,
        "n_ffs": run.n_ffs,
        "n_gates": run.n_gates,
        "n_faults": run.n_faults,
        "n_detectable": run.n_detectable,
        "n_untestable": run.n_untestable,
        "comb_tests": run.comb_tests,
        "arms": {source: arm_to_dict(arm)
                 for source, arm in run.arms.items()},
        "baseline4": (combine_result_to_dict(run.baseline4)
                      if run.baseline4 is not None else None),
        "dynamic": (dynamic_result_to_dict(run.dynamic)
                    if run.dynamic is not None else None),
        "seconds": run.seconds,
        "counters": dict(run.counters),
        "diagnostics": [dict(d) for d in run.diagnostics],
        "power": (run.power.as_dict()
                  if run.power is not None else None),
        "delay": (run.delay.as_dict()
                  if run.delay is not None else None),
        "knobs": dict(run.knobs),
    }


def run_from_dict(data: Dict[str, Any]) -> "CircuitRun":
    """Rebuild a :class:`CircuitRun` from :func:`run_to_dict` output.

    The profile is resolved by name from the suite registry; a name
    that is no longer registered gets a stub profile (its ``build``
    raises), which is enough for every table renderer.  Every key
    :func:`run_to_dict` writes is required: a record missing one
    raises ``KeyError`` (the run store counts it as corrupt and the
    job is recomputed).
    """
    from ..circuits import suite as suite_mod
    from .runner import CircuitRun
    name = data["circuit"]
    try:
        profile = suite_mod.profile(name)
    except KeyError:
        def _unavailable() -> Any:
            raise RuntimeError(
                f"circuit {name!r} was restored from a checkpoint and "
                f"is not in the suite registry; it cannot be rebuilt")
        profile = suite_mod.CircuitProfile(name, _unavailable)
    baseline4 = data["baseline4"]
    dynamic = data["dynamic"]
    return CircuitRun(
        profile=profile,
        n_ffs=data["n_ffs"],
        n_gates=data["n_gates"],
        n_faults=data["n_faults"],
        n_detectable=data["n_detectable"],
        comb_tests=data["comb_tests"],
        arms={source: arm_from_dict(arm)
              for source, arm in data["arms"].items()},
        baseline4=(combine_result_from_dict(baseline4)
                   if baseline4 is not None else None),
        dynamic=(dynamic_result_from_dict(dynamic)
                 if dynamic is not None else None),
        seconds=data["seconds"],
        counters=dict(data["counters"]),
        diagnostics=[dict(d) for d in data["diagnostics"]],
        power=(PowerReport.from_dict(data["power"])
               if data["power"] is not None else None),
        delay=(DelayReport.from_dict(data["delay"])
               if data["delay"] is not None else None),
        knobs=dict(data["knobs"]),
        n_untestable=int(data["n_untestable"]),
    )


def engine_counters_table(runs: Sequence["CircuitRun"]) -> Table:
    """One row of engine instrumentation per circuit.

    Columns come from :class:`repro.sim.counters.SimCounters`:
    logical frames simulated, word evaluations, average faulty
    machines packed per word, faults dropped by the cross-phase
    scoreboard, in-pass repacks, the per-phase wall-clock timers
    (``p1_s`` .. ``p4_s``), the power engine's words and wall clock
    (``pw_words`` / ``pw_s``), the transition-fault engine's passes,
    words and wall clock (``tdf_passes`` / ``tdf_words`` / ``tdf_s``),
    the C pass kernel's pass count (``np``), and the trial-batch pair
    (``trials`` lane-batched trial passes, ``lanes`` trials carried)
    -- plus the engine knob the run executed under (``eng``, from
    :attr:`CircuitRun.knobs`).
    """
    table = Table("Engine counters",
                  ["circuit", "eng", "frames", "words", "mach/word",
                   "dropped", "repacks", "np", "trials", "lanes",
                   "p1_s", "p2_s", "p3_s", "p4_s", "pw_words",
                   "pw_s", "tdf_passes", "tdf_words", "tdf_s",
                   "seconds"])
    for run in runs:
        c = run.counters
        table.add_row(run.name, run.knobs.get("engine"), c.get("frames"),
                      c.get("words"), c.get("machines_per_word"),
                      c.get("faults_dropped"), c.get("repacks"),
                      c.get("np_passes"),
                      c.get("trial_passes"), c.get("trial_lanes"),
                      c.get("phase1_s"), c.get("phase2_s"),
                      c.get("phase3_s"), c.get("phase4_s"),
                      c.get("power_words"), c.get("power_s"),
                      c.get("tdf_passes"), c.get("tdf_words"),
                      c.get("tdf_s"),
                      run.seconds)
    return table
