"""Span tracing from outside the program.

:class:`Tracer` replaces public functions and methods of each layer
with timing wrappers, at the names the callers look them up by, and
puts the originals back on :meth:`Tracer.restore`.  Nothing in
``src/`` changes.  Spans are kept in memory as ``(name, start, end,
parent)`` records; :meth:`Tracer.layer_times` turns them into self
times (span minus child spans) and :meth:`Tracer.write_chrome` writes
Chrome trace-event JSON that https://ui.perfetto.dev opens.

The span names are ``<module layer>.<operation>``; the layer prefix is
the ``repro`` sub-package the wrapped call belongs to.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Root span: the whole in-process workload.  Its self time is the
#: part of the run no wrapped call covers (harness bookkeeping, run
#: store writes, glue between stages).
ROOT = "experiments.run"

#: ``SimCounters.phase_timer`` phase -> span name.  The power and TDF
#: timers are left alone: their callers are wrapped directly.
PHASE_SPANS = {"phase1": "core.phase1", "phase2": "core.phase2",
               "phase3": "core.phase3", "phase4": "core.phase4"}

Counter = Callable[[Any], Dict[str, float]]


class Tracer:
    """Nested wall-clock spans and boundary counts, in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _open(self) -> Tuple[int, int, float]:
        index = len(self.spans)
        self.spans.append(("", 0.0, 0.0, -1))
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, name: str, token: Tuple[int, int, float]) -> None:
        end = time.perf_counter()
        index, parent, start = token
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        token = self._open()
        try:
            yield
        finally:
            self._close(name, token)

    def count(self, values: Dict[str, float]) -> None:
        for key, value in values.items():
            self.counts[key] = self.counts.get(key, 0) + value

    # -- patching -------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: Optional[str],
             counter: Optional[Counter] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``name`` None records only the counts ``counter(result)``
        returns.  ``owner`` is a module or a class; a class attribute
        keeps working as a method because the wrapper is a plain
        function.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name is None:
                result = original(*args, **kwargs)
            else:
                token = tracer._open()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(name, token)
            if counter is not None:
                tracer.count(counter(result))
            return result

        self._patch(owner, attr, wrapper)

    def wrap_phase_timer(self, counters_cls: Any) -> None:
        """Open a ``core.phaseN`` span inside every Phase-N timer."""
        original = counters_cls.phase_timer
        tracer = self

        @contextmanager
        def phase_timer(counters: Any, phase: str) -> Iterator[None]:
            name = PHASE_SPANS.get(phase)
            with original(counters, phase):
                if name is None:
                    yield
                else:
                    with tracer.span(name):
                        yield

        self._patch(counters_cls, "phase_timer", phase_timer)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------
    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Span name -> ``{"self_s", "total_s", "calls"}``."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                          "calls": 0})
            entry["self_s"] += end - start - child[index]
            entry["total_s"] += end - start
            entry["calls"] += 1
        return out

    def root_seconds(self) -> float:
        """Duration of the outermost :data:`ROOT` span."""
        for name, start, end, parent in self.spans:
            if name == ROOT and parent < 0:
                return end - start
        raise ValueError("no root span recorded")

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (complete events with parent ids)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [{
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1, "tid": 1,
            "args": {"id": index, "parent": parent},
        } for index, (name, start, end, parent) in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the layer table in
    ``perfbench/README.md``)."""
    from repro import api, cli
    from repro.analysis import faultspace, rules
    from repro.atpg import comb_set, podem, seqgen
    from repro.circuits import suite
    from repro.core import proposed
    from repro.experiments import runner
    from repro.power import activity
    from repro.sim import comb_sim, counters, fault_sim, logicsim, npsim

    for attr in ("all_tables", "paper_comparison",
                 "engine_counters_table", "render_all"):
        tracer.wrap(cli, attr, "experiments.render")
    tracer.wrap(suite.CircuitProfile, "build", "circuits.build")
    tracer.wrap(rules, "lint_netlist", "analysis.lint")
    tracer.wrap(faultspace, "analyze_faultspace", "analysis.faultspace")
    tracer.wrap(logicsim.CompiledCircuit, "__init__", "sim.compile")
    tracer.wrap(npsim.ArrayBackend, "__init__", "sim.kernel_load")

    tracer.wrap(comb_set, "generate", "atpg.comb_set",
                lambda r: {"atpg.comb_tests": len(r.tests),
                           "atpg.aborted": len(r.aborted)})
    tracer.wrap(comb_set, "random_selected", "atpg.random_phase")
    tracer.wrap(comb_set, "compact_tests", "atpg.comb_compact")
    tracer.wrap(podem.Podem, "generate", "atpg.podem")
    tracer.wrap(seqgen, "generate_sequence", "atpg.seqgen")

    tracer.wrap_phase_timer(counters.SimCounters)
    tracer.wrap(api, "run_proposed", "core.proposed")
    tracer.wrap(proposed, "omit_vectors", None,
                lambda r: {"core.omitted": r.omitted,
                           "core.omission_trials": r.trials})
    tracer.wrap(api, "baseline_static", "core.baseline4")
    tracer.wrap(api, "baseline_dynamic", "core.dynamic")

    sim_cls = fault_sim.FaultSimulator
    tracer.wrap(sim_cls, "detect", "sim.detect")
    tracer.wrap(sim_cls, "detect_trials", "sim.trials")
    tracer.wrap(sim_cls, "detect_candidates", "sim.candidates")
    tracer.wrap(sim_cls, "run_with_records", "sim.records")
    tracer.wrap(comb_sim.CombPatternSim, "detect_block", "sim.comb_block")
    for attr in ("run_detect_chunk", "run_suffix_chunk", "run_lane_chunk",
                 "run_good_lane_pass", "run_records_chunk"):
        tracer.wrap(npsim.ArrayBackend, attr, "sim.array")

    tracer.wrap(activity.ActivityEngine, "set_power", "power.set_power")
    tracer.wrap(runner, "measure_delay", "delay.measure")
