"""Emit engine benchmarks: ``BENCH_engine.json`` / ``BENCH_phase1.json``.

Default mode runs the paper's full proposed procedure
(:func:`repro.core.proposed.run`) twice on one synthesized circuit:

* **before** -- the pre-fusion engine configuration: 128 machines per
  word (many chunks per pass) and a *disabled* scoreboard, so no
  cross-phase fault dropping;
* **after** -- the wide-word configuration: ``width="auto"`` (every
  target fused into one word) with cross-phase dropping on;
* **numpy** -- the same fused configuration with every pass in the C
  pass kernel over uint64 arrays (``engine="auto"``).  The arm is
  skipped -- recorded as ``null`` with a visible notice -- when the
  kernel is unavailable (no numpy, cffi or C compiler), since
  ``auto`` then *is* the after arm.

``--engine-matrix`` times one whole-fault-set ``detect`` pass per
engine (interp, codegen, auto) on the same circuit, best of several
repeats, asserting identical detected sets, and emits
``BENCH_engine_matrix.json``.

``--phase1`` instead benchmarks the Phase-1 candidate scan: the scalar
per-candidate :meth:`~repro.sim.fault_sim.FaultSimulator.detect` loop
vs the lane-transposed
:meth:`~repro.sim.fault_sim.FaultSimulator.detect_candidates` pass
(micro-benchmark over ``select_scan_in``, best of several repeats),
plus one end-to-end ``run_proposed`` per mode.  The emitted
``BENCH_phase1.json`` asserts identical ``(chosen_index, f_si)``,
final test sets and clock cycles under both modes.

Both modes must produce byte-identical results -- the script asserts
it and records the check in the JSON.  The emitted file carries
circuit stats, per-arm wall clock and engine counters, and the
speedup ratio.

``--trials`` benchmarks the lane-batched trial engine: the full
proposed procedure under ``trial_batch=1`` (scalar per-trial loops)
vs the default ``trial_batch=64`` (Phase-3 candidate blocks, Phase-4
merge-trial prefetching) on ``engine="auto"``.  The
emitted ``BENCH_trials.json`` records both arms' Phase-3+4 wall clock
and asserts byte-identical results; ``--gate RATIO`` fails when the
batched trial time exceeds ``RATIO`` x the scalar time (the committed
artifact shows >= 2x, i.e. ratio <= 0.5, on the full circuit).

``--adi`` compares the Accidental-Detection-Index-guided run
(``adi=True``, census from the random phase of combinational test
generation) against the flag-off default.  ``BENCH_adi.json`` records
both arms' detect passes and final clock cycles; the quality gate
(``--gate`` with any value) requires identical final fault coverage,
fewer total detect passes, and cycles no worse than the baseline.

``--collapse`` compares the static fault-space analyzer's collapsed
simulation against the plain uncollapsed flow: both arms run the full
proposed procedure on the *same* uncollapsed fault universe, but the
collapsed arm carries the structural-equivalence partition (one
representative simulated per class, detections re-inflated to every
member) and excludes the proven-untestable faults.  The emitted
``BENCH_collapse.json`` records the universe/class counts and both
arms' per-fault simulation work (``comb_passes``, ``machines``) and
asserts byte-identical results -- detection sets, test vectors and
clock cycles; ``--gate`` (any value) additionally requires the
collapsed arm to simulate strictly fewer per-fault passes and machine
bits.

``--delay`` benchmarks the at-speed workload: the profile circuit's
final test sets (one default proposed run plus the [4]-style
single-vector baseline) are graded by the transition-fault simulator
(:class:`repro.delay.transition.TransitionSim`) under both routes --
the scalar big-int loops (a ``CompiledCircuit(engine="codegen")``
circuit) and the wide-word packed route (uint64 arrays + the C pass
kernel, an ``engine="auto"`` circuit).  ``BENCH_delay.json`` records
both arms' wall clock, the full
:class:`repro.delay.clocking.DelayReport` (TDF coverage + test-clock
cycle budget per set), and an ``identical_coverage`` flag;
``--gate RATIO`` fails when the packed route is less than ``RATIO`` x
faster than scalar (skipped with a visible notice when numpy or the
kernel is unavailable).  The CI job
runs ``--delay --gate 3.0`` on the full-size circuit: the quick
circuit's TDF workload is too small for the kernel to amortize its
per-pass setup, so the gate would measure overhead, not the route.

``--power`` sweeps every X-fill strategy (:data:`repro.sim.values.
FILL_STRATEGIES`) over the quick suite: one proposed-procedure run per
(circuit, strategy), measuring the final test set's peak/average shift
WTM and capture toggles with :class:`repro.power.activity.
ActivityEngine`.  The emitted ``BENCH_power.json`` records an
``identical_detection`` flag (the explicit ``random`` strategy must be
byte-identical -- detection sets, cycles and test vectors -- to a run
with default parameters) and, under ``--gate``, asserts per circuit
that ``adjacent`` fill's peak shift WTM never exceeds ``RATIO`` times
``random`` fill's.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py            # full (~3 min)
    PYTHONPATH=src python benchmarks/emit_bench.py --quick    # CI-sized
    PYTHONPATH=src python benchmarks/emit_bench.py --quick --gate 1.5
    PYTHONPATH=src python benchmarks/emit_bench.py --quick --gate-numpy 3.0
    PYTHONPATH=src python benchmarks/emit_bench.py --engine-matrix --quick
    PYTHONPATH=src python benchmarks/emit_bench.py --phase1   # lanes bench
    PYTHONPATH=src python benchmarks/emit_bench.py --phase1 --quick --gate 1.0
    PYTHONPATH=src python benchmarks/emit_bench.py --power --gate 1.0
    PYTHONPATH=src python benchmarks/emit_bench.py --delay --gate 3.0

``--gate RATIO`` turns the script into a perf gate: exit code 1 when
the after/lanes arm is slower than ``RATIO`` times the before/scalar
arm (the CI perf-smoke job runs ``--quick --gate 1.5`` and
``--phase1 --quick --gate 1.0``).  ``--gate-numpy RATIO`` additionally
requires the kernel arm (``engine="auto"``) to be at least ``RATIO``
times faster than the fused big-int arm; it is skipped with a visible
notice when the C pass kernel is unavailable.  In ``--power`` mode the
gate is a quality gate instead: adjacent peak shift WTM vs random, per
circuit (the CI job runs ``--power --gate 1.0``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.atpg import comb_set as comb_set_mod
from repro.atpg import random_gen
from repro.circuits import synth
from repro.core.combine import static_compact
from repro.core.phase1 import detect_no_scan, select_scan_in
from repro.core.proposed import run as run_proposed
from repro.core.scan_test import ScanTestSet, single_vector_test
from repro.delay import TransitionSim, measure_delay
from repro.experiments.reporting import atomic_write_text
from repro.power.activity import ActivityEngine
from repro.sim.comb_sim import CombPatternSim
from repro.sim.counters import SimCounters
from repro.sim import npsim
from repro.sim.fault_sim import DEFAULT_WIDTH, FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit
from repro.sim.scoreboard import FaultScoreboard
from repro.sim import values as V


def _numpy_version() -> Optional[str]:
    """The installed numpy version, or ``None`` when absent."""
    if not npsim.numpy_available():
        return None
    return npsim.require_numpy().__version__

#: The full-size benchmark circuit: >= 1000 collapsed faults.
FULL_PROFILE = dict(name="bench1k", n_pi=12, n_po=10, n_ff=28,
                    n_gates=330, seed=7, t0_length=100)
#: CI-sized circuit: the same pipeline in a few seconds.
QUICK_PROFILE = dict(name="benchq", n_pi=8, n_po=6, n_ff=12,
                     n_gates=90, seed=7, t0_length=40)


def _run_arm(netlist, comb_tests, t0, width, dropping: bool,
             engine: str = "codegen") -> Dict[str, Any]:
    """One full proposed-procedure pass under a packing/drop policy."""
    circuit = CompiledCircuit(netlist, engine=engine)
    faults = FaultSet.collapsed(netlist)
    counters = SimCounters()
    sim = FaultSimulator(circuit, faults, width=width, counters=counters)
    comb_sim = CombPatternSim(circuit, faults)
    scoreboard = FaultScoreboard(len(faults), counters=counters,
                                 enabled=dropping)
    started = time.perf_counter()
    result = run_proposed(sim, comb_sim, t0, comb_tests,
                          scoreboard=scoreboard)
    seconds = time.perf_counter() - started
    final = result.compacted_set or result.test_set
    return {
        "engine": engine,
        "width": width,
        "dropping": dropping,
        "seconds": round(seconds, 3),
        "counters": counters.as_dict(),
        "result": {
            "seq_detected": len(result.seq_detected),
            "final_detected": len(result.final_detected),
            "tests": len(final),
            "cycles": final.clock_cycles(),
            "tau_seq_length": result.tau_seq.length,
        },
        "_sets": (result.seq_detected, result.final_detected,
                  tuple(final.tests)),
    }


def build_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    netlist = synth.generate(profile["name"], profile["n_pi"],
                             profile["n_po"], profile["n_ff"],
                             profile["n_gates"], seed=profile["seed"])
    circuit = CompiledCircuit(netlist)
    faults = FaultSet.collapsed(netlist)
    comb = comb_set_mod.generate(circuit, faults, seed=seed)
    t0 = random_gen.random_sequence(circuit, profile["t0_length"],
                                    seed=seed)

    print(f"circuit {profile['name']}: {netlist.num_gates} gates, "
          f"{netlist.num_ffs} FFs, {len(faults)} collapsed faults, "
          f"{len(comb.tests)} comb tests, |T0|={len(t0)}")

    print("before: chunked width=128, no dropping ...", flush=True)
    before = _run_arm(netlist, comb.tests, t0, DEFAULT_WIDTH,
                      dropping=False)
    print(f"  {before['seconds']}s")
    print('after: width="auto" fused, cross-phase dropping ...',
          flush=True)
    after = _run_arm(netlist, comb.tests, t0, "auto", dropping=True)
    print(f"  {after['seconds']}s")

    numpy_arm: Optional[Dict[str, Any]] = None
    reason = npsim.kernel_unavailable_reason()
    if reason is None:
        print('numpy: width="auto" fused, C pass kernel (engine auto) ...',
              flush=True)
        numpy_arm = _run_arm(netlist, comb.tests, t0, "auto",
                             dropping=True, engine="auto")
        print(f"  {numpy_arm['seconds']}s")
    else:
        print(f"numpy arm SKIPPED: the C pass kernel is unavailable "
              f"({reason})")

    after_sets = after.pop("_sets")
    identical = before.pop("_sets") == after_sets
    if numpy_arm is not None:
        identical = identical and numpy_arm.pop("_sets") == after_sets
    if not identical:
        print("ERROR: the arms disagree on results", file=sys.stderr)

    speedup = before["seconds"] / max(after["seconds"], 1e-9)
    numpy_speedup = None
    if numpy_arm is not None:
        numpy_speedup = round(
            after["seconds"] / max(numpy_arm["seconds"], 1e-9), 2)
    return {
        "bench": "engine: fused wide-word + fault dropping vs chunked",
        "circuit": {
            "name": profile["name"],
            "pi": netlist.num_inputs,
            "po": netlist.num_outputs,
            "ff": netlist.num_ffs,
            "gates": netlist.num_gates,
            "faults": len(faults),
            "comb_tests": len(comb.tests),
            "t0_length": len(t0),
        },
        "config": {
            "quick": quick,
            "seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": _numpy_version(),
            "np_kernel": npsim.kernel_unavailable_reason() is None,
        },
        "before": before,
        "after": after,
        "numpy": numpy_arm,
        "speedup": round(speedup, 2),
        "numpy_speedup": numpy_speedup,
        "identical_results": identical,
    }


def build_engine_matrix_payload(quick: bool, seed: int = 1,
                                repeats: int = 3) -> Dict[str, Any]:
    """The ``--engine-matrix`` payload: one ``detect`` pass per engine.

    Times a whole-fault-set, no-early-exit ``detect`` pass over a
    random binary sequence under each evaluation engine (interp,
    codegen, auto), best of ``repeats``, on the same circuit and
    stimuli.  The auto row is ``null`` when the C pass kernel is
    unavailable (auto then runs the codegen row's path).  All engines
    must return the identical detected set.
    """
    import random as _random

    profile = QUICK_PROFILE if quick else FULL_PROFILE
    netlist = synth.generate(profile["name"], profile["n_pi"],
                             profile["n_po"], profile["n_ff"],
                             profile["n_gates"], seed=profile["seed"])
    faults = FaultSet.collapsed(netlist)
    rng = _random.Random(seed)
    # Long enough to amortize the per-call plan build; the per-frame
    # engine cost is what the matrix is meant to compare.
    frames = 128
    vectors = [V.random_binary_vector(netlist.num_inputs, rng)
               for _ in range(frames)]
    init = V.random_binary_vector(netlist.num_ffs, rng)

    print(f"circuit {profile['name']}: {netlist.num_gates} gates, "
          f"{netlist.num_ffs} FFs, {len(faults)} collapsed faults, "
          f"{frames} frames")

    engines = {}
    detected_sets = {}
    for engine in ("interp", "codegen", "auto"):
        if engine == "auto" and npsim.kernel_unavailable_reason():
            print(f"auto: SKIPPED (the C pass kernel is unavailable: "
                  f"{npsim.kernel_unavailable_reason()})")
            engines[engine] = None
            continue
        circuit = CompiledCircuit(netlist, engine=engine)
        sim = FaultSimulator(circuit, faults, width="auto")
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            detected = sim.detect(vectors, init, early_exit=False)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        engines[engine] = {"seconds": round(best, 4),
                           "detected": len(detected)}
        detected_sets[engine] = frozenset(detected)
        print(f"{engine}: best {engines[engine]['seconds']}s "
              f"({len(detected)} detected)")

    identical = len(set(detected_sets.values())) == 1
    if not identical:
        print("ERROR: the engines disagree on the detected set",
              file=sys.stderr)
    codegen_s = engines["codegen"]["seconds"]

    def _ratio(engine: str) -> Optional[float]:
        row = engines[engine]
        if row is None:
            return None
        return round(codegen_s / max(row["seconds"], 1e-9), 2)

    return {
        "bench": "engine matrix: one detect pass per evaluation engine",
        "circuit": {
            "name": profile["name"],
            "pi": netlist.num_inputs,
            "po": netlist.num_outputs,
            "ff": netlist.num_ffs,
            "gates": netlist.num_gates,
            "faults": len(faults),
            "frames": frames,
        },
        "config": {
            "quick": quick,
            "seed": seed,
            "repeats": repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": _numpy_version(),
            "np_kernel": npsim.kernel_unavailable_reason() is None,
        },
        "engines": engines,
        "speedup_vs_codegen": {e: _ratio(e)
                               for e in ("interp", "codegen", "auto")},
        "identical_results": identical,
    }


def _run_candidate_arm(netlist, comb_tests, t0, mode: str
                       ) -> Dict[str, Any]:
    """One full proposed-procedure pass under a candidate-scan mode."""
    circuit = CompiledCircuit(netlist, engine="codegen")
    faults = FaultSet.collapsed(netlist)
    counters = SimCounters()
    sim = FaultSimulator(circuit, faults, width="auto",
                         counters=counters)
    comb_sim = CombPatternSim(circuit, faults)
    started = time.perf_counter()
    result = run_proposed(sim, comb_sim, t0, comb_tests,
                          candidate_scan=mode)
    seconds = time.perf_counter() - started
    final = result.compacted_set or result.test_set
    return {
        "candidate_scan": mode,
        "seconds": round(seconds, 3),
        "phase1_seconds": round(counters.phase1_s, 3),
        "counters": counters.as_dict(),
        "result": {
            "seq_detected": len(result.seq_detected),
            "final_detected": len(result.final_detected),
            "tests": len(final),
            "cycles": final.clock_cycles(),
            "tau_seq_length": result.tau_seq.length,
        },
        "_sets": (result.seq_detected, result.final_detected,
                  tuple(final.tests), final.clock_cycles()),
    }


def _time_select_scan_in(sim, t0, comb_tests, f0, selected, mode: str,
                         repeats: int) -> Dict[str, Any]:
    """Best-of-``repeats`` timing of one Step-2 selection pass."""
    best = None
    outcome = None
    for _ in range(repeats):
        started = time.perf_counter()
        outcome = select_scan_in(sim, t0, comb_tests, f0, selected,
                                 mode=mode)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return {"mode": mode, "seconds": round(best, 4),
            "chosen_index": outcome[0], "f_si": outcome[1]}


def build_phase1_payload(quick: bool, seed: int = 1,
                         repeats: int = 3) -> Dict[str, Any]:
    """The ``--phase1`` payload: scalar vs lanes candidate scan."""
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    netlist = synth.generate(profile["name"], profile["n_pi"],
                             profile["n_po"], profile["n_ff"],
                             profile["n_gates"], seed=profile["seed"])
    circuit = CompiledCircuit(netlist)
    faults = FaultSet.collapsed(netlist)
    comb = comb_set_mod.generate(circuit, faults, seed=seed)
    t0 = random_gen.random_sequence(circuit, profile["t0_length"],
                                    seed=seed)

    print(f"circuit {profile['name']}: {netlist.num_gates} gates, "
          f"{netlist.num_ffs} FFs, {len(faults)} collapsed faults, "
          f"{len(comb.tests)} candidate states, |T0|={len(t0)}")

    # Micro-benchmark: one Step-2 selection pass, best of `repeats`.
    sim = FaultSimulator(circuit, faults, width="auto")
    f0 = detect_no_scan(sim, t0, range(len(faults)))
    selected = [False] * len(comb.tests)
    print(f"select_scan_in scalar x{repeats} ...", flush=True)
    scalar = _time_select_scan_in(sim, t0, comb.tests, f0, selected,
                                  "scalar", repeats)
    print(f"  best {scalar['seconds']}s")
    print(f"select_scan_in lanes x{repeats} ...", flush=True)
    lanes = _time_select_scan_in(sim, t0, comb.tests, f0, selected,
                                 "lanes", repeats)
    print(f"  best {lanes['seconds']}s")
    identical_selection = (
        scalar.pop("chosen_index"), scalar.pop("f_si")) == (
        lanes.pop("chosen_index"), lanes.pop("f_si"))
    if not identical_selection:
        print("ERROR: scalar and lanes disagree on (chosen_index, f_si)",
              file=sys.stderr)

    # End to end: the full proposed procedure under each mode.
    print("end-to-end run_proposed, scalar ...", flush=True)
    e2e_scalar = _run_candidate_arm(netlist, comb.tests, t0, "scalar")
    print(f"  {e2e_scalar['seconds']}s "
          f"(phase1 {e2e_scalar['phase1_seconds']}s)")
    print("end-to-end run_proposed, lanes ...", flush=True)
    e2e_lanes = _run_candidate_arm(netlist, comb.tests, t0, "lanes")
    print(f"  {e2e_lanes['seconds']}s "
          f"(phase1 {e2e_lanes['phase1_seconds']}s)")
    identical_e2e = e2e_scalar.pop("_sets") == e2e_lanes.pop("_sets")
    if not identical_e2e:
        print("ERROR: the two modes disagree on end-to-end results",
              file=sys.stderr)

    speedup = scalar["seconds"] / max(lanes["seconds"], 1e-9)
    phase1_speedup = e2e_scalar["phase1_seconds"] / \
        max(e2e_lanes["phase1_seconds"], 1e-9)
    return {
        "bench": "phase1: candidate-parallel lanes vs scalar scan-in "
                 "selection",
        "circuit": {
            "name": profile["name"],
            "pi": netlist.num_inputs,
            "po": netlist.num_outputs,
            "ff": netlist.num_ffs,
            "gates": netlist.num_gates,
            "faults": len(faults),
            "comb_tests": len(comb.tests),
            "t0_length": len(t0),
        },
        "config": {
            "quick": quick,
            "seed": seed,
            "repeats": repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "select_scan_in": {"scalar": scalar, "lanes": lanes,
                           "speedup": round(speedup, 2)},
        "end_to_end": {"scalar": e2e_scalar, "lanes": e2e_lanes,
                       "phase1_speedup": round(phase1_speedup, 2)},
        "speedup": round(speedup, 2),
        "identical_results": identical_selection and identical_e2e,
    }


def _run_trial_arm(netlist, comb_tests, t0, trial_batch: int,
                   engine: str, adi: bool = False,
                   adi_scores=None) -> Dict[str, Any]:
    """One full proposed-procedure pass under a trial-batch budget."""
    circuit = CompiledCircuit(netlist, engine=engine)
    faults = FaultSet.collapsed(netlist)
    counters = SimCounters()
    sim = FaultSimulator(circuit, faults, width="auto",
                         counters=counters)
    comb_sim = CombPatternSim(circuit, faults)
    started = time.perf_counter()
    result = run_proposed(sim, comb_sim, t0, comb_tests,
                          trial_batch=trial_batch,
                          adi=adi, adi_scores=adi_scores)
    seconds = time.perf_counter() - started
    final = result.compacted_set or result.test_set
    return {
        "engine": engine,
        "trial_batch": trial_batch,
        "adi": adi,
        "seconds": round(seconds, 3),
        "phase3_seconds": round(counters.phase3_s, 3),
        "phase4_seconds": round(counters.phase4_s, 3),
        "counters": counters.as_dict(),
        "result": {
            "seq_detected": len(result.seq_detected),
            "final_detected": len(result.final_detected),
            "tests": len(final),
            "cycles": final.clock_cycles(),
            "tau_seq_length": result.tau_seq.length,
        },
        "_sets": (result.seq_detected, result.final_detected,
                  tuple(final.tests), final.clock_cycles()),
    }


def _trials_circuit(quick: bool, seed: int):
    """The profile circuit plus its comb set and ``T0`` stimuli."""
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    netlist = synth.generate(profile["name"], profile["n_pi"],
                             profile["n_po"], profile["n_ff"],
                             profile["n_gates"], seed=profile["seed"])
    circuit = CompiledCircuit(netlist)
    faults = FaultSet.collapsed(netlist)
    comb = comb_set_mod.generate(circuit, faults, seed=seed)
    t0 = random_gen.random_sequence(circuit, profile["t0_length"],
                                    seed=seed)
    print(f"circuit {profile['name']}: {netlist.num_gates} gates, "
          f"{netlist.num_ffs} FFs, {len(faults)} collapsed faults, "
          f"{len(comb.tests)} comb tests, |T0|={len(t0)}")
    return profile, netlist, faults, comb, t0


def _circuit_block(profile, netlist, faults, comb, t0) -> Dict[str, Any]:
    return {
        "name": profile["name"],
        "pi": netlist.num_inputs,
        "po": netlist.num_outputs,
        "ff": netlist.num_ffs,
        "gates": netlist.num_gates,
        "faults": len(faults),
        "comb_tests": len(comb.tests),
        "t0_length": len(t0),
    }


def build_trials_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    """The ``--trials`` payload: scalar vs lane-batched trial engine.

    Runs the full proposed procedure twice on the profile circuit --
    ``trial_batch=1`` (the scalar per-trial loops) and the default
    ``trial_batch=64`` (Phase-3 candidate blocks + Phase-4 merge-trial
    prefetching) -- on ``engine="auto"``, asserting byte-identical
    results and reporting the
    Phase-3+4 wall-clock ratio the CI gate checks.
    """
    profile, netlist, faults, comb, t0 = _trials_circuit(quick, seed)
    engine = "auto"

    print(f"scalar: trial_batch=1, engine={engine} ...", flush=True)
    scalar = _run_trial_arm(netlist, comb.tests, t0, 1, engine)
    print(f"  {scalar['seconds']}s (p3 {scalar['phase3_seconds']}s, "
          f"p4 {scalar['phase4_seconds']}s)")
    print(f"batched: trial_batch=64, engine={engine} ...", flush=True)
    batched = _run_trial_arm(netlist, comb.tests, t0, 64, engine)
    print(f"  {batched['seconds']}s (p3 {batched['phase3_seconds']}s, "
          f"p4 {batched['phase4_seconds']}s)")

    identical = scalar.pop("_sets") == batched.pop("_sets")
    if not identical:
        print("ERROR: scalar and batched trials disagree on results",
              file=sys.stderr)
    scalar_trials = scalar["phase3_seconds"] + scalar["phase4_seconds"]
    batched_trials = (batched["phase3_seconds"]
                      + batched["phase4_seconds"])
    speedup = scalar_trials / max(batched_trials, 1e-9)
    return {
        "bench": "trials: lane-batched Phase-3/4 trial simulation vs "
                 "scalar loops",
        "circuit": _circuit_block(profile, netlist, faults, comb, t0),
        "config": {
            "quick": quick,
            "seed": seed,
            "engine": engine,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": _numpy_version(),
            "np_kernel": npsim.kernel_unavailable_reason() is None,
        },
        "scalar": scalar,
        "batched": batched,
        "trial_seconds": {"scalar": round(scalar_trials, 3),
                          "batched": round(batched_trials, 3)},
        "speedup": round(speedup, 2),
        "identical_results": identical,
    }


def _run_collapse_arm(netlist, comb_tests, t0,
                      collapse: bool) -> Dict[str, Any]:
    """One full proposed-procedure pass over the uncollapsed universe.

    ``collapse=False`` simulates every fault individually (the
    baseline); ``collapse=True`` simulates one representative per
    structural-equivalence class, re-inflates detections, and drops
    the statically-proven-untestable faults.  Both arms expose the
    same fault indexing, so the result fingerprints compare directly.
    """
    circuit = CompiledCircuit(netlist, engine="codegen")
    faults = FaultSet.uncollapsed(netlist, collapse=collapse)
    counters = SimCounters()
    sim = FaultSimulator(circuit, faults, width="auto",
                         counters=counters)
    comb_sim = CombPatternSim(circuit, faults, counters=counters)
    n_untestable = 0
    dropped_reps = 0
    if collapse:
        from repro.analysis.faultspace import analyze_faultspace
        report = analyze_faultspace(netlist)
        untestable = report.untestable_indices(faults)
        n_untestable = len(untestable)
        if untestable:
            dropped_reps = len(faults.untestable_reps(untestable))
            sim.set_untestable(sorted(untestable))
            comb_sim.set_untestable(sorted(untestable))
    started = time.perf_counter()
    result = run_proposed(sim, comb_sim, t0, comb_tests)
    seconds = time.perf_counter() - started
    final = result.compacted_set or result.test_set
    return {
        "collapse": collapse,
        "faults_simulated": (faults.n_classes - dropped_reps
                             if collapse else len(faults)),
        "n_classes": faults.n_classes,
        "n_untestable": n_untestable,
        "seconds": round(seconds, 3),
        "counters": counters.as_dict(),
        "result": {
            "seq_detected": len(result.seq_detected),
            "final_detected": len(result.final_detected),
            "tests": len(final),
            "cycles": final.clock_cycles(),
            "tau_seq_length": result.tau_seq.length,
        },
        "_sets": (frozenset(result.seq_detected),
                  frozenset(result.final_detected),
                  tuple(final.tests), final.clock_cycles()),
    }


def build_collapse_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    """The ``--collapse`` payload: collapsed vs uncollapsed simulation.

    Both arms run on the full uncollapsed stuck-at universe with the
    same stimuli; the analyzer-backed arm must reproduce the baseline
    byte-identically while doing strictly less per-fault work.
    """
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    netlist = synth.generate(profile["name"], profile["n_pi"],
                             profile["n_po"], profile["n_ff"],
                             profile["n_gates"], seed=profile["seed"])
    circuit = CompiledCircuit(netlist)
    universe = FaultSet.uncollapsed(netlist, collapse=False)
    comb = comb_set_mod.generate(circuit, universe, seed=seed)
    t0 = random_gen.random_sequence(circuit, profile["t0_length"],
                                    seed=seed)
    print(f"circuit {profile['name']}: {netlist.num_gates} gates, "
          f"{netlist.num_ffs} FFs, {len(universe)} uncollapsed faults, "
          f"{len(comb.tests)} comb tests, |T0|={len(t0)}")

    print("uncollapsed: every fault simulated individually ...",
          flush=True)
    plain = _run_collapse_arm(netlist, comb.tests, t0, collapse=False)
    print(f"  {plain['seconds']}s, "
          f"{plain['counters']['comb_passes']} comb passes")
    print("collapsed: representatives only + untestable dropped ...",
          flush=True)
    collapsed = _run_collapse_arm(netlist, comb.tests, t0,
                                  collapse=True)
    print(f"  {collapsed['seconds']}s, "
          f"{collapsed['counters']['comb_passes']} comb passes, "
          f"{collapsed['n_classes']} classes, "
          f"{collapsed['n_untestable']} untestable")

    identical = plain.pop("_sets") == collapsed.pop("_sets")
    if not identical:
        print("ERROR: collapsed simulation disagrees with the "
              "uncollapsed baseline", file=sys.stderr)
    return {
        "bench": "collapse: representative-only simulation + "
                 "untestability proofs vs the uncollapsed flow",
        "circuit": {
            "name": profile["name"],
            "pi": netlist.num_inputs,
            "po": netlist.num_outputs,
            "ff": netlist.num_ffs,
            "gates": netlist.num_gates,
            "faults": len(universe),
            "comb_tests": len(comb.tests),
            "t0_length": len(t0),
        },
        "config": {
            "quick": quick,
            "seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "fault_space": {
            "n_universe": len(universe),
            "n_classes": collapsed["n_classes"],
            "collapse_ratio": round(
                collapsed["n_classes"] / max(len(universe), 1), 3),
            "n_untestable": collapsed["n_untestable"],
        },
        "uncollapsed": plain,
        "collapsed": collapsed,
        "comb_passes": {
            "uncollapsed": plain["counters"]["comb_passes"],
            "collapsed": collapsed["counters"]["comb_passes"],
        },
        "machines": {
            "uncollapsed": plain["counters"]["machines"],
            "collapsed": collapsed["counters"]["machines"],
        },
        "identical_results": identical,
    }


def build_adi_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    """The ``--adi`` payload: ADI-guided ordering vs the plain run.

    The baseline arm is the flag-off default; the ADI arm feeds the
    random-phase accidental-detection census into Phase-1/3 ordering
    and fused-word packing.  The quality gates: identical final fault
    coverage (hard requirement), fewer total detect passes, and final
    clock cycles no worse than the baseline.
    """
    profile, netlist, faults, comb, t0 = _trials_circuit(quick, seed)
    engine = "auto"

    print(f"baseline: adi=off, engine={engine} ...", flush=True)
    baseline = _run_trial_arm(netlist, comb.tests, t0, 64, engine)
    print(f"  {baseline['seconds']}s, "
          f"{baseline['counters']['detect_passes']} detect passes, "
          f"{baseline['result']['cycles']} cycles")
    print(f"adi: census-guided ordering, engine={engine} ...",
          flush=True)
    adi_arm = _run_trial_arm(netlist, comb.tests, t0, 64, engine,
                             adi=True, adi_scores=comb.adi)
    print(f"  {adi_arm['seconds']}s, "
          f"{adi_arm['counters']['detect_passes']} detect passes, "
          f"{adi_arm['result']['cycles']} cycles, "
          f"{adi_arm['counters']['adi_orderings']} orderings")

    base_sets = baseline.pop("_sets")
    adi_sets = adi_arm.pop("_sets")
    identical_coverage = base_sets[1] == adi_sets[1]
    if not identical_coverage:
        print("ERROR: ADI ordering changed the final fault coverage",
              file=sys.stderr)
    fewer_passes = (adi_arm["counters"]["detect_passes"]
                    < baseline["counters"]["detect_passes"])
    cycles_le = (adi_arm["result"]["cycles"]
                 <= baseline["result"]["cycles"])
    return {
        "bench": "adi: accidental-detection-index ordering vs the "
                 "plain proposed procedure",
        "circuit": _circuit_block(profile, netlist, faults, comb, t0),
        "config": {
            "quick": quick,
            "seed": seed,
            "engine": engine,
            "adi_census_size": len(comb.adi),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": _numpy_version(),
        },
        "baseline": baseline,
        "adi": adi_arm,
        "detect_passes": {
            "baseline": baseline["counters"]["detect_passes"],
            "adi": adi_arm["counters"]["detect_passes"],
        },
        "cycles": {"baseline": baseline["result"]["cycles"],
                   "adi": adi_arm["result"]["cycles"]},
        "identical_coverage": identical_coverage,
        "fewer_detect_passes": fewer_passes,
        "cycles_le_baseline": cycles_le,
    }


def _power_run(profile, strategy: Optional[str], seed: int):
    """One proposed-procedure run (random ``T0`` arm) on a suite
    circuit; ``strategy=None`` means *default parameters* -- the
    baseline the explicit ``random`` run must reproduce exactly."""
    from repro import api
    netlist = profile.build()
    wb = api.Workbench.for_netlist(netlist)
    kwargs = {} if strategy is None else {"x_fill": strategy}
    result = api.compact_tests(netlist, seed=seed, t0_source="random",
                               t0_length=min(profile.t0_length, 300),
                               workbench=wb, **kwargs)
    final = result.compacted_set or result.test_set
    engine = ActivityEngine(wb.circuit, wb.counters)
    summary = engine.set_power(final).summary()
    fingerprint = (frozenset(result.final_detected),
                   final.clock_cycles(), tuple(final.tests))
    return summary, fingerprint, len(result.final_detected)


def build_power_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    """The ``--power`` payload: X-fill strategies over the quick suite.

    ``quick`` is accepted for CLI symmetry but the sweep always runs
    the quick suite -- it is already CI-sized.
    """
    from repro.circuits import suite as suite_mod
    from repro.sim.values import FILL_STRATEGIES

    profiles = suite_mod.quick_suite()
    circuits: Dict[str, Dict[str, Any]] = {}
    identical_detection = True
    for profile in profiles:
        print(f"{profile.name}: default-parameter baseline ...",
              flush=True)
        _, default_fp, _ = _power_run(profile, None, seed)
        per_strategy: Dict[str, Any] = {}
        for strategy in FILL_STRATEGIES:
            print(f"{profile.name}: x-fill {strategy} ...", flush=True)
            summary, fp, detected = _power_run(profile, strategy, seed)
            if strategy == "random" and fp != default_fp:
                identical_detection = False
                print(f"ERROR: {profile.name}: explicit random fill "
                      f"differs from the default-parameter run",
                      file=sys.stderr)
            entry = summary.as_dict()
            entry["detected"] = detected
            per_strategy[strategy] = entry
        circuits[profile.name] = per_strategy
    return {
        "bench": "power: X-fill strategies' shift WTM / capture "
                 "toggles on the quick suite",
        "config": {
            "quick": quick,
            "seed": seed,
            "strategies": list(FILL_STRATEGIES),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "circuits": circuits,
        "identical_detection": identical_detection,
    }


def _delay_sets(netlist, comb, t0):
    """The final test sets a ``--delay`` campaign grades.

    One default proposed-procedure run (the long-sequence arm) plus
    the [4]-style static compaction of the single-vector scan set --
    the same proposed-vs-baseline4 pair the Delay paper table shows.
    """
    circuit = CompiledCircuit(netlist)
    faults = FaultSet.collapsed(netlist)
    sim = FaultSimulator(circuit, faults, width="auto")
    comb_sim = CombPatternSim(circuit, faults)
    result = run_proposed(sim, comb_sim, t0, comb.tests)
    proposed = result.compacted_set or result.test_set
    initial = ScanTestSet(
        len(circuit.ff_ids),
        [single_vector_test(t.state, t.pi) for t in comb.tests])
    baseline = static_compact(sim, initial).test_set
    return circuit, {"proposed": proposed, "baseline4": baseline}


def _run_delay_route(netlist, sets, engine: str,
                     repeats: int = 3) -> Dict[str, Any]:
    """One full TDF + clock-cost measurement on an ``engine`` circuit
    (the TDF route follows the circuit's engine).

    Best wall clock of ``repeats`` identical measurements -- the TDF
    pass is sub-second, so a single sample is too noisy to gate on.
    """
    circuit = CompiledCircuit(netlist, engine=engine)
    best = None
    report = None
    for _ in range(repeats):
        counters = SimCounters()
        tsim = TransitionSim(circuit, counters=counters)
        started = time.perf_counter()
        report = measure_delay(tsim, sets)
        seconds = time.perf_counter() - started
        if best is None or seconds < best[0]:
            best = (seconds, counters)
    seconds, counters = best
    return {
        "route": tsim.route,
        "seconds": round(seconds, 3),
        "repeats": repeats,
        "tdf_passes": counters.tdf_passes,
        "tdf_words": counters.tdf_words,
        "detected": {label: summary.detected
                     for label, summary in report.sets.items()},
        "report": report.as_dict(),
    }


def build_delay_payload(quick: bool, seed: int = 1) -> Dict[str, Any]:
    """The ``--delay`` payload: packed vs scalar TDF simulation.

    Builds the profile circuit's final test sets once (proposed run +
    [4] baseline), then grades them twice with
    :class:`repro.delay.transition.TransitionSim` -- the scalar
    big-int route and the wide-word packed route (uint64 arrays + the
    C pass kernel) -- asserting identical per-set coverage and
    reporting the wall-clock speedup the CI gate checks.  The packed
    arm is skipped (recorded as ``null`` with a visible notice) when
    numpy or the kernel is unavailable.
    """
    profile, netlist, faults, comb, t0 = _trials_circuit(quick, seed)
    circuit, sets = _delay_sets(netlist, comb, t0)
    tdf_faults = len(TransitionSim(circuit).faults)
    for label, test_set in sorted(sets.items()):
        print(f"set {label}: {len(test_set)} tests, "
              f"{test_set.clock_cycles()} cycles, "
              f"{test_set.at_speed_pairs()} at-speed pairs")

    print(f"scalar: {tdf_faults} transition faults ...", flush=True)
    scalar = _run_delay_route(netlist, sets, "codegen")
    print(f"  {scalar['seconds']}s ({scalar['tdf_passes']} passes)")
    packed = None
    if npsim.kernel_unavailable_reason() is None:
        print("packed: wide-word route ...", flush=True)
        packed = _run_delay_route(netlist, sets, "auto")
        print(f"  {packed['seconds']}s ({packed['tdf_passes']} passes)")
    else:
        print("NOTICE: packed TDF arm skipped (numpy or the C pass "
              "kernel is unavailable); scalar route only")

    identical = (packed is None
                 or scalar["detected"] == packed["detected"])
    if not identical:
        print("ERROR: packed and scalar TDF routes disagree on "
              "coverage", file=sys.stderr)
    speedup = (None if packed is None else
               round(scalar["seconds"] / max(packed["seconds"], 1e-9),
                     2))
    report = (packed or scalar).pop("report")
    if packed is not None:
        scalar.pop("report")
    return {
        "bench": "delay: wide-word packed TDF simulation vs the "
                 "scalar big-int route",
        "circuit": dict(_circuit_block(profile, netlist, faults, comb,
                                       t0), tdf_faults=tdf_faults),
        "config": {
            "quick": quick,
            "seed": seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": _numpy_version(),
            "np_kernel": npsim.kernel_unavailable_reason() is None,
        },
        "scalar": scalar,
        "packed": packed,
        "report": report,
        "speedup": speedup,
        "identical_coverage": identical,
    }


def _delay_gate(payload: Dict[str, Any], ratio: float) -> bool:
    """The packed route must be at least ``ratio`` x faster.

    Returns True (with a visible notice) instead of failing when the
    packed arm could not run -- numpy missing or no C compiler for
    the pass kernel -- mirroring :func:`_numpy_gate`.
    """
    if payload["packed"] is None:
        print("DELAY GATE SKIPPED: packed TDF route unavailable "
              "(numpy or the C pass kernel is missing)")
        return True
    achieved = payload["speedup"]
    if achieved < ratio:
        print(f"DELAY GATE FAILED: packed TDF route is x{achieved:.2f} "
              f"faster than scalar, need x{ratio:g}", file=sys.stderr)
        return False
    print(f"delay gate ok: x{achieved:.2f} >= x{ratio:g}")
    return True


def _power_gate(payload: Dict[str, Any], ratio: float) -> bool:
    """Per circuit: adjacent peak shift WTM <= ratio x random's."""
    ok = True
    for name, per_strategy in sorted(payload["circuits"].items()):
        random_peak = per_strategy["random"]["peak_shift_wtm"]
        adjacent_peak = per_strategy["adjacent"]["peak_shift_wtm"]
        if adjacent_peak > ratio * random_peak:
            print(f"POWER GATE FAILED: {name}: adjacent peak WTM "
                  f"{adjacent_peak} > {ratio:g} x random "
                  f"{random_peak}", file=sys.stderr)
            ok = False
        else:
            print(f"power gate ok: {name}: adjacent {adjacent_peak} "
                  f"<= {ratio:g} x random {random_peak}")
    return ok


def _numpy_gate(bigint_row: Dict[str, Any],
                numpy_row: Optional[Dict[str, Any]],
                ratio: float) -> bool:
    """The kernel arm must be at least ``ratio`` x faster than big-int.

    Returns True (with a visible notice) instead of failing when the
    kernel arm could not run: no numpy, cffi or C compiler for the
    pass kernel (``engine="auto"`` is then the big-int engine).
    """
    if numpy_row is None:
        print(f"NUMPY GATE SKIPPED: the C pass kernel is unavailable "
              f"({npsim.kernel_unavailable_reason()})")
        return True
    achieved = bigint_row["seconds"] / max(numpy_row["seconds"], 1e-9)
    if achieved < ratio:
        print(f"NUMPY GATE FAILED: numpy is x{achieved:.2f} faster "
              f"than the fused big-int engine, need x{ratio:g}",
              file=sys.stderr)
        return False
    print(f"numpy gate ok: x{achieved:.2f} >= x{ratio:g}")
    return True


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized circuit instead of the full one")
    parser.add_argument("--phase1", action="store_true",
                        help="benchmark the Phase-1 candidate scan "
                             "(lanes vs scalar) instead of the engine")
    parser.add_argument("--engine-matrix", action="store_true",
                        help="time one detect pass per engine "
                             "(interp/codegen/auto) on the same "
                             "circuit instead of the full pipeline")
    parser.add_argument("--power", action="store_true",
                        help="sweep the X-fill strategies' power on "
                             "the quick suite instead of the engine")
    parser.add_argument("--trials", action="store_true",
                        help="benchmark the lane-batched Phase-3/4 "
                             "trial engine vs the scalar loops")
    parser.add_argument("--adi", action="store_true",
                        help="compare ADI-guided ordering against the "
                             "plain proposed procedure (quality gate)")
    parser.add_argument("--delay", action="store_true",
                        help="benchmark the wide-word packed "
                             "transition-fault route vs the scalar "
                             "route on the final test sets")
    parser.add_argument("--collapse", action="store_true",
                        help="compare representative-only simulation "
                             "(+ untestability proofs) against the "
                             "uncollapsed flow (quality gate)")
    parser.add_argument("--gate", type=float, metavar="RATIO",
                        help="fail (exit 1) when the after/lanes wall "
                             "clock exceeds RATIO x before/scalar")
    parser.add_argument("--gate-numpy", type=float, metavar="RATIO",
                        help="fail (exit 1) when the C-kernel arm "
                             "(engine auto) is less than RATIO x "
                             "faster than the fused big-int arm "
                             "(skipped, with a notice, when the "
                             "kernel is unavailable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--out", default=None)
    args = parser.parse_args(argv)

    if args.delay:
        out = args.out or "BENCH_delay.json"
        payload = build_delay_payload(quick=args.quick, seed=args.seed)
        atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
        speedup = payload["speedup"]
        print(f"wrote {out}: packed TDF speedup "
              f"x{speedup if speedup is not None else '-'} "
              f"(identical coverage: {payload['identical_coverage']})")
        if not payload["identical_coverage"]:
            return 1
        if args.gate is not None and not _delay_gate(payload,
                                                     args.gate):
            return 1
        return 0

    if args.trials:
        out = args.out or "BENCH_trials.json"
        payload = build_trials_payload(quick=args.quick, seed=args.seed)
        atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}: phase-3/4 trial speedup "
              f"x{payload['speedup']} (identical results: "
              f"{payload['identical_results']})")
        if not payload["identical_results"]:
            return 1
        if args.gate is not None:
            ratio = (payload["trial_seconds"]["batched"]
                     / max(payload["trial_seconds"]["scalar"], 1e-9))
            if ratio > args.gate:
                print(f"PERF GATE FAILED: batched/scalar trial time "
                      f"= {ratio:.2f} > {args.gate}", file=sys.stderr)
                return 1
            print(f"perf gate ok: batched/scalar trial time "
                  f"= {ratio:.2f} <= {args.gate}")
        return 0

    if args.collapse:
        out = args.out or "BENCH_collapse.json"
        payload = build_collapse_payload(quick=args.quick,
                                         seed=args.seed)
        atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
        fs = payload["fault_space"]
        print(f"wrote {out}: {fs['n_universe']} faults -> "
              f"{fs['n_classes']} classes "
              f"({fs['n_untestable']} untestable), comb passes "
              f"{payload['comb_passes']['uncollapsed']} -> "
              f"{payload['comb_passes']['collapsed']} "
              f"(identical results: {payload['identical_results']})")
        if not payload["identical_results"]:
            return 1
        if args.gate is not None:
            ok = True
            if (payload["comb_passes"]["collapsed"]
                    >= payload["comb_passes"]["uncollapsed"]):
                print("COLLAPSE GATE FAILED: no reduction in per-fault "
                      "comb passes", file=sys.stderr)
                ok = False
            if (payload["machines"]["collapsed"]
                    >= payload["machines"]["uncollapsed"]):
                print("COLLAPSE GATE FAILED: no reduction in simulated "
                      "machine bits", file=sys.stderr)
                ok = False
            if not ok:
                return 1
            print("collapse gate ok: fewer comb passes and machine "
                  "bits, identical results")
        return 0

    if args.adi:
        out = args.out or "BENCH_adi.json"
        payload = build_adi_payload(quick=args.quick, seed=args.seed)
        atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}: detect passes "
              f"{payload['detect_passes']['baseline']} -> "
              f"{payload['detect_passes']['adi']}, cycles "
              f"{payload['cycles']['baseline']} -> "
              f"{payload['cycles']['adi']} (identical coverage: "
              f"{payload['identical_coverage']})")
        if not payload["identical_coverage"]:
            return 1
        if args.gate is not None:
            ok = True
            if not payload["fewer_detect_passes"]:
                print("ADI GATE FAILED: no reduction in detect passes",
                      file=sys.stderr)
                ok = False
            if not payload["cycles_le_baseline"]:
                print("ADI GATE FAILED: final cycles exceed the "
                      "baseline", file=sys.stderr)
                ok = False
            if not ok:
                return 1
            print("adi gate ok: fewer detect passes, cycles <= "
                  "baseline, identical coverage")
        return 0

    if args.power:
        out = args.out or "BENCH_power.json"
        payload = build_power_payload(quick=args.quick, seed=args.seed)
        atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}: {len(payload['circuits'])} circuit(s), "
              f"{len(payload['config']['strategies'])} strategies "
              f"(identical detection: "
              f"{payload['identical_detection']})")
        if not payload["identical_detection"]:
            return 1
        if args.gate is not None and not _power_gate(payload, args.gate):
            return 1
        return 0

    if args.engine_matrix:
        out = args.out or "BENCH_engine_matrix.json"
        payload = build_engine_matrix_payload(quick=args.quick,
                                              seed=args.seed)
        atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out} (identical results: "
              f"{payload['identical_results']})")
        if not payload["identical_results"]:
            return 1
        if args.gate_numpy is not None:
            return 0 if _numpy_gate(payload["engines"]["codegen"],
                                    payload["engines"]["auto"],
                                    args.gate_numpy) else 1
        return 0

    if args.phase1:
        out = args.out or "BENCH_phase1.json"
        payload = build_phase1_payload(quick=args.quick, seed=args.seed)
        gate_pair = (payload["select_scan_in"]["lanes"]["seconds"],
                     payload["select_scan_in"]["scalar"]["seconds"])
        gate_label = "lanes/scalar"
    else:
        out = args.out or "BENCH_engine.json"
        payload = build_payload(quick=args.quick, seed=args.seed)
        gate_pair = (payload["after"]["seconds"],
                     payload["before"]["seconds"])
        gate_label = "fused/chunked"

    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}: speedup x{payload['speedup']} "
          f"(identical results: {payload['identical_results']})")

    if not payload["identical_results"]:
        return 1
    if args.gate is not None:
        ratio = gate_pair[0] / max(gate_pair[1], 1e-9)
        if ratio > args.gate:
            print(f"PERF GATE FAILED: {gate_label} = {ratio:.2f} "
                  f"> {args.gate}", file=sys.stderr)
            return 1
        print(f"perf gate ok: {gate_label} = {ratio:.2f} "
              f"<= {args.gate}")
    if args.gate_numpy is not None and not args.phase1:
        if not _numpy_gate(payload["after"], payload.get("numpy"),
                           args.gate_numpy):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
