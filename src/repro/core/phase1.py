"""Phase 1 of the paper's procedure: from a sequence to a scan test.

Given an initial primary-input sequence ``T0`` and a combinational test
set ``C`` (the pool of candidate scan-in states), Phase 1:

* **Step 1** fault simulates ``T0`` without scan (all-X initial state)
  to find ``F0`` -- detected regardless of the scan-in state;
* **Step 2** selects the scan-in state ``SI`` among the state parts of
  ``C`` maximizing the faults detected by ``(SI, T0)`` with a trailing
  scan-out (only ``F - F0`` needs simulating); ties prefer *unselected*
  tests, and choosing an already-selected test signals termination of
  the Phase 1+2 iteration (paper Section 3.3);
* **Step 3** picks the earliest scan-out time unit ``u_SO`` that loses
  no fault of ``F_SI``, truncating ``T0`` to ``T_SO``.  This is done
  with a single recorded simulation pass
  (:meth:`repro.sim.fault_sim.FaultSimulator.run_with_records`), whose
  post-pass is exactly the paper's candidate scan over
  ``tau_SO,i = (SI, T0[0, i])``.

Fault dropping in Phase 1 is deliberately limited to the paper's own
``F0`` exclusion (Step 2 simulates only ``F - F0``): the scan-in
selection argmax needs *exact per-candidate detection counts* and
Step 3 needs records over the full target, so a cross-phase
scoreboard may not shrink these targets without changing the chosen
``SI``/``u_SO``.  The iteration driver in :mod:`repro.core.proposed`
retires faults into the shared scoreboard only once the surviving
``tau_seq`` is committed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..atpg.comb_set import CombTest
from ..sim import values as V
from ..sim.fault_sim import FaultSimulator

@dataclass
class Phase1Result:
    """Everything Phase 1 produced.

    Attributes
    ----------
    scan_in:
        The selected scan-in vector ``SI``.
    chosen_index:
        Index into ``C`` of the test supplying ``SI``.
    chose_selected:
        True when the winner was already marked *selected* -- the
        iteration-termination signal of Section 3.3.
    vectors:
        ``T_SO``: the prefix of ``T0`` ending at the scan-out time unit.
    u_so:
        The scan-out time unit (0-based, as in the paper).
    f0:
        Faults detected by ``T0`` without scan (Step 1).
    f_si:
        Faults detected by ``(SI, T0)`` with trailing scan-out (Step 2).
    f_so:
        Faults detected by ``(SI, T_SO)`` -- a superset of ``f_si``.
    """

    scan_in: V.Vector
    chosen_index: int
    chose_selected: bool
    vectors: Tuple[V.Vector, ...]
    u_so: int
    f0: Set[int]
    f_si: Set[int]
    f_so: Set[int]


def detect_no_scan(sim: FaultSimulator, t0: Sequence[V.Vector],
                   target: Optional[Sequence[int]] = None) -> Set[int]:
    """Step 1: faults detected by ``T0`` without using scan."""
    return sim.detect(list(t0), init_state=None, target=target,
                      scan_out=False, early_exit=False)


def select_scan_in(
    sim: FaultSimulator,
    t0: Sequence[V.Vector],
    comb_tests: Sequence[CombTest],
    f0: Set[int],
    selected: Sequence[bool],
    target: Optional[Set[int]] = None,
) -> Tuple[int, Set[int]]:
    """Step 2: choose the scan-in state maximizing detection.

    Distinct tests of ``C`` often share a state part; each *unique*
    state is simulated exactly once, as one lane of a
    :meth:`~repro.sim.fault_sim.FaultSimulator.detect_candidates` pass,
    and the argmax then replays the original loop over all of ``C``,
    so the winner -- including the unselected-preferred tie-break --
    is byte-identical to simulating every test separately.

    Parameters
    ----------
    sim:
        Simulator over the full target fault set.
    t0:
        The initial sequence.
    comb_tests:
        The combinational test set ``C``; state parts are candidates.
    f0:
        Step-1 detections (excluded from candidate simulation -- they
        are detected for any scan-in state).
    selected:
        Per-test *selected* flags (Section 3.3 bookkeeping).
    target:
        The full target fault index set; defaults to all faults.

    Returns
    -------
    (chosen_index, f_si):
        Winning test index and the detected set of ``(SI, T0)``
        including ``f0``.

    Raises
    ------
    ValueError
        If ``comb_tests`` is empty or flag/test lengths mismatch.
    """
    if not comb_tests:
        raise ValueError("combinational test set is empty")
    if len(selected) != len(comb_tests):
        raise ValueError("selected flags do not match the test set")
    if target is None:
        target = set(range(len(sim.faults)))
    remaining = sorted(target - f0)
    # Deduplicate state parts: simulate each unique state once, in
    # first-appearance order so slot k is the first test using it.
    slot_by_state: dict = {}
    slot_of: List[int] = []
    unique_states: List[V.Vector] = []
    for test in comb_tests:
        state = tuple(test.state)
        slot = slot_by_state.get(state)
        if slot is None:
            slot = len(unique_states)
            slot_by_state[state] = slot
            unique_states.append(state)
        slot_of.append(slot)
    per_slot = sim.detect_candidates(list(t0), unique_states,
                                     target=remaining, scan_out=True)
    best_index = -1
    best_key = (-1, False)
    for j in range(len(comb_tests)):
        # Maximize the detection count; among equals prefer unselected
        # tests.  Strict > keeps the paper's first-wins tie behavior.
        key = (len(per_slot[slot_of[j]]), not selected[j])
        if key > best_key:
            best_index, best_key = j, key
    return best_index, per_slot[slot_of[best_index]] | f0


def select_scan_out(
    sim: FaultSimulator,
    scan_in: V.Vector,
    t0: Sequence[V.Vector],
    f_si: Set[int],
    target: Optional[Set[int]] = None,
    rule: str = "earliest",
) -> Tuple[int, Set[int]]:
    """Step 3: select the scan-out time unit.

    ``rule="earliest"`` is the paper's ``i0`` choice: the smallest time
    unit losing no fault of ``F_SI``.  ``rule="max_coverage"`` is the
    ``i1`` alternative the paper discusses (and rejects) in Section
    3.1: among all safe candidates, maximize the detected set and break
    ties toward the smallest time unit.  Both are computed from one
    recorded pass.

    Returns ``(u_so, f_so)`` where ``f_so`` is the full detected set of
    the truncated test over ``target`` (the paper's ``F_SO,i``).

    Raises
    ------
    ValueError
        On an unknown rule.
    """
    if target is None:
        target = set(range(len(sim.faults)))
    records = sim.run_with_records(list(t0), init_state=scan_in,
                                   target=sorted(target | f_si))
    if rule == "earliest":
        return records.earliest_safe_scanout(f_si)
    if rule == "max_coverage":
        best: Optional[Tuple[int, Set[int]]] = None
        for i in range(records.n_frames):
            detected = records.detected_with_scanout_at(i)
            if not f_si <= detected:
                continue
            if best is None or len(detected) > len(best[1]):
                best = (i, detected)
        if best is None:
            raise ValueError("required faults not detected by the "
                             "full test")
        return best
    raise ValueError(f"unknown scan-out rule {rule!r}")


def run_phase1(
    sim: FaultSimulator,
    t0: Sequence[V.Vector],
    comb_tests: Sequence[CombTest],
    selected: Sequence[bool],
    target: Optional[Set[int]] = None,
    f0: Optional[Set[int]] = None,
    scan_out_rule: str = "earliest",
) -> Phase1Result:
    """Run Steps 1-3 and assemble a :class:`Phase1Result`.

    ``f0`` may be supplied when the caller has already simulated the
    no-scan detections (the iteration loop reuses them).
    ``scan_out_rule`` selects the paper's ``i0`` ("earliest") or
    ``i1`` ("max_coverage") Step-3 variant.
    """
    if target is None:
        target = set(range(len(sim.faults)))
    if f0 is None:
        f0 = detect_no_scan(sim, t0, sorted(target))
    index, f_si = select_scan_in(sim, t0, comb_tests, f0, selected, target)
    scan_in = comb_tests[index].state
    u_so, f_so = select_scan_out(sim, scan_in, t0, f_si, target,
                                 rule=scan_out_rule)
    vectors = tuple(tuple(v) for v in t0[:u_so + 1])
    return Phase1Result(
        scan_in=tuple(scan_in),
        chosen_index=index,
        chose_selected=bool(selected[index]),
        vectors=vectors,
        u_so=u_so,
        f0=set(f0),
        f_si=set(f_si),
        f_so=f_so,
    )
