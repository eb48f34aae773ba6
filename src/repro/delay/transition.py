"""Transition (delay) fault simulation for scan tests.

The paper's motivation for long primary-input sequences is at-speed
testing: consecutive functional cycles are launch/capture opportunities
for delay defects [5], [6].  This module quantifies that claim with the
standard transition-fault model under launch-on-capture conditions:

* a *slow-to-rise* fault on net ``n`` is *launched* at frame ``t >= 1``
  when the fault-free value of ``n`` rises from 0 (frame ``t-1``) to 1
  (frame ``t``); the late transition behaves as a stuck-at-0 on ``n``
  during frame ``t``;
* the resulting error is *detected* if it reaches a primary output at
  frame ``t`` or -- after being captured into flip-flops -- reaches a
  primary output of any later frame or the final scanned-out state
  (the error propagates through the fault-free circuit from frame
  ``t+1`` on);
* *slow-to-fall* symmetrically.

Frame 0 is never a launch frame: the transition from the scan-shift
state to the first capture is not applied at functional speed.  A
scan test with a length-1 sequence therefore detects **zero**
transition faults -- which is exactly why the [4]-style single-vector
test sets fare poorly here and the paper's long-sequence sets shine.

Simulation routes
-----------------
The simulator packs all launches of a frame into bit-parallel words
and carries them through the remaining frames together, with early
exit once a word's faults are all detected.  The circuit's engine
picks the route, by the same rule as every stuck-at pass: the C
kernel when ``CompiledCircuit(engine="auto")`` loaded it, big-int
otherwise.

* **scalar** (the reference, on ``engine="codegen"`` / ``"interp"``
  circuits and when the kernel is unavailable): per-net Python
  big-int words, at most ``_SCALAR_WIDTH - 1`` faults per word, one
  ``eval_frame`` call per frame per word -- exactly the semantics of
  the stuck-at engine's big-int path.
* **packed** (the circuit's array backend): every launch of a frame
  goes into one multi-word ``uint64`` array chunk, captured by
  :meth:`repro.sim.npsim.ArrayBackend.run_launch_capture` -- one
  kernel call for the launch frame (injection stems force the late
  value, scan-out only if it is also the last frame) and one for the
  fault-free propagation suffix (primary outputs observed every
  frame, final state scanned out).  This module only names the
  launched ``(net, forced value)`` sites; the plans and the kernel
  stay behind that one method.

Detection is independent of how launches are grouped into words
(every fault's machine evolves in its own bit-lane and the saturation
break only fires once *all* lanes are caught), so the two routes are
byte-identical; ``tests/delay/test_transition.py`` proves it with a
hypothesis equivalence suite and -- under ``REPRO_SANITIZE=1`` -- the
packed route spot-checks its first few captures against a scalar
recomputation, reporting ``delay-agreement`` violations through
:mod:`repro.analysis.sanitizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis import sanitizer
from ..circuits.netlist import Netlist
from ..core.scan_test import ScanTest, ScanTestSet
from ..sim import values as V
from ..sim.counters import SimCounters
from ..sim.logicsim import CompiledCircuit

#: Packed launch-group captures cross-checked against the scalar route
#: per simulator when the sanitizer is armed.
_SANITIZE_SPOT_BUDGET = 3

#: Machine bits per scalar-route word: 127 launched faults plus the
#: fault-free bit 0.
_SCALAR_WIDTH = 128


@dataclass(frozen=True)
class TransitionFault:
    """A transition fault on a stem.

    ``rising`` selects slow-to-rise (detected via a 0 -> 1 launch and a
    stuck-at-0 capture); otherwise slow-to-fall.
    """

    net: str
    rising: bool

    def __str__(self) -> str:
        return f"{self.net}/{'STR' if self.rising else 'STF'}"


def all_transition_faults(netlist: Netlist) -> List[TransitionFault]:
    """Both transition faults on every net, sorted for reproducibility."""
    if not netlist.is_compiled():
        netlist.compile()
    faults = []
    for net in sorted(netlist.gates):
        faults.append(TransitionFault(net, True))
        faults.append(TransitionFault(net, False))
    return faults


class TransitionSim:
    """Transition-fault simulator bound to one circuit.

    Captures run on the circuit's array backend when it has one (the
    packed route) and on the big-int reference otherwise; the resolved
    choice is exposed as :attr:`route`.  Build the circuit with
    ``engine="codegen"`` or ``"interp"`` to get the reference.
    Pass the workbench's shared
    :class:`~repro.sim.counters.SimCounters` to surface
    ``tdf_passes`` / ``tdf_words`` / ``tdf_s`` in the engine counters
    table.
    """

    def __init__(self, circuit: CompiledCircuit,
                 faults: Optional[Sequence[TransitionFault]] = None,
                 counters: Optional[SimCounters] = None) -> None:
        self.circuit = circuit
        self.faults: List[TransitionFault] = list(
            faults if faults is not None
            else all_transition_faults(circuit.netlist))
        self.index: Dict[TransitionFault, int] = {
            f: i for i, f in enumerate(self.faults)}
        self.counters = counters if counters is not None \
            else SimCounters()
        ids = circuit.netlist.net_ids
        self._nid: List[int] = [ids[f.net] for f in self.faults]
        self._backend = circuit.array_backend
        self._sanitize_spots_left = _SANITIZE_SPOT_BUDGET

    @property
    def route(self) -> str:
        """``"packed"`` on the circuit's array backend, else
        ``"scalar"``."""
        return "packed" if self._backend is not None else "scalar"

    # ------------------------------------------------------------------
    def detect_test(self, test: ScanTest,
                    target: Optional[Set[int]] = None) -> Set[int]:
        """Transition-fault indices detected by one scan test."""
        with self.counters.phase_timer("tdf"):
            return self._detect_test(test, target)

    def _detect_test(self, test: ScanTest,
                     target: Optional[Set[int]]) -> Set[int]:
        circuit = self.circuit
        if target is None:
            target = set(range(len(self.faults)))
        remaining = set(target)
        detected: Set[int] = set()
        if test.length < 2 or not remaining:
            return detected

        # Good-machine pass recording every net value per frame.
        zero = [0] * circuit.n_nets
        one = [0] * circuit.n_nets
        for nid, val in zip(circuit.ff_ids, test.scan_in):
            zero[nid], one[nid] = V.pack_scalar(val, 1)
        frames: List[Tuple[List[int], List[int]]] = []
        states: List[V.Vector] = []
        for vector in test.vectors:
            for nid, val in zip(circuit.pi_ids, vector):
                zero[nid], one[nid] = V.pack_scalar(val, 1)
            circuit.eval_frame(zero, one, 1)
            frames.append((list(zero), list(one)))
            captured = tuple(
                V.word_scalar(zero[nid], one[nid])
                for nid in circuit.ff_d_ids)
            states.append(captured)
            for nid, val in zip(circuit.ff_ids, captured):
                zero[nid], one[nid] = V.pack_scalar(val, 1)

        packed = self._backend is not None
        for t in range(1, test.length):
            prev_zero, prev_one = frames[t - 1]
            cur_zero, cur_one = frames[t]
            launched: List[int] = []
            for fid in remaining:
                nid = self._nid[fid]
                if self.faults[fid].rising:
                    if prev_zero[nid] & 1 and cur_one[nid] & 1:
                        launched.append(fid)
                else:
                    if prev_one[nid] & 1 and cur_zero[nid] & 1:
                        launched.append(fid)
            if not launched:
                continue
            if packed:
                caught = self._capture_packed(test, states, frames,
                                              t, sorted(launched))
            else:
                caught = self._capture_and_propagate(
                    test, states, frames, t, sorted(launched))
            detected |= caught
            remaining -= caught
            if not remaining:
                break
        return detected

    def _capture_and_propagate(self, test: ScanTest,
                               states: Sequence[V.Vector],
                               frames: Sequence,
                               launch: int,
                               launched: Sequence[int],
                               count: bool = True) -> Set[int]:
        """Bit-parallel check for one launch frame (scalar route).

        Frame ``launch`` is evaluated with the late-transition values
        forced (stuck-at-old); the resulting error state then runs
        through the remaining frames fault-free, observed at primary
        outputs each frame and at the final captured state.
        ``count=False`` suppresses the counter bumps (the sanitizer's
        shadow recomputation must not distort the measurements).
        """
        circuit = self.circuit
        detected: Set[int] = set()
        last = test.length - 1
        per = _SCALAR_WIDTH - 1
        for start in range(0, len(launched), per):
            group = launched[start:start + per]
            mask = (1 << (len(group) + 1)) - 1
            stems: Dict[int, Tuple[int, int]] = {}
            for pos, fid in enumerate(group):
                bit = 1 << (pos + 1)
                nid = self._nid[fid]
                # Slow-to-rise: value stays at old 0 -> stuck-at-0 now.
                m0, m1 = (bit, 0) if self.faults[fid].rising else (0, bit)
                old0, old1 = stems.get(nid, (0, 0))
                stems[nid] = (old0 | m0, old1 | m1)
            zero = [0] * circuit.n_nets
            one = [0] * circuit.n_nets
            state = (test.scan_in if launch == 0
                     else states[launch - 1])
            for nid, val in zip(circuit.ff_ids, state):
                zero[nid], one[nid] = V.pack_scalar(val, mask)
            if count:
                self.counters.tdf_passes += 1
            frames_run = 0
            caught = 0
            for t in range(launch, test.length):
                for nid, val in zip(circuit.pi_ids, test.vectors[t]):
                    zero[nid], one[nid] = V.pack_scalar(val, mask)
                if t == launch:
                    for nid, (m0, m1) in stems.items():
                        keep = mask & ~(m0 | m1)
                        zero[nid] = (zero[nid] & keep) | m0
                        one[nid] = (one[nid] & keep) | m1
                    circuit.eval_frame(zero, one, mask, stems)
                else:
                    circuit.eval_frame(zero, one, mask)
                frames_run += 1
                for nid in circuit.po_ids:
                    caught |= _diff(zero[nid], one[nid])
                if t == last:
                    for nid in circuit.ff_d_ids:
                        caught |= _diff(zero[nid], one[nid])
                caught &= ~1
                if caught == mask & ~1:
                    break
                captured = [(zero[nid], one[nid])
                            for nid in circuit.ff_d_ids]
                for nid, (z, o) in zip(circuit.ff_ids, captured):
                    zero[nid], one[nid] = z, o
            if count:
                self.counters.tdf_words += frames_run
            for pos, fid in enumerate(group):
                if caught & (1 << (pos + 1)):
                    detected.add(fid)
        return detected

    # ------------------------------------------------------------------
    def _capture_packed(self, test: ScanTest,
                        states: Sequence[V.Vector],
                        frames: Sequence,
                        launch: int,
                        launched: Sequence[int]) -> Set[int]:
        """Kernel check for one launch frame (packed route): every
        launch in one multi-word chunk, captured by
        :meth:`repro.sim.npsim.ArrayBackend.run_launch_capture`."""
        group = list(launched)
        # Slow-to-rise stays at its old 0 (stuck-at-0), slow-to-fall
        # at its old 1.
        sites = [(self._nid[fid], 0 if self.faults[fid].rising else 1)
                 for fid in group]
        counters = self.counters
        counters.tdf_passes += 1
        # launch >= 1 always: frame 0 is never a launch frame.
        caught, frames_run = self._backend.run_launch_capture(
            counters, test.vectors, states[launch - 1], launch, sites)
        counters.tdf_words += frames_run
        detected = {fid for pos, fid in enumerate(group)
                    if caught & (1 << (pos + 1))}
        if sanitizer.enabled() and self._sanitize_spots_left > 0:
            self._sanitize_spots_left -= 1
            self._spot_check(test, states, frames, launch, group,
                             detected)
        return detected

    def _spot_check(self, test: ScanTest,
                    states: Sequence[V.Vector],
                    frames: Sequence, launch: int,
                    group: Sequence[int],
                    detected: Set[int]) -> None:
        """Scalar shadow recomputation of one packed capture."""
        scalar = self._capture_and_propagate(test, states, frames,
                                             launch, group,
                                             count=False)
        if scalar != detected:
            sanitizer.report_violation(
                "delay-agreement",
                f"packed/scalar TDF mismatch at launch frame "
                f"{launch}: packed {sorted(detected)}, scalar "
                f"{sorted(scalar)}")

    # ------------------------------------------------------------------
    def detect_test_set(self, test_set: ScanTestSet) -> Set[int]:
        """Union of transition faults detected across a test set."""
        remaining = set(range(len(self.faults)))
        detected: Set[int] = set()
        for test in test_set:
            if not remaining:
                break
            caught = self.detect_test(test, remaining)
            detected |= caught
            remaining -= caught
        return detected

    def coverage_percent(self, test_set: ScanTestSet) -> float:
        """Transition-fault coverage of a test set, in percent."""
        if not self.faults:
            return 0.0
        return 100.0 * len(self.detect_test_set(test_set)) / \
            len(self.faults)


def _diff(zero: int, one: int) -> int:
    """Machines whose binary value differs from the good bit-0 value."""
    if one & 1:
        return zero
    if zero & 1:
        return one
    return 0
