"""Cycle-accurate tester programs for scan test sets.

The paper's cost model, ``N_cyc = (k+1) N_SV + sum L(T_j)``, assumes a
single scan chain whose scan clock equals the functional clock, with
the scan-out of each test overlapped with the scan-in of the next.
This module makes that schedule concrete: :func:`schedule` flattens a
:class:`~repro.core.scan_test.ScanTestSet` into per-cycle tester
operations, and :func:`execute` runs the program against a circuit
with the scan chain modelled explicitly, checking every expected
scan-out bit and primary-output value.

Besides being the exportable artefact a tester would consume, this is
an end-to-end validation: the program length equals
``ScanTestSet.clock_cycles()`` *by construction*, and executing it
verifies all expected responses against the levelized simulator.

Scan chain convention: the chain follows the netlist's flip-flop
declaration order; bit 0 of a scan vector sits in the first flip-flop.
During a shift cycle each flip-flop loads its predecessor, the first
flip-flop loads the scan-in pin, and the last flip-flop drives the
scan-out pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sim import values as V
from ..sim.logicsim import CompiledCircuit, simulate_sequence
from .scan_test import ScanTestSet

SHIFT = "shift"
FUNCTIONAL = "functional"


@dataclass(frozen=True)
class TesterCycle:
    """One tester clock cycle.

    Attributes
    ----------
    kind:
        ``SHIFT`` (scan enable asserted) or ``FUNCTIONAL``.
    scan_in_bit:
        Bit driven on the scan-in pin during a shift cycle (may be X
        when no next test exists -- the final scan-out).
    expected_scan_out_bit:
        Expected value on the scan-out pin during a shift cycle (X
        during the very first scan-in, when the chain holds garbage).
    pi_vector:
        Primary-input vector applied during a functional cycle.
    expected_po:
        Expected primary-output response during a functional cycle
        (sampled from the fault-free machine).
    """

    kind: str
    scan_in_bit: int = V.X
    expected_scan_out_bit: int = V.X
    pi_vector: Optional[V.Vector] = None
    expected_po: Optional[V.Vector] = None


@dataclass
class TesterProgram:
    """A flattened scan test program."""

    n_state_vars: int
    cycles: List[TesterCycle] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def n_shift_cycles(self) -> int:
        return sum(1 for c in self.cycles if c.kind == SHIFT)

    @property
    def n_functional_cycles(self) -> int:
        return sum(1 for c in self.cycles if c.kind == FUNCTIONAL)


def _shift_in_bits(scan_in: V.Vector) -> List[int]:
    """Scan-in pin values, first shifted bit first.

    After ``N`` shifts, the bit fed at cycle ``t`` sits in flip-flop
    ``N - 1 - t`` (it keeps moving down the chain), so the vector is
    fed last-flip-flop-first.
    """
    return list(reversed(scan_in))


def _shift_out_bits(scan_out: V.Vector) -> List[int]:
    """Scan-out pin values, first observed bit first.

    The last flip-flop appears first; after ``t`` shifts the pin shows
    what started ``t`` positions up the chain.
    """
    return list(reversed(scan_out))


def schedule(test_set: ScanTestSet,
             circuit: CompiledCircuit) -> TesterProgram:
    """Flatten a test set into a cycle-accurate tester program.

    The fault-free machine supplies every expected response (scan-out
    vectors and primary-output samples).  The resulting program length
    always equals ``test_set.clock_cycles()``.

    Raises
    ------
    ValueError
        If the test set is empty or its width disagrees with the
        circuit.
    """
    n_sv = test_set.n_state_vars
    if len(test_set) == 0:
        raise ValueError("cannot schedule an empty test set")
    if n_sv != len(circuit.ff_ids):
        raise ValueError(
            f"test set width {n_sv} != circuit {len(circuit.ff_ids)}")

    program = TesterProgram(n_state_vars=n_sv)
    previous_out: Optional[V.Vector] = None
    for test in test_set:
        in_bits = _shift_in_bits(test.scan_in)
        out_bits = (_shift_out_bits(previous_out)
                    if previous_out is not None else [V.X] * n_sv)
        for t in range(n_sv):
            program.cycles.append(TesterCycle(
                SHIFT, scan_in_bit=in_bits[t],
                expected_scan_out_bit=out_bits[t]))
        response = simulate_sequence(circuit, list(test.vectors),
                                     test.scan_in)
        for vector, po in zip(test.vectors, response.po_frames):
            program.cycles.append(TesterCycle(
                FUNCTIONAL, pi_vector=tuple(vector),
                expected_po=tuple(po)))
        previous_out = response.final_state
    out_bits = _shift_out_bits(previous_out)
    for t in range(n_sv):
        program.cycles.append(TesterCycle(
            SHIFT, expected_scan_out_bit=out_bits[t]))
    return program


@dataclass
class ExecutionResult:
    """Outcome of :func:`execute`."""

    cycles_run: int
    scan_mismatches: List[int] = field(default_factory=list)
    po_mismatches: List[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.scan_mismatches and not self.po_mismatches


def execute(program: TesterProgram,
            circuit: CompiledCircuit) -> ExecutionResult:
    """Run a tester program against the fault-free circuit.

    The scan chain is modelled explicitly (a shift register threaded
    through the flip-flops); every expected scan-out bit and
    primary-output sample is compared.  An X expectation matches
    anything (tester mask).
    """
    n_sv = program.n_state_vars
    state: List[int] = [V.X] * n_sv
    result = ExecutionResult(cycles_run=0)
    zero = [0] * circuit.n_nets
    one = [0] * circuit.n_nets

    for index, cycle in enumerate(program.cycles):
        if cycle.kind == SHIFT:
            observed = state[-1]
            expected = cycle.expected_scan_out_bit
            if expected != V.X and observed != expected:
                result.scan_mismatches.append(index)
            state = [cycle.scan_in_bit] + state[:-1]
        else:
            for nid, val in zip(circuit.ff_ids, state):
                zero[nid], one[nid] = V.pack_scalar(val, 1)
            for nid, val in zip(circuit.pi_ids, cycle.pi_vector):
                zero[nid], one[nid] = V.pack_scalar(val, 1)
            circuit.eval_frame(zero, one, 1)
            po = tuple(V.word_scalar(zero[nid], one[nid])
                       for nid in circuit.po_ids)
            if cycle.expected_po is not None:
                for got, want in zip(po, cycle.expected_po):
                    if want != V.X and got != want:
                        result.po_mismatches.append(index)
                        break
            state = [V.word_scalar(zero[nid], one[nid])
                     for nid in circuit.ff_d_ids]
        result.cycles_run += 1
    return result
