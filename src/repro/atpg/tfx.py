"""Targeted sequential test generation by time-frame expansion.

The deterministic half of a sequential ATPG (the role STRATEGATE's
and PROPTEST's directed phases play): given the circuit's *current*
state, find a short primary-input subsequence that detects a specific
still-undetected fault at a primary output within ``depth`` clock
cycles.

The circuit is unrolled ``depth`` times into a purely combinational
model: frame-0 flip-flop values become pseudo inputs (fixed to the
known state), each later frame's flip-flop value is a buffer from the
previous frame's data net, and every frame's primary outputs are
observable.  A stuck-at fault is permanent, so it is injected into
*every* frame copy; activation is attempted frame by frame.  PODEM
(:meth:`repro.atpg.podem.Podem.generate_spec` with the multi-site
spec and the fixed state assignment) then searches for the input
assignment.

The sequence generator uses this to rescue faults its greedy phase
cannot reach (see ``generate_sequence(..., targeted=True)``), which is
what gives the ATPG arm its edge over plain random sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..circuits.netlist import Netlist
from ..sim import values as V
from ..sim.faults import Fault, FaultSet
from ..sim.logicsim import CompiledCircuit
from .podem import Podem, PodemResult, TESTABLE


def unroll(netlist: Netlist, depth: int) -> Netlist:
    """Combinational ``depth``-frame expansion of a sequential circuit.

    Net ``n`` of frame ``t`` is named ``n@t``.  Frame-0 flip-flop
    outputs become primary inputs; frame ``t>0`` flip-flop outputs are
    buffers of frame ``t-1`` data nets.  All frames' primary outputs
    are outputs.

    Raises
    ------
    ValueError
        If ``depth`` is not positive.
    """
    if depth < 1:
        raise ValueError("unroll depth must be positive")
    if not netlist.is_compiled():
        netlist.compile()
    out = Netlist(f"{netlist.name}_x{depth}")
    for t in range(depth):
        for pi in netlist.inputs:
            out.add_input(f"{pi}@{t}")
    for ff in netlist.flip_flops:
        out.add_input(f"{ff}@0")
    for t in range(depth):
        for ff in netlist.flip_flops:
            if t > 0:
                d_net = netlist.gates[ff].fanins[0]
                out.add_gate(f"{ff}@{t}", "BUF", [f"{d_net}@{t-1}"])
        for gname in netlist.order:
            gate = netlist.gates[gname]
            out.add_gate(f"{gname}@{t}", gate.gtype,
                         [f"{fin}@{t}" for fin in gate.fanins])
        for po in netlist.outputs:
            out.add_output(f"{po}@{t}")
    return out.compile()


@dataclass
class ExtensionResult:
    """A successful targeted extension."""

    vectors: List[V.Vector]      # fully specified, X-filled
    activation_frame: int
    backtracks: int


class TargetedExtender:
    """Per-circuit engine for targeted sequence extensions."""

    def __init__(self, netlist: Netlist, depth: int = 4,
                 backtrack_limit: int = 192, seed: int = 0,
                 x_fill: str = "random") -> None:
        self.netlist = netlist
        self.depth = depth
        # How extracted vectors' don't-cares are filled (see
        # repro.sim.values.fill_x); "random" keeps the historical
        # rng-consumption and output byte-identical.
        self.x_fill = x_fill
        self.unrolled = unroll(netlist, depth)
        self.circuit = CompiledCircuit(self.unrolled)
        # PODEM needs only the circuit; specs are supplied per query.
        self.podem = Podem(self.circuit, FaultSet([]),
                           backtrack_limit=backtrack_limit)
        self._rng = random.Random(seed)
        ids = self.unrolled.net_ids
        self._state_ids = [ids[f"{ff}@0"] for ff in netlist.flip_flops]
        self._pi_ids = [[ids[f"{pi}@{t}"] for pi in netlist.inputs]
                        for t in range(depth)]

    # ------------------------------------------------------------------
    def _spec_for(self, fault: Fault, activation: int) -> Optional[Tuple]:
        """Unrolled injection spec for ``fault`` activated at frame
        ``activation``; ``None`` when the fault has no effect within
        the window (e.g. a data-pin fault on the last frame)."""
        ids = self.unrolled.net_ids
        stuck = fault.stuck
        mask = 2  # the faulty machine bit in PODEM's dual encoding
        if fault.pin is None:
            stems = {ids[f"{fault.net}@{t}"]: ((mask, 0) if stuck == 0
                                               else (0, mask))
                     for t in range(self.depth)}
            site = ids[f"{fault.net}@{activation}"]
            return (site, stuck, stems, {}, None)
        gate_name, pin = fault.pin
        gate = self.netlist.gates[gate_name]
        m0 = mask if stuck == 0 else 0
        m1 = mask if stuck == 1 else 0
        if gate.gtype == "DFF":
            # The capture into frame t+1's buffer is the faulted pin.
            if self.depth < 2:
                return None
            branch = {ids[f"{gate_name}@{t}"]: [(0, m0, m1)]
                      for t in range(1, self.depth)}
            activation = min(activation, self.depth - 2)
            site = ids[f"{fault.net}@{activation}"]
            return (site, stuck, {}, branch, None)
        branch = {ids[f"{gate_name}@{t}"]: [(pin, m0, m1)]
                  for t in range(self.depth)}
        site = ids[f"{fault.net}@{activation}"]
        return (site, stuck, {}, branch, None)

    def try_fault(self, fault: Fault,
                  state: V.Vector) -> Optional[ExtensionResult]:
        """Search for a detecting subsequence from ``state``.

        Activation is attempted at each frame in turn (earliest first,
        so successful extensions tend to be short).  Returns ``None``
        when every attempt fails or aborts.

        Raises
        ------
        ValueError
            If ``state`` is not fully specified (the extender starts
            from a *known* simulation state).
        """
        if not V.is_binary(state):
            raise ValueError("targeted extension needs a binary state")
        fixed = {nid: val for nid, val in zip(self._state_ids, state)}
        for activation in range(self.depth):
            spec = self._spec_for(fault, activation)
            if spec is None:
                return None
            result = self.podem.generate_spec(spec, fixed=fixed)
            if result.status == TESTABLE:
                return ExtensionResult(
                    vectors=self._extract_vectors(result),
                    activation_frame=activation,
                    backtracks=result.backtracks,
                )
        return None

    def _extract_vectors(self, result: PodemResult) -> List[V.Vector]:
        """Frame-by-frame PI vectors from a PODEM pattern, X-filled."""
        _, flat_pi = result.pattern
        ids = {nid: val for nid, val
               in zip((nid for nid in self.circuit.pi_ids), flat_pi)}
        vectors = []
        for frame_ids in self._pi_ids:
            vec = tuple(ids.get(nid, V.X) for nid in frame_ids)
            vectors.append(V.fill_x(vec, self._rng,
                                    strategy=self.x_fill))
        return vectors
