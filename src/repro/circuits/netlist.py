"""Gate-level netlist data model for synchronous sequential circuits.

The model follows the ISCAS-89 conventions: a circuit is a set of named
nets, each driven by exactly one gate.  Primary inputs and D flip-flops
are modelled as source gates (``INPUT`` has no fanin, ``DFF`` has one
fanin -- its next-state function).  Primary outputs are nets flagged as
observable.  All clocking is implicit: every DFF loads its fanin value at
the end of each functional clock cycle.

A :class:`Netlist` is built incrementally with :meth:`Netlist.add_input`,
:meth:`Netlist.add_gate`, :meth:`Netlist.add_dff` and
:meth:`Netlist.add_output`, then compiled once with
:meth:`Netlist.compile`.  Compilation assigns dense integer ids to nets,
computes a topological order of the combinational logic and checks for
structural errors (undriven nets, combinational cycles).

Example
-------
>>> net = Netlist("toy")
>>> net.add_input("a")
>>> net.add_dff("q", "d")
>>> net.add_gate("d", "XOR", ["a", "q"])
>>> net.add_output("d")
>>> net.compile()
>>> net.num_inputs, net.num_ffs, net.num_gates
(1, 1, 1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: Gate types with free fanin arity.
VARIADIC_TYPES = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR")

#: Single-input combinational gate types.
UNARY_TYPES = ("NOT", "BUF")

#: Source gate types (values come from outside the combinational logic).
SOURCE_TYPES = ("INPUT", "DFF")

#: Constant generators (no fanin).
CONST_TYPES = ("CONST0", "CONST1")

ALL_TYPES = VARIADIC_TYPES + UNARY_TYPES + SOURCE_TYPES + CONST_TYPES


class NetlistError(ValueError):
    """Raised for structural errors: bad gate types, cycles, missing nets."""


@dataclass
class Gate:
    """One gate driving the net named :attr:`name`.

    Attributes
    ----------
    name:
        Name of the net this gate drives (nets and gates are one-to-one).
    gtype:
        One of :data:`ALL_TYPES`.
    fanins:
        Names of the input nets, in pin order.
    """

    name: str
    gtype: str
    fanins: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.gtype not in ALL_TYPES:
            raise NetlistError(f"unknown gate type {self.gtype!r} for {self.name!r}")
        arity = len(self.fanins)
        if self.gtype in CONST_TYPES and arity != 0:
            raise NetlistError(f"{self.gtype} gate {self.name!r} must have no fanins")
        if self.gtype == "INPUT" and arity != 0:
            raise NetlistError(f"INPUT {self.name!r} must have no fanins")
        if self.gtype == "DFF" and arity != 1:
            raise NetlistError(f"DFF {self.name!r} must have exactly one fanin")
        if self.gtype in UNARY_TYPES and arity != 1:
            raise NetlistError(f"{self.gtype} gate {self.name!r} must have one fanin")
        if self.gtype in VARIADIC_TYPES and arity < 1:
            raise NetlistError(f"{self.gtype} gate {self.name!r} needs at least one fanin")


class Netlist:
    """A synchronous sequential circuit at gate level.

    The netlist must be :meth:`compile`-d before simulation-oriented
    attributes (``order``, ``net_ids``, ``fanout`` ...) are available.
    Mutating the netlist after compilation invalidates the compiled data;
    call :meth:`compile` again.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self.outputs: List[str] = []
        self._compiled = False
        # Populated by compile():
        self.net_ids: Dict[str, int] = {}
        self.net_names: List[str] = []
        self.order: List[str] = []           # topological order of comb. gates
        self.levels: Dict[str, int] = {}
        self.fanout: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        """Declare primary input ``name``."""
        self._add(Gate(name, "INPUT"))

    def add_dff(self, q: str, d: str) -> None:
        """Declare a D flip-flop whose output net is ``q`` and whose
        next-state (D pin) net is ``d``."""
        self._add(Gate(q, "DFF", [d]))

    def add_gate(self, name: str, gtype: str, fanins: Sequence[str]) -> None:
        """Declare a combinational gate of type ``gtype`` driving ``name``."""
        self._add(Gate(name, gtype, list(fanins)))

    def add_const(self, name: str, value: int) -> None:
        """Declare a constant-``value`` net (value must be 0 or 1)."""
        if value not in (0, 1):
            raise NetlistError(f"constant value must be 0 or 1, got {value!r}")
        self._add(Gate(name, "CONST1" if value else "CONST0"))

    def add_output(self, name: str) -> None:
        """Flag net ``name`` as a primary output (may be declared before
        the driving gate)."""
        if name in self.outputs:
            return
        self.outputs.append(name)
        self._compiled = False

    def _add(self, gate: Gate) -> None:
        if gate.name in self.gates:
            raise NetlistError(f"net {gate.name!r} driven twice")
        self.gates[gate.name] = gate
        self._compiled = False

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[str]:
        """Primary input net names, in declaration order."""
        return [g.name for g in self.gates.values() if g.gtype == "INPUT"]

    @property
    def flip_flops(self) -> List[str]:
        """Flip-flop output net names, in declaration order.

        This order defines the scan chain: scan-in vectors and scan-out
        vectors index flip-flops in this order.
        """
        return [g.name for g in self.gates.values() if g.gtype == "DFF"]

    @property
    def comb_gates(self) -> List[str]:
        """Names of combinational (non-source) gates, declaration order."""
        return [g.name for g in self.gates.values()
                if g.gtype not in SOURCE_TYPES]

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def num_ffs(self) -> int:
        return len(self.flip_flops)

    @property
    def num_gates(self) -> int:
        """Number of combinational gates (excludes INPUT and DFF)."""
        return len(self.comb_gates)

    @property
    def num_nets(self) -> int:
        return len(self.gates)

    def is_compiled(self) -> bool:
        return self._compiled

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self) -> "Netlist":
        """Check structure, assign net ids, and compute topological order.

        Returns ``self`` so construction can be chained.

        Raises
        ------
        NetlistError
            If a net is referenced but never driven, an output is
            undriven, or the combinational logic contains a cycle.
        """
        for gate in self.gates.values():
            for fin in gate.fanins:
                if fin not in self.gates:
                    raise NetlistError(
                        f"net {fin!r} used by {gate.name!r} is never driven")
        for out in self.outputs:
            if out not in self.gates:
                raise NetlistError(f"output net {out!r} is never driven")

        self.fanout = {name: [] for name in self.gates}
        for gate in self.gates.values():
            for fin in gate.fanins:
                self.fanout[fin].append(gate.name)

        self._toposort()

        self.net_names = (self.inputs + self.flip_flops + self.order)
        self.net_ids = {n: i for i, n in enumerate(self.net_names)}
        self._compiled = True
        return self

    def _toposort(self) -> None:
        """Kahn topological sort of combinational gates.

        Sources (INPUT, DFF, CONST*) are level 0.  DFF *data* pins do not
        create dependencies (they are cut points), so feedback through
        flip-flops is legal; any remaining cycle is purely combinational
        and is an error.
        """
        self.levels = {}
        indeg: Dict[str, int] = {}
        for gate in self.gates.values():
            if gate.gtype in SOURCE_TYPES:
                self.levels[gate.name] = 0
            else:
                indeg[gate.name] = sum(
                    1 for f in gate.fanins
                    if self.gates[f].gtype not in SOURCE_TYPES)
        ready = sorted(n for n, d in indeg.items() if d == 0)

        order: List[str] = []
        queue = list(ready)
        while queue:
            name = queue.pop()
            gate = self.gates[name]
            self.levels[name] = 1 + max(
                (self.levels[f] for f in gate.fanins), default=0)
            order.append(name)
            for succ in self.fanout[name]:
                sg = self.gates[succ]
                if sg.gtype in SOURCE_TYPES:
                    continue
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    queue.append(succ)
        if len(order) != len(indeg):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise NetlistError(
                f"combinational cycle involving nets: {stuck[:10]}")
        # Stable order: by level, then by name, for reproducibility.
        order.sort(key=lambda n: (self.levels[n], n))
        self.order = order

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Deep copy (compiled state is not carried over)."""
        dup = Netlist(name or self.name)
        for gate in self.gates.values():
            dup.gates[gate.name] = Gate(gate.name, gate.gtype,
                                        list(gate.fanins))
        dup.outputs = list(self.outputs)
        return dup

    def stats(self) -> Dict[str, int]:
        """Summary counts used in reports and tables."""
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "ffs": self.num_ffs,
            "gates": self.num_gates,
            "nets": self.num_nets,
        }

    def transitive_fanin(self, nets: Iterable[str],
                         stop_at_ffs: bool = True) -> List[str]:
        """Nets in the transitive fanin cone of ``nets``.

        With ``stop_at_ffs`` the traversal does not go through DFF data
        pins (cone of the current time frame only).
        """
        seen = set()
        stack = list(nets)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            gate = self.gates[name]
            if gate.gtype == "DFF" and stop_at_ffs:
                continue
            stack.extend(gate.fanins)
        return sorted(seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Netlist({self.name!r}, pi={self.num_inputs}, "
                f"po={self.num_outputs}, ff={self.num_ffs}, "
                f"gates={self.num_gates})")
