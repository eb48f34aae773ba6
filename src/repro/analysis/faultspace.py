"""Static fault-space analysis: collapsing, dominance, untestability.

A purely static pass over a netlist that characterizes the stuck-at
fault universe before a single vector is simulated:

* **Equivalence classes** -- the structural collapsing of
  :mod:`repro.sim.faults` partitions the universe; every member of a
  class produces *identical* observable behavior (primary outputs and
  captured flip-flop state) under every test, so simulating one
  representative per class and copying its results to the members is
  byte-identical to simulating everything (DESIGN.md section 15).
* **Dominance graph** -- classic gate-level dominance edges
  (``dominator`` is detected by every test of ``dominated``).  In a
  combinational/full-scan setting dominators could be dropped; scan
  *sequences* observe intermediate frames, so the reproduction uses
  dominance strictly as an ordering signal, never to shrink the
  simulated set.
* **SCOAP measures** -- :mod:`repro.analysis.scoap` difficulty per
  fault, reported as a testability profile (the compaction phases
  keep the paper's own orderings and do not consult it).
* **Untestability proofs** -- sound static arguments that no test can
  ever detect a fault: the line is constant at the stuck value
  (unexcitable), or no fault effect can reach a primary output or
  flip-flop data pin (unobservable, optionally through
  constant-blocked side inputs).  Proofs close over equivalence
  classes and are the only analysis allowed to *exclude* faults from
  simulation -- soundness means exclusion is provably
  result-identical.

The :class:`FaultSpaceReport` mirrors the lint report: JSON
round-trip, rendered table, and stable rule ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..circuits.netlist import Netlist
from ..sim.faults import Fault, all_faults, fault_classes
from .scoap import ScoapMeasures, compute_scoap

#: Rule ids for untestability proofs.
RULE_CONSTANT = "untestable.constant-line"
RULE_UNOBSERVABLE = "untestable.unobservable"
RULE_BLOCKED = "untestable.const-blocked"

#: Controlling input value per gate type (fixes the output alone).
_CONTROLLING = {"AND": 0, "NAND": 0, "OR": 1, "NOR": 1}

#: Dominance rule per gate type: ``(output_stuck, input_stuck)`` such
#: that the output fault is detected by every test of the input fault.
#: (For AND, any test of input s-a-1 sets that input 0 and the others
#: 1, driving the good output 0 and the faulty output 1 -- exactly the
#: condition detecting output s-a-1; the other types are symmetric.)
_DOMINANCE = {"AND": (1, 1), "NAND": (0, 1), "OR": (0, 0), "NOR": (1, 0)}


def _fault_to_dict(fault: Fault) -> Dict[str, Any]:
    return {"net": fault.net,
            "pin": list(fault.pin) if fault.pin is not None else None,
            "stuck": fault.stuck}


def _fault_from_dict(data: Mapping[str, Any]) -> Fault:
    pin = data.get("pin")
    return Fault(net=str(data["net"]),
                 pin=(str(pin[0]), int(pin[1])) if pin is not None
                 else None,
                 stuck=int(data["stuck"]))


@dataclass(frozen=True)
class UntestableProof:
    """One sound untestability argument for one fault."""

    fault: Fault
    rule: str
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {"fault": _fault_to_dict(self.fault), "rule": self.rule,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "UntestableProof":
        return cls(fault=_fault_from_dict(data["fault"]),
                   rule=str(data["rule"]), detail=str(data["detail"]))


@dataclass
class FaultSpaceReport:
    """Everything the static fault-space pass proved about a circuit.

    ``classes`` lists every equivalence class, representative first
    (the representative is the class minimum under the fault sort
    order, matching :func:`repro.sim.faults.collapse`).  ``dominance``
    holds ``(dominator, dominated)`` pairs -- ordering signal only.
    ``proofs`` are the directly proven untestable faults;
    ``untestable`` is their closure over the equivalence classes.
    """

    circuit: str
    n_universe: int
    classes: List[List[Fault]]
    dominance: List[Tuple[Fault, Fault]]
    scoap: ScoapMeasures
    proofs: List[UntestableProof] = field(default_factory=list)
    untestable: Set[Fault] = field(default_factory=set)

    # ------------------------------------------------------------------
    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_untestable(self) -> int:
        return len(self.untestable)

    @property
    def collapse_ratio(self) -> float:
        """Collapsed size over universe size (1.0 = nothing merged)."""
        if not self.n_universe:
            return 1.0
        return self.n_classes / self.n_universe

    def representatives(self) -> List[Fault]:
        return [members[0] for members in self.classes]

    # ------------------------------------------------------------------
    def untestable_indices(self, faults: Iterable[Fault]) -> Set[int]:
        """Indices (into ``faults``) of proven-untestable faults."""
        return {i for i, f in enumerate(faults) if f in self.untestable}

    def dominance_counts(self) -> Dict[Fault, int]:
        """Fault -> number of faults it dominates (ordering signal: a
        heavy dominator is caught by many tests, hence easy)."""
        counts: Dict[Fault, int] = {}
        for dominator, _ in self.dominance:
            counts[dominator] = counts.get(dominator, 0) + 1
        return counts

    def verify(self) -> List[str]:
        """Internal-consistency check; returns human-readable problems.

        Used by ``repro-compact analyze --strict``: the classes must
        partition the universe with sorted members and minimal
        representatives, every universe fault must have a finite or
        saturated difficulty, and the untestable set must be closed
        under equivalence.
        """
        problems: List[str] = []
        seen: Set[Fault] = set()
        for members in self.classes:
            if not members:
                problems.append("empty equivalence class")
                continue
            if members != sorted(members):
                problems.append(
                    f"class of {members[0]} is not sorted")
            if seen & set(members):
                problems.append(
                    f"class of {members[0]} overlaps another class")
            seen |= set(members)
        if len(seen) != self.n_universe:
            problems.append(
                f"classes cover {len(seen)} faults, universe has "
                f"{self.n_universe}")
        for members in self.classes:
            in_class = self.untestable & set(members)
            if in_class and len(in_class) != len(members):
                problems.append(
                    f"untestable set not closed over the class of "
                    f"{members[0]}")
        for proof in self.proofs:
            if proof.fault not in self.untestable:
                problems.append(
                    f"proof for {proof.fault} missing from closure")
        for members in self.classes:
            for fault in members:
                try:
                    self.scoap.difficulty(fault)
                except KeyError:
                    problems.append(f"no SCOAP measures for {fault}")
        return problems

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "circuit": self.circuit,
            "n_universe": self.n_universe,
            "classes": [[_fault_to_dict(f) for f in members]
                        for members in self.classes],
            "dominance": [[_fault_to_dict(a), _fault_to_dict(b)]
                          for a, b in self.dominance],
            "scoap": self.scoap.to_dict(),
            "proofs": [p.to_dict() for p in self.proofs],
            "untestable": [_fault_to_dict(f)
                           for f in sorted(self.untestable)],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpaceReport":
        return cls(
            circuit=str(data["circuit"]),
            n_universe=int(data["n_universe"]),
            classes=[[_fault_from_dict(f) for f in members]
                     for members in data["classes"]],
            dominance=[(_fault_from_dict(a), _fault_from_dict(b))
                       for a, b in data["dominance"]],
            scoap=ScoapMeasures.from_dict(data["scoap"]),
            proofs=[UntestableProof.from_dict(p)
                    for p in data.get("proofs", [])],
            untestable={_fault_from_dict(f)
                        for f in data.get("untestable", [])},
        )

    # ------------------------------------------------------------------
    def table(self) -> Any:
        """Render as a :class:`repro.experiments.reporting.Table`."""
        from ..experiments.reporting import Table
        reps = self.representatives()
        profile = self.scoap.profile(reps)
        by_rule: Dict[str, int] = {}
        for proof in self.proofs:
            by_rule[proof.rule] = by_rule.get(proof.rule, 0) + 1
        table = Table(f"Fault space: {self.circuit}",
                      ["measure", "value"])
        table.add_row("fault universe", str(self.n_universe))
        table.add_row("equivalence classes", str(self.n_classes))
        table.add_row("collapse ratio", f"{self.collapse_ratio:.3f}")
        table.add_row("dominance edges", str(len(self.dominance)))
        table.add_row("untestable (closure)", str(self.n_untestable))
        for rule in sorted(by_rule):
            table.add_row(f"  proven {rule}", str(by_rule[rule]))
        table.add_row("difficulty min/median/max",
                      f"{profile['min']}/{profile['median']}/"
                      f"{profile['max']}")
        table.add_row("difficulty saturated", str(profile["n_saturated"]))
        return table

    def render(self) -> str:
        return str(self.table().render())


# ----------------------------------------------------------------------
# analysis passes
# ----------------------------------------------------------------------

def _const_values(netlist: Netlist) -> Dict[str, int]:
    """Nets provably constant when every PI and FF output is unknown.

    Ternary constant propagation from the ``CONST0``/``CONST1``
    generators: a net is in the result only when its value is fixed
    for *every* input pattern and scan state.
    """
    const: Dict[str, int] = {}
    for name in netlist.order:
        gate = netlist.gates[name]
        if gate.gtype == "CONST0":
            const[name] = 0
            continue
        if gate.gtype == "CONST1":
            const[name] = 1
            continue
        vals = [const.get(f) for f in gate.fanins]
        if gate.gtype == "BUF":
            if vals[0] is not None:
                const[name] = vals[0]
        elif gate.gtype == "NOT":
            if vals[0] is not None:
                const[name] = 1 - vals[0]
        elif gate.gtype in ("AND", "NAND"):
            inv = 1 if gate.gtype == "NAND" else 0
            if any(v == 0 for v in vals):
                const[name] = inv
            elif all(v == 1 for v in vals):
                const[name] = 1 - inv
        elif gate.gtype in ("OR", "NOR"):
            inv = 1 if gate.gtype == "NOR" else 0
            if any(v == 1 for v in vals):
                const[name] = 1 - inv
            elif all(v == 0 for v in vals):
                const[name] = inv
        elif gate.gtype in ("XOR", "XNOR"):
            if all(v is not None for v in vals):
                parity = sum(v for v in vals if v) & 1
                const[name] = parity if gate.gtype == "XOR" \
                    else 1 - parity
    return const


class _ObservabilityProver:
    """Per-line static observability with constant-blocked side inputs.

    A fault effect on a line propagates through a reader gate unless a
    *side* input of that gate is provably constant at the controlling
    value -- in which case the gate output is fixed regardless of the
    line.  The block is sound only when the fault site cannot disturb
    the blocking constant, so an edge is treated as blocked only when
    the site net lies outside the blocking net's fanin cone
    (conservative: when in doubt, the edge stays passable and the
    fault stays simulated).
    """

    def __init__(self, netlist: Netlist, const: Dict[str, int]) -> None:
        self.netlist = netlist
        self.const = const
        self.po_set = set(netlist.outputs)
        self._cones: Dict[str, Set[str]] = {}

    def _cone(self, net: str) -> Set[str]:
        cone = self._cones.get(net)
        if cone is None:
            cone = set(self.netlist.transitive_fanin([net],
                                                     stop_at_ffs=True))
            self._cones[net] = cone
        return cone

    def _pin_passable(self, gate_name: str, pin: int,
                      site_net: str) -> Tuple[bool, bool]:
        """``(passable, blocked_considered)`` for one gate input pin."""
        gate = self.netlist.gates[gate_name]
        ctrl = _CONTROLLING.get(gate.gtype)
        if ctrl is None:
            return True, False
        blocked_seen = False
        for j, other in enumerate(gate.fanins):
            if j == pin or self.const.get(other) != ctrl:
                continue
            blocked_seen = True
            if site_net not in self._cone(other):
                return False, True
        return True, blocked_seen

    def observable(self, net: str,
                   pin: Optional[Tuple[str, int]]) -> Tuple[bool, bool]:
        """Can a fault effect on this line ever reach an observation
        point?  Returns ``(observable, any_edge_blocked)``."""
        gates = self.netlist.gates
        used_block = False
        reached: Set[str] = set()
        stack: List[str] = []

        def enter(effect_net: str) -> bool:
            """Push a net carrying the effect; True when observed."""
            nonlocal used_block
            if effect_net in reached:
                return False
            reached.add(effect_net)
            if effect_net in self.po_set:
                return True
            stack.append(effect_net)
            return False

        if pin is None:
            if enter(net):
                return True, used_block
        else:
            gate_name, pin_idx = pin
            if gates[gate_name].gtype == "DFF":
                return True, used_block  # scan-captured data pin
            passable, blocked = self._pin_passable(gate_name, pin_idx,
                                                   net)
            used_block = used_block or blocked
            if not passable:
                return False, used_block
            if enter(gate_name):
                return True, used_block
        while stack:
            current = stack.pop()
            for reader in self.netlist.fanout[current]:
                rgate = gates[reader]
                if rgate.gtype == "DFF":
                    return True, used_block
                for idx, fin in enumerate(rgate.fanins):
                    if fin != current:
                        continue
                    passable, blocked = self._pin_passable(reader, idx,
                                                           net)
                    used_block = used_block or blocked
                    if passable and enter(reader):
                        return True, used_block
        return False, used_block


def _untestable_proofs(netlist: Netlist,
                       universe: List[Fault]) -> List[UntestableProof]:
    """Directly provable untestable faults (before class closure)."""
    const = _const_values(netlist)
    seeds = list(netlist.outputs)
    seeds.extend(netlist.gates[q].fanins[0] for q in netlist.flip_flops)
    live = set(netlist.transitive_fanin(seeds, stop_at_ffs=True)) \
        if seeds else set()
    prover = _ObservabilityProver(netlist, const) if const else None
    proofs: List[UntestableProof] = []
    obs_cache: Dict[Tuple[str, Optional[Tuple[str, int]]],
                    Tuple[bool, bool]] = {}
    for fault in universe:
        value = const.get(fault.net)
        if value is not None and value == fault.stuck:
            proofs.append(UntestableProof(
                fault, RULE_CONSTANT,
                f"line is constant {value}; stuck-at-{fault.stuck} "
                f"is unexcitable"))
            continue
        line = (fault.net, fault.pin)
        cached = obs_cache.get(line)
        if cached is None:
            if prover is not None:
                cached = prover.observable(fault.net, fault.pin)
            elif fault.pin is not None and \
                    netlist.gates[fault.pin[0]].gtype == "DFF":
                cached = (True, False)
            elif fault.pin is not None:
                cached = (fault.pin[0] in live, False)
            else:
                cached = (fault.net in live, False)
            obs_cache[line] = cached
        observable, used_block = cached
        if not observable:
            if used_block:
                proofs.append(UntestableProof(
                    fault, RULE_BLOCKED,
                    "every propagation path is blocked by a "
                    "constant-valued side input"))
            else:
                proofs.append(UntestableProof(
                    fault, RULE_UNOBSERVABLE,
                    "no structural path to a primary output or "
                    "flip-flop data pin"))
    return proofs


def _dominance_edges(netlist: Netlist) -> List[Tuple[Fault, Fault]]:
    """Gate-level dominance pairs ``(dominator, dominated)``.

    Only the classic AND/NAND/OR/NOR rules apply; XOR-family gates
    propagate every input difference, so the detecting condition on
    the output depends on the good value and no static edge exists.
    Single-input gates keep their (degenerate but sound) edge.
    """
    from ..sim.faults import _input_line
    edges: List[Tuple[Fault, Fault]] = []
    for gate in netlist.gates.values():
        rule = _DOMINANCE.get(gate.gtype)
        if rule is None:
            continue
        out_stuck, in_stuck = rule
        dominator = Fault(gate.name, None, out_stuck)
        for i, fin in enumerate(gate.fanins):
            net, pin = _input_line(netlist, gate.name, i, fin)
            edges.append((dominator, Fault(net, pin, in_stuck)))
    return edges


def analyze_faultspace(netlist: Netlist,
                       name: Optional[str] = None) -> FaultSpaceReport:
    """Run the full static fault-space pass over one netlist."""
    if not netlist.is_compiled():
        netlist.compile()
    universe = all_faults(netlist)
    classes_map = fault_classes(netlist)
    classes = [sorted(members) for _, members in
               sorted(classes_map.items())]
    proofs = _untestable_proofs(netlist, universe)
    direct = {p.fault for p in proofs}
    untestable: Set[Fault] = set()
    for members in classes:
        # A class member no test detects means no test distinguishes
        # any member: the whole class is untestable.
        if direct & set(members):
            untestable |= set(members)
    return FaultSpaceReport(
        circuit=name or netlist.name,
        n_universe=len(universe),
        classes=classes,
        dominance=_dominance_edges(netlist),
        scoap=compute_scoap(netlist),
        proofs=proofs,
        untestable=untestable,
    )
