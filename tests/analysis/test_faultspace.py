"""The static fault-space analyzer: classes, dominance, proofs."""

import json

from repro.analysis.faultspace import (RULE_BLOCKED, RULE_CONSTANT,
                                       RULE_UNOBSERVABLE,
                                       FaultSpaceReport,
                                       analyze_faultspace)
from repro.circuits import synth
from repro.circuits.netlist import Netlist
from repro.sim.faults import Fault, all_faults


def report_for(net):
    return analyze_faultspace(net)


class TestClasses:
    def test_classes_partition_universe(self, s27):
        r = report_for(s27)
        members = [f for cls in r.classes for f in cls]
        assert sorted(members) == sorted(all_faults(s27))
        assert r.n_universe == len(members)
        assert r.n_classes == 32  # the standard s27 collapsed count

    def test_representative_is_minimum(self, s27):
        r = report_for(s27)
        for members in r.classes:
            assert members[0] == min(members)
        assert r.representatives() == [m[0] for m in r.classes]

    def test_collapse_ratio(self, s27):
        r = report_for(s27)
        assert 0 < r.collapse_ratio < 1
        empty = FaultSpaceReport(circuit="none", n_universe=0,
                                 classes=[], dominance=[],
                                 scoap=r.scoap)
        assert empty.collapse_ratio == 1.0


class TestDominance:
    def test_and_dominance_direction(self):
        net = Netlist("d")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", "AND", ["a", "b"])
        net.add_dff("q", "g")
        net.add_output("g")
        net.compile()
        r = report_for(net)
        # Output s-a-1 is dominated by... no: (dominator, dominated)
        # = (g/1, a/1): every test of a s-a-1 detects g s-a-1.
        assert (Fault("g", None, 1), Fault("a", None, 1)) in r.dominance

    def test_xor_has_no_edges(self):
        net = Netlist("x")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", "XOR", ["a", "b"])
        net.add_output("g")
        net.compile()
        assert report_for(net).dominance == []

    def test_dominance_counts(self, s27):
        r = report_for(s27)
        counts = r.dominance_counts()
        assert sum(counts.values()) == len(r.dominance)
        assert all(v > 0 for v in counts.values())


class TestUntestableProofs:
    def test_constant_line(self):
        net = Netlist("c")
        net.add_input("a")
        net.add_gate("k", "CONST1", [])
        net.add_gate("g", "AND", ["a", "k"])
        net.add_output("g")
        net.compile()
        r = report_for(net)
        rules = {p.fault: p.rule for p in r.proofs}
        assert rules[Fault("k", None, 1)] == RULE_CONSTANT
        assert Fault("k", None, 1) in r.untestable
        # s-a-0 on a CONST1 line is excitable, not proven here.
        assert rules.get(Fault("k", None, 0)) != RULE_CONSTANT

    def test_unobservable_cone(self):
        net = Netlist("dead")
        net.add_input("a")
        net.add_gate("g", "NOT", ["a"])
        net.add_gate("dead", "NOT", ["g"])
        net.add_output("g")
        net.compile()
        r = report_for(net)
        rules = {p.fault: p.rule for p in r.proofs}
        assert rules[Fault("dead", None, 0)] == RULE_UNOBSERVABLE
        assert rules[Fault("dead", None, 1)] == RULE_UNOBSERVABLE

    def test_const_blocked_path(self):
        # g2 = AND(x, k) with k constant 0: x's effect cannot pass g2,
        # and g2 is its only reader -> blocked, not merely dead-cone.
        net = Netlist("blk")
        net.add_input("a")
        net.add_gate("k", "CONST0", [])
        net.add_gate("x", "NOT", ["a"])
        net.add_gate("g2", "AND", ["x", "k"])
        net.add_output("g2")
        net.compile()
        r = report_for(net)
        rules = {p.fault: p.rule for p in r.proofs}
        assert rules[Fault("x", None, 0)] == RULE_BLOCKED
        assert rules[Fault("x", None, 1)] == RULE_BLOCKED

    def test_closure_covers_whole_classes(self, s27):
        r = report_for(s27)
        for members in r.classes:
            hit = r.untestable & set(members)
            assert not hit or len(hit) == len(members)

    def test_clean_circuit_has_no_proofs(self, s27):
        r = report_for(s27)
        assert r.proofs == []
        assert r.n_untestable == 0


class TestReportPlumbing:
    def test_json_round_trip(self, s27):
        r = report_for(s27)
        payload = json.dumps(r.to_dict())
        back = FaultSpaceReport.from_dict(json.loads(payload))
        assert back.circuit == r.circuit
        assert back.classes == r.classes
        assert back.dominance == r.dominance
        assert back.untestable == r.untestable
        assert back.scoap == r.scoap
        assert back.verify() == []

    def test_verify_clean(self, s27):
        assert report_for(s27).verify() == []

    def test_verify_catches_broken_closure(self, s27):
        r = report_for(s27)
        big = next(m for m in r.classes if len(m) > 1)
        r.untestable = {big[0]}  # one member, not the class
        assert any("not closed" in p for p in r.verify())

    def test_verify_catches_overlap_and_gap(self, s27):
        r = report_for(s27)
        r.classes = r.classes[:-1] + [r.classes[0]]
        problems = r.verify()
        assert any("overlaps" in p for p in problems)
        assert any("cover" in p for p in problems)

    def test_render_mentions_the_numbers(self, s27):
        r = report_for(s27)
        text = r.render()
        assert str(r.n_universe) in text
        assert str(r.n_classes) in text
        assert "untestable" in text

    def test_helper_maps(self, s27):
        r = report_for(s27)
        universe = all_faults(s27)
        assert r.untestable_indices(universe) == set()

    def test_synth_reports_verify(self):
        for seed in range(4):
            net = synth.generate("fsv", 4, 3, 5, 40, seed=seed)
            r = report_for(net)
            assert r.verify() == [], r.verify()
