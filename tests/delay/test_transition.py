"""Tests for transition-fault simulation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import library, synth
from repro.core.scan_test import ScanTest, ScanTestSet
from repro.delay import transition as transition_mod
from repro.delay.transition import (TransitionFault, TransitionSim,
                                    all_transition_faults)
from repro.sim import values as V
from repro.sim.counters import SimCounters
from repro.sim.logicsim import CompiledCircuit, simulate_sequence

try:
    from repro.sim import npsim
    _PACKED_OK = npsim.kernel_unavailable_reason() is None
except ImportError:  # pragma: no cover - numpy present in CI
    _PACKED_OK = False

needs_packed = pytest.mark.skipif(
    not _PACKED_OK, reason="packed TDF route needs numpy + C kernel")


def oracle_detects(netlist, fault, test):
    """Reference: for each launch frame, freeze the net at its old
    value for that frame only, then run the error forward through the
    fault-free circuit and compare against the good run."""
    cc = CompiledCircuit(netlist)
    # Good-machine net values per frame.
    zero = [0] * cc.n_nets
    one = [0] * cc.n_nets
    for nid_, val in zip(cc.ff_ids, test.scan_in):
        zero[nid_], one[nid_] = V.pack_scalar(val, 1)
    values = []
    for vec in test.vectors:
        for nid_, val in zip(cc.pi_ids, vec):
            zero[nid_], one[nid_] = V.pack_scalar(val, 1)
        cc.eval_frame(zero, one, 1)
        values.append((list(zero), list(one)))
        cap = tuple(V.word_scalar(zero[nid_], one[nid_])
                    for nid_ in cc.ff_d_ids)
        for nid_, val in zip(cc.ff_ids, cap):
            zero[nid_], one[nid_] = V.pack_scalar(val, 1)
    nid = netlist.net_ids[fault.net]
    last = test.length - 1
    for t in range(1, test.length):
        pz, po_ = values[t - 1]
        czv, cov = values[t]
        if fault.rising:
            launched = bool(pz[nid] & 1) and bool(cov[nid] & 1)
            stuck = 0
        else:
            launched = bool(po_[nid] & 1) and bool(czv[nid] & 1)
            stuck = 1
        if not launched:
            continue
        # Faulty machine: stuck-at-old at frame t, fault-free after.
        fz = [0] * cc.n_nets
        fo = [0] * cc.n_nets
        state = tuple(
            V.word_scalar(values[t - 1][0][d], values[t - 1][1][d])
            for d in cc.ff_d_ids)
        for fid_, val in zip(cc.ff_ids, state):
            fz[fid_], fo[fid_] = V.pack_scalar(val, 1)
        for u in range(t, test.length):
            for pid, val in zip(cc.pi_ids, test.vectors[u]):
                fz[pid], fo[pid] = V.pack_scalar(val, 1)
            if u == t:
                stems = {nid: (1, 0) if stuck == 0 else (0, 1)}
                if nid in cc.pi_ids or nid in cc.ff_ids:
                    fz[nid], fo[nid] = (1, 0) if stuck == 0 else (0, 1)
                cc.eval_frame(fz, fo, 1, stems)
            else:
                cc.eval_frame(fz, fo, 1)
            gz, go = values[u]
            observe = list(cc.po_ids) + (list(cc.ff_d_ids)
                                         if u == last else [])
            for oid in observe:
                g = V.word_scalar(gz[oid], go[oid])
                f = V.word_scalar(fz[oid], fo[oid])
                if g != f and g != V.X and f != V.X:
                    return True
            cap = [(fz[d], fo[d]) for d in cc.ff_d_ids]
            for fid_, (z, o) in zip(cc.ff_ids, cap):
                fz[fid_], fo[fid_] = z, o
    return False


class TestModel:
    def test_fault_enumeration(self, s27):
        faults = all_transition_faults(s27)
        assert len(faults) == 2 * s27.num_nets
        assert str(TransitionFault("a", True)) == "a/STR"
        assert str(TransitionFault("a", False)) == "a/STF"

    def test_length_one_test_detects_nothing(self, s27):
        """No at-speed vector pair => no transition coverage (the crux
        of the paper's at-speed argument)."""
        sim = TransitionSim(CompiledCircuit(s27))
        test = ScanTest(V.vec("000"), (V.vec("1111"),))
        assert sim.detect_test(test) == set()

    def test_counter_lsb_transitions(self):
        """In a free-running counter, q0 toggles every cycle: both
        transition faults on its data net are launched and captured."""
        net = library.counter(3)
        cc = CompiledCircuit(net)
        sim = TransitionSim(cc)
        test = ScanTest((V.ZERO,) * 3, ((V.ONE,),) * 6)
        detected = {str(sim.faults[i]) for i in sim.detect_test(test)}
        assert "d0/STR" in detected or "q0/STR" in detected


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_s27_matches_reference(self, s27, seed):
        rng = random.Random(seed)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(10))
        test = ScanTest(V.random_binary_vector(3, rng), vectors)
        sim = TransitionSim(CompiledCircuit(s27))
        got = sim.detect_test(test)
        for i, fault in enumerate(sim.faults):
            expected = oracle_detects(s27, fault, test)
            assert (i in got) == expected, str(fault)


class TestTestSets:
    def test_coverage_monotone_in_tests(self, s27):
        rng = random.Random(3)
        cc = CompiledCircuit(s27)
        sim = TransitionSim(cc)
        tests = []
        for _ in range(3):
            vectors = tuple(V.random_binary_vector(4, rng)
                            for _ in range(8))
            tests.append(ScanTest(V.random_binary_vector(3, rng),
                                  vectors))
        small = ScanTestSet(3, tests[:1])
        large = ScanTestSet(3, tests)
        assert sim.detect_test_set(small) <= sim.detect_test_set(large)

    def test_coverage_percent_bounds(self, s27):
        rng = random.Random(4)
        cc = CompiledCircuit(s27)
        sim = TransitionSim(cc)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(12))
        ts = ScanTestSet(3, [ScanTest(V.vec("000"), vectors)])
        pct = sim.coverage_percent(ts)
        assert 0.0 <= pct <= 100.0

    def test_target_restriction(self, s27):
        rng = random.Random(5)
        sim = TransitionSim(CompiledCircuit(s27))
        vectors = tuple(V.random_binary_vector(4, rng) for _ in range(8))
        test = ScanTest(V.vec("010"), vectors)
        full = sim.detect_test(test)
        if full:
            some = set(sorted(full)[:3])
            assert sim.detect_test(test, some) == some


# ----------------------------------------------------------------------
# Route selection and the packed (wide-word) execution path
# ----------------------------------------------------------------------

_N_PI = 4
_N_FF = 3

_EQ_CACHE = {}


def sims_for(seed):
    """A scalar simulator per big-int engine, each paired with one
    packed simulator on an ``engine="auto"`` circuit, cached across
    hypothesis examples (fault lists and packing plans are per-circuit
    and expensive to rebuild every example)."""
    if seed not in _EQ_CACHE:
        net = synth.generate("tdfeq", _N_PI, _N_FF, 4, 25, seed=seed)
        packed = TransitionSim(CompiledCircuit(net.copy(), engine="auto"))
        assert packed.route == "packed"
        _EQ_CACHE[seed] = [
            (TransitionSim(CompiledCircuit(net.copy(), engine=engine)),
             packed)
            for engine in ("codegen", "interp")]
    return _EQ_CACHE[seed]


eq_seeds = st.integers(0, 9)


def _vectors(data, rng, n):
    """A PI sequence mixing binary and X-laden vectors."""
    out = []
    for _ in range(n):
        if data.draw(st.booleans()):
            out.append(V.random_binary_vector(_N_PI, rng))
        else:
            out.append(tuple(rng.choice((V.ZERO, V.ONE, V.X))
                             for _ in range(_N_PI)))
    return tuple(out)


class TestRouteSelection:
    """The route follows the circuit's engine; there is no knob."""

    def test_unknown_route_rejected(self, s27):
        for knob in ({"route": "scalar"}, {"width": 128}):
            with pytest.raises(TypeError):
                TransitionSim(CompiledCircuit(s27), **knob)
        assert not hasattr(transition_mod, "ROUTES")

    def test_scalar_route_forced(self, s27):
        for engine in ("codegen", "interp"):
            sim = TransitionSim(CompiledCircuit(s27, engine=engine))
            assert sim.route == "scalar"

    def test_auto_resolves(self, s27):
        sim = TransitionSim(CompiledCircuit(s27, engine="auto"))
        assert sim.route == ("packed" if _PACKED_OK else "scalar")

    @needs_packed
    def test_packed_route_forced(self, s27):
        cc = CompiledCircuit(s27, engine="auto")
        sim = TransitionSim(cc)
        assert sim.route == "packed"
        assert sim._backend is cc.array_backend

    def test_counters_surface_tdf_fields(self, s27):
        counters = SimCounters()
        sim = TransitionSim(CompiledCircuit(s27), counters=counters)
        rng = random.Random(7)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(8))
        sim.detect_test(ScanTest(V.vec("010"), vectors))
        assert counters.tdf_passes > 0
        assert counters.tdf_words > 0
        assert counters.tdf_s >= 0.0
        surfaced = counters.as_dict()
        assert surfaced["tdf_passes"] == counters.tdf_passes
        assert surfaced["tdf_words"] == counters.tdf_words


@needs_packed
class TestRouteEquivalence:
    """The packed kernel route (an ``engine="auto"`` circuit) must be
    byte-identical to the scalar big-int reference -- including X-laden
    stimuli, restricted targets and multi-word launch groups -- on both
    big-int engines."""

    @settings(max_examples=30, deadline=None)
    @given(seed=eq_seeds, data=st.data())
    def test_detections_identical(self, seed, data):
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 10)))
        test = ScanTest(V.random_binary_vector(_N_FF, rng), vectors)
        results = []
        for scalar, packed in sims_for(seed):
            got_scalar = scalar.detect_test(test)
            got_packed = packed.detect_test(test)
            assert got_packed == got_scalar
            results.append(got_packed)
        assert results[0] == results[1]  # engines agree too

    @settings(max_examples=20, deadline=None)
    @given(seed=eq_seeds, data=st.data())
    def test_restricted_target_identical(self, seed, data):
        """Target restriction + the all-caught saturation break must
        not depend on the route."""
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(2, 8)))
        test = ScanTest(V.random_binary_vector(_N_FF, rng), vectors)
        scalar, packed = sims_for(seed)[0]
        full = scalar.detect_test(test)
        if not full:
            return
        k = data.draw(st.integers(1, len(full)))
        some = set(sorted(full)[:k])
        assert packed.detect_test(test, some) == \
            scalar.detect_test(test, some) == some

    def test_length_one_detects_nothing_packed(self, s27):
        sim = TransitionSim(CompiledCircuit(s27, engine="auto"))
        assert sim.route == "packed"
        test = ScanTest(V.vec("000"), (V.vec("1111"),))
        assert sim.detect_test(test) == set()

    def test_multi_word_launch_groups(self):
        """A circuit with > 63 faults forces multi-word uint64 chunks;
        detection must still match the scalar route exactly."""
        net = synth.generate("tdfwide", 5, 4, 8, 80, seed=11)
        scalar = TransitionSim(CompiledCircuit(net, engine="codegen"))
        packed = TransitionSim(CompiledCircuit(net.copy(), engine="auto"))
        assert (scalar.route, packed.route) == ("scalar", "packed")
        assert len(packed.faults) > 63
        rng = random.Random(2)
        tests = [ScanTest(V.random_binary_vector(4, rng),
                          tuple(V.random_binary_vector(5, rng)
                                for _ in range(12)))
                 for _ in range(3)]
        ts = ScanTestSet(4, tests)
        assert packed.detect_test_set(ts) == scalar.detect_test_set(ts)

    def test_sanitizer_spot_checks_packed_captures(self, monkeypatch):
        """With REPRO_SANITIZE armed the packed route recomputes its
        first captures on the scalar shadow; agreement means no
        violation is reported and the spot budget is consumed."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        net = synth.generate("tdfsan", 4, 3, 5, 30, seed=5)
        sim = TransitionSim(CompiledCircuit(net, engine="auto"))
        assert sim.route == "packed"
        rng = random.Random(9)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(10))
        sim.detect_test(ScanTest(V.random_binary_vector(3, rng),
                                 vectors))
        assert sim._sanitize_spots_left < \
            transition_mod._SANITIZE_SPOT_BUDGET

    def test_shadow_does_not_distort_counters(self, monkeypatch):
        """The sanitizer's scalar shadow recomputation must not bump
        the TDF counters: armed and unarmed runs count the same."""
        net = synth.generate("tdfsan", 4, 3, 5, 30, seed=6)
        rng = random.Random(3)
        vectors = tuple(V.random_binary_vector(4, rng)
                        for _ in range(8))
        test = ScanTest(V.random_binary_vector(3, rng), vectors)
        counts = []
        for armed in (False, True):
            if armed:
                monkeypatch.setenv("REPRO_SANITIZE", "1")
            else:
                monkeypatch.delenv("REPRO_SANITIZE", raising=False)
            sim = TransitionSim(CompiledCircuit(net.copy(),
                                                engine="auto"))
            sim.detect_test(test)
            counts.append((sim.counters.tdf_passes,
                           sim.counters.tdf_words))
        assert counts[0] == counts[1]
