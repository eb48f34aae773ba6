"""Candidate-parallel Phase-1 scan-in selection against per-state
references.

The lane-transposed candidate scan
(:meth:`repro.sim.fault_sim.FaultSimulator.detect_candidates`, which
``select_scan_in`` drives) is a pure packing strategy: it must
reproduce one :meth:`~repro.sim.fault_sim.FaultSimulator.detect` pass
per candidate state bit for bit, and ``select_scan_in`` must pick the
same ``(chosen_index, f_si)`` as the paper's loop over every test of
``C`` -- including the unselected-preferred tie-break -- on any
circuit, any packing cap, and any X-laden candidate set.  The
references are written here, on the per-state ``detect`` primitive.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.comb_set import CombTest
from repro.circuits import synth
from repro.core import phase1
from repro.sim import fault_sim as fault_sim_mod
from repro.sim import values as V
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit

_N_PI = 4
_N_FF = 5

_CACHE = {}


def circuit_for(seed):
    """Small random sequential circuit, cached across examples: the
    codegen, interp and auto compilations plus the fault set."""
    if seed not in _CACHE:
        net = synth.generate("cscan", _N_PI, 3, _N_FF, 30, seed=seed)
        cc_codegen = CompiledCircuit(net, engine="codegen")
        cc_generic = CompiledCircuit(net.copy(), engine="interp")
        cc_auto = CompiledCircuit(net.copy(), engine="auto")
        fs = FaultSet.collapsed(net)
        _CACHE[seed] = (cc_codegen, cc_generic, cc_auto, fs)
    return _CACHE[seed]


def per_state_detect(sim, t0, states, target):
    """Reference candidate scan: one ``detect`` pass per state."""
    return [sim.detect(list(t0), init_state=state, target=target,
                       scan_out=True, early_exit=False)
            for state in states]


def reference_select(sim, t0, tests, f0, selected):
    """Reference Step 2: the paper's loop over every test of ``C``,
    maximizing the detection count and preferring unselected tests
    among equals (first wins)."""
    remaining = sorted(set(range(len(sim.faults))) - f0)
    per_test = per_state_detect(sim, t0, [t.state for t in tests],
                                remaining)
    best = max(range(len(tests)),
               key=lambda j: (len(per_test[j]), not selected[j], -j))
    return best, per_test[best] | f0


circuit_seeds = st.integers(0, 9)
fused_caps = st.sampled_from([2, 5, fault_sim_mod.FUSED_CAP])


def _state(rng, data):
    """A candidate state, sometimes X-laden."""
    if data.draw(st.booleans()):
        return V.random_binary_vector(_N_FF, rng)
    return tuple(rng.choice((V.ZERO, V.ONE, V.X)) for _ in range(_N_FF))


def _comb_tests(rng, data, n):
    """Candidate tests with forced duplicate states mixed in."""
    tests = []
    for _ in range(n):
        if tests and data.draw(st.booleans()):
            # Duplicate an earlier state part: the dedup + tie-break
            # replay paths must handle equal candidates.
            state = tests[rng.randrange(len(tests))].state
        else:
            state = _state(rng, data)
        tests.append(CombTest(state=state,
                              pi=V.random_binary_vector(_N_PI, rng)))
    return tests


class TestScalarVsLanes:
    @settings(max_examples=40, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_selection_identical(self, seed, cap, data):
        """detect_candidates equals the per-state detect loop and
        (chosen_index, f_si) equals the reference loop over ``C``, on
        every engine and packing cap."""
        *circuits, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        t0 = [V.random_binary_vector(_N_PI, rng)
              for _ in range(data.draw(st.integers(1, 8)))]
        tests = _comb_tests(rng, data, data.draw(st.integers(1, 7)))
        selected = [data.draw(st.booleans()) for _ in tests]
        states = [t.state for t in tests]
        sim_ref = FaultSimulator(circuits[0], fs)
        f0 = phase1.detect_no_scan(sim_ref, t0)
        remaining = sorted(set(range(len(fs))) - f0)
        reference = reference_select(sim_ref, t0, tests, f0, selected)
        for circuit in circuits:
            sim = FaultSimulator(circuit, fs, fused_cap=cap)
            assert sim.detect_candidates(
                t0, states, target=remaining, scan_out=True) == \
                per_state_detect(sim_ref, t0, states, remaining)
            got = phase1.select_scan_in(sim, t0, tests, f0, selected)
            assert got == reference

    @settings(max_examples=15, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_forced_total_tie(self, seed, data):
        """With target a subset of f0, every candidate counts zero:
        the winner is the first unselected test, else index 0."""
        cc, _, _, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        t0 = [V.random_binary_vector(_N_PI, rng) for _ in range(3)]
        tests = _comb_tests(rng, data, 5)
        selected = [data.draw(st.booleans()) for _ in tests]
        sim = FaultSimulator(cc, fs)
        f0 = set(range(len(fs)))          # nothing left to detect
        target = set(range(len(fs)))
        got = phase1.select_scan_in(sim, t0, tests, f0, selected,
                                    target=target)
        expected = selected.index(False) if False in selected else 0
        assert got == (expected, f0)
        assert got == reference_select(sim, t0, tests, f0, selected)

    def test_detect_candidates_matches_detect_loop(self):
        """The simulator primitive itself: per-lane sets == per-state
        detect passes, including empty-candidate and empty-target."""
        cc, _, _, fs = circuit_for(0)
        rng = random.Random(7)
        sim = FaultSimulator(cc, fs)
        vectors = [V.random_binary_vector(_N_PI, rng) for _ in range(6)]
        states = [V.random_binary_vector(_N_FF, rng) for _ in range(4)]
        got = sim.detect_candidates(vectors, states)
        want = [sim.detect(vectors, s, early_exit=False)
                for s in states]
        assert got == want
        assert sim.detect_candidates(vectors, []) == []
        empty = sim.detect_candidates(vectors, states, target=[])
        assert empty == [set()] * len(states)

    def test_counters_engine_invariant(self):
        """A candidate pass whose lanes saturate early reports the
        same frames, words, repacks and drops on big-int and on the
        kernel: the lane pass never repacks on either backend."""
        net = synth.generate("lrepack", 5, 4, 6, 60, seed=3)
        fs = FaultSet.collapsed(net)
        rng = random.Random(11)
        vectors = [V.random_binary_vector(5, rng) for _ in range(30)]
        states = [V.random_binary_vector(6, rng) for _ in range(4)]
        runs = []
        for engine in ("codegen", "auto"):
            sim = FaultSimulator(CompiledCircuit(net.copy(), engine=engine),
                                 fs)
            got = sim.detect_candidates(vectors, states)
            c = sim.counters
            runs.append((got, c.frames, c.words, c.machines, c.repacks,
                         c.faults_dropped))
        assert len(fs) >= 8              # >= 8 fault groups in the word
        assert runs[0] == runs[1]
        assert runs[0][4:] == (0, 0)

    def test_unknown_mode_rejected(self):
        """Step 2 has one route: the removed ``mode=`` parameter of
        ``select_scan_in`` and ``candidate_scan=`` of ``run_phase1``
        are rejected rather than silently ignored."""
        cc, _, _, fs = circuit_for(0)
        sim = FaultSimulator(cc, fs)
        tests = [CombTest(state=(V.ZERO,) * _N_FF, pi=(V.ZERO,) * _N_PI)]
        t0 = [(V.ZERO,) * _N_PI]
        with pytest.raises(TypeError):
            phase1.select_scan_in(sim, t0, tests, set(), [False],
                                  mode="scalar")
        with pytest.raises(TypeError):
            phase1.run_phase1(sim, t0, tests, [False],
                              candidate_scan="scalar")


class TestDedup:
    def test_duplicate_states_simulated_once(self):
        """Regression: tests sharing a state part cost one lane of one
        candidate pass, and the winner maps back to the first
        unselected duplicate."""
        cc, _, _, fs = circuit_for(1)
        rng = random.Random(5)
        sim = FaultSimulator(cc, fs)
        t0 = [V.random_binary_vector(_N_PI, rng) for _ in range(5)]
        state = V.random_binary_vector(_N_FF, rng)
        # Indices 0 and 2 share a state; 0 is selected, 2 is not.
        tests = [CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng)),
                 CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng)),
                 CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng))]
        selected = [True, True, False]
        f0 = phase1.detect_no_scan(sim, t0)
        lanes = []
        detect_candidates = sim.detect_candidates

        def spy(vectors, states, **kwargs):
            lanes.append(len(states))
            return detect_candidates(vectors, states, **kwargs)

        sim.detect_candidates = spy
        before = sim.counters.candidate_passes
        index, _ = phase1.select_scan_in(sim, t0, tests, f0, selected)
        # One unique state -> exactly one candidate pass of one lane.
        assert sim.counters.candidate_passes - before == 1
        assert lanes == [1]
        # All counts tie; the first unselected test must win.
        assert index == 2

    def test_dedup_preserves_first_index_tie_break(self):
        """All duplicates unselected: the first index wins, exactly as
        the undeduplicated loop would pick."""
        cc, _, _, fs = circuit_for(2)
        rng = random.Random(9)
        sim = FaultSimulator(cc, fs)
        t0 = [V.random_binary_vector(_N_PI, rng) for _ in range(4)]
        state = V.random_binary_vector(_N_FF, rng)
        tests = [CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng))
                 for _ in range(3)]
        f0 = phase1.detect_no_scan(sim, t0)
        index, _ = phase1.select_scan_in(sim, t0, tests, f0, [False] * 3)
        assert index == 0
        assert index == reference_select(sim, t0, tests, f0,
                                         [False] * 3)[0]


class TestFusedCapAtConstruction:
    def test_cap_is_a_constructor_argument(self, monkeypatch):
        """The fused cap defaults to FUSED_CAP and only the explicit
        ``fused_cap=`` argument changes it; the environment does not."""
        cc, _, _, fs = circuit_for(3)
        monkeypatch.setenv("REPRO_FUSED_CAP", "64")
        default = FaultSimulator(cc, fs)
        assert default.fused_cap == fault_sim_mod.FUSED_CAP
        explicit = FaultSimulator(cc, fs, fused_cap=64)
        assert explicit.fused_cap == 64
        assert explicit.resolve_width(100) <= 64

    def test_cap_bounds_lane_groups(self, monkeypatch):
        """The lane packer honours the per-simulator cap too."""
        cc, _, _, fs = circuit_for(3)
        sim = FaultSimulator(cc, fs, fused_cap=16)
        assert sim._lane_groups_per_word(4) == 4
        chunks = sim._build_lane_chunks(range(10), n_lanes=4)
        assert len(chunks) == 3  # ceil(10 / 4) balanced words
        assert max(c.n_groups for c in chunks) - \
            min(c.n_groups for c in chunks) <= 1
        assert sum(c.n_groups for c in chunks) == 10
