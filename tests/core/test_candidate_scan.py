"""Candidate-parallel Phase-1 scan-in selection: lanes == scalar.

The lane-transposed candidate scan
(:meth:`repro.sim.fault_sim.FaultSimulator.detect_candidates` driving
``select_scan_in(mode="lanes")``) is a pure packing strategy: it must
reproduce the scalar per-candidate loop bit for bit -- the same
``(chosen_index, f_si)`` including the paper's unselected-preferred
tie-break, on any circuit, any width policy, and any X-laden candidate
set.  These properties are what justified flipping the default mode to
``"lanes"``.
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
    """Small random sequential circuit, cached across examples."""
    if seed not in _CACHE:
        net = synth.generate("cscan", _N_PI, 3, _N_FF, 30, seed=seed)
        cc_codegen = CompiledCircuit(net, engine="codegen")
        cc_generic = CompiledCircuit(net.copy(), engine="interp")
        fs = FaultSet.collapsed(net)
        _CACHE[seed] = (cc_codegen, cc_generic, fs)
    return _CACHE[seed]


circuit_seeds = st.integers(0, 9)
widths = st.sampled_from([2, 5, "auto"])


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
    @given(seed=circuit_seeds, width=widths, data=st.data())
    def test_selection_identical(self, seed, width, data):
        """(chosen_index, f_si) agree across modes, engines, widths."""
        cc_codegen, cc_generic, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        t0 = [V.random_binary_vector(_N_PI, rng)
              for _ in range(data.draw(st.integers(1, 8)))]
        tests = _comb_tests(rng, data, data.draw(st.integers(1, 7)))
        selected = [data.draw(st.booleans()) for _ in tests]
        sim_ref = FaultSimulator(cc_codegen, fs, width="auto")
        f0 = phase1.detect_no_scan(sim_ref, t0)
        reference = phase1.select_scan_in(sim_ref, t0, tests, f0,
                                          selected, mode="scalar")
        for circuit in (cc_codegen, cc_generic):
            sim = FaultSimulator(circuit, fs, width=width)
            got = phase1.select_scan_in(sim, t0, tests, f0, selected,
                                        mode="lanes")
            assert got == reference

    @settings(max_examples=15, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_forced_total_tie(self, seed, data):
        """With target a subset of f0, every candidate counts zero:
        the winner must still match scalar (first unselected test,
        else index 0)."""
        cc, _, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        t0 = [V.random_binary_vector(_N_PI, rng) for _ in range(3)]
        tests = _comb_tests(rng, data, 5)
        selected = [data.draw(st.booleans()) for _ in tests]
        sim = FaultSimulator(cc, fs)
        f0 = set(range(len(fs)))          # nothing left to detect
        target = set(range(len(fs)))
        scalar = phase1.select_scan_in(sim, t0, tests, f0, selected,
                                       target=target, mode="scalar")
        lanes = phase1.select_scan_in(sim, t0, tests, f0, selected,
                                      target=target, mode="lanes")
        assert scalar == lanes
        expected = selected.index(False) if False in selected else 0
        assert scalar[0] == expected

    def test_detect_candidates_matches_detect_loop(self):
        """The simulator primitive itself: per-lane sets == per-state
        detect passes, including empty-candidate and empty-target."""
        cc, _, fs = circuit_for(0)
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
        cc, _, fs = circuit_for(0)
        sim = FaultSimulator(cc, fs)
        tests = [CombTest(state=(V.ZERO,) * _N_FF, pi=(V.ZERO,) * _N_PI)]
        with pytest.raises(ValueError, match="candidate-scan mode"):
            phase1.select_scan_in(sim, [(V.ZERO,) * _N_PI], tests,
                                  set(), [False], mode="vectorized")


class TestDedup:
    def test_duplicate_states_simulated_once(self):
        """Regression: tests sharing a state part cost one pass, and
        the winner maps back to the first unselected duplicate."""
        cc, _, fs = circuit_for(1)
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
        before = sim.counters.detect_passes
        index, _ = phase1.select_scan_in(sim, t0, tests, f0, selected,
                                         mode="scalar")
        # One unique state -> exactly one scalar detect pass.
        assert sim.counters.detect_passes - before == 1
        # All counts tie; the first unselected test must win.
        assert index == 2

    def test_dedup_preserves_first_index_tie_break(self):
        """All duplicates unselected: the first index wins, exactly as
        the undeduplicated loop would pick."""
        cc, _, fs = circuit_for(2)
        rng = random.Random(9)
        sim = FaultSimulator(cc, fs)
        t0 = [V.random_binary_vector(_N_PI, rng) for _ in range(4)]
        state = V.random_binary_vector(_N_FF, rng)
        tests = [CombTest(state=state, pi=V.random_binary_vector(_N_PI, rng))
                 for _ in range(3)]
        f0 = phase1.detect_no_scan(sim, t0)
        for mode in phase1.CANDIDATE_SCAN_MODES:
            index, _ = phase1.select_scan_in(sim, t0, tests, f0,
                                             [False] * 3, mode=mode)
            assert index == 0


class TestFusedCapAtConstruction:
    def test_cap_is_a_constructor_argument(self, monkeypatch):
        """The fused cap defaults to FUSED_CAP and only the explicit
        ``fused_cap=`` argument changes it; the environment does not."""
        cc, _, fs = circuit_for(3)
        monkeypatch.setenv("REPRO_FUSED_CAP", "64")
        default = FaultSimulator(cc, fs)
        assert default.fused_cap == fault_sim_mod.FUSED_CAP
        explicit = FaultSimulator(cc, fs, fused_cap=64)
        assert explicit.fused_cap == 64
        assert explicit.resolve_width(100) <= 64

    def test_cap_bounds_lane_groups(self, monkeypatch):
        """The lane packer honours the per-simulator cap too."""
        cc, _, fs = circuit_for(3)
        sim = FaultSimulator(cc, fs, fused_cap=16)
        assert sim._lane_groups_per_word(4) == 4
        chunks = sim._build_lane_chunks(range(10), n_lanes=4)
        assert len(chunks) == 3  # ceil(10 / 4) balanced words
        assert max(c.n_groups for c in chunks) - \
            min(c.n_groups for c in chunks) <= 1
        assert sum(c.n_groups for c in chunks) == 10
