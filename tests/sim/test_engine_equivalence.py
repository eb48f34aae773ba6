"""Engine equivalence: fused, chunked, codegen and the C kernel must
agree exactly.

The wide-word fusion, the in-pass repack, the codegen evaluator and
the C pass kernel (``engine="auto"``) are pure packing/evaluation
strategies -- none of them may change a single
detection.  These properties drive random circuits, packing caps, scan
configurations and X-laden vectors through every engine combination
and require byte-identical detection sets.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import random_gen
from repro.circuits import synth
from repro.core.combine import _detections
from repro.core.scan_test import ScanTest
from repro.sim import fault_sim as fault_sim_mod
from repro.sim import values as V
from repro.sim.counters import SimCounters
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit
from repro.sim.scoreboard import FaultScoreboard

_N_PI = 4

_CACHE = {}


def circuit_for(seed):
    """Small random sequential circuit, cached across examples."""
    if seed not in _CACHE:
        net = synth.generate("equiv", _N_PI, 3, 5, 30, seed=seed)
        cc_codegen = CompiledCircuit(net, engine="codegen")
        cc_generic = CompiledCircuit(net.copy(), engine="interp")
        fs = FaultSet.collapsed(net)
        _CACHE[seed] = (cc_codegen, cc_generic, fs)
    return _CACHE[seed]


circuit_seeds = st.integers(0, 14)
fused_caps = st.sampled_from([2, 5, 128, fault_sim_mod.FUSED_CAP])


def _vectors(data, rng, n):
    """A sequence that mixes binary and X-laden vectors."""
    out = []
    for _ in range(n):
        if data.draw(st.booleans()):
            out.append(V.random_binary_vector(_N_PI, rng))
        else:
            out.append(tuple(rng.choice((V.ZERO, V.ONE, V.X))
                             for _ in range(_N_PI)))
    return out


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_detect_sets_identical(self, seed, cap, data):
        """Every (engine, packing cap) pair agrees with the reference
        (codegen, fused) detection set on the same test."""
        cc_codegen, cc_generic, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        n = data.draw(st.integers(1, 10))
        vectors = _vectors(data, rng, n)
        init = (V.random_binary_vector(len(cc_codegen.ff_ids), rng)
                if data.draw(st.booleans()) else None)
        scan_out = data.draw(st.booleans())
        early_exit = data.draw(st.booleans())

        reference = FaultSimulator(cc_codegen, fs).detect(
            vectors, init, scan_out=scan_out, early_exit=False)
        for circuit in (cc_codegen, cc_generic):
            sim = FaultSimulator(circuit, fs, fused_cap=cap)
            got = sim.detect(vectors, init, scan_out=scan_out,
                             early_exit=early_exit)
            assert got == reference

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_partial_scan_observation(self, seed, cap, data):
        """Agreement holds when scan-out observes a subset of FFs."""
        cc_codegen, cc_generic, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        n_ff = len(cc_codegen.ff_ids)
        observe = sorted(rng.sample(range(n_ff),
                                    data.draw(st.integers(0, n_ff))))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
        init = V.random_binary_vector(n_ff, rng)

        reference = FaultSimulator(cc_codegen, fs).detect(
            vectors, init, scan_observe=observe, early_exit=False)
        got = FaultSimulator(cc_generic, fs, fused_cap=cap).detect(
            vectors, init, scan_observe=observe, early_exit=False)
        assert got == reference

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, cap=fused_caps, data=st.data())
    def test_records_identical(self, seed, cap, data):
        """run_with_records yields the same truncated-test detections
        whatever the packing policy or engine."""
        cc_codegen, cc_generic, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
        init = V.random_binary_vector(len(cc_codegen.ff_ids), rng)

        ref = FaultSimulator(cc_codegen, fs)\
            .run_with_records(vectors, init)
        alt = FaultSimulator(cc_generic, fs, fused_cap=cap)\
            .run_with_records(vectors, init)
        for frame in range(len(vectors)):
            assert (ref.detected_with_scanout_at(frame)
                    == alt.detected_with_scanout_at(frame))


class TestRepack:
    def test_repack_preserves_detections(self, monkeypatch):
        """Forcing aggressive in-pass retirement changes counters,
        never the detection set."""
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_MACHINES", 2)
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_FRAMES_LEFT", 1)
        net = synth.generate("repack", 5, 4, 8, 80, seed=3)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        vectors = random_gen.random_sequence(cc, 30, seed=1)
        init = random_gen.random_state(cc, seed=2)

        plain = FaultSimulator(cc, fs).detect(
            vectors, init, early_exit=False)
        repacking = FaultSimulator(cc, fs)
        got = repacking.detect(vectors, init, early_exit=True)
        # early_exit/repack are pure shortcuts: the set is unchanged.
        assert got == plain
        assert repacking.counters.repacks > 0
        assert repacking.counters.faults_dropped > 0

    def test_repack_detects_same_on_hard_targets(self, monkeypatch):
        """When early_exit cannot trigger the all-caught break (some
        fault is never detected), the repacking pass must still find
        exactly the full detection set."""
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_MACHINES", 2)
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_FRAMES_LEFT", 1)
        net = synth.generate("repack2", 4, 3, 6, 50, seed=9)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        vectors = random_gen.random_sequence(cc, 25, seed=4)
        init = random_gen.random_state(cc, seed=5)

        plain = FaultSimulator(cc, fs).detect(
            vectors, init, early_exit=False)
        if len(plain) == len(fs):  # pragma: no cover - seed-dependent
            pytest.skip("every fault detected: early exit would fire")
        repacking = FaultSimulator(cc, fs)
        got = repacking.detect(vectors, init, early_exit=True)
        assert got == plain
        assert repacking.counters.repacks > 0


class TestWidthPolicy:
    def test_auto_fuses_below_cap(self):
        net = synth.generate("wp", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        assert sim.resolve_width(50) == 51
        assert len(sim._build_chunks(range(50))) == 1

    def test_auto_balances_above_cap(self):
        net = synth.generate("wp", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs, fused_cap=101)
        # 250 targets over a 101-machine cap -> 3 balanced chunks.
        assert sim.resolve_width(250) == 85  # ceil(250/3) + good machine
        # And over the real fault list: chunks within one of each other.
        small = FaultSimulator(cc, fs, fused_cap=len(fs) // 2)
        chunks = small._build_chunks(range(len(fs)))
        sizes = [len(c.indices) for c in chunks]
        assert len(sizes) >= 2
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(fs)

    def test_bad_width_rejected(self):
        net = synth.generate("wp", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        with pytest.raises(ValueError):
            FaultSimulator(cc, fs, fused_cap=1)
        # The fixed-width packing policy is gone: a cap is the only
        # packing argument.
        with pytest.raises(TypeError):
            FaultSimulator(cc, fs, width=128)


class TestScoreboard:
    def test_retire_and_query(self):
        counters = SimCounters()
        board = FaultScoreboard(10, counters=counters)
        assert board.retire([1, 3, 5]) == 3
        assert board.retire([3, 5, 7]) == 1  # only 7 is new
        assert board.n_retired == 4
        assert board.is_retired(3)
        assert not board.is_retired(0)
        assert board.retired_within({0, 1, 2, 3}) == {1, 3}
        assert board.active({0, 1, 2, 3}) == [0, 2]
        assert counters.faults_dropped == 4

    def test_out_of_range_rejected(self):
        board = FaultScoreboard(4)
        with pytest.raises(ValueError):
            board.retire([4])
        with pytest.raises(ValueError):
            FaultScoreboard(-1)

    def test_disabled_scoreboard_is_inert(self):
        counters = SimCounters()
        board = FaultScoreboard(10, counters=counters, enabled=False)
        assert board.retire([1, 2, 3]) == 0
        assert board.n_retired == 0
        assert board.active({1, 2, 3}) == [1, 2, 3]
        assert counters.faults_dropped == 0

    def test_disabled_scoreboard_ablation_identical_results(self):
        """The full pipeline with cross-phase dropping off must produce
        the exact result of the dropping run (the ablation claim)."""
        from repro.atpg import comb_set as comb_set_mod
        from repro.core import proposed
        from repro.sim.comb_sim import CombPatternSim

        net = synth.generate("abl", 4, 3, 5, 40, seed=3)
        results = []
        for enabled in (True, False):
            cc = CompiledCircuit(net.copy())
            fs = FaultSet.collapsed(net)
            sim = FaultSimulator(cc, fs)
            comb_sim = CombPatternSim(cc, fs)
            comb = comb_set_mod.generate(cc, fs, seed=1)
            t0 = random_gen.random_sequence(cc, 60, seed=1)
            board = FaultScoreboard(len(fs), counters=sim.counters,
                                    enabled=enabled)
            res = proposed.run(sim, comb_sim, t0, comb.tests,
                               scoreboard=board)
            results.append((res, sim.counters.faults_dropped))
        (with_drop, n_dropped), (without, n_plain) = results
        assert n_dropped > 0 and n_plain == 0
        assert with_drop.final_detected == without.final_detected
        assert with_drop.seq_detected == without.seq_detected
        assert with_drop.added_tests == without.added_tests
        assert len(with_drop.test_set) == len(without.test_set)


class TestCounters:
    def test_note_words_and_density(self):
        c = SimCounters()
        c.note_words(4, 100)
        c.note_words(1, 20)
        assert c.words == 5
        assert c.machines == 420
        assert c.machines_per_word == 84.0

    def test_phase_timer_accumulates(self):
        c = SimCounters()
        with c.phase_timer("phase2"):
            pass
        first = c.phase2_s
        assert first >= 0.0
        with c.phase_timer("phase2"):
            sum(range(1000))
        assert c.phase2_s >= first  # accumulates, never resets
        assert c.phase1_s == 0.0
        with pytest.raises(ValueError, match="phase"):
            with c.phase_timer("phase9"):
                pass

    def test_timer_fields_stay_float_through_dict(self):
        c = SimCounters(frames=2, words=1, machines=4)
        with c.phase_timer("phase1"):
            pass
        d = c.as_dict()
        assert isinstance(d["phase1_s"], float)
        assert isinstance(d["frames"], int)
        c.reset()
        assert c.phase1_s == 0.0 and c.frames == 0

    def test_counting_during_detect(self):
        net = synth.generate("cnt", 3, 2, 4, 20, seed=1)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        vectors = random_gen.random_sequence(cc, 10, seed=0)
        sim.detect(vectors, None, early_exit=False)
        assert sim.counters.detect_passes == 1
        assert sim.counters.frames == 10
        assert sim.counters.words == 10  # fused: one word per frame
        assert sim.counters.machines == 10 * len(fs)


class TestCombineCache:
    def test_cached_tests_not_resimulated(self):
        net = synth.generate("cache", 4, 3, 5, 30, seed=2)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        rng = random.Random(0)
        tests = [ScanTest(V.random_binary_vector(5, rng),
                          (V.random_binary_vector(4, rng),))
                 for _ in range(3)]
        target = list(range(len(fs)))
        cache = {}
        first = _detections(sim, tests, target, cache)
        passes = sim.counters.detect_passes
        second = _detections(sim, tests, target, cache)
        assert sim.counters.detect_passes == passes  # all cache hits
        assert first == second

    def test_superset_cache_entry_intersected(self):
        net = synth.generate("cache", 4, 3, 5, 30, seed=2)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        rng = random.Random(1)
        test = ScanTest(V.random_binary_vector(5, rng),
                        (V.random_binary_vector(4, rng),))
        full = sim.detect(list(test.vectors), test.scan_in,
                          early_exit=False)
        sub = sorted(full)[: max(1, len(full) // 2)]
        cache = {test: full}
        out = _detections(sim, [test], sub, cache)
        assert out == [set(sub) & full]


class TestScanoutRegression:
    def test_zero_frame_records_raise_value_error(self):
        """Regression: earliest_safe_scanout on an empty recording
        raised NameError (unbound 'missing') instead of ValueError."""
        net = synth.generate("reg", 3, 2, 4, 20, seed=0)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        records = sim.run_with_records([], init_state=None)
        with pytest.raises(ValueError, match="no frames"):
            records.earliest_safe_scanout({0})


# ----------------------------------------------------------------------
# The C pass kernel under engine="auto" (optional dependency: repro[fast])
# ----------------------------------------------------------------------

try:
    from repro.sim.npsim import kernel_unavailable_reason
    _HAS_KERNEL = kernel_unavailable_reason() is None
except ImportError:  # pragma: no cover - numpy present in CI
    _HAS_KERNEL = False

needs_kernel = pytest.mark.skipif(not _HAS_KERNEL,
                                  reason="the C pass kernel is unavailable")

_NP_CACHE = {}


def auto_circuit_for(seed):
    """The ``engine="auto"`` circuit over the equivalence netlist."""
    if seed not in _NP_CACHE:
        net = synth.generate("equiv", _N_PI, 3, 5, 30, seed=seed)
        _NP_CACHE[seed] = CompiledCircuit(net.copy(), engine="auto")
    return _NP_CACHE[seed]


@needs_kernel
class TestNumpyBackendEquivalence:
    """``engine="auto"`` runs every pass in the C kernel and must be
    byte-identical to the big-int engines, including X-laden stimuli,
    partial scan and early exit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_detect_sets_identical(self, seed, data):
        cc_codegen, _, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 10)))
        init = (V.random_binary_vector(len(cc_codegen.ff_ids), rng)
                if data.draw(st.booleans()) else None)
        scan_out = data.draw(st.booleans())
        early_exit = data.draw(st.booleans())

        reference = FaultSimulator(cc_codegen, fs).detect(
            vectors, init, scan_out=scan_out, early_exit=False)
        sim = FaultSimulator(auto_circuit_for(seed), fs)
        got = sim.detect(vectors, init, scan_out=scan_out,
                         early_exit=early_exit)
        assert got == reference
        assert sim.counters.np_passes > 0

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_partial_scan_observation(self, seed, data):
        cc_codegen, _, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        n_ff = len(cc_codegen.ff_ids)
        observe = sorted(rng.sample(range(n_ff),
                                    data.draw(st.integers(0, n_ff))))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
        init = V.random_binary_vector(n_ff, rng)

        reference = FaultSimulator(cc_codegen, fs).detect(
            vectors, init, scan_observe=observe, early_exit=False)
        got = FaultSimulator(auto_circuit_for(seed), fs).detect(
            vectors, init, scan_observe=observe, early_exit=False)
        assert got == reference

    @settings(max_examples=25, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_records_identical(self, seed, data):
        cc_codegen, _, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(1, 6)))
        init = V.random_binary_vector(len(cc_codegen.ff_ids), rng)

        ref = FaultSimulator(cc_codegen, fs)\
            .run_with_records(vectors, init)
        alt = FaultSimulator(auto_circuit_for(seed), fs)\
            .run_with_records(vectors, init)
        for frame in range(len(vectors)):
            assert (ref.detected_with_scanout_at(frame)
                    == alt.detected_with_scanout_at(frame))

    @settings(max_examples=15, deadline=None)
    @given(seed=circuit_seeds, data=st.data())
    def test_omission_identical(self, seed, data):
        """Phase-2 suffix trials route through the kernel; the
        shortened test, its detections and the trial-by-trial search
        path must match the big-int engine exactly."""
        from repro.core.omission import omit_vectors
        from repro.core.scan_test import ScanTest
        cc_codegen, _, fs = circuit_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        vectors = _vectors(data, rng, data.draw(st.integers(4, 12)))
        init = V.random_binary_vector(len(cc_codegen.ff_ids), rng)
        required = set(FaultSimulator(cc_codegen, fs)
                       .detect(vectors, init, early_exit=False))
        test = ScanTest(tuple(init), tuple(tuple(v) for v in vectors))
        ref_sim = FaultSimulator(cc_codegen, fs)
        ref = omit_vectors(ref_sim, test, set(required))
        sim = FaultSimulator(auto_circuit_for(seed), fs)
        got = omit_vectors(sim, test, set(required))
        assert got.test == ref.test
        assert got.detected == ref.detected
        assert got.trials == ref.trials
        assert (sim.counters.frames, sim.counters.words) == \
            (ref_sim.counters.frames, ref_sim.counters.words)


@needs_kernel
class TestNumpyRepack:
    def test_forced_repacks_identical(self, monkeypatch):
        """Aggressive in-pass retirement repacks inside the kernel's
        pass loop; sets, repack counts and word accounting stay
        exactly the big-int engine's."""
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_MACHINES", 2)
        monkeypatch.setattr(fault_sim_mod, "_REPACK_MIN_FRAMES_LEFT", 1)
        net = synth.generate("repack", 5, 4, 8, 80, seed=3)
        cc = CompiledCircuit(net)
        fs = FaultSet.collapsed(net)
        vectors = random_gen.random_sequence(cc, 30, seed=1)
        init = random_gen.random_state(cc, seed=2)

        ref_sim = FaultSimulator(cc, fs)
        reference = ref_sim.detect(vectors, init, early_exit=True)
        assert ref_sim.counters.repacks > 0

        sim = FaultSimulator(CompiledCircuit(net.copy(), engine="auto"),
                             fs)
        got = sim.detect(vectors, init, early_exit=True)
        assert got == reference
        c, r = sim.counters, ref_sim.counters
        assert (c.repacks, c.faults_dropped) == \
            (r.repacks, r.faults_dropped)
        assert (c.frames, c.words, c.machines) == \
            (r.frames, r.words, r.machines)
        assert c.np_passes > 0


class TestEngineSelection:
    @needs_kernel
    def test_auto_routes_every_pass_to_kernel(self):
        """With the kernel loaded, engine="auto" hands every pass to
        it -- a 2-machine pass as well as a wide one; only sanitizer
        shadows (pinned to big-int) get no backend."""
        net = synth.generate("autoeq", 4, 3, 5, 40, seed=1)
        fs = FaultSet.collapsed(net)
        cc = CompiledCircuit(net, engine="auto")
        vectors = random_gen.random_sequence(cc, 6, seed=1)
        init = random_gen.random_state(cc, seed=2)
        sim = FaultSimulator(cc, fs)
        assert sim._array_backend() is cc.array_backend is not None
        sim.detect(vectors, init, target=[0], early_exit=False)
        assert sim.counters.np_passes == 1
        sim.detect(vectors, init, early_exit=False)
        assert sim.counters.np_passes == 2
        sim._force_bigint = True
        assert sim._array_backend() is None
        assert FaultSimulator(CompiledCircuit(net, engine="codegen"),
                              fs)._array_backend() is None

    def test_auto_without_kernel_matches_interp(self, monkeypatch):
        """When the kernel cannot load, engine="auto" has no array
        backend and runs big-int codegen, byte-identical to interp --
        the TDF simulator included: it follows the circuit onto the
        scalar route instead of reaching for the kernel."""
        from repro.atpg import comb_set as comb_set_mod
        from repro.core import proposed
        from repro.delay.transition import TransitionSim
        from repro.sim import npsim
        from repro.sim.comb_sim import CombPatternSim

        monkeypatch.setattr(npsim, "_load_kernel", lambda: None)
        net = synth.generate("nokern", 4, 3, 5, 40, seed=4)
        results = []
        for engine in ("auto", "interp"):
            cc = CompiledCircuit(net.copy(), engine=engine)
            assert cc.array_backend is None
            fs = FaultSet.collapsed(net)
            sim = FaultSimulator(cc, fs)
            comb = comb_set_mod.generate(cc, fs, seed=1)
            t0 = random_gen.random_sequence(cc, 40, seed=1)
            res = proposed.run(sim, CombPatternSim(cc, fs), t0,
                               comb.tests)
            tsim = TransitionSim(cc, counters=sim.counters)
            assert tsim.route == "scalar"
            tdf = tsim.coverage_percent(res.compacted_set)
            assert sim.counters.np_passes == 0
            results.append((res.final_detected, res.test_set.tests,
                            res.compacted_set.tests, tdf))
        assert results[0] == results[1]

    def test_whole_run_counters_engine_invariant(self):
        """A whole proposed run counts the same simulation work on
        every engine: the same passes, frames, words, machines, drops,
        repacks and trial lanes (the C kernel only adds np_passes).
        ``auto`` joins when the kernel loads."""
        from repro.atpg import comb_set as comb_set_mod
        from repro.core import proposed
        from repro.sim.comb_sim import CombPatternSim

        keys = ("detect_passes", "frames", "words", "machines",
                "faults_dropped", "repacks", "candidate_passes",
                "trial_passes", "trial_lanes")
        net = synth.generate("cnt", 5, 4, 8, 80, seed=7)
        fs = FaultSet.collapsed(net)
        comb = comb_set_mod.generate(CompiledCircuit(net.copy()), fs,
                                     seed=1)
        t0 = random_gen.random_sequence(CompiledCircuit(net.copy()), 30,
                                        seed=1)
        engines = ("interp", "codegen") + (("auto",) if _HAS_KERNEL
                                           else ())
        runs = {}
        for engine in engines:
            cc = CompiledCircuit(net.copy(), engine=engine)
            sim = FaultSimulator(cc, fs)
            res = proposed.run(sim, CombPatternSim(cc, fs), t0,
                               comb.tests)
            counters = sim.counters
            runs[engine] = ({k: getattr(counters, k) for k in keys},
                            res.final_detected, res.compacted_set.tests)
            assert (counters.np_passes > 0) == (engine == "auto")
        reference = runs["interp"]
        assert reference[0]["faults_dropped"] > 0
        assert reference[0]["candidate_passes"] > 0
        assert reference[0]["trial_lanes"] > 0
        for engine in engines:
            assert runs[engine] == reference, engine

    def test_auto_agrees_with_codegen(self):
        net = synth.generate("autoeq3", 4, 3, 6, 50, seed=2)
        fs = FaultSet.collapsed(net)
        vectors = random_gen.random_sequence(
            CompiledCircuit(net), 12, seed=3)
        init = random_gen.random_state(CompiledCircuit(net), seed=4)
        ref = FaultSimulator(CompiledCircuit(net, engine="codegen"),
                             fs).detect(
            vectors, init, early_exit=False)
        got = FaultSimulator(CompiledCircuit(net, engine="auto"),
                             fs).detect(
            vectors, init, early_exit=False)
        assert got == ref

    def test_missing_numpy_raises_actionable_error(self, monkeypatch):
        """Without numpy the kernel reports why it is unavailable,
        engine="auto" quietly stays big-int, and the array helpers
        raise MissingNumpyError naming the install extra."""
        import builtins

        from repro.sim import npsim

        real_import = builtins.__import__

        def _no_numpy(name, *args, **kwargs):
            if name == "numpy":
                raise ImportError("no numpy")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", _no_numpy)
        monkeypatch.setattr(npsim, "_KERNEL_TRIED", False)
        monkeypatch.setattr(npsim, "_KERNEL", None)
        monkeypatch.setattr(npsim, "_KERNEL_ERROR", None)
        assert npsim.kernel_unavailable_reason() == \
            "numpy is not installed"
        net = synth.generate("noeq", 3, 2, 3, 15, seed=0)
        assert CompiledCircuit(net, engine="auto").array_backend is None
        with pytest.raises(npsim.MissingNumpyError,
                           match=r"repro\[fast\]"):
            V.word_to_array(5, 1)

    @needs_kernel
    def test_sanitizer_shadow_is_cross_backend(self, monkeypatch):
        """With the sanitizer armed, a kernel-run detect is spot
        checked against a big-int shadow with the opposite packing --
        and the shadow really is big-int (_force_bigint)."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        net = synth.generate("sancb", 4, 3, 5, 40, seed=6)
        fs = FaultSet.collapsed(net)
        cc = CompiledCircuit(net, engine="auto")
        sim = FaultSimulator(cc, fs)
        vectors = random_gen.random_sequence(cc, 6, seed=1)
        init = random_gen.random_state(cc, seed=2)
        sim.detect(vectors, init, early_exit=False)
        assert sim.counters.np_passes > 0
        assert sim._sanitize_spots_left < fault_sim_mod.\
            _SANITIZE_SPOT_BUDGET
