"""Lane-batched trial simulation must be byte-identical to one pass
per trial.

The trial engine (:meth:`FaultSimulator.detect_trials`), the Phase-4
prefetch cache (:func:`static_compact`) and the Phase-3 candidate
blocks (:func:`top_off`) are pure accelerations:
none of them may change a single detection, selection, or statistic on
the equivalence-guaranteed paths.  These properties drive random
circuits, ragged X-laden trial batches and every engine through the
batched paths and through references written on the per-trial
primitives -- ``FaultSimulator.detect`` per merge (``static_compact``
with its prefetch disabled) and ``CombPatternSim.detect_single`` per
pattern (``top_off`` over one-pattern blocks) -- at lane budgets
either side of the 64-bit word boundary.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.comb_set import CombTest
from repro.circuits import synth
from repro.core import combine, topoff
from repro.core.combine import static_compact
from repro.core.scan_test import ScanTestSet, single_vector_test
from repro.core.topoff import top_off
from repro.sim import values as V
from repro.sim.comb_sim import CombPatternSim
from repro.sim.counters import SimCounters
from repro.sim.fault_sim import FaultSimulator
from repro.sim.faults import FaultSet
from repro.sim.logicsim import CompiledCircuit

try:
    from repro.sim.npsim import kernel_unavailable_reason
    _HAS_KERNEL = kernel_unavailable_reason() is None
except ImportError:  # pragma: no cover - numpy present in CI
    _HAS_KERNEL = False

needs_kernel = pytest.mark.skipif(not _HAS_KERNEL,
                                  reason="the C pass kernel is unavailable")

_N_PI = 4

_CACHE = {}


def circuits_for(seed):
    """One compiled circuit per engine, on the same random netlist."""
    if seed not in _CACHE:
        net = synth.generate("trial", _N_PI, 3, 5, 30, seed=seed)
        circuits = [CompiledCircuit(net, engine="codegen"),
                    CompiledCircuit(net.copy(), engine="interp"),
                    CompiledCircuit(net.copy(), engine="auto")]
        _CACHE[seed] = (circuits, FaultSet.collapsed(net))
    return _CACHE[seed]


def _vector(rng, binary=False):
    if binary:
        return V.random_binary_vector(_N_PI, rng)
    return tuple(rng.choice((V.ZERO, V.ONE, V.X)) for _ in range(_N_PI))


def _trial(rng, n_ff, max_frames=5):
    """One (scan_in, vectors) trial; X-laden, possibly empty."""
    scan_in = (V.random_binary_vector(n_ff, rng)
               if rng.random() < 0.8 else None)
    vectors = [_vector(rng, binary=rng.random() < 0.5)
               for _ in range(rng.randrange(0, max_frames + 1))]
    return scan_in, vectors


class TestDetectTrials:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9), data=st.data())
    def test_matches_scalar_detect(self, seed, data):
        """detect_trials == one scalar detect per lane, every engine."""
        circuits, fs = circuits_for(seed)
        rng = random.Random(data.draw(st.integers(0, 999)))
        n_ff = len(circuits[0].ff_ids)
        n_lanes = data.draw(st.integers(1, 10))
        trials = [_trial(rng, n_ff) for _ in range(n_lanes)]
        scan_out = data.draw(st.booleans())
        target = None
        if data.draw(st.booleans()):
            target = sorted(rng.sample(range(len(fs)),
                                       rng.randrange(0, len(fs))))
        for circuit in circuits:
            sim = FaultSimulator(circuit, fs)
            batched = sim.detect_trials(trials, target=target,
                                        scan_out=scan_out)
            scalar = [sim.detect(list(v), s, target=target,
                                 scan_out=scan_out, early_exit=False)
                      for s, v in trials]
            assert batched == scalar

    @pytest.mark.parametrize("n_lanes", [1, 63, 64, 65])
    def test_lane_count_boundaries(self, n_lanes):
        """Exactness at the word-packing boundaries, every engine."""
        circuits, fs = circuits_for(0)
        rng = random.Random(n_lanes)
        n_ff = len(circuits[0].ff_ids)
        trials = [_trial(rng, n_ff, max_frames=3)
                  for _ in range(n_lanes)]
        for circuit in circuits:
            sim = FaultSimulator(circuit, fs)
            batched = sim.detect_trials(trials)
            scalar = [sim.detect(list(v), s, early_exit=False)
                      for s, v in trials]
            assert batched == scalar

    def test_counters_and_partial_observe(self):
        circuits, fs = circuits_for(1)
        rng = random.Random(7)
        n_ff = len(circuits[0].ff_ids)
        observe = sorted(rng.sample(range(n_ff), max(1, n_ff // 2)))
        trials = [_trial(rng, n_ff) for _ in range(6)]
        sim = FaultSimulator(circuits[0], fs)
        batched = sim.detect_trials(trials, scan_observe=observe)
        scalar = [sim.detect(list(v), s, scan_observe=observe,
                             early_exit=False)
                  for s, v in trials]
        assert batched == scalar
        assert sim.counters.trial_passes == 1
        assert sim.counters.trial_lanes == 6


def unbatched_compact(monkeypatch, *args, **kwargs):
    """Reference Phase 4: ``static_compact`` with the merge-trial
    prefetch disabled, so every trial takes its own ``detect`` pass."""
    with monkeypatch.context() as patch:
        patch.setattr(combine, "_prefetch_trials",
                      lambda *a, **k: None)
        result = static_compact(*args, **kwargs)
    assert args[0].counters.trial_passes == 0
    return result


class TestBatchedCombine:
    def _initial_set(self, circuits, fs, seed, n_tests=10):
        rng = random.Random(seed)
        n_ff = len(circuits[0].ff_ids)
        tests = [single_vector_test(V.random_binary_vector(n_ff, rng),
                                    V.random_binary_vector(_N_PI, rng))
                 for _ in range(n_tests)]
        return ScanTestSet(n_ff, tests)

    @pytest.mark.parametrize("lanes", [2, 63, 64, 65])
    def test_prefetch_identical(self, monkeypatch, lanes):
        """static_compact: batched == one detect per trial, down to
        every stat."""
        circuits, fs = circuits_for(2)
        initial = self._initial_set(circuits, fs, seed=11)
        monkeypatch.setattr(combine, "TRIAL_LANES", lanes)
        for circuit in circuits:
            reference = unbatched_compact(
                monkeypatch, FaultSimulator(circuit, fs), initial)
            sim = FaultSimulator(circuit, fs)
            batched = static_compact(sim, initial)
            assert batched.test_set.tests == reference.test_set.tests
            assert batched.detected == reference.detected
            assert vars(batched.stats) == vars(reference.stats)
            assert 0 < sim.counters.trial_lanes <= \
                lanes * sim.counters.trial_passes

    def test_prefetch_with_length_cap_and_filter(self, monkeypatch):
        """Skip rules (length cap, merge filter) mirror exactly."""
        circuits, fs = circuits_for(3)
        initial = self._initial_set(circuits, fs, seed=5, n_tests=8)
        reject = {initial.tests[0].combined_with(initial.tests[1])}

        def flt(test):
            return test not in reject

        for kwargs in ({"max_sequence_length": 3},
                       {"merge_filter": flt}):
            reference = unbatched_compact(
                monkeypatch, FaultSimulator(circuits[0], fs), initial,
                **kwargs)
            batched = static_compact(FaultSimulator(circuits[0], fs),
                                     initial, **kwargs)
            assert batched.test_set.tests == reference.test_set.tests
            assert vars(batched.stats) == vars(reference.stats)


class TestBatchedTopOff:
    def _comb_tests(self, circuits, seed, n=12):
        rng = random.Random(seed)
        n_ff = len(circuits[0].ff_ids)
        return [CombTest(V.random_binary_vector(n_ff, rng),
                         V.random_binary_vector(_N_PI, rng))
                for _ in range(n)]

    @pytest.mark.parametrize("lanes", [2, 63, 64, 65])
    def test_blocks_identical(self, monkeypatch, lanes):
        """top_off in blocks of ``lanes`` patterns == one
        ``detect_single`` per pattern (one-pattern blocks)."""
        circuits, fs = circuits_for(4)
        comb_tests = self._comb_tests(circuits, seed=1, n=2 * lanes + 1)
        undetected = set(range(len(fs)))
        reference = top_off(CombPatternSim(circuits[0], fs, block=1),
                            comb_tests, undetected)
        monkeypatch.setattr(topoff, "TRIAL_LANES", lanes)
        counters = SimCounters()
        batched = top_off(CombPatternSim(circuits[0], fs), comb_tests,
                          undetected, counters=counters)
        assert batched.tests == reference.tests
        assert batched.chosen_indices == reference.chosen_indices
        assert batched.covered == reference.covered
        assert batched.uncovered == reference.uncovered
        assert (counters.trial_passes, counters.trial_lanes) == \
            (2, 2 * lanes)


@needs_kernel
class TestPlanCacheEviction:
    def test_lru_bound_and_eviction(self):
        """The per-simulator plan cache stays bounded and evicts LRU."""
        from repro.sim.npsim import ArrayBackend

        net = synth.generate("plancache", 4, 3, 5, 40, seed=2)
        cc = CompiledCircuit(net, engine="auto")
        fs = FaultSet.collapsed(net)
        sim = FaultSimulator(cc, fs)
        backend = cc.array_backend
        assert isinstance(backend, ArrayBackend)
        size = ArrayBackend._PLAN_CACHE_SIZE
        chunks = []
        for start in range(size + 3):
            chunk = sim._build_chunks(range(start, start + 4))[0]
            chunks.append(chunk)
            backend._plan_for(sim, chunk)
        cache = sim._np_plan_cache
        assert len(cache) == size
        # The oldest keys were evicted, the newest survive.
        assert tuple(chunks[0].indices) not in cache
        assert tuple(chunks[-1].indices) in cache
        # A hit refreshes recency: re-touch the oldest survivor, then
        # insert one more plan; the survivor must outlive the
        # next-oldest entry.
        survivor = next(iter(cache))
        backend._plan_for(sim, sim._build_chunks(list(survivor))[0])
        fresh = sim._build_chunks(range(100, 104))[0]
        backend._plan_for(sim, fresh)
        assert survivor in cache
        assert tuple(fresh.indices) in cache
        assert len(cache) == size
