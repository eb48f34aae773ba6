"""Performance benchmarks for the simulation and ATPG engines.

These track the throughput of the substrate the tables are built on
(useful when optimizing the inner loops):

* one bit-parallel fault-simulation pass over a sequence;
* the same pass fused (all faults in one wide word) vs chunked
  (128 machines per word) -- the packing-policy ablation;
* one PPSFP block over 64 combinational patterns;
* one PODEM run per fault, averaged;
* one full Phase-2 vector-omission run.

``benchmarks/emit_bench.py`` packages the fused-vs-chunked comparison
(over a full ``run_proposed`` pass) into ``BENCH_engine.json`` for the
CI perf gate; the micro-benchmarks here are for interactive tuning.
"""

import random

import pytest

from repro import api
from repro.atpg import random_gen
from repro.atpg.podem import Podem
from repro.circuits import synth
from repro.core.omission import omit_vectors
from repro.core.scan_test import ScanTest
from repro.sim import values as V


@pytest.fixture(scope="module")
def wb():
    # The big-int substrate: the packing and evaluator ablations below
    # compare big-int routes, so the C kernel stays out of the way.
    return api.Workbench.for_netlist(
        synth.generate("engine", 5, 6, 12, 100, seed=4),
        engine="codegen")


def test_fault_sim_sequence_pass(benchmark, wb):
    vectors = random_gen.random_sequence(wb.circuit, 100, seed=1)
    init = random_gen.random_state(wb.circuit, seed=2)
    detected = benchmark(wb.sim.detect, vectors, init,
                         early_exit=False)
    assert detected


def test_fault_sim_fused_word(benchmark, wb):
    """All faults packed into one fused word (width="auto")."""
    from repro.sim.fault_sim import FaultSimulator

    fused_sim = FaultSimulator(wb.circuit, wb.faults, width="auto")
    vectors = random_gen.random_sequence(wb.circuit, 100, seed=1)
    init = random_gen.random_state(wb.circuit, seed=2)
    detected = benchmark(fused_sim.detect, vectors, init,
                         early_exit=False)
    assert detected


def test_fault_sim_chunked_word(benchmark, wb):
    """The pre-fusion policy: 128 machines per word, many chunks."""
    from repro.sim.fault_sim import FaultSimulator

    chunked_sim = FaultSimulator(wb.circuit, wb.faults, width=128)
    vectors = random_gen.random_sequence(wb.circuit, 100, seed=1)
    init = random_gen.random_state(wb.circuit, seed=2)
    detected = benchmark(chunked_sim.detect, vectors, init,
                         early_exit=False)
    assert detected


def test_ppsfp_block(benchmark, wb):
    rng = random.Random(3)
    patterns = [(V.random_binary_vector(12, rng),
                 V.random_binary_vector(5, rng)) for _ in range(64)]
    hits = benchmark(wb.comb_sim.detect_block, patterns)
    assert hits


def test_podem_all_faults(benchmark, wb):
    podem = Podem(wb.circuit, wb.faults)

    def run_all():
        return [podem.generate(i).status
                for i in range(0, len(wb.faults), 4)]

    statuses = benchmark(run_all)
    assert statuses


def test_engine_interp_vs_codegen(benchmark, wb):
    """Ablation: interpreting evaluator vs the code-generated one.

    Times the interp engine here; compare against
    ``test_fault_sim_sequence_pass`` (which runs on the default
    codegen engine) for the speedup factor.
    """
    from repro.sim.fault_sim import FaultSimulator
    from repro.sim.logicsim import CompiledCircuit

    interp_cc = CompiledCircuit(wb.netlist.copy(), engine="interp")
    interp_sim = FaultSimulator(interp_cc, wb.faults)
    vectors = random_gen.random_sequence(wb.circuit, 100, seed=1)
    init = random_gen.random_state(wb.circuit, seed=2)
    detected = benchmark(interp_sim.detect, vectors, init,
                         early_exit=False)
    # Both engines agree exactly (the equivalence tests enforce it).
    assert detected == wb.sim.detect(vectors, init, early_exit=False)


def test_vector_omission(benchmark, wb):
    vectors = random_gen.random_sequence(wb.circuit, 60, seed=5)
    init = random_gen.random_state(wb.circuit, seed=6)
    test = ScanTest(tuple(init), tuple(vectors))
    required = wb.sim.detect(vectors, init, early_exit=False)

    result = benchmark.pedantic(
        omit_vectors, args=(wb.sim, test, required),
        rounds=1, iterations=1)
    assert result.test.length <= test.length
