"""Failure-injection tests: the library must degrade loudly and
predictably when inputs are wrong or degenerate."""

import pytest

from repro import api
from repro.atpg.comb_set import CombTest
from repro.circuits.netlist import Netlist
from repro.core.proposed import run as run_proposed
from repro.core.scan_test import ScanTest, ScanTestSet
from repro.core.combine import static_compact
from repro.core.topoff import top_off
from repro.sim import values as V


class TestDegenerateCircuits:
    def test_single_gate_circuit_full_flow(self):
        """The minimal sequential circuit survives the whole pipeline."""
        net = Netlist("tiny")
        net.add_input("a")
        net.add_dff("q", "d")
        net.add_gate("d", "NAND", ["a", "q"])
        net.add_output("d")
        net.compile()
        result = api.compact_tests(net, seed=1, t0_length=16)
        assert result.final_detected
        final = result.compacted_set or result.test_set
        assert final.clock_cycles() > 0

    def test_constant_output_circuit(self):
        """A circuit whose PO is constant: nearly everything redundant,
        nothing crashes."""
        net = Netlist("const")
        net.add_input("a")
        net.add_dff("q", "d")
        net.add_gate("na", "NOT", ["a"])
        net.add_gate("d", "AND", ["a", "na"])   # constant 0
        net.add_gate("o", "OR", ["d", "q"])
        net.add_output("o")
        net.compile()
        comb = api.generate_comb_set(net, seed=1)
        assert comb.redundant  # the constant cone is untestable
        # With at least one test, the flow still runs.
        if comb.tests:
            result = api.compact_tests(net, seed=1, t0_length=10,
                                       comb_tests=comb.tests)
            assert result.final_detected >= set()


class TestCorruptedInputs:
    def test_incomplete_comb_set_leaves_uncovered(self, s27_bench,
                                                  s27_comb):
        """With a crippled C, Phase 3 must report what it cannot do --
        not silently claim coverage."""
        wb = s27_bench
        crippled = s27_comb.tests[:1]
        result = api.compact_tests(wb.netlist, seed=1, t0_length=5,
                                   comb_tests=crippled, workbench=wb)
        # Claimed coverage must still be real.
        covered = set()
        for test in (result.compacted_set or result.test_set):
            covered |= wb.sim.detect(list(test.vectors), test.scan_in,
                                     early_exit=False)
        assert result.final_detected <= covered

    def test_wrong_width_scan_in(self, s27_bench):
        wb = s27_bench
        with pytest.raises(ValueError, match="state width"):
            wb.sim.detect([V.vec("0000")], (V.ZERO,))

    def test_wrong_width_vector(self, s27_bench):
        wb = s27_bench
        with pytest.raises(ValueError):
            wb.sim.detect([V.vec("00")], V.vec("000"))

    def test_topoff_with_empty_candidates(self, s27_bench):
        result = top_off(s27_bench.comb_sim, [], {1, 2, 3})
        assert result.uncovered == {1, 2, 3}
        assert result.tests == []

    def test_combine_single_test_noop(self, s27_bench):
        wb = s27_bench
        single = ScanTestSet(3, [ScanTest(V.vec("000"),
                                          (V.vec("1111"),))])
        result = static_compact(wb.sim, single)
        assert len(result.test_set) == 1

    def test_proposed_rejects_x_heavy_t0(self, s27_bench, s27_comb):
        """An all-X T0 is legal 3-valued input: detects nothing, and
        the pipeline still completes via Phase 3."""
        wb = s27_bench
        t0 = [V.all_x(4)] * 4
        result = run_proposed(wb.sim, wb.comb_sim, t0, s27_comb.tests)
        assert len(result.t0_detected) == 0
        assert result.final_detected  # phase 3 carried the coverage


class TestHarnessDegradation:
    """The experiment layer must survive failing circuit jobs: keep the
    survivors, annotate the casualties, never raise."""

    def test_campaign_survives_one_crashing_job(self, tmp_path):
        from repro.experiments import all_tables
        from repro.experiments.harness import (HarnessConfig, JobSpec,
                                               run_jobs)

        def chaos(spec, attempt):
            return "crash" if spec.circuit == "b02" else None

        specs = [JobSpec("s27", with_baselines=False),
                 JobSpec("b02", with_baselines=False)]
        outcome = run_jobs(specs, HarnessConfig(isolate=False,
                                                run_dir=tmp_path,
                                                chaos=chaos))
        assert not outcome.ok
        assert [r.name for r in outcome.runs] == ["s27"]
        rendered = [t.render()
                    for t in all_tables(outcome.runs,
                                        failures=outcome.failures)]
        assert all("s27" in text for text in rendered)
        assert all("FAILED(" in text for text in rendered)

    def test_unknown_circuit_job_fails(self):
        """A job naming no suite circuit fails with the registry's
        message instead of raising out of the harness."""
        from repro.experiments.harness import (HarnessConfig, JobSpec,
                                               run_jobs)
        outcome = run_jobs([JobSpec("sXXX")], HarnessConfig(isolate=False))
        assert not outcome.ok
        record = outcome.records[0]
        assert record.status == "failed"
        assert "unknown suite circuit" in record.error


class TestApiGuards:
    def test_unknown_source(self, s27):
        with pytest.raises(ValueError):
            api.compact_tests(s27, t0_source="telepathy")

    def test_comb_test_types(self, s27_bench):
        """Hand-built CombTests work through the whole API."""
        wb = s27_bench
        tests = [CombTest(V.vec("000"), V.vec("1111")),
                 CombTest(V.vec("111"), V.vec("0000")),
                 CombTest(V.vec("010"), V.vec("1010")),
                 CombTest(V.vec("101"), V.vec("0101"))]
        result = api.compact_tests(wb.netlist, seed=1, t0_length=8,
                                   comb_tests=tests, workbench=wb)
        assert result.added_tests <= len(tests)
