"""Tests for the high-level API."""

import pytest

import repro
from repro import api
from repro.circuits import library


class TestWorkbench:
    def test_builds_everything(self, s27):
        wb = api.Workbench.for_netlist(s27)
        assert wb.circuit.n_nets == s27.num_nets
        assert len(wb.faults) == 32

    def test_engine_and_width_knobs(self, s27):
        wb = api.Workbench.for_netlist(s27, engine="interp")
        assert wb.circuit.engine == "interp"
        default = api.Workbench.for_netlist(s27)
        assert default.circuit.engine == "auto"
        # The packing policy is not an API knob: always fused.
        assert default.sim.width == "auto"
        with pytest.raises(TypeError):
            api.Workbench.for_netlist(s27, width=8)

    def test_counters_property_is_sims(self, s27):
        wb = api.Workbench.for_netlist(s27)
        assert wb.counters is wb.sim.counters

    def test_bad_engine_rejected(self, s27):
        with pytest.raises(ValueError, match="engine"):
            api.Workbench.for_netlist(s27, engine="fpga")

    def test_numpy_and_auto_engines(self, s27):
        """``numpy`` and ``generic`` are gone; ``auto`` has an array
        backend exactly when the C kernel loads."""
        from repro.sim.npsim import kernel_unavailable_reason
        for engine in ("numpy", "generic"):
            with pytest.raises(ValueError, match="engine"):
                api.Workbench.for_netlist(s27, engine=engine)
        auto = api.Workbench.for_netlist(s27, engine="auto")
        assert auto.circuit.engine == "auto"
        assert (auto.circuit.array_backend is not None) == \
            (kernel_unavailable_reason() is None)


class TestCompactTests:
    def test_seqgen_arm(self, s27):
        res = repro.compact_tests(s27, seed=1, t0_length=40)
        assert res.final_detected
        assert res.compacted_set is not None

    def test_random_arm(self, s27):
        res = repro.compact_tests(s27, seed=1, t0_source="random",
                                  t0_length=60)
        assert res.t0_length == 60

    def test_explicit_t0(self, s27_bench, s27_comb):
        from repro.sim import values as V
        t0 = [V.vec("1010")] * 5
        res = repro.compact_tests(s27_bench.netlist, t0=t0,
                                  comb_tests=s27_comb.tests,
                                  workbench=s27_bench)
        assert res.t0_length == 5

    def test_bad_source(self, s27):
        with pytest.raises(ValueError, match="unknown t0_source"):
            repro.compact_tests(s27, t0_source="magic")

    def test_workbench_reuse(self, s27_bench, s27_comb):
        res = repro.compact_tests(s27_bench.netlist, seed=2,
                                  t0_length=20,
                                  comb_tests=s27_comb.tests,
                                  workbench=s27_bench)
        assert res.added_tests >= 0


class TestBaselines:
    def test_static_baseline(self, s27):
        result = repro.baseline_static(s27, seed=1)
        assert result.stats.final_cycles <= result.stats.initial_cycles

    def test_dynamic_baseline(self, s27):
        result = repro.baseline_dynamic(s27, seed=1)
        assert len(result.test_set) >= 1

    def test_generate_comb_set(self, s27):
        result = repro.generate_comb_set(s27, seed=1)
        assert result.detected
        assert len(result.tests) >= 1


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_public_names(self):
        for name in repro.__all__:
            assert hasattr(repro, name)
