"""Tests for Phase 1: scan-in selection and scan-out time selection."""

import random

import pytest

from repro.atpg import random_gen
from repro.core import phase1
from repro.sim import values as V


@pytest.fixture(scope="module")
def setting(request):
    return None


def t0_for(wb, length, seed=3):
    return random_gen.random_sequence(wb.circuit, length, seed=seed)


class TestDetectNoScan:
    def test_matches_direct_sim(self, s27_bench):
        wb = s27_bench
        t0 = t0_for(wb, 30)
        f0 = phase1.detect_no_scan(wb.sim, t0)
        direct = wb.sim.detect(t0, None, scan_out=False, early_exit=False)
        assert f0 == direct


class TestSelectScanIn:
    def test_winner_maximizes_detection(self, s27_bench, s27_comb):
        wb, C = s27_bench, s27_comb
        t0 = t0_for(wb, 20)
        f0 = phase1.detect_no_scan(wb.sim, t0)
        selected = [False] * len(C.tests)
        index, f_si = phase1.select_scan_in(wb.sim, t0, C.tests, f0,
                                            selected)
        target = set(range(len(wb.faults)))
        counts = []
        for test in C.tests:
            det = wb.sim.detect(t0, test.state,
                                target=sorted(target - f0),
                                early_exit=False)
            counts.append(len(det))
        assert counts[index] == max(counts)
        assert f_si >= f0

    def test_unselected_preferred_on_tie(self, s27_bench, s27_comb):
        wb, C = s27_bench, s27_comb
        t0 = t0_for(wb, 20)
        f0 = phase1.detect_no_scan(wb.sim, t0)
        # Mark everything selected except one arbitrary index; if that
        # one ties with the best it must win.
        baseline_idx, _ = phase1.select_scan_in(
            wb.sim, t0, C.tests, f0, [False] * len(C.tests))
        selected = [True] * len(C.tests)
        selected[baseline_idx] = False
        index, _ = phase1.select_scan_in(wb.sim, t0, C.tests, f0,
                                         selected)
        assert index == baseline_idx

    def test_empty_tests_rejected(self, s27_bench):
        wb = s27_bench
        with pytest.raises(ValueError, match="empty"):
            phase1.select_scan_in(wb.sim, [V.vec("0000")], [], set(), [])

    def test_flag_mismatch_rejected(self, s27_bench, s27_comb):
        wb, C = s27_bench, s27_comb
        with pytest.raises(ValueError, match="flags"):
            phase1.select_scan_in(wb.sim, [V.vec("0000")], C.tests,
                                  set(), [False])


class TestSelectScanOut:
    def test_equivalent_to_explicit_truncations(self, s27_bench):
        """Our single-pass Step 3 must equal simulating every
        truncated candidate test explicitly."""
        wb = s27_bench
        t0 = t0_for(wb, 25, seed=11)
        scan_in = V.vec("010")
        f_si = wb.sim.detect(t0, scan_in, early_exit=False)
        u_so, f_so = phase1.select_scan_out(wb.sim, scan_in, t0, f_si)
        # Reproduce with explicit truncation sims.
        expected_u = None
        for i in range(len(t0)):
            det = wb.sim.detect(t0[:i + 1], scan_in, early_exit=False)
            if f_si <= det:
                expected_u = i
                expected_det = det
                break
        assert u_so == expected_u
        assert f_so == expected_det
        assert f_so >= f_si


class TestRunPhase1:
    def test_invariants(self, s27_bench, s27_comb):
        wb, C = s27_bench, s27_comb
        t0 = t0_for(wb, 30, seed=4)
        result = phase1.run_phase1(wb.sim, t0, C.tests,
                                   [False] * len(C.tests))
        assert result.f0 <= result.f_si <= result.f_so
        assert len(result.vectors) == result.u_so + 1
        assert result.vectors == tuple(tuple(v) for v in
                                       t0[:result.u_so + 1])
        assert result.scan_in == tuple(C.tests[result.chosen_index].state)
        assert not result.chose_selected

    def test_reuses_supplied_f0(self, s27_bench, s27_comb):
        wb, C = s27_bench, s27_comb
        t0 = t0_for(wb, 15, seed=5)
        f0 = phase1.detect_no_scan(wb.sim, t0)
        a = phase1.run_phase1(wb.sim, t0, C.tests,
                              [False] * len(C.tests), f0=f0)
        b = phase1.run_phase1(wb.sim, t0, C.tests,
                              [False] * len(C.tests))
        assert a.chosen_index == b.chosen_index
        assert a.u_so == b.u_so
