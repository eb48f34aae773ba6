"""Tests for transfer-sequence combining (the ref [7] extension)."""

import hashlib

import pytest

from repro.core.combine import static_compact
from repro.core.scan_test import ScanTestSet, single_vector_test


def initial_set(wb, comb):
    return ScanTestSet(
        len(wb.circuit.ff_ids),
        [single_vector_test(t.state, t.pi) for t in comb.tests])


def union_coverage(wb, test_set):
    covered = set()
    for test in test_set:
        covered |= wb.sim.detect(list(test.vectors), test.scan_in,
                                 early_exit=False)
    return covered


class TestTransfers:
    def test_disabled_by_default(self, s27_bench, s27_comb):
        wb = s27_bench
        result = static_compact(wb.sim, initial_set(wb, s27_comb))
        assert result.stats.transfers_used == 0
        assert result.stats.transfer_vectors_added == 0

    def test_coverage_preserved_with_transfers(self, s27_bench,
                                               s27_comb):
        wb = s27_bench
        initial = initial_set(wb, s27_comb)
        before = union_coverage(wb, initial)
        result = static_compact(wb.sim, initial, max_transfer=2,
                                transfer_pool=[t.pi
                                               for t in s27_comb.tests])
        assert before <= union_coverage(wb, result.test_set)

    def test_never_worse_than_plain(self, s27_bench, s27_comb):
        """Transfers only fire where a direct combination failed and
        each saves N_SV - L(transfer) > 0 cycles, so the result can
        only improve."""
        wb = s27_bench
        initial = initial_set(wb, s27_comb)
        plain = static_compact(wb.sim, initial)
        with_t = static_compact(wb.sim, initial, max_transfer=2,
                                transfer_pool=[t.pi
                                               for t in s27_comb.tests])
        assert with_t.stats.final_cycles <= plain.stats.final_cycles

    def test_transfer_capped_below_chain_length(self, s27_bench,
                                                s27_comb):
        """A transfer as long as the scan chain saves nothing; the cap
        must hold even when the caller asks for more."""
        wb = s27_bench
        initial = initial_set(wb, s27_comb)
        result = static_compact(wb.sim, initial, max_transfer=50)
        n_sv = len(wb.circuit.ff_ids)
        # Every transfer accepted added < N_SV vectors.
        if result.stats.transfers_used:
            assert result.stats.transfer_vectors_added < \
                result.stats.transfers_used * n_sv

    def test_deterministic(self, s27_bench, s27_comb):
        wb = s27_bench
        initial = initial_set(wb, s27_comb)
        a = static_compact(wb.sim, initial, max_transfer=2, seed=5)
        b = static_compact(wb.sim, initial, max_transfer=2, seed=5)
        assert [t.vectors for t in a.test_set] == \
            [t.vectors for t in b.test_set]

    def test_on_synthetic_circuit(self, mid_bench, mid_comb):
        wb = mid_bench
        initial = ScanTestSet(
            len(wb.circuit.ff_ids),
            [single_vector_test(t.state, t.pi) for t in mid_comb.tests])
        before = union_coverage(wb, initial)
        result = static_compact(wb.sim, initial, max_transfer=3,
                                transfer_pool=[t.pi
                                               for t in mid_comb.tests])
        assert before <= union_coverage(wb, result.test_set)
        assert result.stats.final_cycles <= result.stats.initial_cycles

# Pinned outcomes of ``static_compact(..., max_transfer=2, seed=5)``:
# the transfer search builds every attempt of a length up front and
# grades them in one lane-batched pass; these values were recorded
# with a per-attempt ``detect`` loop at ``transfer_attempts=1`` (where
# both searches draw the same RNG sequence) and with the batched
# search at ``transfer_attempts=4``.
_S27_PINNED = {
    1: ([((0, 1, 1), ((0, 1, 0, 0), (1, 1, 0, 0), (0, 1, 1, 1),
                      (0, 0, 1, 0), (1, 0, 1, 0))),
         ((0, 1, 0), ((1, 1, 0, 1),)),
         ((0, 1, 0), ((1, 0, 0, 1),)),
         ((1, 1, 1), ((0, 0, 0, 1),))],
        {"combinations_accepted": 3, "combinations_tried": 19,
         "combinations_rejected": 0, "transfers_used": 1,
         "transfer_vectors_added": 1, "initial_tests": 7,
         "final_tests": 4, "initial_cycles": 31, "final_cycles": 23}),
    4: ([((1, 1, 1), ((0, 0, 0, 1), (0, 0, 0, 1), (0, 1, 1, 1),
                      (0, 0, 1, 0), (1, 0, 1, 0), (0, 0, 0, 0),
                      (1, 0, 0, 1), (0, 1, 0, 0), (1, 1, 0, 1)))],
        {"combinations_accepted": 6, "combinations_tried": 9,
         "combinations_rejected": 0, "transfers_used": 2,
         "transfer_vectors_added": 2, "initial_tests": 7,
         "final_tests": 1, "initial_cycles": 31, "final_cycles": 15}),
}


class TestPinnedTransferSearch:
    @pytest.mark.parametrize("attempts", sorted(_S27_PINNED))
    def test_s27(self, s27_bench, s27_comb, attempts):
        wb = s27_bench
        result = static_compact(wb.sim, initial_set(wb, s27_comb),
                                max_transfer=2, seed=5,
                                transfer_attempts=attempts)
        tests, stats = _S27_PINNED[attempts]
        assert [(t.scan_in, t.vectors)
                for t in result.test_set.tests] == tests
        assert vars(result.stats) == stats
        assert result.detected == set(range(len(wb.faults)))

    def test_single_attempt_on_synthetic_circuit(self, mid_bench,
                                                 mid_comb):
        """Ten accepted transfers, each found by a one-lane pass."""
        wb = mid_bench
        initial = ScanTestSet(
            len(wb.circuit.ff_ids),
            [single_vector_test(t.state, t.pi) for t in mid_comb.tests])
        result = static_compact(wb.sim, initial, max_transfer=2, seed=5,
                                transfer_attempts=1)
        assert vars(result.stats) == {
            "combinations_accepted": 21, "combinations_tried": 349,
            "combinations_rejected": 0, "transfers_used": 10,
            "transfer_vectors_added": 14, "initial_tests": 33,
            "final_tests": 12, "initial_cycles": 373,
            "final_cycles": 177}
        digest = hashlib.sha256(repr(
            [(t.scan_in, t.vectors)
             for t in result.test_set.tests]).encode()).hexdigest()
        assert digest.startswith("430489d9038f6c2a")
        assert len(result.detected) == 259
