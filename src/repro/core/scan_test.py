"""Scan test datatypes and the paper's test-application cost model.

A scan test is ``tau = (SI, T, SO)``: scan in ``SI``, apply the
primary-input sequence ``T`` with the functional clock (at speed),
then scan out and compare against the expected fault-free state ``SO``.
Following the paper's Section 3 we usually omit ``SO`` from the
notation; here it is computed on demand from the fault-free simulation.

The cost model (paper Section 2): a test set ``{tau_1..tau_k}`` on a
circuit with ``N_SV`` scanned state variables needs

    N_cyc = (k + 1) * N_SV + sum_j L(T_j)

clock cycles -- ``k+1`` scan operations (scan-in of test ``j+1``
overlaps scan-out of test ``j``) plus one functional cycle per vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..sim import values as V
from ..sim.logicsim import CompiledCircuit, simulate_sequence


@dataclass(frozen=True)
class ScanTest:
    """One scan test ``(SI, T)``.

    Attributes
    ----------
    scan_in:
        The scan-in state vector (one value per flip-flop, scan order).
    vectors:
        The primary-input sequence ``T`` applied at speed, length >= 1.
    """

    scan_in: V.Vector
    vectors: Tuple[V.Vector, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError("a scan test needs at least one vector")

    @property
    def length(self) -> int:
        """``L(T)``: number of at-speed primary-input vectors."""
        return len(self.vectors)

    def expected_scan_out(self, circuit: CompiledCircuit) -> V.Vector:
        """The fault-free scan-out vector ``SO`` for this test."""
        return simulate_sequence(circuit, list(self.vectors),
                                 self.scan_in).final_state

    def combined_with(self, other: "ScanTest") -> "ScanTest":
        """The paper's *combining* operation: drop this test's scan-out
        and ``other``'s scan-in, concatenating the sequences."""
        return ScanTest(self.scan_in, self.vectors + other.vectors)

    def __str__(self) -> str:
        return (f"ScanTest(SI={V.vec_str(self.scan_in)}, "
                f"L={self.length})")


@dataclass
class ScanTestSet:
    """An ordered set of scan tests on one circuit."""

    n_state_vars: int
    tests: List[ScanTest] = field(default_factory=list)

    def __post_init__(self) -> None:
        for test in self.tests:
            self._check(test)

    def _check(self, test: ScanTest) -> None:
        if len(test.scan_in) != self.n_state_vars:
            raise ValueError(
                f"scan-in width {len(test.scan_in)} != "
                f"{self.n_state_vars} state variables")

    def add(self, test: ScanTest) -> None:
        self._check(test)
        self.tests.append(test)

    def __len__(self) -> int:
        return len(self.tests)

    def __iter__(self):
        return iter(self.tests)

    def __getitem__(self, i: int) -> ScanTest:
        return self.tests[i]

    # ------------------------------------------------------------------
    def clock_cycles(self) -> int:
        """``N_cyc = (k+1) * N_SV + sum L(T_j)`` (paper Section 2)."""
        k = len(self.tests)
        if k == 0:
            return 0
        return (k + 1) * self.n_state_vars + self.total_vectors()

    def total_vectors(self) -> int:
        """Total number of at-speed primary-input vectors."""
        return sum(t.length for t in self.tests)

    def sequence_lengths(self) -> List[int]:
        return [t.length for t in self.tests]

    def average_length(self) -> float:
        """Average at-speed sequence length (paper Table 4 ``ave``)."""
        if not self.tests:
            return 0.0
        return self.total_vectors() / len(self.tests)

    def length_range(self) -> Tuple[int, int]:
        """(min, max) at-speed sequence length (paper Table 4 ``range``)."""
        if not self.tests:
            return (0, 0)
        lengths = self.sequence_lengths()
        return (min(lengths), max(lengths))

    def at_speed_pairs(self) -> int:
        """Number of at-speed *vector pairs* -- consecutive functional
        cycles, the launch/capture opportunities for delay defects:
        ``sum_j (L(T_j) - 1)``."""
        return sum(t.length - 1 for t in self.tests)

    def copy(self) -> "ScanTestSet":
        return ScanTestSet(self.n_state_vars, list(self.tests))

    def replaced(self, index_a: int, index_b: int,
                 combined: ScanTest) -> "ScanTestSet":
        """A new set with tests ``index_a``/``index_b`` replaced by
        ``combined`` (order: combined takes ``index_a``'s slot)."""
        tests = [t for i, t in enumerate(self.tests)
                 if i not in (index_a, index_b)]
        tests.insert(min(index_a, index_b), combined)
        return ScanTestSet(self.n_state_vars, tests)


def single_vector_test(state: V.Vector, pi_vector: V.Vector) -> ScanTest:
    """The scan equivalent of a combinational test: ``(SI, (t))``."""
    return ScanTest(tuple(state), (tuple(pi_vector),))
