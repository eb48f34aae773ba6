"""Metrics reported in the paper's tables.

Everything here is a pure function of a test set (plus fault counts),
matching the definitions in Sections 2 and 4 of the paper:

* clock cycles: ``N_cyc = (k+1) N_SV + sum L(T_j)``;
* at-speed statistics: average and range of the primary-input sequence
  lengths (Table 4) -- these sequences run on the functional clock;
* coverage ratios against total and detectable fault counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from .scan_test import ScanTestSet


@dataclass(frozen=True)
class AtSpeedStats:
    """Table-4 row: at-speed sequence-length statistics."""

    average: float
    minimum: int
    maximum: int
    tests: int
    pairs: int  # launch/capture vector pairs: sum(L - 1)

    @property
    def range_str(self) -> str:
        """The paper's ``range`` column rendering, e.g. ``"1-68"``."""
        return f"{self.minimum}-{self.maximum}"


def clock_cycles(test_set: ScanTestSet) -> int:
    """``N_cyc`` for a test set (paper Section 2)."""
    return test_set.clock_cycles()


def at_speed_stats(test_set: ScanTestSet) -> AtSpeedStats:
    """At-speed sequence-length statistics (paper Table 4)."""
    lo, hi = test_set.length_range()
    return AtSpeedStats(
        average=round(test_set.average_length(), 2),
        minimum=lo,
        maximum=hi,
        tests=len(test_set),
        pairs=test_set.at_speed_pairs(),
    )


@dataclass(frozen=True)
class Coverage:
    """Fault-coverage summary."""

    detected: int
    total: int
    detectable: Optional[int] = None

    @property
    def percent_total(self) -> float:
        return 100.0 * self.detected / self.total if self.total else 0.0

    @property
    def percent_detectable(self) -> float:
        base = self.detectable if self.detectable else self.total
        return 100.0 * self.detected / base if base else 0.0

    def complete(self) -> bool:
        """True when every detectable fault is detected."""
        base = self.detectable if self.detectable is not None else self.total
        return self.detected >= base


def coverage(detected: Set[int], total: int,
             detectable: Optional[Set[int]] = None) -> Coverage:
    """Build a :class:`Coverage` from detection sets."""
    return Coverage(
        detected=len(detected),
        total=total,
        detectable=None if detectable is None else len(detectable),
    )
