"""Result checks and quality figures for one circuit job.

Three things are derived from a finished :class:`CircuitRun`:

* :func:`digest` -- a SHA-256 over every final set's detected faults,
  test vectors, ``N_cyc`` and TDF figures.  Two runs that produced the
  same results have the same digest, whatever route computed them.
* :func:`regrade` -- an independent re-derivation of the headline
  numbers: every final set is re-simulated on a fresh
  ``interp`` workbench without static analysis, one
  ``detect(..., early_exit=False)`` per test, and ``N_cyc`` is
  recomputed from the vectors.  It shares no simulation state, plan
  cache, kernel or fault-dropping scoreboard with the run.
* :func:`quality` -- the paper-level figures the benchmark reports
  (``N_cyc`` of the proposed and [4] sets, detected faults, at-speed
  pairs, TDF coverage).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import api
from repro.core.scan_test import ScanTestSet
from repro.sim import values as V

#: Label of the proposed arm whose final set the quality figures use
#: (the paper's sequential-generator ``T0``).
PROPOSED = "seqgen"


def final_sets(run: Any) -> Dict[str, Tuple[ScanTestSet, Set[int]]]:
    """Label -> (final test set, claimed detected faults)."""
    sets: Dict[str, Tuple[ScanTestSet, Set[int]]] = {}
    for source, arm in sorted(run.arms.items()):
        result = arm.result
        sets[source] = (result.compacted_set or result.test_set,
                        set(result.final_detected))
    if run.baseline4 is not None:
        sets["baseline4"] = (run.baseline4.test_set,
                             set(run.baseline4.detected))
    if run.dynamic is not None:
        sets["dynamic"] = (run.dynamic.test_set, set(run.dynamic.detected))
    return sets


def n_cyc(test_set: ScanTestSet) -> int:
    """``N_cyc = (k+1)*N_SV + sum L(T_i)``, counted from the vectors."""
    k = len(test_set.tests)
    if k == 0:
        return 0
    return (k + 1) * test_set.n_state_vars + sum(
        len(t.vectors) for t in test_set.tests)


def digest(run: Any) -> str:
    """Stable digest of everything the run claims about its final sets."""
    payload: Dict[str, Any] = {}
    delay = run.delay.sets if run.delay is not None else {}
    for label, (test_set, detected) in final_sets(run).items():
        summary = delay.get(label)
        payload[label] = {
            "detected": sorted(detected),
            "tests": [[V.vec_str(t.scan_in)]
                      + [V.vec_str(v) for v in t.vectors]
                      for t in test_set.tests],
            "n_cyc": test_set.clock_cycles(),
            "tdf": (None if summary is None else
                    [summary.detected, summary.faults,
                     round(summary.coverage, 2)]),
        }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def regrade(run: Any, netlist: Any) -> List[str]:
    """Independent re-derivation; returns the mismatches found."""
    wb = api.Workbench.for_netlist(netlist, engine="interp",
                                   static_analysis=False)
    problems: List[str] = []
    if len(wb.faults) != run.n_faults:
        problems.append(f"fault count {len(wb.faults)} != {run.n_faults}")
    delay = run.delay.sets if run.delay is not None else {}
    for label, (test_set, claimed) in final_sets(run).items():
        found: Set[int] = set()
        for test in test_set.tests:
            found |= wb.sim.detect(list(test.vectors), test.scan_in,
                                   early_exit=False)
        if found != claimed:
            problems.append(
                f"{label}: regraded {len(found)} detected faults, run "
                f"claims {len(claimed)} "
                f"(+{len(found - claimed)}/-{len(claimed - found)})")
        cycles = n_cyc(test_set)
        claims = {"clock_cycles": test_set.clock_cycles()}
        if label in delay:
            claims["delay total_cycles"] = delay[label].total_cycles
        for what, value in claims.items():
            if value != cycles:
                problems.append(f"{label}: {what} {value} != N_cyc "
                                f"{cycles} recounted from the vectors")
    return problems


def quality(run: Any) -> Dict[str, float]:
    """The paper-level figures of one run (summed by the caller)."""
    arm = run.arms[PROPOSED].result
    final = arm.compacted_set or arm.test_set
    summary = run.delay.sets[PROPOSED]
    return {
        "n_cyc_proposed": float(final.clock_cycles()),
        "n_cyc_baseline4": float(run.baseline4.test_set.clock_cycles()),
        "detected_faults": float(len(arm.final_detected)),
        "at_speed_pairs": float(final.at_speed_pairs()),
        "tdf_coverage_pct": float(summary.coverage),
    }


def check_job(run: Optional[Any], netlist: Any,
              expected: Optional[str]) -> Tuple[Optional[str], List[str]]:
    """Digest plus every mismatch of one job (``run`` None = no result)."""
    if run is None:
        return None, ["no result"]
    found = digest(run)
    problems = regrade(run, netlist)
    if expected is not None and found != expected:
        problems.append(f"digest {found} != reference {expected}")
    return found, problems
