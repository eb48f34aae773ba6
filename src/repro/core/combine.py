"""Static compaction by combining tests (the procedure of ref [4]).

Combining ``tau_i = (SI_i, T_i)`` and ``tau_j = (SI_j, T_j)`` removes
``SO_i`` and ``SI_j`` and concatenates the sequences:
``tau_ij = (SI_i, T_i T_j)``.  Each combination saves one scan
operation (``N_SV`` clock cycles) and is accepted only if the *test
set's* fault coverage does not drop.  The procedure repeats until no
pair can be combined.

Implementation notes
--------------------
Checking "coverage does not drop" is done with essential-fault
bookkeeping: a fault is *essential* to a test when no other test in the
current set detects it.  A combination of ``tau_i`` and ``tau_j`` is
acceptable iff the combined test detects every fault essential to
either -- all other faults stay covered by the rest of the set.  On
acceptance the combined test is re-simulated over the whole target set
(coverage can also *grow*: the second sequence now runs from the state
the first one left behind).

Detection sets are cached per :class:`ScanTest` (tests are frozen and
hash by value) for the lifetime of one :func:`static_compact` call:
across rounds only a newly combined test is ever simulated from
scratch; every surviving test's set is reused.  Callers that already
know a test's detection set -- Phase 4 knows ``tau_seq``'s from the
Phase 1+2 pipeline -- seed the cache through ``known_detections`` and
skip even the initial simulation of those tests.  Essential-fault
bookkeeping needs exact per-test detection sets over the *full*
target, so no fault dropping is possible here beyond the cache; a
``retire_to`` scoreboard only receives the final coverage.

This module serves double duty as the paper's Phase 4 and as the [4]
baseline (applied to a single-vector-per-test initial set built from a
combinational test set).

Transfer sequences (ref [7])
----------------------------
The paper points to an improvement of [4]: when two tests cannot be
combined directly (the state left by ``T_i`` breaks ``tau_j``'s
detections), a short *transfer sequence* of primary-input vectors
inserted between them can steer the circuit into a usable state.  The
combination then saves ``N_SV - L(transfer)`` cycles instead of
``N_SV``, so only transfers shorter than the scan chain are worth
taking.  Enable with ``max_transfer > 0``; the paper runs [4] without
it ("we use the procedure of [4] for all our experiments"), so it
defaults off and is evaluated separately in the ablation bench.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from ..sim import values as V
from ..sim.fault_sim import TRIAL_LANES, FaultSimulator
from .scan_test import ScanTest, ScanTestSet

# A lane-batched trial pass targets the union of the batch's essential
# sets; past this many union faults the pass costs more than the lanes
# save, so prefetching stops collecting candidates (soundness does not
# depend on the value -- skipped pairs just prefetch later).
_PREFETCH_FAULT_CAP = 32


@dataclass
class CombineStats:
    """Bookkeeping from a static-compaction run."""

    combinations_accepted: int = 0
    combinations_tried: int = 0
    combinations_rejected: int = 0
    transfers_used: int = 0
    transfer_vectors_added: int = 0
    initial_tests: int = 0
    final_tests: int = 0
    initial_cycles: int = 0
    final_cycles: int = 0


@dataclass
class CombineResult:
    """Result of :func:`static_compact`."""

    test_set: ScanTestSet
    detected: Set[int]
    stats: CombineStats = field(default_factory=CombineStats)


def _detections(sim: FaultSimulator, tests: Sequence[ScanTest],
                target: Sequence[int],
                cache: Optional[Dict[ScanTest, Set[int]]] = None
                ) -> List[Set[int]]:
    """Per-test detection sets over ``target``, via ``cache`` when warm.

    Cached sets may cover a superset of ``target`` (e.g. seeded from a
    phase that simulated the whole fault list); they are intersected
    down.  Fresh simulations are stored back, so across
    :func:`static_compact` rounds only changed tests are re-simulated.
    """
    if cache is None:
        cache = {}
    target_set = set(target)
    out: List[Set[int]] = []
    for t in tests:
        det = cache.get(t)
        if det is None:
            det = sim.detect(list(t.vectors), t.scan_in, target=target,
                             early_exit=False)
            cache[t] = det
        out.append(det & target_set)
    return out


def _detection_counts(detects: List[Set[int]]) -> Dict[int, int]:
    """How many tests of the set detect each fault."""
    count: Dict[int, int] = {}
    for det in detects:
        for fid in det:
            count[fid] = count.get(fid, 0) + 1
    return count


def _essential_sets(detects: List[Set[int]], count: Dict[int, int]
                    ) -> Tuple[List[Set[int]], List[Set[int]]]:
    """Per-test singly- and doubly-covered fault sets.

    ``ess[k]`` holds the faults only test ``k`` detects; ``two[k]``
    those covered by exactly two tests, ``k`` among them.  The faults a
    candidate merge of tests ``i`` and ``j`` must keep -- the faults no
    *third* test covers -- are then ``ess[i] | ess[j] |
    (two[i] & two[j])``: a fault of the pair with no outside coverage
    is either singly covered by one of the two, or covered by exactly
    both (essential to the pair though to neither test alone).
    Precomputing the index once per ``count`` rebuild turns the
    per-pair essential computation into three C-level set operations.
    """
    ess: List[Set[int]] = []
    two: List[Set[int]] = []
    for det in detects:
        e: Set[int] = set()
        t: Set[int] = set()
        for fid in det:
            c = count[fid]
            if c == 1:
                e.add(fid)
            elif c == 2:
                t.add(fid)
        ess.append(e)
        two.append(t)
    return ess, two


def static_compact(
    sim: FaultSimulator,
    test_set: ScanTestSet,
    target: Optional[Set[int]] = None,
    max_rounds: int = 16,
    max_sequence_length: Optional[int] = None,
    max_transfer: int = 0,
    transfer_pool: Optional[Sequence[V.Vector]] = None,
    transfer_attempts: int = 4,
    seed: int = 0,
    known_detections: Optional[Dict[ScanTest, Set[int]]] = None,
    retire_to=None,
    merge_filter: Optional[Callable[[ScanTest], bool]] = None,
) -> CombineResult:
    """Compact ``test_set`` by combining test pairs ([4]).

    Parameters
    ----------
    sim:
        Fault simulator for the circuit.
    test_set:
        The initial tests (not mutated).
    target:
        Fault indices that define coverage; defaults to all faults.
    max_rounds:
        Safety bound on full passes (each pass needs at least one
        accepted combination to continue).
    max_sequence_length:
        Optional cap on combined sequence length (no cap by default,
        as in [4]).
    max_transfer:
        Maximum transfer-sequence length tried when a direct
        combination fails (ref [7]); 0 disables transfers (the paper's
        setting).  Transfers are capped at ``N_SV - 1`` regardless --
        longer ones cost more than the scan they replace.
    transfer_pool:
        Candidate transfer vectors (e.g. the primary-input parts of
        the combinational test set); random vectors fill in when
        absent.
    transfer_attempts:
        Candidate transfer sequences tried per length.
    seed:
        RNG seed for transfer candidates (deterministic).
    known_detections:
        Detection sets the caller already holds, per test, each over
        at least the target faults; seeds the per-test cache so those
        tests are never simulated from scratch.
    retire_to:
        Optional :class:`~repro.sim.scoreboard.FaultScoreboard`; the
        compacted set's coverage is retired into it.
    merge_filter:
        Optional predicate over a candidate *merged* test; a merge is
        only attempted when the predicate accepts the combined test
        (rejections are counted in ``combinations_rejected`` and
        cost no simulation).  Power-constrained compaction passes a
        peak-WTM budget check here
        (:func:`repro.power.constrain.wtm_budget_filter`); ``None``
        (the default) keeps the procedure of [4] byte-identical.
        The predicate must be deterministic: rejected pairs are
        remembered and never retried.

    Before a cache-missing merge trial runs, the upcoming candidate
    merges of the same row are prefetched -- up to
    :data:`~repro.sim.fault_sim.TRIAL_LANES`, one lane each, through
    :meth:`~repro.sim.fault_sim.FaultSimulator.detect_trials` -- and
    their exact detection records cached.  Results, stats and
    acceptance order are byte-identical to grading every trial with
    its own ``detect`` pass (the equivalence suite enforces it).
    """
    if target is None:
        target = set(range(len(sim.faults)))
    order = sorted(target)
    tests: List[ScanTest] = list(test_set.tests)
    stats = CombineStats(initial_tests=len(tests),
                         initial_cycles=test_set.clock_cycles())
    cache: Dict[ScanTest, Set[int]] = dict(known_detections or {})
    detects = _detections(sim, tests, order, cache)
    coverage = set().union(*detects) if detects else set()
    failed: Set[Tuple[ScanTest, ScanTest]] = set()
    # Speculative trial records: combined test -> (covered, detected).
    # ``detected`` is exact over ``covered``; because per-fault
    # detection is independent, ``detected & must`` equals the scalar
    # trial result for any ``must <= covered``.
    trial_cache: Dict[ScanTest, Tuple[Set[int], Set[int]]] = {}
    max_transfer = min(max_transfer, max(0, sim.n_state_vars - 1))
    rng = random.Random(seed)
    n_pi = len(sim.circuit.pi_ids)

    for _ in range(max_rounds):
        count = _detection_counts(detects)
        ess, two = _essential_sets(detects, count)
        accepted_any = False
        i = 0
        while i < len(tests):
            j = 0
            while j < len(tests):
                if i == j:
                    j += 1
                    continue
                first, second = tests[i], tests[j]
                if (first, second) in failed:
                    j += 1
                    continue
                if max_sequence_length is not None and \
                        first.length + second.length > max_sequence_length:
                    j += 1
                    continue
                combined = first.combined_with(second)
                if merge_filter is not None and \
                        not merge_filter(combined):
                    stats.combinations_rejected += 1
                    failed.add((first, second))
                    j += 1
                    continue
                must = ess[i] | ess[j] | (two[i] & two[j])
                stats.combinations_tried += 1
                sim.counters.combine_trials += 1
                det_must: Optional[Set[int]] = None
                hit = trial_cache.get(combined)
                if hit is None or not must <= hit[0]:
                    _prefetch_trials(sim, tests, ess, two, i, j, failed,
                                     max_sequence_length, merge_filter,
                                     trial_cache)
                    hit = trial_cache.get(combined)
                if hit is not None and must <= hit[0]:
                    det_must = hit[1] & must
                if det_must is None:
                    det_must = sim.detect(list(combined.vectors),
                                          combined.scan_in,
                                          target=sorted(must),
                                          early_exit=True)
                if not must <= det_must and max_transfer > 0:
                    transfer = _find_transfer_sequence(
                        sim, first, second, must, max_transfer,
                        transfer_pool, transfer_attempts, rng, n_pi)
                    if transfer is not None:
                        with_transfer = ScanTest(
                            first.scan_in,
                            first.vectors + tuple(transfer) +
                            second.vectors)
                        if merge_filter is not None and \
                                not merge_filter(with_transfer):
                            stats.combinations_rejected += 1
                        else:
                            combined = with_transfer
                            det_must = sim.detect(
                                list(combined.vectors),
                                combined.scan_in,
                                target=sorted(must),
                                early_exit=True)
                            if must <= det_must:
                                stats.transfers_used += 1
                                stats.transfer_vectors_added += \
                                    len(transfer)
                if must <= det_must:
                    det_full = cache.get(combined)
                    if det_full is None:
                        det_full = sim.detect(list(combined.vectors),
                                              combined.scan_in,
                                              target=order,
                                              early_exit=False)
                        cache[combined] = det_full
                    else:
                        det_full = det_full & target
                    hi, lo = max(i, j), min(i, j)
                    for idx in (hi, lo):
                        tests.pop(idx)
                        detects.pop(idx)
                    tests.insert(lo, combined)
                    detects.insert(lo, det_full)
                    coverage |= det_full
                    count = _detection_counts(detects)
                    ess, two = _essential_sets(detects, count)
                    stats.combinations_accepted += 1
                    accepted_any = True
                    if j < i:
                        i -= 1
                    j = 0  # rescan partners for the new combined test
                else:
                    failed.add((first, second))
                    j += 1
            i += 1
        if not accepted_any:
            break

    final = ScanTestSet(test_set.n_state_vars, tests)
    stats.final_tests = len(tests)
    stats.final_cycles = final.clock_cycles()
    if retire_to is not None:
        retire_to.retire(coverage)
    return CombineResult(final, coverage, stats)


def _prefetch_trials(
    sim: FaultSimulator,
    tests: Sequence[ScanTest],
    ess: Sequence[Set[int]],
    two: Sequence[Set[int]],
    i: int,
    j: int,
    failed: Set[Tuple[ScanTest, ScanTest]],
    max_sequence_length: Optional[int],
    merge_filter: Optional[Callable[[ScanTest], bool]],
    trial_cache: Dict[ScanTest, Tuple[Set[int], Set[int]]],
) -> None:
    """Speculatively simulate the upcoming merge trials of row ``i``.

    Scans forward over the partners the inner loop will visit next
    (mirroring its skip rules without touching its bookkeeping --
    stats, the failed set and rejection accounting stay with the main
    loop), batches the surviving candidate merges through
    :meth:`~repro.sim.fault_sim.FaultSimulator.detect_trials` one lane
    each, and records per-test ``(covered, detected)`` pairs in
    ``trial_cache``.  A record is exact for any essential set inside
    ``covered`` because per-fault detection is independent, so a pair
    the loop later visits with a *grown* essential set (an acceptance
    changed ``count`` in between) simply misses and re-prefetches;
    wrong speculation can waste lanes, never change a result.

    The batch is additionally capped by the *union* of essential sets
    (:data:`_PREFETCH_FAULT_CAP`): every lane pass targets the union,
    so disjoint essential sets would otherwise inflate the per-pass
    fault-group count quadratically with the lane count.  Stopping the
    scan early only shrinks the speculation window -- the skipped
    pairs prefetch on a later miss -- so results stay byte-identical
    for every cap value.
    """
    first = tests[i]
    ess_i = ess[i]
    two_i = two[i]
    pending: List[ScanTest] = []
    musts: Dict[ScanTest, Set[int]] = {}
    union: Set[int] = set()
    jj = j
    while jj < len(tests) and len(pending) < TRIAL_LANES:
        if jj == i:
            jj += 1
            continue
        second = tests[jj]
        if (first, second) in failed:
            jj += 1
            continue
        if max_sequence_length is not None and \
                first.length + second.length > max_sequence_length:
            jj += 1
            continue
        combined = first.combined_with(second)
        if merge_filter is not None and not merge_filter(combined):
            jj += 1
            continue
        must = ess_i | ess[jj] | (two_i & two[jj])
        hit = trial_cache.get(combined)
        if hit is not None and must <= hit[0]:
            jj += 1
            continue
        if pending and len(union | must) > _PREFETCH_FAULT_CAP:
            break
        union |= must
        if combined in musts:
            musts[combined] |= must
        else:
            musts[combined] = set(must)
            pending.append(combined)
        jj += 1
    if not pending:
        return
    if union:
        results = sim.detect_trials(
            [(t.scan_in, list(t.vectors)) for t in pending],
            target=sorted(union))
    else:
        results = [set() for _ in pending]
    for t, det in zip(pending, results):
        prev = trial_cache.get(t)
        if prev is None:
            trial_cache[t] = (set(union), det)
        else:
            trial_cache[t] = (prev[0] | union, prev[1] | det)


def _find_transfer_sequence(
    sim: FaultSimulator,
    first: ScanTest,
    second: ScanTest,
    must: Set[int],
    max_transfer: int,
    transfer_pool: Optional[Sequence[V.Vector]],
    attempts: int,
    rng: random.Random,
    n_pi: int,
) -> Optional[List[V.Vector]]:
    """A transfer sequence making ``first ++ transfer ++ second`` keep
    every pair-essential fault (ref [7]), or ``None``.

    Candidates per length: vectors from the pool (when given), a hold
    of ``first``'s last vector, and random vectors.  Shortest working
    transfer wins, since each transfer vector eats into the ``N_SV``
    cycles the combination saves.

    All candidates of a length are built up front and graded in one
    lane-batched pass; the winner is the lowest attempt number.  Every
    attempt of a round draws its RNG even when an earlier one works.
    """

    def _build(attempt: int, length: int) -> List[V.Vector]:
        transfer: List[V.Vector] = []
        for position in range(length):
            roll = (attempt + position) % 3
            if roll == 0 and transfer_pool:
                transfer.append(tuple(
                    transfer_pool[rng.randrange(len(transfer_pool))]))
            elif roll == 1:
                transfer.append(tuple(first.vectors[-1]))
            else:
                transfer.append(V.random_binary_vector(n_pi, rng))
        return transfer

    for length in range(1, max_transfer + 1):
        candidates = [_build(a, length) for a in range(attempts)]
        sim.counters.combine_trials += len(candidates)
        results = sim.detect_trials(
            [(first.scan_in,
              list(first.vectors) + list(c) + list(second.vectors))
             for c in candidates],
            target=sorted(must))
        for cand, det in zip(candidates, results):
            if must <= det:
                return cand
    return None
