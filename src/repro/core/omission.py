"""Phase 2: vector omission (ref [8] style static sequence compaction).

The contract from the paper: starting from ``tau_SO = (SI, T_SO)``
detecting ``F_SO``, omit as many vectors from ``T_SO`` as possible
without losing the detection of any fault in ``F_SO``.  (Omission may
*add* detections -- [8] notes the same -- the caller re-simulates at
the end to collect them.)

The search here differs from [8]'s restoration ordering but honours
the identical contract: a *block-first* greedy sweep from the tail.
At each position we first try to drop a whole block of vectors
(halving block sizes down to 1); every tentative drop is accepted only
if the shortened test still detects all required faults.

Removing vectors at position ``p`` leaves frames ``0..p-1`` untouched,
so the sweep keeps per-frame checkpoints (flip-flop state words and
cumulative PO-detection masks per fault word) and re-simulates only
the suffix of each tentative test -- an order-of-magnitude saving over
re-simulating from frame 0 for long sequences.

Word packing follows the simulator's ``fused_cap``: up to the cap
the whole required set rides in one fused word, so each tentative
omission costs a single suffix pass instead of one per 128-bit chunk.
Every tentative omission bumps
:attr:`~repro.sim.counters.SimCounters.omission_trials` and the
suffix passes are accounted as words/frames on the simulator's
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..sim import values as V
from ..sim.fault_sim import FaultSimulator, _Chunk
from .scan_test import ScanTest


@dataclass
class OmissionResult:
    """Outcome of a vector-omission run.

    Attributes
    ----------
    test:
        The shortened test ``tau_C = (SI, T_C)``.
    detected:
        Faults (within the required set) the shortened test detects --
        always a superset of the ``required`` argument.
    trials:
        Number of tentative omissions simulated.
    omitted:
        Number of vectors removed.
    """

    test: ScanTest
    detected: Set[int]
    trials: int
    omitted: int


class _CheckpointedRun:
    """Per-chunk frame checkpoints for suffix-only re-simulation.

    ``states[f]`` holds, per chunk, the flip-flop word pair *after*
    frame ``f`` (index 0 is the scan-in state, before any frame) and
    the cumulative PO-detection mask up to and including frame ``f``.
    """

    def __init__(self, sim: FaultSimulator, scan_in: V.Vector,
                 chunks: List[_Chunk]) -> None:
        self.sim = sim
        self.circuit = sim.circuit
        self.chunks = chunks
        self.scan_in = sim.embed_state(scan_in)
        self.scan_observe = (sim.scan_positions
                             if sim.scan_positions is not None
                             else range(len(sim.circuit.ff_ids)))
        init = []
        for chunk in chunks:
            ff_zero = []
            ff_one = []
            for val in self.scan_in:
                z, o = V.pack_scalar(val, chunk.mask)
                ff_zero.append(z)
                ff_one.append(o)
            init.append((ff_zero, ff_one, 0))
        self.states: List[List[Tuple[List[int], List[int], int]]] = [init]

    def _run_suffix(self, chunk_index: int, start_frame: int,
                    vectors: Sequence[V.Vector], record: bool
                    ) -> Tuple[int, int, List[Tuple]]:
        """Simulate ``vectors`` for one chunk from checkpoint
        ``start_frame``; returns (po_caught, final_scan_diff, trail).

        ``trail`` holds the per-frame checkpoint tuples when ``record``.
        """
        sim = self.sim
        circuit = self.circuit
        chunk = self.chunks[chunk_index]
        ff_zero, ff_one, caught = self.states[start_frame][chunk_index]
        if not record and vectors:
            backend = sim._array_backend()
            if backend is not None:
                # Array fast path: same loop inside the C kernel, with
                # the last-frame scan-out diff folded into the caught
                # mask (the caller ORs the two anyway).
                mask, frames_run = backend.run_suffix_chunk(
                    sim, chunk, vectors, ff_zero, ff_one, caught,
                    sim.scan_positions)
                if chunk_index == 0:
                    sim.counters.frames += frames_run
                return mask, 0, []
        zero = [0] * circuit.n_nets
        one = [0] * circuit.n_nets
        for nid, z, o in zip(circuit.ff_ids, ff_zero, ff_one):
            zero[nid], one[nid] = z, o
        trail: List[Tuple] = []
        scan_diff = 0
        last = len(vectors) - 1
        full = chunk.mask & ~1
        frames_run = 0
        for frame, vector in enumerate(vectors):
            sim._load_frame(chunk, zero, one, vector)
            circuit.eval_frame(zero, one, chunk.mask, chunk.stems,
                               chunk.branch)
            frames_run += 1
            ns_zero, ns_one = sim._next_state_words(chunk, zero, one)
            for nid in circuit.po_ids:
                caught |= sim._diff_word(zero[nid], one[nid])
            caught &= ~1  # the good machine (bit 0) never "detects"
            if frame == last:
                for pos in self.scan_observe:
                    scan_diff |= sim._diff_word(ns_zero[pos],
                                                ns_one[pos])
                scan_diff &= ~1
            if record:
                trail.append((list(ns_zero), list(ns_one), caught))
            elif caught == full:
                # Every machine is already PO-caught: the verdict of
                # this tentative omission cannot change, so the rest
                # of the suffix (and its scan-out) need not run.
                break
            for nid, z, o in zip(circuit.ff_ids, ns_zero, ns_one):
                zero[nid], one[nid] = z, o
        sim.counters.note_words(frames_run, len(chunk.indices))
        if chunk_index == 0:
            sim.counters.frames += frames_run
        return caught, scan_diff, trail

    def detected_by(self, start_frame: int,
                    suffix: Sequence[V.Vector]) -> Set[int]:
        """Faults detected by checkpoint-prefix + ``suffix`` test."""
        detected: Set[int] = set()
        for ci, chunk in enumerate(self.chunks):
            full = chunk.mask & ~1
            if suffix:
                if self.states[start_frame][ci][2] == full:
                    # Every fault of this chunk is already PO-detected
                    # within the untouched prefix: no need to simulate.
                    detected.update(chunk.indices)
                    continue
                caught, scan_diff, _ = self._run_suffix(ci, start_frame,
                                                        suffix, False)
                mask = caught | scan_diff
            else:
                # Scan-out right at the checkpoint: state diff equals
                # the checkpointed FF words versus good machine.
                ff_zero, ff_one, caught = self.states[start_frame][ci]
                sdiff = 0
                for pos in self.scan_observe:
                    sdiff |= self.sim._diff_word(ff_zero[pos],
                                                 ff_one[pos])
                mask = caught | (sdiff & ~1)
            for pos, fid in enumerate(chunk.indices):
                if mask & chunk.bit_of(pos):
                    detected.add(fid)
        return detected

    def rebuild(self, start_frame: int,
                suffix: Sequence[V.Vector]) -> None:
        """Adopt prefix+suffix as the new current sequence, extending
        checkpoints past ``start_frame`` from the recorded trail."""
        del self.states[start_frame + 1:]
        trails = []
        for ci in range(len(self.chunks)):
            _, _, trail = self._run_suffix(ci, start_frame, suffix, True)
            trails.append(trail)
        for f in range(len(suffix)):
            self.states.append([trails[ci][f]
                                for ci in range(len(self.chunks))])


def omit_vectors(
    sim: FaultSimulator,
    test: ScanTest,
    required: Set[int],
    initial_block: int = 16,
    passes: int = 2,
    retire_to=None,
) -> OmissionResult:
    """Shorten ``test`` while preserving detection of ``required``.

    Parameters
    ----------
    sim:
        Fault simulator for the circuit.
    test:
        The test to compact.
    required:
        Fault indices whose detection must be preserved (``F_SO``).
    initial_block:
        Largest omission block tried (halved on failure down to 1).
    passes:
        Number of full sweeps; a second sweep often finds vectors that
        became redundant after earlier removals.
    retire_to:
        Optional :class:`~repro.sim.scoreboard.FaultScoreboard`; the
        shortened test's detections are retired into it (the caller
        asserts the result is committed to the final test set).

    Raises
    ------
    ValueError
        If the input test does not detect all required faults.
    """
    vectors: List[V.Vector] = [tuple(v) for v in test.vectors]
    chunks = sim._build_chunks(sorted(required))
    run = _CheckpointedRun(sim, test.scan_in, chunks)
    run.rebuild(0, vectors)
    baseline = run.detected_by(len(vectors), [])
    if not required <= baseline:
        missing = len(required - baseline)
        raise ValueError(f"input test misses {missing} required faults")

    trials = 0
    removed_total = 0
    for _ in range(max(1, passes)):
        removed_this_pass = 0
        position = len(vectors) - 1
        while position >= 0 and len(vectors) > 1:
            block_cap = min(initial_block, position + 1,
                            len(vectors) - 1)
            accepted = False
            block = block_cap
            while block >= 1:
                start = position - block + 1
                suffix = vectors[position + 1:]
                trials += 1
                sim.counters.omission_trials += 1
                detected = run.detected_by(start, suffix)
                if required <= detected:
                    vectors = vectors[:start] + suffix
                    run.rebuild(start, suffix)
                    removed_this_pass += block
                    position = start - 1
                    accepted = True
                    break
                block //= 2
            if not accepted:
                position -= 1
        removed_total += removed_this_pass
        if removed_this_pass == 0:
            break

    final_detected = run.detected_by(len(vectors), [])
    if retire_to is not None:
        retire_to.retire(final_detected)
    result_test = ScanTest(test.scan_in, tuple(vectors))
    return OmissionResult(result_test, final_detected, trials,
                          removed_total)
