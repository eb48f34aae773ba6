"""Bit-parallel parallel-fault sequential fault simulation.

The simulator packs faulty machines plus the fault-free machine
(always bit 0) into one pair of Python big-ints per net.  One pass
over a sequence costs ``frames x gates x words`` big-int operations
regardless of how many faults share a word, so the dominant cost is
the *number of words*, not their width: Python integers are
arbitrary-precision, and one 4096-bit AND is far cheaper than 32
separate 128-bit evaluation passes.

Packing (``fused_cap=``; not a user knob): **wide-word fusion** packs
every active fault of a pass into a single word pair per net, falling
back to balanced chunks of at most ``fused_cap`` machine bits for huge
fault sets (beyond a few thousand machine bits the per-digit cost of
big-int arithmetic starts to win over the per-pass interpreter
overhead).  The default is :data:`FUSED_CAP`; a smaller cap is the
chunked packing that tests, the sanitizer shadow and the
benchmarks' "before" arm (``fused_cap=128``: 127 faulty machines per
word) compare against.

Execution backend (``CompiledCircuit(engine=...)``): the packed words
are evaluated as Python big-ints (engines ``"interp"`` /
``"codegen"``), or -- under ``engine="auto"`` -- every pass runs in
the C pass kernel of :mod:`repro.sim.npsim` over ``uint64`` arrays
whenever the kernel loads, falling back to big-int codegen when it
does not.  Backends are result-identical: per-machine logic values do
not depend on how words are stored, and the cross-backend
equivalence suite plus the ``REPRO_SANITIZE`` shadow checks enforce
it.

Fault dropping: :meth:`FaultSimulator.detect` retires
already-detected machines *mid-pass* (``early_exit=True``) by
repacking the survivors into a narrower word, and can report
detections into a shared
:class:`~repro.sim.scoreboard.FaultScoreboard` so later phases build
smaller injection words.  Both mechanisms are pure accelerations:
per-machine logic values are independent of packing, so detection
sets are identical under every packing cap (enforced by the
equivalence test suite).

Instrumentation: every simulator bumps a
:class:`~repro.sim.counters.SimCounters` (frames, word evaluations,
machine bits, drops, repacks) -- see ``benchmarks/emit_bench.py``.

Three entry points cover all the needs of the compaction procedures:

* :meth:`FaultSimulator.detect` -- which target faults does a test
  ``(SI, T)`` (or a scan-less sequence) detect?  Supports early exit and
  in-pass retirement, used heavily by vector omission and combining.
* :meth:`FaultSimulator.run_with_records` -- a single full pass that
  records, per fault, the first frame with a primary-output difference
  and, per frame, which faults would be caught by a scan-out at that
  frame.  This turns the paper's Phase-1 Step 3 scan over all candidate
  scan-out times into one simulation plus a cheap post-pass (the result
  is identical to simulating every candidate, by construction).
* :meth:`FaultSimulator.detect_trials` -- the *transposed* packing
  mode: independent tests occupy the lanes (one lane per test, each
  with its own scan-in state and PI sequence) and each fault is
  injected across all lanes at once.  Phase-4 merge trials use it
  directly; :meth:`FaultSimulator.detect_candidates` is the batch
  whose trials share one sequence, turning the ``|C|`` sequence
  passes of Phase-1 Step 2 into ``ceil(F / groups-per-word)`` passes
  with per-lane detection words.  Both run the same lane pass (no
  in-pass repack) on either backend.  See DESIGN.md section 9.

Detection semantics (see DESIGN.md section 4): a binary good/faulty
difference at a primary output in any functional frame, or -- when a
scan-out is performed -- a binary difference in the flip-flop state
captured by the final frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from . import values as V
from ..analysis import sanitizer
from .counters import SimCounters
from .faults import FaultSet
from .logicsim import CompiledCircuit
from .scoreboard import FaultScoreboard

#: Lane budget of the trial drivers: at most this many Phase-4 merge
#: trials share one :meth:`FaultSimulator.detect_trials` pass, and at
#: most this many Phase-3 candidates share one PPSFP pattern block.
TRIAL_LANES = 64

#: Default machine-bit cap per fused word.  Beyond this the per-digit
#: cost of big-int ops outweighs the saved passes, so packing falls
#: back to balanced chunks of at most this many machines.  Tests pass
#: a smaller ``fused_cap=`` to :class:`FaultSimulator` to force
#: multi-chunk packings.
FUSED_CAP = 4096


#: In-pass retirement fires only when a word still has at least this
#: many machines (repacking tiny words saves nothing) ...
_REPACK_MIN_MACHINES = 64
#: ... at least half of them are already caught, and at least this many
#: frames remain to amortize the bit-gather cost of the repack.
_REPACK_MIN_FRAMES_LEFT = 8

#: Under ``REPRO_SANITIZE`` each simulator cross-checks its first few
#: ``detect`` passes against a freshly packed shadow engine (fused vs
#: chunked agreement) ...
_SANITIZE_SPOT_BUDGET = 3
#: ... but only for passes small enough that the doubled work stays
#: negligible.
_SANITIZE_SPOT_TARGET_CAP = 256


@dataclass
class _Chunk:
    """Injection data for one word of packed faulty machines."""

    indices: List[int]                 # global fault index of bit w+1
    mask: int                          # all machine bits incl. good bit 0
    stem0: Dict[int, int] = field(default_factory=dict)
    stem1: Dict[int, int] = field(default_factory=dict)
    stems: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    branch: Dict[int, List[Tuple[int, int, int]]] = field(
        default_factory=dict)
    ff_branch: List[Tuple[int, int, int]] = field(default_factory=list)
    src_stem_ids: List[int] = field(default_factory=list)

    def bit_of(self, position: int) -> int:
        """Machine bit for the fault at local position ``position``."""
        return 1 << (position + 1)


@dataclass
class _LaneChunk:
    """Injection data for one word of *lane-transposed* faulty machines.

    The word is laid out as ``n_groups`` blocks of ``n_lanes`` bits:
    block ``g`` carries fault ``indices[g]`` simulated simultaneously
    in every trial lane (lane ``k`` of every block runs trial ``k``).
    There is no good-machine bit -- the fault-free reference comes
    from a separate good pass over the same lanes.
    ``stems``/``branch``/``ff_branch`` use the same mask format as
    :class:`_Chunk`, with each fault's masks covering its whole lane
    block.
    """

    indices: List[int]                 # fault id of lane block g
    n_lanes: int
    mask: int                          # all n_groups * n_lanes bits
    stems: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    branch: Dict[int, List[Tuple[int, int, int]]] = field(
        default_factory=dict)
    ff_branch: List[Tuple[int, int, int]] = field(default_factory=list)
    src_stem_ids: List[int] = field(default_factory=list)

    @property
    def n_groups(self) -> int:
        return len(self.indices)

    @property
    def replication(self) -> int:
        """Multiplier replicating an ``n_lanes``-bit word into every
        lane block.  The shifted copies occupy disjoint bit ranges, so
        ``word * replication`` is an exact concatenation (no carries).
        """
        block = 1 << self.n_lanes
        return (block ** self.n_groups - 1) // (block - 1)


def _pack_trial_pi_lanes(
    np: Any,
    full_trials: Sequence[Tuple[V.Vector, Sequence[V.Vector]]],
    max_frames: int, n_pi: int,
) -> List[List[Tuple[int, int]]]:
    """Vectorised trial PI packing: ``pi_words[f][p]`` lane words.

    Equivalent to per-position :func:`~repro.sim.values.pack_lanes`
    over the trials (lane ``k`` carries trial ``k``'s vector value
    while active, X past its own end), but built from one uint8 value
    cube and two weighted reductions per 64-lane block -- the
    per-frame/per-PI Python packing loop is the top cost of a batched
    trial pass on circuits with more than a handful of inputs.
    """
    n_lanes = len(full_trials)
    vals = np.full((max_frames, n_pi, n_lanes), V.X, dtype=np.uint8)
    for k, (_, vecs) in enumerate(full_trials):
        if vecs:
            arr = np.asarray(vecs, dtype=np.uint8)
            vals[:arr.shape[0], :, k] = arr
    pi_z = [[0] * n_pi for _ in range(max_frames)]
    pi_o = [[0] * n_pi for _ in range(max_frames)]
    for base in range(0, n_lanes, 64):
        sub = vals[:, :, base:base + 64]
        weights = np.left_shift(
            np.uint64(1), np.arange(sub.shape[2], dtype=np.uint64))
        zw = ((sub == V.ZERO) * weights).sum(axis=2).tolist()
        ow = ((sub == V.ONE) * weights).sum(axis=2).tolist()
        for f in range(max_frames):
            zrow, orow, tz, to = zw[f], ow[f], pi_z[f], pi_o[f]
            for p in range(n_pi):
                tz[p] |= zrow[p] << base
                to[p] |= orow[p] << base
    return [list(zip(pi_z[f], pi_o[f])) for f in range(max_frames)]


@dataclass
class SimRecords:
    """Per-frame detection records from :meth:`FaultSimulator.run_with_records`.

    Attributes
    ----------
    n_frames:
        Number of simulated frames.
    po_first:
        For each detected-at-PO fault index, the first frame with a
        binary primary-output difference.
    scan_diff:
        ``scan_diff[frame]`` is the set of fault indices whose captured
        flip-flop state differs from the fault-free state after that
        frame (i.e. a scan-out at ``frame`` detects them).
    """

    n_frames: int
    po_first: Dict[int, int]
    scan_diff: List[Set[int]]

    def detected_with_scanout_at(self, frame: int) -> Set[int]:
        """Faults detected by the test truncated to ``frame`` + scan-out."""
        detected = {f for f, first in self.po_first.items() if first <= frame}
        detected |= self.scan_diff[frame]
        return detected

    def earliest_safe_scanout(self, required: Set[int]) -> Tuple[int, Set[int]]:
        """Smallest frame ``i`` whose truncated test detects ``required``.

        Mirrors the paper's Step 3: scan candidates ``i = 0, 1, ...`` and
        keep the first one that loses no fault of ``required``; at least
        ``n_frames - 1`` always qualifies when ``required`` equals the
        full-sequence detection set.

        Returns ``(i, detected_at_i)``.

        Raises
        ------
        ValueError
            If the records cover no frames (there is no candidate
            scan-out time unit at all), or if not even the full
            sequence detects ``required``.
        """
        if self.n_frames == 0:
            raise ValueError(
                "cannot select a scan-out time unit: the recorded test "
                "has no frames")
        pending = set(required)
        po_by_frame: List[Set[int]] = [set() for _ in range(self.n_frames)]
        for fid, first in self.po_first.items():
            if fid in pending:
                po_by_frame[first].add(fid)
        po_so_far: Set[int] = set()
        missing: Set[int] = pending
        for i in range(self.n_frames):
            po_so_far |= po_by_frame[i]
            missing = pending - po_so_far - self.scan_diff[i]
            if not missing:
                return i, self.detected_with_scanout_at(i)
        raise ValueError(
            f"{len(missing)} required faults not detected by the full test")


class FaultSimulator:
    """Parallel-fault simulator bound to one circuit and one fault set.

    ``fused_cap`` caps the machine bits of one packed word (see the
    module docstring): each pass's faults share one wide word up to
    the cap and balanced chunks beyond it.

    ``scan_positions`` turns the simulator into a *partial-scan* model:
    scan-in vectors cover (and scan-outs observe) only the flip-flops
    at those positions; the rest power up unknown and are never
    directly observed.  ``None`` means full scan.

    ``counters`` is the :class:`~repro.sim.counters.SimCounters` the
    inner loops bump; pass a shared instance to aggregate across
    simulators (one is created when omitted).
    """

    def __init__(self, circuit: CompiledCircuit, faults: FaultSet,
                 scan_positions: Optional[Sequence[int]] = None,
                 counters: Optional[SimCounters] = None,
                 fused_cap: int = FUSED_CAP) -> None:
        if fused_cap < 2:
            raise ValueError("fused_cap must allow at least one "
                             "faulty machine")
        self.circuit = circuit
        self.faults = faults
        self.fused_cap = fused_cap
        #: Sanitizer shadows set this to pin the big-int path, so a
        #: cross-check of an array-backend pass is cross-*backend* as
        #: well as cross-packing.
        self._force_bigint = False
        self.counters = counters if counters is not None else SimCounters()
        if scan_positions is None:
            self.scan_positions: Optional[List[int]] = None
            self.n_state_vars = len(circuit.ff_ids)
        else:
            self.scan_positions = sorted(scan_positions)
            if self.scan_positions and (
                    self.scan_positions[0] < 0 or
                    self.scan_positions[-1] >= len(circuit.ff_ids)):
                raise ValueError("scan position out of range")
            self.n_state_vars = len(self.scan_positions)
        net = circuit.netlist
        ids = net.net_ids
        self._source_ids = set(circuit.pi_ids) | set(circuit.ff_ids)
        self._ff_pos = {name: i for i, name in enumerate(net.flip_flops)}
        self._sanitize_spots_left = _SANITIZE_SPOT_BUDGET
        self._sanitize_shadow = False
        #: Representative indices of proven-untestable classes (set
        #: via :meth:`set_untestable`); excluded from every pass.
        self._untestable: frozenset = frozenset()
        # Precompute per-fault injection spec:
        #   ("stem", net_id) | ("branch", out_net_id, pin) | ("ff", ff_pos)
        self._spec: List[Tuple[Any, ...]] = []
        for fault in faults:
            if fault.pin is None:
                self._spec.append(("stem", ids[fault.net]))
            else:
                gate_name, pin = fault.pin
                gate = net.gates[gate_name]
                if gate.gtype == "DFF":
                    self._spec.append(("ff", self._ff_pos[gate_name]))
                else:
                    self._spec.append(("branch", ids[gate_name], pin))

    # ------------------------------------------------------------------
    def _array_backend(self) -> Optional[Any]:
        """The C-kernel backend to run passes with, or ``None``.

        Under ``engine="auto"`` every pass goes to the kernel when it
        loaded; other engines, a missing kernel and sanitizer shadows
        (which pin the big-int path) get ``None``.
        """
        if self._force_bigint:
            return None
        return self.circuit.array_backend

    # ------------------------------------------------------------------
    def set_untestable(self, indices: Optional[Sequence[int]]) -> None:
        """Exclude proven-untestable faults from every future pass.

        ``indices`` are fault indices whose untestability the static
        analyzer (:mod:`repro.analysis.faultspace`) *proved*.  A
        proven-untestable fault appears in no detection set, ever, so
        dropping its machines from every word changes no reported
        result -- only the machine-bit counters.  The untestability
        closure covers whole equivalence classes, so the exclusion is
        tracked per class representative.  Pass ``None`` (or an empty
        sequence) to clear.
        """
        if not indices:
            self._untestable = frozenset()
            return
        self._untestable = self.faults.untestable_reps(set(indices))
        self.counters.untestable_dropped += len(set(indices))

    def _prepare_target(
        self, target: Sequence[int],
    ) -> Tuple[Sequence[int], Optional[Dict[int, List[int]]]]:
        """Representative translation of a pass target.

        Returns ``(sim_target, expand)`` per
        :meth:`~repro.sim.faults.FaultSet.collapse_target`: the class
        representatives actually simulated and the map re-inflating
        their detections to the requested members (``None`` when no
        translation happened).
        """
        return self.faults.collapse_target(target, self._untestable)

    @staticmethod
    def _expand_detected(detected: Set[int],
                         expand: Dict[int, List[int]]) -> Set[int]:
        """Re-inflate a representative-level detection set to the
        requested class members (byte-identical: members of one class
        share every detection set exactly)."""
        out: Set[int] = set()
        for rep in detected:
            out.update(expand[rep])
        return out

    # ------------------------------------------------------------------
    def resolve_width(self, n_targets: int) -> int:
        """The word width a pass over ``n_targets`` faults will use.

        Everything fuses into one word up to ``fused_cap`` machines;
        beyond that, balanced chunks (all within one machine of each
        other) no wider than the cap -- e.g. 9000 faults over a 4096
        cap become three ~3000-machine words rather than two full
        ones and a 808-machine remainder.
        """
        if n_targets <= 0:
            return 2
        cap = self.fused_cap
        if n_targets + 1 <= cap:
            return n_targets + 1
        n_chunks = -(-n_targets // (cap - 1))     # ceil division
        return -(-n_targets // n_chunks) + 1

    def _build_chunks(self, indices: Sequence[int],
                      width: Optional[int] = None) -> List[_Chunk]:
        ordered = sorted(indices)
        if width is None:
            width = self.resolve_width(len(ordered))
        chunks: List[_Chunk] = []
        per = width - 1
        # Spread the faults evenly over ceil(n/per) chunks instead of
        # filling chunks to `per` and leaving a short remainder: sizes
        # end up within one machine of each other.
        n_chunks = max(1, -(-len(ordered) // per)) if ordered else 0
        groups: List[List[int]] = []
        start = 0
        for k in range(n_chunks):
            size = len(ordered) // n_chunks + \
                (1 if k < len(ordered) % n_chunks else 0)
            groups.append(ordered[start:start + size])
            start += size
        for group in groups:
            chunk = _Chunk(indices=group, mask=(1 << (len(group) + 1)) - 1)
            for pos, fid in enumerate(group):
                bit = chunk.bit_of(pos)
                spec = self._spec[fid]
                stuck = self.faults[fid].stuck
                if spec[0] == "stem":
                    target = chunk.stem1 if stuck else chunk.stem0
                    target[spec[1]] = target.get(spec[1], 0) | bit
                elif spec[0] == "branch":
                    m0 = bit if stuck == 0 else 0
                    m1 = bit if stuck == 1 else 0
                    chunk.branch.setdefault(spec[1], []).append(
                        (spec[2], m0, m1))
                else:  # ff data-pin branch fault
                    m0 = bit if stuck == 0 else 0
                    m1 = bit if stuck == 1 else 0
                    chunk.ff_branch.append((spec[1], m0, m1))
            chunk.stems = {
                nid: (chunk.stem0.get(nid, 0), chunk.stem1.get(nid, 0))
                for nid in set(chunk.stem0) | set(chunk.stem1)}
            chunk.src_stem_ids = [
                nid for nid in chunk.stems if nid in self._source_ids]
            chunks.append(chunk)
        return chunks

    @staticmethod
    def _apply_stem(chunk: _Chunk, zero: List[int], one: List[int],
                    nid: int) -> None:
        m0 = chunk.stem0.get(nid, 0)
        m1 = chunk.stem1.get(nid, 0)
        keep = chunk.mask & ~(m0 | m1)
        zero[nid] = (zero[nid] & keep) | m0
        one[nid] = (one[nid] & keep) | m1

    def _init_words(self, chunk: _Chunk, init_state: V.Vector
                    ) -> Tuple[List[int], List[int]]:
        n = self.circuit.n_nets
        zero = [0] * n
        one = [0] * n
        for nid, val in zip(self.circuit.ff_ids, init_state):
            zero[nid], one[nid] = V.pack_scalar(val, chunk.mask)
        return zero, one

    def _load_frame(self, chunk: _Chunk, zero: List[int], one: List[int],
                    vector: V.Vector) -> None:
        for nid, val in zip(self.circuit.pi_ids, vector):
            zero[nid], one[nid] = V.pack_scalar(val, chunk.mask)
        for nid in chunk.src_stem_ids:
            self._apply_stem(chunk, zero, one, nid)

    def _next_state_words(self, chunk: _Chunk, zero: List[int],
                          one: List[int]) -> Tuple[List[int], List[int]]:
        ns_zero = [zero[nid] for nid in self.circuit.ff_d_ids]
        ns_one = [one[nid] for nid in self.circuit.ff_d_ids]
        for pos, m0, m1 in chunk.ff_branch:
            keep = chunk.mask & ~(m0 | m1)
            ns_zero[pos] = (ns_zero[pos] & keep) | m0
            ns_one[pos] = (ns_one[pos] & keep) | m1
        return ns_zero, ns_one

    @staticmethod
    def _diff_word(zero: int, one: int) -> int:
        """Machines whose binary value differs from the good (bit 0) value."""
        if one & 1:
            return zero
        if zero & 1:
            return one
        return 0

    # ------------------------------------------------------------------
    @staticmethod
    def _gather_bits(word: int, positions: Sequence[int]) -> int:
        """Compress ``word`` to the machine bits at ``positions`` (in
        order): bit ``positions[i]`` of ``word`` becomes bit ``i``."""
        out = 0
        for i, p in enumerate(positions):
            out |= ((word >> p) & 1) << i
        return out

    def _repack(self, chunk: _Chunk, caught: int,
                ns_zero: List[int], ns_one: List[int]
                ) -> Tuple[_Chunk, List[int], List[int]]:
        """In-pass retirement: rebuild the pass state without the
        machines in ``caught``.

        Returns ``(new_chunk, zero, one)`` where the word arrays hold
        the surviving machines' flip-flop state (gathered from the
        next-state words) and every other net is zero -- sources are
        reloaded and gate outputs recomputed on the next frame, so no
        stale wide bits can leak into the narrower pass.
        """
        keep_positions = [0]       # the good machine always survives
        remaining: List[int] = []
        for pos, fid in enumerate(chunk.indices):
            if not caught & chunk.bit_of(pos):
                keep_positions.append(pos + 1)
                remaining.append(fid)
        new_chunk = self._build_chunks(remaining,
                                       width=len(remaining) + 1)[0]
        if sanitizer.enabled():
            sanitizer.check_chunk(new_chunk, "FaultSimulator.detect repack")
        n = self.circuit.n_nets
        zero = [0] * n
        one = [0] * n
        for ff_pos, nid in enumerate(self.circuit.ff_ids):
            zero[nid] = self._gather_bits(ns_zero[ff_pos], keep_positions)
            one[nid] = self._gather_bits(ns_one[ff_pos], keep_positions)
        return new_chunk, zero, one

    # ------------------------------------------------------------------
    def _check_vectors(self, vectors: Sequence[V.Vector]) -> None:
        n_pi = len(self.circuit.pi_ids)
        for i, vector in enumerate(vectors):
            if len(vector) != n_pi:
                raise ValueError(
                    f"vector {i} has width {len(vector)}, expected "
                    f"{n_pi} primary inputs")

    def embed_state(self, state: Optional[V.Vector]) -> V.Vector:
        """Expand a scan-width state vector to full flip-flop width.

        Under full scan this is the identity (modulo the all-X default
        for ``None``); under partial scan the scanned values land at
        their positions and every other flip-flop is X.
        """
        n_ff = len(self.circuit.ff_ids)
        if state is None:
            return V.all_x(n_ff)
        if self.scan_positions is None:
            if len(state) != n_ff:
                raise ValueError(
                    f"state width {len(state)} != {n_ff} flip-flops")
            return tuple(state)
        if len(state) != len(self.scan_positions):
            raise ValueError(
                f"state width {len(state)} != "
                f"{len(self.scan_positions)} scanned flip-flops")
        full = [V.X] * n_ff
        for pos, val in zip(self.scan_positions, state):
            full[pos] = val
        return tuple(full)

    def detect(
        self,
        vectors: Sequence[V.Vector],
        init_state: Optional[V.Vector] = None,
        target: Optional[Sequence[int]] = None,
        scan_out: bool = True,
        observe_po: bool = True,
        early_exit: bool = True,
        scan_observe: Optional[Sequence[int]] = None,
        retire_to: Optional[FaultScoreboard] = None,
    ) -> Set[int]:
        """Fault indices (within ``target``) detected by the test.

        Parameters
        ----------
        vectors:
            The primary-input sequence ``T`` (binary or 3-valued).
        init_state:
            The scan-in vector ``SI``; ``None`` simulates without scan
            from the all-X state (Phase-1 Step 1).
        target:
            Fault indices to simulate; defaults to the whole fault set.
        scan_out:
            When true, the flip-flop state captured by the last frame is
            observed (the trailing scan-out operation).
        observe_po:
            When false, primary outputs are ignored (useful in tests).
        early_exit:
            Stop as soon as every target fault is detected, and retire
            already-caught machines mid-pass by repacking the survivors
            into a narrower word (in-pass fault dropping; the returned
            set is unaffected).
        scan_observe:
            Flip-flop positions readable by the scan-out; ``None``
            means all (full scan).  A partial-scan chain observes only
            its scanned flip-flops.
        retire_to:
            Optional shared scoreboard; every detected fault is
            retired into it (the caller asserts this test is part of
            the committed test set).
        """
        if target is None:
            target = range(len(self.faults))
        self._check_vectors(vectors)
        init_state = self.embed_state(init_state)
        if scan_observe is None:
            scan_observe = self.scan_positions
        sim_target, expand = self._prepare_target(target)
        chunks = self._build_chunks(sim_target)
        if sanitizer.enabled():
            if retire_to is not None:
                sanitizer.check_fresh_targets(retire_to, target,
                                              "FaultSimulator.detect")
            for chunk in chunks:
                sanitizer.check_chunk(chunk, "FaultSimulator.detect")
        counters = self.counters
        counters.detect_passes += 1
        detected: Set[int] = set()
        last = len(vectors) - 1
        longest = 0
        for chunk in chunks:
            backend = self._array_backend()
            if backend is not None:
                longest = max(longest, backend.run_detect_chunk(
                    self, chunk, vectors, init_state, scan_out,
                    observe_po, early_exit, scan_observe, detected))
                continue
            zero, one = self._init_words(chunk, init_state)
            caught = 0  # machine bits already detected in this chunk
            frame = 0
            frames_done = 0
            while frame <= last:
                vector = vectors[frame]
                self._load_frame(chunk, zero, one, vector)
                self.circuit.eval_frame(zero, one, chunk.mask,
                                        chunk.stems, chunk.branch)
                counters.note_words(1, len(chunk.indices))
                frames_done += 1
                ns_zero, ns_one = self._next_state_words(chunk, zero, one)
                if observe_po:
                    for nid in self.circuit.po_ids:
                        caught |= self._diff_word(zero[nid], one[nid])
                if scan_out and frame == last:
                    if scan_observe is None:
                        for z, o in zip(ns_zero, ns_one):
                            caught |= self._diff_word(z, o)
                    else:
                        for pos in scan_observe:
                            caught |= self._diff_word(ns_zero[pos],
                                                      ns_one[pos])
                caught &= ~1
                if caught == chunk.mask & ~1:
                    # Saturated: every machine of this chunk is caught,
                    # so no further frame (or the scan-out) can change
                    # the result -- sound whatever ``early_exit`` says.
                    break
                if (early_exit and caught and
                        len(chunk.indices) >= _REPACK_MIN_MACHINES and
                        last - frame >= _REPACK_MIN_FRAMES_LEFT and
                        2 * bin(caught).count("1") >= len(chunk.indices)):
                    # In-pass retirement: bank the caught faults and
                    # carry on with a word half (or less) the size.
                    n_dropped = 0
                    for pos, fid in enumerate(chunk.indices):
                        if caught & chunk.bit_of(pos):
                            detected.add(fid)
                            n_dropped += 1
                    chunk, zero, one = self._repack(chunk, caught,
                                                    ns_zero, ns_one)
                    counters.repacks += 1
                    counters.faults_dropped += n_dropped
                    caught = 0
                    frame += 1
                    continue
                for nid, z, o in zip(self.circuit.ff_ids, ns_zero, ns_one):
                    zero[nid], one[nid] = z, o
                frame += 1
            longest = max(longest, frames_done)
            for pos, fid in enumerate(chunk.indices):
                if caught & chunk.bit_of(pos):
                    detected.add(fid)
        counters.frames += longest
        if (sanitizer.enabled() and not self._sanitize_shadow and
                self._sanitize_spots_left > 0 and vectors):
            # Shadow at representative level: reps are fixed points of
            # the translation, so the shadow's own re-translation is
            # the identity and the two rep-level sets must agree.
            self._sanitize_agreement(vectors, init_state,
                                     sorted(sim_target), scan_out,
                                     observe_po, scan_observe, detected)
        if expand is not None:
            detected = self._expand_detected(detected, expand)
        if retire_to is not None:
            retire_to.retire(detected)
        return detected

    def _sanitize_agreement(
        self, vectors: Sequence[V.Vector], full_state: V.Vector,
        target_list: List[int], scan_out: bool, observe_po: bool,
        scan_observe: Optional[Sequence[int]], detected: Set[int],
    ) -> None:
        """Spot-check one finished ``detect`` pass against a shadow
        simulator that splits the targets over at least two words
        (fused vs chunked), with early exit and retirement off.  The shadow
        always runs the big-int path (``_force_bigint``), so when the
        primary pass went through the C pass kernel this is a
        cross-backend check as well as a cross-packing one.  Budgeted
        per simulator and capped in target size; see the sanitizer
        module.
        """
        if not 0 < len(target_list) <= _SANITIZE_SPOT_TARGET_CAP:
            return
        self._sanitize_spots_left -= 1
        # Force genuine chunking: split the targets over >= 2 words.
        shadow_cap = max(2, len(target_list) // 2 + 1)
        shadow = FaultSimulator(self.circuit, self.faults,
                                counters=SimCounters(),
                                fused_cap=shadow_cap)
        shadow._sanitize_shadow = True
        shadow._force_bigint = True
        chunked = shadow.detect(vectors, init_state=full_state,
                                target=target_list, scan_out=scan_out,
                                observe_po=observe_po, early_exit=False,
                                scan_observe=scan_observe)
        sanitizer.check_agreement(
            set(detected), chunked,
            f"FaultSimulator.detect ({len(target_list)} targets, "
            f"fused_cap={self.fused_cap} vs {shadow_cap})")

    # ------------------------------------------------------------------
    def run_with_records(
        self,
        vectors: Sequence[V.Vector],
        init_state: Optional[V.Vector] = None,
        target: Optional[Sequence[int]] = None,
        scan_observe: Optional[Sequence[int]] = None,
    ) -> SimRecords:
        """Full-sequence pass recording PO-first-detect and scan-out diffs.

        One simulation of ``(init_state, vectors)`` that yields enough
        information to evaluate *every* truncated test
        ``(init_state, vectors[:i+1])`` exactly (paper Phase-1 Step 3).
        """
        if target is None:
            target = range(len(self.faults))
        self._check_vectors(vectors)
        init_state = self.embed_state(init_state)
        if scan_observe is None:
            scan_observe = self.scan_positions
        sim_target, expand = self._prepare_target(target)
        chunks = self._build_chunks(sim_target)
        counters = self.counters
        counters.record_passes += 1
        n_frames = len(vectors)
        counters.frames += n_frames
        po_first: Dict[int, int] = {}
        scan_diff: List[Set[int]] = [set() for _ in range(n_frames)]
        for chunk in chunks:
            backend = self._array_backend()
            if backend is not None:
                backend.run_records_chunk(self, chunk, vectors,
                                          init_state, scan_observe,
                                          po_first, scan_diff)
                continue
            zero, one = self._init_words(chunk, init_state)
            po_seen = 0
            for frame, vector in enumerate(vectors):
                self._load_frame(chunk, zero, one, vector)
                self.circuit.eval_frame(zero, one, chunk.mask,
                                        chunk.stems, chunk.branch)
                counters.note_words(1, len(chunk.indices))
                ns_zero, ns_one = self._next_state_words(chunk, zero, one)
                po_now = 0
                for nid in self.circuit.po_ids:
                    po_now |= self._diff_word(zero[nid], one[nid])
                po_new = po_now & ~po_seen & ~1
                if po_new:
                    for pos, fid in enumerate(chunk.indices):
                        if po_new & chunk.bit_of(pos):
                            po_first[fid] = frame
                    po_seen |= po_new
                sdiff = 0
                if scan_observe is None:
                    for z, o in zip(ns_zero, ns_one):
                        sdiff |= self._diff_word(z, o)
                else:
                    for pos in scan_observe:
                        sdiff |= self._diff_word(ns_zero[pos],
                                                 ns_one[pos])
                sdiff &= ~1
                if sdiff:
                    frame_set = scan_diff[frame]
                    for pos, fid in enumerate(chunk.indices):
                        if sdiff & chunk.bit_of(pos):
                            frame_set.add(fid)
                for nid, z, o in zip(self.circuit.ff_ids, ns_zero, ns_one):
                    zero[nid], one[nid] = z, o
        if expand is not None:
            # Members share the representative's per-frame behavior
            # exactly, so each record entry re-inflates verbatim.
            po_first = {m: first for rep, first in po_first.items()
                        for m in expand[rep]}
            scan_diff = [self._expand_detected(s, expand)
                         for s in scan_diff]
        return SimRecords(n_frames, po_first, scan_diff)

    # ------------------------------------------------------------------
    # Lane-transposed simulation: trial batches and candidate scans
    # ------------------------------------------------------------------

    def _lane_groups_per_word(self, n_lanes: int) -> int:
        """Fault groups per lane-transposed word: the packing cap
        divided by the lanes each group occupies, never below one
        group."""
        return max(1, self.fused_cap // n_lanes)

    def _build_lane_chunks(self, indices: Sequence[int],
                           n_lanes: int) -> List[_LaneChunk]:
        """Balanced lane-transposed chunks over sorted ``indices``."""
        ordered = sorted(indices)
        groups_per_word = self._lane_groups_per_word(n_lanes)
        n_chunks = max(1, -(-len(ordered) // groups_per_word)) \
            if ordered else 0
        lane_mask = (1 << n_lanes) - 1
        chunks: List[_LaneChunk] = []
        start = 0
        for k in range(n_chunks):
            size = len(ordered) // n_chunks + \
                (1 if k < len(ordered) % n_chunks else 0)
            group = ordered[start:start + size]
            start += size
            chunk = _LaneChunk(indices=group, n_lanes=n_lanes,
                               mask=(1 << (len(group) * n_lanes)) - 1)
            stem0: Dict[int, int] = {}
            stem1: Dict[int, int] = {}
            for g, fid in enumerate(group):
                block = lane_mask << (g * n_lanes)
                spec = self._spec[fid]
                stuck = self.faults[fid].stuck
                if spec[0] == "stem":
                    target = stem1 if stuck else stem0
                    target[spec[1]] = target.get(spec[1], 0) | block
                elif spec[0] == "branch":
                    m0 = block if stuck == 0 else 0
                    m1 = block if stuck == 1 else 0
                    chunk.branch.setdefault(spec[1], []).append(
                        (spec[2], m0, m1))
                else:  # ff data-pin branch fault
                    m0 = block if stuck == 0 else 0
                    m1 = block if stuck == 1 else 0
                    chunk.ff_branch.append((spec[1], m0, m1))
            chunk.stems = {
                nid: (stem0.get(nid, 0), stem1.get(nid, 0))
                for nid in set(stem0) | set(stem1)}
            chunk.src_stem_ids = [
                nid for nid in chunk.stems if nid in self._source_ids]
            chunks.append(chunk)
        return chunks

    def detect_candidates(
        self,
        vectors: Sequence[V.Vector],
        init_states: Sequence[V.Vector],
        target: Optional[Sequence[int]] = None,
        scan_out: bool = True,
        observe_po: bool = True,
        scan_observe: Optional[Sequence[int]] = None,
    ) -> List[Set[int]]:
        """Per-candidate detection sets of ``(SI_k, vectors)``, all at
        once -- the transposed packing mode behind Phase-1 scan-in
        selection.

        Instead of one full-sequence :meth:`detect` pass per candidate
        scan-in state (faults in the lanes, ``|C|`` passes), the
        *candidates* occupy the lanes: the call is a
        :meth:`detect_trials` batch whose trials all share
        ``vectors`` (so every lane is active on every frame and, with
        ``scan_out``, ends on the last one).

        Returns one detected-fault-index set per candidate, exactly
        equal to ``[detect(vectors, s, target, early_exit=False) for s
        in init_states]`` (the equivalence suite enforces this bit for
        bit).
        """
        self._check_vectors(vectors)
        if not init_states:
            return []
        self.counters.candidate_passes += 1
        shared = list(vectors)
        return self._detect_lanes(
            [(self.embed_state(s), shared) for s in init_states],
            target, scan_out, observe_po, scan_observe)

    def detect_trials(
        self,
        trials: Sequence[Tuple[Optional[V.Vector], Sequence[V.Vector]]],
        target: Optional[Sequence[int]] = None,
        scan_out: bool = True,
        observe_po: bool = True,
        scan_observe: Optional[Sequence[int]] = None,
    ) -> List[Set[int]]:
        """Per-trial detection sets of *independent* tests, all at once.

        Each trial is a ``(scan_in, vectors)`` pair -- its own scan-in
        state *and* its own PI sequence, unlike
        :meth:`detect_candidates` where every lane shares one
        sequence.  Trials occupy the lanes of lane-transposed words
        (one good pass simulates every trial's fault-free machine
        simultaneously, then each target fault is injected across all
        trial lanes), with two per-frame lane masks handling unequal
        lengths: lanes past their own last frame receive X inputs,
        stop being observed at primary outputs, and take their
        scan-out diff exactly at their own last frame.

        Returns one detected-fault-index set per trial, exactly equal
        to ``[detect(list(v), s, target=target, scan_out=scan_out,
        observe_po=observe_po, early_exit=False,
        scan_observe=scan_observe) for (s, v) in trials]`` (the
        equivalence suite enforces this bit for bit).  This is the
        engine behind Phase-4 merge-trial prefetching and the batched
        transfer-sequence checks; passes route through the array
        backend's lane kernel under ``engine="auto"``.
        """
        trial_list = list(trials)
        if not trial_list:
            return []
        full_trials: List[Tuple[V.Vector, List[V.Vector]]] = []
        for state, vectors in trial_list:
            self._check_vectors(vectors)
            full_trials.append((self.embed_state(state), list(vectors)))
        self.counters.trial_passes += 1
        self.counters.trial_lanes += len(full_trials)
        return self._detect_lanes(full_trials, target, scan_out,
                                  observe_po, scan_observe)

    def _detect_lanes(
        self,
        full_trials: Sequence[Tuple[V.Vector, Sequence[V.Vector]]],
        target: Optional[Sequence[int]],
        scan_out: bool, observe_po: bool,
        scan_observe: Optional[Sequence[int]],
    ) -> List[Set[int]]:
        """The lane pass behind :meth:`detect_trials` and
        :meth:`detect_candidates`: trial ``k`` (full-width state,
        vectors) in lane ``k`` of every lane block, one good pass,
        then one faulty pass per lane chunk (kernel or big-int)."""
        n_lanes = len(full_trials)
        results: List[Set[int]] = [set() for _ in range(n_lanes)]
        if scan_observe is None:
            scan_observe = self.scan_positions
        if target is None:
            target = range(len(self.faults))
        sim_target, expand = self._prepare_target(target)
        target_list = sorted(sim_target)
        counters = self.counters
        max_frames = max(len(v) for _, v in full_trials)
        if max_frames == 0 or not target_list:
            return results
        pi_words, acts, ends, good_po, good_scan = \
            self._good_trial_pass(full_trials, max_frames, observe_po,
                                  scan_out, scan_observe)
        counters.frames += max_frames
        init_words = [V.pack_lanes([s[ff_pos] for s, _ in full_trials])
                      for ff_pos in range(len(self.circuit.ff_ids))]
        slot_pos: List[int] = []
        if scan_out:
            slot_pos = list(range(len(self.circuit.ff_ids))
                            if scan_observe is None else scan_observe)
        chunks = self._build_lane_chunks(target_list, n_lanes)
        if sanitizer.enabled():
            for chunk in chunks:
                sanitizer.check_lane_chunk(
                    chunk, "FaultSimulator._detect_lanes")
        lane_mask = (1 << n_lanes) - 1
        longest = 0
        for chunk in chunks:
            backend = self._array_backend()
            if backend is not None:
                caught, frames_done = backend.run_lane_chunk(
                    self, chunk, max_frames, pi_words, acts, ends,
                    init_words, good_po, good_scan, slot_pos,
                    observe_po)
            else:
                caught, frames_done = self._run_trial_chunk(
                    chunk, max_frames, pi_words, acts, ends,
                    init_words, good_po, good_scan, slot_pos,
                    observe_po)
            longest = max(longest, frames_done)
            for g, fid in enumerate(chunk.indices):
                lanes = (caught >> (g * n_lanes)) & lane_mask
                k = 0
                while lanes:
                    if lanes & 1:
                        results[k].add(fid)
                    lanes >>= 1
                    k += 1
        counters.frames += longest
        if expand is not None:
            results = [self._expand_detected(lane, expand)
                       for lane in results]
        return results

    def _good_trial_pass(
        self, full_trials: Sequence[Tuple[V.Vector, Sequence[V.Vector]]],
        max_frames: int, observe_po: bool, scan_out: bool,
        scan_observe: Optional[Sequence[int]],
    ) -> Tuple[List[List[Tuple[int, int]]], List[int], List[int],
               List[List[Tuple[int, int]]],
               List[Optional[List[Tuple[int, int]]]]]:
        """One fault-free pass with trial ``k`` in lane ``k``.

        Returns ``(pi_words, acts, ends, po_frames, scan_frames)``:

        * ``pi_words[f][p]`` -- the lane word pair of PI ``p`` at
          frame ``f`` (trial ``k``'s own vector value while active,
          X once past its end);
        * ``acts[f]`` / ``ends[f]`` -- lane masks of the trials still
          active at frame ``f`` / whose *last* frame is ``f``;
        * ``po_frames[f]`` -- per-PO good lane words (empty lists
          when ``observe_po`` is false);
        * ``scan_frames[f]`` -- per-observed-slot good lane words of
          the state captured by frame ``f`` when some trial ends
          there (``None`` otherwise, and everywhere without
          ``scan_out``).
        """
        circuit = self.circuit
        n_lanes = len(full_trials)
        lane_mask = (1 << n_lanes) - 1
        acts: List[int] = []
        ends: List[int] = []
        for f in range(max_frames):
            a = 0
            e = 0
            for k, (_, vecs) in enumerate(full_trials):
                if f < len(vecs):
                    a |= 1 << k
                    if f == len(vecs) - 1:
                        e |= 1 << k
            acts.append(a)
            ends.append(e)
        slot_positions = (range(len(circuit.ff_ids))
                          if scan_observe is None else scan_observe)
        init_words = [V.pack_lanes([s[ff_pos] for s, _ in full_trials])
                      for ff_pos in range(len(circuit.ff_ids))]
        n_pi = len(circuit.pi_ids)
        backend = self._array_backend()
        if backend is not None:
            # The per-frame Python loop below dominates batched trial
            # passes; one kernel call computes the same good values.
            pi_words = _pack_trial_pi_lanes(backend.np, full_trials,
                                            max_frames, n_pi)
            po_frames, scan_frames = backend.run_good_lane_pass(
                self, n_lanes, max_frames, pi_words, ends,
                init_words, observe_po, list(slot_positions),
                scan_out)
            return pi_words, acts, ends, po_frames, scan_frames
        pi_words = [
            [V.pack_lanes([vecs[f][p] if f < len(vecs) else V.X
                           for _, vecs in full_trials])
             for p in range(n_pi)]
            for f in range(max_frames)]
        zero = [0] * circuit.n_nets
        one = [0] * circuit.n_nets
        for nid, (z, o) in zip(circuit.ff_ids, init_words):
            zero[nid], one[nid] = z, o
        po_frames: List[List[Tuple[int, int]]] = []
        scan_frames: List[Optional[List[Tuple[int, int]]]] = []
        for frame in range(max_frames):
            for (pz, po_), nid in zip(pi_words[frame], circuit.pi_ids):
                zero[nid], one[nid] = pz, po_
            circuit.eval_frame(zero, one, lane_mask)
            self.counters.note_words(1, n_lanes)
            po_frames.append([(zero[nid], one[nid])
                              for nid in circuit.po_ids]
                             if observe_po else [])
            ns = [(zero[nid], one[nid]) for nid in circuit.ff_d_ids]
            if scan_out and ends[frame]:
                scan_frames.append([ns[pos] for pos in slot_positions])
            else:
                scan_frames.append(None)
            for nid, (z, o) in zip(circuit.ff_ids, ns):
                zero[nid], one[nid] = z, o
        return pi_words, acts, ends, po_frames, scan_frames

    def _run_trial_chunk(
        self, chunk: _LaneChunk, n_frames: int,
        pi_words: Sequence[Sequence[Tuple[int, int]]],
        acts: Sequence[int], ends: Sequence[int],
        init_words: Sequence[Tuple[int, int]],
        good_po: Sequence[Sequence[Tuple[int, int]]],
        good_scan: Sequence[Optional[Sequence[Tuple[int, int]]]],
        slot_pos: Sequence[int], observe_po: bool,
    ) -> Tuple[int, int]:
        """One faulty big-int pass over a lane chunk.

        Per-lane PI words with the ``acts`` / ``ends`` gating; no
        in-pass repack (the kernel's lane pass has none either, so
        both backends report the same counters).  Returns
        ``(caught, frames_done)``.
        """
        circuit = self.circuit
        counters = self.counters
        n_lanes = chunk.n_lanes
        rep = chunk.replication
        full_mask = chunk.mask
        zero = [0] * circuit.n_nets
        one = [0] * circuit.n_nets
        for (z, o), nid in zip(init_words, circuit.ff_ids):
            zero[nid], one[nid] = z * rep, o * rep
        caught = 0
        frames_done = 0
        for frame in range(n_frames):
            for (pz, po_), nid in zip(pi_words[frame], circuit.pi_ids):
                zero[nid], one[nid] = pz * rep, po_ * rep
            for nid in chunk.src_stem_ids:
                m0, m1 = chunk.stems[nid]
                keep = full_mask & ~(m0 | m1)
                zero[nid] = (zero[nid] & keep) | m0
                one[nid] = (one[nid] & keep) | m1
            circuit.eval_frame(zero, one, full_mask, chunk.stems,
                               chunk.branch)
            counters.note_words(1, chunk.n_groups * n_lanes)
            frames_done += 1
            ns_zero = [zero[nid] for nid in circuit.ff_d_ids]
            ns_one = [one[nid] for nid in circuit.ff_d_ids]
            for pos, m0, m1 in chunk.ff_branch:
                keep = full_mask & ~(m0 | m1)
                ns_zero[pos] = (ns_zero[pos] & keep) | m0
                ns_one[pos] = (ns_one[pos] & keep) | m1
            if observe_po and acts[frame]:
                act_rep = acts[frame] * rep
                frame_po = good_po[frame]
                for po_i, nid in enumerate(circuit.po_ids):
                    gz, go = frame_po[po_i]
                    caught |= act_rep & (((gz * rep) & one[nid]) |
                                         ((go * rep) & zero[nid]))
            frame_scan = good_scan[frame]
            if frame_scan is not None:
                end_rep = ends[frame] * rep
                for slot_i, pos in enumerate(slot_pos):
                    gz, go = frame_scan[slot_i]
                    caught |= end_rep & (((gz * rep) & ns_one[pos]) |
                                         ((go * rep) & ns_zero[pos]))
            if caught == full_mask:
                # Every fault caught in every trial lane: no later
                # frame can change any per-trial set.
                break
            for nid, z, o in zip(circuit.ff_ids, ns_zero, ns_one):
                zero[nid], one[nid] = z, o
        return caught, frames_done

    # ------------------------------------------------------------------
    def incremental(self, init_state: Optional[V.Vector] = None,
                    target: Optional[Sequence[int]] = None
                    ) -> "IncrementalFaultSim":
        """An :class:`IncrementalFaultSim` positioned at frame 0."""
        return IncrementalFaultSim(self, init_state, target)


@dataclass
class StepPreview:
    """What one candidate vector would achieve (no state change)."""

    new_po_detections: int
    scan_diff_faults: int


class IncrementalFaultSim:
    """Frame-at-a-time fault simulation with lookahead.

    Used by the sequential sequence generator: carries the good and
    faulty machine state words across frames so a candidate next vector
    can be evaluated (:meth:`preview`) or committed (:meth:`apply`) in
    one combinational evaluation per word.

    Detection here is PO-only (the no-scan setting of the paper's
    ``T0`` generation); :meth:`scan_diff_count` exposes how many
    undetected faults a scan-out *would* catch right now.
    """

    def __init__(self, parent: FaultSimulator,
                 init_state: Optional[V.Vector] = None,
                 target: Optional[Sequence[int]] = None) -> None:
        self.parent = parent
        circuit = parent.circuit
        init_state = parent.embed_state(init_state)
        if target is None:
            target = range(len(parent.faults))
        sim_target, expand = parent._prepare_target(target)
        self._expand = expand
        self.chunks = parent._build_chunks(sim_target)
        self._words = [parent._init_words(c, init_state)
                       for c in self.chunks]
        self._caught = [0] * len(self.chunks)
        self.detected: Set[int] = set()
        self.n_frames = 0

    def _bit_weight(self, chunk: _Chunk, word: int) -> int:
        """Faults a machine-bit word stands for: a plain popcount
        without class translation, otherwise each representative bit
        weighted by its requested-member count (so previews match the
        uncollapsed arm's counts exactly)."""
        if self._expand is None:
            return bin(word).count("1")
        total = 0
        for pos, fid in enumerate(chunk.indices):
            if word & chunk.bit_of(pos):
                total += len(self._expand[fid])
        return total

    # ------------------------------------------------------------------
    def _eval_chunk(self, chunk: _Chunk, zero: List[int], one: List[int],
                    vector: V.Vector) -> Tuple[int, int, List[int],
                                               List[int]]:
        """Evaluate one frame for one chunk; returns
        ``(po_diff, scan_diff, ns_zero, ns_one)``."""
        parent = self.parent
        parent._load_frame(chunk, zero, one, vector)
        parent.circuit.eval_frame(zero, one, chunk.mask, chunk.stems,
                                  chunk.branch)
        parent.counters.note_words(1, len(chunk.indices))
        ns_zero, ns_one = parent._next_state_words(chunk, zero, one)
        po_diff = 0
        for nid in parent.circuit.po_ids:
            po_diff |= parent._diff_word(zero[nid], one[nid])
        scan_diff = 0
        for z, o in zip(ns_zero, ns_one):
            scan_diff |= parent._diff_word(z, o)
        return po_diff & ~1, scan_diff & ~1, ns_zero, ns_one

    def preview(self, vector: V.Vector) -> StepPreview:
        """Evaluate a candidate next vector without committing it."""
        new_po = 0
        sdiff_total = 0
        for ci, chunk in enumerate(self.chunks):
            zero, one = self._words[ci]
            zc, oc = list(zero), list(one)
            po_diff, scan_diff, _, _ = self._eval_chunk(chunk, zc, oc,
                                                        vector)
            fresh = po_diff & ~self._caught[ci]
            new_po += self._bit_weight(chunk, fresh)
            sdiff_total += self._bit_weight(
                chunk, scan_diff & ~self._caught[ci])
        return StepPreview(new_po, sdiff_total)

    def apply(self, vector: V.Vector) -> Set[int]:
        """Commit a vector; returns the newly PO-detected fault indices."""
        newly: Set[int] = set()
        for ci, chunk in enumerate(self.chunks):
            zero, one = self._words[ci]
            po_diff, _, ns_zero, ns_one = self._eval_chunk(chunk, zero,
                                                           one, vector)
            fresh = po_diff & ~self._caught[ci]
            if fresh:
                for pos, fid in enumerate(chunk.indices):
                    if fresh & chunk.bit_of(pos):
                        if self._expand is None:
                            newly.add(fid)
                        else:
                            newly.update(self._expand[fid])
                self._caught[ci] |= fresh
            for nid, z, o in zip(self.parent.circuit.ff_ids, ns_zero,
                                 ns_one):
                zero[nid], one[nid] = z, o
        self.detected |= newly
        self.n_frames += 1
        self.parent.counters.frames += 1
        return newly

    def good_state(self) -> V.Vector:
        """The fault-free machine's current flip-flop state."""
        circuit = self.parent.circuit
        if not self.chunks:
            return V.all_x(len(circuit.ff_ids))
        zero, one = self._words[0]
        return tuple(V.word_scalar(zero[nid], one[nid])
                     for nid in circuit.ff_ids)

    def scan_diff_count(self) -> int:
        """Undetected faults a scan-out right now would catch."""
        total = 0
        for ci, chunk in enumerate(self.chunks):
            zero, one = self._words[ci]
            sdiff = 0
            for nid in self.parent.circuit.ff_ids:
                sdiff |= self.parent._diff_word(zero[nid], one[nid])
            total += self._bit_weight(chunk,
                                      sdiff & ~1 & ~self._caught[ci])
        return total
