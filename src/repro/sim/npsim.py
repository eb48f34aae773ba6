"""uint64 word-array simulation backend: the C pass kernel.

The big-int engine keeps every net's packed machines in a pair of
Python integers and pays interpreter overhead per gate *and* per
frame: one arbitrary-precision bitwise op is cheap, but a 330-gate
frame costs hundreds of microseconds of bytecode dispatch, dict
probes for injection sites, and list traffic on the branch-fault
slow path.  This module re-hosts a pass on arrays: per-net words
become a pair of ``(n_nets, n_words)`` ``uint64`` arrays (net-major
-- see DESIGN.md section 13 for the layout rationale) and the whole
pass loop runs in a *circuit-independent* C kernel compiled once per
run with cffi and the system C compiler.  The circuit (opcode/fanin
tables, PI/PO/flip-flop ids) and the chunk's injection sites (stem /
fanout-branch / flip-flop-branch forcing masks) cross into C as two
structs, ``repro_circuit`` (built once per :class:`ArrayBackend`) and
``repro_plan`` (built once per :class:`_ChunkPlan`), so a frame costs
a few microseconds with zero per-frame Python work; Python regains
control only at pass boundaries and at in-pass repack points.  The
struct types and entry points are declared once, in
``_KERNEL_CDEF``, which the C source itself starts with.

Every fault-simulation pass of the pipeline runs here: ``detect`` /
``run_with_records`` chunks, Phase-2 suffix trials, the lane passes
behind ``detect_trials`` / ``detect_candidates``, and the transition-
fault launch captures of :mod:`repro.delay.transition`
(:meth:`ArrayBackend.run_launch_capture`).

The kernel mirrors :meth:`repro.sim.fault_sim.FaultSimulator`'s
big-int pass loops operation for operation -- load, source stems,
topological gate evaluation with branch overrides and post-gate stem
forcing, next-state capture with flip-flop branch blends, PO / scan
observation, the ``caught`` bookkeeping, the saturation break and
the in-pass repack trigger -- so detection sets are byte-identical
to the big-int engines (enforced by ``tests/sim/test_engine_equivalence
.py`` and the sanitizer's cross-backend spot checks).

An :class:`ArrayBackend` exists only when the kernel loads.  numpy and
cffi are optional dependencies (the ``fast`` extra, ``pip install
repro[fast]``) and the kernel also needs a C compiler; without any of
them ``engine="auto"`` runs everything on the big-int codegen
evaluator (:func:`kernel_unavailable_reason` says why).
"""

from __future__ import annotations

import copy
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections import OrderedDict
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Set, Tuple, Union)

from . import values as V

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .counters import SimCounters
    from .fault_sim import FaultSimulator, _Chunk, _LaneChunk
    from .logicsim import CompiledCircuit


class MissingNumpyError(ImportError):
    """numpy is not installed (the backend cannot be built)."""


def require_numpy() -> Any:
    """Import and return numpy, or raise an actionable error."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy present in CI
        raise MissingNumpyError(
            "the uint64 array backend requires numpy; install the "
            "optional extra with `pip install repro[fast]`") from exc
    return numpy


def numpy_available() -> bool:
    """True when numpy can be imported."""
    try:
        require_numpy()
    except MissingNumpyError:
        return False
    return True


# ----------------------------------------------------------------------
# The circuit-independent C kernel
# ----------------------------------------------------------------------
# One C function runs a whole pass (many frames) over the array state.
# It is generated once -- the circuit and the injection plan travel as
# two structs, not in the source -- so the process pays a single
# sub-second compile no matter how many circuits it simulates.  Opcode
# values mirror logicsim's OP_* constants.
#
# _KERNEL_CDEF is the whole ABI: the two struct types and the three
# entry-point prototypes.  The C source starts with it, so the
# compiler rejects a definition whose types drift from what cffi
# declares (tests/sim/test_kernel_abi.py also pins parameter names
# and order).

_KERNEL_CDEF = """
typedef unsigned long long u64;

/* The circuit: gate tables in topological order and the PI, PO,
   flip-flop and flip-flop-data net ids.  Built once per backend. */
typedef struct {
    long n_gates;
    const int* g_op;
    const int* g_out;
    const long* g_foff;
    const int* g_fan;
    long n_pi;
    const int* pi_ids;
    long n_po;
    const int* po_ids;
    long n_ff;
    const int* ff_ids;
    const int* ffd_ids;
} repro_circuit;

/* One chunk's injection plan: word count and machine mask, stem
   forcing rows (per-net site table plus the stems on source nets),
   fanout-branch and flip-flop-branch rows, and the gate evaluator's
   scratch rows.  Built once per plan. */
typedef struct {
    long W;
    const u64* mask;
    long n_machines;
    const int* stem_site;
    const u64* st_f0;
    const u64* st_f1;
    const u64* st_keep;
    long n_src_stem;
    const int* src_stem_ids;
    const int* src_stem_site;
    const int* br_start;
    const int* br_count;
    const int* br_pin;
    const u64* br_f0;
    const u64* br_f1;
    const u64* br_keep;
    long n_ffbr;
    const int* ffbr_pos;
    const u64* ffbr_f0;
    const u64* ffbr_f1;
    const u64* ffbr_keep;
    u64* scr_z;
    u64* scr_o;
} repro_plan;

int repro_run_pass(
    const repro_circuit* c, const repro_plan* p,
    u64* zero, u64* one, const unsigned char* vecs,
    long start_frame, long last_frame, int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs, int early_exit,
    long repack_min_machines, long repack_min_frames_left,
    u64* rec_po, u64* rec_scan, u64* ns_zero, u64* ns_one,
    u64* caught, long* stop_frame, long* frames_done);
int repro_run_lane_pass(
    const repro_circuit* c, const repro_plan* p,
    u64* zero, u64* one, long n_frames,
    const u64* pi_zero, const u64* pi_one,
    const u64* act, const u64* end_mask, int observe_po,
    const u64* good_po_z, const u64* good_po_o,
    long n_slots, const int* slot_pos,
    const u64* good_sc_z, const u64* good_sc_o,
    u64* ns_zero, u64* ns_one, u64* caught, long* frames_done);
void repro_run_good_lane_pass(
    const repro_circuit* c, const repro_plan* p,
    u64* zero, u64* one, long n_frames,
    const u64* pi_zero, const u64* pi_one,
    int observe_po, u64* good_po_z, u64* good_po_o,
    long n_slots, const int* slot_pos,
    u64* good_sc_z, u64* good_sc_o,
    u64* ns_zero, u64* ns_one);
"""

_KERNEL_SOURCE = _KERNEL_CDEF + r"""
static void repro_blend(u64* z, u64* o, const u64* f0, const u64* f1,
                        const u64* keep, long W) {
    long w;
    for (w = 0; w < W; w++) {
        z[w] = (z[w] & keep[w]) | f0[w];
        o[w] = (o[w] & keep[w]) | f1[w];
    }
}

static void repro_diff_acc(const u64* z, const u64* o, u64* acc,
                           long W) {
    long w;
    if (o[0] & 1ULL) {
        for (w = 0; w < W; w++) acc[w] |= z[w];
    } else if (z[0] & 1ULL) {
        for (w = 0; w < W; w++) acc[w] |= o[w];
    }
}

/* Per-lane primary-input words of frame f (pre-replicated). */
static void repro_load_lanes(const repro_circuit* c, long W, long f,
                             u64* zero, u64* one,
                             const u64* pi_zero, const u64* pi_one) {
    long p, w;
    for (p = 0; p < c->n_pi; p++) {
        u64* z = zero + (long)c->pi_ids[p] * W;
        u64* o = one + (long)c->pi_ids[p] * W;
        const u64* pz = pi_zero + (f * c->n_pi + p) * W;
        const u64* po = pi_one + (f * c->n_pi + p) * W;
        for (w = 0; w < W; w++) { z[w] = pz[w]; o[w] = po[w]; }
    }
}

/* Stems on source nets (PIs and FF outputs), every frame. */
static void repro_src_stems(const repro_plan* p, u64* zero, u64* one) {
    long i, W = p->W;
    for (i = 0; i < p->n_src_stem; i++) {
        long nid = p->src_stem_ids[i];
        long s = p->src_stem_site[i];
        repro_blend(zero + nid * W, one + nid * W,
                    p->st_f0 + s * W, p->st_f1 + s * W,
                    p->st_keep + s * W, W);
    }
}

/* One frame of gate evaluation in topological order, with fanout-
   branch overrides and post-gate stem forcing -- shared by every
   pass so they can never drift apart. */
static void repro_eval_gates(const repro_circuit* c, const repro_plan* p,
                             u64* zero, u64* one) {
    long g, i, w, b, W = p->W;
    const u64* mask = p->mask;
    for (g = 0; g < c->n_gates; g++) {
        long out = c->g_out[g];
        long s = c->g_foff[g], e = c->g_foff[g + 1];
        long k = e - s;
        const u64* fz[64];
        const u64* fo[64];
        u64* zz = zero + out * W;
        u64* oo = one + out * W;
        int op = c->g_op[g];
        long bc = p->br_count[out];
        int ssite = p->stem_site[out];
        for (i = 0; i < k; i++) {
            fz[i] = zero + (long)c->g_fan[s + i] * W;
            fo[i] = one + (long)c->g_fan[s + i] * W;
        }
        if (bc) {
            /* Fanout-branch overrides: force this gate's view of
               the overridden fanin pins (scratch copies). */
            u64 copied = 0;
            for (b = p->br_start[out]; b < p->br_start[out] + bc; b++) {
                long pin = p->br_pin[b];
                u64* cz = p->scr_z + pin * W;
                u64* co = p->scr_o + pin * W;
                if (!((copied >> pin) & 1ULL)) {
                    for (w = 0; w < W; w++) {
                        cz[w] = fz[pin][w];
                        co[w] = fo[pin][w];
                    }
                    fz[pin] = cz;
                    fo[pin] = co;
                    copied |= 1ULL << pin;
                }
                repro_blend(cz, co, p->br_f0 + b * W, p->br_f1 + b * W,
                            p->br_keep + b * W, W);
            }
        }
        switch (op) {
        case 0: case 1:                  /* AND / NAND */
            for (w = 0; w < W; w++) { zz[w] = 0; oo[w] = mask[w]; }
            for (i = 0; i < k; i++)
                for (w = 0; w < W; w++) {
                    zz[w] |= fz[i][w];
                    oo[w] &= fo[i][w];
                }
            break;
        case 2: case 3:                  /* OR / NOR */
            for (w = 0; w < W; w++) { zz[w] = mask[w]; oo[w] = 0; }
            for (i = 0; i < k; i++)
                for (w = 0; w < W; w++) {
                    zz[w] &= fz[i][w];
                    oo[w] |= fo[i][w];
                }
            break;
        case 4: case 5:                  /* XOR / XNOR pairwise */
            for (w = 0; w < W; w++) {
                zz[w] = fz[0][w];
                oo[w] = fo[0][w];
            }
            for (i = 1; i < k; i++)
                for (w = 0; w < W; w++) {
                    u64 nz = (zz[w] & fz[i][w]) | (oo[w] & fo[i][w]);
                    u64 no = (zz[w] & fo[i][w]) | (oo[w] & fz[i][w]);
                    zz[w] = nz;
                    oo[w] = no;
                }
            break;
        case 6: case 7:                  /* NOT / BUF */
            for (w = 0; w < W; w++) {
                zz[w] = fz[0][w];
                oo[w] = fo[0][w];
            }
            break;
        case 8:                          /* CONST0 */
            for (w = 0; w < W; w++) { zz[w] = mask[w]; oo[w] = 0; }
            break;
        default:                         /* CONST1 */
            for (w = 0; w < W; w++) { zz[w] = 0; oo[w] = mask[w]; }
        }
        if (op == 1 || op == 3 || op == 5 || op == 6) {
            /* Inverting gate: swap the value rails. */
            for (w = 0; w < W; w++) {
                u64 t = zz[w];
                zz[w] = oo[w];
                oo[w] = t;
            }
        }
        if (ssite >= 0)
            repro_blend(zz, oo, p->st_f0 + (long)ssite * W,
                        p->st_f1 + (long)ssite * W,
                        p->st_keep + (long)ssite * W, W);
    }
}

/* Next state: captured FF data values + FF branch blends. */
static void repro_capture(const repro_circuit* c, const repro_plan* p,
                          const u64* zero, const u64* one,
                          u64* ns_zero, u64* ns_one) {
    long i, w, b, W = p->W;
    for (i = 0; i < c->n_ff; i++) {
        const u64* dz = zero + (long)c->ffd_ids[i] * W;
        const u64* dn = one + (long)c->ffd_ids[i] * W;
        u64* nz = ns_zero + i * W;
        u64* no = ns_one + i * W;
        for (w = 0; w < W; w++) { nz[w] = dz[w]; no[w] = dn[w]; }
    }
    for (b = 0; b < p->n_ffbr; b++)
        repro_blend(ns_zero + (long)p->ffbr_pos[b] * W,
                    ns_one + (long)p->ffbr_pos[b] * W,
                    p->ffbr_f0 + b * W, p->ffbr_f1 + b * W,
                    p->ffbr_keep + b * W, W);
}

/* Flip-flops take the captured next state. */
static void repro_advance(const repro_circuit* c, long W,
                          u64* zero, u64* one,
                          const u64* ns_zero, const u64* ns_one) {
    long i, w;
    for (i = 0; i < c->n_ff; i++) {
        u64* z = zero + (long)c->ff_ids[i] * W;
        u64* o = one + (long)c->ff_ids[i] * W;
        for (w = 0; w < W; w++) {
            z[w] = ns_zero[i * W + w];
            o[w] = ns_one[i * W + w];
        }
    }
}

/* Scan-out diff of the captured state: every flip-flop
   (n_scan_obs < 0) or the listed positions. */
static void repro_scan_diff(const repro_circuit* c, long W,
                            const u64* ns_zero, const u64* ns_one,
                            long n_scan_obs, const int* scan_obs,
                            u64* acc) {
    long i;
    if (n_scan_obs < 0) {
        for (i = 0; i < c->n_ff; i++)
            repro_diff_acc(ns_zero + i * W, ns_one + i * W, acc, W);
    } else {
        for (i = 0; i < n_scan_obs; i++)
            repro_diff_acc(ns_zero + (long)scan_obs[i] * W,
                           ns_one + (long)scan_obs[i] * W, acc, W);
    }
}

int repro_run_pass(
    const repro_circuit* c, const repro_plan* p,
    u64* zero, u64* one, const unsigned char* vecs,
    long start_frame, long last_frame, int observe_po, int scan_out,
    long n_scan_obs, const int* scan_obs, int early_exit,
    long repack_min_machines, long repack_min_frames_left,
    u64* rec_po, u64* rec_scan, u64* ns_zero, u64* ns_one,
    u64* caught, long* stop_frame, long* frames_done)
{
    long f, pi, i, w, W = p->W;
    const u64* mask = p->mask;
    for (f = start_frame; f <= last_frame; f++) {
        /* Load primary inputs (pack_scalar semantics: 0 -> zero row,
           1 -> one row, X -> neither). */
        const unsigned char* vec = vecs + f * c->n_pi;
        for (pi = 0; pi < c->n_pi; pi++) {
            u64* z = zero + (long)c->pi_ids[pi] * W;
            u64* o = one + (long)c->pi_ids[pi] * W;
            unsigned char v = vec[pi];
            for (w = 0; w < W; w++) {
                z[w] = (v == 0) ? mask[w] : 0;
                o[w] = (v == 1) ? mask[w] : 0;
            }
        }
        repro_src_stems(p, zero, one);
        repro_eval_gates(c, p, zero, one);
        (*frames_done)++;
        repro_capture(c, p, zero, one, ns_zero, ns_one);
        if (rec_po) {
            /* Records mode: per-frame PO and scan-out diff words, no
               early exit, flip-flops always advance. */
            u64* rp = rec_po + f * W;
            u64* rs = rec_scan + f * W;
            for (w = 0; w < W; w++) { rp[w] = 0; rs[w] = 0; }
            for (i = 0; i < c->n_po; i++)
                repro_diff_acc(zero + (long)c->po_ids[i] * W,
                               one + (long)c->po_ids[i] * W, rp, W);
            repro_scan_diff(c, W, ns_zero, ns_one, n_scan_obs,
                            scan_obs, rs);
            repro_advance(c, W, zero, one, ns_zero, ns_one);
            continue;
        }
        /* Detect mode: accumulate caught machines. */
        if (observe_po)
            for (i = 0; i < c->n_po; i++)
                repro_diff_acc(zero + (long)c->po_ids[i] * W,
                               one + (long)c->po_ids[i] * W, caught, W);
        if (scan_out && f == last_frame)
            repro_scan_diff(c, W, ns_zero, ns_one, n_scan_obs,
                            scan_obs, caught);
        caught[0] &= ~1ULL;
        {
            int sat = 1;
            for (w = 0; w < W; w++) {
                u64 m = mask[w];
                if (w == 0) m &= ~1ULL;
                if (caught[w] != m) { sat = 0; break; }
            }
            if (sat) { *stop_frame = f; return 1; }
        }
        if (early_exit) {
            u64 any = 0;
            long pc = 0;
            for (w = 0; w < W; w++) {
                any |= caught[w];
                pc += __builtin_popcountll(caught[w]);
            }
            if (any && p->n_machines >= repack_min_machines &&
                    (last_frame - f) >= repack_min_frames_left &&
                    2 * pc >= p->n_machines) {
                *stop_frame = f;
                return 2;
            }
        }
        repro_advance(c, W, zero, one, ns_zero, ns_one);
    }
    *stop_frame = last_frame + 1;
    return 0;
}

/* Lane-transposed trial pass: each lane carries an independent test
   (its own scan-in state and PI sequence), each lane *block* one
   injected fault, and the fault-free reference arrives pre-computed
   (and pre-replicated across blocks) from a separate good pass.
   `act` masks the lanes still inside their own sequence at a frame
   (PO observation), `end_mask` the lanes whose last frame it is
   (scan-out diff against the captured state).  No repack, no early
   exit beyond full saturation (status 1); mirrors FaultSimulator.
   _run_trial_chunk word for word. */
int repro_run_lane_pass(
    const repro_circuit* c, const repro_plan* p,
    u64* zero, u64* one, long n_frames,
    const u64* pi_zero, const u64* pi_one,
    const u64* act, const u64* end_mask, int observe_po,
    const u64* good_po_z, const u64* good_po_o,
    long n_slots, const int* slot_pos,
    const u64* good_sc_z, const u64* good_sc_o,
    u64* ns_zero, u64* ns_one, u64* caught, long* frames_done)
{
    long f, i, w, W = p->W;
    for (f = 0; f < n_frames; f++) {
        repro_load_lanes(c, W, f, zero, one, pi_zero, pi_one);
        repro_src_stems(p, zero, one);
        repro_eval_gates(c, p, zero, one);
        (*frames_done)++;
        repro_capture(c, p, zero, one, ns_zero, ns_one);
        if (observe_po) {
            const u64* a = act + f * W;
            for (i = 0; i < c->n_po; i++) {
                const u64* gz = good_po_z + (f * c->n_po + i) * W;
                const u64* go = good_po_o + (f * c->n_po + i) * W;
                const u64* fz = zero + (long)c->po_ids[i] * W;
                const u64* fo = one + (long)c->po_ids[i] * W;
                for (w = 0; w < W; w++)
                    caught[w] |= a[w] &
                        ((gz[w] & fo[w]) | (go[w] & fz[w]));
            }
        }
        if (n_slots) {
            const u64* e = end_mask + f * W;
            u64 any_end = 0;
            for (w = 0; w < W; w++) any_end |= e[w];
            if (any_end) {
                for (i = 0; i < n_slots; i++) {
                    const u64* gz = good_sc_z + (f * n_slots + i) * W;
                    const u64* go = good_sc_o + (f * n_slots + i) * W;
                    const u64* nz = ns_zero + (long)slot_pos[i] * W;
                    const u64* no = ns_one + (long)slot_pos[i] * W;
                    for (w = 0; w < W; w++)
                        caught[w] |= e[w] &
                            ((gz[w] & no[w]) | (go[w] & nz[w]));
                }
            }
        }
        {
            int sat = 1;
            for (w = 0; w < W; w++)
                if (caught[w] != p->mask[w]) { sat = 0; break; }
            if (sat) return 1;
        }
        repro_advance(c, W, zero, one, ns_zero, ns_one);
    }
    return 0;
}

/* Fault-free lane pass: the good-value reference for the trial pass
   above.  Each lane carries one trial's own PI sequence; no faults
   are injected (the caller passes an empty plan).  Emits per-frame PO
   lane words and the captured next-state words of the observed scan
   slots -- every frame, the Python caller slices by its end masks.
   Mirrors FaultSimulator._good_trial_pass word for word. */
void repro_run_good_lane_pass(
    const repro_circuit* c, const repro_plan* p,
    u64* zero, u64* one, long n_frames,
    const u64* pi_zero, const u64* pi_one,
    int observe_po, u64* good_po_z, u64* good_po_o,
    long n_slots, const int* slot_pos,
    u64* good_sc_z, u64* good_sc_o,
    u64* ns_zero, u64* ns_one)
{
    long f, i, w, W = p->W;
    for (f = 0; f < n_frames; f++) {
        repro_load_lanes(c, W, f, zero, one, pi_zero, pi_one);
        repro_eval_gates(c, p, zero, one);
        if (observe_po) {
            u64* gz = good_po_z + f * c->n_po * W;
            u64* go = good_po_o + f * c->n_po * W;
            for (i = 0; i < c->n_po; i++) {
                const u64* z = zero + (long)c->po_ids[i] * W;
                const u64* o = one + (long)c->po_ids[i] * W;
                for (w = 0; w < W; w++) {
                    gz[i * W + w] = z[w];
                    go[i * W + w] = o[w];
                }
            }
        }
        repro_capture(c, p, zero, one, ns_zero, ns_one);
        if (n_slots) {
            u64* sz = good_sc_z + f * n_slots * W;
            u64* so = good_sc_o + f * n_slots * W;
            for (i = 0; i < n_slots; i++) {
                long pos = slot_pos[i];
                for (w = 0; w < W; w++) {
                    sz[i * W + w] = ns_zero[pos * W + w];
                    so[i * W + w] = ns_one[pos * W + w];
                }
            }
        }
        repro_advance(c, W, zero, one, ns_zero, ns_one);
    }
}
"""

#: Kernel pass-loop return codes.
_STATUS_DONE = 0
_STATUS_SATURATED = 1
_STATUS_REPACK = 2

#: Process-lifetime kernel cache: (ffi, lib) or an unavailability
#: reason string.  Compiled lazily on first backend construction.
_KERNEL: Optional[Tuple[Any, Any]] = None
_KERNEL_ERROR: Optional[str] = None
_KERNEL_TRIED = False
#: A kernel object built for this process by its harness supervisor
#: (:func:`use_prebuilt_kernel`); None: compile one on first use.
_PREBUILT: Optional[str] = None


def _find_cc() -> Optional[str]:
    """The C compiler to use: ``$CC``, then ``cc``, then ``gcc``."""
    env = os.environ.get("CC")
    if env:
        return env if os.path.sep in env else shutil.which(env)
    return shutil.which("cc") or shutil.which("gcc")


def _kernel_cache_path() -> Optional[str]:
    """Cross-process kernel cache: ``$REPRO_KERNEL_CACHE/<hash>.so``.

    The filename is keyed on the kernel source *and* its cdef, so a
    restored cache directory (CI persists it across jobs) can never
    dlopen a shared object built from different source -- a source
    change simply misses the cache and recompiles.  Unset env means
    no cache: a harness run builds the kernel once for all its
    workers (:func:`_compile_kernel`), and any other process compiles
    into a private tempdir that it removes after loading.
    """
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        return None
    digest = hashlib.sha256(
        (_KERNEL_CDEF + _KERNEL_SOURCE).encode()).hexdigest()[:16]
    return os.path.join(root, f"repro_kernel-{digest}.so")


def _compile_kernel(so_path: str) -> None:
    """Build the pass kernel into ``so_path`` with the system C compiler.

    Needs neither numpy nor cffi, so a harness supervisor can build
    once for every worker of a run without importing either.  The
    object is compiled under a process-unique name beside ``so_path``
    and renamed into place, so concurrent builders of one path never
    expose a half-written file.  Raises ``RuntimeError`` when no
    compiler is found, ``OSError`` / ``subprocess.SubprocessError``
    when the build fails.
    """
    cc = _find_cc()
    if cc is None:
        raise RuntimeError("no C compiler found (set $CC)")
    stem = f"{so_path}.{os.getpid()}"
    c_path, tmp_so = stem + ".c", stem + ".tmp"
    try:
        with open(c_path, "w") as handle:
            handle.write(_KERNEL_SOURCE)
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path],
            check=True, capture_output=True, timeout=120)
        os.replace(tmp_so, so_path)
    finally:
        for path in (c_path, tmp_so):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass


def use_prebuilt_kernel(so_path: str) -> None:
    """Make this process's kernel load dlopen ``so_path`` (built by
    :func:`_compile_kernel` in a harness supervisor) instead of
    compiling.  The load stays lazy; a missing file falls back to a
    compile, and ``$REPRO_KERNEL_CACHE`` still wins when set."""
    global _PREBUILT
    _PREBUILT = so_path


def _load_kernel() -> Optional[Tuple[Any, Any]]:
    """Load the pass kernel once per process.

    Returns ``(ffi, lib)`` or ``None`` (reason in
    :func:`kernel_unavailable_reason`).  Never raises: a missing
    numpy, cffi or compiler just disables the fast path.  The first
    existing one of ``$REPRO_KERNEL_CACHE``'s entry and the
    supervisor's build (:func:`use_prebuilt_kernel`) is dlopened;
    failing both, the kernel is compiled into a private tempdir, which
    is removed once the object is mapped.
    """
    global _KERNEL, _KERNEL_ERROR, _KERNEL_TRIED
    if _KERNEL_TRIED:
        return _KERNEL
    _KERNEL_TRIED = True
    if not numpy_available():
        _KERNEL_ERROR = "numpy is not installed"
        return None
    try:
        from cffi import FFI
    except ImportError:
        _KERNEL_ERROR = "cffi is not installed"
        return None
    ffi = FFI()
    ffi.cdef(_KERNEL_CDEF)
    cached = _kernel_cache_path()
    for path in (cached, _PREBUILT):
        if path is not None and os.path.exists(path):
            try:
                _KERNEL = (ffi, ffi.dlopen(path))
                return _KERNEL
            except OSError:  # pragma: no cover - corrupt object
                pass  # fall through to a fresh compile
    if _find_cc() is None:
        _KERNEL_ERROR = "no C compiler found (set $CC)"
        return None
    tmpdir = tempfile.mkdtemp(prefix="repro-np-kernel-")
    so_path = os.path.join(tmpdir, "repro_kernel.so")
    try:
        _compile_kernel(so_path)
        # The mapping outlives the unlink in the finally (POSIX).
        lib = ffi.dlopen(so_path)
        if cached is not None:
            try:
                os.makedirs(os.path.dirname(cached), exist_ok=True)
                # Atomic publish: concurrent processes may race here,
                # but every writer produces an identical file.
                tmp_copy = f"{cached}.tmp-{os.getpid()}"
                shutil.copy(so_path, tmp_copy)
                os.replace(tmp_copy, cached)
            except OSError:  # pragma: no cover - read-only cache dir
                pass
    except Exception as exc:  # pragma: no cover - toolchain-specific
        _KERNEL_ERROR = f"kernel build failed: {exc}"
        return None
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    _KERNEL = (ffi, lib)
    return _KERNEL


def kernel_unavailable_reason() -> Optional[str]:
    """Why the C kernel is unavailable (None when it loaded)."""
    _load_kernel()
    return _KERNEL_ERROR


# ----------------------------------------------------------------------
# Per-chunk injection plan
# ----------------------------------------------------------------------

#: (dtype kind, item size) -> the cffi array type handed to a kernel
#: pointer (``dtype.name`` is a slow property on a per-pass path).
_CTYPES = {("u", 8): "u64[]", ("i", 4): "int[]", ("i", 8): "long[]",
           ("u", 1): "unsigned char[]"}


def _ptr(ffi: Any, arr: Any) -> Any:
    """Kernel pointer to a C-contiguous array's data.  Whoever stores
    it in a struct keeps ``arr`` alive for as long as the struct."""
    return ffi.from_buffer(_CTYPES[arr.dtype.kind, arr.itemsize], arr)


def _rows_array(np: Any, words: Sequence[int], n_words: int) -> Any:
    """Big-int words as a ``(max(1, len(words)), n_words)`` uint64
    array, in one buffer conversion (a per-row
    :func:`~repro.sim.values.word_to_array` loop is the plan-build
    hot spot on short passes)."""
    if not words:
        return np.zeros((1, n_words), dtype=np.uint64)
    size = n_words * 8
    data = b"".join(w.to_bytes(size, "little") for w in words)
    return np.frombuffer(data, dtype="<u8").reshape(
        len(words), n_words).copy()


#: The ``repro_plan`` pointer fields :meth:`_ChunkPlan.with_stems`
#: replaces.
_STEM_ARRAYS = ("stem_site", "st_f0", "st_f1", "st_keep",
                "src_stem_ids", "src_stem_site")


class _ChunkPlan:
    """Dense array form of one :class:`_Chunk`'s injection data, and
    the ``repro_plan`` struct (:attr:`c`) the kernel reads it through.

    Blend order mirrors the big-int engine exactly: branch entries
    apply in their list order, flip-flop branch entries likewise, and
    every blend uses its own ``keep = mask & ~(m0 | m1)`` -- so
    repeated sites on one pin compose identically.

    ``n_bits`` is the word width in machine bits; it defaults to the
    :class:`_Chunk` layout (``len(indices) + 1`` for the good bit)
    and must be passed explicitly for :class:`_LaneChunk` layouts
    (``n_groups * n_lanes``, no good bit) -- both chunk flavors carry
    the same ``mask`` / ``stems`` / ``branch`` / ``ff_branch`` /
    ``src_stem_ids`` fields this plan consumes.  The struct is built
    here, once; the arrays it points into live as long as the plan.
    """

    def __init__(self, backend: "ArrayBackend",
                 chunk: "Union[_Chunk, _LaneChunk]",
                 n_bits: Optional[int] = None) -> None:
        np = backend.np
        self.chunk = chunk
        if n_bits is None:
            n_bits = len(chunk.indices) + 1
        self.n_words = (n_bits + 63) // 64
        W = self.n_words
        self.mask = V.word_to_array(chunk.mask, W)
        n_nets = backend.circuit.n_nets

        stems = list(chunk.stems.items())
        self.stem_site = np.full(n_nets, -1, dtype=np.int32)
        for i, (nid, _) in enumerate(stems):
            self.stem_site[nid] = i
        self.st_f0 = _rows_array(np, [m0 for _, (m0, _) in stems], W)
        self.st_f1 = _rows_array(np, [m1 for _, (_, m1) in stems], W)
        self.st_keep = _rows_array(
            np, [chunk.mask & ~(m0 | m1) for _, (m0, m1) in stems], W)
        self.src_stem_ids = np.asarray(chunk.src_stem_ids,
                                       dtype=np.int32)
        self.src_stem_site = np.asarray(
            [int(self.stem_site[nid]) for nid in chunk.src_stem_ids],
            dtype=np.int32)

        self.br_start = np.zeros(n_nets, dtype=np.int32)
        self.br_count = np.zeros(n_nets, dtype=np.int32)
        br_pin: List[int] = []
        br_rows: List[Tuple[int, int]] = []
        for out, entries in chunk.branch.items():
            self.br_start[out] = len(br_pin)
            self.br_count[out] = len(entries)
            for pin, m0, m1 in entries:
                br_pin.append(pin)
                br_rows.append((m0, m1))
        self.br_pin = np.asarray(br_pin or [0], dtype=np.int32)
        self.br_f0 = _rows_array(np, [m0 for m0, _ in br_rows], W)
        self.br_f1 = _rows_array(np, [m1 for _, m1 in br_rows], W)
        self.br_keep = _rows_array(
            np, [chunk.mask & ~(m0 | m1) for m0, m1 in br_rows], W)

        self.ffbr_pos = np.asarray(
            [pos for pos, _, _ in chunk.ff_branch] or [0],
            dtype=np.int32)
        self.ffbr_f0 = _rows_array(
            np, [m0 for _, m0, _ in chunk.ff_branch], W)
        self.ffbr_f1 = _rows_array(
            np, [m1 for _, _, m1 in chunk.ff_branch], W)
        self.ffbr_keep = _rows_array(
            np, [chunk.mask & ~(m0 | m1)
                 for _, m0, m1 in chunk.ff_branch], W)
        self.scr_z = np.zeros((backend.max_arity, W), dtype=np.uint64)
        self.scr_o = np.zeros_like(self.scr_z)

        ffi = backend.ffi
        self.c = ffi.new("repro_plan*")
        self.c.W = W
        self.c.n_machines = len(chunk.indices)
        self.c.n_src_stem = len(chunk.src_stem_ids)
        self.c.n_ffbr = len(chunk.ff_branch)
        # Every pointer field is backed by the attribute of its name.
        self._point(ffi, [name for name, field
                          in ffi.typeof("repro_plan").fields
                          if field.type.kind == "pointer"])

    def _point(self, ffi: Any, names: Sequence[str]) -> None:
        for name in names:
            setattr(self.c, name, _ptr(ffi, getattr(self, name)))

    def with_stems(self, ffi: Any, stem_site: Any, st_f0: Any,
                   st_f1: Any, src_stem_ids: Any,
                   src_stem_site: Any) -> "_ChunkPlan":
        """This plan with its stem rows replaced (``keep`` derived
        from the mask); every other array, and the scratch rows, are
        shared with ``self``."""
        plan = copy.copy(self)
        plan.stem_site = stem_site
        plan.st_f0 = st_f0
        plan.st_f1 = st_f1
        plan.st_keep = self.mask[None, :] & ~(st_f0 | st_f1)
        plan.src_stem_ids = src_stem_ids
        plan.src_stem_site = src_stem_site
        plan.c = ffi.new("repro_plan*", self.c[0])
        plan.c.n_src_stem = len(src_stem_ids)
        plan._point(ffi, _STEM_ARRAYS)
        return plan


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------


class KernelUnavailableError(RuntimeError):
    """The C pass kernel could not be loaded (see
    :func:`kernel_unavailable_reason`)."""


class ArrayBackend:
    """C-kernel pass executor bound to one compiled circuit.

    Built lazily by :attr:`~repro.sim.logicsim.CompiledCircuit.
    array_backend` under ``engine="auto"``.  Construction loads (on
    first use, compiles) the kernel and raises
    :class:`KernelUnavailableError` when it cannot, then builds the
    circuit's ``repro_circuit`` struct (:attr:`c`) once.
    """

    def __init__(self, circuit: "CompiledCircuit") -> None:
        kernel = _load_kernel()
        if kernel is None:
            raise KernelUnavailableError(_KERNEL_ERROR)
        self.ffi, self.lib = kernel
        self.np = require_numpy()
        np = self.np
        self.circuit = circuit
        ops = circuit.ops
        self.max_arity = max([len(f) for _, _, f in ops] or [1])
        if self.max_arity > 64:  # pragma: no cover - absurd netlists
            raise ValueError(
                "numpy backend supports gates with at most 64 fanins")
        foff = [0]
        fan: List[int] = []
        for _, _, fins in ops:
            fan.extend(fins)
            foff.append(len(fan))

        def ids(values: Sequence[int]) -> Any:
            return np.asarray(list(values) or [0], dtype=np.int32)

        self.ff_ids = ids(circuit.ff_ids)
        # The struct points into these arrays; they live with self.
        self._tables = {
            "g_op": ids([op for op, _, _ in ops]),
            "g_out": ids([out for _, out, _ in ops]),
            "g_foff": np.asarray(foff, dtype=np.int64),
            "g_fan": ids(fan),
            "pi_ids": ids(circuit.pi_ids), "po_ids": ids(circuit.po_ids),
            "ff_ids": self.ff_ids, "ffd_ids": ids(circuit.ff_d_ids)}
        self.c = self.ffi.new("repro_circuit*", {
            "n_gates": len(ops), "n_pi": len(circuit.pi_ids),
            "n_po": len(circuit.po_ids), "n_ff": len(circuit.ff_ids),
            **{name: _ptr(self.ffi, arr)
               for name, arr in self._tables.items()}})
        #: Fault-free plans by machine-bit width (circuit-wide, so
        #: safely shared across simulators; see :meth:`_empty_plan`).
        self._empty_plans: "OrderedDict[int, _ChunkPlan]" = OrderedDict()
        self._src_ids = frozenset(circuit.pi_ids) | \
            frozenset(circuit.ff_ids)
        # The per-net stem-site table of the TDF launch plans, reused
        # across captures (entries the last capture set are cleared).
        self._launch_site = np.full(circuit.n_nets, -1, dtype=np.int32)
        self._launch_dirty: List[int] = []

    #: Plans retained by :meth:`_plan_for`.  Small: pipeline phases
    #: re-simulate a handful of target sets over and over (Phase-2
    #: omission trials alone issue thousands of short passes on the
    #: same set), and one bench1k plan is only a few hundred KB.
    _PLAN_CACHE_SIZE = 8
    #: Fault-free plans retained by :meth:`_empty_plan`: good lane
    #: passes use one or two widths, but TDF launch groups come in
    #: dozens of sizes (each plan is a few KB).
    _EMPTY_PLAN_CACHE_SIZE = 64

    def _plan_for(self, sim: "FaultSimulator",
                  chunk: "Union[_Chunk, _LaneChunk]",
                  n_bits: Optional[int] = None) -> _ChunkPlan:
        """The injection plan for ``chunk``, LRU-cached by fault set.

        A chunk's stems/branches/mask are a pure function of its
        fault indices (in order) for a fixed circuit and fault list,
        so an equal index tuple means an identical plan.  Lane-chunk
        plans additionally depend on the lane count (the injection
        masks replicate per lane block), which ``n_bits`` encodes
        into the key.  The cache lives on the simulator (not this
        backend, which is shared per-circuit across simulators whose
        fault lists may differ).  Repacked chunks are per-call
        transients and bypass the cache.
        """
        cache: "OrderedDict[Tuple[Any, ...], _ChunkPlan]" = \
            sim.__dict__.setdefault("_np_plan_cache", OrderedDict())
        if n_bits is None:
            key: Tuple[Any, ...] = tuple(chunk.indices)
        else:
            key = ("lane", n_bits, *chunk.indices)
        plan = cache.get(key)
        if plan is None:
            plan = _ChunkPlan(self, chunk, n_bits)
            cache[key] = plan
            if len(cache) > self._PLAN_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
            plan.chunk = chunk
        return plan

    def _empty_plan(self, n_bits: int) -> _ChunkPlan:
        """The fault-free plan over ``n_bits`` machine bits (mask all
        ones, ``n_bits - 1`` machines beside bit 0): the good lane
        pass's plan and the TDF propagation suffix's, LRU-cached."""
        plan = self._empty_plans.get(n_bits)
        if plan is None:
            from .fault_sim import _Chunk
            plan = _ChunkPlan(self, _Chunk(indices=list(range(n_bits - 1)),
                                           mask=(1 << n_bits) - 1))
            self._empty_plans[n_bits] = plan
            if len(self._empty_plans) > self._EMPTY_PLAN_CACHE_SIZE:
                self._empty_plans.popitem(last=False)
        else:
            self._empty_plans.move_to_end(n_bits)
        return plan

    # ------------------------------------------------------------------
    def _init_state(self, plan: _ChunkPlan,
                    init_state: V.Vector) -> Tuple[Any, Any]:
        """Array state with the flip-flop rows packed from a vector
        (:func:`repro.sim.values.pack_scalar` semantics)."""
        np = self.np
        W = plan.n_words
        zero = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        one = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        for nid, val in zip(self.circuit.ff_ids, init_state):
            if val == V.ZERO:
                zero[nid] = plan.mask
            elif val == V.ONE:
                one[nid] = plan.mask
        return zero, one

    def _state_from_words(self, plan: _ChunkPlan,
                          zero_words: Sequence[int],
                          one_words: Sequence[int]) -> Tuple[Any, Any]:
        """Array state from full per-net big-int word lists (used to
        resume after an in-pass repack)."""
        np = self.np
        W = plan.n_words
        zero = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        one = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        for nid in self.circuit.ff_ids:
            if zero_words[nid]:
                zero[nid] = V.word_to_array(zero_words[nid], W)
            if one_words[nid]:
                one[nid] = V.word_to_array(one_words[nid], W)
        return zero, one

    def _next_state(self, W: int) -> Tuple[Any, Any]:
        """Zeroed next-state rows (one per flip-flop) for a pass."""
        np = self.np
        ns_zero = np.zeros((max(1, len(self.circuit.ff_ids)), W),
                           dtype=np.uint64)
        return ns_zero, np.zeros_like(ns_zero)

    def _vec_array(self, vectors: Sequence[V.Vector]) -> Any:
        """The PI sequence as a ``(n_frames, n_pi)`` uint8 array
        (0 / 1 / X scalars; width-independent)."""
        np = self.np
        arr = np.asarray(vectors, dtype=np.uint8)
        if arr.ndim == 1:  # zero PIs
            arr = arr.reshape(len(vectors), 0)
        return np.ascontiguousarray(arr)

    # ------------------------------------------------------------------
    def _run_pass(
        self, plan: _ChunkPlan, zero: Any, one: Any, vec_arr: Any,
        start: int, last: int, observe_po: bool, scan_out: bool,
        scan_observe: Optional[Sequence[int]], early_exit: bool,
        ns_zero: Any, ns_one: Any, caught: Any,
        rec_po: Optional[Any] = None, rec_scan: Optional[Any] = None,
    ) -> Tuple[int, int, int]:
        """One ``repro_run_pass`` call; returns ``(status, stop_frame,
        frames)``."""
        from . import fault_sim as FS
        ffi = self.ffi
        if scan_observe is None:
            n_scan_obs, obs = -1, [0]
        else:
            n_scan_obs, obs = len(scan_observe), list(scan_observe) or [0]
        scan_obs = self.np.asarray(obs, dtype=self.np.int32)
        stop = ffi.new("long*")
        frames = ffi.new("long*")
        status = self.lib.repro_run_pass(
            self.c, plan.c, _ptr(ffi, zero), _ptr(ffi, one),
            _ptr(ffi, vec_arr), start, last, int(observe_po),
            int(scan_out), n_scan_obs, _ptr(ffi, scan_obs),
            int(early_exit), FS._REPACK_MIN_MACHINES,
            FS._REPACK_MIN_FRAMES_LEFT,
            ffi.NULL if rec_po is None else _ptr(ffi, rec_po),
            ffi.NULL if rec_scan is None else _ptr(ffi, rec_scan),
            _ptr(ffi, ns_zero), _ptr(ffi, ns_one), _ptr(ffi, caught),
            stop, frames)
        return int(status), int(stop[0]), int(frames[0])

    # ------------------------------------------------------------------
    def run_detect_chunk(
        self, sim: "FaultSimulator", chunk: "_Chunk",
        vectors: Sequence[V.Vector], init_state: V.Vector,
        scan_out: bool, observe_po: bool, early_exit: bool,
        scan_observe: Optional[Sequence[int]], detected: Set[int],
    ) -> int:
        """One chunk of :meth:`FaultSimulator.detect` on arrays.

        Mirrors the big-int chunk loop exactly (saturation break,
        in-pass repack via the parent's :meth:`_repack`, counter
        accounting) and accumulates into ``detected``.  Returns the
        number of frames simulated.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        last = len(vectors) - 1
        if last < 0:
            return 0
        vec_arr = self._vec_array(vectors)
        plan = self._plan_for(sim, chunk)
        zero, one = self._init_state(plan, init_state)
        caught_arr = np.zeros(plan.n_words, dtype=np.uint64)
        ns_zero, ns_one = self._next_state(plan.n_words)
        frames_total = 0
        frame = 0
        while frame <= last:
            status, stop, frames = self._run_pass(
                plan, zero, one, vec_arr, frame, last, observe_po,
                scan_out, scan_observe, early_exit, ns_zero, ns_one,
                caught_arr)
            frames_total += frames
            counters.note_words(frames, len(chunk.indices))
            if status != _STATUS_REPACK:
                break
            caught_int = V.array_to_word(caught_arr)
            n_dropped = 0
            for pos, fid in enumerate(chunk.indices):
                if caught_int & chunk.bit_of(pos):
                    detected.add(fid)
                    n_dropped += 1
            ns_z_ints = [V.array_to_word(ns_zero[i])
                         for i in range(len(self.circuit.ff_ids))]
            ns_o_ints = [V.array_to_word(ns_one[i])
                         for i in range(len(self.circuit.ff_ids))]
            chunk, zw, ow = sim._repack(chunk, caught_int,
                                        ns_z_ints, ns_o_ints)
            counters.repacks += 1
            counters.faults_dropped += n_dropped
            plan = _ChunkPlan(self, chunk)
            zero, one = self._state_from_words(plan, zw, ow)
            caught_arr = np.zeros(plan.n_words, dtype=np.uint64)
            ns_zero, ns_one = self._next_state(plan.n_words)
            frame = stop + 1
        caught = V.array_to_word(caught_arr)
        for pos, fid in enumerate(chunk.indices):
            if caught & chunk.bit_of(pos):
                detected.add(fid)
        return frames_total

    # ------------------------------------------------------------------
    def run_suffix_chunk(
        self, sim: "FaultSimulator", chunk: "_Chunk",
        vectors: Sequence[V.Vector], ff_zero: Sequence[int],
        ff_one: Sequence[int], caught: int,
        scan_observe: Optional[Sequence[int]],
    ) -> Tuple[int, int]:
        """One chunk of a Phase-2 omission suffix trial on arrays.

        Resumes from a checkpoint (per-flip-flop big-int word pairs
        plus the cumulative PO ``caught`` mask), runs the suffix with
        PO observation every frame and scan-out on the last frame,
        and stops early once every machine is caught -- exactly the
        ``record=False`` big-int loop in
        :meth:`repro.core.omission._CheckpointedRun._run_suffix`,
        with the scan-out diff folded into the returned mask (the
        caller ORs them anyway).  Returns ``(mask, frames_run)``.

        The caller keeps the big-int path for ``record=True``
        rebuilds, which need per-frame trails.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        last = len(vectors) - 1
        if last < 0:
            return caught, 0
        plan = self._plan_for(sim, chunk)
        W = plan.n_words
        zero = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        one = np.zeros((self.circuit.n_nets, W), dtype=np.uint64)
        if self.circuit.ff_ids:
            zero[self.ff_ids] = _rows_array(np, list(ff_zero), W)
            one[self.ff_ids] = _rows_array(np, list(ff_one), W)
        caught_arr = V.word_to_array(caught, W)
        ns_zero, ns_one = self._next_state(W)
        _, _, frames = self._run_pass(
            plan, zero, one, self._vec_array(vectors), 0, last, True,
            True, scan_observe, False, ns_zero, ns_one, caught_arr)
        counters.note_words(frames, len(chunk.indices))
        return V.array_to_word(caught_arr), frames

    # ------------------------------------------------------------------
    def run_launch_capture(
        self, counters: "SimCounters", vectors: Sequence[V.Vector],
        state: V.Vector, launch: int, sites: Sequence[Tuple[int, int]],
    ) -> Tuple[int, int]:
        """One launch frame of transition-fault grading on the kernel.

        Machine bit ``k + 1`` carries ``sites[k] = (net_id, value)``:
        that net is forced to ``value`` (the late transition's old
        value) during frame ``launch`` only, starting from the
        fault-free ``state`` captured by frame ``launch - 1``.  Two
        kernel calls on the same arrays: the launch frame through the
        stem-forcing plan (scan-out only if it is also the last
        frame), then -- unless every machine is already caught -- the
        fault-free propagation suffix with POs observed every frame
        and the final state scanned out; the kernel's next-state
        write-back carries the error state across the boundary.
        Returns ``(caught, frames_run)`` with ``caught`` the big-int
        over machine bits ``1 .. len(sites)``.
        """
        np = self.np
        plain = self._empty_plan(len(sites) + 1)
        W = plain.n_words
        site_of: Dict[int, int] = {}
        for nid, _ in sites:
            site_of.setdefault(nid, len(site_of))
        f0 = np.zeros((max(1, len(site_of)), W), dtype=np.uint64)
        f1 = np.zeros_like(f0)
        for k, (nid, value) in enumerate(sites, 1):
            (f1 if value else f0)[site_of[nid], k >> 6] |= \
                np.uint64(1 << (k & 63))
        site = self._launch_site
        site[self._launch_dirty] = -1
        self._launch_dirty = list(site_of)
        for nid, i in site_of.items():
            site[nid] = i
        src = [nid for nid in site_of if nid in self._src_ids]
        plan = plain.with_stems(
            self.ffi, site, f0, f1, np.asarray(src, dtype=np.int32),
            np.asarray([site_of[nid] for nid in src], dtype=np.int32))
        counters.np_passes += 1
        zero, one = self._init_state(plan, state)
        caught = np.zeros(W, dtype=np.uint64)
        ns_zero, ns_one = self._next_state(W)
        vec_arr = self._vec_array(vectors)
        last = len(vectors) - 1
        status, _, frames = self._run_pass(
            plan, zero, one, vec_arr, launch, launch, True,
            launch == last, None, False, ns_zero, ns_one, caught)
        if launch < last and status != _STATUS_SATURATED:
            _, _, more = self._run_pass(
                plain, zero, one, vec_arr, launch + 1, last, True, True,
                None, False, ns_zero, ns_one, caught)
            frames += more
        return V.array_to_word(caught) & ~1, frames

    # ------------------------------------------------------------------
    def run_lane_chunk(
        self, sim: "FaultSimulator", chunk: "_LaneChunk",
        n_frames: int,
        pi_words: Sequence[Sequence[Tuple[int, int]]],
        acts: Sequence[int], ends: Sequence[int],
        init_words: Sequence[Tuple[int, int]],
        good_po: Sequence[Sequence[Tuple[int, int]]],
        good_scan: Sequence[Optional[Sequence[Tuple[int, int]]]],
        slot_pos: Sequence[int], observe_po: bool,
    ) -> Tuple[int, int]:
        """One lane-transposed pass chunk on the C kernel.

        The faulty half of :meth:`FaultSimulator._detect_lanes`, the
        lane pass behind ``detect_trials`` (per-lane PI words, ragged
        ``acts`` / ``ends`` masks) and ``detect_candidates`` (the same
        call with every trial sharing one sequence).  Like the big-int
        ``_run_trial_chunk`` it never repacks.  All lane words arrive
        *unreplicated* (one block wide); the block replication across
        fault groups happens here, in big-int arithmetic, before the
        one-shot array conversion.  Returns ``(caught, frames_done)``
        with ``caught`` a big-int over the chunk's
        ``n_groups * n_lanes`` bits.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        n_bits = chunk.n_groups * chunk.n_lanes
        plan = self._plan_for(sim, chunk, n_bits=n_bits)
        W = plan.n_words
        rep = chunk.replication
        n_nets = self.circuit.n_nets
        aligned = chunk.n_lanes % 64 == 0
        wb = chunk.n_lanes // 64

        def rep_rows(rows: Sequence[int]) -> Any:
            # With lane blocks on 64-bit boundaries the group
            # replication is an exact array tile of the one-block
            # rows, skipping the per-row big-int multiply and bytes
            # round-trip (the top cost of wide trial chunks).
            if aligned:
                return np.tile(_rows_array(np, rows, wb),
                               (1, chunk.n_groups))
            return _rows_array(np, [r * rep for r in rows], W)

        zero = np.zeros((n_nets, W), dtype=np.uint64)
        one = np.zeros((n_nets, W), dtype=np.uint64)
        for (z, o), nid in zip(init_words, self.circuit.ff_ids):
            if z:
                zero[nid] = (np.tile(V.word_to_array(z, wb),
                                     chunk.n_groups) if aligned
                             else V.word_to_array(z * rep, W))
            if o:
                one[nid] = (np.tile(V.word_to_array(o, wb),
                                    chunk.n_groups) if aligned
                            else V.word_to_array(o * rep, W))
        pi_z = rep_rows([pz for frame in pi_words for pz, _ in frame])
        pi_o = rep_rows([po for frame in pi_words for _, po in frame])
        act_arr = rep_rows(acts)
        end_arr = rep_rows(ends)
        if observe_po:
            gp_z = rep_rows(
                [gz for frame in good_po for gz, _ in frame])
            gp_o = rep_rows(
                [go for frame in good_po for _, go in frame])
        else:
            gp_z = np.zeros((1, W), dtype=np.uint64)
            gp_o = np.zeros((1, W), dtype=np.uint64)
        n_slots = (len(slot_pos)
                   if any(s is not None for s in good_scan) else 0)
        if n_slots:
            sc_rows_z: List[int] = []
            sc_rows_o: List[int] = []
            for frame_scan in good_scan:
                if frame_scan is None:
                    sc_rows_z.extend([0] * n_slots)
                    sc_rows_o.extend([0] * n_slots)
                else:
                    for gz, go in frame_scan:
                        sc_rows_z.append(gz)
                        sc_rows_o.append(go)
            sc_z = rep_rows(sc_rows_z)
            sc_o = rep_rows(sc_rows_o)
        else:
            sc_z = np.zeros((1, W), dtype=np.uint64)
            sc_o = np.zeros((1, W), dtype=np.uint64)
        slot_arr = np.asarray(list(slot_pos) or [0], dtype=np.int32)
        ns_zero, ns_one = self._next_state(W)
        caught_arr = np.zeros(W, dtype=np.uint64)
        ffi = self.ffi
        frames = ffi.new("long*")
        self.lib.repro_run_lane_pass(
            self.c, plan.c, _ptr(ffi, zero), _ptr(ffi, one), n_frames,
            _ptr(ffi, pi_z), _ptr(ffi, pi_o), _ptr(ffi, act_arr),
            _ptr(ffi, end_arr), int(observe_po), _ptr(ffi, gp_z),
            _ptr(ffi, gp_o), n_slots, _ptr(ffi, slot_arr),
            _ptr(ffi, sc_z), _ptr(ffi, sc_o), _ptr(ffi, ns_zero),
            _ptr(ffi, ns_one), _ptr(ffi, caught_arr), frames)
        frames_done = int(frames[0])
        counters.note_words(frames_done,
                            chunk.n_groups * chunk.n_lanes)
        return V.array_to_word(caught_arr), frames_done

    # ------------------------------------------------------------------
    def run_good_lane_pass(
        self, sim: "FaultSimulator", n_lanes: int, n_frames: int,
        pi_words: Sequence[Sequence[Tuple[int, int]]],
        ends: Sequence[int],
        init_words: Sequence[Tuple[int, int]],
        observe_po: bool, slot_pos: Sequence[int], scan_out: bool,
    ) -> Tuple[List[List[Tuple[int, int]]],
               List[Optional[List[Tuple[int, int]]]]]:
        """The fault-free reference pass of
        :meth:`FaultSimulator.detect_trials` on the C kernel.

        Consumes the caller-built per-frame PI lane words and returns
        ``(po_frames, scan_frames)`` in exactly the big-int format of
        :meth:`FaultSimulator._good_trial_pass` -- per-frame per-PO
        good lane word pairs, and captured scan-slot word pairs on
        frames where some trial ends (``None`` elsewhere).  This pass
        dominated batched Phase-4 trials when it ran frame by frame
        in Python; one kernel call replaces the whole loop.
        """
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        plan = self._empty_plan(n_lanes)
        W = plan.n_words
        n_nets = self.circuit.n_nets
        zero = np.zeros((n_nets, W), dtype=np.uint64)
        one = np.zeros((n_nets, W), dtype=np.uint64)
        for (z, o), nid in zip(init_words, self.circuit.ff_ids):
            if z:
                zero[nid] = V.word_to_array(z, W)
            if o:
                one[nid] = V.word_to_array(o, W)
        pi_z = _rows_array(
            np, [pz for frame in pi_words for pz, _ in frame], W)
        pi_o = _rows_array(
            np, [po for frame in pi_words for _, po in frame], W)
        n_po = len(self.circuit.po_ids)
        if observe_po:
            gp_z = np.zeros((max(1, n_frames * n_po), W),
                            dtype=np.uint64)
        else:
            gp_z = np.zeros((1, W), dtype=np.uint64)
        gp_o = np.zeros_like(gp_z)
        slots = list(slot_pos) if scan_out else []
        n_slots = len(slots)
        sc_z = np.zeros((max(1, n_frames * n_slots), W),
                        dtype=np.uint64)
        sc_o = np.zeros_like(sc_z)
        slot_arr = np.asarray(slots or [0], dtype=np.int32)
        ns_zero, ns_one = self._next_state(W)
        ffi = self.ffi
        self.lib.repro_run_good_lane_pass(
            self.c, plan.c, _ptr(ffi, zero), _ptr(ffi, one), n_frames,
            _ptr(ffi, pi_z), _ptr(ffi, pi_o), int(observe_po),
            _ptr(ffi, gp_z), _ptr(ffi, gp_o), n_slots,
            _ptr(ffi, slot_arr), _ptr(ffi, sc_z), _ptr(ffi, sc_o),
            _ptr(ffi, ns_zero), _ptr(ffi, ns_one))
        counters.note_words(n_frames, n_lanes)

        def _rows_to_words(arr: Any, n_rows: int) -> List[int]:
            if W == 1:
                words: List[int] = arr[:n_rows, 0].tolist()
                return words
            return [V.array_to_word(arr[r]) for r in range(n_rows)]

        po_frames: List[List[Tuple[int, int]]] = []
        if observe_po:
            gz = _rows_to_words(gp_z, n_frames * n_po)
            go = _rows_to_words(gp_o, n_frames * n_po)
            for f in range(n_frames):
                base = f * n_po
                po_frames.append(list(zip(gz[base:base + n_po],
                                          go[base:base + n_po])))
        else:
            po_frames = [[] for _ in range(n_frames)]
        scan_frames: List[Optional[List[Tuple[int, int]]]] = []
        if n_slots:
            sz = _rows_to_words(sc_z, n_frames * n_slots)
            so = _rows_to_words(sc_o, n_frames * n_slots)
            for f in range(n_frames):
                if ends[f]:
                    base = f * n_slots
                    scan_frames.append(
                        list(zip(sz[base:base + n_slots],
                                 so[base:base + n_slots])))
                else:
                    scan_frames.append(None)
        else:
            scan_frames = [None] * n_frames
        return po_frames, scan_frames

    # ------------------------------------------------------------------
    def run_records_chunk(
        self, sim: "FaultSimulator", chunk: "_Chunk",
        vectors: Sequence[V.Vector], init_state: V.Vector,
        scan_observe: Optional[Sequence[int]],
        po_first: Dict[int, int], scan_diff: List[Set[int]],
    ) -> None:
        """One chunk of :meth:`FaultSimulator.run_with_records` on
        arrays (no early exit; per-frame PO / scan-out diff words)."""
        np = self.np
        counters = sim.counters
        counters.np_passes += 1
        n_frames = len(vectors)
        if n_frames == 0:
            return
        plan = self._plan_for(sim, chunk)
        W = plan.n_words
        zero, one = self._init_state(plan, init_state)
        rec_po = np.zeros((n_frames, W), dtype=np.uint64)
        rec_scan = np.zeros((n_frames, W), dtype=np.uint64)
        ns_zero, ns_one = self._next_state(W)
        caught = np.zeros(W, dtype=np.uint64)
        self._run_pass(
            plan, zero, one, self._vec_array(vectors), 0, n_frames - 1,
            True, True, scan_observe, False, ns_zero, ns_one, caught,
            rec_po, rec_scan)
        counters.note_words(n_frames, len(chunk.indices))
        po_seen = 0
        for frame in range(n_frames):
            po_now = V.array_to_word(rec_po[frame])
            po_new = po_now & ~po_seen & ~1
            if po_new:
                for pos, fid in enumerate(chunk.indices):
                    if po_new & chunk.bit_of(pos):
                        po_first[fid] = frame
                po_seen |= po_new
            sdiff = V.array_to_word(rec_scan[frame]) & ~1
            if sdiff:
                frame_set = scan_diff[frame]
                for pos, fid in enumerate(chunk.indices):
                    if sdiff & chunk.bit_of(pos):
                        frame_set.add(fid)
