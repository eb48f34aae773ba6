"""Phase-boundary salvage and the self-verifying run store.

Three concerns live here, all serving the same goal -- a long campaign
must never lose finished work:

**Versioned, CRC-trailed JSONL lines.**  Every record the harness
persists (``runs.jsonl`` checkpoints, ``journal.jsonl`` job records,
salvage files) is wrapped in a one-line envelope carrying a schema
version and a CRC32 of the canonical payload encoding::

    {"crc": "1a2b3c4d", "data": {...payload...}, "v": 1}

:func:`decode_line` raises :class:`CorruptLine` on anything that is not
a verifiable record -- truncated JSON, a line without the envelope, a
CRC mismatch (bit rot, a partial overwrite) or an envelope version
from the future.  Corrupt lines are **quarantined**: moved
into ``run_dir/quarantine/`` so they remain inspectable, while the
source file is repaired in place -- a corrupt checkpoint line costs one
recompute, never the campaign.

**Phase-boundary salvage.**  :class:`SalvageWriter` is the worker-side
journal of resumable pipeline state.  At each phase transition of
:func:`repro.core.proposed.run` (and at each completed arm of a
:class:`~repro.experiments.runner.CircuitRun`) the worker serializes
everything a retry needs to restart *from that boundary* instead of
from scratch: the committed ``tau_seq``, its known detections, the
:class:`~repro.sim.scoreboard.FaultScoreboard` ledger, the Phase-3
test set.  A job killed by the wall clock or the stall supervisor
leaves its salvage file behind; the retry loads it (CRC-verified,
knob-checked by the same rule as checkpoints:
:func:`~repro.experiments.runner.same_result_knobs`) and skips every
completed phase, byte-identically.

**PartialRun.**  When a job ultimately fails but salvage exists, the
outcome is not a bare FAILED row: :class:`PartialRun` records which
phases completed per arm and whatever coverage figures are already
known, and the table renderers print ``PARTIAL(phase k/4)`` rows with
the known columns filled.

:func:`doctor` ties it together: verify/repair a run dir, reporting
what was salvaged, quarantined or orphaned (``repro-compact doctor``).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from . import reporting
from .runner import same_result_knobs

#: Envelope schema version written by this build.  Readers accept
#: every version up to this one; greater versions are quarantined
#: (a downgraded reader must not guess at a future schema).
SCHEMA_VERSION = 1

#: Directory (under a run dir) where corrupt records are moved.
QUARANTINE_DIR = "quarantine"

#: Directory (under a run dir) holding per-job salvage files.
SALVAGE_DIR = "salvage"


class CorruptLine(ValueError):
    """A persisted record failed verification (JSON, CRC or version)."""


def _canonical(payload: Mapping[str, Any]) -> str:
    """The byte-stable encoding the CRC is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(payload: Mapping[str, Any]) -> str:
    return format(zlib.crc32(_canonical(payload).encode("utf-8"))
                  & 0xFFFFFFFF, "08x")


def encode_line(payload: Mapping[str, Any]) -> str:
    """Wrap ``payload`` in the versioned, CRC-trailed envelope."""
    return json.dumps({"crc": _crc(payload), "data": payload,
                       "v": SCHEMA_VERSION},
                      sort_keys=True, separators=(",", ":"))


def decode_line(line: str) -> Tuple[Dict[str, Any], int]:
    """Verify and unwrap one persisted line.

    Returns ``(payload, version)``.

    Raises
    ------
    CorruptLine
        On malformed JSON, a non-dict record, a record without the
        envelope, an envelope version this reader does not know, or a
        CRC mismatch.
    """
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise CorruptLine(f"not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorruptLine("record is not an object")
    if not ("v" in obj and "crc" in obj and "data" in obj):
        raise CorruptLine("record has no envelope")
    version = obj["v"]
    if not isinstance(version, int) or version < 1:
        raise CorruptLine(f"bad envelope version {version!r}")
    if version > SCHEMA_VERSION:
        raise CorruptLine(f"envelope version {version} is newer than "
                          f"this reader (max {SCHEMA_VERSION})")
    data = obj["data"]
    if not isinstance(data, dict):
        raise CorruptLine("envelope data is not an object")
    if obj["crc"] != _crc(data):
        raise CorruptLine("CRC mismatch")
    return data, version


# ----------------------------------------------------------------------
# Quarantine-aware JSONL loading
# ----------------------------------------------------------------------

def quarantine_dir(run_dir: Union[str, Path]) -> Path:
    return Path(run_dir) / QUARANTINE_DIR


def load_jsonl(path: Path, run_dir: Union[str, Path],
               repair: bool = True) -> Tuple[List[Dict[str, Any]], int]:
    """Load every verifiable record of ``path``; quarantine the rest.

    Corrupt lines (see :func:`decode_line`) are appended to
    ``run_dir/quarantine/<name>`` and -- with ``repair`` (the default)
    -- removed from the source file via an atomic rewrite, so the next
    load starts clean and a resume recomputes exactly the quarantined
    jobs.  A truncated trailing line (process killed mid-append) is
    the common case; random corruption mid-file behaves identically.

    Returns ``(payloads, n_quarantined)``.
    """
    payloads: List[Dict[str, Any]] = []
    good_lines: List[str] = []
    bad_lines: List[str] = []
    if not path.exists():
        return payloads, 0
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                payload, _version = decode_line(line)
            except CorruptLine:
                bad_lines.append(line)
                continue
            payloads.append(payload)
            good_lines.append(line)
    if bad_lines:
        qdir = quarantine_dir(run_dir)
        qdir.mkdir(parents=True, exist_ok=True)
        with open(qdir / path.name, "a") as handle:
            for line in bad_lines:
                handle.write(line + "\n")
        if repair:
            text = "".join(line + "\n" for line in good_lines)
            reporting.atomic_write_text(path, text)
    return payloads, len(bad_lines)


# ----------------------------------------------------------------------
# Salvage store (per-job resumable state)
# ----------------------------------------------------------------------

def _salvage_name(circuit: str, seed: int) -> str:
    return f"{circuit}-s{seed}.json"


class SalvageStore:
    """File management for per-job salvage state under a run dir."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.dir = self.run_dir / SALVAGE_DIR

    def path(self, circuit: str, seed: int) -> Path:
        return self.dir / _salvage_name(circuit, seed)

    def exists(self, circuit: str, seed: int) -> bool:
        return self.path(circuit, seed).exists()

    def write(self, circuit: str, seed: int,
              payload: Mapping[str, Any]) -> None:
        reporting.atomic_write_text(self.path(circuit, seed),
                                    encode_line(payload) + "\n")

    def load(self, circuit: str, seed: int) -> Optional[Dict[str, Any]]:
        """The decoded salvage payload, or None.

        A file that fails verification is moved into the quarantine
        directory (it must not be silently reused *or* silently lost)
        and the load reports "no salvage": the retry starts fresh.
        """
        path = self.path(circuit, seed)
        if not path.exists():
            return None
        try:
            payload, _version = decode_line(path.read_text().strip())
            return payload
        except CorruptLine:
            self.quarantine(path)
            return None

    def quarantine(self, path: Path) -> Path:
        qdir = quarantine_dir(self.run_dir)
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / f"{SALVAGE_DIR}-{path.name}"
        n = 0
        while target.exists():  # keep every corpse inspectable
            n += 1
            target = qdir / f"{SALVAGE_DIR}-{path.name}.{n}"
        os.replace(path, target)
        return target

    def discard(self, circuit: str, seed: int) -> None:
        path = self.path(circuit, seed)
        if path.exists():
            path.unlink()

    def jobs(self) -> List[Path]:
        if not self.dir.exists():
            return []
        return sorted(self.dir.glob("*.json"))


def salvage_usable(payload: Mapping[str, Any],
                   spec_knobs: Mapping[str, Any], seed: int) -> bool:
    """Salvaged state may seed a retry only under identical inputs.

    The seed must match exactly (a perturbed-seed attempt would mix
    two different random streams into one result) and the recorded
    knobs must pass the checkpoint rule,
    :func:`~repro.experiments.runner.same_result_knobs`.
    """
    return (payload.get("seed") == seed
            and same_result_knobs(payload.get("knobs", {}), spec_knobs))


# ----------------------------------------------------------------------
# Rich <-> JSON phase-state serialization
# ----------------------------------------------------------------------

def phase_state_to_json(state: Mapping[str, Any]) -> Dict[str, Any]:
    """Serialize a phase-boundary state dict emitted by
    :func:`repro.core.proposed.run` (see its ``observer`` parameter)."""
    import dataclasses
    out: Dict[str, Any] = {
        "tau": reporting.scan_test_to_dict(state["tau"]),
        "tau_detected": sorted(state["tau_detected"]),
        "t0_detected": sorted(state["t0_detected"]),
        "t0_length": state["t0_length"],
        "iterations": [dataclasses.asdict(i)
                       for i in state["iterations"]],
        "retired": sorted(state["retired"]),
    }
    if "test_set" in state:
        out["test_set"] = reporting.test_set_to_dict(state["test_set"])
        out["seq_detected"] = sorted(state["seq_detected"])
        out["final_detected"] = sorted(state["final_detected"])
        out["added_tests"] = state["added_tests"]
        out["uncovered"] = sorted(state["uncovered"])
    return out


def phase_state_from_json(data: Mapping[str, Any],
                          phase: int) -> Dict[str, Any]:
    """Inverse of :func:`phase_state_to_json`; adds the ``phase`` key
    :func:`repro.core.proposed.run` resumes from."""
    from ..core.proposed import IterationLog
    state: Dict[str, Any] = {
        "phase": phase,
        "tau": reporting.scan_test_from_dict(data["tau"]),
        "tau_detected": set(data["tau_detected"]),
        "t0_detected": set(data["t0_detected"]),
        "t0_length": data["t0_length"],
        "iterations": [IterationLog(**i) for i in data["iterations"]],
        "retired": set(data["retired"]),
    }
    if "test_set" in data:
        state["test_set"] = reporting.test_set_from_dict(
            data["test_set"])
        state["seq_detected"] = set(data["seq_detected"])
        state["final_detected"] = set(data["final_detected"])
        state["added_tests"] = data["added_tests"]
        state["uncovered"] = set(data["uncovered"])
    return state


class SalvageWriter:
    """Worker-side salvage journal for one ``(circuit, seed)`` job.

    Created at attempt start: loads any prior salvage (verified and
    knob-checked; a mismatch or corruption means "start fresh"), then
    accumulates phase states and completed arms, flushing the whole
    payload atomically at every boundary.

    ``corrupt_after_write`` is the ``corrupt-salvage`` chaos hook:
    every flush is deliberately damaged on disk, so when the worker
    dies the retry must prove it quarantines (and survives) a rotten
    salvage file.
    """

    #: Salvage payload schema version (inside the envelope payload).
    STATE_VERSION = 1

    def __init__(self, store: SalvageStore, circuit: str, seed: int,
                 knobs: Mapping[str, Any],
                 corrupt_after_write: bool = False) -> None:
        self.store = store
        self.circuit = circuit
        self.seed = seed
        self.knobs = dict(knobs)
        self._corrupt_pending = corrupt_after_write
        prior = store.load(circuit, seed)
        if prior is not None and not salvage_usable(prior, self.knobs,
                                                    seed):
            prior = None
        self.payload: Dict[str, Any] = prior or {
            "state_version": self.STATE_VERSION,
            "circuit": circuit,
            "seed": seed,
            "knobs": self.knobs,
            "meta": {},
            "arms": {},
            "completed_arms": {},
        }

    # -- reads (resume) ------------------------------------------------
    def arm_resume_state(self, arm: str) -> Optional[Dict[str, Any]]:
        entry = self.payload.get("arms", {}).get(arm)
        if not entry:
            return None
        return phase_state_from_json(entry["state"],
                                     int(entry["phase"]))

    def completed_arm(self, arm: str):
        data = self.payload.get("completed_arms", {}).get(arm)
        if data is None:
            return None
        return reporting.arm_from_dict(data)

    # -- writes (phase boundaries) -------------------------------------
    def set_meta(self, meta: Mapping[str, Any]) -> None:
        self.payload["meta"] = dict(meta)
        self._flush()

    def save_arm_state(self, arm: str, phase: int,
                       state: Mapping[str, Any]) -> None:
        self.payload.setdefault("arms", {})[arm] = {
            "phase": phase,
            "state": phase_state_to_json(state),
        }
        self._flush()

    def save_completed_arm(self, arm: str, arm_result: Any) -> None:
        self.payload.setdefault("completed_arms", {})[arm] = \
            reporting.arm_to_dict(arm_result)
        self.payload.get("arms", {}).pop(arm, None)
        self._flush()

    def _flush(self) -> None:
        self.store.write(self.circuit, self.seed, self.payload)
        if self._corrupt_pending:
            # Damage every flush while the directive is armed (a later
            # boundary would otherwise overwrite the rot with a valid
            # file before the worker dies).  Keep it valid JSON: the
            # CRC, not the JSON parser, must catch this.
            path = self.store.path(self.circuit, self.seed)
            raw = path.read_text()
            path.write_text(raw.replace('"seed":', '"sEed":', 1))


# ----------------------------------------------------------------------
# PartialRun
# ----------------------------------------------------------------------

#: Per-arm metric keys a :class:`PartialRun` may know, in the order
#: the paper tables use them.
PARTIAL_METRICS = ("t0_length", "t0_detected", "seq_detected",
                   "final_detected", "seq_length", "added_tests")


@dataclass
class PartialRun:
    """A job that died, but not for nothing.

    Built from the salvage a failed job left behind: which phase each
    arm completed (0 = nothing, 4 = the whole pipeline) and the
    coverage figures already known at that boundary.  Table renderers
    print these as ``PARTIAL(phase k/4)`` rows with the known columns
    filled -- mirroring the FAILED-row degradation, but informative.
    """

    circuit: str
    seed: int
    reason: str
    arm_phases: Dict[str, int] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    arms: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def phases_completed(self) -> int:
        """Furthest phase any arm completed."""
        return max(self.arm_phases.values(), default=0)

    @property
    def label(self) -> str:
        return f"PARTIAL(phase {self.phases_completed}/4)"

    def arm_metric(self, arm: str, key: str) -> Optional[Any]:
        return self.arms.get(arm, {}).get(key)

    @classmethod
    def from_salvage(cls, payload: Mapping[str, Any],
                     reason: str) -> "PartialRun":
        arm_phases: Dict[str, int] = {}
        arms: Dict[str, Dict[str, Any]] = {}
        for arm, entry in payload.get("arms", {}).items():
            phase = int(entry["phase"])
            state = entry["state"]
            arm_phases[arm] = phase
            known: Dict[str, Any] = {
                "t0_length": state["t0_length"],
                "t0_detected": len(state["t0_detected"]),
                # At the Phase-2 boundary only tau_seq's detections
                # from the omission pass are known -- a true lower
                # bound the Phase-3 full pass later completes.
                "seq_detected": len(state["tau_detected"]),
                "seq_length": len(state["tau"]["vectors"]),
            }
            if "final_detected" in state:
                known["seq_detected"] = len(state["seq_detected"])
                known["final_detected"] = len(state["final_detected"])
                known["added_tests"] = state["added_tests"]
            arms[arm] = known
        for arm, data in payload.get("completed_arms", {}).items():
            result = data["result"]
            arm_phases[arm] = 4
            arms[arm] = {
                "t0_length": data["t0_length"],
                "t0_detected": len(result["t0_detected"]),
                "seq_detected": len(result["seq_detected"]),
                "final_detected": len(result["final_detected"]),
                "seq_length": len(result["tau_seq"]["vectors"]),
                "added_tests": result["added_tests"],
            }
        return cls(circuit=payload.get("circuit", "?"),
                   seed=int(payload.get("seed", 0)),
                   reason=reason,
                   arm_phases=arm_phases,
                   meta=dict(payload.get("meta") or {}),
                   arms=arms)


# ----------------------------------------------------------------------
# Doctor
# ----------------------------------------------------------------------

@dataclass
class FileReport:
    """Verification outcome for one JSONL store file."""

    name: str
    records: int = 0
    quarantined: int = 0


@dataclass
class DoctorReport:
    """Everything ``repro-compact doctor`` found (and fixed)."""

    run_dir: str
    files: List[FileReport] = field(default_factory=list)
    #: Salvage files holding resumable partial work: (circuit, seed,
    #: furthest completed phase).
    salvageable: List[Tuple[str, int, int]] = field(default_factory=list)
    #: Salvage files quarantined for failing verification.
    quarantined_salvage: List[str] = field(default_factory=list)
    #: Salvage files removed because their job already has a
    #: completed checkpoint (stale leftovers).
    orphaned_salvage: List[str] = field(default_factory=list)

    @property
    def n_quarantined(self) -> int:
        return (sum(f.quarantined for f in self.files)
                + len(self.quarantined_salvage))

    @property
    def clean(self) -> bool:
        return self.n_quarantined == 0

    def render(self) -> str:
        lines = [f"doctor: {self.run_dir}"]
        for f in self.files:
            lines.append(f"  {f.name}: {f.records} record(s),"
                         f" {f.quarantined} quarantined")
        for circuit, seed, phase in self.salvageable:
            lines.append(f"  salvage: {circuit} seed {seed} resumable "
                         f"from phase {phase}")
        for name in self.quarantined_salvage:
            lines.append(f"  salvage: {name} quarantined (corrupt)")
        for name in self.orphaned_salvage:
            lines.append(f"  salvage: {name} removed "
                         f"(orphaned -- job already checkpointed)")
        verdict = ("clean" if self.clean else
                   f"{self.n_quarantined} corrupt record(s) quarantined"
                   f" -> {quarantine_dir(self.run_dir)}")
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_dir": self.run_dir,
            "files": [vars(f).copy() for f in self.files],
            "salvageable": [list(s) for s in self.salvageable],
            "quarantined_salvage": list(self.quarantined_salvage),
            "orphaned_salvage": list(self.orphaned_salvage),
            "clean": self.clean,
        }


def doctor(run_dir: Union[str, Path]) -> DoctorReport:
    """Verify and repair a run dir.

    * Every ``runs.jsonl`` / ``journal.jsonl`` line is CRC-verified;
      corrupt lines move to ``quarantine/`` and the store is rewritten
      without them (so a later ``--resume`` recomputes exactly those
      jobs).
    * Every salvage file is verified; corrupt ones are quarantined,
      ones whose job already has a completed checkpoint are removed as
      orphans, and the rest are reported as resumable partial work.
    """
    run_dir = Path(run_dir)
    report = DoctorReport(run_dir=str(run_dir))

    checkpointed = set()
    for name in ("runs.jsonl", "journal.jsonl"):
        path = run_dir / name
        payloads, n_bad = load_jsonl(path, run_dir, repair=True)
        report.files.append(FileReport(name, records=len(payloads),
                                       quarantined=n_bad))
        if name == "runs.jsonl":
            for payload in payloads:
                if "circuit" in payload and "seed" in payload:
                    checkpointed.add((payload["circuit"],
                                      payload["seed"]))

    store = SalvageStore(run_dir)
    for path in store.jobs():
        try:
            payload, _version = decode_line(path.read_text().strip())
        except CorruptLine:
            store.quarantine(path)
            report.quarantined_salvage.append(path.name)
            continue
        circuit = payload.get("circuit", "?")
        seed = int(payload.get("seed", 0))
        if (circuit, seed) in checkpointed:
            path.unlink()
            report.orphaned_salvage.append(path.name)
            continue
        partial = PartialRun.from_salvage(payload, reason="salvage")
        report.salvageable.append((circuit, seed,
                                   partial.phases_completed))
    return report
