"""Self-verifying run store, phase-boundary salvage and the doctor.

Covers the CRC32/schema-version line envelope, quarantine-and-repair
loading (including the truncated-trailing-line regression for both
store files), the salvage writer/store pair, ``PartialRun`` rendering,
the byte-identical phase-resume acceptance path, and ``doctor``.
"""

import json

import pytest

from repro.experiments import harness, reporting, tables
from repro.experiments.harness import (HarnessConfig, JobSpec, RunStore,
                                       run_jobs)
from repro.experiments.runner import RETIRED_KNOBS
from repro.experiments.salvage import (CorruptLine, PartialRun,
                                       SalvageStore, SalvageWriter,
                                       decode_line, doctor, encode_line,
                                       load_jsonl, salvage_usable)


def _spec(circuit="s27", **kw):
    kw.setdefault("arms", ("random",))
    kw.setdefault("with_baselines", False)
    return JobSpec(circuit, seed=1, **kw)


def _cfg(**kw):
    kw.setdefault("backoff_base", 0.01)
    return HarnessConfig(**kw)


def _chaos_once(directive):
    def chaos(spec, attempt):
        return directive if attempt == 1 else None
    return chaos


class TestEnvelope:
    def test_roundtrip(self):
        payload = {"a": 1, "b": [1, 2, {"c": "x"}]}
        data, version = decode_line(encode_line(payload))
        assert data == payload
        assert version == 1

    def test_unenveloped_line_raises(self):
        """A bare dict carries nothing to verify against: corrupt."""
        with pytest.raises(CorruptLine, match="no envelope"):
            decode_line('{"status": "ok", "seed": 3}')

    def test_not_json_raises(self):
        with pytest.raises(CorruptLine, match="not JSON"):
            decode_line('{"truncated": tr')

    def test_non_object_raises(self):
        with pytest.raises(CorruptLine, match="not an object"):
            decode_line("[1, 2, 3]")

    def test_future_version_quarantined(self):
        line = encode_line({"x": 1}).replace('"v":1', '"v":99')
        with pytest.raises(CorruptLine, match="newer than"):
            decode_line(line)

    def test_bad_version_type_raises(self):
        line = encode_line({"x": 1}).replace('"v":1', '"v":"one"')
        with pytest.raises(CorruptLine, match="bad envelope version"):
            decode_line(line)

    def test_crc_mismatch_raises(self):
        line = encode_line({"seed": 1})
        rotten = line.replace('"seed":1', '"seed":2')
        with pytest.raises(CorruptLine, match="CRC mismatch"):
            decode_line(rotten)

    def test_data_not_object_raises(self):
        with pytest.raises(CorruptLine, match="data is not an object"):
            decode_line('{"crc": "0", "data": [1], "v": 1}')


class TestLoadJsonl:
    def test_quarantines_and_repairs(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        good1, good2 = encode_line({"i": 1}), encode_line({"i": 2})
        bad = encode_line({"i": 9}).replace('"i":9', '"i":8')
        path.write_text(f"{good1}\n{bad}\n{good2}\n")
        payloads, n_bad = load_jsonl(path, tmp_path)
        assert payloads == [{"i": 1}, {"i": 2}]
        assert n_bad == 1
        # The rotten line moved aside, inspectable ...
        quarantined = (tmp_path / "quarantine" / "runs.jsonl").read_text()
        assert bad in quarantined
        # ... and the source was repaired in place.
        assert path.read_text() == f"{good1}\n{good2}\n"
        assert load_jsonl(path, tmp_path) == ([{"i": 1}, {"i": 2}], 0)

    def test_no_repair_leaves_source(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        bad = "not json at all"
        path.write_text(f"{bad}\n")
        payloads, n_bad = load_jsonl(path, tmp_path, repair=False)
        assert payloads == [] and n_bad == 1
        assert bad in path.read_text()

    def test_missing_file(self, tmp_path):
        assert load_jsonl(tmp_path / "nope.jsonl", tmp_path) == ([], 0)

    def test_unenveloped_lines_quarantined(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = encode_line({"status": "ok"})
        bare = '{"status": "ok"}'
        path.write_text(f"{bare}\n{good}\nbroken{{\n")
        payloads, n_bad = load_jsonl(path, tmp_path)
        assert payloads == [{"status": "ok"}]
        assert n_bad == 2
        assert path.read_text() == f"{good}\n"
        quarantined = (tmp_path / "quarantine" / "journal.jsonl")
        assert bare in quarantined.read_text()

    def test_truncated_trailing_lines_both_stores(self, tmp_path):
        """Regression: a process killed mid-append leaves a truncated
        final line in runs.jsonl AND journal.jsonl; both loads must
        quarantine just that line and keep everything before it."""
        store = RunStore(tmp_path)
        outcome = run_jobs([_spec()], config=_cfg(isolate=False,
                                                  run_dir=tmp_path))
        assert outcome.ok
        for path in (store.runs_path, store.journal_path):
            text = path.read_text()
            assert text.endswith("\n")
            path.write_text(text + text.splitlines()[0][:37])
        runs, corrupt = store.load_runs()
        assert corrupt == 1
        assert ("s27", 1) in runs
        records = store.load_records()
        assert [r.status for r in records] == ["ok"]
        qdir = tmp_path / "quarantine"
        assert (qdir / "runs.jsonl").exists()
        assert (qdir / "journal.jsonl").exists()


class TestSalvageStore:
    def test_write_load_roundtrip(self, tmp_path):
        store = SalvageStore(tmp_path)
        store.write("s27", 1, {"circuit": "s27", "seed": 1})
        assert store.exists("s27", 1)
        assert store.load("s27", 1) == {"circuit": "s27", "seed": 1}

    def test_corrupt_file_quarantined_on_load(self, tmp_path):
        store = SalvageStore(tmp_path)
        store.write("s27", 1, {"seed": 1})
        path = store.path("s27", 1)
        path.write_text(path.read_text().replace('"seed":1', '"seed":2'))
        assert store.load("s27", 1) is None
        assert not path.exists()
        assert (tmp_path / "quarantine"
                / "salvage-s27-s1.json").exists()

    def test_quarantine_never_overwrites(self, tmp_path):
        store = SalvageStore(tmp_path)
        names = []
        for _ in range(2):
            store.write("s27", 1, {"seed": 1})
            path = store.path("s27", 1)
            path.write_text("rotten")
            names.append(store.quarantine(path).name)
        assert len(set(names)) == 2

    def test_discard(self, tmp_path):
        store = SalvageStore(tmp_path)
        store.write("s27", 1, {"seed": 1})
        store.discard("s27", 1)
        assert not store.exists("s27", 1)
        store.discard("s27", 1)  # idempotent

    def test_usability_gate(self):
        knobs = _spec().result_knobs
        payload = {"seed": 1, "knobs": dict(knobs)}
        assert salvage_usable(payload, knobs, 1)
        assert not salvage_usable(payload, knobs, 2)
        for name, value in (("x_fill", "adjacent"), ("power_budget", 9.0)):
            assert not salvage_usable(payload, {**knobs, name: value},
                                      1), name
        # A retired knob recorded off is harmless; recorded on, the
        # salvage came from code this version no longer has.
        for name in RETIRED_KNOBS:
            off = {**payload, "knobs": {**knobs, name: False}}
            assert salvage_usable(off, knobs, 1), name
            on = {**payload, "knobs": {**knobs, name: True}}
            assert not salvage_usable(on, knobs, 1), name
        # Salvage that does not record a knob is never reused.
        del payload["knobs"]["x_fill"]
        assert not salvage_usable(payload, knobs, 1)


class TestSalvageWriter:
    KNOBS = _spec().result_knobs

    def test_incompatible_prior_salvage_discarded(self, tmp_path):
        store = SalvageStore(tmp_path)
        writer = SalvageWriter(store, "s27", 1, self.KNOBS)
        writer.set_meta({"n_faults": 32})
        other = SalvageWriter(store, "s27", 1,
                              {**self.KNOBS, "x_fill": "adjacent"})
        assert other.payload["meta"] == {}
        assert other.payload["knobs"]["x_fill"] == "adjacent"

    def test_compatible_prior_salvage_resumes(self, tmp_path):
        store = SalvageStore(tmp_path)
        writer = SalvageWriter(store, "s27", 1, self.KNOBS)
        writer.set_meta({"n_faults": 32})
        again = SalvageWriter(store, "s27", 1, self.KNOBS)
        assert again.payload["meta"] == {"n_faults": 32}

    def test_corrupt_after_write_damages_every_flush(self, tmp_path):
        store = SalvageStore(tmp_path)
        writer = SalvageWriter(store, "s27", 1, self.KNOBS,
                               corrupt_after_write=True)
        writer.set_meta({"a": 1})
        writer.set_meta({"a": 2})  # later flush must stay damaged too
        assert store.load("s27", 1) is None  # quarantined
        assert list((tmp_path / "quarantine").iterdir())


class TestPartialRun:
    def _payload(self):
        """A hand-built salvage payload: one arm stopped after Phase 2,
        one arm completed (phase 4)."""
        tau = {"si": "000", "vectors": ["0000", "1111"]}
        return {
            "circuit": "s27", "seed": 1,
            "meta": {"n_faults": 32, "comb_tests": 7},
            "arms": {"random": {"phase": 2, "state": {
                "tau": tau,
                "tau_detected": [1, 2, 3],
                "t0_detected": [1, 2],
                "t0_length": 200,
                "iterations": [],
                "retired": [1, 2, 3],
            }}},
            "completed_arms": {"seqgen": {
                "t0_source": "seqgen", "t0_length": 120,
                "seconds": 1.0,
                "result": {
                    "tau_seq": tau,
                    "t0_detected": [1], "seq_detected": [1, 2],
                    "final_detected": [1, 2, 3, 4],
                    "added_tests": 2,
                },
            }},
        }

    def test_from_salvage(self):
        partial = PartialRun.from_salvage(self._payload(), reason="stall")
        assert partial.circuit == "s27"
        assert partial.arm_phases == {"random": 2, "seqgen": 4}
        assert partial.phases_completed == 4
        assert partial.label == "PARTIAL(phase 4/4)"
        assert partial.arm_metric("random", "t0_detected") == 2
        assert partial.arm_metric("random", "seq_detected") == 3
        assert partial.arm_metric("random", "seq_length") == 2
        assert partial.arm_metric("random", "final_detected") is None
        assert partial.arm_metric("seqgen", "final_detected") == 4
        assert partial.arm_metric("seqgen", "added_tests") == 2
        assert partial.meta["n_faults"] == 32

    def test_tables_render_partial_rows(self):
        partial = PartialRun.from_salvage(self._payload(),
                                          reason="timeout")
        partials = {"s27": partial}
        t1 = tables.table1([], source="seqgen", partials=partials)
        row = t1.rows[0]
        assert row[0] == "s27"
        assert row[1] == "PARTIAL(phase 4/4)"
        assert row[2] == 7      # comb tests from meta
        assert row[7] == 4      # final detected
        t5 = tables.table5([], partials=partials)
        assert t5.rows[0][1] == "PARTIAL(phase 4/4)"
        assert t5.rows[0][5] == 2   # random arm's salvaged seq length
        # Table 3 knows nothing per-phase: label plus dashes, and the
        # partial row comes before the total row.
        t3 = tables.table3([], partials=partials)
        assert t3.rows[0][:2] == ["s27", "PARTIAL(phase 4/4)"]
        assert t3.rows[0][2:] == [None] * 6
        assert t3.rows[-1][0] == "total"

    def test_partial_beats_failed_annotation(self):
        partial = PartialRun.from_salvage(self._payload(), reason="x")
        t1 = tables.table1([], failures={"s27": "timeout"},
                           partials={"s27": partial})
        assert t1.rows[0][1].startswith("PARTIAL")
        t1 = tables.table1([], failures={"s27": "timeout"})
        assert t1.rows[0][1] == "FAILED(timeout)"


class TestPhaseResume:
    """The acceptance path: chaos-kill after a phase, retry resumes
    from salvage, final result byte-identical to uninterrupted."""

    @pytest.fixture(scope="class")
    def reference(self):
        outcome = run_jobs([_spec()], config=_cfg(isolate=False))
        assert outcome.ok
        return reporting.proposed_to_dict(
            outcome.runs[0].arms["random"].result)

    @pytest.mark.parametrize("directive,dead_phases", [
        ("crash@phase3", ("phase1_s", "phase2_s")),
        ("crash@phase4", ("phase1_s", "phase2_s", "phase3_s")),
    ])
    def test_resume_is_byte_identical(self, tmp_path, reference,
                                      directive, dead_phases):
        outcome = run_jobs(
            [_spec()],
            config=_cfg(isolate=False, retries=1,
                        run_dir=tmp_path / directive,
                        chaos=_chaos_once(directive)))
        assert outcome.ok
        assert [r.status for r in outcome.records] == ["ok"]
        assert outcome.records[0].attempts == 2
        run = outcome.runs[0]
        resumed = reporting.proposed_to_dict(run.arms["random"].result)
        assert json.dumps(resumed, sort_keys=True) == \
            json.dumps(reference, sort_keys=True)
        # The retry's counters prove the salvaged phases never re-ran:
        # no Phase-1 candidate passes, no Phase-2 omission trials, and
        # zero wall clock inside every completed phase.
        assert run.counters["candidate_passes"] == 0
        assert run.counters["omission_trials"] == 0
        for key in dead_phases:
            assert run.counters[key] == 0.0

    def test_salvage_discarded_after_success(self, tmp_path):
        outcome = run_jobs(
            [_spec()],
            config=_cfg(isolate=False, retries=1, run_dir=tmp_path,
                        chaos=_chaos_once("crash@phase3")))
        assert outcome.ok
        assert not SalvageStore(tmp_path).jobs()

    def test_corrupt_salvage_quarantined_then_fresh(self, tmp_path):
        """The retry must refuse rotten salvage: quarantine it and
        recompute from scratch, still converging to success."""
        outcome = run_jobs(
            [_spec()],
            config=_cfg(isolate=False, retries=1, run_dir=tmp_path,
                        chaos=_chaos_once("corrupt-salvage")))
        assert outcome.ok
        assert outcome.records[0].attempts == 2
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == ["salvage-s27-s1.json"]

    def test_ultimate_failure_yields_partial(self, tmp_path):
        """No retries left: the job fails but its salvage becomes a
        PartialRun with the completed-phase count on the record."""
        def chaos(spec, attempt):
            return "crash@phase3"
        outcome = run_jobs([_spec()],
                           config=_cfg(isolate=False, run_dir=tmp_path,
                                       chaos=chaos))
        assert not outcome.ok
        record = outcome.records[0]
        assert record.status == "failed"
        assert record.salvaged_phase == 2
        partial = outcome.partials["s27"]
        assert partial.phases_completed == 2
        assert partial.label == "PARTIAL(phase 2/4)"
        assert partial.arm_metric("random", "t0_length") == 200
        summary = outcome.failure_summary().render()
        assert "phase 2/4" in summary

    def test_perturbed_seed_skipped_with_salvage(self, tmp_path):
        """The final-attempt seed perturbation must not fire when
        salvage exists -- resuming under a different seed would splice
        two streams."""
        spec = _spec()
        state = harness._JobState(spec, attempts=2)
        cfg = _cfg(retries=1)
        assert harness._attempt_seed(spec, 2, cfg,
                                     has_salvage=False) == \
            spec.seed + harness.SEED_PERTURBATION
        assert harness._attempt_seed(spec, 2, cfg,
                                     has_salvage=True) == spec.seed
        assert state  # silence unused warning


class TestKnobMismatchedSalvage:
    """Salvage left by a job under other result knobs never seeds a
    job: a plain job after a crashed ``power_budget`` job (and the
    reverse) matches a clean run and records its own knobs, and so
    does a plain job after salvage an older version recorded with a
    retired knob on.  Salvage recorded with a retired knob off is
    still resumed."""

    BUDGET = 3.0

    @staticmethod
    def _b02(**knobs):
        return JobSpec("b02", seed=1, arms=("seqgen",),
                       with_baselines=False, **knobs)

    @pytest.fixture(scope="class")
    def clean(self):
        """``proposed_to_dict`` of clean b02 runs, keyed by budget."""
        refs = {}
        for budget in (None, self.BUDGET):
            outcome = run_jobs([self._b02(power_budget=budget)],
                               config=_cfg(isolate=False))
            assert outcome.ok
            refs[budget] = reporting.proposed_to_dict(
                outcome.runs[0].arms["seqgen"].result)
        return refs

    def _crash(self, run_dir, dead):
        died = run_jobs([dead],
                        config=_cfg(isolate=False, retries=0,
                                    run_dir=run_dir,
                                    chaos=_chaos_once("crash@phase4")))
        assert not died.ok
        assert died.records[0].salvaged_phase == 3

    def _run(self, run_dir, live):
        outcome = run_jobs([live], config=_cfg(isolate=False, retries=0,
                                               run_dir=run_dir))
        assert outcome.ok
        return outcome.runs[0]

    @pytest.mark.parametrize("knob", ["power_budget", *RETIRED_KNOBS])
    def test_plain_job_after_knob_salvage(self, tmp_path, clean, knob):
        if knob in RETIRED_KNOBS:
            # This version cannot run the knob, so relabel plain
            # salvage the way an older version recorded it.
            self._crash(tmp_path, self._b02())
            store = SalvageStore(tmp_path)
            payload = store.load("b02", 1)
            payload["knobs"][knob] = True
            store.write("b02", 1, payload)
        else:
            # The budget shapes b02's result, so reuse would show.
            assert clean[self.BUDGET] != clean[None]
            self._crash(tmp_path, self._b02(power_budget=self.BUDGET))
        run = self._run(tmp_path, self._b02())
        assert run.counters["candidate_passes"] > 0  # Phase 1 reran
        assert run.knobs["power_budget"] is None
        assert reporting.proposed_to_dict(
            run.arms["seqgen"].result) == clean[None]

    @pytest.mark.parametrize("knob", ["power_budget", *RETIRED_KNOBS])
    def test_knob_job_after_plain_salvage(self, tmp_path, clean, knob):
        if knob in RETIRED_KNOBS:
            # This version can only run the knob at its off value, so
            # the knob job is the plain job: salvage an older version
            # recorded with the knob off must be resumed, not rerun.
            self._crash(tmp_path, self._b02())
            store = SalvageStore(tmp_path)
            payload = store.load("b02", 1)
            payload["knobs"][knob] = RETIRED_KNOBS[knob]
            store.write("b02", 1, payload)
            run = self._run(tmp_path, self._b02())
            assert run.counters["candidate_passes"] == 0  # resumed
            assert reporting.proposed_to_dict(
                run.arms["seqgen"].result) == clean[None]
            return
        self._crash(tmp_path, self._b02())
        run = self._run(tmp_path, self._b02(power_budget=self.BUDGET))
        assert run.knobs["power_budget"] == self.BUDGET
        assert reporting.proposed_to_dict(
            run.arms["seqgen"].result) == clean[self.BUDGET]


class TestDoctor:
    def _campaign(self, run_dir, circuits=("s27",)):
        specs = [_spec(c) for c in circuits]
        outcome = run_jobs(specs, config=_cfg(isolate=False,
                                              run_dir=run_dir))
        assert outcome.ok
        return outcome

    def test_clean_dir(self, tmp_path):
        self._campaign(tmp_path)
        report = doctor(tmp_path)
        assert report.clean
        assert report.n_quarantined == 0
        assert "verdict: clean" in report.render()
        assert report.to_dict()["clean"] is True

    def test_quarantines_exactly_the_corrupt_lines(self, tmp_path):
        self._campaign(tmp_path, circuits=("s27", "b02"))
        store = RunStore(tmp_path)
        lines = store.runs_path.read_text().splitlines()
        assert len(lines) == 2
        # Flip one character inside the first checkpoint's payload;
        # the envelope stays valid JSON, the CRC catches the rot.
        lines[0] = lines[0].replace('"seed":1', '"seed":3', 1)
        store.runs_path.write_text("".join(l + "\n" for l in lines))
        report = doctor(tmp_path)
        assert not report.clean
        assert report.n_quarantined == 1
        runs_report = next(f for f in report.files
                           if f.name == "runs.jsonl")
        assert runs_report.quarantined == 1
        assert runs_report.records == 1
        # A subsequent resume recomputes only the quarantined job.
        outcome = run_jobs([_spec("s27"), _spec("b02")],
                           config=_cfg(isolate=False, run_dir=tmp_path,
                                       resume=True))
        assert outcome.ok
        statuses = {r.circuit: r.status for r in outcome.records}
        assert statuses == {"s27": "ok", "b02": "skipped-resume"}

    def test_orphaned_salvage_removed(self, tmp_path):
        self._campaign(tmp_path)
        salvage = SalvageStore(tmp_path)
        salvage.write("s27", 1, {"circuit": "s27", "seed": 1,
                                 "arms": {}, "completed_arms": {}})
        report = doctor(tmp_path)
        assert report.orphaned_salvage == ["s27-s1.json"]
        assert not salvage.exists("s27", 1)
        assert report.clean  # orphans are tidied, not corruption

    def test_resumable_salvage_reported(self, tmp_path):
        def chaos(spec, attempt):
            return "crash@phase3"
        run_jobs([_spec()], config=_cfg(isolate=False,
                                        run_dir=tmp_path, chaos=chaos))
        report = doctor(tmp_path)
        assert report.salvageable == [("s27", 1, 2)]
        assert "resumable from phase 2" in report.render()

    def test_corrupt_salvage_quarantined(self, tmp_path):
        self._campaign(tmp_path)
        salvage = SalvageStore(tmp_path)
        salvage.write("b02", 1, {"circuit": "b02", "seed": 1})
        path = salvage.path("b02", 1)
        path.write_text(path.read_text().replace('"seed":1',
                                                 '"seed":9'))
        report = doctor(tmp_path)
        assert report.quarantined_salvage == ["b02-s1.json"]
        assert not report.clean
