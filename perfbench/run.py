"""The repository benchmark: user-facing runs, a traced run, result checks.

Run from the repository root::

    python3 perfbench/run.py --workload circuit_s526 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload

``--trace 0`` runs the workload's jobs in fresh processes exactly as a
user would (``repro-compact ... --engine auto --delay``, or the bench1k
user script), times them from outside, measures cold set-up in
separate processes, then checks every job outside the timed region:
the result digest against ``perfbench/reference.json`` (when the master
seed has one) and an independent regrade (see ``check.py``).  It
prints the end-to-end metrics.

``--trace 1`` runs the first master seed as a fresh process, in-process
untraced (CLI workloads; the bench1k user script is already
in-process) and in-process traced (``tracing.py``), checks every run,
requires equal digests, and prints the per-layer metrics.  The
Chrome trace lands in ``.perfbench_work/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any job failed (non-zero exit, exception, digest or regrade
mismatch) and 2 when the checkout has no ``src/repro`` to measure.
A run reads and writes only inside the checkout: children get
``TMPDIR`` under ``.perfbench_work`` and every ``REPRO_*`` variable
cleared, so each starts cold (the C kernel is compiled per process,
as for a user without ``REPRO_KERNEL_CACHE``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

#: Every end-to-end run must finish inside this many seconds; children
#: still running when it is spent are killed and count as failed.
RUN_LIMIT_S = 170.0
#: Cold set-up probes per run (their median is ``setup_s``).
SETUP_PROBES = 3
#: Master seeds after the first are ``seed + SEED_STRIDE * j``, so runs
#: at nearby ``--seed`` values never share a job.
SEED_STRIDE = 1000

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "n_cyc_proposed": "cycles", "n_cyc_baseline4": "cycles",
    "detected_faults": "count", "at_speed_pairs": "count",
    "tdf_coverage_pct": "%",
}

#: Spans whose self time is reported as ``<span>_s``.
TIMED_SPANS = (
    "experiments.render", "circuits.build", "analysis.faultspace",
    "analysis.lint", "sim.compile", "sim.kernel_load", "atpg.comb_set",
    "atpg.random_phase", "atpg.podem", "atpg.comb_compact", "atpg.seqgen",
    "core.proposed", "core.phase1", "core.phase2", "core.phase3",
    "core.phase4", "core.baseline4", "core.dynamic", "sim.detect",
    "sim.trials", "sim.candidates", "sim.records", "sim.comb_block",
    "sim.array", "power.set_power", "delay.measure",
)
#: Spans whose call count is reported as ``<span>_calls``.
COUNTED_SPANS = ("atpg.podem", "sim.detect", "sim.trials",
                 "sim.candidates", "sim.records", "sim.comb_block",
                 "sim.array")
#: Per-layer metric -> ``SimCounters`` field, summed over circuits.
PROGRAM_COUNTERS = {
    "sim.frames": "frames", "sim.words": "words",
    "sim.np_passes": "np_passes", "sim.trial_passes": "trial_passes",
    "sim.comb_passes": "comb_passes", "sim.detect_passes": "detect_passes",
    "sim.faults_dropped": "faults_dropped", "sim.repacks": "repacks",
    "delay.tdf_passes": "tdf_passes", "delay.tdf_words": "tdf_words",
    "core.combine_trials": "combine_trials",
}


def per_layer_units() -> Dict[str, str]:
    units = {f"{span}_s": "s" for span in TIMED_SPANS}
    units.update({f"{span}_calls": "count" for span in COUNTED_SPANS})
    units.update({name: "count" for name in PROGRAM_COUNTERS})
    units.update({
        "sim.machines_per_word": "count", "sim.glue_share": "fraction",
        "atpg.comb_tests": "count", "atpg.aborted": "count",
        "core.omission_trials": "count", "core.omission_yield": "fraction",
        "core.combine_yield": "fraction",
        "experiments.isolation_s": "s", "trace.overhead_s": "s",
        "trace.total_s": "s", "trace.unattributed_s": "s",
    })
    return units


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

@dataclass
class Child:
    """Outcome of one child process: exit status, wall, CPU, peak RSS."""

    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


class Runner:
    """Starts children in a clean environment inside the checkout."""

    def __init__(self, scratch: Path, deadline: float) -> None:
        self.scratch = scratch
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.n = 0

    def run(self, argv: List[str], capture: bool = False) -> Child:
        """Run ``argv`` to completion; resource usage covers the child
        and every descendant it waited for (harness workers, ``cc``)."""
        self.n += 1
        tmp = self.scratch / f"tmp{self.n}"
        tmp.mkdir(parents=True)
        env = dict(self.env, TMPDIR=str(tmp))
        out_path = self.scratch / f"out{self.n}.txt"
        err_path = self.scratch / f"err{self.n}.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                    stderr=err, start_new_session=True)
            limit = max(1.0, self.deadline - time.monotonic())
            killer = threading.Timer(limit, _kill_group, (proc.pid,))
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text()[-2000:]
            print(f"child {' '.join(argv)} exited {proc.returncode}:\n"
                  f"{tail}", file=sys.stderr)
        shutil.rmtree(tmp, ignore_errors=True)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0,
                     out_path.read_text() if capture else "")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, 9)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

class Checker:
    """Digest + regrade of every job; counts attempted/failed circuits."""

    def __init__(self, workload: str) -> None:
        import workloads
        self.workload = workload
        self.circuits = workloads.circuits(workload)
        self.netlists = {c: workloads.netlist(c) for c in self.circuits}
        self.reference = (json.loads(REFERENCE.read_text())
                          if REFERENCE.exists() else {})
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Time spent checking, outside every timed region.
        self.seconds = 0.0

    def expected(self, seed: int, circuit: str) -> Optional[str]:
        return self.reference.get(self.workload, {}).get(
            str(seed), {}).get(circuit)

    def check(self, seed: int, out_dir: Path, label: str,
              status: int) -> Dict[str, Any]:
        """Circuit -> (digest, run) of one job; failures are recorded."""
        import check
        import workloads
        started = time.perf_counter()
        runs = workloads.load_runs(self.workload, str(out_dir))
        good: Dict[str, Any] = {}
        for circuit in self.circuits:
            self.attempted += 1
            run = runs.get(circuit)
            found, problems = check.check_job(
                run, self.netlists[circuit], self.expected(seed, circuit))
            if status != 0:
                problems.append(f"exit status {status}")
            if problems:
                self.failed += 1
                self.problems += [f"{label} seed {seed} {circuit}: {p}"
                                  for p in problems]
            else:
                good[circuit] = (found, run)
        self.seconds += time.perf_counter() - started
        return good


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def master_seeds(workload: Any, seed: int, seconds: float) -> List[int]:
    jobs = max(1, round(seconds / workload.nominal_s))
    return [seed + SEED_STRIDE * j for j in range(jobs)]


def job_argv(workload: Any, seed: int, out_dir: Path, fresh: bool,
             trace: Optional[Path] = None) -> List[str]:
    """The fresh-process (user) command, or the in-process job."""
    import workloads
    if fresh and workload.cli is not None:
        return [sys.executable, "-m", "repro.cli",
                *workloads.cli_argv(workload, seed, str(out_dir))]
    argv = [sys.executable, str(BENCH / "workloads.py"), "job",
            workload.name, "--seed", str(seed), "--out", str(out_dir)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    return argv


def end_to_end(workload: Any, seed: int, seconds: float, runner: Runner,
               checker: Checker, host: Dict[str, Any]) -> Dict[str, float]:
    import check
    seeds = master_seeds(workload, seed, seconds)
    jobs: List[Tuple[int, Path, Child]] = []
    for master in seeds:
        out_dir = runner.scratch / f"job-{master}"
        jobs.append((master, out_dir,
                     runner.run(job_argv(workload, master, out_dir, True))))
    setups = [runner.run([sys.executable, str(BENCH / "workloads.py"),
                          "setup", workload.name], capture=True)
              for _ in range(SETUP_PROBES)]
    probe = setups[0]
    host["kernel_unavailable"] = (json.loads(probe.stdout)
                                  ["kernel_unavailable"]
                                  if probe.status == 0 else "probe failed")
    if any(s.status != 0 for s in setups):
        checker.problems.append("set-up probe failed")
    totals: Dict[str, List[float]] = {}
    for master, out_dir, child in jobs:
        good = checker.check(master, out_dir, "fresh", child.status)
        host.setdefault("digests", {})[str(master)] = {
            c: d for c, (d, _run) in good.items()}
        per_job: Dict[str, float] = {}
        for _digest, run in good.values():
            for key, value in check.quality(run).items():
                per_job[key] = per_job.get(key, 0.0) + value
        if len(good) == len(checker.circuits):
            per_job["tdf_coverage_pct"] /= len(good)
            for key, value in per_job.items():
                totals.setdefault(key, []).append(value)
    metrics = {
        "wall_s": statistics.fmean(c.wall_s for _m, _d, c in jobs),
        "cpu_s": statistics.fmean(c.cpu_s for _m, _d, c in jobs),
        "setup_s": statistics.median(s.wall_s for s in setups),
        "peak_rss_mb": statistics.fmean(c.rss_mb for _m, _d, c in jobs),
    }
    for key, values in totals.items():
        metrics[key] = statistics.fmean(values)
    host["jobs"] = [{"seed": m, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                     "rss_mb": c.rss_mb, "status": c.status}
                    for m, _d, c in jobs]
    host["setup_s"] = [s.wall_s for s in setups]
    return metrics


def per_layer(workload: Any, seed: int, runner: Runner, checker: Checker,
              host: Dict[str, Any]) -> Dict[str, float]:
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{workload.name}-seed{seed}.json"
    variants = {
        "fresh": job_argv(workload, seed, runner.scratch / "fresh", True)}
    if workload.cli is not None:
        # The fresh CLI job isolates circuits in workers; the bench1k
        # user script already runs in-process and times itself.
        variants["inproc"] = job_argv(workload, seed,
                                      runner.scratch / "inproc", False)
    variants["traced"] = job_argv(workload, seed, runner.scratch / "traced",
                                  False, trace_path)
    children = {label: runner.run(argv) for label, argv in variants.items()}
    digests: Dict[str, Dict[str, str]] = {}
    runs: Dict[str, Any] = {}
    for label, child in children.items():
        good = checker.check(seed, runner.scratch / label, label,
                             child.status)
        digests[label] = {c: d for c, (d, _run) in good.items()}
        if label == "traced":
            runs = {c: run for c, (_d, run) in good.items()}
    if len({json.dumps(d, sort_keys=True) for d in digests.values()}) != 1:
        checker.problems.append(f"digests differ between runs: {digests}")
    host["digests"] = digests
    if any(child.status != 0 for child in children.values()):
        return {}
    untraced = "inproc" if "inproc" in variants else "fresh"
    inproc = json.loads((runner.scratch / untraced / "job.json").read_text())
    traced = json.loads((runner.scratch / "traced" / "job.json").read_text())
    host["kernel_unavailable"] = traced["kernel_unavailable"]
    host["trace_file"] = str(trace_path.relative_to(ROOT))
    spans: Dict[str, Dict[str, float]] = traced["spans"]
    counts: Dict[str, float] = traced["counts"]

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    metrics: Dict[str, float] = {f"{n}_s": self_s(n) for n in TIMED_SPANS}
    metrics.update({f"{n}_calls": spans.get(n, {}).get("calls", 0)
                    for n in COUNTED_SPANS})
    counters: Dict[str, float] = {}
    accepted = tried = 0
    for run in runs.values():
        for key, value in run.counters.items():
            if isinstance(value, (int, float)):
                counters[key] = counters.get(key, 0) + value
        stats = [arm.result.combine_stats for arm in run.arms.values()]
        stats.append(run.baseline4.stats)
        for s in stats:
            if s is not None:
                accepted += s.combinations_accepted
                tried += s.combinations_tried
    for name, field in PROGRAM_COUNTERS.items():
        metrics[name] = counters.get(field, 0)
    metrics["sim.machines_per_word"] = (
        counters.get("machines", 0) / counters["words"]
        if counters.get("words") else 0.0)
    sim_s = sum(v["self_s"] for k, v in spans.items()
                if k.startswith("sim.") and k not in ("sim.compile",
                                                      "sim.kernel_load"))
    metrics["sim.glue_share"] = (1.0 - self_s("sim.array") / sim_s
                                 if sim_s else 0.0)
    metrics["atpg.comb_tests"] = counts.get("atpg.comb_tests", 0)
    metrics["atpg.aborted"] = counts.get("atpg.aborted", 0)
    trials = counts.get("core.omission_trials", 0)
    metrics["core.omission_trials"] = trials
    metrics["core.omission_yield"] = (counts.get("core.omitted", 0) / trials
                                      if trials else 0.0)
    metrics["core.combine_yield"] = accepted / tried if tried else 0.0
    metrics["experiments.isolation_s"] = (children["fresh"].wall_s
                                          - inproc["wall_s"])
    metrics["trace.overhead_s"] = traced["wall_s"] - inproc["wall_s"]
    metrics["trace.total_s"] = traced["root_s"]
    metrics["trace.unattributed_s"] = self_s("experiments.run")
    total_self = sum(v["self_s"] for v in spans.values())
    if abs(total_self - traced["root_s"]) > 1e-6 * max(1.0, total_self):
        checker.problems.append(
            f"span self times sum to {total_self}, root is "
            f"{traced['root_s']}")
    host["spans"] = spans
    host["top_self_time"] = sorted(
        ((k, v["self_s"]) for k, v in spans.items()),
        key=lambda kv: -kv[1])[:6]
    return metrics


# ----------------------------------------------------------------------
# Host fingerprint and output
# ----------------------------------------------------------------------

def steal_seconds() -> Optional[float]:
    """CPU time the hypervisor took from this machine so far (the
    ``steal`` column of ``/proc/stat``); ``None`` where unavailable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def fingerprint() -> Dict[str, Any]:
    from importlib import metadata
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "cffi"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    cc = shutil.which(os.environ.get("CC") or "cc") or shutil.which("gcc")
    cc_version = None
    if cc:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True)
        cc_version = (out.stdout.splitlines() or [""])[0]
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "cc": cc_version, "commit": commit,
            "kernel_unavailable": None}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: bool = False) -> Dict[str, Any]:
    import workloads
    workload = workloads.WORKLOADS[name]
    scratch = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    host = fingerprint()
    runner = Runner(scratch, time.monotonic() + RUN_LIMIT_S)
    checker = Checker(name)
    steal = steal_seconds()
    try:
        if trace:
            metrics = per_layer(workload, seed, runner, checker, host)
            units = per_layer_units()
        else:
            metrics = end_to_end(workload, seed, seconds, runner, checker,
                                 host)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    after = steal_seconds()
    if steal is not None and after is not None:
        # Time a shared host withheld from this run: large values
        # explain slow outliers.
        host["steal_s"] = after - steal
    if host["kernel_unavailable"]:
        print(f"WARNING: the C pass kernel is unavailable "
              f"({host['kernel_unavailable']}); --engine auto then runs "
              f"the big-int engines only, so this run measures a "
              f"different program from a host with the kernel.",
              file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        checker.problems.append(f"metrics not measured: {missing}")
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    host["check_s"] = checker.seconds
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                    "host": host, "problems": checker.problems,
                    "result": result}, indent=1))
    if record and not trace and result["correct"]:
        reference = (json.loads(REFERENCE.read_text())
                     if REFERENCE.exists() else {})
        reference.setdefault(name, {}).update(host["digests"])
        REFERENCE.write_text(json.dumps(reference, indent=1,
                                        sort_keys=True) + "\n")
    print(f"{name} seed {seed}: host {host['cpu_model']} x"
          f"{host['nproc']}, python {host['python']}, numpy "
          f"{host['numpy']}, cffi {host['cffi']}, commit {host['commit']}, "
          f"steal {host.get('steal_s', 0.0):.1f}s", file=sys.stderr)
    if "top_self_time" in host:
        top = ", ".join(f"{k} {v:.2f}s" for k, v in host["top_self_time"])
        print(f"{name}: top self time: {top}; outside the spans: "
              f"experiments.isolation_s "
              f"{metrics['experiments.isolation_s']:.2f}s", file=sys.stderr)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="first master seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time; sets the jobs per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the reference")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: nothing to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.record)
               for name in names}
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:13s} {metric:28s} {entry['value']:14.6g} "
                  f"{entry['unit']}", file=sys.stderr)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
