"""Benchmark workloads and the child-process entry points.

Each workload is a user-facing run pinned to ``--engine auto`` with
``--delay``.  The CLI workloads run ``repro-compact`` itself; bench1k is
not a suite circuit, so its fresh-process run is this file's ``job``
sub-command calling :func:`repro.experiments.runner.run_circuit`, as a
user script would.  ``perfbench/README.md`` says why each workload was
chosen and which layers it stresses.

Sub-commands (run from the repository root with ``src`` importable)::

    python3 perfbench/workloads.py job WORKLOAD --seed N --out DIR [--trace FILE]
    python3 perfbench/workloads.py setup WORKLOAD

``job`` runs one job in this process -- bench1k as a user script, a CLI
workload through ``repro.cli.main`` with ``HarnessConfig(isolate=False)``
-- and writes ``DIR/job.json`` (its in-process wall time, and with
``--trace`` the per-span self times plus a Chrome trace in FILE).
Results land in ``DIR`` as the CLI's run store (``--run-dir``) or, for
bench1k, ``DIR/run.json``.  ``setup`` is the cold set-up probe: import,
build every circuit's ``Workbench`` and make the first
``array_backend`` access (the C-kernel build); it prints the kernel
status as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro-compact`` arguments (without ``--seed``/``--run-dir``);
    #: ``None`` for the bench1k user script.
    cli: Optional[Tuple[str, ...]]
    #: Wall seconds of one fresh-process job on a 2-core Xeon; a run
    #: of ``--seconds S`` makes ``max(1, round(S / nominal_s))`` jobs.
    nominal_s: float


WORKLOADS = {w.name: w for w in (
    Workload("tables_quick", ("tables", "--engine", "auto", "--delay"), 9.5),
    Workload("circuit_s526",
             ("circuit", "s526", "--engine", "auto", "--delay"), 9.5),
    Workload("bench1k", None, 31.0),
)}

#: bench1k: the repository's established >1000-fault circuit.
BENCH1K = dict(n_pi=12, n_po=10, n_ff=28, n_gates=330, seed=7,
               t0_length=100, seq_budget=100)


def bench1k_profile() -> Any:
    from repro.circuits import synth
    from repro.circuits.suite import CircuitProfile

    def build() -> Any:
        return synth.generate("bench1k", BENCH1K["n_pi"], BENCH1K["n_po"],
                              BENCH1K["n_ff"], BENCH1K["n_gates"],
                              seed=BENCH1K["seed"])
    return CircuitProfile("bench1k", build,
                          t0_length=BENCH1K["t0_length"],
                          seq_budget=BENCH1K["seq_budget"])


def circuits(workload: str) -> List[str]:
    """Circuit names one job of ``workload`` runs, in run order."""
    from repro.circuits import suite
    if workload == "tables_quick":
        return [p.name for p in suite.quick_suite()]
    if workload == "circuit_s526":
        return ["s526"]
    return ["bench1k"]


def netlist(circuit: str) -> Any:
    from repro.circuits import suite
    if circuit == "bench1k":
        return bench1k_profile().build()
    return suite.profile(circuit).build()


def cli_argv(workload: Workload, seed: int, run_dir: str) -> List[str]:
    assert workload.cli is not None
    return [*workload.cli, "--seed", str(seed), "--run-dir", run_dir]


def load_runs(workload: str, out_dir: str) -> Dict[str, Any]:
    """Circuit -> CircuitRun written by one job into ``out_dir``."""
    from repro.experiments import reporting
    from repro.experiments.harness import RunStore
    if WORKLOADS[workload].cli is None:
        path = os.path.join(out_dir, "run.json")
        if not os.path.exists(path):
            return {}
        with open(path) as handle:
            return {"bench1k": reporting.run_from_dict(json.load(handle))}
    runs, _corrupt = RunStore(out_dir).load_runs()
    return {circuit: run for (circuit, _seed), run in runs.items()}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def _run_job(workload: Workload, seed: int, out_dir: str) -> int:
    if workload.cli is None:
        from repro.experiments import reporting
        from repro.experiments.runner import run_circuit
        run = run_circuit(bench1k_profile(), seed=seed, engine="auto",
                          delay=True)
        reporting.atomic_write_text(
            os.path.join(out_dir, "run.json"),
            json.dumps(reporting.run_to_dict(run)))
        return 0
    import functools
    from repro import cli
    from repro.experiments.harness import HarnessConfig
    isolate_off = functools.partial(HarnessConfig, isolate=False)
    saved = cli.HarnessConfig
    cli.HarnessConfig = isolate_off  # type: ignore[misc]
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            return cli.main(cli_argv(workload, seed, out_dir))
    finally:
        cli.HarnessConfig = saved  # type: ignore[misc]


def job_main(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    started = time.perf_counter()
    try:
        if tracer is None:
            status = _run_job(workload, args.seed, args.out)
        else:
            with tracer.span(tracing.ROOT):
                status = _run_job(workload, args.seed, args.out)
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.restore()
    from repro.sim import npsim
    report: Dict[str, Any] = {
        "wall_s": wall, "status": status,
        "kernel_unavailable": npsim.kernel_unavailable_reason()}
    if tracer is not None:
        tracer.write_chrome(args.trace)
        report["root_s"] = tracer.root_seconds()
        report["spans"] = tracer.layer_times()
        report["counts"] = tracer.counts
    with open(os.path.join(args.out, "job.json"), "w") as handle:
        json.dump(report, handle)
    return status


def setup_main(args: argparse.Namespace) -> int:
    from repro import api
    from repro.sim import npsim
    for circuit in circuits(args.workload):
        wb = api.Workbench.for_netlist(netlist(circuit), engine="auto",
                                       lint=True)
        wb.circuit.array_backend
    json.dump({"kernel_unavailable": npsim.kernel_unavailable_reason()},
              sys.stdout)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_job = sub.add_parser("job")
    p_job.add_argument("workload", choices=sorted(WORKLOADS))
    p_job.add_argument("--seed", type=int, required=True)
    p_job.add_argument("--out", required=True)
    p_job.add_argument("--trace", help="write a Chrome trace here")
    p_job.set_defaults(func=job_main)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("workload", choices=sorted(WORKLOADS))
    p_setup.set_defaults(func=setup_main)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
