"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs the benchmark command of ``BENCHMARK.json`` once per seed and
workload (``--trace 0``) and prints, per metric, the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
A spread above a third of the metric's bound is flagged.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py --workloads bench1k --seeds 11 12 13 14 15
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        for seed in args.seeds:
            out = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{out.stderr}")
                status = 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}"
                for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds[name]
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"{workload:13s} {name:18s} median {median:12.5g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
