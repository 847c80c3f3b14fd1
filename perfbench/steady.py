"""Run every workload over several seeds and record how steady the metrics are.

    python3 perfbench/steady.py --runs 10

For each workload this runs ``run.py`` once per seed with tracing off, then
once with tracing on. It prints every end-to-end metric by name with its
unit, writes the run-to-run spread of each metric (distance between first
and third quartile as a share of the median), speed-corrected and raw, to
``perfbench/STEADINESS.json``, and regenerates ``BENCHMARK.json`` from
``spec.py``. A spread above a third of the metric's bound is flagged: the
benchmark is then too noisy on this host to resolve a change of that size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    out = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload (at least 2)")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="+", choices=sorted(spec.WORKLOADS),
                        default=list(spec.WORKLOADS))
    args = parser.parse_args()

    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "loadavg_start": os.getloadavg()},
        "seconds": spec.RUN_SECONDS, "seeds": seeds, "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], 1)["per_layer"]
        metrics = {}
        for name, unit, _, bound in spec.END_TO_END:
            corrected = [r["corrected"][name] for r in runs]
            raw = [r["raw"][name] for r in runs]
            entry = {
                "unit": unit, "bound": bound,
                "median": statistics.median(corrected), "spread": spread(corrected),
                "raw_median": statistics.median(raw), "raw_spread": spread(raw),
                "values": corrected, "raw_values": raw,
            }
            metrics[name] = entry
            flag = "" if entry["spread"] <= bound / 3 else "  WIDE"
            print(f"{workload} {name}: median {entry['median']:.6g} {unit}, "
                  f"spread {entry['spread']:.4f} (raw {entry['raw_spread']:.4f}), "
                  f"bound {bound}{flag}")
        report["workloads"][workload] = {
            "metrics": metrics,
            "items_per_run": [r["items"] for r in runs],
            "calib_median_ms": [r["calib_median_ms"] for r in runs],
            "calib_rejects": sum(r["calib_rejects"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced_seed": seeds[0],
            "span_coverage": traced["bench.span_coverage"],
            "trace_overhead": traced["bench.trace_overhead"],
        }
        print(f"{workload}: span coverage {traced['bench.span_coverage']:.3f}, "
              f"trace overhead {traced['bench.trace_overhead']:.3f}")
    report["host"]["loadavg_end"] = os.getloadavg()
    report["environment"] = runs[-1]["environment"]
    (HERE / "STEADINESS.json").write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
