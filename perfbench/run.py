"""Run one workload of the spcpm benchmark and print its metrics.

    python3 perfbench/run.py --workload sp_verify --seed 11 --seconds 30 --trace 0

Run from the root of a source checkout; the library is taken from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
The full result (raw and corrected values, sample counts, environment) and
the spans of a traced run are written under ``.perfbench_out/``. See
README.md next to this file for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from harness import Calibrator, correction, now, percentile, self_times  # first: pins BLAS threads
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: A worker that runs this much longer than its measuring time is killed.
WORKER_GRACE_S = 120


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn_worker(args, workdir: Path, result: Path, setup_only: bool) -> tuple[float, dict]:
    """Start one worker, wait for it and return (spawn time, its result)."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result),
    ]
    if setup_only:
        argv.append("--setup-only")
    if args.smoke:
        argv.append("--smoke")
    spawned = now()
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env())
    try:
        code = proc.wait(timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return spawned, json.loads(result.read_text())


def end_to_end(
    items: list[dict], setups: list[tuple[float, float]], peak_rss_kb: int, fallback: float
) -> tuple[dict, dict]:
    """(corrected metrics, the same metrics without speed correction).

    ``setups`` holds one (corrected, raw) start-up time per worker spawn.
    """
    factors = [correction(i["calib_before_ms"], i["calib_after_ms"], fallback) for i in items]
    n = len(items)

    def timing(scale: list[float]) -> dict:
        times = [i["raw_ms"] * f for i, f in zip(items, scale)]
        cpus = [i["cpu_ms"] * f for i, f in zip(items, scale)]
        return {
            "items_per_s": 1e3 * n / sum(times),
            "item_p50_ms": percentile(times, 50),
            "item_p90_ms": percentile(times, 90),
            "cpu_per_item_ms": statistics.median(cpus),
        }

    shared = {
        "peak_rss_mb": peak_rss_kb / 1024,
        "output_bytes_per_item": statistics.fmean(i["output_bytes"] for i in items),
        "ok_ratio": sum(i["ok"] for i in items) / n,
    }
    corrected = {"setup_s": statistics.median(s for s, _ in setups), **timing(factors), **shared}
    raw = {"setup_s": statistics.median(r for _, r in setups), **timing([1.0] * n), **shared}
    return corrected, raw


def per_layer(items: list[dict], spans: list[dict], verdicts: list[dict], rejects: int, fallback: float) -> dict:
    factor = {i["index"]: correction(i["calib_before_ms"], i["calib_after_ms"], fallback) for i in items}
    traced = [i for i in items if i["traced"]]
    plain = [i for i in items if not i["traced"]]
    n = len(traced)
    ms, calls = defaultdict(float), defaultdict(int)
    layer_ms, item_ms, covered_ms = defaultdict(float), 0.0, 0.0
    for span, self_s in zip(spans, self_times(spans)):
        f = factor[span["item"]]
        if span["name"] == "item":
            item_ms += (span["end"] - span["start"]) * 1e3 * f
            continue
        ms[span["name"]] += self_s * 1e3 * f
        calls[span["name"]] += 1
        layer_ms[span["name"].split(".")[0]] += self_s * 1e3 * f
        if span["parent"] is not None:
            covered_ms += (span["end"] - span["start"]) * 1e3 * f
    metrics = {}
    for name in spec.SPANS:
        metrics[f"{name}.ms"] = ms[name] / n
        metrics[f"{name}.calls"] = calls[name] / n
    for layer in spec.SHARE_LAYERS:
        metrics[f"{layer}.share"] = layer_ms[layer] / item_ms
    metrics["serialize.bytes"] = statistics.fmean(i["program_bytes"] for i in traced)
    metrics["cli.exit_mismatch"] = sum(
        1 for line in verdicts if not line.get("checks", {}).get("exit_code", True)
    )
    metrics["bench.calib_ms"] = fallback
    metrics["bench.calib_rejects"] = rejects

    def p50(group):
        return percentile([i["raw_ms"] * factor[i["index"]] for i in group], 50)

    metrics["bench.trace_overhead"] = p50(traced) / p50(plain)
    metrics["bench.span_coverage"] = covered_ms / item_ms
    return metrics


def measure(args) -> dict:
    if not (SRC / "spcpm" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC}; run from a source checkout")
    # One core for this process, the worker and every CLI process it starts:
    # the calibration kernel then always samples the core the items run on.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calib = Calibrator()
        calib.sample()  # first run pays for lazy numpy set-up; not kept
        calib.samples_ms.clear()
        repeats = 1 if args.smoke else spec.SETUP_REPEATS
        starts, result = [], None
        for k in range(repeats):
            before = calib.sample()
            last = k == repeats - 1
            spawned, result = spawn_worker(args, workdir, workdir / f"result-{k}.json", not last)
            starts.append((result["ready"] - spawned, before, result["setup_calib_ms"]))
        verdicts = [json.loads(line) for line in (workdir / "verdicts.jsonl").read_text().splitlines()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    items = result["items"]
    if not items:
        raise BenchError("no item completed")
    samples = calib.samples_ms + result["calib_samples_ms"]
    fallback = statistics.median(samples)
    setups = [(raw * correction(b, a, fallback), raw) for raw, b, a in starts]
    rejects = calib.rejects + result["calib_rejects"]
    failed = sum(1 for i in items if not i["ok"])
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": len(items), "failed": failed,
        "warmup_ok": result["warmup_ok"], "calib_median_ms": fallback,
        "calib_samples": len(samples), "calib_rejects": rejects,
        "setup_samples": len(setups), "environment": {**result["environment"], "nproc": nproc},
        "setups_s": [{"corrected": c, "raw": r} for c, r in setups],
        "raw_items": items, "calib_samples_ms": samples,
    }
    if args.trace:
        summary["per_layer"] = per_layer(items, result["spans"], verdicts, rejects, fallback)
        OUT.joinpath(f"spans-{tag}.json").write_text(json.dumps(result["spans"]))
    else:
        summary["corrected"], summary["raw"] = end_to_end(
            items, setups, result["peak_rss_kb"], fallback
        )
        summary["p50_samples"] = summary["p90_samples"] = len(items)
    summary["correct"] = failed == 0 and result["warmup_ok"]
    OUT.joinpath(f"result-{tag}.json").write_text(json.dumps(summary, indent=2))
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's default seed")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest split only and one start-up; checks the harness, not speed")
    args = parser.parse_args()
    if args.seed is None:
        args.seed = spec.DEFAULT_SEEDS[args.workload]
    try:
        summary = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = {n: u for n, u, _ in spec.PER_LAYER}
        values = summary["per_layer"]
    else:
        units = {n: u for n, u, _, _ in spec.END_TO_END}
        values = summary["corrected"]
        for name, unit in units.items():
            print(f"{args.workload} {name}: {values[name]:.6g} {unit} "
                  f"(raw {summary['raw'][name]:.6g}, n={summary['items']})")
    print(f"{args.workload}: {summary['items']} items, {summary['failed']} failed, "
          f"calibration median {summary['calib_median_ms']:.3f} ms, "
          f"{summary['calib_rejects']} rejected samples")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["items"],
        "failed": summary["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
