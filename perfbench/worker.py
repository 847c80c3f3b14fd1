"""One benchmark client: sets up a workload, then runs its items in a closed
loop for a fixed time and writes every raw measurement to a JSON file.

Started by ``run.py`` with the library on ``PYTHONPATH``; not meant to be
run by hand. With ``--setup-only`` it stops after set-up, so that ``run.py``
can time several start-ups.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
from pathlib import Path

from harness import Calibrator, NullTracer, Tracer, environment, now  # first: pins BLAS threads
from workloads import WORKLOADS

#: Item index of the untimed warm-up item; far from the timed indices so its
#: inputs differ from theirs.
WARMUP_INDEX = 10**6


def cpu_with_children() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run(args) -> dict:
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    calib = Calibrator()
    per_pass = workload.items_per_pass
    warm = WARMUP_INDEX * per_pass
    warm_ok = workload.check(warm, workload.item(warm, NullTracer()))[0]
    ready = now()
    after = calib.sample()
    result = {"ready": ready, "setup_calib_ms": after, "warmup_ok": warm_ok}
    if args.setup_only:
        return result

    tracer = Tracer() if args.trace else None
    untraced = NullTracer()
    items = []
    with open(workdir / "verdicts.jsonl", "w") as log:
        # Runs end on a whole pass; a traced run needs an untraced and a traced one.
        min_items = per_pass * (2 if args.trace else 1)
        start, index = now(), 0
        while index % per_pass or index < min_items or now() - start < args.seconds:
            traced = tracer is not None and (index // per_pass) % 2 == 1
            before = after
            if traced:
                tracer.item = index
                if index % per_pass == 0 and hasattr(workload, "fresh_import"):
                    workload.fresh_import(tracer)
                    before = calib.sample()
            gc.collect()
            c0, t0 = cpu_with_children(), now()
            if traced:
                out = tracer.call("item", workload.item, index, tracer)
            else:
                out = workload.item(index, untraced)
            t1, c1 = now(), cpu_with_children()
            after = calib.sample()
            ok, record, written = workload.check(index, out)
            line = json.dumps({"item": index, "ok": ok, **record}, sort_keys=True) + "\n"
            log.write(line)
            items.append({
                "index": index, "traced": traced, "ok": ok,
                "raw_ms": (t1 - t0) * 1e3, "cpu_ms": (c1 - c0) * 1e3,
                "calib_before_ms": before, "calib_after_ms": after,
                "program_bytes": written, "output_bytes": written + len(line.encode()),
            })
            index += 1

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        items=items,
        calib_samples_ms=calib.samples_ms,
        calib_rejects=calib.rejects,
        spans=tracer.spans if tracer else [],
        peak_rss_kb=max(self_rss, child_rss),
        environment=environment(),
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = run(args)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
