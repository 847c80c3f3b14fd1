"""What the benchmark measures: workloads, metric names, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``steady.py``; edit the values here, never the JSON by hand.
"""

from __future__ import annotations

RUN_SECONDS = 30

#: Start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Seed used when ``--seed`` is not given, and one seed kept out of all
#: tuning, for checking a later speed claim on inputs nobody tuned against.
DEFAULT_SEEDS = {"sp_verify": 11, "dilate_roundtrip": 23, "cli_session": 37}
HELD_OUT_SEEDS = {"sp_verify": 9011, "dilate_roundtrip": 9023, "cli_session": 9037}

WORKLOADS = {
    "sp_verify": "four SP verifier routes, Kraus rank and block round trip at 2+2/4+4/6+6 "
    "on SP and leaky channels; no dilation, file or process start",
    "dilate_roundtrip": "dilation build and audit at 2+2/3+3 plus a bit-exact JSON file "
    "round trip; no verifier loops and no process start",
    "cli_session": "one CLI process per command over an 8-command pipeline on 2+2 "
    "channels; interpreter start, import and file I/O dominate",
}

#: (name, unit, better, bound). Each timing bound is three to four times the
#: largest run-to-run spread of the speed-corrected metric measured over ten
#: seeds on a noisy 2-core VM (see STEADINESS.json and README.md): 0.039 for
#: the median, 0.048 for CPU, 0.051 for items/s (a mean, so the slowest items
#: move it), 0.083 for the 90th percentile, whose ~45 samples per sp_verify
#: run give it the widest sampling error. The median also has to absorb the
#: correction's residual dependence on host load in cli_session (corrected
#: p50 moved about -0.2 x the log of the calibration level), hence 0.15.
#: Set-up time, which includes process start, gets the largest bound allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.2),
    ("item_p50_ms", "ms", "lower", 0.15),
    ("item_p90_ms", "ms", "lower", 0.25),
    ("cpu_per_item_ms", "ms", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("output_bytes_per_item", "B", "lower", 0.05),
    ("ok_ratio", "ratio", "higher", 0.01),
)

_ROUTES = ("definition", "commutation", "trace", "kraus_blocks")

#: Every span the workloads record. Per-layer metrics ``<span>.ms`` (corrected
#: time per item) and ``<span>.calls`` (calls per item) exist for each.
SPANS = (
    *(f"sp.{r}_violation.{s}" for r in _ROUTES for s in ("s2_2", "s4_4", "s6_6")),
    "sp.random_sp_channel",
    "sp.blocks_from_sp",
    "sp.sp_from_blocks",
    "cpm.kraus_rank",
    "cpm.choi_to_kraus",
    "cpm.channels_equal",
    "cpm.apply",
    "linalg.block_psd_check",
    *(f"dilation.{f}.{s}" for f in ("build_dilation", "verify_dilation") for s in ("s2_2", "s3_3")),
    "dilation.apply_dilation",
    "serialize.dilation_to_obj",
    "serialize.write_file",
    "serialize.read_file",
    "serialize.dilation_from_obj",
    "cli.import",
    *(f"cli.{c}" for c in ("gen", "verify", "convert", "compose", "kraus-rank", "dilate")),
)

#: Layers whose share of traced item time is reported as ``<layer>.share``.
SHARE_LAYERS = ("sp", "dilation", "serialize")

PER_LAYER = (
    *((f"{s}.{kind}", unit, "lower") for s in SPANS for kind, unit in (("ms", "ms"), ("calls", "count"))),
    *((f"{layer}.share", "ratio", "lower") for layer in SHARE_LAYERS),
    ("serialize.bytes", "B", "lower"),
    ("cli.exit_mismatch", "count", "lower"),
    ("bench.calib_ms", "ms", "lower"),
    ("bench.calib_rejects", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.span_coverage", "ratio", "higher"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
