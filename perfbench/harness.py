"""Shared pieces of the benchmark: the clock, the calibration kernel that
speed-corrects every timing, the span recorder and small statistics.

Importing this module pins BLAS/OpenMP to one thread in this process and in
every process it starts. numpy reads the variables once, when it is first
imported, so import this module before anything that imports numpy.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

#: Thread settings forced on every process the benchmark starts. With the
#: default OpenBLAS pool, the small matrices of this library spend more time
#: waking helper threads than computing (see README.md, cause 2).
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
if "numpy" in sys.modules:
    raise ImportError("harness must be imported before numpy to pin its threads")
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

#: Nominal duration of one calibration sample, in ms. Fixed once; every
#: corrected time is ``raw * CALIB_NOMINAL_MS / calibration sample``. Never
#: re-fit it: a changed constant rescales every corrected metric.
CALIB_NOMINAL_MS = 10.0

#: A calibration sample during which the process used more CPU than this
#: multiple of its wall time had another thread running; it is rejected.
CALIB_CPU_GUARD = 1.1

_CALIB_REPEATS = 3
_CALIB_LOOP = 2800
_CALIB_SMALL = 8
_CALIB_MID = 320


def now() -> float:
    """System-wide monotonic time in seconds, comparable across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


class Calibrator:
    """Runs the fixed calibration kernel and keeps its samples.

    The kernel uses numpy only, never the library under test: a Python loop
    of 8x8 complex matmuls (interpreter and call overhead, like most of the
    library's small-matrix code) and one mid-size complex matmul (BLAS
    throughput). It takes about ``CALIB_NOMINAL_MS`` on an idle core. One
    sample runs it three times and reports the median run: a single 10 ms
    run is too short to average out the host's fast fluctuations (sample to
    sample noise 0.17 against 0.11 for 30 ms, measured on a 2-core VM), and
    the median keeps one interrupted run from skewing an item's correction.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20030218)
        small = rng.standard_normal((_CALIB_SMALL,) * 2) + 1j * rng.standard_normal(
            (_CALIB_SMALL,) * 2
        )
        self._small, _ = np.linalg.qr(small)  # unitary: the loop stays bounded
        self._vec = np.eye(_CALIB_SMALL, dtype=np.complex128)
        self._mid = rng.standard_normal((_CALIB_MID,) * 2) + 1j * rng.standard_normal(
            (_CALIB_MID,) * 2
        )
        self.samples_ms: list[float] = []
        self.rejects = 0

    def _kernel(self) -> None:
        x = self._vec
        a = self._small
        for _ in range(_CALIB_LOOP):
            x = a @ x
        self._mid @ self._mid

    def sample(self) -> float | None:
        """One calibration sample in ms, or None if the CPU guard rejected it."""
        c0 = time.process_time()
        runs = []
        for _ in range(_CALIB_REPEATS):
            t0 = now()
            self._kernel()
            runs.append(now() - t0)
        cpu = time.process_time() - c0
        if cpu > CALIB_CPU_GUARD * sum(runs):
            self.rejects += 1
            return None
        ms = statistics.median(runs) * 1e3
        self.samples_ms.append(ms)
        return ms


def correction(before: float | None, after: float | None, fallback: float) -> float:
    """Factor that turns a raw time into a corrected one.

    ``fallback`` stands in for a rejected sample (the median of the run's
    accepted samples).
    """
    samples = [s for s in (before, after) if s is not None] or [fallback]
    return CALIB_NOMINAL_MS / statistics.fmean(samples)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, item.

    Spans stay in memory; the worker writes them out when it ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.item = -1

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "item": self.item, "parent": parent, "start": now()}
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span["end"] = now()


class NullTracer:
    """Stands in for :class:`Tracer` in untraced items: calls straight through."""

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0-100), linear interpolation between order statistics."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    """What a reader needs to compare two results of this benchmark."""
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "calib_nominal_ms": CALIB_NOMINAL_MS,
    }
