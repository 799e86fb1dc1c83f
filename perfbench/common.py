"""Shared pieces of the workloads: host-speed normalization, statistics,
failure and correctness accounting, the repeated set-up timer and the
environment block."""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Sequence

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: Host-speed normalization.  On a shared host the CPU runs up to ~1.7x
#: slower for stretches of a few seconds (other tenants), which moves
#: every wall time together.  A fixed pure-Python calibration loop timed
#: right before and right after a sample runs in the same stretch, so
#: ``wall * CAL_NOMINAL_S / calibration`` is the sample's time at a
#: nominal host speed: the loop taking ``CAL_NOMINAL_S``.  The loop is
#: part of the benchmark, never of the program, so a change to the
#: program moves the scaled time exactly as it moves the wall time.
CAL_ITERATIONS = 60_000
CAL_NOMINAL_S = 0.0035


def calibrate() -> float:
    """Seconds the calibration loop takes on this host right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


class Stopwatch:
    """Times one sample: ``wall`` in seconds, and ``scaled``, the wall
    time at nominal host speed (see :data:`CAL_NOMINAL_S`).  The faster
    of the two calibrations around the sample is used, so one that a
    brief hiccup slowed does not skew it."""

    def __enter__(self) -> "Stopwatch":
        self._cal = calibrate()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.wall = time.perf_counter() - self._t0
        self.scaled = self.wall * CAL_NOMINAL_S / min(self._cal, calibrate())
        return False


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100); with fewer than
    ``100 / (100 - q)`` samples this is the maximum."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Counts every operation attempted and failed, and every
    correctness check that did not hold."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    @contextlib.contextmanager
    def attempt(self, what: str):
        """One operation.  An exception marks it failed and is reported
        on stderr; the run goes on."""
        self.attempted += 1
        try:
            yield
        except (Exception, SystemExit):
            self.failed += 1
            print(f"perfbench: {what} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.mismatches.append(message)
            print(f"perfbench: check failed: {message}", file=sys.stderr)
        return ok

    @property
    def correct(self) -> bool:
        return not self.mismatches


def timed_setup(
    step: Callable[[], object], teardown: Callable[[object], None]
):
    """Run ``step`` :data:`SETUP_REPEATS` times, tearing down all but
    the last.  Returns ``(median scaled seconds, last state)``."""
    times: List[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        with Stopwatch() as watch:
            state = step()
        times.append(watch.scaled)
    return median(times), state


def warm_native() -> None:
    """Load the native kernel tier afresh (compiling it into the
    checkout's build directory on the first run)."""
    from repro.accel import native

    native.reset()
    native.load()


def _compiler_banner() -> str:
    cc = os.environ.get("CC", "").split() or [shutil.which("cc") or "cc"]
    try:
        out = subprocess.run(
            cc + ["--version"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=10,
        ).stdout.decode(errors="replace").splitlines()
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out[0].strip() if out else "none"


def environment() -> Dict[str, object]:
    """Host and toolchain block printed with every run (no kernel
    string, so runs on one host compare across kernel updates)."""
    import numpy

    from repro import accel
    from repro.accel import native

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": _compiler_banner(),
        "accel_backend": accel.get_backend(),
        "native_available": bool(native.available()),
        "dist": "off",
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


class Outcome:
    """What a workload hands back to the runner."""

    def __init__(self) -> None:
        #: End-to-end metrics: generic name -> (value, sample count).
        self.e2e: Dict[str, tuple] = {}
        #: The same figures under the workload's own names, plus
        #: report-only figures: name -> (value, unit, sample count).
        self.figures: Dict[str, tuple] = {}
        #: Per-layer metrics of the traced run: name -> value.
        self.layers: Dict[str, float] = {}

    def metric(self, name: str, value: float, n: int) -> None:
        self.e2e[name] = (float(value), int(n))

    def figure(self, name: str, value, unit: str, n: int) -> None:
        self.figures[name] = (value, unit, int(n))


class Context:
    """Everything a workload needs from the runner."""

    def __init__(self, seed, seconds, recorder, build_dir) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rec = recorder
        self.tally = Tally()
        self.build_dir = build_dir
        self.tmp = build_dir / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def pin(self, key: str, value: str) -> bool:
        """First run in a checkout records ``value`` under ``key``;
        every later run (any seed, traced or not) must reproduce it."""
        import json

        path = self.build_dir / "pins.json"
        pins = json.loads(path.read_text()) if path.exists() else {}
        if key in pins:
            return pins[key] == value
        pins[key] = value
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(pins, indent=1, sort_keys=True))
        scratch.replace(path)
        return True

