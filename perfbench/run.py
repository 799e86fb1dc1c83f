"""End-to-end benchmark of the terrain system, with a per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload terrain --seed 1 --seconds 36 --trace 0

Workloads: ``terrain`` (``repro terrain`` cold and warm), ``tiles``
(the tile server, cold first tiles then a warm closed loop) and
``evolve`` (windowed terrain evolution).  See ``perfbench/METRICS.md``.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the same workload with the layer entry points wrapped
in spans and reports the per-layer metrics instead; its spans are
written to ``.bench_build/perfbench/``.  Both check the outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check held, 1 when one did not, and 2 when the
benchmark could not run at all (then no result line is printed).
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("terrain", "tiles", "evolve")

#: Environment that would change what is measured: tracing, fault
#: injection, a forced kernel backend, a shared artifact cache or cost
#: ledger.
SCRUBBED_ENV = (
    "REPRO_TRACE", "REPRO_TRACE_SAMPLE", "REPRO_FAULTS", "REPRO_ACCEL",
    "REPRO_CACHE_DIR", "REPRO_COST_LEDGER",
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _isolate() -> None:
    """Keep every file the run writes inside the checkout, scrub
    settings that would change what is measured, and pin the process to
    one CPU.  Must run before the package is imported (tracing reads its
    variables at import) and before any thread starts.

    Pinning keeps the tile server's threads and the client on the CPU
    whose speed the calibration loop measures (see ``common.py``);
    unpinned, the scheduler's placement of the two threads alone moved
    warm tile throughput by a quarter between runs."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = str(BUILD / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


def _units(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no package source under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail(f"no BENCHMARK.json in {ROOT}")
    e2e_units = _units("end_to_end")
    declared = _units("per_layer") if args.trace else e2e_units
    _isolate()

    import repro  # noqa: F401  (import cost is part of set-up)

    import common
    import spans

    import_s = time.perf_counter() - _T_START
    import_scaled = import_s * common.CAL_NOMINAL_S / common.calibrate()
    module = __import__(f"work_{args.workload}")
    ctx = common.Context(
        args.seed, args.seconds,
        spans.Recorder() if args.trace else spans.NullRecorder(),
        BUILD,
    )
    out = module.run(ctx)
    tally = ctx.tally

    value, n = out.e2e.get("setup_s", (float("nan"), 0))
    out.metric("setup_s", import_scaled + value, n)
    out.metric("peak_rss_mb", common.peak_rss_mb(), 1)

    if args.trace:
        ctx.rec.write(BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl")
        # A layer this workload never reaches reads 0 (the prediction
        # for it is "no change").
        values = {k: out.layers.get(k, 0.0) for k in declared}
        extra = sorted(set(out.layers) - set(declared))
    else:
        values = {k: v for k, (v, _) in out.e2e.items()}
        extra = sorted(set(values) - set(declared))
    if extra:
        _fail(f"metrics not declared in BENCHMARK.json: {extra}")
    missing = sorted(set(declared) - set(values))
    if missing:
        tally.check(False, f"no value for {', '.join(missing)}")

    _report(args, common.environment(), out, tally, import_s, e2e_units)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            k: {"value": values[k], "unit": declared[k]}
            for k in declared if k in values
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.correct and not tally.failed else 1


def _report(args, env, out, tally, import_s, units) -> None:
    """Human-readable lines before the result line."""
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# import_s {import_s:.4f} s")
    for name, (value, n) in out.e2e.items():
        print(f"{name:<22} {value:>14.6g} {units.get(name, ''):<5} n={n}")
    for name, (value, unit, n) in out.figures.items():
        print(f"{name:<22} {value:>14.6g} {unit:<5} n={n}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{'ops_failed_frac':<22} {frac:>14.6g} {'ratio':<5} "
          f"n={tally.attempted}")
    for name, value in out.layers.items():
        print(f"  {name:<34} {value:>14.6g}")
    for message in tally.mismatches:
        print(f"# CHECK FAILED: {message}")


if __name__ == "__main__":
    sys.exit(main())
