"""``terrain`` workload: the ``repro terrain`` operation at CLI defaults.

kcore, resolution 160, 640x480, PNG written, on the two largest
stand-ins.  Each dataset gets one *cold* op (dataset memo cleared, empty
disk cache dir) and then one *warm* op (memo cleared again, same cache
dir), so each op looks like a fresh process.  The seed orders the
datasets.  Rounds repeat while at least half of another round fits in
``--seconds``.

Checks: the cold and warm PNGs are byte-identical, and equal to the
bytes every earlier run in this checkout produced for that dataset.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

from common import Outcome, Stopwatch, median, timed_setup, warm_native
from layers import SPAN_LAYERS, install
from spans import PHASES

DATASETS = ("wikipedia", "cit_patent")


def _setup():
    warm_native()


def run(ctx) -> Outcome:
    from repro import cli
    from repro.graph import datasets

    setup_s, _ = timed_setup(_setup, lambda state: None)
    rec, tally = ctx.rec, ctx.tally
    order = list(DATASETS)
    random.Random(ctx.seed).shuffle(order)

    caches, faces = [], []
    if rec.enabled:
        install(
            rec, on_cache=caches.append,
            on_mesh=lambda mesh: faces.append(len(mesh.faces)),
        )
    # (phase, dataset) -> per-op seconds, scaled and wall clock.
    times = {(ph, ds): [] for ph in PHASES for ds in DATASETS}
    walls = {key: [] for key in times}
    engine = {phase: Counter() for phase in PHASES}
    start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            for ds in order:
                workdir = Path(tempfile.mkdtemp(dir=ctx.tmp))
                pngs = {}
                for phase in PHASES:
                    datasets.clear_cache()
                    del caches[:]
                    png = workdir / f"{phase}.png"
                    argv = [
                        "terrain", "--dataset", ds,
                        "--cache-dir", str(workdir / "cache"),
                        "-o", str(png),
                    ]
                    with tally.attempt(f"terrain {ds} {phase}"):
                        with contextlib.redirect_stdout(io.StringIO()):
                            with Stopwatch() as watch, rec.op(phase):
                                code = cli.main(argv)
                        if code != 0:
                            raise RuntimeError(f"exit code {code}")
                        times[phase, ds].append(watch.scaled)
                        walls[phase, ds].append(watch.wall)
                        pngs[phase] = png.read_bytes()
                        for cache in caches:
                            engine[phase].update(
                                disk_hits=cache.stats["disk_hits"],
                                misses=cache.stats["misses"],
                            )
                if len(pngs) == 2:
                    tally.check(
                        pngs["cold"] == pngs["warm"],
                        f"{ds}: warm PNG differs from cold PNG",
                    )
                    digest = hashlib.sha256(pngs["cold"]).hexdigest()
                    tally.check(
                        ctx.pin(f"terrain.{ds}.png.sha256", digest),
                        f"{ds}: PNG differs from earlier runs in this "
                        "checkout",
                    )
                shutil.rmtree(workdir, ignore_errors=True)
            # Another round if at least half of it fits: the round count
            # then stays put across runs unless the op time moves by a
            # third or more.
            round_s = time.perf_counter() - round_start
            if time.perf_counter() - start + round_s / 2 > ctx.seconds:
                break
    finally:
        if rec.enabled:
            rec.restore()

    out = Outcome()
    out.metric("setup_s", setup_s, 1)
    ops = {ph: sum(len(times[ph, ds]) for ds in DATASETS) for ph in PHASES}
    if all(times.values()):
        warm_total = sum(sum(times["warm", ds]) for ds in DATASETS)
        out.metric("cold_s", _per_op(times, "cold"), ops["cold"])
        out.metric("warm_p50_ms", _per_op(times, "warm") * 1e3, ops["warm"])
        out.metric("warm_rps", ops["warm"] / warm_total, ops["warm"])
        out.figure("terrain_cold_s", _per_op(walls, "cold"), "s", ops["cold"])
        out.figure("terrain_warm_s", _per_op(walls, "warm"), "s", ops["warm"])
    if rec.enabled:
        out.layers.update(rec.rollup(SPAN_LAYERS))
        for phase in PHASES:
            for key in ("disk_hits", "misses"):
                out.layers[f"{phase}.engine.{key}"] = (
                    engine[phase][key] / max(ops[phase], 1)
                )
        out.layers["terrain.faces"] = (
            sum(faces) / len(faces) if faces else 0.0
        )
    return out


def _per_op(samples, phase) -> float:
    """Each dataset's median op time, averaged over the datasets.  Their
    costs differ, so a median over all ops would jump between them."""
    return sum(median(samples[phase, ds]) for ds in DATASETS) / len(DATASETS)
