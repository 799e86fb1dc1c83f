"""``evolve`` workload: the write path, mirroring ``repro evolve --synthetic``.

A tumbling kcore ``Timeline`` over a seeded ``dynamic_planted_partition``
log (6000 vertices, 12 windows, about 20k edges per window; the log is
generated during set-up).  Each window runs ``peaks_from_tree``,
``PeakTracker.observe`` and ``DiffTiler(128, 64)``.  Passes over the
whole log repeat while at least half of another pass fits in
``--seconds``; each pass starts from an empty timeline.  Phases:
window 0 is *cold*, windows 1 and later are *warm*.

Checks: three seeded windows of the first pass are node-identical
(scalars, vertex tree, super tree) to a from-scratch ``registry.compute``
+ ``build_vertex_tree`` + ``build_super_tree`` on the window's edges,
sliced from the log independently of the timeline; every later pass
reproduces the first pass's trees and event F1.
"""

from __future__ import annotations

import hashlib
import random
import time

import numpy as np

from common import (
    Outcome,
    Stopwatch,
    median,
    percentile,
    timed_setup,
    warm_native,
)
from layers import SPAN_LAYERS, install

MEASURE = "kcore"
LOG = dict(
    n_vertices=6000, n_windows=12, n_communities=40, community_size=50,
    p_in=0.4, churn=0.2, noise_per_window=400,
)
#: ``repro evolve`` defaults.
MIN_SIZE = 3
JACCARD = 0.3
RESOLUTION, TILE_SIZE = 128, 64
#: Windows of the first pass checked against from-scratch builds.
SCRATCH_CHECKS = 3


def run(ctx) -> Outcome:
    from repro.graph.generators import dynamic_planted_partition

    def setup():
        warm_native()
        return dynamic_planted_partition(seed=ctx.seed, **LOG)

    setup_s, log = timed_setup(setup, lambda state: None)
    rec, tally = ctx.rec, ctx.tally
    checked = set(
        random.Random(ctx.seed).sample(range(log.n_windows), SCRATCH_CHECKS)
    )
    if rec.enabled:
        install(rec)
    passes, walls = [], []
    reference = None
    start = time.perf_counter()
    try:
        while True:
            pass_start = time.perf_counter()
            result = _one_pass(ctx, log, checked if reference is None else ())
            if result is None:
                break
            (scaled, wall), outcome = result
            if reference is None:
                reference = outcome
            tally.check(
                outcome == reference,
                f"pass {len(passes)}: trees or event F1 differ from the "
                "first pass",
            )
            passes.append(scaled)
            walls.append(wall)
            pass_s = time.perf_counter() - pass_start
            if time.perf_counter() - start + pass_s / 2 > ctx.seconds:
                break
    finally:
        if rec.enabled:
            rec.restore()

    out = Outcome()
    out.metric("setup_s", setup_s, 1)
    warm = [t for times in passes for t in times[1:]]
    if passes and warm:
        runs = [sum(times) for times in passes]
        out.metric("cold_s", median(runs), len(runs))
        out.metric("warm_p50_ms", median(warm) * 1e3, len(warm))
        out.metric("warm_rps", len(warm) / sum(warm), len(warm))
        warm_wall = [t for times in walls for t in times[1:]]
        out.figure(
            "evolve_run_s", median([sum(t) for t in walls]), "s", len(runs)
        )
        out.figure("evolve_window_s", median(warm_wall), "s", len(warm))
        out.figure(
            "evolve_window_p99_ms", percentile(warm_wall, 99) * 1e3, "ms",
            len(warm),
        )
        out.figure("event_f1", reference[1], "ratio", 1)
    if rec.enabled and reference is not None:
        out.layers.update(rec.rollup(SPAN_LAYERS))
        out.layers.update(reference[2])
    return out


def _one_pass(ctx, log, checked):
    """One pass over the log.  Returns ``((scaled window seconds, wall
    window seconds), (tree digests, event F1, per-layer counters))``, or
    None when a window failed."""
    from repro.evolve import (
        DiffTiler,
        PeakTracker,
        event_f1,
        frames_from_rows,
        peaks_from_tree,
    )

    rec = ctx.rec
    frames = iter(frames_from_rows(
        log.rows, log.n_vertices, measure=MEASURE, horizon=1.0,
        origin=log.origin,
    ))
    tracker = PeakTracker(jaccard=JACCARD, min_size=MIN_SIZE)
    tiler = DiffTiler(resolution=RESOLUTION, tile_size=TILE_SIZE)
    times, walls, digests, edges = [], [], [], []
    for index in range(log.n_windows):
        done = False
        with ctx.tally.attempt(f"evolve window {index}"):
            with Stopwatch() as watch, rec.op(
                "cold" if index == 0 else "warm"
            ):
                with rec.span("evolve.frame"):
                    frame = next(frames)
                with rec.span("evolve.peaks"):
                    peaks = peaks_from_tree(
                        frame.super, None, MIN_SIZE, window=frame.index
                    )
                with rec.span("evolve.track"):
                    tracker.observe(frame.index, peaks)
                with rec.span("evolve.diff"):
                    tiler.add_frame(frame)
                    if frame.index > 0:
                        tiler.summary(frame.index)
            times.append(watch.scaled)
            walls.append(watch.wall)
            done = True
        if not done:
            return None
        edges.append(frame.n_edges)
        digests.append(hashlib.sha256(
            frame.tree.parent.tobytes() + frame.super.parent.tobytes()
            + frame.scalars.tobytes()
        ).hexdigest())
        if index in checked:
            _check_scratch(ctx.tally, log, frame)
    ctx.tally.check(
        next(frames, None) is None,
        f"timeline emitted more than {log.n_windows} windows",
    )
    stats = frame.stream_stats
    counters = {
        "evolve.window_edges": float(np.mean(edges)),
        "stream.incremental": stats.get("incremental", 0),
        "stream.full_rebuilds": stats.get("full_rebuilds", 0),
        "stream.replayed_vertices": stats.get("replayed_vertices", 0),
    }
    f1 = event_f1(tracker.events, log.events)
    return (times, walls), (digests, f1, counters)


def _check_scratch(tally, log, frame) -> None:
    """The frame equals Algorithm 1 + the super-tree pass run from
    scratch on the window's edges, sliced straight from the log."""
    from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
    from repro.engine import registry
    from repro.graph.builders import from_edge_array

    ts = log.rows[:, 2]
    low = ts >= frame.t_start if frame.index == 0 else ts > frame.t_start
    live = log.rows[low & (ts <= frame.t_end)][:, :2].astype(np.int64)
    u = np.minimum(live[:, 0], live[:, 1])
    v = np.maximum(live[:, 0], live[:, 1])
    keep = u != v
    pairs = np.unique(np.column_stack([u[keep], v[keep]]), axis=0)
    graph = from_edge_array(pairs.reshape(-1, 2), n_vertices=log.n_vertices)
    scalars = registry.compute(MEASURE, graph)
    tree = build_vertex_tree(ScalarGraph(graph, scalars))
    sup = build_super_tree(tree)
    tally.check(
        np.array_equal(frame.scalars, scalars)
        and np.array_equal(frame.tree.parent, tree.parent)
        and np.array_equal(frame.tree.scalars, tree.scalars)
        and np.array_equal(frame.super.parent, sup.parent)
        and np.array_equal(frame.super.scalars, sup.scalars)
        and all(
            np.array_equal(a, b)
            for a, b in zip(frame.super.members, sup.members)
        ),
        f"window {frame.index}: maintained trees differ from a "
        "from-scratch build",
    )
