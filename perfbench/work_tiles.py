"""``tiles`` workload: an in-process ``ServeApp`` on ``ServerThread``.

Serve defaults (tile 64, 3 levels, thread runner, 30 s request
deadline, memory-only cache), serving ``wikipedia`` under kcore,
pagerank and ktruss.  The dataset is preloaded during set-up.

* **cold**: the first tile of each measure (a seeded tile), each
  paying the whole coalesced build funnel.  In the traced run the
  benchmark drives the build itself through the calls the funnel makes
  (the pyramid's pipeline stage properties, then
  ``LODPyramid.ensure_levels``), then issues the HTTP GET.
* **warm-up** (untimed): every tile of every measure is fetched once, so
  the loop below does zero pipeline work.
* **warm**: one keep-alive client in a closed loop for the rest of
  ``--seconds``: seeded random tiles across levels and measures, about
  half revalidated with ``If-None-Match``, one request in ten a ``/hit``.

Checks: every served tile equals ``LODPyramid.tile_payload`` called
directly, its ETag equals ``tile_etag(payload)``, a 304 comes back only
for the tile's own ETag, sampled ``/hit`` answers equal the direct hit
test, and the warm loop misses the artifact cache zero times.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import time
from urllib.parse import urlencode

from common import (
    CAL_NOMINAL_S,
    Outcome,
    Stopwatch,
    calibrate,
    median,
    percentile,
    timed_setup,
    warm_native,
)
from layers import SPAN_LAYERS, install

DATASET = "wikipedia"
MEASURES = ("kcore", "pagerank", "ktruss")
#: Share of warm requests that are ``/hit`` queries.
HIT_SHARE = 0.1
#: Shares of tile requests revalidated with their own ETag (expect 304)
#: and with another content's ETag (expect 200); together about half.
MATCHING_ETAG = 0.45
STALE_ETAG = 0.05
#: Direct ``/hit`` re-checks after the loop (seeded sample).
HIT_CHECKS = 200
#: The warm loop always gets at least this share of ``--seconds``.
MIN_WARM_SHARE = 0.25
#: Warm requests per host-speed calibration.
CAL_BLOCK = 50


class Client:
    """One keep-alive HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = None

    def get(self, path: str, headers=None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60
            )
        try:
            self.conn.request("GET", path, headers=headers or {})
            resp = self.conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return resp.status, resp.getheader("ETag"), body

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _setup():
    from repro.graph import datasets
    from repro.serve import ServeApp, ServerThread

    warm_native()
    datasets.clear_cache()
    datasets.load(DATASET)
    app = ServeApp(request_timeout=30.0)
    app.add_dataset(DATASET, list(MEASURES))
    server = ServerThread(app).__enter__()
    client = Client(server.port)
    status, _, _ = client.get("/healthz")
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    return app, server, client


def _teardown(state) -> None:
    app, server, client = state
    client.close()
    server.__exit__(None, None, None)
    # The server's debug samplers start on the first request; stop them
    # so a torn-down server leaves no thread running.
    app.cont_profiler.stop()
    app.dash_ring.stop()
    # Free this server's memory before the next set-up repetition, so
    # peak RSS does not depend on when the collector last ran.
    gc.collect()


def _tile_path(measure, level, tx, ty) -> str:
    return f"/t/{DATASET}/{measure}/{level}/{tx}/{ty}"


def run(ctx) -> Outcome:
    rec = ctx.rec
    setup_s, state = timed_setup(_setup, _teardown)
    if rec.enabled:
        install(rec)
    try:
        start = time.perf_counter()
        app = state[0]
        cache0 = dict(app.cache.stats)
        cold = _cold_tiles(ctx, *state)
        cold_stats = _delta(app.cache.stats, cache0)
        return _warm(ctx, start, *state, setup_s, cold, cold_stats)
    finally:
        if rec.enabled:
            rec.restore()
        _teardown(state)


def _cold_tiles(ctx, app, server, client) -> dict:
    """Latency of the first tile of each measure (seeded)."""
    from repro.serve.lod import tile_etag

    rec, tally = ctx.rec, ctx.tally
    rng = random.Random(ctx.seed)
    cold = {}
    for m in MEASURES:
        pyr = app.pyramid(app.datasets[DATASET], m)
        key = rng.choice(_tiles(app, [m]))
        with tally.attempt(f"cold tile {key}"):
            with Stopwatch() as watch, rec.op("cold"):
                if rec.enabled:
                    # Build each stage from this thread, in the funnel's
                    # order, so the layer spans see it.
                    pipeline = pyr.pipeline
                    pipeline.field
                    pipeline.tree
                    pipeline.display_tree
                    pipeline.layout()
                    pyr.ensure_levels()
                with rec.span("serve.http"):
                    status, etag, body = client.get(_tile_path(*key))
            cold[m] = watch
            payload, _ = pyr.tile_payload(*key[1:])
            tally.check(
                status == 200 and body == payload
                and etag == tile_etag(payload),
                f"cold tile {key}: status {status} or bytes/ETag "
                "differ from tile_payload",
            )
    return cold


def _tiles(app, measures):
    levels = app.levels
    return [
        (m, level, tx, ty)
        for m in measures
        for level in range(levels)
        for tx in range(2 ** (levels - 1 - level))
        for ty in range(2 ** (levels - 1 - level))
    ]


def _warm(ctx, start, app, _server, client, setup_s, cold, cold_stats):
    from repro.serve import workers
    from repro.serve.lod import tile_etag

    rec, tally = ctx.rec, ctx.tally
    rng = random.Random(ctx.seed + 1)
    pyramids = {m: app.pyramid(app.datasets[DATASET], m) for m in MEASURES}
    tiles = _tiles(app, MEASURES)
    # -- warm-up: every tile once, reference payloads ----------------
    ref = {}
    for key in tiles:
        with tally.attempt(f"warm-up tile {key}"):
            status, etag, body = client.get(_tile_path(*key))
            payload, ref_etag = pyramids[key[0]].tile_payload(*key[1:])
            tally.check(
                status == 200 and body == payload and etag == ref_etag
                and ref_etag == tile_etag(payload),
                f"tile {key}: status {status} or bytes/ETag differ "
                "from tile_payload",
            )
            ref[key] = (payload, ref_etag)
    extents = {}
    with tally.attempt("GET /datasets"):
        status, _, body = client.get("/datasets")
        row = json.loads(body)["datasets"][0]
        extents = {m: row["ready"][m]["extent"] for m in MEASURES}
    stale_etag = tile_etag(b"not a tile")
    tiles = list(ref)

    # -- warm: closed loop -----------------------------------------
    cache0, runner0 = dict(app.cache.stats), dict(app.runner.stats)
    latencies, hit_latencies, hits = [], [], []
    scaled, block = [], []
    tile_requests = not_modified = 0
    cal = calibrate()

    def close_block():
        # Requests are far shorter than a calibration, so they are
        # scaled per block by the calibrations on either side.
        nonlocal cal
        after = calibrate()
        factor = CAL_NOMINAL_S / min(cal, after)
        cal = after
        scaled.extend(x * factor for x in block)
        block.clear()

    deadline = max(
        start + ctx.seconds,
        time.perf_counter() + MIN_WARM_SHARE * ctx.seconds,
    )
    while time.perf_counter() < deadline and extents and tiles:
        if len(block) >= CAL_BLOCK:
            close_block()
        headers, expect = {}, 200
        if rng.random() < HIT_SHARE:
            m = rng.choice(MEASURES)
            x0, y0, x1, y1 = extents[m]
            x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
            path = "/hit?" + urlencode(
                {"dataset": DATASET, "measure": m, "x": repr(x),
                 "y": repr(y)}
            )
            key = None
        else:
            key = rng.choice(tiles)
            draw = rng.random()
            if draw < MATCHING_ETAG:
                headers, expect = {"If-None-Match": ref[key][1]}, 304
            elif draw < MATCHING_ETAG + STALE_ETAG:
                headers = {"If-None-Match": stale_etag}
            path = _tile_path(*key)
        with tally.attempt(f"GET {path}"):
            t0 = time.perf_counter()
            with rec.op("warm"), rec.span("serve.http"):
                status, etag, body = client.get(path, headers)
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed)
            block.append(elapsed)
            if key is None:
                hit_latencies.append(elapsed)
                tally.check(status == 200, f"{path}: status {status}")
                hits.append((m, x, y, json.loads(body)))
                continue
            tile_requests += 1
            not_modified += status == 304
            payload, ref_etag = ref[key]
            tally.check(
                status == expect and etag == ref_etag
                and body == (payload if expect == 200 else b""),
                f"{path} ({headers or 'unconditional'}): status "
                f"{status}, expected {expect} with the reference "
                "bytes and ETag",
            )
    if block:
        close_block()
    warm_stats = _delta(app.cache.stats, cache0)
    runner = _delta(app.runner.stats, runner0)
    tally.check(
        warm_stats.get("misses", 0) == 0,
        f"warm loop missed the artifact cache {warm_stats.get('misses')} "
        "times",
    )

    # -- direct calls: hit test and tile payload, also as checks ------
    hit_us = []
    for m, x, y, answer in random.Random(ctx.seed).sample(
        hits, min(HIT_CHECKS, len(hits))
    ):
        pipeline = pyramids[m].pipeline
        t0 = time.perf_counter()
        direct = workers.hit_as_dict(pipeline, x, y)
        hit_us.append((time.perf_counter() - t0) * 1e6)
        tally.check(
            all(answer.get(k) == v for k, v in direct.items()),
            f"/hit {m} ({x!r}, {y!r}) answered {answer}, direct {direct}",
        )
    payload_us = []
    for key, (payload, _) in ref.items():
        t0 = time.perf_counter()
        direct, _ = pyramids[key[0]].tile_payload(*key[1:])
        payload_us.append((time.perf_counter() - t0) * 1e6)
        tally.check(direct == payload, f"tile {key}: payload changed")

    out = Outcome()
    out.metric("setup_s", setup_s, 1)
    if len(cold) == len(MEASURES) and latencies:
        n = len(latencies)
        out.metric("cold_s", sum(w.scaled for w in cold.values()), len(cold))
        out.metric("warm_p50_ms", median(scaled) * 1e3, n)
        out.metric("warm_rps", n / sum(scaled), n)
        out.figure(
            "tile_cold_s", sum(w.wall for w in cold.values()), "s", len(cold)
        )
        out.figure("tile_warm_rps", n / sum(latencies), "1/s", n)
        out.figure("tile_warm_p50_ms", median(latencies) * 1e3, "ms", n)
        out.figure(
            "tile_warm_p99_ms", percentile(latencies, 99) * 1e3, "ms", n
        )
        out.figure(
            "hit_p50_ms", median(hit_latencies) * 1e3, "ms",
            len(hit_latencies),
        )
    if rec.enabled:
        out.layers.update(rec.rollup(SPAN_LAYERS))
        for phase, stats, n in (
            ("cold", cold_stats, len(MEASURES)),
            ("warm", warm_stats, len(latencies)),
        ):
            for key in ("disk_hits", "misses"):
                out.layers[f"{phase}.engine.{key}"] = (
                    stats.get(key, 0) / n if n else 0.0
                )
        out.layers["terrain.hit_us"] = median(hit_us) if hit_us else 0.0
        out.layers["serve.tile_payload_us"] = median(payload_us)
        out.layers["serve.not_modified_frac"] = (
            not_modified / tile_requests if tile_requests else 0.0
        )
        out.layers["serve.runner_builds"] = runner.get("builds", 0)
        out.layers["serve.runner_coalesced"] = runner.get("coalesced", 0)
    return out


def _delta(now: dict, before: dict) -> dict:
    return {k: now[k] - before.get(k, 0) for k in now}
