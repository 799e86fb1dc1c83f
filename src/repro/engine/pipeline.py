"""The staged pipeline every workload runs through.

All of the paper's workloads — terrain, peaks, treemap, profile,
correlate, and the streaming replay — are the same staged computation::

    source -> field -> tree -> super/simplified tree -> layout -> sink

:class:`Pipeline` wires those stages once, lazily, with each stage keyed
by a content hash of its inputs and parameters and looked up in an
:class:`~repro.engine.cache.ArtifactCache` before it is computed, so a
repeated build (same dataset, measure, bins) skips straight to render.

Stage *computation* honours the :mod:`repro.accel` backend setting
(measures via their registry spec's ``backend`` declaration, tree
construction / layout / rasterization via their builders' dispatch).
Because the backends are equivalence-tested to produce identical
arrays (betweenness: equal to ~1e-9, different float summation order),
the choice never enters a cache key: a warm cache hit bypasses both
kernels, and artifacts built under either backend are interchangeable
— a cached betweenness field is reused as-is rather than recomputed to
the other backend's 1e-9 variant.

:class:`StreamingPipeline` swaps the tree stage for a
:class:`~repro.stream.incremental.StreamingScalarTree` over a
:class:`~repro.stream.delta.DeltaGraph` while reusing every other stage
(source, field via the registry, and all sinks), so static and
incremental builds share one code path; the maintained super tree is
array-identical to the one a static pipeline builds on the compacted
snapshot (see ``tests/engine/test_stream_mode.py``).

Example::

    from repro.engine import ArtifactCache, Pipeline

    cache = ArtifactCache("~/.cache/repro")        # or None: memory-only
    p = Pipeline.from_dataset("grqc", "kcore", cache=cache)
    p.render(path="grqc_kcore.png")                # cold: builds + caches
    Pipeline.from_dataset("grqc", "kcore", cache=cache).render(
        path="again.png")                          # warm: cache hits only
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..core import (
    EdgeScalarGraph,
    ScalarGraph,
    build_edge_tree,
    build_super_tree,
    build_vertex_tree,
    simplify_tree,
)
from ..core.scalar_tree import ScalarTree
from ..core.super_tree import SuperTree
from ..graph import datasets
from ..obs import costs as obs_costs
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..graph.csr import CSRGraph
from ..graph.io import read_edge_list
from ..stream import SlidingWindow, StreamingScalarTree
from ..terrain import (
    highest_peaks,
    layout_tree,
    rasterize,
    render_terrain,
    treemap_svg,
)
from ..terrain.profile import profile_svg
from ..resil import faults as resil_faults
from ..resil.retry import RetryPolicy, retry_call
from . import registry
from .cache import ArtifactCache, fingerprint_array, fingerprint_graph, stage_key

#: Transient-fault budget for one stage build: injected `stage_fail`
#: faults (and any future TransientFault from a flaky source) are
#: retried quickly; deterministic exceptions still propagate unretried.
_STAGE_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.2)

__all__ = [
    "Source",
    "DatasetSource",
    "EdgeListSource",
    "GraphSource",
    "Pipeline",
    "StreamingPipeline",
]

PathLike = Union[str, Path]
FieldGraph = Union[ScalarGraph, EdgeScalarGraph]

#: Wall time of every cold stage build, by stage name — the histogram
#: behind the per-stage p50/p95 rollups in the bench ledger and the
#: ``repro_stage_build_seconds`` family on ``GET /metrics``.
STAGE_BUILD_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_stage_build_seconds",
    "Cold pipeline stage build time by stage.",
    ("stage",),
)

#: Streaming replay batches and their application time.
STREAM_BATCHES = obs_metrics.REGISTRY.counter(
    "repro_stream_batches_total", "Edit batches applied by streaming pipelines."
)
STREAM_BATCH_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_stream_batch_seconds", "Edit batch application time."
)


# ----------------------------------------------------------------------
# Source stage
# ----------------------------------------------------------------------
class Source:
    """Where the graph comes from (the pipeline's first stage)."""

    def load(self) -> CSRGraph:
        raise NotImplementedError


#: The modules whose code decides a stand-in's graph; their source
#: bytes key the cached source stage.
_SYNTHESIS_MODULES = ("datasets", "generators", "builders", "csr")


@lru_cache(maxsize=None)
def _synthesis_digest() -> str:
    """SHA-256 of the source of the modules that synthesize the
    stand-in datasets (computed once per process): editing a generator
    re-keys every cached source graph."""
    root = Path(datasets.__file__).parent
    digest = hashlib.sha256()
    for module in _SYNTHESIS_MODULES:
        digest.update((root / f"{module}.py").read_bytes())
    return digest.hexdigest()


class DatasetSource(Source):
    """A registered stand-in dataset.

    :class:`Pipeline` runs it as the cached ``source`` stage, keyed by
    the dataset name, the numpy version (the generators draw from
    numpy's RNG) and the SHA-256 of the synthesizing modules' source.
    A warm cache — memory, or a disk tier another process filled —
    returns the graph without synthesizing it; :meth:`load` runs only
    on a miss.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def load(self) -> CSRGraph:
        # Through the module attribute: profilers wrap datasets.load.
        with obs_trace.span("source.synthesize", dataset=self.name):
            return datasets.load(self.name).graph

    def __repr__(self) -> str:
        return f"DatasetSource({self.name!r})"


class EdgeListSource(Source):
    """A SNAP-style edge-list file."""

    def __init__(self, path: PathLike) -> None:
        self.path = path

    def load(self) -> CSRGraph:
        return read_edge_list(self.path)

    def __repr__(self) -> str:
        return f"EdgeListSource({str(self.path)!r})"


class GraphSource(Source):
    """An already-built :class:`CSRGraph`."""

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph

    def load(self) -> CSRGraph:
        return self.graph

    def __repr__(self) -> str:
        return f"GraphSource({self.graph!r})"


def _as_source(source) -> Source:
    if isinstance(source, Source):
        return source
    if isinstance(source, CSRGraph):
        return GraphSource(source)
    raise TypeError(
        "source must be a Source, a CSRGraph, or a scalar graph; "
        f"got {type(source).__name__}"
    )


# ----------------------------------------------------------------------
# Shared sink stages
# ----------------------------------------------------------------------
class _TreeSinks:
    """Sink stages shared by the static and streaming pipelines.

    Subclasses provide ``display_tree`` (the super tree to draw) and
    ``layout()``; everything downstream of the layout is identical.
    """

    @property
    def display_tree(self) -> SuperTree:
        raise NotImplementedError

    def layout(self):
        raise NotImplementedError

    def heightfield(self, resolution: int = 160):
        """The rasterized heightfield for ``resolution`` (cached, so
        repeated renders — rotated cameras, stream frames — skip the
        rasterization, the most expensive part of the sink stage)."""
        raise NotImplementedError

    def render(
        self,
        path: Optional[PathLike] = None,
        *,
        camera=None,
        resolution: int = 160,
        width: int = 640,
        height: int = 480,
        **kwargs,
    ) -> np.ndarray:
        """Render the terrain image (returns the RGB array)."""
        return render_terrain(
            self.display_tree,
            camera=camera,
            resolution=resolution,
            width=width,
            height=height,
            layout=self.layout(),
            heightfield=self.heightfield(resolution),
            path=path,
            **kwargs,
        )

    def treemap(self, path: Optional[PathLike] = None, *, size: int = 640) -> str:
        """Render the linked 2D treemap SVG."""
        return treemap_svg(
            self.display_tree, layout=self.layout(), size=size, path=path
        )

    def profile(
        self,
        path: Optional[PathLike] = None,
        *,
        width: int = 720,
        height: int = 240,
    ) -> str:
        """Render the linked 1D profile SVG."""
        return profile_svg(
            self.display_tree, width=width, height=height, path=path
        )

    def peaks(self, count: int = 3) -> List:
        """The ``count`` highest disjoint-and-disconnected peaks."""
        return highest_peaks(
            self.display_tree, count=count, layout=self.layout()
        )


# ----------------------------------------------------------------------
# Static pipeline
# ----------------------------------------------------------------------
class Pipeline(_TreeSinks):
    """Staged, cached build: source → field → tree → display → layout.

    Parameters
    ----------
    source:
        A :class:`Source`, a raw :class:`CSRGraph`, or a
        :class:`ScalarGraph` / :class:`EdgeScalarGraph` that already
        carries its scalars (then ``measure`` must be omitted).
    measure:
        Registered measure name (see
        :func:`repro.engine.registry.measure_names`); its declared kind
        picks the vertex or edge tree algorithm.
    bins:
        When given, the display tree is simplified to ~``bins`` scalar
        levels (paper §II-E) instead of the exact super tree.
    scheme:
        Discretization scheme for ``bins`` (``"quantile"``/``"uniform"``).
    cache:
        An :class:`ArtifactCache`; defaults to a fresh memory-only cache.
        Share one instance (or point several at one directory) to reuse
        artifacts across builds.
    dist:
        Sharded execution backend (``repro.dist``): ``None``/``"off"``
        runs single-process, ``"auto"`` shards when the graph and host
        justify it, an integer runs that many process workers, and a
        :class:`~repro.dist.plan.DistPlan` pins everything.  Like the
        :mod:`repro.accel` backend choice, ``dist`` never enters a
        cache key — the sharded build is node-for-node identical to the
        single-process one, so artifacts are interchangeable.  Only
        vertex fields shard; edge fields fall back single-process (see
        :meth:`dist_stats`).
    """

    def __init__(
        self,
        source,
        measure: Optional[str] = None,
        *,
        bins: Optional[int] = None,
        scheme: str = "quantile",
        cache: Optional[ArtifactCache] = None,
        dist=None,
    ) -> None:
        self._explicit_field: Optional[FieldGraph] = None
        if isinstance(source, (ScalarGraph, EdgeScalarGraph)):
            if measure is not None:
                raise ValueError(
                    "measure must be omitted when the source already "
                    "carries scalars"
                )
            self._explicit_field = source
            self.source: Source = GraphSource(source.graph)
        else:
            self.source = _as_source(source)
            if measure is None:
                raise ValueError("a measure name is required")
            if measure not in registry.measure_names():
                raise KeyError(
                    f"unknown measure {measure!r}; known measures: "
                    f"{', '.join(registry.measure_names())}"
                )
        self.measure = measure
        self.bins = bins
        self.scheme = scheme
        self.cache = cache if cache is not None else ArtifactCache()
        # Measured build times land here (and persist next to the cache
        # when it has a directory) so dist_plan can decide from data.
        self.cost_ledger = obs_costs.ledger_for(self.cache.directory)
        self.dist = dist
        self._dist_resolved = False
        self._dist_plan = None
        self._dist_note: Optional[str] = None
        self._dist_executor = None
        self._dist_shards = None
        self._graph: Optional[CSRGraph] = None
        self._graph_fp: Optional[str] = None
        self._field: Optional[FieldGraph] = None
        self._field_fp: Optional[str] = None
        self._tree: Optional[ScalarTree] = None
        self._display: Optional[SuperTree] = None
        self._layout = None
        self._heightfields: dict = {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_dataset(cls, name: str, measure: str, **kwargs) -> "Pipeline":
        """Pipeline over a registered dataset."""
        return cls(DatasetSource(name), measure, **kwargs)

    @classmethod
    def from_edge_list(cls, path: PathLike, measure: str, **kwargs) -> "Pipeline":
        """Pipeline over a SNAP-style edge-list file."""
        return cls(EdgeListSource(path), measure, **kwargs)

    # -- keyed stage helper --------------------------------------------
    def _stage(self, name, params, fingerprints, build, disk=True):
        key = stage_key(name, params, *fingerprints)
        with obs_trace.span(f"stage.{name}", measure=self.measure) as sp:
            value = self.cache.get(key)
            if value is None:
                def guarded():
                    # Fault site `stage_fail`: a scheduled transient
                    # failure before the build runs; healed by the
                    # bounded retry below (occurrence counters advance).
                    resil_faults.maybe_fail("stage_fail", f"stage.{name}")
                    return build()

                with STAGE_BUILD_SECONDS.time(stage=name) as timer:
                    value = retry_call(
                        guarded, policy=_STAGE_RETRY, site=f"stage.{name}"
                    )
                sp.set(built=True)
                self._record_cost(f"stage.{name}", timer.seconds)
                value = self.cache.put(key, value, disk=disk)
        return value

    def _record_cost(self, stage: str, seconds: float) -> None:
        """Fold a measured cold-build time into the cost ledger (sized
        by the graph when it's already loaded — source loads aren't)."""
        try:
            from .. import accel

            # A sharded tree build is the executor's measurement
            # (recorded as ``dist.tree``); folding it into the
            # single-process ``stage.tree`` estimate would make the
            # planner compare sharding against itself.
            if stage == "stage.tree" and self._dist_plan is not None:
                return
            size = self._graph.n_edges if self._graph is not None else 0
            self.cost_ledger.record(
                stage,
                seconds,
                measure=self.measure,
                backend=accel.get_backend(),
                size=size,
            )
        except Exception:
            # Ledger trouble (read-only cache dir, etc.) must never
            # fail a build that already succeeded.
            pass

    # -- stage-level entry points --------------------------------------
    def stage(self, name: str, params: Dict[str, object], build, disk=True):
        """Run ``build()`` as a *custom* cached stage of this pipeline.

        The stage is keyed exactly like the built-in ones — name +
        params + the graph and field content fingerprints — so derived
        artifacts (e.g. :mod:`repro.serve`'s LOD tiles) share the
        pipeline's cache identity: same inputs hit, changed inputs miss.
        """
        return self._stage(
            name,
            params,
            [self.graph_fingerprint, self.field_fingerprint],
            build,
            disk=disk,
        )

    def stage_artifact_key(self, name: str, params: Dict[str, object]) -> str:
        """The cache key :meth:`stage` would use (for instrumentation)."""
        return stage_key(
            name, params, self.graph_fingerprint, self.field_fingerprint
        )

    def display_params(self) -> Dict[str, object]:
        """The parameter triple shared by every display-derived stage."""
        return {
            "kind": self.kind,
            "bins": self.bins,
            "scheme": self.scheme if self.bins else None,
        }

    # -- sharded execution backend (repro.dist) -------------------------
    def dist_plan(self):
        """The resolved :class:`~repro.dist.plan.DistPlan`, or ``None``
        for single-process execution.  Resolution is lazy (it may need
        the graph) and happens once; the decision and its reason are
        visible through :meth:`dist_stats`."""
        if not self._dist_resolved:
            self._dist_resolved = True
            if self.dist not in (None, "off", 0):
                from .. import dist as dist_mod

                if self.measure is not None:
                    spec = registry.get_measure(self.measure)
                    kind, cost = spec.kind, spec.cost
                else:
                    kind, cost = self.kind, "moderate"
                if kind != "vertex":
                    self._dist_note = (
                        "edge fields run single-process (Algorithm 3 "
                        "is not sharded)"
                    )
                else:
                    from ..dist.plan import last_decline_reason

                    self._dist_plan = dist_mod.plan(
                        self.dist,
                        self.graph,
                        measure_cost=cost,
                        measure=self.measure,
                        ledger=self.cost_ledger,
                    )
                    if self._dist_plan is None:
                        self._dist_note = (
                            last_decline_reason()
                            or "auto: graph/host below sharding thresholds"
                        )
        return self._dist_plan

    def _dist_backend(self):
        """The executor + shards for the resolved plan (lazy)."""
        from .. import dist as dist_mod

        plan = self.dist_plan()
        if self._dist_executor is None:
            self._dist_executor = dist_mod.ShardedExecutor(
                workers=plan.workers, ledger=self.cost_ledger
            )
        if self._dist_shards is None:
            self._dist_shards = dist_mod.partition_edges(
                self.graph, plan.n_shards, plan.partitioner
            )
        return self._dist_executor, self._dist_shards

    def dist_stats(self) -> Optional[Dict[str, object]]:
        """Shard summary for instrumentation (``repro serve /stats``,
        ``repro dist-build``); ``None`` when ``dist`` was never
        requested."""
        if self.dist in (None, "off", 0):
            return None
        plan = self._dist_plan
        out: Dict[str, object] = {
            "requested": str(self.dist),
            "active": plan is not None,
        }
        if self._dist_note:
            out["note"] = self._dist_note
        if plan is not None:
            out["plan"] = plan.summary()
        if self._dist_shards is not None:
            from ..dist import cut_vertices

            out["shard_edges"] = [
                int(s.n_edges) for s in self._dist_shards
            ]
            out["boundary_vertices"] = cut_vertices(self._dist_shards)
        if self._dist_executor is not None:
            out["executor"] = dict(self._dist_executor.stats)
        return out

    def close_dist(self) -> None:
        """Release the sharded backend's worker pool (if any)."""
        if self._dist_executor is not None:
            self._dist_executor.shutdown()
            self._dist_executor = None

    def _dist_tree_build(self) -> ScalarTree:
        """Tree-stage build via the sharded executor.  Per-shard merge
        forests flow through this pipeline's :class:`ArtifactCache`, so
        a warm re-run only re-reduces shards whose edges or field
        changed."""
        executor, shards = self._dist_backend()
        return executor.build_tree(
            self.field.scalars,
            shards,
            cache=self.cache,
            scalars_fingerprint=self.field_fingerprint,
        )

    # -- stages ---------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """Source stage: the underlying graph.  A dataset source is a
        cached stage like the others (see :class:`DatasetSource`); edge
        lists and in-memory graphs load directly."""
        if self._graph is None:
            source = self.source
            if isinstance(source, DatasetSource):
                self._graph = self._stage(
                    "source",
                    {"dataset": source.name, "numpy": np.__version__},
                    [_synthesis_digest()],
                    source.load,
                )
            else:
                with obs_trace.span("stage.source", source=repr(source)):
                    with STAGE_BUILD_SECONDS.time(stage="source"):
                        self._graph = source.load()
        return self._graph

    @property
    def graph_fingerprint(self) -> str:
        if self._graph_fp is None:
            self._graph_fp = fingerprint_graph(self.graph)
        return self._graph_fp

    def _field_stage(self, spec) -> np.ndarray:
        """Run the cached field stage for one measure spec.  The stage
        key (name, params, fingerprints) and the disk policy live only
        here so every caller shares cache identity.

        Under an active dist plan, shard-mergeable measures (see
        :data:`repro.dist.executor.DIST_FIELD_MERGERS`) are summed from
        per-shard contributions — exactly equal to the global
        computation, so the cache key is unchanged."""

        def build() -> np.ndarray:
            if spec.kind == "vertex" and self.dist_plan() is not None:
                from ..dist.executor import DIST_FIELD_MERGERS

                if spec.name in DIST_FIELD_MERGERS:
                    executor, shards = self._dist_backend()
                    merged = executor.merged_field(spec.name, shards)
                    if merged is not None:
                        return merged
            return registry.compute(spec.name, self.graph)

        return self._stage(
            "field",
            {"measure": spec.name},
            [self.graph_fingerprint],
            build,
            disk=spec.cost != "cheap",
        )

    @property
    def field(self) -> FieldGraph:
        """Field stage: the scalar graph (measure evaluated, cached)."""
        if self._field is None:
            if self._explicit_field is not None:
                self._field = self._explicit_field
            else:
                spec = registry.get_measure(self.measure)
                values = self._field_stage(spec)
                wrap = ScalarGraph if spec.kind == "vertex" else EdgeScalarGraph
                self._field = wrap(self.graph, values)
        return self._field

    @property
    def field_fingerprint(self) -> str:
        if self._field_fp is None:
            self._field_fp = fingerprint_array(self.field.scalars)
        return self._field_fp

    @property
    def kind(self) -> str:
        """``"vertex"`` or ``"edge"`` — which tree algorithm runs."""
        return "vertex" if isinstance(self.field, ScalarGraph) else "edge"

    @property
    def tree(self) -> ScalarTree:
        """Tree stage: the raw scalar tree (Algorithm 1 or 3, cached).

        With an active ``dist`` plan (vertex fields only) the build
        fans out over shards instead — same cache key, because the
        sharded result is node-for-node identical."""
        if self._tree is None:
            kind = self.kind
            if self.dist_plan() is not None and kind == "vertex":
                build = self._dist_tree_build
            else:
                builder = (
                    build_vertex_tree if kind == "vertex" else build_edge_tree
                )
                build = lambda: builder(self.field)  # noqa: E731
            self._tree = self._stage(
                "tree",
                {"kind": kind},
                [self.graph_fingerprint, self.field_fingerprint],
                build,
            )
        return self._tree

    @property
    def display_tree(self) -> SuperTree:
        """Display stage: super tree (Algorithm 2), simplified if
        ``bins`` is set.  A cache hit here skips the tree stage too."""
        if self._display is None:
            params = self.display_params()
            if self.bins:
                build = lambda: simplify_tree(  # noqa: E731
                    self.tree, self.bins, scheme=self.scheme
                )
            else:
                build = lambda: build_super_tree(self.tree)  # noqa: E731
            self._display = self._stage(
                "display",
                params,
                [self.graph_fingerprint, self.field_fingerprint],
                build,
            )
        return self._display

    def layout(self):
        """Layout stage: the nested-disc 2D layout (memory-cached —
        layouts have no on-disk form)."""
        if self._layout is None:
            params = self.display_params()
            self._layout = self._stage(
                "layout",
                params,
                [self.graph_fingerprint, self.field_fingerprint],
                lambda: layout_tree(self.display_tree),
                disk=False,
            )
        return self._layout

    def heightfield(self, resolution: int = 160):
        if resolution not in self._heightfields:
            params = dict(self.display_params(), resolution=resolution)
            self._heightfields[resolution] = self._stage(
                "heightfield",
                params,
                [self.graph_fingerprint, self.field_fingerprint],
                lambda: rasterize(self.layout(), resolution=resolution),
                disk=False,
            )
        return self._heightfields[resolution]

    # -- extras ---------------------------------------------------------
    def measure_field(self, name: str) -> np.ndarray:
        """Evaluate another *vertex* measure on this pipeline's graph,
        through the same cached field stage (used by ``correlate``)."""
        spec = registry.get_measure(name)
        if spec.kind != "vertex":
            raise ValueError(
                f"measure {name!r} is edge-based; correlation needs "
                "vertex measures"
            )
        return self._field_stage(spec)

    def build(self) -> "Pipeline":
        """Force every stage through layout; returns ``self``."""
        self.layout()
        return self

    def __repr__(self) -> str:
        return (
            f"Pipeline(source={self.source!r}, measure={self.measure!r}, "
            f"bins={self.bins})"
        )


# ----------------------------------------------------------------------
# Streaming pipeline
# ----------------------------------------------------------------------
class StreamingPipeline(_TreeSinks):
    """The pipeline with the tree stage running incrementally.

    The source and field stages are exactly :class:`Pipeline`'s (cached
    through the same :class:`ArtifactCache`); the tree stage is a
    :class:`StreamingScalarTree` maintained under edit batches, and the
    sinks are inherited unchanged.  After any sequence of edits the
    display tree is array-identical to the one a static pipeline builds
    on the compacted snapshot (:meth:`static_equivalent`).

    Parameters
    ----------
    source, measure, bins, scheme, cache:
        As for :class:`Pipeline`; the measure (or the explicit field)
        must be vertex-based.
    rebuild_threshold:
        Dirty-vertex fraction beyond which the maintainer falls back to
        a full rebuild (see :class:`StreamingScalarTree`).
    window:
        Optional sliding-window horizon; enables :meth:`push`.
    """

    def __init__(
        self,
        source,
        measure: Optional[str] = None,
        *,
        bins: Optional[int] = None,
        scheme: str = "quantile",
        rebuild_threshold: float = 0.5,
        window: Optional[float] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        base = Pipeline(source, measure, bins=bins, scheme=scheme, cache=cache)
        # Reject edge measures from the registry's declared kind, before
        # the (possibly expensive) field stage ever runs.  For an
        # explicit field, base.kind is a free isinstance check.
        if base.measure is not None:
            kind = registry.get_measure(base.measure).kind
        else:
            kind = base.kind
        if kind != "vertex":
            raise ValueError(
                "streaming mode needs a vertex measure; pick from "
                f"{', '.join(registry.measure_names(kind='vertex'))}"
            )
        self.base = base
        self.bins = bins
        self.scheme = scheme
        self.stream = StreamingScalarTree(
            base.field, rebuild_threshold=rebuild_threshold
        )
        self.window = (
            SlidingWindow(self.stream, window) if window is not None else None
        )
        self._display: Optional[SuperTree] = None
        self._layout = None
        self._heightfields: dict = {}

    # -- edit application ----------------------------------------------
    def apply(self, batch) -> ScalarTree:
        """Apply one edit transaction; downstream stages recompute lazily."""
        self._invalidate()
        with obs_trace.span("stream.apply", edits=len(batch)):
            with STREAM_BATCH_SECONDS.time():
                tree = self.stream.apply(batch)
        STREAM_BATCHES.inc()
        return tree

    def push(self, t: float, batch) -> None:
        """Apply a timestamped batch through the sliding window."""
        if self.window is None:
            raise ValueError(
                "no sliding window configured (pass window=... )"
            )
        self._invalidate()
        with obs_trace.span("stream.push", edits=len(batch), t=t):
            with STREAM_BATCH_SECONDS.time():
                self.window.push(t, batch)
        STREAM_BATCHES.inc()

    def _invalidate(self) -> None:
        self._display = None
        self._layout = None
        self._heightfields.clear()

    # -- tree/display stages -------------------------------------------
    @property
    def tree(self) -> ScalarTree:
        """The incrementally maintained raw scalar tree."""
        return self.stream.tree

    @property
    def display_tree(self) -> SuperTree:
        if self._display is None:
            self._display = self.stream.display_tree(
                self.bins, scheme=self.scheme
            )
        return self._display

    def layout(self):
        if self._layout is None:
            self._layout = layout_tree(self.display_tree)
        return self._layout

    def heightfield(self, resolution: int = 160):
        if resolution not in self._heightfields:
            self._heightfields[resolution] = rasterize(
                self.layout(), resolution=resolution
            )
        return self._heightfields[resolution]

    @property
    def stats(self):
        """The maintainer's counters (batches, incremental, rebuilds...)."""
        return self.stream.stats

    def static_equivalent(self) -> Pipeline:
        """A static :class:`Pipeline` over the compacted current
        snapshot — its display tree must be array-identical to
        :attr:`display_tree` (the streaming/static equivalence
        contract)."""
        return Pipeline(
            self.stream.snapshot(), bins=self.bins, scheme=self.scheme
        )

    def __repr__(self) -> str:
        return (
            f"StreamingPipeline(source={self.base.source!r}, "
            f"measure={self.base.measure!r}, bins={self.bins}, "
            f"batches={self.stats['batches']})"
        )
