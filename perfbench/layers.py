"""The repository's layers, as the traced run sees them.

Each layer span is a call into a public function or method of one of the
package's modules.  :func:`install` wraps those entry points on a
:class:`~spans.Recorder`; ``Recorder.restore`` undoes it.  The
workloads add the spans for calls they make themselves (``serve.http``,
``serve.lod_levels``, ``evolve.*``).
"""

from __future__ import annotations

#: Layer span names, in report order.  Each becomes a per-op self-time
#: metric ``<phase>.<name>_s`` for both phases.
SPAN_LAYERS = (
    "graph.load",
    "engine.fingerprint",
    "engine.cache",
    "measures.field",
    "core.tree",
    "core.display",
    "terrain.layout",
    "terrain.heightfield",
    "terrain.mesh",
    "terrain.render",
    "terrain.png",
    "serve.lod_levels",
    "serve.http",
    "stream.apply",
    "stream.display",
    "evolve.frame",
    "evolve.peaks",
    "evolve.track",
    "evolve.diff",
)


def install(rec, on_cache=None, on_mesh=None) -> None:
    """Wrap every layer entry point the workloads reach.

    ``on_cache(cache)`` sees each :class:`ArtifactCache` constructed on
    the recording thread; ``on_mesh(mesh)`` each terrain mesh built.
    """
    from repro.engine import cache as engine_cache
    from repro.engine import pipeline, registry
    from repro.evolve import diff as evolve_diff
    from repro.graph import datasets
    from repro.serve.lod import LODPyramid
    from repro.stream import incremental
    from repro.terrain import render

    rec.patch(datasets, "load", "graph.load")
    for fn in ("fingerprint_graph", "fingerprint_array"):
        rec.patch(pipeline, fn, "engine.fingerprint")
    rec.patch(engine_cache.ArtifactCache, "get", "engine.cache")
    rec.patch(engine_cache.ArtifactCache, "put", "engine.cache")
    if on_cache is not None:
        rec.patch(
            engine_cache.ArtifactCache, "__init__", None,
            lambda args, result: on_cache(args[0]),
        )
    rec.patch(registry, "compute", "measures.field")
    for fn in ("build_vertex_tree", "build_edge_tree"):
        rec.patch(pipeline, fn, "core.tree")
    for fn in ("build_super_tree", "simplify_tree"):
        rec.patch(pipeline, fn, "core.display")
    for fn in ("build_super_tree", "splice_super_tree"):
        rec.patch(incremental, fn, "core.display")
    for module in (pipeline, evolve_diff):
        rec.patch(module, "layout_tree", "terrain.layout")
        rec.patch(module, "rasterize", "terrain.heightfield")
    rec.patch(
        render, "build_mesh", "terrain.mesh",
        None if on_mesh is None else lambda args, mesh: on_mesh(mesh),
    )
    rec.patch(render, "render_mesh", "terrain.render")
    rec.patch(render, "save_png", "terrain.png")
    rec.patch(LODPyramid, "ensure_levels", "serve.lod_levels")
    rec.patch(incremental.StreamingScalarTree, "apply", "stream.apply")
    rec.patch(
        incremental.StreamingScalarTree, "display_tree", "stream.display"
    )
