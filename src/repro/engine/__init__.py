"""repro.engine — the unified, cached pipeline layer.

Every workload (terrain, peaks, treemap, profile, correlate, streaming
replay) is one staged computation; this package factors it out of the
drivers:

``repro.engine.registry``
    Named measure registry with declared kind (vertex/edge), cost hints
    and lazy imports; drivers validate ``--measure`` against it and
    third-party code extends it with decorators.
``repro.engine.cache``
    :class:`ArtifactCache` — content-hash-keyed, in-memory + on-disk
    store of stage artifacts (source graphs, fields, trees, layouts).
``repro.engine.pipeline``
    :class:`Pipeline` (static) and :class:`StreamingPipeline`
    (incremental tree stage over :mod:`repro.stream`), sharing sources,
    the field stage and all sinks.
"""

from . import registry
from .cache import (
    ArtifactCache,
    artifact_nbytes,
    fingerprint_array,
    fingerprint_graph,
    stage_key,
)
from .pipeline import (
    DatasetSource,
    EdgeListSource,
    GraphSource,
    Pipeline,
    Source,
    StreamingPipeline,
)
from .registry import (
    MeasureSpec,
    compute,
    edge_measure,
    get_measure,
    measure_names,
    register_measure,
    vertex_measure,
)

__all__ = [
    "registry",
    "ArtifactCache",
    "artifact_nbytes",
    "fingerprint_array",
    "fingerprint_graph",
    "stage_key",
    "Source",
    "DatasetSource",
    "EdgeListSource",
    "GraphSource",
    "Pipeline",
    "StreamingPipeline",
    "MeasureSpec",
    "register_measure",
    "vertex_measure",
    "edge_measure",
    "get_measure",
    "measure_names",
    "compute",
]
