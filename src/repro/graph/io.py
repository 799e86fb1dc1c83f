"""Edge-list and scalar-field file I/O.

The formats mirror the SNAP collection the paper draws its datasets from:
whitespace-separated integer pairs, ``#`` comments.  Scalar fields are
stored one ``vertex value`` (or ``u v value`` for edge fields) per line.

*Temporal* edge lists — ``src dst ts [w]`` per line, the shape of the
Enron/Digg/Weibo interaction logs — stream through the same chunked
path: :func:`iter_temporal_edge_chunks` yields bounded ``(k, 4)``
blocks with typed, line-numbered validation errors
(:class:`TemporalEdgeError`), and :func:`iter_temporal_edges_sorted`
adds an external merge sort by timestamp (sorted runs spilled to a
scratch directory), so even an unsorted multi-GB log is consumed in
chunk-sized memory.
"""

from __future__ import annotations

import heapq
import json
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from .builders import from_edge_array
from .csr import CSRGraph

__all__ = [
    "iter_edge_chunks",
    "read_edge_list",
    "write_edge_list",
    "read_vertex_scalars",
    "write_vertex_scalars",
    "read_edge_scalars",
    "write_edge_scalars",
    "TemporalEdgeError",
    "iter_temporal_edge_chunks",
    "iter_temporal_edges_sorted",
    "write_temporal_edge_list",
]

PathLike = Union[str, Path]

#: Default edges per chunk for :func:`iter_edge_chunks` — 64k pairs is
#: 1 MiB of int64 payload, small enough to bound streaming consumers
#: and large enough to amortize the per-chunk numpy conversion.
DEFAULT_CHUNK_EDGES = 65536


def iter_edge_chunks(
    path: PathLike, chunk_edges: int = DEFAULT_CHUNK_EDGES
) -> Iterator[np.ndarray]:
    """Stream a SNAP-style edge list as ``(k, 2)`` int64 chunks.

    Yields at most ``chunk_edges`` edges per array, so peak memory is
    one chunk regardless of the file size — the primitive
    :func:`read_edge_list` is built on.  Comments (``#``) and blank
    lines are skipped; extra columns beyond ``u v`` are ignored.
    """
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    buf: list = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()[:2]
            buf.append((int(u), int(v)))
            if len(buf) >= chunk_edges:
                yield np.array(buf, dtype=np.int64)
                buf = []
    if buf:
        yield np.array(buf, dtype=np.int64)


def read_edge_list(path: PathLike, n_vertices: int = None) -> CSRGraph:
    """Read a SNAP-style edge list (``u v`` per line, ``#`` comments).

    Parsing goes through :func:`iter_edge_chunks`, so the transient
    Python-tuple overhead is bounded to one chunk; only the packed
    int64 edge array reaches full file size.
    """
    chunks = list(iter_edge_chunks(path))
    if chunks:
        arr = np.concatenate(chunks)
    else:
        arr = np.empty((0, 2), dtype=np.int64)
    return from_edge_array(arr, n_vertices=n_vertices)


def write_edge_list(graph: CSRGraph, path: PathLike, header: str = "") -> None:
    """Write each undirected edge once (``u v`` per line)."""
    with open(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_vertex_scalars(path: PathLike, n_vertices: int) -> np.ndarray:
    """Read a ``vertex value`` file into a dense float vector."""
    values = np.zeros(n_vertices, dtype=np.float64)
    seen = np.zeros(n_vertices, dtype=bool)
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            v, value = line.split()[:2]
            values[int(v)] = float(value)
            seen[int(v)] = True
    if not seen.all():
        missing = int((~seen).sum())
        raise ValueError(f"{missing} vertices have no scalar value")
    return values


def write_vertex_scalars(values: np.ndarray, path: PathLike) -> None:
    """Write a vertex scalar field, one ``vertex value`` line each."""
    with open(path, "w") as handle:
        for v, value in enumerate(values):
            handle.write(f"{v} {value:.10g}\n")


def read_edge_scalars(
    path: PathLike, graph: CSRGraph
) -> np.ndarray:
    """Read a ``u v value`` file into a vector aligned with edge ids."""
    values = np.zeros(graph.n_edges, dtype=np.float64)
    seen = np.zeros(graph.n_edges, dtype=bool)
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v, value = line.split()[:3]
            eid = graph.edge_id(int(u), int(v))
            values[eid] = float(value)
            seen[eid] = True
    if not seen.all():
        missing = int((~seen).sum())
        raise ValueError(f"{missing} edges have no scalar value")
    return values


def write_edge_scalars(
    graph: CSRGraph, values: np.ndarray, path: PathLike
) -> None:
    """Write an edge scalar field, one ``u v value`` line per edge."""
    if len(values) != graph.n_edges:
        raise ValueError("one value per edge required")
    with open(path, "w") as handle:
        for (u, v), value in zip(graph.edge_array(), values):
            handle.write(f"{u} {v} {value:.10g}\n")


# ---------------------------------------------------------------------------
# Temporal edge lists (``src dst ts [w]``)
# ---------------------------------------------------------------------------


class TemporalEdgeError(ValueError):
    """A malformed line in a timestamped edge list.

    Carries the 1-based ``line_no`` and the offending ``line`` so loader
    failures on multi-million-line interaction logs point at the exact
    record, not just the file.
    """

    def __init__(self, path: PathLike, line_no: int, line: str, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}: {line!r}")


def _parse_temporal_line(
    path: PathLike, line_no: int, line: str
) -> Tuple[int, int, float, float]:
    parts = line.split()
    if len(parts) < 3 or len(parts) > 4:
        raise TemporalEdgeError(
            path, line_no, line,
            f"expected 'src dst ts [w]', got {len(parts)} fields",
        )
    try:
        u = int(parts[0])
        v = int(parts[1])
    except ValueError:
        raise TemporalEdgeError(
            path, line_no, line, "non-integer endpoint"
        ) from None
    if u < 0 or v < 0:
        raise TemporalEdgeError(path, line_no, line, "negative endpoint")
    try:
        ts = float(parts[2])
    except ValueError:
        raise TemporalEdgeError(
            path, line_no, line, "non-numeric timestamp"
        ) from None
    if not np.isfinite(ts):
        raise TemporalEdgeError(
            path, line_no, line, "non-finite timestamp"
        )
    w = 1.0
    if len(parts) == 4:
        try:
            w = float(parts[3])
        except ValueError:
            raise TemporalEdgeError(
                path, line_no, line, "non-numeric weight"
            ) from None
        if not np.isfinite(w) or w < 0:
            raise TemporalEdgeError(path, line_no, line, "negative weight")
    return u, v, ts, w


def iter_temporal_edge_chunks(
    path: PathLike, chunk_edges: int = DEFAULT_CHUNK_EDGES
) -> Iterator[np.ndarray]:
    """Stream a ``src dst ts [w]`` log as ``(k, 4)`` float64 chunks.

    Columns are ``u, v, ts, w`` (weight defaults to 1).  Like
    :func:`iter_edge_chunks`, at most ``chunk_edges`` rows are buffered,
    ``#`` comments and blank lines are skipped — but malformed records
    raise :class:`TemporalEdgeError` with their line number rather than
    silently corrupting the stream.
    """
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    buf: list = []
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            buf.append(_parse_temporal_line(path, line_no, line))
            if len(buf) >= chunk_edges:
                yield np.array(buf, dtype=np.float64)
                buf = []
    if buf:
        yield np.array(buf, dtype=np.float64)


def iter_temporal_edges_sorted(
    path: PathLike,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    scratch_dir: Optional[PathLike] = None,
) -> Iterator[np.ndarray]:
    """Stream a temporal edge log globally sorted by timestamp.

    External merge sort built on :func:`iter_temporal_edge_chunks`: each
    chunk is stably sorted by ``ts`` and spilled to a scratch ``.npy``
    run, then the runs are merged lazily (memory-mapped) with
    :func:`heapq.merge`, yielding ``(k, 4)`` chunks in non-decreasing
    timestamp order.  Equal timestamps keep file order (stable sort +
    run-index tie-break), so the result is deterministic.  Peak memory
    stays at one chunk per run plus the output buffer — the full log is
    never materialized.
    """
    with tempfile.TemporaryDirectory(
        prefix="repro-tsort-", dir=scratch_dir
    ) as tmp:
        runs: list = []
        for i, chunk in enumerate(iter_temporal_edge_chunks(path, chunk_edges)):
            order = np.argsort(chunk[:, 2], kind="stable")
            run_path = Path(tmp) / f"run{i:06d}.npy"
            np.save(run_path, chunk[order])
            runs.append(run_path)
        if not runs:
            return
        if len(runs) == 1:
            arr = np.load(runs[0])
            for start in range(0, len(arr), chunk_edges):
                yield arr[start : start + chunk_edges]
            return

        def _rows(run_path: Path) -> Iterator[np.ndarray]:
            arr = np.load(run_path, mmap_mode="r")
            for row in arr:
                yield row

        buf: list = []
        # heapq.merge prefers earlier iterables on ties, so equal
        # timestamps resolve to earlier runs — i.e. file order.
        merged = heapq.merge(*map(_rows, runs), key=lambda r: r[2])
        for row in merged:
            buf.append(np.asarray(row))
            if len(buf) >= chunk_edges:
                yield np.array(buf, dtype=np.float64)
                buf = []
        if buf:
            yield np.array(buf, dtype=np.float64)


def write_temporal_edge_list(
    rows: "np.ndarray", path: PathLike, header: str = ""
) -> None:
    """Write ``(k, 4)`` ``u v ts w`` rows as a temporal edge list."""
    with open(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v, ts, w in np.asarray(rows, dtype=np.float64):
            handle.write(f"{int(u)} {int(v)} {ts:.10g} {w:.10g}\n")
