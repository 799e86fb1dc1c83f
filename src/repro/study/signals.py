"""Visual-signal extraction for the simulated user study.

The paper's Tables IV–VI come from ten human participants per task.
Offline we substitute *simulated* participants (the README's "Offline
stand-ins"): their accuracy and latency are functions of signals
**measured from the same artifacts a human would look at** — the
terrain layout geometry, the LaNet-vi shell structure, and the actual
OpenOrd vertex positions.
Nothing is hard-coded per method: if a baseline renders the target
saliently, the simulator will reward it.

Every extractor returns a :class:`VisualSignal` with three components:

* ``visibility`` ∈ [0, 1] — how much display real estate / pop-out the
  target enjoys;
* ``discriminability`` ∈ [0, 1] — how separable the target is from its
  closest distractor (height gap, colour-ramp gap, …);
* ``trace_cost`` ≥ 0 — structured-inspection effort in "steps" (e.g.
  having to follow individual edges to settle connectivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.super_tree import SuperTree
from ..graph.csr import CSRGraph
from ..terrain.layout2d import TerrainLayout
from ..terrain.peaks import highest_peaks

__all__ = [
    "VisualSignal",
    "terrain_target_signal",
    "lanet_vi_target_signal",
    "openord_target_signal",
    "terrain_correlation_signal",
    "openord_correlation_signal",
    "occlusion_fraction",
]


@dataclass(frozen=True)
class VisualSignal:
    """What a visualization gives the viewer for one task."""

    visibility: float
    discriminability: float
    trace_cost: float


def _mountain_root(tree: SuperTree, node: int) -> int:
    """Root of the mountain containing ``node`` (its forest root)."""
    while tree.parent[node] >= 0:
        node = int(tree.parent[node])
    return node


def terrain_target_signal(
    tree: SuperTree,
    layout: TerrainLayout,
    rank: int = 1,
) -> VisualSignal:
    """Signal for "find the rank-th highest disconnected peak".

    Height is a position cue (pop-out): visibility comes from the
    target's relative height and the footprint of the mid-height
    boundary under it; discriminability from the summit-height gap to
    the next candidate.  Disconnection is directly visible (separate
    mountains), so the trace cost is the count of *competing* peaks
    only.
    """
    peaks = highest_peaks(tree, count=rank + 1, layout=layout)
    target = peaks[rank - 1]
    h_max = float(tree.scalars.max())
    h_min = float(tree.scalars.min())
    span = (h_max - h_min) or 1.0
    rel_height = (target.alpha - h_min) / span
    # Footprint: boundary of the target's ancestor at half its height.
    node = target.node
    half = h_min + (target.alpha - h_min) * 0.5
    anc = node
    while tree.parent[anc] >= 0 and tree.scalars[tree.parent[anc]] >= half:
        anc = int(tree.parent[anc])
    xmin, ymin, xmax, ymax = layout.extent
    total_area = (xmax - xmin) * (ymax - ymin)
    area_frac = layout.boundary_area(anc) / total_area
    visibility = float(
        np.clip(0.45 * rel_height + 0.55 * min(math.sqrt(area_frac) * 3, 1.0), 0, 1)
    )
    if len(peaks) > rank:
        runner = peaks[rank]
        gap = (target.alpha - runner.alpha) / span
    else:
        gap = 1.0
    # Height comparison in 3D is a metric judgement: even small gaps
    # resolve, hence the 0.55 floor.
    discriminability = float(np.clip(0.55 + 0.45 * gap * 4, 0, 1))
    trace_cost = math.log2(1 + rank)
    return VisualSignal(visibility, discriminability, trace_cost)


def lanet_vi_target_signal(
    graph: CSRGraph,
    core: np.ndarray,
    rank: int = 1,
) -> VisualSignal:
    """Signal for reading the rank-th densest core off an onion layout.

    The innermost shell's visibility is its population share of the
    display; coreness is colour-coded, so discriminability is the ramp
    gap between the top shells; settling *connectivity* (Task 2)
    requires following the actual edges incident to the target shell.
    """
    n = graph.n_vertices
    k_max = int(core.max())
    distinct = np.unique(core)
    k1 = distinct[-1]
    k2 = distinct[-2] if len(distinct) > 1 else k1
    target = np.flatnonzero(core == k1)
    visibility = float(np.clip(math.sqrt(len(target) / n) * 2.2, 0, 1))
    ramp_gap = (k1 - k2) / (k_max + 1)
    discriminability = float(np.clip(ramp_gap * 5, 0.05, 1))
    trace_cost = math.log2(1 + len(distinct)) / 2
    if rank > 1:
        # Must verify disconnection by tracing edges around the shell.
        incident = int(graph.degree()[target].sum())
        trace_cost += math.log2(1 + incident)
        visibility *= 0.8
    return VisualSignal(visibility, discriminability, trace_cost)


def occlusion_fraction(
    positions: np.ndarray, targets: np.ndarray, radius: float = 0.01
) -> float:
    """Fraction of target vertices overlapped by ≥2 non-target vertices
    within ``radius`` in the *actual* layout (unit square coords)."""
    targets = np.asarray(targets)
    if len(targets) == 0:
        return 0.0
    others = np.ones(len(positions), dtype=bool)
    others[targets] = False
    other_pos = positions[others]
    if len(other_pos) == 0:
        return 0.0
    occluded = 0
    for t in targets:
        d2 = ((other_pos - positions[t]) ** 2).sum(axis=1)
        if int((d2 < radius * radius).sum()) >= 2:
            occluded += 1
    return occluded / len(targets)


def openord_target_signal(
    graph: CSRGraph,
    values: np.ndarray,
    positions: np.ndarray,
    rank: int = 1,
) -> VisualSignal:
    """Signal for reading the rank-th densest region off an OpenOrd plot.

    Targets pop out only through colour, so visibility is their
    population share *after* discounting measured point occlusion;
    discriminability is the colour-ramp gap as for LaNet-vi; the whole
    cloud must be scanned (log-n search), and connectivity questions
    again require edge tracing.
    """
    values = np.asarray(values, dtype=np.float64)
    n = graph.n_vertices
    distinct = np.unique(values)
    v1 = distinct[-1]
    v2 = distinct[-2] if len(distinct) > 1 else v1
    target = np.flatnonzero(values == v1)
    occl = occlusion_fraction(positions, target)
    visibility = float(
        np.clip(math.sqrt(len(target) / n) * 2.0 * (1 - 0.7 * occl), 0, 1)
    )
    span = (values.max() - values.min()) or 1.0
    discriminability = float(np.clip((v1 - v2) / span * 4, 0.05, 1))
    trace_cost = math.log2(1 + n) / 4
    if rank > 1:
        incident = int(graph.degree()[target].sum())
        trace_cost += math.log2(1 + incident)
        visibility *= 0.8
    return VisualSignal(visibility, discriminability, trace_cost)


def terrain_correlation_signal(
    tree: SuperTree, node_color_values: np.ndarray
) -> VisualSignal:
    """Signal for judging two-field correlation off a coloured terrain.

    Height encodes field 1 and colour field 2, so the viewer reads the
    *rank agreement between height and colour over the super nodes* —
    we measure exactly that correlation on the artifact.
    """
    heights = tree.scalars
    colors = np.asarray(node_color_values, dtype=np.float64)
    if heights.std() == 0 or colors.std() == 0:
        rho = 0.0
    else:
        rho = float(np.corrcoef(heights, colors)[0, 1])
    discriminability = float(np.clip(abs(rho), 0, 1))
    visibility = 0.8  # the whole terrain carries the signal
    return VisualSignal(visibility, discriminability, 1.0)


def openord_correlation_signal(
    values_color: np.ndarray,
    values_size: np.ndarray,
    positions: np.ndarray,
) -> VisualSignal:
    """Signal for judging correlation from colour-vs-size glyphs.

    Same underlying statistic, but (a) node size is a weaker channel
    than terrain height and (b) measured occlusion hides part of the
    evidence (the paper's stated failure mode for Task 3).
    """
    color = np.asarray(values_color, dtype=np.float64)
    size = np.asarray(values_size, dtype=np.float64)
    if color.std() == 0 or size.std() == 0:
        rho = 0.0
    else:
        rho = float(np.corrcoef(color, size)[0, 1])
    # Occlusion over the densest tenth of the display.
    top = np.argsort(-size)[: max(len(size) // 10, 1)]
    occl = occlusion_fraction(positions, top)
    discriminability = float(np.clip(abs(rho) * (1 - 0.5 * occl) * 0.75, 0, 1))
    visibility = float(np.clip(0.65 * (1 - 0.5 * occl), 0, 1))
    return VisualSignal(visibility, discriminability, 1.5)
