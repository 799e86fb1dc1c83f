"""Software 3D renderer: batched z-buffer triangle rasterizer + image writers.

A from-scratch replacement for the paper's OpenGL viewer, so the whole
terrain pipeline runs headless: project triangles through an orbit
:class:`~repro.terrain.camera.Camera`, shade each face with a single
directional light, and rasterize all faces at once into a numpy
z-buffer.  Every face's screen box is expanded into candidate pixels
in face order, a bounded chunk at a time; each candidate is tested
with barycentric edge functions and interpolated to a depth.  A pixel
keeps its nearest candidate, and on a depth tie the face with the
lower index, so the image is the one drawing the faces one by one
with a strict ``<`` depth test would give.  Images are written as PNG
(stdlib zlib) or binary PPM.

High-level entry point: :func:`render_terrain` — scalar graph/tree in,
image (and optional file) out.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from ..core.super_tree import SuperTree
from ..obs import trace as obs_trace
from .camera import Camera
from .colormap import intensity_ramp
from .heightfield import Heightfield, rasterize
from .layout2d import TerrainLayout, layout_tree
from .mesh import TerrainMesh, build_mesh

__all__ = [
    "render_mesh",
    "render_terrain",
    "node_colors_from_item_values",
    "save_png",
    "save_ppm",
]

_LIGHT = np.array([0.35, -0.5, 0.85])
_LIGHT_DIR = _LIGHT / np.linalg.norm(_LIGHT)


def _shade(mesh: TerrainMesh, ambient: float) -> np.ndarray:
    """Per-face RGB under Lambert shading from :data:`_LIGHT_DIR`."""
    tri = mesh.vertices[mesh.faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.where(norms > 1e-12, norms, 1.0)
    # Faces are viewed from above; flip normals pointing down.
    normals[normals[:, 2] < 0] *= -1
    diffuse = np.clip(normals @ _LIGHT_DIR, 0.0, 1.0)
    shade = ambient + (1.0 - ambient) * diffuse
    return np.clip(mesh.face_colors * shade[:, None], 0.0, 1.0)


def _face_setup(
    xy: np.ndarray, depth: np.ndarray, faces: np.ndarray,
    width: int, height: int,
) -> Tuple[np.ndarray, ...]:
    """Screen-space setup of the faces that can cover a pixel.

    Bounding boxes truncate toward zero and are clipped to the frame
    before the int cast.  A face is culled when a vertex is at or
    behind the eye, its box is empty, or its screen area is below
    1e-12.  Returns ``(live, params, min_x, min_y, box_w, offsets)``:
    the surviving face indices, a (10, k) float table of
    ``x0, y0, x1 - x0, y1 - y0, x2 - x0, y2 - y0, area, z0, z1, z2``,
    each box's corner and width, and the offset of each box's first
    pixel in the face-ordered candidate list (with the total appended).
    """
    fx = xy[faces, 0]
    fy = xy[faces, 1]
    fz = depth[faces]
    min_x = np.clip(fx.min(axis=1), 0, width).astype(np.int64)
    max_x = np.minimum(
        np.clip(fx.max(axis=1), -1, width).astype(np.int64) + 1, width
    )
    min_y = np.clip(fy.min(axis=1), 0, height).astype(np.int64)
    max_y = np.minimum(
        np.clip(fy.max(axis=1), -1, height).astype(np.int64) + 1, height
    )
    x0, y0 = fx[:, 0], fy[:, 0]
    dx1, dy1 = fx[:, 1] - x0, fy[:, 1] - y0
    dx2, dy2 = fx[:, 2] - x0, fy[:, 2] - y0
    area = dx1 * dy2 - dx2 * dy1
    live = np.flatnonzero(
        ~(fz <= 0).any(axis=1)
        & (min_x < max_x)
        & (min_y < max_y)
        & ~(np.abs(area) < 1e-12)
    )
    params = np.stack([
        x0[live], y0[live], dx1[live], dy1[live], dx2[live], dy2[live],
        area[live], fz[live, 0], fz[live, 1], fz[live, 2],
    ])
    min_x, min_y = min_x[live], min_y[live]
    box_w = max_x[live] - min_x
    offsets = np.concatenate([[0], np.cumsum(box_w * (max_y[live] - min_y))])
    return live, params, min_x, min_y, box_w, offsets


#: Candidate pixels evaluated per batch.  Bounds the renderer's scratch
#: memory whatever the mesh size or camera; 2**14 to 2**16 run equally
#: fast.
_CHUNK = 1 << 14


def render_mesh(
    mesh: TerrainMesh,
    camera: Optional[Camera] = None,
    width: int = 640,
    height: int = 480,
    background=(1.0, 1.0, 1.0),
    ambient: float = 0.45,
) -> np.ndarray:
    """Rasterize a terrain mesh to an (H, W, 3) uint8 image."""
    if width < 1 or height < 1:
        raise ValueError(f"image size must be positive, got {width}x{height}")
    camera = camera or Camera()
    xy, depth = camera.project(mesh.vertices, width, height)
    colors = _shade(mesh, ambient)
    live, params, min_x, min_y, box_w, offsets = _face_setup(
        xy, depth, mesh.faces, width, height
    )

    # Expand the faces' boxes into candidate pixels in face order, a
    # chunk at a time.  Within a chunk each pixel keeps its nearest
    # candidate, the lowest face index on a depth tie; chunks merge into
    # the z-buffer with a strict ``<``, so an earlier (lower-index) face
    # keeps a tie across chunks too.  That is the first-wins rule of
    # drawing the faces one by one.
    zbuf = np.full(height * width, np.inf)
    owner = np.full(height * width, len(colors), dtype=np.int64)
    total = int(offsets[-1])
    for lo in range(0, total, _CHUNK):
        k = np.arange(lo, min(lo + _CHUNK, total))
        face = np.searchsorted(offsets, k, side="right") - 1
        row, col = np.divmod(k - offsets[face], box_w[face])
        x = min_x[face] + col
        y = min_y[face] + row
        x0, y0, dx1, dy1, dx2, dy2, area, z0, z1, z2 = params[:, face]
        px = x + 0.5
        py = y + 0.5
        w0 = (dx1 * (py - y0) - (px - x0) * dy1) / area
        w1 = ((px - x0) * dy2 - dx2 * (py - y0)) / area
        # Barycentrics: b1 = w1 (vertex 1), b2 = w0 (vertex 2).
        b0 = 1.0 - w0 - w1
        z = b0 * z0 + w1 * z1 + w0 * z2
        hit = (b0 >= 0) & (w0 >= 0) & (w1 >= 0)
        pixel = (y * width + x)[hit]
        z, face = z[hit], face[hit]
        order = np.lexsort((face, z, pixel))
        pixel, z, face = pixel[order], z[order], face[order]
        first = np.ones(len(pixel), dtype=bool)
        first[1:] = pixel[1:] != pixel[:-1]
        pixel, z, face = pixel[first], z[first], face[first]
        nearer = z < zbuf[pixel]
        zbuf[pixel[nearer]] = z[nearer]
        owner[pixel[nearer]] = live[face[nearer]]

    bg = np.broadcast_to(np.asarray(background, dtype=np.float64), (3,))
    table = (np.vstack([colors, bg]) * 255).astype(np.uint8)
    return table[owner].reshape(height, width, 3)


def node_colors_from_item_values(
    tree: SuperTree, values: np.ndarray, palette=intensity_ramp
) -> np.ndarray:
    """Per-super-node colours from per-*item* values.

    ``values`` holds one number per graph item (vertex or edge); each
    super node takes the palette colour of its members' mean value.
    This is how the paper colours a terrain by a *second* measure.
    """
    values = np.asarray(values, dtype=np.float64)
    node_values = np.array(
        [values[m].mean() if len(m) else 0.0 for m in tree.members]
    )
    return palette(node_values)


def node_colors_categorical(
    tree: SuperTree, labels: np.ndarray, color_table: np.ndarray
) -> np.ndarray:
    """Per-super-node colours from per-item categorical labels.

    Each super node takes the colour of its members' majority label
    (e.g. dominant role, Fig 9; plant genus, Fig 11).
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((tree.n_nodes, 3))
    for s, member in enumerate(tree.members):
        if len(member):
            counts = np.bincount(labels[member])
            out[s] = color_table[int(counts.argmax())]
    return out


def render_terrain(
    tree: SuperTree,
    color_values: Optional[np.ndarray] = None,
    categorical_labels: Optional[np.ndarray] = None,
    color_table: Optional[np.ndarray] = None,
    camera: Optional[Camera] = None,
    resolution: int = 160,
    width: int = 640,
    height: int = 480,
    z_scale: float = 0.55,
    layout: Optional[TerrainLayout] = None,
    heightfield: Optional[Heightfield] = None,
    path: Optional[Union[str, Path]] = None,
) -> np.ndarray:
    """One-call pipeline: super tree → layout → heightfield → image.

    By default the terrain is coloured by its own scalar (height);
    pass ``color_values`` (one per item) to colour by a second measure,
    or ``categorical_labels`` + ``color_table`` for nominal attributes.
    Precomputed ``layout``/``heightfield`` can be reused across camera
    angles.  If ``path`` is given, the image is saved (suffix picks
    PNG or PPM).
    """
    layout = layout or layout_tree(tree)
    hf = heightfield or rasterize(layout, resolution=resolution)
    if categorical_labels is not None:
        if color_table is None:
            raise ValueError("categorical_labels requires color_table")
        node_colors = node_colors_categorical(
            tree, categorical_labels, np.asarray(color_table)
        )
    elif color_values is not None:
        node_colors = node_colors_from_item_values(tree, color_values)
    else:
        node_colors = intensity_ramp(tree.scalars)
    with obs_trace.span("stage.mesh", resolution=hf.resolution):
        mesh = build_mesh(hf, node_colors, z_scale=z_scale)
    with obs_trace.span("stage.render", faces=mesh.n_faces, width=width,
                        height=height):
        image = render_mesh(mesh, camera=camera, width=width, height=height)
    if path is not None:
        path = Path(path)
        with obs_trace.span("stage.encode", path=str(path)):
            if path.suffix.lower() == ".ppm":
                save_ppm(image, path)
            else:
                save_png(image, path)
    return image


def save_png(image: np.ndarray, path: Union[str, Path]) -> Path:
    """Write an (H, W, 3) uint8 image as PNG (pure stdlib zlib)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    raw = b"".join(
        b"\x00" + image[row].tobytes() for row in range(h)
    )

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    blob = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return path


def save_ppm(image: np.ndarray, path: Union[str, Path]) -> Path:
    """Write an (H, W, 3) uint8 image as binary PPM (P6)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(f"P6\n{w} {h}\n255\n".encode())
        handle.write(image.tobytes())
    return path
