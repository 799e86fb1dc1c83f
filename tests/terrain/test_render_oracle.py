"""The batched z-buffer renderer against the per-face loop it replaced.

``loop_render_mesh`` is the original scanline renderer, kept verbatim
as the reference: every image :func:`render_mesh` returns must equal
it byte for byte — across cameras, image sizes, culling cases and the
first-face-wins rule on depth ties.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.engine import ArtifactCache, DatasetSource, Pipeline
from repro.graph import from_edges
from repro.terrain import (
    Camera,
    build_mesh,
    intensity_ramp,
    layout_tree,
    rasterize,
    render_mesh,
)
from repro.terrain import render
from repro.terrain.heightfield import Heightfield
from repro.terrain.mesh import TerrainMesh
from repro.terrain.render import _LIGHT_DIR


def loop_render_mesh(
    mesh, camera=None, width=640, height=480,
    background=(1.0, 1.0, 1.0), ambient=0.45,
):
    """Rasterize a terrain mesh to an (H, W, 3) uint8 image."""
    camera = camera or Camera()
    xy, depth = camera.project(mesh.vertices, width, height)

    # Lambert shading per face.
    tri = mesh.vertices[mesh.faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.where(norms > 1e-12, norms, 1.0)
    # Faces are viewed from above; flip normals pointing down.
    normals[normals[:, 2] < 0] *= -1
    diffuse = np.clip(normals @ _LIGHT_DIR, 0.0, 1.0)
    shade = ambient + (1.0 - ambient) * diffuse
    colors = np.clip(mesh.face_colors * shade[:, None], 0.0, 1.0)

    frame = np.empty((height, width, 3), dtype=np.float64)
    frame[:] = np.asarray(background)
    zbuf = np.full((height, width), np.inf)

    pts = xy[mesh.faces]  # (m, 3, 2)
    zs = depth[mesh.faces]  # (m, 3)
    # Painter-friendly order is unnecessary with a z-buffer; iterate as is.
    for f in range(len(mesh.faces)):
        z0, z1, z2 = zs[f]
        if z0 <= 0 or z1 <= 0 or z2 <= 0:
            continue
        (x0, y0), (x1, y1), (x2, y2) = pts[f]
        min_x = max(int(min(x0, x1, x2)), 0)
        max_x = min(int(max(x0, x1, x2)) + 1, width)
        min_y = max(int(min(y0, y1, y2)), 0)
        max_y = min(int(max(y0, y1, y2)) + 1, height)
        if min_x >= max_x or min_y >= max_y:
            continue
        area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if abs(area) < 1e-12:
            continue
        px = (np.arange(min_x, max_x) + 0.5)[None, :]
        py = (np.arange(min_y, max_y) + 0.5)[:, None]
        w0 = ((x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)) / area
        w1 = ((px - x0) * (y2 - y0) - (x2 - x0) * (py - y0)) / area
        # Barycentrics: b1 = w1 (vertex 1), b2 = w0 (vertex 2).
        b0 = 1.0 - w0 - w1
        inside = (b0 >= 0) & (w0 >= 0) & (w1 >= 0)
        if not inside.any():
            continue
        z = b0 * z0 + w1 * z1 + w0 * z2
        block_z = zbuf[min_y:max_y, min_x:max_x]
        visible = inside & (z < block_z)
        if not visible.any():
            continue
        block_z[visible] = z[visible]
        frame[min_y:max_y, min_x:max_x][visible] = colors[f]
    return (frame * 255).astype(np.uint8)


CAMERAS = {
    "default": Camera(),
    "rotated": Camera().rotated(120, 30).zoomed(0.5),
    # Faces straddle the frame edge and the near plane.
    "near": Camera().zoomed(0.15),
    "top_down": Camera(elevation=88),
    "far": Camera().zoomed(2.0),
}
SIZES = [(640, 480), (7, 5), (1, 1)]


def assert_matches_loop(mesh, camera, width, height, **kwargs):
    expected = loop_render_mesh(mesh, camera, width, height, **kwargs)
    actual = render_mesh(mesh, camera, width, height, **kwargs)
    assert actual.dtype == np.uint8
    assert np.array_equal(actual, expected)
    return actual


@pytest.fixture(scope="module")
def grqc_mesh():
    pipeline = Pipeline(DatasetSource("grqc"), "kcore", cache=ArtifactCache())
    colors = intensity_ramp(pipeline.display_tree.scalars)
    return build_mesh(pipeline.heightfield(160), colors)


@pytest.fixture(scope="module")
def small_mesh():
    graph = from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sg = ScalarGraph(graph, [5.0, 4.0, 3.0, 2.0, 1.0])
    tree = build_super_tree(build_vertex_tree(sg))
    hf = rasterize(layout_tree(tree), resolution=48)
    return build_mesh(hf, intensity_ramp(tree.scalars))


def triangle_mesh(vertices, faces, colors):
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    return TerrainMesh(
        np.asarray(vertices, dtype=np.float64),
        faces,
        np.asarray(colors, dtype=np.float64).reshape(-1, 3),
        np.zeros(len(faces), dtype=np.int64),
    )


SQUARE = [(-0.5, -0.5, 0.2), (0.5, -0.5, 0.2), (-0.5, 0.5, 0.2),
          (0.5, 0.5, 0.2)]


def zero_area_mesh():
    # Face 0 is collinear on screen; face 1 is an ordinary triangle.
    vertices = SQUARE + [(0.0, 0.0, 0.2)]
    return triangle_mesh(vertices, [[0, 4, 3], [0, 1, 2]],
                         [(0.9, 0.1, 0.1), (0.1, 0.9, 0.1)])


def behind_camera_mesh():
    eye = Camera().position
    behind = eye + 0.5 * (eye - np.asarray(Camera().target))
    vertices = SQUARE + [tuple(behind)]
    return triangle_mesh(vertices, [[0, 1, 4], [0, 1, 2], [1, 3, 2]],
                         [(0.9, 0.1, 0.1), (0.1, 0.9, 0.1), (0.1, 0.1, 0.9)])


def coplanar_tie_mesh():
    # Faces 0 and 1 are the same triangle, so their depths tie exactly
    # at every pixel; face 2 completes the square in the same plane.
    return triangle_mesh(
        SQUARE, [[0, 1, 2], [0, 1, 2], [1, 3, 2]],
        [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)],
    )


@pytest.mark.parametrize("camera", CAMERAS.values(), ids=CAMERAS.keys())
def test_grqc_matches_loop(grqc_mesh, camera):
    assert_matches_loop(grqc_mesh, camera, 640, 480)


@pytest.mark.parametrize("width, height", SIZES[1:])
def test_grqc_tiny_frames_match_loop(grqc_mesh, width, height):
    assert_matches_loop(grqc_mesh, Camera(), width, height)


@pytest.mark.parametrize("width, height", SIZES)
@pytest.mark.parametrize("camera", CAMERAS.values(), ids=CAMERAS.keys())
@pytest.mark.parametrize("make_mesh", [
    "small", zero_area_mesh, behind_camera_mesh, coplanar_tie_mesh,
])
def test_small_meshes_match_loop(small_mesh, make_mesh, camera, width,
                                 height):
    mesh = small_mesh if make_mesh == "small" else make_mesh()
    assert_matches_loop(mesh, camera, width, height)


def test_lower_face_wins_depth_tie():
    image = assert_matches_loop(coplanar_tie_mesh(), Camera(), 64, 48)
    colors = {tuple(c) for c in image.reshape(-1, 3)}
    assert any(r > 0 and b == 0 for r, _, b in colors)
    assert not any(b > 0 and r == 0 and g == 0 for r, g, b in colors)


def test_empty_mesh_is_background():
    mesh = triangle_mesh(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    image = render_mesh(mesh, width=5, height=4, background=(0.0, 0.5, 1.0))
    assert np.array_equal(image, loop_render_mesh(
        mesh, width=5, height=4, background=(0.0, 0.5, 1.0)))
    assert (image == (0, 127, 255)).all()


def test_chunk_boundaries_keep_the_tie_rule(small_mesh, monkeypatch):
    # A tiny budget splits faces, and the duplicated face pair, across
    # chunks; the merge must still let the first face win.
    monkeypatch.setattr(render, "_CHUNK", 7)
    for mesh in (small_mesh, coplanar_tie_mesh()):
        for camera in CAMERAS.values():
            assert_matches_loop(mesh, camera, 40, 30)


@pytest.mark.parametrize("width, height", [(0, 480), (640, 0), (-1, -1)])
def test_non_positive_size_rejected(small_mesh, width, height):
    with pytest.raises(ValueError, match="image size must be positive"):
        render_mesh(small_mesh, width=width, height=height)


@pytest.mark.parametrize("camera", [CAMERAS["default"], CAMERAS["near"]],
                         ids=["default", "near"])
def test_memory_peak_is_bounded(grqc_mesh, camera):
    tracemalloc.start()
    try:
        render_mesh(grqc_mesh, camera, 640, 480)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_near_camera_expands_millions_of_candidates(grqc_mesh):
    # Keeps the memory bound above meaningful: the near camera's face
    # boxes add up to far more candidates than one chunk holds.
    xy, depth = CAMERAS["near"].project(grqc_mesh.vertices, 640, 480)
    offsets = render._face_setup(xy, depth, grqc_mesh.faces, 640, 480)[-1]
    assert offsets[-1] > 2_000_000


@st.composite
def scenes(draw):
    res = draw(st.integers(2, 7))
    levels = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    height = rng.integers(0, levels, (res, res)).astype(np.float64)
    node = rng.integers(-1, 3, (res, res))
    hf = Heightfield(height, node, (0.0, 0.0, 1.0, 1.0), 0.0)
    mesh = build_mesh(hf, rng.random((3, 3)), z_scale=draw(
        st.sampled_from([0.0, 0.3, 1.5])))
    camera = Camera(
        azimuth=draw(st.floats(0, 360)),
        elevation=draw(st.floats(2, 88)),
    ).zoomed(draw(st.floats(0.1, 3.0)))
    size = (draw(st.integers(1, 48)), draw(st.integers(1, 36)))
    return mesh, camera, size


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scene=scenes())
def test_random_scenes_match_loop(scene):
    mesh, camera, (width, height) = scene
    assert_matches_loop(mesh, camera, width, height)
