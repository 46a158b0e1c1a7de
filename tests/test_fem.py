"""Finite elements: assembly oracles, meshing, condensation, convergence."""

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spilu, splu

from steklov import fem, geometry, specfun, spectra
from steklov.fem import Mesh, MeshError
from steklov.geometry import DomainError


def reference_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0]])
    tris = np.array([[0, 2, 1]])   # counterclockwise for a domain below y=0
    boundary = [(0, 1, "free"), (1, 2, "wall"), (2, 0, "wall")]
    return Mesh(nodes, tris, boundary)


def test_stiffness_reference_triangle():
    # P1 stiffness of the unit right triangle, frozen by hand:
    # grad hats are (-1, 1), (1, 0), (0, -1) up to orientation; K row sums 0
    K, _ = fem.assemble(reference_triangle_mesh())
    Kd = K.toarray()
    expect = 0.5 * np.array([[2.0, -1.0, -1.0],
                             [-1.0, 1.0, 0.0],
                             [-1.0, 0.0, 1.0]])
    assert Kd == pytest.approx(expect, abs=1e-14)
    assert Kd.sum(axis=1) == pytest.approx(np.zeros(3), abs=1e-14)


def test_boundary_mass_total_is_surface_length():
    mesh = fem.triangulate(geometry.rectangle_domain(2.0, 1.0), 0.3)
    _, mf = fem.assemble(mesh)
    assert mf.sum() == pytest.approx(2.0, rel=1e-12)
    assert mf == pytest.approx(mf.T)          # symmetric
    # consistent 1D mass: each free edge contributes [[l/3,l/6],[l/6,l/3]]
    single = reference_triangle_mesh()
    _, mf1 = fem.assemble(single)
    assert mf1 == pytest.approx(np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]))


# -- dict-based reference mesher: the oracle for the vectorized one ----------

def reference_refine(nodes, triangles, levels):
    """(nodes, triangles, rims): `levels` midpoint 4-splits, with each input
    triangle's rim chain a -> b -> c carried along by midpoint lookup."""
    nodes = [tuple(p) for p in nodes]
    tris = [tuple(t) for t in triangles]
    rims = [list(t) for t in tris]
    for _ in range(levels):
        midpoint: dict = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                pa, pb = nodes[a], nodes[b]
                nodes.append(((pa[0] + pb[0]) / 2, (pa[1] + pb[1]) / 2))
                midpoint[key] = len(nodes) - 1
            return midpoint[key]

        out = []
        for a, b, c in tris:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            out.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        tris = out
        rims = [[v for a, b in zip(rim, rim[1:] + rim[:1])
                 for v in (a, midpoint[(min(a, b), max(a, b))])] for rim in rims]
    return np.array(nodes), np.array(tris, dtype=int), np.array(rims, dtype=int)


def reference_hull_edges(triangles):
    counts: dict = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            counts[key] = counts.get(key, 0) + 1
    return [e for e, c in counts.items() if c == 1]


def reference_classify(d, nodes, hull_edges):
    tol = max(d._tol, 1e-9)
    out = []
    for i, j in hull_edges:
        mid = 0.5 * (nodes[i] + nodes[j])
        for _k, a, b, tag in d.edges():
            ab = b - a
            t = min(1.0, max(0.0, float((mid - a) @ ab) / float(ab @ ab)))
            if np.hypot(*(mid - (a + t * ab))) <= tol * (1 + np.hypot(*ab)):
                out.append((int(i), int(j), tag))
                break
    return out


def fan_base(d):
    """The base triangulation `triangulate` splits: the polygon itself, or
    its centroid fan."""
    m = d.n_vertices
    if m == 3:
        return d.vertices.copy(), np.array([[0, 1, 2]])
    return (np.vstack([d.vertices, d.vertices.mean(axis=0)]),
            np.array([[i, (i + 1) % m, m] for i in range(m)]))


def reference_triangulate(d, target_h):
    if geometry.axis_rectangle_sides(d) is not None:
        (x0, y0), (x1, y1) = d.vertices.min(axis=0), d.vertices.max(axis=0)
        nx = max(1, math.ceil((x1 - x0) / target_h))
        ny = max(1, math.ceil((y1 - y0) / target_h))
        xs, ys = np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1)
        nodes = np.array([(x, y) for y in ys for x in xs])
        tris = []
        for j in range(ny):
            for i in range(nx):
                n00 = j * (nx + 1) + i
                n10, n01 = n00 + 1, n00 + nx + 1
                tris.extend([(n00, n10, n01 + 1), (n00, n01 + 1, n01)])
        triangles = np.array(tris, dtype=int)
    else:
        nodes0, tris0 = fan_base(d)
        edge_max = max(float(np.hypot(*(b - a))) for _i, a, b, _t in d.edges())
        levels = 0
        while edge_max / 2 ** levels > target_h:
            levels += 1
        nodes, triangles, _rims = reference_refine(nodes0, tris0, levels)
        while Mesh(nodes, triangles, []).mesh_size > 1.5 * target_h:
            nodes, triangles, _rims = reference_refine(nodes, triangles, 1)
    return Mesh(nodes, triangles,
                reference_classify(d, nodes, reference_hull_edges(triangles)))


def regular_polygon(k, radius=1.0):
    """Regular k-gon with its top edge on the surface; from k = 10 on, the
    centroid fan's spokes are over 1.5x the polygon's edges."""
    theta = math.pi / 2 + math.pi / k + 2 * math.pi * np.arange(k) / k
    verts = radius * np.column_stack([np.cos(theta),
                                      np.sin(theta) - math.cos(math.pi / k)])
    return geometry.PolygonalDomain(verts, free_edges=[k - 1])


MESHER_DOMAINS = {
    "rectangle": geometry.rectangle_domain(math.pi, 1.0),
    "triangle": geometry.isoceles_triangle_domain(2.0, math.pi / 4),
    "fan": geometry.trapezoid_domain(2.0, math.pi / 3, 0.6),
}


def inscribed_hexagon():
    """A hexagon on the unit circle about its vertex mean, at angles 120,
    190, 240, 300, 10 and 60 degrees: every triangle of its centroid fan is
    isoceles, but the hexagon has no mirror, so none runs in sectors."""
    theta = np.radians([120.0, 190.0, 240.0, 300.0, 10.0, 60.0])
    verts = np.column_stack([np.cos(theta), np.sin(theta) - math.sin(math.pi / 3)])
    return geometry.PolygonalDomain(verts, free_edges=[5])


SPECTRUM_DOMAINS = {**MESHER_DOMAINS, "spoked": regular_polygon(12),
                    "fan-wide": geometry.trapezoid_domain(math.pi, 2 * math.pi / 3,
                                                          1.0),
                    "hexagon": inscribed_hexagon()}


@pytest.mark.parametrize("h", [0.3, 0.11, 0.05, 0.02])
@pytest.mark.parametrize("name", sorted(MESHER_DOMAINS))
def test_mesher_matches_dict_reference(name, h):
    d = MESHER_DOMAINS[name]
    mesh, ref = fem.triangulate(d, h), reference_triangulate(d, h)
    for got, want in ((mesh.nodes, ref.nodes), (mesh.triangles, ref.triangles)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert mesh.boundary_edges == ref.boundary_edges


def assert_split_once(d, h):
    """triangulate(d, h / 2) is triangulate(d, h) 4-split once, bit for bit
    (or the same mesh when neither splits)."""
    coarse, fine = fem.triangulate(d, h), fem.triangulate(d, h / 2)
    levels = [fem._base_triangulation(d, t)[2] for t in (h, h / 2)]
    if levels[1] == 0:
        want = coarse.nodes, coarse.triangles
    else:
        assert levels[1] == levels[0] + 1
        want = fem._refine(coarse.nodes, coarse.triangles, 1)
    for got, ref in zip((fine.nodes, fine.triangles), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    # so every coarse node is a fine node, and nu(h) >= nu(h/2)
    assert set(map(tuple, coarse.nodes.tolist())) \
        <= set(map(tuple, fine.nodes.tolist()))


@pytest.mark.parametrize("name", ["triangle", "fan", "spoked"])
def test_refining_meshers_nest(name):
    d = regular_polygon(12) if name == "spoked" else MESHER_DOMAINS[name]
    for h in (0.3, 0.1, 0.04):
        assert_split_once(d, h)


@pytest.mark.parametrize("scale", [1e-9, 1e6])
def test_boundary_tags_are_dilation_invariant(scale):
    # the tagging tolerance follows the domain's size: an absolute one tagged
    # every edge of a tiny triangle wall, and free edges next to the corners
    # of a large one
    unit = geometry.isoceles_triangle_domain(1.0, math.pi / 3)
    d = geometry.isoceles_triangle_domain(scale, math.pi / 3)
    for h in (0.1, 0.002):
        assert fem.triangulate(d, scale * h).boundary_edges \
            == fem.triangulate(unit, h).boundary_edges


def test_structured_rectangle_mesh_shape():
    d = geometry.rectangle_domain(1.0, 0.5)
    mesh = fem.triangulate(d, 0.13)
    nx, ny = 8, 4                          # ceil(1/0.13), ceil(0.5/0.13)
    assert mesh.nodes.shape[0] == (nx + 1) * (ny + 1)
    assert mesh.triangles.shape[0] == 2 * nx * ny
    tags = {tag for _i, _j, tag in mesh.boundary_edges}
    assert tags == {"free", "wall"}
    # free edges lie on the surface line y = 0
    for i, j, tag in mesh.boundary_edges:
        ys = mesh.nodes[[i, j], 1]
        if tag == "free":
            assert np.all(np.abs(ys) < 1e-12)
    assert mesh.mesh_size <= 1.5 * 0.13 + 1e-12


def test_triangle_mesher_self_similar():
    d = geometry.isoceles_triangle_domain(2.0, math.pi / 4)
    mesh = fem.triangulate(d, 0.3)
    fem.validate_mesh(mesh)
    assert mesh.mesh_size <= 1.5 * 0.3
    # total triangle area = domain area = L^2 tan(angle) / 4 = 1
    p = mesh.nodes[mesh.triangles]
    areas = 0.5 * np.abs((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                         - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert areas.sum() == pytest.approx(1.0, rel=1e-12)


def test_convex_fan_mesher():
    d = geometry.trapezoid_domain(2.0, math.pi / 3, 0.6)
    mesh = fem.triangulate(d, 0.2)
    fem.validate_mesh(mesh)
    assert mesh.mesh_size <= 1.5 * 0.2
    free_len = sum(np.hypot(*(mesh.nodes[j] - mesh.nodes[i]))
                   for i, j, tag in mesh.boundary_edges if tag == "free")
    assert free_len == pytest.approx(2.0, rel=1e-12)


def test_nonconvex_polygon_is_rejected():
    d = geometry.PolygonalDomain(
        [(0, 0), (1.0, -0.5), (0.5, -1), (2, -1), (2, 0)], free_edges=[4])
    with pytest.raises(DomainError, match="load_mesh"):
        fem.triangulate(d, 0.1)


def test_triangulate_validates_target_h():
    d = geometry.rectangle_domain(1.0, 1.0)
    with pytest.raises(ValueError):
        fem.triangulate(d, 0.0)
    with pytest.raises(ValueError):
        fem.triangulate(d, 5.0)


def test_mesh_validation_catches_defects():
    good = reference_triangle_mesh()
    with pytest.raises(MeshError, match="nonexistent"):
        fem.validate_mesh(Mesh(good.nodes, np.array([[0, 1, 7]]),
                               good.boundary_edges))
    with pytest.raises(MeshError, match="clockwise|degenerate"):
        fem.validate_mesh(Mesh(good.nodes, np.array([[0, 1, 2]]),
                               good.boundary_edges))
    with pytest.raises(MeshError, match="untagged"):
        fem.validate_mesh(Mesh(good.nodes, good.triangles,
                               [(0, 1, "free")]))
    with pytest.raises(MeshError, match="tag"):
        fem.validate_mesh(Mesh(good.nodes, good.triangles,
                               [(0, 1, "free"), (1, 2, "wall"),
                                (2, 0, "slippery")]))
    with pytest.raises(MeshError, match="twice"):
        fem.validate_mesh(Mesh(good.nodes, good.triangles,
                               [(0, 1, "free"), (1, 2, "wall"),
                                (2, 0, "wall"), (0, 1, "wall")]))
    # the first offending edge in list order is the one reported
    with pytest.raises(MeshError, match=r"\(1, 5\) refers to a missing node"):
        fem.validate_mesh(Mesh(good.nodes, good.triangles,
                               [(0, 1, "free"), (1, 5, "wall"), (2, 0, "moat")]))
    with pytest.raises(MeshError, match=r"\(1, 1\) is not on the mesh boundary"):
        fem.validate_mesh(Mesh(good.nodes, good.triangles,
                               [(1, 1, "free"), (1, 2, "wall"), (2, 0, "wall")]))
    with pytest.raises(MeshError, match=r"e\.g\. \[\(0, 2\), \(1, 2\)\]"):
        fem.validate_mesh(Mesh(good.nodes, good.triangles, [(1, 0, "free")]))
    nodes = np.vstack([good.nodes, [[1.0, -1.0], [0.5, 0.5]]])
    tris = np.array([[0, 2, 1], [1, 2, 3], [0, 1, 4], [1, 0, 3]])
    with pytest.raises(MeshError, match="more than two"):   # edge (0, 1) x3
        fem.validate_mesh(Mesh(nodes, tris, []))


def test_mesh_save_load_roundtrip(tmp_path):
    mesh = fem.triangulate(geometry.rectangle_domain(1.0, 1.0), 0.4)
    mesh.nodes[0, 0] = -0.0                 # written "-0", read back bit for bit
    path = tmp_path / "mesh.txt"
    fem.save_mesh(mesh, path)
    # the format line by line, as the blocks must write it
    lines = [f"{len(mesh.nodes)}", *(f"{x:.17g} {y:.17g}" for x, y in mesh.nodes),
             f"{len(mesh.triangles)}", *(f"{a} {b} {c}" for a, b, c in mesh.triangles),
             f"{len(mesh.boundary_edges)}",
             *(f"{i} {j} {tag}" for i, j, tag in mesh.boundary_edges)]
    assert path.read_text() == "\n".join(lines) + "\n"
    back = fem.load_mesh(path)
    assert back.nodes.tobytes() == mesh.nodes.tobytes()
    assert np.array_equal(back.triangles, mesh.triangles)
    assert back.boundary_edges == mesh.boundary_edges
    # comment and blank lines may sit anywhere, inside the blocks too
    lines.insert(3, "  # a comment")
    lines.insert(len(mesh.nodes) + 4, "")
    path.write_text("\n".join(["# header", *lines]) + "\n")
    back = fem.load_mesh(path)
    assert back.nodes.tobytes() == mesh.nodes.tobytes()
    assert np.array_equal(back.triangles, mesh.triangles)


def test_load_mesh_flips_clockwise_triangles(tmp_path):
    path = tmp_path / "cw.txt"
    path.write_text(
        "3\n0 0\n1 0\n0 -1\n"
        "1\n0 1 2\n"          # clockwise orientation
        "3\n0 1 free\n1 2 wall\n2 0 wall\n")
    with pytest.warns(UserWarning, match="reoriented"):
        mesh = fem.load_mesh(path)
    fem.validate_mesh(mesh)


def test_load_mesh_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    tail = "1\n0 1 2\n3\n0 1 free\n1 2 wall\n2 0 wall\n"
    for text in ("2\n0 0\n1 0\n",                  # no triangle block
                 "3\n0 0\n1 0 5\n0 1\n" + tail,      # a node line of three numbers
                 "3\n0 0\n1 0\nx 1\n" + tail,        # a coordinate that is no number
                 "3\n0 0\n1 0\n0 1\n1\n0 1.5 2\n3\n",  # a fractional node index
                 "4\n0 0\n1 0\n0 1\n" + tail,        # fewer nodes than announced
                 "3\n0 0\n1 0\n0 1\n1\n0 1 2\n4\n0 1 free\n"):   # and edges
        path.write_text(text)
        with pytest.raises(MeshError, match="malformed"):
            fem.load_mesh(path)
    path.write_text("3\n0 0 7\n1 0 7\n0 1 7\n" + tail)
    with pytest.raises(MeshError, match="two coordinates"):
        fem.load_mesh(path)


def dense_schur(mesh, pair, problem):
    K = fem.assemble(mesh)[0].toarray()
    surf = pair.surface_nodes
    removed = mesh.wall_nodes() if problem == "SD" else []
    assert np.array_equal(surf, np.setdiff1d(mesh.free_nodes(), removed))
    inner = np.setdiff1d(np.arange(mesh.nodes.shape[0]),
                         np.union1d(surf, removed))
    return K[np.ix_(surf, surf)] - K[np.ix_(surf, inner)] @ np.linalg.solve(
        K[np.ix_(inner, inner)], K[np.ix_(inner, surf)])


def loaded_copy(mesh, path):
    fem.save_mesh(mesh, path)
    return fem.load_mesh(path)


def forbid(monkeypatch, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"fem.{name} was called")
    monkeypatch.setattr(fem, name, fail)


def grid_mesh(xs, ys, path):
    """Tensor grid over xs x ys (ys from 0 down), free on top, through
    save_mesh / load_mesh."""
    nx, ny = len(xs) - 1, len(ys) - 1
    gx, gy = np.meshgrid(xs, ys)
    node = np.arange(gx.size).reshape(ny + 1, nx + 1)
    a, b = node[:-1, :-1].ravel(), node[:-1, 1:].ravel()     # top left/right
    c, d = node[1:, 1:].ravel(), node[1:, :-1].ravel()       # bottom right/left
    tris = np.concatenate([np.stack([d, c, b], 1), np.stack([d, b, a], 1)])
    rim = [(node[0, i], node[0, i + 1], "free") for i in range(nx)]
    rim += [(node[j, nx], node[j + 1, nx], "wall") for j in range(ny)]
    rim += [(node[ny, i + 1], node[ny, i], "wall") for i in range(nx)]
    rim += [(node[j + 1, 0], node[j, 0], "wall") for j in range(ny)]
    return loaded_copy(Mesh(np.column_stack([gx.ravel(), gy.ravel()]), tris,
                            [(int(i), int(j), t) for i, j, t in rim]), path)


def test_schur_complement_matches_dense_oracle(tmp_path):
    # the last mesh is graded: cell sides shrink 20-30x toward the left corner
    graded = grid_mesh(2.0 * np.linspace(0.0, 1.0, 15) ** 2,
                       -np.linspace(0.0, 1.0, 12) ** 2, tmp_path / "graded.txt")
    cases = [fem.triangulate(geometry.rectangle_domain(1.0, 1.0), 0.3),
             fem.triangulate(MESHER_DOMAINS["triangle"], 0.2),
             fem.triangulate(MESHER_DOMAINS["fan"], 0.15), graded]
    for mesh in cases:
        for problem in ("SN", "SD"):
            pair = fem.dtn_matrices(mesh, problem)
            assert pair.S == pytest.approx(dense_schur(mesh, pair, problem),
                                           abs=1e-10)
            assert pair.asymmetry < 1e-10


def test_nested_dissection_is_a_deterministic_permutation():
    mesh = fem.triangulate(MESHER_DOMAINS["triangle"], 0.05)
    K, _ = fem.assemble(mesh)
    inner = np.setdiff1d(np.arange(mesh.nodes.shape[0]), mesh.free_nodes())
    xy, graph = mesh.nodes[inner], K[inner][:, inner]
    order = fem._nested_dissection(xy, graph)
    assert inner.size > 1000
    assert np.array_equal(np.sort(order), np.arange(inner.size))
    assert np.array_equal(order, fem._nested_dissection(xy, graph))
    assert not np.array_equal(order, np.arange(inner.size))


def test_nested_dissection_small_and_flat_inputs(tmp_path):
    for n in (0, 1):
        order = fem._nested_dissection(np.zeros((n, 2)), sp.csr_matrix((n, n)))
        assert np.array_equal(order, np.arange(n))
    # a one-row strip: under SN the interior unknowns are the bottom row, whose
    # y span is zero; under SD no interior unknown is left (n_in = 0)
    strip = grid_mesh(np.linspace(0.0, 4.0, 41), [0.0, -0.1],
                      tmp_path / "strip.txt")
    K, _ = fem.assemble(strip)
    bottom = np.flatnonzero(strip.nodes[:, 1] < 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order = fem._nested_dissection(strip.nodes[bottom],
                                       K[bottom][:, bottom])
    assert np.array_equal(np.sort(order), np.arange(bottom.size))
    # the first cut halves the x span: its separator node is eliminated last
    assert strip.nodes[bottom[order[-1]], 0] == pytest.approx(2.0, abs=0.11)
    # n_in = 1: the single reference triangle under SN keeps one wall node
    for mesh, problem in ((strip, "SN"), (strip, "SD"),
                          (reference_triangle_mesh(), "SN")):
        pair = fem.dtn_matrices(mesh, problem)
        assert pair.S == pytest.approx(dense_schur(mesh, pair, problem),
                                       abs=1e-10)
        assert pair.asymmetry < 1e-10


def minimum_degree_fill(mesh, pair, problem):
    """nnz(L) + nnz(U) of the bordered LU with the interior in the minimum-
    degree order that an incomplete LU dropping everything reads off."""
    K = fem.assemble(mesh)[0]
    surf = pair.surface_nodes
    removed = mesh.wall_nodes() if problem == "SD" else []
    inner = np.setdiff1d(np.arange(mesh.nodes.shape[0]),
                         np.union1d(surf, removed))
    mmd = spilu(K[inner][:, inner].tocsc(), drop_tol=1.0, fill_factor=1.0,
                permc_spec="MMD_AT_PLUS_A").perm_c
    order = np.concatenate([inner[np.argsort(mmd)], surf])
    shift = np.concatenate([np.zeros(inner.size), K.diagonal()[surf]])
    lu = splu((K[order][:, order] + sp.diags(shift)).tocsc(),
              permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("name, problem", [("triangle", "SN"),
                                           ("rectangle", "SD")])
def test_factor_fill_at_most_minimum_degree(name, problem, tmp_path):
    # the loaded copy takes the bordered sparse LU, whose order is under test
    mesh = loaded_copy(fem.triangulate(MESHER_DOMAINS[name], 0.01),
                       tmp_path / "mesh.txt")
    pair = fem.dtn_matrices(mesh, problem)
    assert 0 < pair.factor_nnz <= minimum_degree_fill(mesh, pair, problem)


@pytest.mark.parametrize("h", [0.3, 0.1, 0.04])
@pytest.mark.parametrize("problem", ["SN", "SD"])
@pytest.mark.parametrize("name", ["triangle", "fan", "hexagon"])
def test_self_similar_condensation_matches_sparse_lu(name, problem, h,
                                                     tmp_path, monkeypatch):
    mesh = fem.triangulate(SPECTRUM_DOMAINS[name], h)
    sparse = fem.dtn_matrices(loaded_copy(mesh, tmp_path / "m.txt"), problem)
    forbid(monkeypatch, "_bordered_schur")
    pair = fem.dtn_matrices(mesh, problem)
    assert np.array_equal(pair.surface_nodes, sparse.surface_nodes)
    assert np.array_equal(pair.M_F, sparse.M_F)
    scale = np.abs(sparse.S).max()
    assert np.abs(pair.S - sparse.S).max() <= 1e-12 * scale
    assert pair.asymmetry < 1e-10 and pair.factor_nnz > 0
    got = scipy.linalg.eigh(pair.S, pair.M_F, eigvals_only=True)[1:]
    want = scipy.linalg.eigh(sparse.S, sparse.M_F, eigvals_only=True)[1:]
    assert got == pytest.approx(want, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-2.0, 3.0), y=st.floats(0.02, 2.0),
       levels=st.integers(0, 5))
def test_rim_recursion_matches_dense_schur(x, y, levels):
    # obtuse for x outside [0, 1], thin for small y
    base = np.array([[0.0, 0.0], [1.0, 0.0], [x, y]])
    tri = np.array([[0, 1, 2]])
    nodes, tris, (rim,) = reference_refine(base, tri, levels)
    K = fem.assemble(Mesh(nodes, tris, []))[0].toarray()
    inner = np.setdiff1d(np.arange(nodes.shape[0]), rim)
    want = K[np.ix_(rim, rim)] - K[np.ix_(rim, inner)] @ np.linalg.solve(
        K[np.ix_(inner, inner)], K[np.ix_(inner, rim)])
    (got,), _entries = fem._rim_schur(fem._rim_start(base, tri, None), 0, levels)
    assert got.apex is None and got.odd is None
    assert np.abs(got.even - want).max() <= 1e-10 * np.abs(want).max()


def test_unrefined_fan_condenses_its_element_matrices(monkeypatch):
    d = geometry.PolygonalDomain([(0, 0), (0.3, -0.6), (0.7, -0.6), (1, 0)],
                                 free_edges=[3])
    mesh = fem.triangulate(d, 1.05)
    assert fem._base_triangulation(d, 1.05)[2] == 0
    forbid(monkeypatch, "_bordered_schur")
    pair = fem.dtn_matrices(mesh, "SN")
    assert pair.S == pytest.approx(dense_schur(mesh, pair, "SN"), abs=1e-12)


def test_only_recorded_refinements_skip_the_sparse_lu(tmp_path, monkeypatch):
    tri = fem.triangulate(MESHER_DOMAINS["triangle"], 0.1)
    rect = fem.triangulate(MESHER_DOMAINS["rectangle"], 0.1)
    assert rect.source is not None and tri.source is not None
    # an interior node moved: only the whole-grid check sees it
    moved = fem.triangulate(MESHER_DOMAINS["rectangle"], 0.1)
    moved.nodes[moved.nodes.shape[0] // 2] += 0.01
    others = [loaded_copy(rect, tmp_path / "rect.txt"), dataclasses.replace(rect),
              moved, loaded_copy(tri, tmp_path / "tri.txt"),
              dataclasses.replace(tri)]
    with monkeypatch.context() as patch:
        forbid(patch, "_self_similar_schur")
        forbid(patch, "_grid_schur")
        for mesh in others:
            fem.dtn_matrices(mesh, "SN")
    # the check is on values, so a rebound but equal node array still counts
    rebound = fem.triangulate(MESHER_DOMAINS["fan"], 0.1)
    rebound.nodes = rebound.nodes.copy()
    forbid(monkeypatch, "_bordered_schur")
    for mesh in (tri, rebound, rect):
        fem.dtn_matrices(mesh, "SD")


def reference_rims(d, h):
    """The rims of the base triangles of triangulate(d, h), from the dict
    reference mesher."""
    levels = fem._base_triangulation(d, h)[2]
    return reference_refine(*fan_base(d), levels)[2]


def test_unmatched_rim_falls_back_to_sparse_lu(monkeypatch):
    mesh = fem.triangulate(MESHER_DOMAINS["fan"], 0.2)
    spoke = reference_rims(MESHER_DOMAINS["fan"], 0.2)[0, -2]   # inside a spoke
    mesh.nodes[spoke] += 0.01
    forbid(monkeypatch, "_self_similar_schur")
    pair = fem.dtn_matrices(mesh, "SN")
    assert pair.S == pytest.approx(dense_schur(mesh, pair, "SN"), abs=1e-10)


def test_interior_edit_falls_back_to_sparse_lu(monkeypatch):
    # a node on no rim: only the whole-mesh check sees that it moved
    mesh = fem.triangulate(MESHER_DOMAINS["fan"], 0.2)
    unedited = fem.dtn_matrices(mesh, "SN").S
    rims = reference_rims(MESHER_DOMAINS["fan"], 0.2)
    inner = np.setdiff1d(np.arange(mesh.nodes.shape[0]), rims)
    mesh.nodes[inner[inner.size // 2]] += 0.01
    forbid(monkeypatch, "_self_similar_schur")
    pair = fem.dtn_matrices(mesh, "SN")
    assert pair.S == pytest.approx(dense_schur(mesh, pair, "SN"), abs=1e-10)
    # and the edit moves S well past that tolerance
    assert np.abs(pair.S - unedited).max() > 1e-8


def test_retagged_free_edge(monkeypatch):
    # a middle free edge tagged as wall: SN keeps the same surface nodes, so S
    # still comes from the skeleton while M_F loses the edge; SD drops the
    # edge's two nodes, which the skeleton keeps, so it takes the sparse LU
    mesh = fem.triangulate(MESHER_DOMAINS["fan"], 0.1)
    free = [k for k, (_i, _j, tag) in enumerate(mesh.boundary_edges)
            if tag == "free"]
    edited = Mesh(mesh.nodes, mesh.triangles, list(mesh.boundary_edges))
    edited.source = mesh.source
    i, j, _tag = edited.boundary_edges[free[len(free) // 2]]
    edited.boundary_edges[free[len(free) // 2]] = (i, j, "wall")
    want = fem.dtn_matrices(mesh, "SN")
    with monkeypatch.context() as patch:
        forbid(patch, "_bordered_schur")
        pair = fem.dtn_matrices(edited, "SN")
    assert pair.S.tobytes() == want.S.tobytes()
    assert np.array_equal(pair.surface_nodes, want.surface_nodes)
    assert np.array_equal(pair.M_F, fem.assemble(edited)[1])
    assert not np.array_equal(pair.M_F, want.M_F)
    forbid(monkeypatch, "_self_similar_schur")
    pair = fem.dtn_matrices(edited, "SD")
    assert not np.isin([i, j], pair.surface_nodes).any()
    assert pair.S == pytest.approx(dense_schur(edited, pair, "SD"), abs=1e-10)


def test_source_with_too_few_unknowns_falls_back_to_sparse_lu(monkeypatch):
    # the triangle split once, its two lower wall edges tagged free: SD keeps
    # the top corners and midpoint 0, 2 and 5, while the recorded source
    # keeps only 5.  The recognizer reads the source's surface without asking
    # for two unknowns, sees that it differs and takes the sparse LU
    mesh = fem.triangulate(geometry.isoceles_triangle_domain(2.0, math.pi / 4), 1.5)
    edges = [(i, j, "free" if {i, j} in ({0, 3}, {2, 4}) else tag)
             for i, j, tag in mesh.boundary_edges]
    edited = Mesh(mesh.nodes, mesh.triangles, edges)
    edited.source = mesh.source
    forbid(monkeypatch, "_self_similar_schur")
    pair = fem.dtn_matrices(edited, "SD")
    assert np.array_equal(pair.surface_nodes, [0, 2, 5]) and pair.factor_nnz == 10
    assert pair.S == pytest.approx(dense_schur(edited, pair, "SD"), abs=1e-10)


def public_steps(d, problem, h):
    """eigh of dtn_matrices(triangulate(d, h)), all of it: the spectrum's
    public steps."""
    pair = fem.dtn_matrices(fem.triangulate(d, h), problem)
    vals = scipy.linalg.eigh(pair.S, pair.M_F, eigvals_only=True)
    return np.maximum(vals, 0.0) if problem == "SN" else vals


@pytest.mark.parametrize("problem", ["SN", "SD"])
@pytest.mark.parametrize("name", sorted(SPECTRUM_DOMAINS))
def test_dtn_spectrum_is_its_public_steps(name, problem):
    # triangles and fans condense from the skeleton and never build the mesh;
    # the public triangulate -> dtn_matrices -> eigh chain gives the same
    # values bit for bit, and dtn_with_error is that chain at h and h / 2
    d = SPECTRUM_DOMAINS[name]
    for h in (0.3, 0.1, 0.05, 0.02):
        if name in ("spoked", "fan-wide") and h == 0.02:
            continue                # L = 8 on 12 or 4 base triangles: slow
        want = public_steps(d, problem, h)
        count = min(12, want.size - 1)
        want = want[:count]
        got = fem.dtn_spectrum(d, problem, count, h).values
        assert got.tobytes() == want.tobytes()
        fine, errors = fem.dtn_with_error(d, problem, count, h)
        assert fine.values.tobytes() == \
            public_steps(d, problem, h / 2)[:count].tobytes()
        assert errors.tobytes() == np.abs(want - fine.values).tobytes()


@pytest.mark.parametrize("name", ["triangle", "fan", "spoked"])
def test_four_split_spectra_never_build_the_mesh(name, monkeypatch):
    d = SPECTRUM_DOMAINS[name]
    want = fem.dtn_with_error(d, "SD", 6, 0.1)
    forbid(monkeypatch, "triangulate")
    forbid(monkeypatch, "_refine")
    for problem in ("SN", "SD"):
        fem.dtn_spectrum(d, problem, 6, 0.1)
    fine, errors = fem.dtn_with_error(d, "SD", 6, 0.1)
    assert fine.values.tobytes() == want[0].values.tobytes()
    assert errors.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("name, h", [("triangle", 0.01), ("fan", 0.02),
                                     ("triangle", 0.5)])
def test_dtn_with_error_condenses_each_rim_level_once(name, h, monkeypatch):
    levels, real = [], fem._rim_schur

    def spy(B, first, last):
        levels.extend(range(first, last))
        return real(B, first, last)

    monkeypatch.setattr(fem, "_rim_schur", spy)
    d = MESHER_DOMAINS[name]
    fem.dtn_with_error(d, "SN", 4, h)
    top = fem._base_triangulation(d, h / 2)[2]
    # one step per level, up to the fine solve's level-(L-1) rim matrices
    assert sorted(levels) == list(range(max(top - 1, 0)))


def test_dtn_with_error_memory_peak():
    # building the fine mesh (131,841 nodes) took the peak to 81 MB
    tri = MESHER_DOMAINS["triangle"]
    tracemalloc.start()
    try:
        fem.dtn_with_error(tri, "SN", 80, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def reference_eliminate(A, keep):
    """(Schur complement of A onto the mask `keep`, stored entries of the
    Cholesky factor of the eliminated block)."""
    out = ~keep
    n = int(out.sum())
    if n == 0:
        return A, 0
    chol = scipy.linalg.cholesky(A[np.ix_(out, out)], lower=True,
                                 overwrite_a=True, check_finite=False)
    w = scipy.linalg.solve_triangular(chol, A[np.ix_(out, keep)], lower=True,
                                      overwrite_b=True, check_finite=False)
    S = A[np.ix_(keep, keep)]
    S -= w.T @ w                            # a symmetric rank-n update
    return S, n * (n + 1) // 2


def reference_condense(pieces, keep, drop=()):
    """(ids, S, factor entries): the Schur complement onto the ids in `keep`
    of the sum of the dense `pieces` (ids, matrix), with the ids in `drop`
    held at zero; ``ids`` come out sorted.

    The pieces are added in turn.  Each first eliminates, on its own, the
    ids that neither the sum so far nor a later piece holds; after the
    addition, the sum eliminates the ids no later piece holds.
    """
    ids, total, entries = np.zeros(0, dtype=np.int64), np.zeros((0, 0)), 0
    for k, (own, A) in enumerate(pieces):
        live = ~np.isin(own, drop)
        needed = np.concatenate([keep] + [i for i, _A in pieces[k + 1:]])
        stay = live & (np.isin(own, needed) | np.isin(own, ids))
        if not live.all():
            A = A[np.ix_(live, live)]
        A, e = reference_eliminate(A, stay[live])
        own = own[stay]
        merged = np.union1d(ids, own)
        new = np.zeros((merged.size, merged.size))
        at = np.searchsorted(merged, ids)
        new[np.ix_(at, at)] = total         # the first part writes zeros over
        at = np.searchsorted(merged, own)
        new[np.ix_(at, at)] += A
        stay = np.isin(merged, needed)
        total, e2 = reference_eliminate(new, stay)
        ids, entries = merged[stay], entries + e + e2
    return ids, total, entries


def reference_plan(pieces, keep, drop=()):
    """The plan of fem._plan, asking "does a later piece, or `keep`, hold
    this id" by np.isin against their concatenation, piece by piece
    (quadratic in the piece count): the reference for its last-holder
    table."""
    ids, steps, entries = np.zeros(0, dtype=np.int64), [], 0
    for k, own in enumerate(pieces):
        live = ~np.isin(own, drop)
        needed = np.concatenate([keep, *pieces[k + 1:]])
        stay = live & (np.isin(own, needed) | np.isin(own, ids))
        gone = np.flatnonzero(live & ~stay)
        take = None
        if gone.size or not live.all():
            rows = np.concatenate([gone, np.flatnonzero(stay)])
            take = fem._Moves(rows, fem._runs(np.arange(rows.size), rows))
        own = own[stay]
        merged = np.union1d(ids, own)
        later = np.isin(merged, needed)
        at = np.empty(merged.size, dtype=np.int64)
        at[np.concatenate([np.flatnonzero(~later), np.flatnonzero(later)])] = \
            np.arange(merged.size)
        fresh = np.sort(at[~np.isin(merged, ids)])
        out = merged.size - int(later.sum())
        steps.append(fem._Step(take, gone.size,
                               fem._scatter(at[np.searchsorted(merged, ids)]),
                               fem._scatter(at[np.searchsorted(merged, own)]),
                               tuple(d for d, _s in fem._runs(fresh, fresh)),
                               merged.size, out))
        entries += gone.size * (gone.size + 1) // 2 + out * (out + 1) // 2
        ids = merged[later]
    return fem._Plan(tuple(steps), ids, entries)


def same(got, want) -> bool:
    """Equal values of equal types, arrays with equal dtypes, tuples (and
    named tuples) entry by entry."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype
                and np.array_equal(got, want))
    if isinstance(want, tuple):
        return (type(got) is type(want) and len(got) == len(want)
                and all(map(same, got, want)))
    return type(got) is type(want) and got == want


def assert_same_plan(got, want):
    """Two _Plans alike field by field: every field of every step, the ids
    and the factor entries."""
    assert len(got.steps) == len(want.steps)
    for k, (a, b) in enumerate(zip(got.steps, want.steps)):
        for name in fem._Step._fields:
            assert same(getattr(a, name), getattr(b, name)), (k, name)
    assert same(got.ids, want.ids) and same(got.entries, want.entries)


def test_rim_and_sector_plans_are_the_reference_plans():
    # a whole triangle's one sector: its four copies onto the parent's rim
    for level in range(7):
        m = 2 ** level
        (plan,) = fem._sector_plans(m, None)
        assert_same_plan(plan, reference_plan(tuple(fem._split_maps(m)),
                                              np.arange(6 * m)))
    for apex in range(3):
        for level in range(6):
            pieces = fem._sector_pieces(2 ** level, apex)
            for plan, sector in zip(fem._sector_plans(2 ** level, apex), pieces):
                assert_same_plan(plan, reference_plan(*sector))


@pytest.mark.parametrize("corners", [[(0, 0), (1, -1), (2, 0)],
                                     [(0, 0), (1, 0), (2.7, 0.4)],
                                     [(0, 0), (1, 0), (0.3, 0.05)]],
                         ids=["right", "obtuse", "thin"])
def test_rim_recursion_is_the_reference_condensation(corners):
    # bit for bit, level by level, with the cached plan's factor entries
    (B,) = fem._rim_start(np.array(corners, dtype=float), np.array([[0, 1, 2]]),
                          None)
    for level in range(7):
        m = 2 ** level
        ids, want, entries = reference_condense(
            [(idx, B.even) for idx in fem._split_maps(m)], np.arange(6 * m))
        (B,), got_entries = fem._rim_schur([B], level, level + 1)
        assert np.array_equal(fem._sector_plans(m, None)[0].ids, ids)
        assert B.even.tobytes() == want.tobytes() and got_entries == entries


def assert_surface_condense_is_the_reference(d, problem, h):
    """The final condensation of the 4-split solve of d at h, planned, is
    the reference one bit for bit: ids, S and factor entries."""
    nodes0, tris0, levels = fem._base_triangulation(d, h)
    nodes, rims, chains = fem._skeleton(nodes0, tris0, levels)
    mesh = fem._chain_mesh(nodes, chains, fem._tagged_mesh(d, nodes0, tris0), 1)
    _free, surface, removed = fem._retained_surface(mesh, problem)
    below, _e = fem._rim_schur(fem._rim_start(nodes0, tris0, None), 0,
                               max(levels - 1, 0))
    (sector,), at = fem._surface_sectors(rims, below, nodes.shape[0], surface,
                                         removed)
    ids, matrices, keep, drop = sector
    assert at is None and np.array_equal(keep, surface)
    assert np.array_equal(drop, removed)
    want_ids, want, entries = reference_condense(list(zip(ids, matrices)),
                                                 surface, removed)
    plan = fem._plan(ids, surface, removed)
    assert_same_plan(plan, reference_plan(ids, surface, removed))
    assert np.array_equal(plan.ids, want_ids) and plan.entries == entries
    assert fem._condense(plan, matrices).tobytes() == want.tobytes()
    S, got_entries = fem._self_similar_schur(rims, below, nodes.shape[0],
                                             surface, removed)
    assert S.tobytes() == want.tobytes() and got_entries == entries


@pytest.mark.parametrize("problem", ["SN", "SD"])
@pytest.mark.parametrize("name, h", [("triangle", 0.3), ("triangle", 0.05),
                                     ("fan", 0.3), ("fan", 0.1),
                                     ("fan-wide", 0.1), ("spoked", 0.3),
                                     ("spoked", 0.1)])
def test_surface_condense_is_the_reference_condensation(name, h, problem):
    assert_surface_condense_is_the_reference(SPECTRUM_DOMAINS[name], problem, h)


def test_condense_buffers_belong_to_one_call(monkeypatch):
    # a whole solve of another domain inside the triangle's surface
    # condensation leaves both results as they are alone
    tri, fan = SPECTRUM_DOMAINS["triangle"], SPECTRUM_DOMAINS["fan-wide"]
    alone = [fem.dtn_with_error(d, "SD", 8, 0.05) for d in (tri, fan)]
    real, calls, nested = fem._add, [], []

    def add(*args):
        calls.append(None)
        if len(calls) == trigger:
            nested.append(fem.dtn_with_error(fan, "SD", 8, 0.05))
        return real(*args)

    monkeypatch.setattr(fem, "_add", add)
    trigger = 0
    fem.dtn_with_error(tri, "SD", 8, 0.05)
    trigger, calls = len(calls) - 2, []         # the last condensation
    outer = fem.dtn_with_error(tri, "SD", 8, 0.05)
    assert nested
    for (fine, errors), (want, want_errors) in zip((outer, nested[0]), alone):
        assert fine.values.tobytes() == want.values.tobytes()
        assert errors.tobytes() == want_errors.tobytes()


def test_rim_plans_are_cached_once_per_level():
    # the isoceles triangle's rim levels run in sectors about its apex; the
    # fan's side triangles whole and its top and bottom ones in sectors
    # about the centroid: each kind of plan is built once per level
    plans = fem._sector_plans
    for d, h in ((MESHER_DOMAINS["triangle"], 0.01), (MESHER_DOMAINS["fan"], 0.02)):
        nodes0, tris0, top = fem._base_triangulation(d, h / 2)
        nodes, _rims, chains = fem._skeleton(nodes0, tris0, top)
        mirror = fem._mirror(d, nodes0, tris0, nodes, chains)
        kinds = len({B.apex for B in fem._rim_start(nodes0, tris0, mirror)
                     if B is not None})
        plans.cache_clear()
        fem.dtn_with_error(d, "SN", 4, h)
        built = kinds * max(top - 1, 0)
        assert 0 < plans.cache_info().currsize <= built
        fem.dtn_with_error(d, "SD", 4, h)
        info = plans.cache_info()
        assert info.currsize <= built and info.hits >= built


def test_four_split_label_is_the_exact_mesh_size():
    # the base mesh size over 2**L; the mesh's own longest side reads
    # about 1e-14 high, which moved this label's sixth digit
    d = geometry.trapezoid_domain(1.7, math.pi / 2.5, 0.4)
    s = fem.dtn_spectrum(d, "SN", 4, 0.025)
    assert s.source == "fem:h=0.0132812"
    nodes0, tris0, levels = fem._base_triangulation(d, 0.025)
    size = Mesh(nodes0, tris0, []).mesh_size / 2 ** levels
    assert fem.triangulate(d, 0.025).mesh_size == pytest.approx(size, rel=1e-13)
    rect = geometry.rectangle_domain(math.pi, 1.0)
    assert fem.dtn_spectrum(rect, "SN", 4, 0.1).source == \
        f"fem:h={fem.triangulate(rect, 0.1).mesh_size:.6g}"


def test_count_is_checked_before_condensing(monkeypatch):
    sizes = {name: fem.triangulate(MESHER_DOMAINS[name], 0.02).free_nodes().size
             for name in ("triangle", "rectangle")}
    for name in ("_rim_schur", "_self_similar_schur", "_bordered_schur",
                 "_grid_schur"):
        forbid(monkeypatch, name)
    for name, n_sn in sizes.items():
        d = MESHER_DOMAINS[name]
        with pytest.raises(ValueError, match=f"count = 600 exceeds the {n_sn} "):
            fem.dtn_spectrum(d, "SN", 600, 0.02)
        with pytest.raises(ValueError, match=f"count = {n_sn - 2} exceeds the "
                                             f"{n_sn - 2} surface"):
            fem.dtn_spectrum(d, "SD", n_sn - 2, 0.02)
        with pytest.raises(ValueError, match=f"count = 600 exceeds the {n_sn} "):
            fem.dtn_with_error(d, "SN", 600, 0.02)


@pytest.mark.parametrize("count", [2.5, True, 0, -3, np.float64(3.0)])
@pytest.mark.parametrize("solve", [fem.dtn_spectrum, fem.dtn_with_error])
def test_count_must_be_a_positive_integer(solve, count, monkeypatch):
    # read before any meshing or condensing
    forbid(monkeypatch, "_base_triangulation")
    with pytest.raises(ValueError, match=re.escape(
            f"count must be a positive integer, got {count!r}")):
        solve(MESHER_DOMAINS["triangle"], "SN", count, 0.1)


@st.composite
def convex_polygons(draw):
    """Vertices on the lower half of an ellipse, free surface on top."""
    length = draw(st.floats(1.0, 3.0))
    depth = draw(st.floats(0.3, 1.5))
    # 1 to 5 angles in (0, pi), neighbours at least pi/18 apart
    gaps = np.cumsum(draw(st.lists(st.floats(1.0, 3.0), min_size=2,
                                   max_size=6)))
    thetas = math.pi * gaps[:-1] / gaps[-1]
    lower = [(0.5 * length * (1 - math.cos(t)), -depth * math.sin(t))
             for t in thetas]
    verts = [(0.0, 0.0), *lower, (length, 0.0)]
    return geometry.PolygonalDomain(verts, free_edges=[len(verts) - 1])


@settings(max_examples=20, deadline=None)
@given(d=convex_polygons(), problem=st.sampled_from(["SN", "SD"]))
def test_schur_complement_matches_dense_oracle_random_convex(d, problem):
    span = d.vertices.max(axis=0) - d.vertices.min(axis=0)
    mesh = fem.triangulate(d, 0.2 * float(np.hypot(*span)))
    pair = fem.dtn_matrices(mesh, problem)
    assert pair.S == pytest.approx(dense_schur(mesh, pair, problem), abs=1e-10)
    assert pair.asymmetry < 1e-10


@settings(max_examples=15, deadline=None)
@given(d=convex_polygons(), problem=st.sampled_from(["SN", "SD"]),
       fraction=st.floats(0.03, 0.3))
def test_surface_condense_is_the_reference_random_convex(d, problem, fraction):
    span = d.vertices.max(axis=0) - d.vertices.min(axis=0)
    assert_surface_condense_is_the_reference(d, problem,
                                             fraction * float(np.hypot(*span)))


@settings(max_examples=40, deadline=None)
@given(d=st.one_of(convex_polygons(),
                   st.builds(regular_polygon, st.integers(5, 16),
                             st.floats(0.5, 2.0))),
       fraction=st.floats(0.04, 0.99))
def test_refining_meshers_nest_random_convex(d, fraction):
    span = d.vertices.max(axis=0) - d.vertices.min(axis=0)
    assert_split_once(d, fraction * float(np.hypot(*span)))


@st.composite
def mirror_polygons(draw):
    """Convex polygons with the mirror x -> 2c - x, free surface on top:
    isoceles triangles of any apex depth and symmetric 4- to 6-gons, their
    lower vertices on an ellipse, and regular 5- to 16-gons, whose mirrored
    pairs of isoceles fan triangles start whole."""
    if draw(st.booleans()):
        return regular_polygon(draw(st.integers(5, 16)), draw(st.floats(0.5, 2.0)))
    c = draw(st.sampled_from([0.0, 0.75, -2.5]))
    half = draw(st.floats(0.5, 1.5))
    depth = draw(st.floats(0.05, 3.0))
    k = draw(st.integers(3, 6))
    # the lower vertices left of the axis, then the bottom one for odd k
    thetas = sorted(draw(st.lists(st.floats(0.1, 1.4), min_size=(k - 2) // 2,
                                  max_size=(k - 2) // 2, unique=True)))
    if len(thetas) == 2 and thetas[1] - thetas[0] < 0.1:
        thetas[1] = thetas[0] + 0.1
    left = [(c - half * math.cos(t), -depth * math.sin(t)) for t in thetas]
    bottom = [(c, -depth)] if k % 2 else []
    right = [(c + (c - x), y) for x, y in left[::-1]]
    verts = [(c - half, 0.0), *left, *bottom, *right, (c + half, 0.0)]
    return geometry.PolygonalDomain(verts, free_edges=[k - 1])


def four_split_inputs(d, h, problem):
    """(nodes0, tris0, L, nodes, rims, chains, surface, removed) of the 4-split
    solve of d at h."""
    nodes0, tris0, levels = fem._base_triangulation(d, h)
    nodes, rims, chains = fem._skeleton(nodes0, tris0, levels)
    mesh = fem._chain_mesh(nodes, chains, fem._tagged_mesh(d, nodes0, tris0), 1)
    _free, surface, removed = fem._retained_surface(mesh, problem)
    return nodes0, tris0, levels, nodes, rims, chains, surface, removed


def plain_and_sector_schur(d, h, problem):
    """(plain S, sector S, mirror, rim): the 4-split S of d at h without the
    mirror, every base triangle whole, and with it, and the largest entry of
    the plain rim matrices that the final condensation sums."""
    nodes0, tris0, levels, nodes, rims, chains, surface, removed = \
        four_split_inputs(d, h, problem)
    below, _e = fem._rim_schur(fem._rim_start(nodes0, tris0, None), 0,
                               max(levels - 1, 0))
    rim = max(float(np.abs(B.even).max()) for B in below)
    plain, _e = fem._self_similar_schur(rims, below, nodes.shape[0], surface,
                                        removed)
    mirror = fem._mirror(d, nodes0, tris0, nodes, chains)
    below, _e = fem._rim_schur(fem._rim_start(nodes0, tris0, mirror), 0,
                               max(levels - 1, 0))
    sector, _e = fem._self_similar_schur(rims, below, nodes.shape[0], surface,
                                         removed, mirror)
    return plain, sector, mirror, rim


def assert_refused_alike(err, solve):
    """`err`, the 4-split solve's refusal of a mesh too coarse for SD (say
    two surface nodes, both on the walls), is what `solve` raises too."""
    assert "too few free-surface unknowns" in str(err)
    with pytest.raises(MeshError, match=re.escape(str(err))):
        solve()


def mirror_average(S, d, h, problem):
    """0.5 (S + P S P), with P the mirror's permutation of the surface
    nodes of the 4-split solve of d at h: S with its own mirror asymmetry
    taken out."""
    nodes0, tris0, _levels, nodes, _rims, chains, surface, _removed = \
        four_split_inputs(d, h, problem)
    mirror = fem._mirror(d, nodes0, tris0, nodes, chains)
    P = np.searchsorted(surface, mirror.partner[surface])
    assert np.array_equal(surface[P], mirror.partner[surface])
    return 0.5 * (S + S[np.ix_(P, P)])


@settings(max_examples=25, deadline=None)
@given(d=mirror_polygons(), problem=st.sampled_from(["SN", "SD"]),
       fraction=st.floats(0.03, 0.3))
def test_sectors_match_the_plain_path_and_the_sparse_lu(d, problem, fraction):
    h = fraction * float(np.hypot(*np.ptp(d.vertices, axis=0)))
    try:
        plain, sector, mirror, rim = plain_and_sector_schur(d, h, problem)
    except MeshError as err:
        assert_refused_alike(err, lambda: fem.dtn_matrices(fem.triangulate(d, h),
                                                           problem))
        return
    assert mirror is not None
    # the sector S is exactly mirror symmetric, the plain one only to its
    # roundoff, so the two are compared with that part of it taken out.
    # Both eliminate from sums of the rim matrices, so their roundoff scales
    # with those, not with S: on a flat hexagon (depth 0.058, width 1.5, SN,
    # h = 0.0451) S has max 16.6 but the rim matrices 75.8, and the gap,
    # 1.82e-12, is 1.1e-13 of the one and 2.4e-14 of the other
    assert np.abs(sector - mirror_average(plain, d, h, problem)).max() \
        <= 1e-13 * max(np.abs(plain).max(), rim)
    assert np.array_equal(sector, sector.T)
    mesh = fem.triangulate(d, h)
    pair = fem.dtn_matrices(mesh, problem)
    assert pair.S.tobytes() == sector.tobytes()
    sparse = fem.dtn_matrices(dataclasses.replace(mesh), problem)
    assert np.abs(pair.S - sparse.S).max() <= 1e-12 * np.abs(sparse.S).max()


@settings(max_examples=10, deadline=None)
@given(d=mirror_polygons(), problem=st.sampled_from(["SN", "SD"]),
       fraction=st.floats(0.08, 0.3))
def test_mirrored_spectra_are_their_public_steps(d, problem, fraction):
    # the coarse solve condenses the fine skeleton's every other rim node,
    # dtn_matrices the coarse mesh's own skeleton: same mirror, same S
    h = fraction * float(np.hypot(*np.ptp(d.vertices, axis=0)))
    try:
        want = [public_steps(d, problem, step) for step in (h, h / 2)]
    except MeshError as err:
        assert_refused_alike(err, lambda: fem.dtn_with_error(d, problem, 1, h))
        return
    count = min(8, want[0].size - 1)
    fine, errors = fem.dtn_with_error(d, problem, count, h)
    assert fine.values.tobytes() == want[1][:count].tobytes()
    assert errors.tobytes() == np.abs(want[0][:count] - want[1][:count]).tobytes()


@pytest.mark.parametrize("name", ["triangle", "fan", "fan-wide", "spoked"])
def test_named_mirror_domains_match_the_plain_path(name):
    d = SPECTRUM_DOMAINS[name]
    for problem in ("SN", "SD"):
        plain, sector, mirror, _rim = plain_and_sector_schur(d, 0.1, problem)
        assert mirror is not None
        assert np.abs(sector - plain).max() <= 1e-13 * np.abs(plain).max()


@pytest.mark.parametrize("apex", [0, 1, 2])
def test_sector_rim_levels_are_the_reference_condensation(apex):
    # a right isoceles triangle, counterclockwise, its apex at vertex `apex`;
    # each sector against the reference, and the sectors against the plain
    # recursion, level by level
    corners = np.empty((3, 2))
    corners[apex], corners[(apex + 1) % 3] = (0.5, -0.5), (1.0, 0.0)
    corners[(apex + 2) % 3] = (0.0, 0.0)
    (K,) = fem._element_stiffness(corners[None])
    sides = np.hypot(*(np.roll(corners, -1, axis=0) - corners).T)
    assert sides[apex] == sides[apex - 1]       # the two sides at the apex
    sectors, whole = fem._fold(K, apex), fem._Sectors(None, K)
    for level in range(6):
        m = 2 ** level
        full = fem._unfold(sectors.even, sectors.odd)
        matrices = ([sectors.even, sectors.even, full],
                    [sectors.odd, sectors.odd, full[1:, 1:]])
        assert same(tuple(map(tuple, matrices)), fem._level_matrices(sectors))
        for (ids, keep, drop), mats, plan in zip(fem._sector_pieces(m, apex),
                                                 matrices,
                                                 fem._sector_plans(m, apex)):
            want_ids, want, entries = reference_condense(list(zip(ids, mats)),
                                                         keep, drop)
            assert np.array_equal(plan.ids, want_ids) and plan.entries == entries
            assert fem._condense(plan, mats).tobytes() == want.tobytes()
        (sectors,), _e = fem._rim_schur([sectors], level, level + 1)
        (whole,), _e = fem._rim_schur([whole], level, level + 1)
        rows = fem._unfolded_rows(2 * m, apex)
        got = fem._unfold(sectors.even, sectors.odd)
        assert np.abs(got - whole.even[np.ix_(rows, rows)]).max() \
            <= 1e-14 * np.abs(whole.even).max()


@pytest.mark.parametrize("problem", ["SN", "SD"])
@pytest.mark.parametrize("name, h", [("triangle", 0.3), ("triangle", 0.05),
                                     ("fan", 0.3), ("fan", 0.1),
                                     ("fan-wide", 0.1), ("spoked", 0.3),
                                     ("hexagon", 0.3), ("hexagon", 0.1)])
def test_sector_surface_condense_is_the_reference_condensation(name, h, problem):
    d = SPECTRUM_DOMAINS[name]
    nodes0, tris0, levels, nodes, rims, chains, surface, removed = \
        four_split_inputs(d, h, problem)
    mirror = fem._mirror(d, nodes0, tris0, nodes, chains)
    below, _e = fem._rim_schur(fem._rim_start(nodes0, tris0, mirror), 0,
                               max(levels - 1, 0))
    sectors, _at = fem._surface_sectors(rims, below, nodes.shape[0], surface,
                                        removed, mirror)
    assert len(sectors) == (1 if mirror is None else 2)
    for ids, matrices, keep, drop in sectors:
        want_ids, want, entries = reference_condense(list(zip(ids, matrices)),
                                                     keep, drop)
        plan = fem._plan(ids, keep, drop)
        assert_same_plan(plan, reference_plan(ids, keep, drop))
        assert np.array_equal(plan.ids, want_ids) and plan.entries == entries
        assert fem._condense(plan, matrices).tobytes() == want.tobytes()


def test_only_base_triangles_on_the_mirror_fold(monkeypatch):
    # every fan triangle of the hexagon and the 12-gon is isoceles, but only
    # those that the domain's mirror maps onto themselves, the 12-gon's top
    # and bottom ones, keep their rims in sectors
    folds, real = [], fem._fold

    def spy(K, apex):
        folds.append(apex)
        return real(K, apex)

    monkeypatch.setattr(fem, "_fold", spy)
    for name, want in (("hexagon", []), ("spoked", [2, 2])):
        d = SPECTRUM_DOMAINS[name]
        nodes0, tris0, _levels, nodes, _rims, chains, _surface, _removed = \
            four_split_inputs(d, 0.1, "SN")
        mirror = fem._mirror(d, nodes0, tris0, nodes, chains)
        roles = () if mirror is None else mirror.roles
        assert [r for r in roles if r is not None and r >= 0] == want
        folds.clear()
        fem.dtn_with_error(d, "SN", 6, 0.1)
        assert folds == want


@settings(max_examples=20, deadline=None)
@given(d=st.one_of(convex_polygons(), mirror_polygons()),
       problem=st.sampled_from(["SN", "SD"]), fraction=st.floats(0.03, 0.3))
def test_four_split_schur_is_exactly_symmetric(d, problem, fraction):
    # so _pair returns it as it is, not averaged with its transpose
    h = fraction * float(np.hypot(*np.ptp(d.vertices, axis=0)))
    try:
        plain, sector, _mirror, _rim = plain_and_sector_schur(d, h, problem)
    except MeshError as err:
        assert_refused_alike(err, lambda: fem.dtn_matrices(fem.triangulate(d, h),
                                                           problem))
        return
    assert np.array_equal(plain, plain.T) and np.array_equal(sector, sector.T)
    pair = fem.dtn_matrices(fem.triangulate(d, h), problem)
    assert pair.asymmetry == 0.0 and pair.S.tobytes() == sector.tobytes()


@pytest.mark.parametrize("moved", [1, 2])
@pytest.mark.parametrize("name", ["triangle", "fan"])
def test_perturbed_mirror_takes_the_plain_path(name, moved, monkeypatch):
    # a vertex moved by 1e-10 of the diameter: no mirror, so S is the plain
    # one bit for bit
    d = MESHER_DOMAINS[name]
    verts = d.vertices.copy()
    verts[moved, 0] += 1e-10 * float(np.hypot(*np.ptp(verts, axis=0)))
    d = geometry.PolygonalDomain(verts, free_edges=sorted(d.free_edges))
    for problem in ("SN", "SD"):
        nodes0, tris0, levels, nodes, rims, chains, surface, removed = \
            four_split_inputs(d, 0.05, problem)
        assert fem._mirror(d, nodes0, tris0, nodes, chains) is None
        plain, sector, _none, _rim = plain_and_sector_schur(d, 0.05, problem)
        assert sector.tobytes() == plain.tobytes()
    forbid(monkeypatch, "_fold")
    fem.dtn_with_error(d, "SN", 6, 0.05)


def test_sectors_shrink_the_condensation_factors():
    # a count, not a timing: the whole condensation took 326,913 stored
    # factor entries on the triangle (245,122 with the surface alone in
    # sectors) and 391,046 on the (pi, 2pi/3, 1) fan
    tri, fan = SPECTRUM_DOMAINS["triangle"], SPECTRUM_DOMAINS["fan-wide"]
    assert fem.dtn_matrices(fem.triangulate(tri, 0.005), "SN").factor_nnz \
        < 245_122
    assert fem.dtn_matrices(fem.triangulate(fan, 0.02), "SN").factor_nnz \
        < 391_046


def test_tiny_target_h_is_refused_before_allocating(monkeypatch):
    # at 1e-4 the triangle needs 15 splits: final sums of up to 147,453 rows
    monkeypatch.setattr(specfun, "memory_limit", lambda: 8 * 10 ** 9)
    for name in ("_skeleton", "_grid_schur", "_refine", "_grid_nodes"):
        forbid(monkeypatch, name)
    tri, rect = MESHER_DOMAINS["triangle"], MESHER_DOMAINS["rectangle"]
    for solve in (fem.dtn_spectrum, fem.dtn_with_error):
        with pytest.raises(ValueError, match=re.escape(
                "target_h = 0.0001 needs 15 4-splits, with two sum buffers of "
                "order 1.475e+5: 3.48e+11 bytes, more than the 8000000000 "
                "bytes this process may use")):
            solve(tri, "SN", 3, 1e-4)
        with pytest.raises(ValueError, match=re.escape(
                "target_h = 1e-300 needs 3.142e+300 grid columns, with four "
                "surface blocks of order 3.142e+300: 3.16e+602 bytes")):
            solve(rect, "SD", 3, 1e-300)
    with pytest.raises(ValueError, match="needs 1075 4-splits"):
        fem.triangulate(tri, 5e-324)
    # the fine solve of dtn_with_error is checked before the coarse one runs
    monkeypatch.setattr(specfun, "memory_limit", lambda: 2_000_000)
    with pytest.raises(ValueError, match="target_h = 0.01 needs 315 grid"):
        fem.dtn_with_error(rect, "SD", 3, 0.02)
    # a grid past the float range is refused whatever the memory figure
    for memory in (8 * 10 ** 9, None):
        monkeypatch.setattr(specfun, "memory_limit", lambda: memory)
        with pytest.raises(ValueError, match=re.escape(
                "target_h = 5e-324 needs more grid cells than a float counts")):
            fem.triangulate(rect, 5e-324)


@pytest.mark.parametrize("name, h", [("triangle", 0.02), ("fan", 0.05),
                                     ("fan-wide", 0.02), ("spoked", 0.1)])
def test_size_check_bounds_the_largest_sum(name, h, monkeypatch):
    # the largest sum of any condensation, on the plain path (the sectors'
    # are smaller), in both of _condense's buffers: with a memory figure
    # just short of that the solve is refused, though one whole rim matrix
    # (order 3 * 2**(L-1)) would fit
    d, largest, condense = SPECTRUM_DOMAINS[name], [0], fem._condense

    def spy(plan, matrices):
        largest[0] = max(largest[0], *(step.size for step in plan.steps))
        return condense(plan, matrices)

    monkeypatch.setattr(fem, "_condense", spy)
    monkeypatch.setattr(fem, "_mirror", lambda *args: None)
    fem.dtn_spectrum(d, "SN", 3, h)
    levels = fem._base_triangulation(d, h)[2]
    need = 2 * 8 * largest[0] ** 2
    assert need > 8 * (3 * 2 ** (levels - 1)) ** 2
    monkeypatch.setattr(specfun, "memory_limit", lambda: need - 1)
    with pytest.raises(ValueError, match=f"needs {levels} 4-splits"):
        fem.dtn_spectrum(d, "SN", 3, h)


def test_unsplit_bases_are_their_public_steps():
    # coarse L = 0 with fine L = 1, and L = 0 for both; SN only, as SD keeps
    # no surface unknown on an unsplit free edge
    problem = "SN"
    quad = geometry.PolygonalDomain([(0, 0), (0.3, -0.6), (0.7, -0.6), (1, 0)],
                                    free_edges=[3])
    for d, h in ((quad, 1.05), (regular_polygon(12), 1.5)):
        levels = [fem._base_triangulation(d, t)[2] for t in (h, h / 2)]
        assert levels[0] == 0 and levels[1] == (d is quad)
        want = public_steps(d, problem, h)
        fine, errors = fem.dtn_with_error(d, problem, 1, h)
        assert fine.values.tobytes() == public_steps(d, problem, h / 2)[:1].tobytes()
        assert errors.tobytes() == np.abs(want[:1] - fine.values).tobytes()


def assert_rims_match_reference(d, levels):
    # node j of side k of a base triangle's rim is vertex k of its descendant
    # j (_descendants) in the 4-split mesh, as _skeleton's numbering assumes
    nodes0, tris0 = fan_base(d)
    _nodes, tris, want = reference_refine(nodes0, tris0, levels)
    n = 2 ** levels
    first = n * n * np.arange(len(tris0))
    got = tris[first[:, None, None] + fem._descendants(levels),
               np.arange(3)[:, None]].reshape(-1, 3 * n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got[:, ::n], tris0)


@pytest.mark.parametrize("levels", range(6))
@pytest.mark.parametrize("name", ["triangle", "fan", "spoked"])
def test_rims_match_dict_reference(name, levels):
    d = regular_polygon(12) if name == "spoked" else MESHER_DOMAINS[name]
    assert_rims_match_reference(d, levels)


@settings(max_examples=20, deadline=None)
@given(d=convex_polygons(), levels=st.integers(0, 5))
def test_rims_match_dict_reference_random_convex(d, levels):
    assert_rims_match_reference(d, levels)


def assert_skeleton_matches_mesh(d, levels):
    # the skeleton numbers the rims in the mesh's rank order, at the mesh's
    # coordinates bit for bit, so _condense sees the same problem
    nodes0, tris0 = fan_base(d)
    nodes, _tris, want = reference_refine(nodes0, tris0, levels)
    skel_nodes, rims, chains = fem._skeleton(nodes0, tris0, levels)
    assert rims.shape == want.shape
    assert np.array_equal(rims[:, ::2 ** levels], tris0)
    mesh_ids, mesh_rank = np.unique(want, return_inverse=True)
    skel_ids, skel_rank = np.unique(rims, return_inverse=True)
    assert np.array_equal(skel_rank, mesh_rank)
    assert np.array_equal(skel_ids, np.arange(skel_nodes.shape[0]))
    assert skel_nodes[skel_ids].tobytes() == nodes[mesh_ids].tobytes()
    # each base edge's chain runs along it, in steps of 2**-levels, from its
    # lower end
    assert np.array_equal(np.unique(list(chains.values())), skel_ids)
    step = np.linspace(0.0, 1.0, 2 ** levels + 1)[:, None]
    for (lo, hi), chain in chains.items():
        assert lo < hi and chain[0] == lo and chain[-1] == hi
        want_xy = nodes0[lo] + step * (nodes0[hi] - nodes0[lo])
        assert skel_nodes[chain] == pytest.approx(want_xy, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("levels", range(7))
@pytest.mark.parametrize("name", ["triangle", "fan", "spoked"])
def test_skeleton_matches_mesh_rims(name, levels):
    d = regular_polygon(12) if name == "spoked" else MESHER_DOMAINS[name]
    assert_skeleton_matches_mesh(d, levels)


@settings(max_examples=20, deadline=None)
@given(d=convex_polygons(), levels=st.integers(0, 6))
def test_skeleton_matches_mesh_rims_random_convex(d, levels):
    assert_skeleton_matches_mesh(d, levels)


def test_spoked_fan_splits_past_its_polygon_edges():
    # the spokes, not the polygon edges, set the level count here
    d = regular_polygon(12)
    edge = max(float(np.hypot(*(b - a))) for _i, a, b, _t in d.edges())
    mesh = fem.triangulate(d, 0.07)
    nodes0, tris0, levels = fem._base_triangulation(d, 0.07)
    assert np.array_equal(reference_rims(d, 0.07)[:, ::2 ** levels], tris0)
    assert Mesh(nodes0, tris0, []).mesh_size > 1.5 * edge
    assert edge / 2 ** (levels - 1) <= 0.07
    assert mesh.mesh_size <= 1.5 * 0.07
    ref = reference_triangulate(d, 0.07)
    assert mesh.nodes.tobytes() == ref.nodes.tobytes()
    assert mesh.triangles.tobytes() == ref.triangles.tobytes()


@pytest.mark.parametrize("name", sorted(MESHER_DOMAINS))
def test_triangulate_builds_one_edge_table_per_mesh(name, monkeypatch):
    calls = []
    real = fem._edge_table

    def spy(triangles):
        calls.append(len(triangles))
        return real(triangles)

    monkeypatch.setattr(fem, "_edge_table", spy)
    d = MESHER_DOMAINS[name]
    mesh = fem.triangulate(d, 0.05)
    base = fem._base_triangulation(d, 0.05)
    # one per 4-split level, then one that the hull and the checks share
    assert len(calls) == (0 if base is None else base[2]) + 1
    assert calls[-1] == mesh.triangles.shape[0]


def test_disconnected_mesh_is_diagnosed(tmp_path):
    # a meshed square under the surface plus a separate walls-only triangle
    square = fem.triangulate(geometry.rectangle_domain(1.0, 1.0), 0.3)
    m = square.nodes.shape[0]
    path = tmp_path / "two_parts.txt"
    nodes = np.vstack([square.nodes, [[2, -0.2], [3, -0.2], [2.5, -1]]])
    tris = np.vstack([square.triangles, [[m, m + 2, m + 1]]])
    walls = [(m, m + 2, "wall"), (m + 2, m + 1, "wall"), (m + 1, m, "wall")]
    fem.save_mesh(Mesh(nodes, tris, square.boundary_edges + walls), path)
    mesh = fem.load_mesh(path)
    for problem in ("SN", "SD"):
        with pytest.raises(MeshError, match="disconnected"):
            fem.dtn_matrices(mesh, problem)


def test_sd_eliminates_wall_and_corner_nodes():
    mesh = fem.triangulate(geometry.rectangle_domain(1.0, 1.0), 0.3)
    sn = fem.dtn_matrices(mesh, "SN")
    sd = fem.dtn_matrices(mesh, "SD")
    # the two surface corners belong to walls, so SD keeps 2 fewer nodes
    assert sd.surface_nodes.size == sn.surface_nodes.size - 2
    wall = set(mesh.wall_nodes())
    assert not wall.intersection(sd.surface_nodes)


def test_dtn_spectrum_rectangle_oracle():
    d = geometry.rectangle_domain(math.pi, 1.0)
    exact_sn = spectra.rectangle_sn(math.pi, 1.0, 8).values
    exact_sd = spectra.rectangle_sd(math.pi, 1.0, 8).values
    sn = fem.dtn_spectrum(d, "SN", 8, 0.04)
    sd = fem.dtn_spectrum(d, "SD", 8, 0.04)
    assert sn.values[0] <= 1e-8                   # ground mode
    assert sn.values[1:] == pytest.approx(exact_sn[1:], rel=2e-2)
    assert sd.values == pytest.approx(exact_sd, rel=3e-2)
    assert np.all(sd.values[:-1] > sn.values[1:])  # clamping raises everything
    assert sn.source.startswith("fem:h=")
    assert sn.meta["areaF"] == pytest.approx(math.pi)


def rectangle_p1_spectrum(length, depth, target_h, problem):
    """Every P1 eigenvalue of triangulate's grid on (0, length) x (-depth, 0),
    sorted, one Fourier mode at a time.

    On the diagonal-split grid the diagonal couplings cancel, so the
    stiffness is A_x (x) D_y + D_x (x) A_y, with A = (1/h) tridiag(-1, 2, -1)
    (end diagonals 1/h) and the lumped D = h diag(1/2, 1, ..., 1, 1/2); the
    surface mass is D_x - (h_x^2 / 6) A_x.  All three share the cosine (SN,
    k = 0..n_x) or sine (SD, k = 1..n_x - 1) modes, with
    mu_k = (2 / h_x^2)(1 - cos(k pi / n_x)).  The Schur complement s_k of
    A_y + mu_k D_y onto the surface node is a backward recurrence over the
    rows (SD drops the bottom node), and nu_k = s_k / (1 - h_x^2 mu_k / 6).
    """
    nx, ny = math.ceil(length / target_h), math.ceil(depth / target_h)
    hx, hy = length / nx, depth / ny
    ks = np.arange(nx + 1) if problem == "SN" else np.arange(1, nx)
    mu = 2.0 / hx ** 2 * (1.0 - np.cos(ks * math.pi / nx))
    # row j = 0 is the surface, j = ny the bottom; the ends carry half weights
    ends = np.full(ny + 1, 1.0)
    ends[[0, -1]] = 0.5
    diag = 2.0 * ends / hy + mu[:, None] * hy * ends
    last = ny if problem == "SN" else ny - 1
    s = diag[:, last]
    for j in range(last - 1, -1, -1):
        s = diag[:, j] - 1.0 / (hy * hy * s)
    return np.sort(s / (1.0 - hx ** 2 * mu / 6.0))


@pytest.mark.parametrize("problem", ["SN", "SD"])
@pytest.mark.parametrize("length, depth, h", [(2 * math.pi, 0.5, 0.01),
                                              (math.pi, 1.0, 0.0075)])
def test_sparse_lu_matches_the_rectangle_p1_spectrum(length, depth, h, problem,
                                                     tmp_path, monkeypatch):
    # 32,130 and 56,700 nodes, far past the dense oracle's reach; the loaded
    # copy records no source, so it takes the sparse LU
    d = geometry.rectangle_domain(length, depth)
    mesh = loaded_copy(fem.triangulate(d, h), tmp_path / "rect.txt")
    assert mesh.nodes.shape[0] in (32130, 56700)
    want = rectangle_p1_spectrum(length, depth, h, problem)
    forbid(monkeypatch, "_grid_schur")
    pair = fem.dtn_matrices(mesh, problem)
    got = scipy.linalg.eigh(pair.S, pair.M_F, eigvals_only=True)
    if problem == "SN":                     # the constant mode
        assert abs(got[0] - want[0]) <= 1e-10
        got, want = got[1:], want[1:]
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


@st.composite
def axis_rectangles(draw):
    """(domain, target_h): an axis rectangle at an x-offset, with 3 to 40
    grid columns and up to 120 rows."""
    length = draw(st.floats(0.2, 4.0))
    depth = length * draw(st.floats(0.1, 3.0))
    x0 = draw(st.floats(-5.0, 5.0))
    d = geometry.PolygonalDomain([(x0, 0.0), (x0, -depth), (x0 + length, -depth),
                                  (x0 + length, 0.0)], free_edges=[3])
    return d, length / draw(st.floats(3.0, 40.0))


def grid_spectrum(d, h, problem):
    """rectangle_p1_spectrum of d's grid, at d's own vertex spans."""
    length, depth = d.vertices.max(axis=0) - d.vertices.min(axis=0)
    return rectangle_p1_spectrum(length, depth, h, problem)


@settings(max_examples=30, deadline=None)
@given(rect=axis_rectangles(), problem=st.sampled_from(["SN", "SD"]))
def test_grid_route_matches_sparse_lu_random_rectangles(rect, problem,
                                                        tmp_path_factory):
    d, h = rect
    mesh = fem.triangulate(d, h)
    # the mesh-free label of dtn_spectrum
    assert fem._grid_size(*fem._grid(d, h)[1:]) == mesh.mesh_size
    path = tmp_path_factory.mktemp("grid") / "rect.txt"
    with pytest.MonkeyPatch.context() as patch:
        forbid(patch, "_grid_schur")
        sparse = fem.dtn_matrices(loaded_copy(mesh, path), problem)
    with pytest.MonkeyPatch.context() as patch:
        forbid(patch, "_bordered_schur")
        pair = fem.dtn_matrices(mesh, problem)
    assert np.array_equal(pair.surface_nodes, sparse.surface_nodes)
    assert np.array_equal(pair.M_F, sparse.M_F)
    assert np.abs(pair.S - sparse.S).max() <= 1e-12 * np.abs(sparse.S).max()
    assert pair.asymmetry == 0.0
    # per mode, a tridiagonal factor over the grid rows (SD: all but the bottom)
    nx, _hx, ny, _hy = fem._grid(d, h)[0]
    modes, rows = (nx + 1, ny + 1) if problem == "SN" else (nx - 1, ny)
    assert pair.factor_nnz == modes * (2 * rows - 1)
    got = scipy.linalg.eigh(pair.S, pair.M_F, eigvals_only=True)
    want = grid_spectrum(d, h, problem)
    if problem == "SN":                     # the constant mode
        assert abs(got[0]) <= 1e-10
        got, want = got[1:], want[1:]
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.1, 3.0), ratio=st.floats(0.2, 1.9))
def test_tiny_grids_match_dense_schur(n, a, ratio):
    # n columns of width a and one row of depth ratio * a
    d = geometry.rectangle_domain(n * a, ratio * a)
    h = max(a, ratio * a) * (1.0 + 1e-9)
    dims = fem._grid(d, h)[0]
    assert (dims[0], dims[2]) == (n, 1)
    mesh = fem.triangulate(d, h)
    K = fem.assemble(mesh)[0].toarray()
    with pytest.MonkeyPatch.context() as patch:
        forbid(patch, "_bordered_schur")
        pair = fem.dtn_matrices(mesh, "SN")
    assert pair.S == pytest.approx(dense_schur(mesh, pair, "SN"),
                                   abs=1e-12 * np.abs(K).max())
    # SD keeps n - 1 < 2 surface unknowns, which dtn_matrices refuses, and
    # with one row there is nothing left to eliminate
    surf = np.setdiff1d(mesh.free_nodes(), mesh.wall_nodes())
    S, _entries = fem._grid_schur(*dims, "SD")
    assert S.shape == (n - 1, n - 1)
    assert S == pytest.approx(K[np.ix_(surf, surf)], abs=1e-12 * np.abs(K).max())


def test_retagged_grid_edge(monkeypatch):
    # as test_retagged_free_edge, on the grid: SN keeps its Fourier route and
    # the edited M_F, SD loses two surface nodes and takes the sparse LU
    mesh = fem.triangulate(geometry.rectangle_domain(1.0, 1.0), 0.2)
    free = [k for k, (_i, _j, tag) in enumerate(mesh.boundary_edges)
            if tag == "free"]
    edited = Mesh(mesh.nodes, mesh.triangles, list(mesh.boundary_edges))
    edited.source = mesh.source
    i, j, _tag = edited.boundary_edges[free[len(free) // 2]]
    edited.boundary_edges[free[len(free) // 2]] = (i, j, "wall")
    with monkeypatch.context() as patch:
        forbid(patch, "_bordered_schur")
        pair = fem.dtn_matrices(edited, "SN")
    assert pair.S.tobytes() == fem.dtn_matrices(mesh, "SN").S.tobytes()
    assert np.array_equal(pair.M_F, fem.assemble(edited)[1])
    forbid(monkeypatch, "_grid_schur")
    pair = fem.dtn_matrices(edited, "SD")
    assert not np.isin([i, j], pair.surface_nodes).any()
    assert pair.S == pytest.approx(dense_schur(edited, pair, "SD"), abs=1e-10)


def test_dtn_matrices_validates_hand_built_meshes():
    # the sparse LU used to read these tags unchecked: a free interior edge
    # added two surface unknowns, SD without wall tags solved another
    # problem, and a misspelt tag read as too few surface unknowns
    mesh = fem.triangulate(geometry.rectangle_domain(1.0, 0.5), 0.25)
    edges = mesh.boundary_edges
    assert (2, 8) in set(map(tuple, np.sort(mesh.triangles[:, [0, 2]], axis=1).tolist()))
    cases = {"not on the mesh boundary": edges + [(2, 8, "free")],
             "untagged boundary edges": [e for e in edges if e[2] == "free"],
             "unknown tag 'Free'": [(i, j, "Free" if tag == "free" else tag)
                                    for i, j, tag in edges]}
    for message, boundary in cases.items():
        hand_built = Mesh(mesh.nodes.copy(), mesh.triangles.copy(), boundary)
        for problem in ("SN", "SD"):
            with pytest.raises(MeshError, match=re.escape(message)):
                fem.dtn_matrices(hand_built, problem)


def test_rectangle_spectra_never_build_the_mesh(monkeypatch):
    d = MESHER_DOMAINS["rectangle"]
    want = {problem: fem.dtn_with_error(d, problem, 6, 0.05)
            for problem in ("SN", "SD")}
    for name in ("triangulate", "_bordered_schur", "_grid_triangles",
                 "assemble"):
        forbid(monkeypatch, name)
    for problem in ("SN", "SD"):
        fem.dtn_spectrum(d, problem, 6, 0.05)
        fine, errors = fem.dtn_with_error(d, problem, 6, 0.05)
        assert fine.values.tobytes() == want[problem][0].values.tobytes()
        assert errors.tobytes() == want[problem][1].tobytes()


@settings(max_examples=25, deadline=None)
@given(rect=axis_rectangles(), problem=st.sampled_from(["SN", "SD"]))
def test_rectangle_spectra_fall_when_h_halves(rect, problem):
    # the grids at h and h / 2 need not nest (ceil(side / h) cells), yet no
    # mode has risen in a sweep of 20,345 rectangles; see dtn_with_error
    d, h = rect
    count = grid_spectrum(d, h, problem).size - 1
    coarse = fem.dtn_spectrum(d, problem, count, h).values
    fine = fem.dtn_spectrum(d, problem, count, h / 2).values
    lo = 1 if problem == "SN" else 0        # past the constant mode
    assert np.all(coarse[lo:] > fine[lo:])


def test_dtn_spectrum_validates_count():
    d = geometry.rectangle_domain(1.0, 1.0)
    with pytest.raises(ValueError, match="count"):
        fem.dtn_spectrum(d, "SN", 500, 0.3)
    with pytest.raises(ValueError):
        fem.dtn_matrices(fem.triangulate(d, 0.3), "XX")


def test_dtn_with_error_certificates():
    d = geometry.rectangle_domain(math.pi, 1.0)
    s, errs = fem.dtn_with_error(d, "SN", 6, 0.1)
    exact = spectra.rectangle_sn(math.pi, 1.0, 6).values
    assert errs.shape == (6,)
    assert np.all(errs >= 0)
    # the certificate dominates the true fine-mesh error (order 2 method)
    true_err = np.abs(s.values - exact)
    assert np.all(true_err[1:] <= errs[1:] + 1e-12)


def test_fem_monotone_in_depth():
    # deeper tank -> higher sloshing frequencies, visible through FEM too
    shallow = fem.dtn_spectrum(geometry.rectangle_domain(2.0, 0.5), "SN", 5, 0.05)
    deep = fem.dtn_spectrum(geometry.rectangle_domain(2.0, 1.0), "SN", 5, 0.05)
    assert np.all(deep.values[1:] > shallow.values[1:])
