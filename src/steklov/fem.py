"""P1 finite-element solver for the planar Dirichlet-to-Neumann spectra.

The free-surface eigenvalues are Rayleigh quotients of the Dirichlet energy
over the boundary trace,

    R(f) = integral_Omega |grad f|^2 dx / integral_F |f|^2 ds,

so the discrete problem is a generalized eigenproblem between the stiffness
matrix and a boundary mass matrix supported on the free-surface nodes.  The
interior (and, for SN, wall) unknowns are condensed out through a Schur
complement, leaving a small dense SPD pencil that a standard symmetric
solver handles: S u = nu M_F u.

SN keeps wall nodes as free unknowns (natural boundary condition); SD
eliminates them (including the surface corner nodes) before condensation.

The Schur complement comes one of three ways.

Triangles and convex centroid fans are meshed by L midpoint 4-splits of a
base triangulation.  P1 stiffness is invariant under similarity, and a
4-split turns a triangle into four half-size copies of itself, so the Schur
complement onto the rim of a base triangle after l splits is four copies of
the one after l - 1, with the three midlines eliminated by one dense
Cholesky.  The copies of the last level are then summed and condensed onto
the surface in turn, each eliminating what no later copy shares (nested
dissection with exact reuse; A. George, SIAM J. Numer. Anal. 10, 1973).
Which ids each copy brings, where they land and which go depend on the ids
alone, so both condensations run from an elimination plan computed from
them, cached per level for the rim recursion: the dense blocks are slices,
and sums are built by row moves over runs of columns.

Mirror symmetry halves both condensations (the even and odd sectors of
A. Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986) when the
reflection about the middle of the domain's x-range maps the vertices, tags
and skeleton onto themselves.  A base triangle that is its own image keeps
its rim matrix as the pair of its sectors: of its four copies, the middle
one and the one at its vertex on the axis map onto themselves and bring
their sectors as they are, and the other two swap, so they bring one whole
matrix, rebuilt from the sectors; each level is two condensations of half
the order.  The final condensation runs once per sector, on the orbits of
the mirror, with one base triangle of each mirrored pair, and S comes back
from the two sectors by scalings with powers of two and one addition per
entry.  Without a mirror both condensations are the one-sector case,
every id its own orbit and every rim matrix whole.
:func:`dtn_spectrum` and :func:`dtn_with_error` number only the nodes on
the base edges for this (the skeleton) and never build the mesh;
:func:`dtn_matrices` condenses a :func:`triangulate` mesh through the
skeleton of the base it records, while re-refining that base reproduces it.

Axis rectangles are meshed by a uniform diagonal-split grid, on which P1
is the 5-point stencil.  Cosine (SN) or sine (SD) modes along the surface
diagonalize it, so each mode condenses onto its surface node by one
tridiagonal recurrence over the grid rows, with no mesh and no sparse
matrix (:func:`_grid_schur`).  :func:`dtn_spectrum` and
:func:`dtn_with_error` never build the grid; :func:`dtn_matrices` takes
this route for a :func:`triangulate` grid while rebuilding it from the
rectangle it records reproduces it.

Every other mesh (loaded, hand-built, copied or edited meshes) goes through
one sparse LU of the bordered matrix: the interior unknowns first, in a
nested-dissection order computed from the node coordinates, and the
retained surface unknowns last.  Factored in that order without pivoting,
the trailing blocks of the factors satisfy

    L22 U22 = K_ff + D - K_fi K_ii^-1 K_if = S + D,

so no triangular solves are needed.  D is a positive diagonal shift on the
surface block only: it keeps the bordered matrix definite (SN's full K is
singular) and leaves L21 and U12 untouched.

Meshes go through one numpy edge table (the unique sorted vertex pairs of
the triangle sides), which drives refinement, boundary extraction and
validation.  The built-in mesher covers convex polygons; anything else comes
in through ``load_mesh`` (plain text: node count, `x y` lines, triangle
count, `i j k` lines, boundary count, `i j tag` lines, all 0-based; blank
lines and lines starting with `#` are skipped).  The node and triangle
lines are written and parsed a block at a time.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import geometry, specfun
from .geometry import DomainError, PolygonalDomain
from .spectra import Spectrum, check_problem

__all__ = ["Mesh", "MeshError", "DtnMatrixPair", "triangulate", "load_mesh",
           "save_mesh", "assemble", "dtn_matrices", "dtn_spectrum",
           "dtn_with_error"]


class MeshError(ValueError):
    """Raised for invalid meshes (dangling indices, holes, bad tags...)."""


@dataclass
class Mesh:
    """Conforming triangle mesh with tagged boundary edges.

    ``triangles`` are counterclockwise index triples; ``boundary_edges`` is a
    list of (i, j, tag) with tag "free" or "wall".  Conformity (triangles
    meeting only along full shared edges, boundary edges tiling the actual
    mesh boundary) is checked by :func:`validate_mesh`.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: list
    # (domain, target_h) of a `triangulate` mesh, for `dtn_matrices`;
    # hand-built, loaded and `replace`d meshes lack it
    source: Optional[tuple] = field(default=None, init=False, compare=False,
                                    repr=False)

    @property
    def mesh_size(self) -> float:
        tri = self.nodes[self.triangles]
        e = np.concatenate([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1],
                            tri[:, 0] - tri[:, 2]])
        return float(np.hypot(e[:, 0], e[:, 1]).max())

    def free_nodes(self) -> np.ndarray:
        """Sorted ids of nodes on Free boundary edges (corners included)."""
        ij, tags = _boundary_arrays(self.boundary_edges)
        return np.unique(ij[tags == geometry.FREE])

    def wall_nodes(self) -> np.ndarray:
        ij, tags = _boundary_arrays(self.boundary_edges)
        return np.unique(ij[tags == geometry.WALL])


def _boundary_arrays(boundary_edges):
    """The (i, j, tag) list as an (b, 2) index array and a length-b tag array."""
    ij = np.array([(i, j) for i, j, _tag in boundary_edges],
                  dtype=np.int64).reshape(-1, 2)
    tags = np.array([tag for _i, _j, tag in boundary_edges], dtype=object)
    return ij, tags


@dataclass(frozen=True)
class _EdgeTable:
    """The unique edges of a triangle list.

    Side k of triangle t runs from vertex k to vertex k+1 (mod 3); its slot in
    scan order is 3 t + k.
    """

    pairs: np.ndarray   # (e, 2) sorted vertex pairs (lo, hi), lexicographic
    side: np.ndarray    # (t, 3) edge row of each triangle side
    first: np.ndarray   # (e,) first slot that uses the edge
    count: np.ndarray   # (e,) number of triangles sharing the edge


def _edge_table(triangles) -> _EdgeTable:
    tris = np.asarray(triangles, dtype=np.int64)
    a, b = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    base = int(hi.max()) + 1 if hi.size else 1
    keys, first, inverse, count = np.unique(
        lo * base + hi, return_index=True, return_inverse=True,
        return_counts=True)
    return _EdgeTable(np.column_stack([keys // base, keys % base]),
                      inverse.reshape(-1, 3), first, count)


def _tri_areas(p):
    """Signed areas of the triangles with corners p (t, 3, 2)."""
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _checked_hull(nodes, tris) -> np.ndarray:
    """(b, 2) edges of exactly one triangle, as (lo, hi), in first-use order,
    after checking index ranges, orientation and conformity."""
    m = nodes.shape[0]
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise MeshError("nodes must be an (m, 2) array")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError("triangles must be a (t, 3) index array")
    if tris.size and (tris.min() < 0 or tris.max() >= m):
        raise MeshError("triangle refers to a nonexistent node")
    areas = _tri_areas(nodes[tris])
    if np.any(areas <= 0):
        bad = int(np.argmax(areas <= 0))
        raise MeshError(f"triangle {bad} is degenerate or clockwise "
                        f"(signed area {areas[bad]:.3e})")
    edges = _edge_table(tris)
    if np.any(edges.count > 2):
        raise MeshError("non-conforming mesh: an edge is shared by more than "
                        "two triangles")
    once = np.flatnonzero(edges.count == 1)
    return edges.pairs[once[np.argsort(edges.first[once])]]


def _check_tiling(mesh: Mesh, hull) -> None:
    """Each hull edge tagged exactly once, free or wall, and nothing else."""
    m, hull, tagged = mesh.nodes.shape[0], set(map(tuple, hull.tolist())), set()
    for i, j, tag in mesh.boundary_edges:
        if tag not in (geometry.FREE, geometry.WALL):
            raise MeshError(f"boundary edge ({i}, {j}) has unknown tag {tag!r}")
        if not (0 <= i < m and 0 <= j < m):
            raise MeshError(f"boundary edge ({i}, {j}) refers to a missing node")
        key = (min(i, j), max(i, j))
        if key not in hull:
            raise MeshError(f"boundary edge ({i}, {j}) is not on the mesh "
                            "boundary (or repeats an interior edge)")
        if key in tagged:
            raise MeshError(f"boundary edge ({i}, {j}) is tagged twice")
        tagged.add(key)
    if tagged != hull:
        missing = sorted(hull - tagged)[:3]
        raise MeshError(f"untagged boundary edges, e.g. {missing}")


def validate_mesh(mesh: Mesh) -> None:
    """Check index ranges, orientation, conformity, and boundary tiling."""
    _check_tiling(mesh, _checked_hull(mesh.nodes, mesh.triangles))


# ---------------------------------------------------------------------------
# meshing
# ---------------------------------------------------------------------------

def _classify_boundary(d: PolygonalDomain, nodes, hull_edges):
    """Tag each hull edge by the first domain edge its midpoint lies on, to
    the domain's own tolerance (relative to its diameter)."""
    mid = 0.5 * (nodes[hull_edges[:, 0]] + nodes[hull_edges[:, 1]])
    on = np.full(len(hull_edges), -1)          # domain edge index, -1: none yet
    for k, (a, ab) in enumerate(zip(d.vertices, d.edge_vectors)):
        t = np.clip((mid - a) @ ab / float(ab @ ab), 0.0, 1.0)
        gap = np.hypot(*(mid - (a + t[:, None] * ab)).T)
        on[(gap <= d._tol) & (on < 0)] = k
    if np.any(on < 0):
        i, j = hull_edges[np.argmax(on < 0)]
        raise MeshError(f"boundary edge ({i}, {j}) lies on no domain edge")
    return [(i, j, d.edge_tag(k))
            for (i, j), k in zip(hull_edges.tolist(), on.tolist())]


def _refine(nodes, triangles, levels):
    """Uniform 4-split refinement (midpoint subdivision), `levels` times.

    Midpoints are numbered after the existing nodes, in the order their
    edges first occur when scanning the triangles' sides ab, bc, ca.
    Triangle t (a, b, c) becomes triangles 4t ... 4t + 3: (a, ab, ca),
    (ab, b, bc), (ca, bc, c) and (ab, bc, ca).
    """
    nodes = np.array(nodes, dtype=float)
    tris = np.array(triangles, dtype=np.int64)
    for _ in range(levels):
        edges = _edge_table(tris)
        by_first = np.argsort(edges.first)
        number = np.empty(by_first.size, dtype=np.int64)
        number[by_first] = nodes.shape[0] + np.arange(by_first.size)
        ends = edges.pairs[by_first]
        nodes = np.vstack([nodes, (nodes[ends[:, 0]] + nodes[ends[:, 1]]) / 2])
        a, b, c = tris.T
        ab, bc, ca = number[edges.side].T
        tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                        axis=1).reshape(-1, 3)
    return nodes, tris


def _descendants(levels) -> np.ndarray:
    """(3, 2**levels): which of a triangle's 4**levels descendants after
    `levels` 4-splits (:func:`_refine`) has its side k from node j to j + 1
    of the triangle's side k.  That is side k of children k and k + 1 (mod
    3), so the bits of j, most significant first, pick one child per level."""
    n = 2 ** levels
    bits = (np.arange(n)[:, None] >> np.arange(levels - 1, -1, -1)) & 1
    child = (np.arange(3)[:, None, None] + bits) % 3          # (3, n, levels)
    return child @ 4 ** np.arange(levels - 1, -1, -1)


def _skeleton(nodes0, tris0, levels):
    """(nodes, rims, chains) of a base triangulation split `levels` times,
    without the mesh: the nodes on the base edges; each base triangle's rim,
    a -> b -> c from its vertex a, 2**levels nodes per side, each side's end
    left to the next (node j of side k is vertex k of descendant j of
    :func:`_descendants` in :func:`_refine`'s mesh); and, by its (lo, hi)
    ends, each base edge's 2**levels + 1 node ids from lo.

    Base vertices keep their ids; each base edge's inner points follow, once
    even for a fan spoke that two base triangles share.  _refine numbers the
    points of split s after all older ones, by the first slot 3 T + k of a
    level-(s-1) triangle side that each halves; ranking by that slot, after
    the t0 (4**(s-1) - 1) of earlier splits, keeps the mesh's relative order,
    all that :func:`_condense` reads."""
    edges, n, t0, m0 = _edge_table(tris0), 2 ** levels, len(tris0), len(nodes0)
    j = np.arange(n)
    # node j of side k of a base triangle is node q of its edge
    q = np.where((tris0 == edges.pairs[edges.side, 0])[:, :, None], j, n - j)
    at = (np.broadcast_to(edges.side[:, :, None], q.shape), q)
    slot = np.zeros((t0, 3, n), dtype=np.int64)
    pts = np.zeros((len(edges.pairs), n + 1, 2))
    pts[:, [0, n]] = nodes0[edges.pairs]
    for s in range(1, levels + 1):          # midpoints, level by level
        step = 2 ** (levels - s)
        new = np.arange(step, n, 2 * step)      # they halve segments 0, 1, ...
        tri = np.arange(t0)[:, None, None] * 4 ** (s - 1) + _descendants(s - 1)
        slot[:, :, new] = t0 * (4 ** (s - 1) - 1) + 3 * tri + np.arange(3)[:, None]
        pts[:, new] = (pts[:, new - step] + pts[:, new + step]) / 2
    first = np.full(pts.shape[:2], np.iinfo(np.int64).max)
    np.minimum.at(first, at, slot)
    ids = m0 + np.argsort(np.argsort(first[:, 1:n], axis=None))
    ids = ids.reshape(len(first), n - 1)
    chains = np.column_stack([edges.pairs[:, 0], ids, edges.pairs[:, 1]])
    nodes = np.empty((m0 + ids.size, 2))
    nodes[:m0], nodes[ids] = nodes0, pts[:, 1:n]
    return nodes, chains[at].reshape(t0, 3 * n), {
        (c[0], c[-1]): c for c in chains.tolist()}


def _base_triangulation(d: PolygonalDomain, target_h: float):
    """(nodes, triangles, L) that the 4-split meshers split: the polygon
    itself if it is a triangle, else its centroid fan, and the fewest splits
    L with max(longest polygon edge, base mesh size / 1.5) / 2**L <= target_h;
    None for an axis rectangle.  Checks target_h and convexity."""
    target_h = specfun.real(target_h, "target_h", 0, strict=True)
    span = d.vertices.max(axis=0) - d.vertices.min(axis=0)
    if target_h >= float(np.hypot(*span)):
        raise ValueError(f"target_h = {target_h} is no smaller than the "
                         "domain diameter; nothing to resolve")
    if geometry.axis_rectangle_sides(d) is not None:
        return None
    m, e = d.n_vertices, d.edge_vectors
    crosses = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    if np.any(crosses < -d._tol):
        raise DomainError(
            "the built-in mesher handles convex polygons only; create a "
            "mesh with an external tool and use load_mesh")
    if m == 3:
        nodes0, tris0 = d.vertices.copy(), np.array([[0, 1, 2]])
    else:
        nodes0 = np.vstack([d.vertices, d.vertices.mean(axis=0)])
        tris0 = np.array([[i, (i + 1) % m, m] for i in range(m)])
    longest = max(float(d.edge_lengths.max()),
                  Mesh(nodes0, tris0, []).mesh_size / 1.5)
    splits = 0
    while math.ldexp(longest, -splits) > target_h:
        splits += 1
    # the largest dense blocks are _condense's two buffers in the final
    # condensation, whose sums hold at most every skeleton node (the base
    # nodes and 2**L - 1 more on each base edge) and the midlines of one
    # base triangle; the rim recursion's sums are smaller
    edges = 3 if m == 3 else 2 * m
    order = (len(nodes0) + edges * (2 ** splits - 1)
             + 3 * max(2 ** (splits - 1) - 1, 0))
    _check_dense(target_h, (splits, "4-splits", "two sum buffers"), order, 2)
    return nodes0, tris0, splits


def _check_dense(target_h: float, why: tuple, order: int, blocks: int) -> None:
    """A ValueError, before anything is allocated, if `blocks` dense blocks
    of order `order`, which a solve at target_h needs, do not fit in the
    memory of :func:`specfun.memory_limit`.  `why` is (count, of what,
    which blocks) for the message."""
    need, memory = blocks * 8 * order ** 2, specfun.memory_limit()
    if memory is not None and need > memory:
        from decimal import Decimal         # exact for any int

        count, unit, which = why
        raise ValueError(f"target_h = {target_h} needs {Decimal(count):.4g} "
                         f"{unit}, with {which} of order {Decimal(order):.4g}:"
                         f" {Decimal(need):.3g} bytes, more than the {memory} "
                         "bytes this process may use; choose a larger target_h")


def triangulate(d: PolygonalDomain, target_h: float) -> Mesh:
    """Mesh a convex polygon with mesh size <= 1.5 * target_h.

    Axis-aligned rectangles get a structured near-square grid (diagonal
    split), triangles are self-similar 4-split refinements of the polygon
    itself, and other convex polygons start from a centroid fan.  Boundary
    segments come out no longer than target_h.  Non-convex polygons are
    rejected; supply a mesh file via :func:`load_mesh` for those.

    A 4-split mesh takes the split count of :func:`_base_triangulation`, so
    triangulate(d, target_h / 2), if it splits at all, is it split once more.
    Every mesh records (d, target_h) for :func:`dtn_matrices`, which
    condenses it from that base's skeleton, or a grid by its Fourier modes,
    while it is still exactly the mesh that (d, target_h) gives.
    """
    base = _base_triangulation(d, target_h)
    if base is not None:
        mesh = _tagged_mesh(d, *_refine(*base))
    else:
        (nx, _hx, ny, _hy), xs, ys = _grid(d, target_h)
        mesh = _tagged_mesh(d, _grid_nodes(xs, ys), _grid_triangles(nx, ny))
    mesh.source = (d, target_h)
    return mesh


def _grid(d: PolygonalDomain, target_h: float):
    """((N, h_x, n_y, h_y), xs, ys): the grid :func:`triangulate` lays on the
    axis rectangle d, N x n_y cells of h_x x h_y on the lines xs and ys."""
    x0, y0 = d.vertices.min(axis=0)
    x1, y1 = d.vertices.max(axis=0)
    cells = float(x1 - x0) / target_h, float(y1 - y0) / target_h
    if not all(map(math.isfinite, cells)):
        raise ValueError(f"target_h = {target_h} needs more grid cells than "
                         "a float counts; choose a larger target_h")
    nx, ny = (max(1, math.ceil(n)) for n in cells)
    # _grid_schur's blocks of order N + 1: the index table, V, X and S
    _check_dense(target_h, (nx, "grid columns", "four surface blocks"), nx + 1, 4)
    return ((nx, (x1 - x0) / nx, ny, (y1 - y0) / ny),
            np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1))


def _grid_nodes(xs, ys) -> np.ndarray:
    """Grid nodes row by row from the bottom, each row from the left."""
    return np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])


def _grid_triangles(nx: int, ny: int) -> np.ndarray:
    """Each cell split along its rising diagonal."""
    n00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    n10, n01 = n00 + 1, n00 + nx + 1
    n11 = n01 + 1
    return np.stack([n00, n10, n11, n00, n11, n01], axis=1).reshape(-1, 3)


def _grid_rim(d: PolygonalDomain, xs, ys) -> Mesh:
    """The grid's boundary as a Mesh without triangles: its nodes, and its
    hull edges tagged by d as :func:`triangulate` tags them."""
    nodes = _grid_nodes(xs, ys)
    node = np.arange(nodes.shape[0]).reshape(ys.size, xs.size)
    ring = np.concatenate([node[0, :-1], node[:-1, -1], node[-1, :0:-1],
                           node[:0:-1, 0]])
    hull = np.column_stack([ring, np.roll(ring, -1)])
    return Mesh(nodes, np.zeros((0, 3), dtype=np.int64),
                _classify_boundary(d, nodes, hull))


def _grid_size(xs, ys) -> float:
    """The grid's :attr:`Mesh.mesh_size`, bit for bit: its triangle sides
    are the cell sides and diagonals."""
    dx, dy = np.append(np.diff(xs), 0.0), np.append(np.diff(ys), 0.0)
    return float(np.hypot(dx[:, None], dy).max())


def _tagged_mesh(d: PolygonalDomain, nodes, triangles) -> Mesh:
    """The mesh with its hull edges tagged by the domain, after every check
    of :func:`validate_mesh`."""
    hull = _checked_hull(nodes, triangles)
    mesh = Mesh(nodes, triangles, _classify_boundary(d, nodes, hull))
    _check_tiling(mesh, hull)
    return mesh


def _chain_mesh(nodes, chains, base: Mesh, step: int) -> Mesh:
    """A :func:`_skeleton`'s boundary as a Mesh without triangles: each
    tagged edge (lo, hi) of the base as every `step`-th node of its chain."""
    return Mesh(nodes, np.zeros((0, 3), dtype=np.int64), [
        (i, j, tag) for lo, hi, tag in base.boundary_edges
        for i, j in zip(chains[lo, hi][:-1:step], chains[lo, hi][step::step])])


def _block(lines, pos: int, dtype, width: int):
    """(rows, next position): the count on ``lines[pos]`` and that many rows
    of ``width`` numbers after it, parsed by numpy in one call."""
    n = int(lines[pos])
    block = lines[pos + 1:pos + 1 + n]
    if len(block) < n:
        raise ValueError(f"{n} rows announced, {len(block)} present")
    if not block:                   # np.loadtxt warns on no data
        return np.empty((0, width), dtype=dtype), pos + 1
    return np.loadtxt(block, dtype=dtype, comments=None, ndmin=2), pos + 1 + n


def load_mesh(path) -> Mesh:
    """Read the plain-text mesh format (see module docstring); validates.

    Clockwise triangles are flipped with a warning rather than rejected.
    """
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and ln[0] != "#"]
    try:
        nodes, pos = _block(lines, 0, float, 2)
        tris, pos = _block(lines, pos, np.int64, 3)
        boundary = []
        for line in range(pos + 1, pos + 1 + int(lines[pos])):
            parts = lines[line].split()
            boundary.append((int(parts[0]), int(parts[1]), parts[2].lower()))
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from exc
    if nodes.shape[1] != 2:
        raise MeshError("node lines must contain two coordinates")
    if tris.size and (tris.min() < 0 or tris.max() >= nodes.shape[0]):
        raise MeshError("triangle refers to a nonexistent node")
    areas = _tri_areas(nodes[tris])
    flipped = areas < 0
    if np.any(flipped):
        warnings.warn(f"{int(flipped.sum())} clockwise triangle(s) reoriented",
                      stacklevel=2)
        tris[flipped] = tris[flipped][:, ::-1]
    mesh = Mesh(nodes, tris, boundary)
    validate_mesh(mesh)
    return mesh


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format (see module docstring), coordinates
    with 17 significant digits, each block formatted in one call."""
    nodes, tris = mesh.nodes, mesh.triangles
    with open(path, "w") as fh:
        fh.write(f"{nodes.shape[0]}\n")
        fh.write("%.17g %.17g\n" * nodes.shape[0] % tuple(nodes.ravel().tolist()))
        fh.write(f"{tris.shape[0]}\n")
        fh.write("%d %d %d\n" * tris.shape[0] % tuple(tris.ravel().tolist()))
        fh.write(f"{len(mesh.boundary_edges)}\n")
        for i, j, tag in mesh.boundary_edges:
            fh.write(f"{i} {j} {tag}\n")


# ---------------------------------------------------------------------------
# assembly and condensation
# ---------------------------------------------------------------------------

def _element_stiffness(p) -> np.ndarray:
    """(t, 3, 3) P1 stiffness of the triangles with corners p (t, 3, 2)."""
    areas = _tri_areas(p)
    if np.any(areas <= 0):
        raise MeshError("degenerate triangle encountered during assembly")
    # gradients of the barycentric hats: b_i = y_j - y_k, c_i = x_k - x_j
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
    return (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * areas)[:, None, None]


def _boundary_mass(mesh: Mesh) -> np.ndarray:
    """Consistent boundary mass over the free-surface nodes, row order =
    ``mesh.free_nodes()``."""
    ij, tags = _boundary_arrays(mesh.boundary_edges)
    ends = ij[tags == geometry.FREE]
    free = np.unique(ends)                  # == mesh.free_nodes()
    li, lj = np.searchsorted(free, ends).T
    ell = np.hypot(*(mesh.nodes[ends[:, 1]] - mesh.nodes[ends[:, 0]]).T)
    mf = np.zeros((free.size, free.size))
    # per edge [[l/3, l/6], [l/6, l/3]], accumulated edge by edge
    np.add.at(mf, (np.stack([li, lj, li, lj], axis=1).ravel(),
                   np.stack([li, lj, lj, li], axis=1).ravel()),
              np.stack([ell / 3.0, ell / 3.0, ell / 6.0, ell / 6.0],
                       axis=1).ravel())
    return mf


def assemble(mesh: Mesh):
    """(K, M_F): P1 stiffness over all nodes, consistent boundary mass over
    the free-surface nodes (row order = ``mesh.free_nodes()``)."""
    tris = mesh.triangles
    kloc = _element_stiffness(mesh.nodes[tris])
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)),
                      shape=(mesh.nodes.shape[0],) * 2).tocsr()
    return K, _boundary_mass(mesh)


@dataclass
class DtnMatrixPair:
    """Schur complement S and boundary mass M_F on the retained surface nodes.

    ``asymmetry`` is max|S - S^T| / max|S| of S as condensed; ``S`` is
    0.5 (S + S^T), which is S itself where the asymmetry is 0.
    ``factor_nnz`` counts the stored entries of the factors the condensation
    took: nnz(L) + nnz(U) of the bordered sparse LU; on 4-split meshes,
    n (n + 1) / 2 for every dense Cholesky factor of order n, summed over the
    refinement levels and the surface condensation, and over both sectors
    where those run in the even and odd sectors of a mirror; on the
    rectangle grid,
    the per-mode tridiagonal factors, modes x (2 rows - 1), with `rows` the
    grid rows each mode's recurrence runs over.
    """

    S: np.ndarray
    M_F: np.ndarray
    surface_nodes: np.ndarray   # global node ids, row order of S and M_F
    asymmetry: float            # relative asymmetry of S before symmetrizing
    factor_nnz: int             # stored entries of the condensation's factors


def _retained_surface(mesh: Mesh, problem: str, least: int = 2):
    """(free, surface, removed): the free-surface nodes, those `problem`
    keeps as unknowns, and the wall nodes it drops (SD) or none (SN); a
    MeshError if it keeps fewer than `least`."""
    check_problem(problem)
    free = mesh.free_nodes()
    removed = mesh.wall_nodes() if problem == "SD" else free[:0]
    surface = np.setdiff1d(free, removed)
    if surface.size < least:
        raise MeshError("too few free-surface unknowns; refine the mesh")
    return free, surface, removed


def dtn_matrices(mesh: Mesh, problem: str) -> DtnMatrixPair:
    """Condense the stiffness matrix onto the free-surface unknowns.

    SN treats wall nodes as ordinary unknowns and keeps every free-surface
    node; SD removes wall nodes (Dirichlet), including the corner nodes the
    two boundary parts share.  The mesh is validated first
    (:func:`validate_mesh`), so a hand-built mesh with a stray, missing or
    misspelt tag is a MeshError before any tag is read.

    A mesh from :func:`triangulate` is condensed as :func:`dtn_spectrum`
    condenses it, a triangle or fan from its base's skeleton and a rectangle
    grid by its Fourier modes, while it is still the mesh its recorded
    (domain, target_h) gives, with that source's surface nodes
    (:func:`_source_schur`).  Every other mesh (loaded, hand-built, copied
    or edited meshes) goes through one sparse LU of the bordered stiffness
    matrix (:func:`_bordered_schur`); there a mesh component that touches no
    retained surface node is a MeshError.  Every way S comes out in the row
    order of ``surface_nodes``, the sorted retained node ids, and M_F is the
    mesh's own boundary mass.
    """
    validate_mesh(mesh)
    free, surface, removed = _retained_surface(mesh, problem)
    found = _source_schur(mesh, problem, surface, removed)
    if found is not None:
        (S, factor_nnz), mf = found, _boundary_mass(mesh)
    else:
        K, mf = assemble(mesh)
        # imported here so that `import steklov` stays as cheap as before
        from scipy.sparse.csgraph import connected_components

        n_parts, part = connected_components(K, directed=False)
        if np.unique(part[surface]).size < n_parts:
            raise MeshError("disconnected mesh: a component touches no "
                            "retained free-surface node, so its interior "
                            "energy cannot be condensed onto the surface")
        inner = np.setdiff1d(np.arange(mesh.nodes.shape[0]),
                             np.union1d(surface, removed))
        S, factor_nnz = _bordered_schur(K, inner, surface, mesh.nodes)
    return _pair(S, mf, free, surface, factor_nnz)


def _pair(S, mf, free, surface, factor_nnz) -> DtnMatrixPair:
    """S, symmetrized, with the rows of M_F (row order `free`) on `surface`.
    An S that is exactly symmetric, as the 4-split and grid routes give it,
    is 0.5 (S + S^T) bit for bit, so it is returned as it is."""
    scale = float(np.abs(S).max()) or 1.0
    asym = float(np.abs(S - S.T).max()) / scale
    if asym > 1e-10:
        warnings.warn(f"Schur complement asymmetry {asym:.2e} above 1e-10",
                      stacklevel=3)
    if asym != 0.0:
        S = 0.5 * (S + S.T)
    keep = np.isin(free, surface)
    return DtnMatrixPair(S=S, M_F=mf[np.ix_(keep, keep)],
                         surface_nodes=surface, asymmetry=asym,
                         factor_nnz=factor_nnz)


def _source_schur(mesh: Mesh, problem: str, surface, removed):
    """(S, factor entries) on `surface`, `removed` held at zero, from the
    (domain, target_h) that ``mesh.source`` records, or None: a grid by its
    Fourier modes (:func:`_grid_schur`), any other mesh from the skeleton of
    its base (:func:`_self_similar_schur`).

    The mesh qualifies while rebuilding it from that source reproduces its
    node and triangle arrays exactly and its retained and removed nodes are
    the source's, the same points in the same order.  The skeleton numbers
    its nodes in the mesh's order, so its S is then the mesh's, row for row.
    """
    if mesh.source is None:
        return None
    d, target_h = mesh.source
    base = _base_triangulation(d, target_h)
    if base is None:
        dims, xs, ys = _grid(d, target_h)
        nodes, tris = _grid_nodes(xs, ys), _grid_triangles(dims[0], dims[2])
    else:
        nodes0, tris0, levels = base
        nodes, tris = _refine(nodes0, tris0, levels)
    if not (np.array_equal(nodes, mesh.nodes)
            and np.array_equal(tris, mesh.triangles)):
        return None
    if base is None:
        own = _grid_rim(d, xs, ys)
    else:
        nodes, rims, chains = _skeleton(nodes0, tris0, levels)
        own = _chain_mesh(nodes, chains, _tagged_mesh(d, nodes0, tris0), 1)
    _free, own_surface, own_removed = _retained_surface(own, problem, 0)
    if not (np.array_equal(mesh.nodes[surface], own.nodes[own_surface])
            and np.array_equal(mesh.nodes[removed], own.nodes[own_removed])):
        return None
    if base is None:
        return _grid_schur(*dims, problem)
    mirror = _mirror(d, nodes0, tris0, nodes, chains)
    B, e = _rim_schur(_rim_start(nodes0, tris0, mirror), 0, max(levels - 1, 0))
    S, e2 = _self_similar_schur(rims, B, nodes.shape[0], own_surface, own_removed,
                                mirror)
    return S, e + e2


def _bordered_schur(K, inner, surface, nodes):
    """(S, nnz(L) + nnz(U)): K_ff - K_fi K_ii^-1 K_if from one LU of the
    bordered matrix.

    The interior block comes first, in the nested-dissection order of
    :func:`_nested_dissection` on K_ii and the node coordinates, and the
    surface block last with the shift D = diag(K_ff).  Diagonal pivots in
    natural order keep that layout, so the trailing factor blocks give
    L22 U22 = S + D.  Without pivoting any symmetric order is exact for this
    definite matrix; the order only sets the fill.
    """
    n_in = inner.size
    inner = inner[_nested_dissection(nodes[inner], K[inner][:, inner])]
    order = np.concatenate([inner, surface])
    shift = K.diagonal()[surface]
    bordered = (K[order][:, order]
                + sp.diags(np.concatenate([np.zeros(n_in), shift]))).tocsc()
    lu = splu(bordered, permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    del bordered                            # before scipy copies out L and U
    n = order.size
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.array_equal(lu.perm_c[n_in:], np.arange(n_in, n))):
        raise RuntimeError("the bordered LU permuted the surface unknowns")
    L, U = lu.L, lu.U
    tail = slice(n_in, n)
    S = L[tail, tail].toarray() @ U[tail, tail].toarray()
    S[np.diag_indices(surface.size)] -= shift
    return S, L.nnz + U.nnz


def _nested_dissection(xy, graph) -> np.ndarray:
    """Postorder of a geometric nested dissection of `graph` on points `xy`.

    Each point gets a spatial-bisection code, one bit per level over
    floor(log2(n / 4)) levels, most significant first: every level halves
    the longer side of the cell, starting from the bounding box, so the
    schedule is the same for all cells.  An edge whose end codes first
    differ at bit b crosses that level's cut, and its lower end (bit b
    clear) joins the cut's separator; a node next to several cuts sits in
    the earliest.  Sorting by the code with the bits below the separator's
    level set to one puts each separator after both halves it splits, and
    at equal keys deeper separators first.
    """
    n = xy.shape[0]
    if n < 8:
        return np.arange(n)
    lo = xy.min(axis=0)
    width = xy.max(axis=0) - lo
    u = np.divide(xy - lo, width, out=np.zeros_like(xy), where=width > 0)
    code = np.zeros(n, dtype=np.int64)
    for _ in range(int(np.log2(n / 4))):
        a = int(width[1] > width[0])
        width[a] /= 2.0
        u[:, a] *= 2.0                      # exact: bits are binary digits of u
        bit = u[:, a] >= 1.0
        u[:, a] -= bit
        code = (code << 1) | bit
    g = graph.tocoo()
    up = code[g.row] < code[g.col]
    lower = g.row[up]
    cut = np.frexp((code[lower] ^ code[g.col[up]]).astype(float))[1]
    sep = np.zeros(n, dtype=np.int64)       # 1 + bit of the earliest cut
    np.maximum.at(sep, lower, cut)
    return np.lexsort((sep, code | ((1 << sep) - 1)))


# -- Fourier condensation of the rectangle grid ------------------------------

def _grid_schur(N: int, h_x: float, n_y: int, h_y: float, problem: str):
    """(S, factor entries) on the retained top-row nodes of the N x n_y grid
    of h_x x h_y cells (:func:`triangulate`), from left to right: all N + 1
    under SN, the N - 1 between the walls under SD.

    On the diagonal-split grid P1 is the 5-point stencil, as the diagonal
    couplings cancel (G. Strang and G. Fix, An Analysis of the Finite
    Element Method, 1973), so K = A_x (x) D_y + D_x (x) A_y: A is the 1-D
    stiffness (1/h) tridiag(-1, 2, -1), end diagonals 1/h, and D the lumped
    mass h diag(1/2, 1, ..., 1, 1/2), restricted to the unknowns.  The
    cosine vectors v_k(i) = cos(k i pi / N), k = 0..N (SN), or the sine
    ones, k = 1..N - 1 (SD), satisfy A_x v_k = mu_k D_x v_k with
    mu_k = (4 / h_x^2) sin^2(k pi / 2N), and v_k^T D_x v_l = c_k delta_kl
    with c_k = N h_x / 2 (N h_x at k = 0 and k = N).  So mode k decouples
    into c_k (A_y + mu_k D_y), whose Schur complement s_k onto the surface
    node is one backward recurrence over the rows (SD drops the bottom row),
    and S = D_x V diag(s_k / c_k) V^T D_x = X X^T.  The SN constant mode has
    s_0 = 0 exactly.  The angles come from the table (i k mod 2N) pi / N.
    """
    sn = problem == "SN"
    i = np.arange(N + 1) if sn else np.arange(1, N)
    angle = np.arange(2 * N) * (math.pi / N)
    V = (np.cos if sn else np.sin)(angle)[np.outer(i, i) % (2 * N)]
    mu = (2.0 / h_x) ** 2 * np.sin(angle[i] / 2.0) ** 2
    w = np.full(i.size, h_x)                # the lumped mass of the unknowns
    c = np.full(i.size, N * h_x / 2.0)
    if sn:
        w[[0, -1]] /= 2.0
        c[[0, -1]] *= 2.0
    # rows from the bottom (SN) or the one above it (SD) up to the surface
    rows = n_y + 1 if sn else n_y
    ends = np.ones(rows)
    ends[-1] = 0.5
    if sn:
        ends[0] = 0.5
    inner = 2.0 / h_y + mu * h_y            # an inner row's diagonal
    s = inner * ends[0]
    for e in ends[1:]:
        s = inner * e - 1.0 / (h_y * h_y * s)
    if sn:
        s[0] = 0.0                          # A_y's null vector: the constants
    X = (w[:, None] * V) * np.sqrt(s / c)
    return X @ X.T, i.size * (2 * rows - 1)


# -- self-similar condensation of 4-split meshes ----------------------------

def _copy_lattice(m: int) -> list:
    """For each of the four copies of :func:`_split_maps`, the parent's
    lattice coordinates (i, j, k) of its rim nodes in rim order: the
    weights of the parent's a, b, c, summing to 2m."""
    n = 2 * m
    r = np.arange(m)
    zero = np.zeros(m, dtype=np.int64)
    # a copy's rim in its own lattice coordinates (weights of its a, b, c)
    rim = np.concatenate([np.stack([m - r, r, zero]), np.stack([zero, m - r, r]),
                          np.stack([r, zero, m - r])], axis=1)
    a, b, c = (n, 0, 0), (0, n, 0), (0, 0, n)
    ab, bc, ca = (m, m, 0), (0, m, m), (m, 0, m)
    return [np.array(corners).T @ rim // m
            for corners in ((bc, ca, ab), (a, ab, ca), (ab, b, bc), (ca, bc, c))]


@functools.lru_cache(maxsize=None)
def _split_maps(m: int) -> np.ndarray:
    """Where the four half-size copies of a triangle refined 2m per side sit.

    Row k lists, for each rim node of copy k (3m of them, in rim order),
    its index in the parent: 0 ... 6m-1 on the parent's rim, then the inner
    nodes of the midlines ab-bc, bc-ca and ca-ab (m-1 each).  Copy 0 is the
    middle one, the parent turned by 180 degrees, so its a, b, c sit at
    bc, ca, ab; copies 1, 2, 3 are the corner ones (a, ab, ca),
    (ab, b, bc) and (ca, bc, c).
    """
    n = 2 * m
    maps = []
    for i, j, k in _copy_lattice(m):
        inner = np.where(j == m, 3 * n + k - 1,
                         np.where(k == m, 3 * n + m - 2 + i, 3 * n + 2 * m - 3 + j))
        maps.append(np.where(k == 0, j, np.where(i == 0, n + k,
                                                 np.where(j == 0, 2 * n + i, inner))))
    return np.array(maps)


class _Moves(NamedTuple):
    """Where the rows and columns of a dense block go: row i to rows[i],
    and the columns by runs, (destination slice, source slice) pairs."""
    rows: np.ndarray
    cols: tuple


def _runs(dst, src) -> tuple:
    """(destination slice, source slice) pairs that move column src[i] to
    dst[i], for increasing `dst`: one per stretch of consecutive
    destinations over evenly spaced sources."""
    if dst.size == 0:
        return ()
    step = np.diff(src)
    cut = np.diff(dst) != 1
    cut[1:] |= step[1:] != step[:-1]
    bounds = np.concatenate([[0], np.flatnonzero(cut) + 1, [dst.size]])
    runs = []
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        by = int(step[a]) if b - a > 1 else 1
        stop = int(src[a]) + by * (b - a)
        runs.append((slice(int(dst[a]), int(dst[a]) + b - a),
                     slice(int(src[a]), stop if stop >= 0 else None, by)))
    return tuple(runs)


def _scatter(at) -> _Moves:
    """The moves that put row and column i of a block at `at`[i]."""
    order = np.argsort(at)
    return _Moves(at, _runs(at[order], order))


class _Step(NamedTuple):
    """One piece of a :func:`_plan`, as :func:`_condense` runs it."""
    take: Optional[_Moves]      # gathers the piece's live rows, the own_out
    own_out: int                # it eliminates alone first; None: it keeps
                                # every row, in order
    total: _Moves               # where the running total goes in the sum
    piece: _Moves               # where the rest of the piece goes
    fresh: tuple                # slices of the rows only the piece holds
    size: int                   # order of the sum
    out: int                    # its leading rows, eliminated after the sum


class _Plan(NamedTuple):
    steps: tuple                # one _Step per piece
    ids: np.ndarray             # the ids left at the end, sorted
    entries: int                # stored entries of all the Cholesky factors


def _plan(pieces, keep, drop=()) -> _Plan:
    """The elimination plan of :func:`_condense` for pieces with the id
    arrays `pieces`, onto the ids in `keep`, with the ids in `drop` held at
    zero; it reads the ids alone.

    The pieces are added in turn.  Each first eliminates, on its own, the
    live ids (those not dropped) that neither the sum so far nor a later
    piece holds, in its own order; the sum with it is then laid out as
    [ids no later piece holds, sorted | the rest, sorted], and the leading
    block is eliminated.  Whether a later piece (or `keep`) holds an id is
    read off one table, built once: the index of the last piece that holds
    each id, len(pieces) for the ids in `keep`.
    """
    size = max((int(ids.max()) + 1 for ids in (*pieces, keep) if ids.size),
               default=0)
    last = np.full(size, -1)
    for k, own in enumerate(pieces):
        last[own] = k
    last[keep] = len(pieces)
    ids, steps, entries = np.zeros(0, dtype=np.int64), [], 0
    for k, own in enumerate(pieces):
        live = ~np.isin(own, drop)
        stay = live & ((last[own] > k) | np.isin(own, ids))
        gone = np.flatnonzero(live & ~stay)
        take = None
        if gone.size or not live.all():
            rows = np.concatenate([gone, np.flatnonzero(stay)])
            take = _Moves(rows, _runs(np.arange(rows.size), rows))
        own = own[stay]
        merged = np.union1d(ids, own)
        later = last[merged] > k
        at = np.empty(merged.size, dtype=np.int64)
        at[np.concatenate([np.flatnonzero(~later), np.flatnonzero(later)])] = \
            np.arange(merged.size)
        fresh = np.sort(at[~np.isin(merged, ids)])
        out = merged.size - int(later.sum())
        steps.append(_Step(take, gone.size,
                           _scatter(at[np.searchsorted(merged, ids)]),
                           _scatter(at[np.searchsorted(merged, own)]),
                           tuple(d for d, _s in _runs(fresh, fresh)),
                           merged.size, out))
        entries += gone.size * (gone.size + 1) // 2 + out * (out + 1) // 2
        ids = merged[later]
    return _Plan(tuple(steps), ids, entries)


def _eliminate(A, n):
    """The Schur complement of A onto its trailing block, after eliminating
    its leading n rows by a dense Cholesky: that block of A, updated in
    place.  A is exactly symmetric, so its leading rows are read as its
    leading columns: in a C-ordered A each is a contiguous run, which LAPACK
    takes in by plain copies."""
    if n == 0:
        return A
    lead = A[:, :n].T
    chol = scipy.linalg.cholesky(lead[:, :n], lower=True, overwrite_a=True,
                                 check_finite=False)
    w = scipy.linalg.solve_triangular(chol, lead[:, n:], lower=True,
                                      overwrite_b=True, check_finite=False)
    S = A[n:, n:]
    S -= w.T @ w                            # a symmetric rank-n update
    return S


def _gather(A, moves: _Moves) -> np.ndarray:
    """A[np.ix_(moves.rows, moves.rows)], a run of columns at a time."""
    rows, out = A[moves.rows], np.empty((moves.rows.size,) * 2)
    for dst, src in moves.cols:
        out[:, dst] = rows[:, src]
    return out


def _add(new, step: _Step, total, A) -> None:
    """Lay the running total and the piece A into `new` as `step` plans.
    The rows and columns only the piece holds are zeroed first, so the
    piece adds onto zeros there and onto the total elsewhere."""
    if step.take is not None:
        A = _eliminate(_gather(A, step.take), step.own_out)
    for dst in step.fresh:
        new[dst] = 0.0
        new[step.total.rows, dst] = 0.0
    for dst, src in step.total.cols:
        new[step.total.rows, dst] = total[:, src]
    for dst, src in step.piece.cols:
        new[step.piece.rows, dst] += A[:, src]


def _condense(plan: _Plan, matrices) -> np.ndarray:
    """The Schur complement onto ``plan.ids`` of the sum of the dense
    symmetric `matrices`, one per piece of `plan` (:func:`_plan`).

    The sums are built in two buffers that this call owns, in turn: each
    zeroes the rows and columns only its piece holds, takes the running
    total and adds the piece where the plan puts them, and is eliminated in
    place, so its trailing block is the next total.  Every move is a row
    gather or scatter over a run of columns.
    """
    buffers = [np.empty(max((s.size ** 2 for s in plan.steps[k::2]), default=0))
               for k in (0, 1)]
    total = np.zeros((0, 0))
    for k, (step, A) in enumerate(zip(plan.steps, matrices)):
        new = buffers[k % 2][:step.size ** 2].reshape(step.size, step.size)
        _add(new, step, total, A)
        total = _eliminate(new, step.out)
    return total.copy()


class _Sectors(NamedTuple):
    """The rim matrix B of a triangle in the sectors of a mirror of it.
    With `apex` None there is no mirror and one sector, B itself (`even`),
    in rim order.  Otherwise the triangle has equal sides at vertex `apex`
    and B is in the even and odd sectors of the mirror that fixes the apex
    and swaps the two other vertices.  With P the rim nodes on the side of
    vertex apex + 1, tP their mirror images and F the nodes on the axis, in
    the order of :func:`_sector_rows`,

        even = [[B[P,P] + B[P,tP], B[P,F]], [B[F,P], B[F,F] / 2]],
        odd = B[P,P] - B[P,tP]:

    half of E^T B E and D^T B D, where E has the columns e_p + e_tp and e_f
    and D the columns e_p - e_tp, so the energy of half the triangle."""
    apex: Optional[int]
    even: np.ndarray
    odd: Optional[np.ndarray] = None


@functools.lru_cache(maxsize=None)
def _sector_rows(M: int, apex: int):
    """(P, F): the rim positions (M per side) of the rows of a
    :class:`_Sectors`.  P runs from vertex apex + 1 to the middle of its
    side, then from the apex back towards that vertex; F is that middle
    (for even M) and the apex.  The mirror maps position p to
    (2 apex M - p) mod 3M."""
    t1 = (apex + 1) % 3
    q = np.concatenate([np.arange((M + 1) // 2), np.arange(2 * M + 1, 3 * M)])
    middle = [t1 * M + M // 2] if M % 2 == 0 else []
    return (t1 * M + q) % (3 * M), np.array(middle + [apex * M])


def _unfolded_rows(M: int, apex: int) -> np.ndarray:
    """The rim positions (M per side) of the rows of :func:`_unfold`,
    [tP | F | P]."""
    P, F = _sector_rows(M, apex)
    return np.concatenate([(2 * apex * M - P) % (3 * M), F, P])


def _unfold(even, odd):
    """The matrix whose sectors (:class:`_Sectors`) are `even` and `odd`,
    with rows [tP | F | P]: scalings by powers of two and one addition per
    entry, so it is exactly symmetric and exactly mirror symmetric."""
    n, f = odd.shape[0], even.shape[0] - odd.shape[0]
    B = np.empty((2 * n + f,) * 2)
    near, far = B[:n, :n], B[:n, n + f:]
    np.add(even[:n, :n], odd, out=near)
    near *= 0.5
    np.subtract(even[:n, :n], odd, out=far)
    far *= 0.5
    B[n + f:, n + f:] = near
    B[n + f:, :n] = far
    B[n:n + f, :n] = B[n:n + f, n + f:] = even[n:, :n]
    B[:n, n:n + f] = B[n + f:, n:n + f] = even[:n, n:]
    np.multiply(even[n:, n:], 2.0, out=B[n:n + f, n:n + f])
    return B


def _fold(K, apex: int) -> _Sectors:
    """The :class:`_Sectors` of the element stiffness K of a triangle with
    equal sides at `apex`.  Mirror images are summed first, so both sectors
    are exactly symmetric."""
    a, b = (apex + 1) % 3, (apex + 2) % 3
    own, cross = K[a, a] + K[b, b], K[a, b] + K[b, a]
    side = 0.5 * (K[a, apex] + K[b, apex])
    return _Sectors(apex, np.array([[0.5 * (own + cross), side],
                                    [side, 0.5 * K[apex, apex]]]),
                    np.array([[0.5 * (own - cross)]]))


def _level_matrices(B: _Sectors):
    """The matrices of the pieces of :func:`_level_rows`, per sector: for a
    whole triangle B itself, once per copy; otherwise the middle and apex
    copies' sectors as they are, then the corner copy whole
    (:func:`_unfold`), its axis row cut off in the odd sector."""
    if B.apex is None:
        return ((B.even,) * 4,)
    whole = _unfold(B.even, B.odd)
    return (B.even, B.even, whole), (B.odd, B.odd, whole[1:, 1:])


@functools.lru_cache(maxsize=None)
def _lattice_mirror(m: int, apex: int):
    """(partner, side) over the parent nodes of :func:`_split_maps`: the
    image of each under the mirror that swaps the weights
    (:func:`_copy_lattice`) of the two vertices other than `apex`, and its
    side of the axis (1 towards vertex apex + 1, 0 on it, -1 towards vertex
    apex + 2)."""
    maps = _split_maps(m)
    weights = np.empty((6 * m + 3 * (m - 1), 3), dtype=np.int64)
    for idx, lattice in zip(maps, _copy_lattice(m)):
        weights[idx] = lattice.T
    t1, t2 = (apex + 1) % 3, (apex + 2) % 3
    image = weights.copy()
    image[:, [t1, t2]] = weights[:, [t2, t1]]
    base = (2 * m + 1) ** np.arange(3)
    key = weights @ base
    order = np.argsort(key)
    partner = order[np.searchsorted(key, image @ base, sorter=order)]
    return partner, np.sign(weights[:, t1] - weights[:, t2])


@functools.lru_cache(maxsize=None)
def _level_rows(m: int, apex: Optional[int]):
    """Per sector, the parent node (numbered as in :func:`_split_maps`) of
    each row of each piece that one 4-split level of a :class:`_Sectors`
    rim matrix, m per side, brings; for m = 0, the rim positions of the
    unsplit triangle's own sectors.

    A whole triangle (apex None) has one sector: its four copies.  In the
    even and odd sector, the middle copy and the copy at the apex map onto
    themselves with the parent's local reversal, so each brings its sectors
    as they are.  The two other corner copies swap, so together they bring
    one whole matrix (:func:`_level_matrices`), last: the copy at vertex
    apex + 1, less its first row in the odd sector, as that row lies on the
    axis."""
    if apex is None:
        return (tuple(_split_maps(m)) if m else (np.arange(3),),)
    P, F = _sector_rows(max(m, 1), apex)
    PF = np.concatenate([P, F])
    if not m:
        return (PF,), (P,)
    middle, tip, corner = _split_maps(m)[[0, apex + 1, (apex + 1) % 3 + 1]]
    corner = corner[_unfolded_rows(m, apex)]
    return (middle[PF], tip[PF], corner), (middle[P], tip[P], corner[1:])


def _sector_pieces(m: int, apex: Optional[int]):
    """The sectors of one 4-split level of a :class:`_Sectors` rim matrix,
    m per side, onto the parent's, each as (the ids of the pieces of
    :func:`_level_rows`, the ids kept, the ids held at zero).

    A whole triangle's one sector keeps the parent's rim, 0 ... 6m - 1, and
    holds nothing at zero.  In the even and odd sectors the ids are the
    orbits of the parent's mirror, numbered so that the sums come out in the
    parent's :func:`_sector_rows` order: P by position, the two axis nodes,
    then the midlines."""
    if apex is None:
        return ((_level_rows(m, None)[0], np.arange(6 * m), ()),)
    partner, side = _lattice_mirror(m, apex)
    orbit = np.arange(partner.size) + 2
    P, F = _sector_rows(2 * m, apex)
    orbit[P] = np.arange(P.size)
    orbit[F] = 6 * m + np.arange(2)
    orbit[side < 0] = orbit[partner[side < 0]]
    even, odd = (tuple(orbit[r] for r in rows) for rows in _level_rows(m, apex))
    keep = np.arange(P.size)
    return ((even, np.concatenate([keep, orbit[F]]), orbit[:0]),
            (odd, keep, orbit[side == 0]))


@functools.lru_cache(maxsize=None)
def _sector_plans(m: int, apex: Optional[int]):
    """The :func:`_plan` of each sector of :func:`_sector_pieces`."""
    return tuple(_plan(*sector) for sector in _sector_pieces(m, apex))


def _rim_schur(B, first, last):
    """(B, factor entries): each base triangle's Schur complement onto its
    rim after `last` 4-splits, as :class:`_Sectors`, from B, the ones after
    `first` (from :func:`_rim_start` at first = 0).  P1 stiffness is
    invariant under similarity, so each level is four copies of the last,
    with the midlines eliminated: in each sector, the pieces of
    :func:`_level_rows` by the cached :func:`_sector_plans`, so a whole
    triangle takes one condensation and a mirrored one two of half the
    order.  An entry None stays None.
    """
    entries = 0
    for level in range(first, last):
        m, out = 2 ** level, []
        for Bt in B:
            if Bt is not None:
                plans = _sector_plans(m, Bt.apex)
                Bt = _Sectors(Bt.apex, *map(_condense, plans, _level_matrices(Bt)))
                entries += sum(plan.entries for plan in plans)
            out.append(Bt)
        B = out
    return B, entries


class _Mirror(NamedTuple):
    """A mirror x -> 2c - x that maps a 4-split domain onto itself."""
    partner: np.ndarray     # the image of each skeleton node
    left: np.ndarray        # which skeleton nodes lie left of the axis
    roles: tuple            # per base triangle: the index of its vertex on
                            # the axis if it is its own image, -1 if its
                            # image comes later, None if earlier


def _mirror(d: PolygonalDomain, nodes0, tris0, nodes, chains):
    """The :class:`_Mirror` of d on the skeleton (nodes, chains) of its base
    (nodes0, tris0), or None.  The reflection about the middle of d's
    x-range must map the base vertices onto base vertices and each edge onto
    one of its tag, to within a few ulps of the diameter.  The skeleton's
    nodes, their images by chains, must confirm it, to within what the
    midpoint rounding of 64 splits could add, so that no split count
    decides otherwise than the base."""
    verts, eps = d.vertices, np.finfo(float).eps
    tol = 8 * eps * float(np.hypot(*np.ptp(verts, axis=0)))
    twice_c = verts[:, 0].min() + verts[:, 0].max()

    def image(p):
        return np.column_stack([twice_c - p[:, 0], p[:, 1]])

    gap = np.abs(image(nodes0)[:, None] - nodes0[None]).max(axis=2)
    tau = np.argmin(gap, axis=1)
    n = d.n_vertices
    if gap[np.arange(tau.size), tau].max() > tol \
            or np.any(tau[tau] != np.arange(tau.size)):
        return None
    for i in range(n):          # edge i, reversed, is the edge from tau(i + 1)
        j = int(tau[(i + 1) % n])
        if (j + 1) % n != tau[i] or d.edge_tag(j) != d.edge_tag(i):
            return None
    partner = np.arange(nodes.shape[0])
    partner[:tau.size] = tau
    for (lo, hi), chain in chains.items():
        a, b = int(tau[lo]), int(tau[hi])
        partner[chain] = chains[min(a, b), max(a, b)][::1 if a < b else -1]
    if np.abs(image(nodes[partner]) - nodes).max() \
            > 2 * tol + 64 * eps * np.abs(nodes).max():
        return None
    which = {frozenset(tri): k for k, tri in enumerate(tris0.tolist())}
    roles = []
    for k, tri in enumerate(tris0.tolist()):
        other = which[frozenset(tau[tri].tolist())]
        roles.append(int(np.flatnonzero(tau[tri] == tri)[0]) if other == k
                     else -1 if other > k else None)
    return _Mirror(partner, nodes[:, 0] < nodes[partner, 0], tuple(roles))


def _rim_start(nodes0, tris0, mirror: Optional[_Mirror]) -> list:
    """Each base triangle's rim matrix before any split, for
    :func:`_rim_schur`: its element stiffness as :class:`_Sectors`, about
    its vertex on the axis when the mirror maps it onto itself, whole
    (apex None) otherwise, and None when the mirror makes it the image of
    an earlier one."""
    roles = (-1,) * len(tris0) if mirror is None else mirror.roles
    return [None if role is None else _Sectors(None, K) if role < 0
            else _fold(K, role)
            for K, role in zip(_element_stiffness(nodes0[tris0]), roles)]


def _surface_sectors(rims, below, n_ids, surface, removed,
                     mirror: Optional[_Mirror] = None):
    """(sectors, at): the pieces that :func:`_self_similar_schur` condenses,
    base triangle by base triangle, in each sector, as (the pieces' ids,
    their matrices, the ids kept, the ids held at zero), and where each of
    `surface` sits in the :func:`_unfold` of the sectors.

    Each base triangle of `below` (None: the image of an earlier one)
    brings the pieces of :func:`_level_rows` to every sector, as one level
    of :func:`_rim_schur` does, a whole one (apex None) the same copies to
    each.  Without a :class:`_Mirror` every id is its own orbit and every
    base triangle whole, so there is one sector, onto `surface` with
    `removed` held at zero, and `at` is None.  With one there are two, the
    even and odd sector.  An id stands for itself and its image, numbered
    by the smaller of the two, or after all pairs if it is its own image,
    which the odd sector holds at zero.  Each piece lies on one side of the
    axis or comes in sectors, so the odd sector takes the nodes on one side
    as its signs: S has those left of the axis in the last block of the
    unfolding."""
    m = rims.shape[1] // 6
    inner = 3 * max(m - 1, 0)
    partner = np.full(n_ids + inner * len(rims), -1)
    if mirror is not None:
        partner[:n_ids] = mirror.partner
    even, odd = [], []
    for t, (rim, B) in enumerate(zip(rims, below)):
        if B is None:
            continue
        local = np.concatenate([rim, n_ids + inner * t + np.arange(inner)])
        if m and B.apex is not None:
            partner[local] = local[_lattice_mirror(m, B.apex)[0]]
        rows, matrices = _level_rows(m, B.apex), _level_matrices(B)
        # a whole triangle's one sector serves both
        for pieces, r, mats in zip((even, odd), rows * 2, matrices * 2):
            pieces.extend((local[i], A) for i, A in zip(r, mats))
    ids = np.arange(partner.size)
    orbit = np.where(partner < 0, ids, np.minimum(ids, partner))
    orbit[partner == ids] += partner.size
    keep = np.unique(orbit[surface])
    drop = orbit[removed]
    sectors, at = [(even, keep, drop)], None
    if mirror is not None:
        sectors.append((odd, keep[keep < partner.size],
                        np.union1d(drop, orbit[partner == ids])))
        at = np.searchsorted(keep, orbit[surface])
        at[mirror.left[surface]] += keep.size
    return [([orbit[i] for i, _B in pieces], [B for _i, B in pieces], kept, held)
            for pieces, kept, held in sectors], at


def _self_similar_schur(rims, below, n_ids, surface, removed, mirror=None):
    """(S, factor entries) on `surface` (sorted ids), `removed` held at
    zero, for base triangles with rims `rims` (:func:`_skeleton`) 4-split L
    times, from their rim matrices `below` after max(L - 1, 0) splits
    (:func:`_rim_schur` of :func:`_rim_start` with the same `mirror`).
    Each is four copies of that around three midlines, whose inner nodes
    get ids from `n_ids` on; in each sector of :func:`_surface_sectors`,
    one :func:`_plan`, built for this call, eliminates walls, midlines,
    spokes and the centroid as :func:`_condense` adds the copies, base
    triangle by base triangle.  One sector (no mirror) is S itself; two,
    the even and odd sectors of the domain's :class:`_Mirror`, give S back
    by :func:`_unfold`.
    """
    sectors, at = _surface_sectors(rims, below, n_ids, surface, removed, mirror)
    out, entries = [], 0
    for ids, matrices, keep, drop in sectors:
        plan = _plan(ids, keep, drop)
        if not np.array_equal(plan.ids, keep):
            raise RuntimeError("the 4-split condensation lost a surface node")
        out.append(_condense(plan, matrices))
        entries += plan.entries
    if len(out) == 1:
        return out[0], entries
    return _unfold(*out)[np.ix_(at, at)], entries


def _spectra(d: PolygonalDomain, problem: str, count, target_hs) -> list:
    """The FEM Spectrum at each of `target_hs` in turn.  Triangles and
    convex fans condense from one :func:`_skeleton` at the finest split
    count, a coarser solve on every other rim node, and one rim recursion,
    in the sectors of the domain's :func:`_mirror` where it has one, goes
    on from solve to solve; axis rectangles take the grid's Fourier
    modes (:func:`_grid_schur`) and its boundary (:func:`_grid_rim`).
    Neither builds the mesh."""
    check_problem(problem)
    (count,) = specfun.indices(count, "count must be a positive integer")
    bases = [_base_triangulation(d, h) for h in target_hs]
    # the grids too, so that every size check comes before any solve
    grids = [_grid(d, h) if base is None else None
             for h, base in zip(target_hs, bases)]
    if bases[-1] is not None:
        nodes0, tris0, top = bases[-1]
        tagged = _tagged_mesh(d, nodes0, tris0)
        nodes, rims, chains = _skeleton(nodes0, tris0, top)
        mirror = _mirror(d, nodes0, tris0, nodes, chains)
        done, below = 0, (_rim_start(nodes0, tris0, mirror), 0)
    out = []
    for base, grid in zip(bases, grids):
        if grid:
            dims, xs, ys = grid
            mesh = _grid_rim(d, xs, ys)
        else:
            step = 2 ** (top - base[2])
            mesh = _chain_mesh(nodes, chains, tagged, step)
        free, surface, removed = _retained_surface(mesh, problem)
        if count > surface.size - 1:
            raise ValueError(f"count = {count} exceeds the {surface.size} "
                             "surface unknowns minus one; refine the mesh")
        if grid:
            S, e = _grid_schur(*dims, problem)
            label = _grid_size(xs, ys)
        else:
            B, e = _rim_schur(below[0], done, max(base[2] - 1, 0))
            done, below = max(base[2] - 1, 0), (B, below[1] + e)
            S, e = _self_similar_schur(rims[:, ::step], B, nodes.shape[0],
                                       surface, removed, mirror)
            e += below[1]
            label = tagged.mesh_size / 2 ** base[2]      # exact for L 4-splits
        pair = _pair(S, _boundary_mass(mesh), free, surface, e)
        vals = scipy.linalg.eigh(pair.S, pair.M_F, eigvals_only=True)[:count]
        if problem == "SN":
            # the discrete constant mode lands at roundoff, possibly below 0
            vals = np.maximum(vals, 0.0)
        out.append(Spectrum(problem=problem, values=vals,
                            source=f"fem:h={label:.6g}",
                            meta=geometry.domain_metadata(d),
                            zero_tol=1e-8 if problem == "SN" else 1e-10))
    return out


def dtn_spectrum(d: PolygonalDomain, problem: str, count: int,
                 target_h: float) -> Spectrum:
    """First `count` Dirichlet-to-Neumann eigenvalues of the meshed domain.

    Solves the condensed pencil S u = nu M_F u with the symmetric
    Cholesky-reduction eigensolver.  The returned Spectrum carries the
    domain metadata and source = "fem:h=<mesh size>", on triangles and
    convex fans the exact base mesh size / 2**L, as the mesh (never built,
    :func:`_spectra`) is L 4-splits of it, and on rectangles the grid's
    longest cell diagonal, which is ``mesh_size`` bit for bit.  The values
    equal, bit for bit, ``eigh`` of ``dtn_matrices(triangulate(d,
    target_h))``.
    """
    return _spectra(d, problem, count, (target_h,))[0]


def dtn_with_error(d: PolygonalDomain, problem: str, count: int,
                   target_h: float):
    """(Spectrum, errors): FEM spectrum plus per-eigenvalue error certificates.

    Solves at target_h and target_h/2 and returns the fine spectrum with the
    plain difference |nu_k(h) - nu_k(h/2)| as the error certificate, each
    spectrum with its label as :func:`dtn_spectrum` gives it; triangles and
    fans share one skeleton and rim recursion between them (:func:`_spectra`),
    and neither solve meshes a rectangle.

    The fine triangle or fan mesh is the coarse one split once more (see
    :func:`triangulate`), so the P1 spaces nest and nu_k(h) >= nu_k(h/2) >=
    nu_k.  The rectangle grid does not nest: ceil(side / h) columns and
    rows, so pi x 1 at h = 0.02 / 0.01 has 158 / 315 columns.  Either way the
    certificate is a heuristic, not a proof: under the asymptotic error
    model a method of order p >= 1 has a true fine-mesh error of at most the
    difference, and about a third of it at the expected p = 2.  On
    rectangles (pi x 1, 1 x 1, 2 x 0.5, 1 x 2, 2 pi x 0.5, 2 pi x 1; target_h
    0.08 to 0.01; every mode up to the coarse surface unknowns minus one;
    the grids' exact P1 spectra) the true error reached 0.637x the
    certificate under SN and 0.619x under SD, at the last modes, and
    nu_k(h) >= nu_k(h/2) held for every mode.  That held again over 20,345
    rectangles, SN and SD (length 0.2 to 10, depth / length 0.02 to 5, 1 to
    300 columns, every mode up to the coarse surface unknowns minus one,
    1,087,786 modes in all, the grids' exact P1 spectra): no mode rose, and
    the smallest fall was 1.2e-5 of nu_k(h/2), far above roundoff.  So the
    grid is left as it is.
    """
    coarse, fine = _spectra(d, problem, count, (target_h, target_h / 2.0))
    return fine, np.abs(coarse.values - fine.values)
