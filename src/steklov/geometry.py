"""Domain types for the free-surface eigenvalue problems.

Three kinds of domains are supported:

* ``PolygonalDomain`` -- a simple planar polygon lying in the closed lower
  half-plane, with each edge tagged Free (on the axis x2 = 0) or Wall.
* ``CylinderDomain`` -- a product F x (-h, 0) described by its base spectrum
  (interval or rectangle bases are built in, anything else via an explicit
  eigenvalue list).
* ``ConeDomain`` -- the solid of revolution under the surface x3 = 0 with a
  straight slanted wall at half-angle alpha, used for the wall-term closed
  forms in three dimensions.

Everything is validated at construction: non-simple polygons, clockwise
orientation, Free edges off the axis, or walls poking above the surface are
rejected with a diagnostic rather than silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import specfun


class DomainError(ValueError):
    """Raised when a domain description is geometrically invalid."""


def _checked(check, *args) -> None:
    """check(*args), one of :mod:`specfun`'s checkers, with its ValueError
    raised as a DomainError in the same words."""
    try:
        check(*args)
    except ValueError as exc:
        raise DomainError(str(exc)) from None


def _positive(x, name: str) -> None:
    """DomainError, in :func:`specfun.real`'s words, unless x is finite and > 0."""
    _checked(specfun.real, x, name, 0, True)


FREE = "free"
WALL = "wall"

# absolute tolerance for "this unit-normal component is zero"
_SIGN_TOL = 1e-12


def _cross(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _on_segment(p, a, b, tol: float) -> bool:
    """Is p within tol of the closed segment [a, b]?"""
    ab = b - a
    L2 = float(ab @ ab)
    if L2 == 0.0:       # ab @ ab underflows for an edge shorter than ~1.5e-162
        return bool(np.hypot(*(p - a)) <= tol)
    t = float((p - a) @ ab) / L2
    t = min(1.0, max(0.0, t))
    closest = a + t * ab
    return bool(np.hypot(*(p - closest)) <= tol)


def _segments_touch(p, q, r, s, lpq: float, lrs: float, tol: float) -> bool:
    """Do closed segments [p,q] and [r,s], of lengths lpq and lrs, intersect
    or touch (within tol)?"""
    t1 = tol * lpq   # cross(q-p, x-p) = lpq * signed distance of x from line pq
    t2 = tol * lrs
    d1 = _cross(q - p, r - p)
    d2 = _cross(q - p, s - p)
    d3 = _cross(s - r, p - r)
    d4 = _cross(s - r, q - r)
    if ((d1 > t1 and d2 < -t1) or (d1 < -t1 and d2 > t1)) and \
       ((d3 > t2 and d4 < -t2) or (d3 < -t2 and d4 > t2)):
        return True
    return (_on_segment(r, p, q, tol) or _on_segment(s, p, q, tol)
            or _on_segment(p, r, s, tol) or _on_segment(q, r, s, tol))


@dataclass(frozen=True, eq=False)
class PolygonalDomain:
    """Simple polygon in the closed lower half-plane with tagged edges.

    ``vertices`` is an (m, 2) array in counterclockwise order; edge i runs
    from vertex i to vertex i+1 (mod m).  ``free_edges`` lists the indices of
    the edges forming the free surface; they must lie on the axis x2 = 0 and
    are snapped to it exactly.  All remaining edges are walls and need at
    least one endpoint strictly below the axis.

    The edge table, built once from the snapped vertices, holds every edge's
    vector (vertex i+1 minus vertex i), length and outward unit normal
    (rightward of the edge direction); every edge measurement reads it.
    """

    vertices: np.ndarray
    free_edges: frozenset = field(default_factory=frozenset)
    edge_vectors: np.ndarray = field(init=False, repr=False)    # (m, 2)
    edge_lengths: np.ndarray = field(init=False, repr=False)    # (m,)
    edge_normals: np.ndarray = field(init=False, repr=False)    # (m, 2), outward

    def __init__(self, vertices, free_edges):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise DomainError("vertices must be an (m, 2) array with m >= 3")
        if not np.all(np.isfinite(verts)):
            raise DomainError("vertices contain non-finite coordinates")
        m = verts.shape[0]
        for i in free_edges:    # a bool or a float (3.0 too) is not an index
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)) \
                    or not 0 <= i < m:
                raise DomainError(f"free edge index must be an integer in "
                                  f"0..{m - 1}, got {i!r}")
        free = frozenset(int(i) for i in free_edges)
        if not free:
            raise DomainError("at least one Free edge is required")

        span = verts.max(axis=0) - verts.min(axis=0)
        diam = float(np.hypot(*span))
        if diam == 0.0:
            raise DomainError("degenerate polygon (zero diameter)")
        tol = 1e-9 * diam

        nxt = np.roll(verts, -1, axis=0)
        e = nxt - verts
        lengths = np.hypot(*e.T)
        if np.any(lengths <= tol):
            raise DomainError("zero-length edge (repeated vertex)")

        # counterclockwise orientation via the shoelace sum
        area2 = float(np.sum(verts[:, 0] * nxt[:, 1] - nxt[:, 0] * verts[:, 1]))
        if area2 <= 0:
            raise DomainError("vertices must be in counterclockwise order")

        # simplicity: no contact between non-adjacent edges
        for i in range(m):
            for j in range(i + 1, m):
                if j == i + 1 or (i == 0 and j == m - 1):
                    continue
                if _segments_touch(verts[i], nxt[i], verts[j], nxt[j],
                                   lengths[i], lengths[j], tol):
                    raise DomainError(
                        f"polygon is not simple: edges {i} and {j} touch")
        # no spikes: consecutive edges must not fold back onto each other
        for i in range(m):
            sin_turn = _cross(e[i - 1], e[i]) / (lengths[i - 1] * lengths[i])
            if abs(sin_turn) <= 1e-12 and float(e[i - 1] @ e[i]) < 0:
                raise DomainError(f"degenerate spike at vertex {i}")

        # free edges must sit on the axis; snap them to x2 = 0 exactly
        snapped = verts.copy()
        for i in free:
            for k in (i, (i + 1) % m):
                if abs(verts[k, 1]) > tol:
                    raise DomainError(
                        f"Free edge {i} has endpoint off the axis x2 = 0 "
                        f"(x2 = {float(verts[k, 1])!r})")
                snapped[k, 1] = 0.0
        if np.any(snapped[:, 1] > tol):
            raise DomainError("polygon has a vertex above the free surface")
        snapped[:, 1] = np.minimum(snapped[:, 1], 0.0)
        for i in range(m):
            if i not in free and min(snapped[i, 1], snapped[(i + 1) % m, 1]) >= -tol:
                raise DomainError(
                    f"Wall edge {i} lies on the free surface; tag it Free "
                    "or move it below the axis")

        e = np.roll(snapped, -1, axis=0) - snapped
        lengths = np.hypot(*e.T)
        normals = np.column_stack([e[:, 1], -e[:, 0]]) / lengths[:, None]
        for name, arr in (("vertices", snapped), ("edge_vectors", e),
                          ("edge_lengths", lengths), ("edge_normals", normals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "free_edges", free)
        object.__setattr__(self, "_tol", tol)

    # -- basic traversal -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def edge_tag(self, i: int) -> str:
        return FREE if i in self.free_edges else WALL

    def edges(self):
        """Yield (index, start point, end point, tag) for every edge."""
        m = self.n_vertices
        for i in range(m):
            yield i, self.vertices[i], self.vertices[(i + 1) % m], self.edge_tag(i)


@dataclass(frozen=True)
class IntervalBase:
    """One-dimensional base (0, length); the cylinder lives in R^2."""
    length: float

    def __post_init__(self):
        _positive(self.length, "interval length")

    @property
    def area(self) -> float:
        return self.length


@dataclass(frozen=True)
class RectangleBase:
    """Rectangular base (0, a) x (0, b); the cylinder lives in R^3."""
    a: float
    b: float

    def __post_init__(self):
        _positive(self.a, "rectangle side a")
        _positive(self.b, "rectangle side b")

    @property
    def area(self) -> float:
        return self.a * self.b


@dataclass(frozen=True)
class ExplicitBase:
    """Base described by its Laplacian eigenvalues and surface measure.

    ``bc`` records which boundary condition the list solves ("neumann" lists
    start at 0, "dirichlet" lists are strictly positive).
    """
    eigenvalues: tuple
    bc: str
    area: float

    def __post_init__(self):
        vals = tuple(float(v) for v in self.eigenvalues)
        if not vals:
            raise DomainError("explicit base needs at least one eigenvalue")
        if any(not math.isfinite(v) for v in vals):
            raise DomainError("base eigenvalues must be finite")
        if any(b > a + 1e-12 * max(1.0, abs(a)) for a, b in zip(vals[1:], vals)):
            raise DomainError("base eigenvalues must be sorted nondecreasing")
        _checked(specfun._boundary_condition, self.bc)
        if self.bc == "neumann" and abs(vals[0]) > 1e-10:
            raise DomainError("a Neumann base spectrum must start at 0")
        if self.bc == "dirichlet" and vals[0] <= 0:
            raise DomainError("a Dirichlet base spectrum must be strictly positive")
        if any(v < -1e-10 for v in vals):
            raise DomainError("base eigenvalues must be nonnegative")
        _positive(self.area, "base area")
        object.__setattr__(self, "eigenvalues", vals)


BaseSpec = Union[IntervalBase, RectangleBase, ExplicitBase]


@dataclass(frozen=True)
class CylinderDomain:
    """Vertical cylinder F x (-h, 0) over a base F of dimension n-1."""

    n: int
    base: BaseSpec
    depth: float

    def __post_init__(self):
        _checked(specfun._dimension, self.n)
        _positive(self.depth, "depth")
        if not isinstance(self.base, (IntervalBase, RectangleBase, ExplicitBase)):
            raise DomainError(f"unsupported base {type(self.base).__name__}")
        if isinstance(self.base, IntervalBase) and self.n != 2:
            raise DomainError("an interval base means a planar cylinder (n = 2)")
        if isinstance(self.base, RectangleBase) and self.n != 3:
            raise DomainError("a rectangle base means n = 3")

    @property
    def base_area(self) -> float:
        return self.base.area


@dataclass(frozen=True)
class ConeDomain:
    """Solid cone of revolution below the surface x3 = 0 (n = 3).

    ``half_angle`` is the angle between the wall and the free surface at the
    rim; alpha < pi/2 slants inward, alpha > pi/2 overhangs.  The free
    surface is the disk of radius depth/|tan(alpha)|.
    """

    half_angle: float
    depth: float

    def __post_init__(self):
        a = self.half_angle
        if not (0 < a < math.pi) or abs(a - math.pi / 2) < 1e-12:
            raise DomainError(
                "half angle must lie in (0, pi) and differ from pi/2, "
                f"got {a}")
        _positive(self.depth, "depth")

    @property
    def n(self) -> int:
        return 3

    @property
    def base_radius(self) -> float:
        return self.depth / abs(math.tan(self.half_angle))


Domain = Union[PolygonalDomain, CylinderDomain, ConeDomain]


# -- measurements ---------------------------------------------------------

def free_length(d: PolygonalDomain) -> float:
    """Total length of the free surface (sum of Free edge lengths)."""
    return float(sum(d.edge_lengths[i] for i in sorted(d.free_edges)))


def free_area(d: Domain) -> float:
    """(n-1)-dimensional measure of the free surface, any domain kind."""
    if isinstance(d, PolygonalDomain):
        return free_length(d)
    if isinstance(d, CylinderDomain):
        return d.base_area
    if isinstance(d, ConeDomain):
        return math.pi * d.base_radius ** 2
    raise DomainError(f"unsupported domain type {type(d).__name__}")


def ambient_dim(d: Domain) -> int:
    if isinstance(d, PolygonalDomain):
        return 2
    return d.n


def depth(d: Domain) -> float:
    """Maximal distance from the surface plane: h = sup |x_n| over the domain."""
    if isinstance(d, PolygonalDomain):
        return float(-d.vertices[:, 1].min())
    return d.depth


def _surface_corners(d: PolygonalDomain):
    """(vertex index, interior angle, wall edge index) of every Free/Wall
    corner, sorted by x-coordinate."""
    m = d.n_vertices
    out = []
    for i in range(m):
        inc = (i - 1) % m   # edge arriving at vertex i
        if d.edge_tag(inc) == d.edge_tag(i):
            continue
        d_in, d_out = d.edge_vectors[inc], d.edge_vectors[i]
        turn = math.atan2(_cross(d_in, d_out), float(d_in @ d_out))
        angle = math.pi - turn
        out.append((i, angle, inc if d.edge_tag(inc) == WALL else i))
    out.sort(key=lambda corner: d.vertices[corner[0], 0])
    return out


def corner_angles(d: PolygonalDomain):
    """Interior angles where the free surface meets the walls.

    Returns a list of ((x, y), angle) pairs sorted by x-coordinate.  Every
    angle lies in (1e-9, pi - 1e-9), at any scale: a wall that left the
    surface within 1e-9 rad of the axis, either way, would end within
    1e-9 times its length, at most the diameter, of the axis, so it would
    lie on the surface, which the domain refuses.  No cusp (zero angle)
    reaches the corner-sensitive bounds.
    """
    return [((float(d.vertices[i, 0]), float(d.vertices[i, 1])), angle)
            for i, angle, _wall in _surface_corners(d)]


def wall_sign_split(d: PolygonalDomain):
    """Partition wall edges by the sign of the outward normal's x2 component.

    Returns (upward, downward) index lists: ``upward`` has <n, e2> > 0
    (overhanging walls), ``downward`` the rest -- vertical walls count as
    downward.
    """
    upward, downward = [], []
    for i in range(d.n_vertices):
        if i not in d.free_edges:
            (upward if d.edge_normals[i, 1] > _SIGN_TOL else downward).append(i)
    return upward, downward


def overhang_depth(d: PolygonalDomain) -> Optional[float]:
    """Smallest depth reached by any overhanging wall point.

    Overhanging walls are those whose outward normal points upward.  Returns
    None when there are none; raises when an overhanging wall touches the
    free surface (the split bound needs positive clearance).
    """
    upward, _ = wall_sign_split(d)
    if not upward:
        return None
    ys = d.vertices[:, 1]
    delta = -float(max(max(ys[i], ys[(i + 1) % d.n_vertices]) for i in upward))
    if delta <= d._tol:
        raise DomainError(
            "an overhanging wall touches the free surface; the overhang "
            "clearance is undefined")
    return delta


def axis_rectangle_sides(d: PolygonalDomain):
    """(length, depth) if d is an axis-aligned rectangle, else None."""
    if d.n_vertices != 4 or np.any(np.all(np.abs(d.edge_vectors) > d._tol, axis=1)):
        return None
    span = d.vertices.max(axis=0) - d.vertices.min(axis=0)
    return float(span[0]), float(span[1])


def john_condition(d: Domain) -> bool:
    """Does the domain lie in the infinite cylinder below its free surface?

    For polygons: the free surface is a single segment [lo, hi] and every
    vertex has lo <= x1 <= hi, i.e. the domain sits inside F x (-inf, 0).
    Cylinders satisfy this by construction; a cone does iff its wall slants
    inward (half angle below pi/2).
    """
    if isinstance(d, CylinderDomain):
        return True
    if isinstance(d, ConeDomain):
        return d.half_angle < math.pi / 2
    # the free edges merged into one interval [lo, hi], if they are connected
    intervals = sorted((min(a[0], b[0]), max(a[0], b[0]))
                       for _i, a, b, tag in d.edges() if tag == FREE)
    lo, hi = intervals[0]
    for a0, b0 in intervals[1:]:
        if a0 > hi + d._tol:
            return False
        hi = max(hi, b0)
    xs = d.vertices[:, 0]
    return bool(xs.min() >= lo - d._tol and xs.max() <= hi + d._tol)


def local_john_condition(d: PolygonalDomain, corner) -> bool:
    """Does the wall leave the given surface corner under the free surface?

    ``corner`` is a corner point as returned by :func:`corner_angles`.  True
    when the wall edge at that corner points into the strip spanned by the
    free surface (vertical walls included), i.e. the corner angle is <= pi/2.
    """
    pt = np.asarray(corner, dtype=float)
    e = d.edge_vectors
    for i, _angle, wall in _surface_corners(d):
        if np.hypot(*(d.vertices[i] - pt)) > d._tol:
            continue
        # a vertical wall, or edges i-1 and i with x components of opposite
        # sign: the wall and the free edge then leave vertex i on one side
        return bool(abs(e[wall, 0]) <= d._tol or e[i - 1, 0] * e[i, 0] < 0)
    raise DomainError(f"point {corner!r} is not a Free/Wall corner of the domain")


def domain_metadata(d: Domain) -> dict:
    """Summary dict attached to spectra: dimension, |F|, depth, angles, John flag."""
    meta: dict = {"n": ambient_dim(d), "areaF": free_area(d), "depth": depth(d)}
    if isinstance(d, PolygonalDomain):
        corners = corner_angles(d)
        if len(corners) == 2:
            meta["alpha"] = corners[0][1]
            meta["beta"] = corners[1][1]
        meta["john"] = john_condition(d)
    elif isinstance(d, CylinderDomain):
        # only an interval base surely has two right-angle surface corners: an
        # explicit eigenvalue list may describe a disconnected surface
        if isinstance(d.base, IntervalBase):
            meta["alpha"] = math.pi / 2
            meta["beta"] = math.pi / 2
        meta["john"] = True
    return meta


# -- canonical constructions ----------------------------------------------

def rectangle_domain(length: float, h: float) -> PolygonalDomain:
    """The rectangle (0, length) x (-h, 0) with free top edge."""
    _positive(length, "length")
    _positive(h, "depth")
    verts = [(0.0, 0.0), (0.0, -h), (length, -h), (length, 0.0)]
    return PolygonalDomain(verts, free_edges=[3])


def isoceles_triangle_domain(length: float, angle: float) -> PolygonalDomain:
    """Isoceles triangle: free surface (0, length), equal base angles.

    The apex sits at (length/2, -length/2 * tan(angle)).
    """
    if not (0 < angle < math.pi / 2):
        raise DomainError("base angle must lie in (0, pi/2)")
    _positive(length, "length")
    h = 0.5 * length * math.tan(angle)
    verts = [(0.0, 0.0), (0.5 * length, -h), (length, 0.0)]
    return PolygonalDomain(verts, free_edges=[2])


def trapezoid_domain(length: float, angle: float, h: float) -> PolygonalDomain:
    """Trapezoid with free surface (0, length), equal wall angles, flat bottom."""
    if not (0 < angle < math.pi):
        raise DomainError("wall angle must lie in (0, pi)")
    _positive(length, "length")
    _positive(h, "depth")
    if abs(angle - math.pi / 2) < 1e-12:
        return rectangle_domain(length, h)
    shift = h / math.tan(angle)
    if length - 2 * shift <= 0 and shift > 0:
        raise DomainError("walls meet before reaching the bottom; reduce depth")
    verts = [(0.0, 0.0), (shift, -h), (length - shift, -h), (length, 0.0)]
    return PolygonalDomain(verts, free_edges=[3])
