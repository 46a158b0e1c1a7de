"""Domain descriptions: areas, angles, wall splits, John conditions."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import geometry
from steklov.geometry import (ConeDomain, CylinderDomain, DomainError,
                              ExplicitBase, IntervalBase, PolygonalDomain,
                              RectangleBase)


def unit_square():
    return geometry.rectangle_domain(1.0, 1.0)


def test_rectangle_domain_layout():
    d = geometry.rectangle_domain(math.pi, 1.0)
    assert d.n_vertices == 4
    assert geometry.free_length(d) == pytest.approx(math.pi, rel=1e-15)
    assert geometry.depth(d) == pytest.approx(1.0)
    tags = [tag for _i, _a, _b, tag in d.edges()]
    assert tags.count(geometry.FREE) == 1
    assert tags.count(geometry.WALL) == 3


def test_rectangle_corner_angles_are_right():
    d = unit_square()
    corners = geometry.corner_angles(d)
    assert len(corners) == 2
    for _pt, angle in corners:
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_isoceles_triangle_angles_and_area():
    d = geometry.isoceles_triangle_domain(2.0, math.pi / 4)
    corners = geometry.corner_angles(d)
    assert [a for _p, a in corners] == pytest.approx([math.pi / 4] * 2)
    # apex depth = (L/2) tan(angle)
    assert geometry.depth(d) == pytest.approx(1.0)
    assert geometry.free_length(d) == pytest.approx(2.0)


def test_trapezoid_reduces_to_rectangle_at_right_angle():
    t = geometry.trapezoid_domain(2.0, math.pi / 2, 0.7)
    r = geometry.rectangle_domain(2.0, 0.7)
    assert np.allclose(np.sort(t.vertices, axis=0), np.sort(r.vertices, axis=0))


def test_free_surface_must_be_on_axis():
    with pytest.raises(DomainError):
        PolygonalDomain([(0, 0), (1, -0.3), (1, 1)], free_edges=[2])


def test_polygon_requires_some_free_edge():
    with pytest.raises(DomainError):
        PolygonalDomain([(0, 0), (1, 0), (1, -1), (0, -1)], free_edges=[])


@pytest.mark.parametrize("index", [3.7, 3.0, True, "3", -1, 4])
def test_free_edge_indices_are_integers_in_range(index):
    with pytest.raises(DomainError, match=re.escape(f"got {index!r}")):
        PolygonalDomain([(0, 0), (0, -1), (2, -1), (2, 0)], free_edges=[index])
    d = PolygonalDomain([(0, 0), (0, -1), (2, -1), (2, 0)], free_edges=np.array([3]))
    assert d.free_edges == {3}


def test_domain_below_surface_check():
    # a vertex strictly above y = 0 is not a sloshing geometry; the polygon
    # is counterclockwise, so the orientation check passes it on
    with pytest.raises(DomainError, match="^polygon has a vertex above the free surface$"):
        PolygonalDomain([(0, 0), (0, -1), (3, -1), (3, 1), (2, 0)], free_edges=[4])


def pocket_polygon():
    """Non-convex domain whose wall between depths 0.5 and 1 faces upward."""
    return PolygonalDomain([(0, 0), (1.0, -0.5), (0.5, -1), (2, -1), (2, 0)],
                           free_edges=[4])


def test_wall_sign_split_rectangle_has_no_upward_walls():
    up, down = geometry.wall_sign_split(unit_square())
    assert up == []
    assert len(down) == 3  # vertical walls count as downward


def test_wall_sign_split_detects_overhang():
    d = pocket_polygon()
    up, down = geometry.wall_sign_split(d)
    assert len(up) == 1
    a = d.vertices[up[0]]
    b = d.vertices[(up[0] + 1) % d.n_vertices]
    assert sorted([a[1], b[1]]) == pytest.approx([-1.0, -0.5])


def w_polygon():
    """Two free edges, (3, 0)-(2, 0) and (1, 0)-(0, 0), with a wall dipping
    between them: a disconnected free surface with four corners."""
    return PolygonalDomain([(0, 0), (0, -1), (3, -1), (3, 0), (2, 0), (1.5, -0.5),
                            (1, 0)], free_edges=[3, 6])


def test_john_condition_rectangle_vs_wide_bottom():
    assert geometry.john_condition(unit_square())
    # bottom wider than the free surface: sticks out of the strip below F
    d = PolygonalDomain([(0, 0), (-1, -1), (2, -1), (1, 0)], free_edges=[3])
    assert not geometry.john_condition(d)
    # a free surface in two pieces is no one F to lie under
    assert not geometry.john_condition(w_polygon())


def test_cylinder_properties():
    c = CylinderDomain(3, RectangleBase(1.0, 2.0), 0.5)
    assert geometry.ambient_dim(c) == 3
    assert geometry.free_area(c) == pytest.approx(2.0)
    assert geometry.depth(c) == pytest.approx(0.5)
    assert geometry.john_condition(c)


def test_interval_base_is_planar_cylinder():
    c = CylinderDomain(2, IntervalBase(math.pi), 1.0)
    assert geometry.free_area(c) == pytest.approx(math.pi)
    assert geometry.ambient_dim(c) == 2


def test_explicit_base_keeps_given_data():
    b = ExplicitBase((0.0, 1.5, 2.5), "neumann", 4.0)
    c = CylinderDomain(3, b, 2.0)
    assert geometry.free_area(c) == pytest.approx(4.0)


def test_cone_geometry():
    # half angle measured between wall and surface at the rim
    cone = ConeDomain(math.pi / 6, 2.0)
    assert geometry.ambient_dim(cone) == 3
    r = 2.0 / math.tan(math.pi / 6)
    assert cone.base_radius == pytest.approx(r)
    assert geometry.free_area(cone) == pytest.approx(math.pi * r * r)
    assert geometry.john_condition(cone)


def test_overhanging_cone_fails_john():
    assert not geometry.john_condition(ConeDomain(2.0, 1.0))  # alpha > pi/2


def test_domain_metadata_roundtrip_keys():
    meta = geometry.domain_metadata(geometry.rectangle_domain(3.0, 1.5))
    assert meta["n"] == 2
    assert meta["areaF"] == pytest.approx(3.0)
    assert meta["depth"] == pytest.approx(1.5)
    assert meta["john"] is True
    assert meta["alpha"] == pytest.approx(math.pi / 2)


def test_metadata_for_triangle_includes_angles():
    meta = geometry.domain_metadata(
        geometry.isoceles_triangle_domain(2.0, math.pi / 4))
    assert meta["alpha"] == pytest.approx(math.pi / 4)
    assert meta["beta"] == pytest.approx(math.pi / 4)


def test_axis_rectangle_sides():
    assert geometry.axis_rectangle_sides(unit_square()) == pytest.approx((1.0, 1.0))
    tri = geometry.isoceles_triangle_domain(1.0, math.pi / 4)
    assert geometry.axis_rectangle_sides(tri) is None


def test_local_john_condition_at_corners():
    d = unit_square()
    for pt, _angle in geometry.corner_angles(d):
        assert geometry.local_john_condition(d, pt)  # vertical walls
    tri = geometry.isoceles_triangle_domain(2.0, math.pi / 4)
    for pt, _angle in geometry.corner_angles(tri):
        assert geometry.local_john_condition(tri, pt)


def test_overhang_depth_is_min_clearance():
    assert geometry.overhang_depth(pocket_polygon()) == pytest.approx(0.5)
    assert geometry.overhang_depth(unit_square()) is None


@st.composite
def radial_polygons(draw):
    """Polygons star-shaped about the origin, on the free edge: the vertices
    sit at increasing angles below the axis, at one radius (convex) or at
    random radii (mostly non-convex, often with overhanging walls)."""
    cuts = np.cumsum(draw(st.lists(st.floats(1.0, 3.0), min_size=3, max_size=12)))
    thetas = math.pi * (1.0 + cuts[:-1] / cuts[-1])
    k = len(thetas) + 2
    radii = draw(st.one_of(
        st.floats(0.3, 2.0).map(lambda r: [r] * k),
        st.lists(st.floats(0.3, 2.0), min_size=k, max_size=k)))
    verts = [(-radii[0], 0.0)] + [
        (r * math.cos(t), r * math.sin(t)) for r, t in zip(radii[1:], thetas)
    ] + [(radii[-1], 0.0)]
    return PolygonalDomain(verts, free_edges=[len(verts) - 1])


@settings(max_examples=60, deadline=None)
@given(d=radial_polygons())
def test_edge_table_matches_per_edge_definitions(d):
    total, upward, downward = 0.0, [], []
    for i, a, b, tag in d.edges():
        e = b - a
        length = np.hypot(*e)
        u = e / length
        normal = np.array([u[1], -u[0]])
        assert d.edge_vectors[i].tobytes() == e.tobytes()
        assert d.edge_lengths[i].tobytes() == length.tobytes()
        assert d.edge_normals[i].tobytes() == normal.tobytes()
        if tag == geometry.FREE:
            total += float(length)
        else:
            (upward if float(normal[1]) > 1e-12 else downward).append(i)
    assert geometry.free_length(d).hex() == total.hex()
    assert geometry.wall_sign_split(d) == (upward, downward)
    for table in (d.edge_vectors, d.edge_lengths, d.edge_normals):
        assert not table.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: IntervalBase(math.inf),
    lambda: RectangleBase(1.0, math.nan),
    lambda: RectangleBase(math.inf, 1.0),
    lambda: ExplicitBase((0.0,), "neumann", math.inf),
    lambda: CylinderDomain(2, IntervalBase(1.0), math.inf),
    lambda: ConeDomain(0.5, math.inf),
    lambda: ConeDomain(0.5, math.nan),
])
def test_domain_sizes_must_be_finite(build):
    with pytest.raises(DomainError, match="must be a finite real > 0"):
        build()


def test_polygon_with_an_edge_whose_square_underflows():
    # an edge of 1e-162 is above the 1e-9 diameter tolerance, yet its
    # squared length is 0.0: the simplicity check measures distances to it
    # without dividing by it
    d = PolygonalDomain([(0, 0), (0, -1e-154), (1e-162, -1e-154), (1e-154, 0)],
                        free_edges=[3])
    assert geometry.free_length(d) == 1e-154


# id -> (call, the DomainError's whole message)
REFUSALS = {
    "two vertices": (lambda: PolygonalDomain([(0, 0), (1, 0)], [0]),
                     "vertices must be an (m, 2) array with m >= 3"),
    "infinite vertex": (lambda: PolygonalDomain([(0, 0), (0, -1), (math.inf, 0)], [2]),
                        "vertices contain non-finite coordinates"),
    "one point": (lambda: PolygonalDomain([(0, 0)] * 3, [2]),
                  "degenerate polygon (zero diameter)"),
    "repeated vertex": (lambda: PolygonalDomain([(0, 0), (0, -1), (0, -1), (1, 0)], [3]),
                        "zero-length edge (repeated vertex)"),
    "clockwise": (lambda: PolygonalDomain([(0, 0), (1, 0), (1, -1)], [0]),
                  "vertices must be in counterclockwise order"),
    "not simple": (lambda: PolygonalDomain([(0, 0), (0, -2), (3, -2), (3, 0), (1, -1),
                                            (2, -1), (2, 0)], [6]),
                   "polygon is not simple: edges 3 and 5 touch"),
    "spike": (lambda: PolygonalDomain([(0, 0), (2, -1e-13), (1, 0)], [2]),
              "degenerate spike at vertex 0"),
    "free edge off the axis": (lambda: PolygonalDomain([(0, 0), (0, -1), (1, 1)], [2]),
                               "Free edge 2 has endpoint off the axis x2 = 0 (x2 = 1.0)"),
    "wall on the surface": (
        lambda: PolygonalDomain([(0, 0), (0, -1), (2, -1), (2, 0), (1, 0)], [4]),
        "Wall edge 3 lies on the free surface; tag it Free or move it below the axis"),
    "no base eigenvalue": (lambda: ExplicitBase((), "neumann", 1.0),
                           "explicit base needs at least one eigenvalue"),
    "infinite base eigenvalue": (lambda: ExplicitBase((0.0, math.inf), "neumann", 1.0),
                                 "base eigenvalues must be finite"),
    "unsorted base": (lambda: ExplicitBase((0.0, 2.0, 1.0), "neumann", 1.0),
                      "base eigenvalues must be sorted nondecreasing"),
    "robin base": (lambda: ExplicitBase((0.0,), "robin", 1.0),
                   "bc must be 'neumann' or 'dirichlet', got 'robin'"),
    "neumann base above 0": (lambda: ExplicitBase((1.0,), "neumann", 1.0),
                             "a Neumann base spectrum must start at 0"),
    "dirichlet base at 0": (lambda: ExplicitBase((0.0, 1.0), "dirichlet", 1.0),
                            "a Dirichlet base spectrum must be strictly positive"),
    # within the sorting slack of 1e-12, below the -1e-10 floor
    "negative base eigenvalue": (
        lambda: ExplicitBase((-1e-10, -1.005e-10), "neumann", 1.0),
        "base eigenvalues must be nonnegative"),
    "cylinder n = 1": (lambda: CylinderDomain(1, IntervalBase(1.0), 1.0),
                       "dimension must be an integer >= 2, got 1"),
    "cylinder n = 2.0": (lambda: CylinderDomain(2.0, IntervalBase(1.0), 1.0),
                         "dimension must be an integer >= 2, got 2.0"),
    "interval base, n = 3": (lambda: CylinderDomain(3, IntervalBase(1.0), 1.0),
                             "an interval base means a planar cylinder (n = 2)"),
    "rectangle base, n = 2": (lambda: CylinderDomain(2, RectangleBase(1.0, 1.0), 1.0),
                              "a rectangle base means n = 3"),
    "cone at pi/2": (lambda: ConeDomain(math.pi / 2, 1.0),
                     "half angle must lie in (0, pi) and differ from pi/2, "
                     "got 1.5707963267948966"),
    "no domain": (lambda: geometry.free_area(object()), "unsupported domain type object"),
    # a wall leaving at 5e-6 rad, below the 1e-9 * diameter (1e-5) tolerance
    "cusp": (lambda: geometry.corner_angles(
        PolygonalDomain([(0, 0), (1e4, -0.05), (1e4, 0)], [2])),
             "cusp (zero angle) at surface corner 0"),
    "overhang at the surface": (
        lambda: geometry.overhang_depth(
            geometry.trapezoid_domain(math.pi, 2 * math.pi / 3, 1.0)),
        "an overhanging wall touches the free surface; the overhang clearance "
        "is undefined"),
    "no corner there": (
        lambda: geometry.local_john_condition(unit_square(), (0.5, 0.0)),
        "point (0.5, 0.0) is not a Free/Wall corner of the domain"),
    "rectangle length inf": (lambda: geometry.rectangle_domain(math.inf, 1.0),
                             "length must be a finite real > 0, got inf"),
    "rectangle depth 0": (lambda: geometry.rectangle_domain(1.0, 0.0),
                          "depth must be a finite real > 0, got 0.0"),
    "triangle angle pi/2": (lambda: geometry.isoceles_triangle_domain(1.0, math.pi / 2),
                            "base angle must lie in (0, pi/2)"),
    "triangle length 0": (lambda: geometry.isoceles_triangle_domain(0.0, math.pi / 4),
                          "length must be a finite real > 0, got 0.0"),
    "trapezoid angle pi": (lambda: geometry.trapezoid_domain(1.0, math.pi, 1.0),
                           "wall angle must lie in (0, pi)"),
    "trapezoid length -1": (lambda: geometry.trapezoid_domain(-1.0, math.pi / 3, 1.0),
                            "length must be a finite real > 0, got -1.0"),
    "trapezoid depth inf": (lambda: geometry.trapezoid_domain(2.0, math.pi / 3, math.inf),
                            "depth must be a finite real > 0, got inf"),
    "trapezoid walls meet": (lambda: geometry.trapezoid_domain(2.0, math.pi / 3, 2.0),
                             "walls meet before reaching the bottom; reduce depth"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_the_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
