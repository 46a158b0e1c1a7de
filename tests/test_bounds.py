"""Bound evaluation: wall terms, lower/upper bounds, sum rules, verify().

The wall-term identities are checked against adaptive quadrature (the
package's closed forms must agree to near machine precision); bound
inequalities are exercised on exact rectangle and cylinder spectra where the
truth is known to 1e-15.
"""

from __future__ import annotations

import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from steklov import bounds, geometry, riesz, specfun, spectra
from steklov.bounds import HypothesisError
from steklov.geometry import (ConeDomain, CylinderDomain, DomainError,
                              IntervalBase, PolygonalDomain, RectangleBase)


RECT = geometry.rectangle_domain(math.pi, 1.0)
CYL3 = CylinderDomain(3, RectangleBase(1.0, 2.0), 0.75)
CONE = ConeDomain(math.pi / 5, 0.8)


# ---------------------------------------------------------------------------
# wall terms
# ---------------------------------------------------------------------------

def test_wall_term_vanishes_at_zero():
    for dom in (RECT, CYL3, CONE):
        assert bounds.wall_term(dom, 0.0) == 0.0


def test_wall_term_rectangle_closed_form_vs_quadrature():
    for z in (0.5, 2.0, 10.0):
        exact = bounds.wall_term(RECT, z)
        via_quad = bounds.wall_term(RECT, z, quadrature=True)
        assert exact == pytest.approx(via_quad, rel=1e-10, abs=1e-12)


def test_wall_term_rectangle_explicit_integral():
    # only the flat bottom contributes; the vertical sides have <n, e2> = 0:
    #   A(z) = (L / pi) * integral_0^z r e^{-2 h r} dr
    length, h = math.pi, 1.0
    for z in (0.7, 3.0):
        oracle = length / math.pi * quad(
            lambda r: r * math.exp(-2 * h * r), 0.0, z)[0]
        assert bounds.wall_term(RECT, z) == pytest.approx(oracle, rel=1e-12)


def test_wall_term_slanted_edge_series_branch():
    # nearly horizontal slanted wall exercises the short-edge series path
    d = PolygonalDomain([(0, 0), (0, -1), (3, -1 - 1e-7), (3, 0)],
                        free_edges=[3])
    for z in (0.5, 4.0):
        exact = bounds.wall_term(d, z)
        via_quad = bounds.wall_term(d, z, quadrature=True)
        assert exact == pytest.approx(via_quad, rel=1e-9)


@pytest.mark.parametrize("ybar, dy, z", [(-1.5, 1.1e-6, 1000.0),
                                         (-2.75, -5e-6, 314.0)])
def test_deep_near_level_edge_matches_mpmath(ybar, dy, z):
    # |dy| z > 1e-3 but |dy| is tiny against the reach 1/(2 |ybar|) of the
    # weight: the difference of expm1 terms lost ~1e-10 relative here, so
    # the gamma = 1 edge takes the series on the lift's criterion
    mpmath = pytest.importorskip("mpmath")
    d = PolygonalDomain([(0, 0), (0, ybar - dy / 2), (2, ybar + dy / 2), (2, 0)],
                        free_edges=[3])
    (weight, y0, y1), = bounds._wall_edges(d)
    with mpmath.workdps(50):
        a0, a1, zz = mpmath.mpf(y0), mpmath.mpf(y1), mpmath.mpf(z)

        def anti(y):
            return mpmath.expm1(2 * zz * y) / (2 * y)

        want = weight * float((anti(a1) - anti(a0)) / (2 * (a1 - a0)))
    assert bounds.wall_term(d, z) == pytest.approx(want, rel=1e-12, abs=0)


def test_wall_term_cylinder_closed_form_vs_quadrature():
    for z in (0.5, 2.0, 10.0):
        exact = bounds.wall_term(CYL3, z)
        via_quad = bounds.wall_term(CYL3, z, quadrature=True)
        assert exact == pytest.approx(via_quad, rel=1e-10)


def test_wall_term_cone_closed_form_vs_quadrature():
    for z in (0.5, 2.0, 10.0):
        exact = bounds.wall_term(CONE, z)
        via_quad = bounds.wall_term(CONE, z, quadrature=True)
        assert exact == pytest.approx(via_quad, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("z", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0])
def test_cone_wall_term_matches_mpmath_at_small_z(z):
    # the elementary form z - (1 - e^{-2hz})/h + z e^{-2hz} cancels as z -> 0
    # (1.2e2 relative off at z = 1e-6 on this cone)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        h, zz = mpmath.mpf(CONE.depth), mpmath.mpf(z)
        e = mpmath.exp(-2 * h * zz)
        want = float(cone_coef(CONE) * (zz - (1 - e) / h + zz * e))
    assert bounds.wall_term(CONE, z) == pytest.approx(want, rel=1e-12, abs=0)


def test_wall_term_overhanging_cone_sign():
    # cos(alpha) < 0 flips the prefactor sign
    steep = ConeDomain(2.2, 0.8)
    assert bounds.wall_term(steep, 2.0) < 0
    assert bounds.wall_term(CONE, 2.0) > 0


def test_sum_bound_identity_all_domain_kinds():
    # c(R) * |F| = -(2 pi)^{n-1} A(R), by definition, to near machine precision
    for dom in (RECT, CYL3, CONE):
        n = geometry.ambient_dim(dom)
        area = geometry.free_area(dom)
        for R in (0.5, 2.0, 10.0):
            lhs = bounds.sum_bound_wall_term(dom, R) * area
            rhs = -(2 * math.pi) ** (n - 1) * bounds.wall_term(dom, R)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_sum_bounds_take_the_metadata_cylinder():
    # without a domain, the sum bounds take the wall integral on the vertical
    # cylinder F x (-h, 0) built from the spectrum's n, areaF and depth
    values = spectra.rectangle_sn(math.pi, 1.0, 100).values
    s = spectra.Spectrum(problem="SN", values=values, source="synthetic",
                         meta={"n": 3, "areaF": 2.0, "depth": 0.75})
    cyl = CylinderDomain(3, geometry.ExplicitBase((0.0,), "neumann", 2.0), 0.75)
    ks, Rs = np.arange(1, 60), np.linspace(0.5, 30.0, 59)
    for got, want in zip(bounds.kroger_master(s, ks, Rs),
                         bounds.kroger_master(s, ks, Rs, domain=cyl)):
        assert got.tolist() == want.tolist()
    general = bounds.kroger_sum_bound(s, ks)
    assert general.form == "general"
    on_cyl = bounds.kroger_sum_bound(s, ks, domain=cyl)
    assert general.bound.tolist() == on_cyl.bound.tolist()
    bare = spectra.Spectrum(problem="SN", values=values, source="synthetic",
                            meta={"n": 3, "areaF": 2.0})
    for call in (lambda: bounds.kroger_master(bare, 3, 1.0),
                 lambda: bounds.kroger_sum_bound(bare, 3)):
        with pytest.raises(HypothesisError, match="depth unknown"):
            call()


def test_sum_bound_wall_term_nonpositive_without_overhang():
    for dom in (RECT, CYL3):
        for R in (0.1, 1.0, 20.0):
            assert bounds.sum_bound_wall_term(dom, R) <= 0.0


def test_wall_term_gamma_reduces_to_gamma_one():
    assert bounds.wall_term_gamma(RECT, 1.0, 2.5) == pytest.approx(
        bounds.wall_term(RECT, 2.5), rel=0)


def test_wall_term_gamma_two_is_double_integral():
    # gamma = 2: A_2(z) = 2 integral_0^z A_1(t) dt
    z = 3.0
    oracle = 2.0 * quad(lambda t: bounds.wall_term(RECT, t), 0.0, z,
                        epsabs=1e-13)[0]
    assert bounds.wall_term_gamma(RECT, 2.0, z) == pytest.approx(oracle, rel=1e-9)


def test_wall_term_gamma_fractional_branch():
    # 1 < gamma < 2 goes through the singularity-removing substitution;
    # cross-check against the direct weighted integral at a safe distance
    # from the endpoint
    z, g = 2.0, 1.5
    oracle = g * (g - 1.0) * quad(
        lambda t: (z - t) ** (g - 2.0) * bounds.wall_term(RECT, t), 0.0, z,
        points=[z], epsabs=1e-12)[0]
    assert bounds.wall_term_gamma(RECT, g, z) == pytest.approx(oracle, rel=1e-7)


# ---------------------------------------------------------------------------
# closed-form Riesz lift against a pure-relative quadrature oracle
# ---------------------------------------------------------------------------
#
# Every wall term is A(t) = integral_0^t phi(r) dr, so its lift to gamma > 1 is
# g (g-1) int_0^z (z-t)^{g-2} A(t) dt = g int_0^z (z-r)^{g-1} phi(r) dr.  The
# oracle integrates the second form with the algebraic weight (QUADPACK QAWS)
# and no absolute tolerance, from integrands written without cancellation.

def lift_oracle(phi, g, z):
    val, _ = quad(phi, 0.0, z, weight="alg", wvar=(0.0, g - 1.0),
                  epsabs=0.0, epsrel=1e-13, limit=400)
    return g * val


def edge_phi(y0, y1):
    """d/dr of the per-unit-length edge flux: r * mean_s e^{2 r y(s)}."""
    dy, ybar = y1 - y0, 0.5 * (y0 + y1)
    if dy == 0.0:
        return lambda r: r * math.exp(2.0 * r * ybar)

    def phi(r):
        if abs(r * dy) < 1.0:
            return math.exp(2.0 * r * ybar) * math.sinh(r * dy) / dy
        return (math.exp(2.0 * r * y1) - math.exp(2.0 * r * y0)) / (2.0 * dy)
    return phi


def polygon_lift_oracle(d, g, z):
    """(oracle lift, sum of |per-edge lifts|) for a polygonal domain."""
    total = scale = 0.0
    for i, a, b, tag in d.edges():
        n2 = float(d.edge_normal(i)[1])
        if tag == geometry.FREE or n2 == 0.0:
            continue
        part = -n2 * float(np.hypot(*(b - a))) / math.pi \
            * lift_oracle(edge_phi(float(a[1]), float(b[1])), g, z)
        total += part
        scale += abs(part)
    return total, scale


def cone_coef(dom):
    return math.copysign(1.0, math.cos(dom.half_angle)) \
        / (4.0 * math.tan(dom.half_angle) ** 2)


def two_corner_pieces_oracle(alpha, beta, delta, bc_length, g, z):
    """Lifted corner and residual-wall pieces of c1 (see sn_lower_2d_angles)."""
    cots = bounds._cot(alpha) + bounds._cot(beta)
    corner = lift_oracle(lambda r: cots / (2 * math.pi) * math.exp(-2 * delta * r), g, z)
    resid = lift_oracle(lambda r: bc_length / math.pi * r * math.exp(-2 * delta * r), g, z)
    return corner, resid


BOX = CylinderDomain(3, RectangleBase(math.pi, math.pi), 1.0)
TRAPEZOID = geometry.trapezoid_domain(math.pi, 2 * math.pi / 3, 1.0)


@pytest.mark.parametrize("z", [1e-3, 1e-2])
def test_lift_keeps_relative_accuracy_at_small_z(z):
    # adaptive quadrature on an absolute tolerance of 1e-12 stopped early
    # here (4.7e-5 relative off on the box cylinder at gamma 2.5)
    g = 2.5
    kappa = 2 * specfun.unit_ball_volume(2) / (2 * math.pi) ** 2
    oracle = lift_oracle(lambda r: kappa * math.pi ** 2 * r * r * math.exp(-2 * r), g, z)
    assert bounds.wall_term_gamma(BOX, g, z) == pytest.approx(oracle, rel=1e-10, abs=0)

    want, _ = polygon_lift_oracle(TRAPEZOID, g, z)
    assert bounds.wall_term_gamma(TRAPEZOID, g, z) == pytest.approx(want, rel=1e-10, abs=0)

    corner, resid = two_corner_pieces_oracle(math.pi / 4, math.pi / 3, 0.5, 1.5, g, z)
    res = bounds.sn_lower_2d_angles(math.pi / 4, math.pi / 3, 0.5, 1.5, 2.0, g, z)
    assert res.c == pytest.approx(-corner - resid, rel=1e-10, abs=0)
    assert res.c_stated == pytest.approx(corner - resid, rel=1e-10, abs=0)


# gamma = 1 exactly is the unlifted wall term, through the same lift
gammas = st.one_of(st.just(1.0), st.floats(1.0, 4.0, exclude_min=True))
log_z = st.floats(-3.0, 3.0)


@st.composite
def wall_polygons(draw):
    """Convex polygons under a free edge on y = 0: the lower arc of an ellipse
    whose centre sits c below the surface, so the walls overhang for c > 0."""
    a = draw(st.floats(0.5, 2.0))
    b = draw(st.floats(0.3, 1.5))
    c = b * draw(st.floats(-0.7, 0.7))
    phi0 = math.asin(c / b)
    cuts = np.cumsum(draw(st.lists(st.floats(1.0, 3.0), min_size=2, max_size=7)))
    phis = math.pi - phi0 + (math.pi + 2 * phi0) * cuts[:-1] / cuts[-1]
    half = a * math.cos(phi0)
    verts = [(-half, 0.0)] + [(a * math.cos(t), min(-c + b * math.sin(t), 0.0))
                              for t in phis] + [(half, 0.0)]
    return geometry.PolygonalDomain(verts, free_edges=[len(verts) - 1])


@settings(max_examples=60, deadline=None)
@given(d=wall_polygons(), g=gammas, lz=log_z)
def test_polygon_lift_matches_oracle(d, g, lz):
    z = 10.0 ** lz
    want, scale = polygon_lift_oracle(d, g, z)
    assert abs(bounds.wall_term_gamma(d, g, z) - want) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(g=gammas, lz=log_z, depth=st.floats(0.05, 2.0),
       ratio=st.floats(-1.0, 1.0), sign=st.sampled_from([-1.0, 1.0]),
       over=st.floats(-0.4, 0.4))
def test_near_level_edge_lift_straddles_series_switch(g, lz, depth, ratio, sign, over):
    # a quadrilateral whose bottom tilts by dy, drawn within a factor 10 of
    # the point where the edge lift switches from exponentials to the series
    z = 10.0 ** lz
    switch = 1e-3 * (1.0 + 2.0 * depth * z) / z
    dy = sign * min(switch * 10.0 ** ratio, 0.5 * depth)
    d = geometry.PolygonalDomain(
        [(0.0, 0.0), (-over, -depth), (2.0 + over, -depth - dy), (2.0, 0.0)],
        free_edges=[3])
    want, scale = polygon_lift_oracle(d, g, z)
    assert abs(bounds.wall_term_gamma(d, g, z) - want) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), area=st.floats(0.5, 5.0), h=st.floats(0.1, 2.0),
       g=gammas, lz=log_z)
def test_cylinder_lift_matches_oracle(n, area, h, g, lz):
    z = 10.0 ** lz
    dom = CylinderDomain(n, geometry.ExplicitBase((0.0,), "neumann", area), h)
    kappa = (n - 1) * specfun.unit_ball_volume(n - 1) / (2 * math.pi) ** (n - 1)
    want = lift_oracle(lambda r: kappa * area * r ** (n - 1) * math.exp(-2 * h * r), g, z)
    assert bounds.wall_term_gamma(dom, g, z) == pytest.approx(want, rel=1e-10, abs=0)


@settings(max_examples=40, deadline=None)
@given(alpha=st.one_of(st.floats(0.2, 1.4), st.floats(1.75, 2.9)),
       h=st.floats(0.1, 2.0), g=gammas, lz=log_z)
def test_cone_lift_matches_oracle(alpha, h, g, lz):
    # profile 1 - e^{-x}(1 + x) = P(2, x), x = 2hr, the regularized lower
    # incomplete gamma function: no cancellation at small x
    z = 10.0 ** lz
    dom = ConeDomain(alpha, h)
    want = cone_coef(dom) * lift_oracle(lambda r: gammainc(2, 2 * h * r), g, z)
    assert bounds.wall_term_gamma(dom, g, z) == pytest.approx(want, rel=1e-10, abs=0)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.2, 2.9), beta=st.floats(0.2, 2.9),
       delta=st.floats(0.05, 2.0), bc_length=st.floats(0.0, 3.0),
       g=gammas, lz=log_z)
def test_two_corner_lift_matches_oracle(alpha, beta, delta, bc_length, g, lz):
    z = 10.0 ** lz
    corner, resid = two_corner_pieces_oracle(alpha, beta, delta, bc_length, g, z)
    scale = abs(corner) + abs(resid)
    res = bounds.sn_lower_2d_angles(alpha, beta, delta, bc_length, 2.0, g, z)
    assert abs(res.c - (-corner - resid)) <= 1e-10 * scale
    assert abs(res.c_stated - (corner - resid)) <= 1e-10 * scale


def test_verify_lifted_grid_matches_scalar_bounds():
    # verify evaluates main and triangle on the whole grid at once; the
    # public scalar functions stay the reference
    s = spectra.rectangle_sn(math.pi, 1.0, 2000)
    grid = np.concatenate(([0.0], np.geomspace(1e-3, 300.0, 25)))
    for g in (1.5, 2.0, 2.5):
        rep = bounds.verify(s, "main", grid, gamma=g, domain=TRAPEZOID)
        scalar = [bounds.sn_lower_main(TRAPEZOID, g, float(z)) for z in grid]
        assert rep.bound_values == pytest.approx(scalar, rel=1e-13, abs=1e-300)
        rep = bounds.verify(s, "triangle", grid, gamma=g, domain=RECT)
        p = bounds.two_corner_params(RECT)
        last = bounds.sn_lower_2d_angles(p["alpha"], p["beta"], p["delta"],
                                         p["bc_length"], math.pi, g, grid[-1])
        assert rep.params["c_at_grid_end"] == pytest.approx(last.c, rel=1e-13)
        assert rep.params["c_stated_at_grid_end"] == pytest.approx(last.c_stated,
                                                                   rel=1e-13)
    with pytest.raises(ValueError, match="gamma >= 1"):
        bounds.verify(s, "main", grid, gamma=0.5, domain=TRAPEZOID)


# ---------------------------------------------------------------------------
# gamma = 1 grid evaluation against the public scalar functions, bit for bit
# ---------------------------------------------------------------------------

SN_EXACT = spectra.rectangle_sn(math.pi, 1.0, 1500)
SD_EXACT = spectra.rectangle_sd(math.pi, 1.0, 1500)


@st.composite
def notch_polygons(draw):
    """A wall that turns back under itself below the surface:
    (0,0) -> (x1,-y1) -> (x1-u,-y2) -> (L,-y3) -> (L,0).  The second edge
    overhangs with clearance y1 > 0, so the split bound applies."""
    x1, y1 = draw(st.floats(0.3, 1.0)), draw(st.floats(0.2, 1.0))
    u, y2 = draw(st.floats(0.1, 0.8)), y1 + draw(st.floats(0.2, 1.0))
    length, y3 = x1 + draw(st.floats(0.5, 2.0)), y1 + draw(st.floats(0.0, 1.0))
    return PolygonalDomain([(0, 0), (x1, -y1), (x1 - u, -y2), (length, -y3),
                            (length, 0)], free_edges=[4])


def cylinders():
    return st.builds(lambda n, area, h: CylinderDomain(
        n, geometry.ExplicitBase((0.0,), "neumann", area), h),
        st.integers(2, 4), st.floats(0.5, 5.0), st.floats(0.1, 2.0))


def cones(overhang=True):
    alphas = st.floats(0.2, 1.4)
    if overhang:
        alphas = st.one_of(alphas, st.floats(1.75, 2.9))
    return st.builds(ConeDomain, alphas, st.floats(0.1, 2.0))


def z_grids(lo=0.0):
    point = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u))
    return st.lists(point, min_size=1, max_size=25).map(
        lambda zs: lo + np.array(zs))


def k_grids(s):
    return st.lists(st.integers(1, len(s) - 2), min_size=1, max_size=25).map(
        lambda ks: np.array(ks, dtype=float))


def _metadata_domain(n, area, h):
    # the comparison domain verify builds from metadata for main and split
    return CylinderDomain(n, geometry.ExplicitBase((0.0,), "neumann", area), h)


def _grid_case(bound_id, draw):
    """(spectrum, grid, verify keywords, reference) for one random case; the
    reference maps the report to (bound values, observed values) from the
    public scalar functions, point by point."""
    areas, depths = st.floats(0.5, 5.0), st.floats(0.1, 2.0)
    if bound_id in ("main", "split"):
        overhang = bound_id == "main"
        dom = draw(st.one_of(wall_polygons(), notch_polygons(), cylinders(),
                             cones(overhang), st.none()))
        if bound_id == "split" and isinstance(dom, PolygonalDomain) \
                and geometry.wall_sign_split(dom)[0]:
            dom = draw(notch_polygons())    # overhang must clear the surface
        kwargs = {"domain": dom}
        if dom is None:
            n, area, h = draw(st.integers(2, 4)), draw(areas), draw(depths)
            kwargs = {"params": {"n": n, "areaF": area, "depth": h}}
            dom = _metadata_domain(n, area, h)
        if bound_id == "main":
            scalar = lambda z, rep: bounds.sn_lower_main(dom, 1.0, z)
        else:
            scalar = lambda z, rep: bounds.sn_lower_split(dom, z)
        return SN_EXACT, draw(z_grids()), kwargs, scalar
    if bound_id == "triangle":
        dom = draw(st.one_of(wall_polygons(), notch_polygons(), st.none()))
        kwargs = {"domain": dom} if dom is not None else {"params": {
            "alpha": draw(st.floats(0.2, 2.9)), "beta": draw(st.floats(0.2, 2.9)),
            "delta": draw(depths), "bc_length": draw(st.floats(0.0, 3.0))}}

        def scalar(z, rep):
            p = rep.params
            return bounds.sn_lower_2d_angles(p["alpha"], p["beta"], p["delta"],
                                             p["bc_length"], p["areaF"], 1.0, z).value
        return SN_EXACT, draw(z_grids()), kwargs, scalar
    if bound_id == "john2d":
        area = draw(areas)
        return SN_EXACT, draw(z_grids()), {"params": {"areaF": area}}, \
            lambda z, rep: bounds.sn_lower_john_2d(area, 1.0, z)
    if bound_id == "johnNd":
        n, area, h = draw(st.integers(2, 4)), draw(areas), draw(depths)
        return SN_EXACT, draw(z_grids()), \
            {"params": {"n": n, "areaF": area, "depth": h}}, \
            lambda z, rep: bounds.sn_lower_john_ndim(area, h, n, z)
    if bound_id == "via-neumann":
        n, area, width = draw(st.integers(3, 4)), draw(areas), draw(areas)
        return SN_EXACT, draw(z_grids()), \
            {"params": {"n": n, "areaF": area, "width": width}}, \
            lambda z, rep: bounds.sn_lower_via_neumann(area, width, n, z)
    if bound_id == "sd-upper":
        n, area = draw(st.integers(2, 4)), draw(areas)
        return SD_EXACT, draw(z_grids()), {"params": {"n": n, "areaF": area}}, \
            lambda z, rep: bounds.sd_upper_ndim(area, n, 1.0, z)
    if bound_id == "sd-john2d":
        area = draw(areas)
        return SD_EXACT, draw(z_grids()), {"params": {"areaF": area}}, \
            lambda z, rep: bounds.sd_upper_2d_john(area, z)
    if bound_id == "sd-lower2d":
        area = draw(areas)
        return SD_EXACT, draw(z_grids(lo=1.0)), {"params": {"areaF": area}}, \
            lambda z, rep: bounds.sd_lower_2d(area, z)
    if bound_id == "kroger":
        # the general form keeps the domain's wall term: no John flag in the
        # spectrum, so the domain's own decides
        dom = draw(st.one_of(wall_polygons(), notch_polygons(), st.none()))
        s = SN_EXACT
        if dom is not None:
            s = spectra.Spectrum(problem="SN", values=SN_EXACT.values,
                                 source="exact", meta={})
        meta = geometry.domain_metadata(dom) if dom is not None else s.meta

        def scalar(k, rep):
            res = bounds.kroger_sum_bound(s, int(k), n=meta["n"], area=meta["areaF"],
                                          john=meta["john"], domain=dom)
            return res.bound, res.observed
        return s, draw(k_grids(s)), {"domain": dom}, scalar
    if bound_id == "bracket":
        def scalar(k, rep):
            return bounds.eigenvalue_bracket(SN_EXACT, int(k))[0], \
                SN_EXACT.values[int(k)]
        return SN_EXACT, draw(k_grids(SN_EXACT)), {}, scalar
    if bound_id == "sd-sum":
        n, area = draw(st.integers(2, 4)), draw(areas)

        def scalar(k, rep):
            return bounds.sd_sum_lower(n, area, int(k)), \
                riesz.mean_sum(SD_EXACT, int(k))
        return SD_EXACT, draw(k_grids(SD_EXACT)), \
            {"params": {"n": n, "areaF": area}}, scalar
    assert bound_id == "heat-trace"
    n, area = draw(st.integers(2, 4)), draw(areas)

    def scalar(t, rep):
        return bounds.sd_heat_trace_upper(area, n, t), sum(riesz.heat_trace(SD_EXACT, t))
    ts = st.lists(st.floats(0.03, 3.0), min_size=1, max_size=25).map(np.array)
    return SD_EXACT, draw(ts), {"params": {"n": n, "areaF": area}}, scalar


@pytest.mark.parametrize("bound_id", bounds.BOUND_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_verify_grid_matches_scalar_bounds_exactly(bound_id, data):
    # verify evaluates each bound once per grid from constants resolved once,
    # by the same public function a one-point call runs, so the two agree bit
    # for bit (and so do the observed sides on k axes)
    s, grid, kwargs, scalar = _grid_case(bound_id, data.draw)
    rep = bounds.verify(s, bound_id, grid, **kwargs)
    ref = [scalar(float(x), rep) for x in grid]
    if rep.axis_name == "z":
        assert rep.bound_values.tolist() == ref
    else:
        assert rep.bound_values.tolist() == [b for b, _ in ref]
        assert rep.observed_values.tolist() == [o for _, o in ref]


# ---------------------------------------------------------------------------
# every function along an axis takes a number or a grid
# ---------------------------------------------------------------------------

Z_POINTS = [0.0, 1e-3, 0.4, 3.7, 55.0]
K_POINTS = [1, 2, 7, 100, 598]
T_POINTS = [0.05, 0.3, 1.0]
SN_600 = spectra.rectangle_sn(math.pi, 1.0, 600)
SD_600 = spectra.rectangle_sd(math.pi, 1.0, 600)

# name -> (call on the axis argument, good points, a point the call rejects)
AXIS_FUNCTIONS = {
    "wall_term": (lambda z: bounds.wall_term(TRAPEZOID, z), Z_POINTS, -1.0),
    "wall_term quadrature": (lambda z: bounds.wall_term(CONE, z, quadrature=True),
                             [0.0, 0.3, 2.0], float("nan")),
    "wall_term_gamma": (lambda z: bounds.wall_term_gamma(CYL3, 1.7, z), Z_POINTS,
                        float("inf")),
    "sum_bound_wall_term": (lambda r: bounds.sum_bound_wall_term(CONE, r), Z_POINTS,
                            -2.0),
    "sn_lower_main": (lambda z: bounds.sn_lower_main(TRAPEZOID, 2.5, z), Z_POINTS,
                      -1.0),
    "sn_lower_split": (lambda z: bounds.sn_lower_split(CYL3, z), Z_POINTS, -1.0),
    "sn_lower_2d_angles": (lambda z: bounds.sn_lower_2d_angles(
        1.1, 2.0, 0.3, 0.8, 2.0, 1.5, z), Z_POINTS, -1.0),
    "sn_lower_john_2d": (lambda z: bounds.sn_lower_john_2d(2.0, 1.5, z), Z_POINTS,
                         -1.0),
    "sn_lower_john_ndim": (lambda z: bounds.sn_lower_john_ndim(2.0, 0.4, 3, z),
                           Z_POINTS, -1.0),
    "sn_lower_via_neumann": (lambda z: bounds.sn_lower_via_neumann(2.0, 1.5, 4, z),
                             Z_POINTS, -1.0),
    "kroger_master k": (lambda k: bounds.kroger_master(SN_600, k, 3.5, domain=RECT),
                        K_POINTS, 0),
    "kroger_master R": (lambda r: bounds.kroger_master(SN_600, 7, r), [0.1, 3.5, 40.0],
                        0.0),
    "kroger_sum_bound": (lambda k: bounds.kroger_sum_bound(
        SN_600, k, john=False, domain=TRAPEZOID), K_POINTS, 600),
    "eigenvalue_bracket": (lambda k: bounds.eigenvalue_bracket(SN_600, k), K_POINTS,
                           -3),
    "sd_upper_ndim": (lambda z: bounds.sd_upper_ndim(2.0, 3, 2.5, z), Z_POINTS, -1.0),
    "sd_sum_lower": (lambda k: bounds.sd_sum_lower(4, 2.0, k), K_POINTS, 0),
    "sd_upper_2d_john": (lambda z: bounds.sd_upper_2d_john(2.0, z), Z_POINTS, -1.0),
    "sd_lower_2d": (lambda z: bounds.sd_lower_2d(2.0, z), [1.0, 3.7, 55.0], 0.5),
    "sd_heat_trace_upper": (lambda t: bounds.sd_heat_trace_upper(2.0, 3, t), T_POINTS,
                            0.0),
    "partial_sum": (lambda k: riesz.partial_sum(SN_600, k), K_POINTS, 601),
    "mean_sum": (lambda k: riesz.mean_sum(SD_600, k), K_POINTS, -2),
    "heat_trace": (lambda t: riesz.heat_trace(SD_600, t), T_POINTS, -1.0),
    "semiclassical_scale": (lambda k: specfun.semiclassical_scale(3, k, 2.0), K_POINTS,
                            0),
}


def _entries(value):
    return list(value) if isinstance(value, tuple) else [value]


@pytest.mark.parametrize("name", AXIS_FUNCTIONS)
def test_axis_functions_take_numbers_and_grids(name):
    f, points, bad = AXIS_FUNCTIONS[name]
    singles = [f(x) for x in points]
    for x, one in zip(points, singles):
        # a number, or a 0-d array, gives Python floats (text fields aside)
        assert all(type(v) in (float, str) for v in _entries(one))
        zero_d = f(np.asarray(x))
        assert type(zero_d) is type(one) and _entries(zero_d) == _entries(one)
    for grid in (list(points), np.asarray(points)):
        result = f(grid)
        if isinstance(singles[0], tuple):
            assert type(result) is type(singles[0])
        for i, column in enumerate(_entries(result)):
            want = [_entries(one)[i] for one in singles]
            if isinstance(column, str):
                assert want == [column] * len(points)
            else:   # bit for bit the one-point calls
                assert isinstance(column, np.ndarray) and column.tolist() == want
    with pytest.raises(ValueError) as one_point:
        f(bad)
    for grid in (points[:2] + [bad] + points[2:], np.array(points[:2] + [bad])):
        with pytest.raises(ValueError) as in_grid:
            f(grid)
        assert str(in_grid.value) == str(one_point.value)


def test_index_grid_reports_the_point_a_one_point_call_rejects():
    # a list grid keeps each point's type: 2.5 is the bad point, not 1, and
    # True is not read as 1
    for f in (lambda k: riesz.partial_sum(SN_600, k),
              lambda k: specfun.semiclassical_scale(2, k, 1.0)):
        with pytest.raises(ValueError, match=r"got 2\.5$"):
            f([1, 2.5, 3])
        with pytest.raises(ValueError, match=r"got True$"):
            f(True)
        with pytest.raises(ValueError, match=r"got True$"):
            f([1, True, 3])


# ---------------------------------------------------------------------------
# SN lower bounds
# ---------------------------------------------------------------------------

def test_main_split_john_agree_on_rectangle():
    # for an axis rectangle all three reductions express the same integral
    for z in (0.5, 2.0, 7.0):
        main = bounds.sn_lower_main(RECT, 1.0, z)
        split = bounds.sn_lower_split(RECT, z)
        johnnd = bounds.sn_lower_john_ndim(math.pi, 1.0, 2, z)
        assert split == pytest.approx(main, rel=1e-12)
        assert johnnd == pytest.approx(main, rel=1e-12)


def test_split_understates_main_with_overhang():
    d = PolygonalDomain([(0, 0), (1.0, -0.5), (0.5, -1), (2, -1), (2, 0)],
                        free_edges=[4])
    for z in np.linspace(0.2, 8.0, 15):
        assert bounds.sn_lower_split(d, z) <= bounds.sn_lower_main(d, 1.0, z) + 1e-10


def test_main_bound_holds_on_exact_rectangle_spectrum():
    s = spectra.rectangle_sn(math.pi, 1.0, 2000)
    for z in (0.5, 5.0, 50.0, 500.0):
        assert riesz.riesz_mean(s, 1.0, z) >= bounds.sn_lower_main(RECT, 1.0, z) - 1e-9


def test_john2d_is_binding_only_at_zero():
    s = spectra.rectangle_sn(math.pi, 1.0, 2000)
    zs = np.geomspace(0.1, 1000, 200)
    r1 = riesz.riesz_mean_grid(s, 1.0, zs)
    lb = np.array([bounds.sn_lower_john_2d(math.pi, 1.0, z) for z in zs])
    assert np.all(r1 - lb >= -1e-9)


def test_john_ndim_on_box_cylinder():
    c = CylinderDomain(3, RectangleBase(math.pi, math.pi), 1.0)
    s = spectra.cylinder_spectrum(c, "SN", 4000)
    for z in (1.0, 5.0, 20.0):
        lower = bounds.sn_lower_john_ndim(math.pi ** 2, 1.0, 3, z)
        assert riesz.riesz_mean(s, 1.0, z) >= lower - 1e-9


def test_via_neumann_weaker_than_john_route():
    # same cylinder: the Neumann-route bound stays below the direct one at
    # large z (its leading constant carries the deliberate n/(n+1) loss)
    area, width = math.pi ** 2, math.pi
    for z in (20.0, 50.0):
        direct = bounds.sn_lower_john_ndim(area, 1.0, 3, z)
        routed = bounds.sn_lower_via_neumann(area, width, 3, z)
        assert routed < direct
    with pytest.raises(ValueError):
        bounds.sn_lower_via_neumann(area, width, 2, 1.0)


def test_two_corner_bound_rectangle_reduces_to_no_corner_term():
    # right angles: cot = 0, so only the lead and the residual-wall constant
    res = bounds.sn_lower_2d_angles(math.pi / 2, math.pi / 2, 1.0, math.pi,
                                    math.pi, 1.0, 4.0)
    z = 4.0
    lead = math.pi / (math.pi * 2.0) * z * z
    c_expect = -math.pi * (1.0 - math.exp(-2 * z) * (1 + 2 * z)) / (4 * math.pi)
    assert res.c == pytest.approx(c_expect, rel=1e-12)
    assert res.c_stated == pytest.approx(res.c, rel=1e-12)  # corner piece is 0
    assert res.value == pytest.approx(lead + c_expect, rel=1e-12)


def test_two_corner_bound_sign_conventions_differ_off_right_angle():
    res = bounds.sn_lower_2d_angles(math.pi / 4, math.pi / 4, 1.0, 0.0, 2.0,
                                    1.0, 5.0)
    assert res.c < 0 < res.c_stated
    assert res.c_stated == pytest.approx(-res.c, rel=1e-12)  # bc_length = 0 here


def test_two_corner_gamma_lift_matches_direct_integration():
    # gamma = 2 constants are the Riesz lift 2 integral_0^z c1(t) dt
    alpha = beta = math.pi / 4
    z = 6.0
    lifted = bounds.sn_lower_2d_angles(alpha, beta, 1.0, 0.5, 2.0, 2.0, z)
    oracle_c = 2.0 * quad(
        lambda t: bounds.sn_lower_2d_angles(alpha, beta, 1.0, 0.5, 2.0, 1.0, t).c,
        0.0, z, epsabs=1e-12)[0]
    assert lifted.c == pytest.approx(oracle_c, rel=1e-8)
    lead = specfun.weyl_constant(2, 2.0) * 2.0 * z ** 3
    second = (1.0 / math.tan(alpha) + 1.0 / math.tan(beta)) / (2 * math.pi) * z * z
    assert lifted.value == pytest.approx(lead + second + lifted.c, rel=1e-12)


def test_two_corner_bound_holds_on_rectangle_spectrum():
    s = spectra.rectangle_sn(math.pi, 1.0, 3000)
    p = bounds.two_corner_params(RECT)
    for z in (1.0, 10.0, 100.0):
        val = bounds.sn_lower_2d_angles(p["alpha"], p["beta"], p["delta"],
                                        p["bc_length"], math.pi, 1.0, z).value
        assert riesz.riesz_mean(s, 1.0, z) >= val - 1e-9


def test_two_corner_params_rectangle_and_trapezoid():
    p = bounds.two_corner_params(RECT)
    assert p["alpha"] == pytest.approx(math.pi / 2)
    assert p["delta"] == pytest.approx(1.0)
    assert p["bc_length"] == pytest.approx(math.pi)  # the flat bottom

    t = geometry.trapezoid_domain(2.0, math.pi / 4, 0.5)
    q = bounds.two_corner_params(t)
    assert q["alpha"] == pytest.approx(math.pi / 4)
    assert q["delta"] == pytest.approx(0.5)
    assert q["bc_length"] == pytest.approx(1.0)  # bottom = L - 2h


def test_two_corner_params_triangle_has_no_residual_wall():
    tri = geometry.isoceles_triangle_domain(2.0, math.pi / 4)
    p = bounds.two_corner_params(tri)
    assert p["bc_length"] == pytest.approx(0.0, abs=1e-12)
    assert p["delta"] == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e6])
def test_corner_lookups_are_dilation_invariant(scale):
    # a corner is found by its vertex index, never by an absolute distance
    # to its coordinates, so the corners of a tiny domain stay apart
    overhang = [(0.0, 0.0), (-0.3, -0.5), (0.8, -0.5), (1.0, 0.0)]
    cases = [(geometry.isoceles_triangle_domain(1.0, math.pi / 3),
              geometry.isoceles_triangle_domain(scale, math.pi / 3)),
             (PolygonalDomain(overhang, free_edges=[3]),
              PolygonalDomain(scale * np.array(overhang), free_edges=[3]))]
    for unit, d in cases:
        p, q = bounds.two_corner_params(unit), bounds.two_corner_params(d)
        assert (q["alpha"], q["beta"]) \
            == pytest.approx((p["alpha"], p["beta"]), rel=1e-12)
        assert q["delta"] == pytest.approx(scale * p["delta"], rel=1e-12)
        assert q["bc_length"] == pytest.approx(scale * p["bc_length"],
                                               rel=1e-12, abs=1e-12 * scale)
        john = [geometry.local_john_condition(d, pt)
                for pt, _angle in geometry.corner_angles(d)]
        assert john == [geometry.local_john_condition(unit, pt)
                        for pt, _angle in geometry.corner_angles(unit)]
    assert john == [False, True]           # the overhang's left corner


# ---------------------------------------------------------------------------
# sum inequalities and brackets
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rect_sn_600():
    return spectra.rectangle_sn(math.pi, 1.0, 600)


def test_kroger_master_spot_checks(rect_sn_600):
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 400))
        R = float(rng.uniform(0.05, 4.0)) * specfun.semiclassical_scale(
            2, k, math.pi)
        lhs, rhs = bounds.kroger_master(rect_sn_600, k, R, domain=RECT)
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


def test_kroger_sum_bound_john_form(rect_sn_600):
    for k in (1, 10, 100, 500):
        res = bounds.kroger_sum_bound(rect_sn_600, k)
        assert res.form == "john"
        assert res.margin >= -1e-9 * (1 + abs(res.bound))


def test_kroger_general_form_keeps_wall_term(rect_sn_600):
    res = bounds.kroger_sum_bound(rect_sn_600, 20, john=False, domain=RECT)
    assert res.form == "general"
    assert res.margin >= -1e-9
    # the wall term is nonpositive here, so the general bound is tighter
    assert res.bound <= bounds.kroger_sum_bound(rect_sn_600, 20).bound + 1e-12


def test_bracket_contains_next_eigenvalue(rect_sn_600):
    for k in (1, 5, 50, 300):
        lo, hi = bounds.eigenvalue_bracket(rect_sn_600, k)
        nu = rect_sn_600.values[k]
        assert lo - 1e-9 <= nu <= hi + 1e-9


def test_bracket_rejects_s_above_one(rect_sn_600):
    # inflating the spectrum breaks S_k <= 1 and must raise, not return NaN
    bad = spectra.Spectrum(problem="SN", values=rect_sn_600.values * 9.0,
                           source="corrupt", meta=dict(rect_sn_600.meta))
    with pytest.raises(ValueError, match="S_"):
        bounds.eigenvalue_bracket(bad, 50)


def test_sum_rules_need_metadata():
    bare = spectra.Spectrum(problem="SN", values=np.arange(10, dtype=float),
                            source="synthetic")
    with pytest.raises(HypothesisError):
        bounds.kroger_sum_bound(bare, 3)


# ---------------------------------------------------------------------------
# SD bounds
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rect_sd_2000():
    return spectra.rectangle_sd(math.pi, 1.0, 2000)


def test_sd_upper_holds(rect_sd_2000):
    for z in (1.0, 30.0, 900.0):
        ub = bounds.sd_upper_ndim(math.pi, 2, 1.0, z)
        assert riesz.riesz_mean(rect_sd_2000, 1.0, z) <= ub + 1e-9


def test_sd_john2d_sharper_than_leading_order(rect_sd_2000):
    for z in (5.0, 100.0):
        two_term = bounds.sd_upper_2d_john(math.pi, z)
        leading = bounds.sd_upper_ndim(math.pi, 2, 1.0, z)
        assert two_term < leading
        assert riesz.riesz_mean(rect_sd_2000, 1.0, z) <= two_term + 1e-9


def test_sd_lower_2d_holds_and_rejects_small_z(rect_sd_2000):
    for z in (1.0, 10.0, 500.0):
        lb = bounds.sd_lower_2d(math.pi, z)
        assert riesz.riesz_mean(rect_sd_2000, 1.0, z) >= lb - 1e-9
    with pytest.raises(ValueError, match="z >= 1"):
        bounds.sd_lower_2d(math.pi, 0.5)
    for z in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            bounds.sd_lower_2d(math.pi, z)


def test_sd_sum_lower_holds(rect_sd_2000):
    for k in (1, 7, 400):
        lb = bounds.sd_sum_lower(2, math.pi, k)
        assert riesz.mean_sum(rect_sd_2000, k) >= lb - 1e-12
        # W_{2,k} = pi k / L
        assert lb == pytest.approx(0.5 * math.pi * k / math.pi, rel=1e-14)


def test_sd_sum_lower_consistent_with_legendre(rect_sd_2000):
    # the k-th mean bound is the Legendre dual of the Riesz upper bound:
    # maximizing k z - C_{2,1} L z^2 over z recovers k/2 * W_{2,k}
    k = 25
    zs = np.linspace(0.0, 60.0, 120001)
    dual = np.max(k * zs - math.pi / (2 * math.pi) * zs ** 2) / k
    assert bounds.sd_sum_lower(2, math.pi, k) == pytest.approx(dual, rel=1e-8)


def test_sd_heat_trace_value():
    assert bounds.sd_heat_trace_upper(math.pi, 2, 0.5) == pytest.approx(
        math.pi / (math.pi * 0.5), rel=1e-14)
    # n = 3: Gamma(3) / ((4 pi) Gamma(2)) = 1/(2 pi)
    assert bounds.sd_heat_trace_upper(1.0, 3, 1.0) == pytest.approx(
        2.0 / (4 * math.pi), rel=1e-14)


def test_heat_trace_bound_on_spectrum(rect_sd_2000):
    for t in (0.1, 1.0):
        val, tail = riesz.heat_trace(rect_sd_2000, t)
        assert val + tail <= bounds.sd_heat_trace_upper(math.pi, 2, t)


# ---------------------------------------------------------------------------
# verify() harness
# ---------------------------------------------------------------------------

def test_verify_reports_holds(rect_sd_2000):
    rep = bounds.verify(rect_sd_2000, "sd-john2d", np.geomspace(0.5, 100, 40))
    assert rep.status == "holds"
    assert rep.kind == "upper"
    assert rep.axis_name == "z"
    assert rep.violations == []
    assert rep.min_margin >= 0


def test_verify_flags_missing_hypothesis(rect_sd_2000):
    meta = {k: v for k, v in rect_sd_2000.meta.items() if k != "john"}
    s = spectra.Spectrum(problem="SD", values=rect_sd_2000.values,
                         source="exact", meta=meta)
    rep = bounds.verify(s, "sd-john2d", np.array([1.0, 10.0]))
    assert rep.status == "holds-with-flags"
    assert rep.hypothesis_flags["john"] is None


def test_verify_detects_violation(rect_sd_2000):
    # shift the SD spectrum down by 20%: the upper bound now fails at scale
    s = spectra.Spectrum(problem="SD", values=rect_sd_2000.values * 0.8,
                         source="corrupt", meta=dict(rect_sd_2000.meta))
    rep = bounds.verify(s, "sd-john2d", np.geomspace(1.0, 100, 30))
    assert rep.status == "violated"
    assert rep.violations
    assert rep.min_margin < 0


def test_verify_problem_mismatch(rect_sd_2000):
    with pytest.raises(ValueError):
        bounds.verify(rect_sd_2000, "john2d", np.array([1.0]))


def test_verify_k_axis_validation(rect_sn_600):
    with pytest.raises(ValueError):
        bounds.verify(rect_sn_600, "kroger", np.array([1.5, 2.0]))
    with pytest.raises(ValueError):
        bounds.verify(rect_sn_600, "kroger", np.array([900.0]))


def test_verify_sd_sum_reaches_the_last_eigenvalue():
    # sd-sum averages nu_1 .. nu_k and never reads nu_{k+1}
    s = spectra.rectangle_sd(math.pi, 1.0, 50)
    rep = bounds.verify(s, "sd-sum", [50])
    assert rep.observed_values.tolist() == [riesz.mean_sum(s, 50)]
    with pytest.raises(ValueError, match="k = 51 exceeds the 50 stored"):
        bounds.verify(s, "sd-sum", [51])


def test_verify_grid_errors_are_the_bounds_own(rect_sn_600, rect_sd_2000):
    with pytest.raises(ValueError, match=r"z must be a finite real >= 0, got -1\.0"):
        bounds.verify(rect_sd_2000, "sd-upper", [2.0, -1.0])
    with pytest.raises(ValueError, match=r"time must be positive, got 0\.0"):
        bounds.verify(rect_sd_2000, "heat-trace", [0.0])
    for bound_id in ("kroger", "bracket"):
        with pytest.raises(ValueError, match="need eigenvalue 601, spectrum has"):
            bounds.verify(rect_sn_600, bound_id, [600])


def test_verify_rejects_nan_tolerances_and_certificates(rect_sn_600):
    # a surface of length 50 puts the john2d bound far above this spectrum
    meta = {**rect_sn_600.meta, "areaF": 50.0}
    s = spectra.Spectrum(problem="SN", values=rect_sn_600.values, source="exact",
                         meta=meta)
    grid = np.linspace(1.0, 100.0, 20)
    assert bounds.verify(s, "john2d", grid).status == "violated"
    for tol in (float("nan"), -1.0, math.inf):
        with pytest.raises(ValueError, match="tolerance must be a finite real >= 0"):
            bounds.verify(s, "john2d", grid, tolerance=tol)
    assert bounds.verify(s, "john2d", grid, tolerance=0.0).status == "violated"
    # NaN, negative or infinite certificates are rejected on every axis
    sd = spectra.rectangle_sd(math.pi, 1.0, 600)
    for spectrum, bound_id, axis in ((rect_sn_600, "john2d", grid),
                                     (rect_sn_600, "kroger", [1, 5]),
                                     (rect_sn_600, "bracket", [3]),
                                     (sd, "heat-trace", [1.0])):
        for bad in (math.nan, -1e-3, math.inf):
            errs = np.full(600, 1e-3)
            errs[7] = bad
            with pytest.raises(ValueError, match="certified errors must be finite"):
                bounds.verify(spectrum, bound_id, axis, errors=errs)
        with pytest.raises(ValueError, match="errors must align with the spectrum"):
            bounds.verify(spectrum, bound_id, axis, errors=np.zeros(599))


def test_verify_kroger_takes_depth_from_params(rect_sn_600):
    # the general form's comparison cylinder reads depth like main and split
    meta = {key: val for key, val in rect_sn_600.meta.items() if key != "depth"}
    s = spectra.Spectrum(problem="SN", values=rect_sn_600.values, source="exact",
                         meta={**meta, "john": False})
    ks = np.arange(1, 40)
    with pytest.raises(HypothesisError, match="'depth'"):
        bounds.verify(s, "kroger", ks)
    rep = bounds.verify(s, "kroger", ks, params={"depth": 1.0})
    assert rep.params["depth"] == 1.0 and rep.params["form"] == "general"
    assert rep.hypothesis_flags["comparison_cylinder_from_metadata"] is True
    assert rep.status == "holds-with-flags"
    cyl = bounds.comparison_cylinder(2, math.pi, 1.0)
    want = bounds.kroger_sum_bound(s, ks, john=False, domain=cyl).bound
    assert rep.bound_values.tolist() == want.tolist()


@pytest.mark.parametrize("length, depth", [(math.pi, 1.0), (2.0, 0.5)])
def test_verify_main_in_the_plane_compares_with_the_flat_cylinder(length, depth):
    # without a domain, the planar comparison domain is the cylinder over the
    # free-surface interval, bit for bit
    s = spectra.rectangle_sn(length, depth, 3000)
    cyl = CylinderDomain(2, IntervalBase(length), depth)
    zs = np.geomspace(0.1, s.ceiling, 2000)
    for gamma in (1.0, 1.5, 2.0, 2.5):
        plain = bounds.verify(s, "main", zs, gamma=gamma)
        assert plain.hypothesis_flags["comparison_cylinder_from_metadata"] is True
        on_cyl = bounds.verify(s, "main", zs, gamma=gamma, domain=cyl)
        assert plain.bound_values.tolist() == on_cyl.bound_values.tolist()
        assert plain.bound_values.tolist() == \
            bounds.sn_lower_main(cyl, gamma, zs).tolist()


def test_verify_bracket_reports_both_sides(rect_sn_600):
    rep = bounds.verify(rect_sn_600, "bracket", np.arange(1, 40))
    assert rep.status == "holds"
    assert rep.kind == "bracket"
    assert np.all(rep.extra["upper"] >= rep.bound_values)


def test_verify_propagates_errors_into_tolerance(rect_sn_600):
    errs = np.full(len(rect_sn_600), 1e-3)
    grid = np.array([5.0, 20.0])
    rep = bounds.verify(rect_sn_600, "john2d", grid, errors=errs)
    counts = np.searchsorted(rect_sn_600.values, grid)
    assert rep.tolerance == pytest.approx(1e-9 * (1 + np.abs(rep.bound_values))
                                          + 1e-3 * counts)


def test_verify_heat_trace_propagates_errors():
    # |e^{-nu t} - e^{-nu_h t}| <= t err e^{-max(nu_h - err, 0) t}, summed
    s = spectra.rectangle_sd(math.pi, 1.0, 400)
    errs = np.full(len(s), 1.0)
    grid = np.array([0.5, 1.0])
    plain = bounds.verify(s, "heat-trace", grid)
    rep = bounds.verify(s, "heat-trace", grid, errors=errs)
    want = [math.fsum(t * e * math.exp(-max(nu - e, 0.0) * t)
                      for nu, e in zip(s.values.tolist(), errs.tolist()))
            for t in grid.tolist()]
    assert rep.tolerance - plain.tolerance == pytest.approx(want, rel=1e-12)


def test_verify_heat_trace(rect_sd_2000):
    rep = bounds.verify(rect_sd_2000, "heat-trace", np.array([0.1, 1.0]))
    assert rep.status == "holds"
    assert rep.axis_name == "t"
    assert np.all(rep.extra["tail_bounds"] < 1e-10)
    # the tail bound rests on an unproved gap assumption, and says so
    kind = rep.to_dict()["extra"]["tail_kind"]
    assert kind.startswith("heuristic") and "last decile" in kind


def test_verify_triangle_uses_domain_geometry():
    tri = geometry.isoceles_triangle_domain(2.0, math.pi / 4)
    # synthetic spectrum comfortably above the bound
    vals = np.concatenate(([0.0], np.arange(1, 400, dtype=float) * 1.7))
    s = spectra.Spectrum(problem="SN", values=vals, source="synthetic",
                         meta=geometry.domain_metadata(tri))
    rep = bounds.verify(s, "triangle", np.linspace(1, 40, 20), domain=tri)
    assert rep.params["alpha"] == pytest.approx(math.pi / 4)
    assert rep.params["bc_length"] == pytest.approx(0.0, abs=1e-12)
    assert "c_at_grid_end" in rep.params


def test_verify_requires_params_or_metadata():
    bare = spectra.Spectrum(problem="SN",
                            values=np.arange(50, dtype=float),
                            source="synthetic")
    with pytest.raises(HypothesisError):
        bounds.verify(bare, "john2d", np.array([1.0]))
    # explicit params rescue it
    rep = bounds.verify(bare, "john2d", np.array([1.0]),
                        params={"areaF": 1.0, "john": True})
    assert rep.bound_values[0] == pytest.approx(1 / (2 * math.pi) + 0.5)


def test_report_roundtrip_and_key_order(rect_sd_2000):
    rep = bounds.verify(rect_sd_2000, "sd-upper", np.array([1.0, 4.0]))
    buf = io.StringIO()
    bounds.save_report(rep, buf)
    data = json.loads(buf.getvalue())
    assert list(data)[:4] == ["bound_id", "status", "kind", "axis_name"]
    assert data["status"] == rep.status
    assert data["bound"] == pytest.approx(list(rep.bound_values))


def test_verify_main_from_metadata_cylinder_is_flagged():
    # n = 3 cylinder spectrum without an explicit domain: the wall term is
    # taken on the comparison cylinder, legitimate only under the John flag
    c = CylinderDomain(3, RectangleBase(math.pi, math.pi), 1.0)
    s = spectra.cylinder_spectrum(c, "SN", 2000)
    rep = bounds.verify(s, "main", np.array([2.0, 10.0]))
    assert rep.status == "holds"       # metadata confirms John
    assert rep.hypothesis_flags["comparison_cylinder_from_metadata"] is True

    meta = {k: v for k, v in s.meta.items() if k != "john"}
    s2 = spectra.Spectrum(problem="SN", values=s.values, source="exact",
                          meta=meta)
    rep2 = bounds.verify(s2, "main", np.array([2.0, 10.0]))
    assert rep2.status == "holds-with-flags"


def test_verify_kroger_from_metadata_cylinder_is_flagged(rect_sn_600):
    # with John not confirmed and no domain, the general form takes its wall
    # integral on the metadata cylinder, which only dominates the true
    # domain under the strip condition: the report cannot say "holds"
    s = spectra.Spectrum(problem="SN", values=rect_sn_600.values, source="exact",
                         meta={**rect_sn_600.meta, "john": False})
    ks = np.arange(1, 400)
    rep = bounds.verify(s, "kroger", ks)
    assert rep.params["form"] == "general"
    assert rep.hypothesis_flags == {"john": False,
                                    "comparison_cylinder_from_metadata": True}
    assert rep.status == "holds-with-flags"
    # an explicit domain carries its own wall integral: no metadata cylinder
    rep = bounds.verify(s, "kroger", ks, domain=RECT)
    assert rep.hypothesis_flags == {"john": False}
    assert rep.status == "holds"


# ---------------------------------------------------------------------------
# the bound registry
# ---------------------------------------------------------------------------

CONTRACT_SN = spectra.rectangle_sn(math.pi, 1.0, 400)
CONTRACT_SD = spectra.rectangle_sd(math.pi, 1.0, 400)
CONTRACT_GRIDS = {"z": [1.0, 2.0, 5.0], "k": [1, 2, 5], "t": [0.5, 1.0]}
PROBLEM_NAMES = {"SN": "sloshing (SN)", "SD": "clamped-wall (SD)"}


@pytest.mark.parametrize("bound_id", bounds.BOUND_IDS)
def test_registry_entry_drives_verify(bound_id):
    spec = bounds.BOUNDS[bound_id]
    right, wrong = (CONTRACT_SN, CONTRACT_SD) if spec.problem == "SN" \
        else (CONTRACT_SD, CONTRACT_SN)
    grid = CONTRACT_GRIDS[spec.axis]
    message = f"bound {bound_id!r} applies to {PROBLEM_NAMES[spec.problem]} spectra"
    with pytest.raises(ValueError, match=re.escape(message)):
        bounds.verify(wrong, bound_id, grid)

    kwargs = {"domain": RECT}
    if bound_id == "via-neumann":     # needs n >= 3
        right = spectra.cylinder_spectrum(BOX, "SN", 400)
        kwargs = {"params": {"width": math.pi}}
    rep = bounds.verify(right, bound_id, grid, gamma=2.5, **kwargs)
    assert (rep.kind, rep.axis_name) == (spec.side, spec.axis)
    assert rep.status == "holds"
    if spec.axis == "z":
        assert rep.params["gamma"] == (1.0 if spec.r1_only else 2.5)
    else:
        assert "gamma" not in rep.params


def test_bound_ids_follow_the_registry():
    assert bounds.BOUND_IDS == tuple(bounds.BOUNDS) == (
        "main", "split", "triangle", "john2d", "johnNd", "via-neumann",
        "kroger", "bracket", "sd-upper", "sd-john2d", "sd-lower2d",
        "sd-sum", "heat-trace")


def test_readme_bound_list_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Bound identifiers", 1)[1].split("\n## ", 1)[0]
    named = []
    for item in re.findall(r"^- (.*?)(?=^- |\n\n|\Z)", section, flags=re.M | re.S):
        head, _, text = item.partition(" — ")
        ids = re.findall(r"`([^`]+)`", head)
        named += ids
        for bound_id in ids:   # the Riesz exponent each item claims
            if "`R_1`" in text:
                assert bounds.BOUNDS[bound_id].r1_only, bound_id
            if "`R_γ`" in text:
                assert not bounds.BOUNDS[bound_id].r1_only, bound_id
    assert sorted(named) == sorted(bounds.BOUND_IDS)
