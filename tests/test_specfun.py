"""Constants and special functions: exact values and the identities between
them; the parameter checkers and every public parameter they guard."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from steklov import asymptotics, bounds, fem, geometry, riesz, spectra, specfun


def test_unit_ball_volume_small_dims():
    assert specfun.unit_ball_volume(0) == 1.0
    assert specfun.unit_ball_volume(1) == 2.0
    assert specfun.unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert specfun.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)


def test_unit_ball_volume_matches_gamma_formula():
    for m in range(0, 15):
        direct = math.pi ** (m / 2) / math.gamma(m / 2 + 1)
        assert specfun.unit_ball_volume(m) == pytest.approx(direct, rel=1e-13)


def test_unit_ball_volume_rejects_bad_input():
    with pytest.raises(ValueError):
        specfun.unit_ball_volume(-1)
    with pytest.raises(ValueError):
        specfun.unit_ball_volume(2.5)


def test_weyl_constant_planar_closed_form():
    # C_{2,gamma} = 1 / (pi (gamma + 1))
    rng = np.random.default_rng(7)
    for gamma in np.concatenate(([0.0, 1.0, 2.0], rng.uniform(0.0, 10.0, 100))):
        val = specfun.weyl_constant(2, float(gamma))
        assert val == pytest.approx(1.0 / (math.pi * (gamma + 1.0)), rel=1e-13)
    assert specfun.weyl_constant(2, 1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-15)


def test_weyl_constant_reference_values():
    # n = 3, gamma = 1: (4 pi)^{-1} * Gamma(2)Gamma(3) / (Gamma(2)Gamma(4))
    #                 = (1/4pi) * 2/6 = 1/(12 pi)
    assert specfun.weyl_constant(3, 1.0) == pytest.approx(1.0 / (12 * math.pi), rel=1e-13)
    with pytest.raises(ValueError):
        specfun.weyl_constant(1, 1.0)
    with pytest.raises(ValueError):
        specfun.weyl_constant(2, -0.1)


def test_berezin_constant_values_and_identity():
    # n = 2: 1 / (2 sqrt(pi) Gamma(5/2)) = 2 / (3 pi)
    assert specfun.berezin_constant(2) == pytest.approx(2.0 / (3 * math.pi), rel=1e-13)
    # L^cl relation to the Riesz-mean constant: L^cl = (2n/(n+1)) C_{n,1}
    for n in range(2, 9):
        lhs = specfun.berezin_constant(n)
        rhs = (2 * n / (n + 1)) * specfun.weyl_constant(n, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_semiclassical_scale_planar():
    # n = 2: W = pi k / |F|
    for k in (1, 2, 5, 50):
        for ell in (1.0, math.pi, 2.5):
            val = specfun.semiclassical_scale(2, k, ell)
            assert val == pytest.approx(math.pi * k / ell, rel=1e-14)


def test_semiclassical_scale_3d_value():
    # n = 3, k = 8, |F| = pi: 2 pi * pi^{-1/2} * (8/pi)^{1/2} = 4 sqrt(2)
    val = specfun.semiclassical_scale(3, 8, math.pi)
    assert val == pytest.approx(4 * math.sqrt(2), rel=1e-13)


def test_semiclassical_scale_grid_matches_the_per_point_formula():
    # a grid takes (k / area)^(1/m) by numpy's power over the array: at n = 2
    # (m = 1) that is the per-point float formula bit for bit; at n >= 3
    # numpy's power may round the last place differently from libm's pow
    ks = np.arange(1, 5001)
    for n in (2, 3, 4):
        m = n - 1
        ref = [2.0 * math.pi * specfun.unit_ball_volume(m) ** (-1.0 / m)
               * (k / 1.7) ** (1.0 / m) for k in ks.tolist()]
        got = specfun.semiclassical_scale(n, ks, 1.7)
        if n == 2:
            assert got.tolist() == ref
        else:
            assert got == pytest.approx(ref, rel=2 * np.finfo(float).eps, abs=0)


def test_semiclassical_scale_rejects_bad_input():
    with pytest.raises(ValueError):
        specfun.semiclassical_scale(2, 0, 1.0)
    with pytest.raises(ValueError):
        specfun.semiclassical_scale(2, 1, 0.0)
    with pytest.raises(ValueError):
        specfun.semiclassical_scale(1, 1, 1.0)


# ---------------------------------------------------------------------------
# parameter checks: every real parameter is finite and above its lower end
# ---------------------------------------------------------------------------

SN = spectra.rectangle_sn(math.pi, 1.0, 200)
SD = spectra.rectangle_sd(math.pi, 1.0, 200)
RECT = geometry.rectangle_domain(math.pi, 1.0)
HALF = math.pi / 2
CURVE = riesz.riesz_curve(SN, 1.0, np.linspace(0.0, 50.0, 101))
GRID_CURVE = riesz.RieszCurve(1.0, CURVE.grid, CURVE.values, CURVE.validity_ceiling)

#: (call with the parameter set to x, its name, lower end, strict)
CHECKED = {
    "weyl_constant.gamma": (lambda x: specfun.weyl_constant(2, x), "gamma", 0, False),
    "semiclassical_scale.area": (lambda x: specfun.semiclassical_scale(2, 3, x),
                                 "area", 0, True),
    "RieszCurve.gamma": (lambda x: riesz.RieszCurve(x, [0.0, 1.0], [0.0, 1.0], 1.0),
                         "gamma", 0, False),
    "RieszCurve.grid": (lambda x: riesz.RieszCurve(1.0, [0.0, x], [0.0, 1.0], 1.0),
                        "grid point", -math.inf, False),
    "RieszCurve.values": (lambda x: riesz.RieszCurve(1.0, [0.0, 1.0], [0.0, x], 1.0),
                          "curve value", -math.inf, False),
    "riesz_mean_grid.gamma": (lambda x: riesz.riesz_mean_grid(SN, x, [1.0]),
                              "gamma", 0, False),
    "riesz_mean_grid.z": (lambda x: riesz.riesz_mean_grid(SN, 1.0, [1.0, x]),
                          "z", -math.inf, False),
    "certified_errors": (lambda x: riesz.certified_errors(SN, np.r_[x, np.zeros(199)]),
                         "certified error", 0, False),
    "riesz_iterate.rho": (lambda x: riesz.riesz_iterate(GRID_CURVE, x, 5.0),
                          "rho", 0, True),
    "riesz_iterate.z": (lambda x: riesz.riesz_iterate(GRID_CURVE, 1.0, x),
                        "z", -math.inf, False),
    "staircase_sum.R": (riesz.staircase_sum, "R", 0, False),
    "staircase_bounds.R": (riesz.staircase_bounds, "R", 0, False),
    "heat_trace.t": (lambda x: riesz.heat_trace(SD, [1.0, x]), "time", 0, True),
    "wall_term.z": (lambda x: bounds.wall_term(RECT, [1.0, x]), "z", 0, False),
    "wall_term_gamma.gamma": (lambda x: bounds.wall_term_gamma(RECT, x, 1.0),
                              "gamma", 1, False),
    "sn_lower_main.gamma": (lambda x: bounds.sn_lower_main(RECT, x, 1.0), "gamma", 1, False),
    "sn_lower_split.z": (lambda x: bounds.sn_lower_split(RECT, x), "z", 0, False),
    "sn_lower_2d_angles.delta": (
        lambda x: bounds.sn_lower_2d_angles(HALF, HALF, x, 0.0, math.pi, 1.0, 1.0),
        "delta", 0, True),
    "sn_lower_2d_angles.bc_length": (
        lambda x: bounds.sn_lower_2d_angles(HALF, HALF, 1.0, x, math.pi, 1.0, 1.0),
        "bc_length", 0, False),
    "sn_lower_2d_angles.area": (
        lambda x: bounds.sn_lower_2d_angles(HALF, HALF, 1.0, 0.0, x, 1.0, 1.0),
        "area", 0, True),
    "sn_lower_2d_angles.gamma": (
        lambda x: bounds.sn_lower_2d_angles(HALF, HALF, 1.0, 0.0, math.pi, x, 1.0),
        "gamma", 1, False),
    "sn_lower_john_2d.length": (lambda x: bounds.sn_lower_john_2d(x, 1.0, 1.0),
                                "length", 0, True),
    "sn_lower_john_2d.gamma": (lambda x: bounds.sn_lower_john_2d(math.pi, x, 1.0),
                               "gamma", 1, False),
    "sn_lower_john_ndim.area": (lambda x: bounds.sn_lower_john_ndim(x, 1.0, 3, 1.0),
                                "area", 0, True),
    "sn_lower_john_ndim.h": (lambda x: bounds.sn_lower_john_ndim(1.0, x, 3, 1.0),
                             "h", 0, True),
    "sn_lower_via_neumann.area": (lambda x: bounds.sn_lower_via_neumann(x, 1.0, 3, 1.0),
                                  "area", 0, True),
    "sn_lower_via_neumann.width": (lambda x: bounds.sn_lower_via_neumann(1.0, x, 3, 1.0),
                                   "width", 0, True),
    "kroger_master.R": (lambda x: bounds.kroger_master(SN, 3, [1.0, x]), "R", 0, True),
    "sd_upper_ndim.area": (lambda x: bounds.sd_upper_ndim(x, 2, 1.0, 1.0), "area", 0, True),
    "sd_upper_ndim.gamma": (lambda x: bounds.sd_upper_ndim(1.0, 2, x, 1.0), "gamma", 1, False),
    "sd_upper_2d_john.length": (lambda x: bounds.sd_upper_2d_john(x, 1.0), "length", 0, True),
    "sd_lower_2d.length": (lambda x: bounds.sd_lower_2d(x, 1.0), "length", 0, True),
    "sd_lower_2d.z": (lambda x: bounds.sd_lower_2d(math.pi, x), "z", 1, False),
    "sd_heat_trace_upper.area": (lambda x: bounds.sd_heat_trace_upper(x, 2, 1.0),
                                 "area", 0, True),
    "sd_heat_trace_upper.t": (lambda x: bounds.sd_heat_trace_upper(1.0, 2, x),
                              "time", 0, True),
    "verify.tolerance": (lambda x: bounds.verify(SN, "main", [1.0], tolerance=x),
                         "tolerance", 0, False),
    "predict.length": (lambda x: asymptotics.predict("SN", x, HALF, HALF, 1.0),
                       "length", 0, True),
    "predict.gamma": (lambda x: asymptotics.predict("SN", 1.0, HALF, HALF, x),
                      "gamma", 0, True),
    "two_term_riesz.gamma": (lambda x: asymptotics.two_term_riesz("SN", 1.0, HALF, HALF,
                                                                  x, 1.0),
                             "gamma", 0, True),
    "two_term_eigenvalue.length": (
        lambda x: asymptotics.two_term_eigenvalue("SD", x, HALF, HALF, 2),
        "length", 0, True),
    "fit_second_term.gamma": (lambda x: asymptotics.fit_second_term(SN, x, (10.0, 100.0)),
                              "gamma", 1, False),
    "fit_second_term.z1": (lambda x: asymptotics.fit_second_term(SN, 1.0, (x, 100.0)),
                           "z1", 0, True),
    "fit_second_term.z2": (lambda x: asymptotics.fit_second_term(SN, 1.0, (10.0, x)),
                           "z2", 10.0, True),
    "fit_second_term.length": (
        lambda x: asymptotics.fit_second_term(SN, 1.0, (10.0, 100.0), length=x),
        "length", 0, True),
    "fit_eigenvalue_shift.length": (
        lambda x: asymptotics.fit_eigenvalue_shift(SN, 10, 100, length=x),
        "length", 0, True),
    "interval_laplacian.length": (lambda x: spectra.interval_laplacian(x, "neumann", 5),
                                  "length", 0, True),
    "rectangle_laplacian.a": (lambda x: spectra.rectangle_laplacian(x, 1.0, "neumann", 5),
                              "a", 0, True),
    "rectangle_laplacian.b": (lambda x: spectra.rectangle_laplacian(1.0, x, "neumann", 5),
                              "b", 0, True),
    "dtn_spectrum.target_h": (lambda x: fem.dtn_spectrum(RECT, "SN", 5, x),
                              "target_h", 0, True),
}


def bad_values(low, strict):
    """nan, +-inf, and the value at the lower end that the check refuses:
    low itself when strict, else the float just below it."""
    if low == -math.inf:
        return [math.nan, math.inf, -math.inf]
    return [math.nan, math.inf, -math.inf,
            low if strict else math.nextafter(low, -math.inf)]


@pytest.mark.parametrize("case, bad", [
    (case, bad) for case, (_f, _name, low, strict) in CHECKED.items()
    for bad in bad_values(low, strict)])
def test_parameter_checks_name_the_parameter(case, bad):
    call, name, low, strict = CHECKED[case]
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low}"
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a finite real{bound}, got {float(bad)}")):
        call(bad)


def test_parameter_checks_pass_valid_values_through():
    assert specfun.real(2, "x", 1) == 2.0 and type(specfun.real(2, "x", 1)) is float
    assert specfun.real(0.0, "x", 0) == 0.0
    grid = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert specfun.points(grid, "x", 0) is grid
    assert specfun.points(5.0, "x").tolist() == [5.0]
    with pytest.raises(ValueError, match=r"^x must be a finite real > 0, got 0\.0$"):
        specfun.points(grid, "x", 0, strict=True)


def test_memory_limit_is_the_lower_of_physical_memory_and_address_space(
        monkeypatch):
    # as `ulimit -v 4000000` sets it; no large array is allocated
    resource = pytest.importorskip("resource")
    unlimited = (resource.RLIM_INFINITY,) * 2
    monkeypatch.setattr(resource, "getrlimit", lambda which: unlimited)
    physical = specfun.memory_limit()
    limit = (4_096_000_000, resource.RLIM_INFINITY)
    monkeypatch.setattr(resource, "getrlimit", lambda which: limit)
    want = limit[0] if physical is None else min(physical, limit[0])
    assert specfun.memory_limit() == want
