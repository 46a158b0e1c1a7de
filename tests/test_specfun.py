"""Constants and special functions: exact values and the identities between
them."""

from __future__ import annotations

import math

import numpy as np
import pytest

from steklov import specfun


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
