"""Riesz means: definitions, iteration identity, staircase, heat trace.

The sum-iteration identity and the staircase enclosure have simple
closed-form oracles on the rectangle spectrum, so most checks here compare
against independently coded expressions.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov import riesz, spectra
from steklov.riesz import RieszCurve, ValidityCeilingError


@pytest.fixture(scope="module")
def rect_sn():
    return spectra.rectangle_sn(math.pi, 1.0, 400)


def brute_riesz(values, gamma, z):
    diff = z - np.asarray(values)
    if gamma == 0.0:
        return float(np.count_nonzero(diff > 0))
    return float(np.sum(np.where(diff > 0, diff, 0.0) ** gamma))


def test_riesz_mean_matches_brute_force(rect_sn):
    for gamma in (0.0, 0.5, 1.0, 2.0):
        for z in (0.3, 5.7, 42.0):
            assert riesz.riesz_mean(rect_sn, gamma, z) == pytest.approx(
                brute_riesz(rect_sn.values, gamma, z), rel=1e-14)


def test_counting_function_is_strict(rect_sn):
    # R_0 counts nu_j < z strictly: at z = nu_2 the second mode is excluded
    z = rect_sn.values[1]
    n = riesz.riesz_mean(rect_sn, 0.0, z)
    assert n == 1.0  # only the zero mode lies strictly below


def test_riesz_mean_grid_vectorizes(rect_sn):
    zs = np.linspace(0.0, 30.0, 57)
    grid_vals = riesz.riesz_mean_grid(rect_sn, 1.0, zs)
    single = [riesz.riesz_mean(rect_sn, 1.0, float(z)) for z in zs]
    assert grid_vals == pytest.approx(single, rel=1e-14)


def full_broadcast_riesz(values, gamma, zs):
    """R_gamma summed over the whole spectrum, clipped at zero."""
    diff = np.clip(np.asarray(zs)[:, None] - np.asarray(values)[None, :], 0.0, None)
    return np.sum(diff ** gamma, axis=1)


def test_fractional_riesz_mean_grid_matches_full_spectrum_sum(rect_sn):
    # the fractional branch only broadcasts over eigenvalues below max(zs)
    zs = np.concatenate(([0.0], np.geomspace(0.05, rect_sn.ceiling, 60),
                         rect_sn.values[[1, 7, 100]]))
    for gamma in (0.5, 1.5, 2.5, 3.7):
        got = riesz.riesz_mean_grid(rect_sn, gamma, zs)
        want = full_broadcast_riesz(rect_sn.values, gamma, zs)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    assert riesz.riesz_mean_grid(rect_sn, 1.5, []).shape == (0,)


@st.composite
def random_spectra(draw):
    """Sorted spectra from 0, repeated eigenvalues allowed, ceiling > 0."""
    gaps = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=60))
    gaps.append(draw(st.floats(0.1, 5.0)))
    return spectra.Spectrum(problem="SN", values=np.cumsum([0.0] + gaps),
                            source="synthetic")


@settings(max_examples=80, deadline=None)
@given(s=random_spectra(),
       gamma=st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.0, 3.0)),
       rho=st.one_of(st.sampled_from([1.0, 2.0, 3.0]),
                     st.floats(0.2, 3.0, exclude_min=True)),
       frac=st.floats(0.01, 1.0))
def test_iteration_matches_direct_riesz_mean_random_spectra(s, gamma, rho, frac):
    # each (t - nu)_+^gamma lifts to (z - nu)_+^{gamma+rho}, so the lift of a
    # spectrum-backed curve is R_{gamma+rho} at integer and fractional
    # exponents alike (panel quadrature was 1.3e-3 off at fractional ones)
    z = frac * s.ceiling
    curve = riesz.riesz_curve(s, gamma, np.linspace(0.0, s.ceiling, 5))
    lifted = riesz.riesz_iterate(curve, rho, z)
    direct = float(riesz.riesz_mean_grid(s, gamma + rho, z)[0])
    assert lifted == pytest.approx(direct, rel=1e-12, abs=1e-12 * s.ceiling ** (gamma + rho))


def test_spectrum_lift_matches_defining_integral():
    # the lift of a spectrum-backed curve against B * integral_0^z
    # (z-t)^{rho-1} R_gamma(t) dt, integrated in mpmath after t = z - u^{1/rho}
    # (which removes the endpoint singularity), split at the eigenvalues
    mpmath = pytest.importorskip("mpmath")
    values = [0.0, 0.7, 0.7, 2.3, 4.0]
    s = spectra.Spectrum(problem="SN", values=np.array(values), source="synthetic")
    z = 3.1
    for gamma, rho in ((0.0, 0.5), (0.5, 0.3), (0.05, 0.21), (1.5, 2.5), (2.7, 1.2)):
        curve = riesz.riesz_curve(s, gamma, np.linspace(0.0, s.ceiling, 5))
        with mpmath.workdps(30):
            g, r, zz = mpmath.mpf(gamma), mpmath.mpf(rho), mpmath.mpf(z)

            def integrand(u):
                t = zz - u ** (1 / r)
                return sum((t - nu) ** g for nu in values if nu < t) / r

            knots = sorted({(zz - nu) ** r for nu in values if nu < z} | {0})
            front = mpmath.gamma(g + r + 1) / (mpmath.gamma(g + 1) * mpmath.gamma(r))
            want = float(front * mpmath.quad(integrand, knots))
        assert riesz.riesz_iterate(curve, rho, z) == pytest.approx(want, rel=1e-12)


def test_validity_ceiling_enforced(rect_sn):
    ceiling = rect_sn.ceiling
    with pytest.raises(ValidityCeilingError):
        riesz.riesz_mean(rect_sn, 1.0, ceiling * 1.01)
    # below the ceiling is fine
    riesz.riesz_mean(rect_sn, 1.0, ceiling * 0.99)


def test_curve_carries_ceiling_and_meta(rect_sn):
    c = riesz.riesz_curve(rect_sn, 1.0, np.linspace(0.0, 50.0, 101))
    assert c.validity_ceiling == pytest.approx(rect_sn.ceiling)
    assert c.meta["problem"] == "SN"
    assert c.gamma == 1.0


def test_iteration_lifts_gamma(rect_sn):
    """R_{gamma+rho}(z) = B(gamma,rho) integral of (z-t)^{rho-1} R_gamma(t);
    lifting the exact R_1 curve by rho = 1 must reproduce direct R_2."""
    grid = np.linspace(0.0, 60.0, 2400)
    c1 = riesz.riesz_curve(rect_sn, 1.0, grid)
    for z in (5.0, 20.0, 50.0):
        direct = riesz.riesz_mean(rect_sn, 2.0, z)
        lifted = riesz.riesz_iterate(c1, 1.0, z)
        assert lifted == pytest.approx(direct, rel=1e-6)


def test_iteration_from_counting_function(rect_sn):
    # R_0 -> R_1 with rho = 1: integral of the counting function
    grid = np.linspace(0.0, 25.0, 6000)
    c0 = riesz.riesz_curve(rect_sn, 0.0, grid)
    lifted = riesz.riesz_iterate(c0, 1.0, 20.0)
    direct = riesz.riesz_mean(rect_sn, 1.0, 20.0)
    assert lifted == pytest.approx(direct, rel=2e-4)  # staircase integrand


def test_iterate_rejects_out_of_range(rect_sn):
    c1 = riesz.riesz_curve(rect_sn, 1.0, np.linspace(0.0, 10.0, 50))
    with pytest.raises(ValidityCeilingError):
        riesz.riesz_iterate(c1, 1.0, rect_sn.ceiling * 1.01)
    with pytest.raises(ValueError):
        riesz.riesz_iterate(c1, 0.0, 5.0)    # rho must be positive
    # a grid-only curve cannot integrate past its grid
    bare = RieszCurve(gamma=1.0, grid=c1.grid, values=c1.values,
                      validity_ceiling=c1.validity_ceiling)
    with pytest.raises(ValueError):
        riesz.riesz_iterate(bare, 1.0, 11.0)


def test_iterate_grid_only_curve_matches_spectrum_path(rect_sn):
    grid = np.linspace(0.0, 30.0, 3000)
    c1 = riesz.riesz_curve(rect_sn, 1.0, grid)
    bare = RieszCurve(gamma=1.0, grid=grid, values=c1.values,
                      validity_ceiling=c1.validity_ceiling)
    direct = riesz.riesz_iterate(c1, 1.0, 25.0)
    pwl = riesz.riesz_iterate(bare, 1.0, 25.0, tol=1e-5)
    assert pwl == pytest.approx(direct, rel=1e-5)


def test_partial_and_mean_sum(rect_sn):
    assert riesz.partial_sum(rect_sn, 3) == pytest.approx(
        float(np.sum(rect_sn.values[:3])), rel=1e-15)
    assert riesz.mean_sum(rect_sn, 7) == pytest.approx(
        float(np.mean(rect_sn.values[:7])), rel=1e-15)
    with pytest.raises(ValueError):
        riesz.partial_sum(rect_sn, 0)
    with pytest.raises(ValueError):
        riesz.partial_sum(rect_sn, 10 ** 6)
    # the grid and the one-point calls index one running sum, bit for bit
    ks = np.arange(1, len(rect_sn) + 1)
    sums = riesz.partial_sum(rect_sn, ks)
    assert sums.tolist() == [riesz.partial_sum(rect_sn, k) for k in ks.tolist()]
    assert sums.tolist() == np.cumsum(rect_sn.values).tolist()
    assert riesz.mean_sum(rect_sn, ks).tolist() == (sums / ks).tolist()
    for bad in ([0, 3], [len(rect_sn) + 1], [2.0]):
        with pytest.raises(ValueError):
            riesz.partial_sum(rect_sn, bad)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=300))
def test_partial_sums_are_within_the_recursive_summation_bound(values):
    # summed in order, the k-th prefix of nonnegative terms is within
    # (k-1) 2^-53 of the exact sum, relative (Higham, Accuracy and Stability
    # of Numerical Algorithms, 4.2)
    s = spectra.Spectrum(problem="SN", values=np.concatenate(([0.0], np.sort(values))),
                         source="synthetic")
    sums = riesz.partial_sum(s, np.arange(1, len(s) + 1))
    for k, got in enumerate(sums.tolist(), start=1):
        exact = math.fsum(s.values[:k].tolist())
        assert abs(got - exact) <= (k - 1) * 2.0 ** -53 * exact


def test_staircase_sum_formula():
    # closed walk: sum_{k=0}^{floor(R)} (R - k)
    for R in (0.0, 0.5, 1.0, 3.75, 17.0):
        m = math.floor(R)
        expect = (m + 1) * R - m * (m + 1) / 2
        assert riesz.staircase_sum(R) == pytest.approx(expect, rel=1e-14)


def test_staircase_enclosure_random():
    rng = np.random.default_rng(91)
    for R in rng.uniform(0.0, 100.0, size=2000):
        lo, hi = riesz.staircase_bounds(R)
        val = riesz.staircase_sum(R)
        assert lo - 1e-12 <= val <= hi + 1e-12


def test_staircase_lower_bound_tight_at_integers():
    for R in range(0, 60):
        lo, _hi = riesz.staircase_bounds(float(R))
        assert riesz.staircase_sum(float(R)) == pytest.approx(lo, abs=1e-12)


def test_heat_trace_certified():
    sd = spectra.rectangle_sd(math.pi, 1.0, 300)
    val, tail = riesz.heat_trace(sd, 0.5)
    brute = float(np.sum(np.exp(-sd.values * 0.5)))
    assert val == pytest.approx(brute, rel=1e-15)
    assert 0 < tail < 1e-10


@settings(max_examples=40, deadline=None)
@given(gaps=st.lists(st.floats(0.05, 20.0), min_size=20, max_size=400),
       ts=st.lists(st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u), min_size=1,
                   max_size=20))
def test_heat_trace_grid_sums_every_exponential(gaps, ts):
    # terms that underflow to 0.0 are not evaluated; the sums must still be
    # bit for bit the plain sum of e^{-eta t} over the whole spectrum
    s = spectra.Spectrum(problem="SD", values=np.cumsum(gaps), source="synthetic")
    values, tails = riesz.heat_trace(s, ts, tol=math.inf)
    assert values.tolist() == [float(np.sum(np.exp(-s.values * t))) for t in ts]
    assert [riesz.heat_trace(s, t, tol=math.inf) for t in ts] == list(zip(values, tails))


def test_heat_trace_needs_enough_modes():
    sd = spectra.rectangle_sd(math.pi, 1.0, 10)
    with pytest.raises(ValueError):
        riesz.heat_trace(sd, 0.01)   # tail cannot be certified


def test_heat_trace_needs_two_eigenvalues():
    one = spectra.rectangle_sd(math.pi, 1.0, 1)
    with pytest.raises(ValueError, match="needs at least two eigenvalues, "
                                         "the spectrum has 1"):
        riesz.heat_trace(one, 1.0)


def test_heat_trace_rejects_sn():
    sn = spectra.rectangle_sn(math.pi, 1.0, 50)
    with pytest.raises(ValueError):
        riesz.heat_trace(sn, 1.0)


def test_legendre_bound_is_valid():
    # on the exact curve itself, sup_z (k z - R_1(z)) equals the k-term sum,
    # attained anywhere between eta_k and eta_{k+1} (the mean is piecewise
    # linear with slope exactly k there)
    sd = spectra.rectangle_sd(math.pi, 1.0, 400)
    grid = np.linspace(0.0, 380.0, 4000)
    c1 = riesz.riesz_curve(sd, 1.0, grid)
    for k in (1, 5, 20):
        lb = riesz.legendre_sum_bound(c1, k)
        exact = riesz.partial_sum(sd, k)
        assert lb.value <= exact + 1e-9
        assert not lb.at_boundary
        assert lb.value == pytest.approx(exact, rel=1e-12)


def test_legendre_rejects_nonconvex():
    grid = np.array([0.0, 1.0, 2.0, 3.0])
    vals = np.array([0.0, 2.0, 2.5, 6.0])   # concave kink at z = 1
    c = RieszCurve(gamma=1.0, grid=grid, values=vals, validity_ceiling=10.0)
    with pytest.raises(ValueError):
        riesz.legendre_sum_bound(c, 2)


def test_legendre_rejects_a_bool_k():
    c1 = riesz.riesz_curve(spectra.rectangle_sd(math.pi, 1.0, 50), 1.0,
                           np.linspace(0.0, 40.0, 200))
    with pytest.raises(ValueError, match="k must be a positive integer, got True"):
        riesz.legendre_sum_bound(c1, True)


def test_curve_save_load_roundtrip(rect_sn, tmp_path):
    c = riesz.riesz_curve(rect_sn, 1.5, np.linspace(0.5, 40.0, 37))
    path = tmp_path / "curve.csv"
    riesz.save_curve(c, path)
    back = riesz.load_curve(path)
    assert back.gamma == pytest.approx(1.5)
    assert back.grid == pytest.approx(c.grid, rel=0, abs=0)
    assert back.values == pytest.approx(c.values, rel=0, abs=0)
    assert back.validity_ceiling == pytest.approx(c.validity_ceiling)
    assert back.meta["problem"] == "SN"


def test_curve_save_to_buffer(rect_sn):
    c = riesz.riesz_curve(rect_sn, 1.0, np.linspace(0.0, 5.0, 6))
    buf = io.StringIO()
    riesz.save_curve(c, buf)
    assert buf.getvalue().splitlines()[0].startswith("# gamma=1")
