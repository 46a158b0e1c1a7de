"""Riesz means: definitions, iteration identity, staircase, heat trace.

The sum-iteration identity and the staircase enclosure have simple
closed-form oracles on the rectangle spectrum, so most checks here compare
against independently coded expressions.
"""

from __future__ import annotations

import io
import math
import re
import tracemalloc
import warnings

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


def test_fractional_riesz_mean_grid_works_in_small_blocks():
    # 14000 z over 701 eigenvalues took 157 MB broadcast in one block, 2 MB
    # in rows of 2^17-entry blocks; each row's sum is its own, so a block
    # size cannot change it
    s = spectra.rectangle_sn(math.pi, 1.0, 800)
    zs = np.arange(0.0, 700.0, 0.05)
    tracemalloc.start()
    try:
        got = riesz.riesz_mean_grid(s, 1.5, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    below = s.values[:np.searchsorted(s.values, zs[-1])]
    for i in (0, 1, 7000, zs.size - 1):
        assert got[i] == np.sum(np.clip(zs[i] - below, 0.0, None) ** 1.5)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_riesz_mean_grid_keeps_the_grid_shape(gamma):
    s = spectra.rectangle_sn(math.pi, 1.0, 50)
    zs = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, s.values[3]]])
    got = riesz.riesz_mean_grid(s, gamma, zs)
    assert got.shape == zs.shape
    assert got.tobytes() == riesz.riesz_mean_grid(s, gamma, zs.ravel()).tobytes()


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_fractional_riesz_mean_grid_rows_across_block_ends(extra):
    # the W = 1001 eigenvalues below 1000 make each row, 2^17 // W = 130
    # rows a block; the grid is unsorted and repeats its largest point, and
    # past a block end the last z's row once held the first z's full row,
    # whose terms beyond the last z's count would show if left in it
    s = spectra.rectangle_sn(math.pi, 1.0, 5000)
    width = int(np.searchsorted(s.values, 1000.0))
    rows = 2 ** 17 // width
    zs = np.random.default_rng(rows + extra).uniform(0.1, 1000.0, rows + extra)
    zs[0], zs[1], zs[-1] = 1000.0, 1000.0, 0.1
    got = riesz.riesz_mean_grid(s, 1.5, zs)
    assert got.tolist() == [np.sum(np.clip(z - s.values[:width], 0.0, None) ** 1.5)
                            for z in zs]


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


@settings(max_examples=80, deadline=None)
@given(s=random_spectra(),
       gamma=st.floats(0.0, 3.0, exclude_min=True, exclude_max=True).filter(
           lambda g: g % 1.0 != 0.0),
       data=st.data())
def test_fractional_riesz_mean_grid_is_the_clipped_sum_over_its_widest_row(
        s, gamma, data):
    # z = 0, a stored eigenvalue (not counted: the strict convention) and a
    # z up to nu_2, then any z, in any order, with a repeated point
    vals = s.values
    point = st.one_of(st.sampled_from(vals.tolist()), st.floats(0.0, s.ceiling))
    zs = [0.0, data.draw(st.sampled_from(vals.tolist())),
          data.draw(st.floats(0.0, vals[1]))]
    zs += data.draw(st.lists(point, max_size=20))
    zs = data.draw(st.permutations(zs + [data.draw(st.sampled_from(zs))]))
    width = int(np.searchsorted(vals, zs, side="left").max())
    got = riesz.riesz_mean_grid(s, gamma, zs)
    assert got.tolist() == [np.sum(np.clip(z - vals[:width], 0.0, None) ** gamma)
                            for z in zs]


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


def integer_riesz_from_fresh_prefixes(values, p, zs):
    """R_p at zs from prefix sums of nu^j built for this call alone."""
    counts = np.searchsorted(values, zs, side="left")
    out = zs ** p * counts
    sign = -1.0
    for j in range(1, p + 1):
        prefix = np.concatenate(([0.0], np.cumsum(values ** j)))
        out += sign * math.comb(p, j) * zs ** (p - j) * prefix[counts]
        sign = -sign
    return out


def test_prefix_sums_are_built_once_per_values_array(monkeypatch):
    # riesz_mean_grid at gamma 0..3, riesz_iterate to an integer exponent,
    # partial_sum and mean_sum read one set of prefixes, bit for bit the
    # sums built afresh; assigning new values builds new ones
    s = spectra.rectangle_sd(math.pi, 1.0, 300)
    zs = np.linspace(0.0, s.ceiling, 41)
    fresh = {g: integer_riesz_from_fresh_prefixes(s.values, g, zs) for g in range(4)}
    at_30 = integer_riesz_from_fresh_prefixes(s.values, 3, np.array([30.0]))[0]
    sums = np.cumsum(s.values)
    other = spectra.rectangle_sd(math.pi, 2.0, 300).values
    other_2 = integer_riesz_from_fresh_prefixes(other, 2, zs)
    cumsum, calls = np.cumsum, []
    monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
    curve = riesz.riesz_curve(s, 1.0, zs)
    for _ in range(2):
        for g in range(4):
            assert riesz.riesz_mean_grid(s, g, zs).tolist() == fresh[g].tolist()
        assert riesz.riesz_iterate(curve, 2.0, 30.0) == at_30
        assert riesz.partial_sum(s, np.arange(1, 301)).tolist() == sums.tolist()
        assert riesz.mean_sum(s, 7) == sums[6] / 7
    assert len(calls) == 3
    s.values = other
    assert riesz.partial_sum(s, 300) == cumsum(other)[-1]
    assert riesz.riesz_mean_grid(s, 2, zs).tolist() == other_2.tolist()
    assert len(calls) == 5


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


def heat_cut(s, t, tol):
    """K(t) as heat_trace's docstring defines it: the count of eigenvalues
    eta with eta t <= c = min(708, max(eta_1 t + ln n + 53 ln 2 + 1,
    ln(2 n / (tol - geometric tail)) + 1)), each eta compared with fl(c / t)."""
    vals, n = s.values, len(s)
    gap = float(np.diff(vals[-max(2, n // 10):]).min())
    geo = math.exp(-vals[-1] * t) / -math.expm1(-gap * t)
    if geo >= tol:
        need = math.inf
    elif tol == math.inf:
        need = -math.inf
    else:
        need = math.log(2 * n / (tol - geo)) + 1
    c = min(708.0, max(vals[0] * t + math.log(n) + 53 * math.log(2) + 1, need))
    return int(np.searchsorted(vals, c / t, side="right"))


def padded_heat_sum(s, t, keep):
    """np.sum of e^{-eta t} over the first ``keep`` eigenvalues, padded with
    0.0 to the next power of two >= keep, at most len(s)."""
    width = min(len(s), 1 << (keep - 1).bit_length()) if keep else 0
    row = np.zeros(width)
    row[:keep] = np.exp(s.values[:keep] * -t)
    return float(np.sum(row))


def heat_rounding(s, t, keep, value):
    """The bound on the value's rounding that heat_trace's docstring adds to
    the tail: value (ceil(log2 n) + 29 + eta_K t) 2^-52 (1 + 2^-20)."""
    top = s.values[keep - 1] * t if keep else 0.0
    return value * ((math.ceil(math.log2(len(s))) + 29.0 + top)
                    * 2.0 ** -52 * (1.0 + 2.0 ** -20))


@settings(max_examples=40, deadline=None)
@given(gaps=st.lists(st.floats(0.05, 20.0), min_size=20, max_size=400),
       ts=st.lists(st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u), min_size=1,
                   max_size=20),
       tol=st.sampled_from([math.inf, 1e-10, 1e-20]))
def test_heat_trace_grid_sums_every_exponential(gaps, ts, tol):
    # each value is bit for bit np.sum of the terms up to the row's cut K(t),
    # padded with 0.0 to the row's width, and its one-point call; value +
    # tail is never below the float sum of every term
    s = spectra.Spectrum(problem="SD", values=np.cumsum(gaps), source="synthetic")
    try:
        values, tails = riesz.heat_trace(s, ts, tol=tol)
    except ValueError as exc:
        assert "exceeds tolerance" in str(exc)
        return
    keeps = [heat_cut(s, t, tol) for t in ts]
    assert values.tolist() == [padded_heat_sum(s, t, k) for t, k in zip(ts, keeps)]
    assert [riesz.heat_trace(s, t, tol=tol) for t in ts] == list(zip(values, tails))
    plain = np.array([np.sum(np.exp(-s.values * t)) for t in ts])
    assert np.all(values + tails >= plain)
    # the tail counts each skipped term at a bound on the largest of them,
    # and the value's rounding
    n = len(s)
    for t, k, value, tail in zip(ts, keeps, values, tails):
        skipped = (n - k) * max(math.exp(-s.values[k] * t), 2.0 ** -1021) if k < n else 0.0
        assert tail >= skipped + heat_rounding(s, t, k, value)


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=400),
       u=st.floats(-3.0, 3.0))
def test_heat_trace_is_the_exact_sum_to_its_rounding(gaps, u):
    # against the exact sum at 40 digits, where the cut sits below 708:
    # - the value is within (ceil(log2 n) + 1) 2^-53 of it, relative, for the
    #   sum and the skipped terms (each term past the cut is below
    #   e^{-1} 2^-53 e^{-eta_1 t} / n), plus each kept term's own error: its
    #   exponent fl(eta t) is off by at most eta t 2^-53 relative, and exp
    #   by under one ulp, 2^-52 relative;
    # - value + tail, as a float, bounds it from above.
    mpmath = pytest.importorskip("mpmath")
    s = spectra.Spectrum(problem="SD", values=np.cumsum(gaps), source="synthetic")
    t, n = 10.0 ** u, len(s)
    if s.values[0] * t + math.log(n) + 53 * math.log(2) + 1 > 708:
        return
    value, tail = riesz.heat_trace(s, t, tol=math.inf)
    keep = heat_cut(s, t, math.inf)
    with mpmath.workdps(40):
        ulp = mpmath.mpf(2) ** -53
        x = [mpmath.mpf(eta) * mpmath.mpf(t) for eta in s.values]
        terms = [mpmath.exp(-xj) for xj in x]
        exact = mpmath.fsum(terms)
        own = ulp * mpmath.fsum((xj + 2) * e for xj, e in zip(x[:keep], terms))
        allow = (math.ceil(math.log2(n)) + 1) * ulp * exact + own
        assert abs(value - exact) <= allow
        assert value + tail >= exact


def test_heat_trace_passes_a_tolerance_below_its_rounding():
    # the cut keeps the skipped terms under half of tol: at 1e-20, far
    # below the 3e-17 the value's rounding alone would skip, the call passes,
    # and its tail past the bound on the value's rounding is under 1e-20
    s = spectra.rectangle_sd(math.pi, 1.0, 5000)
    ts = [0.1, 1.0]
    values, tails = riesz.heat_trace(s, ts, tol=1e-20)
    rounding = [heat_rounding(s, t, heat_cut(s, t, 1e-20), v) for t, v in zip(ts, values)]
    assert np.all(tails - rounding <= 1e-20 + 4 * np.spacing(tails))
    loose, loose_tails = riesz.heat_trace(s, ts)
    assert np.all(np.abs(values - loose) <= 4 * np.spacing(values))
    rounding = [heat_rounding(s, t, heat_cut(s, t, 1e-10), v) for t, v in zip(ts, loose)]
    assert np.all(loose_tails - rounding > 1e-18)


def test_heat_trace_of_subnormal_terms_is_all_tail():
    # e^{-720} is subnormal: the plain sum is e^{-720}, the value 0.0 and
    # both terms are counted in the tail at 2^-1021 each
    s = spectra.Spectrum(problem="SD", values=np.array([1.0, 2.0]), source="synthetic")
    assert float(np.sum(np.exp(-s.values * 720.0))) == math.exp(-720.0) > 0.0
    assert riesz.heat_trace(s, 720.0, tol=math.inf) == (0.0, 2 * 2.0 ** -1021)


def test_heat_trace_at_a_tiny_t_keeps_every_term():
    # 708 / 1e-320 overflows: every term is kept, and each is 1.0
    s = spectra.rectangle_sd(math.pi, 1.0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert riesz.heat_trace(s, 1e-320, tol=math.inf)[0] == 50.0


def test_heat_trace_keeps_the_grid_shape():
    s = spectra.rectangle_sd(math.pi, 1.0, 300)
    ts = np.array([[0.5, 1.0], [1.5, 2.0], [0.2, 0.5]])
    flat = riesz.heat_trace(s, ts.ravel())
    for got, want in zip(riesz.heat_trace(s, ts), flat):
        assert got.shape == ts.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_heat_trace_grid_is_its_one_point_calls_across_block_ends(extra):
    # t in [0.0115, 0.022] keeps 2049 to 4096 of the 5000 terms, so every
    # row is 4096 wide, and 2^16 // 4096 = 16 rows fill one of the heat
    # trace's blocks; the grid is unsorted and repeats a point; past a block
    # end, the last t's row once held the first t's, whose terms beyond the
    # last t's cut are large enough to show if left in it
    s = spectra.rectangle_sd(math.pi, 1.0, 5000)
    rows = 2 ** 16 // 4096
    rng = np.random.default_rng(rows + extra)
    ts = rng.uniform(0.0115, 0.022, rows + extra)
    ts[0], ts[1], ts[-1] = 0.0115, 0.0115, 0.022
    keeps = [heat_cut(s, t, 1e-10) for t in ts]
    assert all(2048 < k <= 4096 for k in keeps)
    values, tails = riesz.heat_trace(s, ts)
    assert [riesz.heat_trace(s, t) for t in ts] == list(zip(values, tails))
    assert values.tolist() == [padded_heat_sum(s, t, k) for t, k in zip(ts, keeps)]


@pytest.mark.parametrize("tol", [math.nan, -1e-10])
def test_tolerances_must_be_nonnegative(tol):
    sd = spectra.rectangle_sd(math.pi, 1.0, 20)
    with pytest.raises(ValueError, match="tol must be a real >= 0"):
        riesz.heat_trace(sd, 0.01, tol=tol)
    # a coarse grid-only curve: the default tolerance refuses it
    c1 = riesz.riesz_curve(spectra.rectangle_sn(math.pi, 1.0, 200), 1.0,
                           np.linspace(0.0, 50.0, 6))
    bare = RieszCurve(gamma=1.0, grid=c1.grid, values=c1.values,
                      validity_ceiling=c1.validity_ceiling)
    with pytest.raises(ValueError, match="too coarse"):
        riesz.riesz_iterate(bare, 1.0, 40.0)
    with pytest.raises(ValueError, match="tol must be a real >= 0"):
        riesz.riesz_iterate(bare, 1.0, 40.0, tol=tol)
    assert riesz.riesz_iterate(bare, 1.0, 40.0, tol=math.inf) > 0


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


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
def test_error_allowance_covers_eigenvalues_just_above_z(gamma):
    # a computed nu_j in [z, z + e_j) may stand for a true eigenvalue below z:
    # the spectrum lowered by its certificates gains 25.0 in R_1 just below
    # nu_50, where summing e_j over nu_j < z alone allowed 24.5
    s = spectra.rectangle_sn(math.pi, 1.0, 600)
    errors = np.full(600, 0.5)
    errors[0] = 0.0
    low = spectra.Spectrum(problem="SN", values=s.values - errors, meta=s.meta)
    zs = np.linspace(0.01, low.ceiling, 4000)
    r = riesz.riesz_mean_grid(s, gamma, zs)
    gain = riesz.riesz_mean_grid(low, gamma, zs) - r
    allowance = riesz.error_allowance(s, gamma, zs, errors)
    assert np.all(gain <= allowance + 1e-12 * (1.0 + r))
    z = s.values[50] - 1e-9
    if gamma == 1.0:
        assert riesz.error_allowance(s, 1.0, [z], errors)[0] == pytest.approx(25.0)


def test_iterate_at_or_below_zero_is_zero(rect_sn):
    curve = riesz.riesz_curve(rect_sn, 1.0, np.linspace(0.0, 50.0, 101))
    assert riesz.riesz_iterate(curve, 1.0, 0.0) == 0.0
    assert riesz.riesz_iterate(curve, 1.0, -1.0) == 0.0


SN200 = spectra.rectangle_sn(math.pi, 1.0, 200)

# id -> (call on the path of a file holding text, text, the whole message,
# with {path} for that path)
REFUSALS = {
    "grid and values differ": (
        lambda path: RieszCurve(1.0, [0.0, 1.0, 2.0], [0.0, 1.0], 10.0), None,
        "grid and values must have equal length >= 2"),
    "grid not increasing": (
        lambda path: RieszCurve(1.0, [0.0, 2.0, 1.0], [0.0, 1.0, 2.0], 10.0), None,
        "grid must be strictly increasing"),
    "repeated top eigenvalues": (
        lambda path: riesz.heat_trace(spectra.Spectrum("SD", [1.0, 2.0, 3.0, 3.0]), 1.0),
        None, "cannot certify the tail: repeated eigenvalues in the last decile"),
    "legendre of a gamma = 2 curve": (
        lambda path: riesz.legendre_sum_bound(
            riesz.riesz_curve(SN200, 2.0, np.linspace(0.0, 50.0, 101)), 3), None,
        "legendre_sum_bound needs a gamma = 1 curve"),
    "curve file without a ceiling": (
        riesz.load_curve, "# gamma=1\nz,value\n0,0\n1,1\n",
        "{path}: missing gamma/validity_ceiling header or data"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_the_fault(case, tmp_path):
    call, text, message = REFUSALS[case]
    path = tmp_path / "c.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        call(path)
