"""Two-term expansions and coefficient fitting.

Planted-data checks: a spectrum built exactly from the two-term eigenvalue
formula must give back its own coefficients (to machine precision at the
eigenvalue level, to staircase-oscillation accuracy at the Riesz level).
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from steklov import asymptotics, bounds, riesz, spectra
from steklov.spectra import Spectrum


def planted_spectrum(problem, length, alpha, beta, count):
    vals = np.array([asymptotics.two_term_eigenvalue(problem, length, alpha,
                                                     beta, k)
                     for k in range(1, count + 1)])
    meta = {"n": 2, "areaF": length, "alpha": alpha, "beta": beta,
            "john": True}
    return Spectrum(problem=problem, values=vals, source="synthetic",
                    meta=meta)


def test_two_term_eigenvalue_rectangle_reduction():
    L = math.pi
    for k in range(1, 12):
        sn = asymptotics.two_term_eigenvalue("SN", L, math.pi / 2, math.pi / 2, k)
        sd = asymptotics.two_term_eigenvalue("SD", L, math.pi / 2, math.pi / 2, k)
        assert sn == pytest.approx(math.pi / L * (k - 1), abs=1e-14)
        assert sd == pytest.approx(math.pi / L * k, rel=1e-14)


def test_two_term_eigenvalue_matches_exact_rectangle():
    # the exact rectangle eigenvalues converge to the prediction
    # exponentially fast in k
    L = math.pi
    s = spectra.rectangle_sn(L, 1.0, 30)
    pred = asymptotics.two_term_eigenvalue("SN", L, math.pi / 2, math.pi / 2, 25)
    assert s.values[24] == pytest.approx(pred, abs=1e-12)


def test_riesz_level_signs_flip_between_problems():
    # SN carries +, SD carries -, so their difference is (pi/4)(1/a+1/b) z^g
    L, a, b, g, z = 2.0, math.pi / 3, math.pi / 4, 1.0, 37.0
    sn = asymptotics.two_term_riesz("SN", L, a, b, g, z)
    sd = asymptotics.two_term_riesz("SD", L, a, b, g, z)
    assert sn - sd == pytest.approx(math.pi / 4 * (1 / a + 1 / b) * z ** g,
                                    rel=1e-13)


def test_eigenvalue_level_signs_are_opposite_to_riesz():
    # larger eigenvalues (SD) mean smaller Riesz means: the eigenvalue-level
    # correction is minus for SN, plus for SD
    L, a, b = 2.0, math.pi / 3, math.pi / 3
    sn = asymptotics.two_term_eigenvalue("SN", L, a, b, 5)
    sd = asymptotics.two_term_eigenvalue("SD", L, a, b, 5)
    assert sd > sn
    assert sd - sn == pytest.approx(2 * math.pi ** 2 / (8 * L) * (2 / a),
                                    rel=1e-13)


def test_predict_validates_angles():
    with pytest.raises(ValueError):
        asymptotics.predict("SN", 1.0, 2.0, math.pi / 4, 1.0)  # obtuse
    with pytest.raises(ValueError):
        asymptotics.predict("SN", 1.0, -0.1, math.pi / 4, 1.0)
    with pytest.raises(ValueError):
        asymptotics.predict("XX", 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0, 0.0, math.pi, 4.0])
def test_angles_outside_zero_pi_are_refused(alpha):
    with pytest.raises(ValueError, match="alpha"):
        asymptotics.predict("SN", 1.0, alpha, math.pi / 4, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        asymptotics.two_term_eigenvalue("SD", 1.0, alpha, math.pi / 4, 3)
    s = Spectrum(problem="SN", values=np.arange(0, 2000, dtype=float),
                 source="synthetic",
                 meta={"areaF": math.pi, "n": 2, "alpha": alpha, "beta": 1.0})
    with pytest.raises(ValueError, match="alpha"):
        asymptotics.fit_second_term(s, 1.0, (100.0, 1500.0))


@pytest.mark.parametrize("problem", ["SN", "SD"])
def test_metadata_prediction_equals_predict(problem):
    alpha, beta = math.pi / 3, 0.4
    first = 0 if problem == "SN" else 1
    s = Spectrum(problem=problem, values=np.arange(first, first + 2000, dtype=float),
                 source="synthetic",
                 meta={"areaF": math.pi, "n": 2, "alpha": alpha, "beta": beta})
    fit = asymptotics.fit_second_term(s, 1.0, (100.0, 1500.0))
    pred = asymptotics.predict(problem, math.pi, alpha, beta, 1.0)
    assert fit.prediction == pred.second_coefficient
    assert fit.hypothesis_flags["angles_leq_half_pi"] is True


def test_predict_flags_right_angle_corners():
    p = asymptotics.predict("SN", 1.0, math.pi / 2, math.pi / 3, 1.0)
    assert p.hypothesis_flags["right_angle_corners"] == ["alpha"]
    assert p.hypothesis_flags["local_john_required"] is True
    q = asymptotics.predict("SN", 1.0, math.pi / 3, math.pi / 3, 1.0)
    assert q.hypothesis_flags["local_john_required"] is False
    assert q.hypothesis_flags["local_john_confirmed"] is True


def test_fit_recovers_rectangle_sn_coefficient():
    s = spectra.rectangle_sn(math.pi, 1.0, 5000)
    fit = asymptotics.fit_second_term(s, 1.0, (100.0, 1000.0))
    assert fit.prediction == pytest.approx(0.5, rel=1e-14)
    assert fit.coefficient == pytest.approx(0.5, rel=0.02)
    assert fit.stderr < 1e-3


def test_fit_recovers_rectangle_sd_coefficient():
    s = spectra.rectangle_sd(math.pi, 1.0, 5000)
    fit = asymptotics.fit_second_term(s, 1.0, (100.0, 1000.0))
    assert fit.prediction == pytest.approx(-0.5, rel=1e-14)
    assert fit.coefficient == pytest.approx(-0.5, rel=0.02)


def test_fit_gamma_two_same_coefficient():
    # the z^gamma coefficient is gamma-invariant under Riesz iteration
    s = spectra.rectangle_sn(math.pi, 1.0, 5000)
    fit = asymptotics.fit_second_term(s, 2.0, (100.0, 1000.0))
    assert fit.coefficient == pytest.approx(0.5, rel=0.02)


def test_fit_on_planted_sd_spectrum():
    L, a, b = 2.0, math.pi / 3, math.pi / 4
    s = planted_spectrum("SD", L, a, b, 4000)
    expect = -math.pi / 8 * (1 / a + 1 / b)
    fit = asymptotics.fit_second_term(s, 1.0, (200.0, 2000.0))
    assert fit.prediction == pytest.approx(expect, rel=1e-14)
    assert fit.coefficient == pytest.approx(expect, rel=5e-3)


def test_eigenvalue_shift_fit_is_exact_on_planted_data():
    L, a, b = 2.0, math.pi / 3, math.pi / 4
    s = planted_spectrum("SD", L, a, b, 500)
    fit = asymptotics.fit_eigenvalue_shift(s, 10, 500)
    expect = math.pi ** 2 / 8 * (1 / a + 1 / b)
    assert fit.coefficient == pytest.approx(expect, rel=1e-12)
    assert fit.prediction == pytest.approx(expect, rel=1e-14)
    assert fit.stderr < 1e-12


def test_eigenvalue_shift_fit_rectangle():
    s = spectra.rectangle_sn(math.pi, 1.0, 2000)
    fit = asymptotics.fit_eigenvalue_shift(s, 100, 2000)
    assert fit.coefficient == pytest.approx(-math.pi / 2, rel=1e-10)
    assert fit.prediction == pytest.approx(-math.pi / 2, rel=1e-14)


def test_fit_accepts_riesz_curve():
    s = spectra.rectangle_sn(math.pi, 1.0, 3000)
    grid = np.geomspace(50.0, 2000.0, 300)
    curve = riesz.riesz_curve(s, 1.0, grid)
    fit = asymptotics.fit_second_term(curve, 1.0, (100.0, 1000.0))
    assert fit.coefficient == pytest.approx(0.5, rel=0.02)
    with pytest.raises(ValueError):
        asymptotics.fit_second_term(curve, 2.0, (100.0, 1000.0))


def test_fit_rejects_bad_windows():
    s = spectra.rectangle_sn(math.pi, 1.0, 300)
    with pytest.raises(ValueError):
        asymptotics.fit_second_term(s, 1.0, (10.0, 10.0))
    with pytest.raises(ValueError):
        asymptotics.fit_second_term(s, 0.5, (10.0, 100.0))  # gamma < 1
    # a window a few ulps wide repeats sample points; the fit says why
    with pytest.raises(ValueError, match="too narrow"):
        asymptotics.fit_second_term(s, 1.0, (100.0, 100.0000000000001))


def test_fit_without_angles_has_no_prediction():
    vals = np.arange(1, 2001, dtype=float)
    s = Spectrum(problem="SD", values=vals, source="synthetic",
                 meta={"areaF": math.pi, "n": 2})
    fit = asymptotics.fit_second_term(s, 1.0, (100.0, 1500.0))
    assert fit.prediction is None
    assert fit.hypothesis_flags["angles_known"] is False
    assert "unknown" in fit.note


def test_fit_flags_obtuse_angles():
    vals = np.arange(1, 2001, dtype=float)
    s = Spectrum(problem="SD", values=vals, source="synthetic",
                 meta={"areaF": math.pi, "n": 2, "alpha": 2.0, "beta": 1.0})
    fit = asymptotics.fit_second_term(s, 1.0, (100.0, 1500.0))
    assert fit.prediction is None
    assert fit.hypothesis_flags["angles_leq_half_pi"] is False


def test_fit_error_budget_trims_window():
    s = spectra.rectangle_sn(math.pi, 1.0, 3000)
    errs = np.zeros(3000)
    errs[1000:] = 0.5          # large certified error past eigenvalue 1000
    fit = asymptotics.fit_second_term(s, 1.0, (100.0, 2500.0), errors=errs)
    assert fit.window[1] < 1300
    assert "trimmed" in fit.note
    assert fit.coefficient == pytest.approx(0.5, rel=0.05)


def test_fit_error_budget_needs_the_curve_spectrum(tmp_path):
    # a loaded curve has no spectrum to propagate the errors through
    s = spectra.rectangle_sn(math.pi, 1.0, 600)
    path = tmp_path / "curve.csv"
    riesz.save_curve(riesz.riesz_curve(s, 1.0, np.geomspace(10.0, 550.0, 300)),
                     path)
    bare = riesz.load_curve(path)
    assert asymptotics.fit_second_term(bare, 1.0, (50.0, 500.0)).window[1] > 490
    with pytest.raises(ValueError, match="needs the curve's spectrum"):
        asymptotics.fit_second_term(bare, 1.0, (50.0, 500.0),
                                    errors=np.ones(600))


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0])
def test_fit_budget_is_the_verify_allowance_over_z_gamma(gamma):
    # certificates move R_gamma(z) by gamma z^{gamma-1} sum_{nu_j - e_j < z}
    # e_j in both; the fit keeps the points where that over z^gamma stays
    # under a tenth of its coefficient
    s = spectra.rectangle_sn(math.pi, 1.0, 600)
    errs = np.zeros(600)
    errs[100:] = 0.3
    zs = np.geomspace(10.0, 500.0, 200)
    allowance = bounds.verify(s, "john2d", zs, gamma=gamma, tolerance=0.0,
                              errors=errs).tolerance
    assert riesz.error_allowance(s, gamma, zs, errs).tolist() == allowance.tolist()
    budget = allowance / zs ** gamma
    fit = asymptotics.fit_second_term(s, gamma, (10.0, 500.0), errors=errs)
    kept = zs <= fit.window[1]
    assert fit.n_points == kept.sum() and "trimmed" in fit.note
    assert budget[kept].max() <= 0.1 * abs(fit.coefficient) < budget[~kept].min()


def test_fit_budget_carries_the_gamma_factor():
    # errors of 0.03 give a budget of 0.03 (1 + 1/z) at gamma = 1, under the
    # cap of 0.05, but 0.06 (1 + 1/z) at gamma = 2, over it everywhere
    s = spectra.rectangle_sn(math.pi, 1.0, 600)
    errs = np.full(600, 0.03)
    fit = asymptotics.fit_second_term(s, 1.0, (10.0, 500.0), errors=errs)
    assert fit.window == (10.0, 500.0)
    with pytest.raises(ValueError, match="too large everywhere in the window"):
        asymptotics.fit_second_term(s, 2.0, (10.0, 500.0), errors=errs)


def test_fit_error_budget_can_exhaust_window():
    s = spectra.rectangle_sn(math.pi, 1.0, 3000)
    errs = np.full(3000, 10.0)
    with pytest.raises(ValueError):
        asymptotics.fit_second_term(s, 1.0, (100.0, 2500.0), errors=errs)


def test_k_readers_reject_bools():
    with pytest.raises(ValueError, match="k must be a positive integer, got True"):
        asymptotics.two_term_eigenvalue("SN", 1.0, math.pi / 2, math.pi / 2, True)
    s = spectra.rectangle_sn(math.pi, 1.0, 100)
    for k_min, k_max, bad in ((True, 50, True), (1, False, False)):
        with pytest.raises(ValueError, match=f"got {bad}"):
            asymptotics.fit_eigenvalue_shift(s, k_min, k_max)


def test_fit_eigenvalue_shift_validates_range():
    s = spectra.rectangle_sn(math.pi, 1.0, 100)
    with pytest.raises(ValueError):
        asymptotics.fit_eigenvalue_shift(s, 50, 40)
    with pytest.raises(ValueError):
        asymptotics.fit_eigenvalue_shift(s, 1, 1000)


SN200 = spectra.rectangle_sn(math.pi, 1.0, 200)

# id -> (call, error type, the whole message)
REFUSALS = {
    "no surface length": (
        lambda: asymptotics.fit_second_term(Spectrum("SN", SN200.values), 1.0,
                                            (10.0, 100.0)),
        ValueError, "free-surface length unknown; pass length= or attach areaF metadata"),
    "no spectrum or curve": (
        lambda: asymptotics.fit_second_term(SN200.values, 1.0, (10.0, 100.0)),
        TypeError, "source must be a Spectrum or a RieszCurve"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_the_fault(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_fit_refuses_a_window_of_a_few_ulps():
    # 200 distinct points in [100, 100 (1 + 1e-9)]: enough points, but 1
    # and 1/z are the same column to within the window's width
    with pytest.raises(ValueError, match=r"^ill-conditioned fit: window too narrow "
                                         r"\(cond = \d\.\d\de\+\d+\)$"):
        asymptotics.fit_second_term(SN200, 1.0, (100.0, 100.0 * (1 + 1e-9)))
