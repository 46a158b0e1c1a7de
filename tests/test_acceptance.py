"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Each criterion prints a single summary line (collected again in the terminal
summary by conftest.py).  The suite exercises the library end to end: FEM
oracle accuracy, every eigenvalue-counting bound at scale, asymptotic
coefficient recovery, the sum/bracket inequalities, and CLI determinism.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
import time

import numpy as np

from steklov import asymptotics, bounds, fem, geometry, riesz, spectra, specfun
from steklov.geometry import CylinderDomain, RectangleBase

RESULTS: list[str] = []

RECT = geometry.rectangle_domain(math.pi, 1.0)
SN5000 = spectra.rectangle_sn(math.pi, 1.0, 5000)
SD5000 = spectra.rectangle_sd(math.pi, 1.0, 5000)
GRID = np.linspace(0.1, 1000.0, 2000)


def criterion(num: int, label: str):
    """Record a PASS/FAIL line for the wrapped test, then let pytest see it."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                line = f"FAIL  {num:02d} {label}  [{type(exc).__name__}: {exc}]"
                RESULTS.append(line)
                print(line)
                raise
            line = f"PASS  {num:02d} {label}" + (f"  [{detail}]" if detail else "")
            RESULTS.append(line)
            print(line)
        return wrapper
    return deco


# ---------------------------------------------------------------------------

@criterion(1, "fem-oracle: rectangle SN/SD within 1% at h=0.02, order >= 1.5")
def test_01_fem_rectangle_oracle():
    hs = (0.08, 0.04, 0.02)
    details = []
    for problem, exact in (("SN", SN5000.values[1:11]), ("SD", SD5000.values[:10])):
        t0 = time.perf_counter()
        errs = []
        for h in hs:
            s = fem.dtn_spectrum(RECT, problem, 11 if problem == "SN" else 10,
                                 target_h=h)
            vals = s.values[1:] if problem == "SN" else s.values
            errs.append(float(np.max(np.abs(vals - exact) / exact)))
        elapsed = time.perf_counter() - t0
        order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        assert errs[-1] <= 0.01, f"{problem}: {errs[-1]:.4%} at h=0.02"
        assert order >= 1.5, f"{problem}: order {order:.2f}"
        assert elapsed <= 60.0, f"{problem}: {elapsed:.1f}s"
        details.append(f"{problem} {errs[-1]:.3%} order {order:.2f}")
    return ", ".join(details)


@criterion(2, "SN lower bound holds on 5000-mode rectangle, 2000-pt grid")
def test_02_sn_riesz_lower_rectangle():
    rep = bounds.verify(SN5000, "john2d", GRID)
    assert rep.status == "holds"
    assert not rep.violations
    assert rep.min_margin >= -1e-9
    return f"min margin {rep.min_margin:.3e}"


@criterion(3, "SN second-term fit on [100,1000] = 0.500 +/- 2%")
def test_03_sn_second_term_fit():
    fit = asymptotics.fit_second_term(SN5000, 1.0, (100.0, 1000.0))
    assert fit.prediction == 0.5
    assert abs(fit.coefficient - 0.5) <= 0.01
    return f"coefficient {fit.coefficient:.6f}"


@criterion(4, "SD upper bound holds; second-term fit = -0.500 +/- 2%")
def test_04_sd_riesz_upper_and_fit():
    rep = bounds.verify(SD5000, "sd-john2d", GRID)
    assert rep.status == "holds" and not rep.violations
    fit = asymptotics.fit_second_term(SD5000, 1.0, (100.0, 1000.0))
    assert fit.prediction == -0.5
    assert abs(fit.coefficient + 0.5) <= 0.01
    return f"min margin {rep.min_margin:.3e}, coefficient {fit.coefficient:.6f}"


@criterion(5, "SD area upper bound: margin nonnegative on the whole grid")
def test_05_sd_area_upper():
    rep = bounds.verify(SD5000, "sd-upper", GRID)
    assert rep.status == "holds" and not rep.violations
    assert rep.min_margin > 0.0
    return f"min margin {rep.min_margin:.3e}"


@criterion(6, "SD lower bound holds on [1,1000]")
def test_06_sd_riesz_lower():
    rep = bounds.verify(SD5000, "sd-lower2d", np.linspace(1.0, 1000.0, 2000),
                        domain=RECT)
    assert rep.status == "holds" and not rep.violations
    return f"min margin {rep.min_margin:.3e}"


@criterion(7, "right-isoceles triangle: certified FEM bound + coefficient")
def test_07_triangle_bound_certified():
    tri = geometry.isoceles_triangle_domain(2.0, math.pi / 4)
    s, errs = fem.dtn_with_error(tri, "SN", 160, target_h=0.004)
    assert len(s) >= 150

    grid = np.linspace(1.0, 230.0, 300)
    rep = bounds.verify(s, "triangle", grid, domain=tri, errors=errs)
    assert rep.status == "holds" and not rep.violations

    # strong certification: margin exceeds the propagated FEM allowance
    propagated = rep.tolerance - 1e-9 * (1.0 + np.abs(rep.bound_values))
    strong = rep.margins >= propagated
    z_star = float(grid[np.argmin(strong) - 1]) if not strong.all() else float(grid[-1])
    assert z_star >= 100.0, f"strong certification only to z={z_star:.0f}"

    fit = asymptotics.fit_second_term(s, 1.0, (30.0, 230.0), errors=errs)
    assert abs(fit.coefficient - 1.0) <= 0.1
    assert fit.coefficient > 1.0 / math.pi
    return (f"{len(s)} modes, certified to z={z_star:.0f}, "
            f"coefficient {fit.coefficient:.4f} (bound level {1/math.pi:.4f})")


@criterion(8, "sum bounds, S_k <= 1, brackets, master inequality (k <= 500)")
def test_08_sum_bounds_and_brackets():
    cyl = CylinderDomain(3, RectangleBase(math.pi, math.pi), 1.0)
    cases = [("rectangle", spectra.rectangle_sn(math.pi, 1.0, 501)),
             ("box cylinder", spectra.cylinder_spectrum(cyl, "SN", 501))]
    details = []
    rng = np.random.default_rng(7)
    for name, s in cases:
        n, area = s.meta["n"], s.meta["areaF"]
        worst_margin, worst_s = math.inf, -math.inf
        for k in range(1, 501):
            kb = bounds.kroger_sum_bound(s, k)
            assert kb.form == "john"
            worst_margin = min(worst_margin, kb.margin)
            w = specfun.semiclassical_scale(n, k, area)
            s_k = n / (n - 1) * riesz.mean_sum(s, k) / w
            worst_s = max(worst_s, s_k)
            lo, hi = bounds.eigenvalue_bracket(s, k)
            nu_next = float(s.values[k])
            assert lo - 1e-9 <= nu_next <= hi + 1e-9
        assert worst_margin >= -1e-9
        assert worst_s <= 1.0 + 1e-12
        slack = math.inf
        for _ in range(100):
            k = int(rng.integers(1, 501))
            r = float(rng.uniform(0.05, 3.0)) * specfun.semiclassical_scale(n, k, area)
            lhs, rhs = bounds.kroger_master(s, k, r)
            slack = min(slack, rhs - lhs)
            assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))
        details.append(f"{name}: margin {worst_margin:.3f}, max S {worst_s:.4f}, "
                       f"master slack {slack:.2f}")
    return "; ".join(details)


@criterion(9, "Riesz iteration matches direct R2 to 1e-6 relative")
def test_09_riesz_iteration():
    curve = riesz.riesz_curve(SN5000, 1.0, np.linspace(0.0, 55.0, 300))
    rels = []
    for z in (5.0, 20.0, 50.0):
        lifted = riesz.riesz_iterate(curve, 1.0, z)
        direct = riesz.riesz_mean(SN5000, 2.0, z)
        rels.append(abs(lifted - direct) / direct)
        assert rels[-1] <= 1e-6
    return f"max rel dev {max(rels):.2e}"


@criterion(10, "staircase enclosure: 10^4 random R, exact at integers")
def test_10_staircase_enclosure():
    rng = np.random.default_rng(0)
    for r in rng.uniform(0.0, 100.0, 10_000):
        lo, hi = riesz.staircase_bounds(r)
        assert lo <= riesz.staircase_sum(r) <= hi
    for m in rng.integers(0, 101, 100):
        lo, _ = riesz.staircase_bounds(float(m))
        assert riesz.staircase_sum(float(m)) == lo
    return "10000 enclosures, 100 integer equalities"


@criterion(11, "wall-term identity across domain kinds; cone quadrature")
def test_11_wall_term_identity():
    cone = geometry.ConeDomain(math.pi / 5, 0.8)
    doms = [RECT, CylinderDomain(3, RectangleBase(1.0, 2.0), 0.75), cone]
    for dom in doms:
        n = geometry.ambient_dim(dom)
        area = geometry.free_area(dom)
        for r in (0.5, 2.0, 10.0):
            lhs = bounds.sum_bound_wall_term(dom, r) * area
            rhs = -(2.0 * math.pi) ** (n - 1) * bounds.wall_term(dom, r)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    # the quadrature oracle of the bound tests, at gamma = 1
    from test_bounds import cone_lift_oracle
    worst = 0.0
    for z in (0.5, 2.0, 10.0):
        closed = bounds.wall_term(cone, z)
        quad = cone_lift_oracle(cone, 1.0, z)
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
        assert worst <= 1e-8
    return f"identity to 1e-10; cone closed-vs-quadrature {worst:.2e}"


@criterion(12, "depth monotonicity: exact strict for k <= 50, FEM consistent")
def test_12_depth_monotonicity():
    # length 2*pi keeps tanh/coth away from their float64 saturation points,
    # so the strict ordering stays visible in doubles through k = 50
    ell = 2.0 * math.pi
    sn_sh = spectra.rectangle_sn(ell, 0.5, 52)
    sn_dp = spectra.rectangle_sn(ell, 1.0, 52)
    assert np.all(sn_dp.values[1:51] > sn_sh.values[1:51])
    sd_sh = spectra.rectangle_sd(ell, 0.5, 50)
    sd_dp = spectra.rectangle_sd(ell, 1.0, 50)
    assert np.all(sd_dp.values < sd_sh.values)

    checked = []
    for problem, count, lo in (("SN", 11, 1), ("SD", 10, 0)):
        pair = [fem.dtn_with_error(geometry.rectangle_domain(ell, h),
                                   problem, count, target_h=0.02)
                for h in (0.5, 1.0)]
        (f_sh, e_sh), (f_dp, e_dp) = pair
        exact = sn_dp if problem == "SN" else sd_dp
        exact_sh = sn_sh if problem == "SN" else sd_sh
        gap = np.abs(exact.values[lo:count] - exact_sh.values[lo:count])
        mask = gap > 5.0 * (e_sh[lo:] + e_dp[lo:])
        assert mask.any()
        if problem == "SN":
            ordered = f_dp.values[lo:] > f_sh.values[lo:]
        else:
            ordered = f_dp.values < f_sh.values
        assert np.all(ordered[mask])
        checked.append(f"{problem} {int(mask.sum())}/{count - lo}")
    return "FEM ordering checked on " + ", ".join(checked)


@criterion(13, "heat-trace upper bound with certified tail at t in {0.1, 1}")
def test_13_heat_trace():
    margins = []
    for t in (0.1, 1.0):
        value, tail = riesz.heat_trace(SD5000, t)
        upper = bounds.sd_heat_trace_upper(math.pi, 2, t)
        assert value + tail <= upper
        margins.append(upper - value - tail)
    rep = bounds.verify(SD5000, "heat-trace", [0.1, 1.0], domain=RECT)
    assert rep.status == "holds"
    return f"margins {margins[0]:.3f} @ t=0.1, {margins[1]:.3f} @ t=1"


@criterion(14, "CLI determinism: repeated runs are byte-identical")
def test_14_cli_determinism(tmp_path):
    base = [sys.executable, "-m", "steklov"]
    sn_file = tmp_path / "sn.csv"
    sd_file = tmp_path / "sd.csv"
    subprocess.run(base + ["spectrum", "--preset", "rectangle:pi,1",
                           "--problem", "sn", "--count", "800",
                           "--out", str(sn_file)], check=True)
    subprocess.run(base + ["spectrum", "--preset", "rectangle:pi,1",
                           "--problem", "sd", "--count", "800",
                           "--out", str(sd_file)], check=True)
    commands = [
        ["spectrum", "--preset", "rectangle:pi,1", "--problem", "sn",
         "--count", "50"],
        ["spectrum", "--preset", "isoceles-triangle:2,pi/4", "--problem", "sn",
         "--count", "5", "--fem-h", "0.2"],
        ["riesz", "--spectrum", str(sn_file), "--gamma", "1",
         "--grid", "0:40:2"],
        ["verify", "--spectrum", str(sd_file), "--bound", "sd-upper",
         "--grid", "log30(0.5,300)"],
        ["asym", "--spectrum", str(sn_file), "--gamma", "1",
         "--window", "20,200"],
    ]
    for cmd in commands:
        first = subprocess.run(base + cmd, capture_output=True, check=True)
        second = subprocess.run(base + cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout and first.stdout
    return f"{len(commands)} commands, two runs each"
