"""Two-term asymptotic predictions and coefficient fitting.

For planar domains whose free surface meets the walls at angles alpha and
beta, the Riesz means of both mixed problems satisfy

    R_gamma(z) = C_{2,gamma} L z^{gamma+1} +/- (pi/8)(1/alpha + 1/beta) z^gamma + o(z^gamma)

(plus for the sloshing problem, minus for clamped walls), with the matching
eigenvalue-level expansion

    nu_k = (pi/L)(k - 1/2) -/+ (pi^2 / 8L)(1/alpha + 1/beta) + o(1)

indexed from k = 1; the sloshing spectrum counts its zero mode, which is why
the signs flip between the two levels (lower eigenvalues, larger means).
Both expansions require alpha, beta <= pi/2, with a local John condition at
any corner where the angle equals pi/2 exactly.

:func:`fit_second_term` recovers the z^gamma coefficient from a computed
spectrum by least squares and reports it next to the prediction, which is
how the sharpness of the second-order bounds is checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import riesz, specfun
from .riesz import RieszCurve
from .spectra import Spectrum, check_problem

_HALF_PI = math.pi / 2
_ANGLE_TOL = 1e-12
_FIT_GRID_POINTS = 200      # log-spaced fit points when fitting a Spectrum


def _angle_flags(alpha: float, beta: float) -> dict:
    """Hypothesis bookkeeping for the three admissible angle cases."""
    right = [name for name, a in (("alpha", alpha), ("beta", beta))
             if abs(a - _HALF_PI) <= _ANGLE_TOL]
    return {
        "angles_leq_half_pi": True,
        "right_angle_corners": right,
        "local_john_required": bool(right),
        "local_john_confirmed": None if right else True,
    }


def _acute(alpha: float, beta: float) -> bool:
    """Whether both corner angles are <= pi/2; each must be a finite real in
    (0, pi), else ValueError naming it."""
    for name, a in (("alpha", alpha), ("beta", beta)):
        if not 0 < specfun.real(a, name) < math.pi:
            raise ValueError(f"{name} must lie in (0, pi), got {a}")
    return alpha <= _HALF_PI + _ANGLE_TOL and beta <= _HALF_PI + _ANGLE_TOL


def _check_angles(alpha: float, beta: float) -> None:
    if not _acute(alpha, beta):
        raise ValueError(f"alpha = {alpha}, beta = {beta}: the two-term asymptotics "
                         "are not established for obtuse corners")


def _second_coefficient(problem: str, alpha: float, beta: float) -> float:
    """The z^gamma coefficient +/- (pi/8)(1/alpha + 1/beta): plus for
    sloshing, minus for clamped walls."""
    sign = 1.0 if problem == "SN" else -1.0
    return sign * math.pi / 8.0 * (1.0 / alpha + 1.0 / beta)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Coefficient record for the two-term Riesz-mean expansion."""

    problem: str               # "SN" | "SD"
    length: float
    alpha: float
    beta: float
    gamma: float
    leading_coefficient: float     # of z^{gamma+1}
    second_coefficient: float      # of z^gamma, sign included
    hypothesis_flags: dict = field(default_factory=dict)

    def riesz_value(self, z: float) -> float:
        z = float(z)
        return self.leading_coefficient * z ** (self.gamma + 1.0) \
            + self.second_coefficient * z ** self.gamma


def predict(problem: str, length: float, alpha: float, beta: float,
            gamma: float) -> AsymptoticPrediction:
    """Build the two-term coefficient record for the given problem/angles."""
    check_problem(problem)
    length = specfun.real(length, "length", 0, strict=True)
    g = specfun.real(gamma, "gamma", 0, strict=True)
    _check_angles(alpha, beta)
    return AsymptoticPrediction(
        problem=problem, length=length, alpha=float(alpha),
        beta=float(beta), gamma=g,
        leading_coefficient=specfun.weyl_constant(2, g) * length,
        second_coefficient=_second_coefficient(problem, alpha, beta),
        hypothesis_flags=_angle_flags(alpha, beta))


def two_term_riesz(problem: str, length: float, alpha: float, beta: float,
                   gamma: float, z: float) -> float:
    """Two-term Riesz-mean value C_{2,g} L z^{g+1} +/- (pi/8)(1/a + 1/b) z^g
    (no remainder).  Sloshing takes the plus sign, clamped walls the minus."""
    return predict(problem, length, alpha, beta, gamma).riesz_value(z)


def two_term_eigenvalue(problem: str, length: float, alpha: float,
                        beta: float, k: int) -> float:
    """Two-term eigenvalue prediction (pi/L)(k - 1/2) -/+ (pi^2/8L)(1/a + 1/b).

    Indexing is 1-based over the full spectrum, so the sloshing zero mode is
    k = 1; on the unit-depth rectangle the prediction gives (pi/L)(k-1) for
    SN and (pi/L) k for SD, matching the exact tanh/coth eigenvalues up to
    exponentially small terms.
    """
    check_problem(problem)
    (k,) = specfun.indices(k, "k must be a positive integer")
    length = specfun.real(length, "length", 0, strict=True)
    _check_angles(alpha, beta)
    sign = -1.0 if problem == "SN" else 1.0
    return math.pi / length * (int(k) - 0.5) \
        + sign * math.pi ** 2 / (8.0 * length) * (1.0 / alpha + 1.0 / beta)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    """Least-squares estimate of an asymptotic coefficient."""

    model: str
    window: Tuple[float, float]
    coefficient: float
    stderr: float
    prediction: Optional[float]
    hypothesis_flags: dict
    problem: str
    gamma: Optional[float] = None
    n_points: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "window": [float(self.window[0]), float(self.window[1])],
            "coefficient": float(self.coefficient),
            "stderr": float(self.stderr),
            "prediction": None if self.prediction is None else float(self.prediction),
            "hypothesis_flags": self.hypothesis_flags,
            "problem": self.problem,
            "n_points": int(self.n_points),
        }
        if self.gamma is not None:
            out["gamma"] = float(self.gamma)
        if self.note:
            out["note"] = self.note
        return out


def _prediction_from_meta(problem: str, meta: dict):
    """(prediction, flags, note) for the z^gamma coefficient, if derivable."""
    alpha, beta = meta.get("alpha"), meta.get("beta")
    if alpha is None or beta is None:
        return None, {"angles_known": False}, "corner angles unknown; no prediction"
    if not _acute(alpha, beta):
        return None, {"angles_known": True, "angles_leq_half_pi": False}, \
            "no expansion available (obtuse corner angle)"
    flags = _angle_flags(alpha, beta)
    flags["angles_known"] = True
    if flags["local_john_required"] and meta.get("john") is True:
        # containment under the surface implies the corner-local condition
        flags["local_john_confirmed"] = True
    return _second_coefficient(problem, alpha, beta), flags, ""


def _surface_length(length, meta: dict) -> float:
    """``length``, else the free-surface length in ``meta`` (areaF), as a
    finite real > 0."""
    if length is None:
        length = meta.get("areaF")
    if length is None:
        raise ValueError("free-surface length unknown; pass length= or attach "
                         "areaF metadata")
    return specfun.real(length, "length", 0, strict=True)


def fit_second_term(source, gamma: float, window, *, length: Optional[float] = None,
                    errors=None) -> FitResult:
    """Fit the z^gamma coefficient of a Riesz mean over a window [z1, z2].

    The regression model is

        (R_gamma(z) - C_{2,gamma} L z^{gamma+1}) / z^gamma  ~  a + b/z,

    evaluated on the curve's own grid points inside the window, a Spectrum
    sampled as its Riesz curve on 200 log-spaced points from z1 to z2; the
    1/z nuisance absorbs the bounded staircase oscillation so the constant
    converges cleanly.  Windows spanning at least a decade are recommended.
    Returns the constant a with its standard error and, when the corner
    angles are available, the predicted value +/- (pi/8)(1/alpha + 1/beta).

    ``source`` is a Spectrum or a gamma-matching RieszCurve.  Certified
    per-eigenvalue ``errors`` move R_gamma(z) by at most
    gamma z^{gamma-1} sum_{nu_j - e_j < z} e_j (:func:`riesz.error_allowance`, as
    in :func:`bounds.verify`), the regressed quantity by that over z^gamma.
    The window is shrunk until this budget at its top stays below a tenth of
    the fitted coefficient, and the actually-used window is reported; a
    curve must then carry its spectrum.
    """
    g = specfun.real(gamma, "gamma", 1)
    z1 = specfun.real(window[0], "z1", 0, strict=True)
    z2 = specfun.real(window[1], "z2", z1, strict=True)

    if isinstance(source, Spectrum):
        # a window a few ulps wide repeats points, which no curve holds
        zs = np.unique(np.geomspace(z1, z2, _FIT_GRID_POINTS))
        source = riesz.riesz_curve(source, g, zs)
    elif not isinstance(source, RieszCurve):
        raise TypeError("source must be a Spectrum or a RieszCurve")
    if abs(source.gamma - g) > 1e-12:
        raise ValueError(f"curve has gamma = {source.gamma}, fit requested gamma = {g}")
    meta = dict(source.meta)
    problem = meta.get("problem", "SN")
    mask = (source.grid >= z1) & (source.grid <= z2)
    zs = source.grid[mask]
    rvals = source.values[mask]
    spectrum = source.spectrum
    if errors is not None and spectrum is None:
        raise ValueError("an error budget needs the curve's spectrum, and "
                         "this curve carries none (a loaded curve, say)")

    length = _surface_length(length, meta)

    prediction, flags, note = _prediction_from_meta(problem, meta)

    lead = specfun.weyl_constant(2, g) * length

    def solve(zv, rv):
        y = (rv - lead * zv ** (g + 1.0)) / zv ** g
        X = np.column_stack([np.ones_like(zv), 1.0 / zv])
        if zv.size < 3:
            raise ValueError(
                f"fit window [{zv.min() if zv.size else z1}, {z2}] leaves "
                f"{zv.size} points; too narrow for the two-parameter model")
        if np.linalg.cond(X) > 1e8:
            raise ValueError("ill-conditioned fit: window too narrow "
                             f"(cond = {np.linalg.cond(X):.2e})")
        coef, res, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ coef
        dof = max(zv.size - 2, 1)
        cov = float(resid @ resid) / dof * np.linalg.inv(X.T @ X)
        return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))

    a, se = solve(zs, rvals)

    if errors is not None:
        for _ in range(8):
            # propagated error of (R_gamma - lead)/z^gamma at each grid z
            prop = riesz.error_allowance(spectrum, g, zs, errors) / zs ** g
            cap = 0.1 * max(abs(a), 1e-30)
            if prop[-1] <= cap:
                break
            keep = prop <= cap
            if keep.sum() < max(3, zs.size // 10):
                raise ValueError(
                    "certified eigenvalue errors are too large everywhere in "
                    "the window; refine the discretization or lower z2")
            zs, rvals = zs[keep], rvals[keep]
            a, se = solve(zs, rvals)
        note = (note + "; " if note else "") + \
            f"window trimmed to [{zs[0]:.6g}, {zs[-1]:.6g}] by error budget" \
            if zs[-1] < z2 * (1 - 1e-12) else note

    return FitResult(model="a + b/z on (R_gamma - C L z^(gamma+1))/z^gamma",
                     window=(float(zs[0]), float(zs[-1])),
                     coefficient=a, stderr=se, prediction=prediction,
                     hypothesis_flags=flags, problem=problem, gamma=g,
                     n_points=int(zs.size), note=note)


def fit_eigenvalue_shift(s: Spectrum, k_min: int, k_max: int, *,
                         length: Optional[float] = None) -> FitResult:
    """Average the eigenvalue-level shift nu_k L - pi k + pi/2 over a k-range.

    By the two-term expansion this converges to -/+ (pi^2/8)(1/a + 1/b)
    (minus for SN, plus for SD); on the rectangle the summands are constant
    up to exponentially small terms.  1-based indexing over the full
    spectrum, zero mode included.
    """
    k_min, k_max = specfun.indices([k_min, k_max], "need integers k_min, k_max >= 1")
    if not k_min < k_max:
        raise ValueError(f"need k_min < k_max, got {k_min}, {k_max}")
    if k_max > len(s):
        raise ValueError(f"k_max = {k_max} exceeds spectrum length {len(s)}")
    length = _surface_length(length, s.meta)
    ks = np.arange(k_min, k_max + 1)
    shifts = s.values[k_min - 1:k_max] * length - math.pi * ks + _HALF_PI
    est = float(np.mean(shifts))
    se = float(np.std(shifts, ddof=1) / math.sqrt(shifts.size))

    pred, flags, note = _prediction_from_meta(s.problem, s.meta)
    if pred is not None:
        # eigenvalue-level sign is opposite to the Riesz-level one
        pred = -pred * math.pi
    return FitResult(model="mean of nu_k L - pi k + pi/2",
                     window=(float(k_min), float(k_max)), coefficient=est,
                     stderr=se, prediction=pred, hypothesis_flags=flags,
                     problem=s.problem, gamma=None, n_points=int(shifts.size),
                     note=note)
