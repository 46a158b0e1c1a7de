"""Riesz means, eigenvalue sums, and related spectral functionals.

The central object is R_gamma(z) = sum_j (z - nu_j)_+^gamma computed from a
stored spectrum.  R_0 is the counting function with the STRICT convention
N(z) = #{nu_j < z}.  Everything that reads a spectrum refuses z beyond the
largest stored eigenvalue -- values past that point would silently undercount
-- raising :class:`ValidityCeilingError` instead of clamping.

Riesz exponents lift by one integral,

    R_{gamma+rho}(z) = Gamma(gamma+rho+1) / (Gamma(gamma+1) Gamma(rho))
                       * integral_0^z (z-t)^{rho-1} R_gamma(t) dt.

On a curve that keeps its spectrum the lift is exact: each eigenvalue's
(t - nu)_+^gamma lifts to (z - nu)_+^{gamma+rho}, so the lifted value is
R_{gamma+rho}(z) itself.  A grid-only curve integrates its piecewise-linear
interpolant in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import specfun
from .spectra import Spectrum, read_table, write_table


class ValidityCeilingError(ValueError):
    """z exceeds the largest stored eigenvalue; the tail would be undercounted."""

    def __init__(self, z: float, ceiling: float):
        self.z = float(z)
        self.ceiling = float(ceiling)
        super().__init__(
            f"z = {z} exceeds the validity ceiling {ceiling} (largest stored "
            "eigenvalue); store more eigenvalues instead of extrapolating")


@dataclass(eq=False)
class RieszCurve:
    """R_gamma sampled on a grid, remembering how far it can be trusted:
    up to ``validity_ceiling``, a finite z at or past its last grid point.

    When built from a Spectrum the curve keeps a reference to it, so that
    iteration is exact instead of re-sampling.
    """

    gamma: float
    grid: np.ndarray
    values: np.ndarray
    validity_ceiling: float
    spectrum: Optional[Spectrum] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = specfun.points(self.grid, "grid point").ravel()
        vals = specfun.points(self.values, "curve value").ravel()
        if grid.size != vals.size or grid.size < 2:
            raise ValueError("grid and values must have equal length >= 2")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(np.abs(vals).max()))):
            raise ValueError("Riesz means are nondecreasing; values are not")
        self.gamma = specfun.real(self.gamma, "gamma", 0)
        self.validity_ceiling = specfun.real(self.validity_ceiling,
                                             "validity_ceiling", float(grid[-1]))
        grid.setflags(write=False)
        vals.setflags(write=False)
        self.grid = grid
        self.values = vals


def riesz_mean_grid(s: Spectrum, gamma: float, zs) -> np.ndarray:
    """R_gamma at each point of the grid ``zs``, in the grid's shape.

    Integer gamma <= 3 (the count itself at gamma = 0) uses prefix sums of
    eigenvalue powers (exact binomial expansion).  Other exponents write
    (z - nu_j)^gamma only for the nu_j < z, into a row as wide as the
    grid's largest such count W, and sum it with :func:`_head_sums`: a
    value is np.sum of (z - nu_j)_+^gamma over the first W eigenvalues.
    """
    g = specfun.real(gamma, "gamma", 0)
    zs = specfun.points(zs, "z")
    over = zs > s.ceiling
    if np.any(over):
        bad = float(zs[over][0])
        raise ValidityCeilingError(bad, s.ceiling)

    vals = s.values
    counts = np.searchsorted(vals, zs, side="left")
    if g in (0.0, 1.0, 2.0, 3.0):
        p = int(g)
        prefix = [np.concatenate(([0.0], np.cumsum(vals ** j)))
                  for j in range(1, p + 1)]
        out = zs ** p * counts
        sign = -1.0
        for j in range(1, p + 1):
            out += sign * math.comb(p, j) * zs ** (p - j) * prefix[j - 1][counts]
            sign = -sign
        return out
    # eigenvalues at or above max(zs) add (z - nu)_+^gamma = 0 everywhere
    vals = vals[:counts.max(initial=0)]

    def fill(head, z):
        # nu < z makes z - nu > 0 exactly, so the head needs no clip
        np.subtract(z, vals[:head.size], out=head)
        head **= g

    return _head_sums(vals.size, counts.ravel().tolist(), zs.ravel().tolist(),
                      fill).reshape(zs.shape)


def _head_sums(width: int, counts: list, points: list, fill) -> np.ndarray:
    """np.sum of one row per point, ``width`` long: fill(head, points[i])
    writes row i's first counts[i] entries, the rest are 0.0.  The rows go
    in zeroed blocks of about 2^17 entries, summed by one np.add.reduce,
    which sums each row as np.sum does (pairwise, Higham, Accuracy and
    Stability of Numerical Algorithms, 4.2), so no sum depends on the block."""
    rows = max(1, 2 ** 17 // max(1, width))
    block = np.zeros((min(rows, len(points)), width))
    sums = np.empty(len(points))
    for start in range(0, len(points), rows):
        stop = min(start + rows, len(points))
        for row, count, x in zip(block, counts[start:stop], points[start:stop]):
            fill(row[:count], x)
        np.add.reduce(block[:stop - start], axis=1, out=sums[start:stop])
        block[:stop - start, :max(counts[start:stop])] = 0.0
    return sums


def certified_errors(s: Spectrum, errors) -> np.ndarray:
    """Certificates e_j >= |nu_j - computed nu_j|: a finite real >= 0 per eigenvalue."""
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size != len(s):
        raise ValueError(f"errors must align with the spectrum (same length): "
                         f"{errors.size} errors for {len(s)} eigenvalues")
    return specfun.points(errors, "certified error", 0)


def error_allowance(s: Spectrum, gamma: float, zs, errors) -> np.ndarray:
    """How far the certificates ``errors`` can move R_gamma at every z of
    ``zs``: gamma z^{gamma-1} sum_{nu_j - e_j < z} e_j, since (z - nu)_+^gamma
    moves by at most gamma z^{gamma-1} |dnu| for 0 <= nu < z, and a computed
    nu_j in [z, z + e_j) may stand for a true eigenvalue below z."""
    zs = np.asarray(zs, dtype=float)
    errors = certified_errors(s, errors)
    low = s.values - errors
    order = np.argsort(low, kind="stable")
    counts = np.searchsorted(low[order], zs, side="left")
    below = np.concatenate(([0.0], np.cumsum(errors[order])))[counts]
    return gamma * np.where(zs > 0, zs, 1.0) ** (gamma - 1.0) * below


def riesz_mean(s: Spectrum, gamma: float, z: float) -> float:
    """R_gamma(z) = sum (z - nu_j)_+^gamma; gamma = 0 counts strictly below z."""
    return float(riesz_mean_grid(s, gamma, [z])[0])


def riesz_curve(s: Spectrum, gamma: float, grid) -> RieszCurve:
    """Sample R_gamma on a grid (all points must sit under the ceiling)."""
    grid = np.asarray(grid, dtype=float).ravel()
    vals = riesz_mean_grid(s, gamma, grid)
    meta = dict(s.meta)
    meta["problem"] = s.problem
    meta["source"] = s.source
    return RieszCurve(float(gamma), grid, vals, s.ceiling, spectrum=s, meta=meta)


# -- iteration --------------------------------------------------------------

def riesz_iterate(curve: RieszCurve, rho: float, z: float,
                  tol: float = 1e-6) -> float:
    """Lift the curve's exponent by rho > 0 and evaluate at z.

    A spectrum-backed curve lifts exactly: its value is
    R_{gamma+rho}(z) = sum (z - nu_j)_+^{gamma+rho} of the attached spectrum.
    A grid-only curve integrates its piecewise-linear interpolant in closed
    form and raises if a two-level refinement estimate exceeds ``tol``
    (which applies to grid-only curves only).
    """
    rho = specfun.real(rho, "rho", 0, strict=True)
    z = specfun.real(z, "z")
    tol = _tolerance(tol)
    if z > curve.validity_ceiling:
        raise ValidityCeilingError(z, curve.validity_ceiling)
    if z <= 0:
        return 0.0
    gamma = curve.gamma
    if curve.spectrum is not None:
        return float(riesz_mean_grid(curve.spectrum, gamma + rho, [z])[0])
    front = math.gamma(gamma + rho + 1) / (math.gamma(gamma + 1) * math.gamma(rho))
    grid, fvals = curve.grid, curve.values
    if z > grid[-1] + 1e-12 * max(1.0, abs(z)) or grid[0] > 1e-12:
        raise ValueError(
            "grid-only curve does not cover [0, z]; rebuild the curve on a "
            "grid starting at 0 (or keep the source spectrum attached)")
    full = _pwl_weighted_integral(grid, fvals, rho, z)
    cg, cv = grid[::2], fvals[::2]
    if cg[-1] != grid[-1]:
        cg = np.concatenate((cg, grid[-1:]))
        cv = np.concatenate((cv, fvals[-1:]))
    coarse = _pwl_weighted_integral(cg, cv, rho, z)
    err = abs(full - coarse) / 3.0    # piecewise-linear error is O(h^2)
    if err > tol * max(1.0, abs(full)):
        raise ValueError(
            f"curve grid too coarse for the requested tolerance: estimated "
            f"relative error {err / max(1.0, abs(full)):.3e} > {tol:.3e}")
    return front * full


def _tolerance(tol) -> float:
    """tol as a float >= 0; inf, no limit, is allowed, nan is not."""
    tol = float(tol)
    if not tol >= 0:
        raise ValueError(f"tol must be a real >= 0 (inf for no limit), got {tol}")
    return tol


def _pwl_weighted_integral(grid: np.ndarray, fvals: np.ndarray, rho: float,
                           z: float) -> float:
    """integral_0^z (z-t)^{rho-1} * pwl(t) dt for the piecewise-linear
    interpolant through (grid, fvals), in closed form per panel.

    With s = z - t the antiderivative of s^{rho-1} (c0 - c1 s) is
    c0 s^rho / rho - c1 s^{rho+1} / (rho+1).
    """
    t0 = np.clip(grid[:-1], None, z)
    t1 = np.clip(grid[1:], None, z)
    keep = t1 > t0
    t0, t1 = t0[keep], t1[keep]
    f0 = fvals[:-1][keep]
    slope = (fvals[1:][keep] - f0) / (grid[1:][keep] - grid[:-1][keep])
    # f(t) = f0 + slope (t - g0) = (f0 + slope (z - g0)) - slope (z - t)
    c0 = f0 + slope * (z - grid[:-1][keep])
    c1 = slope
    s0 = z - t1   # lower integration limit in s
    s1 = z - t0
    part = (c0 * (s1 ** rho - s0 ** rho) / rho
            - c1 * (s1 ** (rho + 1) - s0 ** (rho + 1)) / (rho + 1))
    return float(np.sum(part))


# -- sums and staircase -------------------------------------------------------

def partial_sum(s: Spectrum, k):
    """Sum of the first k stored eigenvalues (SN includes the zero mode), at a
    number k or at every k of a grid (integers 1 <= k <= len(s)).

    Every k indexes one np.cumsum of the spectrum, the prefix
    :func:`riesz_mean_grid` reads at gamma = 1, so a grid value is bit for
    bit its one-point call.  Added in order, the k-th prefix of nonnegative
    eigenvalues is within (k-1) 2^-53 of the exact sum, relative (Higham,
    Accuracy and Stability of Numerical Algorithms, 4.2).
    """
    ks = specfun.indices(k, "k must be a positive integer")
    over = ks[ks > len(s)]
    if over.size:
        raise ValueError(f"k = {over[0]} exceeds the {len(s)} stored eigenvalues")
    return specfun.floats_if_scalar(k, np.cumsum(s.values)[ks - 1])


def mean_sum(s: Spectrum, k):
    """Average of the first k stored eigenvalues, at a number k or at every k
    of a grid."""
    ks = specfun.indices(k, "k must be a positive integer")
    return specfun.floats_if_scalar(k, partial_sum(s, ks) / ks)


def staircase_sum(R: float) -> float:
    """sum_{k>=0} (R - k)_+ by direct summation (R >= 0)."""
    R = specfun.real(R, "R", 0)
    if R == 0.0:
        return 0.0
    k = np.arange(math.floor(R) + 1, dtype=float)
    return float(np.sum(R - k))


def staircase_bounds(R: float):
    """Two-sided enclosure (R^2+R)/2 <= staircase_sum(R) <= (R^2+R+1)/2;
    the lower bound is attained exactly at integers."""
    R = specfun.real(R, "R", 0)
    return 0.5 * (R * R + R), 0.5 * (R * R + R + 1.0)


# -- heat trace ---------------------------------------------------------------

def heat_trace(s: Spectrum, t, tol: float = 1e-10):
    """(sum_j e^{-eta_j t} over the stored spectrum, tail bound), at a number
    t or, as two arrays, at every t of a grid.

    The tail past the last stored eigenvalue is bounded geometrically by
    e^{-eta_last t} / (1 - e^{-gap t}) with gap = the smallest spacing in the
    last decile of the spectrum, found once per grid.  The bound rests on the
    assumption that spacings do not shrink below that observed gap further
    out; nothing here proves it.  Raises when the spectrum holds fewer than
    two eigenvalues, or too few to push the tail bound under ``tol``, or
    when the last decile contains a repeated eigenvalue (no gap to
    extrapolate).

    Only the terms with eta t <= 708 are evaluated.  Each other term is
    below e^{-708} < 2^-1021 = e^{-707.70...}, so their count times 2^-1021
    joins the tail bound before the ``tol`` check, and value + tail still
    bounds the stored spectrum's sum from above.  Most of them are
    subnormal (eta t in (708.4, 745.1)) or 0.0, and numpy's exp takes about
    120 ns for a subnormal result against about 1 ns for a normal one: on
    a 2000-point grid in [0.01, 2] over 5000 eigenvalues they took about a
    third of the time.  Each value is np.sum of the full-length row of
    e^{-eta t} with the other terms 0.0, summed by :func:`_head_sums` as
    the fractional-gamma Riesz means are; every row is len(s) wide, so a
    grid value is bit for bit its one-point call.
    """
    if s.problem != "SD":
        raise ValueError("heat_trace expects an SD spectrum (positive eigenvalues)")
    ts = specfun.points(t, "time", 0, strict=True)
    tol = _tolerance(tol)
    vals = s.values
    if len(s) < 2:
        raise ValueError("cannot certify the tail: the tail bound needs at "
                         f"least two eigenvalues, the spectrum has {len(s)}")
    gaps = np.diff(vals[-max(2, len(s) // 10):])
    if float(gaps.min()) <= 0:
        raise ValueError(
            "cannot certify the tail: repeated eigenvalues in the last decile")
    gap = float(gaps.min())
    top = vals[-1]
    times = ts.tolist()
    # the terms up to each t's cut; an eta past fl(708 / t) has eta t above
    # 708 (1 - 2^-53), still far above ln 2^1021 = 707.70...; a t so small
    # that 708 / t overflows to inf keeps every term
    with np.errstate(over="ignore"):
        keeps = np.searchsorted(vals, 708.0 / ts, side="right")
    tails = np.array([math.exp(-top * x) / -math.expm1(-gap * x) for x in times])
    tails += (len(s) - keeps) * 2.0 ** -1021
    over = np.flatnonzero(tails > tol)
    if over.size:
        i = over[0]
        raise ValueError(
            f"tail bound {tails[i]:.3e} exceeds tolerance {tol:.3e} at t = {times[i]}; "
            "store more eigenvalues")

    def fill(head, x):
        np.multiply(vals[:head.size], -x, out=head)
        np.exp(head, out=head)

    values = _head_sums(len(s), keeps.tolist(), times, fill)
    return specfun.floats_if_scalar(t, (values, tails))


# -- Legendre transform -------------------------------------------------------

class LegendreBound(NamedTuple):
    value: float
    z: float
    at_boundary: bool


def legendre_sum_bound(curve: RieszCurve, k: int) -> LegendreBound:
    """Lower bound on the sum of the first k eigenvalues from an upper bound
    on R_1: sum_{j<=k} eta_j >= sup_z (k z - U(z)).

    ``curve`` must be a convex pointwise upper bound for R_1 (gamma = 1).
    The supremum is taken over the curve's grid; if it lands on the grid
    boundary the bound is not tight and the result is flagged.
    """
    (k,) = specfun.indices(k, "k must be a positive integer")
    if curve.gamma != 1.0:
        raise ValueError("legendre_sum_bound needs a gamma = 1 curve")
    g, v = curve.grid, curve.values
    scale = max(1.0, float(np.abs(v).max()))
    second = np.diff(v, 2)
    if second.size and float(second.min()) < -1e-9 * scale:
        raise ValueError("curve is not convex; Legendre duality does not apply")
    obj = k * g - v
    i = int(np.argmax(obj))
    return LegendreBound(float(obj[i]), float(g[i]),
                         bool(i == 0 or i == obj.size - 1))


# -- curve CSV ----------------------------------------------------------------

def save_curve(curve: RieszCurve, path) -> None:
    """Write a Riesz curve as CSV ('# key=value' header, 'z,value' rows)."""
    head = {"gamma": curve.gamma, "validity_ceiling": curve.validity_ceiling}
    write_table(path, head, curve.meta, "z,value", zip(curve.grid, curve.values))


def load_curve(path) -> RieszCurve:
    """Read a curve written by :func:`save_curve` (no spectrum attached).
    The header values go to :class:`RieszCurve` as read, so it checks them;
    every error names the file."""
    meta, rows = read_table(path, "z,value", (float, float))
    gamma = meta.pop("gamma", None)
    ceiling = meta.pop("validity_ceiling", None)
    if gamma is None or ceiling is None or not rows:
        raise ValueError(f"{path}: missing gamma/validity_ceiling header or data")
    zs, vs = zip(*(fields for _, fields in rows))
    try:
        return RieszCurve(gamma, np.array(zs), np.array(vs), ceiling, meta=meta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
