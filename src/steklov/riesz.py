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
    """R_gamma sampled on a grid, remembering how far it can be trusted.

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
        grid = np.asarray(self.grid, dtype=float).ravel()
        vals = np.asarray(self.values, dtype=float).ravel()
        if grid.size != vals.size or grid.size < 2:
            raise ValueError("grid and values must have equal length >= 2")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(vals))):
            raise ValueError("curve contains non-finite entries")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, float(np.abs(vals).max()))):
            raise ValueError("Riesz means are nondecreasing; values are not")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        grid.setflags(write=False)
        vals.setflags(write=False)
        self.grid = grid
        self.values = vals


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not (g >= 0 and math.isfinite(g)):
        raise ValueError(f"Riesz exponent must be a finite real >= 0, got {gamma}")
    return g


def riesz_mean_grid(s: Spectrum, gamma: float, zs) -> np.ndarray:
    """R_gamma at each grid point, vectorized.

    Integer gamma <= 3 uses prefix sums of eigenvalue powers (exact binomial
    expansion); other exponents fall back to chunked broadcasting over the
    eigenvalues below max(zs).  Summation order is ascending in the
    eigenvalues, so results are deterministic.
    """
    g = _check_gamma(gamma)
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points must be finite")
    over = zs > s.ceiling
    if np.any(over):
        bad = float(zs[over][0])
        raise ValidityCeilingError(bad, s.ceiling)

    vals = s.values
    counts = np.searchsorted(vals, zs, side="left")
    if g == 0.0:
        return counts.astype(float)
    if g in (1.0, 2.0, 3.0):
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
    out = np.empty_like(zs)
    chunk = max(1, int(4e7) // max(1, vals.size))
    for i in range(0, zs.size, chunk):
        zblock = zs[i:i + chunk, None]
        diff = zblock - vals[None, :]
        np.clip(diff, 0.0, None, out=diff)
        out[i:i + chunk] = np.sum(diff ** g, axis=1)
    return out


def certified_errors(s: Spectrum, errors) -> np.ndarray:
    """Certificates e_j >= |nu_j - computed nu_j|: a finite real >= 0 per eigenvalue."""
    errors = np.asarray(errors, dtype=float).ravel()
    if errors.size != len(s):
        raise ValueError("errors must align with the spectrum (same length)")
    bad = errors[~((errors >= 0) & (errors < math.inf))]
    if bad.size:
        raise ValueError(f"certified errors must be finite reals >= 0, got {bad[0]}")
    return errors


def error_allowance(s: Spectrum, gamma: float, zs, errors) -> np.ndarray:
    """How far the certificates ``errors`` can move R_gamma at every z of
    ``zs``: gamma z^{gamma-1} sum_{nu_j < z} e_j, since (z - nu)_+^gamma
    moves by at most gamma z^{gamma-1} |dnu| for 0 <= nu < z."""
    zs = np.asarray(zs, dtype=float)
    counts = np.searchsorted(s.values, zs, side="left")
    below = np.concatenate(([0.0], np.cumsum(certified_errors(s, errors))))[counts]
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
    rho = float(rho)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    z = float(z)
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
    R = float(R)
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    if R == 0.0:
        return 0.0
    k = np.arange(math.floor(R) + 1, dtype=float)
    return float(np.sum(R - k))


def staircase_bounds(R: float):
    """Two-sided enclosure (R^2+R)/2 <= staircase_sum(R) <= (R^2+R+1)/2;
    the lower bound is attained exactly at integers."""
    R = float(R)
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
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
    """
    if s.problem != "SD":
        raise ValueError("heat_trace expects an SD spectrum (positive eigenvalues)")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    bad = ~(ts > 0)
    if bad.any():
        raise ValueError(f"time must be positive, got {float(ts[bad][0])}")
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
    tails = np.array([math.exp(-top * x) / -math.expm1(-gap * x) for x in times])
    over = np.flatnonzero(tails > tol)
    if over.size:
        i = over[0]
        raise ValueError(
            f"tail bound {tails[i]:.3e} exceeds tolerance {tol:.3e} at t = {times[i]}; "
            "store more eigenvalues")
    # each value sums e^{-eta t} over the whole ascending spectrum, a fixed
    # summation order; e^{-eta t} is exactly 0.0 once eta t > 750, and np.exp
    # takes a slow path on such underflowing arguments, so only the others
    # are evaluated
    negated = -vals
    terms = np.zeros_like(vals)
    values = np.empty(len(times))
    for i, x in enumerate(times):
        keep = np.searchsorted(vals, 750.0 / x, side="right")
        np.exp(negated[:keep] * x, out=terms[:keep])
        terms[keep:] = 0.0
        values[i] = np.sum(terms)
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
    """Read a curve written by :func:`save_curve` (no spectrum attached)."""
    meta, rows = read_table(path, "z,value", (float, float))
    gamma = meta.pop("gamma", None)
    ceiling = meta.pop("validity_ceiling", None)
    if gamma is None or ceiling is None or not rows:
        raise ValueError(f"{path}: missing gamma/validity_ceiling header or data")
    zs, vs = zip(*(fields for _, fields in rows))
    return RieszCurve(float(gamma), np.array(zs), np.array(vs), float(ceiling),
                      meta=meta)
