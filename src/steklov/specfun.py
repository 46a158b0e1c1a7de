"""Special functions and semiclassical constants shared by every bound.

All quantities are evaluated in closed form: integer gamma values go through
exact factorials, real arguments through math.gamma (a Lanczos-class
implementation, accurate to ~1e-15 relative).

The module also holds the two conventions every evaluator along an axis
shares: :func:`indices` reads a number or a grid of indices k, and
:func:`floats_if_scalar` hands back Python floats for a single number.
"""

from __future__ import annotations

import math

import numpy as np


def floats_if_scalar(x, out):
    """``out``, computed over the points np.atleast_1d(x), as the caller
    asked for it: unchanged for a grid x; for a single number x (0-d arrays
    included) each array becomes the float of its one point, in a tuple or
    NamedTuple entry by entry."""
    if np.ndim(x) != 0:
        return out
    if not isinstance(out, tuple):
        return float(out[0])
    vals = [floats_if_scalar(x, v) if isinstance(v, np.ndarray) else v for v in out]
    return type(out)(*vals) if hasattr(out, "_fields") else tuple(vals)


def indices(k, message: str) -> np.ndarray:
    """k, a number or a grid, as a 1-d integer array.  The first point that
    is not an integer >= 1 (a bool, or a float such as 2.0, is not) raises
    ValueError(f"{message}, got {point!r}"), as a one-point call with that
    point would."""
    ks = np.atleast_1d(np.asarray(k))
    # numpy reads True in a list of ints as 1: only an integer array skips
    # the point-by-point check
    if isinstance(k, np.ndarray) and ks.dtype.kind in "iu" and not np.any(ks < 1):
        return ks
    points = [k] if np.ndim(k) == 0 else np.asarray(k, dtype=object).ravel().tolist()
    for point in points:
        if isinstance(point, bool) or not isinstance(point, (int, np.integer)) \
                or point < 1:
            raise ValueError(f"{message}, got {point!r}")
    return ks.astype(int)


def _gamma(x: float) -> float:
    """Gamma function; exact factorial path for integer arguments."""
    if x <= 0:
        raise ValueError(f"gamma argument must be positive, got {x}")
    if float(x).is_integer():
        return float(math.factorial(int(x) - 1))
    return math.gamma(x)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m: pi^{m/2} / Gamma(m/2 + 1).

    Evaluated by the stable recurrence vol(m) = 2*pi/m * vol(m-2) with
    vol(0) = 1, vol(1) = 2, so small dimensions come out bit-exact.
    """
    if not isinstance(m, (int,)) or isinstance(m, bool):
        raise ValueError(f"dimension must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"dimension must be >= 0, got {m}")
    if m == 0:
        return 1.0
    if m == 1:
        return 2.0
    return 2.0 * math.pi / m * unit_ball_volume(m - 2)


def weyl_constant(n: int, gamma: float) -> float:
    """Leading Riesz-mean coefficient for an (n-1)-dimensional free surface:

        C_{n,gamma} = (4 pi)^{-(n-1)/2} Gamma(gamma+1) Gamma(n)
                      / (Gamma((n+1)/2) Gamma(n+gamma)).

    For n = 2 this collapses to 1 / (pi (gamma + 1)).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    if gamma < 0:
        raise ValueError(f"Riesz exponent must be >= 0, got {gamma}")
    return ((4.0 * math.pi) ** (-(n - 1) / 2.0)
            * _gamma(gamma + 1.0) * _gamma(float(n))
            / (_gamma((n + 1) / 2.0) * _gamma(n + gamma)))


def berezin_constant(n: int) -> float:
    """Semiclassical constant L^cl_{1,n-1} = 1 / ((4 pi)^{(n-1)/2} Gamma(1 + (n+1)/2)).

    Satisfies L^cl_{1,n-1} = (2n/(n+1)) * weyl_constant(n, 1).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    return 1.0 / ((4.0 * math.pi) ** ((n - 1) / 2.0) * _gamma((n + 3) / 2.0))


def semiclassical_scale(n: int, k, area: float):
    """Natural scale of the k-th surface eigenvalue, at a number k or at every
    k of a grid:

        W = 2 pi * omega_{n-1}^{-1/(n-1)} * (k / area)^{1/(n-1)},

    where omega_{n-1} is the unit-ball volume in R^{n-1} and area = |F| is the
    (n-1)-dimensional measure of the free surface.  For n = 2: W = pi k / |F|.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    ks = indices(k, "index must be an integer >= 1")
    if not area > 0:
        raise ValueError(f"free-surface measure must be positive, got {area}")
    m = n - 1
    return floats_if_scalar(
        k, 2.0 * math.pi * unit_ball_volume(m) ** (-1.0 / m) * (ks / area) ** (1.0 / m))
