"""Special functions and semiclassical constants shared by every bound.

All quantities are evaluated in closed form: integer gamma values go through
exact factorials, real arguments through math.gamma (a Lanczos-class
implementation, accurate to ~1e-15 relative).

The module also holds the conventions every evaluator shares.  Three
checkers read its arguments, each accepting only what the bounds are stated
for and naming the parameter in its ValueError: :func:`indices` reads a
number or a grid of indices k, :func:`real` a scalar parameter (a depth, a
length, a Riesz exponent) and :func:`points` a real axis (z, t, R, the
evaluation points), both as finite values above a lower end.  Then
:func:`floats_if_scalar` hands back Python floats for a single number.
Two more refuse names and dimensions no bound is stated for:
:func:`_dimension` and :func:`_boundary_condition`.
Size checks refuse, through :func:`check_memory`, what does not fit in the
memory a process may use, :func:`memory_limit`.
"""

from __future__ import annotations

import math
import os
from typing import Optional

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


def _need(name: str, low, strict: bool, got) -> ValueError:
    """The error of :func:`real` and :func:`points` for the value ``got``."""
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low}"
    return ValueError(f"{name} must be a finite real{bound}, got {got}")


def real(x, name: str, low=-math.inf, strict: bool = False) -> float:
    """x as a float, if it is finite and >= low (> low when ``strict``);
    otherwise ValueError(f"{name} must be a finite real >= {low}, got {x}"),
    with > when ``strict`` and no bound at all for low = -inf.  An x that
    float() cannot read (text from a file header) gets that error too, and
    so does a bool (Python's or numpy's, a header's true or false), which
    float() would read as 1.0 or 0.0."""
    if isinstance(x, (bool, np.bool_)):
        raise _need(name, low, strict, x)
    try:
        value = float(x)
    except (TypeError, ValueError):
        raise _need(name, low, strict, x) from None
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        raise _need(name, low, strict, value)
    return value


def points(x, name: str, low=-math.inf, strict: bool = False) -> np.ndarray:
    """x, a number or a grid, as np.atleast_1d of a float array whose points
    are all finite and >= low (> low when ``strict``); the first point that
    is not raises the ValueError of :func:`real`, as a one-point call would."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ok = np.isfinite(xs) & (xs > low if strict else xs >= low)
    if not ok.all():
        raise _need(name, low, strict, float(xs[~ok][0]))
    return xs


def memory_limit() -> Optional[int]:
    """Bytes of memory this process may use: the physical memory, or its
    address-space limit (``ulimit -v``) where that is lower; None where the
    system says neither."""
    limits = []
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        pass
    try:
        import resource
    except ImportError:                     # not on Windows
        pass
    else:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limits.append(soft)
    return min(limits, default=None)


def check_memory(need, what, advice: str) -> None:
    """A ValueError, before anything is allocated, if `need` bytes do not
    fit in the memory of :func:`memory_limit`.  The message is what(exact),
    where exact is :class:`decimal.Decimal`, which formats any int without
    overflow, then the bytes needed and the bytes there are, and "choose
    `advice`"."""
    memory = memory_limit()
    if memory is not None and need > memory:
        from decimal import Decimal

        raise ValueError(f"{what(Decimal)}{Decimal(need):.3g} bytes, more than "
                         f"the {memory} bytes this process may use; choose {advice}")


def _dimension(n, low: int = 2) -> None:
    """A ValueError unless n is an integer dimension >= low (a bool is not);
    by default an ambient dimension."""
    if not isinstance(n, int) or isinstance(n, bool) or n < low:
        raise ValueError(f"dimension must be an integer >= {low}, got {n!r}")


def _boundary_condition(bc) -> None:
    """A ValueError unless bc names a base boundary condition, "neumann" or
    "dirichlet"."""
    if bc not in ("neumann", "dirichlet"):
        raise ValueError(f"bc must be 'neumann' or 'dirichlet', got {bc!r}")


def _gamma(x: float) -> float:
    """Gamma function; exact factorial path for integer arguments."""
    x = real(x, "gamma argument", 0, strict=True)
    if x.is_integer():
        return float(math.factorial(int(x) - 1))
    return math.gamma(x)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m: pi^{m/2} / Gamma(m/2 + 1).

    Evaluated by the stable recurrence vol(m) = 2*pi/m * vol(m-2) with
    vol(0) = 1, vol(1) = 2, so small dimensions come out bit-exact.
    """
    _dimension(m, 0)
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
    _dimension(n)
    gamma = real(gamma, "gamma", 0)
    return ((4.0 * math.pi) ** (-(n - 1) / 2.0)
            * _gamma(gamma + 1.0) * _gamma(float(n))
            / (_gamma((n + 1) / 2.0) * _gamma(n + gamma)))


def berezin_constant(n: int) -> float:
    """Semiclassical constant L^cl_{1,n-1} = 1 / ((4 pi)^{(n-1)/2} Gamma(1 + (n+1)/2)).

    Satisfies L^cl_{1,n-1} = (2n/(n+1)) * weyl_constant(n, 1).
    """
    _dimension(n)
    return 1.0 / ((4.0 * math.pi) ** ((n - 1) / 2.0) * _gamma((n + 3) / 2.0))


def semiclassical_scale(n: int, k, area: float):
    """Natural scale of the k-th surface eigenvalue, at a number k or at every
    k of a grid:

        W = 2 pi * omega_{n-1}^{-1/(n-1)} * (k / area)^{1/(n-1)},

    where omega_{n-1} is the unit-ball volume in R^{n-1} and area = |F| is the
    (n-1)-dimensional measure of the free surface.  For n = 2: W = pi k / |F|.
    """
    _dimension(n)
    ks = indices(k, "index must be an integer >= 1")
    area = real(area, "area", 0, strict=True)
    m = n - 1
    return floats_if_scalar(
        k, 2.0 * math.pi * unit_ball_volume(m) ** (-1.0 / m) * (ks / area) ** (1.0 / m))
