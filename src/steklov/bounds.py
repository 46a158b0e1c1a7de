"""Semiclassical bounds for free-surface spectra, and a verification harness.

Lower bounds for the sloshing (SN) Riesz means all share the shape

    R_gamma(z) >= C_{n,gamma} |F| z^{n+gamma-1} + (wall term),

where the wall term integrates <n, e_n> e^{2 x_n r} r^{n-1} over the walls.
Every wall term the module supports (per straight polygon edge, over the
flat bottom of a cylinder, over the cone of revolution) is
A(t) = integral_0^t phi(r) dr with phi a sum of c r^k e^{-a r} (a >= 0), and
so is each piece of the two-corner constant.  One operator, the Riesz lift
:func:`_lift`, evaluates all of them for every gamma >= 1: one confluent
hypergeometric term per piece, over a whole grid at once.  At gamma = 1 the
lift is the integral A itself; at gamma > 1 it is A lifted by Riesz
iteration.  The lift is the one implementation of every wall term; the
tests hold the quadrature oracle it is checked against.

Upper bounds for the clamped-wall (SD) problem, two-sided brackets and
averaged-sum inequalities for SN eigenvalues, and a heat-trace bound complete
the set.  :data:`BOUNDS` registers each of them with its problem, axis, side
and hypotheses; :func:`verify` runs any of them against a Spectrum and
produces a :class:`BoundReport` with margins, violations, and hypothesis
flags.

Each bound is one public function that takes a number or a grid for its
axis (z, k or t): a number gives a float (or a NamedTuple of floats), a grid
gives arrays.  It resolves the domain and its constants once -- wall edges
and weights, I_-, I_+, delta, h, |F|, C_{n,gamma}, kappa_n, the two-corner
cots -- and then evaluates every point of np.atleast_1d of its axis.  Numpy
and scipy ufuncs work element by element, so a grid value is bit for bit
the value of the one-point call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import geometry, riesz, specfun
from .geometry import (ConeDomain, CylinderDomain, DomainError, PolygonalDomain)
from .specfun import floats_if_scalar
from .spectra import Spectrum, write_text


class HypothesisError(ValueError):
    """The bound cannot even be evaluated: required domain data is missing."""


def _cot(angle: float) -> float:
    """cot with the convention cot(pi/2) = 0 (vertical walls drop out)."""
    if not 0 < angle < math.pi:
        raise ValueError(f"angle must lie in (0, pi), got {angle}")
    if abs(angle - math.pi / 2) < 1e-12:
        return 0.0
    return math.cos(angle) / math.sin(angle)


def _kappa(n: int) -> float:
    """(n-1) omega_{n-1} / (2 pi)^{n-1}: the wall-term prefactor."""
    return (n - 1) * specfun.unit_ball_volume(n - 1) / (2 * math.pi) ** (n - 1)


# ---------------------------------------------------------------------------
# wall terms: one Riesz lift for every gamma >= 1
# ---------------------------------------------------------------------------

def _lift(terms, g: float, zs: np.ndarray, order: int = 1) -> np.ndarray:
    """Riesz lift to exponent g >= 1 of A = I^order psi, the order-fold
    integral from 0 of psi(r) = sum over ``terms`` (c, k, a) of c r^k e^{-a r}
    (integer k >= 0, a >= 0), at every z in ``zs``:

        g (g-1) integral_0^z (z-t)^{g-2} A(t) dt
            = Gamma(g+1)/Gamma(p) integral_0^z (z-r)^{p-1} psi(r) dr,  p = g+order-1,
            = sum c Gamma(g+1) k!/Gamma(p+k+1) z^{p+k} 1F1(k+1; p+k+1; -a z).

    At g = 1 the middle line is Cauchy's formula for A itself, so the same
    sum is the unlifted wall term.  Each term is positive for c > 0, so a
    sum of same-signed terms carries no cancellation; callers keep
    differences out of ``terms`` where they would cancel.
    """
    from scipy.special import hyp1f1
    p = g + order - 1.0
    out = np.zeros_like(zs)
    for c, k, a in terms:
        front = c * math.gamma(g + 1.0) * math.factorial(k) / math.gamma(p + k + 1.0)
        out += front * zs ** (p + k) * hyp1f1(k + 1.0, p + k + 1.0, -a * zs)
    return out


def _near_level(dy: float, ybar: float, zs: np.ndarray) -> np.ndarray:
    """Where an edge's difference of exponentials cancels and its series is
    taken instead: |dy| z <= 1e-3 (1 + 2 |ybar| z), i.e. |dy| is small
    against the reach, about min(z, 1/(2 |ybar|)), of the weight
    e^{2 r ybar}.  The next series term is below 1e-12 relative there."""
    return abs(dy) * zs <= 1e-3 * (1.0 + 2.0 * abs(ybar) * zs)


def _edge_flux_lift(y0: float, y1: float, g: float, zs: np.ndarray) -> np.ndarray:
    """The per-unit-length flux of a straight wall edge with endpoint heights
    y0, y1 <= 0, lifted to exponent g.  Its integrand is
    phi(r) = r mean_{s in [0,1]} e^{2 r (y0 + s (y1-y0))}
           = e^{2 r ybar} sinh(r dy) / dy,
    a difference of two exponentials over 2 dy.  Where that difference
    cancels (:func:`_near_level`), the point takes the series
    e^{2 r ybar} (r + dy^2 r^3 / 6) instead.
    """
    dy = y1 - y0
    ybar = 0.5 * (y0 + y1)
    series = _lift([(1.0, 1, -2.0 * ybar), (dy * dy / 6.0, 3, -2.0 * ybar)], g, zs)
    if dy == 0.0:
        return series
    diff = _lift([(0.5 / dy, 0, -2.0 * y1), (-0.5 / dy, 0, -2.0 * y0)], g, zs)
    return np.where(_near_level(dy, ybar, zs), series, diff)


def _wall_edges(d: PolygonalDomain):
    """(-n2 |e| / pi, y0, y1) for each wall edge e with a vertical normal
    component n2 != 0 and endpoint heights y0, y1: the edge's weight in the
    planar wall term."""
    for i, a, b, tag in d.edges():
        n2 = float(d.edge_normals[i, 1])
        if tag == geometry.WALL and n2 != 0.0:
            yield -n2 * float(d.edge_lengths[i]) / math.pi, float(a[1]), float(b[1])


def _flat_wall(n: int, weight: float, h: float, zs: np.ndarray,
               g: float = 1.0) -> np.ndarray:
    """The wall term of a flat bottom of measure w at depth h, lifted to
    exponent g: at g = 1, kappa_n w (Gamma(n) - Gamma(n, 2hz)) / (2h)^n."""
    return _lift([(_kappa(n) * weight, n - 1, 2.0 * h)], g, zs)


def comparison_cylinder(n: int, area: float, h) -> CylinderDomain:
    """The vertical cylinder F x (-h, 0) over a free surface of measure
    ``area``: the comparison domain when only n, |F| and the depth are
    known.  Its wall term is the flat bottom's, :func:`_flat_wall`."""
    if h is None:
        raise HypothesisError("depth unknown; cannot build the comparison cylinder")
    return CylinderDomain(n, geometry.ExplicitBase((0.0,), "neumann", area), float(h))


def _cone_coef(dom: ConeDomain) -> float:
    """sign(cos alpha) / (4 tan^2 alpha): the cone's wall-term prefactor."""
    alpha = dom.half_angle
    return math.copysign(1.0, math.cos(alpha)) / (4.0 * math.tan(alpha) ** 2)


def _wall(domain, g: float, zs: np.ndarray) -> np.ndarray:
    """The wall term lifted to exponent g >= 1 at every z in ``zs`` (at
    g = 1 the wall term A(z) itself); the value at z = 0 is 0.

    Polygons sum a lifted flux per wall edge, the vertical cylinder has only
    its flat bottom, and the cone of revolution integrates
    sign(cos alpha)/(4 tan^2 alpha) (1 - e^{-2hr} - 2hr e^{-2hr}).
    """
    if isinstance(domain, PolygonalDomain):
        total = np.zeros_like(zs)
        for weight, y0, y1 in _wall_edges(domain):
            total += weight * _edge_flux_lift(y0, y1, g, zs)
        return total
    if isinstance(domain, CylinderDomain):
        return _flat_wall(domain.n, domain.base_area, domain.depth, zs, g)
    if isinstance(domain, ConeDomain):
        # 1 - e^{-2hr}(1 + 2hr) cancels at small r; it is the integral from 0
        # of (2h)^2 s e^{-2hs}, so the profile is the twice-integrated term
        h = domain.depth
        return _cone_coef(domain) * _lift([(4.0 * h * h, 1, 2.0 * h)], g, zs, order=2)
    raise DomainError(f"no wall term for domain type {type(domain).__name__}")


def wall_term(domain, z):
    """Wall term A(z) = -kappa_n * integral_0^z integral_B <n,e_n> e^{2 x_n r} r^{n-1} ds dr
    for any supported domain kind: :func:`wall_term_gamma` at gamma = 1,
    the lift :func:`_lift` in closed form.

    On a polygon the integrand is -(1/pi) n2 r e^{2yr} over the walls; for
    the triangle with base angles alpha, beta and depth h,
    A(z) = (cot a + cot b)/(2 pi) (z - (1 - e^{-2hz})/(2h)).
    For the cone of revolution the closed form is
    sign(cos alpha)/(4 tan^2 alpha) (z - (1-e^{-2hz})/h + z e^{-2hz}),
    evaluated as the twice-integrated term of :func:`_wall` to keep small z
    accurate; an additive 1/(4h^2) constant sometimes attached to it is
    dimensionally inconsistent with the integrand and is not included.
    """
    return wall_term_gamma(domain, 1.0, z)


def wall_term_gamma(domain, gamma: float, z):
    """Wall term for Riesz exponent gamma >= 1:

        gamma = 1: wall_term;  gamma > 1:
        gamma (gamma-1) integral_0^z (z-t)^{gamma-2} A(t) dt,

    which is exactly the Riesz lift of the gamma = 1 term.  It is evaluated
    in closed form by the lift :func:`_lift`, to about 1e-12 relative to the
    size of its terms at every z > 0.
    """
    g = specfun.real(gamma, "gamma", 1)
    return floats_if_scalar(z, _wall(domain, g, specfun.points(z, "z", 0)))


def sum_bound_wall_term(domain, R):
    """Normalized wall integral entering the eigenvalue-sum inequality:

        c(R) = (n-1) omega_{n-1} |F|^{-1} integral_0^R integral_B <n,e_n> r^{n-1} e^{2 x_n r} ds dr
             = -(2 pi)^{n-1} |F|^{-1} * wall_term(R).

    Nonpositive whenever no wall overhangs (B+ empty), e.g. on any domain
    contained in the vertical cylinder over its free surface.
    """
    area, n = geometry.free_area(domain), geometry.ambient_dim(domain)
    return -(2.0 * math.pi) ** (n - 1) / area * wall_term(domain, R)


# ---------------------------------------------------------------------------
# SN lower bounds (Riesz-mean form)
# ---------------------------------------------------------------------------

def sn_lower_main(domain, gamma: float, z):
    """General sloshing lower bound C_{n,gamma} |F| z^{n+gamma-1} + wall term.

    The verification margin of this bound against a computed spectrum is the
    defect of the averaged variational principle with the exponential test
    family underlying the proof.
    """
    g, zs = specfun.real(gamma, "gamma", 1), specfun.points(z, "z", 0)
    n = geometry.ambient_dim(domain)
    weyl = specfun.weyl_constant(n, g) * geometry.free_area(domain)
    return floats_if_scalar(z, weyl * zs ** (n + g - 1) + _wall(domain, g, zs))


def sn_lower_split(domain, z):
    """Sloshing lower bound with the wall term estimated through incomplete
    gamma functions of the extreme depths:

        C_{n,1}|F| z^n + kappa_n [ I_- (Gamma(n)-Gamma(n,2hz))/(2h)^n
                                   - I_+ (Gamma(n)-Gamma(n,2 delta z))/(2 delta)^n ],

    where I_- integrates |<n,e_n>| over non-overhanging walls (depth h = the
    domain depth), I_+ integrates <n,e_n> over overhanging walls, and delta
    is the overhang clearance.  Requires delta > 0 whenever I_+ > 0.
    """
    zs = specfun.points(z, "z", 0)
    if isinstance(domain, PolygonalDomain):
        n = 2
        area = geometry.free_length(domain)
        h = geometry.depth(domain)
        upward, downward = geometry.wall_sign_split(domain)
        # |<n, e_2>| times the length, per edge
        flux = np.abs(domain.edge_normals[:, 1]) * domain.edge_lengths
        i_minus = float(sum(flux[i] for i in downward))
        i_plus = float(sum(flux[i] for i in upward))
        delta = geometry.overhang_depth(domain)
    elif isinstance(domain, CylinderDomain):
        n, area, h = domain.n, domain.base_area, domain.depth
        i_minus, i_plus, delta = area, 0.0, None
    elif isinstance(domain, ConeDomain):
        n, area, h = 3, geometry.free_area(domain), domain.depth
        if math.cos(domain.half_angle) > 0:
            i_minus, i_plus, delta = area, 0.0, None
        else:
            raise DomainError(
                "the overhanging cone's wall touches the free surface; the "
                "split estimate needs positive overhang clearance")
    else:
        raise DomainError(f"no split bound for domain type {type(domain).__name__}")

    est = _flat_wall(n, i_minus, h, zs)
    if i_plus > 0.0:
        est = est - _flat_wall(n, i_plus, delta, zs)
    return floats_if_scalar(z, specfun.weyl_constant(n, 1.0) * area * zs ** n + est)


class TwoCornerBound(NamedTuple):
    value: float       # full bound using the derivation's constant
    c: float           # constant from the derivation (corner piece negative)
    c_stated: float    # alternative sign convention (corner piece positive)


def sn_lower_2d_angles(alpha: float, beta: float, delta: float,
                       bc_length: float, area: float, gamma: float,
                       z) -> TwoCornerBound:
    """Two-corner sloshing bound in the plane:

        R_gamma(z) >= C_{2,gamma}|F| z^{gamma+1} + (cot a + cot b)/(2 pi) z^gamma + c,

    for a domain whose walls leave the two surface corners as straight
    segments down to depth delta, with at most length ``bc_length`` of
    further wall below that depth.  cot(pi/2) = 0 (vertical walls).

    The constant produced by the derivation is

        c1(z) = -(cot a + cot b)(1-e^{-2 dz})/(4 pi d)
                - |Bc| (1 - e^{-2 dz}(1+2 dz))/(4 pi d^2);

    a variant convention flips the sign of the first piece.  Both readings
    are returned and the bound uses the derivation's.  gamma > 1 lifts the
    gamma = 1 bound by Riesz iteration: the two leading terms map onto
    themselves, and
    c1 = integral_0^t e^{-2 d r} (sign (cot a + cot b)/(2 pi) - |Bc| r / pi) dr,
    so the corner and residual-wall pieces are lifted in closed form once
    each and the two sign readings differ only in how they combine.
    """
    slope = (_cot(alpha) + _cot(beta)) / (2.0 * math.pi)
    delta = specfun.real(delta, "delta", 0, strict=True)
    bc_length = specfun.real(bc_length, "bc_length", 0)
    area = specfun.real(area, "area", 0, strict=True)
    g, zs = specfun.real(gamma, "gamma", 1), specfun.points(z, "z", 0)
    weyl = specfun.weyl_constant(2, g) * area
    corner = _lift([(slope, 0, 2.0 * delta)], g, zs)
    residual = _lift([(bc_length / math.pi, 1, 2.0 * delta)], g, zs)
    c = -corner - residual
    return floats_if_scalar(z, TwoCornerBound(
        weyl * zs ** (g + 1.0) + slope * zs ** g + c, c, corner - residual))


def sn_lower_john_2d(length: float, gamma: float, z):
    """Planar sloshing bound for domains under their free surface:
    R_gamma(z) >= (l / (pi (gamma+1))) z^{gamma+1} + z^gamma / 2."""
    length = specfun.real(length, "length", 0, strict=True)
    g, zs = specfun.real(gamma, "gamma", 1), specfun.points(z, "z", 0)
    return floats_if_scalar(
        z, length / (math.pi * (g + 1.0)) * zs ** (g + 1.0) + 0.5 * zs ** g)


def sn_lower_john_ndim(area: float, h: float, n: int, z):
    """n-dimensional strip bound:
    C_{n,1}|F| z^n + kappa_n |F| (Gamma(n)-Gamma(n,2hz)) / (2h)^n."""
    area = specfun.real(area, "area", 0, strict=True)
    h = specfun.real(h, "h", 0, strict=True)
    zs = specfun.points(z, "z", 0)
    return floats_if_scalar(
        z, specfun.weyl_constant(n, 1.0) * area * zs ** n + _flat_wall(n, area, h, zs))


def sn_lower_via_neumann(area: float, width: float, n: int, z):
    """Sloshing lower bound routed through Neumann Laplacian bounds on the
    surface (deliberately non-sharp leading constant, factor n/(n+1)):

        (n/(n+1)) C_{n,1}|F| z^n + (1/8) L^cl_{1,n-2} (|F|/w) z^{n-1}
        - (1/192) (2 pi)^{2-n} omega_n (|F|/w^2) z^{n-2},

    where w is the width of the free surface in a chosen direction.
    """
    specfun._dimension(n, 3)
    area = specfun.real(area, "area", 0, strict=True)
    width = specfun.real(width, "width", 0, strict=True)
    zs = specfun.points(z, "z", 0)
    lead = n / (n + 1.0) * specfun.weyl_constant(n, 1.0) * area * zs ** n
    mid = 0.125 * specfun.berezin_constant(n - 1) * (area / width) * zs ** (n - 1)
    last = (2.0 * math.pi) ** (2 - n) * specfun.unit_ball_volume(n) \
        * (area / width ** 2) * zs ** (n - 2) / 192.0
    return floats_if_scalar(z, lead + mid - last)


# ---------------------------------------------------------------------------
# eigenvalue-sum inequalities and brackets (SN)
# ---------------------------------------------------------------------------

def _lookup(name: str, sources, default=None):
    """``name`` from the first dict of ``sources`` holding it (not None), else
    ``default``, required when that is None; n must be an integer >= 2, the
    rest is read as float."""
    value = next((src[name] for src in sources if src.get(name) is not None), default)
    if value is None:
        raise HypothesisError(
            f"bound needs parameter {name!r}: not in explicit params nor in "
            "the spectrum metadata")
    if name != "n":
        return float(value)
    specfun._dimension(value)
    return value


def _sum_inputs(s: Spectrum, k, subject: str, n, area):
    """(ks, n, |F|) of a sum inequality on the SN spectrum s: k, a number
    or a grid, as an integer array whose every point is a positive integer
    with nu_{k+1} stored in s; n and |F| as given, else from s.meta
    (:func:`_lookup`)."""
    if s.problem != "SN":
        raise ValueError(f"{subject} sloshing (SN) spectra")
    ks = specfun.indices(k, "k must be a positive integer")
    over = ks[ks + 1 > len(s)]
    if over.size:
        raise ValueError(f"need eigenvalue {over[0] + 1}, spectrum has {len(s)}")
    return ks, _lookup("n", ({"n": n}, s.meta)), _lookup("areaF", ({"areaF": area}, s.meta))


def kroger_master(s: Spectrum, k, R, *, n=None, area=None, domain=None):
    """Both sides of the master sum inequality

        nu_{k+1} R^{n-1} - (n-1)/n R^n
            <= W^{n-1} (nu_{k+1} - mean of first k) + c(R),

    with W the semiclassical scale and c the normalized wall integral.
    Returns (lhs, rhs), floats when k and R are numbers and arrays over
    their broadcast grid otherwise.  Without an explicit domain the wall
    integral uses the vertical cylinder built from the spectrum's metadata.
    """
    ks, n, area = _sum_inputs(s, k, "the sum inequalities concern", n, area)
    ks, Rs = np.broadcast_arrays(ks, specfun.points(R, "R", 0, strict=True))
    w = specfun.semiclassical_scale(n, ks, area)
    nu_next = s.values[ks]
    lhs = nu_next * Rs ** (n - 1) - (n - 1) / n * Rs ** n
    if domain is None:
        domain = comparison_cylinder(n, area, s.meta.get("depth"))
    c_val = sum_bound_wall_term(domain, Rs)
    rhs = w ** (n - 1) * (nu_next - riesz.mean_sum(s, ks)) + c_val
    return floats_if_scalar(R if np.ndim(k) == 0 else k, (lhs, rhs))


class KrogerBound(NamedTuple):
    bound: float
    observed: float
    margin: float
    form: str     # "john" (wall term dropped) or "general"


def kroger_sum_bound(s: Spectrum, k, *, n=None, area=None,
                     john: Optional[bool] = None, domain=None) -> KrogerBound:
    """Upper bound on the mean of the first k sloshing eigenvalues:

        mean_k <= (n-1)/n * (W - (nu_{k+1} - W)^2 / W)          [John domains]

    plus W^{-(n-1)} c(nu_{k+1}) in the general form used when the John flag
    is not confirmed (the wall term is <= 0 on John domains, so dropping it
    is only legitimate there).  Without an explicit domain the general form
    takes c on the vertical cylinder built from the spectrum's metadata.
    """
    ks, n, area = _sum_inputs(s, k, "the sum inequalities concern", n, area)
    if john is None:
        john = s.meta.get("john")
    if john is True:
        domain, form = None, "john"
    else:
        if domain is None:
            domain = comparison_cylinder(n, area, s.meta.get("depth"))
        form = "general"
    bound = _kroger(n, area, ks, s.values[ks], domain)
    observed = riesz.mean_sum(s, ks)
    return floats_if_scalar(k, KrogerBound(bound, observed, bound - observed, form))


def _kroger(n: int, area: float, ks, nu_next, domain) -> np.ndarray:
    """:func:`kroger_sum_bound` at nu_{k+1} = nu_next: the john form without
    a domain, else the general form with the wall integral on it."""
    w = specfun.semiclassical_scale(n, ks, area)
    core = (n - 1) / n * (w - (nu_next - w) ** 2 / w)
    if domain is None:
        return core
    return core + w ** (1 - n) * sum_bound_wall_term(domain, nu_next)


def eigenvalue_bracket(s: Spectrum, k, *, n=None, area=None):
    """Two-sided enclosure of nu_{k+1} from the running mean:

        W (1 - sqrt(1 - S)) <= nu_{k+1} <= W (1 + sqrt(1 - S)),
        S = (n/(n-1)) * mean_k / W.

    Returns (lower, upper), floats for a number k and arrays for a grid.
    S > 1 is impossible on John domains (it would contradict the sum bound),
    so it raises with a loud diagnostic instead of returning NaN.
    """
    ks, n, area = _sum_inputs(s, k, "the bracket concerns", n, area)
    low, high, s_k = _bracket(n, area, ks, riesz.mean_sum(s, ks))
    over = np.flatnonzero(s_k > 1.0)
    if over.size:
        i = over[0]
        raise ValueError(
            f"S_{ks[i]} = {s_k[i]:.6f} > 1: the eigenvalue bracket is undefined; on "
            "a domain below its free surface this would contradict the "
            "averaged sum bound -- check the spectrum and the metadata")
    return floats_if_scalar(k, (low, high))


def _bracket(n: int, area: float, ks, mean):
    """(lower, upper, S_k) of :func:`eigenvalue_bracket` at the running mean
    `mean`; both ends are W where S_k > 1."""
    w = specfun.semiclassical_scale(n, ks, area)
    s_k = n / (n - 1) * mean / w
    root = np.sqrt(np.maximum(1.0 - s_k, 0.0))
    return w * (1.0 - root), w * (1.0 + root), s_k


# ---------------------------------------------------------------------------
# SD bounds
# ---------------------------------------------------------------------------

def sd_upper_ndim(area: float, n: int, gamma: float, z):
    """Clamped-wall Riesz mean upper bound C_{n,gamma} |F| z^{n+gamma-1}."""
    area = specfun.real(area, "area", 0, strict=True)
    g, zs = specfun.real(gamma, "gamma", 1), specfun.points(z, "z", 0)
    return floats_if_scalar(z, specfun.weyl_constant(n, g) * area * zs ** (n + g - 1.0))


def sd_sum_lower(n: int, area: float, k):
    """Lower bound (n-1)/n * W_{n,k} for the mean of the first k clamped
    eigenvalues (Legendre-dual to the Riesz upper bound)."""
    ks = specfun.indices(k, "k must be a positive integer")
    return floats_if_scalar(k, (n - 1) / n * specfun.semiclassical_scale(n, ks, area))


def sd_upper_2d_john(length: float, z):
    """Planar clamped-wall upper bound (l/2pi) z^2 - z/2 + pi/(2l) for
    domains below their free surface."""
    length = specfun.real(length, "length", 0, strict=True)
    zs = specfun.points(z, "z", 0)
    return floats_if_scalar(
        z, length / (2 * math.pi) * zs * zs - 0.5 * zs + math.pi / (2 * length))


def sd_lower_2d(length: float, z):
    """Planar clamped-wall lower bound (l/2pi) z^2 - (1/2 + l/pi) z + 1/2,
    valid for z >= 1 on domains containing the unit-depth rectangle over
    their free surface."""
    length = specfun.real(length, "length", 0, strict=True)
    zs = specfun.points(z, "z", 1)
    return floats_if_scalar(
        z, length / (2 * math.pi) * zs * zs - (0.5 + length / math.pi) * zs + 0.5)


def sd_heat_trace_upper(area: float, n: int, t):
    """Heat-trace upper bound Gamma(n) / ((4 pi)^{(n-1)/2} Gamma((n+1)/2))
    * |F| / t^{n-1}; for n = 2 this is |F| / (pi t)."""
    specfun._dimension(n)
    area = specfun.real(area, "area", 0, strict=True)
    ts = specfun.points(t, "time", 0, strict=True)
    coef = math.factorial(n - 1) / ((4 * math.pi) ** ((n - 1) / 2)
                                    * math.gamma((n + 1) / 2))
    return floats_if_scalar(t, coef * area / ts ** (n - 1))


# ---------------------------------------------------------------------------
# polygon -> two-corner parameters
# ---------------------------------------------------------------------------

def two_corner_params(d: PolygonalDomain) -> dict:
    """Extract (alpha, beta, delta, bc_length) for the two-corner bound.

    Requires exactly two Free/Wall corners.  delta is the largest depth down
    to which both corner wall edges run straight while no other wall point
    is shallower; bc_length measures the wall left over below that depth.
    """
    corners = geometry._surface_corners(d)
    if len(corners) != 2:
        raise HypothesisError(
            f"the two-corner bound needs exactly 2 surface corners, found "
            f"{len(corners)}")
    m, depths = d.n_vertices, -d.vertices[:, 1]
    ends = [(float(depths[i]), float(depths[(i + 1) % m])) for i in range(m)]
    walls = [i for i in range(m) if i not in d.free_edges]
    special = {wall for _i, _angle, wall in corners}
    far = {i: max(ends[i]) for i in special}
    delta = min([*far.values()] + [min(ends[i]) for i in walls if i not in special])
    if not delta > 0:
        raise HypothesisError("corner walls have no depth; bound undefined")
    total_wall = sum(float(d.edge_lengths[i]) for i in walls)
    above = sum(float(d.edge_lengths[i]) * (delta / far[i]) for i in special)
    bc_length = max(0.0, total_wall - above)
    return {"alpha": corners[0][1], "beta": corners[1][1],
            "delta": float(delta), "bc_length": float(bc_length)}


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Outcome of checking one bound against one spectrum."""

    bound_id: str
    kind: str                      # "lower" | "upper" | "bracket"
    axis_name: str                 # "z" | "k" | "t"
    axis: np.ndarray
    bound_values: np.ndarray
    observed_values: np.ndarray
    margins: np.ndarray
    tolerance: np.ndarray
    min_margin: float
    violations: list
    hypothesis_flags: dict
    status: str
    params: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def arr(a):
            return [float(x) for x in np.asarray(a).ravel()]

        out = {
            "bound_id": self.bound_id,
            "status": self.status,
            "kind": self.kind,
            "axis_name": self.axis_name,
            "axis": arr(self.axis),
            "bound": arr(self.bound_values),
            "observed": arr(self.observed_values),
            "margins": arr(self.margins),
            "tolerance": arr(self.tolerance),
            "min_margin": float(self.min_margin),
            "violations": self.violations,
            "hypothesis_flags": self.hypothesis_flags,
            "params": _jsonable(self.params),
        }
        if self.extra:
            out["extra"] = _jsonable(self.extra)
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def save_report(report: BoundReport, path) -> None:
    write_text(json.dumps(report.to_dict(), indent=2) + "\n", path)


@dataclass
class _Call:
    """One :func:`verify` call as a bound's evaluator sees it.  Evaluators
    record the parameters they resolve in ``used``, what they confirm in
    ``flags`` and ``extra``, and, off the z axis, the observed side in
    ``observed`` (on the z axis it is R_g, computed before them)."""

    s: Spectrum
    axis: np.ndarray                 # the grid points (integers on the k axis)
    g: float                         # the bound's Riesz exponent
    domain: object
    meta: dict                       # spectrum metadata, then domain metadata
    params: dict
    used: dict
    flags: dict
    extra: dict = field(default_factory=dict)
    observed: Optional[np.ndarray] = None

    def param(self, name: str, meta: Optional[dict] = None, default=None):
        """:func:`_lookup` of ``name`` in the explicit params, then in
        ``meta`` (by default the merged metadata); the value goes to
        ``used``."""
        value = _lookup(name, (self.params, self.meta if meta is None else meta), default)
        self.used[name] = value
        return value


def _comparison_domain(c: _Call):
    """The given domain; without one, :func:`comparison_cylinder` (flagged)."""
    if c.domain is not None:
        return c.domain
    n, area, h = c.param("n"), c.param("areaF"), c.param("depth")
    c.flags["comparison_cylinder_from_metadata"] = True
    return comparison_cylinder(n, area, h)


def _eval_triangle(c: _Call) -> np.ndarray:
    tri = two_corner_params(c.domain) if isinstance(c.domain, PolygonalDomain) else {}
    corners = {**c.meta, **tri}
    alpha, beta = c.param("alpha", corners), c.param("beta", corners)
    delta = c.param("delta", {"delta": c.meta.get("depth"), **tri})
    bc_len = c.param("bc_length", tri, default=0.0)
    area = c.param("areaF")
    bound, const, const_stated = sn_lower_2d_angles(alpha, beta, delta, bc_len,
                                                    area, c.g, c.axis)
    c.used.update(c_reading="derivation sign (corner piece negative); "
                            "c_stated_at_grid_end shows the flipped-sign variant",
                  c_at_grid_end=float(const[-1]),
                  c_stated_at_grid_end=float(const_stated[-1]))
    c.flags["two_surface_corners"] = True if (c.domain is not None or (
        "alpha" in c.meta and "beta" in c.meta)) else None
    return bound


def _eval_via_neumann(c: _Call) -> np.ndarray:
    bound = sn_lower_via_neumann(n=c.param("n"), area=c.param("areaF"),
                                 width=c.param("width"), z=c.axis)
    c.used["leading_constant_note"] = "leading constant deliberately " \
        "non-sharp by factor n/(n+1)"
    return bound


def _eval_kroger(c: _Call) -> np.ndarray:
    john = c.meta.get("john")
    # the general form takes the wall integral on the comparison domain
    domain = None if john is True else _comparison_domain(c)
    bound, c.observed, _, c.used["form"] = kroger_sum_bound(
        c.s, c.axis, n=c.param("n"), area=c.param("areaF"), john=john, domain=domain)
    return bound


def _kroger_shift(c: _Call, bound: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """How far the kroger bound can fall with nu_{k+1} anywhere within its
    certificate: the worse end of nu_{k+1} -/+ e, which is the minimum over
    that interval for the john form, concave in nu_{k+1}."""
    domain = None if c.used["form"] == "john" else _comparison_domain(c)
    nu, e = c.s.values[c.axis], errors[c.axis]
    ends = [_kroger(c.used["n"], c.used["areaF"], c.axis, x, domain)
            for x in (np.maximum(nu - e, 0.0), nu + e)]
    return np.maximum(bound - np.minimum(*ends), 0.0)


def _eval_bracket(c: _Call) -> np.ndarray:
    n, area = c.param("n"), c.param("areaF")
    low, c.extra["upper"] = eigenvalue_bracket(c.s, c.axis, n=n, area=area)
    c.observed = c.s.values[c.axis]     # nu_{k+1} (0-based index k)
    return low


def _bracket_shift(c: _Call, bound: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """How far the bracket's ends can move inwards with the mean of the
    first k eigenvalues within its certificate: its lower end rises and its
    upper end falls as the mean grows, so both are taken at the mean plus
    the mean certificate.  Where that passes S_k = 1 nothing is certified."""
    mean = riesz.mean_sum(c.s, c.axis) + np.cumsum(errors)[c.axis - 1] / c.axis
    low, high, s_k = _bracket(c.used["n"], c.used["areaF"], c.axis, mean)
    shift = np.maximum(low - bound, c.extra["upper"] - high)
    return np.where(s_k > 1.0, np.inf, shift)


def _eval_sd_lower2d(c: _Call) -> np.ndarray:
    bound = sd_lower_2d(c.param("areaF"), c.axis)
    dep, al, be = (c.meta.get(key) for key in ("depth", "alpha", "beta"))
    if dep is not None:
        dep = specfun.real(dep, "depth", 0, strict=True)
    vertical = all(a is not None and abs(a - math.pi / 2) < 1e-9 for a in (al, be))
    if dep is not None and dep < 1.0:
        c.flags["contains_unit_depth_rectangle"] = False
    elif vertical and c.meta.get("john") is True and dep is not None:
        c.flags["contains_unit_depth_rectangle"] = True
    else:
        c.flags["contains_unit_depth_rectangle"] = None
    return bound


def _eval_sd_sum(c: _Call) -> np.ndarray:
    bound = sd_sum_lower(c.param("n"), c.param("areaF"), c.axis)
    c.observed = riesz.mean_sum(c.s, c.axis)
    return bound


def _eval_heat_trace(c: _Call) -> np.ndarray:
    n, area = c.param("n"), c.param("areaF")
    values, tails = riesz.heat_trace(c.s, c.axis)
    # an upper evaluation only if the gaps do not shrink past the last decile
    c.observed = values + tails
    c.extra["tail_bounds"] = tails
    c.extra["tail_kind"] = ("heuristic: assumes the spacings past the last "
                            "decile do not shrink below the smallest gap "
                            "observed there")
    return sd_heat_trace_upper(area, n, c.axis)


@dataclass(frozen=True)
class BoundSpec:
    """One bound as :func:`verify` runs it."""

    problem: str                     # "SN" | "SD": the spectra it applies to
    axis: str                        # "z" | "k" | "t": what the grid holds
    side: str                        # "lower" | "upper" | "bracket"
    evaluate: Callable[[_Call], np.ndarray]   # the bound over the grid
    r1_only: bool = False            # an R_1 statement: gamma is fixed to 1
    flags: tuple = ()                # hypothesis flags needed for "holds"
    # how far certified errors can move the bound itself, when it reads the
    # spectrum: (call, bound values, errors) -> a nonnegative array
    shift: Optional[Callable[[_Call, np.ndarray, np.ndarray], np.ndarray]] = None


_JOHN = ("john",)

#: every bound :func:`verify` knows, by id (also the CLI --bound vocabulary)
BOUNDS = {
    "main": BoundSpec("SN", "z", "lower",
                      lambda c: sn_lower_main(_comparison_domain(c), c.g, c.axis)),
    "split": BoundSpec("SN", "z", "lower",
                       lambda c: sn_lower_split(_comparison_domain(c), c.axis),
                       r1_only=True),
    "triangle": BoundSpec("SN", "z", "lower", _eval_triangle),
    "john2d": BoundSpec("SN", "z", "lower",
                        lambda c: sn_lower_john_2d(c.param("areaF"), c.g, c.axis),
                        flags=_JOHN),
    "johnNd": BoundSpec("SN", "z", "lower",
                        lambda c: sn_lower_john_ndim(n=c.param("n"), area=c.param("areaF"),
                                                     h=c.param("depth"), z=c.axis),
                        r1_only=True, flags=_JOHN),
    "via-neumann": BoundSpec("SN", "z", "lower", _eval_via_neumann, r1_only=True,
                             flags=_JOHN),
    "kroger": BoundSpec("SN", "k", "upper", _eval_kroger, shift=_kroger_shift),
    "bracket": BoundSpec("SN", "k", "bracket", _eval_bracket, flags=_JOHN,
                         shift=_bracket_shift),
    "sd-upper": BoundSpec("SD", "z", "upper",
                          lambda c: sd_upper_ndim(n=c.param("n"), area=c.param("areaF"),
                                                  gamma=c.g, z=c.axis),
                          flags=_JOHN),
    "sd-john2d": BoundSpec("SD", "z", "upper",
                           lambda c: sd_upper_2d_john(c.param("areaF"), c.axis),
                           r1_only=True, flags=_JOHN),
    "sd-lower2d": BoundSpec("SD", "z", "lower", _eval_sd_lower2d, r1_only=True,
                            flags=("contains_unit_depth_rectangle",)),
    "sd-sum": BoundSpec("SD", "k", "lower", _eval_sd_sum, flags=_JOHN),
    "heat-trace": BoundSpec("SD", "t", "upper", _eval_heat_trace, flags=_JOHN),
}

#: ids accepted by :func:`verify`, in table order
BOUND_IDS = tuple(BOUNDS)

_PROBLEM_NAMES = {"SN": "sloshing (SN)", "SD": "clamped-wall (SD)"}


def _axis_points(spec: BoundSpec, grid: np.ndarray) -> np.ndarray:
    """The grid as the bound's axis reads it: integers on the k axis.  The
    bound functions check the points themselves."""
    if spec.axis != "k":
        return grid
    # checked before the cast, which warns on nan and on floats past int64
    ok = (grid >= 1) & (grid < 2.0 ** 63) & (grid == np.floor(grid))
    if not ok.all():
        raise ValueError("k grid must consist of integers in [1, 2^63), got "
                         f"{float(grid[~ok][0])}")
    return grid.astype(int)


def _error_allowance(spec: BoundSpec, c: _Call, errors: np.ndarray,
                     bound: np.ndarray):
    """The per-eigenvalue ``errors`` propagated to the margin at every grid
    point: to the observed side and, through ``spec.shift``, to the bound."""
    if spec.axis == "z":
        return riesz.error_allowance(c.s, c.g, c.axis, errors)
    errors = riesz.certified_errors(c.s, errors)
    if spec.axis == "t":
        # mean value theorem: |e^{-nu t} - e^{-nu_h t}| <= t err e^{-min(nu, nu_h) t}
        # for |nu - nu_h| <= err, and min(nu, nu_h) >= max(nu_h - err, 0)
        low = np.maximum(c.s.values - errors, 0.0)
        return np.array([t * np.dot(errors, np.exp(-low * t)) for t in c.axis.tolist()])
    observed = errors[c.axis] if spec.side == "bracket" else \
        np.cumsum(errors)[c.axis - 1] / c.axis
    return observed if spec.shift is None else observed + spec.shift(c, bound, errors)


def verify(s: Spectrum, bound_id: str, grid, *, gamma: float = 1.0,
           domain=None, params: Optional[dict] = None,
           tolerance: Optional[float] = None, errors=None) -> BoundReport:
    """Check one bound of :data:`BOUNDS` against a spectrum over a grid (z,
    k, or t values).

    The bound is evaluated once for the whole grid by its public function,
    which resolves the domain and the bound's constants once; a one-point
    call of the same function gives each value bit for bit.

    Margins are signed so that >= 0 means the bound holds; points whose
    margin drops below the tolerance are listed as violations.  Exact
    spectra default to tolerance 1e-9 (1 + |bound|); a given tolerance must
    be a finite real >= 0.  Certified per-eigenvalue ``errors``
    (:func:`riesz.certified_errors`) add the propagated allowance:
    gamma z^{gamma-1} * sum of e_j over nu_j - e_j < z on the z axis (the
    rule of :func:`riesz.error_allowance`, shared with the fit's error
    budget); on the k axis the mean error (or the error of nu_{k+1}) plus
    how far the bound itself can move: kroger at the worse end of
    nu_{k+1} -/+ e, the bracket at the mean plus the mean error (infinite
    where that passes S_k = 1); and sum_j t err_j e^{-max(nu_j - err_j, 0) t}
    on the heat-trace t axis.
    Without a domain, main, split and the general kroger form take their
    wall term on :func:`comparison_cylinder`.

    The report's hypothesis flags record which geometric hypotheses could be
    confirmed from the metadata; unconfirmed-but-needed flags downgrade the
    status to "holds-with-flags" without counting as a violation.
    """
    spec = BOUNDS.get(bound_id)
    if spec is None:
        raise ValueError(f"unknown bound id {bound_id!r}; expected one of {BOUND_IDS}")
    if s.problem != spec.problem:
        raise ValueError(
            f"bound {bound_id!r} applies to {_PROBLEM_NAMES[spec.problem]} spectra")
    meta = dict(s.meta)
    if domain is not None:
        for key, val in geometry.domain_metadata(domain).items():
            meta.setdefault(key, val)
    g = float(gamma)
    if spec.r1_only:
        g = 1.0
    if tolerance is not None:
        tolerance = specfun.real(tolerance, "tolerance", 0)
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("empty verification grid")
    john = meta.get("john")
    flags = {"john": john if isinstance(john, bool) else None}
    c = _Call(s, _axis_points(spec, grid), g, domain, meta, dict(params or {}),
              {"gamma": g} if spec.axis == "z" else {}, flags)
    axis = c.axis.astype(float)
    if spec.axis == "z":
        c.observed = riesz.riesz_mean_grid(s, g, axis)
    bound_vals = spec.evaluate(c)
    observed = c.observed

    if spec.side == "lower":
        margins = observed - bound_vals
    elif spec.side == "upper":
        margins = bound_vals - observed
    else:
        margins = np.minimum(observed - bound_vals, c.extra["upper"] - observed)
    if tolerance is not None:
        tol = np.full(axis.shape, float(tolerance))
    else:
        tol = 1e-9 * (1.0 + np.abs(observed if spec.side == "bracket" else bound_vals))
    if errors is not None:
        tol = tol + _error_allowance(spec, c, errors, bound_vals)

    violations = [{"axis": float(axis[i]), "margin": float(margins[i])}
                  for i in np.flatnonzero(margins < -tol)]
    flagged = any(flags.get(name) is not True for name in spec.flags)
    if flags.get("comparison_cylinder_from_metadata"):
        # the metadata cylinder only dominates the true domain under the strip condition
        flagged = flagged or flags.get("john") is not True
    status = ("violated" if violations else
              "holds-with-flags" if flagged else "holds")
    return BoundReport(
        bound_id=bound_id,
        kind=spec.side,
        axis_name=spec.axis,
        axis=axis,
        bound_values=bound_vals,
        observed_values=observed,
        margins=margins,
        tolerance=np.broadcast_to(np.asarray(tol, dtype=float), axis.shape).copy(),
        min_margin=float(np.min(margins)),
        violations=violations,
        hypothesis_flags=flags,
        status=status,
        params=c.used,
        extra=c.extra,
    )
