"""Command-line front end: spectra, Riesz curves, bound checks, fits.

Subcommands::

    steklov spectrum --preset rectangle:pi,1 --problem sn --count 1200 --out s.csv
    steklov riesz    --spectrum s.csv --gamma 1 --grid 0:50:0.5
    steklov verify   --spectrum s.csv --bound john2d --grid log200(0.1,1000)
    steklov asym     --spectrum s.csv --gamma 1 --window 100,1000

Domains come from presets (``rectangle:L,H``, ``isoceles-triangle:L,ANGLE``,
``trapezoid:L,ANGLE,H``, ``cylinder:2,L,H``, ``cylinder:3,A,B,H``,
``cone:ANGLE,H``) or from a JSON file holding ``{"vertices": [[x,y],...],
"free_edges": [i,...]}``, ``{"cone": {"alpha": a, "h": h}}`` or a cylinder
``{"cylinder": {"n": 2, "base": L, "h": h}}``, with ``"n": 3, "base": [a, b]``,
or with any integer n >= 2 over ``"base": {"eigenvalues": [...], "bc":
"neumann" or "dirichlet", "area": A}``.  A number is a float, optionally
times ``pi``, optionally over a divisor: ``1e-3``, ``2pi``, ``3pi/2``; a
JSON true or false is no number.  ``--fem-h`` applies to polygons only.
``riesz`` and ``asym`` build from a domain (by default 100 SN eigenvalues)
or read ``--spectrum``, beside which ``--problem``, ``--count`` and
``--fem-h`` are refused.

Exit codes: 0 success / bound holds, 1 bound violated, 2 input error or
out of memory, 3 grid beyond the spectrum's validity ceiling, 4 geometric
hypotheses not confirmed (report still written).  All output is
deterministic: fixed float formatting and key order, so identical
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings

import numpy as np

from . import asymptotics, bounds, geometry, riesz, specfun, spectra
from .bounds import HypothesisError
from .geometry import (ConeDomain, CylinderDomain, IntervalBase, PolygonalDomain,
                       RectangleBase)
from .riesz import ValidityCeilingError


def _num(token: str) -> float:
    """A float, optionally times pi, optionally over a divisor: '1', '1e+3',
    'pi', 'pi/4', '2pi', '3pi/2'; evaluated as (coefficient * pi) / divisor."""
    head, slash, divisor = token.lower().partition("/")
    coef, pi = head.strip().removesuffix("pi"), head.strip().endswith("pi")
    try:
        value = ((float(coef) if coef.strip() or not pi else 1.0)
                 * (math.pi if pi else 1.0) / (float(divisor) if slash else 1.0))
        return specfun.real(value, "number")
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse number {token!r}") from None


def _check_points(spec: str, count) -> None:
    """:func:`specfun.check_memory` of the grid's `count` points, before
    any is allocated."""
    specfun.check_memory(8 * count, lambda exact: (
        f"grid spec {spec!r} has {exact(count):.4g} points, "), "fewer points")


def parse_grid(spec: str) -> np.ndarray:
    """Grid specs: 'start:stop:step' (inclusive lattice) or 'logN(a,b)'.
    Its points are counted, and checked against memory, before any is
    allocated."""
    m = re.fullmatch(r"log(\d+)\(([^,]+),([^)]+)\)", spec.strip())
    if m:
        n = int(m.group(1))
        a, b = _num(m.group(2)), _num(m.group(3))
        if n < 2 or not 0 < a < b:
            raise ValueError(f"log grid needs N >= 2 and 0 < a < b, got {spec!r}")
        _check_points(spec, n)
        return np.geomspace(a, b, n)
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:step or logN(a,b), "
                         f"got {spec!r}")
    start, stop, step = (_num(p) for p in parts)
    if not (step > 0 and stop > start):
        raise ValueError(f"grid spec needs stop > start and step > 0, got {spec!r}")
    stop += 0.5 * step
    if not math.isfinite(stop - start):
        raise ValueError(f"grid spec {spec!r}: the lattice's end, stop + step/2, "
                         "or its distance from start overflows a float")
    span = (stop - start) / step            # np.arange's length, ceil(span)
    if not math.isfinite(span):
        raise ValueError(f"grid spec {spec!r} has more points than a float "
                         "counts; choose fewer points")
    _check_points(spec, math.ceil(span))
    return np.arange(start, stop, step)


_PRESET_USAGE = ("presets: rectangle:L,H | isoceles-triangle:L,ANGLE | "
                 "trapezoid:L,ANGLE,H | cylinder:2,L,H | cylinder:3,A,B,H | "
                 "cone:ANGLE,H")


def _cylinder(n, base, h) -> CylinderDomain:
    """The cylinder of a preset or of domain JSON: n = 2 over [L], 3 over
    [a, b], or any integer >= 2 over an explicit-base dict; no other n."""
    if isinstance(base, dict) and specfun.real(n, "cylinder n", 2).is_integer():
        base = geometry.ExplicitBase(tuple(base["eigenvalues"]), base["bc"],
                                     float(base["area"]))
    elif (n, len(base)) in ((2, 1), (3, 2)):
        base = (IntervalBase if n == 2 else RectangleBase)(*map(float, base))
    else:
        raise ValueError("a cylinder's n is 2 over a length, 3 over two sides or an "
                         f"integer over an explicit base; got {n!r} over {base!r}")
    return CylinderDomain(int(n), base, float(h))


_PRESETS = {    # name -> (accepted parameter counts, constructor)
    "rectangle": ((2,), geometry.rectangle_domain),
    "isoceles-triangle": ((2,), geometry.isoceles_triangle_domain),
    "trapezoid": ((3,), geometry.trapezoid_domain),
    "cylinder": ((3, 4), lambda n, *rest: _cylinder(n, rest[:-1], rest[-1])),
    "cone": ((2,), ConeDomain),
}


def parse_preset(spec: str):
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; {_PRESET_USAGE}")
    counts, make = _PRESETS[name]
    args = [_num(x) for x in rest.split(",")] if rest.strip() else []
    if len(args) not in counts:
        raise ValueError(f"preset {name!r} takes {' or '.join(map(str, counts))} "
                         f"parameters; {_PRESET_USAGE}")
    return make(*args)


def _json_number(value, what: str):
    """`value`, a number from domain JSON or lists or objects of them, with
    any JSON true or false in it refused: float() would read it as 1 or 0."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be a number, got {json.dumps(value)}")
    for item in value.values() if isinstance(value, dict) else \
            value if isinstance(value, list) else ():
        _json_number(item, what)
    return value


def load_domain(path):
    """A domain from a JSON file in one of the forms of the module docstring;
    any other content is a ValueError naming the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if "vertices" in obj:
            return PolygonalDomain(_json_number(obj["vertices"], "vertices"),
                                   obj.get("free_edges", []))
        if "cylinder" in obj:
            c = obj["cylinder"]
            base = c["base"] if isinstance(c["base"], (list, dict)) else [c["base"]]
            return _cylinder(_json_number(c["n"], "cylinder n"),
                             _json_number(base, "cylinder base"),
                             _json_number(c["h"], "cylinder h"))
        if "cone" in obj:
            cone = obj["cone"]
            return ConeDomain(float(_json_number(cone["alpha"], "cone alpha")),
                              float(_json_number(cone["h"], "cone h")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad domain JSON ({type(exc).__name__}: {exc})")
    raise ValueError(f"{path}: no 'vertices', 'cylinder', or 'cone' key")


def _resolve_domain(args):
    if args.preset is not None:
        return parse_preset(args.preset)
    return None if args.domain is None else load_domain(args.domain)


def _compute_spectrum(args):
    dom = _resolve_domain(args)
    problem = args.problem.upper()
    count = args.count
    if isinstance(dom, CylinderDomain):
        if args.fem_h is not None:
            raise ValueError("--fem-h applies to polygons only; a cylinder's "
                             "spectrum is exact")
        return spectra.cylinder_spectrum(dom, problem, count)
    if isinstance(dom, ConeDomain):
        raise ValueError("no spectrum solver for the cone; it supports wall "
                         "terms and bound evaluation only")
    if args.fem_h is not None:
        from . import fem      # scipy.sparse and scipy.linalg load only here
        return fem.dtn_spectrum(dom, problem, count, args.fem_h)
    sides = geometry.axis_rectangle_sides(dom)
    if sides is not None:
        maker = spectra.rectangle_sn if problem == "SN" else spectra.rectangle_sd
        return maker(sides[0], sides[1], count)
    raise ValueError("no closed form for this polygon; pass --fem-h to use "
                     "the finite-element solver")


def cmd_spectrum(args) -> int:
    s = _compute_spectrum(args)
    spectra.save_spectrum(s, args.out or sys.stdout)
    return 0


def _source_spectrum(args):
    """The --spectrum file, or the spectrum built from the domain, by
    default the first 100 SN eigenvalues; --problem, --count and --fem-h
    set how it is built, so they are refused beside --spectrum."""
    if args.spectrum is None:
        args.problem = args.problem or "sn"
        args.count = 100 if args.count is None else args.count
        return _compute_spectrum(args)
    given = [flag for flag, value in (("--problem", args.problem),
                                      ("--count", args.count),
                                      ("--fem-h", args.fem_h)) if value is not None]
    if given:
        raise ValueError(f"{', '.join(given)} set how a spectrum is built from "
                         "--preset or --domain; --spectrum reads it from a file")
    return spectra.load_spectrum(args.spectrum)


def cmd_riesz(args) -> int:
    s = _source_spectrum(args)
    curve = riesz.riesz_curve(s, args.gamma, parse_grid(args.grid))
    riesz.save_curve(curve, args.out or sys.stdout)
    return 0


def _load_errors(path, s) -> np.ndarray:
    """The certified errors of the eigenvalues of `s` in ``path``,
    whitespace-separated numbers, as :func:`riesz.certified_errors` checks
    them; a file that holds none is refused, and every error names it."""
    with warnings.catch_warnings():
        # numpy warns on a file with no data, and would return no errors
        warnings.simplefilter("error", UserWarning)
        try:
            return riesz.certified_errors(s, np.loadtxt(path, ndmin=1))
        except UserWarning:
            raise ValueError(f"{path}: no certified errors found") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def cmd_verify(args) -> int:
    s = spectra.load_spectrum(args.spectrum)
    dom = _resolve_domain(args)
    errors = None
    if args.errors:
        errors = _load_errors(args.errors, s)
    report = bounds.verify(s, args.bound, parse_grid(args.grid),
                           gamma=args.gamma, domain=dom,
                           tolerance=args.tolerance, errors=errors)
    bounds.save_report(report, args.out or sys.stdout)
    if report.status == "violated":
        return 1
    if report.status == "holds-with-flags":
        return 4
    return 0


def cmd_asym(args) -> int:
    s = _source_spectrum(args)
    z1, _, z2 = args.window.partition(",")
    if not _:
        raise ValueError(f"window must be 'z1,z2', got {args.window!r}")
    result = asymptotics.fit_second_term(s, args.gamma, (_num(z1), _num(z2)))
    spectra.write_text(json.dumps(result.to_dict(), indent=2) + "\n",
                       args.out or sys.stdout)
    return 0


def _add_domain_opts(p, required=False):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--preset", help=_PRESET_USAGE)
    g.add_argument("--domain", help="domain JSON file")
    return g


def _add_source_opts(p):
    _add_domain_opts(p, required=True).add_argument(
        "--spectrum", help="spectrum CSV (from the spectrum command)")
    p.add_argument("--problem", choices=["sn", "sd", "SN", "SD"],
                   help="problem when building from a domain (default sn)")
    p.add_argument("--count", type=int,
                   help="eigenvalues to compute when building from a domain "
                        "(default 100)")
    p.add_argument("--fem-h", type=float,
                   help="target mesh size: force the finite-element solver")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Free-surface (sloshing / clamped-wall) spectra, Riesz "
                    "means, semiclassical bound checks, asymptotic fits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="compute a spectrum, write CSV")
    _add_domain_opts(p, required=True)
    p.add_argument("--problem", choices=["sn", "sd", "SN", "SD"], required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--fem-h", type=float, default=None)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("riesz", help="evaluate a Riesz-mean curve, write CSV")
    _add_source_opts(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", required=True,
                   help="start:stop:step or logN(a,b)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_riesz)

    p = sub.add_parser("verify", help="check a bound, write a JSON report")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--bound", required=True,
                   help="one of: " + ", ".join(bounds.BOUND_IDS))
    p.add_argument("--grid", required=True,
                   help="z, k, or t grid depending on the bound")
    p.add_argument("--gamma", type=float, default=1.0)
    _add_domain_opts(p)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--errors", help="per-eigenvalue certified error file "
                                    "(one number per line)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asym", help="fit the second asymptotic coefficient")
    _add_source_opts(p)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--window", required=True, help="fit window 'z1,z2'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_asym)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidityCeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid that passes parse_grid's check can still exhaust memory
        # in evaluation, which holds several arrays of its size
        detail = " ".join(str(exc).split())
        detail = f" ({detail})" if detail else ""
        print(f"error: {args.command} ran out of memory{detail}; choose a "
              "smaller grid, spectrum or mesh", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
