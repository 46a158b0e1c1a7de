"""Command-line front end: spectra, Riesz curves, bound checks, fits.

Subcommands::

    steklov spectrum --preset rectangle:pi,1 --problem sn --count 1200 --out s.csv
    steklov riesz    --spectrum s.csv --gamma 1 --grid 0:50:0.5
    steklov verify   --spectrum s.csv --bound john2d --grid log200(0.1,1000)
    steklov asym     --spectrum s.csv --gamma 1 --window 100,1000

Domains come from built-in presets (``rectangle:L,H``,
``isoceles-triangle:L,ANGLE``, ``trapezoid:L,ANGLE,H``, ``cylinder:2,L,H`` /
``cylinder:3,A,B,H``, ``cone:ANGLE,H``; numbers accept "pi" literals like
``pi/4`` or ``2pi``) or from a JSON file holding either
``{"vertices": [[x,y],...], "free_edges": [...]}`` or
``{"cylinder": {"n":, "base":, "h":}}``.

Exit codes: 0 success / bound holds, 1 bound violated, 2 input error,
3 grid beyond the spectrum's validity ceiling, 4 geometric hypotheses not
confirmed (report still written).  All output is deterministic: fixed float
formatting and key order, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import asymptotics, bounds, geometry, riesz, spectra
from .bounds import HypothesisError
from .geometry import (ConeDomain, CylinderDomain, IntervalBase, PolygonalDomain,
                       RectangleBase)
from .riesz import ValidityCeilingError


def _num(token: str) -> float:
    """Parse a float with optional pi: '1', 'pi', 'pi/4', '2pi', '3pi/2'."""
    t = token.strip().lower()
    m = re.fullmatch(r"(-?(?:\d+\.?\d*|\.\d+)(?:e-?\d+)?)?\s*(pi)?"
                     r"\s*(?:/\s*((?:\d+\.?\d*|\.\d+)))?", t)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"cannot parse number {token!r}")
    val = float(m.group(1)) if m.group(1) is not None else 1.0
    if m.group(2):
        val *= math.pi
    if m.group(3):
        val /= float(m.group(3))
    return val


def parse_grid(spec: str) -> np.ndarray:
    """Grid specs: 'start:stop:step' (inclusive lattice) or 'logN(a,b)'."""
    m = re.fullmatch(r"log(\d+)\(([^,]+),([^)]+)\)", spec.strip())
    if m:
        n = int(m.group(1))
        a, b = _num(m.group(2)), _num(m.group(3))
        if n < 2 or not 0 < a < b:
            raise ValueError(f"log grid needs N >= 2 and 0 < a < b, got {spec!r}")
        return np.geomspace(a, b, n)
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:step or logN(a,b), "
                         f"got {spec!r}")
    start, stop, step = (_num(p) for p in parts)
    if not (step > 0 and stop > start):
        raise ValueError(f"grid spec needs stop > start and step > 0, got {spec!r}")
    grid = np.arange(start, stop + 0.5 * step, step)
    if grid.size < 1:
        raise ValueError(f"empty grid from {spec!r}")
    return grid


_PRESET_USAGE = ("presets: rectangle:L,H | isoceles-triangle:L,ANGLE | "
                 "trapezoid:L,ANGLE,H | cylinder:2,L,H | cylinder:3,A,B,H | "
                 "cone:ANGLE,H")


def parse_preset(spec: str):
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    try:
        args = [_num(x) for x in rest.split(",")] if rest.strip() else []
    except ValueError as exc:
        raise ValueError(f"bad preset parameter in {spec!r}: {exc}") from exc

    def need(k):
        if len(args) != k:
            raise ValueError(f"preset {name!r} takes {k} parameters; {_PRESET_USAGE}")

    if name == "rectangle":
        need(2)
        return geometry.rectangle_domain(args[0], args[1])
    if name in ("isoceles-triangle", "triangle"):
        need(2)
        return geometry.isoceles_triangle_domain(args[0], args[1])
    if name == "trapezoid":
        need(3)
        return geometry.trapezoid_domain(args[0], args[1], args[2])
    if name == "cylinder":
        if len(args) == 3:
            return CylinderDomain(2, IntervalBase(args[1]), args[2]) \
                if int(args[0]) == 2 else _bad_cyl(args)
        if len(args) == 4 and int(args[0]) == 3:
            return CylinderDomain(3, RectangleBase(args[1], args[2]), args[3])
        return _bad_cyl(args)
    if name == "cone":
        need(2)
        return ConeDomain(args[0], args[1])
    raise ValueError(f"unknown preset {name!r}; {_PRESET_USAGE}")


def _bad_cyl(args):
    raise ValueError("cylinder preset is cylinder:2,L,H or cylinder:3,A,B,H; "
                     f"got parameters {args}")


def load_domain(path):
    """Domain JSON: polygon {'vertices','free_edges'} or {'cylinder': {...}}
    or {'cone': {'alpha','h'}}."""
    with open(path) as fh:
        obj = json.load(fh)
    if "vertices" in obj:
        return PolygonalDomain(obj["vertices"], obj.get("free_edges", []))
    if "cylinder" in obj:
        c = obj["cylinder"]
        base = c["base"]
        if isinstance(base, (int, float)):
            base = IntervalBase(float(base))
        elif isinstance(base, (list, tuple)) and len(base) == 2:
            base = RectangleBase(float(base[0]), float(base[1]))
        elif isinstance(base, dict):
            base = geometry.ExplicitBase(tuple(base["eigenvalues"]),
                                         base["bc"], float(base["area"]))
        else:
            raise ValueError(f"unsupported cylinder base spec {base!r}")
        return CylinderDomain(int(c["n"]), base, float(c["h"]))
    if "cone" in obj:
        return ConeDomain(float(obj["cone"]["alpha"]), float(obj["cone"]["h"]))
    raise ValueError(f"{path}: no 'vertices', 'cylinder', or 'cone' key")


def _resolve_domain(args):
    if getattr(args, "preset", None):
        return parse_preset(args.preset)
    if getattr(args, "domain", None):
        return load_domain(args.domain)
    return None


def _compute_spectrum(args):
    dom = _resolve_domain(args)
    if dom is None:
        raise ValueError("need --preset or --domain")
    problem = args.problem.upper()
    count = args.count
    if isinstance(dom, CylinderDomain):
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
    if args.spectrum:
        return spectra.load_spectrum(args.spectrum)
    return _compute_spectrum(args)


def cmd_riesz(args) -> int:
    s = _source_spectrum(args)
    curve = riesz.riesz_curve(s, args.gamma, parse_grid(args.grid))
    riesz.save_curve(curve, args.out or sys.stdout)
    return 0


def cmd_verify(args) -> int:
    s = spectra.load_spectrum(args.spectrum)
    dom = _resolve_domain(args)
    errors = None
    if args.errors:
        errors = np.loadtxt(args.errors, ndmin=1)
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


def _add_source_opts(p):
    p.add_argument("--spectrum", help="spectrum CSV (from the spectrum command)")
    _add_domain_opts(p)
    p.add_argument("--problem", choices=["sn", "sd", "SN", "SD"], default="sn")
    p.add_argument("--count", type=int, default=100,
                   help="eigenvalues to compute when building from a domain")
    p.add_argument("--fem-h", type=float, default=None,
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


if __name__ == "__main__":
    sys.exit(main())
