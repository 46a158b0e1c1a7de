"""Print one ``name sha256`` line per output of the finite-element solver,
the bound layer and the CLI, so that two checkouts can be compared byte for
byte:

    OPENBLAS_NUM_THREADS=1 python tools/output_hashes.py > hashes.txt

Run it in each checkout and diff the two files.  It calls the public API
only (``fem.triangulate``, ``fem.dtn_matrices``, ``fem.dtn_with_error``,
``geometry`` constructors, ``spectra``, ``riesz``, ``bounds`` and
``asymptotics`` functions, ``python -m steklov`` and ``cli.main``), and imports
``steklov`` from the ``src`` next to it, so the same file runs in any
checkout that has that API.  It hashes:

- ``dtn_matrices(triangulate(d, h), problem)``: S, M_F, surface_nodes,
  factor_nnz and asymmetry, for the triangle, the rectangle, two
  trapezoid fans, the spoked 12-gon, an asymmetric hexagon, and the
  narrow fan and the 12-gon with their vertex lists started at another
  vertex (so that the first base triangle of a mirrored pair, the one the
  mirror's sectors keep, may lie right of the axis), at h = 0.3, 0.1,
  0.05, SN and SD; and the same of a copy of each mesh, which records no
  source and so takes the bordered sparse LU;
- the same, and ``dtn_with_error``, on bases split once or not at all: the
  triangle, the narrow fan and the 12-gon at an h that gives them one
  4-split and at one that gives none; where a problem keeps too few
  surface unknowns, the text of the refusal;
- ``dtn_with_error``: values, certificates and the source label, on the
  domains above at h = 0.3, 0.1, 0.05 and on copies of the mirrored ones
  with a vertex moved off the mirror;
- ``dtn_spectrum``: values, label and the CSV text that
  ``spectra.save_spectrum`` writes (under SN with its ``# zero_tol=1e-08``
  line and the ground mode as ``Spectrum`` clamps it) on each domain at
  h = 0.1;
- ``dtn_matrices`` of three edited triangulate meshes that their recorded
  source no longer gives: the narrow fan with a free edge tagged wall,
  the fan with an interior node moved, and the once-split triangle with its
  two lower wall edges tagged free;
- the certified triangle solve of acceptance criterion 07 and the two
  solves of the fem-certified benchmark workload;
- the stdout of the five CLI commands of acceptance criterion 14;
- the exit code and stderr of CLI inputs that are refused, run in-process
  through ``cli.main``: a preset of each polygon kind with a zero size, the
  dropped ``triangle`` preset alias, an explicit-base cylinder JSON with
  ``"bc": "robin"``, and, as controls, a cone spectrum and a grid spec of
  two parts;
- on the exact 5000-mode rectangle and box-cylinder spectra that the
  bounds-direct benchmark workload checks: the ``bounds.save_report`` JSON
  of ``verify`` for every bound id at gamma 1 on a 2000-point grid, and for
  main, triangle, john2d and sd-upper at gamma 1.5, 2 and 2.5;
  ``riesz_mean_grid`` at gamma 0, 1, 2, 3 and 1.5, and at gamma 0.5 and 2.5
  on an unsorted grid that holds every tenth stored eigenvalue below its
  top, each twice; ``fit_second_term`` on a Spectrum and on a
  spectrum-backed curve, and ``fit_eigenvalue_shift``;
- ``riesz.heat_trace`` values and tail bounds, on the 5000-mode SD
  rectangle and on a spectrum of random gaps, over grids that straddle
  708 / eta_max and 708 / eta_1 (where the terms it evaluates stop, and
  where it stops evaluating any), and at a t where every term is subnormal;
- ``wall_term``, ``wall_term_gamma`` (gamma 1, 1.5, 2, 2.5) and
  ``sum_bound_wall_term`` on the rectangle, trapezoid, triangle, box
  cylinder and two cones (one overhanging), on a log grid from 1e-3 to 1e3
  and at 0;
- ``fit_second_term`` on the certified triangle solve of the fem-certified
  benchmark workload, with its certified errors.

A different BLAS, or more than one BLAS thread, may change the last bits;
compare runs on one machine with one thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from steklov import asymptotics, bounds, cli, fem, geometry, riesz, spectra  # noqa: E402


def digest(value) -> str:
    """sha256 of a string, or of an array's dtype, shape and bytes."""
    h = hashlib.sha256()
    if isinstance(value, (str, bytes)):
        h.update(value.encode() if isinstance(value, str) else value)
    else:
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def regular_polygon(k: int) -> geometry.PolygonalDomain:
    """Regular k-gon of circumradius 1 with its top edge on the surface."""
    theta = math.pi / 2 + math.pi / k + 2 * math.pi * np.arange(k) / k
    verts = np.column_stack([np.cos(theta), np.sin(theta) - math.cos(math.pi / k)])
    return geometry.PolygonalDomain(verts, free_edges=[k - 1])


def hexagon() -> geometry.PolygonalDomain:
    """A hexagon inscribed in the unit circle about its vertex mean, with no
    mirror: every centroid-fan triangle is isoceles, the domain is not."""
    theta = np.radians([120.0, 190.0, 240.0, 300.0, 10.0, 60.0])
    verts = np.column_stack([np.cos(theta), np.sin(theta) - math.sin(math.pi / 3)])
    return geometry.PolygonalDomain(verts, free_edges=[5])


def started_at(d: geometry.PolygonalDomain, shift: int) -> geometry.PolygonalDomain:
    """d with its vertex list started at vertex `shift` and its free edges
    renumbered to match."""
    n = d.n_vertices
    return geometry.PolygonalDomain(np.roll(d.vertices, -shift, axis=0),
                                    free_edges=[(i - shift) % n for i in d.free_edges])


def moved(d: geometry.PolygonalDomain) -> geometry.PolygonalDomain:
    """d with vertex 1 moved right by 1e-10 of its diameter."""
    verts = d.vertices.copy()
    verts[1, 0] += 1e-10 * float(np.hypot(*np.ptp(verts, axis=0)))
    return geometry.PolygonalDomain(verts, free_edges=sorted(d.free_edges))


TRIANGLE = geometry.isoceles_triangle_domain(2.0, math.pi / 4)
RECTANGLE = geometry.rectangle_domain(math.pi, 1.0)
DOMAINS = {
    "triangle": TRIANGLE,
    "rectangle": RECTANGLE,
    "fan": geometry.trapezoid_domain(2.0, math.pi / 3, 0.6),
    "fan-wide": geometry.trapezoid_domain(math.pi, 2 * math.pi / 3, 1.0),
    "spoked": regular_polygon(12),
    "hexagon": hexagon(),
}
MOVED = {f"{name}-moved": moved(DOMAINS[name])
         for name in ("triangle", "fan", "fan-wide", "spoked")}
# the narrow fan keeps its right side triangle, the 12-gon two fan triangles
# left of the axis and three right of it
ROTATED = {"fan-rotated": started_at(DOMAINS["fan"], 1),
           "spoked-rotated": started_at(DOMAINS["spoked"], 3)}
STEPS = (0.3, 0.1, 0.05)
PROBLEMS = ("SN", "SD")
# (domain, h) with one 4-split (L = 1), then with none (L = 0); the
# triangle's diameter, 2, is below the 2.236 diagonal of its bounding box,
# from which on triangulate refuses target_h, so it has an L = 0 mesh too
SHALLOW = (("triangle", 1.5), ("fan", 1.5), ("spoked", 0.5),
           ("triangle", 2.1), ("fan", 2.05), ("spoked", 1.0))


def refused(call):
    """call(), or the text of the ValueError (MeshError included) it
    raises, as for a problem that keeps too few surface unknowns."""
    try:
        return call()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def matrices_lines(key, mesh, problem):
    pair = refused(lambda: fem.dtn_matrices(mesh, problem))
    if isinstance(pair, str):
        return [(f"{key}/refused", pair)]
    return [(f"{key}/{field}", getattr(pair, field))
            for field in ("S", "M_F", "surface_nodes", "factor_nnz", "asymmetry")]


def solve_lines(name, d, problem, count, h):
    spectrum, errors = fem.dtn_with_error(d, problem, count, h)
    key = f"dtn_with_error/{name}/{problem}/{count}/{h}"
    return [(f"{key}/values", spectrum.values), (f"{key}/errors", errors),
            (f"{key}/label", spectrum.source)]


def csv_text(spectrum) -> str:
    """The text ``spectra.save_spectrum`` writes for `spectrum`."""
    out = io.StringIO()
    spectra.save_spectrum(spectrum, out)
    return out.getvalue()


def modes(d, problem, h) -> int:
    """Every mode the solve at h resolves, up to 12."""
    return min(12, fem.dtn_matrices(fem.triangulate(d, h), problem).S.shape[0] - 1)


def edited(mesh, retag=(), node=None):
    """A copy of mesh that keeps its recorded source, with the boundary
    edges whose node pairs are in `retag` tagged the other way and `node`,
    if given, moved right by 0.01."""
    swap = {"free": "wall", "wall": "free"}
    edges = [(i, j, swap[tag] if {i, j} in retag else tag)
             for i, j, tag in mesh.boundary_edges]
    out = fem.Mesh(mesh.nodes.copy(), mesh.triangles, edges)
    if node is not None:
        out.nodes[node, 0] += 0.01
    out.source = mesh.source
    return out


def edited_meshes():
    fan = fem.triangulate(DOMAINS["fan"], 0.1)
    free = [{i, j} for i, j, tag in fan.boundary_edges if tag == "free"]
    yield "retagged-free-edge", edited(fan, [free[len(free) // 2]])
    fan = fem.triangulate(DOMAINS["fan"], 0.2)
    inner = np.setdiff1d(np.arange(fan.nodes.shape[0]),
                         [k for i, j, _tag in fan.boundary_edges for k in (i, j)])
    yield "moved-interior-node", edited(fan, node=inner[inner.size // 2])
    coarse = fem.triangulate(TRIANGLE, 1.5)
    yield "retagged-walls", edited(coarse, [{0, 3}, {2, 4}])


def fem_outputs():
    meshed = {**DOMAINS, **ROTATED}
    for name, h in [(name, h) for name in meshed for h in STEPS] + list(SHALLOW):
        for problem in PROBLEMS:
            mesh = fem.triangulate(meshed[name], h)
            for route, m in (("dtn_matrices", mesh),
                             ("dtn_matrices-copy", dataclasses.replace(mesh))):
                yield from matrices_lines(f"{route}/{name}/{problem}/{h}", m, problem)
    solved = {**DOMAINS, **MOVED, **ROTATED}
    for name, h in [(name, h) for name in solved for h in STEPS] + list(SHALLOW):
        for problem in PROBLEMS:
            count = refused(lambda: modes(solved[name], problem, h))
            if isinstance(count, str):
                yield f"dtn_with_error/{name}/{problem}/{h}/refused", count
            else:
                yield from solve_lines(name, solved[name], problem, count, h)
    for name, d in DOMAINS.items():
        for problem in PROBLEMS:
            count = modes(d, problem, 0.1)
            spectrum = fem.dtn_spectrum(d, problem, count, 0.1)
            key = f"dtn_spectrum/{name}/{problem}/{count}/0.1"
            yield f"{key}/values", spectrum.values
            yield f"{key}/label", spectrum.source
            yield f"{key}/csv", csv_text(spectrum)
    for name, mesh in edited_meshes():
        for problem in PROBLEMS:
            yield from matrices_lines(f"dtn_matrices-edited/{name}/{problem}", mesh,
                                      problem)
    yield from solve_lines("criterion-07", TRIANGLE, "SN", 160, 0.004)
    yield from solve_lines("fem-certified-triangle", TRIANGLE, "SN", 80, 0.01)
    yield from solve_lines("fem-certified-rectangle", RECTANGLE, "SD", 40, 0.02)


CLI_COMMANDS = [
    ["spectrum", "--preset", "rectangle:pi,1", "--problem", "sn", "--count", "50"],
    ["spectrum", "--preset", "isoceles-triangle:2,pi/4", "--problem", "sn",
     "--count", "5", "--fem-h", "0.2"],
    ["riesz", "--spectrum", "sn.csv", "--gamma", "1", "--grid", "0:40:2"],
    ["verify", "--spectrum", "sd.csv", "--bound", "sd-upper",
     "--grid", "log30(0.5,300)"],
    ["asym", "--spectrum", "sn.csv", "--gamma", "1", "--window", "20,200"],
]


def cli_outputs():
    """The stdout of acceptance criterion 14's commands, run in a temporary
    directory that holds the two spectrum files they read."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    base = [sys.executable, "-m", "steklov"]
    with tempfile.TemporaryDirectory() as work:
        def run(args):
            return subprocess.run(base + args, cwd=work, env=env,
                                  capture_output=True, check=True).stdout

        for problem in ("sn", "sd"):
            run(["spectrum", "--preset", "rectangle:pi,1", "--problem", problem,
                 "--count", "800", "--out", f"{problem}.csv"])
        for k, args in enumerate(CLI_COMMANDS):
            yield f"cli/{k}/{args[0]}", run(args)


COUNT = ["--problem", "sn", "--count", "5"]
REFUSED_CLI = {
    "rectangle-depth-0": ["spectrum", "--preset", "rectangle:1,0", *COUNT],
    "isoceles-triangle-length-0": ["spectrum", "--preset", "isoceles-triangle:0,pi/4",
                                   *COUNT],
    "trapezoid-depth-0": ["spectrum", "--preset", "trapezoid:2,pi/3,0", *COUNT],
    "triangle-preset": ["spectrum", "--preset", "triangle:2,pi/4", *COUNT],
    "robin-base": ["spectrum", "--domain", "{robin}", *COUNT],
    "cone-spectrum": ["spectrum", "--preset", "cone:pi/4,1", *COUNT],
    "two-part-grid": ["riesz", "--preset", "rectangle:pi,1", "--gamma", "1",
                      "--grid", "0:1"],
}
ROBIN = {"cylinder": {"n": 2, "h": 1.0,
                      "base": {"eigenvalues": [0, 1], "bc": "robin", "area": 1.0}}}


def refusal_outputs():
    """The exit code and stderr of each command of REFUSED_CLI, run by
    ``cli.main``, with ROBIN written to a temporary robin.json whose path
    reads as robin.json in the message, so that every run shows the same."""
    with tempfile.TemporaryDirectory() as work:
        robin = Path(work) / "robin.json"
        robin.write_text(json.dumps(ROBIN))
        for name, args in REFUSED_CLI.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([a.format(robin=robin) for a in args])
            text = err.getvalue().replace(str(robin), "robin.json")
            yield f"cli-refused/{name}", f"exit {code}\n{text}"


MODES = 5000
BOX = geometry.CylinderDomain(3, geometry.RectangleBase(math.pi, math.pi), 1.0)
TRAPEZOID = geometry.trapezoid_domain(math.pi, 2 * math.pi / 3, 1.0)
# bound id -> (spectrum, axis range, keyword arguments), as bounds-direct
# checks them; integer ranges are k axes
VERIFY_PLAN = {
    "main": ("SN", (0.1, 1000.0), {"domain": TRAPEZOID}),
    "split": ("SN", (0.1, 1000.0), {"domain": RECTANGLE}),
    "triangle": ("SN", (0.1, 1000.0), {"domain": RECTANGLE}),
    "john2d": ("SN", (0.1, 1000.0), {}),
    "johnNd": ("box-SN", (0.1, 75.0), {}),
    "via-neumann": ("box-SN", (0.1, 75.0), {"params": {"width": math.pi}}),
    "kroger": ("SN", (1, MODES - 2), {}),
    "bracket": ("SN", (1, MODES - 2), {}),
    "sd-upper": ("SD", (0.1, 1000.0), {}),
    "sd-john2d": ("SD", (0.1, 1000.0), {}),
    "sd-lower2d": ("SD", (1.0, 1000.0), {"domain": RECTANGLE}),
    "sd-sum": ("SD", (1, MODES - 2), {}),
    "heat-trace": ("SD", (0.01, 2.0), {"domain": RECTANGLE}),
}
LIFTED = ("main", "triangle", "john2d", "sd-upper")
WALL_DOMAINS = {"rectangle": RECTANGLE, "trapezoid": TRAPEZOID, "triangle": TRIANGLE,
                "box": BOX, "cone": geometry.ConeDomain(math.pi / 5, 0.8),
                "cone-overhanging": geometry.ConeDomain(2.2, 0.8)}


def report_text(report) -> str:
    """The JSON text ``bounds.save_report`` writes for `report`."""
    out = io.StringIO()
    bounds.save_report(report, out)
    return out.getvalue()


def fit_text(result) -> str:
    return json.dumps(result.to_dict())


def bound_outputs():
    exact = {"SN": spectra.rectangle_sn(math.pi, 1.0, MODES),
             "SD": spectra.rectangle_sd(math.pi, 1.0, MODES),
             "box-SN": spectra.cylinder_spectrum(BOX, "SN", MODES)}
    for bound_id, (key, (lo, hi), kwargs) in VERIFY_PLAN.items():
        grid = np.round(np.linspace(lo, hi, 2000)) if isinstance(lo, int) \
            else np.linspace(lo, hi, 2000)
        for gamma in (1.0, 1.5, 2.0, 2.5) if bound_id in LIFTED else (1.0,):
            report = bounds.verify(exact[key], bound_id, grid, gamma=gamma, **kwargs)
            yield f"verify/{bound_id}/{gamma:g}", report_text(report)
    for key, top in (("SN", 1000.0), ("box-SN", 75.0)):
        for gamma in (0.0, 1.0, 2.0, 3.0, 1.5):
            yield (f"riesz_mean_grid/{key}/{gamma:g}",
                   riesz.riesz_mean_grid(exact[key], gamma, np.linspace(0.0, top, 2000)))
        stored = exact[key].values[exact[key].values < top][::10]
        zs = np.random.default_rng(0).permutation(
            np.concatenate((np.linspace(0.0, top, 2000), stored, stored)))
        for gamma in (0.5, 2.5):
            yield (f"riesz_mean_grid/{key}/unsorted/{gamma:g}",
                   riesz.riesz_mean_grid(exact[key], gamma, zs))
    for key in ("SN", "SD"):
        s = exact[key]
        curve = riesz.riesz_curve(s, 1.0, np.linspace(0.0, 1500.0, 3000))
        for gamma, window in ((1.0, (100.0, 1000.0)), (2.0, (20.0, 200.0))):
            result = asymptotics.fit_second_term(s, gamma, window)
            yield f"fit_second_term/{key}/{gamma:g}", fit_text(result)
        yield (f"fit_second_term/{key}-curve/1",
               fit_text(asymptotics.fit_second_term(curve, 1.0, (100.0, 1000.0))))
        yield (f"fit_eigenvalue_shift/{key}",
               fit_text(asymptotics.fit_eigenvalue_shift(s, 10, 1000)))
    gaps = np.random.default_rng(0).uniform(0.05, 2.0, 2000)
    heat = {"rectangle": exact["SD"],
            "random-gaps": spectra.Spectrum("SD", np.cumsum(gaps), source="synthetic")}
    for key, s in heat.items():
        first, last = 708.0 / s.values[-1], 708.0 / s.values[0]
        grids = {"eta_max": np.linspace(0.9 * first, 1.1 * first, 101),
                 "eta_1": np.linspace(0.99 * last, 1.01 * last, 101),
                 "subnormal": np.array([730.0 / s.values[0]])}
        for name, ts in grids.items():
            values, tails = riesz.heat_trace(s, ts)
            yield f"heat_trace/{key}/{name}/values", values
            yield f"heat_trace/{key}/{name}/tails", tails
    zs = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 200)))
    for name, d in WALL_DOMAINS.items():
        yield f"wall_term/{name}", bounds.wall_term(d, zs)
        for gamma in (1.0, 1.5, 2.0, 2.5):
            yield f"wall_term_gamma/{name}/{gamma:g}", bounds.wall_term_gamma(d, gamma, zs)
        yield f"sum_bound_wall_term/{name}", bounds.sum_bound_wall_term(d, zs)
    s, errors = fem.dtn_with_error(TRIANGLE, "SN", 80, 0.01)
    result = asymptotics.fit_second_term(s, 1.0, (30.0, 120.0), errors=errors)
    yield "fit_second_term/fem-certified-triangle/1", fit_text(result)


def main() -> int:
    count = 0
    for outputs in (fem_outputs(), cli_outputs(), refusal_outputs(), bound_outputs()):
        for name, value in outputs:
            print(name, digest(value), flush=True)
            count += 1
    print(f"# {count} outputs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
