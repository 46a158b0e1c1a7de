"""Print one ``name sha256`` line per output of the finite-element solver
and the CLI, so that two checkouts can be compared byte for byte:

    OPENBLAS_NUM_THREADS=1 python tools/output_hashes.py > hashes.txt

Run it in each checkout and diff the two files.  It calls the public API
only (``fem.triangulate``, ``fem.dtn_matrices``, ``fem.dtn_with_error``,
``geometry`` constructors and ``python -m steklov``), and imports
``steklov`` from the ``src`` next to it, so the same file runs in any
checkout that has that API.  It hashes:

- ``dtn_matrices(triangulate(d, h), problem)``: S, M_F, surface_nodes,
  factor_nnz and asymmetry, for the triangle, the rectangle, two
  trapezoid fans, the spoked 12-gon and an asymmetric hexagon, at
  h = 0.3, 0.1, 0.05, SN and SD; and the same of a copy of each mesh,
  which records no source and so takes the bordered sparse LU;
- the same, and ``dtn_with_error``, on bases split once or not at all: the
  triangle, the narrow fan and the 12-gon at an h that gives them one
  4-split and at one that gives none; where a problem keeps too few
  surface unknowns, the text of the refusal;
- ``dtn_with_error``: values, certificates and the source label, on the
  domains above at h = 0.3, 0.1, 0.05 and on copies of the mirrored ones
  with a vertex moved off the mirror;
- ``dtn_spectrum``: values and label on each domain at h = 0.1;
- ``dtn_matrices`` of three edited triangulate meshes that their recorded
  source no longer gives: the narrow fan with a free edge tagged wall,
  the fan with an interior node moved, and the once-split triangle with its
  two lower wall edges tagged free;
- the certified triangle solve of acceptance criterion 07 and the two
  solves of the fem-certified benchmark workload;
- the stdout of the five CLI commands of acceptance criterion 14.

A different BLAS, or more than one BLAS thread, may change the last bits;
compare runs on one machine with one thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from steklov import fem, geometry  # noqa: E402


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
STEPS = (0.3, 0.1, 0.05)
PROBLEMS = ("SN", "SD")
# (domain, h) with one 4-split (L = 1), then with none (L = 0); the
# triangle's longest edge, 2, is below the 2.236 diagonal of its bounding
# box, which triangulate reads as the diameter, so it has an L = 0 mesh too
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
    for name, h in [(name, h) for name in DOMAINS for h in STEPS] + list(SHALLOW):
        for problem in PROBLEMS:
            mesh = fem.triangulate(DOMAINS[name], h)
            for route, m in (("dtn_matrices", mesh),
                             ("dtn_matrices-copy", dataclasses.replace(mesh))):
                yield from matrices_lines(f"{route}/{name}/{problem}/{h}", m, problem)
    solved = {**DOMAINS, **MOVED}
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


def main() -> int:
    count = 0
    for outputs in (fem_outputs(), cli_outputs()):
        for name, value in outputs:
            print(name, digest(value), flush=True)
            count += 1
    print(f"# {count} outputs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
