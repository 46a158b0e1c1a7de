"""The benchmark's workloads.

Each workload class builds its inputs from the seed in ``__init__`` (this is
the set-up that ``setup_s`` times), lists one pass of operations in
``pass_ops`` and, in ``traced_pass``, repeats that pass with a span around
every call into a library module.  An operation is timed around ``call``
only; ``check`` then turns the result into problems (empty when correct), a
fingerprint that must repeat bit for bit, and values for the metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent   # the checkout being measured


def digest(output: bytes) -> bytes:
    return hashlib.sha256(output).digest()


@dataclass
class Outcome:
    """Problems found (empty when correct), the output that must repeat bit
    for bit, and values for the metrics."""

    problems: list
    fingerprint: bytes = b""
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        # keep a digest only, so memory does not grow with the number of passes
        self.fingerprint = digest(self.fingerprint)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


def stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal-width bins over [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1] + rng.random(n) * np.diff(edges)


def stratified_ints(rng, lo: int, hi: int, n: int) -> np.ndarray:
    """One integer in each of n equal-width bins over [lo, hi]; needs
    n <= (hi - lo + 1) / 2 so that every bin holds an integer."""
    edges = np.floor(np.linspace(lo, hi + 1, n + 1)).astype(int)
    return np.array([rng.integers(a, b) for a, b in zip(edges[:-1], edges[1:])])


def _no_span(name, **attrs):
    return nullcontext()


def _report_problems(rep) -> list:
    """Every report here is expected to hold outright, with no violations
    and every hypothesis the bound needs confirmed."""
    problems = []
    if rep.status != "holds":
        problems.append(f"{rep.bound_id}: status {rep.status!r}, expected 'holds'")
    if rep.violations:
        problems.append(f"{rep.bound_id}: {len(rep.violations)} violation(s), "
                        f"first {rep.violations[0]}")
    return problems


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _report_outcome(rep) -> Outcome:
    return Outcome(_report_problems(rep), _json_bytes(rep.to_dict()),
                   {"points": int(np.size(rep.axis))})


def _same(outcome: Outcome, reference: Outcome, what: str) -> Outcome:
    if outcome.fingerprint != reference.fingerprint:
        outcome.problems.append(f"{what}: traced result differs from the untraced one")
    return outcome


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    """The environment for child interpreters: the package from the
    checkout's ``src`` first, thread pins inherited from this process."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, cwd: Path, env: dict, timeout: float = 150.0) -> Child:
    """Run one child to completion; wall time from spawn to exit.  Output
    goes through files under ``cwd``."""
    with tempfile.TemporaryFile(dir=cwd) as out, \
            tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(seconds, proc.returncode, out.read(), err.read())


class Workload:
    """Defaults shared by the workloads."""

    name: str
    # Rescale times to the reference speed (speed.py).  Only where speed
    # samples can be taken between operations of under a second or so.
    rescale = True

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# fem-certified
# ---------------------------------------------------------------------------

class FemCertified(Workload):
    """README quick-start certified triangle solve, then ``verify`` and the
    second-term fit on it; an SD rectangle solve against its closed form."""

    name = "fem-certified"
    # A 22 s solve: samples around it do not track the speed during it, and
    # rescaling made the spread over seeds wider, not narrower.
    rescale = False
    SIZES = {
        False: {"tri_count": 80, "tri_h": 0.01, "z_max": 120.0, "z_points": 300,
                "window": (30.0, 120.0), "rect_count": 40, "rect_h": 0.02},
        True: {"tri_count": 24, "tri_h": 0.05, "z_max": 35.0, "z_points": 40,
               "window": (8.0, 35.0), "rect_count": 10, "rect_h": 0.1},
    }

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from steklov import geometry, spectra
        self.size = self.SIZES[smoke]
        rng = np.random.default_rng(seed)
        self.triangle = geometry.isoceles_triangle_domain(2.0, math.pi / 4)
        self.rectangle = geometry.rectangle_domain(math.pi, 1.0)
        self.exact = spectra.rectangle_sd(math.pi, 1.0, self.size["rect_count"]).values
        self.z = stratified(rng, 1.0, self.size["z_max"], self.size["z_points"])

    def pass_ops(self) -> list:
        return [Op("triangle-sn", self.solve_triangle, self.check_triangle),
                Op("rectangle-sd", self.solve_rectangle, self.check_rectangle)]

    def solve_triangle(self, span=_no_span, solve=None):
        from steklov import asymptotics, bounds, fem
        size = self.size
        solve = solve or fem.dtn_with_error
        s, errs = solve(self.triangle, "SN", size["tri_count"], size["tri_h"])
        with span("bounds.verify", label="triangle"):
            rep = bounds.verify(s, "triangle", self.z, domain=self.triangle,
                                errors=errs)
        with span("asymptotics.fit_second_term"):
            fit = asymptotics.fit_second_term(s, 1.0, size["window"], errors=errs)
        return s, errs, rep, fit

    def check_triangle(self, result) -> Outcome:
        s, errs, rep, fit = result
        problems = _report_problems(rep)
        if len(s) != self.size["tri_count"]:
            problems.append(f"triangle: {len(s)} eigenvalues")
        if not np.all(np.isfinite(errs) & (errs >= 0)):
            problems.append("triangle: certificate not finite and >= 0")
        if not abs(fit.coefficient - 1.0) <= 0.1:
            problems.append(f"triangle: fitted coefficient {fit.coefficient:.4f} "
                            "not within 0.1 of 1")
        # criterion 07's strong certification: margin above the FEM allowance
        propagated = rep.tolerance - 1e-9 * (1.0 + np.abs(rep.bound_values))
        strong = rep.margins >= propagated
        z_star = float(self.z[-1]) if strong.all() else \
            float(self.z[np.argmin(strong) - 1]) if np.argmin(strong) else 0.0
        output = (s.values.tobytes() + errs.tobytes() + _json_bytes(rep.to_dict())
                  + _json_bytes(fit.to_dict()))
        return Outcome(problems, output, {"certified_z": z_star})

    def solve_rectangle(self, solve=None):
        from steklov import fem
        solve = solve or fem.dtn_with_error
        return solve(self.rectangle, "SD", self.size["rect_count"], self.size["rect_h"])

    def check_rectangle(self, result) -> Outcome:
        s, errs = result
        vals, exact = s.values, self.exact
        problems = []
        if vals.shape != exact.shape:
            return Outcome([f"rectangle: {vals.size} eigenvalues"])
        if np.any(vals < exact * (1.0 - 1e-12)):
            problems.append("rectangle: an FEM eigenvalue lies below the exact one")
        if np.any(np.abs(vals - exact) > errs):
            k = int(np.argmax(np.abs(vals - exact) - errs))
            problems.append(f"rectangle: mode {k} error {abs(vals[k] - exact[k]):.3e} "
                            f"exceeds its certificate {errs[k]:.3e}")
        return Outcome(problems, vals.tobytes() + errs.tobytes(),
                       {"rel_err_max": float(np.max(np.abs(vals - exact) / exact))})

    @staticmethod
    def _traced_solver(tracer, template, sizes: dict):
        """A stand-in for ``fem.dtn_with_error`` built from its public steps
        (triangulate, dtn_matrices, eigh on both meshes), with a span each.
        ``validate_mesh`` and ``assemble`` are timed again as probes; the
        largest mesh's sizes go into ``sizes``."""
        import scipy.linalg
        from steklov import fem

        def solve(d, problem, count, target_h):
            levels = []
            for h in (target_h, target_h / 2.0):
                with tracer.span("fem.triangulate", h=h):
                    mesh = fem.triangulate(d, h)
                with tracer.span("fem.validate_mesh", probe=True):
                    fem.validate_mesh(mesh)
                with tracer.span("fem.assemble", probe=True):
                    K, _ = fem.assemble(mesh)
                with tracer.span("fem.dtn_matrices"):
                    pair = fem.dtn_matrices(mesh, problem)
                with tracer.span("fem.eigh"):
                    vals = scipy.linalg.eigh(pair.S, pair.M_F, eigvals_only=True)[:count]
                if problem == "SN":
                    vals = np.maximum(vals, 0.0)
                levels.append(vals)
                if mesh.nodes.shape[0] > sizes.get("fem.nodes", 0):
                    sizes.update({"fem.nodes": mesh.nodes.shape[0],
                                  "fem.triangles": mesh.triangles.shape[0],
                                  "fem.surface_unknowns": pair.surface_nodes.size,
                                  "fem.nnz_K": K.nnz})
            return (dataclasses.replace(template, values=levels[1]),
                    np.abs(levels[0] - levels[1]))
        return solve

    def traced_pass(self, tracer, reference: dict):
        """The decomposed solves must reproduce the untraced
        ``dtn_with_error`` results, and the reports built on them, bit for
        bit."""
        sizes: dict = {}
        outcomes = []
        solver = self._traced_solver(tracer, reference["triangle-sn"][0][0], sizes)
        with tracer.span("op", op="triangle-sn"):
            tri = self.solve_triangle(tracer.span, solver)
        outcomes.append(_same(self.check_triangle(tri), reference["triangle-sn"][1],
                              "triangle-sn"))
        solver = self._traced_solver(tracer, reference["rectangle-sd"][0][0], sizes)
        with tracer.span("op", op="rectangle-sd"):
            rect = self.solve_rectangle(solver)
        outcomes.append(_same(self.check_rectangle(rect), reference["rectangle-sd"][1],
                              "rectangle-sd"))

        t = {k: tracer.seconds("fem." + k) for k in
             ("triangulate", "validate_mesh", "assemble", "dtn_matrices", "eigh")}
        metrics = {
            "fem.triangulate_s": t["triangulate"],
            "fem.validate_mesh_s": t["validate_mesh"],
            "fem.mesh_self_s": t["triangulate"] - t["validate_mesh"],
            "fem.assemble_s": t["assemble"],
            "fem.dtn_matrices_s": t["dtn_matrices"],
            "fem.condense_self_s": t["dtn_matrices"] - t["assemble"],
            "fem.eigh_s": t["eigh"],
            **sizes,
            "fem.rel_err_max": reference["rectangle-sd"][1].info["rel_err_max"],
            "bounds.certified_z": reference["triangle-sn"][1].info["certified_z"],
            "bounds.verify.triangle.g1_s": tracer.seconds("bounds.verify"),
            "asymptotics.fit_second_term_s":
                tracer.seconds("asymptotics.fit_second_term"),
        }
        return metrics, outcomes


# ---------------------------------------------------------------------------
# bounds-lift and bounds-direct
# ---------------------------------------------------------------------------

@dataclass
class VerifyCase:
    label: str                     # used in metric names
    spectrum: Any
    bound_id: str
    grid: np.ndarray
    gamma: float = 1.0
    kwargs: dict = field(default_factory=dict)
    observed_gamma: Optional[float] = None   # Riesz exponent of the observed side


def _exact_inputs(modes: int) -> dict:
    from steklov import geometry, spectra
    from steklov.geometry import CylinderDomain, RectangleBase
    box = CylinderDomain(3, RectangleBase(math.pi, math.pi), 1.0)
    return {
        "SN": spectra.rectangle_sn(math.pi, 1.0, modes),
        "SD": spectra.rectangle_sd(math.pi, 1.0, modes),
        "box": box,
        "box_SN": spectra.cylinder_spectrum(box, "SN", modes),
        "rectangle": geometry.rectangle_domain(math.pi, 1.0),
        # walls overhang by 60 degrees, so the trapezoid contains the rectangle
        "trapezoid": geometry.trapezoid_domain(math.pi, 2 * math.pi / 3, 1.0),
    }


class _VerifySweep(Workload):
    """Shared machinery: one ``bounds.verify`` operation per case."""

    cases: list

    def _verify_op(self, case: VerifyCase) -> Op:
        from steklov import bounds

        def call():
            return bounds.verify(case.spectrum, case.bound_id, case.grid,
                                 gamma=case.gamma, **case.kwargs)
        return Op(case.label, call, lambda rep: _report_outcome(rep))

    def _traced_verifies(self, tracer, reference: dict):
        """Verify spans per case, plus the observed side (``riesz_mean_grid``
        on the same grid) as a probe; the bound side is their difference."""
        from steklov import bounds, riesz
        metrics, outcomes = {}, []
        for case in self.cases:
            with tracer.span("bounds.verify", label=case.label) as sp:
                rep = bounds.verify(case.spectrum, case.bound_id, case.grid,
                                    gamma=case.gamma, **case.kwargs)
            metrics[f"bounds.verify.{case.label}_s"] = sp["end"] - sp["start"]
            outcomes.append(_same(_report_outcome(rep),
                                  reference[case.label][1], case.label))
            if case.observed_gamma is not None:
                with tracer.span("riesz.riesz_mean_grid", label=case.label,
                                 probe=True) as sp:
                    riesz.riesz_mean_grid(case.spectrum, case.observed_gamma, case.grid)
                metrics[f"riesz.riesz_mean_grid.{case.label}_s"] = sp["end"] - sp["start"]
        return metrics, outcomes

    @staticmethod
    def points_per_second(reference: dict, labels) -> float:
        points = sum(reference[k][1].info["points"] for k in labels)
        return points / sum(reference[k][2] for k in labels)


LIFT_GAMMAS = (1.5, 2.0, 2.5)


class BoundsLift(_VerifySweep):
    """``verify`` at gamma != 1, where the wall term is lifted by quadrature."""

    name = "bounds-lift"
    CASES = ("main-trapezoid", "main-cylinder", "triangle")
    LABELS = tuple(f"{c}.g{g:g}" for c in CASES for g in LIFT_GAMMAS)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        x = _exact_inputs(500 if smoke else 5000)
        n = 4 if smoke else 60
        z_rect = (0.1, 90.0) if smoke else (0.1, 1000.0)
        z_box = (0.1, 20.0) if smoke else (0.1, 75.0)
        setups = {
            "main-trapezoid": (x["SN"], "main", {"domain": x["trapezoid"]}, z_rect),
            "main-cylinder": (x["box_SN"], "main", {"domain": x["box"]}, z_box),
            "triangle": (x["SN"], "triangle", {"domain": x["rectangle"]}, z_rect),
        }
        self.cases = []
        for name in self.CASES:
            spectrum, bound_id, kwargs, (lo, hi) = setups[name]
            for g in LIFT_GAMMAS:
                self.cases.append(VerifyCase(
                    f"{name}.g{g:g}", spectrum, bound_id, stratified(rng, lo, hi, n),
                    gamma=g, kwargs=kwargs, observed_gamma=g))

    def pass_ops(self) -> list:
        return [self._verify_op(c) for c in self.cases]

    def traced_pass(self, tracer, reference: dict):
        metrics, outcomes = self._traced_verifies(tracer, reference)
        metrics["bounds.lift_pts_per_s"] = self.points_per_second(reference, self.LABELS)
        return metrics, outcomes


class BoundsDirect(_VerifySweep):
    """All 13 bound ids at gamma = 1 over the acceptance ranges, plus the
    Riesz iteration and the second-term fits."""

    name = "bounds-direct"
    IDS = ("main", "split", "triangle", "john2d", "johnNd", "via-neumann", "kroger",
           "bracket", "sd-upper", "sd-john2d", "sd-lower2d", "sd-sum", "heat-trace")
    Z_AXIS = ("main", "split", "triangle", "john2d", "johnNd", "via-neumann",
              "sd-upper", "sd-john2d", "sd-lower2d")
    LABELS = tuple(f"{b}.g1" for b in IDS)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from steklov import riesz
        rng = np.random.default_rng(seed)
        modes = 500 if smoke else 5000
        x = self.inputs = _exact_inputs(modes)
        n = 20 if smoke else 2000
        z_top = 90.0 if smoke else 1000.0
        box_top = 20.0 if smoke else 75.0
        rect = {"domain": x["rectangle"]}
        # bound id -> (spectrum, range, keyword arguments); integer ranges are k axes
        plan = {
            "main": ("SN", (0.1, z_top), {"domain": x["trapezoid"]}),
            "split": ("SN", (0.1, z_top), rect),
            "triangle": ("SN", (0.1, z_top), rect),
            "john2d": ("SN", (0.1, z_top), {}),
            "johnNd": ("box_SN", (0.1, box_top), {}),
            "via-neumann": ("box_SN", (0.1, box_top), {"params": {"width": math.pi}}),
            "kroger": ("SN", (1, modes - 2), {}),
            "bracket": ("SN", (1, modes - 2), {}),
            "sd-upper": ("SD", (0.1, z_top), {}),
            "sd-john2d": ("SD", (0.1, z_top), {}),
            "sd-lower2d": ("SD", (1.0, z_top), rect),
            "sd-sum": ("SD", (1, modes - 2), {}),
            "heat-trace": ("SD", (0.1 if smoke else 0.01, 2.0), rect),
        }
        self.cases = []
        for bound_id in self.IDS:
            key, (lo, hi), kwargs = plan[bound_id]
            grid = stratified_ints(rng, lo, hi, n).astype(float) \
                if isinstance(lo, int) else stratified(rng, lo, hi, n)
            self.cases.append(VerifyCase(
                f"{bound_id}.g1", x[key], bound_id, grid, kwargs=kwargs,
                observed_gamma=1.0 if bound_id in self.Z_AXIS else None))
        self.curve = riesz.riesz_curve(x["SN"], 1.0, np.linspace(0.0, 55.0, 300))
        self.lift_z = stratified(rng, 1.0, 55.0, 4 if smoke else 16)
        self.windows = ((20.0, 90.0) if smoke else (100.0, 1000.0))

    def pass_ops(self) -> list:
        return [self._verify_op(c) for c in self.cases] + [
            Op("riesz-iterate", self.iterate, self.check_iterate),
            Op("fit", self.fit, self.check_fit)]

    def iterate(self, span=_no_span):
        from steklov import riesz
        with span("riesz.riesz_iterate"):
            return [riesz.riesz_iterate(self.curve, 1.0, float(z)) for z in self.lift_z]

    def check_iterate(self, lifted) -> Outcome:
        from steklov import riesz
        direct = riesz.riesz_mean_grid(self.inputs["SN"], 2.0, self.lift_z)
        rel = np.abs(np.array(lifted) - direct) / direct
        problems = [] if rel.max() <= 1e-6 else \
            [f"riesz_iterate: relative deviation {rel.max():.2e} from direct R_2 > 1e-6"]
        return Outcome(problems, np.array(lifted).tobytes())

    def fit(self, span=_no_span):
        from steklov import asymptotics
        with span("asymptotics.fit_second_term"):
            return [asymptotics.fit_second_term(self.inputs[p], 1.0, self.windows)
                    for p in ("SN", "SD")]

    def check_fit(self, fits) -> Outcome:
        problems = [f"fit {f.problem}: coefficient {f.coefficient:.6f} not within "
                    f"0.01 of {want}" for f, want in zip(fits, (0.5, -0.5))
                    if not abs(f.coefficient - want) <= 0.01]
        return Outcome(problems, _json_bytes([f.to_dict() for f in fits]))

    def traced_pass(self, tracer, reference: dict):
        metrics, outcomes = self._traced_verifies(tracer, reference)
        outcomes.append(_same(self.check_iterate(self.iterate(tracer.span)),
                              reference["riesz-iterate"][1], "riesz-iterate"))
        outcomes.append(_same(self.check_fit(self.fit(tracer.span)),
                              reference["fit"][1], "fit"))
        metrics["riesz.riesz_iterate_s"] = tracer.seconds("riesz.riesz_iterate")
        metrics["asymptotics.fit_second_term_s"] = \
            tracer.seconds("asymptotics.fit_second_term")
        metrics["bounds.direct_pts_per_s"] = self.points_per_second(reference, self.LABELS)
        return metrics, outcomes


# ---------------------------------------------------------------------------
# the CLI, probed in every traced run
# ---------------------------------------------------------------------------

# label -> (arguments, output format); every call is expected to exit with 0
CLI_CALLS = {
    "spectrum": (["spectrum", "--preset", "rectangle:pi,1", "--problem", "sn",
                  "--count", "50"], "csv"),
    "spectrum_fem": (["spectrum", "--preset", "rectangle:pi,1", "--problem", "sd",
                      "--count", "10", "--fem-h", "0.2"], "csv"),
    "riesz": (["riesz", "--spectrum", "{sn}", "--gamma", "1", "--grid", "0:40:2"],
              "csv"),
    "verify": (["verify", "--spectrum", "{sd}", "--bound", "sd-upper",
                "--grid", "log30(0.5,300)"], "json"),
    "verify_lift": (["verify", "--spectrum", "{sn}", "--bound", "main",
                     "--gamma", "1.5", "--preset", "trapezoid:pi,2pi/3,1",
                     "--grid", "log20(0.5,500)"], "json"),
    "asym": (["asym", "--spectrum", "{sn}", "--gamma", "1", "--window", "20,200"],
             "json"),
}
CLI_LABELS = tuple(CLI_CALLS)
CLI_REPEATS = 3


def cli_probes(tracer, seed: int, workdir: Path):
    """Every subcommand once cold (``python -m steklov``, one child at a time,
    in a seed-chosen order) and three times in process (``steklov.cli.main``
    after a warm import) on spectrum CSVs written here.  Each call must exit
    with 0 and print output that parses; the in-process repeats must print
    the cold output byte for byte.  Returns (metrics, outcomes)."""
    from steklov import cli, spectra
    files = {"sn": workdir / "sn.csv", "sd": workdir / "sd.csv"}
    spectra.save_spectrum(spectra.rectangle_sn(math.pi, 1.0, 800), files["sn"])
    spectra.save_spectrum(spectra.rectangle_sd(math.pi, 1.0, 800), files["sd"])
    argv = {label: [a.format(**{k: str(p) for k, p in files.items()}) for a in args]
            for label, (args, _) in CLI_CALLS.items()}
    env = child_env()
    metrics, outcomes = {}, []
    order = np.random.default_rng(seed).permutation(len(CLI_LABELS))
    for label in (CLI_LABELS[i] for i in order):
        with tracer.span("cli.cold", label=label, probe=True) as sp:
            child = run_child([sys.executable, "-m", "steklov", *argv[label]],
                              workdir, env)
        metrics[f"cli.cold.{label}_s"] = sp["end"] - sp["start"]
        problems = [] if child.returncode == 0 else \
            [f"{label}: exit code {child.returncode}: "
             + child.stderr.decode(errors="replace")[-300:]]
        problems += _parse_problems(label, child.stdout, CLI_CALLS[label][1])
        times = []
        for _ in range(CLI_REPEATS):
            buf = io.StringIO()
            with tracer.span("cli.main", label=label, probe=True) as sp, \
                    redirect_stdout(buf):
                code = cli.main(list(argv[label]))
            times.append(sp["end"] - sp["start"])
            if code != 0:
                problems.append(f"{label}: in-process exit code {code}")
            if buf.getvalue().encode() != child.stdout:
                problems.append(f"{label}: in-process stdout differs from the cold call")
        metrics[f"cli.main.{label}_s"] = float(np.median(times))
        outcomes.append(Outcome(problems, child.stdout))
    return metrics, outcomes


def _parse_problems(label: str, stdout: bytes, fmt: str) -> list:
    text = stdout.decode(errors="replace")
    if not text.strip():
        return [f"{label}: empty stdout"]
    try:
        if fmt == "json":
            json.loads(text)
        else:
            rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
            [float(v) for row in rows[1:] for v in row.split(",")]
            if len(rows) < 2:
                return [f"{label}: CSV without data rows"]
    except ValueError as exc:
        return [f"{label}: output does not parse ({exc})"]
    return []


WORKLOADS = {w.name: w for w in (FemCertified, BoundsLift, BoundsDirect)}
