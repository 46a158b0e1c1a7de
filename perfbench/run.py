"""Benchmark of the steklov package: certified FEM and bound sweeps.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fem-certified --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src`` directory.  Each run
times a few cold set-ups in child interpreters, builds its inputs from the
seed, and repeats whole passes over the workload's operations for about
``--seconds`` (closed loop, one operation in flight).  ``--trace 1`` instead
runs one untraced and one traced pass and reports per-layer numbers.  The
last line of stdout is the JSON result; the line before it is the run record.
``--smoke`` shrinks every input so that all workloads finish in seconds.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREADS = 1
THREAD_VARS = ("STEKLOV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 3
STARTUP_RUNS = 3

# pin BLAS/OpenMP threads before numpy is first imported (by workloads)
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

from speed import SpeedProbe
from tracing import Tracer
from workloads import (CLI_LABELS, ROOT, WORKLOADS, BoundsDirect, BoundsLift, Outcome,
                       child_env, cli_probes, run_child)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit; a traced run reports all of
    them, 0 for a layer its workload does not call."""
    units = {f"fem.{k}_s": "s" for k in ("triangulate", "validate_mesh", "mesh_self",
                                         "assemble", "dtn_matrices",
                                         "condense_self", "eigh")}
    units.update({f"fem.{k}": "count" for k in ("nodes", "triangles",
                                                "surface_unknowns", "nnz_K")})
    units["fem.rel_err_max"] = "1"
    units["bounds.certified_z"] = "1"
    for label in BoundsLift.LABELS + BoundsDirect.LABELS:
        units[f"bounds.verify.{label}_s"] = "s"
    for label in BoundsLift.LABELS + tuple(f"{b}.g1" for b in BoundsDirect.Z_AXIS):
        units[f"riesz.riesz_mean_grid.{label}_s"] = "s"
    units["bounds.lift_pts_per_s"] = "1/s"
    units["bounds.direct_pts_per_s"] = "1/s"
    units["riesz.riesz_iterate_s"] = "s"
    units["asymptotics.fit_second_term_s"] = "s"
    units.update({"cli.interp_s": "s", "cli.import_s": "s",
                  "cli.import.scipy_integrate_s": "s"})
    units.update({f"cli.{kind}.{label}_s": "s" for kind in ("cold", "main")
                  for label in CLI_LABELS})
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def run_op(op):
    """(value, seconds in the library call, Outcome); an exception in the
    call or in the check is a failed operation."""
    t0 = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:
        return None, time.perf_counter() - t0, Outcome([f"{op.name}: {exc!r}"])
    seconds = time.perf_counter() - t0
    try:
        return value, seconds, op.check(value)
    except Exception as exc:
        return value, seconds, Outcome([f"{op.name}: check raised {exc!r}"])


def timed_passes(workload, seconds: float, probe=None):
    """Whole passes for about ``seconds``: at least one, and another only
    while at least half of it fits.  A ``SpeedProbe`` samples the speed at
    the start, between operations and at the end.  Returns
    [(name, latency, outcome)] and the summed call time of each pass."""
    results, passes, walls, first = [], [], [], {}
    begin = time.perf_counter()
    if probe:
        probe.sample()
    while True:
        start = time.perf_counter()
        busy = 0.0
        for op in workload.pass_ops():
            _, latency, outcome = run_op(op)
            if first.setdefault(op.name, outcome.fingerprint) != outcome.fingerprint:
                outcome.problems.append(f"{op.name}: output differs from the first pass")
            results.append((op.name, latency, outcome))
            busy += latency
            if probe:
                probe.worked(latency)
        passes.append(busy)
        walls.append(time.perf_counter() - start)
        if time.perf_counter() - begin + 0.5 * statistics.median(walls) > seconds:
            if probe:
                probe.sample()
            return results, passes


def tail(latencies: list):
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return None
    i = len(xs) - 11
    return {"percentile": round(100.0 * (i + 1) / len(xs), 1), "n": len(xs),
            "value": xs[i]}


def setup_seconds(args) -> list:
    """Cold set-ups: interpreter start, import and input building, each in a
    fresh child, one at a time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_RUNS):
        child = run_child(argv, ROOT, child_env())
        if child.returncode != 0:
            raise RuntimeError("set-up child failed:\n" + child.stderr.decode()[-2000:])
        times.append(child.seconds)
    return times


def startup_probes(tracer, workdir: Path) -> dict:
    """Interpreter start, a cold ``import steklov.cli`` and the share of
    ``scipy.integrate`` in it (from ``-X importtime``); medians of 3."""
    env = child_env()
    py = sys.executable
    timing = ("import time; t = time.perf_counter(); import steklov.cli; "
              "print(time.perf_counter() - t)")
    interp, imports, integrate = [], [], []
    for _ in range(STARTUP_RUNS):
        with tracer.span("cli.interp", probe=True):
            interp.append(run_child([py, "-c", "pass"], workdir, env).seconds)
        with tracer.span("cli.import", probe=True):
            child = run_child([py, "-c", timing], workdir, env)
        imports.append(float(child.stdout.decode().strip()))
        child = run_child([py, "-X", "importtime", "-c", "import steklov.cli"],
                            workdir, env)
        integrate.append(_importtime_cumulative(child.stderr.decode(), "scipy.integrate"))
    return {"cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports),
            "cli.import.scipy_integrate_s": statistics.median(integrate)}


def _importtime_cumulative(text: str, module: str) -> float:
    """Cumulative import time of ``module`` in seconds, 0 if not imported."""
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(workload, args):
    probe = SpeedProbe() if workload.rescale else None
    results, passes = timed_passes(workload, args.seconds, probe)
    outcomes = [o for _, _, o in results]
    failed = sum(1 for o in outcomes if o.problems)
    latencies = [lat for _, lat, _ in results]
    by_op: dict = {}
    for name, latency, _ in results:
        by_op.setdefault(name, []).append(latency)
    raw_wall = statistics.fmean(passes)
    scale = probe.scale() if probe else 1.0
    metrics = {
        "wall_s": raw_wall * scale,
        "peak_rss_mb": workload.peak_rss_mb(),
        "ok_frac": 1.0 - failed / len(outcomes),
    }
    record = {"passes": len(passes), "operations": len(results),
              "pass_s": [round(p, 4) for p in passes], "op_tail_s": tail(latencies),
              "op_median_s": {k: statistics.median(v) for k, v in by_op.items()},
              "raw_wall_s": raw_wall,
              "speed": probe.record() if probe else {"rescaled": False}}
    return metrics, outcomes, record


def traced_run(workload, args, workdir: Path):
    reference, outcomes = {}, []
    for op in workload.pass_ops():
        value, latency, outcome = run_op(op)
        reference[op.name] = (value, outcome, latency)
        outcomes.append(outcome)
    untraced_wall = sum(lat for _, _, lat in reference.values())

    tracer = Tracer()
    try:
        metrics, traced = workload.traced_pass(tracer, reference)
    except Exception as exc:    # e.g. an operation whose untraced run failed
        metrics, traced = {}, [Outcome([f"traced pass: {exc!r}"])]
    metrics["trace.overhead_s"] = tracer.wall() - untraced_wall
    metrics.update(startup_probes(tracer, workdir))
    cli_metrics, cli_outcomes = cli_probes(tracer, args.seed, workdir)
    metrics.update(cli_metrics)
    outcomes += traced + cli_outcomes

    units = per_layer_units()
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from the catalogue: {sorted(unknown)}")
    metrics = {name: metrics.get(name, 0) for name in units}
    out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(out)
    return metrics, outcomes, {"spans": str(out.relative_to(ROOT)),
                               "untraced_wall_s": untraced_wall}


# ---------------------------------------------------------------------------

def run_record(args, extra: dict) -> dict:
    import numpy
    import scipy
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "smoke": args.smoke,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "blas": blas, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": commit, **extra,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for checking that every metric is emitted")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "steklov" / "__init__.py").is_file():
        print(f"perfbench: no steklov package under {ROOT / 'src'}; run from the "
              "root of a steklov checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cls = WORKLOADS[args.workload]

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base, prefix=f"{args.workload}-"))
    try:
        if args.setup_child:
            cls(args.seed, args.smoke, workdir)
            return 0
        setups = setup_seconds(args)
        workload = cls(args.seed, args.smoke, workdir)
        if args.trace:
            metrics, outcomes, extra = traced_run(workload, args, workdir)
            units = per_layer_units()
        else:
            metrics, outcomes, extra = timed_run(workload, args)
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END
        extra["setup_samples_s"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.problems]
    for o in failed[:20]:
        print("perfbench: FAILED " + "; ".join(o.problems), file=sys.stderr)
    print("# run " + json.dumps(run_record(args, extra)))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
