"""Interleaved benchmark pairs of a base commit and this checkout.

Run from anywhere inside a steklov git checkout:

    python3 tools/bench_pairs.py BASE [--workload W ...] [--pairs N] [--seconds S]

BASE is any git revision.  Its tree is exported with ``git archive`` into a
temporary directory.  For each of N seeds the script runs
``perfbench/run.py --workload W --seed SEED --seconds S`` once on BASE and
once on this checkout's working tree, one after the other; the side that
runs first alternates from pair to pair.  It writes
``BENCH_<short sha of HEAD>.json`` (into ``--out``, the checkout's root by
default) holding, per workload and metric:

- the unit and the better direction, as ``BENCHMARK.json`` declares them;
- median and quartiles of the base runs and of the head runs;
- the per-pair ratios head / base, their median, and how many pairs the
  head won (strictly better in the metric's direction);

and every run's ``# run`` record and result line verbatim.  It gates
nothing.  ``--smoke`` passes ``--smoke`` to each run (tiny inputs).  An
unknown BASE, or a run that fails, exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1001


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The tree of ``rev`` as files in the new directory ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             smoke: bool) -> dict:
    """One perfbench run in ``tree``: its run record and result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=tree, text=True, capture_output=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("# run "):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return {"record": json.loads(lines[-2][len("# run "):]),
            "result": json.loads(lines[-1])}


def quartiles(xs: list) -> dict:
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summary(runs: list, directions: dict) -> dict:
    """Per metric: both sides' quartiles, the head/base ratios and the
    head's wins, over the pairs in ``runs``."""
    out = {}
    for name, entry in runs[0]["head"]["result"]["metrics"].items():
        base = [r["base"]["result"]["metrics"][name]["value"] for r in runs]
        head = [r["head"]["result"]["metrics"][name]["value"] for r in runs]
        better = directions.get(name, "lower")
        ratios = [h / b if b else None for b, h in zip(base, head)]
        wins = sum((h < b) if better == "lower" else (h > b)
                   for b, h in zip(base, head))
        known = [x for x in ratios if x is not None]
        out[name] = {
            "unit": entry["unit"], "better": better,
            "base": quartiles(base), "head": quartiles(head),
            "ratios": ratios,
            "median_ratio": statistics.median(known) if known else None,
            "wins": wins, "pairs": len(runs),
        }
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", metavar="BASE", help="git revision to compare with")
    p.add_argument("--workload", action="append",
                   help="a workload of BENCHMARK.json (repeatable; default all)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--smoke", action="store_true", help="tiny inputs in each run")
    p.add_argument("--out", type=Path, default=ROOT,
                   help="directory for BENCH_<sha>.json (default: the checkout)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        print(f"bench_pairs: unknown workload {unknown[0]!r}; workloads: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    try:
        base = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
        head = git("rev-parse", "HEAD")
    except subprocess.CalledProcessError:
        print(f"bench_pairs: {args.base!r} is not a commit of this repository",
              file=sys.stderr)
        return 2
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    directions = {m["name"]: m["better"]
                  for m in bench["end_to_end"] + bench["per_layer"]}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    report = {"base": base, "head": head, "head_dirty": dirty,
              "pairs": args.pairs, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        export(base, scratch / "base")
        trees = {"base": scratch / "base", "head": ROOT}
        for workload in workloads:
            runs = []
            for seed in range(FIRST_SEED, FIRST_SEED + args.pairs):
                order = ["base", "head"] if seed % 2 else ["head", "base"]
                pair = {"seed": seed, "order": order}
                for side in order:
                    print(f"bench_pairs: {workload} seed {seed} {side}",
                          file=sys.stderr)
                    pair[side] = run_once(trees[side], workload, seed, seconds,
                                          args.smoke)
                runs.append(pair)
            report["workloads"][workload] = {"metrics": summary(runs, directions),
                                             "runs": runs}
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{head[:7]}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
