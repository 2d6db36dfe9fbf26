"""Alternating A/B runs of the benchmark: a parent checkout against a change.

Usage: ``python3 tools/ab.py PARENT CHANGE [--workload NAME ...]
[--pairs N] [--seconds S] [--seed N]`` (by default every workload in
BENCHMARK.json, 10 pairs, its ``run_seconds`` per run, first seed 1).

Pair k runs ``bench/run.py --workload NAME --seed SEED+k --seconds S
--trace 0`` once in each checkout, the parent first when k is even and the
change first when k is odd, and reads the last line each run prints, its
JSON result.  For each end-to-end metric in BENCHMARK.json it then prints
both medians, the spread between the quartiles of the parent's runs, how
many pairs the change won and tied, and whether the change's median is
worse than the parent's by no more than the metric's bound.  It also
prints how many runs of each side were correct and how many of their
operations failed.

Each checkout should be a fresh copy of the files (``git archive``), as
``bench/run.py`` writes its records under the checkout's own
``bench/results/``; this repository's own directory is refused, so nothing
is written under its ``bench/``.  The package and the tests do not import
this script.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one ``bench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}\n"
                         + proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    """The distance between the first and third quartiles of ``values``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def report(workload: str, metrics: list[dict], parent: list[dict],
           change: list[dict]) -> None:
    print(f"{workload}: {len(parent)} pairs")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum(y < x if lower else y > x for x, y in zip(a, b))
        ties = sum(y == x for x, y in zip(a, b))
        ma, mb = median(a), median(b)
        rel = (mb - ma) / ma if ma else 0.0
        verdict = "within" if (rel if lower else -rel) <= m["bound"] else "OUTSIDE"
        print(f"  {name}: parent {ma:.6g}, change {mb:.6g} {m['unit']} "
              f"({rel:+.1%}); parent quartile spread {spread(a):.3g}; "
              f"change wins {wins}, ties {ties}; {verdict} its bound "
              f"{m['bound']:.0%}")
    for side, runs in (("parent", parent), ("change", change)):
        print(f"  {side}: {sum(r['correct'] for r in runs)} of {len(runs)} "
              f"runs correct; {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", choices=workloads)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.parent.resolve() == args.change.resolve():
        p.error("the parent and the change are one directory")
    for checkout in (args.parent, args.change):
        if checkout.resolve() == ROOT:
            p.error(f"{checkout} is this repository; give a fresh copy")
        if not (checkout / "bench" / "run.py").is_file():
            p.error(f"{checkout} has no bench/run.py")
    for workload in args.workload or workloads:
        runs: dict[Path, list[dict]] = {args.parent: [], args.change: []}
        for k in range(args.pairs):
            order = list(runs) if k % 2 == 0 else list(runs)[::-1]
            for checkout in order:
                runs[checkout].append(
                    run(checkout, workload, args.seed + k, args.seconds))
            print(f"# {workload} pair {k + 1} of {args.pairs} done",
                  file=sys.stderr, flush=True)
        report(workload, bench["end_to_end"], runs[args.parent],
               runs[args.change])
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
