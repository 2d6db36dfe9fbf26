"""phyloinv benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one client: each repetition is a
fresh ``python3 bench/child.py`` interpreter (set-up, generate, emit,
verify), started only after the previous one has exited, while another
one is expected to end within ``S`` seconds (at least ``MIN_REPS``
repetitions).  A few extra
children stop after set-up, so that ``setup_s`` is a median of several
samples.  With ``--trace 1`` traced and untraced repetitions alternate,
and the per-layer metrics come from the traced ones.

Prints a human-readable report and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Writes the full
record, with the environment, to ``bench/results/``.  Exits with code 2,
printing no result, when the checkout has no ``src/phyloinv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3            # untraced repetitions per run (trace runs: 1 each)
SETUP_ONLY_SPAWNS = 10  # extra set-up samples per run
BUDGET_S = 150          # no repetition may be planned to end later than this

# Times are reported in reference seconds: wall seconds scaled by
# CAL_REF_S over the time child.calibrate() takes around them in the same
# child, so that drift in the host's speed cancels (see child.calibrate).
CAL_REF_S = 0.020
TIME_KEYS = ("setup_s", "generate_s", "emit_s", "verify_s")

END_TO_END_UNITS = {
    "setup_s": "s", "generate_s": "s", "emit_s": "s", "verify_s": "s",
    "total_s": "s", "binomials_per_s": "1/s", "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one child interpreter to completion and return its result."""
    job = dict(job, src=str(SRC), t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"child timed out: {job['mode']} rep {job['rep']}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"child exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def to_reference(r: dict) -> dict:
    """Scale a child's times to reference seconds; keep the wall times.

    A full repetition has four calibration times, taken before generate,
    before emit, before verify and after verify: each phase is scaled by
    the mean of the two around it, set-up by the first.  Set-up-only
    children and per-layer times use the median of all.
    """
    cal = r["calibration_s"]
    overall = CAL_REF_S / median(cal)
    scale = dict.fromkeys(TIME_KEYS, overall)
    if len(cal) == 4:
        scale.update(setup_s=CAL_REF_S / cal[0],
                     generate_s=2 * CAL_REF_S / (cal[0] + cal[1]),
                     emit_s=2 * CAL_REF_S / (cal[1] + cal[2]),
                     verify_s=2 * CAL_REF_S / (cal[2] + cal[3]))
    r["speed_scale"] = overall
    r["wall_s"] = {k: r[k] for k in TIME_KEYS if k in r}
    for k in r["wall_s"]:
        r[k] *= scale[k]
    for k in r.get("trace", {}):
        if k.endswith("_s"):
            r["trace"][k] *= overall
    return r


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(),
    }


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    totals = [r["generate_s"] + r["emit_s"] + r["verify_s"] for r in reps]
    return {
        "setup_s": median(setups),
        "generate_s": median([r["generate_s"] for r in reps]),
        "emit_s": median([r["emit_s"] for r in reps]),
        "verify_s": median([r["verify_s"] for r in reps]),
        "total_s": median(totals),
        "binomials_per_s": median([r["verified_binomials"] / t
                                   for r, t in zip(reps, totals)]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Median per-layer metrics of the traced repetitions, and the list of
    self-check failures (empty when the trace is consistent)."""
    problems: list[str] = []
    layers = [r["trace"] for r in traced]
    metrics = {}
    for key in layers[0]:
        vals = [t[key] for t in layers]
        if isinstance(vals[0], int):
            if len(set(vals)) != 1:
                problems.append(f"count {key} differs between repetitions: {vals}")
            metrics[key] = median_low(vals)
        else:
            metrics[key] = median(vals)
    for r in traced:
        t = r["trace"]
        want = r["verify_calls"] * 2 * r["n_flows"]
        if t["oracle.flows_enumerated"] != want:
            problems.append(f"oracle.flows_enumerated {t['oracle.flows_enumerated']}"
                            f" != 2*g^(l-1) per verify = {want}")
        if t["pipeline.edge_quadrics"] != r["join_quadrics"]:
            problems.append(f"pipeline.edge_quadrics {t['pipeline.edge_quadrics']}"
                            f" != sum of join_log family_quadric {r['join_quadrics']}")
    if any(r["hashes"] != u["hashes"] for r in traced for u in untraced):
        problems.append("traced output hashes differ from untraced ones")
    total = lambda r: r["generate_s"] + r["emit_s"] + r["verify_s"]  # noqa: E731
    metrics["trace.overhead_ratio"] = (median([total(r) for r in traced])
                                       / median([total(r) for r in untraced]))
    return metrics, problems


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_binomial")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind through spawn() so that the running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "phyloinv" / "__init__.py").is_file():
        print(f"error: no phyloinv package under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + 175
    env = environment()
    base = {"workload": args.workload, "seed": args.seed}
    setups: list[float] = []
    reps: list[dict] = []
    try:
        spawn(dict(base, mode="setup", rep=-1), deadline)  # warm the .pyc cache
        modes = ["run", "trace"] if args.trace else ["run"]
        min_reps = 1 if args.trace else MIN_REPS
        longest = 0.0
        while True:
            # start another repetition only if it should end within --seconds
            elapsed = time.monotonic() - start
            done = len(reps) >= min_reps * len(modes)
            if ((done and elapsed + longest > args.seconds)
                    or (reps and elapsed + longest > BUDGET_S)):
                break
            k = len(reps)
            job = dict(base, mode=modes[k % len(modes)], rep=k)
            if job["mode"] == "trace":
                RESULTS.mkdir(exist_ok=True)
                job["spans_path"] = str(
                    RESULTS / f"{args.workload}-seed{args.seed}-rep{k}.spans.jsonl.gz")
            t0 = time.monotonic()
            r = to_reference(spawn(job, deadline))
            longest = max(longest, time.monotonic() - t0)
            r["mode"] = job["mode"]
            reps.append(r)
            setups.append(r["setup_s"])
        for k in range(SETUP_ONLY_SPAWNS):
            setups.append(to_reference(spawn(
                dict(base, mode="setup", rep=-2 - k), deadline))["setup_s"])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    env["loadavg_end"] = list(os.getloadavg())

    ops = [op for r in reps for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failed if not op["known_defect"]]
    untraced = [r for r in reps if r["mode"] == "run"]
    problems: list[str] = []
    if args.trace:
        metrics, problems = per_layer(
            untraced, [r for r in reps if r["mode"] == "trace"])
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = end_to_end(untraced, setups)
        units = END_TO_END_UNITS
    correct = not unexpected and not problems

    print(f"# phyloinv benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; closed loop, 1 client")
    print(f"# env: {json.dumps(env)}")
    for k, r in enumerate(reps):
        n_ok = sum(op["ok"] for op in r["ops"])
        wall = r["wall_s"]
        print(f"rep {k} [{r['mode']}]: wall setup {wall['setup_s']:.4f} s, "
              f"generate {wall['generate_s']:.4f} s, emit {wall['emit_s']:.4f} s, "
              f"verify {wall['verify_s']:.4f} s; speed scale "
              f"{r['speed_scale']:.3f}; peak {r['peak_rss_mb']:.1f} MB, "
              f"ops {n_ok}/{len(r['ops'])} ok")
    print(f"# medians over {len(untraced)} untraced repetitions, "
          f"{len(setups)} set-up samples; times in reference seconds")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    share = len(failed) / len(ops) if ops else 0.0
    print(f"failed_op_share = {share:.6g} ratio ({len(failed)} of {len(ops)} "
          f"operations failed)")
    for op in failed:
        tag = f"known defect, {op['known_defect']}" if op["known_defect"] else "FAILED"
        print(f"# {tag}: {op['name']}: {op['detail']}")
    for msg in problems:
        print(f"# trace self-check FAILED: {msg}")

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setups_s": setups, "repetitions": reps, "problems": problems,
              "metrics": metrics}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
