"""Where the benchmark's full collections fall: before, between or after
the calibrations that scale its phase times.

Usage: ``python3 tools/gc_slots.py [--workload NAME ...] [--seed N]
[--seconds S]`` (by default every workload in BENCHMARK.json, seed 1,
10 s each).

A phase time is divided by the calibrations just before and after it, so
a generation-2 collection that starts inside one calibration and not its
neighbour moves that phase's reference seconds.  This script writes a
``sitecustomize.py`` into a temporary directory and runs ``bench/run.py``
with that directory first on ``PYTHONPATH``, so every child interpreter
imports it.  The probe appends a callback to ``gc.callbacks`` that, when a
generation-2 collection starts, looks for the ``run_repetition`` frame on
the stack: inside ``calibrate`` the slot is the calibration before
generate, before emit, before verify or after verify; otherwise it is
the phase under way, or "outside-repetition" when none is.  The
repetition's ``out["mem"]`` marks, one per finished phase, tell the slots
apart.  Only the measured ("run") children are counted.

Nothing under ``bench/`` changes and no ``gc`` function is called; the
package and the tests do not import this script.  It goes once the bench
runs ``gc.collect()`` before each calibration.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''\
import atexit, gc, json, os, sys

_CALIBRATIONS = ("cal-before-generate", "cal-before-emit",
                 "cal-before-verify", "cal-after-verify")
_PHASES = ("generate", "emit", "verify", "after-verify")
_slots = {}


def _slot():
    in_calibration = False
    frame = sys._getframe(2)
    while frame is not None:
        name = frame.f_code.co_name
        if name == "calibrate":
            in_calibration = True
        elif name == "run_repetition":
            done = len(frame.f_locals.get("out", {}).get("mem", ()))
            return (_CALIBRATIONS if in_calibration else _PHASES)[done]
        frame = frame.f_back
    return "outside-repetition"


def _probe(phase, info):
    if phase == "start" and info["generation"] == 2:
        slot = _slot()
        _slots[slot] = _slots.get(slot, 0) + 1


def _report():
    if not sys.argv[0].endswith("child.py") or len(sys.argv) < 2:
        return
    if json.loads(sys.argv[1]).get("mode") != "run":
        return
    with open(os.environ["GC_SLOTS_LOG"], "a") as fh:
        fh.write(json.dumps(_slots) + "\\n")


gc.callbacks.append(_probe)
atexit.register(_report)
'''

ORDER = ("outside-repetition", "cal-before-generate", "generate",
         "cal-before-emit", "emit", "cal-before-verify", "verify",
         "cal-after-verify", "after-verify")


def main(argv: list[str] | None = None) -> int:
    workloads = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as probe_dir:
        Path(probe_dir, "sitecustomize.py").write_text(PROBE)
        log = Path(probe_dir, "slots.jsonl")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, GC_SLOTS_LOG=str(log), PYTHONPATH=probe_dir
                   + (os.pathsep + path if path else ""))
        for workload in args.workload or workloads:
            log.write_text("")
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            reps = [json.loads(line) for line in log.read_text().splitlines()]
            total = sum(map(Counter, reps), Counter())
            slots = ", ".join(f"{slot} {total[slot]}" for slot in ORDER
                              if total[slot])
            print(f"{workload}: {len(reps)} repetitions; generation-2 "
                  f"collections started: {slots or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
