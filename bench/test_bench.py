"""Self-tests of the benchmark: ``python3 -m pytest bench -q``.

Most tests run one repetition in-process on a tiny stand-in for each
workload; one runs `run.py` on a real workload, and one runs it in
a directory that holds only the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import phyloinv as pi  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "tripod-cyclic": dict(group="Z5", newick="(1,2,3);"),
    "caterpillar-join": dict(group="Z2", newick="(((1,2),3),4,5);"),
    "claw-factored": dict(group="Z6", newick="(1,2,3,4);"),
    "verify-foreign": dict(group="Z2", newick="((1,2,3),(4,5,6),7);"),
}


def tiny(name: str) -> workloads.Workload:
    """A small stand-in for workload ``name`` with pins recorded from the
    current code (the fixed workloads' real pins come from the seed code)."""
    w = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    if w.seeded:
        return w
    unpinned = dataclasses.replace(w, pins={})
    h = repetition(unpinned)["hashes"]
    return dataclasses.replace(w, pins={
        "generate_json": h["generate_json"],
        "algebra_text": h["algebra_text"],
        "verify_json": h["verify_json:pinned"],
    })


def repetition(w, seed=7, lib=pi, tracer=None) -> dict:
    inputs = (lib.parse_group_spec(w.group), lib.parse_newick(w.newick))
    return workloads.run_repetition(lib, w, seed, inputs, tracer)


def failed_ops(rep: dict) -> list[dict]:
    return [op for op in rep["ops"] if not op["ok"]]


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_every_workload(name):
    w = tiny(name)
    rep = repetition(w)
    assert rep["ops"], "no operation was checked"
    assert all(op["known_defect"] for op in failed_ops(rep)), failed_ops(rep)
    assert rep["generate_s"] > 0 and rep["verify_s"] > 0
    assert rep["verified_binomials"] >= rep["binomials"] > 0
    if w.seeded:
        names = [op["name"] for op in rep["ops"]]
        assert names == ["generate", "emit", "verify:seeded", "verify:doubled",
                         "verify:dropped", "verify:tampered"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_repetition_checks_itself(name):
    w = tiny(name)
    plain = repetition(w)
    tracer = Tracer()
    tracer.install(pi)
    try:
        traced = repetition(w, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced["hashes"] == plain["hashes"]
    summ = tracer.summary()
    layers = child.layer_metrics(summ, tracer.counts, traced)
    n_verify = summ[("verify", "verify_complete_intersection")]["calls"]
    group = pi.parse_group_spec(w.group)
    n_flows = group.order ** (pi.parse_newick(w.newick).leaf_count - 1)
    assert layers["oracle.flows_enumerated"] == 2 * n_flows * n_verify
    assert layers["pipeline.edge_quadrics"] == traced["join_quadrics"]
    assert layers["flows.binomial_check_calls"] > 0
    for name_, rec in summ.items():
        assert rec["self_s"] <= rec["incl_s"] + 1e-9 or rec["incl_s"] == 0, name_


def test_trace_binds_every_lookup_site():
    tracer = Tracer()
    tracer.install(pi)
    try:
        assert pi.pipeline.flow_from_leaves is pi.flows.flow_from_leaves
        assert pi.oracle.det.__wrapped__ is pi.lattice.det.__wrapped__
        for mod, attr in (("flows", "flow_from_leaves"), ("pipeline", "flow_from_leaves"),
                          ("tripod", "flow_from_leaves"), ("oracle", "iter_flows"),
                          ("lattice", "invariant_factors")):
            assert hasattr(getattr(getattr(pi, mod), attr), "__wrapped__"), (mod, attr)
    finally:
        tracer.uninstall()
    assert not hasattr(pi.pipeline.flow_from_leaves, "__wrapped__")
    assert not hasattr(pi.lattice.Echelon.add, "__wrapped__")


def test_pin_check_catches_altered_output():
    w = tiny("claw-factored")
    lib = types.SimpleNamespace(**{k: getattr(pi, k) for k in pi.__all__})
    lib.algebra_text = lambda s: pi.algebra_text(s).replace("x[", "x [", 1)
    rep = repetition(w, lib=lib)
    assert [op["name"] for op in failed_ops(rep)] == ["algebra_text"]
    assert failed_ops(rep)[0]["known_defect"] is None


def test_verdict_check_catches_flipped_verifier():
    w = tiny("verify-foreign")
    lib = types.SimpleNamespace(**{k: getattr(pi, k) for k in pi.__all__})

    def lenient(s, **kw):
        report = pi.verify_complete_intersection(s, **kw)
        return dataclasses.replace(report, count_ok=True)

    lib.verify_complete_intersection = lenient
    rep = repetition(w, lib=lib)
    bad = [op for op in failed_ops(rep) if not op["known_defect"]]
    assert [op["name"] for op in bad] == ["verify:dropped"]


def test_reference_seconds_scale_by_calibration():
    ref = run.CAL_REF_S
    r = {"calibration_s": [0.05, 0.03, 0.04, 0.04], "setup_s": 0.1,
         "generate_s": 2.0, "emit_s": 1.0, "verify_s": 3.0,
         "trace": {"oracle.rank_s": 1.0, "pipeline.joins": 5}}
    run.to_reference(r)
    assert r["wall_s"] == {"setup_s": 0.1, "generate_s": 2.0, "emit_s": 1.0,
                           "verify_s": 3.0}
    assert r["setup_s"] == pytest.approx(0.1 * ref / 0.05)
    assert r["generate_s"] == pytest.approx(2.0 * ref / 0.04)
    assert r["emit_s"] == pytest.approx(1.0 * ref / 0.035)
    assert r["verify_s"] == pytest.approx(3.0 * ref / 0.04)
    assert r["trace"] == {"oracle.rank_s": pytest.approx(ref / 0.04),
                          "pipeline.joins": 5}
    setup_only = run.to_reference({"calibration_s": [0.01, 0.03], "setup_s": 0.1})
    assert setup_only["setup_s"] == pytest.approx(0.1 * ref / 0.02)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    rep = repetition(tiny("claw-factored"))
    layers = child.layer_metrics({}, defaultdict(int), rep)
    names = list(layers) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.unit_of(n) for n in names}


def test_run_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "claw-factored",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 6
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_run_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tripod-cyclic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
