"""One repetition in a fresh interpreter, as a CLI invocation would run it.

Usage (from ``run.py``): ``python3 bench/child.py '<json job>'``.  The job
names the checkout's ``src`` directory, the workload, the seed, the
parent's ``time.monotonic()`` just before the spawn, and whether to run
the full repetition, trace it, or stop once set-up is done.  The result,
with the raw phase times and the calibration times measured around them,
is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import phyloinv as pi
    if not os.path.realpath(pi.__file__).startswith(src + os.sep):
        raise ImportError(f"phyloinv imported from {pi.__file__}, not {src}")

    import workloads

    w = workloads.WORKLOADS[job["workload"]]
    tracer = None
    if job["mode"] == "trace":
        from tracer import Tracer
        tracer = Tracer(rep=job["rep"])
        tracer.install(pi)

    group = pi.parse_group_spec(w.group)
    tree = pi.parse_newick(w.newick)
    pi.canonical_rooting(tree)
    setup_s = time.monotonic() - job["t_spawn"]

    out: dict = {"setup_s": setup_s}
    cal: list[float] = []
    checkpoint = lambda: cal.append(calibrate())  # noqa: E731
    if job["mode"] == "setup":
        checkpoint()
        checkpoint()
    else:
        out.update(workloads.run_repetition(pi, w, job["seed"], (group, tree),
                                            tracer, checkpoint))
        # closed form of the flow count, for the trace self-check
        out["n_flows"] = group.order ** (tree.leaf_count - 1)
    out["calibration_s"] = cal
    if tracer is not None:
        tracer.uninstall()
        summ = tracer.summary()
        out["trace"] = layer_metrics(summ, tracer.counts, out)
        out["verify_calls"] = summ.get(
            ("verify", "verify_complete_intersection"), {"calls": 0})["calls"]
        out["bindings"] = {k: sorted(v) for k, v in tracer.bindings.items()}
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(out))
    return 0


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed mix of tuple, dict, sort
    and JSON work, the operations phyloinv spends its time in.

    The host this benchmark was tuned on runs at a speed that drifts by
    up to a third over minutes, as other tenants load the shared cores.
    Dividing a phase time by this figure, measured in the same process
    just before and just after the phase, cancels most of that drift.
    """
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(40000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
    json.dumps(sorted(counts.items()))
    return time.perf_counter() - t0


def layer_metrics(summ: dict, counts: dict, rep: dict) -> dict:
    """Per-layer numbers of one traced repetition, from the tracer's
    per-(phase, name) summary and counters."""

    def rec(phase: str, name: str) -> dict:
        return summ.get((phase, name), {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def incl(phase, name):
        return rec(phase, name)["incl_s"]

    def self_s(phase, name):
        return rec(phase, name)["self_s"]

    def calls(phase, name):
        return rec(phase, name)["calls"]

    g, v = "generate", "verify"
    flow_calls = calls(g, "flow_from_leaves")
    adds = counts["lattice.echelon_add_calls"]
    return {
        "trees.parse_root_s": incl("parse_newick", "parse_newick")
        + incl("canonical_rooting", "canonical_rooting"),
        "trees.decompose_calls": calls(g, "decompose_at_edge"),
        "trees.decompose_s": incl(g, "decompose_at_edge"),
        "tripod.basis_s": incl(g, "adm_basis"),
        "tripod.basis_matrices": calls(g, "matrix_to_binomial"),
        "tripod.to_binomial_s": incl(g, "matrix_to_binomial"),
        "tripod.relabel_s": incl(g, "relabel_matrix"),
        "pipeline.join_sets_self_s": self_s(g, "join_sets"),
        "pipeline.joins": calls(g, "join_sets"),
        "pipeline.edge_quadrics": counts["pipeline.edge_quadrics"],
        "pipeline.claw_set_self_s": self_s(g, "claw_set"),
        "pipeline.claw_quadrics": calls(g, "special_quadric")
        + calls(g, "nonspecial_quadric"),
        "flows.flow_from_leaves_calls": flow_calls,
        "flows.flow_from_leaves_s": incl(g, "flow_from_leaves"),
        "flows.binomial_check_calls": calls(g, "binomial_from_multisets"),
        "flows.binomial_check_s": incl(g, "binomial_from_multisets"),
        "flows.flow_builds_per_binomial": flow_calls / max(rep.get("binomials", 0), 1),
        "oracle.verify_self_s": self_s(v, "verify_complete_intersection"),
        "oracle.rank_s": incl(v, "monomial_matrix_rank"),
        "oracle.lattice_report_s": incl(v, "lattice_report"),
        "oracle.exponent_vector_s": incl(v, "exponent_vector"),
        "oracle.flows_enumerated": counts["iter_flows.yielded"],
        "lattice.echelon_add_calls": adds,
        "lattice.echelon_add_s": incl(v, "Echelon.add"),
        "lattice.echelon_useful_ratio":
            counts["lattice.echelon_rank_raises"] / adds if adds else 0.0,
        "lattice.det_s": incl(v, "det"),
        "lattice.span_cert_s": incl(v, "sparse_span_certificate"),
        "lattice.span_unit_pivots": counts["lattice.span_unit_pivots"],
        "lattice.span_leftover_rows": counts["lattice.span_leftover_rows"],
        "lattice.invariant_factors_s": incl(v, "invariant_factors"),
        "emit.to_json_s": incl("emit", "emit.to_json"),
        "emit.json_dumps_s": incl("emit", "emit.json_dumps"),
        "emit.algebra_text_s": incl("emit", "emit.algebra_text"),
        "emit.json_bytes": rep.get("json_bytes", 0),
        "emit.text_bytes": rep.get("text_bytes", 0),
        "mem.after_generate_mb": rep["mem"].get("after_generate_mb", 0.0),
        "mem.after_emit_mb": rep["mem"].get("after_emit_mb", 0.0),
        "mem.after_verify_mb": rep["mem"].get("after_verify_mb", 0.0),
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
