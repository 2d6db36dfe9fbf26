"""Workload definitions, output pins, and one measured repetition.

Each repetition does what ``phyloinv generate`` / ``phyloinv verify`` do,
through the public library functions: generate the invariant set,
serialize it exactly as the CLI does (``to_json`` + ``json.dumps(indent=2)``
and ``algebra_text``), and certify it with
``verify_complete_intersection`` (CLI default ``with_lattice_info=True``).

Correctness gate: on the fixed workloads the sha256 of the generate JSON,
the algebra text and the verify JSON must equal the pins below (recorded
on the initial commit; refactors keep these outputs byte-identical).  On
``verify-foreign`` the generated set depends on ``--seed``, so the
verifier's verdicts on four sets derived from it are pinned instead.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

VERDICT_FIELDS = ("pass", "count_ok", "kernel_membership_ok", "spans_ok",
                  "degree_bound_ok")


@dataclass(frozen=True)
class Case:
    """A set derived from the seeded output, with the verdict it must get."""

    name: str
    expect: dict
    # Set when the code under test is known to give the wrong verdict; the
    # mismatch still counts as a failed operation.
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    group: str
    newick: str
    mode: str = "direct-cyclic"
    seeded: bool = False
    pins: dict = field(default_factory=dict)
    cases: tuple[Case, ...] = ()


FOREIGN_CASES = (
    Case("seeded", dict(zip(VERDICT_FIELDS, (True, True, True, True, True)))),
    # exponent vector doubled: degree over the bound and span of index 2
    Case("doubled", dict(zip(VERDICT_FIELDS, (False, True, True, False, False)))),
    # one generator missing: count and span rank fall short
    Case("dropped", dict(zip(VERDICT_FIELDS, (False, False, True, False, True)))),
    # an interior-edge coordinate moved on one lhs and one rhs flow: the
    # per-edge projections still agree, but the terms are no flows
    Case("tampered", {"pass": False},
         known_defect="ROADMAP item 2: the verifier reads only leaf values "
                      "and certifies non-flows"),
)

WORKLOADS = {w.name: w for w in (
    Workload("tripod-cyclic", "Z30", "(1,2,3);", pins={
        "generate_json": "71b44a4d9aec2d97f09e7f7983ed3456309cecf11a357a7cd284839d87fe8532",
        "algebra_text": "fed1af4392ccedca2f804586a112521e07555a3b27123cdccc1a36be8afc4c4f",
        "verify_json": "5a01ad4f5d9ef067a2b37224cb1a81cfd604cdfe45b3068a27610525ba4fdfe0",
    }),
    Workload("caterpillar-join", "Z3", "((((((1,2),3),4),5),6),7,8);", pins={
        "generate_json": "55ef5a4ab47cf5c348d23a7991f0e6a67a89e43355d8aeabe4d37d8224933bf1",
        "algebra_text": "433ee1ef565643c01a5515c939b22c452df73b5bea369752bbd942a7234a59e8",
        "verify_json": "252d8f5d87e244e61c5d197845a33ccd4b1e9e437906db75fdb30a2b1d8051c4",
    }),
    Workload("claw-factored", "Z6", "(1,2,3,4,5);", mode="factored", pins={
        "generate_json": "3dcf23dc8283d285f07a25c8525b2c4e326b24c4cb6964535652a1a686247618",
        "algebra_text": "596b701e0552795877d285336ac198de608fb10f7854177373a73781b1835a33",
        "verify_json": "f1b2e9c4eeb1eb59846141fa4aa373525016ac5752ae34ecf309920ceb01e201",
    }),
    # The one interior edge splits this tree into two 4-claws, so the seeded
    # split does the same work for every seed; the seed picks the generators
    # the derived sets alter.
    Workload("verify-foreign", "Z2xZ2", "((1,2,3),(4,5,6));",
             seeded=True, cases=FOREIGN_CASES),
)}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dump(obj) -> str:
    """JSON exactly as ``phyloinv.cli`` writes it."""
    return json.dumps(obj, indent=2) + "\n"


def rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def derived_sets(pi, inv, rng: random.Random) -> dict:
    """The four verify-foreign sets, chosen from ``inv`` with ``rng``."""
    n = len(inv.binomials)
    i = rng.randrange(n)

    def with_binomials(binomials, provenance):
        return pi.InvariantSet(inv.rooted, inv.group, binomials, provenance,
                               inv.join_log)

    b = inv.binomials[i]
    doubled = pi.Binomial(tuple(sorted(b.lhs * 2)), tuple(sorted(b.rhs * 2)))
    sets = {
        "seeded": inv,
        "doubled": with_binomials(
            inv.binomials[:i] + [doubled] + inv.binomials[i + 1:],
            inv.provenance),
        "dropped": with_binomials(
            inv.binomials[:i] + inv.binomials[i + 1:],
            inv.provenance[:i] + inv.provenance[i + 1:]),
    }

    # (binomial, lhs position, rhs position, interior edge) sharing a value
    ell, edges = inv.rooted.leaf_count, inv.rooted.edge_count
    candidates = [
        (k, p, q, ei)
        for k, bk in enumerate(inv.binomials)
        for p, f in enumerate(bk.lhs)
        for q, h in enumerate(bk.rhs)
        for ei in range(ell, edges)
        if f[ei] == h[ei]
    ]
    if not candidates:
        raise ValueError("no lhs/rhs flow pair shares an interior-edge value")
    k, p, q, ei = rng.choice(candidates)
    bk = inv.binomials[k]
    old = bk.lhs[p][ei]
    new = rng.choice([x for x in inv.group.elements if x != old])
    lhs, rhs = list(bk.lhs), list(bk.rhs)
    lhs[p] = lhs[p][:ei] + (new,) + lhs[p][ei + 1:]
    rhs[q] = rhs[q][:ei] + (new,) + rhs[q][ei + 1:]
    tampered = pi.Binomial(tuple(sorted(lhs)), tuple(sorted(rhs)))
    sets["tampered"] = with_binomials(
        inv.binomials[:k] + [tampered] + inv.binomials[k + 1:],
        inv.provenance)
    return sets


def _op(ops: list, name: str, ok: bool, detail: str = "",
        known_defect: str | None = None) -> None:
    ops.append({"name": name, "ok": ok, "detail": detail,
                "known_defect": None if ok else known_defect})


def run_repetition(pi, w: Workload, seed: int, inputs, tracer=None,
                   checkpoint=None) -> dict:
    """One generate -> emit -> verify pass; never raises for a wrong output.

    ``inputs`` is ``(group, tree)`` as parsed in set-up.  ``checkpoint`` is
    called outside the timed regions before generate, before emit, before
    verify and after verify.  Returns phase timings, operation outcomes,
    output hashes and memory high-water marks.
    """
    group, tree = inputs
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    mark = checkpoint or (lambda: None)
    ops: list[dict] = []
    out: dict = {"ops": ops, "hashes": {}, "mem": {}, "generate_s": 0.0,
                 "emit_s": 0.0, "verify_s": 0.0, "verified_binomials": 0}
    opts = pi.GenerateOptions(mode=w.mode, seed=seed if w.seeded else None)

    mark()
    t0 = time.perf_counter()
    try:
        with span("generate"):
            inv = pi.generate(tree, group, opts)
    except Exception as exc:  # record and report; the run goes on
        detail = f"generate raised {type(exc).__name__}: {exc}"
        for _ in range(len(w.pins) or 2 + len(w.cases)):
            _op(ops, "generate", False, detail)
        out.update(generate_s=time.perf_counter() - t0, peak_rss_mb=rss_mb())
        return out
    generate_s = time.perf_counter() - t0
    out["mem"]["after_generate_mb"] = rss_mb()

    mark()
    t0 = time.perf_counter()
    with span("emit"):
        with span("emit.to_json"):
            obj = inv.to_json()
        with span("emit.json_dumps"):
            text_json = dump(obj)
        with span("emit.algebra_text"):
            text_alg = pi.algebra_text(inv)
    emit_s = time.perf_counter() - t0
    out["mem"]["after_emit_mb"] = rss_mb()
    out["hashes"]["generate_json"] = sha256(text_json)
    out["hashes"]["algebra_text"] = sha256(text_alg)
    out["json_bytes"] = len(text_json.encode("utf-8"))
    out["text_bytes"] = len(text_alg.encode("utf-8"))
    out["binomials"] = len(inv)
    out["join_quadrics"] = sum(j["family_quadric"] for j in inv.join_log)

    if w.seeded:
        expected = pi.codim(tree, group)
        _op(ops, "generate", len(inv) == expected,
            f"{len(inv)} binomials, codim {expected}")
        n_lines = text_alg.count("\n")
        _op(ops, "emit", len(obj["invariants"]) == n_lines == len(inv),
            f"{len(obj['invariants'])} JSON entries, {n_lines} text lines")
        sets = derived_sets(pi, inv, random.Random(seed))
    else:
        sets = {"pinned": inv}
    del obj, text_json, text_alg

    mark()
    verify_s = 0.0
    verified = 0
    for case_name, s in sets.items():
        t0 = time.perf_counter()
        try:
            with span("verify"):
                report = pi.verify_complete_intersection(s)
        except Exception as exc:  # record and report; the run goes on
            verify_s += time.perf_counter() - t0
            _op(ops, f"verify:{case_name}", False,
                f"raised {type(exc).__name__}: {exc}")
            continue
        verify_s += time.perf_counter() - t0
        verified += len(s.binomials)
        got = report.to_json()
        out["hashes"][f"verify_json:{case_name}"] = sha256(dump(got))
        if w.seeded:
            case = next(c for c in w.cases if c.name == case_name)
            wrong = {k: got[k] for k, v in case.expect.items() if got[k] != v}
            _op(ops, f"verify:{case_name}", not wrong,
                f"expected {case.expect}, got {wrong}" if wrong else "",
                case.known_defect)
    out["mem"]["after_verify_mb"] = rss_mb()
    mark()

    if not w.seeded:
        got_hashes = {"generate_json": out["hashes"]["generate_json"],
                      "algebra_text": out["hashes"]["algebra_text"],
                      "verify_json": out["hashes"].get("verify_json:pinned")}
        for key, pin in w.pins.items():
            ok = got_hashes[key] == pin
            _op(ops, key, ok,
                "" if ok else f"sha256 {got_hashes[key]} != pin {pin}")

    out.update(generate_s=generate_s, emit_s=emit_s, verify_s=verify_s,
               verified_binomials=verified, peak_rss_mb=rss_mb())
    return out
