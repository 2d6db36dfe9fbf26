"""Top-level acceptance battery.

Nine numbered criteria, each emitting one ``ACCEPTANCE <n> PASS|FAIL`` line
on the real stdout (bypassing capture) so the run log always shows the
verdicts.  All checks are exact integer comparisons; the only tolerances
are the per-criterion wall-clock budgets.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phyloinv.errors import InvalidTreeError, NewickParseError
from phyloinv.flows import Binomial
from phyloinv.groups import GroupSpec, parse_group_spec
from phyloinv.oracle import codim, flow_total, lattice_report, \
    verify_complete_intersection
from phyloinv.pipeline import InvariantSet, generate
from phyloinv.trees import parse_newick
from phyloinv.tripod import (adm_basis, cyclic_basis, cyclic_basis_matrix,
                             matrix_to_binomial, product_basis)

from dense import (admissible_condition_matrix, degree, dense, flat,
                   kernel_lattice, meets_conditions, sparse, spans)

FLOW_CAP = 10 ** 5

BATTERY_TREES = [
    "(1,2,3);",                    # tripod
    "((1,2),(3,4));",              # quartet
    "((1,2),(3,4),5);",            # 5-leaf trivalent, snowflake
    "(((1,2),3),(4,5));",          # 5-leaf trivalent, caterpillar
    "(1,2,3,4);",                  # 4-claw
    "(1,2,3,4,5);",                # 5-claw
    "((((1,2),3),4),(5,6));",      # 6-leaf caterpillar
]
BATTERY_GROUPS = ["Z2", "Z3", "Z4", "Z5", "Z2xZ2", "Z2xZ3"]


def report(capsys, n: int, ok: bool, detail: str = "") -> None:
    """One verdict line per criterion, outside pytest's capture."""
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    assert ok, f"acceptance criterion {n} failed: {detail}"


def adm_lattice(spec: GroupSpec):
    return kernel_lattice(admissible_condition_matrix(spec))


@dataclass
class BatteryRun:
    instances: list  # (newick, group_text, invariant_set, report)
    skipped: list    # (newick, group_text, n_flows)
    generate_verify_seconds: float
    lattice_seconds: float
    lattice_infos: list


@pytest.fixture(scope="module")
def battery() -> BatteryRun:
    instances, skipped, infos = [], [], []
    t0 = time.monotonic()
    for text in BATTERY_TREES:
        for gtext in BATTERY_GROUPS:
            tree = parse_newick(text)
            group = parse_group_spec(gtext)
            n = flow_total(tree, group)
            if n > FLOW_CAP:
                skipped.append((text, gtext, n))
                continue
            s = generate(tree, group)
            r = verify_complete_intersection(s, flow_cap=FLOW_CAP)
            instances.append((text, gtext, s, r))
    t1 = time.monotonic()
    for text, gtext, s, _ in instances:
        infos.append((text, gtext,
                      lattice_report(s.rooted, s.group, flow_cap=FLOW_CAP)))
    t2 = time.monotonic()
    return BatteryRun(instances, skipped, t1 - t0, t2 - t1, infos)


def test_criterion_1_cyclic_basis(capsys):
    t0 = time.monotonic()
    ok = True
    why = ""
    for g in range(2, 9):
        basis = cyclic_basis(g)
        if len(basis) != (g - 1) * (g - 2):
            ok, why = False, f"count for g={g}"
            break
        for m in basis:
            if not meets_conditions(GroupSpec((g,)), flat(m, g)):
                ok, why = False, f"matrix for g={g}: not admissible"
                break
            if degree(m) > g:
                ok, why = False, f"matrix for g={g}: degree"
                break
        L = adm_lattice(GroupSpec((g,)))
        if L.rank != (g - 1) * (g - 2) or \
                not spans([flat(m, g) for m in basis], L):
            ok, why = False, f"span for g={g}"
        if not ok:
            break
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 5.0:
        ok, why = False, f"took {elapsed:.1f}s"
    report(capsys, 1, ok, why or f"g=2..8 in {elapsed:.2f}s")


# fixed reference values for the six Z4 basis matrices
Z4_MATRICES = {
    (1, 2): ((0, 1, -1, 0), (-1, 0, 1, 0), (1, -1, 0, 0), (0, 0, 0, 0)),
    (1, 3): ((0, 1, 0, -1), (-1, 0, 0, 1), (0, 0, 0, 0), (1, -1, 0, 0)),
    (2, 2): ((0, 1, -1, 0), (-1, 1, 0, 0), (0, -1, 1, 0), (1, -1, 0, 0)),
    (2, 3): ((1, 0, 0, -1), (-1, 1, 0, 0), (-1, 0, 0, 1), (1, -1, 0, 0)),
    (3, 2): ((1, 0, -1, 0), (-1, 1, 0, 0), (0, 0, 0, 0), (0, -1, 1, 0)),
    (3, 3): ((1, 0, 0, -1), (0, 0, 0, 0), (-1, 1, 0, 0), (0, -1, 0, 1)),
}


def test_criterion_2_z4_matrices(capsys):
    t0 = time.monotonic()
    produced = {(i, j): dense(cyclic_basis_matrix(4, i, j), 4)
                for i in range(1, 4) for j in range(2, 4)}
    ok = produced == Z4_MATRICES
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(capsys, 2, ok, f"six matrices, {elapsed:.3f}s")


def test_criterion_3_z3_example(capsys):
    t0 = time.monotonic()
    z3 = GroupSpec((3,))
    entries = ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    pos_side = (((0,), (1,), (2,)), ((1,), (2,), (0,)), ((2,), (0,), (1,)))
    neg_side = (((0,), (2,), (1,)), ((1,), (0,), (2,)), ((2,), (1,), (0,)))
    m = sparse(entries)
    b = matrix_to_binomial(m, z3)
    # the matrix convention puts its positive entries at (0,2),(1,0),(2,1);
    # the reference binomial is the same relation with the sides mirrored,
    # which the negated matrix reproduces verbatim
    ok = degree(m) == 3 and dense(m, 3) == entries
    ok = ok and {b.lhs, b.rhs} == {pos_side, neg_side}
    neg = sparse(tuple(tuple(-x for x in r) for r in entries))
    bn = matrix_to_binomial(neg, z3)
    ok = ok and (bn.lhs, bn.rhs) == (pos_side, neg_side)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(capsys, 3, ok, f"degree-3 relation, {elapsed:.3f}s")


def test_criterion_4_product_bases(capsys):
    t0 = time.monotonic()
    ok = True
    why = ""
    for gf, hf in [((2,), (2,)), ((2,), (3,)), ((3,), (3,)), ((2,), (4,)),
                   ((2, 2), (2,))]:
        gs, hs = GroupSpec(gf), GroupSpec(hf)
        basis = product_basis(gs, hs, adm_basis(gs), adm_basis(hs))
        n = gs.order * hs.order
        bound = max(3, *gf, *hf)
        if len(basis) != (n - 1) * (n - 2):
            ok, why = False, f"count for {gf}x{hf}"
            break
        combined = GroupSpec(gf + hf)
        if any(not meets_conditions(combined, flat(m, n)) or degree(m) > bound
               for m in basis):
            ok, why = False, f"matrix check for {gf}x{hf}"
            break
        L = adm_lattice(combined)
        if not spans([flat(m, n) for m in basis], L):
            ok, why = False, f"span for {gf}x{hf}"
            break
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 30.0:
        ok, why = False, f"took {elapsed:.1f}s"
    report(capsys, 4, ok, why or f"five products in {elapsed:.2f}s")


def test_criterion_5_battery_verification(battery, capsys):
    ok = True
    why = ""
    for text, gtext, s, r in battery.instances:
        if not r.passed:
            ok, why = False, f"{gtext} on {text}: {r.failures[:2]}"
            break
        want = codim(parse_newick(text), parse_group_spec(gtext))
        if len(s) != want:
            ok, why = False, f"{gtext} on {text}: count {len(s)} != {want}"
            break
    with capsys.disabled():
        for text, gtext, n in battery.skipped:
            sys.stdout.write(
                f"ACCEPTANCE 5 SKIP {gtext} on {text}: "
                f"{n} flows over cap {FLOW_CAP}\n")
    if ok and battery.generate_verify_seconds >= 600.0:
        ok, why = False, f"took {battery.generate_verify_seconds:.0f}s"
    n_run = len(battery.instances)
    report(capsys, 5, ok, why or
           f"{n_run} instances in {battery.generate_verify_seconds:.1f}s, "
           f"{len(battery.skipped)} skipped")


def test_criterion_6_join_count_identity(battery, capsys):
    ok = True
    why = ""
    checked = 0
    for text, gtext, s, _ in battery.instances:
        for entry in s.join_log:
            total = entry["family_e1"] + entry["family_e2"] + \
                entry["family_quadric"]
            if total != entry["codim"]:
                ok, why = False, f"{gtext} on {text}: {total} != {entry['codim']}"
                break
            checked += 1
        if not ok:
            break
    report(capsys, 6, ok, why or f"{checked} joins balanced")


def test_criterion_7_lattice_reports(battery, capsys):
    ok = True
    why = ""
    for text, gtext, info in battery.lattice_infos:
        if (info.vertex_diff_dim != info.expected_dim
                or info.index_in_degree_zero != info.expected_index):
            ok, why = False, f"{gtext} on {text}: {info.to_json()}"
            break
    if ok and battery.lattice_seconds >= 120.0:
        ok, why = False, f"took {battery.lattice_seconds:.0f}s"
    report(capsys, 7, ok, why or
           f"{len(battery.lattice_infos)} reports in {battery.lattice_seconds:.1f}s")


def test_criterion_8_negative_controls(capsys):
    t0 = time.monotonic()
    s = generate(parse_newick("((1,2),(3,4));"), GroupSpec((3,)))
    b0 = s.binomials[0]
    doubled = InvariantSet(
        s.rooted, s.group,
        [Binomial(b0.lhs + b0.lhs, b0.rhs + b0.rhs)] + list(s.binomials[1:]),
        list(s.provenance))
    r_doubled = verify_complete_intersection(doubled)
    removed = InvariantSet(s.rooted, s.group, list(s.binomials[1:]),
                           list(s.provenance[1:]))
    r_removed = verify_complete_intersection(removed)
    ok = (not r_doubled.spans_ok and r_doubled.count_ok
          and not r_removed.count_ok and not r_removed.spans_ok)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report(capsys, 8, ok, f"doubled + removed generators, {elapsed:.2f}s")


# -- criterion 9: parser property suite ---------------------------------


@st.composite
def tree_newicks(draw):
    """Random leaf-labelled tree as a Newick string with shuffled children."""
    n = draw(st.integers(3, 12))
    labels = draw(st.permutations(list(range(1, n + 1))))
    items = [str(x) for x in labels]
    while len(items) > 1:
        take = draw(st.integers(2, min(4, len(items))))
        if len(items) - take == 1:  # never leave a single dangling child
            take += 1
        picked, items = items[:take], items[take:]
        items.append("(" + ",".join(picked) + ")")
    body = items[0]
    if not body.startswith("("):
        body = f"({body})"
    return body + ";"


_suite_stats = {"examples": 0}


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree_newicks())
def _roundtrip_property(text):
    t = parse_newick(text)
    again = parse_newick(t.canonical_newick())
    assert again == t
    assert 3 <= t.leaf_count <= 12
    assert all(len(t.neighbors(v)) >= 3 for v in t.interior_nodes)
    _suite_stats["examples"] += 1


def test_criterion_9_parser_suite(capsys):
    t0 = time.monotonic()
    ok = True
    why = ""
    try:
        _roundtrip_property()
    except Exception as exc:  # property failure, reported below
        ok, why = False, f"round-trip: {exc}"

    rejections = [
        ("(1,2,2);", InvalidTreeError),         # duplicate labels
        ("((1),2,3);", NewickParseError),       # valency-2 interior
        ("((1,2));", NewickParseError),         # valency-2 at the top
        ("(1,2,,3);", NewickParseError),        # syntax
        ("(1,2,3)", NewickParseError),          # missing terminator
        ("", NewickParseError),
        ("(1,2);", InvalidTreeError),           # too few leaves
    ]
    if ok:
        for bad, exc_type in rejections:
            try:
                parse_newick(bad)
                ok, why = False, f"{bad!r} accepted"
                break
            except exc_type as exc:
                if isinstance(exc, NewickParseError) and \
                        not isinstance(getattr(exc, "position", None), int):
                    ok, why = False, f"{bad!r}: no error position"
                    break
            except Exception as exc:
                ok, why = False, f"{bad!r}: unexpected {type(exc).__name__}"
                break
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 30.0:
        ok, why = False, f"took {elapsed:.1f}s"
    report(capsys, 9, ok, why or
           f"{_suite_stats['examples']} random trees + rejections in {elapsed:.1f}s")
