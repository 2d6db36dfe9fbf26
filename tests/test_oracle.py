"""Certification oracle: kernels, ranks, lattice diagnostics, sabotage."""

import json
from collections.abc import Mapping

import pytest

from phyloinv import oracle
from phyloinv.errors import Cancelled, FlowCapExceeded
from phyloinv.flows import Binomial, enumerate_flows
from phyloinv.groups import GroupSpec, parse_group_spec
from phyloinv.lattice import Echelon
from phyloinv.oracle import (codim, degree_bound, exponent_vector, flow_total,
                             lattice_report, monomial_matrix,
                             monomial_matrix_rank, oracle_kernel,
                             verify_complete_intersection)
from phyloinv.pipeline import InvariantSet, generate
from phyloinv.trees import canonical_rooting, parse_newick

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))


def rooted(text):
    return canonical_rooting(parse_newick(text))


class TestCounting:
    def test_codim_formula_cases(self):
        assert codim(parse_newick("(1,2,3);"), Z3) == 2
        assert codim(parse_newick("(((1,2),3),(4,5));"), Z2) == 8
        assert codim(parse_newick("(1,2,3,4);"), Z3) == 18

    def test_flow_total(self):
        assert flow_total(parse_newick("(1,2,3);"), GroupSpec((2, 3))) == 36

    def test_degree_bound(self):
        assert degree_bound(Z2) == 3
        assert degree_bound(GroupSpec((5,))) == 5
        assert degree_bound(GroupSpec((2, 4))) == 4


class TestMonomialMatrix:
    def test_shape_and_column_weight(self):
        rt = rooted("(1,2,3);")
        A = monomial_matrix(rt, Z3)
        assert len(A) == 3 * 3
        assert all(len(row) == 9 for row in A)
        for col in range(9):
            assert sum(A[r][col] for r in range(9)) == 3  # one 1 per edge

    def test_rank_two_ways(self):
        for text, g in [("(1,2,3);", Z3), ("((1,2),(3,4));", Z2),
                        ("(1,2,3);", GroupSpec((2, 2)))]:
            rt = rooted(text)
            r1 = monomial_matrix_rank(rt, g)
            K = oracle_kernel(rt, g)
            n = g.order ** (rt.leaf_count - 1)
            assert K.rank == n - r1 == codim(rt.tree, g)

    def test_kernel_ranks_known(self):
        assert oracle_kernel(rooted("(1,2,3);"), Z2).rank == 0
        assert oracle_kernel(rooted("((1,2),(3,4));"), Z2).rank == 2
        assert oracle_kernel(rooted("(1,2,3);"), GroupSpec((2, 2))).rank == 6

    def test_cap(self):
        with pytest.raises(FlowCapExceeded):
            monomial_matrix(rooted("((1,2),(3,4));"), Z3, flow_cap=10)


class TestExponentVector:
    def test_simple(self):
        rt = rooted("((1,2),(3,4));")
        s = generate(rt.tree, Z2)
        for b in s.binomials:
            v = exponent_vector(rt, Z2, b)
            assert sum(x for x in v.values() if x > 0) == b.degree
            assert sum(v.values()) == 0

    def test_multiplicity(self):
        rt = rooted("(1,2,3);")
        flows = enumerate_flows(rt, Z3)
        b = Binomial((flows[0], flows[0]), (flows[1], flows[2]))
        v = exponent_vector(rt, Z3, b)
        assert v[0] == 2


class TestLatticeReport:
    @pytest.mark.parametrize("text,factors,dim,index", [
        ("(1,2,3);", (2,), 3, 2),
        ("(1,2,3);", (3,), 6, 3),
        ("((1,2),(3,4));", (2,), 5, 4),
        ("(1,2,3,4);", (2,), 4, 2),
        ("(1,2,3);", (2, 2), 9, 4),
    ])
    def test_known_values(self, text, factors, dim, index):
        info = lattice_report(rooted(text), GroupSpec(factors))
        assert info.vertex_diff_dim == dim == info.expected_dim
        assert info.index_in_degree_zero == index == info.expected_index
        assert info.dim_ok and info.index_ok

    def test_json(self):
        info = lattice_report(rooted("(1,2,3);"), Z3)
        d = info.to_json()
        assert d["index_in_degree_zero"] == 3
        assert d["interior_nodes"] == 1


class TestVerify:
    def test_passes_for_generated(self):
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        r = verify_complete_intersection(s)
        assert r.passed
        assert r.count_ok and r.kernel_membership_ok
        assert r.spans_ok and r.degree_bound_ok
        assert r.failures == []
        assert r.kernel_rank == r.expected_codim == 16

    def test_echelon_sees_only_sparse_vectors(self, monkeypatch):
        seen = []
        real = Echelon.add

        def recording(ech, vec):
            seen.append(vec)
            return real(ech, vec)

        monkeypatch.setattr("phyloinv.lattice.Echelon.add", recording)
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        assert verify_complete_intersection(s).passed
        # one vertex point per flow, one difference per flow but the first
        assert len(seen) == 2 * 27 - 1
        e = s.rooted.edge_count
        for vec in seen:
            assert isinstance(vec, Mapping)
            assert sum(1 for x in vec.values() if x) <= 2 * e

    def test_doubled_generator_breaks_span(self):
        s = generate(parse_newick("((1,2),(3,4));"), Z2)
        b0 = s.binomials[0]
        doubled = Binomial(b0.lhs + b0.lhs, b0.rhs + b0.rhs)
        sab = InvariantSet(s.rooted, s.group, [doubled] + list(s.binomials[1:]),
                           list(s.provenance))
        r = verify_complete_intersection(sab)
        assert r.count_ok
        assert r.kernel_membership_ok
        assert not r.spans_ok
        assert not r.passed
        assert any("sublattice" in msg for msg in r.failures)

    def test_removed_generator_breaks_count_and_span(self):
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        sab = InvariantSet(s.rooted, s.group, list(s.binomials[1:]),
                           list(s.provenance[1:]))
        r = verify_complete_intersection(sab)
        assert not r.count_ok
        assert not r.spans_ok
        assert not r.passed

    def test_foreign_binomial_fails_membership(self):
        s = generate(parse_newick("((1,2),(3,4));"), Z2)
        flows = enumerate_flows(s.rooted, Z2)
        fake = Binomial((flows[0],), (flows[3],))
        sab = InvariantSet(s.rooted, s.group, list(s.binomials[:-1]) + [fake],
                           list(s.provenance))
        r = verify_complete_intersection(sab)
        assert not r.kernel_membership_ok
        assert not r.spans_ok

    def test_degree_bound_flag(self):
        s = generate(parse_newick("((1,2),(3,4));"), Z2)
        b0 = s.binomials[0]
        doubled = Binomial(b0.lhs + b0.lhs, b0.rhs + b0.rhs)  # degree 4 > 3
        sab = InvariantSet(s.rooted, s.group, [doubled] + list(s.binomials[1:]),
                           list(s.provenance))
        r = verify_complete_intersection(sab)
        assert not r.degree_bound_ok

    def test_report_json_shape(self):
        s = generate(parse_newick("(1,2,3);"), Z3)
        d = verify_complete_intersection(s).to_json()
        assert d["pass"] is True
        assert set(d) >= {"count_ok", "kernel_membership_ok", "spans_ok",
                          "degree_bound_ok", "expected_codim", "actual_count",
                          "kernel_rank", "failures", "lattice_info"}
        assert d["lattice_info"]["expected_index"] == 3

    def test_without_lattice_info(self):
        s = generate(parse_newick("(1,2,3);"), Z3)
        r = verify_complete_intersection(s, with_lattice_info=False)
        assert r.lattice_info is None
        assert r.passed

    def test_set_rebuilt_from_json(self):
        # the JSON output has list terms; the verifier reads them as tuples
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        doc = json.loads(json.dumps(s.to_json()))
        rebuilt = InvariantSet(
            s.rooted, s.group,
            [Binomial(inv["lhs"], inv["rhs"]) for inv in doc["invariants"]],
            [inv["provenance"] for inv in doc["invariants"]])
        assert isinstance(rebuilt.binomials[0].lhs[0], list)
        want = verify_complete_intersection(s).to_json()
        assert want["pass"]
        assert verify_complete_intersection(rebuilt).to_json() == want

    def test_cancel_hook(self):
        s = generate(parse_newick("((1,2),(3,4));"), parse_group_spec("Z4"))
        with pytest.raises(Cancelled):
            verify_complete_intersection(s, cancel=lambda: True)


def test_oracle_matches_construction_across_instances():
    # two fully independent computations of the kernel rank
    for text, factors in [("(1,2,3);", (4,)), ("(1,2,3);", (2, 3)),
                          ("(1,2,3,4);", (3,)), ("((1,2),(3,4),5);", (2,))]:
        rt = rooted(text)
        g = GroupSpec(factors)
        K = oracle_kernel(rt, g)
        assert K.rank == codim(rt.tree, g)


class TestNonFlows:
    """Negative controls: terms that are no flows must not be certified."""

    def test_moved_interior_value_is_rejected(self):
        # the same interior-edge change on one lhs and one rhs flow keeps the
        # per-edge projections equal, but neither term is a flow any more
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        i, b = next((i, b) for i, b in enumerate(s.binomials)
                    if any(f[4] == h[4] for f in b.lhs for h in b.rhs))
        p, q = next((p, q) for p, f in enumerate(b.lhs)
                    for q, h in enumerate(b.rhs) if f[4] == h[4])
        new = Z3.add(b.lhs[p][4], (1,))
        lhs, rhs = list(b.lhs), list(b.rhs)
        lhs[p] = lhs[p][:4] + (new,)
        rhs[q] = rhs[q][:4] + (new,)
        tampered = Binomial(tuple(sorted(lhs)), tuple(sorted(rhs)))
        binomials = list(s.binomials)
        binomials[i] = tampered
        r = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, binomials, list(s.provenance)))
        assert not r.passed
        assert not r.kernel_membership_ok
        msgs = [m for m in r.failures if "is not a flow" in m]
        assert len(msgs) == 2
        assert all(m.startswith(f"binomial {i}: term ") for m in msgs)
        assert str(lhs[p]) in msgs[0] + msgs[1]

    def test_value_outside_group_is_rejected(self):
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        b = s.binomials[0]
        bad = ((3,),) + b.lhs[0][1:]
        foreign = Binomial((bad,) + b.lhs[1:], b.rhs)
        r = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, [foreign] + list(s.binomials[1:]),
                         list(s.provenance)))
        assert not r.passed
        assert not r.kernel_membership_ok
        assert any(m.startswith("binomial 0: term ") and "not in Z3" in m
                   for m in r.failures)


def test_passed_iff_no_failures(monkeypatch):
    # a kernel rank that disagrees with the formula fails the set even when
    # the four booleans hold: here the span matches the (wrong) rank
    s = generate(parse_newick("((1,2),(3,4));"), Z3)
    dup = list(s.binomials[:-1]) + [s.binomials[0]]
    real = oracle.monomial_matrix_rank
    monkeypatch.setattr(oracle, "monomial_matrix_rank",
                        lambda *a, **kw: real(*a, **kw) + 1)
    r = verify_complete_intersection(
        InvariantSet(s.rooted, s.group, dup, list(s.provenance)))
    assert r.count_ok and r.kernel_membership_ok
    assert r.spans_ok and r.degree_bound_ok
    assert r.failures == ["kernel rank 15 differs from codimension formula 16"]
    assert not r.passed
    assert r.to_json()["pass"] is False
