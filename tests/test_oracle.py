"""Certification oracle: kernels, ranks, lattice diagnostics, sabotage."""

import json
import re
from collections import Counter, namedtuple
from collections.abc import Mapping
from functools import cache, partial, reduce
from math import inf, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense import (LatticeBasis, add, enumerate_flows,
                   exponent_vector_reference, membership,
                   monomial_matrix, oracle_kernel, vertex_support)
from test_acceptance import BATTERY_GROUPS, BATTERY_TREES, FLOW_CAP
from test_flows import FLOW_GROUPS, random_trees
from phyloinv import lattice, oracle
from phyloinv.errors import FlowCapExceeded, InternalError
from phyloinv.flows import Binomial, flow_from_leaves, flow_index
from phyloinv.groups import GroupSpec, parse_group_spec
from phyloinv.lattice import Echelon
from phyloinv.oracle import (LatticeInfo, codim, degree_bound, exponent_vector,
                             flow_total, lattice_report, monomial_matrix_rank,
                             verify_complete_intersection)
from phyloinv.pipeline import InvariantSet, generate
from phyloinv.trees import RootedTree, canonical_rooting, parse_newick

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


def columns(rt, group, b):
    """Each term of ``b`` by its ``flow_index``."""
    return {f: flow_index(rt, group, f) for f in b.lhs + b.rhs}


@st.composite
def id_sides(draw):
    """``column`` and two sides of terms: term ids into a list of columns
    or, as often, keys of a mapping.  There are few distinct terms, so the
    sides repeat terms and share them."""
    n = draw(st.integers(1, 5))
    column = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    side = st.lists(st.integers(0, n - 1), max_size=10)
    lhs, rhs = draw(side), draw(side)
    if draw(st.booleans()):
        column = {("flow", t): c for t, c in enumerate(column)}
        lhs = [("flow", t) for t in lhs]
        rhs = [("flow", t) for t in rhs]
    return column, lhs, rhs


class TestExponentVector:
    def test_simple(self):
        rt = rooted("((1,2),(3,4));")
        s = generate(rt.tree, Z2)
        for b in s.binomials:
            v = exponent_vector(columns(rt, Z2, b), b.lhs, b.rhs)
            assert sum(x for x in v.values() if x > 0) == b.degree
            assert sum(v.values()) == 0

    def test_multiplicity(self):
        rt = rooted("(1,2,3);")
        flows = enumerate_flows(rt, Z3)
        b = Binomial((flows[0], flows[0]), (flows[1], flows[2]))
        v = exponent_vector(columns(rt, Z3, b), b.lhs, b.rhs)
        assert v == {0: 2, 1: -1, 2: -1}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(id_sides())
    # term 0 cancels on its second rhs occurrence and comes back negative:
    # it keeps its lhs place, before column 20
    @example(([10, 20], [0, 1, 0], [0, 0, 0]))
    @example(({"f": 7, "h": 3}, ["h", "f"], ["f", "f"]))
    def test_matches_counter_reference(self, case):
        column, lhs, rhs = case
        want = exponent_vector_reference(column, lhs, rhs)
        assert list(exponent_vector(column, lhs, rhs).items()) == list(want.items())


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

    @pytest.mark.parametrize("text,factors,size", [
        ("(1,2,3);", (30,), 1),
        ("(1,(2,(3,(4,(5,(6,(7,8)))))));", (3,), 6),
        ("((1,2,3),(4,5,6));", (2, 2), 4),
    ])
    def test_det_sees_only_pivots_above_one(self, monkeypatch, text, factors,
                                            size):
        # the full-rank echelon is triangular in the degree-zero basis; only
        # its rows with a pivot above 1 reach the determinant
        shapes = []
        real = oracle.det

        def recording(A):
            shapes.append((len(A), *{len(row) for row in A}))
            return real(A)

        monkeypatch.setattr(oracle, "det", recording)
        info = lattice_report(rooted(text), GroupSpec(factors))
        assert shapes == [(size, size)]
        assert info.index_in_degree_zero == info.expected_index

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
        seen = {}  # echelon -> the vectors folded into it, one per pass
        real = Echelon.add

        def recording(ech, vec):
            seen.setdefault(ech, []).append(vec)
            return real(ech, vec)

        monkeypatch.setattr("phyloinv.lattice.Echelon.add", recording)
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        assert verify_complete_intersection(s).passed
        # both passes, rank and lattice summary, fold the same differences
        # from the zero flow (width (g-1)e = 10): at most one add per flow,
        # and only witness flows, of which the quartet has 21 (the 6 flows
        # with four nonzero leaves are not)
        e = s.rooted.edge_count
        assert {ech.width for ech in seen} == {10}
        assert sum(nonzero_leaves(s.rooted, Z3, f) <= 3
                   for f in enumerate_flows(s.rooted, Z3)) == 21
        rank_pass, lattice_pass = seen.values()
        assert [len(rank_pass), len(lattice_pass)] == [17, 17]
        assert rank_pass == lattice_pass
        for vec in rank_pass:
            assert isinstance(vec, Mapping)
            assert sum(1 for x in vec.values() if x) <= e

    def test_each_term_is_encoded_once(self, monkeypatch):
        read = []
        adds = []
        real_read = oracle._read_terms
        real_add = Echelon.add

        def reading(rt, group, terms, width):
            terms = list(terms)
            read.extend(terms)
            return real_read(rt, group, terms, width)

        def adding(ech, vec):
            adds.append(vec)
            return real_add(ech, vec)

        class CountingIndex(dict):
            """Element to index, counting every lookup."""
            lookups = 0

            def get(self, key, default=None):
                CountingIndex.lookups += 1
                return super().get(key, default)

            def __getitem__(self, key):
                CountingIndex.lookups += 1
                return super().__getitem__(key)

        class CountingTerm(tuple):
            """A term that counts how often it is hashed."""
            hashes = 0

            def __hash__(self):
                CountingTerm.hashes += 1
                return tuple.__hash__(self)

        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        # one object per distinct term, shared by its occurrences, as in a
        # generated set
        terms = list(dict.fromkeys(f for b in s.binomials for f in b.lhs + b.rhs))
        counting = {f: CountingTerm(f) for f in terms}
        s.binomials = [Binomial(tuple(map(counting.get, b.lhs)),
                                tuple(map(counting.get, b.rhs)))
                       for b in s.binomials]
        occurrences = sum(len(b.lhs) + len(b.rhs) for b in s.binomials)
        assert occurrences > len(terms)
        monkeypatch.setattr(oracle, "_read_terms", reading)
        monkeypatch.setattr("phyloinv.lattice.Echelon.add", adding)
        table = s.group.table
        monkeypatch.setitem(vars(s.group), "table",
                            table._replace(index=CountingIndex(table.index)))
        CountingTerm.hashes = 0
        assert verify_complete_intersection(s).passed
        # each term occurrence is hashed once, by the id pass
        assert CountingTerm.hashes == occurrences
        # each distinct term is read once, in order of first occurrence
        assert read == terms
        assert len(adds) <= 2 * 27
        # element indices: e per read term and per folded witness flow; the
        # columns come from the read, with no flow_index call (each would
        # look up l - 1 more)
        e = s.rooted.edge_count
        assert CountingIndex.lookups == e * (len(terms) + len(adds))
        assert not hasattr(oracle, "flow_index")

    def test_tripod_witness_meets_its_bounds_early(self, monkeypatch):
        # every flow of a tripod is a witness; folded sparsest first, the
        # Z30 tripod meets both bounds within 110 of its 900 flows (the
        # lexicographic order needed 871 in each pass)
        adds = Counter()  # echelon -> adds, one echelon per pass
        real = Echelon.add

        def counting(ech, vec):
            adds[ech] += 1
            return real(ech, vec)

        monkeypatch.setattr("phyloinv.lattice.Echelon.add", counting)
        s = generate(parse_newick("(1,2,3);"), GroupSpec((30,)))
        assert verify_complete_intersection(s).passed
        assert {ech.width for ech in adds} == {87}
        assert len(adds) == 2
        assert max(adds.values()) <= 110

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

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("unhashable", [False, True])
    def test_mixed_set_reads_as_its_tuple_form(self, unhashable, where):
        # tuple-sided binomials, then the first binomial that needs the tuple
        # form at ``where``, then list-sided ones read back from JSON.  That
        # binomial is tuple-sided with a list term or, with ``unhashable``,
        # with a hashable new term before a dict term: the id pass has given
        # the new term an id when the dict stops it.  The new term holds a
        # value of a tuple subclass, which _tuple_terms makes a plain tuple;
        # the pass starts over with the whole set in its tuple form, so the
        # defect prints the value as that form has it.
        Value = namedtuple("Value", "x")
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        bs = list(s.binomials)
        i = {"first": 0, "middle": len(bs) // 2, "last": len(bs) - 1}[where]
        doc = json.loads(json.dumps([[b.lhs, b.rhs] for b in bs[i + 1:]]))
        mixed = bs[:i + 1] + [Binomial(*sides) for sides in doc]
        b = mixed[i]
        if unhashable:
            fresh = (Value(9),) + b.lhs[0][1:]
            mixed[i] = Binomial(b.lhs, b.rhs + (fresh, {"a": 1}))
        else:
            mixed[i] = Binomial((list(b.lhs[0]),) + b.lhs[1:], b.rhs)
        assert all(isinstance(b.lhs, list) for b in mixed[i + 1:])
        report = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, mixed, list(s.provenance)))
        tupled = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, list(map(oracle._tuple_terms, mixed)),
                         list(s.provenance)))
        text = json.dumps(report.to_json(), indent=2)
        assert text == json.dumps(tupled.to_json(), indent=2)
        assert report.passed is not unhashable
        if unhashable:
            plain = ((9,),) + fresh[1:]
            assert [m for m in report.failures if "is not a flow" in m] == [
                f"binomial {i}: term {plain} is not a flow: value (9,) on "
                f"edge 0 {s.rooted.edges[0]} is not in Z3",
                f"binomial {i}: term {{'a': 1}} is not a flow: is not a tuple "
                "of 5 edge values"]


def full_rank(rt, group):
    """Rank of the dense monomial matrix, every column folded in."""
    A = monomial_matrix(rt, group, flow_cap=FLOW_CAP)
    ech = Echelon(len(A))
    for col in zip(*A):
        ech.add({r: x for r, x in enumerate(col) if x})
    return ech.rank


def full_lattice_report(rt, group):
    """The lattice summary with every flow's difference folded in."""
    g, e = group.order, rt.edge_count
    ech = Echelon((g - 1) * e)
    for f in enumerate_flows(rt, group, FLOW_CAP):
        ech.add({c - c // g - 1: 1 for c in vertex_support(rt, group, f)
                 if c % g})
    full = ech.rank == (g - 1) * e
    interior = rt.tree.interior_node_count
    return LatticeInfo(
        vertex_diff_dim=ech.rank, expected_dim=(g - 1) * e,
        index_in_degree_zero=prod(r[j] for r, j in zip(ech.rows, ech.pivcols))
        if full else inf,
        expected_index=g ** interior, interior_nodes=interior)


BATTERY = [(t, g) for t in BATTERY_TREES for g in BATTERY_GROUPS]


def leaf_side(rt, v, w):
    """The leaves of the component of T - v that holds v's neighbour w."""
    if rt.parent[w] == v:
        nodes = rt.nodes_below(w)
    else:
        nodes = set(range(1, rt.tree.n_nodes + 1)) - rt.nodes_below(v)
    return {u for u in nodes if u <= rt.leaf_count}


def nonzero_leaves(rt, group, f):
    return sum(x != group.zero() for x in f[:rt.leaf_count])


def swap_flows(rt, group, vals, order):
    """The flows h1, h2 and p of the witness lemma (see
    ``oracle._fold_witness``) for the flow with leaf values ``vals``; its
    nonzero leaves are picked in ``order``."""
    n, zero = rt.leaf_count, group.zero()
    x = dict(zip(range(1, n + 1), vals))
    N = [m for m in order if x[m] != zero]

    def on(values):
        return flow_from_leaves(rt, group, [values.get(m, zero)
                                            for m in range(1, n + 1)])

    def total(S):
        return reduce(partial(add, group), (x[m] for m in S), zero)

    for u, v in rt.edges:
        B = leaf_side(rt, u, v)
        A = set(x) - B
        if sum(m in A for m in N) >= 2 and sum(m in B for m in N) >= 2:
            a = next(m for m in N if m in A)
            b = next(m for m in N if m in B)
            return (on({**{m: x[m] for m in A}, b: total(B)}),
                    on({**{m: x[m] for m in B}, a: total(A)}),
                    on({a: total(A), b: total(B)}))
    # no such edge: some interior node v has at most one leaf of N in each
    # component of T - v
    assert any(all(sum(m in leaf_side(rt, v, w) for m in N) <= 1
                   for w in rt.tree.neighbors(v))
               for v in rt.tree.interior_nodes)
    i, j, r = N[:3]
    s = add(group, x[i], x[j])
    return (on({i: x[i], j: x[j], r: group.neg(s)}),
            on({**{m: x[m] for m in N[2:]}, i: s}),
            on({i: s, r: group.neg(s)}))


@st.composite
def swap_cases(draw):
    """A randomly rooted tree, a group, the leaf values of a flow with at
    least four nonzero leaves, and an order of the leaves."""
    tree = draw(random_trees(4, 9))
    n = tree.leaf_count
    rt = RootedTree(tree, draw(st.sampled_from(tree.interior_nodes)))
    group = draw(st.sampled_from(FLOW_GROUPS))
    head = draw(st.lists(st.sampled_from(group.elements),
                         min_size=n - 1, max_size=n - 1))
    vals = head + [group.neg(reduce(partial(add, group), head, group.zero()))]
    assume(sum(v != group.zero() for v in vals) >= 4)
    return rt, group, vals, draw(st.permutations(range(1, n + 1)))


SMALL_GROUPS = [GroupSpec((g,)) for g in range(2, 7)] + [GroupSpec((2, 2))]


@st.composite
def small_instances(draw, max_leaves=7):
    """A randomly rooted tree with at most ``max_leaves`` leaves and a small
    group, with at most 729 flows."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    tree = draw(random_trees(3, max_leaves))
    assume(group.order ** (tree.leaf_count - 1) <= 729)
    return RootedTree(tree, draw(st.sampled_from(tree.interior_nodes))), group


def dense_difference_lattice(rt, group):
    """The lattice of vertex differences Q_f - Q_0 over every flow, in the
    degree-zero basis of ``oracle._fold_witness``, by dense Hermite forms
    folded 64 flows at a time."""
    g = group.order
    width = (g - 1) * rt.edge_count
    diffs = []
    for f in enumerate_flows(rt, group, FLOW_CAP):
        v = [0] * width
        for c in vertex_support(rt, group, f):
            if c % g:
                v[c - c // g - 1] = 1
        diffs.append(v)
    L = LatticeBasis.from_vectors(width, [])
    for k in range(0, len(diffs), 64):
        L = LatticeBasis.from_vectors(width, [*L.vectors, *diffs[k:k + 64]])
    return L


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_instances(max_leaves=6))
def test_monomial_rank_is_difference_dim_plus_one(case):
    # the rank lemma of ``monomial_matrix_rank``, against dense Hermite
    # forms that share no code with the echelon
    rt, group = case
    A = monomial_matrix(rt, group, flow_cap=FLOW_CAP)
    rank = LatticeBasis.from_vectors(len(A[0]), A).rank
    info = lattice_report(rt, group)
    assert rank == monomial_matrix_rank(rt, group) == info.vertex_diff_dim + 1
    L = dense_difference_lattice(rt, group)
    assert L.rank == info.vertex_diff_dim
    if L.rank == info.expected_dim:
        # a square Hermite form: the index is the product of its pivots
        assert info.index_in_degree_zero == prod(
            next(filter(None, row)) for row in L.vectors)


def count_passes(monkeypatch):
    """A list that gets the number of flows each ``oracle.iter_flows``
    pass yields, one entry per pass."""
    passes = []
    real = oracle.iter_flows

    def counting(*args):
        passes.append(0)
        for f in real(*args):
            passes[-1] += 1
            yield f

    monkeypatch.setattr(oracle, "iter_flows", counting)
    return passes


class TestWitness:
    """The rank and the index read from the witness flows equal those of a
    fold over every flow."""

    @pytest.mark.parametrize("text,gtext", BATTERY)
    def test_battery_matches_full_enumeration(self, text, gtext):
        rt, group = rooted(text), parse_group_spec(gtext)
        assert monomial_matrix_rank(rt, group) == full_rank(rt, group)
        assert lattice_report(rt, group) == full_lattice_report(rt, group)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(swap_cases())
    @example((rooted("(1,2,3,4,5);"), Z3, [(1,), (1,), (2,), (1,), (1,)],
              [1, 2, 3, 4, 5]))
    @example((rooted("((1,2),(3,4));"), Z2, [(1,)] * 4, [1, 2, 3, 4]))
    def test_each_flow_is_a_swap_of_smaller_flows(self, case):
        rt, group, vals, order = case
        f = flow_from_leaves(rt, group, vals)
        h1, h2, p = swap_flows(rt, group, vals, order)
        k = nonzero_leaves(rt, group, f)
        assert all(nonzero_leaves(rt, group, h) < k for h in (h1, h2, p))
        # on every edge the multisets {f, p} and {h1, h2} agree, so
        # Q_f + Q_p = Q_h1 + Q_h2
        assert Counter(vertex_support(rt, group, f) + vertex_support(rt, group, p)) \
            == Counter(vertex_support(rt, group, h1)
                       + vertex_support(rt, group, h2))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_instances())
    def test_random_trees_match_full_enumeration(self, case):
        rt, group = case
        assert monomial_matrix_rank(rt, group) == full_rank(rt, group)
        assert lattice_report(rt, group) == full_lattice_report(rt, group)

    def test_both_passes_fold_the_same_vectors(self, monkeypatch):
        # on this tree the echelon reaches full rank after 42 adds, well
        # before its pivots meet the index bound at add 77: both passes
        # fold on to the one stopping point
        seen = {}  # echelon -> the vectors folded into it, one per pass
        real = Echelon.add

        def recording(ech, vec):
            seen.setdefault(ech, []).append(vec)
            return real(ech, vec)

        monkeypatch.setattr("phyloinv.lattice.Echelon.add", recording)
        s = generate(parse_newick("((1,2,3),(4,5,6));"),
                     parse_group_spec("Z2xZ2"))
        assert verify_complete_intersection(s).passed
        rank_pass, lattice_pass = seen.values()
        assert len(rank_pass) == 77
        assert rank_pass == lattice_pass
        ech = Echelon(3 * s.rooted.edge_count)
        ranks = [ech.add(vec) and ech.rank for vec in rank_pass]
        assert ranks.index(ech.width) == 41

    def test_verify_enumerates_the_flows_twice(self, monkeypatch):
        passes = count_passes(monkeypatch)
        for text, gtext in [("((((1,2),3),4),5,6);", "Z3"),
                            ("((1,2),(3,4),(5,6));", "Z2xZ2"),
                            ("(1,2,3);", "Z5")]:
            passes.clear()
            s = generate(parse_newick(text), parse_group_spec(gtext))
            assert verify_complete_intersection(s).passed
            # one full pass for the rank, one for the lattice summary; both
            # fold the same vectors, so one pass would serve both, but
            # bench/ checks 2 g^(l-1) flows per verify
            assert passes == [flow_total(s.rooted.tree, s.group)] * 2

    @pytest.mark.parametrize("certificate", [monomial_matrix_rank,
                                             lattice_report])
    def test_passing_a_proven_bound_is_an_internal_error(self, monkeypatch,
                                                         certificate):
        class Leaky(Echelon):
            """Folds every unit vector beside each vector and reports a
            change: the degree-zero index drops to 1."""

            def add(self, vec):
                for c in range(self.width):
                    super().add({c: 1})
                super().add(vec)
                return True

        monkeypatch.setattr(oracle, "Echelon", Leaky)
        with pytest.raises(InternalError, match="bound"):
            certificate(rooted("((1,2),(3,4));"), Z3)


def test_oracle_matches_construction_across_instances():
    # two fully independent computations of the kernel rank
    for text, factors in [("(1,2,3);", (4,)), ("(1,2,3);", (2, 3)),
                          ("(1,2,3,4);", (3,)), ("((1,2),(3,4),5);", (2,))]:
        rt = rooted(text)
        g = GroupSpec(factors)
        K = oracle_kernel(rt, g)
        assert K.rank == codim(rt.tree, g)


# side lengths on both sides of the powers of two the packed width steps at
SIDE_LENGTHS = st.sampled_from([0, 1, 2, 3, 4, 7, 8, 15, 16])


def draw_side(draw, flows):
    n = draw(SIDE_LENGTHS)
    return draw(st.lists(st.sampled_from(flows), min_size=n, max_size=n))


def cancelling_pieces(draw, rt, group, flows):
    """Two term lists whose vertex points sum alike: a join quadric (two
    flows that agree on an edge against their two swaps across it), or a
    list of flows against a shuffle of itself."""
    if draw(st.booleans()):
        f = draw(st.sampled_from(flows))
        ei = draw(st.integers(0, rt.edge_count - 1))
        B = leaf_side(rt, *rt.edges[ei])
        h = draw(st.sampled_from([h for h in flows if h[ei] == f[ei]]))

        def swap(a, b):
            return flow_from_leaves(rt, group, [b[m - 1] if m in B else a[m - 1]
                                                for m in range(1, rt.leaf_count + 1)])

        return [f, h], [swap(f, h), swap(h, f)]
    a = draw_side(draw, flows)
    return a, draw(st.permutations(a))


@st.composite
def foreign_sets(draw):
    """A small rooted tree, a group and one to four binomials that no
    construction made: sums of cancelling pieces, each repeated, with a
    term replaced, added or dropped, or two sides of flows drawn apart.  A
    replaced or added term is a flow or, as often, not one: not a tuple,
    too short, a value outside the group, or one edge value moved."""
    rt, group = draw(small_instances())
    flows = enumerate_flows(rt, group)

    @st.composite
    def non_flows(draw):
        f = draw(st.sampled_from(flows))
        ei = draw(st.integers(0, rt.edge_count - 1))
        moved = draw(st.sampled_from([x for x in group.elements if x != f[ei]]))
        return draw(st.sampled_from([5, f[:-1], f[:ei] + (group.factors,) + f[ei + 1:],
                                     f[:ei] + (moved,) + f[ei + 1:]]))

    terms = st.sampled_from(flows) | non_flows()
    binomials = []
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["cancel", "replace", "add", "drop", "apart"]))
        if how == "apart":
            lhs, rhs = draw_side(draw, flows), draw_side(draw, flows)
        else:
            lhs, rhs = [], []
            for _ in range(draw(st.integers(1, 3))):
                a, b = cancelling_pieces(draw, rt, group, flows)
                k = draw(st.integers(1, 4))
                lhs += a * k
                rhs += b * k
        side = lhs if draw(st.booleans()) else rhs
        if how == "replace" and side:
            side[draw(st.integers(0, len(side) - 1))] = draw(terms)
        elif how == "add":
            side.insert(draw(st.integers(0, len(side))), draw(terms))
        elif how == "drop" and side:
            del side[draw(st.integers(0, len(side) - 1))]
        binomials.append(Binomial(tuple(lhs), tuple(rhs)))
    return rt, group, binomials


def membership_failures(failures):
    """The messages of the kernel-membership check among ``failures``."""
    return [m for m in failures if m.startswith("binomial ")
            and not re.match(r"binomial \d+: degree \d+ exceeds", m)]


ZERO3, ONE3 = ((0,),) * 3, ((1,),) * 3


class TestMembership:
    """The packed vertex-point sums give the verdict and the messages of a
    ``Counter`` of vertex supports per binomial."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(foreign_sets())
    # 2^w zero flows against (1, 1, 1) on the Z3 tripod: in slots of w
    # bits each zero-flow slot would carry into the slot of value 1 on
    # the same edge, and the sums would look equal
    @example((rooted("(1,2,3);"), Z3, [Binomial((ZERO3,) * 2, (ONE3,))]))
    @example((rooted("(1,2,3);"), Z3, [Binomial((ONE3,), (ZERO3,) * 2)]))
    @example((rooted("(1,2,3);"), Z3, [Binomial((ZERO3,) * 4, (ONE3,))]))
    @example((rooted("(1,2,3);"), Z3, [Binomial((ZERO3,) * 8, (ONE3,))]))
    @example((rooted("(1,2,3);"), Z3, [Binomial((ZERO3,) * 16, (ONE3,))]))
    @example((rooted("(1,2,3);"), Z3, [Binomial((), ()), Binomial((ZERO3,), ())]))
    def test_matches_counter_reference(self, case):
        rt, group, binomials = case
        want_ok, want = membership(rt, group, binomials)
        r = verify_complete_intersection(
            InvariantSet(rt, group, binomials, ["foreign"] * len(binomials)))
        assert r.kernel_membership_ok == want_ok
        assert membership_failures(r.failures) == want


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
        new = add(Z3, b.lhs[p][4], (1,))
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

    @pytest.mark.parametrize("side, term", [
        (lambda b: Binomial(5, b.rhs), "5"),
        (lambda b: Binomial({"a": 1}, b.rhs), "{'a': 1}"),
        (lambda b: Binomial(b.lhs, None), "None"),
    ], ids=["int-lhs", "dict-lhs", "none-rhs"])
    def test_side_that_is_no_sequence_is_one_term(self, side, term):
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        bad = side(s.binomials[0])
        r = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, [bad] + list(s.binomials[1:]),
                         list(s.provenance)))
        assert not r.passed
        assert not r.kernel_membership_ok
        assert (f"binomial 0: term {term} is not a flow: "
                "is not a tuple of 5 edge values") in r.failures

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

    def test_recurring_term_is_named_once_per_binomial(self):
        # one non-flow on both sides of binomial 0 and in binomial 2: each
        # binomial names it once, binomial 0 only at its first occurrence
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        bs = list(s.binomials)
        bad = ((3,),) + bs[0].lhs[0][1:]
        bs[0] = Binomial((bad,) + bs[0].lhs[1:], bs[0].rhs + (bad,))
        bs[2] = Binomial(bs[2].lhs, bs[2].rhs + (bad,))
        r = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, bs, list(s.provenance)))
        assert not r.kernel_membership_ok
        assert membership_failures(r.failures) == [
            f"binomial {i}: term {bad} is not a flow: value (3,) on edge 0 "
            f"{s.rooted.edges[0]} is not in Z3" for i in (0, 2)]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_non_sequence_term_is_rejected(self, as_json):
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        b = s.binomials[0]
        foreign = Binomial((5,) + b.lhs[1:], b.rhs)
        if as_json:  # list terms beside the int, as read back from JSON
            foreign = Binomial(*json.loads(json.dumps([foreign.lhs, foreign.rhs])))
        r = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, [foreign] + list(s.binomials[1:]),
                         list(s.provenance)))
        assert not r.passed
        assert not r.kernel_membership_ok
        assert "binomial 0: term 5 is not a flow: is not a tuple of 5 edge " \
               "values" in r.failures

    @pytest.mark.parametrize("where", ["term", "value"])
    def test_unhashable_term_is_rejected(self, where):
        s = generate(parse_newick("((1,2),(3,4));"), Z3)
        b = s.binomials[0]
        bad = {"a": 1} if where == "term" else ({"a": 1},) + b.lhs[0][1:]
        foreign = Binomial((bad,) + b.lhs[1:], b.rhs)
        r = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, [foreign] + list(s.binomials[1:]),
                         list(s.provenance)))
        assert not r.passed
        assert not r.kernel_membership_ok
        assert any(m.startswith(f"binomial 0: term {bad} is not a flow: ")
                   for m in r.failures)


    @pytest.mark.parametrize("value, shown", [
        ((10 ** 5000,), "(<int of 5001 digits>,)"),
        ({"a": 10 ** 5000}, "<dict that does not print>"),
    ], ids=["int", "unhashable"])
    def test_value_that_does_not_print_is_reported(self, value, shown):
        # past Python's int-to-string digit limit: an int is shown by its
        # digit count, so the verifier still returns its report
        s = generate(parse_newick("((1,2),(3,4));"), Z2)
        b = s.binomials[0]
        foreign = Binomial(((value,) * 5,) + b.lhs[1:], b.rhs)
        r = verify_complete_intersection(
            InvariantSet(s.rooted, s.group, [foreign] + list(s.binomials[1:]),
                         list(s.provenance)))
        assert not r.passed
        assert not r.kernel_membership_ok
        msgs = [m for m in r.failures if "is not a flow" in m]
        assert msgs == [f"binomial 0: term ({', '.join([shown] * 5)}) is not a "
                        f"flow: value {shown} on edge 0 {s.rooted.edges[0]} "
                        f"is not in Z2"]
        json.dumps(r.to_json())

def test_degree_reads_both_sides():
    s = generate(parse_newick("((1,2),(3,4));"), Z3)
    i, b = next((i, b) for i, b in enumerate(s.binomials) if b.degree == 3)
    lopsided = Binomial(b.lhs, b.rhs * 4)
    assert lopsided.degree == 12
    binomials = list(s.binomials)
    binomials[i] = lopsided
    r = verify_complete_intersection(
        InvariantSet(s.rooted, s.group, binomials, list(s.provenance)))
    assert not r.degree_bound_ok
    assert f"binomial {i}: degree 12 exceeds bound 3" in r.failures
    assert not r.passed


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


def test_failures_keep_their_order(monkeypatch):
    # a degree failure at binomial 2 before membership failures at 5 and 9,
    # with the count short by one and a kernel rank off by one: the report
    # lists count, membership, degree, kernel rank, span, in that order
    s = generate(parse_newick("((1,2),(3,4));"), Z3)
    bs = list(s.binomials)
    bs[2] = Binomial(bs[2].lhs * 4, bs[2].rhs * 4)  # in the kernel, degree 12
    bs[5] = Binomial(bs[5].lhs, bs[6].rhs)
    f = bs[9].lhs[0]
    bs[9] = Binomial((f[:4] + (add(Z3, f[4], (1,)),),) + bs[9].lhs[1:], bs[9].rhs)
    real = oracle.monomial_matrix_rank
    monkeypatch.setattr(oracle, "monomial_matrix_rank",
                        lambda *a, **kw: real(*a, **kw) + 1)
    r = verify_complete_intersection(
        InvariantSet(s.rooted, s.group, bs[:-1], list(s.provenance[:-1])))
    assert r.failures == [
        "count: expected 16 generators, found 15",
        "binomial 5: exponent vector outside the kernel",
        "binomial 9: term ((0,), (2,), (2,), (2,), (2,)) is not a flow: "
        "values do not conserve at node 5",
        "binomial 2: degree 12 exceeds bound 3",
        "kernel rank 15 differs from codimension formula 16",
        "span check skipped: some exponent vector is outside the kernel",
    ]


@pytest.mark.parametrize("text,gtext", [
    ("((1,2),(3,4));", "Z3"),
    ("((1,2,3),(4,5,6));", "Z2xZ2"),
])
def test_verify_builds_no_binomial(monkeypatch, text, gtext):
    # the rows come from the sides' term ids: no Binomial is built per row
    s = generate(parse_newick(text), parse_group_spec(gtext))
    built = []
    init = Binomial.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Binomial, "__init__", counting)
    r = verify_complete_intersection(s)
    assert r.passed
    assert built == []


# -- a mutation battery whose verdicts lattice theory predicts ---------------
#
# A set passes the span check exactly when its exponent matrix is a kernel
# basis times a unimodular matrix, so the verdict of each row operation on a
# passing set is known in advance.

@cache
def battery_set(text, gtext):
    return generate(parse_newick(text), parse_group_spec(gtext))


MUTABLE = [(t, g) for t, g in BATTERY
           if codim(parse_newick(t), parse_group_spec(g)) >= 2]


def combination(*terms):
    """The binomial sum of c*b over the (c, b) in ``terms``, each side a
    multiset with the terms common to both sides cancelled."""
    pos, neg = Counter(), Counter()
    for c, b in terms:
        for sign, side in ((1, b.lhs), (-1, b.rhs)):
            for f in side:
                (pos if c * sign > 0 else neg)[f] += abs(c)
    return Binomial(tuple(sorted((pos - neg).elements())),
                    tuple(sorted((neg - pos).elements())))


@st.composite
def mutation_cases(draw):
    """A battery set with codim >= 2, two distinct binomial positions and the
    coefficients k in {1, -1} and m in {2, 3}."""
    text, gtext = draw(st.sampled_from(MUTABLE))
    s = battery_set(text, gtext)
    i, j = draw(st.permutations(range(len(s.binomials))))[:2]
    return s, i, j, draw(st.sampled_from([1, -1])), draw(st.sampled_from([2, 3]))


class TestMutationBattery:
    @staticmethod
    def verify(s, binomials, monkeypatch):
        """The report on ``binomials`` and the number of ``_eliminate`` runs
        the span certificate made.  The set rebuilt from JSON, with list
        sides of list terms, gets the same report."""
        calls = []
        real = lattice._eliminate

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        def report(binomials):
            return verify_complete_intersection(
                InvariantSet(s.rooted, s.group, binomials,
                             ["mutated"] * len(binomials)), flow_cap=FLOW_CAP)

        monkeypatch.setattr(lattice, "_eliminate", counted)
        r = report(binomials)
        runs = len(calls)
        doc = json.loads(json.dumps([[b.lhs, b.rhs] for b in binomials]))
        rebuilt = report([Binomial(*sides) for sides in doc])
        assert (json.dumps(rebuilt.to_json(), indent=2)
                == json.dumps(r.to_json(), indent=2))
        return r, runs

    @staticmethod
    def assert_report(r, base, *, count_ok=True, kernel_membership_ok=True,
                      spans_ok=True, degree_bound_ok=True, actual_count=None,
                      failures=()):
        assert r.count_ok is count_ok
        assert r.kernel_membership_ok is kernel_membership_ok
        assert r.spans_ok is spans_ok
        assert r.degree_bound_ok is degree_bound_ok
        assert r.expected_codim == base.expected_codim
        assert r.actual_count == (base.actual_count if actual_count is None
                                  else actual_count)
        assert r.kernel_rank == base.kernel_rank
        assert r.lattice_info == base.lattice_info
        assert r.failures == list(failures)
        assert r.passed is (not failures)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(mutation_cases())
    def test_row_operations_get_their_predicted_verdicts(self, case):
        s, i, j, k, m = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            base, runs = self.verify(s, list(s.binomials), monkeypatch)
            assert base.passed and runs == 1
            bs = s.binomials
            bound = degree_bound(s.group)
            codim_ = base.expected_codim

            def degree_failures(b):
                return ([f"binomial {i}: degree {b.degree} exceeds bound {bound}"]
                        if b.degree > bound else [])

            # b_i + k b_j: a unimodular step, so only the degree can fail
            b = combination((1, bs[i]), (k, bs[j]))
            r, runs = self.verify(s, [*bs[:i], b, *bs[i + 1:]], monkeypatch)
            self.assert_report(r, base, degree_bound_ok=b.degree <= bound,
                               failures=degree_failures(b))
            assert runs == 1

            # m b_i + k b_j: determinant m, so the one factor above 1 is m,
            # found after the peel and again by the full rerun
            b = combination((m, bs[i]), (k, bs[j]))
            r, runs = self.verify(s, [*bs[:i], b, *bs[i + 1:]], monkeypatch)
            span_failure = r.failures[-1]
            factors = re.fullmatch(r"span is a finite-index proper sublattice "
                                   r"of the kernel \(leftover invariant "
                                   r"factors \[([\d, ]*)\]\)", span_failure)
            assert [int(d) for d in factors[1].split(", ") if d != "1"] == [m]
            self.assert_report(r, base, spans_ok=False,
                               degree_bound_ok=b.degree <= bound,
                               failures=degree_failures(b) + [span_failure])
            assert runs == 2

            # the sides of b_i swapped: the sign of a row, so it passes
            swapped = Binomial(bs[i].rhs, bs[i].lhs)
            r, runs = self.verify(s, [*bs[:i], swapped, *bs[i + 1:]], monkeypatch)
            self.assert_report(r, base)
            assert runs == 1

            # an extra copy of b_j: a dependent row, so only the count fails
            r, runs = self.verify(s, [*bs, bs[j]], monkeypatch)
            self.assert_report(r, base, count_ok=False, actual_count=codim_ + 1,
                               failures=[f"count: expected {codim_} generators, "
                                         f"found {codim_ + 1}"])
            assert runs == 1

            # b_i replaced by a copy of b_j: the rest of a basis spans a
            # saturated lattice of rank codim - 1
            r, runs = self.verify(s, [*bs[:i], bs[j], *bs[i + 1:]], monkeypatch)
            self.assert_report(r, base, spans_ok=False,
                               failures=[f"generators span rank {codim_ - 1}, "
                                         f"kernel has rank {codim_}"])
            assert runs == 1

            # one term of b_i moved off the flow set: a new value on leaf 1's
            # edge, whose upper end is the root, breaks conservation there
            # only; membership names the binomial and the term, and the span
            # check is skipped
            rt, table = s.rooted, s.group.table
            assert rt.edges[0] == (rt.root, 1)
            f = bs[i].lhs[0]
            moved = (table.elements[table.add[table.index[f[0]]][1]],) + f[1:]
            b = Binomial((moved,) + bs[i].lhs[1:], bs[i].rhs)
            r, runs = self.verify(s, [*bs[:i], b, *bs[i + 1:]], monkeypatch)
            self.assert_report(
                r, base, kernel_membership_ok=False, spans_ok=False,
                failures=[f"binomial {i}: term {moved} is not a flow: "
                          f"values do not conserve at node {rt.root}",
                          "span check skipped: some exponent vector is "
                          "outside the kernel"])
            assert runs == 0
