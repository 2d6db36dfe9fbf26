"""Flows on rooted trees: conservation, enumeration, vertex supports, binomials."""

import re
import tracemalloc
from collections import Counter
from functools import partial, reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phyloinv.errors import BinomialError, FlowCapExceeded, FlowError
from dense import (add, enumerate_flows, fixed_sum_tuples, flow_defect,
                   vertex_support)
from phyloinv.flows import (Binomial, binomial_from_multisets, check_flow_cap,
                            flow_from_leaves, flow_index, halves, iter_flows,
                            packed_flows, point_width)
from phyloinv.groups import GroupSpec
from phyloinv.oracle import _read_terms
from phyloinv.pipeline import generate, join_sets, tripod_set
from phyloinv.trees import (RootedTree, canonical_rooting, decompose_at_edge,
                            parse_newick)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z2Z2 = GroupSpec((2, 2))


def flow_defects(rt, group, terms):
    """The defects the verifier's per-term read finds in ``terms``, by term."""
    terms = list(dict.fromkeys(terms))
    defects = _read_terms(rt, group, terms, 1)[0]
    assert len(defects) == len(terms)
    return {t: d for t, d in zip(terms, defects) if d is not None}


@pytest.fixture
def quartet():
    return canonical_rooting(parse_newick("((1,2),(3,4));"))


def test_flow_from_leaves_quartet(quartet):
    f = flow_from_leaves(quartet, Z3, [(1,), (1,), (2,), (2,)])
    # pendant edges carry the leaf values, interior edge their side sum
    assert f[:4] == ((1,), (1,), (2,), (2,))
    assert f[4] == (1,)  # (2,)+(2,) on the far side
    assert not flow_defects(quartet, Z3, [f])


def test_flow_needs_zero_sum(quartet):
    with pytest.raises(FlowError, match="do not sum to zero"):
        flow_from_leaves(quartet, Z3, [(1,), (0,), (0,), (0,)])


def test_flow_wrong_length(quartet):
    with pytest.raises(FlowError, match="expected 4 leaf values, got 2"):
        flow_from_leaves(quartet, Z3, [(1,), (2,)])


@pytest.mark.parametrize("bad", [(4,), (-2,), (1, 0)])
def test_flow_value_outside_group(quartet, bad):
    # (4,) and (-2,) are 1 mod 3: a value is refused, never reduced
    with pytest.raises(FlowError, match=re.escape(f"leaf value {bad} is not in Z3")):
        flow_from_leaves(quartet, Z3, [bad, (2,), (0,), (0,)])


@pytest.mark.parametrize("bad, shown", [
    ((10 ** 5000,), "(<int of 5001 digits>,)"),
    ([0], "[0]"),
], ids=["past-the-digit-limit", "unhashable"])
def test_flow_value_that_does_not_print_or_hash(quartet, bad, shown):
    # an int too long to print is shown by its digit count; a list, as read
    # back from JSON, is no element
    with pytest.raises(FlowError, match=re.escape(f"leaf value {shown} is not in Z3")):
        flow_from_leaves(quartet, Z3, [bad, (2,), (0,), (0,)])


FLOW_GROUPS = [GroupSpec((g,)) for g in range(2, 8)] + \
    [GroupSpec((2, 2)), GroupSpec((2, 3)), GroupSpec((2, 4))]


@st.composite
def random_trees(draw, min_leaves=3, max_leaves=9):
    """A random tree with ``min_leaves`` to ``max_leaves`` leaves, its
    interior nodes of any degree."""
    n = draw(st.integers(min_leaves, max_leaves))
    items = [str(x) for x in draw(st.permutations(range(1, n + 1)))]
    while len(items) > 3:
        k = draw(st.integers(2, len(items) - 1))
        items = items[k:] + ["(" + ",".join(items[:k]) + ")"]
    return parse_newick("(" + ",".join(items) + ");")


@st.composite
def rooted_flows(draw):
    """A random tree with 3-9 leaves, rooted at a random interior node, a
    group and leaf values summing to zero."""
    tree = draw(random_trees())
    n = tree.leaf_count
    rt = RootedTree(tree, draw(st.sampled_from(tree.interior_nodes)))
    group = draw(st.sampled_from(FLOW_GROUPS))
    head = draw(st.lists(st.sampled_from(group.elements),
                         min_size=n - 1, max_size=n - 1))
    total = reduce(partial(add, group), head, group.zero())
    return rt, group, head + [group.neg(total)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rooted_flows())
def test_flow_is_sum_of_leaf_values_below(case):
    rt, group, vals = case

    def below(v):
        total, stack = group.zero(), [v]
        while stack:
            w = stack.pop()
            if w <= rt.leaf_count:
                total = add(group, total, vals[w - 1])
            stack.extend(rt.children[w])
        return total

    f = flow_from_leaves(rt, group, vals)
    assert f == tuple(below(child) for _, child in rt.edges)
    assert not flow_defects(rt, group, [f])


def test_enumerate_flows_count_and_order(quartet):
    flows = enumerate_flows(quartet, Z3)
    assert len(flows) == 27
    assert len(set(flows)) == 27
    assert flows[0] == ((0,),) * 5
    for i, f in enumerate(flows):
        assert flow_index(quartet, Z3, f) == i
        assert not flow_defects(quartet, Z3, [f])


def test_halves_enumeration(quartet):
    for n, group, total in [(3, Z3, (1,)), (2, Z3, (0,)), (1, Z3, (2,)),
                            (3, Z2Z2, (1, 0))]:
        # halves are tuples of element indices, the total an index too
        tuples = list(halves(n, group, group.index(total)))
        assert len(tuples) == len(set(tuples)) == group.order ** (n - 1)
        assert all(reduce(partial(add, group), map(group.elements.__getitem__, h),
                          group.zero()) == total for h in tuples)
        # lexicographic in the first n - 1 entries, the last one forced
        assert [h[:-1] for h in tuples] == sorted(h[:-1] for h in tuples)
    # with the negated total at leaf 4, each is the leaf part of a flow
    fixed = [tuple(map(Z3.elements.__getitem__, h)) + ((2,),)
             for h in halves(3, Z3, Z3.index((1,)))]
    assert len(fixed) == 9
    assert all(flow_from_leaves(quartet, Z3, vals)[:4] == vals for vals in fixed)


@pytest.mark.parametrize("group", [Z2, Z3, GroupSpec((4,)), Z2Z2], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_halves_match_the_brute_force_tuples(n, group):
    for total in range(group.order):
        assert (list(halves(n, group, total))
                == list(fixed_sum_tuples(n, group, total)))


@pytest.mark.parametrize("newick, group", [("((1,2),(3,4));", Z3),
                                           ("((1,2,3),(4,5));", Z2Z2)])
def test_iter_flows_leaf_parts_match_the_brute_force_tuples(newick, group):
    rt = canonical_rooting(parse_newick(newick))
    leaves = [tuple(map(group.index, f[:rt.leaf_count]))
              for f in iter_flows(rt, group)]
    assert leaves == list(fixed_sum_tuples(rt.leaf_count, group, 0))


ENUMERATED_GROUPS = [GroupSpec((g,)) for g in range(2, 7)] + [
    Z2Z2, GroupSpec((2, 3))]


@st.composite
def rooted_instances(draw, most_flows=4096):
    """A group and a random tree of 3-7 leaves, rooted at a random interior
    node, with at most ``most_flows`` flows."""
    group = draw(st.sampled_from(ENUMERATED_GROUPS))
    most = max(n for n in range(3, 8) if group.order ** (n - 1) <= most_flows)
    tree = draw(random_trees(max_leaves=most))
    return RootedTree(tree, draw(st.sampled_from(tree.interior_nodes))), group


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rooted_instances())
# leaves 5 and 6 are not siblings: the path between them has an interior
# edge on each side of the root
@example((canonical_rooting(parse_newick("((1,2),(3,5),(4,6));")), Z2Z2))
@example((canonical_rooting(parse_newick("((1,7),(2,3),(4,(5,6)));")),
          GroupSpec((3,))))
@example((canonical_rooting(parse_newick("(1,(2,(3,(4,5))));")),
          GroupSpec((2, 3))))
def test_iter_flows_match_the_independent_references(case):
    # each flow, in order, has the brute-force leaf part, conserves by
    # residue sums and is the flow its leaf values complete to
    rt, group = case
    n = rt.leaf_count
    flows = list(iter_flows(rt, group))
    assert len(flows) == group.order ** (n - 1)
    assert ([tuple(map(group.index, f[:n])) for f in flows]
            == list(fixed_sum_tuples(n, group, 0)))
    for f in flows:
        assert flow_defect(rt, group, f) is None
        assert f == flow_from_leaves(rt, group, f[:n])


def test_iter_flows_streams_without_a_square_table():
    # Z300's Cayley table is built before the trace; a g x g table of the
    # tripod's flows or leaf pairs would take megabytes
    rt = canonical_rooting(parse_newick("(1,2,3);"))
    group = GroupSpec((300,))
    group.table
    tracemalloc.start()
    try:
        first = next(iter_flows(rt, group))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ((0,),) * 3
    assert peak < 256 * 1024


def test_flow_defects_name_the_fault(quartet):
    f = flow_from_leaves(quartet, Z3, [(1,), (1,), (2,), (2,)])
    moved = f[:4] + ((2,),)
    outside = ((3,),) + f[1:]
    defects = flow_defects(quartet, Z3, [f, moved, outside, f[:4]])
    assert set(defects) == {moved, outside, f[:4]}
    assert "conserve" in defects[moved]
    assert "not in Z3" in defects[outside]
    assert "4 edge values" in defects[f[:4]]


def test_flow_defects_on_a_claw():
    # the root is the only interior node: the leaf sum decides, over Z2 x Z2 too
    rt = canonical_rooting(parse_newick("(1,2,3,4);"))
    flows = enumerate_flows(rt, Z2Z2)
    assert not flow_defects(rt, Z2Z2, flows)
    leaky = [f[:3] + (add(Z2Z2, f[3], (1, 0)),) for f in flows]
    defects = flow_defects(rt, Z2Z2, leaky)
    assert set(defects) == set(leaky)
    assert all(d == f"values do not conserve at node {rt.root}"
               for d in defects.values())


@st.composite
def perturbed_terms(draw):
    """A random rooted tree, a group, and flows with 1-3 edge values each
    replaced by a random element (which may leave a flow a flow); some
    terms are then broken further: not a tuple, one value short or long,
    or with a value outside the group."""
    rt, group, vals = draw(rooted_flows())
    f = flow_from_leaves(rt, group, vals)
    element = st.sampled_from(group.elements)
    outside = st.sampled_from([group.factors, (-1,) * len(group.factors),
                               group.zero() + (0,), 5])
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        t = list(f)
        for _ in range(draw(st.integers(1, 3))):
            t[draw(st.integers(0, rt.edge_count - 1))] = draw(element)
        how = draw(st.sampled_from(["kept", "kept", "not a tuple", "short",
                                    "long", "outside"]))
        if how == "not a tuple":
            t = draw(st.sampled_from([5, None, "flow", frozenset(t)]))
        elif how == "short":
            t.pop()
        elif how == "long":
            t.append(draw(element))
        elif how == "outside":
            t[draw(st.integers(0, rt.edge_count - 1))] = draw(outside)
        terms.append(tuple(t) if isinstance(t, list) else t)
    return rt, group, terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(perturbed_terms(), st.integers(1, 6))
def test_flow_defects_match_rebuild_and_residues(case, width):
    # the verifier's one read of each term against the dense references
    rt, group, terms = case
    terms = list(dict.fromkeys(terms))  # the ids: positions of distinct terms
    defects, point, column = _read_terms(rt, group, terms, width)
    assert len(defects) == len(point) == len(column) == len(terms)
    n = rt.leaf_count
    for t, defect, p, col in zip(terms, defects, point, column):
        want = flow_defect(rt, group, t)
        assert defect == want
        if want is None:
            assert p == sum(1 << width * c for c in vertex_support(rt, group, t))
            assert col == flow_index(rt, group, t)
        else:
            assert p is None and col is None
        if isinstance(t, tuple) and len(t) == rt.edge_count \
                and all(x in group.elements for x in t):
            # reference verdict: the leaf values sum to zero and rebuild ``t``
            leaf_sum = reduce(partial(add, group), t[:n], group.zero())
            is_flow = leaf_sum == group.zero() \
                and flow_from_leaves(rt, group, t[:n]) == t
            assert (want is None) == is_flow


def test_vertex_support_shape(quartet):
    for f in enumerate_flows(quartet, Z2Z2):
        support = vertex_support(quartet, Z2Z2, f)
        # one index per edge block, inside that block, at the edge's value
        assert len(support) == 5
        for ei, pos in enumerate(support):
            assert divmod(pos, 4) == (ei, Z2Z2.index(f[ei]))


def test_binomial_checks_edge_projections(quartet):
    flows = enumerate_flows(quartet, Z2)
    f0, f1 = flows[0], flows[1]
    with pytest.raises(BinomialError):
        binomial_from_multisets(quartet, Z2, [f0], [f1])


def test_binomial_refuses_a_term_shorter_than_the_tree(quartet):
    tripod = canonical_rooting(parse_newick("(1,2,3);"))
    f = flow_from_leaves(tripod, Z2, [(0,), (1,), (1,)])
    with pytest.raises(FlowError, match=re.escape(
            "term ((0,), (1,)) has 2 values, expected 3")):
        binomial_from_multisets(tripod, Z2, [f], [f[:2]])
    # beside full-length terms the short one would hide their last column,
    # which differs here
    f = flow_from_leaves(quartet, Z2, [(1,), (1,), (0,), (0,)])
    other = f[:4] + ((1,),)
    assert f[4] != other[4]
    with pytest.raises(FlowError, match=re.escape(
            f"term {f[:4]} has 4 values, expected 5")):
        binomial_from_multisets(quartet, Z2, [f, f], [f[:4], other])


@pytest.mark.parametrize("bad, shown", [
    ([0], "[0]"),
    ((10 ** 5000,), "(<int of 5001 digits>,)"),
], ids=["unhashable", "past-the-digit-limit"])
def test_binomial_refuses_a_value_that_is_no_element(bad, shown):
    # the packed point reads the value; a list, as read back from JSON, and
    # an int too long to print are named as flow_from_leaves names them
    tripod = canonical_rooting(parse_newick("(1,2,3);"))
    f = flow_from_leaves(tripod, Z2, [(0,), (1,), (1,)])
    with pytest.raises(FlowError, match=re.escape(f"value {shown} is not in Z2")):
        binomial_from_multisets(tripod, Z2, [f], [(bad,) + f[1:]])


def test_binomial_cancels_common_flows(quartet):
    flows = enumerate_flows(quartet, Z2)
    b = binomial_from_multisets(quartet, Z2, [flows[0], flows[1]],
                                [flows[1], flows[0]])
    assert b.is_trivial
    assert b.degree == 0


def test_binomial_keeps_no_instance_dict(quartet):
    b = generate(parse_newick("((1,2),(3,4));"), Z3).binomials[0]
    assert not hasattr(b, "__dict__")
    assert b.degree == len(b.lhs) == len(b.rhs) == 3
    f0, f1, f2 = enumerate_flows(quartet, Z2)[:3]
    assert Binomial((f0, f1), (f2,)).degree == 2
    assert Binomial((f2,), (f0, f1)).degree == 2


def test_edge_swap_binomial(quartet):
    # two flows agreeing on the interior edge, halves swapped
    fa = flow_from_leaves(quartet, Z2, [(1,), (0,), (1,), (0,)])
    fb = flow_from_leaves(quartet, Z2, [(0,), (1,), (0,), (1,)])
    fc = flow_from_leaves(quartet, Z2, [(1,), (0,), (0,), (1,)])
    fd = flow_from_leaves(quartet, Z2, [(0,), (1,), (1,), (0,)])
    b = binomial_from_multisets(quartet, Z2, [fa, fb], [fc, fd])
    assert b.degree == 2


def sort_every_edge(rt, a, b):
    """Reference per-edge multiset check: every edge's projection sorted."""
    if len(a) != len(b):
        raise BinomialError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    for ei in range(rt.edge_count):
        pa = sorted(f[ei] for f in a)
        pb = sorted(f[ei] for f in b)
        if pa != pb:
            raise BinomialError(
                f"projections to edge {ei} {rt.edges[ei]} differ: {pa} vs {pb}",
                edge=ei)
    ca, cb = Counter(a), Counter(b)
    return Binomial(tuple(sorted((ca - cb).elements())),
                    tuple(sorted((cb - ca).elements())))


def outcome(check):
    try:
        return check()
    except BinomialError as exc:
        return str(exc), exc.edge


QUARTET = canonical_rooting(parse_newick("((1,2),(3,4));"))
PAIR_TREES = [canonical_rooting(parse_newick(t))
              for t in ("(1,2,3);", "((1,2),(3,4));", "((1,2),3,(4,5));")]


@st.composite
def multiset_pairs(draw):
    """Two term lists on a small tree: the second side is the first with
    each edge column shuffled on its own (equal projections, other terms),
    both sides share some terms, and then at most one edit is made: a value
    changed, a term added, or a term dropped.  Terms are element tuples,
    not necessarily flows; some carry one more column than the tree has
    edges, which the check must not look at."""
    rt = draw(st.sampled_from(PAIR_TREES))
    group = draw(st.sampled_from([Z2, Z3, Z2Z2]))
    element = st.sampled_from(group.elements)
    width = rt.edge_count + draw(st.integers(0, 1))
    term = st.tuples(*[element] * width)
    a = draw(st.lists(term, max_size=4))
    columns = [draw(st.permutations(col)) for col in zip(*a)]
    b = list(zip(*columns))
    common = draw(st.lists(term, max_size=2))
    a = a + common
    b = draw(st.permutations(b + common))
    edit = draw(st.sampled_from(["none", "value", "add", "drop"]))
    if edit == "value" and b:
        i = draw(st.integers(0, len(b) - 1))
        ei = draw(st.integers(0, width - 1))
        f = list(b[i])
        f[ei] = draw(element)
        b[i] = tuple(f)
    elif edit == "add":
        b.append(draw(term))
    elif edit == "drop" and b:
        b.pop(draw(st.integers(0, len(b) - 1)))
    return rt, group, a, b


FQ = [flow_from_leaves(QUARTET, Z2, v) for v in
      ([(1,), (0,), (1,), (0,)], [(0,), (1,), (0,), (1,)],
       [(1,), (0,), (0,), (1,)], [(0,), (1,), (1,), (0,)])]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(multiset_pairs())
# columns that differ only in order; common flows that cancel, wholly and
# in part; empty sides; unequal sizes; a column that differs; a column past
# the last edge, which is not compared
@example((QUARTET, Z2, [FQ[0], FQ[1]], [FQ[2], FQ[3]]))
@example((QUARTET, Z2, [FQ[0], FQ[2]], [FQ[2], FQ[0]]))
@example((QUARTET, Z2, [FQ[0], FQ[1], FQ[2]], [FQ[2], FQ[3], FQ[0]]))
@example((QUARTET, Z2, [], []))
@example((QUARTET, Z2, [FQ[0]], []))
@example((QUARTET, Z2, [FQ[0], FQ[1]], [FQ[2], FQ[2]]))
@example((QUARTET, Z2, [FQ[0] + ((1,),)], [FQ[0] + ((0,),)]))
# sides of 2**width - 1 terms (packed sums) and 2**width terms (columns),
# equal and unequal
@example((QUARTET, Z2, [FQ[0], FQ[1], FQ[0]], [FQ[2], FQ[3], FQ[0]]))
@example((QUARTET, Z2, [FQ[0], FQ[1], FQ[1]], [FQ[2], FQ[3], FQ[0]]))
@example((QUARTET, Z2, [FQ[0], FQ[1]] * 2, [FQ[2], FQ[3]] * 2))
@example((QUARTET, Z2, [FQ[0]] * 4, [FQ[1]] * 4))
def test_packed_sum_check_matches_sorting_every_edge(case):
    rt, group, a, b = case
    assert outcome(lambda: binomial_from_multisets(rt, group, a, b)) == \
        outcome(lambda: sort_every_edge(rt, a, b))


def test_a_side_of_2_to_the_width_terms_takes_the_columns():
    # points that sum equal whatever the terms: below 2**width terms a side
    # cannot carry, so the sums decide; from 2**width on a slot could carry
    # and the edge columns decide, as the reference does
    width = point_width(Z2)
    assert width == 2
    for n in (2 ** width - 1, 2 ** width):
        a, b = [FQ[0]] * n, [FQ[1]] * n
        got = outcome(lambda: binomial_from_multisets(
            QUARTET, Z2, a, b, (width, [0] * n, [0] * n)))
        if n < 2 ** width:
            assert got == Binomial((FQ[0],) * n, (FQ[1],) * n)
        else:
            assert got == outcome(lambda: sort_every_edge(QUARTET, a, b))
            assert got[1] == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(PAIR_TREES + [canonical_rooting(parse_newick(
           "(((1,2),3),(4,5),6);"))]),
       st.sampled_from([Z2, Z3, Z2Z2, GroupSpec((5,))]), st.data())
def test_packed_flows_match_flow_from_leaves_and_the_verifier(rt, group, data):
    # the join's builder gives the flow flow_from_leaves builds and the
    # packed point the verifier reads from that flow, independently
    width = point_width(group)
    build = packed_flows(rt, group, width)
    head = data.draw(st.lists(st.integers(0, group.order - 1),
                              min_size=rt.leaf_count - 1,
                              max_size=rt.leaf_count - 1))
    els, table = group.elements, group.table
    s = reduce(lambda x, y: table.add[x][y], head, 0)
    leaves = [*head, table.neg[s]]
    f, point = build(leaves)
    assert f == flow_from_leaves(rt, group, [els[i] for i in leaves])
    defects, points, columns = _read_terms(rt, group, [f], width)
    assert defects == [None] and points == [point]
    assert columns == [flow_index(rt, group, f)]
    if group.order > 1:
        leaves[-1] = table.add[leaves[-1]][1]
        with pytest.raises(FlowError, match="do not sum to zero"):
            build(leaves)
    # one walk: the verifier's flows are the builder's over the join's
    # fixed-sum leaf tuples, in order, and flow_from_leaves' too
    flows = list(iter_flows(rt, group))
    assert flows == [build(h)[0] for h in halves(rt.leaf_count, group, 0)]
    assert flows == [flow_from_leaves(rt, group, f[:rt.leaf_count]) for f in flows]
    assert [flow_index(rt, group, f) for f in flows] == list(range(len(flows)))


def test_flow_cap_count_is_exact_up_to_the_cap(quartet):
    assert check_flow_cap(quartet.tree, Z3, 27) == 27
    with pytest.raises(FlowCapExceeded, match=re.escape(
            "3^3 flows exceed the cap 26 (group order 3, 4 leaves)")):
        check_flow_cap(quartet.tree, Z3, 26)


class TestJoinCalculus:
    """Joined flows as ``join_sets`` builds them from part leaf values."""

    def setup_method(self):
        rt = canonical_rooting(parse_newick("((1,2),(3,4));"))
        (edge,) = rt.interior_edges()
        self.ctx = decompose_at_edge(rt, edge)
        self.g = Z3
        self.s = join_sets(self.ctx, Z3, tripod_set(Z3), tripod_set(Z3))

    def test_path_flow(self):
        # distinguished part leaves: leaf 1 of T1 (joined label 1) and
        # leaf 1 of T2 (joined label 3); every edge quadric holds the path
        # flow of some g0: -g0 at label 1, g0 at label 3, zero elsewhere
        paths = {g0: flow_from_leaves(self.ctx.rooted, self.g,
                                      [self.g.neg(g0), (0,), g0, (0,)])
                 for g0 in self.g.elements}
        assert paths[(1,)][:4] == ((2,), (0,), (1,), (0,))
        quadrics = [b for b, tag in zip(self.s.binomials, self.s.provenance)
                    if tag == "join-edge-quadric"]
        assert len(quadrics) == 12
        for b in quadrics:
            assert any(f in paths.values() for f in b.lhs)

    def test_extension_keeps_t1_values(self):
        # a T1 flow keeps its values at joined labels 1, 2 and reroutes its
        # v1 value to label 3 (leaf 1 of T2); label 4 stays zero
        lifted = [b for b, tag in zip(self.s.binomials, self.s.provenance)
                  if tag == "join-E1"]
        parts = tripod_set(Z3).binomials
        assert len(lifted) == len(parts) == 2
        for b, b1 in zip(lifted, parts):
            assert [f[:4] for f in b.lhs] == [h[:3] + ((0,),) for h in b1.lhs]
            assert [f[:4] for f in b.rhs] == [h[:3] + ((0,),) for h in b1.rhs]


@given(st.sampled_from(["(1,2,3);", "((1,2),(3,4));", "(1,2,3,4,5);"]),
       st.sampled_from([(2,), (4,), (2, 2)]))
def test_flow_count_is_group_power(newick, factors):
    g = GroupSpec(factors)
    rt = canonical_rooting(parse_newick(newick))
    flows = enumerate_flows(rt, g)
    assert len(flows) == g.order ** (rt.leaf_count - 1)
    assert len(set(flows)) == len(flows)
