"""Flows on rooted trees: conservation, enumeration, vertex supports, binomials."""

import re
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phyloinv.errors import BinomialError, FlowError
from phyloinv.flows import (binomial_from_multisets, enumerate_flows,
                            flow_defects, flow_from_leaves, flow_index,
                            vertex_support)
from phyloinv.groups import GroupSpec
from phyloinv.pipeline import _fixed_leaf_values, join_sets, tripod_set
from phyloinv.trees import canonical_rooting, join, parse_newick, root_at

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z2Z2 = GroupSpec((2, 2))


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


FLOW_GROUPS = [GroupSpec((g,)) for g in range(2, 8)] + \
    [GroupSpec((2, 2)), GroupSpec((2, 3)), GroupSpec((2, 4))]


@st.composite
def rooted_flows(draw):
    """A random tree with 3-9 leaves, rooted at a random interior node, a
    group and leaf values summing to zero."""
    n = draw(st.integers(3, 9))
    items = [str(x) for x in draw(st.permutations(range(1, n + 1)))]
    while len(items) > 3:
        k = draw(st.integers(2, len(items) - 1))
        items = items[k:] + ["(" + ",".join(items[:k]) + ")"]
    tree = parse_newick("(" + ",".join(items) + ");")
    rt = root_at(tree, draw(st.sampled_from(tree.interior_nodes)))
    group = draw(st.sampled_from(FLOW_GROUPS))
    head = draw(st.lists(st.sampled_from(group.elements),
                         min_size=n - 1, max_size=n - 1))
    return rt, group, head + [group.neg(reduce(group.add, head, group.zero()))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rooted_flows())
def test_flow_is_sum_of_leaf_values_below(case):
    rt, group, vals = case

    def below(v):
        total, stack = group.zero(), [v]
        while stack:
            w = stack.pop()
            if w <= rt.leaf_count:
                total = group.add(total, vals[w - 1])
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


def test_fixed_leaf_enumeration(quartet):
    fixed = list(_fixed_leaf_values(4, Z3, 2, (1,)))
    assert len(fixed) == 9
    assert all(vals[1] == (1,) for vals in fixed)
    assert len(set(fixed)) == 9
    # every tuple is the leaf part of a flow
    assert all(flow_from_leaves(quartet, Z3, vals)[:4] == vals for vals in fixed)


def test_flow_defects_name_the_fault(quartet):
    f = flow_from_leaves(quartet, Z3, [(1,), (1,), (2,), (2,)])
    moved = f[:4] + ((2,),)
    outside = ((3,),) + f[1:]
    defects = flow_defects(quartet, Z3, [f, moved, outside, f[:4]])
    assert set(defects) == {moved, outside, f[:4]}
    assert "conserve" in defects[moved]
    assert "not in Z3" in defects[outside]
    assert "4 edge values" in defects[f[:4]]


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


def test_binomial_cancels_common_flows(quartet):
    flows = enumerate_flows(quartet, Z2)
    b = binomial_from_multisets(quartet, Z2, [flows[0], flows[1]],
                                [flows[1], flows[0]])
    assert b.is_trivial
    assert b.degree == 0


def test_edge_swap_binomial(quartet):
    # two flows agreeing on the interior edge, halves swapped
    fa = flow_from_leaves(quartet, Z2, [(1,), (0,), (1,), (0,)])
    fb = flow_from_leaves(quartet, Z2, [(0,), (1,), (0,), (1,)])
    fc = flow_from_leaves(quartet, Z2, [(1,), (0,), (0,), (1,)])
    fd = flow_from_leaves(quartet, Z2, [(0,), (1,), (1,), (0,)])
    b = binomial_from_multisets(quartet, Z2, [fa, fb], [fc, fd])
    assert b.degree == 2


class TestJoinCalculus:
    """Joined flows as ``join_sets`` builds them from part leaf values."""

    def setup_method(self):
        t = parse_newick("(1,2,3);")
        self.ctx = join(t, 3, t, 3)
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
