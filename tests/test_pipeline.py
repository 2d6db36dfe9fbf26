"""End-to-end construction pipeline: joins, claw quadrics, provenance."""

import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import join_sets_reference
from phyloinv import pipeline
from phyloinv.errors import FlowCapExceeded, FlowError, InternalError
from phyloinv.flows import Binomial, binomial_from_multisets, packed_point
from phyloinv.groups import GroupSpec, parse_group_spec
from phyloinv.oracle import codim, verify_complete_intersection
from phyloinv.pipeline import (GenerateOptions, InvariantSet, algebra_text,
                               canonical_claw, claw_set, generate, join_sets,
                               nonspecial_quadric, special_quadric,
                               tripod_set)
from phyloinv.trees import canonical_rooting, decompose_at_edge, parse_newick

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))


def gen(newick, group_text, **kw):
    return generate(parse_newick(newick), parse_group_spec(group_text),
                    GenerateOptions(**kw) if kw else None)


class TestTripodSet:
    def test_counts(self):
        for text, want in [("Z2", 0), ("Z3", 2), ("Z4", 6), ("Z2xZ2", 6),
                           ("Z5", 12), ("Z2xZ3", 20)]:
            s = tripod_set(parse_group_spec(text))
            assert len(s) == want
            assert all(tag == "tripod" for tag in s.provenance)


def quartet_context():
    """The quartet split at its interior edge into two tripods."""
    rt = canonical_rooting(parse_newick("((1,2),(3,4));"))
    (edge,) = rt.interior_edges()
    return decompose_at_edge(rt, edge)


class TestJoinSets:
    def test_quartet_z2_edge_invariants(self):
        ctx = quartet_context()
        s = join_sets(ctx, Z2, tripod_set(Z2), tripod_set(Z2))
        assert len(s) == 2 == codim(ctx.rooted.tree, Z2)
        assert Counter(s.provenance) == {"join-edge-quadric": 2}
        assert all(b.degree == 2 for b in s.binomials)

    def test_quartet_z3_family_counts(self):
        ctx = quartet_context()
        s = join_sets(ctx, Z3, tripod_set(Z3), tripod_set(Z3))
        assert len(s) == 16 == codim(ctx.rooted.tree, Z3)
        counts = Counter(s.provenance)
        assert counts["join-E1"] == 2
        assert counts["join-E2"] == 2
        assert counts["join-edge-quadric"] == 12
        (entry,) = s.join_log
        assert entry["family_quadric"] == 12  # g (g-1)(g-1) for two tripods
        assert entry["family_e1"] + entry["family_e2"] + \
               entry["family_quadric"] == entry["codim"]

    def test_quadric_count_formula(self):
        # g * (g^(l1-2) - 1) * (g^(l2-2) - 1) on a 5-leaf join
        # split at the edge between the node of leaves 1, 2 and that of leaf 5
        rt = canonical_rooting(parse_newick("((1,2),((3,4),5));"))
        ctx = decompose_at_edge(rt, (rt.parent[1], rt.parent[5]))
        t2 = parse_newick("((1,2),(3,4));")
        assert ctx.t2 == t2 and ctx.t2.leaf_count == 4
        s = join_sets(ctx, Z2, tripod_set(Z2), generate(t2, Z2))
        (entry,) = [e for e in s.join_log if e["leaves"] == 5]
        assert entry["family_quadric"] == 2 * (2 ** 1 - 1) * (2 ** 2 - 1)

    def test_short_part_set_raises_internal_error(self):
        # a raised error, not an assert, so that python -O keeps the check
        ctx = quartet_context()
        s1 = tripod_set(Z3)
        short = InvariantSet(s1.rooted, Z3, s1.binomials[1:], s1.provenance[1:])
        with pytest.raises(InternalError, match="1 binomials, codim 2"):
            join_sets(ctx, Z3, short, tripod_set(Z3))
        assert not issubclass(InternalError, ValueError)


class TestClawSet:
    def test_four_claw_z2(self):
        s = claw_set(4, tripod_set(Z2))
        assert len(s) == 3 == codim(canonical_claw(4), Z2)
        counts = Counter(s.provenance)
        assert counts["claw-special"] == 1
        assert counts["contracted-from-T'"] == 2

    def test_four_claw_z3(self):
        s = claw_set(4, tripod_set(Z3))
        assert len(s) == 18
        counts = Counter(s.provenance)
        assert counts["claw-special"] + counts["claw-nonspecial"] == 2

    def test_five_claw_z2(self):
        s = claw_set(5, tripod_set(Z2))
        assert len(s) == 10 == codim(canonical_claw(5), Z2)

    def test_claw_splits_t_prime_into_tripod_and_smaller_claw(self, monkeypatch):
        # the context of the n-claw step: T' split at its interior edge
        # into the 3-claw on leaves {1, 2} and the (n-1)-claw on 3..n
        contexts = []
        real = pipeline.join_sets

        def recording(ctx, *args):
            contexts.append(ctx)
            return real(ctx, *args)

        monkeypatch.setattr(pipeline, "join_sets", recording)
        claw_set(7, tripod_set(Z2))
        assert len(contexts) == 4
        for n, ctx in zip(range(4, 8), contexts):
            rest = ",".join(map(str, range(3, n + 1)))
            assert ctx.rooted.tree == parse_newick(f"((1,2),{rest});")
            assert ctx.t1 == canonical_claw(3) and ctx.t1.leaf_count == 3
            assert ctx.t2 == canonical_claw(n - 1)
            assert ctx.t2.leaf_count == n - 1
            assert ctx.leaf_map1 == {1: 1, 2: 2}
            assert ctx.leaf_map2 == {k: k + 2 for k in range(1, n - 1)}

    @pytest.mark.parametrize("newick,group,kw", [
        ("(1,2,3,4,5,6,7);", "Z2", {}),
        ("((((((1,2),3),4),5),6),7,8);", "Z3", {}),
        ("((1,2),(3,4),(5,6));", "Z2xZ2", {"seed": 0}),
    ])
    def test_generate_builds_one_tripod_set(self, monkeypatch, newick, group,
                                            kw):
        # every tripod part and claw level shares the one tripod set
        calls = []
        real = pipeline.tripod_set

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pipeline, "tripod_set", counted)
        s = gen(newick, group, **kw)
        assert len(s) == codim(parse_newick(newick), parse_group_spec(group))
        assert len(calls) == 1

    @pytest.mark.parametrize("group,mode", [
        ("Z2", "direct-cyclic"), ("Z3", "direct-cyclic"),
        ("Z4", "direct-cyclic"), ("Z2xZ2", "direct-cyclic"),
        ("Z6", "factored"),
    ])
    def test_contracted_binomials_are_valid_claw_binomials(self, group, mode):
        # the T' binomials are sliced to the claw without a second check:
        # checking the slice again must give back the same binomial; each
        # distinct flow is sliced once, so the set holds one object per flow
        g = parse_group_spec(group)
        tripod = tripod_set(g, mode)
        for n in range(4, 7):
            s = claw_set(n, tripod)
            claw_rt = canonical_rooting(canonical_claw(n))
            contracted = [b for b, tag in zip(s.binomials, s.provenance)
                          if tag == "contracted-from-T'"]
            assert len(contracted) == len(s) - (g.order - 1)
            for b in contracted:
                assert binomial_from_multisets(claw_rt, g, b.lhs, b.rhs) == b
            terms = [f for b in contracted for f in b.lhs + b.rhs]
            assert len(set(map(id, terms))) == len(set(terms))

    def test_each_constructed_binomial_is_checked_once(self, monkeypatch):
        # one check per binomial a join or a claw quadric builds: the join
        # families of every T' plus g-1 quadrics per claw level
        calls = []
        real = pipeline.binomial_from_multisets

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pipeline, "binomial_from_multisets", counted)
        s = gen("(1,2,3,4,5);", "Z6", mode="factored")
        families = sum(e["family_e1"] + e["family_e2"] + e["family_quadric"]
                       for e in s.join_log)
        assert len(s.join_log) == 2  # T' of the 4- and the 5-claw
        assert len(calls) == families + 2 * 5 == 1465

    def test_broken_lifted_flow_is_caught_in_the_t_prime_join(self,
                                                               monkeypatch):
        # swap the leaf indices of leaves 1 and 2 in the first joined flow
        # where they differ (its packed point is built from the swapped
        # leaves too): the T' join check must name a claw (pendant) edge
        real = pipeline.packed_flows
        broken = []

        def swapping_builder(rt, group, width):
            build = real(rt, group, width)

            def swapping(leaves):
                leaves = tuple(leaves)
                if not broken and leaves[0] != leaves[1]:
                    broken.append(leaves)
                    leaves = (leaves[1], leaves[0]) + leaves[2:]
                return build(leaves)

            return swapping

        monkeypatch.setattr(pipeline, "packed_flows", swapping_builder)
        with pytest.raises(InternalError,
                           match=r"BinomialError: projections to edge [0-3] "
                                 r"\(\d+, [1-4]\)"):
            gen("(1,2,3,4);", "Z3")
        assert broken

    def test_claw_three_is_tripod(self):
        s = claw_set(3, tripod_set(Z3))
        assert Counter(s.provenance) == {"tripod": 2}

    def test_quadrics_are_valid_binomials(self):
        rt = canonical_rooting(canonical_claw(5))
        g = parse_group_spec("Z2xZ3")
        units = g.units()
        for el in g.elements[1:]:
            if el in units:
                b = special_quadric(rt, g, units.index(el) + 1)
            else:
                b = nonspecial_quadric(rt, g, el)
            assert b.degree == 2
            # revalidates the per-edge multiset condition
            binomial_from_multisets(rt, g, list(b.lhs), list(b.rhs))

    def test_nonspecial_quadric_z2xz3_values(self):
        rt = canonical_rooting(canonical_claw(4))
        g = parse_group_spec("Z2xZ3")
        b = nonspecial_quadric(rt, g, (1, 2))
        flat = [v for f in b.lhs + b.rhs for v in f]
        assert (0, 1) in flat  # the largest-index unit
        assert (1, 1) in flat  # the complement b - u


class TestGenerate:
    def test_trivalent_five_leaf_both_shapes(self):
        for text in ("((1,2),(3,4),5);", "(((1,2),3),(4,5));"):
            t = parse_newick(text)
            s = generate(t, Z2)
            assert len(s) == codim(t, Z2) == 8

    def test_mixed_tree_with_claw_part(self):
        t = parse_newick("((1,2,3),4,5);")
        s = generate(t, Z2)
        assert len(s) == codim(t, Z2)

    def test_seed_changes_nothing_substantive(self):
        t = parse_newick("((((1,2),3),4),(5,6));")
        base = generate(t, Z3)
        for seed in (0, 1, 99):
            s = generate(t, Z3, GenerateOptions(seed=seed))
            assert len(s) == len(base)
            assert {b for b in s.binomials} != set()

    def test_deterministic_without_seed(self):
        t = parse_newick("(((1,2),3),(4,5));")
        a = generate(t, Z3)
        b = generate(t, Z3)
        assert a.binomials == b.binomials
        assert a.provenance == b.provenance

    def test_flow_cap(self):
        with pytest.raises(FlowCapExceeded):
            gen("((((1,2),3),4),(5,6));", "Z3", flow_cap=100)

    def test_json_layout(self):
        s = gen("(1,2,3);", "Z3")
        d = s.to_json()
        assert d["group"] == "Z3"
        assert d["codim"] == 2
        assert len(d["invariants"]) == 2
        inv = d["invariants"][0]
        assert set(inv) == {"degree", "provenance", "lhs", "rhs"}

    def test_algebra_text_lines(self):
        s = gen("(1,2,3);", "Z3")
        lines = algebra_text(s).strip().splitlines()
        assert len(lines) == 2
        assert all(" - " in line for line in lines)

    @pytest.mark.parametrize("newick,group", [
        ("(1,2,3);", "Z2"), ("(1,2,3);", "Z3"), ("((1,2),(3,4));", "Z2")])
    def test_algebra_text_has_one_line_per_binomial(self, newick, group):
        # the Z2 tripod has codim 0 and writes nothing, not one blank line
        s = gen(newick, group)
        text = algebra_text(s)
        assert text.count("\n") == len(s)
        assert len(s) or text == ""

    def test_algebra_text_of_a_set_rebuilt_from_json(self):
        # JSON gives the terms back as lists; the text is the same
        s = gen("((1,2),(3,4));", "Z3")
        doc = json.loads(json.dumps(s.to_json()))
        rebuilt = InvariantSet(
            s.rooted, s.group,
            [Binomial(inv["lhs"], inv["rhs"]) for inv in doc["invariants"]],
            [inv["provenance"] for inv in doc["invariants"]])
        assert isinstance(rebuilt.binomials[0].lhs[0], list)
        assert algebra_text(rebuilt) == algebra_text(s)

    @pytest.mark.parametrize("bad, shown", [
        (lambda b: Binomial(5, b.rhs), "5"),
        (lambda b: Binomial(({"a": 1},) + b.lhs[1:], b.rhs), "{'a': 1}"),
        (lambda b: Binomial(b.lhs, b.rhs + ([],)), "()"),
        (lambda b: Binomial((((10**5000,),) + b.lhs[0][1:],) + b.lhs[1:], b.rhs),
         "((<int of 5001 digits>,), (1,), (2,), (0,), (2,))"),
    ], ids=["int", "dict", "empty-list", "int-too-long-to-print"])
    def test_algebra_text_names_a_term_that_is_no_sequence(self, bad, shown):
        # the verifier names the same term in the same words
        s = gen("((1,2),(3,4));", "Z3")
        sab = InvariantSet(s.rooted, s.group, [bad(s.binomials[0])]
                           + s.binomials[1:], list(s.provenance))
        with pytest.raises(FlowError, match=re.escape(
                f"term {shown} is not a sequence of element tuples")):
            algebra_text(sab)
        assert any(m.startswith(f"binomial 0: term {shown} is not a flow: ")
                   for m in verify_complete_intersection(sab).failures)

    def test_json_refuses_provenance_shorter_than_the_binomials(self):
        s = gen("((1,2),(3,4));", "Z3")
        short = InvariantSet(s.rooted, s.group, s.binomials, s.provenance[:-1])
        with pytest.raises(ValueError, match="shorter"):
            short.to_json()

    def test_factored_mode_on_composite_factor(self):
        t = parse_newick("((1,2),(3,4));")
        g = parse_group_spec("Z6")
        s = generate(t, g, GenerateOptions(mode="factored", flow_cap=10 ** 6))
        assert len(s) == codim(t, g)


def test_join_builds_each_flow_once(monkeypatch):
    # every join of a Z3 caterpillar; within one join_sets call no joined
    # flow is built from the same leaf indices twice, and only the flows
    # with a part-sized half are built: the g^(k1-1) with h2 = p2, the
    # g^(k2-1) with h1 = p1, the g path flows in both (87, 51 and 87)
    rt = canonical_rooting(parse_newick("(((((1,2),3),4),5),6);"))
    joins = []
    for edge in rt.interior_edges():
        ctx = decompose_at_edge(rt, edge)
        joins.append((ctx, generate(ctx.t1, Z3), generate(ctx.t2, Z3)))
    builds: Counter = Counter()
    real = pipeline.packed_flows

    def counted_builder(rt, group, width):
        build = real(rt, group, width)

        def counted(leaves):
            leaves = tuple(leaves)
            builds[leaves] += 1
            return build(leaves)

        return counted

    monkeypatch.setattr(pipeline, "packed_flows", counted_builder)
    for ctx, s1, s2 in joins:
        builds.clear()
        s = join_sets(ctx, Z3, s1, s2)
        assert len(s) == codim(ctx.rooted.tree, Z3)
        assert builds and max(builds.values()) == 1
        k1, k2 = ctx.t1.leaf_count, ctx.t2.leaf_count
        assert builds.total() == 3 ** (k1 - 1) + 3 ** (k2 - 1) - 3


@st.composite
def join_cases(draw):
    """A random tree with 4-7 leaves, interior nodes of any degree, and a
    group of order at most 4."""
    n = draw(st.integers(4, 7))
    items = [str(x) for x in draw(st.permutations(range(1, n + 1)))]
    while len(items) > 3:
        k = draw(st.integers(2, len(items) - 1))
        items = items[k:] + ["(" + ",".join(items[:k]) + ")"]
    group = draw(st.sampled_from(["Z2", "Z3", "Z4", "Z2xZ2"]))
    return parse_newick("(" + ",".join(items) + ");"), parse_group_spec(group)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(join_cases())
def test_join_matches_the_full_tuple_reference(case):
    # every interior edge: the join on halves and the join on full part
    # tuples give the same binomials, provenance and join log
    tree, group = case
    rt = canonical_rooting(tree)
    for edge in rt.interior_edges():
        ctx = decompose_at_edge(rt, edge)
        s1, s2 = generate(ctx.t1, group), generate(ctx.t2, group)
        got = join_sets(ctx, group, s1, s2)
        want = join_sets_reference(ctx, group, s1, s2)
        assert got.binomials == want.binomials
        assert got.provenance == want.provenance
        assert got.join_log == want.join_log


@settings(max_examples=40, deadline=None, derandomize=True)
@given(join_cases())
def test_join_hands_the_check_exact_points(case):
    # a wrong point can pass: the sums differ, the columns agree and the
    # same binomial comes back, so every point handed in is compared with
    # the term's own packing
    tree, group = case
    rt = canonical_rooting(tree)
    contexts = [decompose_at_edge(rt, edge) for edge in rt.interior_edges()]
    parts = [(ctx, generate(ctx.t1, group), generate(ctx.t2, group))
             for ctx in contexts]
    calls = []

    def checked(rt, group, m1, m2, points):
        width, p1, p2 = points
        for terms, got in ((m1, p1), (m2, p2)):
            assert [packed_point(rt, group, width, f) for f in terms] == list(got)
        calls.append(None)
        return binomial_from_multisets(rt, group, m1, m2, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "binomial_from_multisets", checked)
        for ctx, s1, s2 in parts:
            calls.clear()
            s = join_sets(ctx, group, s1, s2)
            assert len(calls) == len(s)
