"""Tree structure, Newick parsing, rooting and decompositions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import is_trivalent
from phyloinv.errors import InvalidTreeError, NewickParseError
from phyloinv.trees import (RootedTree, Tree, canonical_rooting,
                            decompose_at_edge, parse_newick, tree_to_json)


def tripod():
    return parse_newick("(1,2,3);")


def quartet():
    return parse_newick("((1,2),(3,4));")


class TestParsing:
    def test_tripod(self):
        t = tripod()
        assert t.leaf_count == 3
        assert t.edge_count == 3
        assert t.interior_node_count == 1
        assert t.is_claw

    def test_quartet(self):
        t = quartet()
        assert t.leaf_count == 4
        assert t.edge_count == 5
        assert t.interior_node_count == 2
        assert not t.is_claw
        assert is_trivalent(t)

    def test_root_of_degree_two_is_suppressed(self):
        # "((1,2),(3,4));" puts a binary node at the top; the resulting
        # unrooted tree must still have all interior valencies >= 3
        t = quartet()
        assert all(len(t.neighbors(v)) >= 3 for v in t.interior_nodes)

    def test_claw_from_newick(self):
        t = parse_newick("(1,2,3,4,5);")
        assert t.is_claw
        assert t.interior_node_count == 1

    def test_whitespace_and_lengths_tolerated(self):
        t = parse_newick(" ( (1:0.1, 2:0.2) : 1.5, (3,4), 5 ) ; ")
        assert t.leaf_count == 5

    def test_caterpillar(self):
        t = parse_newick("((((1,2),3),4),(5,6));")
        assert t.leaf_count == 6
        assert t.edge_count == 9
        assert is_trivalent(t)

    @pytest.mark.parametrize("bad,frag", [
        ("", "expected"),
        ("(1,2,3)", "expected ';'"),
        ("(1,2,3));", "expected ';'"),
        ("((1,2,3);", "expected"),
        ("(1,2,,3);", "expected"),
        ("(1,2,3;);", "expected"),
        ("(1,x,3);", "expected"),
        ("(1,2,3);junk", "trailing"),
        # int() reads other scripts' digits, so \d took (١,2,3); for (1,2,3);
        ("(\u0661,2,3);", "expected a leaf label or '(' at position 1"),
        ("(1,2,3\u0663);", "expected ')' at position 6"),
        ("(1,2:\u0665,3);", "expected a branch length after ':' at position 5"),
    ])
    def test_syntax_errors(self, bad, frag):
        with pytest.raises(NewickParseError) as exc:
            parse_newick(bad)
        assert frag in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(NewickParseError) as exc:
            parse_newick("(1,2,,3);")
        assert exc.value.position == 5

    def test_duplicate_labels(self):
        with pytest.raises(InvalidTreeError, match="duplicate leaf label"):
            parse_newick("(1,2,2);")

    def test_labels_must_cover_range(self):
        with pytest.raises(InvalidTreeError, match="1..3"):
            parse_newick("(1,2,4);")

    def test_range_error_names_smallest_missing_and_count_outside(self):
        with pytest.raises(InvalidTreeError) as exc:
            parse_newick("(7,2,(9,1),3);")
        assert str(exc.value) == ("leaf labels must be exactly 1..5; smallest "
                                  "missing label 4; 2 labels above the range, "
                                  "the smallest 7")

    @pytest.mark.parametrize("label,shown", [
        ("9" * 20, "the smallest " + "9" * 20),
        ("9" * 21, "the smallest has 21 digits"),
    ], ids=["20-digits", "21-digits"])
    def test_range_error_shows_a_long_label_by_its_digit_count(self, label,
                                                                shown):
        with pytest.raises(InvalidTreeError) as exc:
            parse_newick(f"(1,2,{label});")
        assert str(exc.value) == ("leaf labels must be exactly 1..3; smallest "
                                  f"missing label 3; 1 label above the range, "
                                  f"{shown}")

    def test_overlong_label_is_a_parse_error(self):
        # more digits than int() converts by default
        with pytest.raises(NewickParseError, match="too long") as exc:
            parse_newick("(1,2," + "9" * 5000 + ");")
        assert exc.value.position == 5

    def test_two_leaves_rejected(self):
        with pytest.raises(InvalidTreeError, match="fewer than 3"):
            parse_newick("(1,2);")

    def test_inner_degree_two_rejected(self):
        # ((1),2,3); has a valency-2 interior node above leaf 1
        with pytest.raises(NewickParseError):
            parse_newick("((1),2,3);")


# Tree.edges of parsed inputs: interior ids follow the leaves in order of
# "(", a binary root is merged into one edge appended last.  Rooting, flows
# and every output byte depend on this numbering and order.
EDGE_PINS = [
    ("((1,2),(3,4));", ((1, 5), (2, 5), (3, 6), (4, 6), (5, 6))),
    ("((((1,2),3),4),(5,6));", ((1, 9), (2, 9), (8, 9), (3, 8), (7, 8),
                                (4, 7), (5, 10), (6, 10), (7, 10))),
    ("((1,2),3);", ((1, 4), (2, 4), (3, 4))),
    ("(1,2,3);", ((1, 4), (2, 4), (3, 4))),
    ("(1,2,3,4,5);", ((1, 6), (2, 6), (3, 6), (4, 6), (5, 6))),
    ("((1,2),(3,4),5);", ((1, 7), (2, 7), (6, 7), (3, 8), (4, 8), (6, 8),
                          (5, 6))),
    ("(1,(2,(3,4)),5);", ((1, 6), (2, 7), (3, 8), (4, 8), (7, 8), (6, 7),
                          (5, 6))),
    ("((3,(1,5)),4,2);", ((3, 7), (1, 8), (5, 8), (7, 8), (6, 7), (4, 6),
                          (2, 6))),
    (" ( (1:0.1, 2:0.2) : 1.5, (3,4), 5 ) ; ",
     ((1, 7), (2, 7), (6, 7), (3, 8), (4, 8), (6, 8), (5, 6))),
    ("((2:1e-3,1) :2 ,\n(4,\t3:.5));",
     ((2, 5), (1, 5), (4, 6), (3, 6), (5, 6))),
]


class TestNumbering:
    @pytest.mark.parametrize("text,edges", EDGE_PINS)
    def test_edges_pinned(self, text, edges):
        assert parse_newick(text).edges == edges

    def test_deep_caterpillar_edges(self):
        # 1200 leaves nested 1199 deep; the binary root is merged, so the
        # group whose last leaf is k gets id 2400 - k
        text = "(1,2)"
        for leaf in range(3, 1201):
            text = f"({text},{leaf})"
        expected = [(1, 2398), (2, 2398)]
        for k in range(3, 1200):
            expected += [(2400 - k, 2401 - k), (k, 2400 - k)]
        expected.append((1200, 1201))
        assert parse_newick(text + ";").edges == tuple(expected)


NEWICK_ALPHABET = "(),;:0123456789.e-+ \t\n"


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.text(alphabet=NEWICK_ALPHABET, max_size=30))
def test_any_newick_text_parses_or_is_refused_cleanly(text):
    try:
        tree = parse_newick(text)
    except (NewickParseError, InvalidTreeError):
        return
    assert parse_newick(tree.canonical_newick()) == tree


class TestTree:
    def test_validation_rejects_degree_two_interior(self):
        with pytest.raises(InvalidTreeError):
            Tree(3, [(1, 4), (4, 5), (5, 2), (5, 3)])

    def test_validation_rejects_disconnected(self):
        with pytest.raises(InvalidTreeError):
            Tree(4, [(1, 5), (2, 5), (3, 6), (4, 6), (5, 5)])

    def test_validation_rejects_leaf_valency(self):
        with pytest.raises(InvalidTreeError):
            Tree(3, [(1, 2), (1, 3), (1, 4)])

    def test_canonical_newick_roundtrip(self):
        for text in ["(1,2,3);", "((1,2),(3,4));", "((((1,2),3),4),(5,6));",
                     "(1,2,3,4,5);", "((1,2),(3,4),5);"]:
            t = parse_newick(text)
            again = parse_newick(t.canonical_newick())
            assert again == t

    def test_label_respecting_equality(self):
        a = parse_newick("((1,2),(3,4));")
        b = parse_newick("((3,4),(1,2));")
        c = parse_newick("((1,3),(2,4));")
        assert a == b
        assert a != c


def test_several_duplicates_name_the_smallest():
    with pytest.raises(InvalidTreeError, match="duplicate leaf label 2$"):
        parse_newick("((5,5),(3,2),(2,1),3);")


class TestRooting:
    def test_canonical_root_is_neighbor_of_leaf_one(self):
        t = quartet()
        rt = canonical_rooting(t)
        assert rt.root in t.neighbors(1)

    def test_edge_order_pendants_first(self):
        rt = canonical_rooting(parse_newick("((1,2),(3,4));"))
        kids = [child for _, child in rt.edges[:4]]
        assert kids == [1, 2, 3, 4]
        assert len(rt.interior_edges()) == 1

    def test_leaves_below(self):
        rt = canonical_rooting(parse_newick("((((1,2),3),4),(5,6));"))
        ell = rt.leaf_count

        def leaves_under(u):
            return sorted(w for w in rt.nodes_below(u) if w <= ell)

        assert leaves_under(rt.root) == list(range(1, ell + 1))
        counts = {u: len(leaves_under(u)) for u in rt.children}
        for u, cs in rt.children.items():
            assert counts[u] == (sum(counts[c] for c in cs) if cs else 1)
        assert sorted(counts[u] for u in rt.tree.interior_nodes) == [2, 3, 4, 6]
        # the far side of a decomposition edge is exactly the leaves under it
        for u, v in rt.interior_edges():
            ctx = decompose_at_edge(rt, (u, v))
            assert sorted(ctx.leaf_map2.values()) == leaves_under(v)

    def test_reroot_preserves_edge_set(self):
        t = parse_newick("((((1,2),3),4),(5,6));")
        for v in t.interior_nodes:
            rt = RootedTree(t, v)
            assert {frozenset(e) for e in rt.edges} == \
                   {frozenset(e) for e in t.edges}

    def test_json_shape(self):
        d = tree_to_json(canonical_rooting(tripod()))
        assert d["leaves"] == 3
        assert len(d["edges"]) == 3
        assert all(parent == 4 for parent, _ in d["edges"])


class TestJoinDecompose:
    def test_decompose_quartet_gives_two_tripods(self):
        rt = canonical_rooting(quartet())
        (edge,) = rt.interior_edges()
        ctx = decompose_at_edge(rt, edge)
        assert ctx.rooted is rt
        assert ctx.t1 == ctx.t2 == tripod()
        assert ctx.t1.leaf_count == ctx.t2.leaf_count == 3
        assert ctx.leaf_map1 == {1: 1, 2: 2}
        assert ctx.leaf_map2 == {1: 3, 2: 4}

    def test_decompose_leaf_relabelling(self):
        # each side's leaves keep ascending order as 1, 2 in their part
        rt = canonical_rooting(parse_newick("((1,3),(2,4));"))
        (edge,) = rt.interior_edges()
        ctx = decompose_at_edge(rt, edge)
        assert ctx.leaf_map1 == {1: 1, 2: 3}
        assert ctx.leaf_map2 == {1: 2, 2: 4}
        assert ctx.t1.leaf_count == ctx.t2.leaf_count == 3

    def test_decompose_parts_cover_the_tree(self):
        rt = canonical_rooting(parse_newick("((((1,2),3),4),(5,6));"))
        parts = {}
        for edge in rt.interior_edges():
            ctx = decompose_at_edge(rt, edge)
            side1 = set(ctx.leaf_map1.values())
            side2 = set(ctx.leaf_map2.values())
            assert side1 | side2 == set(range(1, 7))
            assert side1.isdisjoint(side2)
            # the fresh leaf is labelled last and the parts share one edge
            assert set(ctx.leaf_map1) == set(range(1, ctx.t1.leaf_count))
            assert set(ctx.leaf_map2) == set(range(1, ctx.t2.leaf_count))
            assert ctx.t1.edge_count + ctx.t2.edge_count == rt.edge_count + 1
            parts[len(side2)] = (ctx.t1, ctx.t2)
        assert parts == {
            4: (parse_newick("(1,2,3);"), parse_newick("(1,(2,(3,4)),5);")),
            3: (parse_newick("(1,2,(3,4));"), parse_newick("(1,(2,3),4);")),
            2: (parse_newick("(1,2,(3,(4,5)));"), parse_newick("(1,2,3);")),
        }

    def test_decompose_rejects_pendant_edge(self):
        rt = canonical_rooting(quartet())
        with pytest.raises(InvalidTreeError):
            decompose_at_edge(rt, rt.edges[0])

