"""Leaf-labelled trees with a deterministic rooted form.

Leaves are the nodes ``1..leaf_count`` (the node id is the label); interior
nodes use ids above ``leaf_count``.  Interior nodes must have valency >= 3
and a tree needs at least three leaves.  The rooted form orients every edge
away from the root and fixes the canonical edge order: pendant edges sorted
by leaf label, then interior edges in breadth-first discovery order (BFS
explores neighbours in ascending node id).  Flows and all invariant
constructions rely on exactly this order.

Newick subset accepted by the parser::

    tree    := subtree ";"
    subtree := label | "(" subtree ("," subtree)+ ")"
    label   := positive integer

with leaf labels exactly 1..leaf_count.  An optional ":<number>" branch
length after any subtree is accepted and discarded.  A root written with
exactly two children is suppressed (its two edges merge into one).
Interior nodes are numbered leaf_count+1, leaf_count+2, ... in the order of
their "(" in the text; a suppressed root takes no number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidTreeError, NewickParseError, digit_count

Edge = tuple[int, int]


class Tree:
    """An unrooted leaf-labelled tree."""

    __slots__ = ("leaf_count", "edges", "_adj", "_canon")

    def __init__(self, leaf_count: int, edges: Iterable[Edge]):
        if leaf_count < 3:
            raise InvalidTreeError(f"fewer than 3 leaves (got {leaf_count})")
        norm = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise InvalidTreeError(f"self-loop at node {u}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise InvalidTreeError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        self.leaf_count = leaf_count
        self.edges: tuple[Edge, ...] = tuple(norm)

        nodes = {u for e in self.edges for u in e}
        n = len(nodes)
        if nodes != set(range(1, n + 1)):
            raise InvalidTreeError(f"node ids must be contiguous 1..{n}, got {sorted(nodes)}")
        if not set(range(1, leaf_count + 1)) <= nodes:
            raise InvalidTreeError("every leaf label 1..leaf_count must appear as a node")
        if len(self.edges) != n - 1:
            raise InvalidTreeError(f"a tree on {n} nodes needs {n - 1} edges, got {len(self.edges)}")

        adj: dict[int, list[int]] = {u: [] for u in nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {u: tuple(sorted(vs)) for u, vs in adj.items()}

        for u in nodes:
            d = len(self._adj[u])
            if u <= leaf_count and d != 1:
                raise InvalidTreeError(f"leaf {u} has valency {d}, expected 1")
            if u > leaf_count and d < 3:
                raise InvalidTreeError(f"interior node {u} has valency {d} < 3")

        # connectivity (|E| = |V|-1 plus connected <=> tree)
        stack = [1]
        seen_nodes = {1}
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen_nodes:
                    seen_nodes.add(v)
                    stack.append(v)
        if seen_nodes != nodes:
            raise InvalidTreeError("tree is not connected")

        self._canon: str | None = None

    # -- shape queries -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def interior_nodes(self) -> tuple[int, ...]:
        return tuple(range(self.leaf_count + 1, self.n_nodes + 1))

    @property
    def interior_node_count(self) -> int:
        return self.n_nodes - self.leaf_count

    @property
    def is_claw(self) -> bool:
        return self.interior_node_count == 1

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def canonical_root(self) -> int:
        """The interior node adjacent to leaf 1."""
        return self._adj[1][0]

    def canonical_newick(self) -> str:
        """Deterministic Newick form: rooted next to leaf 1, children by min leaf."""
        if self._canon is None:
            rt = RootedTree(self, self.canonical_root())
            # (min leaf, text) per node, children before parents
            rendered = {leaf: (leaf, str(leaf))
                        for leaf in range(1, self.leaf_count + 1)}
            for u in reversed(rt.interior_discovery):
                parts = sorted(rendered[c] for c in rt.children[u])
                rendered[u] = (parts[0][0],
                               "(" + ",".join(p[1] for p in parts) + ")")
            self._canon = rendered[rt.root][1] + ";"
        return self._canon

    # interior node numbers carry no meaning, so equality goes through the
    # canonical form: equal iff the same leaf-labelled shape
    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (self.leaf_count == other.leaf_count
                and self.canonical_newick() == other.canonical_newick())

    def __hash__(self):
        return hash((self.leaf_count, self.canonical_newick()))

    def __repr__(self):
        return f"Tree({self.canonical_newick()!r})"


class RootedTree:
    """A tree with a distinguished interior root and the canonical edge order."""

    __slots__ = ("tree", "root", "parent", "children", "edges", "edge_index",
                 "bottom_up", "interior_discovery")

    def __init__(self, tree: Tree, root: int):
        if root <= tree.leaf_count:
            raise InvalidTreeError(f"cannot root at leaf {root}")
        self.tree = tree
        self.root = root
        parent: dict[int, int | None] = {root: None}
        children: dict[int, list[int]] = {u: [] for u in range(1, tree.n_nodes + 1)}
        interior_edges: list[Edge] = []
        discovery: list[int] = [root]
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v in tree.neighbors(u):
                    if v not in parent:
                        parent[v] = u
                        children[u].append(v)
                        nxt.append(v)
                        if v > tree.leaf_count:
                            interior_edges.append((u, v))
                            discovery.append(v)
            queue = nxt
        self.parent = parent
        self.children = {u: tuple(cs) for u, cs in children.items()}
        pendant = [(parent[leaf], leaf) for leaf in range(1, tree.leaf_count + 1)]
        self.edges: tuple[Edge, ...] = tuple(pendant) + tuple(interior_edges)
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.interior_discovery = tuple(discovery)

        # each interior edge with the edges leaving its lower end, children
        # before parents (reverse discovery order): a flow's value on an
        # edge is the sum of the values just below it
        self.bottom_up: tuple[tuple[int, tuple[int, ...]], ...] = tuple(
            (self.edge_index[(parent[v], v)],
             tuple(self.edge_index[(v, c)] for c in self.children[v]))
            for v in reversed(discovery[1:]))

    @property
    def leaf_count(self) -> int:
        return self.tree.leaf_count

    @property
    def edge_count(self) -> int:
        return self.tree.edge_count

    def interior_edges(self) -> tuple[Edge, ...]:
        return self.edges[self.leaf_count:]

    def nodes_below(self, v: int) -> set[int]:
        """``v`` and every node under it."""
        out = set()
        stack = [v]
        while stack:
            w = stack.pop()
            out.add(w)
            stack.extend(self.children[w])
        return out

    def __repr__(self):
        return f"RootedTree({self.tree.canonical_newick()!r}, root={self.root})"


def canonical_rooting(tree: Tree) -> RootedTree:
    return RootedTree(tree, tree.canonical_root())


def canonical_claw(n: int) -> Tree:
    """The claw with leaves 1..n around the one interior node n + 1."""
    return Tree(n, [(n + 1, i) for i in range(1, n + 1)])


# -- Newick parsing ----------------------------------------------------

# ASCII digits only: ``\d`` would take any script's digits, which int() reads
_NUMBER_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_LABEL_RE = re.compile(r"[0-9]+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def fail(self, msg: str):
        raise NewickParseError(f"{msg} at position {self.i}", position=self.i)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.i += 1

    def length_opt(self):
        """Skip an optional ":<number>" and the whitespace after it."""
        self.skip_ws()
        if self.peek() == ":":
            self.i += 1
            self.skip_ws()
            m = _NUMBER_RE.match(self.text, self.i)
            if m is None:
                self.fail("expected a branch length after ':'")
            self.i = m.end()
            self.skip_ws()

    def label(self) -> int:
        m = _LABEL_RE.match(self.text, self.i)
        if m is None:
            self.fail("expected a leaf label or '('")
        try:
            label = int(m.group())
        except ValueError:  # more digits than the interpreter converts
            self.fail(f"leaf label of {m.end() - self.i} digits is too long")
        if label == 0:
            self.fail("leaf labels are positive integers")
        self.i = m.end()
        self.length_opt()
        return label


def parse_newick(text: str) -> Tree:
    """Parse a Newick string into a Tree; see the module docstring for the subset.

    One pass over the text with one stack of open groups, so nesting depth
    is not bounded by the interpreter's recursion limit.  Each "(" takes the
    next provisional id -1, -2, ...; an edge (parent, child) is appended when
    the child is complete: a leaf when its label is read, a group when its
    ")" closes it.  Once the leaf count l is known the provisional ids move
    to l+1, l+2, ...
    """
    p = _Parser(text)
    edges: list[Edge] = []
    first_root_edge = 0  # position in edges of the root's first child edge
    labels: set[int] = set()
    dupes: list[int] = []
    stack: list[list[int]] = []  # [provisional id, children read] of each open "("
    opened = 0
    while True:
        p.skip_ws()
        if p.peek() == "(":
            p.i += 1
            opened += 1
            stack.append([-opened, 0])
            continue
        node = p.label()
        if node in labels:
            dupes.append(node)
        labels.add(node)
        while stack:
            group = stack[-1]
            if group[1] == 0 and len(stack) == 1:
                first_root_edge = len(edges)
            edges.append((group[0], node))
            group[1] += 1
            if p.peek() == ",":
                p.i += 1
                break
            if group[1] < 2:
                p.fail("expected ',' (interior nodes need at least two children)")
            p.expect(")")
            p.length_opt()
            node = stack.pop()[0]
        else:
            break
    p.expect(";")
    p.skip_ws()
    if p.i != len(text):
        p.fail("trailing characters after ';'")

    if dupes:
        raise InvalidTreeError(f"duplicate leaf label {min(dupes)}")
    ell = len(labels)
    if ell < 3:
        raise InvalidTreeError(f"fewer than 3 leaves (got {ell})")
    if max(labels) != ell:
        # distinct positive labels miss 1..ell exactly when one lies above it
        missing = next(x for x in range(1, ell + 1) if x not in labels)
        above = [x for x in labels if x > ell]
        low = min(above)
        # a long label by its digit count, so the line stays short
        shown = str(low) if low < 10 ** 20 else f"has {digit_count(low)} digits"
        raise InvalidTreeError(
            f"leaf labels must be exactly 1..{ell}; smallest missing label "
            f"{missing}; {len(above)} label{'s' * (len(above) > 1)} above "
            f"the range, the smallest {shown}")

    del labels
    shift = ell
    if group[1] == 2:  # group is the root's entry, the last one popped
        # suppress the degree-2 root: its two edges merge into one, appended
        # last, and the root takes no id
        a, b = edges[first_root_edge][1], edges.pop()[1]
        del edges[first_root_edge]
        edges.append((a, b))
        shift -= 1
    # final[p] is the id of provisional -p; one shared int per node keeps
    # the edge list as small as the ids it holds
    final = list(range(shift, shift + opened + 1))
    return Tree(ell, ((u if u > 0 else final[-u], v if v > 0 else final[-v])
                      for u, v in edges))


def tree_to_json(rt: RootedTree) -> dict:
    """JSON tree dump: nodes renumbered with leaves 1..leaf_count first, then
    interior nodes in BFS discovery order starting from the root."""
    ell = rt.leaf_count
    renum = {leaf: leaf for leaf in range(1, ell + 1)}
    for k, u in enumerate(rt.interior_discovery):
        renum[u] = ell + 1 + k
    return {
        "leaves": ell,
        "edges": [[renum[u], renum[v]] for u, v in rt.edges],
    }


# -- decompose ---------------------------------------------------------


@dataclass
class JoinContext:
    """Bookkeeping for T = T1 * T2, the parts joined at one interior edge.

    ``rooted`` is the rooted tree T itself; ``t1`` and ``t2`` are the parts,
    each with a fresh leaf, labelled last (``t1.leaf_count``,
    ``t2.leaf_count``), standing in for the other side.
    ``leaf_map1``/``leaf_map2`` send the other leaves of each part to their
    labels in T.
    """

    rooted: RootedTree
    t1: Tree
    leaf_map1: dict[int, int]
    t2: Tree
    leaf_map2: dict[int, int]


def decompose_at_edge(rt: RootedTree, edge: Edge) -> JoinContext:
    """Split a rooted tree at an interior edge into the two joined parts.

    Each part keeps its original leaves (relabelled 1..k ascending) and gains
    a fresh leaf (labelled last) in place of the removed side.  The returned
    context refers to the original tree, so flows built through it live on
    ``rt`` itself.
    """
    tree = rt.tree
    u, v = edge
    if (u, v) not in rt.edge_index:
        if (v, u) in rt.edge_index:
            u, v = v, u
        else:
            raise InvalidTreeError(f"{edge} is not an edge of the tree")
    if u <= tree.leaf_count or v <= tree.leaf_count:
        raise InvalidTreeError(f"cannot decompose at pendant edge {edge}")

    below_nodes = rt.nodes_below(v)
    side1_leaves = [x for x in range(1, tree.leaf_count + 1) if x not in below_nodes]
    side2_leaves = [x for x in range(1, tree.leaf_count + 1) if x in below_nodes]

    def build_part(side_leaves, attach_node, other_side_nodes):
        k = len(side_leaves)
        node_map = {old: i + 1 for i, old in enumerate(side_leaves)}
        fresh = k + 1
        nxt = fresh
        for w in tree.interior_nodes:
            if w not in other_side_nodes:
                nxt += 1
                node_map[w] = nxt
        part_edges = []
        for a, b in tree.edges:
            # the split edge has one end on each side, so it is never kept
            if a in node_map and b in node_map:
                part_edges.append((node_map[a], node_map[b]))
        part_edges.append((node_map[attach_node], fresh))
        return (Tree(k + 1, part_edges),
                {i + 1: old for i, old in enumerate(side_leaves)})

    t1, map1 = build_part(side1_leaves, u, below_nodes)
    t2, map2 = build_part(side2_leaves, v, set(tree._adj) - below_nodes)
    return JoinContext(rooted=rt, t1=t1, leaf_map1=map1, t2=t2, leaf_map2=map2)
