"""Group-valued flows on rooted trees and binomial relations between them.

A flow assigns a group element to every edge so that each interior node,
the root included, conserves: the value entering a node equals the sum of
the values leaving it (the root has no incoming edge, so its outgoing
values sum to zero).  Flows are stored as the tuple of edge values in the
tree's canonical edge order; the first ``leaf_count`` entries are the leaf
values, and those determine the whole flow (the value on any edge is the
sum of the leaf values below it).  Leaf values must sum to zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator

from .errors import BinomialError, FlowCapExceeded, FlowError
from .groups import CayleyTable, Element, GroupSpec
from .trees import RootedTree, Tree

# A flow is the tuple of per-edge group elements in canonical edge order.
Flow = tuple[Element, ...]

DEFAULT_FLOW_CAP = 10**6


def flow_from_leaves(rt: RootedTree, group: GroupSpec, leaf_values: Iterable[Element]) -> Flow:
    """Build the unique flow with the given per-leaf values (must sum to zero)."""
    vals = tuple(leaf_values)
    if len(vals) != rt.leaf_count:
        raise FlowError(f"expected {rt.leaf_count} leaf values, got {len(vals)}")
    table = group.table
    idx, s = [], 0
    for x in vals:
        i = table.index.get(x)
        if i is None:
            raise FlowError(f"leaf value {x} is not in {group}")
        idx.append(i)
        s = table.add[s][i]
    if s:
        raise FlowError(f"leaf values {vals} do not sum to zero")
    return _complete(rt, table, idx)


def _complete(rt: RootedTree, table: CayleyTable, idx: list[int]) -> Flow:
    """The flow whose leaf values have the indices ``idx`` (extended in
    place): each interior edge, children before parents, gets the sum of
    the edges below it."""
    add = table.add
    idx += [0] * (rt.edge_count - rt.leaf_count)
    for ei, below in rt.bottom_up:
        s = 0
        for c in below:
            s = add[s][idx[c]]
        idx[ei] = s
    return tuple(map(table.elements.__getitem__, idx))


def flow_defects(rt: RootedTree, group: GroupSpec, terms: Iterable[Flow]) -> dict[Flow, str]:
    """Why each of ``terms`` is not a flow on ``rt``: a wrong length, a value
    outside ``group``, or an interior node that does not conserve.  Terms
    that are flows do not appear in the result."""
    e = rt.edge_count
    factors = tuple(enumerate(group.factors))
    # per interior node: its incoming edge (None at the root), its outgoing edges
    nodes = [(u, None if rt.parent[u] is None else rt.edge_index[(rt.parent[u], u)],
              [rt.edge_index[(u, c)] for c in rt.children[u]])
             for u in rt.tree.interior_nodes]

    def leaking_node(f: Flow) -> int | None:
        # residue-wise, so that no group element is built per node
        for u, up, down in nodes:
            for j, a in factors:
                t = sum(f[ei][j] for ei in down)
                if up is not None:
                    t -= f[up][j]
                if t % a:
                    return u
        return None

    out: dict[Flow, str] = {}
    for f in terms:
        if len(f) != e:
            out[f] = f"has {len(f)} edge values, expected {e}"
        elif not all(map(group.is_element, f)):
            ei = next(ei for ei, x in enumerate(f) if not group.is_element(x))
            out[f] = f"value {f[ei]} on edge {ei} {rt.edges[ei]} is not in {group}"
        else:
            u = leaking_node(f)
            if u is not None:
                out[f] = f"values do not conserve at node {u}"
    return out


def flow_total(tree: Tree, group: GroupSpec) -> int:
    return group.order ** (tree.leaf_count - 1)


def check_flow_cap(tree: Tree, group: GroupSpec, cap: int) -> int:
    """The number of flows on ``tree``; raises when it exceeds ``cap``."""
    total = flow_total(tree, group)
    if total > cap:
        # as a power: in full it can pass Python's int-to-string digit limit
        g, l = group.order, tree.leaf_count
        raise FlowCapExceeded(
            f"{g}^{l - 1} flows exceed the cap {cap} (group order {g}, {l} leaves)")
    return total


def iter_flows(rt: RootedTree, group: GroupSpec) -> Iterator[Flow]:
    """All flows in lexicographic order of the first leaf_count-1 leaf values."""
    table = group.table
    add, neg = table.add, table.neg
    for head in product(range(group.order), repeat=rt.leaf_count - 1):
        s = 0
        for i in head:
            s = add[s][i]
        yield _complete(rt, table, [*head, neg[s]])


def enumerate_flows(rt: RootedTree, group: GroupSpec, cap: int = DEFAULT_FLOW_CAP) -> list[Flow]:
    check_flow_cap(rt.tree, group, cap)
    return list(iter_flows(rt, group))


def flow_index(rt: RootedTree, group: GroupSpec, f: Flow) -> int:
    """Position of ``f`` in ``enumerate_flows`` order (mixed radix on leaf values)."""
    idx = 0
    for leaf in range(rt.leaf_count - 1):
        idx = idx * group.order + group.index(f[leaf])
    return idx


def vertex_support(rt: RootedTree, group: GroupSpec, f: Flow) -> tuple[int, ...]:
    """Flat indices of the ones in a flow's 0/1 vertex point: one block of
    size |G| per edge, with a 1 at the enumeration index of its value."""
    g = group.order
    return tuple(ei * g + group.index(val) for ei, val in enumerate(f))


@dataclass(frozen=True)
class Binomial:
    """A reduced pair of flow multisets with equal per-edge projections.

    Stored sorted with common flows cancelled; ``lhs == rhs == ()`` only for
    the degenerate (degree-zero) relation, which is flagged, never used.
    """

    lhs: tuple[Flow, ...]
    rhs: tuple[Flow, ...]

    @cached_property
    def degree(self) -> int:
        return len(self.lhs)

    @property
    def is_trivial(self) -> bool:
        return not self.lhs


def binomial_from_multisets(rt: RootedTree, group: GroupSpec,
                            m1: Iterable[Flow], m2: Iterable[Flow]) -> Binomial:
    """Validate the per-edge multiset condition and build the reduced binomial."""
    a = list(m1)
    b = list(m2)
    if len(a) != len(b):
        raise BinomialError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    for ei in range(rt.edge_count):
        pa = sorted(f[ei] for f in a)
        pb = sorted(f[ei] for f in b)
        if pa != pb:
            raise BinomialError(
                f"projections to edge {ei} {rt.edges[ei]} differ: {pa} vs {pb}",
                edge=ei,
            )
    ca = Counter(a)
    cb = Counter(b)
    lhs = sorted((ca - cb).elements())
    rhs = sorted((cb - ca).elements())
    return Binomial(tuple(lhs), tuple(rhs))
