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


def flow_total(tree: Tree, group: GroupSpec) -> int:
    return group.order ** (tree.leaf_count - 1)


def check_flow_cap(tree: Tree, group: GroupSpec, cap: int) -> int:
    """The number of flows on ``tree``; raises when it exceeds ``cap``.

    The power is multiplied up one leaf at a time and refused as soon as it
    passes the cap, so a refusal never builds a number much past the cap.
    """
    g, l = group.order, tree.leaf_count
    total = 1
    for _ in range(l - 1):
        total *= g
        if total > cap:
            # as a power, and a long order by its digit count: in full the
            # line could pass Python's int-to-string digit limit
            if g < 10 ** 20:
                shown, order = str(g), str(g)
            else:
                shown, order = "g", f"g of {_digit_count(g)} digits"
            raise FlowCapExceeded(f"{shown}^{l - 1} flows exceed the cap {cap} "
                                  f"(group order {order}, {l} leaves)")
    return total


def _digit_count(n: int) -> int:
    """Decimal digits of ``n`` >= 1, without converting it to a string."""
    d = max(1, n.bit_length() * 3 // 10)  # 0.3 < log10(2): a lower bound
    while 10 ** d <= n:
        d += 1
    return d


def iter_flows(rt: RootedTree, group: GroupSpec) -> Iterator[Flow]:
    """All flows in lexicographic order of the first leaf_count-1 leaf values."""
    table = group.table
    add, neg = table.add, table.neg
    for head in product(range(group.order), repeat=rt.leaf_count - 1):
        s = 0
        for i in head:
            s = add[s][i]
        yield _complete(rt, table, [*head, neg[s]])


def flow_index(rt: RootedTree, group: GroupSpec, f: Flow) -> int:
    """Position of ``f`` in ``iter_flows`` order (mixed radix on leaf values)."""
    g, index = group.order, group.table.index
    idx = 0
    for i in map(index.__getitem__, f[:rt.leaf_count - 1]):
        idx = idx * g + i
    return idx


@dataclass(frozen=True, slots=True)
class Binomial:
    """A reduced pair of flow multisets with equal per-edge projections.

    Stored sorted with common flows cancelled; ``lhs == rhs == ()`` only for
    the degenerate (degree-zero) relation, which is flagged, never used.
    """

    lhs: tuple[Flow, ...]
    rhs: tuple[Flow, ...]

    @property
    def degree(self) -> int:
        return max(len(self.lhs), len(self.rhs))

    @property
    def is_trivial(self) -> bool:
        return not self.lhs


def binomial_from_multisets(rt: RootedTree, group: GroupSpec,
                            m1: Iterable[Flow], m2: Iterable[Flow]) -> Binomial:
    """Validate the per-edge multiset condition and build the reduced binomial.

    The sides are compared one edge column at a time; a column is sorted
    only when it differs from its partner as it stands.
    """
    a = list(m1)
    b = list(m2)
    if len(a) != len(b):
        raise BinomialError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    for ei, ca, cb in zip(range(rt.edge_count), zip(*a), zip(*b)):
        if ca != cb:
            pa, pb = sorted(ca), sorted(cb)
            if pa != pb:
                raise BinomialError(
                    f"projections to edge {ei} {rt.edges[ei]} differ: {pa} vs {pb}",
                    edge=ei,
                )
    if set(a).isdisjoint(b):
        return Binomial(tuple(sorted(a)), tuple(sorted(b)))
    ca = Counter(a)
    cb = Counter(b)
    lhs = sorted((ca - cb).elements())
    rhs = sorted((cb - ca).elements())
    return Binomial(tuple(lhs), tuple(rhs))
