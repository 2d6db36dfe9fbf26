"""Group-valued flows on rooted trees and binomial relations between them.

A flow assigns a group element to every edge so that each interior node,
the root included, conserves: the value entering a node equals the sum of
the values leaving it (the root has no incoming edge, so its outgoing
values sum to zero).  Flows are stored as the tuple of edge values in the
tree's canonical edge order; the first ``leaf_count`` entries are the leaf
values, and those determine the whole flow (the value on any edge is the
sum of the leaf values below it).  Leaf values must sum to zero.

A binomial is checked on vertex points: a flow's point has a 1 in column
ei*g + i for each edge ei and the index i of its value there, and the
construction packs it into one integer, ``width`` bits per column.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (BinomialError, FlowCapExceeded, FlowError, as_text,
                     digit_count)
from .groups import Element, GroupSpec
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
    idx, s = [0] * rt.edge_count, 0
    for k, x in enumerate(vals):
        try:
            i = table.index.get(x)
        except TypeError:  # unhashable, a list read back from JSON say
            i = None
        if i is None:
            raise FlowError(f"leaf value {as_text(x)} is not in {group}")
        idx[k] = i
        s = table.add[s][i]
    if s:
        raise FlowError(f"leaf values {vals} do not sum to zero")
    _complete(rt.bottom_up, table.add, idx)
    return tuple(map(table.elements.__getitem__, idx))


def _complete(bottom_up: Sequence[tuple[int, Sequence[int]]],
              add: Sequence[Sequence[int]], idx: list[int]) -> list[int]:
    """The one walk that completes a flow, in place: ``idx`` holds the leaf
    values' element indices and a slot per interior edge, and each interior
    edge, children before parents (``rt.bottom_up``), gets the sum of the
    edges below it.  ``flow_from_leaves`` completes each flow here and the
    join's builder each flow the join walks, those with a part-sized half
    (an edge quadric's new term is cut from two of them); :func:`iter_flows`
    completes one flow per head and steps the rest along the path between
    the last two leaves."""
    for ei, below in bottom_up:
        s = 0
        for c in below:
            s = add[s][idx[c]]
        idx[ei] = s
    return idx


def point_width(group: GroupSpec) -> int:
    """Bits per (edge, element) slot of a packed vertex point: enough that a
    side of up to the degree bound max(3, largest factor) terms, fewer than
    2**width, never carries out of a slot."""
    return max(3, *group.factors).bit_length()


def packed_point(rt: RootedTree, group: GroupSpec, width: int, f: Flow) -> int:
    """The vertex point of ``f``, read from its first ``edge_count`` values:
    a 1 in the ``width``-bit slot of column ei*g + i for each edge ei and
    the index i of its value there.  A term with fewer values than edges,
    or a value that is no element, raises :class:`FlowError`."""
    g, index = group.order, group.table.index
    if len(f) < rt.edge_count:
        raise FlowError(f"term {as_text(f)} has {len(f)} values, "
                        f"expected {rt.edge_count}")
    point = 0
    for ei, x in zip(range(rt.edge_count), f):
        try:
            i = index[x]
        except (KeyError, TypeError):  # TypeError: unhashable, a list say
            raise FlowError(f"value {as_text(x)} is not in {group}") from None
        point += 1 << width * (ei * g + i)
    return point


def packed_flows(rt: RootedTree, group: GroupSpec, width: int
                 ) -> Callable[[Sequence[int]], tuple[Flow, int]]:
    """A builder of flows from the element indices of all their leaf values.

    The builder completes each flow it is given with :func:`_complete` (in
    a join, those with a part-sized half) and sums its
    :func:`packed_point` from the same indices.  The root must conserve
    (its outgoing values sum to zero, i.e. the leaf values do), or
    :class:`FlowError` is raised.
    """
    table = group.table
    add, elements = table.add, table.elements
    g, e = group.order, rt.edge_count
    pad = [0] * (e - rt.leaf_count)
    bottom_up = rt.bottom_up
    at_root = [rt.edge_index[rt.root, c] for c in rt.children[rt.root]]
    slots = [[1 << width * (ei * g + i) for i in range(g)] for ei in range(e)]

    def build(leaves: Sequence[int]) -> tuple[Flow, int]:
        idx = _complete(bottom_up, add, [*leaves, *pad])
        s = 0
        for c in at_root:
            s = add[s][idx[c]]
        if s:
            raise FlowError(f"leaf values {tuple(elements[i] for i in leaves)} "
                            f"do not sum to zero")
        return (tuple(map(elements.__getitem__, idx)),
                sum(map(list.__getitem__, slots, idx)))

    return build


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
                shown, order = "g", f"g of {digit_count(g)} digits"
            raise FlowCapExceeded(f"{shown}^{l - 1} flows exceed the cap {cap} "
                                  f"(group order {order}, {l} leaves)")
    return total


def halves(n: int, group: GroupSpec, total: int) -> Iterator[tuple[int, ...]]:
    """The n-tuples of element indices that sum to index ``total``, in
    lexicographic order of the first n - 1 (the last is forced).  The one
    fixed-sum enumerator: a join's part halves and the verifier's flows."""
    add, neg = group.table.add, group.table.neg
    start = neg[total]
    for combo in product(range(group.order), repeat=n - 1):
        s = start
        for i in combo:
            s = add[s][i]
        yield combo + (neg[s],)


def iter_flows(rt: RootedTree, group: GroupSpec) -> Iterator[Flow]:
    """All flows, in lexicographic order of the first l-1 leaf values
    (l = leaf_count), streamed in O(edge_count + g) memory.

    A head is a tuple of :func:`halves` ``(l - 1, group, 0)``: the first
    l-2 leaf values, summing to s, then -s at leaf l-1.  With 0 at leaf l
    it is a flow, completed once by :func:`_complete`.  Its g flows put x
    at leaf l-1, in index order, and -(s+x) at leaf l; only the path
    between the two leaves moves: by d = s+x on leaf l-1's side of it and
    by -d on leaf l's.  When the two leaves are siblings the path has no
    interior edge, and every flow of a head shares one interior part.
    """
    table, l = group.table, rt.leaf_count
    add, neg, elements = table.add, table.neg, table.elements
    negated = [elements[i] for i in neg]
    pad = [0] * (rt.edge_count - l + 1)
    # the interior edges above leaf l-1 or leaf l but not both, by their
    # slot in the interior part
    above = []
    for v in (rt.parent[l - 1], rt.parent[l]):
        slots = set()
        while (u := rt.parent[v]) is not None:
            slots.add(rt.edge_index[u, v] - l)
            v = u
        above.append(slots)
    plus, minus = above[0] - above[1], above[1] - above[0]
    moving = bool(plus or minus)
    for head in halves(l - 1, group, 0):
        idx = _complete(rt.bottom_up, add, [*head, *pad])
        values = list(map(elements.__getitem__, idx))
        prefix, interior = tuple(values[:l - 2]), tuple(values[l:])
        if moving:
            cells = values[l:]
            ups = [(k, add[idx[l + k]]) for k in plus]
            downs = [(k, add[idx[l + k]]) for k in minus]
        for x, d in enumerate(add[neg[head[-1]]]):  # d = s + x
            if moving:
                for k, row in ups:
                    cells[k] = elements[row[d]]
                for k, row in downs:
                    cells[k] = elements[row[neg[d]]]
                interior = tuple(cells)
            yield prefix + (elements[x], negated[d]) + interior


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
                            m1: Iterable[Flow], m2: Iterable[Flow],
                            points: tuple[int, Sequence[int], Sequence[int]]
                            | None = None) -> Binomial:
    """Validate the per-edge multiset condition and build the reduced binomial.

    Each term stands for its :func:`packed_point`; ``points`` is
    ``(width, p1, p2)``, the points of ``m1`` and ``m2`` in order, and
    without it each term is packed here, ``point_width(group)`` bits per
    slot.  The sides' per-edge multisets are equal exactly when their
    summed points are, as long as no slot can carry: a side of fewer than
    2**width terms.  A longer side, or sums that differ, takes the edge
    columns, and the first edge whose sorted projections differ is raised
    with ``edge=``; only then is anything sorted.
    """
    a = list(m1)
    b = list(m2)
    if len(a) != len(b):
        raise BinomialError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    if points is None:
        width = point_width(group)
        pa = [packed_point(rt, group, width, f) for f in a]
        pb = [packed_point(rt, group, width, f) for f in b]
    else:
        width, pa, pb = points
    if sum(pa) != sum(pb) or len(a) >= 1 << width:
        for ei, ca, cb in zip(range(rt.edge_count), zip(*a), zip(*b)):
            if ca != cb:
                sa, sb = sorted(ca), sorted(cb)
                if sa != sb:
                    raise BinomialError(
                        f"projections to edge {ei} {rt.edges[ei]} differ: "
                        f"{sa} vs {sb}", edge=ei)
    # a term's point is a function of the term: disjoint points, disjoint sides
    if set(pa).isdisjoint(pb):
        return Binomial(tuple(sorted(a)), tuple(sorted(b)))
    ca = Counter(a)
    cb = Counter(b)
    lhs = sorted((ca - cb).elements())
    rhs = sorted((cb - ca).elements())
    return Binomial(tuple(lhs), tuple(rhs))
