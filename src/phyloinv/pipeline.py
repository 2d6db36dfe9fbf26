"""Recursive construction of the defining binomial set for any tree.

The complete intersection on the dense torus orbit is assembled bottom-up:

* tripods get the admissible-matrix basis (``tripod`` provenance);
* a join T = T1 * T2 takes the two part sets extended across the shared
  edge (``join-E1``, ``join-E2``) plus one quadric per compatible pair of
  part flows relative to a path flow (``join-edge-quadric``); the three
  family sizes always add up to the codimension of T;
* a claw with l >= 4 leaves is handled through the auxiliary tree T' (a
  tripod carrying leaves {1, 2} joined to an (l-1)-claw), which goes
  through the same recursion as any other tree: T's set is the T' set with
  the interior-edge coordinate dropped (``contracted-from-T'``) plus one
  quadric per nonzero group element (``claw-special`` for embedded unit
  generators, ``claw-nonspecial`` otherwise).

Every binomial a join or a claw quadric builds goes once through the
per-edge multiset check (a contracted binomial keeps its T' join's), and
every assembled set is counted against the codimension formula.  A join
works on element indices and walks only the joined flows with a
part-sized half: the lifted part flows, the mixed quadric terms and the
path flows, each once, with the packed vertex point the check compares.
An edge quadric's new term is cut from its two mixed terms, values and
point slots, because each edge's value depends on one half alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import (BinomialError, FlowCapExceeded, FlowError, InternalError,
                     InvalidTreeError, as_text)
from .flows import (DEFAULT_FLOW_CAP, Binomial, Flow, binomial_from_multisets,
                    check_flow_cap, flow_from_leaves, halves, packed_flows,
                    point_width)
from .groups import Element, GroupSpec
from .oracle import _tuple_terms, codim, degree_bound
from .trees import (JoinContext, RootedTree, Tree, canonical_claw,
                    canonical_rooting, decompose_at_edge, tree_to_json)
from .tripod import tripod_invariants, tripod_tree


@dataclass
class GenerateOptions:
    mode: str = "direct-cyclic"
    flow_cap: int = DEFAULT_FLOW_CAP
    seed: int | None = None


@dataclass
class InvariantSet:
    """A generating set of binomials for one tree and group, with provenance
    tags parallel to ``binomials`` and a log of every join performed."""

    rooted: RootedTree
    group: GroupSpec
    binomials: list[Binomial]
    provenance: list[str]
    join_log: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.binomials)

    def to_json(self) -> dict:
        # terms stay the stored tuples of element tuples, which json writes
        # as nested arrays; copying them into lists would only cost time
        return {
            "group": str(self.group),
            "tree": tree_to_json(self.rooted),
            "codim": codim(self.rooted.tree, self.group),
            "invariants": [
                {"degree": b.degree, "provenance": tag,
                 "lhs": b.lhs, "rhs": b.rhs}
                for b, tag in zip(self.binomials, self.provenance, strict=True)
            ],
        }


def _term(f) -> str:
    try:
        if len(f[0]) == 1:
            inner = ",".join(str(e[0]) for e in f)
        else:
            inner = ",".join("(" + ",".join(str(r) for r in e) + ")" for e in f)
    except (TypeError, IndexError, ValueError):  # ValueError: an int too long to print
        raise FlowError(f"term {as_text(f)} is not a sequence of element "
                        f"tuples") from None
    return f"x[{inner}]"


def algebra_text(s: InvariantSet) -> str:
    """One line per binomial: product of x[..] terms, '-', product.  Each
    distinct term is rendered once, however many binomials it recurs in.
    Terms read back from JSON, lists of lists, are read as tuples.  A term
    that is no sequence of printable element tuples raises
    :class:`FlowError`."""
    binomials = s.binomials
    try:
        terms = {f for b in binomials for f in b.lhs + b.rhs}
    except TypeError:  # unhashable lists, or a list side beside a tuple one
        binomials = list(map(_tuple_terms, binomials))
        terms = {f for b in binomials for f in b.lhs + b.rhs}
    text = {f: _term(f) for f in terms}
    return "".join(f"{'*'.join(map(text.get, b.lhs))} - "
                   f"{'*'.join(map(text.get, b.rhs))}\n" for b in binomials)


def _check_codim(n: int, tree: Tree, group: GroupSpec, what: str) -> int:
    expected = codim(tree, group)
    if n != expected:
        raise InternalError(f"{what}: {n} binomials, codim {expected}")
    return expected


def tripod_set(group: GroupSpec, mode: str = "direct-cyclic") -> InvariantSet:
    binomials = tripod_invariants(group, mode)
    rt = tripod_tree()
    _check_codim(len(binomials), rt.tree, group, "tripod set")
    return InvariantSet(rt, group, binomials, ["tripod"] * len(binomials))


def join_sets(ctx: JoinContext, group: GroupSpec,
              s1: InvariantSet, s2: InvariantSet) -> InvariantSet:
    """Assemble the set for a joined tree from complete sets for the parts.

    A joined flow is fixed by its two halves, tuples of element indices:
    h1, its values at T1's leaves other than the fresh one (1..k1-1), and
    h2, those at T2's (1..k2-1); ``leaf_map1``/``leaf_map2`` send them to
    their joined labels.  A part flow is lifted by rerouting its fresh-leaf
    value to leaf 1 of the other part, and the path flow of g0 carries g0
    from T1's leaf 1 to T2's, with halves p1 and p2.  Only the joined
    flows with h2 = p2 or h1 = p1 are walked, each once, with its packed
    vertex point: every lifted part flow, mixed quadric term and path
    flow, g^(k1-1) + g^(k2-1) - g in all.  Each distinct part flow is
    lifted once.  An edge quadric's new term (h1, h2) is cut from its
    mixed terms (h1, p2) and (p1, h2): an edge under the split edge
    carries a sum of T2 leaves, every other edge one of T1 leaves plus g0
    above the split, so each edge's value, and its point slots, come from
    the one mix that shares the half it depends on.  Every binomial is
    checked on those points; for a quadric the check proves that each mix
    agrees with the path flow on the edges it does not give the new term.

    Sign convention: an edge carries its value in the away-from-root
    orientation, so reading it against that orientation negates.  The
    shared edge points from the T1 side into the T2 side, while T2's own
    pendant edge at its fresh leaf points the other way; two part flows
    agree on the shared edge exactly when their fresh-leaf values add to 0,
    so h1 sums to -g0 where h2 sums to g0.
    """
    t1, t2 = ctx.t1, ctx.t2
    if s1.rooted.tree != t1 or s2.rooted.tree != t2:
        raise InvalidTreeError("part sets do not match the join context trees")
    _check_codim(len(s1.binomials), t1, group, "part set T1")
    _check_codim(len(s2.binomials), t2, group, "part set T2")
    k1, k2 = t1.leaf_count, t2.leaf_count
    rt = ctx.rooted
    g = group.order
    index, neg = group.table.index, group.table.neg
    zeros1, zeros2 = (0,) * (k1 - 2), (0,) * (k2 - 2)
    # joined leaf lab takes entry order[lab - 1] of h1 + h2
    order = [0] * rt.leaf_count
    for w, lab in ctx.leaf_map1.items():
        order[lab - 1] = w - 1
    for w, lab in ctx.leaf_map2.items():
        order[lab - 1] = k1 - 2 + w
    leaves = itemgetter(*order)
    width = point_width(group)
    build = packed_flows(rt, group, width)
    # a quadric's new term takes a lower edge's (one under the split edge)
    # value and point slots from the mix (p1, h2), every other edge's from
    # (h1, p2)
    e = rt.edge_count
    side1 = set(ctx.leaf_map1.values())
    lower = [rt.nodes_below(a).isdisjoint(side1) for a, _ in rt.edges]
    cut = itemgetter(*(ei + e * low for ei, low in enumerate(lower)))
    slots = (1 << width * g) - 1  # the g slots of edge 0
    mask2 = sum(slots << width * g * ei for ei, low in enumerate(lower) if low)
    mask1 = ((1 << width * g * e) - 1) ^ mask2

    # every joined flow that is built recurs (a lifted part flow is also a
    # mixed quadric term), so each is built once and kept under h1 + h2,
    # which holds all its leaf values
    built: dict[tuple[int, ...], tuple[Flow, int]] = {}

    def joined(h: tuple[int, ...]) -> tuple[Flow, int]:
        fp = built.get(h)
        if fp is None:
            fp = built[h] = build(leaves(h))
        return fp

    def lift1(f: Flow) -> tuple[Flow, int]:
        h = tuple(map(index.__getitem__, f[:k1]))
        return joined(h + zeros2)

    def lift2(f: Flow) -> tuple[Flow, int]:
        h = tuple(map(index.__getitem__, f[:k2]))
        return joined(h[-1:] + zeros1 + h[:-1])

    binomials: list[Binomial] = []
    provenance: list[str] = []
    for s, lift, tag in ((s1, lift1, "join-E1"), (s2, lift2, "join-E2")):
        # each distinct part flow is lifted once, and its occurrences read
        # the table
        lifted = dict.fromkeys(f for b in s.binomials for f in b.lhs + b.rhs)
        for f in lifted:
            lifted[f] = lift(f)
        get = lifted.__getitem__
        for b in s.binomials:
            lhs, lp = zip(*map(get, b.lhs))
            rhs, rp = zip(*map(get, b.rhs))
            binomials.append(binomial_from_multisets(
                rt, group, lhs, rhs, (width, lp, rp)))
            provenance.append(tag)
    del lifted, get

    for g0 in range(g):
        p1, p2 = (neg[g0],) + zeros1, (g0,) + zeros2  # the path flow's halves
        fg0, pg0 = joined(p1 + p2)
        pairs2 = [joined(p1 + h2)
                  for h2 in halves(k2 - 1, group, g0) if h2 != p2]
        for h1 in halves(k1 - 1, group, neg[g0]):
            if h1 == p1:
                continue
            mix1, pm1 = joined(h1 + p2)
            cut1 = pm1 & mask1
            for mix2, pm2 in pairs2:
                # h1 and h2 both differ from the path flow's: the cut term
                # is new
                binomials.append(binomial_from_multisets(
                    rt, group, [cut(mix1 + mix2), fg0], [mix1, mix2],
                    (width, [cut1 | (pm2 & mask2), pg0], [pm1, pm2])))
                provenance.append("join-edge-quadric")

    n_quadrics = len(binomials) - len(s1.binomials) - len(s2.binomials)
    expected_quadrics = g * (g ** (k1 - 2) - 1) * (g ** (k2 - 2) - 1)
    if n_quadrics != expected_quadrics:
        raise InternalError(
            f"{n_quadrics} edge quadrics, expected {expected_quadrics}")
    total_codim = _check_codim(len(binomials), rt.tree, group, "joined set")

    log = list(s1.join_log) + list(s2.join_log) + [{
        "tree": rt.tree.canonical_newick(),
        "leaves": rt.leaf_count,
        "family_e1": len(s1.binomials),
        "family_e2": len(s2.binomials),
        "family_quadric": n_quadrics,
        "codim": total_codim,
    }]
    return InvariantSet(rt, group, binomials, provenance, log)


def special_quadric(rt: RootedTree, group: GroupSpec, j: int) -> Binomial:
    """Claw quadric attached to the embedded unit generator of factor j."""
    _check_claw(rt)
    u = group.unit(j)
    nu = group.neg(u)
    z = group.zero()
    return _claw_quadric(rt, group,
                         (u, z, nu, z), (z, nu, z, u),
                         (z, z, nu, u), (u, nu, z, z))


def nonspecial_quadric(rt: RootedTree, group: GroupSpec, b: Element) -> Binomial:
    """Claw quadric attached to a nonzero element that is no embedded unit
    generator; j is the last factor with a nonzero residue in b."""
    _check_claw(rt)
    if b == group.zero() or b in group.units():
        raise ValueError(f"{b} must be nonzero and not an embedded unit generator")
    j = max(k + 1 for k, r in enumerate(b) if r)
    u = group.unit(j)
    bm = group.sub(b, u)
    nb = group.neg(b)
    nbm = group.neg(bm)
    z = group.zero()
    return _claw_quadric(rt, group,
                         (u, z, bm, nb), (z, bm, z, nbm),
                         (z, z, bm, nbm), (u, bm, z, nb))


def _check_claw(rt: RootedTree):
    if not rt.tree.is_claw or rt.leaf_count < 4:
        raise InvalidTreeError("quadrics need a claw with at least 4 leaves")


def _claw_quadric(rt, group, lq1, lq2, rq1, rq2) -> Binomial:
    z = group.zero()
    pad = (z,) * (rt.leaf_count - 4)
    mk = lambda head: flow_from_leaves(rt, group, head + pad)
    return binomial_from_multisets(
        rt, group, [mk(lq1), mk(lq2)], [mk(rq1), mk(rq2)])


def claw_set(n_leaves: int, tripod: InvariantSet) -> InvariantSet:
    """The generating set for the claw with ``n_leaves`` leaves, built
    from the tripod set ``tripod``, which every claw level shares."""
    if n_leaves == 3:
        return tripod
    group = tripod.group
    # T': node ``top`` holds leaves 1, 2 and node ``low`` holds the rest;
    # its one interior edge splits it into the 3-claw and the (n-1)-claw
    top, low = n_leaves + 1, n_leaves + 2
    aux_tree = Tree(n_leaves, [(top, 1), (top, 2), (top, low)]
                    + [(low, i) for i in range(3, n_leaves + 1)])
    aux = _generate(aux_tree, tripod, None)

    claw_rt = canonical_rooting(canonical_claw(n_leaves))
    binomials: list[Binomial] = []
    provenance: list[str] = []
    # a T' flow is fixed by its leaf values, the claw flow, so the slice
    # keeps each side sorted and reduced; the T' join checked its columns.
    # Each distinct T' flow is sliced once, and its occurrences share it
    sliced = dict.fromkeys(f for b in aux.binomials for f in b.lhs + b.rhs)
    for f in sliced:
        sliced[f] = f[:n_leaves]
    cut = sliced.__getitem__
    for b in aux.binomials:
        restricted = Binomial(tuple(map(cut, b.lhs)), tuple(map(cut, b.rhs)))
        if restricted.is_trivial:
            raise InternalError("a T' binomial restricts to a trivial claw binomial")
        binomials.append(restricted)
        provenance.append("contracted-from-T'")
    units = group.units()
    for b in group.elements[1:]:
        if b in units:
            binomials.append(special_quadric(claw_rt, group, units.index(b) + 1))
            provenance.append("claw-special")
        else:
            binomials.append(nonspecial_quadric(claw_rt, group, b))
            provenance.append("claw-nonspecial")
    _check_codim(len(binomials), claw_rt.tree, group, "claw set")
    return InvariantSet(claw_rt, group, binomials, provenance, aux.join_log)


def generate(tree: Tree, group: GroupSpec,
             options: GenerateOptions | None = None) -> InvariantSet:
    """The defining binomial set for any leaf-labelled tree.

    Non-claw trees are decomposed at an interior edge (by default the edge
    adjacent to the canonical root whose far side holds the most leaves;
    with a seed, a uniformly random interior edge) and the parts are
    handled recursively.  A flow, binomial or tree error raised inside the
    construction is a broken invariant, not bad input (a ``Tree`` is
    validated when it is built), and comes out as :class:`InternalError`.
    An instance over the flow cap, or whose codim x degree bound exceeds
    4 x the flow cap, is refused with :class:`FlowCapExceeded` before
    anything is built.
    """
    opts = options or GenerateOptions()
    check_flow_cap(tree, group, opts.flow_cap)
    # codim x degree bound caps the terms per side of the whole set; when
    # every factor is at most 4 the flow cap alone keeps it under 4 x cap
    c, d = codim(tree, group), degree_bound(group)
    if c * d > 4 * opts.flow_cap:
        raise FlowCapExceeded(
            f"codim {c} x degree bound {d} exceeds 4 x the flow cap {opts.flow_cap}")
    rng = random.Random(opts.seed) if opts.seed is not None else None
    try:
        # the only mode-dependent part; every tripod part and claw level shares it
        return _generate(tree, tripod_set(group, opts.mode), rng)
    except (BinomialError, FlowError, InvalidTreeError) as exc:
        raise InternalError(f"{type(exc).__name__}: {exc}") from exc


def _generate(tree: Tree, tripod: InvariantSet,
              rng: random.Random | None) -> InvariantSet:
    if tree.is_claw:
        return claw_set(tree.leaf_count, tripod)
    rt = canonical_rooting(tree)
    interior = rt.interior_edges()
    if rng is not None:
        edge = rng.choice(interior)
    else:
        candidates = [e for e in interior if e[0] == rt.root]
        edge = max(candidates, key=lambda e: sum(
            1 for w in rt.nodes_below(e[1]) if w <= rt.leaf_count))
    ctx = decompose_at_edge(rt, edge)
    s1 = _generate(ctx.t1, tripod, rng)
    s2 = _generate(ctx.t2, tripod, rng)
    return join_sets(ctx, tripod.group, s1, s2)
