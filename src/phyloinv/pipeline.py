"""Recursive construction of the defining binomial set for any tree.

The complete intersection on the dense torus orbit is assembled bottom-up:

* tripods get the admissible-matrix basis (``tripod`` provenance);
* a join T = T1 * T2 takes the two part sets extended across the shared
  edge (``join-E1``, ``join-E2``) plus one quadric per compatible pair of
  part flows relative to a path flow (``join-edge-quadric``); the three
  family sizes always add up to the codimension of T;
* a claw with l >= 4 leaves is handled through the auxiliary tree T' (the
  join of a tripod carrying leaves {1, 2} with an (l-1)-claw): T's set is
  the T' set with the interior-edge coordinate dropped
  (``contracted-from-T'``) plus one quadric per nonzero group element
  (``claw-special`` for embedded unit generators, ``claw-nonspecial``
  otherwise).

Every constructed binomial is re-validated through the per-edge multiset
check, and every assembled set is counted against the codimension formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from .errors import (AdmissibilityError, BinomialError, FlowError,
                     InternalError, InvalidTreeError, LatticeError)
from .flows import (DEFAULT_FLOW_CAP, Binomial, Flow, binomial_from_multisets,
                    check_flow_cap, flow_from_leaves)
from .groups import Element, GroupSpec
from .oracle import codim
from .trees import (JoinContext, RootedTree, Tree, canonical_rooting,
                    decompose_at_edge, join, tree_to_json)


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

    def counts_by_provenance(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for tag in self.provenance:
            out[tag] = out.get(tag, 0) + 1
        return out

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
                for b, tag in zip(self.binomials, self.provenance)
            ],
        }


def _term(f) -> str:
    if len(f[0]) == 1:
        inner = ",".join(str(e[0]) for e in f)
    else:
        inner = ",".join("(" + ",".join(str(r) for r in e) + ")" for e in f)
    return f"x[{inner}]"


def algebra_text(s: InvariantSet) -> str:
    """One line per binomial: product of x[..] terms, '-', product."""
    lines = []
    for b in s.binomials:
        lhs = "*".join(_term(f) for f in b.lhs)
        rhs = "*".join(_term(f) for f in b.rhs)
        lines.append(f"{lhs} - {rhs}")
    return "\n".join(lines) + "\n"


def canonical_claw(n: int) -> Tree:
    return Tree(n, [(n + 1, i) for i in range(1, n + 1)])


def _check_codim(n: int, tree: Tree, group: GroupSpec, what: str) -> int:
    expected = codim(tree, group)
    if n != expected:
        raise InternalError(f"{what}: {n} binomials, codim {expected}")
    return expected


def tripod_set(group: GroupSpec, mode: str = "direct-cyclic") -> InvariantSet:
    from .tripod import tripod_invariants, tripod_tree

    binomials = tripod_invariants(group, mode)
    rt = tripod_tree()
    _check_codim(len(binomials), rt.tree, group, "tripod set")
    return InvariantSet(rt, group, binomials, ["tripod"] * len(binomials))


def _fixed_leaf_values(n: int, group: GroupSpec, leaf: int,
                       value: Element) -> Iterator[tuple[Element, ...]]:
    """Leaf values of the flows on an n-leaf tree with ``value`` at ``leaf``,
    in lexicographic order of the remaining free leaves (the last free leaf
    is forced)."""
    others = [x for x in range(1, n + 1) if x != leaf]
    free, forced = others[:-1], others[-1]
    elements, index, add, neg = group.table
    v = index[value]
    for combo in product(range(group.order), repeat=len(free)):
        s = v
        for i in combo:
            s = add[s][i]
        vals = {leaf: v, forced: neg[s]}
        vals.update(zip(free, combo))
        yield tuple(elements[vals[x]] for x in range(1, n + 1))


def join_sets(ctx: JoinContext, group: GroupSpec,
              s1: InvariantSet, s2: InvariantSet) -> InvariantSet:
    """Assemble the set for a joined tree from complete sets for the parts.

    The distinguished leaves are the lowest-labelled leaf of each part other
    than the identified one.  Every joined flow is built from part leaf
    values alone: those of the surviving leaves go to their joined labels
    (``leaf_map1``/``leaf_map2``), and the values at v1 and v2 are dropped.

    Sign convention: an edge carries its value in the away-from-root
    orientation, so reading it against that orientation negates.  The
    shared edge points from the T1 side into the T2 side, while T2's own
    pendant edge at v2 points the other way; two part flows f1, f2 agree on
    the shared edge exactly when f1[v1] + f2[v2] = 0.
    """
    t1, t2 = ctx.t1, ctx.t2
    if s1.rooted.tree != t1.tree or s2.rooted.tree != t2.tree:
        raise InvalidTreeError("part sets do not match the join context trees")
    _check_codim(len(s1.binomials), t1.tree, group, "part set T1")
    _check_codim(len(s2.binomials), t2.tree, group, "part set T2")
    k1, k2 = t1.leaf_count, t2.leaf_count
    v1, v2 = ctx.v1, ctx.v2
    l1 = min(x for x in range(1, k1 + 1) if x != v1)
    l2 = min(x for x in range(1, k2 + 1) if x != v2)
    rt = ctx.rooted
    zero = group.zero()
    slots1 = [(w - 1, lab - 1) for w, lab in ctx.leaf_map1.items()]
    slots2 = [(w - 1, lab - 1) for w, lab in ctx.leaf_map2.items()]

    def joined(vals1, vals2) -> Flow:
        vals = [zero] * rt.leaf_count
        for w, lab in slots1:
            vals[lab] = vals1[w]
        for w, lab in slots2:
            vals[lab] = vals2[w]
        return flow_from_leaves(rt, group, vals)

    def part(n: int, at: dict[int, Element]) -> tuple[Element, ...]:
        """Leaf values of an n-leaf part: zero except at the given leaves."""
        vals = [zero] * n
        for leaf, x in at.items():
            vals[leaf - 1] = x
        return tuple(vals)

    binomials: list[Binomial] = []
    provenance: list[str] = []

    # a part flow is lifted by rerouting its v-value to the other part's
    # distinguished leaf
    for b in s1.binomials:
        lhs = [joined(f, part(k2, {l2: f[v1 - 1]})) for f in b.lhs]
        rhs = [joined(f, part(k2, {l2: f[v1 - 1]})) for f in b.rhs]
        binomials.append(binomial_from_multisets(rt, group, lhs, rhs))
        provenance.append("join-E1")
    for b in s2.binomials:
        lhs = [joined(part(k1, {l1: f[v2 - 1]}), f) for f in b.lhs]
        rhs = [joined(part(k1, {l1: f[v2 - 1]}), f) for f in b.rhs]
        binomials.append(binomial_from_multisets(rt, group, lhs, rhs))
        provenance.append("join-E2")

    n_quadrics = 0
    for g0 in group.elements:
        ng0 = group.neg(g0)
        # the path flow carrying g0 from leaf l1 to leaf l2, on each part
        fg0_1 = part(k1, {l1: ng0, v1: g0})
        fg0_2 = part(k2, {l2: g0, v2: ng0})
        fg0 = joined(fg0_1, fg0_2)
        pairs2 = [(w, joined(fg0_1, w))
                  for w in _fixed_leaf_values(k2, group, v2, ng0) if w != fg0_2]
        for u in _fixed_leaf_values(k1, group, v1, g0):
            if u == fg0_1:
                continue
            mix1 = joined(u, fg0_2)
            for w, mix2 in pairs2:
                f = joined(u, w)
                binomials.append(binomial_from_multisets(
                    rt, group, [f, fg0], [mix1, mix2]))
                provenance.append("join-edge-quadric")
                n_quadrics += 1

    g = group.order
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
    _check_claw(rt, 4)
    u = group.unit(j)
    nu = group.neg(u)
    z = group.zero()
    return _claw_quadric(rt, group,
                         (u, z, nu, z), (z, nu, z, u),
                         (z, z, nu, u), (u, nu, z, z))


def nonspecial_quadric(rt: RootedTree, group: GroupSpec, b: Element) -> Binomial:
    """Claw quadric attached to a nonzero element that is no embedded unit
    generator; j is the last factor with a nonzero residue in b."""
    _check_claw(rt, 4)
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


def _check_claw(rt: RootedTree, min_leaves: int):
    if not rt.tree.is_claw or rt.leaf_count < min_leaves:
        raise InvalidTreeError(
            f"quadrics need a claw with at least {min_leaves} leaves")


def _claw_quadric(rt, group, lq1, lq2, rq1, rq2) -> Binomial:
    z = group.zero()
    pad = (z,) * (rt.leaf_count - 4)
    mk = lambda head: flow_from_leaves(rt, group, head + pad)
    return binomial_from_multisets(
        rt, group, [mk(lq1), mk(lq2)], [mk(rq1), mk(rq2)])


def claw_set(n_leaves: int, group: GroupSpec, mode: str = "direct-cyclic") -> InvariantSet:
    """The generating set for the claw with ``n_leaves`` leaves."""
    if n_leaves == 3:
        return tripod_set(group, mode)
    s1 = tripod_set(group, mode)
    s2 = claw_set(n_leaves - 1, group, mode)
    ctx = join(canonical_claw(3), 3, canonical_claw(n_leaves - 1), n_leaves - 1)
    aux = join_sets(ctx, group, s1, s2)

    claw_rt = canonical_rooting(canonical_claw(n_leaves))
    binomials: list[Binomial] = []
    provenance: list[str] = []
    for b in aux.binomials:
        # the claw flow is the leaf-value part: only the interior-edge
        # coordinate of T' is dropped
        restricted = binomial_from_multisets(
            claw_rt, group,
            [f[:n_leaves] for f in b.lhs], [f[:n_leaves] for f in b.rhs])
        if restricted.is_trivial:
            raise InternalError("a T' binomial restricts to a trivial claw binomial")
        binomials.append(restricted)
        provenance.append("contracted-from-T'")
    for b in group.elements[1:]:
        if b in group.units():
            j = next(k + 1 for k, r in enumerate(b) if r)
            binomials.append(special_quadric(claw_rt, group, j))
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
    handled recursively.  A flow, binomial, admissibility or lattice error
    raised inside the construction is a broken invariant, not bad input,
    and comes out as :class:`InternalError`.
    """
    opts = options or GenerateOptions()
    check_flow_cap(tree, group, opts.flow_cap)
    rng = random.Random(opts.seed) if opts.seed is not None else None
    try:
        return _generate(tree, group, opts, rng)
    except (AdmissibilityError, BinomialError, FlowError, LatticeError) as exc:
        raise InternalError(f"{type(exc).__name__}: {exc}") from exc


def _generate(tree: Tree, group: GroupSpec, opts: GenerateOptions,
              rng: random.Random | None) -> InvariantSet:
    if tree.is_claw:
        return claw_set(tree.leaf_count, group, opts.mode)
    rt = canonical_rooting(tree)
    interior = rt.interior_edges()
    if rng is not None:
        edge = rng.choice(interior)
    else:
        candidates = [e for e in interior if e[0] == rt.root]
        edge = max(candidates, key=lambda e: sum(
            1 for w in rt.nodes_below(e[1]) if w <= rt.leaf_count))
    ctx = decompose_at_edge(rt, edge)
    s1 = _generate(ctx.t1.tree, group, opts, rng)
    s2 = _generate(ctx.t2.tree, group, opts, rng)
    return join_sets(ctx, group, s1, s2)
