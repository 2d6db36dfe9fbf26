"""Dense reference computations for the tests.

The package certifies with sparse vectors only.  These dense versions are
the independent references the tests compare it against: a row Hermite
normal form with its transform, saturated kernels and lattice equality,
the 0/1 monomial matrix and its kernel, every flow as a list, a flow's
0/1 vertex point as its support, why a term is not a flow (the first node
where it does not conserve, residue by residue), the verifier's
membership check with a ``Counter`` of vertex supports per binomial, an
exponent vector by ``Counter`` arithmetic, the
admissibility condition matrix, the admissibility check with ``Counter``
sums, dense views and degrees of the sparse matrices (dicts of nonzero
entries keyed by element-index pairs), group addition, the fixed-sum
tuples of element indices and the product and factored tripod bases on
element tuples, the join on full part leaf tuples, and the span
elimination's pivot rule.  Small instances only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from phyloinv.errors import InvalidTreeError, LatticeError
from phyloinv.flows import (DEFAULT_FLOW_CAP, binomial_from_multisets,
                            check_flow_cap, flow_from_leaves, iter_flows)
from phyloinv.groups import GroupSpec, prime_power_refinement
from phyloinv.lattice import Echelon, invariant_factors
from phyloinv.pipeline import InvariantSet, _check_codim
from phyloinv.tripod import cyclic_basis

Matrix = list[list[int]]


# -- dense integer matrices --------------------------------------------


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i, arow in enumerate(A):
        orow = out[i]
        for t, a in enumerate(arow):
            if a:
                brow = B[t]
                for j in range(m):
                    orow[j] += a * brow[j]
    return out


def hnf(A: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form.  Returns (H, U) with H = U*A, |det U| = 1,
    pivots positive, entries above each pivot reduced into [0, pivot)."""
    H = [[int(x) for x in row] for row in A]
    m = len(H)
    n = len(H[0]) if m else 0
    U = identity(m)
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if H[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            p = H[r][c]
            done = True
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // p
                    if q:
                        H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                        U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                    if H[i][c]:
                        done = False
            if done:
                break
        if H[r][c]:
            p = H[r][c]
            for i in range(r):
                q = H[i][c] // p
                if q:
                    H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
            r += 1
    return H, U


# -- lattices ----------------------------------------------------------


@dataclass(frozen=True)
class LatticeBasis:
    """A sublattice of Z^ambient given by linearly independent basis rows
    (kept in canonical HNF when built through :meth:`from_vectors`)."""

    ambient: int
    vectors: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @classmethod
    def from_vectors(cls, ambient: int,
                     vectors: Iterable[Sequence[int]]) -> "LatticeBasis":
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise LatticeError(f"vector length {len(v)} != ambient {ambient}")
        if not rows:
            return cls(ambient, ())
        H, _ = hnf(rows)
        return cls(ambient, tuple(tuple(row) for row in H if any(row)))


def kernel_lattice(A: Sequence[Sequence[int]]) -> LatticeBasis:
    """The saturated lattice {x in Z^n : A x = 0} for an m x n matrix A."""
    m = len(A)
    n = len(A[0]) if m else 0
    # row-HNF of [A^T | I_n]: rows whose A^T part vanished carry a kernel basis
    T = [[A[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(n)]
         for j in range(n)]
    H, _ = hnf(T)
    return LatticeBasis.from_vectors(n, [row[m:] for row in H if not any(row[:m])])


def lattice_equal(L1: LatticeBasis, L2: LatticeBasis) -> bool:
    if L1.ambient != L2.ambient:
        raise LatticeError(f"ambient dimensions differ: {L1.ambient} vs {L2.ambient}")
    c1 = LatticeBasis.from_vectors(L1.ambient, L1.vectors)
    c2 = LatticeBasis.from_vectors(L2.ambient, L2.vectors)
    return c1.vectors == c2.vectors


class OutsideSpanError(LatticeError):
    """A vector lies outside the rational span of the target lattice."""


def spans(vectors: Iterable[Sequence[int]], L: LatticeBasis) -> bool:
    """True iff the integer span of ``vectors`` equals L.

    A vector outside the *rational* span of L raises
    :class:`OutsideSpanError`; a proper sublattice just returns False.
    """
    vecs = [list(v) for v in vectors]
    for v in vecs:
        if len(v) != L.ambient:
            raise LatticeError(f"vector length {len(v)} != ambient {L.ambient}")
    ech = Echelon(L.ambient)
    for b in L.vectors:
        ech.add(dict(enumerate(b)))
    base_rank = ech.rank
    for i, v in enumerate(vecs):
        ech.add(dict(enumerate(v)))
        if ech.rank > base_rank:
            raise OutsideSpanError(f"vector {i} lies outside the rational span of the lattice")
    return lattice_equal(LatticeBasis.from_vectors(L.ambient, vecs), L)


# -- flows and the monomial matrix -------------------------------------


def enumerate_flows(rt, group, cap: int = DEFAULT_FLOW_CAP) -> list:
    """Every flow, in ``iter_flows`` order."""
    check_flow_cap(rt.tree, group, cap)
    return list(iter_flows(rt, group))


def vertex_support(rt, group, f) -> tuple[int, ...]:
    """Flat indices of the ones in a flow's 0/1 vertex point: one block of
    size |G| per edge, with a 1 at the enumeration index of its value."""
    g, index = group.order, group.table.index
    return tuple(ei * g + i for ei, i in enumerate(map(index.__getitem__, f)))


def monomial_matrix(rt, group, flow_cap: int = DEFAULT_FLOW_CAP) -> Matrix:
    """The (edges * |G|) x (number of flows) 0/1 matrix whose columns are the
    vertex points, in flow enumeration order."""
    n = check_flow_cap(rt.tree, group, flow_cap)
    rows = [[0] * n for _ in range(rt.edge_count * group.order)]
    for col, f in enumerate(iter_flows(rt, group)):
        for pos in vertex_support(rt, group, f):
            rows[pos][col] = 1
    return rows


def oracle_kernel(rt, group, flow_cap: int = DEFAULT_FLOW_CAP) -> LatticeBasis:
    """The saturated integer kernel of the monomial matrix."""
    return kernel_lattice(monomial_matrix(rt, group, flow_cap))


def leaking_node(rt, group, f):
    """The first interior node, in id order, whose outgoing values do not
    sum to its incoming value (to zero at the root), summed residue by
    residue; None when ``f`` conserves everywhere."""
    for u in rt.tree.interior_nodes:
        up = rt.parent[u]
        for j, a in enumerate(group.factors):
            t = sum(f[rt.edge_index[(u, c)]][j] for c in rt.children[u])
            if up is not None:
                t -= f[rt.edge_index[(up, u)]][j]
            if t % a:
                return u
    return None


def flow_defect(rt, group, t) -> str | None:
    """Why ``t`` is not a flow on ``rt``, in the verifier's words, checked in
    its order (a tuple, its length, each value in ``group``, conservation at
    ``leaking_node``); None for a flow."""
    e = rt.edge_count
    if not isinstance(t, tuple):
        return f"is not a tuple of {e} edge values"
    if len(t) != e:
        return f"has {len(t)} edge values, expected {e}"
    for ei, x in enumerate(t):
        if x not in group.elements:
            return f"value {x} on edge {ei} {rt.edges[ei]} is not in {group}"
    u = leaking_node(rt, group, t)
    return None if u is None else f"values do not conserve at node {u}"


def membership(rt, group, binomials) -> tuple[bool, list[str]]:
    """The verifier's kernel-membership verdict and failure messages for
    binomials with hashable tuple sides: every term must be a flow, and
    the vertex supports of each side, counted with a ``Counter``, must
    agree."""
    terms = {f for b in binomials for f in b.lhs + b.rhs}
    defects = {f: d for f in terms if (d := flow_defect(rt, group, f))}
    support = {f: vertex_support(rt, group, f) for f in terms if f not in defects}
    ok, failures = True, []
    for i, b in enumerate(binomials):
        bad = [f for f in dict.fromkeys(b.lhs + b.rhs) if f in defects]
        for f in bad:
            failures.append(f"binomial {i}: term {f} is not a flow: {defects[f]}")
        if bad:
            ok = False
            continue
        acc: Counter = Counter()
        for f in b.lhs:
            acc.update(support[f])
        for f in b.rhs:
            acc.subtract(support[f])
        if any(acc.values()):
            ok = False
            failures.append(f"binomial {i}: exponent vector outside the kernel")
    return ok, failures


def exponent_vector_reference(column, lhs, rhs) -> dict[int, int]:
    """The exponent vector of the binomial with sides ``lhs`` and ``rhs``:
    the columns of the lhs terms counted up and those of the rhs terms
    counted down in one ``Counter``, zero entries dropped.  A ``Counter``
    keeps its keys in order of first occurrence, lhs then rhs."""
    count = Counter(column[t] for t in lhs)
    count.subtract(column[t] for t in rhs)
    return {c: v for c, v in count.items() if v}


def is_trivalent(tree) -> bool:
    return all(len(tree.neighbors(u)) == 3 for u in tree.interior_nodes)


# -- group arithmetic on element tuples -----------------------------------


def add(spec, a, b):
    """``a + b`` in ``spec``, residue by residue on the element tuples."""
    return tuple((x + y) % m for x, y, m in zip(a, b, spec.factors))


def fixed_sum_tuples(n, spec, total):
    """Every n-tuple of element indices whose elements sum to the element of
    index ``total``, in lexicographic order: all g^n tuples, kept by their
    sum on element tuples rather than by the Cayley table."""
    els = spec.elements
    for t in product(range(spec.order), repeat=n):
        s = spec.zero()
        for i in t:
            s = add(spec, s, els[i])
        if s == els[total]:
            yield t


# -- admissible matrices -----------------------------------------------


def admissible_condition_matrix(spec) -> Matrix:
    """The 3|G| x |G|^2 matrix of the three admissibility conditions applied
    to a flattened (row-major) matrix; its integer kernel is the admissible
    lattice."""
    els = spec.elements
    n = len(els)
    rows: Matrix = []
    for i in range(n):
        row = [0] * (n * n)
        for j in range(n):
            row[i * n + j] = 1
        rows.append(row)
    for j in range(n):
        row = [0] * (n * n)
        for i in range(n):
            row[i * n + j] = 1
        rows.append(row)
    for k in els:
        row = [0] * (n * n)
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                if add(spec, a, b) == k:
                    row[i * n + j] = 1
        rows.append(row)
    return rows


def dense(m, n):
    """The n x n tuple of rows of the sparse matrix ``m`` over a group of
    order n."""
    return tuple(tuple(m.get((a, b), 0) for b in range(n)) for a in range(n))


def flat(m, n):
    """Row-major flattening of :func:`dense`, the oracle's coordinates."""
    return [x for row in dense(m, n) for x in row]


def degree(m):
    """The degree of a matrix's binomial: the sum of its positive entries."""
    return sum(v for v in m.values() if v > 0)


def sparse(rows):
    """The nonzero entries of a dense matrix, keyed by (row, column)."""
    return {(a, b): v for a, row in enumerate(rows)
            for b, v in enumerate(row) if v}


def meets_conditions(spec, values):
    """Oracle: the flattened ``values`` lie in the kernel of the condition
    matrix of ``spec``."""
    return all(sum(c * x for c, x in zip(row, values)) == 0
               for row in admissible_condition_matrix(spec))


def admissibility_failure_counter(entries, spec):
    """The admissibility check with a ``Counter`` per condition family: None
    when admissible, else the first failing row, column or antidiagonal
    class, each family in element order, or the first index outside the
    group."""
    els, add = spec.table.elements, spec.table.add
    n = len(els)
    rows: Counter = Counter()
    cols: Counter = Counter()
    classes: Counter = Counter()
    for (a, b), v in entries.items():
        if not (a in range(n) and b in range(n)):
            return f"index ({a}, {b}) outside 0..{n - 1} for group {spec}"
        rows[a] += v
        cols[b] += v
        classes[add[a][b]] += v
    for sums, name in ((rows, "row {}"), (cols, "column {}"),
                       (classes, "antidiagonal class i+j={}")):
        k = min((k for k, s in sums.items() if s), default=None)
        if k is not None:
            return f"{name.format(els[k])} sums to {sums[k]}"
    return None


# -- product bases on element tuples -------------------------------------


def transpose(m):
    """The transpose of a sparse matrix, entries in the same order."""
    return {(b, a): v for (a, b), v in m.items()}


def product_cubic_reference(gs, hs, i, j, k, l):
    """The degree-3 matrix B(i,j,k,l) over G x H from element tuples: the
    sums taken on the tuples and twelve ``GroupSpec.index`` lookups."""
    if j == gs.zero():
        raise ValueError("j must be a nonzero element of G")
    if k == hs.zero():
        raise ValueError("k must be a nonzero element of H")
    h = hs.order

    def idx(a, b):
        return gs.index(a) * h + hs.index(b)

    z_g, z_h = gs.zero(), hs.zero()
    ij = add(gs, i, j)
    kl = add(hs, k, l)
    return {
        (idx(i, k), idx(j, l)): 1,
        (idx(ij, z_h), idx(z_g, l)): 1,
        (idx(i, z_h), idx(z_g, kl)): 1,
        (idx(ij, z_h), idx(z_g, kl)): -1,
        (idx(i, k), idx(z_g, l)): -1,
        (idx(i, z_h), idx(j, l)): -1,
    }


def relabel_matrix_reference(m, phi, source, target):
    """Transport a matrix over ``source`` through the homomorphism ``phi``
    on element tuples, looking every image up in ``target``."""
    to = [target.index(phi(a)) for a in source.elements]
    return {(to[a], to[b]): v for (a, b), v in m.items()}


def product_basis_reference(gs, hs, basis_g, basis_h):
    """The eight-family basis of G x H on element tuples, families (4) and
    (5) as transposes of built matrices."""
    combined = GroupSpec(gs.factors + hs.factors)
    G_nz, H_nz = gs.elements[1:], hs.elements[1:]
    z_g, z_h = gs.zero(), hs.zero()
    families = (
        (G_nz, G_nz, H_nz, H_nz, False),
        ((z_g,), G_nz, H_nz, H_nz, False),
        (G_nz, G_nz, H_nz, (z_h,), False),
        ((z_g,), G_nz, H_nz, H_nz, True),
        (G_nz, G_nz, H_nz, (z_h,), True),
        ((z_g,), G_nz, H_nz, (z_h,), False),
    )
    out = []
    for *ranges, transposed in families:
        for i, j, k, l in product(*ranges):
            m = product_cubic_reference(gs, hs, i, j, k, l)
            out.append(transpose(m) if transposed else m)
    out.extend(relabel_matrix_reference(m, lambda a: a + z_h, gs, combined)
               for m in basis_g)
    out.extend(relabel_matrix_reference(m, lambda b: z_g + b, hs, combined)
               for m in basis_h)
    return out


def factored_basis_reference(spec):
    """The factored-mode basis: the prime-power refinement folded with
    :func:`product_basis_reference` and mapped back through the CRT map."""
    refined, back = prime_power_refinement(spec)
    cur_spec = GroupSpec(refined.factors[:1])
    cur = cyclic_basis(refined.factors[0])
    for a in refined.factors[1:]:
        nxt = GroupSpec((a,))
        cur = product_basis_reference(cur_spec, nxt, cur, cyclic_basis(a))
        cur_spec = GroupSpec(cur_spec.factors + (a,))
    return [relabel_matrix_reference(m, back, refined, spec) for m in cur]


# -- joins on full part leaf tuples --------------------------------------


def _fixed_leaf_values(n, group, leaf, value):
    """Leaf values of the flows on an n-leaf tree with ``value`` at ``leaf``,
    in lexicographic order of the remaining free leaves (the last free leaf
    is forced)."""
    others = [x for x in range(1, n + 1) if x != leaf]
    free, forced = others[:-1], others[-1]
    for combo in product(group.elements, repeat=len(free)):
        s = value
        for x in combo:
            s = add(group, s, x)
        vals = {leaf: value, forced: group.neg(s)}
        vals.update(zip(free, combo))
        yield tuple(vals[x] for x in range(1, n + 1))


def join_sets_reference(ctx, group, s1, s2):
    """The join on full part leaf tuples, fresh-leaf values included.

    Each part keeps its fresh leaf v (labelled last) in every tuple; the
    distinguished leaf l of a part is its lowest leaf other than v.  A part
    flow is lifted by putting its v-value at the other part's l, the path
    flow of g0 runs from l1 to l2, and the quadrics enumerate the part
    tuples with the v-value fixed.  Joined flows are built from the tuples
    with the v-slots dropped.  Returns the same set as ``join_sets``.
    """
    t1, t2 = ctx.t1, ctx.t2
    if s1.rooted.tree != t1 or s2.rooted.tree != t2:
        raise InvalidTreeError("part sets do not match the join context trees")
    _check_codim(len(s1.binomials), t1, group, "part set T1")
    _check_codim(len(s2.binomials), t2, group, "part set T2")
    k1, k2 = t1.leaf_count, t2.leaf_count
    v1, v2 = k1, k2
    l1 = min(x for x in range(1, k1 + 1) if x != v1)
    l2 = min(x for x in range(1, k2 + 1) if x != v2)
    rt = ctx.rooted
    zero = group.zero()

    def leaves(vals1, vals2):
        vals = [zero] * rt.leaf_count
        for w, lab in ctx.leaf_map1.items():
            vals[lab - 1] = vals1[w - 1]
        for w, lab in ctx.leaf_map2.items():
            vals[lab - 1] = vals2[w - 1]
        return tuple(vals)

    def joined(vals1, vals2):
        return flow_from_leaves(rt, group, leaves(vals1, vals2))

    def part(n, at):
        vals = [zero] * n
        for leaf, x in at.items():
            vals[leaf - 1] = x
        return tuple(vals)

    binomials, provenance = [], []
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
        fg0_1 = part(k1, {l1: ng0, v1: g0})
        fg0_2 = part(k2, {l2: g0, v2: ng0})
        fg0 = joined(fg0_1, fg0_2)
        for u in _fixed_leaf_values(k1, group, v1, g0):
            if u == fg0_1:
                continue
            for w in _fixed_leaf_values(k2, group, v2, ng0):
                if w == fg0_2:
                    continue
                binomials.append(binomial_from_multisets(
                    rt, group, [joined(u, w), fg0],
                    [joined(u, fg0_2), joined(fg0_1, w)]))
                provenance.append("join-edge-quadric")
                n_quadrics += 1

    log = list(s1.join_log) + list(s2.join_log) + [{
        "tree": rt.tree.canonical_newick(),
        "leaves": rt.leaf_count,
        "family_e1": len(s1.binomials),
        "family_e2": len(s2.binomials),
        "family_quadric": n_quadrics,
        "codim": _check_codim(len(binomials), rt.tree, group, "joined set"),
    }]
    return InvariantSet(rt, group, binomials, provenance, log)


# -- the unit-pivot elimination, pivot by pivot ----------------------------


def eliminate_reference(rows_in):
    """The rank and leftover factors of ``lattice._eliminate``, by its pivot
    rule stated plainly.  While a live row has a +-1 entry, pivot on the one
    with the fewest nonzeros (lowest id on ties), in its +-1 column touched
    by the fewest live rows (lowest column on ties): clear that column from
    every other row and drop the pivot row and any row that becomes zero.
    The leftover is the invariant factors of the rows left."""
    rows = {rid: {c: v for c, v in r.items() if v}
            for rid, r in enumerate(rows_in)}
    rows = {rid: r for rid, r in rows.items() if r}
    pivots = 0
    while True:
        units = [(len(r), rid) for rid, r in rows.items()
                 if any(v in (1, -1) for v in r.values())]
        if not units:
            break
        rid = min(units)[1]
        row = rows.pop(rid)
        c = min((sum(c in r for r in rows.values()), c)
                for c, v in row.items() if v in (1, -1))[1]
        for other in [o for o, r in rows.items() if c in r]:
            q = rows[other][c] * row[c]  # row[c] is its own inverse
            new = {k: rows[other].get(k, 0) - q * row.get(k, 0)
                   for k in set(rows[other]) | set(row)}
            rows[other] = {k: v for k, v in new.items() if v}
            if not rows[other]:
                del rows[other]
        pivots += 1
    cols = sorted({c for r in rows.values() for c in r})
    leftover = invariant_factors([[r.get(c, 0) for c in cols]
                                  for r in rows.values()]) if rows else []
    return pivots + len(leftover), leftover
