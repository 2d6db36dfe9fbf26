"""Generators of the admissible-matrix lattice for tripod trees.

An *admissible* matrix for a group G is a |G| x |G| integer matrix, rows
and columns indexed by the element enumeration order, satisfying three
linear conditions: every row sums to zero, every column sums to zero, and
for every k in G the entries over {(i, j) : i + j = k} sum to zero.  These
are exactly the integer relations among the flows [i, j, -i-j] of a tripod,
so a generating set of the admissible lattice gives the tripod's defining
binomials on the dense torus orbit.

For cyclic Z_g the basis is indexed by K = {(i, j) : i != 0, j not in
{0, 1}} and built from sums of exchange moves; each basis matrix has a
single 1 inside K (at its own index) and zeros at the other K positions,
which is what makes the set a lattice basis.  For products G x H the basis
consists of degree-3 matrices from eight families (six built from a fixed
six-entry pattern and its transposes, plus the two embedded factor bases);
the element pair (a, b) of G x H, for element indices a of G and b of H,
has the combined index a·|H| + b.

A matrix is a plain dict of its nonzero entries, keyed by (row, column)
element indices: a cyclic basis matrix has O(g) of them and a product cubic
six, so building and converting a matrix costs time in its nonzeros, not in
|G|^2.  Admissibility is checked once per matrix, on its tripod binomial:
the row, column and class conditions say that the two sides have equal
multisets on edge 0 (leaf 1), edge 1 (leaf 2) and edge 2 (leaf 3), which
:func:`binomial_from_multisets` checks.  Matrices of the intermediate
factors reach that check through the inclusions a -> (a, 0), b -> (0, b)
and the CRT isomorphism; these are injective homomorphisms, so a matrix is
admissible exactly when its image is.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import FlowError, InternalError
from .flows import (Binomial, Flow, binomial_from_multisets, flow_from_leaves,
                    packed_point, point_width)
from .groups import GroupSpec, prime_power_refinement
from .trees import RootedTree, canonical_claw, canonical_rooting

Matrix = dict[tuple[int, int], int]


@lru_cache(maxsize=None)
def tripod_tree() -> RootedTree:
    return canonical_rooting(canonical_claw(3))


def _add_exchange(acc: dict, g: int, r1: int, r2: int, c1: int, c2: int):
    """Add the exchange move +1 at (r1,c1),(r2,c2), -1 at (r1,c2),(r2,c1),
    indices mod g, into the dict ``acc`` (missing keys count as 0).  The
    move exchanges two rows across two columns; it is zero, and skipped,
    when r1 = r2 or c1 = c2."""
    r1 %= g; r2 %= g; c1 %= g; c2 %= g
    if r1 == r2 or c1 == c2:
        return
    acc[r1, c1] = acc.get((r1, c1), 0) + 1
    acc[r2, c2] = acc.get((r2, c2), 0) + 1
    acc[r1, c2] = acc.get((r1, c2), 0) - 1
    acc[r2, c1] = acc.get((r2, c1), 0) - 1


def cyclic_basis_matrix(g: int, i: int, j: int) -> Matrix:
    """The admissible basis matrix for index (i, j) in K over Z_g.

    Built as the exchange move at (i,0,j,0) plus a telescoping chain of
    exchange moves with column pair (1, 0); the chain runs over s = 1..i
    when i <= g/2 and over s = 1..g-i (with the row roles of i and j
    exchanged) otherwise.  Chain terms whose two rows coincide are zero and
    simply dropped, and so are the entries the chain cancels.  The result
    has a lone 1 at (i, j) within K and is admissible of degree <= g.
    """
    if not (0 < i < g and 1 < j < g):
        raise ValueError(f"(i, j) = ({i}, {j}) is not in K for Z_{g}")
    acc: Matrix = {}
    _add_exchange(acc, g, i, 0, j, 0)
    if i <= g // 2:
        for s in range(1, i + 1):
            _add_exchange(acc, g, i - s, j + s - 1, 1, 0)
    else:
        for s in range(1, g - i + 1):
            _add_exchange(acc, g, j - s, i + s - 1, 1, 0)
    out = {k: v for k, v in acc.items() if v}
    if out.get((i, j)) != 1 or any(
            a >= 1 and b >= 2 and (a, b) != (i, j) for a, b in out):
        raise InternalError(f"basis matrix ({i}, {j}) over Z{g} is not the "
                            f"unit vector of its own index within K")
    degree = sum(v for v in out.values() if v > 0)
    if degree > g:
        raise InternalError(f"degree {degree} exceeds {g} at ({i}, {j})")
    return out


def cyclic_basis(g: int) -> list[Matrix]:
    """The (g-1)(g-2) basis matrices of the admissible lattice of Z_g."""
    return [cyclic_basis_matrix(g, i, j)
            for i in range(1, g) for j in range(2, g)]


def product_cubic(gs: GroupSpec, hs: GroupSpec, i: int, j: int, k: int,
                  l: int) -> Matrix:
    """The six entries of the degree-3 admissible matrix B(i,j,k,l) over
    G x H, for element indices i, j of G and k, l of H (j, k nonzero).

    +1 at ((i,k),(j,l)), ((i+j,0),(0,l)), ((i,0),(0,k+l)) and -1 at
    ((i+j,0),(0,k+l)), ((i,k),(0,l)), ((i,0),(j,l)), each pair (a, b)
    keyed by its combined index a·|H| + b and the sums read from the two
    Cayley tables.  With j and k nonzero the three rows and the three
    columns are distinct, so the six positions are too.
    """
    if j == 0:
        raise ValueError("j must be a nonzero element of G")
    if k == 0:
        raise ValueError("k must be a nonzero element of H")
    h = hs.order
    ik, i0, ij0 = i * h + k, i * h, gs.table.add[i][j] * h
    jl, kl = j * h + l, hs.table.add[k][l]
    return {(ik, jl): 1, (ij0, l): 1, (i0, kl): 1,
            (ij0, kl): -1, (ik, l): -1, (i0, jl): -1}


def product_basis(gs: GroupSpec, hs: GroupSpec, basis_g: list[Matrix],
                  basis_h: list[Matrix]) -> list[Matrix]:
    """Basis of the admissible lattice of G x H from bases of the factors.

    Eight families: cubics B(i,j,k,l) with (1) all of i,j,k,l nonzero,
    (2) i = 0, (3) l = 0, (6) i = l = 0, the transposes (4) of family (2)
    and (5) of family (3), and the two factor bases (7), (8) carried over
    by the inclusions a -> (a, 0) and b -> (0, b).
    Family counts add up to (|G||H| - 1)(|G||H| - 2).
    """
    g_ord, h_ord = gs.order, hs.order
    if len(basis_g) != (g_ord - 1) * (g_ord - 2):
        raise ValueError(f"basis of G has {len(basis_g)} matrices, "
                         f"expected {(g_ord - 1) * (g_ord - 2)}")
    if len(basis_h) != (h_ord - 1) * (h_ord - 2):
        raise ValueError(f"basis of H has {len(basis_h)} matrices, "
                         f"expected {(h_ord - 1) * (h_ord - 2)}")
    G_nz, H_nz = range(1, g_ord), range(1, h_ord)
    # (ranges of i, j, k, l, transposed) of the six cubic families, in order
    families = (
        (G_nz, G_nz, H_nz, H_nz, False),  # (1)
        ((0,), G_nz, H_nz, H_nz, False),  # (2) i = 0
        (G_nz, G_nz, H_nz, (0,), False),  # (3) l = 0
        ((0,), G_nz, H_nz, H_nz, True),   # (4) transposes of (2)
        (G_nz, G_nz, H_nz, (0,), True),   # (5) transposes of (3)
        ((0,), G_nz, H_nz, (0,), False),  # (6) i = l = 0
    )
    out: list[Matrix] = []
    for *ranges, transposed in families:
        for i, j, k, l in product(*ranges):
            entries = product_cubic(gs, hs, i, j, k, l)
            if transposed:
                entries = {(b, a): v for (a, b), v in entries.items()}
            out.append(entries)
    out.extend(relabel_matrix(m, range(0, g_ord * h_ord, h_ord)) for m in basis_g)
    out.extend(relabel_matrix(m, range(h_ord)) for m in basis_h)

    expected = (g_ord * h_ord - 1) * (g_ord * h_ord - 2)
    if len(out) != expected:
        raise InternalError(f"{len(out)} matrices, expected {expected}")
    return out


def relabel_matrix(m: Matrix, to) -> Matrix:
    """Transport a matrix along the element-index map ``to`` (source index
    a goes to ``to[a]``) of a group homomorphism: an isomorphism, or an
    inclusion of a direct factor."""
    return {(to[a], to[b]): v for (a, b), v in m.items()}


def adm_basis(spec: GroupSpec, mode: str = "direct-cyclic") -> list[Matrix]:
    """Generating matrices of the admissible lattice for any presentation.

    ``direct-cyclic`` folds the written factors left to right with
    :func:`product_basis`, seeding each factor with :func:`cyclic_basis`
    (degree can reach the factor order).  ``factored`` first refines every
    factor into prime powers, builds the basis there (degree <= max(3,
    prime-power orders)) and transports it back through the CRT isomorphism,
    evaluated once per element into one index map.
    """
    if mode == "factored":
        refined, back = prime_power_refinement(spec)
        if refined == spec:
            mode = "direct-cyclic"
        else:
            basis = adm_basis(refined, "direct-cyclic")
            to = [spec.index(back(x)) for x in refined.elements]
            return [relabel_matrix(m, to) for m in basis]
    if mode != "direct-cyclic":
        raise ValueError(f"unknown mode {mode!r}; use 'direct-cyclic' or 'factored'")
    cur = cyclic_basis(spec.factors[0])
    for n, a in enumerate(spec.factors[1:], 1):
        cur = product_basis(GroupSpec(spec.factors[:n]), GroupSpec((a,)), cur,
                            cyclic_basis(a))
    return cur


def matrix_to_binomial(m: Matrix, group: GroupSpec,
                       built: dict[tuple[int, int], tuple[Flow, int]] | None = None
                       ) -> Binomial:
    """The tripod binomial of a matrix over ``group``: the entry of elements
    (a, b) with value v contributes |v| copies of the flow with leaf values
    (a, b, -a-b) to the positive side when v > 0, negative side when v < 0.

    An index outside 0..|G|-1 raises :class:`FlowError`, and
    :func:`binomial_from_multisets` raises :class:`BinomialError` unless
    the matrix is admissible, naming edge 0, 1 or 2 for a broken row,
    column or class.  The flow of (a, b) and its packed vertex point are
    taken from ``built`` and added there the first time they are needed,
    so matrices converted with one dict share flows.
    """
    if built is None:
        built = {}
    els, add, neg = group.table.elements, group.table.add, group.table.neg
    n = len(els)
    width = point_width(group)
    rt = tripod_tree()
    lhs: list = []
    rhs: list = []
    lp: list = []
    rp: list = []
    for (a, b), v in m.items():
        fp = built.get((a, b))
        if fp is None:
            if not (0 <= a < n and 0 <= b < n):
                raise FlowError(f"index ({a}, {b}) outside 0..{n - 1} "
                                f"for group {group}")
            f = flow_from_leaves(rt, group, (els[a], els[b], els[neg[add[a][b]]]))
            fp = built[a, b] = (f, packed_point(rt, group, width, f))
        f, p = fp
        if v > 0:
            lhs += [f] * v
            lp += [p] * v
        else:
            rhs += [f] * -v
            rp += [p] * -v
    return binomial_from_multisets(rt, group, lhs, rhs, (width, lp, rp))


def tripod_invariants(group: GroupSpec, mode: str = "direct-cyclic") -> list[Binomial]:
    """The defining binomials of the tripod variety for ``group``; the
    matrices share one flow per element pair."""
    built: dict[tuple[int, int], tuple[Flow, int]] = {}
    return [matrix_to_binomial(m, group, built) for m in adm_basis(group, mode)]
