"""Independent certification that a binomial set defines the variety.

The generated set is correct iff its exponent vectors generate, over the
integers, the kernel lattice of the monomial map sending each flow to its
0/1 vertex point.  The checks here never reuse the construction's own
reasoning: membership is verified against the vertex points, the kernel
rank against the matrix rank, and the spanning property through a
saturation certificate (a peel of the rows with a +-1 in a column of their
own, unit-pivot elimination of the rest, and the leftover invariant
factors; see ``lattice.sparse_span_certificate``), which for sparse
generator sets is exact and cheap even when a dense Hermite form would be
far out of reach.

A flow is read one way only, as its element indices.  One pass over the
set (``_term_ids``) gives each distinct term an id at its first
occurrence, hashing each occurrence once, and keeps every side as a run of
ids in one flat list, with the length of each side.  Each distinct term is
then read once, in id order (``_read_terms``), into its defect or, for a
flow, its column in the exponent vectors and its vertex point packed into
one integer, wide enough per column that a side's sum never carries, so a
binomial is in the kernel exactly when its two sides' packed sums are
equal.  One pass then reads each binomial's ids once, its two sides
sliced from the flat list: the packed sums decide its membership, and the
columns give its exponent vector, with no ``Binomial`` built per row.

The rank of the monomial matrix and the index of the vertex-difference
lattice come from a small witness: the flows with at most three nonzero
leaf values, whose vertex points span every flow's over the integers.
Each is encoded as its vertex-point difference in the degree-zero basis,
and the rank is the dimension of that lattice plus one.  Both quantities
have a proven bound, the rank from above and the index from below.  A pass
folds the witness sparsest first and stops once both bounds are met (see
``_fold_witness``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import inf, prod
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import InternalError, as_text
from .flows import (DEFAULT_FLOW_CAP, Binomial, Flow, check_flow_cap,
                    flow_total, iter_flows)
from .groups import GroupSpec
from .lattice import Echelon, det, sparse_span_certificate
from .trees import RootedTree, Tree

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import InvariantSet


def codim(tree: Tree, group: GroupSpec) -> int:
    """Codimension of the variety in its torus: flows - 1 - (|G|-1) * edges."""
    return flow_total(tree, group) - 1 - (group.order - 1) * tree.edge_count


def degree_bound(group: GroupSpec) -> int:
    return max(3, max(group.factors))


def _fold_witness(rt: RootedTree, group: GroupSpec) -> Echelon:
    """The echelon of the witness flows, those with at most three nonzero
    leaf values, folded until it meets both bounds proven below: after an
    ``add`` that changed it at full rank (g-1)e, a pivot product below
    g^(interior nodes) raises ``InternalError`` and one equal to it stops
    the fold.  With g = |G| and e the edge count, a flow f is encoded in
    the basis unit(edge, h) - unit(edge, 0), h != 0, of the degree-zero
    lattice D = Z^((g-1)e): Q_f - Q_0 has a 1 at ei*(g-1) + i-1 for each
    edge ei whose value index i is not 0.

    One ``iter_flows`` pass sorts the witness by its count of nonzero leaf
    values (0 for the zero flow, then 2, then 3; never 1, as the leaf
    values sum to zero), lexicographic within a count, and the fold runs
    in that order: the sparse flows fill the echelon's unit pivots first.
    Both bounds below are invariants of the witness lattice, so the order
    changes only how soon a pass stops, not the rank or the index.

    The witness spans: with Q_f the vertex point of a flow f and 0 the zero
    flow, every Q_f - Q_0 is an integer sum of witness differences.  Let f
    have k >= 4 nonzero leaf values x_m, on the leaf set N.  Flows h1, h2,
    p with fewer than k nonzero leaf values and, on every edge, {f, p} =
    {h1, h2} as multisets give Q_f - Q_0 = (Q_h1 - Q_0) + (Q_h2 - Q_0) -
    (Q_p - Q_0); induction on k ends the proof.  Write S_A for the sum of
    f's leaf values on a leaf set A.

    * Some edge has two or more leaves of N on each side, A and B: pick a
      in N on A, b in N on B.  h1 is f on A with S_B at b, h2 is f on B
      with S_A at a, and p is S_A at a with S_B at b.  Within A, f = h1 and
      p = h2; within B, f = h2 and p = h1; on the edge all four agree.
    * No such edge: orient each edge towards its side with three or more
      leaves of N.  A sink v is interior, and each component of T - v holds
      at most one leaf of N.  For distinct i, j, r in N, h1 is x_i at i,
      x_j at j and -(x_i + x_j) at r; h2 is f on N - {i, j} with x_i + x_j
      at i; p is x_i + x_j at i with -(x_i + x_j) at r.  The multisets
      match one component at a time.

    So the witness echelon has the lattice L of all vertex differences.
    Each of its two invariants has a bound, and the fold stops when the
    echelon meets both.

    * Dimension: dim L <= (g-1)e, the width of the echelon.
    * Index: let psi map D to G^(interior nodes): the coordinate (edge, h)
      adds h at the edge's upper end and -h at its lower end, when that
      end is interior.  A vertex-point difference Q_f - Q_0 goes to the
      conservation defect of f, which is zero, so L lies in ker psi.  psi
      is onto: pick one child edge per interior node; in depth order from
      the root the system these edges give is unitriangular.  Hence
      [D : L] >= [D : ker psi] = g^(interior nodes).
    """
    n = rt.leaf_count
    index = group.table.index
    zero = group.table.elements[0]
    per_edge = group.order - 1
    witness: list[list[Flow]] = [[], [], [], []]  # by nonzero leaf count
    for f in iter_flows(rt, group):
        k = n - f[:n].count(zero)
        if k <= 3:
            witness[k].append(f)
    ech = Echelon(per_edge * rt.edge_count)
    bound = group.order ** rt.tree.interior_node_count
    for f in chain.from_iterable(witness):
        vec = {ei * per_edge + i - 1: 1
               for ei, i in enumerate(map(index.__getitem__, f)) if i}
        if ech.add(vec) and ech.rank == ech.width:
            pivots = prod(row[j] for row, j in zip(ech.rows, ech.pivcols))
            if pivots < bound:
                raise InternalError(f"vertex-difference index {pivots} is "
                                    f"below its bound {bound}")
            if pivots == bound:
                break
    return ech


def monomial_matrix_rank(rt: RootedTree, group: GroupSpec) -> int:
    """Exact rank of the monomial matrix A: dim L + 1, with L the witness
    lattice of vertex-point differences Q_f - Q_0 (see ``_fold_witness``).
    Every vertex point has one 1 per edge block, so Q_0 lies outside the
    degree-zero subspace that holds every Q_f - Q_0.  The bound rank(A) <=
    (g-1)e + 1 is the echelon's width.  The caller checks the flow cap."""
    return _fold_witness(rt, group).rank + 1


def exponent_vector(column: Mapping[Flow, int] | Sequence[int],
                    lhs: Iterable, rhs: Iterable) -> dict[int, int]:
    """Sparse exponent vector of the binomial with sides ``lhs`` and
    ``rhs`` over flow enumeration indices: +multiplicity for the positive
    side, -multiplicity for the negative.  ``column[t]`` is the index
    (``flow_index``) of each term t: ``column`` maps flows to indices, or,
    when the sides hold term ids, it is the list of indices by id.

    Both sides count into one dict, its columns in order of first
    occurrence, lhs then rhs.  Only a binomial with a term on both sides
    can leave a zero entry, and only its vector is copied without them."""
    out: dict[int, int] = {}
    for c in map(column.__getitem__, lhs):
        out[c] = out.get(c, 0) + 1
    cancels = False
    for c in map(column.__getitem__, rhs):
        v = out[c] = out.get(c, 0) - 1
        if not v:
            cancels = True
    return {c: v for c, v in out.items() if v} if cancels else out


@dataclass
class LatticeInfo:
    """Dimensions and index of the vertex-point difference lattice inside the
    per-edge degree-zero lattice."""

    vertex_diff_dim: int
    expected_dim: int
    index_in_degree_zero: int | float
    expected_index: int
    interior_nodes: int

    def to_json(self) -> dict:
        idx = self.index_in_degree_zero
        return {
            "vertex_diff_dim": self.vertex_diff_dim,
            "expected_dim": self.expected_dim,
            "index_in_degree_zero": "infinite" if idx == inf else idx,
            "expected_index": self.expected_index,
            "interior_nodes": self.interior_nodes,
        }


def lattice_report(rt: RootedTree, group: GroupSpec,
                   flow_cap: int = DEFAULT_FLOW_CAP) -> LatticeInfo:
    """Rank of the lattice spanned by vertex-point differences Q_f - Q_0 (Q_0
    the zero flow's point) and its index inside the lattice of
    block-degree-zero vectors (per-edge coordinate sums zero); the expected
    index is |G|^(interior nodes), and it is also a lower bound, so the
    witness stops once its pivots multiply to it (see ``_fold_witness``).
    """
    check_flow_cap(rt.tree, group, flow_cap)
    g = group.order
    expected_dim = (g - 1) * rt.edge_count
    ech = _fold_witness(rt, group)
    dim = ech.rank
    if dim < expected_dim:
        index: int | float = inf
    else:
        # at full rank the rows are square and triangular, so |det| is the
        # product of the pivots; the block of pivots above 1 carries it
        big = [(row, j) for row, j in zip(ech.rows, ech.pivcols) if row[j] > 1]
        index = abs(det([[row.get(j, 0) for _, j in big] for row, _ in big]))
    return LatticeInfo(
        vertex_diff_dim=dim,
        expected_dim=expected_dim,
        index_in_degree_zero=index,
        expected_index=g ** rt.tree.interior_node_count,
        interior_nodes=rt.tree.interior_node_count,
    )


@dataclass
class VerificationReport:
    count_ok: bool
    kernel_membership_ok: bool
    spans_ok: bool
    degree_bound_ok: bool
    expected_codim: int
    actual_count: int
    kernel_rank: int
    failures: list[str]
    lattice_info: LatticeInfo

    @property
    def passed(self) -> bool:
        # every failed check adds to ``failures``, so for a report built by
        # the verifier this is true exactly when ``failures`` is empty
        return (not self.failures and self.count_ok and self.kernel_membership_ok
                and self.spans_ok and self.degree_bound_ok)

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "count_ok": self.count_ok,
            "kernel_membership_ok": self.kernel_membership_ok,
            "spans_ok": self.spans_ok,
            "degree_bound_ok": self.degree_bound_ok,
            "expected_codim": self.expected_codim,
            "actual_count": self.actual_count,
            "kernel_rank": self.kernel_rank,
            "failures": list(self.failures),
            "lattice_info": self.lattice_info.to_json(),
        }


class _Unhashable:
    """Stands in for an unhashable value inside a term: hashes by identity
    and prints as the value (see :func:`as_text`)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:
        return as_text(self.value)


def _tuples(x):
    """``x`` with every list, at any depth, a tuple, and every other value
    that does not hash (a dict, say) in an ``_Unhashable``."""
    if isinstance(x, (list, tuple)):
        return tuple(map(_tuples, x))
    try:
        hash(x)
    except TypeError:
        return _Unhashable(x)
    return x


def _tuple_terms(b: Binomial) -> Binomial:
    """``b`` with each side a tuple of terms and every term a tuple of
    element tuples.  A set rebuilt from JSON has list terms, and the checks
    hash terms; ``b`` itself is returned when its sides are tuples and it
    hashes.  A side that is not a list or tuple is read as a single term,
    and a term, or a value in one, that cannot hash is kept, so that the
    flow check reports either."""
    if isinstance(b.lhs, tuple) and isinstance(b.rhs, tuple):
        try:
            hash(b)
            return b
        except TypeError:
            pass

    def side(x):
        return _tuples(x if isinstance(x, (list, tuple)) else [x])

    return Binomial(side(b.lhs), side(b.rhs))


def _term_ids(binomials: Sequence[Binomial]
              ) -> tuple[list[Flow], list[int], list[int]]:
    """The distinct terms of ``binomials`` in order of first occurrence, a
    term's id being its position there; every side as a run of term ids in
    one flat list, in order; and the length of every side, lhs then rhs of
    each binomial.

    One pass reads the set as it is, hashing each term occurrence once;
    it requires tuple sides.  At the first side that is not a tuple, or the
    first term that does not hash, it starts over with every binomial
    through ``_tuple_terms``, which returns a tuple-sided binomial that
    hashes as it is, so the result is the one for the set in that form."""
    def read(binomials):
        ids: dict = {}
        setid = ids.setdefault
        flat: list[int] = []
        put = flat.append
        sizes: list[int] = []
        for b in binomials:
            for side in (b.lhs, b.rhs):
                if not isinstance(side, tuple):
                    raise TypeError("a side is not a tuple")
                for f in side:
                    put(setid(f, len(ids)))
                sizes.append(len(side))
        return list(ids), flat, sizes

    try:
        return read(binomials)
    except TypeError:
        return read(map(_tuple_terms, binomials))


def _runs(sizes: list[int]) -> Iterator[tuple[int, int, int]]:
    """Where each binomial's lhs starts, where its rhs starts and where the
    rhs ends in the flat list of term ids whose side lengths are ``sizes``."""
    z = 0
    for nl, nr in zip(sizes[::2], sizes[1::2]):
        a, m, z = z, z + nl, z + nl + nr
        yield a, m, z


def _read_terms(rt: RootedTree, group: GroupSpec, terms: Iterable[Flow],
                width: int) -> tuple[list[str | None], list[int | None],
                                     list[int | None]]:
    """The defects, packed vertex points and columns of ``terms``, each
    term read once as its element indices; the three lists are indexed by
    a term's position in ``terms``, its id.  A term that is not a flow on
    ``rt`` gets a defect, and None as its point and column: not a tuple, a
    wrong length, a value outside ``group``, or the first interior node in
    id order whose incoming value (zero at the root) is not the sum of its
    outgoing values.  A flow gets None as its defect, its vertex point, a 1
    in the ``width``-bit slot of column ei*g + i for each edge ei and its
    value index i, and its column, the mixed radix of its first
    ``leaf_count - 1`` value indices (its ``flow_index``)."""
    e, g = rt.edge_count, group.order
    table = group.table
    add, index = table.add, table.index
    # per interior node: its incoming edge (None at the root), its outgoing edges
    nodes = [(u, None if rt.parent[u] is None else rt.edge_index[(rt.parent[u], u)],
              [rt.edge_index[(u, c)] for c in rt.children[u]])
             for u in rt.tree.interior_nodes]
    slots = [[1 << width * (ei * g + i) for i in range(g)] for ei in range(e)]
    radix = rt.leaf_count - 1
    defects: list[str | None] = []
    point: list[int | None] = []
    column: list[int | None] = []
    for f in terms:
        defect = p = c = None
        if not isinstance(f, tuple):
            defect = f"is not a tuple of {e} edge values"
        elif len(f) != e:
            defect = f"has {len(f)} edge values, expected {e}"
        else:
            idx = list(map(index.get, f))
            if None in idx:
                ei = idx.index(None)
                defect = (f"value {as_text(f[ei])} on edge {ei} {rt.edges[ei]} "
                          f"is not in {group}")
            else:
                for u, up, down in nodes:
                    s = 0
                    for ei in down:
                        s = add[s][idx[ei]]
                    if s != (0 if up is None else idx[up]):
                        defect = f"values do not conserve at node {u}"
                        break
                else:
                    p = sum(map(list.__getitem__, slots, idx))
                    c = 0
                    for i in idx[:radix]:
                        c = c * g + i
        defects.append(defect)
        point.append(p)
        column.append(c)
    return defects, point, column


def verify_complete_intersection(s: "InvariantSet",
                                 flow_cap: int = DEFAULT_FLOW_CAP
                                 ) -> VerificationReport:
    """Certify that a binomial set cuts out the variety on the torus.

    Four booleans: the count matches the codimension; every term is a flow
    and every exponent vector lies in the kernel of the monomial matrix; the
    vectors integrally span that kernel; all degrees respect max(3, factor
    orders).  Every failed check adds to ``failures``, and the set passes
    exactly when ``failures`` is empty.
    """
    rt = s.rooted
    group = s.group
    tree = rt.tree
    n_flows = check_flow_cap(tree, group, flow_cap)
    failures: list[str] = []

    expected = codim(tree, group)
    actual = len(s.binomials)
    count_ok = actual == expected
    if not count_ok:
        failures.append(f"count: expected {expected} generators, found {actual}")

    # the rank fold first, while no per-term list or row is alive
    kernel_rank = n_flows - monomial_matrix_rank(rt, group)

    terms, flat, sizes = _term_ids(s.binomials)

    # A binomial is in the kernel iff both sides have the same sum of vertex
    # points.  Each point is packed into one integer, a slot of ``width``
    # bits per column: a slot of one side's sum counts at most len(side) <
    # 2**width terms, so no slot carries into the next, and the two packed
    # sums are equal exactly when the two sums of points are.  One pass
    # reads each binomial's ids once: its membership and, while every
    # binomial so far is in the kernel, its exponent vector.
    width = max(sizes, default=0).bit_length()
    defects, point, column = _read_terms(rt, group, terms, width)
    pt = point.__getitem__
    bad = {t for t, d in enumerate(defects) if d is not None}
    membership_ok = True
    rows: list[dict[int, int]] = []
    for i, (a, m, z) in enumerate(_runs(sizes)):
        lhs, rhs = flat[a:m], flat[m:z]
        if bad and not (bad.isdisjoint(lhs) and bad.isdisjoint(rhs)):
            # each distinct bad term of the binomial, as the id pass read it
            for t in dict.fromkeys(lhs + rhs):
                if t in bad:
                    failures.append(f"binomial {i}: term {as_text(terms[t])} "
                                    f"is not a flow: {defects[t]}")
            membership_ok = False
        elif sum(map(pt, lhs)) != sum(map(pt, rhs)):
            membership_ok = False
            failures.append(f"binomial {i}: exponent vector outside the kernel")
        elif membership_ok:
            rows.append(exponent_vector(column, lhs, rhs))
    if not membership_ok:
        rows.clear()  # the span check is skipped

    bound = degree_bound(group)
    degree_ok = True
    for i, degree in enumerate(map(max, sizes[::2], sizes[1::2])):
        if degree > bound:
            degree_ok = False
            failures.append(f"binomial {i}: degree {degree} exceeds bound {bound}")

    if kernel_rank != expected:
        failures.append(
            f"kernel rank {kernel_rank} differs from codimension formula {expected}")

    if membership_ok:
        # the certificate's working set is the peak of verify: the per-term
        # lists and the ids, read for the last time above, go first
        del terms, flat, defects, point, pt, column
        span_rank, leftover = sparse_span_certificate(rows)
        spans_ok = span_rank == kernel_rank and all(d == 1 for d in leftover)
        if span_rank != kernel_rank:
            failures.append(
                f"generators span rank {span_rank}, kernel has rank {kernel_rank}")
        if any(d != 1 for d in leftover):
            failures.append(
                f"span is a finite-index proper sublattice of the kernel "
                f"(leftover invariant factors {sorted(leftover)})")
    else:
        spans_ok = False
        failures.append("span check skipped: some exponent vector is outside the kernel")

    return VerificationReport(
        count_ok=count_ok,
        kernel_membership_ok=membership_ok,
        spans_ok=spans_ok,
        degree_bound_ok=degree_ok,
        expected_codim=expected,
        actual_count=actual,
        kernel_rank=kernel_rank,
        failures=failures,
        lattice_info=lattice_report(rt, group, flow_cap),
    )
