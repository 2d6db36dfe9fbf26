"""Independent certification that a binomial set defines the variety.

The generated set is correct iff its exponent vectors generate, over the
integers, the kernel lattice of the monomial map sending each flow to its
0/1 vertex point.  The checks here never reuse the construction's own
reasoning: membership is verified against the vertex-point matrix, the
kernel rank against the matrix rank, and the spanning property through a
saturation certificate (unit-pivot elimination plus leftover invariant
factors), which for sparse generator sets is exact and cheap even when a
dense Hermite form would be far out of reach.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Callable

from .flows import (DEFAULT_FLOW_CAP, Binomial, check_flow_cap, flow_defects,
                    flow_index, flow_total, iter_flows, vertex_support)
from .groups import GroupSpec
from .lattice import (Echelon, LatticeBasis, det, kernel_lattice,
                      sparse_span_certificate)
from .trees import RootedTree, Tree

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import InvariantSet


def codim(tree: Tree, group: GroupSpec) -> int:
    """Codimension of the variety in its torus: flows - 1 - (|G|-1) * edges."""
    return flow_total(tree, group) - 1 - (group.order - 1) * tree.edge_count


def degree_bound(group: GroupSpec) -> int:
    return max(3, max(group.factors))


def monomial_matrix(rt: RootedTree, group: GroupSpec,
                    flow_cap: int = DEFAULT_FLOW_CAP) -> list[list[int]]:
    """The (edges * |G|) x (number of flows) 0/1 matrix whose columns are the
    vertex points, in flow enumeration order."""
    n = check_flow_cap(rt.tree, group, flow_cap)
    g = group.order
    rows = [[0] * n for _ in range(rt.edge_count * g)]
    for col, f in enumerate(iter_flows(rt, group)):
        for pos in vertex_support(rt, group, f):
            rows[pos][col] = 1
    return rows


def monomial_matrix_rank(rt: RootedTree, group: GroupSpec,
                         flow_cap: int = DEFAULT_FLOW_CAP) -> int:
    """Exact rank of the monomial matrix, via an incremental echelon over
    the sparse vertex-point columns (cheap even for many flows)."""
    check_flow_cap(rt.tree, group, flow_cap)
    ech = Echelon(rt.edge_count * group.order)
    for f in iter_flows(rt, group):
        ech.add(dict.fromkeys(vertex_support(rt, group, f), 1))
    return ech.rank


def oracle_kernel(rt: RootedTree, group: GroupSpec,
                  flow_cap: int = DEFAULT_FLOW_CAP,
                  cancel: Callable[[], bool] | None = None) -> LatticeBasis:
    """The saturated integer kernel of the monomial matrix (dense Hermite
    computation -- intended for small instances and cross-checks)."""
    return kernel_lattice(monomial_matrix(rt, group, flow_cap), cancel=cancel)


def exponent_vector(rt: RootedTree, group: GroupSpec, b: Binomial) -> dict[int, int]:
    """Sparse exponent vector of a binomial over flow enumeration indices:
    +multiplicity for the positive side, -multiplicity for the negative."""
    out: Counter = Counter()
    for f in b.lhs:
        out[flow_index(rt, group, f)] += 1
    for f in b.rhs:
        out[flow_index(rt, group, f)] -= 1
    return {k: v for k, v in out.items() if v}


@dataclass
class LatticeInfo:
    """Dimensions and index of the vertex-point difference lattice inside the
    per-edge degree-zero lattice."""

    vertex_diff_dim: int
    expected_dim: int
    index_in_degree_zero: int | float
    expected_index: int
    interior_nodes: int

    @property
    def dim_ok(self) -> bool:
        return self.vertex_diff_dim == self.expected_dim

    @property
    def index_ok(self) -> bool:
        return self.index_in_degree_zero == self.expected_index

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
    """Rank of the lattice spanned by vertex-point differences Q_f - Q_f0 and
    its index inside the lattice of block-degree-zero vectors (per-edge
    coordinate sums zero); the expected index is |G|^(interior nodes)."""
    check_flow_cap(rt.tree, group, flow_cap)
    g = group.order
    e = rt.edge_count
    ech = Echelon(e * g)
    flows = iter_flows(rt, group)
    q0 = set(vertex_support(rt, group, next(flows)))
    for f in flows:
        qf = set(vertex_support(rt, group, f))
        ech.add({**dict.fromkeys(qf - q0, 1), **dict.fromkeys(q0 - qf, -1)})
    dim = ech.rank
    expected_dim = (g - 1) * e
    if dim < expected_dim:
        index: int | float = inf
    else:
        # the echelon rows in the degree-zero basis {unit(edge,h) - unit(edge,0)}
        # (no identity column per edge block); |det| is the same for any basis
        keep = [ei * g + k for ei in range(e) for k in range(1, g)]
        C = [[row.get(j, 0) for j in keep] for row in ech.rows]
        index = abs(det(C))
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
    lattice_info: LatticeInfo | None = None

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
            "lattice_info": None if self.lattice_info is None else self.lattice_info.to_json(),
        }


def _tuple_terms(b: Binomial) -> Binomial:
    """``b`` with every term a tuple of element tuples.  A set rebuilt from
    JSON has list terms, and the checks hash terms; ``b`` itself is returned
    when it already hashes."""
    try:
        hash(b)
        return b
    except TypeError:
        lhs, rhs = [tuple(tuple(tuple(e) if isinstance(e, list) else e
                                for e in f) for f in side)
                    for side in (b.lhs, b.rhs)]
        return Binomial(lhs, rhs)


def verify_complete_intersection(s: "InvariantSet",
                                 flow_cap: int = DEFAULT_FLOW_CAP,
                                 with_lattice_info: bool = True,
                                 cancel: Callable[[], bool] | None = None
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
    binomials = [_tuple_terms(b) for b in s.binomials]

    expected = codim(tree, group)
    actual = len(binomials)
    count_ok = actual == expected
    if not count_ok:
        failures.append(f"count: expected {expected} generators, found {actual}")

    defects = flow_defects(rt, group, {f for b in binomials for f in b.lhs + b.rhs})
    membership_ok = True
    for i, b in enumerate(binomials):
        bad = [f for f in dict.fromkeys(b.lhs + b.rhs) if f in defects]
        for f in bad:
            failures.append(f"binomial {i}: term {f} is not a flow: {defects[f]}")
        if bad:
            membership_ok = False
            continue
        acc: Counter = Counter()
        for f in b.lhs:
            for pos in vertex_support(rt, group, f):
                acc[pos] += 1
        for f in b.rhs:
            for pos in vertex_support(rt, group, f):
                acc[pos] -= 1
        if any(acc.values()):
            membership_ok = False
            failures.append(f"binomial {i}: exponent vector outside the kernel")

    bound = degree_bound(group)
    degree_ok = True
    for i, b in enumerate(binomials):
        if b.degree > bound:
            degree_ok = False
            failures.append(f"binomial {i}: degree {b.degree} exceeds bound {bound}")

    rank_a = monomial_matrix_rank(rt, group, flow_cap)
    kernel_rank = n_flows - rank_a
    if kernel_rank != expected:
        failures.append(
            f"kernel rank {kernel_rank} differs from codimension formula {expected}")

    if membership_ok:
        rows = [exponent_vector(rt, group, b) for b in binomials]
        span_rank, leftover = sparse_span_certificate(rows, cancel=cancel)
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

    info = lattice_report(rt, group, flow_cap) if with_lattice_info else None
    return VerificationReport(
        count_ok=count_ok,
        kernel_membership_ok=membership_ok,
        spans_ok=spans_ok,
        degree_bound_ok=degree_ok,
        expected_codim=expected,
        actual_count=actual,
        kernel_rank=kernel_rank,
        failures=failures,
        lattice_info=info,
    )
