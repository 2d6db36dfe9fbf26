"""Exact integer linear algebra: the package's Smith factors, determinant,
echelon and span certificate, checked against the dense references."""

import random
from itertools import accumulate, combinations
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import (LatticeBasis, OutsideSpanError, eliminate_reference, hnf,
                   kernel_lattice, lattice_equal, matmul, spans)
from phyloinv.errors import LatticeError
from phyloinv.lattice import (Echelon, _eliminate, det, invariant_factors,
                              sparse_span_certificate)


def is_unimodular(U):
    return abs(det(U)) == 1


class TestHNF:
    def test_small(self):
        A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        H, U = hnf(A)
        assert matmul(U, A) == H
        assert is_unimodular(U)
        # row echelon with positive pivots and reduced entries above
        pivots = []
        for row in H:
            nz = [j for j, x in enumerate(row) if x]
            if nz:
                pivots.append(nz[0])
                assert row[nz[0]] > 0
        assert pivots == sorted(pivots)

    def test_identity_fixed(self):
        I = [[1, 0], [0, 1]]
        H, U = hnf(I)
        assert H == I
        assert is_unimodular(U)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=1, max_size=4))
    def test_random_transform_is_unimodular(self, A):
        H, U = hnf(A)
        assert matmul(U, A) == H
        assert is_unimodular(U)


def determinantal_divisors(A):
    """d_k = gcd of all k x k minors, for k up to the rank."""
    out = []
    m, n = len(A), len(A[0])
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det([[A[i][j] for j in cols] for i in rows]))
        if not g:
            break
        out.append(g)
    return out


class TestSNF:
    def test_textbook(self):
        A = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        assert invariant_factors(A) == [2, 6, 12]

    def test_divisibility_chain(self):
        A = [[6, 0], [0, 4]]
        assert invariant_factors(A) == [2, 12]

    @pytest.mark.parametrize("A,factors", [
        # sparse leftover blocks; fixing divisibility pairwise along the
        # diagonal, with re-pivoting anywhere in the block, gets these wrong
        ([[0, -22, 0, 4, 0, 0, 0, 0], [0, 0, 19, 0, 0, -16, 0, 0],
          [0] * 8, [0, 0, 0, 0, 0, 3, 0, 0], [0, 0, 0, 0, 5, 0, 0, 0],
          [0, 0, 17, 0, 0, 0, 0, 0], [19, 0, 0, 0, 0, 0, 7, 0]],
         [1, 1, 1, 1, 10]),
        ([[0, 0, 6, 0, 0], [0, -3, 0, 0, 0], [0] * 5, [-4, 0, 0, 0, 0],
          [0, 0, 0, -7, 0], [0, 0, 0, 6, 0]],
         [1, 1, 6, 12]),
    ])
    def test_sparse_blocks(self, A, factors):
        assert invariant_factors(A) == factors
        assert list(accumulate(factors, mul)) == determinantal_divisors(A)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-8, 8), min_size=3, max_size=3),
                    min_size=2, max_size=3))
    def test_random_snf_properties(self, A):
        diag = invariant_factors(A)
        assert all(d > 0 for d in diag)
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0
        # d_1 * ... * d_k is the gcd of the k x k minors
        assert list(accumulate(diag, mul)) == determinantal_divisors(A)


class TestDet:
    def test_known(self):
        assert det([[3]]) == 3
        assert det([[1, 2], [3, 4]]) == -2
        assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    def test_matches_snf_product(self, A):
        d = det(A)
        factors = invariant_factors(A)
        prod = 1
        for x in factors:
            prod *= x
        if len(factors) < 4:
            assert d == 0
        else:
            assert abs(d) == prod


class TestKernel:
    def test_full_rank_trivial_kernel(self):
        K = kernel_lattice([[1, 0], [0, 1]])
        assert K.rank == 0

    def test_simple_kernel(self):
        # x + y + z = 0 over Z^3
        K = kernel_lattice([[1, 1, 1]])
        assert K.rank == 2
        for v in K.vectors:
            assert sum(v) == 0
        # saturated: generated by (1, -1, 0) and (0, 1, -1)
        assert lattice_equal(
            K, LatticeBasis.from_vectors(3, [(1, -1, 0), (0, 1, -1)]))

    def test_kernel_saturation(self):
        # A = [2 2]: kernel is generated by (1,-1), not (2,-2)
        K = kernel_lattice([[2, 2]])
        assert [list(v) for v in K.vectors] == [[1, -1]]


class TestEchelon:
    def test_incremental_rank(self):
        ech = Echelon(3)
        assert ech.add({0: 1, 1: 2, 2: 3})
        assert ech.add({1: 1, 2: 1})
        assert not ech.add({0: 1, 1: 3, 2: 4})  # dependent, already in span
        assert ech.rank == 2

    def test_contains_respects_divisibility(self):
        # add is False exactly for vectors already in the lattice
        ech = Echelon(2)
        ech.add({0: 2})
        assert not ech.add({0: 4})
        assert ech.rows == [{0: 2}]
        assert ech.add({0: 1})
        assert ech.rows == [{0: 1}]
        assert ech.add({1: 1})

    def test_gcd_combination(self):
        ech = Echelon(1)
        ech.add({0: 6})
        changed = ech.add({0: 10})
        assert changed
        assert ech.rows == [{0: 2}]

    @pytest.mark.parametrize("col", [-1, 3])
    def test_column_outside_width_raises(self, col):
        ech = Echelon(3)
        with pytest.raises(LatticeError, match="outside"):
            ech.add({0: 1, col: 1})
        assert ech.rank == 0

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda w: st.tuples(
        st.just(w),
        st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -6]),
                          min_size=w, max_size=w),
                 min_size=1, max_size=8))))
    def test_matches_dense_hnf(self, case):
        width, vecs = case
        ech = Echelon(width)
        for i, v in enumerate(vecs):
            before = LatticeBasis.from_vectors(width, vecs[:i])
            grew = ech.add({c: x for c, x in enumerate(v) if x})
            after = LatticeBasis.from_vectors(width, vecs[:i + 1])
            # False exactly for vectors already in the lattice
            assert grew == (not lattice_equal(before, after))
            dense = [[row.get(c, 0) for c in range(width)] for row in ech.rows]
            assert lattice_equal(LatticeBasis.from_vectors(width, dense), after)
            assert ech.rank == after.rank
            assert ech.pivcols == sorted(set(ech.pivcols))
            for row, j in zip(ech.rows, ech.pivcols):
                assert min(row) == j and row[j] > 0
                assert all(row.values())


class TestSpanChecks:
    def test_spans_accepts_basis_change(self):
        L = LatticeBasis.from_vectors(2, [[1, 0], [0, 1]])
        assert spans([[1, 1], [1, 2]], L)

    def test_spans_detects_proper_sublattice(self):
        L = LatticeBasis.from_vectors(2, [[1, 0], [0, 1]])
        assert not spans([[2, 0], [0, 1]], L)

    def test_spans_raises_outside_rational_span(self):
        L = LatticeBasis.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(OutsideSpanError):
            spans([[1, 0, 0], [0, 0, 1]], L)


class TestSparseCertificate:
    def test_unit_pivots_only(self):
        rows = [{0: 1, 1: -1}, {1: 1, 2: -1}]
        rank, leftover = sparse_span_certificate(rows)
        assert rank == 2
        assert leftover == []

    def test_leftover_factor(self):
        rows = [{0: 2}]
        rank, leftover = sparse_span_certificate(rows)
        assert rank == 1
        assert leftover == [2]

    def test_dependent_rows_dropped(self):
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1}, {0: 2, 1: 2}]
        rank, leftover = sparse_span_certificate(rows)
        assert rank == 1
        assert leftover == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5),
                    min_size=1, max_size=6))
    def test_agrees_with_dense_snf(self, A):
        rows = [{j: x for j, x in enumerate(r) if x} for r in A]
        rows = [r for r in rows if r]
        rank, leftover = sparse_span_certificate(rows)
        dense = invariant_factors([r for r in A if any(r)] or [[0] * 5])
        assert rank == len(dense)
        # nontrivial invariant factors agree (leftover may carry extra 1s)
        assert sorted(x for x in leftover if x != 1) == [x for x in dense if x != 1]

    def test_random_sparse_large(self):
        rng = random.Random(5)
        n = 80
        rows = []
        for _ in range(60):
            r = {}
            for _ in range(3):
                r[rng.randrange(n)] = rng.choice([-2, -1, 1, 2])
            rows.append(r)
        rank, leftover = sparse_span_certificate(rows)
        dense = invariant_factors([[r.get(j, 0) for j in range(n)] for r in rows])
        assert rank == len(dense)
        assert sorted(x for x in leftover if x != 1) == [x for x in dense if x != 1]



@st.composite
def sparse_row_sets(draw):
    """Sparse rows with entries in -3..3, +-1 and zero the most likely, plus
    duplicated rows, sums of two rows (rank deficiency) and zero rows,
    some of them written with explicit zero entries."""
    width = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3])
    rows = [{j: x for j, x in enumerate(r) if x} for r in draw(st.lists(
        st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=8))]
    for kind in draw(st.lists(st.sampled_from(["dup", "sum", "zero"]), max_size=3)):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        if kind == "dup":
            extra = dict(rows[i])
        elif kind == "sum":
            extra = {c: rows[i].get(c, 0) + rows[j].get(c, 0)
                     for c in set(rows[i]) | set(rows[j])}
        else:
            extra = draw(st.sampled_from([{}, {draw(st.integers(0, width - 1)): 0}]))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return width, rows


class TestPeel:
    """The peel in front of the elimination: exact, and invisible in the
    leftover of a span that is not saturated."""

    @pytest.mark.parametrize("rows,rank,leftover", [
        # a lone +-2 in a column only its row touches is not a unit pivot
        ([{0: 1, 1: -2}, {0: 1}], 2, [2]),
        # a +-1 column shared by two rows does not peel either row
        ([{0: 1, 1: 1}, {0: 1, 1: -1}], 2, [2]),
        ([{0: 1, 1: 1, 2: 1}, {0: -1, 1: 1, 2: 3}], 2, [2]),
    ])
    def test_non_peelable_rows(self, rows, rank, leftover):
        assert sparse_span_certificate(rows) == (rank, leftover)

    def test_unsaturated_span_reports_the_whole_elimination(self):
        # the last row peels through column 2; the three left alone reach
        # leftover [4], and the elimination of all four rows [1, 4]
        rows = [{0: -2, 3: -2}, {0: 2, 1: 3}, {0: 1, 1: 1, 3: 1},
                {0: -1, 1: 1, 2: 1}]
        assert _eliminate(rows[:3]) == (3, [4])
        assert sparse_span_certificate(rows) == _eliminate(rows) == (4, [1, 4])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(sparse_row_sets())
    def test_matches_dense_smith_and_the_full_elimination(self, case):
        width, rows = case
        rank, leftover = sparse_span_certificate(rows)
        dense = invariant_factors([[r.get(c, 0) for c in range(width)]
                                   for r in rows])
        assert rank == len(dense)
        assert sorted(d for d in leftover if d != 1) == [d for d in dense if d != 1]
        if any(d != 1 for d in leftover):
            # a span that is not saturated reports the whole elimination's
            # leftover, 1s included
            assert (rank, leftover) == _eliminate(rows)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(sparse_row_sets())
    def test_elimination_follows_its_pivot_rule(self, case):
        # the leftover's 1s depend on the pivot order, so the leftovers of
        # unsaturated rows, 1s included, check the order as well
        _, rows = case
        assert _eliminate(rows) == eliminate_reference(rows)
