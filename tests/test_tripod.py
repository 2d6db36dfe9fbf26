"""Admissible matrices and the tripod invariant bases."""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import (admissibility_failure_counter, admissible_condition_matrix,
                   degree, dense, enumerate_flows, factored_basis_reference,
                   flat, kernel_lattice, meets_conditions,
                   product_basis_reference, sparse, spans, transpose)
from phyloinv.errors import BinomialError, FlowError, InternalError
from phyloinv.groups import GroupSpec, parse_group_spec
from phyloinv.pipeline import generate
from phyloinv.trees import parse_newick
from phyloinv.tripod import (_add_exchange, adm_basis, cyclic_basis,
                             cyclic_basis_matrix, matrix_to_binomial,
                             product_basis, product_cubic, relabel_matrix,
                             tripod_invariants, tripod_tree)

Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))


def adm_lattice(spec):
    """Oracle: the admissible lattice as the kernel of the condition matrix."""
    return kernel_lattice(admissible_condition_matrix(spec))


def assert_admissible(basis, spec):
    """Every matrix meets the ``Counter`` reference check over ``spec``."""
    for m in basis:
        assert admissibility_failure_counter(m, spec) is None, m


class TestAdmissibility:
    """The one admissibility check: the tripod binomial's per-edge
    multisets, edge 0 for rows, 1 for columns and 2 for classes."""

    def test_zero_is_admissible(self):
        for m in ({}, {(0, 0): 0}):
            b = matrix_to_binomial(m, Z3)
            assert (b.lhs, b.rhs) == ((), ())

    def test_row_sum_violation(self):
        # the i+j classes fail too; edge 0 (rows) is compared first
        m = sparse(((1, 0, 0), (-1, 0, 0), (0, 0, 0)))
        with pytest.raises(BinomialError, match=r"edge 0 \(4, 1\) differ") as e:
            matrix_to_binomial(m, Z3)
        assert e.value.edge == 0
        # unbalanced in total: the sides differ in size
        m = sparse(((1, 0, 0), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(BinomialError, match="multiset sizes differ: 1 vs 0"):
            matrix_to_binomial(m, Z3)

    def test_column_sum_violation(self):
        # rows balance but the first and last columns do not
        m = sparse(((1, -1, 0), (0, 1, -1), (0, 0, 0)))
        with pytest.raises(BinomialError, match=r"edge 1 \(4, 2\) differ") as e:
            matrix_to_binomial(m, Z3)
        assert e.value.edge == 1

    def test_antidiagonal_violation(self):
        # rows and columns balance but the i+j=0 class does not
        m = sparse(((1, -1, 0), (-1, 0, 1), (0, 1, -1)))
        with pytest.raises(BinomialError, match=r"edge 2 \(4, 3\) differ") as e:
            matrix_to_binomial(m, Z3)
        assert e.value.edge == 2

    def test_index_outside_group(self):
        with pytest.raises(FlowError, match=r"index \(0, 3\) outside 0\.\.2 for group Z3"):
            matrix_to_binomial({(0, 3): 1, (0, 0): -1}, Z3)
        # a negative index is not read from the end of the element list
        with pytest.raises(FlowError, match=r"index \(-1, 0\) outside 0\.\.2"):
            matrix_to_binomial({(-1, 0): 1, (2, 0): -1}, Z3)

    def test_constructor_drops_zeros(self):
        # cyclic_basis_matrix builds a matrix from exchange moves that
        # partly cancel; the cancelled entries are not stored
        for g in range(3, 9):
            for m in cyclic_basis(g):
                assert all(m.values())

    def test_entry_by_elements(self):
        m = cyclic_basis_matrix(3, 1, 2)
        assert m[(Z3.index((1,)), Z3.index((2,)))] == 1
        assert transpose(m)[(Z3.index((2,)), Z3.index((1,)))] == 1
        assert dense(transpose(m), 3) == tuple(zip(*dense(m, 3)))


PROPERTY_GROUPS = [GroupSpec((g,)) for g in range(2, 7)] + \
    [GroupSpec((2, 2)), GroupSpec((2, 3))]


@lru_cache(maxsize=None)
def _basis(spec):
    return adm_basis(spec)


@st.composite
def candidate_matrices(draw):
    """A sparse matrix near the admissible lattice: an integer combination
    of basis matrices plus nothing, one exchange move (rows and columns
    stay balanced, classes usually do not) or a few arbitrary entries."""
    spec = draw(st.sampled_from(PROPERTY_GROUPS))
    n = spec.order
    acc: Counter = Counter()
    if _basis(spec):
        for m in draw(st.lists(st.sampled_from(_basis(spec)), max_size=3)):
            c = draw(st.integers(-2, 2))
            for k, v in m.items():
                acc[k] += c * v
    idx = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["none", "exchange", "entries"]))
    if kind == "exchange":
        _add_exchange(acc, n, draw(idx), draw(idx), draw(idx), draw(idx))
    elif kind == "entries":
        extra = draw(st.dictionaries(st.tuples(idx, idx), st.integers(-2, 2),
                                     max_size=4))
        for k, v in extra.items():
            acc[k] += v
    return spec, dict(acc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(candidate_matrices())
def test_admissibility_matches_condition_oracle(case):
    # matrix_to_binomial refuses a matrix exactly when it is not admissible
    spec, entries = case
    n = spec.order
    values = [entries.get((a, b), 0) for a in range(n) for b in range(n)]
    try:
        matrix_to_binomial(entries, spec)
        refused = False
    except BinomialError:
        refused = True
    assert refused == (not meets_conditions(spec, values))


def _break_row(m):  # rows 1 and 3 off by one; every column stays balanced
    m[1, 2] = m.get((1, 2), 0) + 1
    m[3, 2] = m.get((3, 2), 0) - 1


def _break_column(m):  # columns 2 and 3 off by one; every row stays balanced
    m[1, 2] = m.get((1, 2), 0) + 1
    m[1, 3] = m.get((1, 3), 0) - 1


def _break_class(m):  # one exchange move: rows and columns stay balanced
    _add_exchange(m, 5, 0, 1, 0, 2)


@pytest.mark.parametrize("breaks,edge", [
    (_break_row, r"edge 0 \(4, 1\)"),
    (_break_column, r"edge 1 \(4, 2\)"),
    (_break_class, r"edge 2 \(4, 3\)"),
])
def test_generate_refuses_a_broken_basis_matrix(monkeypatch, breaks, edge):
    # each admissibility condition is still enforced on the way to generate
    import phyloinv.tripod as tripod_mod
    real = tripod_mod.adm_basis

    def broken(spec, mode="direct-cyclic"):
        basis = real(spec, mode)
        breaks(basis[3])
        return basis

    monkeypatch.setattr(tripod_mod, "adm_basis", broken)
    with pytest.raises(InternalError, match=f"BinomialError: projections to {edge} differ"):
        generate(parse_newick("(1,2,3,4);"), GroupSpec((5,)))


class TestExchange:
    def test_plain_dict(self):
        acc = {}
        _add_exchange(acc, 4, 0, 1, 2, 7)
        _add_exchange(acc, 4, 0, 1, 3, 0)
        assert acc == {(0, 2): 1, (1, 3): 0, (0, 3): 0, (1, 2): -1,
                       (0, 0): -1, (1, 0): 1}

    def test_shape(self):
        acc = Counter()
        _add_exchange(acc, 4, 0, 1, 2, 7)
        assert acc == Counter({(0, 2): 1, (1, 3): 1, (0, 3): -1, (1, 2): -1})

    def test_degenerate_rejected(self):
        # equal rows or equal columns (mod g) make a zero move: nothing added
        acc = Counter()
        _add_exchange(acc, 4, 1, 1, 2, 3)
        _add_exchange(acc, 4, 0, 1, 2, 6)
        assert acc == Counter()


class TestCyclicBasis:
    @pytest.mark.parametrize("g", range(3, 9))
    def test_count_admissible_degree(self, g):
        basis = cyclic_basis(g)
        assert len(basis) == (g - 1) * (g - 2)
        assert_admissible(basis, GroupSpec((g,)))
        for m in basis:
            assert degree(m) <= g
        assert max(degree(m) for m in basis) == g

    @pytest.mark.parametrize("g", range(3, 9))
    def test_identity_pattern_on_k(self, g):
        # the defining property: 1 at the own (i, j), 0 at all other K spots
        for i in range(1, g):
            for j in range(2, g):
                m = cyclic_basis_matrix(g, i, j)
                for a in range(1, g):
                    for b in range(2, g):
                        assert dense(m, g)[a][b] == (1 if (a, b) == (i, j) else 0)

    def test_rejects_outside_k(self):
        with pytest.raises(ValueError):
            cyclic_basis_matrix(4, 0, 2)
        with pytest.raises(ValueError):
            cyclic_basis_matrix(4, 1, 1)

    @pytest.mark.parametrize("g", range(3, 8))
    def test_spans_admissible_lattice(self, g):
        L = adm_lattice(GroupSpec((g,)))
        assert L.rank == (g - 1) * (g - 2)
        assert spans([flat(m, g) for m in cyclic_basis(g)], L)


# the six Z4 basis matrices, fixed reference values
Z4_REFERENCE = {
    (1, 2): ((0, 1, -1, 0), (-1, 0, 1, 0), (1, -1, 0, 0), (0, 0, 0, 0)),
    (1, 3): ((0, 1, 0, -1), (-1, 0, 0, 1), (0, 0, 0, 0), (1, -1, 0, 0)),
    (2, 2): ((0, 1, -1, 0), (-1, 1, 0, 0), (0, -1, 1, 0), (1, -1, 0, 0)),
    (2, 3): ((1, 0, 0, -1), (-1, 1, 0, 0), (-1, 0, 0, 1), (1, -1, 0, 0)),
    (3, 2): ((1, 0, -1, 0), (-1, 1, 0, 0), (0, 0, 0, 0), (0, -1, 1, 0)),
    (3, 3): ((1, 0, 0, -1), (0, 0, 0, 0), (-1, 1, 0, 0), (0, -1, 0, 1)),
}


def test_z4_reference_matrices():
    for (i, j), want in Z4_REFERENCE.items():
        assert dense(cyclic_basis_matrix(4, i, j), 4) == want


# reference degree-3 matrix over Z3 and its binomial
Z3_REFERENCE_MATRIX = ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
Z3_REFERENCE_LHS = (((0,), (1,), (2,)), ((1,), (2,), (0,)), ((2,), (0,), (1,)))
Z3_REFERENCE_RHS = (((0,), (2,), (1,)), ((1,), (0,), (2,)), ((2,), (1,), (0,)))


def test_z3_reference_binomial():
    m = sparse(Z3_REFERENCE_MATRIX)
    assert dense(m, 3) == Z3_REFERENCE_MATRIX
    assert degree(m) == 3
    b = matrix_to_binomial(m, Z3)
    # positive entries sit at (0,2), (1,0), (2,1), so the sides come out
    # with that orientation; the opposite matrix gives the mirror binomial
    assert (b.lhs, b.rhs) == (Z3_REFERENCE_RHS, Z3_REFERENCE_LHS)
    neg = sparse(tuple(tuple(-x for x in row) for row in Z3_REFERENCE_MATRIX))
    bn = matrix_to_binomial(neg, Z3)
    assert (bn.lhs, bn.rhs) == (Z3_REFERENCE_LHS, Z3_REFERENCE_RHS)


class TestProductBasis:
    @pytest.mark.parametrize("gf,hf", [((2,), (2,)), ((2,), (3,)),
                                       ((3,), (3,)), ((2,), (4,)),
                                       ((2, 2), (2,))])
    def test_count_admissible_degree_span(self, gf, hf):
        gs, hs = GroupSpec(gf), GroupSpec(hf)
        bg = adm_basis(gs)
        bh = adm_basis(hs)
        basis = product_basis(gs, hs, bg, bh)
        n = gs.order * hs.order
        assert len(basis) == (n - 1) * (n - 2)
        bound = max(3, *gf, *hf)
        combined = GroupSpec(gf + hf)
        assert_admissible(basis, combined)
        for m in basis:
            assert degree(m) <= bound
        L = adm_lattice(combined)
        assert spans([flat(m, n) for m in basis], L)

    def test_cubic_shape(self):
        gs = hs = GroupSpec((2,))
        m = product_cubic(gs, hs, 1, 1, 1, 1)
        assert_admissible([m], GroupSpec((2, 2)))
        assert degree(m) == 3
        values = flat(m, 4)
        assert values.count(1) == 3
        assert values.count(-1) == 3
        assert len(m) == 6

    def test_cubic_rejects_zero_j_or_k(self):
        gs = hs = GroupSpec((2,))
        with pytest.raises(ValueError):
            product_cubic(gs, hs, 0, 0, 1, 0)
        with pytest.raises(ValueError):
            product_cubic(gs, hs, 0, 1, 0, 0)

    def test_bad_input_basis_size(self):
        gs, hs = GroupSpec((3,)), GroupSpec((2,))
        with pytest.raises(ValueError):
            product_basis(gs, hs, [], [])


def _presentations(limit):
    """Every factor tuple (factors >= 2) of order at most ``limit``."""
    out = []

    def extend(prefix, n):
        for a in range(2, limit // n + 1):
            out.append(prefix + (a,))
            extend(prefix + (a,), n * a)

    extend((), 1)
    return out


PRODUCT_PAIRS = [(g, h) for g in _presentations(12) for h in _presentations(12)
                 if GroupSpec(g).order * GroupSpec(h).order <= 24]


def _layout(basis):
    """The entries of every matrix, in stored order."""
    return [list(m.items()) for m in basis]


def test_product_basis_matches_element_tuple_reference():
    # every cyclic or product pair with |G||H| <= 24, matrix by matrix
    assert len(PRODUCT_PAIRS) == 96
    for gf, hf in PRODUCT_PAIRS:
        gs, hs = GroupSpec(gf), GroupSpec(hf)
        bg, bh = adm_basis(gs), adm_basis(hs)
        basis = product_basis(gs, hs, bg, bh)
        assert_admissible(basis, GroupSpec(gf + hf))
        assert _layout(basis) == \
            _layout(product_basis_reference(gs, hs, bg, bh)), (gf, hf)


@pytest.mark.parametrize("g", [6, 12, 30])
def test_factored_basis_matches_element_tuple_reference(g):
    spec = GroupSpec((g,))
    basis = adm_basis(spec, "factored")
    assert_admissible(basis, spec)
    assert _layout(basis) == _layout(factored_basis_reference(spec))


def test_factored_basis_evaluates_the_crt_map_once_per_element(monkeypatch):
    import phyloinv.tripod as tripod_mod
    calls = []
    real = tripod_mod.prime_power_refinement

    def counted(spec):
        refined, back = real(spec)

        def counted_back(el):
            calls.append(el)
            return back(el)

        return refined, counted_back

    monkeypatch.setattr(tripod_mod, "prime_power_refinement", counted)
    assert len(adm_basis(GroupSpec((30,)), "factored")) == 29 * 28
    assert len(calls) == 30


class TestAdmBasis:
    def test_direct_z2xz2xz2(self):
        spec = GroupSpec((2, 2, 2))
        basis = adm_basis(spec)
        assert len(basis) == 7 * 6
        assert_admissible(basis, spec)
        L = adm_lattice(spec)
        assert spans([flat(m, 8) for m in basis], L)

    def test_factored_equals_direct_span_z6(self):
        spec = GroupSpec((6,))
        direct = adm_basis(spec, "direct-cyclic")
        factored = adm_basis(spec, "factored")
        assert len(direct) == len(factored) == 20
        assert_admissible(direct + factored, spec)
        L = adm_lattice(spec)
        assert spans([flat(m, 6) for m in direct], L)
        assert spans([flat(m, 6) for m in factored], L)
        # factored mode goes through the prime-power presentation, so its
        # matrices stay degree <= 3 wherever the factors allow
        assert max(degree(m) for m in factored) == 3
        assert max(degree(m) for m in direct) == 6

    def test_factored_falls_back_for_prime_powers(self):
        spec = GroupSpec((4,))
        a = adm_basis(spec, "direct-cyclic")
        b = adm_basis(spec, "factored")
        assert_admissible(b, spec)
        assert a == b

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            adm_basis(GroupSpec((3,)), "mystery")


def test_relabel_matrix_preserves_admissibility():
    src = GroupSpec((2, 3))
    tgt = GroupSpec((6,))

    def phi(e):  # crt isomorphism Z2 x Z3 -> Z6
        return ((3 * e[0] + 4 * e[1]) % 6,)

    to = [tgt.index(phi(e)) for e in src.elements]
    for m in adm_basis(src):
        out = relabel_matrix(m, to)
        assert_admissible([m], src)
        assert_admissible([out], tgt)
        assert degree(out) == degree(m)


class TestTripodInvariants:
    def test_z3_binomials(self):
        invs = tripod_invariants(Z3)
        assert len(invs) == 2
        assert all(b.degree == 3 for b in invs)

    def test_z4_binomials_degrees(self):
        invs = tripod_invariants(Z4)
        assert len(invs) == 6
        assert sorted(b.degree for b in invs) == [3, 3, 3, 3, 4, 4]

    def test_flows_are_genuine(self):
        rt = tripod_tree()
        all_flows = set(enumerate_flows(rt, Z4))
        for b in tripod_invariants(Z4):
            for f in b.lhs + b.rhs:
                assert f in all_flows

    def test_binomial_degree_equals_matrix_degree(self):
        for g in (3, 4, 5):
            for m in cyclic_basis(g):
                assert matrix_to_binomial(m, GroupSpec((g,))).degree == degree(m)

    def test_converts_through_the_public_name(self, monkeypatch):
        # a tracer that wraps the module attribute sees every conversion
        import phyloinv.tripod as tripod_mod
        calls = []
        real = tripod_mod.matrix_to_binomial

        def counted(m, group, built=None):
            calls.append(m)
            return real(m, group, built)

        monkeypatch.setattr(tripod_mod, "matrix_to_binomial", counted)
        assert len(tripod_invariants(GroupSpec((5,)))) == 12
        assert len(calls) == (5 - 1) * (5 - 2)

    def test_shared_flows_match_fresh_conversion(self):
        built = {}
        z5 = GroupSpec((5,))
        for m in cyclic_basis(5):
            assert matrix_to_binomial(m, z5, built) == matrix_to_binomial(m, z5)
        assert len(built) <= 25

    def test_kimura_model(self):
        invs = tripod_invariants(parse_group_spec("Z2xZ2"))
        assert len(invs) == 6
        assert all(b.degree == 3 for b in invs)


@pytest.mark.parametrize("mode", ["direct-cyclic", "factored"])
@pytest.mark.parametrize("text", ["Z6", "Z2xZ3"])
def test_tripod_builds_each_flow_once(monkeypatch, text, mode):
    # a tripod has g^2 flows; the basis matrices share them
    import phyloinv.tripod as tripod_mod
    spec = parse_group_spec(text)
    builds: Counter = Counter()
    real = tripod_mod.flow_from_leaves

    def counted(rt, group, vals):
        vals = tuple(vals)
        builds[vals] += 1
        return real(rt, group, vals)

    monkeypatch.setattr(tripod_mod, "flow_from_leaves", counted)
    assert len(tripod_invariants(spec, mode)) == (spec.order - 1) * (spec.order - 2)
    assert sum(builds.values()) <= spec.order ** 2
    assert max(builds.values()) == 1
