"""Group spec parsing and elementwise arithmetic."""

from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phyloinv.errors import GroupParseError
from phyloinv.groups import GroupSpec, parse_group_spec, prime_power_refinement


def test_parse_single_factor():
    g = parse_group_spec("Z5")
    assert g.factors == (5,)
    assert g.order == 5


def test_parse_product():
    g = parse_group_spec("Z2xZ3xZ4")
    assert g.factors == (2, 3, 4)
    assert g.order == 24
    assert str(g) == "Z2xZ3xZ4"


def test_parse_is_case_tolerant_on_separator():
    assert parse_group_spec("Z2XZ2").factors == (2, 2)


@pytest.mark.parametrize("bad", ["", "Z1", "Z0", "Z-3", "Z2x", "xZ2", "2x3",
                                 "Z2xZ1", "Zx", "Z2 x Z3x", "Q8"])
def test_parse_rejects(bad):
    with pytest.raises(GroupParseError):
        parse_group_spec(bad)


def test_elements_order_and_zero_first():
    g = GroupSpec((2, 3))
    els = g.elements
    assert len(els) == 6
    assert els[0] == (0, 0)
    assert list(els) == sorted(els)  # lexicographic
    assert all(g.index(e) == i for i, e in enumerate(els))


def test_arithmetic_z6_vs_z2xz3():
    g = GroupSpec((6,))
    assert g.add((4,), (5,)) == (3,)
    assert g.neg((2,)) == (4,)
    h = GroupSpec((2, 3))
    assert h.add((1, 2), (1, 2)) == (0, 1)
    assert h.sub((0, 0), (1, 1)) == (1, 2)


def test_unit_vectors():
    g = GroupSpec((2, 3))
    assert g.unit(1) == (1, 0)
    assert g.unit(2) == (0, 1)
    assert g.unit(2, 2) == (0, 2)
    assert g.units() == ((1, 0), (0, 1))


groups = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
    lambda f: GroupSpec(tuple(f)))


@given(groups, st.data())
def test_group_axioms(g, data):
    els = g.elements
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    c = data.draw(st.sampled_from(els))
    assert g.add(a, g.zero()) == a
    assert g.add(a, g.neg(a)) == g.zero()
    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
    assert g.add(a, b) == g.add(b, a)


@given(groups)
def test_sum_of_all_elements_is_zero_unless_even_factor(g):
    total = reduce(g.add, g.elements, g.zero())
    # componentwise: each residue class of Z_a occurs order/a times
    expected = tuple((g.order // a) * (a * (a - 1) // 2) % a for a in g.factors)
    assert total == expected


def test_refinement_z12():
    g = GroupSpec((12,))
    refined, back = prime_power_refinement(g)
    assert refined.factors == (4, 3)
    # back maps refined coordinates to the original presentation, respecting +
    for x in refined.elements:
        for y in refined.elements:
            assert back(refined.add(x, y)) == g.add(back(x), back(y))
    images = {back(x) for x in refined.elements}
    assert images == set(g.elements)


def test_refinement_identity_for_prime_power():
    g = GroupSpec((8,))
    refined, back = prime_power_refinement(g)
    assert refined.factors == (8,)
    assert back((5,)) == (5,)


def test_refinement_multi_factor():
    g = GroupSpec((6, 2))
    refined, back = prime_power_refinement(g)
    assert refined.factors == (2, 3, 2)
    assert back(refined.zero()) == g.zero()
    images = {back(x) for x in refined.elements}
    assert len(images) == 12


@given(groups)
def test_cayley_table_matches_arithmetic(g):
    t = g.table
    assert t.elements == g.elements
    for i, a in enumerate(t.elements):
        assert t.index[a] == i
        assert t.elements[t.neg[i]] == g.neg(a)
        for j, b in enumerate(t.elements):
            assert t.elements[t.add[i][j]] == g.add(a, b)


def test_equal_specs_share_one_table():
    # constructions build a fresh spec per basis matrix; the table is
    # built once per presentation, not once per spec
    assert GroupSpec((2, 3)) is not GroupSpec((2, 3))
    assert GroupSpec((2, 3)).table.add is GroupSpec((2, 3)).table.add
    assert GroupSpec((2, 3)).table is not GroupSpec((6,)).table
