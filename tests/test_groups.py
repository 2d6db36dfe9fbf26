"""Group spec parsing and elementwise arithmetic."""

from functools import partial, reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense import add
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


@pytest.mark.parametrize("spec,message", [
    # past Python's int-to-string digit limit: not a bare ValueError
    ("Z2xZ" + "9" * 5000, "group spec factor 2 has 5000 digits: too large"),
    ("Z2xZ3x" + "Q" * 20000, "malformed group spec: factor 3 is not Z<n> "
                             "(expected Z<n> factors joined by 'x')"),
    # int() reads other scripts' digits, so \d took Z٣ for Z3
    ("Z\u0663", "malformed group spec: factor 1 is not Z<n> "
                "(expected Z<n> factors joined by 'x')"),
    ("Z2xZ\uff13", "malformed group spec: factor 2 is not Z<n> "
                   "(expected Z<n> factors joined by 'x')"),
], ids=["too-many-digits", "malformed", "arabic-indic-digit", "fullwidth-digit"])
def test_parse_error_names_the_factor_not_the_text(spec, message):
    with pytest.raises(GroupParseError) as exc:
        parse_group_spec(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize("factor,shown", [
    (2.5, "2.5"), ("3", "'3'"), (float("inf"), "inf"), (float("nan"), "nan"),
    ("x", "'x'"), (None, "None"),
], ids=["fraction", "string", "inf", "nan", "text", "none"])
def test_spec_rejects_non_integer_factor(factor, shown):
    # int() would truncate 2.5 to Z2 and read "3" as Z3
    with pytest.raises(ValueError) as exc:
        GroupSpec((4, factor))
    assert str(exc.value) == f"cyclic factor {shown} is not an integer"


def test_spec_converts_integral_factors():
    g = GroupSpec((3.0, 4))
    assert g.factors == (3, 4)
    assert all(type(a) is int for a in g.factors)
    assert g == GroupSpec((3, 4))


def test_elements_order_and_zero_first():
    g = GroupSpec((2, 3))
    els = g.elements
    assert len(els) == 6
    assert els[0] == (0, 0)
    assert list(els) == sorted(els)  # lexicographic
    assert all(g.index(e) == i for i, e in enumerate(els))


def table_add(g, a, b):
    """``a + b`` read off the Cayley table of ``g``."""
    t = g.table
    return t.elements[t.add[t.index[a]][t.index[b]]]


def test_arithmetic_z6_vs_z2xz3():
    g = GroupSpec((6,))
    assert table_add(g, (4,), (5,)) == add(g, (4,), (5,)) == (3,)
    assert g.neg((2,)) == (4,)
    h = GroupSpec((2, 3))
    assert table_add(h, (1, 2), (1, 2)) == add(h, (1, 2), (1, 2)) == (0, 1)
    assert h.sub((0, 0), (1, 1)) == (1, 2)


def test_unit_vectors():
    g = GroupSpec((2, 3))
    assert g.unit(1) == (1, 0)
    assert g.unit(2) == (0, 1)
    assert table_add(g, g.unit(2), g.unit(2)) == (0, 2)
    assert g.units() == ((1, 0), (0, 1))


groups = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
    lambda f: GroupSpec(tuple(f)))


@given(groups, st.data())
def test_group_axioms(g, data):
    els = g.elements
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    c = data.draw(st.sampled_from(els))
    plus = partial(table_add, g)
    assert plus(a, b) == add(g, a, b)
    assert plus(a, g.zero()) == a
    assert plus(a, g.neg(a)) == g.zero()
    assert plus(plus(a, b), c) == plus(a, plus(b, c))
    assert plus(a, b) == plus(b, a)


@given(groups)
def test_sum_of_all_elements_is_zero_unless_even_factor(g):
    total = reduce(partial(add, g), g.elements, g.zero())
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
            assert back(add(refined, x, y)) == add(g, back(x), back(y))
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
            assert t.elements[t.add[i][j]] == add(g, a, b)


def test_one_spec_builds_its_table_once():
    g = GroupSpec((2, 3))
    assert g.table is g.table
    assert g.table == GroupSpec((2, 3)).table
    assert g.table != GroupSpec((6,)).table
