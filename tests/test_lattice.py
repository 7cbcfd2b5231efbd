from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hilbnef import (
    DivisorClass,
    E,
    F,
    H,
    K,
    ZERO,
    arithmetic_genus,
    divisor,
    format_rational,
    gram_matrix,
    intersect,
    is_minus_one_class,
    parse_divisor,
    parse_rational,
    self_intersection,
    sorted_classes,
)

rationals = st.fractions(min_value=-999, max_value=999, max_denominator=40)
small_coords = st.lists(
    st.fractions(min_value=-60, max_value=60, max_denominator=6),
    min_size=10,
    max_size=10,
)


def test_gram_matrix_signature():
    g = gram_matrix()
    assert g[0][0] == 1
    for i in range(1, 10):
        assert g[i][i] == -1
    for i in range(10):
        for j in range(10):
            if i != j:
                assert g[i][j] == 0


def test_basis_pairings():
    assert self_intersection(H) == 1
    for i in range(9):
        assert self_intersection(E[i]) == -1
        assert intersect(H, E[i]) == 0
    assert intersect(E[0], E[1]) == 0


def test_canonical_and_fiber():
    assert F == -K
    assert self_intersection(K) == 0
    assert self_intersection(F) == 0
    assert intersect(K, F) == 0
    assert intersect(H, F) == 3
    for i in range(9):
        assert intersect(E[i], F) == 1


def test_arithmetic_genus_values():
    assert arithmetic_genus(H) == 0
    assert arithmetic_genus(E[0]) == 0
    assert arithmetic_genus(F) == 1
    # smooth plane cubic through no points has genus 1
    assert arithmetic_genus(divisor(3, [0] * 9)) == 1


def test_minus_one_class_predicate():
    assert is_minus_one_class(E[3])
    assert is_minus_one_class(H - E[0] - E[1])
    assert not is_minus_one_class(H)
    assert not is_minus_one_class(F)
    assert not is_minus_one_class(ZERO)


def test_parse_divisor_forms():
    assert parse_divisor("H") == H
    assert parse_divisor("H-2E1") == divisor(1, [-2, 0, 0, 0, 0, 0, 0, 0, 0])
    assert parse_divisor("3H - E1 - E2 - E3") == divisor(3, [-1, -1, -1] + [0] * 6)
    assert parse_divisor("F") == F
    assert parse_divisor("K") == K
    assert parse_divisor("1/2F + H") == Fraction(1, 2) * F + H


def test_parse_divisor_rejects_garbage():
    with pytest.raises(ValueError):
        parse_divisor("H+Q3")
    with pytest.raises(ValueError):
        parse_divisor("")
    with pytest.raises(ValueError):
        parse_divisor("E10")


def test_str_parse_round_trip():
    for d in (H, F, K, E[4], divisor(7, [2] * 9), Fraction(1, 2) * F):
        assert parse_divisor(str(d)) == d


@given(rationals)
def test_rational_format_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_format_lowest_terms():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


@given(small_coords, small_coords)
def test_intersection_symmetric_bilinear(a, b):
    da = DivisorClass(tuple(a))
    db = DivisorClass(tuple(b))
    assert intersect(da, db) == intersect(db, da)
    assert intersect(da + db, da) == self_intersection(da) + intersect(da, db)


@given(small_coords, small_coords)
def test_intersection_matches_fraction_sum(a, b):
    expected = a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))
    got = intersect(DivisorClass(tuple(a)), DivisorClass(tuple(b)))
    assert type(got) is Fraction
    assert got == expected


@given(small_coords)
def test_json_round_trip(coords):
    d = DivisorClass(tuple(coords))
    assert DivisorClass.from_json(d.to_json()) == d


def test_integral_coordinate_helpers():
    d = divisor(2, [-1, -1, 0, 0, 0, 0, 0, 0, 0])
    assert d.is_integral()
    assert d.int_coords() == (2, -1, -1, 0, 0, 0, 0, 0, 0, 0)
    half = Fraction(1, 2) * d
    assert not half.is_integral()
    ints, den = half.scaled_int_coords()
    assert den == 2
    assert ints == (2, -1, -1, 0, 0, 0, 0, 0, 0, 0)


def test_sorted_classes_deterministic():
    classes = [E[8], H, E[0], F]
    once = sorted_classes(classes)
    again = sorted_classes(list(reversed(classes)))
    assert once == again
    assert set(once) == set(classes)
