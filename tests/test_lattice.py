from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

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
    intersect,
    parse_divisor,
    self_intersection,
)

rationals = st.fractions(min_value=-999, max_value=999, max_denominator=40)
small_coords = st.lists(
    st.fractions(min_value=-60, max_value=60, max_denominator=6),
    min_size=10,
    max_size=10,
)
# coordinates with unrelated denominators, so sums and products change den
mixed_coords = st.lists(
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
    min_size=10,
    max_size=10,
)


def from_coords(coords) -> DivisorClass:
    return divisor(coords[0], coords[1:])


@dataclass(frozen=True, order=True)
class FractionDivisorClass:
    """The reference class: ten Fraction coordinates (h, e1, ..., e9), with
    the pairing, string and JSON forms written directly on them."""

    coords: tuple[Fraction, ...]

    def __add__(self, other):
        return FractionDivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return FractionDivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FractionDivisorClass(tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        return FractionDivisorClass(tuple(a * scalar for a in self.coords))

    def to_json(self) -> dict:
        return {"h": str(self.coords[0]), "e": [str(c) for c in self.coords[1:]]}

    def __str__(self) -> str:
        names = ["H"] + [f"E{i}" for i in range(1, 10)]
        parts = [
            ("-" if c < 0 else "+") + ("" if abs(c) == 1 else str(abs(c))) + name
            for c, name in zip(self.coords, names)
            if c != 0
        ]
        out = "".join(parts) or "0"
        return out[1:] if out.startswith("+") else out


def oracle_intersect(a: FractionDivisorClass, b: FractionDivisorClass) -> Fraction:
    x, y = a.coords, b.coords
    return x[0] * y[0] - sum(p * q for p, q in zip(x[1:], y[1:]))


def test_classes_are_stored_in_lowest_terms():
    d = DivisorClass((2, -4, 0, 0, 0, 0, 0, 0, 0, 6), 4)
    assert d.nums == (1, -2, 0, 0, 0, 0, 0, 0, 0, 3)
    assert d.den == 2
    assert d == divisor(Fraction(1, 2), [-1, 0, 0, 0, 0, 0, 0, 0, Fraction(3, 2)])
    assert ZERO.den == 1
    assert DivisorClass((0,) * 10, 7) == ZERO


def test_constructor_takes_integers_only():
    with pytest.raises(TypeError):
        DivisorClass((Fraction(1, 2),) + (0,) * 9)
    with pytest.raises(TypeError):
        DivisorClass((1,) + (0,) * 9, Fraction(2))
    with pytest.raises(ValueError):
        DivisorClass((1,) + (0,) * 9, 0)
    with pytest.raises(ValueError):
        DivisorClass((1,) + (0,) * 9, -2)
    with pytest.raises(ValueError):
        DivisorClass((1,) * 9)


@given(mixed_coords, mixed_coords, st.fractions(min_value=-9, max_value=9, max_denominator=9))
def test_matches_fraction_oracle(a, b, s):
    da, db = from_coords(a), from_coords(b)
    oa, ob = FractionDivisorClass(tuple(a)), FractionDivisorClass(tuple(b))
    for d, o in ((da, oa), (da + db, oa + ob), (da - db, oa - ob), (-da, -oa), (s * da, oa * s)):
        assert d.den > 0 and gcd(d.den, *d.nums) == 1
        assert d.coords == o.coords
        assert (d.h, d.e) == (o.coords[0], o.coords[1:])
        assert str(d) == str(o)
        assert d.to_json() == o.to_json()
    assert intersect(da, db) == oracle_intersect(oa, ob)
    assert type(intersect(da, db)) is Fraction
    assert (da < db, da <= db, da > db, da >= db) == (oa < ob, oa <= ob, oa > ob, oa >= ob)
    assert (da == db) == (oa == ob)
    assert (da + db) - db == da
    assert hash((da + db) - db) == hash(da)
    # hashing identifies exactly the classes the oracle identifies
    same = [da, db, (da + db) - db, 2 * db - db]
    assert len(set(same)) == len({FractionDivisorClass(d.coords) for d in same})
    assert len({da, db}) == len({oa, ob})


@settings(max_examples=40)
@given(st.lists(mixed_coords, min_size=2, max_size=6))
def test_sorting_matches_fraction_oracle(rows):
    got = sorted(from_coords(r) for r in rows)
    expected = sorted(FractionDivisorClass(tuple(r)) for r in rows)
    assert [d.coords for d in got] == [o.coords for o in expected]


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
    # a term after the first needs its sign
    for text in ("H-E1 E2", "2H3E1", "E1E2"):
        with pytest.raises(ValueError):
            parse_divisor(text)
    # a "*" needs a coefficient before it
    for text in ("*H", "H-*E1"):
        with pytest.raises(ValueError):
            parse_divisor(text)
    assert parse_divisor("2*H") == 2 * H
    assert parse_divisor("H - 2 * E1") == H - 2 * E[0]


integral_coords = st.lists(st.integers(-60, 60), min_size=10, max_size=10)


@given(st.one_of(mixed_coords, integral_coords))
@example([0] * 10)
def test_str_parse_round_trip(coords):
    # the zero class prints as "0", which parses back
    d = from_coords(coords)
    assert parse_divisor(str(d)) == d


@given(rationals)
def test_rational_format_round_trip(q):
    assert Fraction(format_rational(q)) == q


def test_rational_format_lowest_terms():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


@given(small_coords, small_coords)
def test_intersection_symmetric_bilinear(a, b):
    da = from_coords(a)
    db = from_coords(b)
    assert intersect(da, db) == intersect(db, da)
    assert intersect(da + db, da) == self_intersection(da) + intersect(da, db)


@given(small_coords, small_coords)
def test_intersection_matches_fraction_sum(a, b):
    expected = a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))
    got = intersect(from_coords(a), from_coords(b))
    assert type(got) is Fraction
    assert got == expected


@given(mixed_coords)
def test_json_round_trip(coords):
    d = from_coords(coords)
    assert DivisorClass.from_json(d.to_json()) == d


def test_from_json_reads_only_exact_coordinates():
    mixed = {"h": "1/2", "e": [-1] + ["0"] * 8}
    assert DivisorClass.from_json(mixed) == divisor(Fraction(1, 2), [-1] + [0] * 8)
    # a float or bool would enter the exact pipeline as a guess
    for h, e in [(0.1, [0] * 9), (True, [0] * 9), (float("inf"), [0] * 9), ("1", "0" * 9)]:
        with pytest.raises(ValueError):
            DivisorClass.from_json({"h": h, "e": e})
    # an unread key such as "den" would change nothing without a word
    for extra in ({"x": 1}, {"den": "2"}):
        with pytest.raises(ValueError):
            DivisorClass.from_json({"h": "1", "e": [0] * 9, **extra})


def test_integral_coordinate_helpers():
    d = divisor(2, [-1, -1, 0, 0, 0, 0, 0, 0, 0])
    assert d.is_integral()
    assert (d.nums, d.den) == ((2, -1, -1, 0, 0, 0, 0, 0, 0, 0), 1)
    half = Fraction(1, 2) * d
    assert not half.is_integral()
    assert (half.nums, half.den) == ((2, -1, -1, 0, 0, 0, 0, 0, 0, 0), 2)


def test_sorted_classes_deterministic():
    classes = [E[8], H, E[0], F]
    once = sorted(classes)
    again = sorted(reversed(classes))
    assert once == again
    assert set(once) == set(classes)
