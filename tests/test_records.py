"""The value types keep the semantics of frozen records: immutable fields,
value equality and hashing within one class only, and their orderings."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hilbnef.bridgeland import (
    ChernChar,
    DegenerateWall,
    VerticalWall,
    Wall,
    Slice,
    WallCandidate,
)
from hilbnef.hilb import C0, ContractedCurve, CurveRow, HilbDivisor, InducedCurve
from hilbnef.lattice import ZERO, DivisorClass, E, F, H, divisor
from hilbnef.translations import CoverageConfig
from hilbnef.weyl import Root


def _hashed_values():
    """Two independently built, equal instances of every hashed value type."""

    def build():
        return [
            divisor(Fraction(1, 2), [1, 0, 0, 0, 0, 0, 0, 0, Fraction(-3, 4)]),
            HilbDivisor(H - E[0], Fraction(-1, 2)),
            Root(E[0] - E[1]),
            ChernChar(1, F, Fraction(-3)),
            Slice("A1", 4),
            Wall(Fraction(-1), Fraction(1)),
            VerticalWall(Fraction(2, 3)),
            DegenerateWall(True),
            WallCandidate((1, 0, -1) + (0,) * 7, None, Wall(Fraction(-1), Fraction(1))),
            InducedCurve(F),
            ContractedCurve(),
            CoverageConfig(3, 100, 0, 3),
        ]

    return list(zip(build(), build()))


HASHED = _hashed_values()
IDS = [type(a).__name__ for a, _ in HASHED]


@pytest.mark.parametrize("a,b", HASHED, ids=IDS)
def test_equal_values_hash_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("a,b", HASHED, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(a, b):
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("a,b", HASHED, ids=IDS)
def test_copies_and_pickles_are_equal(a, b):
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a)
        assert clone == b and hash(clone) == hash(b)


def test_records_of_different_types_with_the_same_fields_are_unequal():
    beta = E[0] - E[1]
    assert Root(beta) != InducedCurve(beta)
    assert Wall(Fraction(1), Fraction(2)) != (Fraction(1), Fraction(2))
    assert VerticalWall(Fraction(0)) != DegenerateWall(Fraction(0))
    assert CurveRow("F", 1, Fraction(0), 1, None) != ("F", 1, Fraction(0), 1, None)
    assert C0 == ContractedCurve() and C0 != ()
    assert ZERO != ((0,) * 10, 1)


def test_construction_checks_its_fields():
    assert CurveRow("F", 1, Fraction(0), 1, None) == CurveRow(
        "F", 1, Fraction(0), zero_count=1, witness=None
    )
    with pytest.raises(TypeError):
        CurveRow("F", 1, Fraction(0), 1)
    with pytest.raises(TypeError):
        CurveRow("F", 1, Fraction(0), 1, None, "extra")
    with pytest.raises(TypeError):
        CurveRow("F", 1, Fraction(0), 1, None, curve="F")
    with pytest.raises(TypeError):
        CurveRow("F", 1, Fraction(0), 1, witness=None, note="")


classes = st.builds(
    lambda nums, den: DivisorClass(tuple(nums), den),
    st.lists(st.integers(-3, 3), min_size=10, max_size=10),
    st.integers(1, 4),
)
hilb_divisors = st.builds(
    HilbDivisor, classes, st.fractions(min_value=-2, max_value=2, max_denominator=3)
)


@given(st.lists(hilb_divisors, min_size=2, max_size=8))
def test_hilb_divisors_order_by_surface_class_then_b_half(ds):
    assert sorted(ds) == sorted(ds, key=lambda d: (d.surf, d.b_half))
    a, b = ds[0], ds[1]
    ka, kb = (a.surf, a.b_half), (b.surf, b.b_half)
    assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)


def test_divisor_classes_order_across_denominators():
    half_h = Fraction(1, 2) * H
    third_h = Fraction(1, 3) * H
    assert (half_h.den, third_h.den) == (2, 3)
    assert third_h < half_h < H
    assert half_h <= half_h and half_h >= third_h and H > half_h
    assert sorted([H, half_h, ZERO, third_h]) == [ZERO, third_h, half_h, H]
    with pytest.raises(TypeError):
        H < (1,)
