import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from hilbnef import (
    C0,
    DecompositionError,
    E,
    F,
    H,
    HilbDivisor,
    InducedCurve,
    ZERO,
    b_negative_ray,
    bounding_cone_decompose,
    divisor,
    cone_duality_check,
    fiber_orthogonal_lift,
    intersect,
    is_nef_up_to_degree,
    lift,
    pair_hilb,
)
from hilbnef.surface_cones import _least_pairing
from hilbnef.weyl import _degree_groups

from conftest import listed_orbit

# frozen duality scan facts at n=3, degree bound 3
DUALITY_NEF_CANDIDATES = 2709
DUALITY_CURVES = 425
DUALITY_PAIRINGS = 1151325
# one row per S9 orbit of (-1)-curves: (representative, orbit size)
DUALITY_ORBITS = [
    ("E9", 9),
    ("H-E1-E2", 36),
    ("2H-E1-E2-E3-E4-E5", 126),
    ("3H-2E1-E2-E3-E4-E5-E6-E7", 252),
]

B = HilbDivisor(ZERO, 2)  # the class of the nonreduced locus, b_half = 2


def test_pairing_table_against_ray():
    d = b_negative_ray(3)
    assert pair_hilb(d, C0, 3) == 1
    assert pair_hilb(d, InducedCurve(F), 3) == -3
    assert pair_hilb(d, InducedCurve(E[8]), 3) == 0


def test_contracted_pairing_is_minus_b_half():
    assert pair_hilb(B, C0, 4) == -2
    assert pair_hilb(lift(H), C0, 4) == 0


def test_induced_pairing_uses_genus():
    d = HilbDivisor(H, Fraction(-1))
    # g(F) = 1 so the B term contributes -n; g(E_i) = 0 contributes -(n-1)
    assert pair_hilb(d, InducedCurve(F), 5) == 3 - 5
    assert pair_hilb(d, InducedCurve(E[0]), 5) == 0 - 4


def test_pairing_needs_n_at_least_two():
    with pytest.raises(ValueError):
        pair_hilb(lift(H), C0, 1)


def test_fiber_orthogonal_lift_examples():
    eh = fiber_orthogonal_lift(H, 3)
    assert eh.surf == 7 * H - 2 * sum(E[1:], E[0])
    assert eh.b_half == -1
    assert pair_hilb(eh, InducedCurve(F), 3) == 0

    er = fiber_orthogonal_lift(H - E[0], 3)
    assert er.surf == Fraction(3, 2) * (H - E[0]) + 2 * F
    assert pair_hilb(er, InducedCurve(F), 3) == 0


def test_fiber_orthogonal_lift_rejects_fiber_orthogonal_input():
    with pytest.raises(ValueError):
        fiber_orthogonal_lift(F, 3)  # F.F = 0
    with pytest.raises(ValueError):
        fiber_orthogonal_lift(E[0] - E[1], 3)


@given(st.lists(st.integers(-20, 20), min_size=10, max_size=10), st.integers(3, 64))
def test_fiber_orthogonal_lift_is_scaled_lift_plus_ray(coords, n):
    c = divisor(coords[0], coords[1:])
    cf = intersect(c, F)
    assume(cf > 0)
    d = fiber_orthogonal_lift(c, n)
    assert pair_hilb(d, InducedCurve(F), n) == 0
    assert d - (n / cf) * lift(c) == b_negative_ray(n)


def oracle_min_curve_pairing(d, n, max_h_degree):
    """The least pairing of d with an induced (-1)-curve, from every listed
    (-1)-class."""
    min_val = None
    for e_cls in listed_orbit(E[8], max_h_degree):
        v = pair_hilb(d, InducedCurve(e_cls), n)
        if min_val is None or v < min_val:
            min_val = v
    return min_val


def test_membership_min_curve_pairing_matches_listing_oracle():
    rng = random.Random(1)
    for n in (3, 5):
        pool = [
            lift(F),
            fiber_orthogonal_lift(H, n),
            fiber_orthogonal_lift(H - E[0], n),
            b_negative_ray(n),
            lift(2 * F) + Fraction(1, 2) * B,
        ]
        combos = []
        for _ in range(4):
            d = HilbDivisor(ZERO, Fraction(0))
            for p in pool:
                d = d + Fraction(rng.randint(0, 6), rng.randint(1, 4)) * p
            combos.append(d)
        for k in range(6):
            for d in pool + combos:
                # a (-1)-curve e has genus 0, so d pairs with its induced
                # curve to e.surf + b_half (n - 1); the least e.surf is the
                # least of the orbits' rearrangement bounds
                least = min(
                    _least_pairing(d.surf.nums, a, b)
                    for a, _, pairs in _degree_groups(E[8], k)
                    for b, _ in pairs
                )
                value = Fraction(least, d.surf.den) + d.b_half * (n - 1)
                assert value == oracle_min_curve_pairing(d, n, k), (d, n, k)


def test_membership_refuses_a_negative_degree():
    with pytest.raises(ValueError):
        is_nef_up_to_degree(lift(F).surf, -1)


def test_decompose_fixture_classes():
    nef_part, t = bounding_cone_decompose(fiber_orthogonal_lift(H, 3), 3)
    assert nef_part == H
    assert t == 1
    assert lift(nef_part) + t * b_negative_ray(3) == fiber_orthogonal_lift(H, 3)

    # the ray itself decomposes with zero nef part
    assert bounding_cone_decompose(b_negative_ray(3), 3) == (ZERO, 1)


def test_decompose_failure_witnesses():
    with pytest.raises(DecompositionError) as exc:
        bounding_cone_decompose(HilbDivisor(H, Fraction(-1)), 3)
    assert str(exc.value) == "nef part fails against a (-1)-curve"
    assert exc.value.witness == E[8]
    assert exc.value.pairing == -2

    with pytest.raises(DecompositionError) as exc:
        bounding_cone_decompose(HilbDivisor(2 * F, Fraction(1)), 3)
    assert exc.value.witness is None

    with pytest.raises(DecompositionError) as exc:
        bounding_cone_decompose(lift(E[0]), 3)
    assert exc.value.witness == E[0]
    assert exc.value.pairing == -1

    # the fiber is checked first: -H also fails against every E_i
    with pytest.raises(DecompositionError) as exc:
        bounding_cone_decompose(lift(-1 * H), 3)
    assert str(exc.value) == "nef part fails against the fiber class"
    assert exc.value.witness == F
    assert exc.value.pairing == -3


def test_decompose_recompose_random_members():
    rng = random.Random(0)
    pool = [lift(F), fiber_orthogonal_lift(H, 3), fiber_orthogonal_lift(H - E[0], 3)]
    for _ in range(100):
        d = HilbDivisor(ZERO, Fraction(0))
        for p in pool:
            d = d + rng.randint(0, 3) * p
        nef_part, t = bounding_cone_decompose(d, 3)
        assert lift(nef_part) + t * b_negative_ray(3) == d
        assert t == -d.b_half


def test_duality_report_frozen_counts(duality_3):
    rep = duality_3
    assert rep.passed
    assert rep.nef_candidate_count == DUALITY_NEF_CANDIDATES
    assert rep.curve_candidate_count == DUALITY_CURVES
    assert rep.pairings_checked == DUALITY_PAIRINGS
    assert rep.min_pairing == 0
    assert rep.violations == ()
    assert rep.unwitnessed_curves == ()


def test_duality_rows_cover_every_curve(duality_3):
    rows = duality_3.curve_rows
    assert [(row.curve, row.arrangements) for row in rows] == [
        ("contracted", 1),
        ("fiber", 1),
    ] + DUALITY_ORBITS
    assert sum(row.arrangements for row in rows) == DUALITY_CURVES
    for row in rows:
        assert row.min_pairing >= 0
        assert row.zero_count >= 1
        assert row.witness is not None


def test_duality_at_the_degree_cap_has_one_unwitnessed_orbit():
    # the 72 arrangements of 6H-3E1-2E2-...-2E8 have no orthogonality witness
    # inside the degree-6 window
    rep = cone_duality_check(3, 6)
    assert not rep.passed
    assert rep.violations == ()
    assert len(rep.curve_rows) == 12
    assert rep.unwitnessed_curves == ("6H-3E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8",)
    (row,) = [row for row in rep.curve_rows if row.witness is None]
    assert (row.curve, row.arrangements, row.zero_count) == (rep.unwitnessed_curves[0], 72, 0)


def test_duality_json_shapes(duality_3):
    full = duality_3.to_json()
    assert len(full["curves"]) == 2 + len(DUALITY_ORBITS)
    assert sum(row["arrangements"] for row in full["curves"]) == DUALITY_CURVES
    slim = duality_3.to_json(include_curves=False)
    assert "curves" not in slim
    assert slim["min_pairing"] == "0"


def test_hilb_divisor_arithmetic():
    d = lift(H) + Fraction(1, 2) * B
    assert d.surf == H
    assert d.b_half == 1
    assert (d - d).surf == ZERO
    assert intersect((2 * d).surf, F) == 6
