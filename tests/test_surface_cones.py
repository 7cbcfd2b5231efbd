import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbnef import (
    DivisorClass,
    E,
    F,
    H,
    K,
    SLICES,
    ZERO,
    Slice,
    divisor,
    enumerate_minus_one_classes,
    intersect,
    is_ample,
    is_nef,
    parse_divisor,
    self_intersection,
)
from hilbnef.lattice import dot_int

from conftest import listed_orbit, replay_word

# fiber class plus (-1)-classes up to each degree
MORI_COUNTS = {0: 10, 1: 46, 2: 172, 3: 424, 4: 937, 5: 1693, 6: 3025}

# the nef classes of the standard form: H, H-E1, 2H-E1-E2, 3H-E1-...-E_k
STANDARD_GENERATORS = [H, H - E[0], 2 * H - E[0] - E[1]] + [
    3 * H - sum(E[:k], ZERO) for k in range(3, 10)
]

# the degree of the full scan that stands for "every curve" on a nef verdict
ORACLE_DEGREE = 8


def mori_generators(max_h_degree: int) -> list[DivisorClass]:
    """Fiber class first, then the listed (-1)-classes in canonical order."""
    return [F, *listed_orbit(E[8], max_h_degree)]


def oracle_nef(d: DivisorClass, max_h_degree: int) -> tuple[DivisorClass, Fraction] | None:
    """The nef test as a full scan: the first Mori generator up to the degree
    bound, in enumeration order, that pairs negatively with d, with the
    pairing, or None."""
    for g in mori_generators(max_h_degree):
        value = dot_int(d.nums, g.nums)
        if value < 0:
            return g, Fraction(value, d.den)
    return None


def check_certificate(d: DivisorClass) -> str | int | None:
    """Check is_nef(d) against the full scan and return its outcome: None
    when nef, "F", "hodge", or the witness's degree."""
    cert = is_nef(d)
    assert cert.divisor == d
    assert cert.to_json()["scope"] == "all curves"
    fiber = intersect(d, F)
    if cert.nef:
        assert oracle_nef(d, ORACLE_DEGREE) is None
        assert len(cert.standard_form) == 10 and min(cert.standard_form) >= 0
        form = sum((c * g for c, g in zip(cert.standard_form, STANDARD_GENERATORS)), ZERO)
        image = replay_word(d, cert.word)
        assert image.h == form.h
        assert sorted(image.e) == sorted(form.e)
        return None
    if cert.witness is None:
        # Hodge index on F^perp: no curve.  A (-1)-class e still pairs
        # negatively with d, but it can lie far outside the scan's window
        # (3H-E1-...-E7-4/3E8-2/3E9 needs degree 12).  The walk of d + H/t
        # names one once t is large, and e.H >= 0 gives d.e <= (d + H/t).e.
        assert fiber == 0 and self_intersection(d) < 0
        for k in range(16):
            shifted = is_nef(d + Fraction(1, 2**k) * H)
            if not shifted.nef:
                break
        w = shifted.witness
        assert w.is_integral() and self_intersection(w) == -1 and intersect(w, K) == -1
        assert intersect(d, w) < 0
        return "hodge"
    w = cert.witness
    assert w == F or (self_intersection(w) == -1 and intersect(w, K) == -1)
    assert cert.witness_pairing == intersect(d, w) < 0
    assert oracle_nef(d, int(w.h)) is not None
    if w == F:
        assert fiber < 0
        return "F"
    return int(w.h)


@pytest.mark.parametrize("degree,count", sorted(MORI_COUNTS.items()))
def test_mori_generator_counts(degree, count):
    assert 1 + len(enumerate_minus_one_classes(degree)) == count
    assert len(mori_generators(degree)) == count


# nef generators of degree at most 3: a multiple of one plus a small, sparse
# perturbation is near the nef cone's boundary, so both verdicts, fiber
# witnesses, (-1)-class witnesses of several degrees and, from multiples of
# F, the Hodge case all occur
NEF_GENERATORS = [F, *listed_orbit(H, 3), *listed_orbit(H - E[0], 3)]
PERTURBATION_ENTRIES = [0, 0, 0, -1, 1]
DENOMINATORS = [1, 1, 2, 3, 6]


def near_nef(g: DivisorClass, m: int, p: list[int], den: int) -> DivisorClass:
    return m * g + DivisorClass(tuple(p), den)


near_nef_classes = st.builds(
    near_nef,
    st.sampled_from(NEF_GENERATORS),
    st.integers(1, 3),
    st.lists(st.sampled_from(PERTURBATION_ENTRIES), min_size=10, max_size=10),
    st.sampled_from(DENOMINATORS),
)


@settings(max_examples=300, deadline=None)
@given(near_nef_classes)
@example(parse_divisor("12H-4E1-4E2-4E3-4E4-11/2E5-4E6-4E7-E8-4E9"))
@example(parse_divisor("2F-1/2E3"))
@example(parse_divisor("H-E1-E2"))
@example(parse_divisor("3H-E1-E2-E3-E4-E5-E6-E7-E8"))
@example(parse_divisor("F+E1-E2"))
@example(parse_divisor("3H-E1-E2-E3-E4-E5-E6-E7-4/3E8-2/3E9"))
def test_nef_test_matches_full_scan(d):
    check_certificate(d)


def test_near_nef_draws_reach_every_outcome():
    """A fixed sample of the drawn family hits nef verdicts, fiber witnesses,
    (-1)-class witnesses at several degrees and the Hodge case, and each
    certificate agrees with the scan."""
    rng = random.Random(0)
    outcomes = set()
    for _ in range(200):
        d = near_nef(
            rng.choice(NEF_GENERATORS),
            rng.randint(1, 3),
            [rng.choice(PERTURBATION_ENTRIES) for _ in range(10)],
            rng.choice(DENOMINATORS),
        )
        outcomes.add(check_certificate(d))
    assert {None, "F", "hodge", 0, 1, 2} <= outcomes


def test_nef_examples():
    # each is one of the standard generators, F = K + 2F among them
    for name, k in (("H", 0), ("H-E1", 1), ("F", 9), ("K+2F", 9)):
        cert = is_nef(parse_divisor(name))
        assert cert.nef, name
        assert cert.word == ()
        assert cert.standard_form == tuple(Fraction(int(i == k)) for i in range(10))


def test_not_nef_witness():
    cert = is_nef(parse_divisor("H-2E1"))
    assert not cert.nef
    assert cert.witness == H - E[0] - E[1]
    assert cert.witness_pairing == -1


def test_rational_class_keeps_its_degree_six_witness():
    # F + (3/2)(6H - 2E1 - ... - 3E5 - ... - 2E7 - 2E9): its one negative
    # pairing is with that (-1)-class, whose E-numerators are unsorted
    d = parse_divisor("12H-4E1-4E2-4E3-4E4-11/2E5-4E6-4E7-E8-4E9")
    cert = is_nef(d)
    assert cert.witness == parse_divisor("6H-2E1-2E2-2E3-2E4-3E5-2E6-2E7-2E9")
    assert cert.witness_pairing == Fraction(-1, 2)
    assert oracle_nef(d, 6) == (cert.witness, cert.witness_pairing)


def test_hodge_case_has_no_curve():
    # E1 - E2 pairs 0 with F and squares to -2: not nef, with no witness
    # curve; the scan finds E1 against it
    cert = is_nef(parse_divisor("E1-E2"))
    assert (cert.nef, cert.witness) == (False, None)
    assert cert.to_json()["pairings"] == {"D.F": "0", "D.D": "-2"}
    assert oracle_nef(parse_divisor("E1-E2"), 0) == (E[0], -1)


def test_negative_fiber_multiple_pairs_negatively_with_e9():
    cert = is_nef(-1 * F)
    assert (cert.nef, cert.witness, cert.witness_pairing) == (False, E[8], -1)
    assert oracle_nef(-1 * F, 0) == (E[8], -1)


def test_long_translate_of_h_is_nef():
    # T_v(H) = H + 3v + 6k^2 F for v = k(E1-E2+E3-E4), an isometric image of
    # H of degree 1,801 at k = 10; its walk takes 60 reflections
    k = 10
    d = H + 3 * k * (E[0] - E[1] + E[2] - E[3]) + 6 * k * k * F
    assert d.h == 1801
    cert = is_nef(d)
    assert cert.nef and len(cert.word) == 60
    assert cert.standard_form == tuple(Fraction(int(i == 0)) for i in range(10))
    assert replay_word(d, cert.word) == H


def oracle_ample(d: DivisorClass) -> bool:
    """Ampleness as a strict scan: D.F > 0 and D.e > 0 for every listed
    (-1)-class e up to ORACLE_DEGREE."""
    return all(dot_int(d.nums, g.nums) > 0 for g in mori_generators(ORACLE_DEGREE))


def oracle_ample_family(c_h: Fraction, c_p: Fraction, c_f: Fraction) -> bool:
    """Ampleness of c_h*H + c_p*(H-E1) + c_f*F, at most one of c_h, c_p
    nonzero, in closed form against every curve: a (-1)-curve is some E_i
    or has shape aH - sum(b_i E_i) with a >= 1, 0 <= b_i <= a and fiber
    degree 1, so each pairing is minimized in closed form.  A negative c_h
    or c_p makes the pairings unbounded below, and D.F < 0 already fails."""
    assert c_h == 0 or c_p == 0
    if c_p == 0:
        # D.E_i = c_f, and D.E = a*c_h + c_f for E = aH - sum(b_i E_i), least at a = 1
        fiber, least = 3 * c_h, min(c_f, c_h + c_f)
    else:
        # D.E_1 = c_p + c_f and D.E_i = c_f; (H-E1).E = a - b1 ranges over all
        # integers >= 0 on the other family, where D.E = c_p*(a - b1) + c_f
        fiber, least = 2 * c_p, min(c_f, c_p + c_f)
    d = c_h * H + c_p * (H - E[0]) + c_f * F
    return fiber > 0 and least > 0 and self_intersection(d) > 0


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=8, max_denominator=6),
)
@example(True, Fraction(0), Fraction(1))
@example(False, Fraction(1), Fraction(0))
@example(False, Fraction(-1), Fraction(3))
def test_ample_matches_pencil_family_oracle(use_h, coeff, c_f):
    c_h, c_p = (coeff, Fraction(0)) if use_h else (Fraction(0), coeff)
    d = c_h * H + c_p * (H - E[0]) + c_f * F
    assert is_ample(d).ample == oracle_ample_family(c_h, c_p, c_f)


# sums of nef generators plus a small, sparse perturbation: about one in
# five is ample (near_nef_classes almost never are)
def near_ample(terms: list[tuple[DivisorClass, int]], p: list[int], den: int) -> DivisorClass:
    return sum((m * g for g, m in terms), ZERO) + DivisorClass(tuple(p), den)


near_ample_classes = st.builds(
    near_ample,
    st.lists(
        st.tuples(st.sampled_from(NEF_GENERATORS), st.integers(1, 3)), min_size=1, max_size=3
    ),
    st.lists(st.sampled_from(PERTURBATION_ENTRIES), min_size=10, max_size=10),
    st.sampled_from(DENOMINATORS),
)


def check_ampleness(d: DivisorClass) -> bool:
    """Check is_ample(d) against the strict scan and return its verdict."""
    report = is_ample(d)
    assert report.nef == is_nef(d)
    assert report.ample == oracle_ample(d)
    assert report.to_json() == {**report.nef.to_json(), "ample": report.ample}
    if report.ample:
        assert report.nef.nef and report.nef.standard_form[-1] > 0
        assert self_intersection(d) > 0
    return report.ample


@settings(max_examples=300, deadline=None)
@given(near_ample_classes)
def test_ample_matches_strict_scan(d):
    check_ampleness(d)


def test_near_ample_draws_reach_both_verdicts():
    rng = random.Random(0)
    verdicts = []
    for _ in range(200):
        size = rng.randint(1, 3)
        terms = [(rng.choice(NEF_GENERATORS), rng.randint(1, 3)) for _ in range(size)]
        p = [rng.choice(PERTURBATION_ENTRIES) for _ in range(10)]
        verdicts.append(check_ampleness(near_ample(terms, p, rng.choice(DENOMINATORS))))
    assert 20 <= sum(verdicts) <= 180


@pytest.mark.parametrize("n", range(3, 65))
def test_quoted_polarizations_are_ample(n):
    # every slice polarization the campaign reads, n = 3..MAX_CAMPAIGN_N
    for label in SLICES:
        assert is_ample(Slice(label, n).polarization).ample, label


def test_ample_boundary_failures():
    # H, H-E1 and 2H-E1-E2 are nef and meet E9 in 0; F and 0 meet F in 0
    for name in ("H", "H-E1", "2H-E1-E2", "F", "0"):
        assert not check_ampleness(parse_divisor(name)), name
        assert is_nef(parse_divisor(name)).nef, name
    assert not check_ampleness(-1 * H)
    assert not is_nef(-1 * H).nef


def test_ample_examples():
    # 5H-2E1-E2-...-E9 = H + (H-E1) + F lies in neither pencil family
    for name in ("H+F", "5H-2E1-E2-E3-E4-E5-E6-E7-E8-E9"):
        assert check_ampleness(parse_divisor(name)), name


def test_polarization_classes():
    a1 = Slice("A1", 3).polarization
    a2 = Slice("A2", 3).polarization
    assert a1 == Fraction(3, 3) * H + (3 - Fraction(3, 2)) * F
    assert a2 == Fraction(3, 2) * (H - E[0]) + (3 - Fraction(3, 2)) * F
    assert intersect(a1, F) == 3
    assert intersect(a2, F) == 3


def test_self_intersection_values():
    assert self_intersection(Slice("A1", 3).polarization) == 10
    assert self_intersection(Slice("A2", 3).polarization) == 9


@settings(max_examples=40, deadline=None)
@given(near_ample_classes)
def test_ample_monotone_in_fiber_coefficient(d):
    # F is nef and meets every (-1)-curve in 1
    if is_ample(d).ample:
        assert is_ample(d + F).ample


def test_mori_generators_pair_nonnegatively_with_nef():
    d = divisor(2, [-1, -1, 0, 0, 0, 0, 0, 0, 0])  # 2H - E1 - E2 is nef
    assert is_nef(d).nef
    for g in mori_generators(2):
        assert intersect(d, g) >= 0
