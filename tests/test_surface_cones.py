import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbnef import (
    DivisorClass,
    E,
    F,
    H,
    NefCertificate,
    a1_polarization,
    a2_polarization,
    divisor,
    enumerate_minus_one_classes,
    intersect,
    is_ample_hf_family,
    is_nef_up_to_degree,
    parse_divisor,
    self_intersection,
)
from hilbnef.lattice import dot_int

from conftest import listed_orbit

# fiber class plus (-1)-classes up to each degree
MORI_COUNTS = {0: 10, 1: 46, 2: 172, 3: 424, 4: 937, 5: 1693, 6: 3025}


def mori_generators(max_h_degree: int) -> list[DivisorClass]:
    """Fiber class first, then the listed (-1)-classes in canonical order."""
    return [F, *listed_orbit(E[8], max_h_degree)]


def oracle_nef(d: DivisorClass, max_h_degree: int) -> NefCertificate:
    """The nef test as a full scan: pair d with every Mori generator and take
    the first negative one, in enumeration order, as the witness."""
    generators = mori_generators(max_h_degree)
    dots = [dot_int(d.nums, g.nums) for g in generators]
    first = next((i for i, v in enumerate(dots) if v < 0), None)
    return NefCertificate(
        divisor=d,
        degree_bound=max_h_degree,
        nef_up_to_bound=first is None,
        generators_checked=len(dots),
        lowest_pairing=Fraction(min(dots), d.den),
        witness=None if first is None else generators[first],
        witness_pairing=None if first is None else Fraction(dots[first], d.den),
    )


@pytest.mark.parametrize("degree,count", sorted(MORI_COUNTS.items()))
def test_mori_generator_counts(degree, count):
    assert 1 + len(enumerate_minus_one_classes(degree)) == count
    assert is_nef_up_to_degree(H, degree).generators_checked == count


# nef generators of degree at most 3: a multiple of one plus a small, sparse
# perturbation is near the nef cone's boundary, so both verdicts, fiber
# witnesses and (-1)-class witnesses of several degrees all occur
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
@given(near_nef_classes, st.integers(0, 6))
@example(parse_divisor("12H-4E1-4E2-4E3-4E4-11/2E5-4E6-4E7-E8-4E9"), 6)
@example(parse_divisor("2F-1/2E3"), 4)
@example(parse_divisor("H-E1-E2"), 5)
@example(parse_divisor("3H-E1-E2-E3-E4-E5-E6-E7-E8"), 6)
def test_nef_test_matches_full_scan(d, degree):
    assert is_nef_up_to_degree(d, degree).to_json() == oracle_nef(d, degree).to_json()


def test_near_nef_draws_reach_every_outcome():
    """A fixed sample of the drawn family hits nef verdicts, fiber witnesses
    and (-1)-class witnesses at several degrees, and matches the scan."""
    rng = random.Random(0)
    outcomes = set()
    for _ in range(200):
        d = near_nef(
            rng.choice(NEF_GENERATORS),
            rng.randint(1, 3),
            [rng.choice(PERTURBATION_ENTRIES) for _ in range(10)],
            rng.choice(DENOMINATORS),
        )
        degree = rng.randint(0, 6)
        cert = is_nef_up_to_degree(d, degree)
        assert cert == oracle_nef(d, degree)
        w = cert.witness
        outcomes.add(None if w is None else "F" if w == F else int(w.h))
    assert {None, "F", 0, 1, 2} <= outcomes


def test_nef_examples():
    for name in ("H", "F", "H-E1", "K+2F"):
        cert = is_nef_up_to_degree(parse_divisor(name), 3)
        assert cert.nef_up_to_bound, name
        assert cert.lowest_pairing >= 0


def test_not_nef_witness():
    cert = is_nef_up_to_degree(parse_divisor("H-2E1"), 3)
    assert not cert.nef_up_to_bound
    assert cert.witness == H - E[0] - E[1]
    assert cert.witness_pairing == -1


def test_nef_certificate_min_pairing():
    cert = is_nef_up_to_degree(H, 3)
    assert cert.lowest_pairing == 0  # H is orthogonal to every E_i


@pytest.mark.parametrize("n", range(3, 13))
def test_quoted_polarizations_are_ample(n):
    rep1 = is_ample_hf_family(Fraction(n, 3), Fraction(0), n - Fraction(3, 2))
    rep2 = is_ample_hf_family(Fraction(0), Fraction(n, 2), n - Fraction(3, 2))
    assert rep1.ample
    assert rep2.ample


def test_ample_boundary_failures():
    # H alone is nef but not ample, F alone is on the boundary
    assert not is_ample_hf_family(Fraction(1), Fraction(0), Fraction(0)).ample
    assert not is_ample_hf_family(Fraction(0), Fraction(0), Fraction(1)).ample
    assert not is_ample_hf_family(Fraction(0), Fraction(0), Fraction(0)).ample


def test_polarization_classes():
    a1 = a1_polarization(3)
    a2 = a2_polarization(3)
    assert a1 == Fraction(3, 3) * H + (3 - Fraction(3, 2)) * F
    assert a2 == Fraction(3, 2) * (H - E[0]) + (3 - Fraction(3, 2)) * F
    assert intersect(a1, F) == 3
    assert intersect(a2, F) == 3


def test_self_intersection_values():
    assert self_intersection(a1_polarization(3)) == 10
    assert self_intersection(a2_polarization(3)) == 9


@settings(max_examples=40)
@given(
    st.booleans(),
    st.fractions(min_value=0, max_value=4, max_denominator=6),
    st.fractions(min_value=0, max_value=8, max_denominator=6),
)
def test_ample_monotone_in_fiber_coefficient(use_h, coeff, c_f):
    c_h, c_he1 = (coeff, 0) if use_h else (0, coeff)
    if is_ample_hf_family(c_h, c_he1, c_f).ample:
        assert is_ample_hf_family(c_h, c_he1, c_f + 1).ample


def test_ample_rejects_mixed_families():
    with pytest.raises(ValueError):
        is_ample_hf_family(1, 1, 1)


def test_mori_generators_pair_nonnegatively_with_nef():
    d = divisor(2, [-1, -1, 0, 0, 0, 0, 0, 0, 0])  # 2H - E1 - E2 is nef
    assert is_nef_up_to_degree(d, 2).nef_up_to_bound
    for g in mori_generators(2):
        assert intersect(d, g) >= 0


def test_nef_test_rejects_negative_degree():
    with pytest.raises(ValueError):
        is_nef_up_to_degree(H, -1)
