from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbnef import (
    E,
    F,
    H,
    a1_polarization,
    a2_polarization,
    divisor,
    intersect,
    is_ample_hf_family,
    is_nef_up_to_degree,
    mori_generators,
    parse_divisor,
    self_intersection,
)

# fiber class plus (-1)-classes up to each degree
MORI_COUNTS = {0: 10, 1: 46, 2: 172, 3: 424}


@pytest.mark.parametrize("degree,count", sorted(MORI_COUNTS.items()))
def test_mori_generator_counts(degree, count):
    gens = mori_generators(degree)
    assert len(gens) == count
    assert gens[0] == F


def test_nef_examples():
    for name in ("H", "F", "H-E1", "K+2F"):
        cert = is_nef_up_to_degree(parse_divisor(name), 3)
        assert cert.nef_up_to_bound, name
        assert cert.min_pairing() >= 0


def test_not_nef_witness():
    cert = is_nef_up_to_degree(parse_divisor("H-2E1"), 3)
    assert not cert.nef_up_to_bound
    assert cert.witness == H - E[0] - E[1]
    assert cert.witness_pairing == -1


def test_nef_certificate_min_pairing():
    cert = is_nef_up_to_degree(H, 3)
    assert cert.min_pairing() == 0  # H is orthogonal to every E_i


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
