import random

import pytest

from hilbnef import (
    E,
    F,
    H,
    K,
    Root,
    divisor,
    enumerate_minus_one_classes,
    intersect,
    is_minus_one_class,
    orbit_counts_by_degree,
    reflect,
    root_basis,
    self_intersection,
    weyl_orbit,
)

# cumulative (-1)-class counts by maximal H-degree
MINUS_ONE_COUNTS = {0: 9, 1: 45, 2: 171, 3: 423, 4: 936}

ORBIT_E9_BY_DEGREE = {0: 9, 1: 36, 2: 126, 3: 252}
ORBIT_H_BY_DEGREE = {1: 1, 2: 84, 3: 630}
ORBIT_RULING_BY_DEGREE = {1: 9, 2: 126, 3: 504}


@pytest.mark.parametrize("degree,count", sorted(MINUS_ONE_COUNTS.items()))
def test_minus_one_class_counts(degree, count):
    classes = enumerate_minus_one_classes(degree)
    assert len(classes) == count
    assert len(set(classes)) == count


def test_minus_one_classes_are_minus_one_sections():
    for c in enumerate_minus_one_classes(2):
        assert is_minus_one_class(c)
        assert intersect(c, F) == 1


def test_root_basis_shape():
    basis = root_basis()
    assert len(basis) == 9
    for r in basis:
        assert self_intersection(r.cls) == -2
        assert intersect(r.cls, F) == 0
        assert r.cls.is_integral()
    assert basis[-1].cls == H - E[0] - E[1] - E[2]


def test_root_rejects_non_root():
    with pytest.raises(ValueError):
        Root(H)
    with pytest.raises(ValueError):
        Root(E[0])


def test_reflection_fixes_orthogonal_and_negates_root():
    beta = root_basis()[0]  # E1 - E2
    assert reflect(beta, beta.cls) == -beta.cls
    assert reflect(beta, F) == F
    assert reflect(beta, K) == K
    assert reflect(beta, E[0]) == E[1]


def test_reflection_randomized_involution_isometry():
    rng = random.Random(2024)
    basis = root_basis()
    for _ in range(1000):
        beta = basis[rng.randrange(9)]
        d = divisor(rng.randint(-9, 9), [rng.randint(-9, 9) for _ in range(9)])
        image = reflect(beta, d)
        assert reflect(beta, image) == d
        assert self_intersection(image) == self_intersection(d)
        assert intersect(image, F) == intersect(d, F)


def test_orbit_e9(orbit_e9_3):
    assert len(orbit_e9_3) == 423
    assert orbit_counts_by_degree(orbit_e9_3) == ORBIT_E9_BY_DEGREE
    assert set(orbit_e9_3) == set(enumerate_minus_one_classes(3))


def test_orbit_h(orbit_h_3):
    assert len(orbit_h_3) == 715
    assert orbit_counts_by_degree(orbit_h_3) == ORBIT_H_BY_DEGREE


def test_orbit_ruling(orbit_ruling_3):
    assert len(orbit_ruling_3) == 639
    assert orbit_counts_by_degree(orbit_ruling_3) == ORBIT_RULING_BY_DEGREE


def test_orbit_fixed_point():
    # F is Weyl-invariant, so the orbit is a single class whatever the bound
    assert weyl_orbit(F, 0) == [F]
    assert weyl_orbit(F, 3) == [F]


def test_orbit_members_share_invariants(orbit_h_3):
    for d in orbit_h_3:
        assert self_intersection(d) == 1
        assert intersect(d, F) == 3


def test_orbit_deterministic(orbit_e9_3):
    assert weyl_orbit(E[8], 3) == orbit_e9_3
