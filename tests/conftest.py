"""Shared fixtures and the permutation listing of Weyl orbits.  The expensive
scans are session-scoped because several test modules slice into the same
certificate.

`listed_orbit` lists an orbit window the way production did before it
unranked each class: every distinct permutation of each sorted S9
representative, sorted.  It is the oracle of `weyl.weyl_orbit` and the
orbit of every test that needs a whole orbit, as unranking each class costs
more than listing."""

from functools import lru_cache

import pytest

from hilbnef import (
    cone_duality_check,
    gieseker_wall,
    slice_a1,
    slice_a2,
    DivisorClass,
    E,
    H,
)
from hilbnef.weyl import _degree_groups


def distinct_permutations(values):
    """The distinct orderings of values, in lexicographic order (the next
    permutation of each is found by the usual swap and reversal)."""
    b = sorted(values)
    while True:
        yield tuple(b)
        i = len(b) - 2
        while i >= 0 and b[i] >= b[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(b) - 1
        while b[j] <= b[i]:
            j -= 1
        b[i], b[j] = b[j], b[i]
        b[i + 1 :] = reversed(b[i + 1 :])


@lru_cache(maxsize=None)
def listed_orbit(start: DivisorClass, max_h_degree: int) -> tuple[DivisorClass, ...]:
    """The classes of W.start in the window of `weyl.weyl_orbit`, sorted."""
    found = []
    for a, _, pairs in _degree_groups(start, max_h_degree):
        for b, _ in pairs:
            found += [(a,) + e for e in distinct_permutations(-x for x in b)]
    # on integral classes, the order of the numerator tuples is the class order
    return tuple(DivisorClass(vec) for vec in sorted(found))


@pytest.fixture(scope="session")
def orbit_e9_3():
    return list(listed_orbit(E[8], 3))


@pytest.fixture(scope="session")
def orbit_h_3():
    return list(listed_orbit(H, 3))


@pytest.fixture(scope="session")
def orbit_ruling_3():
    return list(listed_orbit(H - E[0], 3))


@pytest.fixture(scope="session")
def a1_slice_3():
    return slice_a1(3)


@pytest.fixture(scope="session")
def a2_slice_3():
    return slice_a2(3)


@pytest.fixture(scope="session")
def gieseker_a1_3(a1_slice_3):
    return gieseker_wall(a1_slice_3, 3)


@pytest.fixture(scope="session")
def gieseker_a2_3(a2_slice_3):
    return gieseker_wall(a2_slice_3, 3)


@pytest.fixture(scope="session")
def duality_3():
    return cone_duality_check(3, 3)
