"""Weyl orbits and (-1)-classes, with the breadth-first orbit search and the
Diophantine (-1)-class search that production used before the orbits were
enumerated from sorted representatives, kept here as oracles.  The classes
that production unranks are checked against the permutation listing of
`conftest.listed_orbit`."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from hilbnef import (
    E,
    F,
    H,
    K,
    ZERO,
    DivisorClass,
    Root,
    divisor,
    enumerate_minus_one_classes,
    intersect,
    reflect,
    root_basis,
    self_intersection,
    weyl_orbit,
)
from hilbnef.lattice import dot_int
from hilbnef.weyl import _chamber, _degree_groups, _pull_back, orbit_class, orbit_size

from conftest import listed_orbit, replay_word

# Reflections can raise the H-degree of intermediate classes; the BFS frontier
# explores this many degrees above the requested window before pruning.
FRONTIER_MARGIN = 3


def counts_by_degree(orbit) -> dict[int, int]:
    """The number of classes of each H-degree, by increasing degree."""
    counts: dict[int, int] = {}
    for c in orbit:
        counts[int(c.h)] = counts.get(int(c.h), 0) + 1
    return dict(sorted(counts.items()))


@lru_cache(maxsize=None)
def oracle_weyl_orbit(start: DivisorClass, max_h_degree: int) -> tuple[DivisorClass, ...]:
    window_hi = max(max_h_degree, start.nums[0])
    cap = window_hi + FRONTIER_MARGIN
    roots_int = [r.cls.nums for r in root_basis()]
    seen: set[tuple[int, ...]] = {start.nums}
    frontier: list[tuple[int, ...]] = [start.nums]
    while frontier:
        fresh: set[tuple[int, ...]] = set()
        for vec in frontier:
            for b in roots_int:
                p = dot_int(vec, b)
                if p == 0:
                    continue
                img = tuple(v + p * bb for v, bb in zip(vec, b))
                if 0 <= img[0] <= cap and img not in seen:
                    fresh.add(img)
        seen.update(fresh)
        frontier = sorted(fresh)
    # on integral classes, the order of the numerator tuples is the class order
    return tuple(DivisorClass(vec) for vec in sorted(seen) if 0 <= vec[0] <= window_hi)


def _signed_vectors(s: int, q: int, slots: int):
    """Integer tuples with given sum s and sum of squares q."""
    if slots == 0:
        if s == 0 and q == 0:
            yield ()
        return
    # Cauchy-Schwarz feasibility: s^2 <= slots * q.
    if s * s > slots * q:
        return
    bound = isqrt(q)
    for v in range(-bound, bound + 1):
        rest_q = q - v * v
        for tail in _signed_vectors(s - v, rest_q, slots - 1):
            yield (v,) + tail


def oracle_minus_one_classes(max_h_degree: int) -> list[DivisorClass]:
    """Integral C with C.C = -1, C.K = -1 by direct Diophantine search: for
    fixed h, sum(e_i) = 1 - 3h and sum(e_i^2) = h^2 + 1."""
    return sorted(
        DivisorClass((h,) + e_vec)
        for h in range(max_h_degree + 1)
        for e_vec in _signed_vectors(1 - 3 * h, h * h + 1, 9)
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
        assert c.is_integral()
        assert self_intersection(c) == -1 and intersect(c, K) == -1
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
    assert counts_by_degree(orbit_e9_3) == ORBIT_E9_BY_DEGREE
    assert set(orbit_e9_3) == set(enumerate_minus_one_classes(3))


def test_orbit_h(orbit_h_3):
    assert len(orbit_h_3) == 715
    assert counts_by_degree(orbit_h_3) == ORBIT_H_BY_DEGREE


def test_orbit_ruling(orbit_ruling_3):
    assert len(orbit_ruling_3) == 639
    assert counts_by_degree(orbit_ruling_3) == ORBIT_RULING_BY_DEGREE


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


STARTS = {"H": H, "H-E1": H - E[0], "E9": E[8]}


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("name", sorted(STARTS))
def test_orbit_matches_bfs_oracle(name, degree):
    start = STARTS[name]
    orbit = weyl_orbit(start, degree)
    assert orbit == list(oracle_weyl_orbit(start, degree))
    assert orbit_size(start, degree) == len(orbit)


def test_orbit_matches_bfs_oracle_at_degree_5():
    assert weyl_orbit(H, 5) == list(oracle_weyl_orbit(H, 5))


def test_orbit_of_a_start_far_from_the_origin_matches_bfs_oracle():
    # H+15E1 has degree 1 but square -224: the walk covers sum b_i^2 = 225
    start = H + 15 * E[0]
    orbit = weyl_orbit(start, 1)
    assert orbit == list(oracle_weyl_orbit(start, 1))
    assert len(orbit) == orbit_size(start, 1) == 9


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(STARTS)),
    word=st.lists(st.integers(0, 8), max_size=8),
    degree=st.integers(0, 3),
)
def test_orbit_of_a_weyl_image_matches_bfs_oracle(name, word, degree):
    start = STARTS[name]
    for i in word:
        start = reflect(root_basis()[i], start)
    if start.nums[0] > 3:
        return  # the oracle's window would pass degree 3
    orbit = weyl_orbit(start, degree)
    assert orbit == list(oracle_weyl_orbit(start, degree))
    assert orbit == weyl_orbit(STARTS[name], max(degree, start.nums[0]))


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("degree", [0, 3, 6])
def test_orbit_of_a_fiber_multiple_matches_bfs_oracle(k, degree):
    start = k * F  # 0 * F is the zero class
    orbit = weyl_orbit(start, degree)
    assert orbit == list(oracle_weyl_orbit(start, degree))
    assert orbit == ([start] if k >= 0 else [])
    assert orbit_size(start, degree) == len(orbit)
    assert weyl_orbit(ZERO, degree) == [ZERO]


@pytest.mark.parametrize("start", [E[0] - E[1], E[0] - E[1] + F, -H, -E[8]])
def test_orbit_rejects_a_start_without_positive_fiber_degree(start):
    # D.F < 0, or D.F = 0 with D.D < 0: not a multiple of F
    with pytest.raises(ValueError, match="finite orbit window"):
        weyl_orbit(start, 3)
    with pytest.raises(ValueError, match="finite orbit window"):
        orbit_size(start, 3)


def test_minus_one_classes_match_diophantine_oracle():
    assert enumerate_minus_one_classes(6) == oracle_minus_one_classes(6)


def test_every_minus_one_class_descends_to_e9():
    # the walk takes each (-1)-class to E9's representative, and its word
    # takes the class itself to some E_j
    e9 = _chamber(0, [0] * 8 + [-1])[0]
    classes = oracle_minus_one_classes(6)
    assert len(classes) == 3024
    for c in classes:
        rep, word, _ = _chamber(c.nums[0], [-x for x in c.nums[1:]])
        assert rep == e9
        assert replay_word(c, word) in E


@pytest.mark.parametrize("b", [[2, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 5, 1, 3, 0, 0, 2, 4]])
def test_chamber_sorts_b_itself(b):
    # any order of b walks like the sorted b, and the word replays to it
    a = sum(b) - 1  # fiber degree 3a - sum b > 0
    rep, word, _ = _chamber(a, b)
    assert rep == _chamber(a, sorted(b, reverse=True))[0]
    d = DivisorClass((a,) + tuple(-x for x in b))
    image = replay_word(d, word).nums
    assert (image[0],) + tuple(sorted((-x for x in image[1:]), reverse=True)) == rep


def test_chamber_first_negative_step():
    # H - 2E1 reflects first in H-E1-E2-E3, to -E1 + E2 + E3: b2 = b3 = -1,
    # and E3, the last label of the tie, pulls back to H - E1 - E2.  The
    # walk goes on to the end, and entries never grow, so b9 < 0 there.
    rep, word, first = _chamber(1, [2, 0, 0, 0, 0, 0, 0, 0, 0])
    assert word[0] == (0, 1, 2)
    assert first == (1, 2)
    assert _pull_back(word[:1], 2) == H - E[0] - E[1]
    assert rep[9] < 0
    # a class with no negative entry on the way
    assert _chamber(1, [0] * 9) == ((1,) + (0,) * 9, (), None)


@pytest.mark.parametrize("degree", range(7))
@pytest.mark.parametrize("name", ["F", "H", "H-E1", "E9"])
def test_orbit_by_rank_matches_the_permutation_listing(name, degree):
    start = F if name == "F" else STARTS[name]
    orbit = list(listed_orbit(start, degree))
    assert weyl_orbit(start, degree) == orbit
    assert orbit_size(start, degree) == len(orbit)


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("name", ["F", "H", "H-E1", "E9"])
def test_degree_groups_match_the_bfs_oracle(name, degree):
    # the oracle's classes grouped by degree and by sorted b, with the b of
    # each degree in the walk's order (largest first)
    start = F if name == "F" else STARTS[name]
    by_degree: dict[int, Counter] = {}
    for c in oracle_weyl_orbit(start, degree):
        a, *e = c.nums
        by_degree.setdefault(a, Counter())[tuple(sorted((-x for x in e), reverse=True))] += 1
    expected = tuple(
        (a, sum(counts.values()), tuple(sorted(counts.items(), reverse=True)))
        for a, counts in sorted(by_degree.items())
    )
    assert _degree_groups(start, degree) == expected


@pytest.mark.parametrize("degree", range(7))
@pytest.mark.parametrize("name", ["H", "H-E1", "E9", "2F"])
def test_orbit_class_unranks_the_listed_orbit(name, degree):
    start = 2 * F if name == "2F" else STARTS[name]
    orbit = listed_orbit(start, degree)
    assert tuple(orbit_class(start, degree, i) for i in range(len(orbit))) == orbit
    for i in (-1, len(orbit)):
        with pytest.raises(IndexError):
            orbit_class(start, degree, i)


@settings(max_examples=40, deadline=None)
@given(
    word=st.lists(st.integers(0, 8), max_size=8),
    degree=st.integers(0, 6),
    fractions=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=5),
)
def test_orbit_class_of_a_weyl_image_of_h(word, degree, fractions):
    start = H
    for i in word:
        start = reflect(root_basis()[i], start)
    if start.nums[0] > 6:
        return  # the listed window would pass degree 6
    orbit = listed_orbit(start, degree)
    for u in fractions:
        i = int(u * len(orbit))
        assert orbit_class(start, degree, i) == orbit[i]
    with pytest.raises(IndexError):
        orbit_class(start, degree, len(orbit))


def test_orbit_class_raises_what_weyl_orbit_raises():
    with pytest.raises(ValueError, match="nonnegative"):
        orbit_class(H, -1, 0)
    with pytest.raises(ValueError, match="integral"):
        orbit_class(divisor(Fraction(1, 2), [0] * 9), 3, 0)
    with pytest.raises(ValueError, match="finite orbit window"):
        orbit_class(E[0] - E[1], 3, 0)
    with pytest.raises(IndexError):
        orbit_class(-F, 3, 0)  # an empty window
