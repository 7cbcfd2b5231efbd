import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from hilbnef import (
    SLICES,
    ChernChar,
    DegenerateWall,
    E,
    F,
    H,
    K,
    VerticalWall,
    Wall,
    ZERO,
    Slice,
    divisor,
    dumps_json,
    fiber_orthogonal_lift,
    format_rational,
    ideal_points_char,
    intersect,
    line_bundle_char,
    nef_from_wall,
    rank1_candidates,
    rank2_radius_bound,
    rank_one_wall,
    self_intersection,
    wall_oracle,
)
from hilbnef.reporting import discrepancy_table

FIBER_WALL = Wall(Fraction(-1), Fraction(1))


def slice_id(label: str) -> str:
    """The test ID of a slice parameter: slice_a1, slice_a2."""
    return f"slice_{label.lower()}"


# the two polarizations in closed form
CLOSED_FORMS = {
    "A1": lambda n: Fraction(n, 3) * H + (n - Fraction(3, 2)) * F,
    "A2": lambda n: Fraction(n, 2) * (H - E[0]) + (n - Fraction(3, 2)) * F,
}


def slope(sl, ch) -> Fraction:
    """The twisted slope A.(ch1 - ch0 P) / (A^2 ch0) of a character of
    nonzero rank."""
    twisted_c1 = ch.c1 - ch.rank * sl.twist
    return intersect(sl.polarization, twisted_c1) / (sl.a_squared * ch.rank)


def contains(outer: Wall, inner: Wall) -> bool:
    """Closed containment of nonempty semicircles, sqrt(R) >= sqrt(r) + gap,
    decided exactly by squaring: R - r - gap^2 >= 2 gap sqrt(r)."""
    gap = abs(outer.center - inner.center)
    lhs = outer.radius_sq - inner.radius_sq - gap * gap
    return lhs >= 0 and lhs * lhs >= 4 * gap * gap * inner.radius_sq

# frozen candidate census at degree bound 3
CANDIDATE_TOTAL = 34162
ELIMINATED_A1_N3 = {"slope": 19428, "fiber_degree": 0, "fiber_component": 14688, "ruling_excess": 0}
ELIMINATED_A2_N3 = {"slope": 21863, "fiber_degree": 359, "fiber_component": 9360, "ruling_excess": 840}
ELIMINATED_A2_N4 = {"slope": 23945, "fiber_degree": 0, "fiber_component": 9360, "ruling_excess": 840}

# frozen rank-2 exclusion bounds; the quoted A1 values are the discrepancy
# table's replay with the quoted A.A
RANK2_QUOTED_A1 = {3: Fraction(21, 121), 4: Fraction(279, 2809), 5: Fraction(369, 5329), 12: Fraction(111, 5041)}
RANK2_EXACT_A1 = {3: Fraction(69, 800), 4: Fraction(963, 19208), 5: Fraction(1305, 36992), 12: Fraction(411, 35912)}
RANK2_A2 = {3: Fraction(7, 72), 4: Fraction(11, 200), 5: Fraction(15, 392), 12: Fraction(43, 3528)}


def test_chern_char_construction():
    ch = ideal_points_char(3)
    assert (ch.rank, ch.c1, ch.ch2) == (1, ZERO, -3)
    lb = line_bundle_char(H)
    assert lb.ch2 == Fraction(1, 2)
    with pytest.raises(ValueError):
        ideal_points_char(0)


def test_slice_invariants(a1_slice_3, a2_slice_3):
    assert a1_slice_3.a_squared == 10
    assert a2_slice_3.a_squared == 9
    with pytest.raises(ValueError):
        Slice("A1", 2)
    with pytest.raises(ValueError):
        Slice("A3", 3)


@pytest.mark.parametrize("n", range(3, 65))
@pytest.mark.parametrize("label", SLICES)
def test_slice_is_its_family_class(label, n):
    # test_surface_cones::test_quoted_polarizations_are_ample checks that
    # each of these polarizations is ample
    sl = Slice(label, n)
    assert sl.polarization == CLOSED_FORMS[label](n)
    assert nef_from_wall(sl, Fraction(-1)) == fiber_orthogonal_lift(sl.family, n)


def test_twisted_slope_and_discriminant(a1_slice_3):
    ideal = ideal_points_char(3)
    # c1 - r*P = F for the twisted ideal, and A.F = 3
    assert slope(a1_slice_3, ideal) == Fraction(3, 10)


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("label", SLICES, ids=slice_id)
def test_fiber_wall_frozen(label, n):
    sl = Slice(label, n)
    w = rank_one_wall(sl, line_bundle_char(-F))
    assert w == FIBER_WALL


def test_exceptional_walls(a1_slice_3, a2_slice_3):
    for i in range(9):
        w = rank_one_wall(a1_slice_3, line_bundle_char(-E[i]))
        assert w == FIBER_WALL  # coincides exactly on the H-family slice
    w2 = rank_one_wall(a2_slice_3, line_bundle_char(-E[0]))
    assert w2 == Wall(Fraction(-1, 2), Fraction(-1, 12))
    assert w2.is_empty


def test_conic_wall_and_negative_control(a1_slice_3):
    ideal = ideal_points_char(3)
    w = rank_one_wall(a1_slice_3, line_bundle_char(-(H - E[0] - E[1])))
    assert w == Wall(Fraction(-3, 5), Fraction(3, 25))
    # walls against the ideal sheaf nest: right of the fiber wall's center is inside it
    assert FIBER_WALL.center < w.center < slope(a1_slice_3, ideal)
    assert contains(FIBER_WALL, w)
    # outside the fiber wall, harmless only because effectivity filtering removes it
    bad = rank_one_wall(a1_slice_3, line_bundle_char(-(H - E[0] - E[1] - E[2])))
    assert bad == Wall(Fraction(-2), Fraction(23, 5))
    assert bad.center < FIBER_WALL.center
    assert not contains(FIBER_WALL, bad)


def test_equal_slope_walls(a1_slice_3):
    # the ideal sheaf against itself is the A.l = 0, x = 0 case; a rank-2
    # character of equal slope has a vertical wall, which only the oracle
    # computes: the closed form takes rank-1 characters alone
    ideal = ideal_points_char(3)
    rank_two = ChernChar(2, ZERO, Fraction(-1))
    w = wall_oracle(a1_slice_3, rank_two, ideal)
    assert isinstance(w, VerticalWall)
    assert w.s == slope(a1_slice_3, ideal)
    assert rank_one_wall(a1_slice_3, ideal) == DegenerateWall(everywhere=True)
    assert wall_oracle(a1_slice_3, ideal, ideal) == DegenerateWall(everywhere=True)
    for ch in (rank_two, ChernChar(0, F, Fraction(0))):
        with pytest.raises(ValueError):
            rank_one_wall(a1_slice_3, ch)


@pytest.mark.parametrize(
    "points,expected",
    [(0, VerticalWall(Fraction(1, 3))), (2, DegenerateWall(everywhere=True))],
)
def test_rank_one_wall_with_a_dot_l_zero(a2_slice_3, points, expected):
    # l = -(H - E1 - E2 - E3) meets the ruling-slice polarization in 0 at
    # n = 3: with x = n + ch2 - P.l = 2 - points the wall is the vertical
    # line at the shared slope 1/3, or everywhere when n - 1 points make x = 0
    l = -(H - E[0] - E[1] - E[2])
    assert intersect(a2_slice_3.polarization, l) == 0
    ch = line_bundle_char(l, points)
    got = rank_one_wall(a2_slice_3, ch)
    assert got == expected
    assert got == wall_oracle(a2_slice_3, ch, ideal_points_char(3))


def test_rank_one_center_formulas(a1_slice_3, a2_slice_3):
    # center of the E1 wall, closed-form wall vs the commonly quoted variant,
    # which the discrepancy table replays
    def center(sl, l):
        return rank_one_wall(sl, line_bundle_char(l)).center

    quoted = {r.quantity: r.quoted for r in discrepancy_table(3)}
    assert center(a1_slice_3, -E[0]) == -1
    assert quoted["exceptional-wall center on the H-family slice"] == "-4/3"
    assert center(a2_slice_3, -E[0]) == Fraction(-1, 2)
    assert quoted["blown-up-point wall center on the ruling slice"] == "-2/3"
    assert center(a1_slice_3, -F) == -1


@pytest.mark.parametrize("label", SLICES, ids=slice_id)
def test_oracle_agreement_random_rank_one(label):
    # every draw, vertical and degenerate walls included
    sl = Slice(label, 3)
    rng = random.Random(11)
    ideal = ideal_points_char(3)
    for _ in range(100):
        c1 = divisor(rng.randint(-3, 3), [rng.randint(-2, 2) for _ in range(9)])
        ch = line_bundle_char(c1, rng.randint(0, 4))
        assert rank_one_wall(sl, ch) == wall_oracle(sl, ch, ideal)


def test_candidate_census_a1_n3(gieseker_a1_3):
    _, cert = gieseker_a1_3
    assert cert.candidate_count == CANDIDATE_TOTAL
    assert dict(cert.eliminated) == ELIMINATED_A1_N3
    assert cert.survivor_count == 46
    assert cert.empty_survivor_walls == 0
    assert cert.walls_equal_to_fiber_wall == 10


def test_survivor_shapes_a1_n3(a1_slice_3):
    surv = [c.shape_class() for c in rank1_candidates(a1_slice_3, 3) if c.filtered_by is None]
    assert len(surv) == 46
    assert sum(1 for d in surv if d in set(E)) == 9
    assert sum(1 for d in surv if d == F) == 1
    conics = [d for d in surv if d.h == 1]
    assert len(conics) == 36
    assert all(self_intersection(d) == -1 and intersect(d, K) == -1 for d in conics)


def test_candidate_census_a2_n3(gieseker_a2_3):
    _, cert = gieseker_a2_3
    assert cert.candidate_count == CANDIDATE_TOTAL
    assert dict(cert.eliminated) == ELIMINATED_A2_N3
    assert cert.survivor_count == 1740
    assert cert.empty_survivor_walls == 1695
    assert cert.walls_equal_to_fiber_wall == 17


def test_candidate_census_a2_n4():
    from hilbnef import gieseker_wall

    _, cert = gieseker_wall(Slice("A2", 4), 3)
    assert dict(cert.eliminated) == ELIMINATED_A2_N4
    assert cert.survivor_count == 17
    assert cert.certified


def test_gieseker_wall_certified(gieseker_a1_3, gieseker_a2_3):
    # the certificate carries the one rank-2 bound, the exact one
    for (wall, cert), label in ((gieseker_a1_3, "A1"), (gieseker_a2_3, "A2")):
        assert wall == FIBER_WALL
        assert cert.certified
        assert cert.min_survivor_center == -1
        assert cert.rank2_bound == rank2_radius_bound(Slice(label, 3)) < 1
        assert cert.to_json()["rank2_radius_bound"] == format_rational(cert.rank2_bound)
        assert "rank2_radius_bound_exact" not in cert.to_json(include_candidates=False)


def test_gieseker_json_toggle(gieseker_a1_3):
    _, cert = gieseker_a1_3
    slim = cert.to_json(include_candidates=False)
    assert "candidates" not in slim
    full = json.loads(dumps_json(cert.to_json()))
    # one row per E2..E9 orbit, the orbit sizes summing to the shape count
    assert sum(row["arrangements"] for row in full["candidates"]) == CANDIDATE_TOTAL
    assert len(full["candidates"]) == len(cert.candidates.orbits)
    assert slim["fiber_wall"] == {"center": "-1", "radius_sq": "1"}


def test_nonempty_survivor_walls_nest_by_side(a1_slice_3, a2_slice_3):
    ideal3 = ideal_points_char(3)
    for sl in (a1_slice_3, a2_slice_3):
        mu_v = slope(sl, ideal3)
        walls = [
            c.wall
            for c in rank1_candidates(sl, 3)
            if c.filtered_by is None and isinstance(c.wall, Wall) and not c.wall.is_empty
        ]
        left = [w for w in walls if w.center < mu_v]
        for w1, w2 in combinations(left, 2):
            lo, hi = (w1, w2) if w1.center <= w2.center else (w2, w1)
            assert contains(lo, hi)
        assert all(contains(FIBER_WALL, w) for w in left)


def test_right_side_walls_a2_n3(a2_slice_3):
    # boundary shapes admitted by the non-strict slope filter produce one
    # wall to the right of the vertical wall; harmless for the left chamber
    walls = [
        c.wall
        for c in rank1_candidates(a2_slice_3, 3)
        if c.filtered_by is None and isinstance(c.wall, Wall) and not c.wall.is_empty
    ]
    right = [w for w in walls if w.center > slope(a2_slice_3, ideal_points_char(3))]
    assert len(right) == 28
    assert set(right) == {Wall(Fraction(3, 2), Fraction(7, 12))}


@pytest.mark.parametrize("n,quoted", sorted(RANK2_QUOTED_A1.items()))
def test_rank2_bound_quoted_a1(n, quoted):
    rows = {r.quantity: r for r in discrepancy_table(n)}
    row = rows["rank-2 radius bound on the H-family slice"]
    assert Fraction(row.quoted) == quoted
    assert Fraction(row.recomputed) == RANK2_EXACT_A1[n]


@pytest.mark.parametrize("n,exact", sorted(RANK2_EXACT_A1.items()))
def test_rank2_bound_exact_a1(n, exact):
    assert rank2_radius_bound(Slice("A1", n)) == exact


@pytest.mark.parametrize("n,value", sorted(RANK2_A2.items()))
def test_rank2_bound_a2(n, value):
    assert rank2_radius_bound(Slice("A2", n)) == value


@pytest.mark.parametrize("n", range(3, 13))
def test_nef_from_wall_matches_orthogonal_lifts(n):
    d1 = nef_from_wall(Slice("A1", n), Fraction(-1))
    assert d1 == fiber_orthogonal_lift(H, n)
    d2 = nef_from_wall(Slice("A2", n), Fraction(-1))
    assert d2 == fiber_orthogonal_lift(H - E[0], n)


def test_nef_from_wall_at_zero(a1_slice_3):
    d = nef_from_wall(a1_slice_3, Fraction(0))
    assert d.surf == Fraction(1, 2) * F
    assert d.b_half == -1
