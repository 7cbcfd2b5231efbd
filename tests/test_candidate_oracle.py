"""The orbit-based rank-1 candidate pool against the per-shape loop it replaced.

`oracle_shape_pool`, `oracle_rank1_candidates` and `oracle_gieseker_wall` are
the shape-by-shape enumeration, filtering and certificate that production ran
before the pool moved to E2..E9 orbits.  They are kept here, unchanged apart
from their names and from calling `bridgeland.wall_oracle` through the module
(so that a test can replace it), as the independent reference.  Production
computes each candidate wall with the closed rank-1 form `rank_one_wall`, so
the equality tests also compare the two wall formulas on every surviving
shape.

The certificate lists one candidate row per orbit: the representative's
text, the orbit size (`arrangements`), the filter and the wall.  The tests
expand each row into the distinct arrangements of its b2..b9 and compare the
shapes, with the row's filter and wall, against the oracle's per-shape list.
"""

import heapq
import itertools
import json
from fractions import Fraction

import pytest

from hilbnef import bridgeland
from hilbnef.bridgeland import (
    FILTER_ORDER,
    GiesekerCertificate,
    GiesekerFalsified,
    VerticalWall,
    Wall,
    WallCandidate,
    gieseker_wall,
    ideal_points_char,
    line_bundle_char,
    rank1_candidates,
    rank2_radius_bound,
    rank_one_wall,
    slice_a1,
    slice_a2,
)
from hilbnef.lattice import RANK, DivisorClass, F, dot_int, format_rational, parse_divisor
from hilbnef.cli import main
from hilbnef.reporting import dumps_json

from conftest import distinct_permutations

SLICES = {"A1": slice_a1, "A2": slice_a2}


def oracle_shape_pool(max_h_degree: int):
    """All candidate shapes -l: the E_i plus aH - sum b_i E_i with
    1 <= a <= bound, 0 <= b_i <= a, sum b_i <= 3a (effectivity caps).
    Yields rows (coords, fiber_degree, a, b1, sum of b_2..b_9)."""
    for i in range(9):
        coords = tuple(1 if j == i + 1 else 0 for j in range(RANK))
        yield coords, 1, 0, 0, 0
    for a in range(1, max_h_degree + 1):
        for b in itertools.product(range(a + 1), repeat=9):
            total = sum(b)
            if total > 3 * a:
                continue
            coords = (a,) + tuple(-x for x in b)
            yield coords, 3 * a - total, a, b[0], total - b[0]


def oracle_is_fiber_multiple(coords: tuple[int, ...]) -> bool:
    a = coords[0]
    if a <= 0 or a % 3:
        return False
    k = a // 3
    return all(e == -k for e in coords[1:])


def oracle_rank1_candidates(sl, max_h_degree: int = 3):
    """Yields every shape's WallCandidate, in oracle_shape_pool order."""
    if max_h_degree < 0:
        raise ValueError("max_h_degree >= 0 required")
    a_ints = sl.polarization.nums
    slope_cap = sl.n * sl.polarization.den
    ideal = ideal_points_char(sl.n)
    for coords, f_deg, a, b1, rest in oracle_shape_pool(max_h_degree):
        if dot_int(coords, a_ints) > slope_cap:
            filtered = "slope"
        elif f_deg >= 2:
            filtered = "fiber_degree"
        elif f_deg == 0 and not oracle_is_fiber_multiple(coords):
            filtered = "fiber_component"
        elif sl.ruling_based and a == b1 >= 1 and rest > a:
            filtered = "ruling_excess"
        else:
            filtered = None
        wall = None
        if filtered is None:
            l_cls = -1 * DivisorClass(coords)
            wall = bridgeland.wall_oracle(sl, line_bundle_char(l_cls), ideal)
        yield WallCandidate(coords, filtered, wall)


def oracle_gieseker_wall(sl, max_h_degree: int = 3):
    ideal = ideal_points_char(sl.n)
    fiber_wall = rank_one_wall(sl, line_bundle_char(-1 * F))
    if not isinstance(fiber_wall, Wall) or fiber_wall.is_empty:
        raise GiesekerFalsified(f"fiber wall degenerated: {fiber_wall}")
    oracle_fiber = bridgeland.wall_oracle(sl, line_bundle_char(-1 * F), ideal)
    if oracle_fiber != fiber_wall:
        raise GiesekerFalsified(
            f"wall formulas disagree on the fiber wall: {fiber_wall} vs {oracle_fiber}"
        )

    candidates = list(oracle_rank1_candidates(sl, max_h_degree))
    eliminated = {name: 0 for name in FILTER_ORDER}
    survivors = 0
    empty_walls = 0
    coincident = 0
    min_center = None
    for cand in candidates:
        if cand.filtered_by is not None:
            eliminated[cand.filtered_by] += 1
            continue
        survivors += 1
        wall = cand.wall
        if not isinstance(wall, Wall):
            raise GiesekerFalsified(
                f"candidate {cand.shape_class()} gave a non-circular wall {wall}",
                witness=cand,
            )
        if wall.is_empty:
            empty_walls += 1
            continue
        if min_center is None or wall.center < min_center:
            min_center = wall.center
        if wall.center < fiber_wall.center:
            raise GiesekerFalsified(
                f"candidate {cand.shape_class()} has wall center "
                f"{format_rational(wall.center)} left of the fiber wall",
                witness=cand,
            )
        if wall == fiber_wall:
            coincident += 1

    bound = rank2_radius_bound(sl)
    if bound >= fiber_wall.radius_sq:
        raise GiesekerFalsified(
            f"rank-2 radius bound {format_rational(bound)} reaches "
            f"the fiber wall radius^2 {format_rational(fiber_wall.radius_sq)}"
        )

    cert = GiesekerCertificate(
        slice_label=sl.label,
        n=sl.n,
        degree_bound=max_h_degree,
        fiber_wall=fiber_wall,
        candidate_count=len(candidates),
        eliminated=tuple((name, eliminated[name]) for name in FILTER_ORDER),
        survivor_count=survivors,
        empty_survivor_walls=empty_walls,
        min_survivor_center=min_center,
        walls_equal_to_fiber_wall=coincident,
        rank2_bound=bound,
        certified=True,
        candidates=tuple(candidates),
    )
    return fiber_wall, cert


def oracle_rows(candidates):
    """(shape, filter, wall JSON or None) of each per-shape candidate."""
    for cand in candidates:
        wall = None if cand.wall is None else cand.wall.to_json()
        yield cand.shape, cand.filtered_by, wall


def _row_shapes(row):
    """One orbit row's shapes, the distinct arrangements of its b2..b9, as
    ((a, b1, ..., b9), (shape, filter, wall)) in lexicographic order; checks
    that there are `arrangements` of them and that the representative is the
    arrangement with e2 <= ... <= e9."""
    nums = parse_divisor(row["representative"]).nums
    assert list(nums[2:]) == sorted(nums[2:])
    a, b1 = nums[0], -nums[1]
    count = 0
    for tail in distinct_permutations(-e for e in nums[2:]):
        count += 1
        shape = (a, -b1) + tuple(-x for x in tail)
        yield (a, b1) + tail, (shape, row["filter"], row.get("wall"))
    assert count == row["arrangements"]


def expand_rows(rows):
    """The shapes of every orbit row, each with its row's filter and wall, in
    oracle_shape_pool order: the E_i, then (a, b1, ..., b9) lexicographic.
    With b = -(E-coefficients) the E_i sort first and in index order too."""
    for _, expanded in heapq.merge(*map(_row_shapes, rows)):
        yield expanded


CASES = [(label, n, 2) for label in SLICES for n in range(3, 13)]
CASES += [(label, n, 3) for label in SLICES for n in (3, 4, 12)]


@pytest.mark.parametrize("label,n,degree", CASES)
def test_orbit_pool_matches_per_shape_oracle(label, n, degree):
    sl = SLICES[label](n)
    oracle_wall, oracle_cert = oracle_gieseker_wall(sl, degree)
    pool = rank1_candidates(sl, degree)
    assert len(pool) == len(oracle_cert.candidates)
    assert list(pool) == list(oracle_cert.candidates)
    wall, cert = gieseker_wall(sl, degree)
    assert wall == oracle_wall
    data = cert.to_json()
    rows = data.pop("candidates")
    assert data == oracle_cert.to_json(include_candidates=False)
    assert list(expand_rows(rows)) == list(oracle_rows(oracle_cert.candidates))


@pytest.mark.parametrize("label,n", [(label, n) for label in SLICES for n in (3, 4, 12)])
def test_closed_form_wall_on_every_shape(label, n):
    # the closed form against the oracle on each of the 3,200 shapes up to
    # degree 2, the filtered ones too
    sl = SLICES[label](n)
    ideal = ideal_points_char(n)
    for coords, *_ in oracle_shape_pool(2):
        ch = line_bundle_char(-1 * DivisorClass(coords))
        assert rank_one_wall(sl, ch) == bridgeland.wall_oracle(sl, ch, ideal)


# degree 5 (1,104,956 shapes, about 20 s a case) on one n per slice
EXPAND_CASES = [(label, n, d) for label in SLICES for n in (3, 5) for d in (0, 2)]
EXPAND_CASES += [("A1", 5, 5), ("A2", 3, 5)]


@pytest.mark.parametrize("label,n,degree", EXPAND_CASES)
def test_orbit_rows_expand_to_oracle_shapes(label, n, degree):
    # the printed rows, expanded shape by shape and merged into pool order,
    # against the oracle's candidates, streamed so that no pool is held in
    # memory
    sl = SLICES[label](n)
    cert = json.loads(dumps_json(gieseker_wall(sl, degree)[1].to_json()))
    rows = cert["candidates"]
    expanded = expand_rows(rows)
    oracle = oracle_rows(oracle_rank1_candidates(sl, degree))
    for got, want in zip(expanded, oracle, strict=True):
        assert got == want
    assert sum(row["arrangements"] for row in rows) == cert["candidate_count"]
    survivors = sum(row["arrangements"] for row in rows if row["filter"] is None)
    assert survivors == cert["survivor_count"]


def test_shape_texts_match_divisor_strings():
    # every orbit up to degree 4: its row names str(DivisorClass) of the
    # representative, which reads back as that shape
    pool = rank1_candidates(slice_a2(3), 4)
    rows = json.loads(dumps_json(pool.to_json()))
    for row, (rep, size) in zip(rows, pool.orbits, strict=True):
        text = str(DivisorClass(rep.shape))
        assert row["representative"] == text
        assert parse_divisor(text).nums == rep.shape
        assert row == {"arrangements": size, "representative": text, **rep.to_json()}


@pytest.mark.parametrize("label,n,degree", [("A1", 3, 4), ("A2", 3, 4), ("A2", 4, 3)])
def test_one_layout_per_distinct_filter_and_wall(label, n, degree):
    # the rows without their orbit: one distinct row per distinct (filter,
    # wall), fewer than the orbits, and the rows of one wall share its dict
    pool = rank1_candidates(SLICES[label](n), degree)
    distinct = {(rep.filtered_by, rep.wall) for rep, _ in pool.orbits}
    rows = pool.to_json()
    layouts = {
        json.dumps({**row, "arrangements": None, "representative": None}, sort_keys=True)
        for row in rows
    }
    assert len(layouts) == len(distinct) < len(pool.orbits)
    wall_dicts = {id(row["wall"]) for row in rows if "wall" in row}
    assert len(wall_dicts) == sum(wall is not None for _, wall in distinct)


@pytest.mark.parametrize("degree", [0, 1, 4])
@pytest.mark.parametrize("label,n", [("A1", 3), ("A2", 4)])
def test_report_matches_per_shape_rows(capsys, label, n, degree):
    # the whole `walls gieseker` report: the oracle certificate's fields, and
    # candidate rows that expand into the oracle's per-shape rows; degree 0
    # lists only the E_i and degree 1 has the representative "H"
    oracle_wall, oracle_cert = oracle_gieseker_wall(SLICES[label](n), degree)
    args = ["walls", "gieseker", "--slice", label, "--n", str(n)]
    assert main(args + ["--max-degree", str(degree)]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert dumps_json(data) == out
    rows = data["certificate"].pop("candidates")
    assert data == {
        "wall": oracle_wall.to_json(),
        "certificate": oracle_cert.to_json(include_candidates=False),
    }
    assert list(expand_rows(rows)) == list(oracle_rows(oracle_cert.candidates))


POOL_COUNTS = {0: 9, 1: 139, 2: 3200, 3: 34162, 4: 227112}


@pytest.mark.parametrize("degree,count", sorted(POOL_COUNTS.items()))
def test_orbit_sizes_sum_to_pool_count(degree, count):
    assert sum(1 for _ in oracle_shape_pool(degree)) == count
    pool = rank1_candidates(slice_a2(3), degree)
    assert sum(size for _, size in pool.orbits) == count
    sizes = [row[1] for a in range(degree + 1) for row in bridgeland._degree_orbits(a)]
    assert sum(sizes) == count


def _replace_walls(monkeypatch, selected, wall):
    """Make bridgeland.rank_one_wall (the production path) and
    bridgeland.wall_oracle (the oracle path) return `wall` for every shape
    aH - sum b_i E_i with selected(a, b1)."""

    def faked(real):
        def fake(sl, ch_e, *ideal):
            shape = [-c for c in ch_e.c1.coords]
            if selected(shape[0], -shape[1]):
                return wall
            return real(sl, ch_e, *ideal)

        return fake

    for name in ("rank_one_wall", "wall_oracle"):
        monkeypatch.setattr(bridgeland, name, faked(getattr(bridgeland, name)))


FALSIFIERS = {
    "conics_through_p1_left_of_fiber": (
        lambda a, b1: a == 1 and b1 == 1,
        Wall(Fraction(-2), Fraction(1)),
    ),
    "conics_off_p1_vertical": (lambda a, b1: a == 1 and b1 == 0, VerticalWall(Fraction(0))),
    "exceptional_e2_to_e9_left_of_fiber": (
        lambda a, b1: a == 0 and b1 == 0,
        Wall(Fraction(-3, 2), Fraction(1)),
    ),
}


@pytest.mark.parametrize("label", sorted(SLICES))
@pytest.mark.parametrize("case", sorted(FALSIFIERS))
def test_falsified_wall_matches_oracle(monkeypatch, label, case):
    selected, wall = FALSIFIERS[case]
    _replace_walls(monkeypatch, selected, wall)
    sl = SLICES[label](3)
    with pytest.raises(GiesekerFalsified) as expected:
        oracle_gieseker_wall(sl, 3)
    with pytest.raises(GiesekerFalsified) as got:
        gieseker_wall(sl, 3)
    assert str(got.value) == str(expected.value)
    assert got.value.witness == expected.value.witness
    assert got.value.witness is not None


def test_production_walls_use_the_closed_form(monkeypatch):
    # wall_oracle is the reference; production runs it on the fiber wall only
    calls = []
    real = bridgeland.wall_oracle

    def counted(sl, ch_e, ch_f):
        calls.append(ch_e)
        return real(sl, ch_e, ch_f)

    monkeypatch.setattr(bridgeland, "wall_oracle", counted)
    gieseker_wall(slice_a2(3), 2)
    assert calls == [line_bundle_char(-1 * F)]
