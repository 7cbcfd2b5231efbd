"""The orbit-based rank-1 candidate pool against the per-shape loop it replaced.

`oracle_shape_pool`, `oracle_rank1_candidates` and `oracle_gieseker_wall` are
the shape-by-shape enumeration, filtering and certificate that production ran
before the pool moved to E2..E9 orbits.  They are kept here, unchanged apart
from their names and from calling `bridgeland.wall_oracle` through the module
(so that a test can replace it), as the independent reference.  Production
computes each candidate wall with the closed form `numerical_wall`, so the
equality tests also compare the two wall formulas on every surviving shape.

The certificate's candidate list is rendered from one row layout per orbit
and the shape texts built by prefix; its reference is json.dumps of the
per-shape `WallCandidate.to_json` dicts, given str(DivisorClass(shape)) as
the shape text.
"""

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
    numerical_wall,
    rank1_candidates,
    rank2_radius_bound,
    rank2_radius_bound_exact,
    slice_a1,
    slice_a2,
)
from hilbnef.lattice import RANK, DivisorClass, F, dot_int, format_rational
from hilbnef.reporting import dumps_json

SLICES = {"A1": slice_a1, "A2": slice_a2}


def oracle_shape_pool(max_h_degree: int):
    """All candidate shapes -l: the E_i plus aH - sum b_i E_i with
    1 <= a <= bound, 0 <= b_i <= a, sum b_i <= 3a (effectivity caps).
    Rows are (coords, fiber_degree, a, b1, sum of b_2..b_9)."""
    rows = []
    for i in range(9):
        coords = tuple(1 if j == i + 1 else 0 for j in range(RANK))
        rows.append((coords, 1, 0, 0, 0))
    for a in range(1, max_h_degree + 1):
        for b in itertools.product(range(a + 1), repeat=9):
            total = sum(b)
            if total > 3 * a:
                continue
            coords = (a,) + tuple(-x for x in b)
            rows.append((coords, 3 * a - total, a, b[0], total - b[0]))
    return tuple(rows)


def oracle_is_fiber_multiple(coords: tuple[int, ...]) -> bool:
    a = coords[0]
    if a <= 0 or a % 3:
        return False
    k = a // 3
    return all(e == -k for e in coords[1:])


def oracle_rank1_candidates(sl, max_h_degree: int = 3) -> list[WallCandidate]:
    if max_h_degree < 0:
        raise ValueError("max_h_degree >= 0 required")
    a_ints = sl.polarization.nums
    slope_cap = sl.n * sl.polarization.den
    ideal = ideal_points_char(sl.n)
    out: list[WallCandidate] = []
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
        out.append(WallCandidate(coords, filtered, wall))
    return out


def oracle_gieseker_wall(sl, max_h_degree: int = 3):
    ideal = ideal_points_char(sl.n)
    fiber_wall = numerical_wall(sl, line_bundle_char(-1 * F), ideal)
    if not isinstance(fiber_wall, Wall) or fiber_wall.is_empty:
        raise GiesekerFalsified(f"fiber wall degenerated: {fiber_wall}")
    oracle_fiber = bridgeland.wall_oracle(sl, line_bundle_char(-1 * F), ideal)
    if oracle_fiber != fiber_wall:
        raise GiesekerFalsified(
            f"wall formulas disagree on the fiber wall: {fiber_wall} vs {oracle_fiber}"
        )

    candidates = oracle_rank1_candidates(sl, max_h_degree)
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

    bound_quoted = rank2_radius_bound(sl)
    bound_exact = rank2_radius_bound_exact(sl)
    for name, bound in (("quoted", bound_quoted), ("exact", bound_exact)):
        if bound >= fiber_wall.radius_sq:
            raise GiesekerFalsified(
                f"rank-2 radius bound ({name}) {format_rational(bound)} reaches "
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
        rank2_bound_quoted=bound_quoted,
        rank2_bound_exact=bound_exact,
        certified=True,
        candidates=tuple(candidates),
    )
    return fiber_wall, cert


def oracle_certificate_text(cert) -> str:
    """The certificate as json.dumps prints it with one dict per shape."""
    data = cert.to_json(include_candidates=False)
    data["candidates"] = [cand.to_json(str(cand.shape_class())) for cand in cert.candidates]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


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
    assert dumps_json(cert.to_json()) == oracle_certificate_text(oracle_cert)


def test_shape_texts_match_divisor_strings():
    # every shape up to degree 4, in pool order, against str(DivisorClass),
    # and its rendered row against the shape's own row
    pool = rank1_candidates(slice_a2(3), 4)
    rows = json.loads(dumps_json(pool))
    for row, cand in zip(rows, pool, strict=True):
        text = str(DivisorClass(cand.shape))
        assert row["shape"] == text
        assert row == cand.to_json(text)


@pytest.mark.parametrize("label,n,degree", [("A1", 3, 4), ("A2", 3, 4), ("A2", 4, 3)])
def test_one_layout_per_distinct_filter_and_wall(label, n, degree):
    # the rendered rows without their shapes: one distinct row per distinct
    # (filter, wall), fewer than the orbits
    pool = rank1_candidates(SLICES[label](n), degree)
    distinct = {(rep.filtered_by, rep.wall) for rep, _ in pool.orbits}
    layouts = {
        json.dumps({**row, "shape": None}, sort_keys=True)
        for row in json.loads(dumps_json(pool))
    }
    assert len(layouts) == len(distinct) < len(pool.orbits)


@pytest.mark.parametrize("degree", [0, 1, 4])
@pytest.mark.parametrize("label,n", [("A1", 3), ("A2", 4)])
def test_report_matches_per_shape_rows(label, n, degree):
    # the whole `walls gieseker` report, its candidate rows rendered a run at
    # a time, against json.dumps of one dict per shape, the shapes in the
    # oracle's order; degree 0 lists only the E_i and degree 1 has the head
    # "H"
    wall, cert = gieseker_wall(SLICES[label](n), degree)
    data = {"wall": wall.to_json(), "certificate": cert.to_json(include_candidates=False)}
    shapes = [row[0] for row in oracle_shape_pool(degree)]
    rows = data["certificate"]["candidates"] = []
    for shape, cand in zip(shapes, cert.candidates, strict=True):
        assert cand.shape == shape
        rows.append(cand.to_json(str(DivisorClass(shape))))
    expected = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert dumps_json({"wall": wall.to_json(), "certificate": cert.to_json()}) == expected


POOL_COUNTS = {0: 9, 1: 139, 2: 3200, 3: 34162, 4: 227112}


@pytest.mark.parametrize("degree,count", sorted(POOL_COUNTS.items()))
def test_orbit_sizes_sum_to_pool_count(degree, count):
    assert len(oracle_shape_pool(degree)) == count
    pool = rank1_candidates(slice_a2(3), degree)
    assert sum(size for _, size in pool.orbits) == count
    sizes = [row[1] for a in range(degree + 1) for row in bridgeland._degree_orbits(a)]
    assert sum(sizes) == count


def _replace_walls(monkeypatch, selected, wall):
    """Make bridgeland.numerical_wall (the production path) and
    bridgeland.wall_oracle (the oracle path) return `wall` for every shape
    aH - sum b_i E_i with selected(a, b1)."""

    def faked(real):
        def fake(sl, ch_e, ch_f):
            shape = [-c for c in ch_e.c1.coords]
            if selected(shape[0], -shape[1]):
                return wall
            return real(sl, ch_e, ch_f)

        return fake

    for name in ("numerical_wall", "wall_oracle"):
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
