import json
from fractions import Fraction

import pytest

from hilbnef import Slice, discrepancy_table, dumps_json, run_campaign
from hilbnef.bridgeland import rank1_candidates, rank2_radius_bound
from hilbnef.lattice import DivisorClass, format_rational

# the three wall-value rows, as (quoted, recomputed) exact rationals at n=3
WALL_ROWS_N3 = {
    "extremal wall radius^2 on the H-family slice": (Fraction(29, 11), Fraction(1)),
    "exceptional-wall center on the H-family slice": (Fraction(-4, 3), Fraction(-1)),
    "blown-up-point wall center on the ruling slice": (Fraction(-2, 3), Fraction(-1, 2)),
}


def test_discrepancy_table_shape():
    rows = discrepancy_table(3)
    assert len(rows) == 7
    assert all(not r.agrees for r in rows)
    quantities = [r.quantity for r in rows]
    assert len(set(quantities)) == 7


def test_discrepancy_wall_rows_exact():
    rows = {r.quantity: r for r in discrepancy_table(3)}
    for quantity, (quoted, recomputed) in WALL_ROWS_N3.items():
        row = rows[quantity]
        assert Fraction(row.quoted) == quoted
        assert Fraction(row.recomputed) == recomputed


def test_discrepancy_reflection_and_self_intersection_rows():
    rows = {r.quantity: r for r in discrepancy_table(3)}
    refl = rows["simple reflection of E1 in E1-E2"]
    assert refl.quoted == "0"
    assert refl.recomputed == "E2"
    sq = rows["self-intersection of the H-family polarization"]
    assert (sq.quoted, sq.recomputed) == ("11/2", "10")


def test_discrepancy_rank2_bound_row():
    # the quoted A.A replayed through the rank-2 radius bound, against the
    # bound the certificate gates on; the row's note holds for every n the
    # campaign runs: recomputed < quoted < 1, the extremal wall radius^2
    for n in range(3, 65):
        rows = {r.quantity: r for r in discrepancy_table(n)}
        row = rows["rank-2 radius bound on the H-family slice"]
        assert row.recomputed == format_rational(rank2_radius_bound(Slice("A1", n)))
        assert Fraction(row.recomputed) < Fraction(row.quoted) < 1
        assert not row.agrees
    note = rows["self-intersection of the H-family polarization"].note
    assert "replayed with both values" not in note


def test_discrepancy_table_n_dependence():
    rows5 = {r.quantity: r for r in discrepancy_table(5)}
    center = rows5["exceptional-wall center on the H-family slice"]
    # -(n-1)/(n-3/2) at n=5
    assert Fraction(center.quoted) == Fraction(-8, 7)
    assert Fraction(center.recomputed) == -1


def test_dominance_under_recomputed(gieseker_a1_3, gieseker_a2_3):
    # the extremal-wall certificate goes through on both slices with the
    # recomputed values only (the quoted centers would break it): the
    # fixtures raise no GiesekerFalsified
    assert gieseker_a1_3[1].certified and gieseker_a2_3[1].certified


def test_row_json_round_trip():
    row = discrepancy_table(3)[0].to_json()
    assert set(row) == {"quantity", "quoted_formula", "quoted", "recomputed", "agrees", "note"}
    json.dumps(row)  # must be serializable as-is


def test_dumps_json_canonical():
    text = dumps_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert text.endswith("\n")


def _pool_and_rows(label: str, n: int, degree: int):
    """A candidate pool and its report rows built here: one dict per E2..E9
    orbit, in the order of pool.orbits."""
    pool = rank1_candidates(Slice(label, n), degree)
    rows = []
    for rep, size in pool.orbits:
        row = {
            "arrangements": size,
            "filter": rep.filtered_by,
            "representative": str(DivisorClass(rep.shape)),
        }
        if rep.wall is not None:
            row["wall"] = rep.wall.to_json()
        rows.append(row)
    return pool, rows


@pytest.mark.parametrize(
    "label,n,degree", [("A1", 3, 0), ("A2", 4, 1), ("A1", 5, 2), ("A2", 3, 2)]
)
def test_pools_render_as_json_dumps(label, n, degree):
    # a pool's rows at the top level, or two levels deep between other keys,
    # print as json.dumps of rows built one dict per orbit
    pool, rows = _pool_and_rows(label, n, degree)

    def report(value):
        return {"z": 1, "rows": value, "deep": [{"b": value, "a": [1, {}]}, "s"]}

    assert pool.to_json() == rows
    assert dumps_json(pool.to_json()) == json.dumps(rows, indent=2, sort_keys=True) + "\n"
    nested = json.dumps(report(rows), indent=2, sort_keys=True) + "\n"
    assert dumps_json(report(pool.to_json())) == nested


def test_dumps_json_prints_any_string_and_refuses_objects():
    # int keys print as json.dumps prints them, and strings that hold NULs
    # are plain strings
    pool, rows = _pool_and_rows("A1", 3, 0)
    report = {2: [pool.to_json()], 10: "a\x000\x00b", 1: rows}
    assert dumps_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    marks = {"\x000\x00": "\x001\x00"}
    assert json.loads(dumps_json(marks)) == marks
    for value in (object(), pool):
        with pytest.raises(TypeError):
            dumps_json({"a": value})


def test_campaign_single_n():
    res = run_campaign(3, 3, 3)
    assert res.all_passed
    assert res.verdict == "certified"
    names = [c.name for c in res.checks]
    assert names == [
        "duality_scan",
        "ample_A1",
        "extremal_wall_A1",
        "wall_to_nef_A1",
        "ample_A2",
        "extremal_wall_A2",
        "wall_to_nef_A2",
    ]
    assert str(3) in res.to_json()["discrepancies"]


def test_campaign_rejects_bad_range_at_run():
    # an empty range has no check, so it must not read "certified"; the CLI
    # refuses it before any work (test_cli::test_campaign_run_refusals)
    with pytest.raises(ValueError):
        run_campaign(5, 4, 3)
