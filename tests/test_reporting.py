import json
from fractions import Fraction

import pytest

from hilbnef import (
    Campaign,
    CampaignUsageError,
    discrepancy_table,
    dominance_under_recomputed,
    dumps_json,
    run_campaign,
    validate_campaign,
)
from hilbnef.rowtable import RowTable

# the three wall-value rows, as (quoted, recomputed) exact rationals at n=3
WALL_ROWS_N3 = {
    "extremal wall radius^2 on the H-family slice": (Fraction(29, 11), Fraction(1)),
    "exceptional-wall center on the H-family slice": (Fraction(-4, 3), Fraction(-1)),
    "blown-up-point wall center on the ruling slice": (Fraction(-2, 3), Fraction(-1, 2)),
}


def test_discrepancy_table_shape():
    rows = discrepancy_table(3)
    assert len(rows) == 6
    assert all(not r.agrees for r in rows)
    quantities = [r.quantity for r in rows]
    assert len(set(quantities)) == 6


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


def test_discrepancy_table_n_dependence():
    rows5 = {r.quantity: r for r in discrepancy_table(5)}
    center = rows5["exceptional-wall center on the H-family slice"]
    # -(n-1)/(n-3/2) at n=5
    assert Fraction(center.quoted) == Fraction(-8, 7)
    assert Fraction(center.recomputed) == -1


def test_dominance_under_recomputed():
    assert dominance_under_recomputed(3) is True


def test_row_json_round_trip():
    row = discrepancy_table(3)[0].to_json()
    assert set(row) == {"quantity", "quoted_formula", "quoted", "recomputed", "agrees", "note"}
    json.dumps(row)  # must be serializable as-is


def test_dumps_json_canonical():
    text = dumps_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert text.endswith("\n")


def _point(x: str) -> dict:
    # the string sits inside a list, between other keys
    return {"x": [x, "0"], "w": "-2", "tag": "point"}


def _pair(x: str) -> dict:
    # a second layout, with empty and null values after its string
    return {"x": x, "nested": {"empty": [], "none": None}, "a": [1]}


POINTS = ["1", "3/4", "-2H+E9"]


def _table(rows, run: int = 2) -> RowTable:
    """The rows (layout, string) as a table handing them over `run` at a
    time, after an empty run."""

    def runs():
        yield [], []
        for start in range(0, len(rows), run):
            part = rows[start : start + run]
            yield [k for k, _ in part], [text for _, text in part]

    return RowTable((_point, _pair), runs)


def _expanded(rows) -> list:
    return [(_point, _pair)[k](text) for k, text in rows]


@pytest.mark.parametrize(
    "rows",
    [
        [(0, p) for p in POINTS],
        [(1, "a"), (0, POINTS[0]), (1, "c"), (0, POINTS[2])],
        [(1, "only")],
        [],
    ],
    ids=["one-layout", "mixed", "single", "empty"],
)
def test_row_tables_render_as_json_dumps(rows):
    # a table anywhere in the report prints as json.dumps of its row dicts,
    # however its rows fall into runs
    def report(table):
        return {"z": 1, "rows": table, "deep": [{"b": table, "a": [1, {}]}, "s"]}

    nested = json.dumps(report(_expanded(rows)), indent=2, sort_keys=True) + "\n"
    alone = json.dumps(_expanded(rows), indent=2, sort_keys=True) + "\n"
    for run in (1, 2, 5):
        assert dumps_json(report(_table(rows, run))) == nested
        assert dumps_json(_table(rows, run)) == alone


def test_row_table_errors():
    # int keys are fine: the report renders as json.dumps renders its rows
    rows = [(0, p) for p in POINTS]
    report = {2: [_table(rows)], 10: "x", 1: _table([])}
    expanded = {2: [_expanded(rows)], 10: "x", 1: []}
    assert dumps_json(report) == json.dumps(expanded, indent=2, sort_keys=True) + "\n"
    # a table's rows are never spliced into a report string that spells a mark
    for spelled in ("\x000\x00", "\x001\x00", "a\x000\x00b"):
        for report in ({"a": spelled, "b": _table(rows)}, {spelled: _table(rows)}):
            with pytest.raises(ValueError):
                dumps_json(report)
    # a layout must place its string exactly once
    for layout in (lambda s: {"a": s, "b": s}, lambda s: {"a": "x"}):
        with pytest.raises(ValueError):
            dumps_json(RowTable((layout,), lambda: iter([([0], ["x"])])))
    with pytest.raises(TypeError):
        dumps_json({"a": object()})


def test_validate_campaign_bounds():
    validate_campaign(Campaign(3, 5))
    for bad in (
        Campaign(2, 3),
        Campaign(3, 65),
        Campaign(5, 4),
        Campaign(3, 3, max_h_degree=-1),
        Campaign(3, 3, slices=()),
        Campaign(3, 3, slices=("A1", "A1")),
        Campaign(3, 3, slices=("A3",)),
    ):
        with pytest.raises(CampaignUsageError):
            validate_campaign(bad)


def test_campaign_single_n():
    res = run_campaign(Campaign(3, 3))
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
    with pytest.raises(CampaignUsageError):
        run_campaign(Campaign(1, 1))
