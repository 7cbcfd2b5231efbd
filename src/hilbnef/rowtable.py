"""Row tables: report lists whose rows share a few layouts.

A certificate can list hundreds of thousands of rows that differ only in one
string: each candidate shape of `walls gieseker` shares its filter and wall
with the rest of its E2..E9 orbit.  A RowTable holds such a list without a
dict or a tuple per row: it hands its rows over in runs, each run a column of
layout indices and a column of strings (a `walls gieseker` run is the shapes
that share b1..b6).  `reporting.dumps_json` lets json.dumps lay out the
report with a mark string in the table's place, then splices the table in at
its mark: it renders each layout once and turns each run into one block of
text with one join, giving the bytes json.dumps prints for the list of dicts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .record import Record

# A run of rows: keys[r] is the layout of row r, texts[r] its string.
Run = tuple[Sequence[int], Sequence[str]]


class RowTable(Record):
    """layouts[k](text) is the JSON value of a row of layout k whose varying
    string value is `text`; runs() yields the rows in list order as runs
    (keys, texts), where keys[r] is the layout of the run's row r and
    texts[r] its string.  Every layout must place its string exactly once.
    The string stands for a whole JSON string value and is spliced in as it
    is, so it must need no JSON escaping: printable ASCII without a quote or
    backslash, as divisor texts are."""

    __slots__ = ("layouts", "runs")
    layouts: Sequence[Callable[[str], object]]
    runs: Callable[[], Iterator[Run]]
