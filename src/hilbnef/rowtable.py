"""Row tables: report lists whose rows share a few layouts.

A certificate can list hundreds of thousands of rows that differ only in a
few strings: each candidate shape of `walls gieseker` shares its filter and
wall with the rest of its E2..E9 orbit, and every class of `weyl orbit` has
the same layout.  A RowTable holds such a list without a dict per row;
`reporting.dumps_json` renders each layout once and splices every row's
strings into it, giving the bytes json.dumps prints for the list of dicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


@dataclass(frozen=True)
class RowTable:
    """layouts[k](*strings) is the JSON value of a row of layout k whose
    varying string values are `strings`; rows() yields (k, strings) for each
    row, in list order.  Each string stands for a whole JSON string value and
    is spliced in as it is, so it must need no JSON escaping: printable ASCII
    without a quote or backslash, as divisor and rational texts are."""

    layouts: Sequence[Callable[..., object]]
    rows: Callable[[], Iterator[tuple[int, tuple[str, ...]]]]
