"""Discrepancy reporting: commonly quoted closed forms vs exact recomputation.

Several constants attached to this problem circulate in closed forms that do
not survive exact arithmetic (a reflection formula with a transposed factor,
a polarization self-intersection, two special-case wall centers and a wall
radius, and one mislabeled case in the orthogonal-lift trichotomy).  Each row
of the table replays the quoted form and the exact recomputation side by
side; the certification pipeline itself only ever consumes the recomputed
values, so every disagreement here is survivable by construction.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .lattice import E, F, H, format_rational, intersect
from .record import Record
from .weyl import reflect, root_basis
from .hilb import fiber_orthogonal_lift
from .bridgeland import (
    Wall,
    ideal_points_char,
    line_bundle_char,
    numerical_wall,
    quoted_rank_one_center,
    slice_a1,
    slice_a2,
)


class DiscrepancyRow(Record):
    __slots__ = ("quantity", "quoted_formula", "quoted", "recomputed", "agrees", "note")
    quantity: str
    quoted_formula: str
    quoted: str
    recomputed: str
    agrees: bool
    note: str

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "quoted_formula": self.quoted_formula,
            "quoted": self.quoted,
            "recomputed": self.recomputed,
            "agrees": self.agrees,
            "note": self.note,
        }


def discrepancy_table(n: int) -> tuple[DiscrepancyRow, ...]:
    """Replay every quoted-vs-recomputed disagreement at this n, exactly."""
    if n < 3:
        raise ValueError("n >= 3 required")
    sl1, sl2 = slice_a1(n), slice_a2(n)
    ideal = ideal_points_char(n)
    rows: list[DiscrepancyRow] = []

    # a transposed factor: the quoted reflection adds a multiple of D itself
    beta = root_basis()[0].cls
    sample = E[0]
    quoted_img = sample + intersect(sample, beta) * sample
    correct_img = reflect(beta, sample)
    rows.append(
        DiscrepancyRow(
            quantity="simple reflection of E1 in E1-E2",
            quoted_formula="s_b(D) = D + (D.b) D",
            quoted=str(quoted_img),
            recomputed=str(correct_img),
            agrees=quoted_img == correct_img,
            note=(
                "as quoted the map is neither an involution nor an isometry; "
                "the corrected form D + (D.b) b is used throughout"
            ),
        )
    )

    rows.append(
        DiscrepancyRow(
            quantity="self-intersection of the H-family polarization",
            quoted_formula="10n^2/9 - 3n/2",
            quoted=format_rational(sl1.quoted_self_intersection),
            recomputed=format_rational(sl1.a_squared),
            agrees=sl1.quoted_self_intersection == sl1.a_squared,
            note=(
                "the rank-2 radius bound is replayed with both values and "
                "stays below the extremal wall radius either way"
            ),
        )
    )

    fiber_wall = numerical_wall(sl1, line_bundle_char(-1 * F), ideal)
    quoted_radius = 1 + Fraction(3 * n) / sl1.quoted_self_intersection
    rows.append(
        DiscrepancyRow(
            quantity="extremal wall radius^2 on the H-family slice",
            quoted_formula="1 + 3n/(A.A)",
            quoted=format_rational(quoted_radius),
            recomputed=format_rational(fiber_wall.radius_sq),
            agrees=quoted_radius == fiber_wall.radius_sq,
            note=(
                "both wall formulas give radius^2 = 1 on both slices, "
                "independent of n; the quoted value is not scale-consistent "
                "with the quoted center -1"
            ),
        )
    )

    e1_quoted_a1 = quoted_rank_one_center(sl1, -1 * E[0])
    e1_wall_a1 = numerical_wall(sl1, line_bundle_char(-1 * E[0]), ideal)
    rows.append(
        DiscrepancyRow(
            quantity="exceptional-wall center on the H-family slice",
            quoted_formula="-(n-1)/(n-3/2)",
            quoted=format_rational(e1_quoted_a1),
            recomputed=format_rational(e1_wall_a1.center),
            agrees=e1_quoted_a1 == e1_wall_a1.center,
            note=(
                "the quoted center lies strictly left of the extremal wall "
                "and would contradict its extremality; the recomputed wall "
                "coincides with the extremal wall exactly"
            ),
        )
    )

    e1_quoted_a2 = quoted_rank_one_center(sl2, -1 * E[0])
    e1_wall_a2 = numerical_wall(sl2, line_bundle_char(-1 * E[0]), ideal)
    empty_note = (
        "the wall locus is empty at this n"
        if isinstance(e1_wall_a2, Wall) and e1_wall_a2.is_empty
        else "the wall is nonempty at this n"
    )
    rows.append(
        DiscrepancyRow(
            quantity="blown-up-point wall center on the ruling slice",
            quoted_formula="-2/3",
            quoted=format_rational(e1_quoted_a2),
            recomputed=format_rational(e1_wall_a2.center),
            agrees=e1_quoted_a2 == e1_wall_a2.center,
            note=(
                "recomputed center -(2n-3)/(3(n-1)) stays right of the "
                f"extremal wall for every n >= 3; {empty_note}"
            ),
        )
    )

    ruling = H - E[0]
    off_ruling = H - E[1]
    rows.append(
        DiscrepancyRow(
            quantity="second case of the orthogonal-lift trichotomy",
            quoted_formula="lift of H - E2",
            quoted=str(fiber_orthogonal_lift(off_ruling, n)),
            recomputed=str(fiber_orthogonal_lift(ruling, n)),
            agrees=off_ruling == ruling,
            note=(
                "the quoted case list names H - E2 where the ruling class "
                "H - E1 is meant; both lifts exist, only the index differs"
            ),
        )
    )

    return tuple(rows)


def dumps_json(data) -> str:
    """Canonical report serialization: sorted keys, two-space indent, and a
    trailing newline, so identical runs produce identical bytes.  An object
    json.dumps cannot print raises TypeError."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
