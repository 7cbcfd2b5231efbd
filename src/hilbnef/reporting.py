"""Discrepancy reporting: commonly quoted closed forms vs exact recomputation.

Several constants attached to this problem circulate in closed forms that do
not survive exact arithmetic (a reflection formula with a transposed factor,
a polarization self-intersection and the rank-2 radius bound built on it,
two special-case wall centers and a wall radius, and one mislabeled case in
the orthogonal-lift trichotomy).  Each row of the table replays the quoted
form and the exact recomputation side by side.  The quoted forms live only
here: the certification pipeline computes and consumes the recomputed values
alone, so every disagreement here is survivable by construction.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .lattice import DivisorClass, E, F, H, format_rational, intersect, self_intersection
from .record import Record
from .weyl import reflect, root_basis
from .hilb import fiber_orthogonal_lift
from .bridgeland import (
    Slice,
    Wall,
    line_bundle_char,
    rank2_radius_bound,
    rank_one_wall,
)


def _quoted_a1_self_intersection(n: int) -> Fraction:
    """The quoted A.A of the H-family polarization, 10n^2/9 - 3n/2."""
    return Fraction(10 * n * n, 9) - Fraction(3 * n, 2)


def _quoted_rank2_bound(sl: Slice, a_sq: Fraction) -> Fraction:
    """The rank-2 radius bound (2n A^2 + (A.F)^2 - A^2 F^2) / (8 (A^2)^2),
    replayed with a quoted value a_sq of A^2."""
    a_dot_f = intersect(sl.polarization, F)
    return (2 * sl.n * a_sq + a_dot_f**2 - a_sq * self_intersection(F)) / (
        8 * a_sq * a_sq
    )


def _quoted_rank_one_center(sl: Slice, l: DivisorClass) -> Fraction:
    """The commonly quoted center of the wall between O(l) and the ideal of n
    points.  The center of rank_one_wall is (n + l^2/2 - l.P) / (l.A); the
    quoted form has l.P/2 in place of l.P."""
    return (
        Fraction(sl.n) + self_intersection(l) / 2 - intersect(l, sl.twist) / 2
    ) / intersect(l, sl.polarization)


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
    sl1, sl2 = Slice("A1", n), Slice("A2", n)
    quoted_a_sq = _quoted_a1_self_intersection(n)
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
            quoted=format_rational(quoted_a_sq),
            recomputed=format_rational(sl1.a_squared),
            agrees=quoted_a_sq == sl1.a_squared,
            note=(
                "the certificates use the recomputed value; the rank-2 "
                "radius bound row replays the quoted one"
            ),
        )
    )

    quoted_bound = _quoted_rank2_bound(sl1, quoted_a_sq)
    exact_bound = rank2_radius_bound(sl1)
    rows.append(
        DiscrepancyRow(
            quantity="rank-2 radius bound on the H-family slice",
            quoted_formula=(
                "(2n A.A + (A.F)^2 - A.A F^2) / (8 (A.A)^2), "
                "A.A = 10n^2/9 - 3n/2"
            ),
            quoted=format_rational(quoted_bound),
            recomputed=format_rational(exact_bound),
            agrees=quoted_bound == exact_bound,
            note=(
                "the certificate gates on the recomputed bound alone; the "
                "quoted A.A is too small, so the quoted bound is larger, and "
                "both stay below the extremal wall radius^2 1"
            ),
        )
    )

    fiber_wall = rank_one_wall(sl1, line_bundle_char(-1 * F))
    quoted_radius = 1 + Fraction(3 * n) / quoted_a_sq
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

    e1_quoted_a1 = _quoted_rank_one_center(sl1, -1 * E[0])
    e1_wall_a1 = rank_one_wall(sl1, line_bundle_char(-1 * E[0]))
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

    e1_quoted_a2 = _quoted_rank_one_center(sl2, -1 * E[0])
    e1_wall_a2 = rank_one_wall(sl2, line_bundle_char(-1 * E[0]))
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
