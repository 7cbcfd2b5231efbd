"""Mori and nef cones of the general nine-point blowup.

On the general surface the curve cone is spanned by the fiber class and the
(-1)-curves, so a degree-bounded nef check pairs a divisor against the fiber
and every (-1)-class up to the bound; it reads the (-1)-classes per S9 orbit,
from their sorted representatives, without listing them.  The two ample
families used downstream (c*H + c_F*F and c*(H-E1) + c_F*F) admit exact
closed-form ampleness tests against the full, unbounded set of (-1)-curves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .lattice import DivisorClass, E, F, H, dot_int, format_rational, self_intersection
from .record import Record
from .weyl import _arrangements, _degree_groups, orbit_size


class NefCertificate(Record):
    """How many Mori generators the check covered, the smallest pairing, and
    the first negative one with its generator."""

    __slots__ = (
        "divisor",
        "degree_bound",
        "nef_up_to_bound",
        "generators_checked",
        "lowest_pairing",
        "witness",
        "witness_pairing",
    )
    divisor: DivisorClass
    degree_bound: int
    nef_up_to_bound: bool
    generators_checked: int
    lowest_pairing: Fraction
    witness: DivisorClass | None
    witness_pairing: Fraction | None

    def to_json(self) -> dict:
        data = {
            "divisor": self.divisor.to_json(),
            "degree_bound": self.degree_bound,
            "verdict": "nef_up_to_bound" if self.nef_up_to_bound else "not_nef",
            "min_pairing": format_rational(self.lowest_pairing),
            "generators_checked": self.generators_checked,
        }
        if self.witness is not None:
            data["witness"] = self.witness.to_json()
            data["witness_pairing"] = format_rational(self.witness_pairing)
        return data


def is_nef_up_to_degree(d: DivisorClass, max_h_degree: int) -> NefCertificate:
    """Pair d against the fiber and every (-1)-class up to the degree bound.

    The (-1)-classes are read per S9 orbit, from the sorted representatives
    of `weyl._degree_groups(E9, k)`, each with its least pairing
    (`_least_pairing`).  The witness, when the check fails, is the first
    violating generator in the enumeration order (fiber first, then the
    classes in numerator order): the fiber if it pairs negatively, else the
    least class of the lowest degree whose orbit goes negative, found by
    `_least_negative_arrangement`.  Each pairing is an integer over d's
    denominator.
    """
    checked = 1 + orbit_size(E[8], max_h_degree)
    nums = d.nums
    lowest = fiber = dot_int(nums, F.nums)
    first: tuple[int, ...] | None = None  # numerators of the first negative class
    for a, _, reps in _degree_groups(E[8], max_h_degree):
        for b, _ in reps:
            least = _least_pairing(nums, a, b)
            lowest = min(lowest, least)
            if least < 0 and (first is None or first[0] == a):
                found = (a,) + _least_negative_arrangement(nums, a, b, 0)
                first = found if first is None else min(first, found)
    if fiber < 0:
        witness = F
    else:
        witness = None if first is None else DivisorClass(first)
    return NefCertificate(
        divisor=d,
        degree_bound=max_h_degree,
        nef_up_to_bound=witness is None,
        generators_checked=checked,
        lowest_pairing=Fraction(lowest, d.den),
        witness=witness,
        witness_pairing=(
            None if witness is None else Fraction(dot_int(nums, witness.nums), d.den)
        ),
    )


def _least_pairing(nums: tuple[int, ...], a: int, b: tuple[int, ...]) -> int:
    """The least dot product of the numerators nums with a class (a,
    -b_s(1), ..., -b_s(9)) over the arrangements s of b (nonincreasing).
    That class pairs with nums to nums0*a + sum nums_i*b_s(i), so by the
    rearrangement inequality the least pairing puts b against nums's
    E-numerators in ascending order.  Permuting both classes alike keeps a
    pairing, so it is also the least pairing between their S9 orbits."""
    return nums[0] * a + sum(x * y for x, y in zip(sorted(nums[1:]), b))


def _least_pairing_count(nums: tuple[int, ...], b: tuple[int, ...]) -> int:
    """How many distinct arrangements s of b (nonincreasing) reach
    `_least_pairing(nums, a, b)`.  Where nums_i < nums_j and b_s(i) <
    b_s(j), swapping the two b values lowers the pairing by (nums_j -
    nums_i)(b_s(j) - b_s(i)) > 0.  So an arrangement reaches the least
    pairing exactly when each group of equal E-numerators of nums, taken in
    ascending order, holds the next slice of b, in any order inside the
    group."""
    count, start = 1, 0
    for _, group in groupby(sorted(nums[1:])):
        end = start + len(list(group))
        count *= _arrangements(b[start:end])
        start = end
    return count


def _least_negative_arrangement(
    nums: tuple[int, ...], a: int, b: tuple[int, ...], below: int
) -> tuple[int, ...]:
    """The least E-numerator tuple (-b_s(1), ..., -b_s(9)) over the
    arrangements s of b (nonincreasing) whose class pairs with nums below
    the threshold `below`; one must exist.  Greedy by position: take the
    largest remaining b_j, so the smallest numerator, whose placement can
    still be completed to a pairing below it, which holds exactly when the
    rearrangement bound (the rest of b against the rest of nums ascending)
    is below it."""
    partial = nums[0] * a
    rest = list(b)
    chosen: list[int] = []
    for i in range(1, 10):
        tail = sorted(nums[i + 1 :])
        for j, v in enumerate(rest):
            if j and v == rest[j - 1]:
                continue
            others = rest[:j] + rest[j + 1 :]
            if partial + nums[i] * v + sum(x * y for x, y in zip(tail, others)) < below:
                partial += nums[i] * v
                chosen.append(-v)
                rest = others
                break
    return tuple(chosen)


class AmplenessReport(Record):
    """Exact ampleness decision for the pencil families, with the minimized
    pairings that prove it.  A value of None marks an infimum of -infinity."""

    __slots__ = (
        "ample",
        "family",
        "divisor",
        "fiber_pairing",
        "min_exceptional_pairing",
        "inf_section_family",
        "self_intersection",
    )
    ample: bool
    family: str
    divisor: DivisorClass
    fiber_pairing: Fraction
    min_exceptional_pairing: Fraction
    inf_section_family: Fraction | None
    self_intersection: Fraction

    def to_json(self) -> dict:
        return {
            "ample": self.ample,
            "family": self.family,
            "divisor": self.divisor.to_json(),
            "pairings": {
                "D.F": format_rational(self.fiber_pairing),
                "min D.E_i": format_rational(self.min_exceptional_pairing),
                "inf over aH-type (-1)-curves": (
                    format_rational(self.inf_section_family)
                    if self.inf_section_family is not None
                    else "unbounded below"
                ),
                "D.D": format_rational(self.self_intersection),
            },
        }


def is_ample_hf_family(
    c_h: Fraction | int, c_h_minus_e1: Fraction | int, c_f: Fraction | int
) -> AmplenessReport:
    """Decide ampleness of c_h*H + c_h_minus_e1*(H-E1) + c_f*F exactly.

    At most one of c_h, c_h_minus_e1 may be nonzero.  The decision covers
    every (-1)-curve, not just an enumerated prefix: a (-1)-curve is either
    some E_i or has shape aH - sum(b_i E_i) with a >= 1, 0 <= b_i <= a and
    fiber degree 1, so each pairing is minimized in closed form.
    """
    c_h = Fraction(c_h)
    c_p = Fraction(c_h_minus_e1)
    c_f = Fraction(c_f)
    if c_h != 0 and c_p != 0:
        raise ValueError("at most one of the H and H-E1 coefficients may be nonzero")
    d = c_h * H + c_p * (H - E[0]) + c_f * F
    d_sq = self_intersection(d)
    if c_p == 0 and c_h == 0:
        # Pure fiber multiples pair to zero with the fiber: never ample.
        return AmplenessReport(
            ample=False,
            family="F-only",
            divisor=d,
            fiber_pairing=Fraction(0),
            min_exceptional_pairing=c_f,
            inf_section_family=c_f,
            self_intersection=d_sq,
        )
    if c_p == 0:
        # D.E = a*c_h + c_f for E = aH - sum(b_i E_i), minimized at a = 1.
        fiber_pairing = 3 * c_h
        min_exc = c_f
        inf_family = c_h + c_f if c_h > 0 else None
    else:
        # (H-E1).E = a - b1 ranges over all integers >= 0 on this family.
        fiber_pairing = 2 * c_p
        min_exc = min(c_f, c_p + c_f)
        inf_family = c_f if c_p > 0 else None
    ample = (
        fiber_pairing > 0
        and min_exc > 0
        and inf_family is not None
        and inf_family > 0
        and d_sq > 0
    )
    return AmplenessReport(
        ample=ample,
        family="H+F" if c_p == 0 else "(H-E1)+F",
        divisor=d,
        fiber_pairing=fiber_pairing,
        min_exceptional_pairing=min_exc,
        inf_section_family=inf_family,
        self_intersection=d_sq,
    )


def ample_family(label: str, n: int) -> AmplenessReport:
    """Closed-form ampleness of the A1 polarization (n/3)H + (n - 3/2)F or the
    A2 polarization (n/2)(H - E1) + (n - 3/2)F."""
    if label == "A1":
        return is_ample_hf_family(Fraction(n, 3), 0, n - Fraction(3, 2))
    if label == "A2":
        return is_ample_hf_family(0, Fraction(n, 2), n - Fraction(3, 2))
    raise ValueError(f"unknown polarization family {label!r}")


def a1_polarization(n: int) -> DivisorClass:
    """(n/3) H + (n - 3/2) F, ample for n >= 2."""
    return Fraction(n, 3) * H + (n - Fraction(3, 2)) * F


def a2_polarization(n: int) -> DivisorClass:
    """(n/2) (H - E1) + (n - 3/2) F, ample for n >= 2."""
    return Fraction(n, 2) * (H - E[0]) + (n - Fraction(3, 2)) * F
