"""Mori and nef cones of the general nine-point blowup.

On the general surface the curve cone is spanned by the fiber class F and
the (-1)-curves, the Weyl orbit W.E9 (Nagata, "On rational surfaces II",
1960), so a class with D.F > 0 is nef exactly when its chamber representative
(`weyl._chamber`) is in standard form, b9 >= 0 (Harbourne, "Anticanonical
rational surfaces", Trans. AMS 1997).  The ample families c*H + c_F*F and
c*(H-E1) + c_F*F have closed-form tests against all curves.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, E, F, H, dot_int, format_rational, self_intersection
from .record import Record
from .weyl import _chamber, _pull_back


class NefCertificate(Record):
    """The nef verdict of a divisor for all curves and its proof: for a nef one
    the chamber walk's word and the coefficients (a-b1-b2-b3, b1-b2, ..., b8-b9,
    b9) >= 0 on H, H-E1, 2H-E1-E2 and 3H-E1-...-E_k for k = 3..9 (the last is F);
    else a curve, F or a (-1)-class, with its negative pairing, or none when
    D.F = 0 and D.D < 0, which the Hodge index theorem on F^perp excludes."""

    __slots__ = ("divisor", "nef", "standard_form", "word", "witness", "witness_pairing")
    divisor: DivisorClass
    nef: bool
    standard_form: tuple[Fraction, ...] | None
    word: tuple[tuple[int, int, int], ...] | None
    witness: DivisorClass | None
    witness_pairing: Fraction | None

    def to_json(self) -> dict:
        data = {
            "divisor": self.divisor.to_json(),
            "scope": "all curves",
            "verdict": "nef" if self.nef else "not_nef",
        }
        if self.nef:
            data["standard_form"] = [format_rational(c) for c in self.standard_form]
            data["word"] = ["H-" + "-".join(f"E{i + 1}" for i in sorted(r)) for r in self.word]
        elif self.witness is not None:
            data["witness"] = self.witness.to_json()
            data["witness_pairing"] = format_rational(self.witness_pairing)
        else:
            square = format_rational(self_intersection(self.divisor))
            data["pairings"] = {"D.F": "0", "D.D": square}
        return data


def is_nef(d: DivisorClass) -> NefCertificate:
    """Decide whether d is nef against every curve, on integer numerators.
    D.F < 0: witness F.  D.F = 0 and D.D < 0: not nef, with no curve.  Else
    (D.F > 0, or D = tF) d is nef when its chamber representative has b9 >= 0,
    and otherwise E_i pulled back from the walk's first negative entry b_i
    pairs with d at b_i.  To replay a word, reflect d in each root r in turn
    (x -> x + (x.r) r) and sort the E-coefficients: the standard form sums to it."""
    nums = d.nums
    fiber = dot_int(nums, F.nums)
    witness = F if fiber < 0 else None
    if fiber > 0 or (fiber == 0 and dot_int(nums, nums) == 0):
        (a, *b), word, first = _chamber(nums[0], [-x for x in nums[1:]])
        if first is None:
            coeffs = [a - b[0] - b[1] - b[2]] + [x - y for x, y in zip(b, b[1:] + [0])]
            form = tuple(Fraction(c, d.den) for c in coeffs)
            return NefCertificate(d, True, form, word, None, None)
        witness = _pull_back(word[: first[0]], first[1])
    pairing = None if witness is None else Fraction(dot_int(nums, witness.nums), d.den)
    return NefCertificate(d, False, None, None, witness, pairing)


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
