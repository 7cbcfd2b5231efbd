"""Mori and nef cones of the general nine-point blowup.

On the general surface the curve cone is spanned by the fiber class F and
the (-1)-curves, the Weyl orbit W.E9 (Nagata, "On rational surfaces II",
1960), so a class with D.F > 0 is nef exactly when its chamber representative
(`weyl._chamber`) is in standard form, b9 >= 0 (Harbourne, "Anticanonical
rational surfaces", Trans. AMS 1997).  The same walk decides ampleness: a
nef class is ample exactly when D.F > 0 and b9 > 0.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, F, dot_int, format_rational, self_intersection
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
    """The ampleness verdict of a divisor for all curves and the nef
    certificate it reads (see `is_ample`)."""

    __slots__ = ("ample", "nef")
    ample: bool
    nef: NefCertificate

    def to_json(self) -> dict:
        return {**self.nef.to_json(), "ample": self.ample}


def is_ample(d: DivisorClass) -> AmplenessReport:
    """Decide whether d is ample: is_nef(d) is nef, and its standard form has
    b9 > 0 and one more positive coefficient.

    By Kleiman's criterion d is ample exactly when it is positive on the
    closed Mori cone minus 0, which F and the (-1)-curves span.  The rays of
    the (-1)-curves accumulate only at F: a limit x of e/|e| has x.x = 0 and
    x.K = 0, and K^perp/K is negative definite, so x is a multiple of F = -K.
    So d is ample exactly when D.F > 0 and D.e > 0 for every (-1)-curve e,
    and both are invariant under the walk.  The chamber representative is
    the sum of c_i G_i over the standard form's coefficients c_i and nef
    generators G_i, the last G_9 = F, so D.e >= c_9 F.e = b9 = D.E9: the
    least D.e is b9.  F meets F in 0 and every other G_i positively, so
    D.F > 0 exactly when another c_i > 0; then D.D > 0 too."""
    cert = is_nef(d)
    form = cert.standard_form
    return AmplenessReport(cert.nef and form[-1] > 0 and max(form[:-1]) > 0, cert)

