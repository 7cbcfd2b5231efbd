"""Mori and nef cones of the general nine-point blowup.

On the general surface the curve cone is spanned by the fiber class and the
(-1)-curves, so degree-bounded nef checks pair a divisor against the fiber
and every (-1)-class up to the bound.  The two ample families used downstream
(c*H + c_F*F and c*(H-E1) + c_F*F) admit exact closed-form ampleness tests
against the full, unbounded set of (-1)-curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import DivisorClass, E, F, H, dot_int, self_intersection
from .weyl import enumerate_minus_one_classes


def mori_generators(max_h_degree: int) -> list[DivisorClass]:
    """Fiber class first, then the (-1)-classes in canonical order."""
    return [F] + enumerate_minus_one_classes(max_h_degree)


@dataclass(frozen=True)
class NefCertificate:
    """How many Mori generators were paired with the divisor, the smallest
    pairing, and the first negative one with its generator."""

    divisor: DivisorClass
    degree_bound: int
    nef_up_to_bound: bool
    generators_checked: int
    lowest_pairing: Fraction
    witness: DivisorClass | None = None
    witness_pairing: Fraction | None = None

    def min_pairing(self) -> Fraction:
        return self.lowest_pairing

    def to_json(self) -> dict:
        from .lattice import format_rational

        data = {
            "divisor": self.divisor.to_json(),
            "degree_bound": self.degree_bound,
            "verdict": "nef_up_to_bound" if self.nef_up_to_bound else "not_nef",
            "min_pairing": format_rational(self.min_pairing()),
            "generators_checked": self.generators_checked,
        }
        if self.witness is not None:
            data["witness"] = self.witness.to_json()
            data["witness_pairing"] = format_rational(self.witness_pairing)
        return data


def is_nef_up_to_degree(d: DivisorClass, max_h_degree: int) -> NefCertificate:
    """Pair d against every Mori generator up to the degree bound.

    The witness, when the check fails, is the first violating generator in
    the deterministic enumeration order (fiber first, then sorted classes).
    The generators are integral, so each pairing is dot_int on numerators
    over d's denominator.
    """
    generators = mori_generators(max_h_degree)
    dots = [dot_int(d.nums, g.nums) for g in generators]
    first_negative = next((i for i, v in enumerate(dots) if v < 0), None)
    witness = None if first_negative is None else generators[first_negative]
    return NefCertificate(
        divisor=d,
        degree_bound=max_h_degree,
        nef_up_to_bound=witness is None,
        generators_checked=len(dots),
        lowest_pairing=Fraction(min(dots), d.den),
        witness=witness,
        witness_pairing=None if witness is None else Fraction(dots[first_negative], d.den),
    )


@dataclass(frozen=True)
class AmplenessReport:
    """Exact ampleness decision for the pencil families, with the minimized
    pairings that prove it.  A value of None marks an infimum of -infinity."""

    ample: bool
    family: str
    divisor: DivisorClass
    fiber_pairing: Fraction
    min_exceptional_pairing: Fraction
    inf_section_family: Fraction | None
    self_intersection: Fraction

    def to_json(self) -> dict:
        from .lattice import format_rational

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
