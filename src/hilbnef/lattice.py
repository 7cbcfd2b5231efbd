"""Exact Picard-lattice arithmetic for the plane blown up at nine points.

Divisor classes live in the rank-10 lattice with basis {H, E1, ..., E9}
and intersection form diag(1, -1, ..., -1).  All scalars are
`fractions.Fraction`; there is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

RANK = 10

_SIGNS = (1,) + (-1,) * 9


def format_rational(x: Fraction | int) -> str:
    """Lowest-terms string, "p/q" or plain "p" for integers."""
    return str(Fraction(x))


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def dot_int(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Signature (1, -1^9) dot product on raw 10-tuples of ints."""
    return (
        u[0] * v[0]
        - u[1] * v[1]
        - u[2] * v[2]
        - u[3] * v[3]
        - u[4] * v[4]
        - u[5] * v[5]
        - u[6] * v[6]
        - u[7] * v[7]
        - u[8] * v[8]
        - u[9] * v[9]
    )


@dataclass(frozen=True, order=True)
class DivisorClass:
    """Class h*H + e1*E1 + ... + e9*E9 stored as the tuple (h, e1, ..., e9)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != RANK:
            raise ValueError(f"expected {RANK} coordinates, got {len(self.coords)}")
        if not all(type(c) is Fraction for c in self.coords):
            object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    @property
    def h(self) -> Fraction:
        return self.coords[0]

    @property
    def e(self) -> tuple[Fraction, ...]:
        return self.coords[1:]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __mul__(self, scalar: Fraction | int) -> "DivisorClass":
        s = Fraction(scalar)
        return DivisorClass(tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def int_coords(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError(f"not an integral class: {self}")
        return tuple(c.numerator for c in self.coords)

    def scaled_int_coords(self) -> tuple[tuple[int, ...], int]:
        """(integer coordinates, positive denominator) with coords = ints/den."""
        den = lcm(*(c.denominator for c in self.coords))
        return tuple(int(c * den) for c in self.coords), den

    def to_json(self) -> dict:
        return {
            "h": format_rational(self.coords[0]),
            "e": [format_rational(c) for c in self.coords[1:]],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DivisorClass":
        e = data["e"]
        if len(e) != RANK - 1:
            raise ValueError("expected 9 exceptional coordinates")
        return cls((Fraction(data["h"]),) + tuple(Fraction(x) for x in e))

    def __str__(self) -> str:
        parts: list[str] = []
        names = ["H"] + [f"E{i}" for i in range(1, RANK)]
        for c, name in zip(self.coords, names):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = name if mag == 1 else f"{format_rational(mag)}{name}"
            parts.append(f"{sign}{term}")
        if not parts:
            return "0"
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def divisor(h: Fraction | int | str, e: Iterable[Fraction | int | str]) -> DivisorClass:
    coords = (Fraction(h),) + tuple(Fraction(x) for x in e)
    return DivisorClass(coords)


def _basis(i: int) -> DivisorClass:
    coords = [Fraction(0)] * RANK
    coords[i] = Fraction(1)
    return DivisorClass(tuple(coords))


H = _basis(0)
E = tuple(_basis(i) for i in range(1, RANK))  # E[0] is E1, ..., E[8] is E9
ZERO = DivisorClass((Fraction(0),) * RANK)

# K = -3H + E1 + ... + E9; the anticanonical class F = -K is the fiber class.
K = divisor(-3, [1] * 9)
F = -K


def gram_matrix() -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(_SIGNS[i] if i == j else 0 for j in range(RANK)) for i in range(RANK)
    )


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Intersection pairing: h*h' - sum(e_i * e_i').

    Summed as one integer numerator over a product of denominators, so that
    only the result is normalised; exact, and several times faster than
    adding ten Fractions.
    """
    num, den = 0, 1
    for sign, x, y in zip(_SIGNS, a.coords, b.coords):
        p = x.numerator * y.numerator
        if not p:
            continue
        q = x.denominator * y.denominator
        if q == den:
            num += sign * p
        else:
            num = num * q + sign * p * den
            den *= q
    return Fraction(num, den)


def self_intersection(a: DivisorClass) -> Fraction:
    return intersect(a, a)


def arithmetic_genus(c: DivisorClass) -> Fraction:
    """Adjunction: g(C) = 1 + (C.C + C.K)/2.  Integral for integral classes."""
    return 1 + (intersect(c, c) + intersect(c, K)) / 2


def is_minus_one_class(c: DivisorClass) -> bool:
    """C.C = -1 and C.K = -1; such classes have C.F = 1 and genus 0."""
    if not c.is_integral():
        return False
    return intersect(c, c) == -1 and intersect(c, K) == -1


_TERM_RE = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)?\s*\*?\s*(H|F|K|E[1-9])\s*")

_NAMED: dict[str, DivisorClass] = {"H": H, "F": F, "K": K}
_NAMED.update({f"E{i}": E[i - 1] for i in range(1, RANK)})


def parse_divisor(text: str) -> DivisorClass:
    """Parse "2H-E1-E2", "3/2F+H", "E9", or the JSON dict encoding."""
    text = text.strip()
    if not text:
        raise ValueError("empty divisor expression")
    if text.startswith("{"):
        import json

        return DivisorClass.from_json(json.loads(text))
    pos = 0
    acc = ZERO
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (m.start() != pos):
            raise ValueError(f"cannot parse divisor expression at: {text[pos:]!r}")
        sign, coeff, name = m.groups()
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        acc = acc + c * _NAMED[name]
        pos = m.end()
    return acc


def sorted_classes(classes: Iterable[DivisorClass]) -> list[DivisorClass]:
    """Canonical deterministic ordering by coordinate tuple."""
    return sorted(classes)
