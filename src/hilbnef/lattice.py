"""Exact Picard-lattice arithmetic for the plane blown up at nine points.

Divisor classes live in the rank-10 lattice with basis {H, E1, ..., E9}
and intersection form diag(1, -1, ..., -1).  A class is stored once, as ten
integer numerators over one positive denominator in lowest terms; `dot_int`
is the only code for the form, and a pairing is one `Fraction` built from
its integer value.  There is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

from .record import Record, _set

RANK = 10

_BASIS_NAMES = ("H",) + tuple(f"E{i}" for i in range(1, RANK))


def format_rational(x: Fraction | int) -> str:
    """Lowest-terms string, "p/q" or plain "p" for integers."""
    return str(Fraction(x))


def _format_ratio(num: int, den: int) -> str:
    """format_rational(Fraction(num, den)) for den > 0."""
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


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


@total_ordering
class DivisorClass(Record):
    """The class (n0 H + n1 E1 + ... + n9 E9) / den for nums = (n0, ..., n9).

    nums are ints and den is a positive int, reduced to lowest terms on
    construction, so equal classes have equal fields.  Rational values enter
    through `divisor`, `from_json` or `parse_divisor`; h, e and coords are
    read-only Fraction views.  Classes order by their rational coordinates.
    """

    __slots__ = ("nums", "den")
    nums: tuple[int, ...]
    den: int

    def __init__(self, nums: Iterable[int], den: int = 1) -> None:
        nums = tuple(nums)
        if len(nums) != RANK:
            raise ValueError(f"expected {RANK} coordinates, got {len(nums)}")
        if type(den) is not int or not all(type(x) is int for x in nums):
            raise TypeError("numerators and denominator must be ints")
        if den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
        _set(self, "nums", nums)
        _set(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not DivisorClass:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def h(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def e(self) -> tuple[Fraction, ...]:
        return self.coords[1:]

    def is_integral(self) -> bool:
        return self.den == 1

    def _over_common_den(
        self, other: "DivisorClass"
    ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """(self numerators, other numerators, den) over one denominator."""
        if self.den == other.den:
            return self.nums, other.nums, self.den
        den = lcm(self.den, other.den)
        s, o = den // self.den, den // other.den
        return tuple(x * s for x in self.nums), tuple(y * o for y in other.nums), den

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        a, b, den = self._over_common_den(other)
        return DivisorClass(tuple(x + y for x, y in zip(a, b)), den)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        a, b, den = self._over_common_den(other)
        return DivisorClass(tuple(x - y for x, y in zip(a, b)), den)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-x for x in self.nums), self.den)

    def __mul__(self, scalar: Fraction | int) -> "DivisorClass":
        s = Fraction(scalar)
        return DivisorClass(
            tuple(x * s.numerator for x in self.nums), self.den * s.denominator
        )

    __rmul__ = __mul__

    def __lt__(self, other: "DivisorClass") -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        a, b, _ = self._over_common_den(other)
        return a < b

    def to_json(self) -> dict:
        return class_json(*(_format_ratio(x, self.den) for x in self.nums))

    @classmethod
    def from_json(cls, data: dict) -> "DivisorClass":
        """The class of {"h": x, "e": [x1, ..., x9]} whose coordinates are
        rational texts or ints; a float or bool, not read exactly, is refused."""
        h, e = data["h"], data["e"]
        if type(e) is not list or len(e) != RANK - 1:
            raise ValueError("expected a list of 9 exceptional coordinates")
        for x in (h, *e):
            if type(x) not in (str, int):
                raise ValueError(f"coordinate {x!r} is neither a rational text nor an int")
        return divisor(h, e)

    def __str__(self) -> str:
        parts: list[str] = []
        for x, name in zip(self.nums, _BASIS_NAMES):
            if x:
                mag = abs(x)
                coeff = "" if mag == self.den else _format_ratio(mag, self.den)
                parts.append(("-" if x < 0 else "+") + coeff + name)
        if not parts:
            return "0"
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out


def class_json(h: str, *e: str) -> dict:
    """The JSON form of a class from the texts of its coordinates h, e1..e9."""
    return {"h": h, "e": list(e)}


def divisor(h: Fraction | int | str, e: Iterable[Fraction | int | str]) -> DivisorClass:
    """The class hH + e1 E1 + ... + e9 E9 from rational coordinates."""
    coords = (Fraction(h),) + tuple(Fraction(x) for x in e)
    den = lcm(*(c.denominator for c in coords))
    return DivisorClass(
        tuple(c.numerator * (den // c.denominator) for c in coords), den
    )


BASIS = tuple(
    DivisorClass(tuple(int(i == j) for j in range(RANK))) for i in range(RANK)
)
H = BASIS[0]
E = BASIS[1:]  # E[0] is E1, ..., E[8] is E9
ZERO = DivisorClass((0,) * RANK)

# K = -3H + E1 + ... + E9; the anticanonical class F = -K is the fiber class.
K = divisor(-3, [1] * 9)
F = -K


def intersect(a: DivisorClass, b: DivisorClass) -> Fraction:
    """Intersection pairing h*h' - sum(e_i * e_i') = dot_int(nums) / dens."""
    return Fraction(dot_int(a.nums, b.nums), a.den * b.den)


def self_intersection(a: DivisorClass) -> Fraction:
    return intersect(a, a)


def arithmetic_genus(c: DivisorClass) -> Fraction:
    """Adjunction: g(C) = 1 + (C.C + C.K)/2.  Integral for integral classes."""
    return 1 + (intersect(c, c) + intersect(c, K)) / 2


_TERM_RE = re.compile(r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*?)?\s*(H|F|K|E[1-9])\s*")

_NAMED: dict[str, DivisorClass] = {"H": H, "F": F, "K": K}
_NAMED.update({f"E{i}": E[i - 1] for i in range(1, RANK)})


def parse_divisor(text: str) -> DivisorClass:
    """Parse "2H-E1-E2", "3/2F+H", "E9", "0" (the text of ZERO), or the JSON
    dict encoding.  Every term after the first needs its sign: "H-E1 E2"
    and "2H3E1" raise ValueError, and a "*" needs a coefficient before it:
    "2*H" parses, "*H" raises."""
    text = text.strip()
    if not text:
        raise ValueError("empty divisor expression")
    if text == "0":
        return ZERO
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
        if pos and not sign:
            raise ValueError(f"expected + or - before the term at: {text[pos:]!r}")
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        acc = acc + c * _NAMED[name]
        pos = m.end()
    return acc
