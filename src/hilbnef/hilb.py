"""Divisor and curve classes on the Hilbert scheme of n points.

Pic of the Hilbert scheme is Pic(X) plus one class B/2, where B is the locus
of nonreduced subschemes.  A divisor is stored as (surf, b_half), meaning
surf^[n] + b_half*(B/2).  Curves are either the class contracted by the
Hilbert-Chow morphism (a pencil of length-2 structures on a fixed point set)
or the class induced by a curve on the surface (n points moving on it).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import groupby

from .lattice import (
    DivisorClass,
    E,
    F,
    H,
    arithmetic_genus,
    dot_int,
    format_rational,
    intersect,
)
from .record import Record, _set
from .surface_cones import is_nef
from .weyl import _arrangements, _degree_groups, orbit_size


@total_ordering
class HilbDivisor(Record):
    """surf^[n] + b_half*(B/2); divisors order by (surf, b_half)."""

    __slots__ = ("surf", "b_half")
    surf: DivisorClass
    b_half: Fraction

    def __init__(self, surf: DivisorClass, b_half: Fraction | int) -> None:
        _set(self, "surf", surf)
        _set(self, "b_half", b_half if type(b_half) is Fraction else Fraction(b_half))

    def __lt__(self, other: "HilbDivisor") -> bool:
        if other.__class__ is not HilbDivisor:
            return NotImplemented
        return (self.surf, self.b_half) < (other.surf, other.b_half)

    def __add__(self, other: "HilbDivisor") -> "HilbDivisor":
        return HilbDivisor(self.surf + other.surf, self.b_half + other.b_half)

    def __sub__(self, other: "HilbDivisor") -> "HilbDivisor":
        return HilbDivisor(self.surf - other.surf, self.b_half - other.b_half)

    def __mul__(self, scalar: Fraction | int) -> "HilbDivisor":
        s = Fraction(scalar)
        return HilbDivisor(s * self.surf, s * self.b_half)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.b_half == 0:
            return f"({self.surf})^[n]"
        sign = "+" if self.b_half > 0 else "-"
        return f"({self.surf})^[n] {sign} {format_rational(abs(self.b_half))}*B/2"


def lift(surf: DivisorClass) -> HilbDivisor:
    """The induced divisor surf^[n] (no B component)."""
    return HilbDivisor(surf, Fraction(0))


class ContractedCurve(Record):
    """The Hilbert-Chow contracted curve: pairs 0 with every surf^[n], -2 with B."""

    __slots__ = ()


class InducedCurve(Record):
    """n points moving along a curve of class c on the surface."""

    __slots__ = ("c",)
    c: DivisorClass


CurveClass = ContractedCurve | InducedCurve

C0 = ContractedCurve()


def pair_hilb(d: HilbDivisor, curve: CurveClass, n: int) -> Fraction:
    """Intersection of a Hilbert-scheme divisor with a curve class.

    Contracted curve: -b_half.  Induced curve of class c:
    c.surf + b_half*(g(c) - 1 + n), from C_[n].B = 2g(c) - 2 + 2n.
    """
    if n < 2:
        raise ValueError("the Hilbert scheme pairing needs n >= 2")
    if isinstance(curve, ContractedCurve):
        return -d.b_half
    g = arithmetic_genus(curve.c)
    return intersect(curve.c, d.surf) + d.b_half * (g - 1 + n)


def b_negative_ray(n: int) -> HilbDivisor:
    """(n-1) F^[n] - B/2, the extreme B-negative edge of the bounding cone hull."""
    if n < 2:
        raise ValueError("n >= 2 required")
    return HilbDivisor((n - 1) * F, Fraction(-1))


def _orthogonal_scale(cf: Fraction | int, n: int) -> Fraction:
    """x with fiber_orthogonal_lift(c, n) = x*c^[n] + b_negative_ray(n) for
    every class c with c.F = cf."""
    if n < 3:
        raise ValueError("n >= 3 required")
    if cf == 0:
        raise ValueError("class pairs to zero with the fiber; no orthogonal lift")
    return Fraction(n) / cf


def fiber_orthogonal_lift(c: DivisorClass, n: int) -> HilbDivisor:
    """x*c^[n] + (n-1)F^[n] - B/2 with x = n/(c.F), the unique member of that
    pencil pairing to zero with the induced fiber curve."""
    x = _orthogonal_scale(intersect(c, F), n)
    ray = b_negative_ray(n)
    return HilbDivisor(x * c + ray.surf, ray.b_half)


class DecompositionError(ValueError):
    """Raised when a divisor cannot be written as nef part plus B-negative ray."""

    def __init__(self, message: str, witness: DivisorClass | None = None, pairing=None):
        super().__init__(message)
        self.witness = witness
        self.pairing = pairing


def nef_part(d: HilbDivisor, n: int) -> DivisorClass:
    """The surface class of d - t * b_negative_ray(n), t = -b_half, which has
    no B component."""
    return (d + d.b_half * b_negative_ray(n)).surf


def bounding_cone_decompose(d: HilbDivisor, n: int) -> tuple[DivisorClass, Fraction]:
    """Write d = nef_part^[n] + t * b_negative_ray(n) with t = -b_half >= 0.

    The nef part is certified nef for all curves (`is_nef`): its fiber
    pairing equals surf.F and its pairing with a (-1)-curve equals the
    pairing of d with the induced curve, so membership transfers exactly.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    if d.b_half > 0:
        raise DecompositionError(
            "positive B/2 coefficient pairs negatively with the contracted curve"
        )
    part = nef_part(d, n)
    cert = is_nef(part)
    if not cert.nef:
        against = "the fiber class" if cert.witness == F else "a (-1)-curve"
        if cert.witness is None:
            against = "the Hodge index theorem: D.F = 0 and D.D < 0"
        raise DecompositionError(
            f"nef part fails against {against}",
            witness=cert.witness,
            pairing=cert.witness_pairing,
        )
    return part, -d.b_half


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


class CurveRow(Record):
    """Summary of the duality scan for one curve and, for a (-1)-curve, every
    curve of its S9 orbit: the curve (the orbit's representative, its least
    class), how many curves the row stands for, the smallest pairing of one
    of them, how many nef candidates pair zero with one of them, and the
    first such candidate for the curve itself as extremality witness.
    Permuting E1..E9 maps the candidates onto themselves, so every curve of
    the orbit has the same smallest pairing and zero count."""

    __slots__ = ("curve", "arrangements", "min_pairing", "zero_count", "witness")
    curve: str
    arrangements: int
    min_pairing: Fraction
    zero_count: int
    witness: str | None

    def to_json(self) -> dict:
        return {
            "arrangements": self.arrangements,
            "curve": self.curve,
            "min_pairing": format_rational(self.min_pairing),
            "zero_count": self.zero_count,
            "orthogonality_witness": self.witness,
        }


class DualityReport(Record):
    """Exhaustive degree-bounded scan of candidate nef generators against
    candidate curve generators, with orthogonality witnesses for extremality."""

    __slots__ = (
        "n",
        "degree_bound",
        "nef_candidate_count",
        "curve_candidate_count",
        "pairings_checked",
        "violations",
        "unwitnessed_curves",
        "min_pairing",
        "passed",
        "curve_rows",
    )
    n: int
    degree_bound: int
    nef_candidate_count: int
    curve_candidate_count: int
    pairings_checked: int
    violations: tuple[str, ...]
    unwitnessed_curves: tuple[str, ...]
    min_pairing: Fraction
    passed: bool
    curve_rows: tuple[CurveRow, ...]

    def to_json(self, include_curves: bool = True) -> dict:
        data = {
            "n": self.n,
            "degree_bound": self.degree_bound,
            "nef_candidates": self.nef_candidate_count,
            "curve_candidates": self.curve_candidate_count,
            "pairings_checked": self.pairings_checked,
            "violations": list(self.violations),
            "curves_without_orthogonality_witness": list(self.unwitnessed_curves),
            "min_pairing": format_rational(self.min_pairing),
            "passed": self.passed,
        }
        if include_curves:
            data["curves"] = [row.to_json() for row in self.curve_rows]
        return data


_FIBER_COLUMN = 1  # the induced fiber curve follows the contracted curve


class _DotProfile(Record):
    """The n-independent part of the duality scan at one degree bound.

    The orbit blocks are {F}, the Weyl orbit of H and the Weyl orbit of H-E1,
    each read from its sorted S9 representatives (`weyl._degree_groups`)
    and never listed: `blocks[k]` is (start, size, start.F), and every class
    of block k has c.F = start.F.  The columns are the contracted curve, the
    induced fiber curve, then one induced (-1)-curve per S9 orbit, the
    orbit's representative e (its least class, read from
    `weyl._degree_groups(E9, k)`): `curves[m]` is (label, curve, number of
    curves in its orbit).  Permuting E1..E9 maps each block onto itself and
    fixes F, so the least t = c.e over a block, and how many classes reach
    it, are the same for every curve of the orbit.  `counts[k][m]` is that
    (least t, count) for block k and column m, and `first[k][m]` is the
    least class of block k at the one value of t that can pair zero with
    column m's curve, its witness, or None when no class has it: t is
    constant on a block for the contracted and the fiber curve, and the ray
    pairs to zero with a (-1)-curve, so a zero pairing there needs t = 0 for
    every n.
    """

    __slots__ = ("blocks", "curves", "counts", "first")
    blocks: tuple[tuple[DivisorClass, int, int], ...]
    curves: tuple[tuple[str, CurveClass, int], ...]
    counts: tuple[tuple[tuple[int, int], ...], ...]
    first: tuple[tuple[DivisorClass | None, ...], ...]


@lru_cache(maxsize=8)
def _dot_profile(max_h_degree: int) -> _DotProfile:
    """The profile, read per (block representative, column) from the
    rearrangement bound.  It builds no class but each block's least class
    and the witnesses.

    A class (a, -b_s) of a representative (a, b) pairs with a column's curve
    e at least `_least_pairing(e, a, b)`, reached by `_least_pairing_count`
    of its arrangements; the least such class at t = 0 is
    `_least_negative_arrangement` below 1, as pairings are integers.

    Lemma: no class of a block pairs negatively with a (-1)-class e.  The
    form is W-invariant, so for c = w(H), c.e = H.(w^-1 e) is the degree of
    a (-1)-class, and for c = w(H-E1), c.e = a - b1 for the (-1)-class
    w^-1 e = aH - sum b_i E_i.  Both are >= 0: a (-1)-class is E_i or has
    sum b = 3a - 1 and sum b^2 = a^2 + 1, and Cauchy-Schwarz on the eight
    other b_j then forces 0 <= b_i <= a.  And F.e = 1.  A representative
    that pairs negatively with a (-1)-column contradicts the lemma and
    raises ArithmeticError.
    """
    curves = [("contracted", C0, 1), ("fiber", InducedCurve(F), 1)]
    for a, _, pairs in _degree_groups(E[8], max_h_degree):
        for b, size in pairs:
            e = DivisorClass((a,) + tuple(-x for x in b))
            curves.append((str(e), InducedCurve(e), size))
    shapes = [curve.c.nums for _, curve, _ in curves[_FIBER_COLUMN + 1 :]]
    blocks, counts, first = [], [], []
    for start in (F, H, H - E[0]):
        # the block is a union of S9 orbits, and its least class is the
        # least representative's (a, -b1, ..., -b9)
        groups = _degree_groups(start, max_h_degree)
        reps = [(a, b) for a, _, pairs in groups for b, _ in pairs]
        least = DivisorClass(min((a,) + tuple(-x for x in b) for a, b in reps))
        fiber = dot_int(start.nums, F.nums)
        size = orbit_size(start, max_h_degree)
        row = [(0, size), (fiber, size)]
        zeros: list[DivisorClass | None] = []
        for e in shapes:
            bounds = [(_least_pairing(e, a, b), a, b) for a, b in reps]
            low = min(t for t, _, _ in bounds)
            if low < 0:
                raise ArithmeticError(
                    f"a class of W.({start}) pairs {low} with the (-1)-class "
                    f"{DivisorClass(e)}"
                )
            reaching = [(a, b) for t, a, b in bounds if t == low]
            row.append((low, sum(_least_pairing_count(e, b) for _, b in reaching)))
            if low:
                zeros.append(None)
                continue
            top = min(a for a, _ in reaching)  # the least class has the least a
            witness = min(
                _least_negative_arrangement(e, top, b, 1) for a, b in reaching if a == top
            )
            zeros.append(DivisorClass((top,) + witness))
        blocks.append((start, size, fiber))
        counts.append(tuple(row))
        first.append((least, least) + tuple(zeros))
    return _DotProfile(tuple(blocks), tuple(curves), tuple(counts), tuple(first))


def cone_duality_check(n: int, max_h_degree: int = 3) -> DualityReport:
    """Scan every candidate nef generator against every candidate curve class.

    Nef candidates: the lifted fiber class, lifted Weyl images of H and H-E1,
    and the fiber-orthogonal lift of each Weyl image.  Curve candidates: the
    contracted curve, the induced fiber curve, and every induced (-1)-curve
    up to the bound.  Passing means no negative pairing and, for every curve,
    some nef candidate pairing to exactly zero.  The report has one row per
    column of `_dot_profile`: the contracted curve, the fiber curve and one
    S9 orbit of (-1)-curves, labelled by its representative.

    The candidates form five blocks: c^[n] for c in an orbit block, then
    x*c^[n] + b_negative_ray(n) for c in a Weyl orbit, where x = n/(c.F) > 0
    is shared by the block.  A pairing with a curve e is x*(c.e), plus ray.e
    in an orthogonal block, so it grows with t = c.e.  The per-degree
    `_dot_profile` holds the least t per block and column, with how many
    classes reach it, and each column's witness class per block, so the
    minimum and zero count of a column and the first witness of its curve,
    in candidate order, come from a few exact operations per block and n,
    and ray.e from one `pair_hilb` per column.  On a (-1)-curve ray.e = 0
    (checked here) and t >= 0 (the profile's lemma), so a zero needs t = 0
    whatever n is.  c.F is one value per block, so one identity
    x*(c.F) + ray.F_[n] = 0 checks that a whole orthogonal block kills the
    induced fiber curve.  A candidate is built only to print it as a
    witness.  A falsified scan prints one line per negative (block, column),
    with its least pairing and how many candidates reach it, then one line
    per orthogonal block whose identity fails.  `curve_candidates` counts
    curves, not rows, and `pairings_checked` the (candidate, curve) pairs
    certified.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    profile = _dot_profile(max_h_degree)
    ray = b_negative_ray(n)
    # ray.e per column: permuting E1..E9 fixes F, so e.F and the genus of e,
    # hence ray.e, are one value on an S9 orbit
    ray_pairings = [pair_hilb(ray, curve, n) for _, curve, _ in profile.curves]
    if any(ray_pairings[_FIBER_COLUMN + 1 :]):
        raise ValueError("the B-negative ray pairs nonzero with an induced (-1)-curve")

    # (orbit block, x, orthogonal, label) in candidate order: c^[n] over each
    # orbit block, then the fiber-orthogonal lifts of the two Weyl orbits
    blocks = []
    offset = 0
    for k, orthogonal in ((0, False), (1, False), (2, False), (1, True), (2, True)):
        start, size, fiber = profile.blocks[k]
        x = _orthogonal_scale(fiber, n) if orthogonal else Fraction(1)
        kind = "fiber-orthogonal lifts" if orthogonal else "lifts"
        blocks.append((k, x, orthogonal, f"the {size} {kind} of W.({start})"))
        offset += size

    # Per column: the minimum, the zero count, and the witness of the first
    # block with a zero; each negative (block, column) as a violation, in
    # block-major order.
    rows = []
    negative = []  # (block position, violation)
    for m, (label, _, arrangements) in enumerate(profile.curves):
        s_m = ray_pairings[m]
        low: Fraction | None = None
        zero_count = 0
        witness = None
        for j, (k, x, orthogonal, block) in enumerate(blocks):
            t, count = profile.counts[k][m]
            value = x * t + (s_m if orthogonal else 0)
            if low is None or value < low:
                low = value
            if value < 0:
                negative.append((j, f"{count} of {block} against {label}: {value}"))
            elif value == 0:
                zero_count += count
                if witness is None:
                    c = profile.first[k][m]
                    witness = str(fiber_orthogonal_lift(c, n) if orthogonal else lift(c))
        rows.append(CurveRow(label, arrangements, low, zero_count, witness))
    violations = [line for _, line in sorted(negative, key=lambda item: item[0])]

    # One identity per orthogonal block, as c.F is constant on it.
    ray_fiber = ray_pairings[_FIBER_COLUMN]
    violations += [
        f"none of {block} is orthogonal to the induced fiber curve"
        for k, x, orthogonal, block in blocks
        if orthogonal and x * profile.blocks[k][2] + ray_fiber != 0
    ]

    rows = tuple(rows)
    unwitnessed = tuple(row.curve for row in rows if row.witness is None)
    curve_count = sum(row.arrangements for row in rows)
    return DualityReport(
        n=n,
        degree_bound=max_h_degree,
        nef_candidate_count=offset,
        curve_candidate_count=curve_count,
        pairings_checked=offset * curve_count,
        violations=tuple(violations),
        unwitnessed_curves=unwitnessed,
        min_pairing=min(row.min_pairing for row in rows),
        passed=not violations and not unwitnessed,
        curve_rows=rows,
    )
