"""Numerical stability-condition machinery on an (A, P)-slice.

A slice is the half-plane of stability conditions (s, t), t > 0, attached to
a polarization A and a twist divisor P.  Everything here is numerical: Chern
characters are (rank, c1, ch2) triples, walls are loci where two characters
have equal tilted slope, and all decisions are made in exact rational
arithmetic.  t never appears directly; every formula is polynomial in s and
t^2, so walls come out as circles with rational center and radius squared.

Every wall in a certificate or report is the wall of a rank-1 character
against the ideal sheaf of n points, and comes from rank_one_wall, its closed
form.  wall_oracle is the reference: it expands the central-charge equality
of any two characters as a polynomial identity in (s, t^2).  The two must
agree exactly; gieseker_wall checks this on the fiber wall at run time, and
the test suite compares them on random inputs and on every candidate shape.
Rank >= 2 destabilizers are excluded by one radius bound, rank2_radius_bound,
evaluated with the exact A.A.  Every value here is computed exactly, once;
the commonly quoted closed forms are replayed only by reporting.

The rank-1 candidate pool is held as orbits of the permutations of E2..E9,
which fix both slices, the twist and every filter and wall: one
representative per orbit (E1, E9, or aH - sum b_i E_i with b2 >= ... >= b9)
carries its orbit size, and the filters and walls run once per orbit.  The
report lists one candidate row per orbit, as `weyl orbit` lists one row per
S9 orbit: the representative's text, the orbit size (`arrangements`), the
filter and the wall.  The shape-by-shape list is walked, in pool order, only
when the pool is iterated.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .lattice import (
    RANK,
    DivisorClass,
    F,
    K,
    ZERO,
    dot_int,
    format_rational,
    intersect,
    self_intersection,
)
from .hilb import HilbDivisor
from .record import Record, _set
from .surface_cones import a1_polarization, a2_polarization
from .weyl import _arrangements


class ChernChar(Record):
    """Numerical Chern character (ch0, ch1, ch2)."""

    __slots__ = ("rank", "c1", "ch2")
    rank: int
    c1: DivisorClass
    ch2: Fraction

    def __init__(self, rank: int, c1: DivisorClass, ch2: Fraction | int) -> None:
        _set(self, "rank", rank)
        _set(self, "c1", c1)
        _set(self, "ch2", ch2 if type(ch2) is Fraction else Fraction(ch2))


def ideal_points_char(n: int) -> ChernChar:
    """Character (1, 0, -n) of the ideal sheaf of n points."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return ChernChar(1, ZERO, Fraction(-n))


def line_bundle_char(c1: DivisorClass, points: int = 0) -> ChernChar:
    """(1, c1, c1^2/2 - points): a line bundle, optionally twisted by points."""
    if points < 0:
        raise ValueError("points >= 0 required")
    return ChernChar(1, c1, self_intersection(c1) / 2 - points)


class Slice(Record):
    """The (A, P) half-plane of stability conditions for the n-point problem.

    A is the polarization and P the twist.  a_squared, the exact A.A, is
    computed on construction; every wall and bound of the slice reads it.
    ruling_based marks the slice on the ruling family, the only one that
    applies the ruling_excess filter.
    """

    __slots__ = (
        "label",
        "polarization",
        "twist",
        "n",
        "ruling_based",
        "a_squared",
    )
    label: str
    polarization: DivisorClass
    twist: DivisorClass
    n: int
    ruling_based: bool
    a_squared: Fraction

    def __init__(
        self,
        label: str,
        polarization: DivisorClass,
        twist: DivisorClass,
        n: int,
        ruling_based: bool,
    ) -> None:
        if n < 3:
            raise ValueError("n >= 3 required")
        a_squared = self_intersection(polarization)
        if a_squared <= 0:
            raise ValueError("polarization must have positive self-intersection")
        if intersect(polarization, F) <= 0:
            raise ValueError("polarization must meet the fiber positively")
        super().__init__(label, polarization, twist, n, ruling_based, a_squared)


def slice_a1(n: int) -> Slice:
    """Slice on the H-family polarization (n/3)H + (n - 3/2)F, twist -F."""
    return Slice("A1", a1_polarization(n), -1 * F, n, ruling_based=False)


def slice_a2(n: int) -> Slice:
    """Slice on the ruling-family polarization (n/2)(H - E1) + (n - 3/2)F."""
    return Slice("A2", a2_polarization(n), -1 * F, n, ruling_based=True)


def slice_for(label: str, n: int) -> Slice:
    """The slice named "A1" or "A2" at n."""
    return {"A1": slice_a1, "A2": slice_a2}[label](n)


class Wall(Record):
    """Semicircular wall: (s - center)^2 + t^2 = radius_sq.  Empty if
    radius_sq <= 0 (the locus needs t > 0)."""

    __slots__ = ("center", "radius_sq")
    center: Fraction
    radius_sq: Fraction

    @property
    def is_empty(self) -> bool:
        return self.radius_sq <= 0

    def to_json(self) -> dict:
        return {
            "center": format_rational(self.center),
            "radius_sq": format_rational(self.radius_sq),
        }

    def __str__(self) -> str:
        return (
            f"wall center {format_rational(self.center)}"
            f" radius^2 {format_rational(self.radius_sq)}"
        )


class VerticalWall(Record):
    """Degenerate wall: the vertical line s = const (equal slopes)."""

    __slots__ = ("s",)
    s: Fraction

    def __str__(self) -> str:
        return f"vertical wall s = {format_rational(self.s)}"


class DegenerateWall(Record):
    """Proportional charges (everywhere) or an unsatisfiable equation (empty)."""

    __slots__ = ("everywhere",)
    everywhere: bool

    def __str__(self) -> str:
        return "degenerate wall (everywhere)" if self.everywhere else "empty wall locus"


NumericalWall = Wall | VerticalWall | DegenerateWall


def rank_one_wall(sl: Slice, ch: ChernChar) -> NumericalWall:
    """Wall of a rank-1 character ch = (1, l, ch2) against the ideal sheaf of
    n points, in closed form.  With x = n + ch2 - P.l and mu = A.(l - P)/A^2
    the twisted slope of ch, it is the circle of center x/(A.l) and radius^2
    center^2 - 2 center mu + (2 ch2 - 2 P.l + P^2)/A^2.  When A.l = 0 the
    two slopes agree: the wall is everywhere if x = 0, else the vertical
    line s = mu."""
    if ch.rank != 1:
        raise ValueError("rank_one_wall needs a rank-1 character; use wall_oracle")
    a_sq, p, l = sl.a_squared, sl.twist, ch.c1
    a_l = intersect(sl.polarization, l)
    p_l = intersect(p, l)
    x = sl.n + ch.ch2 - p_l
    mu = (a_l - intersect(sl.polarization, p)) / a_sq
    if a_l == 0:
        return DegenerateWall(everywhere=True) if x == 0 else VerticalWall(mu)
    center = x / a_l
    tail = (2 * ch.ch2 - 2 * p_l + self_intersection(p)) / a_sq
    return Wall(center, center * center - 2 * center * mu + tail)


def _charge_polynomials(sl: Slice, ch: ChernChar):
    # re(s, tau) and im(s)/t as coefficient dicts over monomials s^i tau^j
    a_sq = sl.a_squared
    alpha = intersect(sl.polarization, ch.c1) - ch.rank * intersect(
        sl.polarization, sl.twist
    )
    gamma = (
        -ch.ch2
        + intersect(sl.twist, ch.c1)
        - Fraction(ch.rank) * self_intersection(sl.twist) / 2
    )
    half_ra = Fraction(ch.rank) * a_sq / 2
    re = {(0, 0): gamma, (1, 0): alpha, (2, 0): -half_ra, (0, 1): half_ra}
    im = {(0, 0): alpha, (1, 0): -Fraction(ch.rank) * a_sq}
    return re, im


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), c in p.items():
        if c == 0:
            continue
        for (k, l), d in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, Fraction(0)) + c * d
    return out


def wall_oracle(sl: Slice, ch_e: ChernChar, ch_f: ChernChar) -> NumericalWall:
    """Wall from first principles: expand re(Z_E) im(Z_F) - re(Z_F) im(Z_E)
    as a polynomial in (s, t^2) and read off the circle it cuts out."""
    re_e, im_e = _charge_polynomials(sl, ch_e)
    re_f, im_f = _charge_polynomials(sl, ch_f)
    eq = _poly_mul(re_e, im_f)
    for key, c in _poly_mul(re_f, im_e).items():
        eq[key] = eq.get(key, Fraction(0)) - c
    eq = {key: c for key, c in eq.items() if c != 0}
    stray = set(eq) - {(2, 0), (0, 1), (1, 0), (0, 0)}
    if stray:
        raise ArithmeticError(f"wall locus is not a circle: monomials {sorted(stray)}")
    c20 = eq.get((2, 0), Fraction(0))
    c01 = eq.get((0, 1), Fraction(0))
    c10 = eq.get((1, 0), Fraction(0))
    c00 = eq.get((0, 0), Fraction(0))
    if c20 != c01:
        raise ArithmeticError("s^2 and t^2 coefficients differ; not a circle")
    if c20 != 0:
        center = -c10 / (2 * c20)
        return Wall(center, center * center - c00 / c20)
    if c10 != 0:
        return VerticalWall(-c00 / c10)
    return DegenerateWall(everywhere=(c00 == 0))


# -- rank-1 candidate search -------------------------------------------------


class WallCandidate(Record):
    """One antieffective candidate O(l) with l = -shape.  shape is stored as
    integer coordinates; filtered_by is the first eliminating filter or None
    for survivors, which carry their wall."""

    __slots__ = ("shape", "filtered_by", "wall")
    shape: tuple[int, ...]
    filtered_by: str | None
    wall: NumericalWall | None

    # written out, as iterating a pool builds one per shape
    def __init__(
        self, shape: tuple[int, ...], filtered_by: str | None, wall: NumericalWall | None
    ) -> None:
        _set(self, "shape", shape)
        _set(self, "filtered_by", filtered_by)
        _set(self, "wall", wall)

    def shape_class(self) -> DivisorClass:
        return DivisorClass(self.shape)

    def to_json(self) -> dict:
        """The filter and, for a survivor, the wall: the part of a report row
        that an orbit's shapes share (see CandidatePool.to_json)."""
        row: dict = {"filter": self.filtered_by}
        if self.wall is not None:
            row["wall"] = self.wall.to_json()
        return row


FILTER_ORDER = ("slope", "fiber_degree", "fiber_component", "ruling_excess")

_E_SHAPES = tuple(tuple(int(j == i + 1) for j in range(RANK)) for i in range(9))


@lru_cache(maxsize=16)
def _degree_orbits(a: int) -> tuple[tuple[tuple[int, ...], int, int, int, int], ...]:
    """The E2..E9 orbits of candidate shapes -l of H-degree a: the E_i for
    a = 0 ({E1} and {E2..E9}), else aH - sum b_i E_i with 0 <= b_i <= a and
    sum b_i <= 3a (effectivity caps).  Rows are (representative shape with
    e2 <= ... <= e9, orbit size 8!/prod m_k! (`weyl._arrangements`),
    fiber_degree, b1, sum of b_2..b_9)."""
    if a == 0:
        return ((_E_SHAPES[0], 1, 1, 0, 0), (_E_SHAPES[8], 8, 1, 0, 0))
    rows = []
    for b1 in range(a + 1):
        for tail in itertools.combinations_with_replacement(range(a, -1, -1), 8):
            rest = sum(tail)
            if b1 + rest > 3 * a:
                continue
            coords = (a, -b1) + tuple(-x for x in tail)
            rows.append((coords, _arrangements(tail), 3 * a - b1 - rest, b1, rest))
    return tuple(rows)


def _pool_shapes(max_h_degree: int):
    """Every candidate shape in pool order: the E_i, then degree by degree the
    aH - sum b_i E_i with (b1, ..., b9) in itertools.product order."""
    yield from _E_SHAPES
    for a in range(1, max_h_degree + 1):
        coefficients = range(0, -a - 1, -1)  # -b for b = 0..a
        for head in itertools.product(coefficients, repeat=8):
            left = 3 * a + sum(head)  # what sum b_i <= 3a leaves b9
            for e9 in range(0, -min(a, left) - 1, -1):
                yield (a,) + head + (e9,)


class CandidatePool(Record):
    """The rank-1 candidates of one slice, held as E2..E9 orbits.

    orbits pairs each orbit's representative candidate (its sorted shape,
    filter verdict and wall) with the orbit size.  len() is the number of
    shapes.  The report lists one row per orbit (to_json); iterating expands
    the pool into every shape's candidate, in pool order.
    """

    __slots__ = ("max_h_degree", "orbits")
    max_h_degree: int
    orbits: tuple[tuple[WallCandidate, int], ...]

    def __len__(self) -> int:
        return sum(size for _, size in self.orbits)

    def __iter__(self):
        """Every shape's candidate in pool order (_pool_shapes), each reusing
        its orbit's filter name and Wall object."""
        orbit_of = {rep.shape: rep for rep, _ in self.orbits}
        for shape in _pool_shapes(self.max_h_degree):
            # the representative has the shape's a and e1, and e2 <= ... <= e9
            rep = orbit_of[shape[:2] + tuple(sorted(shape[2:]))]
            yield WallCandidate(shape, rep.filtered_by, rep.wall)

    def to_json(self) -> list[dict]:
        """The report's candidate list: one row per orbit, in the order of
        orbits, with the orbit size as arrangements and the representative's
        text.  Rows with the same filter and wall share one wall dict."""
        verdicts: dict = {}
        rows = []
        for rep, size in self.orbits:
            key = (rep.filtered_by, rep.wall)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = rep.to_json()
            text = str(rep.shape_class())
            rows.append({"arrangements": size, "representative": text, **verdict})
        return rows


def rank1_candidates(sl: Slice, max_h_degree: int = 3) -> CandidatePool:
    """Enumerate rank-1 destabilizer candidates and replay the case filters.

    A candidate is eliminated by the first filter it trips, in FILTER_ORDER:
    slope (meets A more than n, so it cannot destabilize the ideal sheaf),
    fiber_degree (meets F at least twice), fiber_component (vertical class
    that is not a full fiber multiple), and, on the ruling-based slice only,
    ruling_excess (ruling multiples with more exceptional multiplicity than
    ruling degree).  Survivors get their wall against the ideal character.

    Both slices' A and P = -F are fixed by every permutation of E2..E9, and
    so are the filters (they read A.l, the fiber degree, a, b1 and
    b2 + ... + b9) and the wall (it reads l.A, l^2 and l.P).  So each is
    computed once per orbit, on the representative with e2 <= ... <= e9:
    193 orbits for the 34,162 shapes up to degree 3.
    """
    if max_h_degree < 0:
        raise ValueError("max_h_degree >= 0 required")
    a_ints = sl.polarization.nums
    slope_cap = sl.n * sl.polarization.den
    orbits: list[tuple[WallCandidate, int]] = []
    for a in range(max_h_degree + 1):
        for coords, size, f_deg, b1, rest in _degree_orbits(a):
            if dot_int(coords, a_ints) > slope_cap:
                filtered = "slope"
            elif f_deg >= 2:
                filtered = "fiber_degree"
            # D.F = 0 and D.D = 0 give D in ZF, as F^perp/F = E8 is definite
            # and F is primitive
            elif f_deg == 0 and dot_int(coords, coords) != 0:
                filtered = "fiber_component"
            elif sl.ruling_based and a == b1 >= 1 and rest > a:
                filtered = "ruling_excess"
            else:
                filtered = None
            wall = None
            if filtered is None:
                l_cls = -1 * DivisorClass(coords)
                wall = rank_one_wall(sl, line_bundle_char(l_cls))
            orbits.append((WallCandidate(coords, filtered, wall), size))
    return CandidatePool(max_h_degree, tuple(orbits))


def rank2_radius_bound(sl: Slice) -> Fraction:
    """Radius^2 cap for rank >= 2 destabilizers,
    (2n A^2 + (A.F)^2 - A^2 F^2) / (8 (A^2)^2), with the exact A.A."""
    a_sq = sl.a_squared
    a_dot_f = intersect(sl.polarization, F)
    return (2 * sl.n * a_sq + a_dot_f**2 - a_sq * self_intersection(F)) / (
        8 * a_sq * a_sq
    )


class GiesekerFalsified(Exception):
    """The claimed extremal wall is not extremal at this n and bound."""

    def __init__(self, message: str, witness: WallCandidate | None = None):
        super().__init__(message)
        self.witness = witness


class GiesekerCertificate(Record):
    __slots__ = (
        "slice_label",
        "n",
        "degree_bound",
        "fiber_wall",
        "candidate_count",
        "eliminated",
        "survivor_count",
        "empty_survivor_walls",
        "min_survivor_center",
        "walls_equal_to_fiber_wall",
        "rank2_bound",
        "certified",
        "candidates",
    )
    slice_label: str
    n: int
    degree_bound: int
    fiber_wall: Wall
    candidate_count: int
    eliminated: tuple[tuple[str, int], ...]
    survivor_count: int
    empty_survivor_walls: int
    min_survivor_center: Fraction | None
    walls_equal_to_fiber_wall: int
    rank2_bound: Fraction
    certified: bool
    candidates: CandidatePool

    def to_json(self, include_candidates: bool = True) -> dict:
        """The certificate's report, with one candidate row per E2..E9 orbit."""
        data = {
            "slice": self.slice_label,
            "n": self.n,
            "degree_bound": self.degree_bound,
            "fiber_wall": self.fiber_wall.to_json(),
            "candidate_count": self.candidate_count,
            "eliminated": {name: count for name, count in self.eliminated},
            "survivor_count": self.survivor_count,
            "empty_survivor_walls": self.empty_survivor_walls,
            "min_survivor_center": (
                None
                if self.min_survivor_center is None
                else format_rational(self.min_survivor_center)
            ),
            "walls_equal_to_fiber_wall": self.walls_equal_to_fiber_wall,
            "rank2_radius_bound": format_rational(self.rank2_bound),
            "certified": self.certified,
        }
        if include_candidates:
            data["candidates"] = self.candidates.to_json()
        return data


def _falsification(cand: WallCandidate, fiber_wall: Wall) -> str | None:
    """Why a surviving candidate refutes the fiber wall, or None."""
    if cand.filtered_by is not None:
        return None
    wall = cand.wall
    if not isinstance(wall, Wall):
        return f"candidate {cand.shape_class()} gave a non-circular wall {wall}"
    if not wall.is_empty and wall.center < fiber_wall.center:
        return (
            f"candidate {cand.shape_class()} has wall center "
            f"{format_rational(wall.center)} left of the fiber wall"
        )
    return None


def gieseker_wall(
    sl: Slice, max_h_degree: int = 3
) -> tuple[Wall, GiesekerCertificate]:
    """Certify the wall where ideal sheaves of n points first destabilize.

    The claim: the fiber wall W(O(-F), ideal) is the largest wall.  Checked
    by (i) the nesting rule (smaller center = larger wall), requiring every
    nonempty rank-1 candidate wall to have center >= the fiber wall's, and
    (ii) the rank-2 radius cap staying below the fiber wall's radius^2.
    Raises GiesekerFalsified on any violation.
    """
    fiber = line_bundle_char(-1 * F)
    fiber_wall = rank_one_wall(sl, fiber)
    if not isinstance(fiber_wall, Wall) or fiber_wall.is_empty:
        raise GiesekerFalsified(f"fiber wall degenerated: {fiber_wall}")
    oracle_fiber = wall_oracle(sl, fiber, ideal_points_char(sl.n))
    if oracle_fiber != fiber_wall:
        raise GiesekerFalsified(
            f"wall formulas disagree on the fiber wall: {fiber_wall} vs {oracle_fiber}"
        )

    candidates = rank1_candidates(sl, max_h_degree)
    eliminated = {name: 0 for name in FILTER_ORDER}
    survivors = 0
    empty_walls = 0
    coincident = 0
    min_center: Fraction | None = None
    for rep, size in candidates.orbits:
        if rep.filtered_by is not None:
            eliminated[rep.filtered_by] += size
            continue
        survivors += size
        wall = rep.wall
        if _falsification(rep, fiber_wall) is not None:
            # the witness is the first failing shape in pool order
            for cand in candidates:
                message = _falsification(cand, fiber_wall)
                if message is not None:
                    raise GiesekerFalsified(message, witness=cand)
        if wall.is_empty:
            empty_walls += size
            continue
        if min_center is None or wall.center < min_center:
            min_center = wall.center
        if wall == fiber_wall:
            coincident += size

    bound = rank2_radius_bound(sl)
    if bound >= fiber_wall.radius_sq:
        raise GiesekerFalsified(
            f"rank-2 radius bound {format_rational(bound)} reaches "
            f"the fiber wall radius^2 {format_rational(fiber_wall.radius_sq)}"
        )

    cert = GiesekerCertificate(
        slice_label=sl.label,
        n=sl.n,
        degree_bound=max_h_degree,
        fiber_wall=fiber_wall,
        candidate_count=len(candidates),
        eliminated=tuple((name, eliminated[name]) for name in FILTER_ORDER),
        survivor_count=survivors,
        empty_survivor_walls=empty_walls,
        min_survivor_center=min_center,
        walls_equal_to_fiber_wall=coincident,
        rank2_bound=bound,
        certified=True,
        candidates=candidates,
    )
    return fiber_wall, cert


def nef_from_wall(sl: Slice, s_w: Fraction) -> HilbDivisor:
    """The divisor K/2 - s_W A - P on the surface side, minus B/2: at the
    certified wall center this lands exactly on the orthogonal-lift classes
    (epsilon of H on the H-family slice, of H - E1 on the ruling slice)."""
    s_w = Fraction(s_w)
    surf = Fraction(1, 2) * K - s_w * sl.polarization - sl.twist
    return HilbDivisor(surf, Fraction(-1))
