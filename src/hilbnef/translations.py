"""Lattice translations attached to sections of the elliptic fibration.

Every (-1)-class P with P.F = 1 determines an integral isometry
    T(x) = x + (x.F) v - [(x.v) + (v.v/2)(x.F)] F,   v = P - E1,
fixing F and K and carrying E1 to P.  These are the candidates for the
automorphisms furnished by fiberwise translation; this module stores each
as an integer `LatticeMap`, checks the lattice-level necessary conditions
and runs the fundamental-domain reduction experiment on the Hilbert
scheme's bounding cone.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .lattice import (
    BASIS,
    RANK,
    DivisorClass,
    E,
    F,
    H,
    K,
    ZERO,
    dot_int,
    format_rational,
    intersect,
    is_minus_one_class,
    self_intersection,
)
from .record import Record, _set
from .weyl import enumerate_minus_one_classes, orbit_class, orbit_size, root_basis
from .hilb import (
    DecompositionError,
    HilbDivisor,
    bounding_cone_decompose,
    fiber_orthogonal_lift,
    lift,
    nef_part,
)


class LatticeMap(Record):
    """Integer 10x10 matrix of a lattice endomorphism: rows[i][j] is
    coordinate i of the image of basis class j."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != RANK or any(len(r) != RANK for r in rows):
            raise ValueError("expected a 10x10 matrix")
        if not all(type(x) is int for r in rows for x in r):
            raise TypeError("matrix entries must be ints")
        _set(self, "rows", rows)

    @classmethod
    def from_basis_images(cls, images: Iterable[DivisorClass]) -> "LatticeMap":
        """Build from the integral images of H, E1, ..., E9 (column data)."""
        images = list(images)
        if len(images) != RANK:
            raise ValueError("need 10 basis images")
        for img in images:
            if img.den != 1:
                raise ValueError(f"basis image is not integral: {img}")
        return cls(tuple(zip(*(img.nums for img in images))))

    def apply(self, d: DivisorClass) -> DivisorClass:
        """The matrix times d's numerators, over d's denominator."""
        return DivisorClass(
            tuple(sum(x * y for x, y in zip(r, d.nums)) for r in self.rows), d.den
        )

    def is_isometry(self) -> bool:
        """M b_i . M b_j = b_i . b_j for every pair of basis classes."""
        cols = tuple(zip(*self.rows))
        return all(
            dot_int(cols[i], cols[j]) == dot_int(BASIS[i].nums, BASIS[j].nums)
            for i in range(RANK)
            for j in range(i, RANK)
        )

    def determinant(self) -> int:
        """Exact, by fraction-free (Bareiss) elimination: every division is
        exact, and the last pivot is the determinant up to row swaps."""
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(RANK - 1):
            if m[k][k] == 0:
                pivot = next((r for r in range(k + 1, RANK) if m[r][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, RANK):
                for j in range(k + 1, RANK):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[-1][-1]


def _transvect(x: tuple[int, ...], v: tuple[int, ...], c: int) -> tuple[int, ...]:
    """x + (x.F) v - [(x.v) + c (x.F)] F on integer numerators.  Linear, so
    it applies to a class's nums over any denominator."""
    xf = dot_int(x, F.nums)
    return _shift(x, v, xf, dot_int(x, v) + c * xf)


def _shift(x: tuple[int, ...], v: tuple[int, ...], xf: int, bracket: int) -> tuple[int, ...]:
    """x + xf v - bracket F, the transvection with its two pairings given."""
    return tuple(xi + xf * vi - bracket * fi for xi, vi, fi in zip(x, v, F.nums))


def _section_move(p: DivisorClass) -> tuple[tuple[int, ...], int]:
    """(v, c) of the transvection sending E1 to p: v = p - E1, c = v.v/2."""
    v = p - E[0]
    c = self_intersection(v) / 2
    if c.denominator != 1:
        raise ArithmeticError("v.v is always even for a section difference")
    return v.nums, int(c)


class Translation(Record):
    """A section class together with its transvection on the lattice."""

    __slots__ = ("section", "map")
    section: DivisorClass
    map: LatticeMap

    def __str__(self) -> str:
        return f"translation by {self.section}"


def translation(p: DivisorClass) -> Translation:
    """Transvection sending E1 to p; p = E1 gives the identity."""
    if not is_minus_one_class(p):
        raise ValueError(f"section must be a (-1)-class: {p}")
    if intersect(p, F) != 1:
        raise ValueError(f"section must meet the fiber once: {p}")
    v, c = _section_move(p)
    images = [DivisorClass(_transvect(b.nums, v, c)) for b in BASIS]
    return Translation(p, LatticeMap.from_basis_images(images))


def weyl_condition_failures(
    m: LatticeMap, section: DivisorClass | None = None
) -> tuple[str, ...]:
    """Necessary conditions for m to come from a fibration automorphism:
    isometry, fixes F and K, unit determinant, preserves the root lattice
    (a LatticeMap is integral by construction).  section, when given, must
    be the image of E1.  These do not certify that an automorphism exists;
    they can only rule one out."""
    failures: list[str] = []
    if not m.is_isometry():
        failures.append("map is not an isometry")
    if m.apply(F) != F:
        failures.append("map does not fix the fiber class")
    if m.apply(K) != K:
        failures.append("map does not fix the canonical class")
    if abs(m.determinant()) != 1:
        failures.append("determinant is not a unit")
    for root in root_basis():
        img = m.apply(root.cls)
        if intersect(img, F) != 0:
            failures.append(f"image of root {root.cls} leaves the fiber-orthogonal")
        elif self_intersection(img) != -2:
            failures.append(f"image of root {root.cls} is not a root")
    if section is not None and m.apply(E[0]) != section:
        failures.append("map does not send E1 to the section")
    return tuple(failures)


class TranslationReport(Record):
    __slots__ = ("section", "determinant", "failures", "passed")
    section: DivisorClass
    determinant: int
    failures: tuple[str, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "section": str(self.section),
            "determinant": str(self.determinant),
            "failures": list(self.failures),
            "passed": self.passed,
        }


def verify_weyl_necessary_conditions(t: Translation) -> TranslationReport:
    failures = weyl_condition_failures(t.map, section=t.section)
    return TranslationReport(
        section=t.section,
        determinant=t.map.determinant(),
        failures=failures,
        passed=not failures,
    )


# -- fundamental-domain reduction ---------------------------------------------


def low_degree_sections(max_h_degree: int = 1) -> list[DivisorClass]:
    """Sections usable as reduction moves; degree <= 1 gives the 45 classes
    E_i and H - E_i - E_j."""
    return enumerate_minus_one_classes(max_h_degree)


# Knobs of the coverage experiment.  A reduced nef part above STALL_DEGREE
# with no descent move left is flagged as a non-terminating reduction
# (combinations of MAX_TERMS * MAX_COEFF window-degree generators should land
# well below it).  MAX_STEPS is a defensive cap on the descent.
MAX_TERMS = 5
MAX_COEFF = 3
STALL_DEGREE = 15
MAX_STEPS = 256


@lru_cache(maxsize=1)
def _reduction_moves() -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """(label, v, c) of each low-degree section's transvection, built once."""
    return tuple((str(p), *_section_move(p)) for p in low_degree_sections())


def reduce_surface_class(
    surf: DivisorClass,
) -> tuple[DivisorClass, int, tuple[str, ...], bool]:
    """Greedy descent of the H-degree under the section transvections.

    The class x must have x.F > 0 or be a multiple of F; any other class
    raises ValueError.  Each step applies the move giving the
    lexicographically least image among those that strictly drop the
    H-coefficient, so runs are reproducible.  Returns (reduced class, steps,
    move labels, hit_cap).  The moves fix F, so a multiple of F returns at
    once with 0 steps.  When x.F > 0, Cauchy-Schwarz on the E-coefficients
    bounds the H-coefficient below by (x.F^2 + 9 x.x) / (6 x.F), both kept by
    the moves; it is an integer multiple of 1/den and strictly drops, so the
    descent terminates and the cap is only a defensive bound.
    """
    moves = _reduction_moves()
    f0 = F.nums[0]
    ints = surf.nums
    fiber = dot_int(ints, F.nums)
    if fiber < 0 or (fiber == 0 and dot_int(ints, ints) != 0):
        raise ValueError(
            f"reduce_surface_class needs x.F > 0 or a multiple of F, got {surf}"
        )
    labels: list[str] = []
    steps = 0
    hit_cap = False
    while True:
        best: tuple[int, ...] | None = None
        best_label = ""
        x0 = ints[0]
        xf = dot_int(ints, F.nums)
        # the image's H-numerator x0 + xf v0 - F0 [(x.v) + c xf] screens each
        # move: the whole image is built only where it can be the least
        for label, v, c in moves:
            bracket = dot_int(ints, v) + c * xf
            h = x0 + xf * v[0] - f0 * bracket
            if h < x0 and (best is None or h <= best[0]):
                img = _shift(ints, v, xf, bracket)
                if best is None or img < best:
                    best = img
                    best_label = label
        if best is None:
            break
        if steps >= MAX_STEPS:
            hit_cap = True
            break
        ints = best
        labels.append(best_label)
        steps += 1
    return DivisorClass(ints, surf.den), steps, tuple(labels), hit_cap


class CoverageConfig(Record):
    """Parameters of the bounding-cone coverage experiment."""

    __slots__ = ("n", "samples", "seed", "max_h_degree")
    n: int
    samples: int
    seed: int
    max_h_degree: int

    def __init__(
        self, n: int, samples: int = 100, seed: int = 0, max_h_degree: int = 3
    ) -> None:
        super().__init__(n, samples, seed, max_h_degree)


class CoverageTrial(Record):
    __slots__ = (
        "index",
        "terms",
        "start_h",
        "reduced_h",
        "steps",
        "stalled",
        "decomposed",
    )
    index: int
    terms: int
    start_h: Fraction
    reduced_h: Fraction
    steps: int
    stalled: bool
    decomposed: bool

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "terms": self.terms,
            "start_h": format_rational(self.start_h),
            "reduced_h": format_rational(self.reduced_h),
            "steps": self.steps,
            "stalled": self.stalled,
            "decomposed": self.decomposed,
        }


class CoverageReport(Record):
    __slots__ = (
        "config",
        "successes",
        "stalled_count",
        "max_reduced_h",
        "passed",
        "trials",
    )
    config: CoverageConfig
    successes: int
    stalled_count: int
    max_reduced_h: Fraction
    passed: bool
    trials: tuple[CoverageTrial, ...]

    def to_json(self) -> dict:
        return {
            "n": self.config.n,
            "samples": self.config.samples,
            "seed": self.config.seed,
            "max_h_degree": self.config.max_h_degree,
            "stall_degree": STALL_DEGREE,
            "successes": self.successes,
            "stalled": self.stalled_count,
            "max_reduced_h": format_rational(self.max_reduced_h),
            "passed": self.passed,
            "trials": [t.to_json() for t in self.trials],
        }


def coverage_experiment(cfg: CoverageConfig) -> CoverageReport:
    """Sample nonnegative combinations of the certified nef generators,
    reduce each by section transvections, and decompose the reduction.

    A trial succeeds when the reduced representative splits as
    nef part + t * (B-negative ray); since the generators are nef and the
    moves are isometries fixing F, this must hold, and the experiment is a
    consistency check of the whole pipeline rather than a theorem prover.
    """
    if cfg.n < 3:
        raise ValueError("n >= 3 required")
    if cfg.samples < 1:
        raise ValueError("samples must be positive")
    rng = random.Random(cfg.seed)
    # the generators by index: F, then the orbits of H and H - E1, each in
    # weyl_orbit order; a generator is unranked and lifted when a trial first
    # draws it
    k = cfg.max_h_degree
    h_size = orbit_size(H, k)
    pool_size = 1 + h_size + orbit_size(H - E[0], k)
    lifted: dict[int, HilbDivisor] = {0: lift(F)}

    def generator(i: int) -> HilbDivisor:
        g = lifted.get(i)
        if g is None:
            if i <= h_size:
                c = orbit_class(H, k, i - 1)
            else:
                c = orbit_class(H - E[0], k, i - 1 - h_size)
            g = lifted[i] = fiber_orthogonal_lift(c, cfg.n)
        return g

    trials: list[CoverageTrial] = []
    successes = 0
    stalled_count = 0
    max_reduced = Fraction(0)
    for index in range(cfg.samples):
        terms = rng.randint(1, MAX_TERMS)
        d = HilbDivisor(ZERO, Fraction(0))
        for _ in range(terms):
            coeff = rng.randint(1, MAX_COEFF)
            d = d + coeff * generator(rng.randrange(pool_size))
        reduced_surf, steps, _, hit_cap = reduce_surface_class(d.surf)
        reduced = HilbDivisor(reduced_surf, d.b_half)
        try:
            part, _ = bounding_cone_decompose(reduced, cfg.n, cfg.max_h_degree)
            decomposed = True
        except DecompositionError:
            part = nef_part(reduced, cfg.n)
            decomposed = False
        # degree of the nef part: the t * b_negative_ray summand is move-invariant
        nef_h = part.h
        stalled = hit_cap or nef_h > STALL_DEGREE
        if decomposed:
            successes += 1
        if stalled:
            stalled_count += 1
        max_reduced = max(max_reduced, nef_h)
        trials.append(
            CoverageTrial(
                index=index,
                terms=terms,
                start_h=d.surf.h,
                reduced_h=nef_h,
                steps=steps,
                stalled=stalled,
                decomposed=decomposed,
            )
        )
    return CoverageReport(
        config=cfg,
        successes=successes,
        stalled_count=stalled_count,
        max_reduced_h=max_reduced,
        passed=successes == cfg.samples,
        trials=tuple(trials),
    )
