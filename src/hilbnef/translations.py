"""Lattice translations attached to sections of the elliptic fibration.

Every (-1)-class P with P.F = 1 determines an integral isometry
    T(x) = x + (x.F) v - [(x.v) + (v.v/2)(x.F)] F,   v = P - E1,
fixing F and K and carrying E1 to P.  These are the candidates for the
automorphisms that translate each fiber by the section P.  This module keeps
the 45 sections of H-degree at most 1 as integer moves (v, v.v/2), descends
a class's H-degree with them, and runs the fundamental-domain reduction
experiment on the Hilbert scheme's bounding cone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .lattice import (
    DivisorClass,
    E,
    F,
    H,
    ZERO,
    dot_int,
    format_rational,
    self_intersection,
)
from .record import Record
from .weyl import enumerate_minus_one_classes, orbit_class, orbit_size
from .hilb import (
    DecompositionError,
    HilbDivisor,
    bounding_cone_decompose,
    fiber_orthogonal_lift,
    lift,
    nef_part,
)


def _shift(x: tuple[int, ...], v: tuple[int, ...], xf: int, bracket: int) -> tuple[int, ...]:
    """x + xf v - bracket F: the transvection T(x) on integer numerators,
    given xf = x.F and bracket = (x.v) + c (x.F).  Linear, so it applies to
    a class's nums over any denominator."""
    return tuple(xi + xf * vi - bracket * fi for xi, vi, fi in zip(x, v, F.nums))


def _section_move(p: DivisorClass) -> tuple[tuple[int, ...], int]:
    """(v, c) of the transvection sending E1 to p: v = p - E1, c = v.v/2."""
    v = p - E[0]
    c = self_intersection(v) / 2
    if c.denominator != 1:
        raise ArithmeticError("v.v is always even for a section difference")
    return v.nums, int(c)


# -- fundamental-domain reduction ---------------------------------------------


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
    """(label, v, c) of the transvection of each section of H-degree at most
    1, the 45 classes E_i and H - E_i - E_j, built once."""
    return tuple((str(p), *_section_move(p)) for p in enumerate_minus_one_classes(1))


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
            part, _ = bounding_cone_decompose(reduced, cfg.n)
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
