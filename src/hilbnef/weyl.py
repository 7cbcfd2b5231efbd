"""Weyl-group action on the nine-point blowup lattice.

The group is generated by reflections in the nine roots
E1-E2, ..., E8-E9, H-E1-E2-E3 (each with square -2 and zero pairing
against the fiber class), acting by s_b(D) = D + (D.b) b.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterable, Iterator

from .lattice import (
    BASIS,
    RANK,
    DivisorClass,
    E,
    F,
    divisor,
    dot_int,
    intersect,
    self_intersection,
    sorted_classes,
)

# Reflections can raise the H-degree of intermediate classes; the BFS frontier
# explores this many degrees above the requested window before pruning.
FRONTIER_MARGIN = 3


@dataclass(frozen=True)
class Root:
    """A (-2)-class orthogonal to the fiber class."""

    cls: DivisorClass

    def __post_init__(self) -> None:
        if intersect(self.cls, self.cls) != -2:
            raise ValueError(f"not a root (square != -2): {self.cls}")
        if intersect(self.cls, F) != 0:
            raise ValueError(f"root must pair to zero with the fiber: {self.cls}")
        if not self.cls.is_integral():
            raise ValueError(f"root must be integral: {self.cls}")


def root_basis() -> tuple[Root, ...]:
    """The nine simple roots, E1-E2 first, H-E1-E2-E3 last."""
    diffs = [Root(E[i] - E[i + 1]) for i in range(8)]
    return tuple(diffs + [Root(divisor(1, [-1, -1, -1, 0, 0, 0, 0, 0, 0]))])


def reflect(beta: Root | DivisorClass, d: DivisorClass) -> DivisorClass:
    """s_beta(d) = d + (d.beta) beta, an involutive isometry."""
    b = beta.cls if isinstance(beta, Root) else beta
    if not isinstance(beta, Root):
        Root(b)  # validate
    return d + intersect(d, b) * b


@dataclass(frozen=True)
class LatticeMap:
    """Linear endomorphism of the lattice; rows[i][j] is d(image_i)/d(coord_j)."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != RANK or any(len(r) != RANK for r in self.rows):
            raise ValueError("expected a 10x10 matrix")
        if not all(type(x) is Fraction for r in self.rows for x in r):
            object.__setattr__(
                self, "rows", tuple(tuple(Fraction(x) for x in r) for r in self.rows)
            )

    @classmethod
    def identity(cls) -> "LatticeMap":
        return cls.from_basis_images(BASIS)

    @classmethod
    def from_basis_images(cls, images: Iterable[DivisorClass]) -> "LatticeMap":
        """Build from the images of H, E1, ..., E9 (column data)."""
        cols = [img.coords for img in images]
        if len(cols) != RANK:
            raise ValueError("need 10 basis images")
        return cls(tuple(tuple(cols[j][i] for j in range(RANK)) for i in range(RANK)))

    def apply(self, d: DivisorClass) -> DivisorClass:
        """The integer matrix over its entries' common denominator, times d."""
        den = lcm(*(x.denominator for r in self.rows for x in r))
        return DivisorClass(
            tuple(
                sum(x.numerator * (den // x.denominator) * y for x, y in zip(r, d.nums))
                for r in self.rows
            ),
            den * d.den,
        )

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        return LatticeMap.from_basis_images(self.apply(other.apply(b)) for b in BASIS)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.rows for x in r)

    def is_isometry(self) -> bool:
        """M b_i . M b_j = b_i . b_j for every pair of basis classes."""
        images = [self.apply(b) for b in BASIS]
        return all(
            intersect(images[i], images[j]) == intersect(BASIS[i], BASIS[j])
            for i in range(RANK)
            for j in range(i, RANK)
        )

    def determinant(self) -> Fraction:
        m = [list(r) for r in self.rows]
        det = Fraction(1)
        for col in range(RANK):
            pivot = next((r for r in range(col, RANK) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, RANK):
                if m[r][col] != 0:
                    factor = m[r][col] * inv
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        return det

    def inverse(self) -> "LatticeMap":
        """Only for isometries: coordinate i of M^-1 x is (x . M b_i) / b_i^2."""
        if not self.is_isometry():
            raise ValueError("inverse implemented for isometries only")
        images = [self.apply(b) for b in BASIS]
        return LatticeMap(
            tuple(
                tuple(intersect(b, img) / self_intersection(b_i) for b in BASIS)
                for b_i, img in zip(BASIS, images)
            )
        )


def reflection_map(beta: Root) -> LatticeMap:
    return LatticeMap.from_basis_images([reflect(beta, b) for b in BASIS])


def enumerate_minus_one_classes(max_h_degree: int) -> list[DivisorClass]:
    """All integral C with C.C = -1, C.K = -1 and 0 <= C.H <= max_h_degree.

    Direct Diophantine search: for fixed h the exceptional part satisfies
    sum(e_i) = 1 - 3h and sum(e_i^2) = h^2 + 1, which bounds every e_i.
    """
    if max_h_degree < 0:
        raise ValueError("max_h_degree must be nonnegative")
    return list(_minus_one_cached(max_h_degree))


@lru_cache(maxsize=8)
def _minus_one_cached(max_h_degree: int) -> tuple[DivisorClass, ...]:
    found: list[DivisorClass] = []
    for h in range(max_h_degree + 1):
        target_sum = 1 - 3 * h
        target_sq = h * h + 1
        for e_vec in _signed_vectors(target_sum, target_sq, 9):
            found.append(DivisorClass((h,) + e_vec))
    return tuple(sorted_classes(found))


def _signed_vectors(s: int, q: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Integer tuples with given sum s and sum of squares q."""
    if slots == 0:
        if s == 0 and q == 0:
            yield ()
        return
    # Cauchy-Schwarz feasibility: s^2 <= slots * q.
    if s * s > slots * q:
        return
    bound = isqrt(q)
    for v in range(-bound, bound + 1):
        rest_q = q - v * v
        for tail in _signed_vectors(s - v, rest_q, slots - 1):
            yield (v,) + tail


def weyl_orbit(start: DivisorClass, max_h_degree: int) -> list[DivisorClass]:
    """Closure of {start} under the nine generators, kept to the degree window.

    The result window is [0, max(max_h_degree, deg(start))]; the BFS frontier
    is allowed FRONTIER_MARGIN degrees above it so that images whose degree
    dips back into the window are not lost.
    """
    if max_h_degree < 0:
        raise ValueError("max_h_degree must be nonnegative")
    if not start.is_integral():
        raise ValueError("orbit start must be integral")
    return list(_orbit_cached(start, max_h_degree))


@lru_cache(maxsize=32)
def _orbit_cached(start: DivisorClass, max_h_degree: int) -> tuple[DivisorClass, ...]:
    window_hi = max(max_h_degree, start.nums[0])
    cap = window_hi + FRONTIER_MARGIN
    roots_int = [r.cls.nums for r in root_basis()]
    seen: set[tuple[int, ...]] = {start.nums}
    frontier: list[tuple[int, ...]] = [start.nums]
    while frontier:
        fresh: set[tuple[int, ...]] = set()
        for vec in frontier:
            for b in roots_int:
                p = dot_int(vec, b)
                if p == 0:
                    continue
                img = tuple(v + p * bb for v, bb in zip(vec, b))
                if 0 <= img[0] <= cap and img not in seen:
                    fresh.add(img)
        seen.update(fresh)
        frontier = sorted(fresh)
    # on integral classes, the order of the numerator tuples is the class order
    return tuple(DivisorClass(vec) for vec in sorted(seen) if 0 <= vec[0] <= window_hi)


def orbit_counts_by_degree(orbit: Iterable[DivisorClass]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for c in orbit:
        d = int(c.h)
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


class NefOrbit(Enum):
    """Weyl orbit of a nef extremal ray, keyed by (D.D, D.F)."""

    FIBER = "fiber"
    H = "H"
    H_MINUS_E1 = "H-E1"
    NOT_EXTREMAL = "not-extremal"


def classify_nef_extremal(d: DivisorClass) -> NefOrbit:
    """Classify by the Weyl invariants (D.D, D.F); valid for nef inputs."""
    if not d.is_integral():
        raise ValueError("classification expects an integral class")
    if d.is_zero():
        return NefOrbit.NOT_EXTREMAL
    key = (intersect(d, d), intersect(d, F))
    if key == (0, 0):
        return NefOrbit.FIBER
    if key == (1, 3):
        return NefOrbit.H
    if key == (0, 2):
        return NefOrbit.H_MINUS_E1
    return NefOrbit.NOT_EXTREMAL
