"""Weyl-group action on the nine-point blowup lattice.

The group is generated by reflections in the nine roots
E1-E2, ..., E8-E9, H-E1-E2-E3 (each with square -2 and zero pairing
against the fiber class), acting by s_b(D) = D + (D.b) b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator

from .lattice import (
    DivisorClass,
    E,
    F,
    divisor,
    dot_int,
    intersect,
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
