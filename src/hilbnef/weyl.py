"""Weyl-group action on the nine-point blowup lattice.

The group is generated by reflections in the nine roots
E1-E2, ..., E8-E9, H-E1-E2-E3 (each with square -2 and zero pairing
against the fiber class), acting by s_b(D) = D + (D.b) b.  The first eight
generate the permutations S9 of E1..E9.  Orbits are enumerated from sorted
S9 representatives, not searched: one cached table per orbit window
(`_degree_groups`) holds each degree's representatives with their numbers
of arrangements, the i-th class of the window is unranked from it
(`orbit_class`), and `weyl_orbit` lists the classes of every rank.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from functools import lru_cache
from math import factorial, isqrt

from .lattice import DivisorClass, E, F, divisor, dot_int, intersect
from .record import Record, _set


class Root(Record):
    """A (-2)-class orthogonal to the fiber class."""

    __slots__ = ("cls",)
    cls: DivisorClass

    def __init__(self, cls: DivisorClass) -> None:
        if intersect(cls, cls) != -2:
            raise ValueError(f"not a root (square != -2): {cls}")
        if intersect(cls, F) != 0:
            raise ValueError(f"root must pair to zero with the fiber: {cls}")
        if not cls.is_integral():
            raise ValueError(f"root must be integral: {cls}")
        _set(self, "cls", cls)


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


def _check_window(start: DivisorClass, max_h_degree: int) -> None:
    """The ValueError of every orbit listing: a negative degree bound or a
    start that is not integral."""
    if max_h_degree < 0:
        raise ValueError("max_h_degree must be nonnegative")
    if not start.is_integral():
        raise ValueError("orbit start must be integral")


def enumerate_minus_one_classes(max_h_degree: int) -> list[DivisorClass]:
    """All integral C with C.C = -1, C.K = -1 and 0 <= C.H <= max_h_degree.

    These are exactly the classes of the Weyl orbit of E9 in that window.
    """
    return weyl_orbit(E[8], max_h_degree)


def weyl_orbit(start: DivisorClass, max_h_degree: int) -> list[DivisorClass]:
    """The classes of W.start with H-degree in [0, max(max_h_degree, deg(start))],
    sorted: the `orbit_class` of each rank from 0 to orbit_size - 1.

    The start must be integral with start.F > 0, or a multiple of F (fixed by
    W); any other start raises ValueError.  Every class with D.F > 0 has one
    representative in the chamber b1 >= ... >= b9, a >= b1 + b2 + b3 (writing
    D = aH - sum b_i E_i), so the orbit is enumerated exactly: for each degree
    a in the window, every sorted b with the orbit's fiber degree and square
    whose chamber representative is the start's, then its distinct
    arrangements.  The walk at degree a visits sorted b with sum of squares
    a^2 - D.D, so its cost grows with -D.D as well as with the window.
    """
    return [orbit_class(start, max_h_degree, i) for i in range(orbit_size(start, max_h_degree))]


def orbit_size(start: DivisorClass, max_h_degree: int) -> int:
    """len(weyl_orbit(start, max_h_degree)), summed from the sizes of its
    degrees without building a class; same errors."""
    _check_window(start, max_h_degree)
    return sum(size for _, size, _ in _degree_groups(start, max_h_degree))


def orbit_class(start: DivisorClass, max_h_degree: int, i: int) -> DivisorClass:
    """weyl_orbit(start, max_h_degree)[i], unranked from the orbit's sorted
    representatives without building any other class; the same errors, and
    IndexError when i is outside [0, orbit_size(start, max_h_degree)).

    The orbit is sorted by degree a first, so whole degrees are skipped by
    their sizes.  Inside degree a the classes are the distinct arrangements
    (a, -b_sigma) of its representatives, in lexicographic order: each of the
    nine entries is the least value v whose completions, summed over the
    multisets {-b} that still hold v, exceed the remaining index (multiset
    unranking, Knuth, TAOCP 4A 7.2.1.2).
    """
    _check_window(start, max_h_degree)
    if i >= 0:
        for a, size, reps in _degree_groups(start, max_h_degree):
            if i < size:
                return DivisorClass((a,) + _unrank(reps, i))
            i -= size
    raise IndexError("orbit index out of range")


@lru_cache(maxsize=32)
def _degree_groups(
    start: DivisorClass, max_h_degree: int
) -> tuple[tuple[int, int, tuple[tuple[tuple[int, ...], int], ...]], ...]:
    """(a, classes of degree a, ((sorted b, its arrangements), ...)) per
    degree a of W.start's window that holds a class, in increasing a: one
    pair per S9 orbit, b nonincreasing, in the order of the walk.  The walk
    at degree a covers the sorted b with sum of squares a^2 - D.D and keeps
    those whose chamber representative is the start's."""
    window_hi = max(max_h_degree, start.nums[0])
    fiber = dot_int(start.nums, F.nums)
    square = dot_int(start.nums, start.nums)
    b = tuple(-x for x in start.nums[1:])
    if fiber == 0 and square == 0:  # a multiple of F, fixed by W
        return ((start.nums[0], 1, ((b, 1),)),) if start.nums[0] >= 0 else ()
    if fiber <= 0:
        raise ValueError(
            f"orbit start {start} has D.F = {fiber} and D.D = {square}; only "
            "classes with D.F > 0 or multiples of F have a finite orbit window"
        )
    target = _chamber(start.nums[0], b)[0]
    groups = []
    for a in range(window_hi + 1):
        q = a * a - square
        if q < 0:
            continue
        reps = tuple(
            (rep, _arrangements(rep))
            for rep in _sorted_vectors(3 * a - fiber, q, 9, isqrt(q))
            if _chamber(a, rep)[0] == target
        )
        if reps:
            groups.append((a, sum(size for _, size in reps), reps))
    return tuple(groups)


def _unrank(reps: Sequence[tuple[tuple[int, ...], int]], i: int) -> tuple[int, ...]:
    """The i-th tuple, in lexicographic order, among the distinct
    arrangements (-b_sigma) of the given nonincreasing b, each paired with
    its number of arrangements.  The entries -v ascend as v descends.  Of the
    `remaining` arrangements of a multiset m, m[v] / remaining begin with v;
    a value used up stays in m with count 0."""
    live = [(Counter(b), size) for b, size in reps]  # changed below
    values = sorted({v for m, _ in live for v in m}, reverse=True)
    out: list[int] = []
    remaining = len(reps[0][0])
    while remaining:
        for v in values:
            count = 0
            for m, size in live:
                count += size * m.get(v, 0) // remaining
            if i < count:
                break
            i -= count
        live = [(m, size * m[v] // remaining) for m, size in live if m.get(v)]
        for m, _ in live:
            m[v] -= 1
        out.append(-v)
        remaining -= 1
    return tuple(out)


def _chamber(a: int, b: Sequence[int]) -> tuple[tuple[int, ...], tuple, tuple[int, int] | None]:
    """The chamber walk of aH - sum b_i E_i, b in any order: the representative
    (a, b1 >= ... >= b9) with a >= b1 + b2 + b3, the word, and the first step
    with a negative entry.  Each step sorts b (stably) and, while a < b1+b2+b3,
    reflects in H-E1-E2-E3, adding d = a - b1 - b2 - b3 < 0 to a, b1, b2, b3;
    for D.F = f > 0, a >= (f^2 + 9 D.D) / (6 f) by Cauchy-Schwarz.  In the
    class's own labels that is the reflection in H - E_i - E_j - E_k for the
    labels sorted to the front; the word lists those triples (0-based).  The
    first negative step is (k, i) when, after k reflections, label i's entry is
    the least (the last label of a tie) and negative: `_pull_back(word[:k], i)`
    pairs with the class at that value.  Entries never grow: b9 < 0 at the end."""
    # 16 b_i + (8 - i) packs b_i with its label and sorts like b, lower labels first
    c = [(x << 4) | t for x, t in zip(b, range(8, -1, -1))]
    word = []
    first = None
    while True:
        c.sort(reverse=True)
        if c[8] < 0 and first is None:
            first = (len(word), 8 - (c[8] & 15))
        x, y, z = c[:3]
        d = a - (x >> 4) - (y >> 4) - (z >> 4)
        if d >= 0:
            return (a, *[v >> 4 for v in c]), tuple(word), first
        word.append((8 - (x & 15), 8 - (y & 15), 8 - (z & 15)))
        a += d
        d <<= 4
        c[0] = x + d
        c[1] = y + d
        c[2] = z + d


def _pull_back(word: Sequence[tuple[int, int, int]], label: int) -> DivisorClass:
    """w^-1(E_(label+1)), for w the reflections in a word's roots in turn."""
    x = list(E[label].nums)
    for root in reversed(word):
        t = x[0] + sum(x[i + 1] for i in root)  # x.(H - E_i - E_j - E_k)
        x[0] += t
        for i in root:
            x[i + 1] -= t
    return DivisorClass(x)


def _sorted_vectors(s: int, q: int, slots: int, top: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing integer tuples with entries <= top, sum s and sum of
    squares q."""
    if slots == 1:
        if s <= top and s * s == q:
            yield (s,)
        return
    # the first entry is the largest, so at least the mean; Cauchy-Schwarz
    # on the rest: (s - v)^2 <= (slots - 1) * (q - v^2)
    for v in range(min(top, isqrt(q)), -(-s // slots) - 1, -1):
        rest_s, rest_q = s - v, q - v * v
        if rest_s * rest_s <= (slots - 1) * rest_q:
            for tail in _sorted_vectors(rest_s, rest_q, slots - 1, v):
                yield (v,) + tail


def _arrangements(b: tuple[int, ...]) -> int:
    """The number of distinct permutations of b: len(b)! / prod m_k!."""
    count = factorial(len(b))
    for m in Counter(b).values():
        count //= factorial(m)
    return count
