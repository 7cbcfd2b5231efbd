"""Section transvections, the reduction descent and the coverage experiment.

The 45 reduction moves are checked as tuples, through `translations._shift`:
against the transvection formula in Fraction arithmetic, as isometries fixing
F and K with determinant 1 (by Gaussian elimination over Fraction), and
under the group law t_p t_q = t_{t_p(q)}.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbnef import translations, weyl
from hilbnef import (
    C0,
    CoverageConfig,
    DivisorClass,
    E,
    F,
    H,
    HilbDivisor,
    InducedCurve,
    K,
    ZERO,
    bounding_cone_decompose,
    coverage_experiment,
    enumerate_minus_one_classes,
    fiber_orthogonal_lift,
    intersect,
    pair_hilb,
    reduce_surface_class,
    reflect,
    root_basis,
    self_intersection,
)
from hilbnef.lattice import BASIS, dot_int
from hilbnef.translations import _section_move, _shift
from hilbnef.weyl import orbit_class, orbit_size

from conftest import listed_orbit

SECTION_COUNT = 45  # sections of H-degree at most 1


def oracle_transvection(p: DivisorClass, x: DivisorClass) -> DivisorClass:
    """x + (x.F) v - [(x.v) + (v.v/2)(x.F)] F with v = p - E1, in Fraction
    arithmetic on DivisorClass: the reference for the integer formula."""
    v = p - E[0]
    half_v_sq = self_intersection(v) / 2
    xf = intersect(x, F)
    return x + xf * v - (intersect(x, v) + half_v_sq * xf) * F


def transvect(x: tuple[int, ...], move) -> tuple[int, ...]:
    """The transvection of move = (v, c) on integer numerators: `_shift` with
    x.F and (x.v) + c (x.F)."""
    v, c = move
    xf = dot_int(x, F.nums)
    return _shift(x, v, xf, dot_int(x, v) + c * xf)


def move_image(move, x: DivisorClass) -> DivisorClass:
    """The transvection of move = (v, c) applied to the class x."""
    return DivisorClass(transvect(x.nums, move), x.den)


def basis_images(move) -> list[DivisorClass]:
    """The images of H, E1, ..., E9: the columns of the move's matrix."""
    return [move_image(move, b) for b in BASIS]


def preserves_form(images) -> bool:
    """The images of H, E1, ..., E9 have the basis's Gram matrix."""
    return all(
        dot_int(images[i].nums, images[j].nums) == dot_int(BASIS[i].nums, BASIS[j].nums)
        for i in range(10)
        for j in range(i, 10)
    )


@lru_cache(maxsize=1)
def _section_moves():
    """(section, its reduction move (v, c)) for all 45."""
    moves = {label: (v, c) for label, v, c in translations._reduction_moves()}
    assert len(moves) == SECTION_COUNT
    return tuple((p, moves[str(p)]) for p in enumerate_minus_one_classes(1))


def test_transvections_match_oracle_on_basis():
    for p, move in _section_moves():
        assert move == _section_move(p)
        for b in BASIS:
            assert move_image(move, b) == oracle_transvection(p, b), (p, b)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-12, 12),
    st.lists(st.integers(-12, 12), min_size=9, max_size=9),
)
def test_transvections_match_oracle_on_half_integer_classes(h2, e2):
    # h is an odd multiple of 1/2, so the reduction runs with den = 2
    x = DivisorClass((2 * h2 + 1,) + tuple(e2), 2)
    assert x.den == 2
    for p, move in _section_moves():
        assert move_image(move, x) == oracle_transvection(p, x), p


def oracle_determinant(rows) -> Fraction:
    """Gaussian elimination over Fraction rows: the reference determinant
    that the section moves are checked against."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, len(m)):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def determinant(images) -> Fraction:
    """The determinant of the matrix whose columns are the images."""
    return oracle_determinant(zip(*(x.nums for x in images)))


# a cyclic shift of the ten coordinates: a zero leading pivot, determinant -1
ZERO_PIVOT = [[int(j == (i + 1) % 10) for j in range(10)] for i in range(10)]
# rows i and i + 4 agree
SINGULAR = [[(i + j) % 4 - 1 for j in range(10)] for i in range(10)]


def test_determinant_oracle_examples():
    assert oracle_determinant(ZERO_PIVOT) == -1
    assert oracle_determinant(SINGULAR) == 0
    assert oracle_determinant([[0] * 10 for _ in range(10)]) == 0


def test_reflection_matrix_has_determinant_minus_one():
    images = [reflect(root_basis()[3], b) for b in BASIS]
    assert preserves_form(images)
    assert determinant(images) == -1


def test_translation_moves_base_section():
    move = _section_move(E[1])
    assert move_image(move, E[0]) == E[1]
    assert move_image(move, F) == F
    assert move_image(move, K) == K
    assert determinant(basis_images(move)) == 1


def test_translation_by_base_section_is_identity():
    move = _section_move(E[0])
    assert move == ((0,) * 10, 0)
    assert basis_images(move) == list(BASIS)


def test_low_degree_sections_census():
    sections = [p for p, _ in _section_moves()]
    assert len(set(sections)) == SECTION_COUNT
    for s in sections:
        assert intersect(s, F) == 1


def test_all_low_degree_translations_pass():
    for p, move in _section_moves():
        images = basis_images(move)
        assert preserves_form(images), p
        assert move_image(move, F) == F and move_image(move, K) == K, p
        assert determinant(images) == 1, p
        for root in root_basis():
            img = move_image(move, root.cls)
            assert intersect(img, F) == 0 and self_intersection(img) == -2, (p, root)


def test_corrupted_map_fails_conditions():
    images = basis_images(_section_move(E[1]))
    images[5] = images[5] + E[2]
    assert not preserves_form(images)


def _compose(p: DivisorClass, q: DivisorClass) -> list[DivisorClass]:
    """The basis images of t_p after t_q."""
    mp, mq = _section_move(p), _section_move(q)
    return [move_image(mp, move_image(mq, b)) for b in BASIS]


def test_translation_squared_is_not_identity():
    twice = _compose(E[1], E[1])
    assert twice != list(BASIS)
    move = _section_move(E[1])
    assert move_image(move, move_image(move, F)) == F  # still fixes the fiber


def test_composition_stays_in_group():
    composed = _compose(E[1], H - E[0] - E[1])
    assert preserves_form(composed)
    assert determinant(composed) == 1


def test_translation_group_law():
    """t_p after t_q is the translation by t_p(q), for 200 seeded pairs of
    sections of degree at most 2, and the composite is an isometry fixing F
    and K with determinant 1 that sends E1 to t_p(q)."""
    sections = enumerate_minus_one_classes(2)
    assert len(sections) == 171
    rng = random.Random(6)
    pairs = [(rng.choice(sections), rng.choice(sections)) for _ in range(200)]
    pairs.append((E[1], E[1]))  # t_{E2} squared is not the identity
    for p, q in pairs:
        composite = _compose(p, q)
        section = move_image(_section_move(p), q)
        assert basis_images(_section_move(section)) == composite, (p, q)
        assert composite[1] == section, (p, q)
        assert preserves_form(composite), (p, q)
        assert determinant(composite) == 1, (p, q)
        assert (composite == list(BASIS)) == (section == E[0]), (p, q)


def test_translate_hilb_preserves_pairings():
    d = fiber_orthogonal_lift(H - E[0], 3)
    moved = HilbDivisor(move_image(_section_move(E[1]), d.surf), d.b_half)
    assert moved.b_half == d.b_half
    assert pair_hilb(moved, C0, 3) == pair_hilb(d, C0, 3)
    assert pair_hilb(moved, InducedCurve(F), 3) == 0  # stays fiber-orthogonal
    assert intersect(moved.surf, F) == intersect(d.surf, F)


def oracle_reduce_surface_class(surf: DivisorClass):
    """The greedy descent with every move's whole image built at each step:
    the reference for reduce_surface_class, which screens moves by the
    H-numerator of their image."""
    ints = surf.nums
    labels = []
    hit_cap = False
    while True:
        lower = [
            (transvect(ints, (v, c)), label)
            for label, v, c in translations._reduction_moves()
        ]
        lower = [(img, label) for img, label in lower if img[0] < ints[0]]
        if not lower:
            break
        if len(labels) >= translations.MAX_STEPS:
            hit_cap = True
            break
        ints, label = min(lower, key=lambda pair: pair[0])
        labels.append(label)
    return DivisorClass(ints, surf.den), len(labels), tuple(labels), hit_cap


generator_draws = st.lists(
    st.tuples(st.sampled_from([H, H - E[0]]), st.integers(0, 10**6), st.integers(1, 3)),
    min_size=1,
    max_size=5,
)


@st.composite
def descent_inputs(draw):
    """A nonnegative combination of fiber-orthogonal lifts, as a coverage
    trial draws them: integral when every x = n/(c.F) is, else over den 2, 3
    or 6; then moved by the inverses T_-v of a word of reduction moves, so
    that the descent has steps to take."""
    n = draw(st.integers(3, 5))
    surf = ZERO
    for start, index, coeff in draw(generator_draws):
        c = orbit_class(start, 4, index % orbit_size(start, 4))
        surf = surf + coeff * fiber_orthogonal_lift(c, n).surf
    moves = translations._reduction_moves()
    nums = surf.nums
    for i in draw(st.lists(st.integers(0, SECTION_COUNT - 1), max_size=4)):
        _, v, c = moves[i]
        nums = transvect(nums, (tuple(-x for x in v), c))
    return DivisorClass(nums, surf.den)


def _translated_lifts() -> list[DivisorClass]:
    """The n = 3 lifts of H, H-E1 and 2H-E1-E2-E3-E4, each moved one to four
    times by the translation by H-E4-E9."""
    move = _section_move(H - E[3] - E[8])
    lifts = []
    for c in (H, H - E[0], 2 * H - E[0] - E[1] - E[2] - E[3]):
        surf = fiber_orthogonal_lift(c, 3).surf
        for _ in range(4):
            surf = move_image(move, surf)
            lifts.append(surf)
    return lifts


def _with_examples(values):
    """@example(v) for each v in values."""

    def wrap(test):
        for v in values:
            test = example(v)(test)
        return test

    return wrap


@settings(max_examples=60, deadline=None)
@given(descent_inputs())
@_with_examples(_translated_lifts())
def test_reduce_surface_class_matches_all_moves_oracle(surf):
    assert reduce_surface_class(surf) == oracle_reduce_surface_class(surf)


def test_reduce_surface_class_fixture():
    surf = fiber_orthogonal_lift(H, 3).surf
    reduced, steps, labels, hit_cap = reduce_surface_class(surf)
    assert reduced == surf  # already a local minimum for the move set
    assert steps == 0
    assert labels == ()
    assert not hit_cap


@pytest.mark.parametrize(
    "surf",
    [DivisorClass((20, -24, -24, -24, 16, 9, -25, -1, 18, -12)), E[0] - E[1]],
    ids=["negative-fiber-degree", "fiber-orthogonal-root"],
)
def test_reduce_surface_class_refuses_a_class_without_positive_fiber_degree(surf):
    # x.F = -7 and x.F = 0 with x.x = -2: the H-degree has no lower bound
    with pytest.raises(ValueError, match="multiple of F"):
        reduce_surface_class(surf)


def test_reduce_surface_class_fixes_a_fiber_multiple():
    # a trial that draws only generator 0, lift(F), reduces a multiple of F
    assert reduce_surface_class(2 * F) == (2 * F, 0, (), False)


def test_reduce_monotone_on_translated_class():
    move = _section_move(H - E[3] - E[8])
    surf = move_image(move, fiber_orthogonal_lift(H, 3).surf)
    reduced, steps, labels, hit_cap = reduce_surface_class(surf)
    assert reduced.h <= surf.h
    assert len(labels) == steps
    assert not hit_cap
    # degree never goes below the nef representative
    assert reduced.h >= 1


def test_decompose_after_reduction():
    d = fiber_orthogonal_lift(H, 3)
    nef_part, t = bounding_cone_decompose(d, 3)
    assert (nef_part, t) == (H, 1)


def test_coverage_experiment_small():
    rep = coverage_experiment(CoverageConfig(3, samples=5, seed=0, max_h_degree=3))
    assert rep.passed
    assert rep.successes == 5
    assert rep.stalled_count == 3
    assert rep.max_reduced_h == Fraction(75, 2)
    assert len(rep.trials) == 5
    assert all(t.decomposed for t in rep.trials)


def pool_size(k: int) -> int:
    """The cover's pool at degree bound k: F, then the orbits of H and H - E1."""
    return 1 + len(listed_orbit(H, k)) + len(listed_orbit(H - E[0], k))


def drawn_indices(cfg: CoverageConfig) -> set[int]:
    """The pool indices the trials of cfg draw, from a replay of its draws."""
    size = pool_size(cfg.max_h_degree)
    rng = random.Random(cfg.seed)
    drawn = set()
    for _ in range(cfg.samples):
        for _ in range(rng.randint(1, translations.MAX_TERMS)):
            rng.randint(1, translations.MAX_COEFF)
            drawn.add(rng.randrange(size))
    return drawn


def test_coverage_pool_lifts_only_drawn_generators(monkeypatch):
    """Replaying the draws gives the indices the trials read, and no others
    are lifted."""
    cfg = CoverageConfig(3, samples=30, seed=5, max_h_degree=4)
    drawn = drawn_indices(cfg)
    expected = coverage_experiment(cfg).to_json()
    calls = []
    real = translations.fiber_orthogonal_lift

    def counted(c, n):
        calls.append(c)
        return real(c, n)

    monkeypatch.setattr(translations, "fiber_orthogonal_lift", counted)
    assert coverage_experiment(cfg).to_json() == expected
    assert 0 < len(calls) <= len(drawn) < pool_size(4) // 20
    assert len(set(calls)) == len(calls)


def test_coverage_draws_without_listing_the_orbits(monkeypatch):
    """The pool's generators are unranked by index: a run unranks the 45
    moves and one class per distinct drawn generator but F, and lists no
    orbit of H or H - E1."""
    cfg = CoverageConfig(3, samples=30, seed=5, max_h_degree=5)
    unranked = []
    real = weyl._unrank
    monkeypatch.setattr(weyl, "_unrank", lambda *args: unranked.append(args) or real(*args))
    translations._reduction_moves.cache_clear()
    rep = coverage_experiment(cfg)
    assert rep.passed
    assert len(unranked) == SECTION_COUNT + len(drawn_indices(cfg) - {0})


def test_coverage_experiment_deterministic():
    cfg = CoverageConfig(3, samples=4, seed=7, max_h_degree=3)
    assert coverage_experiment(cfg).to_json() == coverage_experiment(cfg).to_json()


def test_coverage_config_validation():
    with pytest.raises(ValueError):
        coverage_experiment(CoverageConfig(2, samples=1, seed=0, max_h_degree=3))
    with pytest.raises(ValueError):
        coverage_experiment(CoverageConfig(3, samples=0, seed=0, max_h_degree=3))
