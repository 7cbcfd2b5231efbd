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
    LatticeMap,
    ZERO,
    bounding_cone_decompose,
    coverage_experiment,
    enumerate_minus_one_classes,
    fiber_orthogonal_lift,
    intersect,
    low_degree_sections,
    pair_hilb,
    reduce_surface_class,
    reflect,
    root_basis,
    self_intersection,
    translation,
    verify_weyl_necessary_conditions,
    weyl_condition_failures,
    weyl_orbit,
)
from hilbnef.lattice import BASIS
from hilbnef.weyl import orbit_class, orbit_size

SECTION_COUNT = 45  # sections of H-degree at most 1


def oracle_transvection(p: DivisorClass, x: DivisorClass) -> DivisorClass:
    """x + (x.F) v - [(x.v) + (v.v/2)(x.F)] F with v = p - E1, in Fraction
    arithmetic on DivisorClass: the reference for the integer formula."""
    v = p - E[0]
    half_v_sq = self_intersection(v) / 2
    xf = intersect(x, F)
    return x + xf * v - (intersect(x, v) + half_v_sq * xf) * F


@lru_cache(maxsize=1)
def _section_maps():
    """(section, its Translation, its reduction move (v, c)) for all 45."""
    moves = {label: (v, c) for label, v, c in translations._reduction_moves()}
    assert len(moves) == SECTION_COUNT
    return tuple((p, translation(p), moves[str(p)]) for p in low_degree_sections(1))


def _move_image(move, x: DivisorClass) -> DivisorClass:
    image = translations._transvect(x.nums, *move)
    return DivisorClass(image, x.den)


def test_transvections_match_oracle_on_basis():
    for p, t, move in _section_maps():
        for b in (H,) + E:
            expected = oracle_transvection(p, b)
            assert t.map.apply(b) == expected, (p, b)
            assert _move_image(move, b) == expected, (p, b)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-12, 12),
    st.lists(st.integers(-12, 12), min_size=9, max_size=9),
)
def test_transvections_match_oracle_on_half_integer_classes(h2, e2):
    # h is an odd multiple of 1/2, so the reduction runs with den = 2
    x = DivisorClass((2 * h2 + 1,) + tuple(e2), 2)
    assert x.den == 2
    for p, t, move in _section_maps():
        expected = oracle_transvection(p, x)
        assert t.map.apply(x) == expected, p
        assert _move_image(move, x) == expected, p


def oracle_determinant(rows) -> Fraction:
    """Gaussian elimination over Fraction rows: the reference for the
    integer (Bareiss) determinant of LatticeMap."""
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


matrices = st.lists(
    st.lists(st.integers(-3, 3), min_size=10, max_size=10), min_size=10, max_size=10
)
# a cyclic shift of the ten coordinates: a zero leading pivot, determinant -1
ZERO_PIVOT = [[int(j == (i + 1) % 10) for j in range(10)] for i in range(10)]
# rows i and i + 4 agree
SINGULAR = [[(i + j) % 4 - 1 for j in range(10)] for i in range(10)]


@settings(max_examples=150, deadline=None)
@given(matrices)
@example(ZERO_PIVOT)
@example(SINGULAR)
@example([[0] * 10 for _ in range(10)])
def test_determinant_matches_fraction_oracle(rows):
    det = LatticeMap(rows).determinant()
    assert type(det) is int
    assert det == oracle_determinant(rows)


def test_determinant_oracle_examples():
    assert oracle_determinant(ZERO_PIVOT) == -1
    assert LatticeMap(ZERO_PIVOT).determinant() == -1
    assert LatticeMap(SINGULAR).determinant() == 0


@settings(max_examples=60, deadline=None)
@given(
    matrices,
    st.lists(st.integers(-40, 40), min_size=10, max_size=10),
    st.integers(1, 12),
)
def test_apply_matches_fraction_sum(rows, nums, den):
    d = DivisorClass(tuple(nums), den)
    expected = tuple(
        sum((Fraction(x) * y for x, y in zip(r, d.coords)), Fraction(0)) for r in rows
    )
    assert LatticeMap(rows).apply(d).coords == expected


def test_reflection_matrix_has_determinant_minus_one():
    m = LatticeMap.from_basis_images(reflect(root_basis()[3], b) for b in BASIS)
    assert m.is_isometry()
    assert m.determinant() == -1


def test_lattice_map_rejects_non_integers():
    rows = [[int(i == j) for j in range(10)] for i in range(10)]
    rows[2][7] = Fraction(1, 2)
    with pytest.raises(TypeError):
        LatticeMap(rows)
    images = list(BASIS)
    images[4] = DivisorClass(images[4].nums, 2)
    with pytest.raises(ValueError):
        LatticeMap.from_basis_images(images)


def test_translation_moves_base_section():
    t = translation(E[1])
    assert t.map.apply(E[0]) == E[1]
    assert t.map.apply(F) == F
    assert t.map.apply(K) == K
    assert t.map.determinant() == 1


def test_translation_by_base_section_is_identity():
    t = translation(E[0])
    assert t.map == LatticeMap.from_basis_images(BASIS)


def test_translation_rejects_non_sections():
    with pytest.raises(ValueError):
        translation(H)  # H.F = 3
    with pytest.raises(ValueError):
        translation(F)
    with pytest.raises(ValueError):
        translation(2 * E[0] - E[1])


def test_low_degree_sections_census():
    secs = low_degree_sections(1)
    assert len(secs) == SECTION_COUNT
    for s in secs:
        assert intersect(s, F) == 1


def test_all_low_degree_translations_pass():
    for s in low_degree_sections(1):
        t = translation(s)
        rep = verify_weyl_necessary_conditions(t)
        assert rep.passed, s
        assert rep.failures == ()
        assert rep.determinant == 1


def test_corrupted_map_fails_conditions():
    t = translation(E[1])
    rows = [list(r) for r in t.map.rows]
    rows[3][5] += 1
    broken = LatticeMap(tuple(tuple(r) for r in rows))
    failures = weyl_condition_failures(broken)
    assert failures
    assert any("isometry" in f for f in failures)


def _compose(a: LatticeMap, b: LatticeMap) -> LatticeMap:
    """a after b, built from the images of the basis."""
    return LatticeMap.from_basis_images(a.apply(b.apply(x)) for x in BASIS)


def test_translation_squared_is_not_identity():
    t = translation(E[1])
    twice = _compose(t.map, t.map)
    assert twice != LatticeMap.from_basis_images(BASIS)
    assert twice.apply(F) == F  # still fixes the fiber


def test_composition_stays_in_group():
    t1 = translation(E[1])
    t2 = translation(H - E[0] - E[1])
    composed = _compose(t1.map, t2.map)
    assert weyl_condition_failures(composed) == ()
    assert composed.determinant() == 1


def test_translation_group_law():
    """t_p after t_q is the translation by t_p(q), for 200 seeded pairs of
    sections of degree at most 2, and the composite passes the conditions."""
    sections = enumerate_minus_one_classes(2)
    assert len(sections) == 171
    rng = random.Random(6)
    pairs = [(rng.choice(sections), rng.choice(sections)) for _ in range(200)]
    pairs.append((E[1], E[1]))  # t_{E2} squared is not the identity
    identity = LatticeMap.from_basis_images(BASIS)
    for p, q in pairs:
        t_p, t_q = translation(p), translation(q)
        composite = _compose(t_p.map, t_q.map)
        section = t_p.map.apply(q)
        assert translation(section).map == composite, (p, q)
        assert weyl_condition_failures(composite, section=section) == (), (p, q)
        assert composite.determinant() == 1
        assert (composite == identity) == (section == E[0]), (p, q)


def test_translate_hilb_preserves_pairings():
    t = translation(E[1])
    d = fiber_orthogonal_lift(H - E[0], 3)
    moved = HilbDivisor(t.map.apply(d.surf), d.b_half)
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
            (translations._transvect(ints, v, c), label)
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
        nums = translations._transvect(nums, tuple(-x for x in v), c)
    return DivisorClass(nums, surf.den)


def _translated_lifts() -> list[DivisorClass]:
    """The n = 3 lifts of H, H-E1 and 2H-E1-E2-E3-E4, each moved one to four
    times by the translation by H-E4-E9."""
    t = translation(H - E[3] - E[8]).map
    lifts = []
    for c in (H, H - E[0], 2 * H - E[0] - E[1] - E[2] - E[3]):
        surf = fiber_orthogonal_lift(c, 3).surf
        for _ in range(4):
            surf = t.apply(surf)
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
    t = translation(H - E[3] - E[8])
    surf = t.map.apply(fiber_orthogonal_lift(H, 3).surf)
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
    rep = coverage_experiment(CoverageConfig(3, samples=5, seed=0))
    assert rep.passed
    assert rep.successes == 5
    assert rep.stalled_count == 3
    assert rep.max_reduced_h == Fraction(75, 2)
    assert len(rep.trials) == 5
    assert all(t.decomposed for t in rep.trials)


def test_coverage_pool_lifts_only_drawn_generators(monkeypatch):
    """The pool is F, then the orbits of H and H - E1; replaying the draws
    gives the indices the trials read, and no others are lifted."""
    cfg = CoverageConfig(3, samples=30, seed=5, max_h_degree=4)
    size = 1 + len(weyl_orbit(H, 4)) + len(weyl_orbit(H - E[0], 4))
    rng = random.Random(cfg.seed)
    drawn = set()
    for _ in range(cfg.samples):
        for _ in range(rng.randint(1, translations.MAX_TERMS)):
            rng.randint(1, translations.MAX_COEFF)
            drawn.add(rng.randrange(size))
    expected = coverage_experiment(cfg).to_json()
    calls = []
    real = translations.fiber_orthogonal_lift

    def counted(c, n):
        calls.append(c)
        return real(c, n)

    monkeypatch.setattr(translations, "fiber_orthogonal_lift", counted)
    assert coverage_experiment(cfg).to_json() == expected
    assert 0 < len(calls) <= len(drawn) < size // 20
    assert len(set(calls)) == len(calls)


def test_coverage_draws_without_listing_the_orbits(monkeypatch):
    """The pool's generators are unranked by index; no orbit of H or H - E1
    is listed."""
    calls = []
    real = weyl._orbit_cached

    def counted(start, max_h_degree):
        calls.append(start)
        return real(start, max_h_degree)

    monkeypatch.setattr(weyl, "_orbit_cached", counted)
    rep = coverage_experiment(CoverageConfig(3, samples=30, seed=5, max_h_degree=5))
    assert rep.passed
    assert H not in calls and H - E[0] not in calls


def test_coverage_experiment_deterministic():
    cfg = CoverageConfig(3, samples=4, seed=7)
    assert coverage_experiment(cfg).to_json() == coverage_experiment(cfg).to_json()


def test_coverage_config_validation():
    with pytest.raises(ValueError):
        coverage_experiment(CoverageConfig(2, samples=1, seed=0))
    with pytest.raises(ValueError):
        coverage_experiment(CoverageConfig(3, samples=0, seed=0))
