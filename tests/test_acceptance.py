"""Acceptance gate: one test per criterion, each printing a visible
pass/fail line so a log scrape can grade the run without parsing pytest."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hilbnef import (
    C0,
    CoverageConfig,
    DecompositionError,
    E,
    F,
    H,
    HilbDivisor,
    K,
    Wall,
    ZERO,
    b_negative_ray,
    bounding_cone_decompose,
    cone_duality_check,
    coverage_experiment,
    discrepancy_table,
    divisor,
    enumerate_minus_one_classes,
    fiber_orthogonal_lift,
    gieseker_wall,
    ideal_points_char,
    intersect,
    lift,
    line_bundle_char,
    nef_from_wall,
    pair_hilb,
    rank2_radius_bound,
    rank_one_wall,
    reflect,
    root_basis,
    self_intersection,
    slice_a1,
    slice_a2,
    wall_oracle,
    weyl_orbit,
)
from hilbnef.translations import _reduction_moves
from test_translations import basis_images, determinant, move_image, preserves_form
from test_weyl import oracle_minus_one_classes

N_RANGE = range(3, 13)
DEGREE_BOUND = 3


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL: criterion {number} ({label})")
        raise
    with capsys.disabled():
        print(f"PASS: criterion {number} ({label})")


def test_criterion_1_extremal_wall_center(capsys):
    with criterion(capsys, 1, "extremal wall center is exactly -1 on both slices"):
        for n in N_RANGE:
            for make in (slice_a1, slice_a2):
                wall, cert = gieseker_wall(make(n), DEGREE_BOUND)
                assert wall == Wall(Fraction(-1), Fraction(1))
                assert cert.certified
                assert cert.min_survivor_center == -1


def test_criterion_2_rank_two_exclusion(capsys):
    with criterion(capsys, 2, "rank-2 destabilizers are excluded, bound < 1"):
        for n in N_RANGE:
            for make in (slice_a1, slice_a2):
                assert rank2_radius_bound(make(n)) < 1
        # the certificate's bound uses the exact A.A; the quoted 21/121
        # is the discrepancy table's replay with the quoted A.A
        assert rank2_radius_bound(slice_a1(3)) == Fraction(69, 800)
        rows = {r.quantity: r for r in discrepancy_table(3)}
        row = rows["rank-2 radius bound on the H-family slice"]
        assert (row.quoted, row.recomputed) == ("21/121", "69/800")


def test_criterion_3_wall_to_nef_dictionary(capsys):
    with criterion(capsys, 3, "wall position converts to the nef boundary classes"):
        for n in N_RANGE:
            assert nef_from_wall(slice_a1(n), Fraction(-1)) == fiber_orthogonal_lift(H, n)
            assert nef_from_wall(slice_a2(n), Fraction(-1)) == fiber_orthogonal_lift(
                H - E[0], n
            )


def test_criterion_4_duality_scan(capsys):
    with criterion(capsys, 4, "duality scan finds no violation and full witnesses"):
        started = time.monotonic()
        for n in (3, 4, 5):
            rep = cone_duality_check(n, DEGREE_BOUND)
            assert rep.passed
            assert rep.violations == ()
            assert rep.unwitnessed_curves == ()
            assert rep.curve_candidate_count == 425
            assert rep.min_pairing == 0
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"scan took {elapsed:.1f}s"


def test_criterion_5_weyl_orbit_matches_enumeration(capsys):
    with criterion(capsys, 5, "Weyl orbit equals Diophantine enumeration"):
        expected = {0: 9, 1: 45, 2: 171, 3: 423}
        for degree, count in expected.items():
            orbit = weyl_orbit(E[8], degree)
            assert len(orbit) == count
            assert orbit == enumerate_minus_one_classes(degree)
            assert orbit == oracle_minus_one_classes(degree)
        rng = random.Random(99)
        basis = root_basis()
        for _ in range(1000):
            beta = basis[rng.randrange(9)]
            d1 = divisor(rng.randint(-8, 8), [rng.randint(-8, 8) for _ in range(9)])
            d2 = divisor(rng.randint(-8, 8), [rng.randint(-8, 8) for _ in range(9)])
            im1, im2 = reflect(beta, d1), reflect(beta, d2)
            assert reflect(beta, im1) == d1
            assert self_intersection(im1) == self_intersection(d1)
            assert intersect(im1, im2) == intersect(d1, d2)


def test_criterion_6_wall_formula_against_oracle(capsys):
    with criterion(capsys, 6, "wall formula agrees with the central-charge oracle"):
        rng = random.Random(42)
        for make in (slice_a1, slice_a2):
            sl = make(3)
            ideal = ideal_points_char(3)
            for _ in range(100):
                c1 = divisor(rng.randint(-3, 3), [rng.randint(-2, 2) for _ in range(9)])
                ch = line_bundle_char(c1, rng.randint(0, 4))
                assert rank_one_wall(sl, ch) == wall_oracle(sl, ch, ideal)


def test_criterion_7_discrepancy_report(capsys):
    with criterion(capsys, 7, "discrepancy report carries exact quoted vs recomputed"):
        rows = {r.quantity: r for r in discrepancy_table(3)}
        wall_rows = {
            "extremal wall radius^2 on the H-family slice": (Fraction(29, 11), Fraction(1)),
            "exceptional-wall center on the H-family slice": (Fraction(-4, 3), Fraction(-1)),
            "blown-up-point wall center on the ruling slice": (
                Fraction(-2, 3),
                Fraction(-1, 2),
            ),
        }
        for quantity, (quoted, recomputed) in wall_rows.items():
            row = rows[quantity]
            assert not row.agrees
            assert Fraction(row.quoted) == quoted
            assert Fraction(row.recomputed) == recomputed
        # the certificate goes through on both slices with the recomputed
        # values only (the quoted centers would break it): no GiesekerFalsified
        for make in (slice_a1, slice_a2):
            assert gieseker_wall(make(3))[1].certified


def test_criterion_8_decompose_recompose(capsys):
    with criterion(capsys, 8, "bounding-cone members decompose and recompose exactly"):
        rng = random.Random(0)
        pool = [
            lift(F),
            fiber_orthogonal_lift(H, 3),
            fiber_orthogonal_lift(H - E[0], 3),
            fiber_orthogonal_lift(H - E[4], 3),
        ]
        for _ in range(100):
            d = HilbDivisor(ZERO, Fraction(0))
            for p in pool:
                d = d + rng.randint(0, 3) * p
            nef_part, t = bounding_cone_decompose(d, 3)
            assert lift(nef_part) + t * b_negative_ray(3) == d
        bad = HilbDivisor(2 * F, Fraction(1))
        with pytest.raises(DecompositionError):
            bounding_cone_decompose(bad, 3)
        assert pair_hilb(bad, C0, 3) < 0


def test_criterion_9_translation_coverage(capsys):
    with criterion(capsys, 9, "section translations verify and cover the samples"):
        moves = _reduction_moves()
        assert len(moves) == 45
        for label, *move in moves:
            images = basis_images(move)
            assert preserves_form(images), label  # the Gram matrix, by dot_int
            assert move_image(move, F) == F and move_image(move, K) == K, label
            assert str(images[1]) == label  # E1 goes to the section
            assert determinant(images) == 1, label  # by oracle_determinant
        cfg = CoverageConfig(3, samples=100, seed=0, max_h_degree=3)
        report = coverage_experiment(cfg)
        assert report.successes == 100
        assert report.passed
