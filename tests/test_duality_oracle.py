"""The duality scan against the scaled-integer scan it replaced.

`oracle_duality_check` is the pairing-by-pairing scan that production ran
before the per-degree dot profile: it pairs every candidate with every curve
and is kept here, unchanged apart from its name, as the independent reference.
`oracle_dot_profile` is the profile production built before it paired each
orbit block once per S9 orbit of (-1)-curves: one row per curve, every class
paired with every curve.  Production prints one row per S9 orbit of
(-1)-curves; `by_orbit` groups the oracle's per-curve rows that way.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from hilbnef import hilb, weyl
from hilbnef.hilb import (
    C0,
    ContractedCurve,
    CurveRow,
    DualityReport,
    HilbDivisor,
    InducedCurve,
    cone_duality_check,
    fiber_orthogonal_lift,
    lift,
    pair_hilb,
)
from hilbnef.lattice import DivisorClass, E, F, H, divisor, dot_int, parse_divisor
from hilbnef.weyl import enumerate_minus_one_classes, weyl_orbit


def oracle_duality_check(n: int, max_h_degree: int = 3) -> DualityReport:
    """Scan every candidate nef generator against every candidate curve class.

    Nef candidates: lifted Weyl images of H and H-E1, the lifted fiber class,
    and the fiber-orthogonal lift of each Weyl image.  Curve candidates: the
    contracted curve, the induced fiber curve, and every induced (-1)-curve
    up to the bound.  Passing means no negative pairing and, for every curve,
    some nef candidate pairing to exactly zero.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    orbit_h = weyl_orbit(H, max_h_degree)
    orbit_ruling = weyl_orbit(H - E[0], max_h_degree)
    minus_ones = enumerate_minus_one_classes(max_h_degree)

    nef_candidates: list[HilbDivisor] = [lift(F)]
    nef_candidates += [lift(c) for c in orbit_h]
    nef_candidates += [lift(c) for c in orbit_ruling]
    eps_candidates = [fiber_orthogonal_lift(c, n) for c in orbit_h]
    eps_candidates += [fiber_orthogonal_lift(c, n) for c in orbit_ruling]
    nef_candidates += eps_candidates

    # Scaled-integer fast path: pairing * den = dot(surf_int, curve_int)
    # + b_half_int * (g - 1 + n), with den the divisor's common denominator.
    scaled = []
    for d in nef_candidates:
        ints, den = d.surf.nums, d.surf.den
        b_num = d.b_half * den
        if b_num.denominator != 1:
            raise ValueError("candidate B coefficient does not clear the denominator")
        scaled.append((ints, int(b_num), den))

    curves: list[tuple[str, tuple[int, ...] | None, int]] = [("contracted", None, 0)]
    curves.append(("fiber", F.nums, n))  # genus 1: g - 1 + n = n
    for e_cls in minus_ones:
        curves.append((str(e_cls), e_cls.nums, n - 1))  # genus 0

    violations: list[str] = []
    # per curve: min pairing as an int pair (num, den), zero hits, witness
    cmin: list[tuple[int, int] | None] = [None] * len(curves)
    zero_counts = [0] * len(curves)
    witness_at = [-1] * len(curves)
    checked = 0
    for cand_idx, (d, (ints, b_num, den)) in enumerate(zip(nef_candidates, scaled)):
        for idx, (label, cvec, gfac) in enumerate(curves):
            if cvec is None:
                num = -b_num
            else:
                num = dot_int(ints, cvec) + b_num * gfac
            checked += 1
            if num == 0:
                zero_counts[idx] += 1
                if witness_at[idx] < 0:
                    witness_at[idx] = cand_idx
            elif num < 0:
                violations.append(f"{d} against {label}: {Fraction(num, den)}")
            prev = cmin[idx]
            if prev is None or num * prev[1] < prev[0] * den:
                cmin[idx] = (num, den)

    # The fiber-orthogonal lifts must kill the induced fiber curve exactly.
    for d in eps_candidates:
        if pair_hilb(d, InducedCurve(F), n) != 0:
            violations.append(f"{d} is not orthogonal to the induced fiber curve")

    rows = tuple(
        CurveRow(
            curve=label,
            arrangements=1,
            min_pairing=Fraction(*cmin[idx]),
            zero_count=zero_counts[idx],
            witness=str(nef_candidates[witness_at[idx]])
            if witness_at[idx] >= 0
            else None,
        )
        for idx, (label, _, _) in enumerate(curves)
    )
    unwitnessed = tuple(row.curve for row in rows if row.witness is None)
    return DualityReport(
        n=n,
        degree_bound=max_h_degree,
        nef_candidate_count=len(nef_candidates),
        curve_candidate_count=len(curves),
        pairings_checked=checked,
        violations=tuple(violations),
        unwitnessed_curves=unwitnessed,
        min_pairing=min(row.min_pairing for row in rows),
        passed=not violations and not unwitnessed,
        curve_rows=rows,
    )


def representative(c: DivisorClass) -> DivisorClass:
    """The least class of the S9 orbit of c: its E-numerators ascending."""
    a, *e = c.nums
    return DivisorClass((a, *sorted(e)))


def by_orbit(report: DualityReport) -> DualityReport:
    """The oracle's report with its (-1)-curve rows grouped by S9 orbit, in
    representative order.  Every row of an orbit must have the same
    min_pairing and zero count; the orbit keeps its representative's row,
    with the orbit's size as its arrangement count."""
    rows = list(report.curve_rows[:2])
    orbits: dict[DivisorClass, list[CurveRow]] = {}
    for row in report.curve_rows[2:]:
        orbits.setdefault(representative(parse_divisor(row.curve)), []).append(row)
    for rep, group in sorted(orbits.items()):
        assert len({(row.min_pairing, row.zero_count) for row in group}) == 1
        (own,) = [row for row in group if row.curve == str(rep)]
        rows.append(
            CurveRow(own.curve, len(group), own.min_pairing, own.zero_count, own.witness)
        )
    return DualityReport(
        n=report.n,
        degree_bound=report.degree_bound,
        nef_candidate_count=report.nef_candidate_count,
        curve_candidate_count=report.curve_candidate_count,
        pairings_checked=report.pairings_checked,
        violations=report.violations,
        unwitnessed_curves=tuple(row.curve for row in rows if row.witness is None),
        min_pairing=report.min_pairing,
        passed=report.passed,
        curve_rows=tuple(rows),
    )


@pytest.mark.parametrize(
    "n,degree", [(n, 2) for n in range(3, 13)] + [(3, 3), (7, 3), (12, 3)]
)
def test_scan_matches_oracle(n, degree):
    assert cone_duality_check(n, degree) == by_orbit(oracle_duality_check(n, degree))


# Not nef: 2H-3E1 pairs -1 with every line H-E1-Ej (c.F = 3, as on the orbit of
# H), and H-2E1+E2 pairs -1 with E2 and with H-E1-Ej for j >= 3 (c.F = 2).
BAD_H = divisor(2, [-3, 0, 0, 0, 0, 0, 0, 0, 0])
BAD_RULING = divisor(1, [-2, 1, 0, 0, 0, 0, 0, 0, 0])


def oracle_dot_row(block, curve):
    if isinstance(curve, ContractedCurve):
        dots = [0] * len(block)
    else:
        dots = [dot_int(c, curve.c.nums) for c in block]
    counts = Counter(dots)
    first = {t: i for i, t in reversed(list(enumerate(dots)))}
    return {t: (counts[t], first[t]) for t in counts}


def oracle_dot_profile(max_h_degree):
    """(classes, curves, rows) with rows[k][j] mapping each t = c.e over
    block k to (count, first index)."""
    classes = (
        (F,),
        tuple(weyl_orbit(H, max_h_degree)),
        tuple(weyl_orbit(H - E[0], max_h_degree)),
    )
    ints = tuple(tuple(c.nums for c in block) for block in classes)
    curves = [("contracted", C0), ("fiber", InducedCurve(F))]
    curves += [
        (str(e_cls), InducedCurve(e_cls))
        for e_cls in enumerate_minus_one_classes(max_h_degree)
    ]
    rows = tuple(
        tuple(oracle_dot_row(block, curve) for _, curve in curves) for block in ints
    )
    return classes, tuple(curves), rows


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_profile_rows_match_oracle_profile(degree):
    """Per block: the listed block's size and its one fiber degree.  Per
    column: the contracted curve, the fiber curve, then one S9 orbit of
    (-1)-curves per column, labelled by its representative, with the orbit's
    size.  Per (block, curve): the same values and counts of t = c.e as the
    curve's column, hence the same minimum and zero count.  Per (block,
    column): the witness is the oracle's first class at the one value of t
    that can pair zero with the column's curve: any value for the contracted
    and fiber curves, where t is constant, and t = 0 for a (-1)-curve."""
    classes, curves, rows = oracle_dot_profile(degree)
    profile = hilb._dot_profile(degree)
    assert [start for start, _, _ in profile.blocks] == [F, H, H - E[0]]
    for (_, size, fiber), block in zip(profile.blocks, classes):
        assert size == len(block)
        assert {dot_int(c.nums, F.nums) for c in block} == {fiber}
    # each oracle curve's column, and each column's curve among the oracle's
    reps = sorted({representative(curve.c) for _, curve in curves[2:]})
    column = [0, 1] + [2 + reps.index(representative(curve.c)) for _, curve in curves[2:]]
    own = [column.index(m) for m in range(len(profile.curves))]
    assert [curves[j] for j in own] == [(label, curve) for label, curve, _ in profile.curves]
    assert [column.count(m) for m in range(len(own))] == [
        size for _, _, size in profile.curves
    ]
    for k, block in enumerate(rows):
        for j, old in enumerate(block):
            assert profile.counts[k][column[j]] == {t: count for t, (count, _) in old.items()}
        for m, j in enumerate(own):
            witnesses = {t: classes[k][i] for t, (_, i) in block[j].items()}
            if m < 2:
                assert list(witnesses.values()) == [profile.first[k][m]]
            else:
                assert profile.first[k][m] == witnesses.get(0)


def s9_orbit(c: DivisorClass) -> list[DivisorClass]:
    """The classes obtained from c by permuting E1..E9, sorted: the closure
    under the transpositions of adjacent E_i."""
    seen = {c.nums}
    todo = [c.nums]
    while todo:
        v = todo.pop()
        for i in range(1, 9):
            w = v[:i] + (v[i + 1], v[i]) + v[i + 2 :]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return sorted(DivisorClass(v) for v in seen)


def inject(monkeypatch, extra):
    """Weyl orbits with the S9 orbit of the non-nef class extra[start] added
    to the orbit of each start in extra: its sorted representative joins the
    representatives that the profile and a falsified scan read, and its
    classes join the oracle's orbit."""
    real_representatives, real_orbit = hilb._representatives, weyl_orbit

    def representatives(start, max_h_degree):
        reps = real_representatives(start, max_h_degree)
        if start in extra:
            a, *e = extra[start].nums
            reps += ((a, tuple(sorted((-x for x in e), reverse=True))),)
        return reps

    def orbit(start, max_h_degree):
        classes = real_orbit(start, max_h_degree)
        return sorted(classes + s9_orbit(extra[start])) if start in extra else classes

    monkeypatch.setattr(hilb, "_representatives", representatives)
    monkeypatch.setattr(sys.modules[__name__], "weyl_orbit", orbit)
    hilb._dot_profile.cache_clear()


@pytest.fixture
def injected_orbits(monkeypatch):
    inject(monkeypatch, {H: BAD_H, H - E[0]: BAD_RULING})
    yield
    hilb._dot_profile.cache_clear()


@pytest.mark.parametrize("n", [3, 4, 12])
def test_falsified_scan_matches_oracle(injected_orbits, n):
    report = cone_duality_check(n, 2)
    assert report == by_orbit(oracle_duality_check(n, 2))
    assert not report.passed


def test_falsified_scan_lists_offenders_candidate_major(injected_orbits):
    eps_h = "(8H-5E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8-2E9)^[n] - 1*B/2"
    eps_ruling = "(15/2H-5E1-1/2E2-2E3-2E4-2E5-2E6-2E7-2E8-2E9)^[n] - 1*B/2"
    assert str(fiber_orthogonal_lift(BAD_H, 3)) == eps_h
    assert str(fiber_orthogonal_lift(BAD_RULING, 3)) == eps_ruling
    # 2H-3Ei pairs -1 with the eight lines through Ei; H-2Ei+Ej pairs -1 with
    # Ej and with the seven lines through Ei but not Ej
    bad_h = [(2 * H - 3 * E[i], sorted(H - E[i] - E[k] for k in range(9) if k != i))
             for i in range(9)]
    bad_ruling = sorted(
        (H - 2 * E[i] + E[j], sorted([E[j]] + [H - E[i] - E[k] for k in range(9)
                                               if k not in (i, j)]))
        for i in range(9) for j in range(9) if i != j
    )

    def lines(build, rows, value):
        return [f"{build(c)} against {e}: {value}" for c, curves in rows for e in curves]

    def eps(c):
        return fiber_orthogonal_lift(c, 3)

    expected = lines(lift, bad_h, -1) + lines(lift, bad_ruling, -1)
    expected += lines(eps, bad_h, -1) + lines(eps, bad_ruling, "-3/2")
    report = cone_duality_check(3, 2)
    assert list(report.violations) == expected
    assert len(expected) == 2 * (9 + 72) * 8
    assert expected[:8] == [f"(2H-3E1)^[n] against H-E1-E{j}: -1" for j in range(2, 10)]
    assert report.min_pairing == Fraction(-3, 2)


def test_falsified_scan_orders_offending_curves_across_orbits(monkeypatch):
    # 5H-4E1-4E2-E3-...-E9 (c.F = 0, so it joins the block {F}) pairs
    # negatively with curves of both S9 orbits of degree 4, 4H-3E1-E2-...-E9
    # and 4H-2E1-2E2-2E3-E4-...-E8, whose classes interleave in class order;
    # each candidate's lines follow the curve order of the listed (-1)-classes
    bad = divisor(5, [-4, -4, -1, -1, -1, -1, -1, -1, -1])
    inject(monkeypatch, {F: bad})
    try:
        report = cone_duality_check(3, 4)
    finally:
        hilb._dot_profile.cache_clear()
    curves = [(str(e), InducedCurve(e)) for e in enumerate_minus_one_classes(4)]
    expected = []
    for c in s9_orbit(bad):
        d = lift(c)
        expected += [
            f"{d} against {label}: {pair_hilb(d, curve, 3)}"
            for label, curve in curves
            if pair_hilb(d, curve, 3) < 0
        ]
    assert list(report.violations) == expected
    # the first candidate's offending curves of degree 4 switch orbits twice
    first = [line for line in expected if line.startswith(f"{lift(bad)} against 4H")]
    orbits = [representative(parse_divisor(line.split(" against ")[1].split(":")[0]))
              for line in first]
    assert sum(a != b for a, b in zip(orbits, orbits[1:])) >= 2


def test_falsified_scan_expands_only_orbits_that_can_fail(monkeypatch):
    # 2H-5E1-5E2+E3+...+E9 (c.F = 3, as on the orbit of H) pairs negatively
    # with (-1)-curves of several S9 orbits up to degree 4, both as c^[n] and
    # as its fiber-orthogonal lift; the scan expands its 36 classes, not the
    # whole blocks of W.H, so it stays fast at degree 4
    bad = divisor(2, [-5, -5, 1, 1, 1, 1, 1, 1, 1])
    inject(monkeypatch, {H: bad})
    try:
        report = cone_duality_check(3, 4)
    finally:
        hilb._dot_profile.cache_clear()
    curves = [("contracted", C0), ("fiber", InducedCurve(F))]
    curves += [(str(e), InducedCurve(e)) for e in enumerate_minus_one_classes(4)]
    expected = []
    for build in (lift, lambda c: fiber_orthogonal_lift(c, 3)):
        for c in s9_orbit(bad):
            d = build(c)
            expected += [
                f"{d} against {label}: {pair_hilb(d, curve, 3)}"
                for label, curve in curves
                if pair_hilb(d, curve, 3) < 0
            ]
    assert list(report.violations) == expected
    assert len(expected) == 10296


def test_ray_pairing_nonzero_with_a_minus_one_curve_is_rejected(monkeypatch):
    # n F^[n] - B/2 pairs n - (n - 1) = 1 with every induced (-1)-curve
    monkeypatch.setattr(hilb, "b_negative_ray", lambda n: HilbDivisor(n * F, Fraction(-1)))
    with pytest.raises(ValueError, match="ray pairs nonzero"):
        cone_duality_check(3, 1)


@pytest.fixture
def doubled_scale(monkeypatch):
    """Every fiber-orthogonal lift built with twice its scale x, so each one
    pairs n, not 0, with the induced fiber curve; production and oracle see
    the same lifts."""
    real_scale = hilb._orthogonal_scale
    monkeypatch.setattr(hilb, "_orthogonal_scale", lambda cf, n: 2 * real_scale(cf, n))


@pytest.mark.parametrize("n", [3, 4, 12])
def test_wrong_orthogonal_scale_matches_oracle(doubled_scale, n):
    report = cone_duality_check(n, 2)
    assert report == by_orbit(oracle_duality_check(n, 2))
    assert not report.passed
    lifts = [fiber_orthogonal_lift(c, n) for c in weyl_orbit(H, 2)]
    lifts += [fiber_orthogonal_lift(c, n) for c in weyl_orbit(H - E[0], 2)]
    assert len(lifts) == 220
    assert list(report.violations) == [
        f"{d} is not orthogonal to the induced fiber curve" for d in lifts
    ]


def test_passing_scan_builds_only_printed_candidates(monkeypatch):
    calls = {"fiber_orthogonal_lift": 0, "pair_hilb": 0, "_permutations": 0}
    listed = []  # the start of every Weyl orbit listed

    def counted(name):
        real = getattr(hilb, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    real_listing = weyl._orbit_cached
    monkeypatch.setattr(
        weyl, "_orbit_cached", lambda start, k: listed.append(start) or real_listing(start, k)
    )
    hilb._dot_profile.cache_clear()
    report = cone_duality_check(3, 3)  # a cold profile build
    # the blocks and the (-1)-curves come from S9 representatives: no orbit is listed
    assert listed == []
    for name in calls:
        monkeypatch.setattr(hilb, name, counted(name))
    assert cone_duality_check(3, 3) == report
    assert report.passed
    assert report.curve_candidate_count == 425
    assert report.nef_candidate_count == 1 + 2 * (715 + 639)
    columns = len(report.curve_rows)
    assert columns == 6
    assert calls["_permutations"] == 0  # no class of a block or a column expanded
    assert calls["pair_hilb"] <= columns  # ray.e, once per column
    assert calls["fiber_orthogonal_lift"] <= columns  # printed witnesses only


def test_falsified_scan_lists_each_block_once(injected_orbits, monkeypatch):
    # the four blocks (c^[n] and the orthogonal lifts over W.H and W.(H-E1))
    # each pair negatively with more than one column, but only the injected
    # S9 orbits can: only their classes are expanded, each once per block
    lifts, lifted = Counter(), Counter()
    real_lift, real_orthogonal = hilb.lift, hilb.fiber_orthogonal_lift

    def lifting(c):
        lifted[c] += 1
        return real_lift(c)

    def orthogonal(c, n):
        lifts[c] += 1
        return real_orthogonal(c, n)

    monkeypatch.setattr(hilb, "lift", lifting)
    monkeypatch.setattr(hilb, "fiber_orthogonal_lift", orthogonal)
    report = cone_duality_check(3, 2)
    assert not report.passed
    bad = Counter(s9_orbit(BAD_H) + s9_orbit(BAD_RULING))
    assert len(bad) == 9 + 72
    # each orthogonal candidate of the injected orbits lifted once, and
    # nothing else lifted
    assert lifts == bad
    # the same classes as c^[n], besides at most one printed witness per column
    assert lifted & bad == bad
    assert sum((lifted - bad).values()) <= len(report.curve_rows)
