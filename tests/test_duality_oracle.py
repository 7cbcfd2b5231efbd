"""The duality scan against the scaled-integer scan it replaced.

`oracle_duality_check` is the pairing-by-pairing scan that production ran
before the per-degree dot profile: it pairs every candidate with every curve
and is kept here, unchanged apart from its name, as the independent reference.
`oracle_dot_profile` is the profile production built before it paired each
orbit block once per S9 orbit of (-1)-curves: one row per curve, every class
paired with every curve.  Production prints one row per S9 orbit of
(-1)-curves; `by_orbit` groups the oracle's per-curve rows that way.  A
falsified scan prints one violation per (candidate, curve) in the oracle and
one per negative (block, column) or failing block in production, so
falsified reports are compared field by field apart from their violations.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbnef import hilb, weyl
from hilbnef.hilb import (
    C0,
    ContractedCurve,
    CurveRow,
    DualityReport,
    HilbDivisor,
    InducedCurve,
    _least_negative_arrangement,
    _least_pairing,
    _least_pairing_count,
    cone_duality_check,
    fiber_orthogonal_lift,
    lift,
    pair_hilb,
)
from hilbnef.lattice import DivisorClass, E, F, H, divisor, dot_int, parse_divisor

from conftest import distinct_permutations, listed_orbit


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
    orbit_h = listed_orbit(H, max_h_degree)
    orbit_ruling = listed_orbit(H - E[0], max_h_degree)
    minus_ones = listed_orbit(E[8], max_h_degree)

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
        listed_orbit(H, max_h_degree),
        listed_orbit(H - E[0], max_h_degree),
    )
    ints = tuple(tuple(c.nums for c in block) for block in classes)
    curves = [("contracted", C0), ("fiber", InducedCurve(F))]
    curves += [
        (str(e_cls), InducedCurve(e_cls))
        for e_cls in listed_orbit(E[8], max_h_degree)
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
    size.  Per (block, curve): the least t = c.e of the curve's column and
    how many classes reach it.  Per (block, column): the witness is the
    oracle's first class at the one value of t that can pair zero with the
    column's curve: any value for the contracted and fiber curves, where t
    is constant, and t = 0 for a (-1)-curve."""
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
            least = min(old)
            assert profile.counts[k][column[j]] == (least, old[least][0])
        for m, j in enumerate(own):
            witnesses = {t: classes[k][i] for t, (_, i) in block[j].items()}
            if m < 2:
                assert list(witnesses.values()) == [profile.first[k][m]]
            else:
                assert profile.first[k][m] == witnesses.get(0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=10, max_size=10),
    st.integers(0, 4),
    st.lists(st.integers(0, 3), min_size=9, max_size=9),
    st.integers(0, 3),
)
def test_rearrangement_closed_forms_match_brute_force(column, a, rep, above):
    """A column's numerators against a representative (a, b): the least
    pairing, how many distinct arrangements reach it and the least
    arrangement below a threshold, against every arrangement paired."""
    nums, b = tuple(column), tuple(sorted(rep, reverse=True))
    pairings = {
        tuple(-v for v in s): dot_int(nums, (a,) + tuple(-v for v in s))
        for s in distinct_permutations(b)
    }
    low = min(pairings.values())
    assert _least_pairing(nums, a, b) == low
    assert _least_pairing_count(nums, b) == list(pairings.values()).count(low)
    below = low + 1 + above
    assert _least_negative_arrangement(nums, a, b, below) == min(
        e for e, t in pairings.items() if t < below
    )


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
    table that the profile reads, as one more (b, arrangements) pair of its
    degree, and its classes join the oracle's orbit."""
    real_groups, real_orbit = hilb._degree_groups, listed_orbit

    def degree_groups(start, max_h_degree):
        groups = real_groups(start, max_h_degree)
        if start in extra:
            a, *e = extra[start].nums
            b = tuple(sorted((-x for x in e), reverse=True))
            pairs = {d: reps for d, _, reps in groups}
            pairs[a] = pairs.get(a, ()) + ((b, weyl._arrangements(b)),)
            groups = tuple(
                (d, sum(size for _, size in reps), reps) for d, reps in sorted(pairs.items())
            )
        return groups

    def orbit(start, max_h_degree):
        classes = real_orbit(start, max_h_degree)
        if start in extra:
            classes = tuple(sorted([*classes, *s9_orbit(extra[start])]))
        return classes

    monkeypatch.setattr(hilb, "_degree_groups", degree_groups)
    monkeypatch.setattr(sys.modules[__name__], "listed_orbit", orbit)
    hilb._dot_profile.cache_clear()


@pytest.fixture
def injected_orbits(monkeypatch):
    inject(monkeypatch, {H: BAD_H, H - E[0]: BAD_RULING})
    yield
    hilb._dot_profile.cache_clear()


@pytest.mark.parametrize("n", [3, 4, 12])
def test_falsified_scan_matches_oracle(injected_orbits, n):
    # the injected classes pair -1 with (-1)-curves, which no class of W.H or
    # W.(H-E1) does (the lemma of `_dot_profile`): the oracle lists them as
    # violations, and the scan refuses its profile
    oracle = oracle_duality_check(n, 2)
    assert not oracle.passed
    assert "(2H-3E1)^[n] against H-E1-E2: -1" in oracle.violations
    with pytest.raises(ArithmeticError, match=r"W\.\(H\) pairs -1 with the \(-1\)-class H-E1-E2$"):
        cone_duality_check(n, 2)


def test_ray_pairing_nonzero_with_a_minus_one_curve_is_rejected(monkeypatch):
    # n F^[n] - B/2 pairs n - (n - 1) = 1 with every induced (-1)-curve
    monkeypatch.setattr(hilb, "b_negative_ray", lambda n: HilbDivisor(n * F, Fraction(-1)))
    with pytest.raises(ValueError, match="ray pairs nonzero"):
        cone_duality_check(3, 1)


def scaled_lifts(monkeypatch, factor):
    """Every fiber-orthogonal lift built with factor times its scale x;
    production and oracle see the same lifts."""
    real_scale = hilb._orthogonal_scale
    monkeypatch.setattr(hilb, "_orthogonal_scale", lambda cf, n: factor * real_scale(cf, n))


def same_but_violations(report: DualityReport, oracle: DualityReport) -> bool:
    fields = [f for f in DualityReport.__slots__ if f != "violations"]
    return [getattr(report, f) for f in fields] == [getattr(oracle, f) for f in fields]


ORTHOGONAL_BLOCKS = ((H, "W.(H)"), (H - E[0], "W.(H-E1)"))


@pytest.mark.parametrize("n", [3, 4, 12])
def test_wrong_orthogonal_scale_matches_oracle(monkeypatch, n):
    # twice its scale: each lift pairs n, not 0, with the induced fiber curve,
    # so the oracle names every lift and the scan each of the two blocks
    scaled_lifts(monkeypatch, 2)
    report = cone_duality_check(n, 2)
    oracle = by_orbit(oracle_duality_check(n, 2))
    assert same_but_violations(report, oracle)
    assert not report.passed
    lifts = [fiber_orthogonal_lift(c, n) for start, _ in ORTHOGONAL_BLOCKS
             for c in listed_orbit(start, 2)]
    assert len(lifts) == 220
    assert list(oracle.violations) == [
        f"{d} is not orthogonal to the induced fiber curve" for d in lifts
    ]
    assert list(report.violations) == [
        f"none of the {len(listed_orbit(start, 2))} fiber-orthogonal lifts of {name} "
        "is orthogonal to the induced fiber curve"
        for start, name in ORTHOGONAL_BLOCKS
    ]


def test_passing_scan_builds_only_printed_candidates(monkeypatch):
    calls = {"fiber_orthogonal_lift": 0, "pair_hilb": 0}
    unranked = []  # every class of a Weyl orbit built

    def counted(name):
        real = getattr(hilb, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    real = weyl._unrank
    monkeypatch.setattr(weyl, "_unrank", lambda *args: unranked.append(args) or real(*args))
    hilb._dot_profile.cache_clear()
    report = cone_duality_check(3, 3)  # a cold profile build
    # the blocks and the (-1)-curves come from S9 representatives and each
    # column is read from the rearrangement bound, so no class of a block or
    # a column is built
    assert unranked == []
    for name in calls:
        monkeypatch.setattr(hilb, name, counted(name))
    assert cone_duality_check(3, 3) == report
    assert report.passed
    assert report.curve_candidate_count == 425
    assert report.nef_candidate_count == 1 + 2 * (715 + 639)
    columns = len(report.curve_rows)
    assert columns == 6
    assert calls["pair_hilb"] <= columns  # ray.e, once per column
    assert calls["fiber_orthogonal_lift"] <= columns  # printed witnesses only


def test_falsified_scan_lists_each_block_once(monkeypatch):
    # half its scale: each lift pairs -n/2 with the induced fiber curve.  The
    # oracle names every lift twice; the scan prints one line per negative
    # (block, column), with its least pairing and how many candidates reach
    # it, then one per orthogonal block whose identity fails, and builds no
    # candidate but the printed witnesses
    scaled_lifts(monkeypatch, Fraction(1, 2))
    built = Counter()
    for name in ("lift", "fiber_orthogonal_lift"):
        real = getattr(hilb, name)
        monkeypatch.setattr(
            hilb, name, lambda *args, name=name, real=real: built.update([name]) or real(*args)
        )
    report = cone_duality_check(3, 2)
    oracle = by_orbit(oracle_duality_check(3, 2))
    assert same_but_violations(report, oracle)
    assert report.min_pairing == Fraction(-3, 2)
    sizes = [len(listed_orbit(start, 2)) for start, _ in ORTHOGONAL_BLOCKS]
    assert sum(line.endswith("against fiber: -3/2") for line in oracle.violations) == sum(sizes)
    assert list(report.violations) == [
        f"{size} of the {size} fiber-orthogonal lifts of {name} against fiber: -3/2"
        for size, (_, name) in zip(sizes, ORTHOGONAL_BLOCKS)
    ] + [
        f"none of the {size} fiber-orthogonal lifts of {name} "
        "is orthogonal to the induced fiber curve"
        for size, (_, name) in zip(sizes, ORTHOGONAL_BLOCKS)
    ]
    assert sum(built.values()) <= len(report.curve_rows)
