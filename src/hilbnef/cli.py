"""Command-line interface.

Exit codes: 0 when the requested check certifies (or the query succeeds),
1 when a check or certification fails, 2 on usage errors, 3 when a command
crashes (the traceback and an error: line go to stderr, stdout stays empty),
so that a crash never reads as a falsified check.  The report is rendered in
full before its first byte is written, so a crash while rendering it also
exits 3 with nothing on stdout and no --out file.  Every command
prints one canonical JSON document to stdout; --out writes the same bytes
to a file first, so repeated runs are byte-identical.  An --out path that
cannot be written is a usage error and leaves stdout empty; a stdout that is
closed or cannot be written (a reader that exits early) also exits 2 with an
error: line and no traceback.

Parameters that would run too long are usage errors, refused before any
work: each command's --max-degree (for `weyl orbit`, the larger of it and the
H-degree of --start), `coneconj cover --samples`, the walk of a `weyl orbit`
start and the step bound of a `surface nef` walk have caps (MAX_* below),
as has `campaign run --n-end`.  The campaign always certifies both slices of
`bridgeland.SLICES`.
"""

from __future__ import annotations

import argparse
import os
import sys

from .lattice import DivisorClass, F, dot_int, parse_divisor
from .weyl import _degree_groups, orbit_size
from .surface_cones import is_ample, is_nef
from .hilb import cone_duality_check
from .bridgeland import SLICES, GiesekerFalsified, Slice, gieseker_wall
from .translations import CoverageConfig, coverage_experiment
from .campaign import run_campaign
from .reporting import dumps_json

# Caps, checked before any work.  Each comment gives one run at the cap (wall
# time, peak RSS) on a 2-vCPU machine, Python 3.11.7.
# `walls gieseker` prints one candidate row per E2..E9 orbit (55,013 rows at
# degree 9, for 107,622,237 shapes), so its report grows with the orbits.
# Degree 10 (--slice A2 --n 3: 14 MB, 3.8 s, 166 MB) would take nearly the
# whole 4 s budget of the other caps and over four times their memory.
MAX_WALLS_DEGREE = 9  # --slice A2 --n 3: 7.2 MB of JSON, 1.5-2.0 s, 92 MB
# `weyl orbit` prints one row per S9 orbit, so its report grows with the
# sorted representatives, not with the classes: --start H at degree 15 walks
# 98 representatives in 2-3 ms for 841,168 classes.  Degree 15 is where
# MAX_ORBIT_SQUARES already stops --start H (16^2 - H.H = 255 > 225).
MAX_ORBIT_DEGREE = 15  # weyl orbit --start H: 0.10-0.13 s, 16 MB
# The orbit's walk visits, at each degree a of the window, the sorted b with
# sum of squares a^2 - D.D (`weyl._degree_groups`), so its cost grows with
# -D.D too; it is checked from the start before the walk.
MAX_ORBIT_SQUARES = 225  # window^2 - D.D; one degree's walk: at most 0.08 s
# The nef walk costs about 2.4 us and 200 bytes per reflection, which are bounded,
# loosely, by a - (f^2 + 9 D.D) / (6 f) (T_v(H), v = k(E1-E2+E3-E4): 18k^2 for 6k).
MAX_NEF_STEPS = 500_000  # a 499,998-step walk: 1.2 s, 101 MB, 9 MB of JSON
# The duality scan prints one row per S9 orbit of curves (12 at degree 6, for
# 3,026 curves).  Degree 7 would first need orthogonality witnesses from
# outside the degree window: at degree 6 the orbit of 6H-3E1-2E2-...-2E8 (72
# curves) already has none inside it.  Time does not set these caps: the
# scan reads each column from the rearrangement bound, and a cold scan at
# degree 15 takes about 0.07 s.
MAX_THEOREM_DEGREE = 6  # hilb check-theorem --n 3: 0.11-0.12 s, 16 MB
MAX_CAMPAIGN_DEGREE = 6  # campaign run, n = 3..12: 0.33-0.43 s, 18.5 MB
MAX_CAMPAIGN_N = 64  # campaign run --max-degree 6, n = 3..64: 0.99-1.01 s, 20 MB
# The cover unranks each generator it draws (`weyl.orbit_class`) and lists
# no orbit.
MAX_COVER_DEGREE = 6  # coneconj cover --n 3: 0.11-0.17 s, 16 MB
MAX_COVER_SAMPLES = 10_000  # coneconj cover --n 3 --max-degree 6: 3.1-3.4 s, 36 MB


# An error line quotes at most this many characters of the input and of the
# parser's message, so a huge --divisor gives a short line.
ECHO_CHARS = 60


class UsageError(ValueError):
    pass


def _clip(text: str) -> str:
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


def _parse_divisor_arg(text: str) -> DivisorClass:
    try:
        return parse_divisor(text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise UsageError(f"bad divisor {_clip(text)!r}: {_clip(str(exc))}") from exc


def _check_degree(value: int, cap: int | None = None) -> int:
    if value < 0:
        raise UsageError("--max-degree must be nonnegative")
    return value if cap is None else _check_cap("--max-degree", value, cap)


def _check_cap(flag: str, value: int, cap: int) -> int:
    if value > cap:
        raise UsageError(f"{flag} is {value}, over this command's cap of {cap}")
    return value


def _check_n(value: int, flag: str = "--n") -> int:
    if value < 3:
        raise UsageError(f"{flag} must be at least 3")
    return value


def cmd_weyl_orbit(args) -> tuple[dict, int]:
    start = _parse_divisor_arg(args.start)
    if not start.is_integral():
        raise UsageError("orbit start must be an integral class")
    degree = _check_degree(args.max_degree)
    window = max(degree, start.nums[0])  # the orbit's degree window, see weyl_orbit
    _check_cap("max(--max-degree, H-degree of --start)", window, MAX_ORBIT_DEGREE)
    squares = window * window - dot_int(start.nums, start.nums)
    _check_cap("the orbit walk's window^2 - D.D", squares, MAX_ORBIT_SQUARES)
    try:
        groups = _degree_groups(start, degree)
    except ValueError as exc:  # a start with no finite orbit window
        raise UsageError(str(exc)) from exc
    # one row per S9 orbit: its sorted representative, the least of its classes
    rows = [
        {"arrangements": size, "representative": str(DivisorClass((a,) + tuple(-x for x in b)))}
        for a, _, reps in groups
        for b, size in reps
    ]
    payload = {
        "start": str(start),
        "max_degree": degree,
        "total": orbit_size(start, degree),
        "counts_by_degree": {str(a): size for a, size, _ in groups},
        "representatives": rows,
    }
    return payload, 0


def cmd_surface_nef(args) -> tuple[dict, int]:
    d = _parse_divisor_arg(args.divisor)
    f = dot_int(d.nums, F.nums)
    if f > 0:  # a reflection lowers a by >= 1, and Cauchy-Schwarz bounds a below
        steps = d.nums[0] + (-(f * f + 9 * dot_int(d.nums, d.nums))) // (6 * f)
        _check_cap("the nef walk's step bound", steps, MAX_NEF_STEPS)
    cert = is_nef(d)
    return cert.to_json(), 0 if cert.nef else 1


def cmd_surface_ample_family(args) -> tuple[dict, int]:
    n = _check_n(args.n)
    report = is_ample(Slice(args.which, n).polarization)
    payload = {"n": n, "which": args.which, **report.to_json()}
    return payload, 0 if report.ample else 1


def cmd_hilb_check_theorem(args) -> tuple[dict, int]:
    n = _check_n(args.n)
    degree = _check_degree(args.max_degree, MAX_THEOREM_DEGREE)
    report = cone_duality_check(n, degree)
    return report.to_json(), 0 if report.passed else 1


def cmd_walls_gieseker(args) -> tuple[dict, int]:
    n = _check_n(args.n)
    degree = _check_degree(args.max_degree, MAX_WALLS_DEGREE)
    sl = Slice(args.slice, n)
    try:
        wall, cert = gieseker_wall(sl, degree)
    except GiesekerFalsified as exc:
        return {"certified": False, "slice": args.slice, "n": n, "error": str(exc)}, 1
    return {"wall": wall.to_json(), "certificate": cert.to_json()}, 0


def cmd_coneconj_cover(args) -> tuple[dict, int]:
    n = _check_n(args.n)
    degree = _check_degree(args.max_degree, MAX_COVER_DEGREE)
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    _check_cap("--samples", args.samples, MAX_COVER_SAMPLES)
    cfg = CoverageConfig(n=n, samples=args.samples, seed=args.seed, max_h_degree=degree)
    report = coverage_experiment(cfg)
    return report.to_json(), 0 if report.passed else 1


def cmd_campaign_run(args) -> tuple[dict, int]:
    n_start = _check_n(args.n_start, "--n-start")
    n_end = _check_cap("--n-end", args.n_end, MAX_CAMPAIGN_N)
    if n_start > n_end:
        raise UsageError(f"--n-start {n_start} is over --n-end {n_end}")
    degree = _check_degree(args.max_degree, MAX_CAMPAIGN_DEGREE)
    result = run_campaign(n_start, n_end, degree)
    return result.to_json(), 0 if result.all_passed else 1


def _command(group, name: str, handler, help: str) -> argparse.ArgumentParser:
    """A subcommand that prints its JSON report and takes --out."""
    cmd = group.add_parser(name, help=help)
    cmd.add_argument("--out", help="also write the JSON report to this path")
    cmd.set_defaults(handler=handler)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbnef",
        description="Exact nef-cone certification for Hilbert schemes of "
        "points on the nine-point blowup.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    weyl = top.add_parser("weyl", help="Weyl group computations").add_subparsers(
        dest="command", required=True
    )
    orbit = _command(weyl, "orbit", cmd_weyl_orbit, "degree-bounded orbit")
    orbit.add_argument("--start", required=True, help="class, e.g. E9 or H-E1")
    orbit.add_argument("--max-degree", type=int, default=3)

    surface = top.add_parser("surface", help="surface cone checks").add_subparsers(
        dest="command", required=True
    )
    nef = _command(surface, "nef", cmd_surface_nef, "nef check against all curves")
    nef.add_argument("--divisor", required=True, help="class text or JSON")
    ample = _command(
        surface,
        "ample-family",
        cmd_surface_ample_family,
        "ampleness of the A1/A2 polarization for all curves",
    )
    ample.add_argument("--n", type=int, required=True)
    ample.add_argument("--which", choices=tuple(SLICES), required=True)

    hilb = top.add_parser("hilb", help="Hilbert scheme cone checks").add_subparsers(
        dest="command", required=True
    )
    check = _command(
        hilb,
        "check-theorem",
        cmd_hilb_check_theorem,
        "duality scan of the bounding cone",
    )
    check.add_argument("--n", type=int, required=True)
    check.add_argument("--max-degree", type=int, default=3)

    walls = top.add_parser("walls", help="wall computations").add_subparsers(
        dest="command", required=True
    )
    gieseker = _command(
        walls, "gieseker", cmd_walls_gieseker, "certify the extremal wall"
    )
    gieseker.add_argument("--slice", choices=tuple(SLICES), required=True)
    gieseker.add_argument("--n", type=int, required=True)
    gieseker.add_argument("--max-degree", type=int, default=3)

    coneconj = top.add_parser(
        "coneconj", help="cone conjecture experiments"
    ).add_subparsers(dest="command", required=True)
    cover = _command(coneconj, "cover", cmd_coneconj_cover, "random reduction coverage")
    cover.add_argument("--n", type=int, required=True)
    cover.add_argument("--samples", type=int, default=100)
    cover.add_argument("--max-degree", type=int, default=3)
    cover.add_argument("--seed", type=int, default=0, help="RNG seed of the samples")

    camp = top.add_parser("campaign", help="full certification").add_subparsers(
        dest="command", required=True
    )
    run = _command(camp, "run", cmd_campaign_run, "run every check per n")
    run.add_argument("--n-start", type=int, default=3)
    run.add_argument("--n-end", type=int, default=12)
    run.add_argument("--max-degree", type=int, default=3)

    return parser


def _write_stdout(text: str) -> bool:
    """Write and flush the report.  On a closed or unwritable stdout, print an
    error line, point stdout's descriptor at the null device so that the
    interpreter's flush at exit cannot fail again, and return False."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
        return True
    except OSError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # a stream without a descriptor
        return False
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)
    return False


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
        text = dumps_json(payload)  # the whole report, before any byte is written
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # loaded only on a crash: it costs every start a few ms

        traceback.print_exc()
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    return code if _write_stdout(text) else 2


if __name__ == "__main__":
    raise SystemExit(main())
