"""Certification campaign over a range of n.

For each n the campaign runs the duality scan and, on both slices of
`bridgeland.SLICES`, the ampleness of the slice's polarization, the
extremal-wall certificate and the wall-to-nef identity, then attaches the
discrepancy table.  The verdict is "certified" only if every check passes;
any falsification flips it and is preserved in the report verbatim.
"""

from __future__ import annotations

from .record import Record
from .hilb import cone_duality_check, fiber_orthogonal_lift
from .bridgeland import SLICES, GiesekerFalsified, Slice, gieseker_wall, nef_from_wall
from .surface_cones import is_ample
from .reporting import discrepancy_table


class CheckResult(Record):
    __slots__ = ("n", "name", "passed", "detail")
    n: int
    name: str
    passed: bool
    detail: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class CampaignResult(Record):
    __slots__ = ("n_start", "n_end", "max_h_degree", "checks", "discrepancies")
    n_start: int
    n_end: int
    max_h_degree: int
    checks: tuple[CheckResult, ...]
    discrepancies: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return "certified" if self.all_passed else "falsified"

    def to_json(self) -> dict:
        by_n: dict[int, list] = {}
        for c in self.checks:
            by_n.setdefault(c.n, []).append(c.to_json())
        return {
            "n_start": self.n_start,
            "n_end": self.n_end,
            "max_h_degree": self.max_h_degree,
            "slices": list(SLICES),
            "results": [
                {"n": n, "checks": rows} for n, rows in sorted(by_n.items())
            ],
            "discrepancies": self.discrepancies,
            "verdict": self.verdict,
        }


def _checks_for_n(n: int, max_h_degree: int) -> list[CheckResult]:
    out: list[CheckResult] = []
    duality = cone_duality_check(n, max_h_degree)
    out.append(
        CheckResult(n, "duality_scan", duality.passed, duality.to_json(False))
    )
    for label in SLICES:
        sl = Slice(label, n)
        report = is_ample(sl.polarization)
        out.append(CheckResult(n, f"ample_{label}", report.ample, report.to_json()))
        try:
            wall, cert = gieseker_wall(sl, max_h_degree)
        except GiesekerFalsified as exc:
            out.append(
                CheckResult(n, f"extremal_wall_{label}", False, {"error": str(exc)})
            )
            continue
        out.append(
            CheckResult(
                n, f"extremal_wall_{label}", True, cert.to_json(include_candidates=False)
            )
        )
        nef = nef_from_wall(sl, wall.center)
        target = fiber_orthogonal_lift(sl.family, n)
        out.append(
            CheckResult(
                n,
                f"wall_to_nef_{label}",
                nef == target,
                {
                    "divisor": str(nef),
                    "expected": str(target),
                    "matches_orthogonal_lift": nef == target,
                },
            )
        )
    return out


def run_campaign(n_start: int, n_end: int, max_h_degree: int) -> CampaignResult:
    """Every check at each n of n_start..n_end; an empty range raises
    ValueError, so that no campaign certifies without a check."""
    if n_start > n_end:
        raise ValueError(f"empty n range {n_start}..{n_end}")
    ns = range(n_start, n_end + 1)
    checks = tuple(result for n in ns for result in _checks_for_n(n, max_h_degree))
    discrepancies = {
        str(n): [row.to_json() for row in discrepancy_table(n)] for n in ns
    }
    return CampaignResult(n_start, n_end, max_h_degree, checks, discrepancies)
