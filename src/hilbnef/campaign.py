"""Certification campaign over a range of n.

For each n the campaign runs the duality scan, the extremal-wall certificate
on both slices, the wall-to-nef identity, and the closed-form ampleness
checks, then attaches the discrepancy table.  The verdict is "certified"
only if every check passes; any falsification flips it and is preserved in
the report verbatim.
"""

from __future__ import annotations

from .lattice import E, H
from .record import Record
from .hilb import cone_duality_check, fiber_orthogonal_lift
from .bridgeland import GiesekerFalsified, gieseker_wall, nef_from_wall, slice_for
from .surface_cones import ample_family
from .reporting import discrepancy_table

N_FLOOR = 3
N_CAP = 64


class CampaignUsageError(ValueError):
    """Bad campaign parameters; maps to CLI exit code 2."""


class Campaign(Record):
    __slots__ = ("n_start", "n_end", "max_h_degree", "slices")
    n_start: int
    n_end: int
    max_h_degree: int
    slices: tuple[str, ...]


def validate_campaign(c: Campaign) -> None:
    if c.n_start < N_FLOOR or c.n_end > N_CAP or c.n_start > c.n_end:
        raise CampaignUsageError(
            f"n range must satisfy {N_FLOOR} <= n_start <= n_end <= {N_CAP}; "
            f"got {c.n_start}..{c.n_end}"
        )
    if c.max_h_degree < 0:
        raise CampaignUsageError("max_h_degree must be nonnegative")
    if not c.slices or any(s not in ("A1", "A2") for s in c.slices):
        raise CampaignUsageError("slices must be a nonempty subset of {A1, A2}")
    if len(set(c.slices)) != len(c.slices):
        raise CampaignUsageError("slices must not repeat")


class CheckResult(Record):
    __slots__ = ("n", "name", "passed", "detail")
    n: int
    name: str
    passed: bool
    detail: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class CampaignResult(Record):
    __slots__ = ("campaign", "checks", "discrepancies")
    campaign: Campaign
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
            "n_start": self.campaign.n_start,
            "n_end": self.campaign.n_end,
            "max_h_degree": self.campaign.max_h_degree,
            "slices": list(self.campaign.slices),
            "results": [
                {"n": n, "checks": rows} for n, rows in sorted(by_n.items())
            ],
            "discrepancies": self.discrepancies,
            "verdict": self.verdict,
        }


def _ample_check(label: str, n: int) -> CheckResult:
    report = ample_family(label, n)
    return CheckResult(n, f"ample_{label}", report.ample, report.to_json())


def _checks_for_n(n: int, max_h_degree: int, slices: tuple[str, ...]) -> list[CheckResult]:
    out: list[CheckResult] = []
    duality = cone_duality_check(n, max_h_degree)
    out.append(
        CheckResult(n, "duality_scan", duality.passed, duality.to_json(False))
    )
    for label in slices:
        sl = slice_for(label, n)
        out.append(_ample_check(label, n))
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
        target_class = H if label == "A1" else H - E[0]
        target = fiber_orthogonal_lift(target_class, n)
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


def run_campaign(c: Campaign) -> CampaignResult:
    validate_campaign(c)
    ns = list(range(c.n_start, c.n_end + 1))
    checks = tuple(
        result for n in ns for result in _checks_for_n(n, c.max_h_degree, c.slices)
    )
    discrepancies = {
        str(n): [row.to_json() for row in discrepancy_table(n)] for n in ns
    }
    return CampaignResult(campaign=c, checks=checks, discrepancies=discrepancies)
