"""Run the hilbnef CLI once with spans around each layer's public functions.

Usage: PYTHONPATH=src python3 perfbench/trace_child.py CLI_ARGS...

Stdout is the CLI's own output, byte for byte.  After the CLI returns, one
JSON line with the per-layer metrics goes to stderr.  The package source is
not changed: each wrapped function is replaced, at run time, in every hilbnef
module namespace that binds it (`from .weyl import weyl_orbit` makes copies
in hilb, translations and cli).  Spans are kept in memory as
(name, start, end, parent) and summarised when the CLI returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, function, span name)
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("campaign", "run_campaign", "campaign.run"),
    ("weyl", "weyl_orbit", "weyl.orbit"),
    ("weyl", "enumerate_minus_one_classes", "weyl.minus_one"),
    ("bridgeland", "gieseker_wall", "bridgeland.gieseker"),
    ("bridgeland", "rank1_candidates", "bridgeland.candidates"),
    ("bridgeland", "wall_oracle", "bridgeland.wall_oracle"),
    ("hilb", "cone_duality_check", "hilb.duality"),
    ("hilb", "bounding_cone_decompose", "hilb.decompose"),
    ("translations", "coverage_experiment", "translations.coverage"),
    ("translations", "reduce_surface_class", "translations.reduce"),
    ("reporting", "discrepancy_table", "reporting.discrepancy"),
    ("reporting", "dumps_json", "reporting.dumps"),
)

# report classes whose to_json is spanned as reporting.to_json
REPORT_CLASSES = (
    ("bridgeland", "GiesekerCertificate"),
    ("hilb", "DualityReport"),
    ("translations", "CoverageReport"),
    ("campaign", "CampaignResult"),
    ("surface_cones", "AmplenessReport"),
    ("surface_cones", "NefCertificate"),
)


def _survivors(candidates) -> int:
    return sum(1 for c in candidates if c.filtered_by is None)


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode())


# span name -> (counter, function of the result it adds)
COUNTS = {
    "weyl.orbit": (("weyl.orbit_classes", len),),
    "bridgeland.candidates": (
        ("bridgeland.shapes", len),
        ("bridgeland.survivors", _survivors),
    ),
    "hilb.duality": (("hilb.pairings", lambda r: r.pairings_checked),),
    "translations.reduce": (("translations.reduce_steps", lambda r: r[1]),),
    "translations.coverage": (("translations.stalled", lambda r: r.stalled_count),),
    "reporting.dumps": (("reporting.bytes", _text_bytes),),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name, ())
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            for counter, measure in counts:
                counters[counter] = counters.get(counter, 0) + measure(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per name: calls, time of the outermost spans, and self time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer < 0:
                total[name] = total.get(name, 0.0) + (end - start)
        return {"total": total, "self": self_time, "calls": calls}


def install(tracer: Tracer) -> None:
    """Wrap every function in FUNCTIONS in every hilbnef namespace binding it,
    and the to_json of every report class; fail if any binding is missed."""
    for mod, *_ in FUNCTIONS + REPORT_CLASSES:
        importlib.import_module(f"hilbnef.{mod}")
    modules = [m for n, m in sys.modules.items() if n == "hilbnef" or n.startswith("hilbnef.")]
    originals = []
    for mod, attr, name in FUNCTIONS:
        orig = getattr(sys.modules[f"hilbnef.{mod}"], attr)
        wrapped = tracer.wrap(name, orig)
        originals.append(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    for mod, cls_name in REPORT_CLASSES:
        cls = getattr(sys.modules[f"hilbnef.{mod}"], cls_name)
        cls.to_json = tracer.wrap("reporting.to_json", cls.to_json)
    for m in modules:
        for key, value in vars(m).items():
            if any(value is orig for orig in originals):
                raise RuntimeError(f"{m.__name__}.{key} was not wrapped")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    s = tracer.summary()
    total, self_time, calls = s["total"], s["self"], s["calls"]
    c = tracer.counters

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    main_s = t("cli.main")
    return {
        "weyl.orbit_s": t("weyl.orbit"),
        "weyl.orbit_calls": calls.get("weyl.orbit", 0),
        "weyl.orbit_classes": c.get("weyl.orbit_classes", 0),
        "weyl.minus_one_s": t("weyl.minus_one"),
        "weyl.minus_one_calls": calls.get("weyl.minus_one", 0),
        "bridgeland.gieseker_s": t("bridgeland.gieseker"),
        "bridgeland.candidates_s": t("bridgeland.candidates"),
        "bridgeland.wall_oracle_s": t("bridgeland.wall_oracle"),
        "bridgeland.wall_oracle_calls": calls.get("bridgeland.wall_oracle", 0),
        "bridgeland.shapes": c.get("bridgeland.shapes", 0),
        "bridgeland.survivors": c.get("bridgeland.survivors", 0),
        "bridgeland.survivor_ratio": ratio(
            c.get("bridgeland.survivors", 0), c.get("bridgeland.shapes", 0)
        ),
        "hilb.duality_s": t("hilb.duality"),
        "hilb.pairings": c.get("hilb.pairings", 0),
        "hilb.pairings_per_s": ratio(c.get("hilb.pairings", 0), t("hilb.duality")),
        "hilb.decompose_s": t("hilb.decompose"),
        "hilb.decompose_calls": calls.get("hilb.decompose", 0),
        "translations.coverage_self_s": self_time.get("translations.coverage", 0.0),
        "translations.reduce_s": t("translations.reduce"),
        "translations.reduce_steps": c.get("translations.reduce_steps", 0),
        "translations.stalled": c.get("translations.stalled", 0),
        "reporting.to_json_s": t("reporting.to_json"),
        "reporting.dumps_s": t("reporting.dumps"),
        "reporting.bytes": c.get("reporting.bytes", 0),
        "reporting.discrepancy_s": t("reporting.discrepancy"),
        "campaign.run_s": t("campaign.run"),
        "campaign.self_s": self_time.get("campaign.run", 0.0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        # time of the spans directly under cli.main, over the traced main call
        "trace.span_coverage": ratio(main_s - self_time.get("cli.main", 0.0), main_s),
    }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    code = sys.modules["hilbnef.cli"].main(argv)
    sys.stdout.flush()
    print(json.dumps(layer_metrics(tracer)), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
