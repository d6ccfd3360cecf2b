"""Compare two benchmark results: ``python3 perf/compare.py A.json B.json``.

``A`` and ``B`` are files written by ``perf/run.py --out``; ``B`` is judged
against ``A``.  Every end-to-end metric both files hold for a workload is
classed against its bound (``BENCHMARK.json``, or ``catalog.EXTRA_END_TO_END``
for the metrics only some workloads have):

``better``      B beats A by more than the bound
``unchanged``   within the bound either way
``regressed``   B is worse than A by more than the bound
``unresolved``  the spread inside either run (inter-quartile range over the
                median of the samples behind the metric) is wider than the
                bound, so one pair of runs cannot tell

The deterministic work counters of the traced table workloads must match
exactly.
Exit status 1 on any regression or counter mismatch, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from catalog import (
    ABSOLUTE_FLOOR,
    DETERMINISTIC_COUNTERS,
    EXTRA_END_TO_END,
    TABLE_WORKLOADS,
    load_contract,
)


def metric_bounds() -> Dict[str, dict]:
    table = {
        m["name"]: {"better": m["better"], "bound": m["bound"]}
        for m in load_contract()["end_to_end"]
    }
    for name, spec in EXTRA_END_TO_END.items():
        table[name] = {"better": spec["better"], "bound": spec["bound"]}
    return table


def classify(base: dict, new: dict, better: str, bound: float, floor: float = 0.0) -> str:
    """Verdict for ``new`` against ``base`` (each ``{"value", "spread"}``)."""
    worse = new["value"] - base["value"]
    if better == "higher":
        worse = -worse
    allowed = max(bound * abs(base["value"]), floor)
    spreads = [s for s in (base.get("spread"), new.get("spread")) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    if worse > allowed:
        return "regressed"
    if -worse > allowed:
        return "better"
    return "unchanged"


def compare(a: dict, b: dict) -> List[str]:
    """Report lines; a line starting with ``!`` makes the comparison fail."""
    bounds = metric_bounds()
    lines: List[str] = []
    for key in ("seed", "quick"):
        if a.get(key) != b.get(key):
            lines.append(f"note: {key} differs ({a.get(key)} vs {b.get(key)})")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            lines.append(f"note: {workload} is missing from B")
            continue
        run_a, run_b = a["workloads"][workload], b["workloads"][workload]
        for name, spec in bounds.items():
            if name not in run_a.get("e2e", {}) or name not in run_b.get("e2e", {}):
                continue
            base, new = run_a["e2e"][name], run_b["e2e"][name]
            verdict = classify(base, new, spec["better"], spec["bound"], ABSOLUTE_FLOOR.get(name, 0.0))
            change = (new["value"] / base["value"] - 1.0) if base["value"] else float("nan")
            lines.append(
                f"{'!' if verdict == 'regressed' else ' '} {workload:<9} {name:<14} "
                f"{base['value']:>14.6g} {new['value']:>14.6g} {change:>+8.2%}  {verdict}"
            )
        if workload in TABLE_WORKLOADS and "layers" in run_a and "layers" in run_b:
            for counter in DETERMINISTIC_COUNTERS:
                left = run_a["layers"][counter]["value"]
                right = run_b["layers"][counter]["value"]
                if left != right:
                    lines.append(f"! {workload:<9} {counter}: {left:g} != {right:g}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    lines = compare(json.loads(args.base.read_text()), json.loads(args.new.read_text()))
    print("\n".join(lines))
    return 1 if any(line.startswith("!") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
