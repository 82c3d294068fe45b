"""``compare A.json B.json`` — the before/after table.

For every (end-to-end metric, workload) pair: each side's median and
quartiles over its untraced runs, B's change against A in the metric's
*worse* direction, the bound, and a verdict:

* ``unresolved`` — either side's own spread (quartile distance as a share
  of its median) is wider than the bound, so the runs cannot tell;
* ``worse`` / ``better`` — B's median moved by more than the bound;
* ``within`` — anything else.

Exact simulator counts are compared seed by seed.  Exits 1 when any pair
is ``worse`` or an exact count differs.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Sequence, Tuple

from metrics import END_TO_END
from stats import quartiles, spread


def _load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != "repro.benchmark-suite/1":
        raise SystemExit(f"{path}: not a suite document")
    return document


def _values(document: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in document["runs"]
        if run["workload"] == workload and run["trace"] == 0 and metric in run["metrics"]
    ]


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, worsening)``; worsening is B's median against A's as a
    share of A's, positive when B is worse."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worsening = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within", worsening


def _exact_by_seed(document: Dict[str, Any]) -> Dict[Tuple[str, int, float], Any]:
    return {
        (run["workload"], run["seed"], run["seconds"]): run["detail"]["exact"]
        for run in document["runs"]
        if run["trace"] == 0 and "exact" in run.get("detail", {})
    }


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: run.py compare A.json B.json")
    a, b = _load(argv[0]), _load(argv[1])
    if not (a["comparable"] and b["comparable"]):
        print("note: at least one side is a --quick document; its numbers are not comparable")
    workloads = sorted({run["workload"] for run in a["runs"]} & {run["workload"] for run in b["runs"]})
    bad = 0
    print(f"{'workload':22s} {'metric':24s} {'A q1/med/q3':>32s} {'B q1/med/q3':>32s} {'worse by':>9s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric, unit, better, bound in END_TO_END:
            va, vb = _values(a, workload, metric), _values(b, workload, metric)
            if not va or not vb:
                continue
            outcome, worsening = verdict(va, vb, better, bound)
            bad += outcome == "worse"
            cells = ["/".join(f"{q:.5g}" for q in quartiles(v)) + f" n={len(v)}" for v in (va, vb)]
            print(f"{workload:22s} {metric:24s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{100 * worsening:>+8.1f}% {100 * bound:>5.0f}%  {outcome}")
    exact_a, exact_b = _exact_by_seed(a), _exact_by_seed(b)
    for key in sorted(set(exact_a) & set(exact_b)):
        same = exact_a[key] == exact_b[key]
        bad += not same
        print(f"{key[0]} seed={key[1]}: exact counts {'identical' if same else 'DIFFER'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
