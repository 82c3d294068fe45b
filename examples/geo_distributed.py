#!/usr/bin/env python3
"""Geo-distributed committee: one preset, one sweep grid, six runs.

The paper's cluster sits behind one top-of-rack switch with sub-millisecond
latency.  Public blockchain committees are not that lucky, so this example
spreads the committee over five cloud regions (the ``wan-5-regions``
preset: region-level latency matrix, 25 MB/s links with FIFO queuing) and
answers two practical questions:

* how much of Iniva's 7Δ worst-case latency actually materialises when Δ
  has to cover a wide-area hop, and
* what the WAN costs each aggregation scheme — the same campaign is
  re-run with ``star`` and plain ``tree`` aggregation by overriding one
  field of the spec.

The whole campaign is one ``repro.api.sweep`` call: a (scheme × faults)
grid of overrides on the preset, fanned out over worker processes::

    runs = api.sweep("wan-5-regions", grid)

Run with::

    python examples/geo_distributed.py [--quick]
"""

import sys

from repro import api
from repro.analysis.model import iniva_max_latency
from repro.experiments.report import format_rows
from repro.scenarios import compile_scenario

QUICK = "--quick" in sys.argv
SCHEMES = ("iniva", "tree", "star")


def main() -> None:
    base = api.resolve_spec("wan-5-regions")
    if QUICK:
        base = base.quick()
    compiled = compile_scenario(base)
    delta = compiled.config.delta
    print(
        f"{base.committee.size} replicas over {base.topology.regions} regions "
        f"(preset '{base.name}'), derived Δ = {delta * 1000:.0f} ms "
        f"(7Δ bound = {iniva_max_latency(delta) * 1000:.0f} ms)\n"
    )

    # With wide-area view timeouts (8Δ ≈ 2 s) a crashed round-robin leader
    # burns whole seconds, so the faulty runs use Carousel election, which
    # only hands leadership to recent QC signers.
    grid = [
        {
            "name": f"wan-{scheme}-f{faults}",
            "aggregation": scheme,
            "leader_policy": "carousel" if faults else "round-robin",
            "faults": {"crashes": faults, "crash_at": 0.5},
        }
        for scheme in SCHEMES
        for faults in (0, 2)
    ]
    results = api.sweep(base, grid)

    rows = []
    for cell, run in zip(grid, results):
        summary = run.summary()
        rows.append(
            {
                "configuration": f"{cell['aggregation']}, {cell['faults']['crashes']} faults",
                "throughput_ops": round(summary["throughput_ops"], 1),
                "latency_ms": round(summary["latency_mean_ms"], 1),
                "avg_qc_size": round(summary["avg_qc_size"], 2),
                "failed_views_pct": round(summary["failed_views_pct"], 1),
                "2nd_chance_votes": int(summary["second_chance_votes"]),
            }
        )
    print(format_rows(rows, title="Geo-distributed committee (wan-5-regions preset)"))

    print(
        "\nThings to notice:\n"
        " * The mean commit latency sits well below the 7Δ worst case — the\n"
        "   bound pays for the slowest region pair, the common case does not.\n"
        " * The faulty runs keep committing only because Carousel election\n"
        "   routes leadership around the crashed replicas; with round-robin a\n"
        "   crashed leader stalls the WAN for a full 8Δ view timeout.\n"
        " * Iniva's 2ND-CHANCE traffic keeps crashed replicas' subtrees in the\n"
        "   certificates at wide-area prices; the star baseline never notices\n"
        "   omissions at all (QC stays at a bare quorum)."
    )


if __name__ == "__main__":
    main()
