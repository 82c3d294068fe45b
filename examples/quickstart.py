#!/usr/bin/env python3
"""Quickstart: sign, aggregate and run a small Iniva committee.

This walks through the three layers of the library:

1. the indivisible multi-signature API (sign / aggregate with
   multiplicities / verify),
2. the deterministic aggregation tree, and
3. a full simulated committee running chained HotStuff with Iniva vote
   aggregation through the ``repro.api`` facade (one declarative spec in,
   one :class:`RunResult` out), reporting throughput, latency and vote
   inclusion.

Run with::

    python examples/quickstart.py [--quick]
"""

import sys

from repro import api
from repro.core.rewards import RewardParams, compute_rewards
from repro.crypto import Committee, get_scheme
from repro.experiments import specs
from repro.tree.overlay import AggregationTree

QUICK = "--quick" in sys.argv


def multi_signature_demo() -> None:
    print("=== 1. Indivisible multi-signatures ===")
    scheme = get_scheme("hashsig")         # use get_scheme("bls") for real pairings
    committee = Committee(scheme, size=7, seed=42)
    message = b"vote|example-block|1|1"

    shares = [committee.sign(pid, message) for pid in range(7)]
    print(f"created {len(shares)} signature shares")

    # An internal aggregator includes each child twice and itself once per
    # child (Iniva's multiplicity encoding, Section V-B of the paper).
    internal = scheme.aggregate([(shares[1], 3), (shares[2], 2), (shares[3], 2)])
    print("internal aggregate multiplicities:", dict(internal.multiplicities))

    # The collector folds whole sub-aggregates and individual replies together.
    certificate = scheme.aggregate([(internal, 1), (shares[0], 1), (shares[4], 1)])
    print("certificate signers:", sorted(certificate.signers))
    print("certificate verifies:", committee.verify_aggregate(certificate, message))
    print()


def aggregation_tree_demo() -> None:
    print("=== 2. Deterministic aggregation trees ===")
    tree = AggregationTree.build(committee_size=21, view=7, seed=1, num_internal=4, root=5)
    print(tree.describe())
    print("root (next leader):", tree.root)
    print("internal aggregators:", tree.internal_nodes)
    print("children of", tree.internal_nodes[0], "->", tree.children(tree.internal_nodes[0]))

    # The reward scheme is computed purely from the certificate multiplicities.
    multiplicities = {tree.root: 1}
    for internal in tree.internal_nodes:
        children = tree.children(internal)
        multiplicities[internal] = 1 + len(children)
        multiplicities.update({child: 2 for child in children})
    rewards = compute_rewards(tree, multiplicities, RewardParams())
    print(f"total reward paid: {rewards.total_paid():.6f} (always equals R)")
    print(f"leader payout: {rewards.reward_of(tree.root):.4f}, "
          f"a leaf payout: {rewards.reward_of(tree.leaves[0]):.4f}")
    print()


def consensus_demo() -> None:
    print("=== 3. A simulated Iniva committee (21 replicas) ===")
    # One declarative spec is the whole deployment description; api.run
    # compiles it, runs it and hands back the unified RunResult.  The
    # testbed base pins the paper's single-rack latency (0.5 ms, 20 %
    # jitter), the ConsensusConfig timers and workload seed 42.
    spec = specs.testbed_base("quickstart", duration=3.0, warmup=0.5, seed=1).with_(
        committee={"size": 21}, workload={"rate": 8000.0}
    )
    run = api.run(spec, quick=QUICK)
    metrics = run.metrics
    committee_size = run.spec.committee.size
    print(f"throughput:        {metrics.throughput:,.0f} ops/sec")
    print(f"mean latency:      {metrics.latency.mean * 1000:.1f} ms")
    print(f"avg QC size:       {metrics.average_qc_size:.2f} of {committee_size} "
          "(Iniva includes every correct vote)")
    print(f"failed views:      {metrics.failed_view_fraction * 100:.1f}%")
    print(f"CPU utilisation:   {metrics.cpu_utilisation_mean * 100:.1f}% (mean per replica)")
    print("full JSON document: run.to_json() — stable repro.run-result/2 schema")


if __name__ == "__main__":
    multi_signature_demo()
    aggregation_tree_demo()
    consensus_demo()
