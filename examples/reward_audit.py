#!/usr/bin/env python3
"""Reward audit: recompute and verify the reward distribution from a QC.

In Iniva the reward distribution is a pure function of the quorum
certificate: the signer multiplicities prove who aggregated whom and who
had to be rescued via 2ND-CHANCE.  This example runs a short simulated
deployment, picks real quorum certificates out of the chain and audits
them the way any committee member would:

1. rebuild the aggregation tree for that view,
2. validate the multiplicity pattern (a leader reporting inconsistent
   multiplicities would be flagged as faulty),
3. recompute the reward distribution and the 2ND-CHANCE punishments.

The deployment comes from ``repro.api.deploy`` — the facade's escape
hatch that compiles a declarative spec into a live, not-yet-started
simulator so custom drop rules can be installed before the run.

Run with::

    python examples/reward_audit.py [--quick]
"""

import sys

from repro import api
from repro.aggregation.messages import SignatureMessage
from repro.core.rewards import RewardParams, compute_rewards, validate_multiplicities
from repro.experiments import specs

QUICK = "--quick" in sys.argv
PARAMS = RewardParams(total_reward=1.0, leader_bonus=0.15, aggregation_bonus=0.02)
SUPPRESSED_REPLICA = 5  # this replica's tree votes get dropped by the network
DURATION = 1.0 if QUICK else 1.5


def run_deployment():
    # The paper's single-rack testbed: 0.5 ms latency with 20 % jitter
    # and the ConsensusConfig timers.
    spec = specs.testbed_base(
        "reward-audit", duration=DURATION, warmup=0.1, seed=4, batch_size=20
    ).with_(committee={"size": 9}, workload={"rate": 1500.0, "seed": 4})
    deployment = api.deploy(spec)
    # Simulate a flaky/censored replica: its votes towards its parent are lost,
    # so it can only be included through the 2ND-CHANCE fallback.
    deployment.network.add_drop_rule(
        lambda src, dst, msg: src == SUPPRESSED_REPLICA and isinstance(msg, SignatureMessage)
    )
    deployment.start()
    deployment.simulator.run(until=DURATION)
    return deployment


def audit(deployment, how_many=3):
    replica = deployment.correct_replicas()[0]
    audited = 0
    for block in sorted(replica.blocks.values(), key=lambda b: b.height):
        if block.is_genesis or block.qc.is_genesis:
            continue
        certified = replica.blocks.get(block.qc.block_id)
        if certified is None or certified.is_genesis:
            continue
        tree = replica.build_tree(certified)
        multiplicities = dict(block.qc.aggregate.multiplicities)

        violations = validate_multiplicities(tree, multiplicities)
        rewards = compute_rewards(tree, multiplicities, PARAMS)

        print(f"--- QC for height {certified.height} (view {certified.view}) ---")
        print(f"collector / leader: {block.qc.collector}, included votes: {block.qc.size}/9")
        print(f"multiplicity check: {'OK' if not violations else violations}")
        print(f"total paid out:     {rewards.total_paid():.6f} R")
        if rewards.punishments:
            for pid, amount in rewards.punishments.items():
                print(f"  replica {pid} was included via 2ND-CHANCE and forfeits {amount:.6f} R")
        leader = block.qc.collector
        print(f"  leader bonus earned: {rewards.leader_reward:.4f} R")
        print(f"  payout[leader={leader}] = {rewards.reward_of(leader):.4f} R, "
              f"payout[suppressed={SUPPRESSED_REPLICA}] = {rewards.reward_of(SUPPRESSED_REPLICA):.4f} R")
        print()
        audited += 1
        if audited >= how_many:
            break


if __name__ == "__main__":
    deployment = run_deployment()
    audit(deployment)
    print("Every committee member can perform this audit independently, because the")
    print("tree, the multiplicities and the reward function are all deterministic")
    print("functions of public chain data - that is what makes Iniva's rewards verifiable.")
