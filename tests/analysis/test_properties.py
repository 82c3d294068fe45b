"""Tests for the protocol property checkers (safety, dissemination,
fulfillment, inclusiveness) over finished simulated deployments."""

from __future__ import annotations

import dataclasses

from repro.analysis.properties import (
    check_all_properties,
    check_fulfillment,
    check_inclusiveness,
    check_no_forks,
    check_reliable_dissemination,
)
from repro.chaos import ChaosPlan
from repro.consensus.config import ConsensusConfig
from repro.crypto.multisig import AggregateSignature
from repro.experiments.runner import build_deployment
from repro.experiments.workloads import ClientWorkload
from repro.scenarios.engine import attach_chaos


def _finished_deployment(aggregation="iniva", faults=(), duration=1.2, **overrides):
    config = ConsensusConfig(
        committee_size=9, batch_size=10, aggregation=aggregation, view_timeout=0.1, **overrides
    )
    deployment = build_deployment(config)
    ClientWorkload(rate=1_500, payload_size=32, seed=9).attach(
        deployment.simulator, deployment.mempool, duration
    )
    if faults:
        attach_chaos(
            deployment.replicas,
            deployment.network,
            ChaosPlan(seed=0, crashes=dict.fromkeys(faults, 0.0)),
        )
    deployment.start()
    deployment.simulator.run(until=duration)
    return deployment


# ---------------------------------------------------------------------------
# Fault-free runs satisfy everything
# ---------------------------------------------------------------------------
def test_fault_free_iniva_satisfies_all_properties():
    deployment = _finished_deployment()
    reports = check_all_properties(deployment)
    assert set(reports) == {"no-forks", "reliable-dissemination", "fulfillment", "inclusiveness"}
    for name, report in reports.items():
        assert report.holds, f"{name}: {report.violations}"
        assert report.checked > 0
        assert bool(report)


def test_fault_free_tree_and_star_also_pass():
    for aggregation in ("star", "tree"):
        deployment = _finished_deployment(aggregation=aggregation)
        assert check_no_forks(deployment).holds
        assert check_fulfillment(deployment).holds
        assert check_reliable_dissemination(deployment).holds


# ---------------------------------------------------------------------------
# Crash faults: Iniva stays inclusive, the plain tree does not
# ---------------------------------------------------------------------------
def test_iniva_remains_inclusive_under_crash_faults():
    deployment = _finished_deployment(aggregation="iniva", faults=[7, 8], duration=1.5)
    report = check_inclusiveness(deployment)
    assert report.checked > 0
    assert report.holds, report.violations
    assert check_no_forks(deployment).holds
    assert check_fulfillment(deployment).holds


def test_plain_tree_loses_votes_under_internal_crashes():
    """Without 2ND-CHANCE the crash of an aggregator excludes correct leaves.

    With 13 replicas, 3 internal aggregators and one crashed process, every
    view that places the crashed process at an internal position loses its
    whole subtree (3 correct leaves) yet still reaches the quorum of 9, so
    a certificate violating Definition 4 is produced.
    """
    config = dict(committee_size=13, batch_size=10, aggregation="tree",
                  num_internal=3, view_timeout=0.1)
    from repro.experiments.runner import build_deployment

    deployment = build_deployment(ConsensusConfig(**config))
    ClientWorkload(rate=1_500, payload_size=32, seed=9).attach(
        deployment.simulator, deployment.mempool, 2.0
    )
    attach_chaos(
        deployment.replicas,
        deployment.network,
        ChaosPlan(seed=0, crashes={5: 0.0}),
    )
    deployment.start()
    deployment.simulator.run(until=2.0)

    strict = check_inclusiveness(deployment)
    relaxed = check_inclusiveness(deployment, minimum_inclusion=0.7)
    assert strict.checked > 0
    # The strict Definition-4 check fails for at least one certificate,
    # while a relaxed quorum-level requirement still holds.
    assert not strict.holds
    assert relaxed.holds


def test_star_baseline_is_not_inclusive_but_fulfills_quorum():
    deployment = _finished_deployment(aggregation="star", duration=1.0)
    strict = check_inclusiveness(deployment)
    # The star collector stops at a quorum, so full inclusion fails ...
    assert strict.checked > 0
    assert not strict.holds
    # ... but Fulfillment (a quorum of signatures) always holds.
    assert check_fulfillment(deployment).holds
    quorum_level = check_inclusiveness(deployment, minimum_inclusion=0.66)
    assert quorum_level.holds


# ---------------------------------------------------------------------------
# Checker plumbing
# ---------------------------------------------------------------------------
def test_inclusiveness_skips_certificates_of_crashed_collectors():
    deployment = _finished_deployment(aggregation="iniva", faults=[3], duration=1.2)
    # Passing the crashed set explicitly must match the auto-detected one.
    auto = check_inclusiveness(deployment)
    explicit = check_inclusiveness(deployment, crashed=[3])
    assert auto.holds == explicit.holds
    assert auto.checked == explicit.checked


def test_reports_carry_violation_details():
    deployment = _finished_deployment(aggregation="star", duration=1.0)
    report = check_inclusiveness(deployment)
    assert not report.holds
    assert report.violations
    assert all("includes" in violation for violation in report.violations)


def test_fulfillment_requires_the_bft_quorum():
    """At n = 9 a QC needs 7 signers; a 6-signer QC found at a correct replica fails."""
    deployment = _finished_deployment(duration=0.5)
    assert check_fulfillment(deployment).holds
    replica = next(r for r in deployment.replicas if not r.crashed)
    block = next(b for b in replica.blocks.values() if not b.qc.is_genesis)
    six = AggregateSignature(block.qc.aggregate.value, {pid: 1 for pid in range(6)})
    short_qc = dataclasses.replace(block.qc, block_id="six-signers", aggregate=six)
    replica.blocks["six-signers"] = dataclasses.replace(block, qc=short_qc)
    report = check_fulfillment(deployment)
    assert not report.holds
    assert report.violations == ["certificate for six-signers has 6 signatures, requires 7"]
