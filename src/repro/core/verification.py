"""Independent verification of quorum certificates and reward claims.

Iniva's reward scheme is only trustworthy because every process can
re-derive it from public data: the aggregation tree is deterministic, the
QC's signature multiplicities encode whether a vote arrived through tree
aggregation (multiplicity 2) or through a 2ND-CHANCE fallback
(multiplicity 1), and the reward function is a pure function of both.
Section V-B of the paper states that a leader reporting wrong
multiplicities, or a wrong reward distribution, is considered faulty.

This module implements that verification path:

* :func:`verify_quorum_certificate` — cryptographic and structural checks
  of a QC against the view's aggregation tree.
* :func:`audit_rewards` — recompute the reward distribution and diff it
  against the payouts claimed by a leader.
* :class:`BlockAuditor` — the convenience wrapper a replica (or light
  client) would run for every block before accepting its reward claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from repro.consensus.block import QuorumCertificate
from repro.core.rewards import (
    RewardDistribution,
    RewardParams,
    compute_rewards,
    validate_multiplicities,
)
from repro.crypto.keys import Committee
from repro.tree.overlay import AggregationTree

__all__ = [
    "CertificateVerdict",
    "RewardAuditReport",
    "BlockAuditor",
    "verify_quorum_certificate",
    "audit_rewards",
]


@dataclass(frozen=True)
class CertificateVerdict:
    """The outcome of verifying one quorum certificate.

    Attributes:
        valid: True when the certificate passes every check.
        violations: Human-readable reasons for rejection (empty if valid).
        included: Processes whose signatures the certificate contains.
        aggregated: Processes included through tree aggregation
            (leaf multiplicity 2, or an internal/root position).
        second_chance: Leaf processes included through the 2ND-CHANCE
            fallback (multiplicity 1) — these forfeit part of their reward.
    """

    valid: bool
    violations: tuple
    included: frozenset
    aggregated: frozenset
    second_chance: frozenset

    @property
    def second_chance_count(self) -> int:
        return len(self.second_chance)


def _classify_inclusion(
    tree: AggregationTree, multiplicities: Mapping[int, int]
) -> tuple[Set[int], Set[int], Set[int]]:
    included = {pid for pid in tree.processes if multiplicities.get(pid, 0) > 0}
    second_chance = {
        pid
        for pid in tree.leaves
        if multiplicities.get(pid, 0) == 1
    }
    aggregated = included - second_chance
    return included, aggregated, second_chance


def verify_quorum_certificate(
    qc: QuorumCertificate,
    tree: AggregationTree,
    committee: Committee,
    quorum_size: Optional[int] = None,
    verify_signature: bool = True,
) -> CertificateVerdict:
    """Check a QC cryptographically and structurally against its tree.

    Args:
        qc: The certificate under scrutiny.
        tree: The deterministic aggregation tree of the QC's view.
        committee: The committee registry holding every public key.
        quorum_size: Minimum number of distinct signers; defaults to the
            committee's ``floor(2n/3) + 1`` quorum, the one the protocol's
            roots finalise at.
        verify_signature: Skip the (comparatively expensive) aggregate
            verification when False — used by analyses that only care
            about the structural checks.
    """
    violations: List[str] = []
    multiplicities = dict(qc.aggregate.multiplicities)
    included, aggregated, second_chance = _classify_inclusion(tree, multiplicities)

    required = quorum_size if quorum_size is not None else committee.quorum_size()
    if len(included) < required:
        violations.append(
            f"certificate contains {len(included)} signers, quorum requires {required}"
        )

    unknown = set(multiplicities) - set(tree.processes)
    if unknown:
        violations.append(f"certificate contains signers outside the committee: {sorted(unknown)}")

    if qc.collector != tree.root:
        violations.append(
            f"certificate collector {qc.collector} is not the tree root {tree.root}"
        )

    violations.extend(validate_multiplicities(tree, multiplicities))

    if verify_signature and not committee.verify_aggregate(qc.aggregate, qc.signing_payload()):
        violations.append("aggregate signature does not verify against the claimed multiplicities")

    return CertificateVerdict(
        valid=not violations,
        violations=tuple(violations),
        included=frozenset(included),
        aggregated=frozenset(aggregated),
        second_chance=frozenset(second_chance),
    )


@dataclass
class RewardAuditReport:
    """Result of re-deriving a block's reward distribution.

    Attributes:
        consistent: True when the claimed payouts match the recomputation.
        discrepancies: ``process id -> (claimed, recomputed)`` for every
            process whose payout deviates beyond the tolerance.
        recomputed: The distribution derived independently from the QC.
        leader_faulty: True when the deviation is attributable to the
            leader (wrong multiplicities or wrong payout maths), which per
            the paper marks the leader as faulty.
    """

    consistent: bool
    discrepancies: Dict[int, tuple] = field(default_factory=dict)
    recomputed: Optional[RewardDistribution] = None
    leader_faulty: bool = False
    notes: List[str] = field(default_factory=list)


def audit_rewards(
    tree: AggregationTree,
    multiplicities: Mapping[int, int],
    claimed_payouts: Mapping[int, float],
    params: Optional[RewardParams] = None,
    tolerance: float = 1e-9,
) -> RewardAuditReport:
    """Recompute the reward distribution and compare it with a leader's claim."""
    params = params or RewardParams()
    structural = validate_multiplicities(tree, multiplicities)
    recomputed = compute_rewards(tree, multiplicities, params)

    discrepancies: Dict[int, tuple] = {}
    for pid in tree.processes:
        claimed = float(claimed_payouts.get(pid, 0.0))
        expected = recomputed.reward_of(pid)
        if abs(claimed - expected) > tolerance:
            discrepancies[pid] = (claimed, expected)
    extra_claims = set(claimed_payouts) - set(tree.processes)
    notes = list(structural)
    if extra_claims:
        notes.append(f"payouts claimed for non-members: {sorted(extra_claims)}")

    total_claimed = sum(float(amount) for amount in claimed_payouts.values())
    if abs(total_claimed - params.total_reward) > max(tolerance, 1e-6):
        notes.append(
            f"claimed payouts sum to {total_claimed:.6f}, expected {params.total_reward:.6f}"
        )

    consistent = not discrepancies and not notes
    return RewardAuditReport(
        consistent=consistent,
        discrepancies=discrepancies,
        recomputed=recomputed,
        leader_faulty=bool(discrepancies or structural or extra_claims),
        notes=notes,
    )


class BlockAuditor:
    """Re-derives and checks QCs and reward claims for a fixed committee."""

    def __init__(
        self,
        committee: Committee,
        params: Optional[RewardParams] = None,
    ) -> None:
        self.committee = committee
        self.params = params or RewardParams()

    def verify_certificate(
        self, qc: QuorumCertificate, tree: AggregationTree, verify_signature: bool = True
    ) -> CertificateVerdict:
        return verify_quorum_certificate(
            qc,
            tree,
            self.committee,
            quorum_size=self.committee.quorum_size(),
            verify_signature=verify_signature,
        )

    def audit_block(
        self,
        qc: QuorumCertificate,
        tree: AggregationTree,
        claimed_payouts: Mapping[int, float],
        verify_signature: bool = True,
    ) -> RewardAuditReport:
        """Full audit: certificate checks first, then the reward recomputation."""
        verdict = self.verify_certificate(qc, tree, verify_signature=verify_signature)
        report = audit_rewards(
            tree, dict(qc.aggregate.multiplicities), claimed_payouts, self.params
        )
        if not verdict.valid:
            report.consistent = False
            report.leader_faulty = True
            report.notes.extend(verdict.violations)
        return report

    def expected_rewards(
        self, qc: QuorumCertificate, tree: AggregationTree
    ) -> RewardDistribution:
        """The distribution an honest leader must publish for this QC."""
        return compute_rewards(tree, dict(qc.aggregate.multiplicities), self.params)
