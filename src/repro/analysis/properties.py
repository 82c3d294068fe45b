"""Protocol property checkers (Definitions 2-4, Theorems 1-2, Corollary 1).

The paper states four properties of a vote aggregation scheme — Reliable
Dissemination, Fulfillment, Inclusiveness and (from HotStuff) safety — and
proves that Iniva provides them.  These checkers evaluate the same
properties over a *finished simulated deployment*, so integration tests
and experiments can assert them mechanically instead of eyeballing QC
sizes:

* :func:`check_no_forks` — safety: no two correct replicas commit
  different blocks at the same height.
* :func:`check_reliable_dissemination` — every committed block is known by
  every correct replica (Definition 2 restricted to committed views).
* :func:`check_fulfillment` — every certificate contains at least
  ``bft_quorum(N)`` signatures, the integer ``(1 - f) N`` of
  Definition 3 / Corollary 1.
* :func:`check_inclusiveness` — certificates formed while proposer and
  collector were correct contain *every* correct process
  (Definition 4 / Theorem 2).

Each checker returns a :class:`PropertyReport` with the offending evidence
rather than a bare boolean, which makes test failures actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, TYPE_CHECKING

from repro.consensus.block import Block, QuorumCertificate
from repro.crypto.keys import bft_quorum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import Deployment

__all__ = [
    "PropertyReport",
    "check_no_forks",
    "check_reliable_dissemination",
    "check_fulfillment",
    "check_inclusiveness",
    "check_all_properties",
]


@dataclass
class PropertyReport:
    """Outcome of one property check.

    Attributes:
        name: The property that was checked.
        holds: True when no violation was found.
        violations: Human-readable descriptions of each violation.
        checked: How many items (blocks, certificates, views) were examined.
    """

    name: str
    holds: bool
    violations: List[str] = field(default_factory=list)
    checked: int = 0

    def __bool__(self) -> bool:
        return self.holds


def _correct_replicas(deployment: "Deployment"):
    return [replica for replica in deployment.replicas if not replica.crashed]


def _committed_blocks_by_height(replica) -> Dict[int, str]:
    heights: Dict[int, str] = {}
    for block_id in replica.committed_blocks:
        block = replica.blocks.get(block_id)
        if block is not None and not block.is_genesis:
            heights[block.height] = block.block_id
    return heights


def _known_certificates(deployment: "Deployment") -> Dict[str, QuorumCertificate]:
    """Every non-genesis QC any correct replica has seen, keyed by block id."""
    certificates: Dict[str, QuorumCertificate] = {}
    for replica in _correct_replicas(deployment):
        for block in replica.blocks.values():
            qc = block.qc
            if not qc.is_genesis:
                certificates.setdefault(qc.block_id, qc)
        if not replica.highest_qc.is_genesis:
            certificates.setdefault(replica.highest_qc.block_id, replica.highest_qc)
    return certificates


# ---------------------------------------------------------------------------
# Safety
# ---------------------------------------------------------------------------
def check_no_forks(deployment: "Deployment") -> PropertyReport:
    """No two correct replicas commit different blocks at the same height."""
    report = PropertyReport(name="no-forks", holds=True)
    canonical: Dict[int, str] = {}
    for replica in _correct_replicas(deployment):
        for height, block_id in _committed_blocks_by_height(replica).items():
            report.checked += 1
            existing = canonical.get(height)
            if existing is None:
                canonical[height] = block_id
            elif existing != block_id:
                report.holds = False
                report.violations.append(
                    f"height {height}: replica {replica.process_id} committed {block_id}, "
                    f"another replica committed {existing}"
                )
    return report


# ---------------------------------------------------------------------------
# Reliable dissemination
# ---------------------------------------------------------------------------
def check_reliable_dissemination(deployment: "Deployment") -> PropertyReport:
    """Every committed block is known by every correct replica."""
    report = PropertyReport(name="reliable-dissemination", holds=True)
    correct = _correct_replicas(deployment)
    committed_ids: Set[str] = set()
    for replica in correct:
        committed_ids |= {
            block_id
            for block_id in replica.committed_blocks
            if not replica.blocks[block_id].is_genesis
        }
    for block_id in committed_ids:
        report.checked += 1
        missing = [replica.process_id for replica in correct if block_id not in replica.blocks]
        if missing:
            report.holds = False
            report.violations.append(
                f"committed block {block_id} unknown at correct replicas {missing}"
            )
    return report


# ---------------------------------------------------------------------------
# Fulfillment
# ---------------------------------------------------------------------------
def check_fulfillment(deployment: "Deployment") -> PropertyReport:
    """Every certificate carries a quorum: ``bft_quorum(N) = N - floor((N - 1) / 3)``.

    That is the integer reading of Definition 3's ``(1 - f) N`` with
    ``f·N`` faulty processes tolerated, and the count a verifier accepts.
    """
    report = PropertyReport(name="fulfillment", holds=True)
    threshold = bft_quorum(deployment.config.committee_size)
    for block_id, qc in _known_certificates(deployment).items():
        report.checked += 1
        if qc.size < threshold:
            report.holds = False
            report.violations.append(
                f"certificate for {block_id} has {qc.size} signatures, requires {threshold}"
            )
    return report


# ---------------------------------------------------------------------------
# Inclusiveness
# ---------------------------------------------------------------------------
def check_inclusiveness(
    deployment: "Deployment",
    crashed: Optional[Iterable[int]] = None,
    minimum_inclusion: float = 1.0,
) -> PropertyReport:
    """Certificates formed under correct leaders contain every correct process.

    Definition 4 only constrains views whose proposer *and* collector are
    correct, so certificates collected by (or proposed by) crashed
    replicas are skipped.  ``minimum_inclusion`` relaxes the check to a
    fraction of the correct processes, which is useful for baselines that
    are not inclusive by design.
    """
    report = PropertyReport(name="inclusiveness", holds=True)
    crashed_set = set(crashed) if crashed is not None else {
        replica.process_id for replica in deployment.replicas if replica.crashed
    }
    correct_set = {
        replica.process_id for replica in deployment.replicas
    } - crashed_set

    blocks_by_id: Dict[str, Block] = {}
    for replica in _correct_replicas(deployment):
        blocks_by_id.update(replica.blocks)

    for block_id, qc in _known_certificates(deployment).items():
        block = blocks_by_id.get(block_id)
        if block is None or block.is_genesis:
            continue
        if block.proposer in crashed_set:
            continue
        if qc.collector is not None and qc.collector in crashed_set:
            continue
        report.checked += 1
        included_correct = set(qc.signers) & correct_set
        required = minimum_inclusion * len(correct_set)
        if len(included_correct) + 1e-9 < required:
            missing = sorted(correct_set - set(qc.signers))
            report.holds = False
            report.violations.append(
                f"certificate for {block_id} (view {qc.view}) includes "
                f"{len(included_correct)}/{len(correct_set)} correct processes; missing {missing}"
            )
    return report


def check_all_properties(
    deployment: "Deployment", minimum_inclusion: float = 1.0
) -> Dict[str, PropertyReport]:
    """Run every checker and return the reports keyed by property name."""
    reports = [
        check_no_forks(deployment),
        check_reliable_dissemination(deployment),
        check_fulfillment(deployment),
        check_inclusiveness(deployment, minimum_inclusion=minimum_inclusion),
    ]
    return {report.name: report for report in reports}
