"""The paper's primary contribution: Iniva.

* :mod:`repro.core.iniva` — the Iniva vote aggregation protocol
  (Algorithm 1): tree aggregation with ACK confirmations and 2ND-CHANCE
  fallback paths driven by the next leader.
* :mod:`repro.core.rewards` — the rewarding mechanism (leader bonus,
  aggregation bonus, 2ND-CHANCE punishment, redistribution) computed and
  verified purely from the QC's signature multiplicities.
* :mod:`repro.core.verification` — the verification path every process
  runs against a leader's QC and reward claims (Section V-B: a leader
  reporting wrong multiplicities or payouts is considered faulty).
* :mod:`repro.core.reputation` — the Rebop reputation-based leader
  election the paper contrasts Iniva with (Section IV-D).

The game-theoretic incentive analysis of Section VI lives with the rest
of the paper's closed forms in :mod:`repro.analysis.model`.
"""

from repro.core.iniva import InivaAggregator
from repro.core.reputation import RebopElection, ReputationTracker
from repro.core.rewards import (
    RewardDistribution,
    RewardParams,
    compute_rewards,
    compute_star_rewards,
    validate_multiplicities,
)
from repro.core.verification import (
    BlockAuditor,
    CertificateVerdict,
    RewardAuditReport,
    audit_rewards,
    verify_quorum_certificate,
)

__all__ = [
    "BlockAuditor",
    "CertificateVerdict",
    "InivaAggregator",
    "RebopElection",
    "ReputationTracker",
    "RewardAuditReport",
    "RewardDistribution",
    "RewardParams",
    "audit_rewards",
    "compute_rewards",
    "compute_star_rewards",
    "validate_multiplicities",
    "verify_quorum_certificate",
]
