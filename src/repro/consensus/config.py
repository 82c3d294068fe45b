"""Configuration for consensus/aggregation experiment runs."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.crypto.keys import bft_quorum
from repro.simnet.process import CpuCostModel

__all__ = ["ConsensusConfig"]


@dataclass(frozen=True)
class ConsensusConfig:
    """All tunables of a simulated deployment.

    Matches the knobs the paper's evaluation varies: committee size, batch
    size, payload size, aggregation scheme, number of internal tree nodes,
    the aggregation/second-chance timers and the leader-election policy.

    Attributes:
        committee_size: Number of replicas ``n``.
        batch_size: Maximum client requests per block.
        payload_size: Per-request payload in bytes (64 B / 128 B in the
            paper's base evaluation).
        aggregation: One of ``"star"`` (HotStuff), ``"tree"``
            (Iniva-No2C / Kauri-style), ``"iniva"`` or the ``"gosig"`` /
            ``"kauri"`` baselines.
        num_internal: Number of internal aggregators in the tree; ``None``
            selects the balanced default (≈ sqrt(n)).
        delta: The assumed network delay bound Δ used to derive timers
            (the per-level aggregation timer is ``2 * delta * height``).
        second_chance_timeout: The δ timer before the collector finalises a
            QC after sending 2ND-CHANCE messages (5 ms / 10 ms in Fig. 4).
        view_timeout: Pacemaker timeout after which a view is abandoned.
        leader_policy: ``"round-robin"`` or ``"carousel"``.
        signature_scheme: ``"hashsig"`` (additive fast simulation, the
            default for sweeps), ``"hash"`` (dictionary-carrying fast
            simulation) or ``"bls"`` (real pairings, the correctness
            reference).
        seed: Seed for the shuffle/latency randomness.
        cpu_model: CPU cost model for signatures and message handling.
    """

    committee_size: int = 21
    batch_size: int = 100
    payload_size: int = 64
    aggregation: str = "iniva"
    num_internal: Optional[int] = None
    delta: float = 0.0025
    second_chance_timeout: float = 0.005
    view_timeout: float = 0.25
    leader_policy: str = "round-robin"
    signature_scheme: str = "hashsig"
    seed: int = 1
    cpu_model: CpuCostModel = field(default_factory=CpuCostModel)
    # -- baseline aggregation scheme knobs (Gosig / Kauri) ------------------------
    gossip_fanout: int = 2
    gossip_rounds: int = 6
    free_rider_fraction: float = 0.0
    kauri_fallback_threshold: int = 3
    # -- resilience knobs (see ResilienceSpec) -----------------------------------
    #: A replica recovering from a crash multicasts a SyncRequest and
    #: catches up from a peer's SyncResponse instead of waiting for the
    #: pacemaker to drag it forward.
    sync_on_recover: bool = True
    #: Most committed blocks one SyncResponse carries (the suffix stays
    #: contiguous from the requester's height; a still-behind requester
    #: simply asks again).
    max_sync_blocks: int = 64
    # -- hot-path pacing knob (opt-in; the default preserves the paper-faithful
    # -- timer-paced behaviour bit for bit) --------------------------------------
    #: Optimistic responsiveness (HotStuff PODC'19): proposals fire the
    #: moment a replica becomes leader — on QC arrival or view entry — with
    #: the Δ/2Δ propose delays dropped and view advance driven by QC
    #: arrival, so the pacemaker timers become a fallback rather than the
    #: pacer and chained views pipeline back to back.
    optimistic_responsiveness: bool = False

    #: All registered vote aggregation schemes accepted by ``aggregation``.
    SUPPORTED_AGGREGATIONS = frozenset({"star", "tree", "iniva", "gosig", "kauri"})

    #: All registered multi-signature backends accepted by ``signature_scheme``.
    SUPPORTED_SIGNATURES = frozenset({"hashsig", "hash", "bls"})

    def __post_init__(self) -> None:
        if self.committee_size < 4:
            raise ValueError("need at least four replicas for BFT consensus")
        if self.aggregation not in self.SUPPORTED_AGGREGATIONS:
            raise ValueError(f"unknown aggregation scheme {self.aggregation!r}")
        if self.signature_scheme not in self.SUPPORTED_SIGNATURES:
            raise ValueError(f"unknown signature scheme {self.signature_scheme!r}")
        if self.batch_size <= 0:
            raise ValueError("batch size must be positive")
        if self.payload_size < 0:
            raise ValueError("payload size cannot be negative")
        if self.gossip_fanout < 1:
            raise ValueError("gossip fanout must be at least one peer")
        if not 0.0 <= self.free_rider_fraction <= 1.0:
            raise ValueError("free-rider fraction must be in [0, 1]")
        if self.kauri_fallback_threshold < 1:
            raise ValueError("Kauri fallback threshold must be positive")
        if self.max_sync_blocks < 1:
            raise ValueError("max_sync_blocks must be positive")

    # -- derived quantities ---------------------------------------------------
    @property
    def quorum_size(self) -> int:
        """Distinct signers required for a valid QC: ``floor(2n/3) + 1``."""
        return bft_quorum(self.committee_size)

    @property
    def max_faulty(self) -> int:
        return self.committee_size - self.quorum_size

    def aggregation_timer(self, height: int) -> float:
        """The paper's heuristic: ``2 * Δ * height(p)`` for a node at ``height``."""
        return 2.0 * self.delta * max(height, 1)

    def with_(self, **overrides) -> "ConsensusConfig":
        """Return a copy with ``overrides`` applied (convenience for sweeps)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        return (
            f"{self.aggregation} n={self.committee_size} batch={self.batch_size} "
            f"payload={self.payload_size}B leader={self.leader_policy} "
            f"delta2c={self.second_chance_timeout * 1000:.0f}ms"
        )
