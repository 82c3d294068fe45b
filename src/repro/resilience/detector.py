"""Phi-accrual failure detection over heartbeat inter-arrival times.

The detector keeps, per peer, a sliding window of observed heartbeat
inter-arrival times and turns "how long since the last heartbeat" into a
*suspicion level* ``phi = -log10 P(interval > elapsed)`` under a normal
model of the window (Hayashibara et al., the detector Cassandra and Akka
ship).  The window's sum and sum of squares are kept running, so ``phi``
costs the same whatever the window holds.  Crossing ``threshold`` raises
a suspicion, falling back below it clears one; every raise/clear pair is
recorded on a timeline so a run can report exactly when each peer was
considered down — which is how the live runtime's
``RunResult.resilience`` section shows a crashed replica's down window.

The detector is pure bookkeeping (no tasks, no clocks of its own): the
owner feeds it ``heartbeat(peer, now)`` on every inbound frame and polls
``evaluate(now)`` periodically.  That keeps it runtime-agnostic and
directly unit-testable with synthetic timelines.  Only peers with a
running silence clock are watched: an owner that learns a peer's
liveness some other way (the fabric, for replicas in its own process)
calls ``release`` and the peer costs nothing until its next heartbeat.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = ["PhiAccrualDetector", "Suspicion"]


class _Arrivals:
    """One peer's inter-arrival window with its running Σx and Σx²."""

    __slots__ = ("samples", "total", "total_sq", "evicted")

    def __init__(self, window: int) -> None:
        self.samples: Deque[float] = deque(maxlen=window)
        self.total = 0.0
        self.total_sq = 0.0
        self.evicted = 0  # evictions since the sums were last taken exactly

    def add(self, interval: float) -> None:
        samples = self.samples
        if len(samples) == samples.maxlen:
            oldest = samples[0]
            self.total -= oldest
            self.total_sq -= oldest * oldest
            self.evicted += 1
        samples.append(interval)
        self.total += interval
        self.total_sq += interval * interval
        if self.evicted == samples.maxlen:
            # Subtracting evicted samples leaves rounding residue behind;
            # once per full turn of the window the sums are retaken, so
            # the residue never outlives the samples that caused it.
            self.total = math.fsum(samples)
            self.total_sq = math.fsum(s * s for s in samples)
            self.evicted = 0


class Suspicion:
    """One contiguous interval during which a peer was suspected down."""

    __slots__ = ("peer", "raised_at", "cleared_at", "phi")

    def __init__(self, peer: int, raised_at: float, phi: float) -> None:
        self.peer = peer
        self.raised_at = raised_at
        self.cleared_at: Optional[float] = None
        self.phi = phi  # highest phi observed while raised

    @property
    def active(self) -> bool:
        return self.cleared_at is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "peer": self.peer,
            "raised_at": self.raised_at,
            "cleared_at": self.cleared_at,
            "phi": self.phi,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else f"cleared_at={self.cleared_at:.3f}"
        return f"Suspicion(peer={self.peer}, raised_at={self.raised_at:.3f}, {state})"


class PhiAccrualDetector:
    """Suspicion levels and raise/clear timelines for a set of peers.

    Args:
        threshold: Phi level at which a peer becomes suspected.  8 means
            "the chance this silence is ordinary jitter is 1e-8".
        window: Inter-arrival samples kept per peer.
        min_std: Floor on the modelled standard deviation, so a perfectly
            regular heartbeat stream doesn't suspect on microscopic jitter.
        bootstrap_interval: Assumed mean interval before enough samples
            arrive (also the first sample's prior).
    """

    def __init__(
        self,
        threshold: float = 8.0,
        window: int = 32,
        min_std: float = 0.01,
        bootstrap_interval: float = 0.1,
    ) -> None:
        if threshold <= 0:
            raise ValueError("phi threshold must be positive")
        if window < 2:
            raise ValueError("detector window needs at least two samples")
        self.threshold = threshold
        self.window = window
        self.min_std = min_std
        self.bootstrap_interval = bootstrap_interval
        self._last_seen: Dict[int, float] = {}
        self._arrivals: Dict[int, _Arrivals] = {}
        self._active: Dict[int, Suspicion] = {}
        self.timeline: List[Suspicion] = []

    # -- observations --------------------------------------------------------
    def heartbeat(self, peer: int, now: float) -> None:
        """Record any sign of life from ``peer`` at time ``now``."""
        last = self._last_seen.get(peer)
        if last is not None and now > last:
            arrivals = self._arrivals.get(peer)
            if arrivals is None:
                arrivals = self._arrivals[peer] = _Arrivals(self.window)
            arrivals.add(now - last)
        self._last_seen[peer] = now

    def release(self, peer: int, now: float) -> Optional[Suspicion]:
        """Stop watching ``peer``: the owner knows it alive by other means.

        Clears an active suspicion at ``now`` (returned, as ``evaluate``
        would have) and forgets the peer's clock and window, so it accrues
        nothing until the next ``heartbeat`` starts a fresh one.
        """
        self._last_seen.pop(peer, None)
        self._arrivals.pop(peer, None)
        active = self._active.pop(peer, None)
        if active is not None:
            active.cleared_at = now
        return active

    # -- suspicion -----------------------------------------------------------
    def phi(self, peer: int, now: float) -> float:
        """The current suspicion level of ``peer`` (0 = just heard from)."""
        last = self._last_seen.get(peer)
        if last is None:
            return 0.0  # never heard from: still booting, not yet suspect
        elapsed = now - last
        if elapsed <= 0:
            return 0.0
        arrivals = self._arrivals.get(peer)
        if arrivals is not None:
            count = len(arrivals.samples)
            mean = arrivals.total / count
            variance = max(arrivals.total_sq / count - mean * mean, 0.0)
            std = max(math.sqrt(variance), self.min_std, mean * 0.1)
        else:
            mean = self.bootstrap_interval
            std = max(self.min_std, mean * 0.5)
        # P(interval > elapsed) under N(mean, std), via the survival
        # function; clamp away from zero so phi stays finite.
        survival = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
        return -math.log10(max(survival, 1e-300))

    def evaluate(self, now: float) -> List[Suspicion]:
        """Update every watched peer's raised/cleared state; returns transitions."""
        transitions: List[Suspicion] = []
        # A suspicion is only ever raised on a watched peer and ``release``
        # drops both, so the silence clocks cover the active set.
        for peer in sorted(self._last_seen):
            level = self.phi(peer, now)
            active = self._active.get(peer)
            if level >= self.threshold and active is None:
                suspicion = Suspicion(peer, raised_at=now, phi=level)
                self._active[peer] = suspicion
                self.timeline.append(suspicion)
                transitions.append(suspicion)
            elif active is not None:
                active.phi = max(active.phi, level)
                if level < self.threshold:
                    active.cleared_at = now
                    del self._active[peer]
                    transitions.append(active)
        return transitions

    def suspected(self, peer: int) -> bool:
        return peer in self._active

    def touch_all(self, now: float) -> None:
        """Refresh every peer's last-seen time without adding samples.

        Used after the owner itself recovers from a crash: while it was
        down it observed nothing, so the silence says nothing about its
        peers — restarting their clocks avoids a burst of stale
        suspicions the moment the replica comes back.
        """
        for peer in self._last_seen:
            self._last_seen[peer] = now

    def summary(self) -> List[Dict[str, Any]]:
        """The JSON-safe suspicion timeline (chronological)."""
        return [suspicion.to_dict() for suspicion in self.timeline]
