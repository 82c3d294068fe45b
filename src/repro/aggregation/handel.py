"""Handel-style multi-level randomised aggregation (baseline).

Handel (Bégassat et al., 2019) aggregates signatures over ``log n``
levels: the committee is recursively split into halves, and at level ``l``
each process tries to obtain the aggregate of the half it does *not*
belong to by contacting a few peers from that half, contributing its own
best aggregate of all lower levels in return.  Aggregation is therefore
redundant (many processes hold overlapping aggregates), which — like
Gosig — protects individual votes probabilistically but invites
free-riding and is not inclusive.

The implementation follows Handel's structure in a simplified form
suitable for the discrete-event experiments:

* the level partition is derived from the per-view deterministic shuffle
  (Handel's verification-priority permutation);
* level ``l`` activates ``l * handel_level_delay`` seconds after a process
  delivers the proposal, and the process then sends its running aggregate
  to ``handel_peers_per_level`` peers of the opposite half;
* incoming aggregates are verified and merged when they add new signers;
* the collector finalises at a quorum (or all signers), like the other
  baselines.
"""

from __future__ import annotations

import math
from typing import List

from repro.aggregation.base import register_aggregator
from repro.aggregation.gossip import MergeAggregator, MergeRound
from repro.aggregation.messages import SignatureMessage
from repro.consensus.block import Block
from repro.tree.shuffle import deterministic_shuffle, view_seed

__all__ = ["HandelAggregator"]


@register_aggregator
class HandelAggregator(MergeAggregator):
    """Level-based randomised aggregation in the style of Handel."""

    name = "handel"

    # -- level structure ------------------------------------------------------------
    def num_levels(self) -> int:
        return max(1, math.ceil(math.log2(max(self.config.committee_size, 2))))

    def _ranking(self, block: Block) -> List[int]:
        """The per-view permutation the level partition is derived from."""
        seed = view_seed(self.config.seed, block.view, b"handel|" + block.qc.digest())
        return deterministic_shuffle(list(range(self.config.committee_size)), seed)

    def level_peers(self, block: Block, level: int) -> List[int]:
        """The peer group this process contacts at ``level`` (1-based).

        With the committee laid out in ranked order, the level-``l`` peers
        of a process are the other half of its size-``2^l`` bucket — the
        standard Handel binary partition.
        """
        if level < 1:
            raise ValueError("levels are 1-based")
        ranking = self._ranking(block)
        position = ranking.index(self.process_id)
        bucket = 1 << level
        start = (position // bucket) * bucket
        half = bucket // 2
        if position < start + half:
            peer_slice = ranking[start + half : start + bucket]
        else:
            peer_slice = ranking[start : start + half]
        return [pid for pid in peer_slice if pid != self.process_id]

    # -- spreading the aggregate level by level ---------------------------------------------
    def _spread(self, block: Block, state: MergeRound) -> None:
        # Activate the levels one after another.
        for level in range(1, self.num_levels() + 1):
            self.replica.set_timer(
                level * self.config.handel_level_delay, self._activate_level, block, level
            )

    def _activate_level(self, block: Block, level: int) -> None:
        state = self._round(block.block_id)
        if state.done or state.own_share is None:
            return
        peers = self.level_peers(block, level)
        if not peers:
            return
        targets = peers[: max(1, self.config.handel_peers_per_level)]
        message = SignatureMessage(
            block_id=block.block_id, view=block.view, signature=state.aggregate
        )
        self.replica.multicast(targets, message, size_bytes=message.size_bytes)
