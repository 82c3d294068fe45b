"""Vote aggregation schemes (Definition 1 of the paper).

A vote aggregation scheme disseminates a block to the committee and
collects the committee's votes into a quorum certificate at the collector
(the next leader in the LSO model).  This package contains the baselines
the paper compares against:

* :class:`~repro.aggregation.star.StarAggregator` — the HotStuff star
  topology: the proposer broadcasts and every replica votes directly to
  the collector, which finalises as soon as it holds a quorum.
* :class:`~repro.aggregation.tree_agg.TreeAggregator` — Kauri-style
  two-level tree aggregation *without* fallback paths; this is exactly the
  paper's "Iniva-No2C" variant.
* :class:`~repro.aggregation.kauri.KauriAggregator` — the stable-tree
  variant with failure-driven reconfiguration and star fallback, matching
  the behaviour the paper attributes to Kauri/ByzCoin.
* :class:`~repro.aggregation.gossip.GosigAggregator` — Gosig's randomised
  gossip aggregation with parameter ``k`` and optional free-riding.

Iniva itself (tree aggregation plus ACK/2ND-CHANCE fallback paths) extends
the tree aggregator and lives with the rest of the paper's contribution in
:mod:`repro.core.iniva`.
"""

from repro.aggregation.base import Aggregator, make_aggregator, register_aggregator
from repro.aggregation.messages import (
    AckMessage,
    NewViewMessage,
    ProposalMessage,
    SecondChanceMessage,
    SecondChanceReply,
    SignatureMessage,
)
from repro.aggregation.gossip import GosigAggregator
from repro.aggregation.kauri import KauriAggregator
from repro.aggregation.star import StarAggregator
from repro.aggregation.tree_agg import TreeAggregator

__all__ = [
    "AckMessage",
    "Aggregator",
    "GosigAggregator",
    "KauriAggregator",
    "NewViewMessage",
    "ProposalMessage",
    "SecondChanceMessage",
    "SecondChanceReply",
    "SignatureMessage",
    "StarAggregator",
    "TreeAggregator",
    "make_aggregator",
    "register_aggregator",
]
