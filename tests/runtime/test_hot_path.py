"""Hot-path fast-lane tests: optimistic pacing parity and the packed codec.

Two guarantees added with the hardware-bound hot path:

* **Optimistic responsiveness changes pacing, not the chain** — a fixed
  spec + seed with a preloaded workload finalizes the identical
  committed block-id prefix with the knob on and off (views advance on
  QC arrival instead of timers, but the proposals chain the same
  batches), and never commits fewer blocks.
* **Packed int sequences survive the wire** — wire version 4 encodes
  all-int tuples as one fixed-width struct row; the round-trip must be
  loss-free across the i32/i64 packing boundaries, fall back cleanly
  for huge ints and mixed tuples, keep ``bool`` identity (bools are
  ints in Python but must not come back as ``0``/``1``), and decode
  straight out of a ``memoryview`` without copying.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregation.messages import ProposalMessage
from repro.consensus.block import Block, genesis_qc
from repro.runtime.codec import (
    _T_SEQ_I32,
    _T_SEQ_I64,
    WireCodec,
)
from repro.scenarios.engine import build_scenario_deployment, compile_scenario
from repro.scenarios.spec import (
    CommitteeSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

# ---------------------------------------------------------------------------
# Optimistic responsiveness: same chain, faster pacing
# ---------------------------------------------------------------------------

#: Committed blocks compared between the two pacing modes.  Both runs
#: finalize far more than this at the spec's rate, so the compared
#: prefix never includes ramp-down artifacts.
PREFIX = 50


def _spec(optimistic: bool, seed: int = 7) -> ScenarioSpec:
    return ScenarioSpec(
        name="optimistic-parity",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=20,
        duration=2.0,
        warmup=0.0,
        seed=seed,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.25,
        optimistic_responsiveness=optimistic,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=seed),
    )


def _sim_committed_order(spec: ScenarioSpec) -> list:
    compiled = compile_scenario(spec)
    deployment = build_scenario_deployment(compiled)
    deployment.start()
    deployment.simulator.run(until=compiled.spec.duration)
    return list(deployment.mempool.committed_order)


@pytest.mark.slow
def test_optimistic_toggle_finalizes_identical_prefix():
    baseline = _sim_committed_order(_spec(optimistic=False))
    optimistic = _sim_committed_order(_spec(optimistic=True))
    assert len(baseline) >= PREFIX, "timer-paced run finalized too few blocks"
    assert len(optimistic) >= PREFIX, "optimistic run finalized too few blocks"
    assert baseline[:PREFIX] == optimistic[:PREFIX]
    # QC-paced views can only commit at least as much as timer-paced ones.
    assert len(optimistic) >= len(baseline)


# ---------------------------------------------------------------------------
# Packed int sequences (wire v4)
# ---------------------------------------------------------------------------

_I32_EDGE = 2**31
_I64_EDGE = 2**63


def _round_trip(value, payload=None):
    codec = WireCodec()
    encoded = codec.encode(value)
    decoded = codec.decode(encoded)
    assert decoded == value
    return encoded, decoded


class TestPackedIntSequences:
    def test_small_int_tuple_uses_i32_packing(self):
        encoded, decoded = _round_trip((1, 2, 3, -4))
        assert _T_SEQ_I32 in encoded
        assert decoded == (1, 2, 3, -4)

    def test_i32_boundaries_pack_exactly(self):
        values = (_I32_EDGE - 1, -_I32_EDGE, 0)
        encoded, _ = _round_trip(values)
        assert _T_SEQ_I32 in encoded

    def test_values_beyond_i32_use_i64_packing(self):
        values = (_I32_EDGE, -_I32_EDGE - 1, _I64_EDGE - 1, -_I64_EDGE)
        encoded, _ = _round_trip(values)
        assert _T_SEQ_I64 in encoded

    def test_huge_ints_fall_back_to_generic_encoding(self):
        values = (_I64_EDGE, -_I64_EDGE - 1, 1 << 200)
        encoded, decoded = _round_trip(values)
        assert decoded == values

    def test_mixed_tuples_fall_back(self):
        _round_trip((1, "two", 3))
        _round_trip((1, 2.5))
        _round_trip((1, b"raw"))

    def test_empty_tuple(self):
        _round_trip(())

    def test_bools_keep_identity(self):
        # bool is an int subclass, but the packed row would flatten
        # True -> 1; the encoder must route bools through the generic
        # path so decode returns actual bools.
        _, decoded = _round_trip((True, False, True))
        assert all(isinstance(item, bool) for item in decoded)

    def test_int_then_bool_mix_keeps_types(self):
        _, decoded = _round_trip((1, True, 0, False))
        assert [type(item) for item in decoded] == [int, bool, int, bool]

    def test_proposal_payload_packs(self):
        block = Block(
            height=1,
            view=1,
            proposer=0,
            parent_id="genesis",
            qc=genesis_qc(),
            payload=tuple(range(100)),
            payload_bytes=6400,
            timestamp=0.5,
        )
        codec = WireCodec()
        encoded = codec.encode(ProposalMessage(block))
        assert _T_SEQ_I32 in encoded
        decoded = codec.decode(encoded)
        assert decoded.block.payload == block.payload
        assert decoded.block.block_id == block.block_id


class TestMemoryviewDecoding:
    def test_decode_from_memoryview_slice(self):
        codec = WireCodec()
        message = ProposalMessage(
            Block(
                height=2,
                view=3,
                proposer=1,
                parent_id="abc",
                qc=genesis_qc(),
                payload=(7, 8, 9),
                payload_bytes=192,
                timestamp=1.0,
            )
        )
        frame = codec.frame(message)
        # Simulate the receive path: the frame body is a zero-copy slice
        # of a larger receive buffer.
        buffer = bytearray(b"\xff" * 16 + frame + b"\xee" * 16)
        body = memoryview(buffer)[16 + 4 : 16 + len(frame)]
        assert codec.decode(body) == message

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-(2**80), max_value=2**80),
                st.booleans(),
                st.text(max_size=8),
            ),
            max_size=12,
        )
    )
    def test_property_tuple_round_trip_via_memoryview(self, values):
        codec = WireCodec()
        value = tuple(values)
        encoded = codec.encode(value)
        decoded = codec.decode(memoryview(bytearray(encoded)))
        assert decoded == value
        assert [type(item) for item in decoded] == [type(item) for item in value]

    @settings(max_examples=40, deadline=None)
    @given(
        ints=st.lists(
            st.one_of(
                st.integers(min_value=-(2**31), max_value=2**31 - 1),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.integers(min_value=-(2**100), max_value=2**100),
            ),
            min_size=1,
            max_size=32,
        )
    )
    def test_property_int_sequences_across_packing_boundaries(self, ints):
        codec = WireCodec()
        value = tuple(ints)
        decoded = codec.decode(memoryview(bytearray(codec.encode(value))))
        assert decoded == value
