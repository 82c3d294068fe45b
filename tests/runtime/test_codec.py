"""Round-trip tests for the live runtime's wire codec.

Every message type the protocol core sends must survive
``decode(encode(m)) == m`` for every signature backend, including
reconstructing derived values (block ids, signer sets) — plus property
tests fuzzing the payload space.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregation.messages import (
    AckMessage,
    NewViewMessage,
    ProposalMessage,
    SecondChanceMessage,
    SecondChanceReply,
    SignatureMessage,
)
from repro.clients.messages import (
    REJECT_CLIENT_WINDOW,
    REJECT_QUEUE_FULL,
    ClientHello,
    ClientReject,
    ClientReply,
    ClientRequest,
)
from repro.consensus.block import Block, QuorumCertificate, genesis_qc
from repro.crypto.curve import Point
from repro.crypto.multisig import (
    AggregateSignature,
    SignatureShare,
    _HashSigAggregateValue,
    get_scheme,
)
from repro.crypto.params import TOY_PARAMS
from repro.resilience.messages import (
    Heartbeat,
    Routed,
    SessionAck,
    SessionEnvelope,
    SessionHello,
    SyncRequest,
    SyncResponse,
)
from repro.runtime.codec import (
    _RECORDS,
    CodecError,
    FrameBatch,
    WIRE_MESSAGE_TYPES,
    WIRE_VERSION,
    WireCodec,
)
from repro.runtime.net import read_frame

BACKENDS = [
    ("hashsig", {}, None),
    ("bls", {"params": TOY_PARAMS}, TOY_PARAMS),
]


def _fixtures(backend_name, backend_kwargs):
    scheme = get_scheme(backend_name, **backend_kwargs)
    pairs = {pid: scheme.keygen(100 + pid) for pid in range(4)}
    message = b"vote|abc|3|2"
    shares = {
        pid: scheme.sign(pair.secret_key, message, pid) for pid, pair in pairs.items()
    }
    aggregate = scheme.aggregate([(shares[0], 2), (shares[1], 1), (shares[2], 2)])
    qc = QuorumCertificate(
        block_id="abc", view=3, height=2, aggregate=aggregate, collector=1
    )
    block = Block(
        height=3,
        view=4,
        proposer=2,
        parent_id="abc",
        qc=qc,
        payload=(10, 11, 12),
        payload_bytes=192,
        timestamp=1.25,
    )
    return scheme, shares, aggregate, qc, block


def _wire_messages(shares, aggregate, qc, block):
    return [
        ProposalMessage(block),
        SignatureMessage(block_id=block.block_id, view=4, signature=shares[3]),
        SignatureMessage(block_id=block.block_id, view=4, signature=aggregate),
        AckMessage(block_id=block.block_id, view=4, aggregate=aggregate),
        SecondChanceMessage(block=block, proof=aggregate),
        SecondChanceMessage(block=block, proof=None),
        SecondChanceReply(block_id=block.block_id, view=4, signature=shares[1]),
        SecondChanceReply(block_id=block.block_id, view=4, signature=aggregate),
        NewViewMessage(view=5, highest_qc=qc),
        NewViewMessage(view=1, highest_qc=genesis_qc()),
        SyncRequest(sender=3, from_height=2),
        SyncResponse(sender=1, view=6, highest_qc=qc, blocks=(block,)),
        SyncResponse(sender=1, view=6, highest_qc=genesis_qc(), blocks=()),
    ]


@pytest.mark.parametrize("backend_name,backend_kwargs,params", BACKENDS)
def test_every_wire_message_round_trips(backend_name, backend_kwargs, params):
    scheme, shares, aggregate, qc, block = _fixtures(backend_name, backend_kwargs)
    codec = WireCodec(curve_params=params)
    messages = _wire_messages(shares, aggregate, qc, block)
    covered = {type(m) for m in messages}
    assert covered == set(WIRE_MESSAGE_TYPES)
    for message in messages:
        assert codec.decode(codec.encode(message)) == message


@pytest.mark.parametrize("backend_name,backend_kwargs,params", BACKENDS)
def test_decoded_values_keep_derived_state(backend_name, backend_kwargs, params):
    scheme, shares, aggregate, qc, block = _fixtures(backend_name, backend_kwargs)
    codec = WireCodec(curve_params=params)
    decoded_block = codec.decode(codec.encode(ProposalMessage(block))).block
    assert decoded_block.block_id == block.block_id
    assert decoded_block.signing_payload() == block.signing_payload()
    decoded_qc = codec.decode(codec.encode(NewViewMessage(view=5, highest_qc=qc))).highest_qc
    assert decoded_qc.signers == qc.signers
    assert decoded_qc.digest() == qc.digest()


@pytest.mark.parametrize("backend_name,backend_kwargs,params", BACKENDS)
def test_decoded_aggregate_still_verifies(backend_name, backend_kwargs, params):
    scheme, shares, aggregate, qc, block = _fixtures(backend_name, backend_kwargs)
    codec = WireCodec(curve_params=params)
    public_keys = {pid: scheme.keygen(100 + pid).public_key for pid in range(4)}
    message = b"vote|abc|3|2"
    decoded = codec.decode(
        codec.encode(AckMessage(block_id="abc", view=3, aggregate=aggregate))
    ).aggregate
    assert scheme.verify_aggregate(decoded, message, public_keys)
    decoded_share = codec.decode(
        codec.encode(SignatureMessage(block_id="abc", view=3, signature=shares[2]))
    ).signature
    assert scheme.verify_share(decoded_share, message, public_keys[2])


@pytest.mark.parametrize("backend_name,backend_kwargs,params", BACKENDS)
def test_mixed_batch_of_all_wire_messages_round_trips(backend_name, backend_kwargs, params):
    # One batch carrying every wire message type at once, per backend.
    scheme, shares, aggregate, qc, block = _fixtures(backend_name, backend_kwargs)
    codec = WireCodec(curve_params=params)
    messages = _wire_messages(shares, aggregate, qc, block)
    assert {type(m) for m in messages} == set(WIRE_MESSAGE_TYPES)
    batch = FrameBatch(tuple(messages))
    decoded = codec.decode(codec.encode(batch))
    assert isinstance(decoded, FrameBatch)
    assert decoded == batch
    assert list(decoded.messages) == messages


@pytest.mark.parametrize("backend_name,backend_kwargs,params", BACKENDS)
def test_frame_batch_framing_round_trips(backend_name, backend_kwargs, params):
    scheme, shares, aggregate, qc, block = _fixtures(backend_name, backend_kwargs)
    codec = WireCodec(curve_params=params)
    messages = _wire_messages(shares, aggregate, qc, block)[:3]
    frame = codec.frame_batch(messages)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    decoded = codec.decode(frame[4:])
    assert decoded.messages == tuple(messages)
    # Batching amortises framing: one batch frame is smaller than the sum
    # of the individual frames it replaces.
    assert len(frame) < sum(len(codec.frame(m)) for m in messages)


def test_single_message_batch_allowed_empty_rejected():
    codec = WireCodec()
    single = FrameBatch((NewViewMessage(view=1, highest_qc=genesis_qc()),))
    assert codec.decode(codec.encode(single)) == single
    with pytest.raises(ValueError):
        FrameBatch(())


def test_nested_batches_rejected():
    codec = WireCodec()
    inner = FrameBatch((NewViewMessage(view=1, highest_qc=genesis_qc()),))
    with pytest.raises(CodecError, match="nest"):
        codec.encode(FrameBatch((inner,)))


def test_session_control_frames_round_trip():
    codec = WireCodec()
    for frame in (
        SessionHello(pid=3, incarnation=2),
        SessionAck(acked=41),
        Heartbeat(pid=1, seq=7),
        SessionEnvelope(seq=9, messages=(NewViewMessage(view=2, highest_qc=genesis_qc()),)),
    ):
        assert codec.decode(codec.encode(frame)) == frame


def test_session_envelopes_are_flat():
    codec = WireCodec()
    new_view = NewViewMessage(view=1, highest_qc=genesis_qc())
    inner = SessionEnvelope(seq=1, messages=(new_view,))
    with pytest.raises(CodecError, match="flat"):
        codec.encode(SessionEnvelope(seq=2, messages=(inner,)))
    with pytest.raises(CodecError, match="flat"):
        codec.encode(SessionEnvelope(seq=2, messages=(FrameBatch((new_view,)),)))
    with pytest.raises(ValueError):
        SessionEnvelope(seq=1, messages=())
    with pytest.raises(ValueError):
        SessionEnvelope(seq=0, messages=(new_view,))


def test_frame_adds_length_prefix():
    codec = WireCodec()
    frame = codec.frame(NewViewMessage(view=1, highest_qc=genesis_qc()))
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert frame[4] == WIRE_VERSION
    assert codec.decode(frame[4:]).view == 1


def test_unknown_version_rejected():
    codec = WireCodec()
    body = bytearray(codec.encode(NewViewMessage(view=1, highest_qc=genesis_qc())))
    body[0] = 99
    with pytest.raises(CodecError, match="version"):
        codec.decode(bytes(body))


def test_truncated_frame_rejected():
    codec = WireCodec()
    body = codec.encode(NewViewMessage(view=1, highest_qc=genesis_qc()))
    with pytest.raises(CodecError):
        codec.decode(body[: len(body) // 2])


def test_trailing_bytes_rejected():
    codec = WireCodec()
    body = codec.encode(NewViewMessage(view=1, highest_qc=genesis_qc()))
    with pytest.raises(CodecError, match="trailing"):
        codec.decode(body + b"\x00")


def test_bls_point_without_params_rejected():
    _, shares, aggregate, qc, block = _fixtures("bls", {"params": TOY_PARAMS})
    encoder = WireCodec(curve_params=TOY_PARAMS)
    body = encoder.encode(AckMessage(block_id="abc", view=3, aggregate=aggregate))
    with pytest.raises(CodecError, match="curve_params"):
        WireCodec().decode(body)


def test_unencodable_value_rejected():
    with pytest.raises(CodecError, match="cannot encode"):
        WireCodec().encode(object())


# ---------------------------------------------------------------------------
# Client frames (wire v5 — see repro.clients)
# ---------------------------------------------------------------------------
def test_client_frames_round_trip():
    codec = WireCodec()
    for frame in (
        ClientHello(client_id=2, incarnation=3),
        ClientRequest(request_id=(3 << 48) | (2 << 28) | 17, client_id=2, payload_size=64),
        ClientReply(request_id=99, replica=4),
        ClientReject(request_id=99, reason=REJECT_QUEUE_FULL),
        ClientReject(request_id=100, reason=REJECT_CLIENT_WINDOW),
    ):
        assert codec.decode(codec.encode(frame)) == frame


def test_client_replies_batch_like_protocol_frames():
    codec = WireCodec()
    replies = tuple(ClientReply(request_id=rid, replica=1) for rid in range(40))
    frame = codec.frame_batch(replies)
    decoded = codec.decode(frame[4:])
    assert isinstance(decoded, FrameBatch)
    assert decoded.messages == replies


def test_client_frames_stay_out_of_protocol_message_table():
    # Client traffic terminates at the admission boundary; the protocol
    # core's registry must not grow client types.
    assert ClientRequest not in WIRE_MESSAGE_TYPES
    assert ClientReply not in WIRE_MESSAGE_TYPES


@settings(max_examples=120, deadline=None)
@given(
    request_id=st.integers(min_value=0, max_value=(1 << 62) - 1),
    client_id=st.integers(min_value=0, max_value=(1 << 20) - 1),
    payload_size=st.integers(min_value=0, max_value=1 << 24),
)
def test_property_client_request_round_trip_and_size(request_id, client_id, payload_size):
    codec = WireCodec()
    request = ClientRequest(
        request_id=request_id, client_id=client_id, payload_size=payload_size
    )
    body = codec.encode(request)
    assert codec.decode(body) == request
    # The wire carries the payload as a size, not bytes: a max-payload
    # request still encodes into a handful of packed ints.
    assert len(body) < 64
    assert request.size_bytes == 24 + payload_size


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 62) - 1),
            st.integers(min_value=0, max_value=200),
        ),
        min_size=1,
        max_size=64,
    )
)
def test_property_client_reply_batches_round_trip(rows):
    # Reply fan-out rides the packed-int batch path from wire v4: many
    # near-identical rows must stay cheap and lossless.
    codec = WireCodec()
    replies = tuple(ClientReply(request_id=rid, replica=pid) for rid, pid in rows)
    decoded = codec.decode(codec.frame_batch(replies)[4:])
    assert isinstance(decoded, FrameBatch)
    assert decoded.messages == replies


# ---------------------------------------------------------------------------
# Property tests (hashsig payloads — the default backend on the wire)
# ---------------------------------------------------------------------------
_ids = st.integers(min_value=0, max_value=200)
_views = st.integers(min_value=0, max_value=10_000)
_block_ids = st.text(
    alphabet="0123456789abcdef", min_size=1, max_size=32
)


@st.composite
def _aggregates(draw):
    multiplicities = draw(
        st.dictionaries(_ids, st.integers(min_value=1, max_value=9), max_size=8)
    )
    return AggregateSignature(
        value=_HashSigAggregateValue(draw(st.integers(min_value=0, max_value=(1 << 128) - 1))),
        multiplicities=multiplicities,
    )


@st.composite
def _blocks(draw):
    return Block(
        height=draw(_views),
        view=draw(_views),
        proposer=draw(_ids),
        parent_id=draw(_block_ids),
        qc=QuorumCertificate(
            block_id=draw(_block_ids),
            view=draw(_views),
            height=draw(_views),
            aggregate=draw(_aggregates()),
            collector=draw(st.one_of(st.none(), _ids)),
        ),
        payload=tuple(draw(st.lists(st.integers(min_value=0, max_value=10**9), max_size=16))),
        payload_bytes=draw(st.integers(min_value=0, max_value=1 << 24)),
        timestamp=draw(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
        ),
    )


@st.composite
def _messages(draw):
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0:
        return ProposalMessage(draw(_blocks()))
    if kind == 1:
        signature = draw(
            st.one_of(
                _aggregates(),
                st.builds(
                    SignatureShare,
                    signer=_ids,
                    value=st.integers(min_value=0, max_value=(1 << 128) - 1),
                ),
            )
        )
        return SignatureMessage(block_id=draw(_block_ids), view=draw(_views), signature=signature)
    if kind == 2:
        return AckMessage(block_id=draw(_block_ids), view=draw(_views), aggregate=draw(_aggregates()))
    if kind == 3:
        return SecondChanceMessage(block=draw(_blocks()), proof=draw(st.one_of(st.none(), _aggregates())))
    if kind == 4:
        signature = draw(_aggregates())
        return SecondChanceReply(block_id=draw(_block_ids), view=draw(_views), signature=signature)
    return NewViewMessage(view=draw(_views), highest_qc=draw(_blocks()).qc)


@settings(max_examples=120, deadline=None)
@given(message=_messages())
def test_property_round_trip_hashsig(message):
    codec = WireCodec()
    assert codec.decode(codec.encode(message)) == message


@settings(max_examples=80, deadline=None)
@given(messages=st.lists(_messages(), min_size=1, max_size=12))
def test_property_mixed_batches_round_trip(messages):
    codec = WireCodec()
    decoded = codec.decode(codec.frame_batch(messages)[4:])
    assert isinstance(decoded, FrameBatch)
    assert decoded.messages == tuple(messages)


# ---------------------------------------------------------------------------
# The schema table: golden v6 bytes, completeness
# ---------------------------------------------------------------------------
#: Hex frames of every case below, captured at the last commit with a
#: hand-unrolled codec (PR 23).  Record codecs are generated from dataclass
#: field order, so reordering a record's fields silently changes the wire
#: format; this pins it.  A deliberate format change bumps ``WIRE_VERSION``
#: and regenerates the file from ``_golden_cases`` (see its docstring).
_GOLDEN_PATH = Path(__file__).with_name("golden_wire_v6.json")


def _golden_cases(backend_name, backend_kwargs):
    """One instance of every schema row, the flat containers and (for
    ``bls``) both point forms, by name.

    To regenerate ``golden_wire_v6.json``: for each entry of ``BACKENDS``
    dump ``{name: WireCodec(params).encode(value).hex()}`` of this dict
    under the backend's name.
    """
    scheme, shares, aggregate, qc, block = _fixtures(backend_name, backend_kwargs)
    vote = SignatureMessage(block_id=block.block_id, view=4, signature=shares[3])
    ack = AckMessage(block_id=block.block_id, view=4, aggregate=aggregate)
    reject = ClientReject(request_id=99, reason=REJECT_CLIENT_WINDOW)
    cases = {
        "share": shares[0],
        "aggregate": aggregate,
        "aggregate_value": aggregate.value,
        "qc": qc,
        "block": block,
        "proposal": ProposalMessage(block),
        "vote": vote,
        "vote_aggregate": SignatureMessage(block_id=block.block_id, view=4, signature=aggregate),
        "ack": ack,
        "second_chance": SecondChanceMessage(block=block, proof=aggregate),
        "second_chance_timeout": SecondChanceMessage(block=block, proof=None),
        "second_chance_reply": SecondChanceReply(
            block_id=block.block_id, view=4, signature=shares[1]
        ),
        "new_view": NewViewMessage(view=5, highest_qc=qc),
        "sync_request": SyncRequest(sender=3, from_height=2),
        "sync_response": SyncResponse(sender=1, view=6, highest_qc=qc, blocks=(block,)),
        "session_hello": SessionHello(pid=3, incarnation=2),
        "session_ack": SessionAck(acked=41),
        "heartbeat": Heartbeat(pid=1, seq=300),
        "client_hello": ClientHello(client_id=2, incarnation=3),
        "client_request": ClientRequest(
            request_id=(3 << 48) | (2 << 28) | 17, client_id=2, payload_size=64
        ),
        "client_reply": ClientReply(request_id=99, replica=4),
        "client_reject": reject,
        "routed": Routed(src=3, dst=0, message=vote),
        "session_envelope": SessionEnvelope(
            seq=9, messages=(Routed(src=3, dst=0, message=vote), Routed(src=0, dst=3, message=ack))
        ),
        "frame_batch": FrameBatch((vote, ack, reject)),
    }
    if backend_name == "bls":
        cases["point"] = shares[2].value
        cases["point_infinity"] = Point.infinity(TOY_PARAMS)
    return cases


@pytest.mark.parametrize("backend_name,backend_kwargs,params", BACKENDS)
def test_golden_v6_bytes(backend_name, backend_kwargs, params):
    golden = json.loads(_GOLDEN_PATH.read_text())[backend_name]
    codec = WireCodec(curve_params=params)
    cases = _golden_cases(backend_name, backend_kwargs)
    assert set(cases) == set(golden)
    for name, value in cases.items():
        assert codec.encode(value).hex() == golden[name], name
        assert codec.decode(bytes.fromhex(golden[name])) == value, name
    # The cases cover the whole table, so no row can drift unpinned.
    rows = {cls for _, cls in _RECORDS}
    if backend_name == "hashsig":
        assert rows <= {type(value) for value in cases.values()}


def test_schema_table_is_complete_and_rows_round_trip_routed():
    from repro.aggregation import messages as aggregation_messages
    from repro.clients import messages as client_messages
    from repro.resilience import messages as resilience_messages

    rows = dict(_RECORDS)
    assert len(rows) == len(_RECORDS), "duplicate tag in the schema table"
    assert len(set(rows.values())) == len(_RECORDS), "a class is listed twice"
    containers = {Routed, SessionEnvelope, FrameBatch}
    assert not containers & set(rows.values())
    for module in (aggregation_messages, resilience_messages, client_messages):
        for name in module.__all__:
            exported = getattr(module, name)
            if dataclasses.is_dataclass(exported):
                assert exported in containers or exported in rows.values(), name

    codec = WireCodec()
    instances = {type(value): value for value in _golden_cases("hashsig", {}).values()}
    for tag, cls in _RECORDS:
        envelope = SessionEnvelope(seq=1, messages=(Routed(src=1, dst=2, message=instances[cls]),))
        assert codec.encode_value(instances[cls])[0] == tag
        assert codec.decode(codec.encode(envelope)) == envelope


def test_read_only_multiplicity_mapping_encodes_like_a_dict():
    # ``AggregateSignature.multiplicities`` is typed ``Mapping``; the field
    # is written as it is, so a non-dict mapping must still find the dict
    # encoder (the hand-written codec copied it into a dict first).
    from types import MappingProxyType

    codec = WireCodec()
    plain = AggregateSignature(value=_HashSigAggregateValue(5), multiplicities={1: 2, 3: 1})
    frozen = AggregateSignature(
        value=_HashSigAggregateValue(5), multiplicities=MappingProxyType({1: 2, 3: 1})
    )
    assert codec.encode(frozen) == codec.encode(plain)


# ---------------------------------------------------------------------------
# Malformed input: only CodecError escapes decode
# ---------------------------------------------------------------------------
def test_mutated_frames_raise_only_codec_error():
    # Seeded 1-3 byte flips over five valid frames.  Corrupt bytes reach
    # the UTF-8 decoder, dict-key hashing and record constructors with
    # values of the wrong shape; none of that may surface as anything but
    # CodecError (callers catch nothing else).  The last frame carries a
    # ``bytes`` value, a codec primitive no backend's signatures use.
    _, shares, aggregate, qc, block = _fixtures("hashsig", {})
    codec = WireCodec()
    vote = SignatureMessage(block_id=block.block_id, view=4, signature=shares[3])
    opaque = SignatureShare(signer=1, value=bytes(range(32)))
    frames = [
        codec.encode(ProposalMessage(block)),
        codec.encode(AckMessage(block_id=block.block_id, view=4, aggregate=aggregate)),
        codec.encode(SessionEnvelope(seq=9, messages=(Routed(src=3, dst=0, message=vote),))),
        codec.encode(FrameBatch((ClientReject(request_id=99), ClientReply(request_id=7)))),
        codec.encode(SecondChanceReply(block_id=block.block_id, view=4, signature=opaque)),
    ]
    rng = random.Random(24)
    rejected = 0
    for _ in range(20_000):
        mutated = bytearray(rng.choice(frames))
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(1, len(mutated))] = rng.randrange(256)
        try:
            codec.decode(bytes(mutated))
        except CodecError:
            rejected += 1
    assert rejected > 1_000  # the mutations do reach the error paths


# ---------------------------------------------------------------------------
# read_frame: the one consumer of the length prefix
# ---------------------------------------------------------------------------
def _frame_limit(site):
    from repro.clients import swarm
    from repro.runtime import fabric

    # The session's ack reader is bounded by the ``read_limit`` its owner
    # passes, and the fabric passes its own frame limit.
    return {"fabric": fabric._READ_LIMIT, "swarm": swarm._READ_LIMIT,
            "session": fabric._READ_LIMIT}[site]


@pytest.mark.parametrize("site", ["fabric", "swarm", "session"])
def test_read_frame_rejects_oversized_header_before_the_body(site):
    limit = _frame_limit(site)

    async def scenario():
        codec = WireCodec()
        reader = asyncio.StreamReader()
        reader.feed_data(codec.frame(SessionAck(acked=41)))
        reader.feed_data((limit + 1).to_bytes(4, "big"))  # header only, no body
        assert codec.decode(await read_frame(reader, limit)) == SessionAck(acked=41)
        with pytest.raises(ConnectionError, match="oversized"):
            # A reader that waited for the body would hang here, not raise.
            await asyncio.wait_for(read_frame(reader, limit), timeout=2.0)
        reader.feed_data(b"\x00\x00")
        reader.feed_eof()
        with pytest.raises(asyncio.IncompleteReadError):
            await read_frame(reader, limit)

    asyncio.run(scenario())


def test_peer_session_breaks_the_link_on_an_oversized_ack_header():
    from repro.resilience.session import PeerSession

    async def scenario():
        session = PeerSession(0, 1, "127.0.0.1", 1, WireCodec(), read_limit=1 << 16)
        reader = asyncio.StreamReader()
        reader.feed_data(WireCodec().frame(SessionAck(acked=3)))
        reader.feed_data(((1 << 16) + 1).to_bytes(4, "big"))
        # The parent's reader awaited a body of whatever size the peer
        # announced (up to 4 GiB); now the header alone ends the link.
        await asyncio.wait_for(session._read_acks(reader), timeout=2.0)
        assert session._acked == 3
        assert session._broken

    asyncio.run(scenario())

