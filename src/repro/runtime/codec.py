"""Versioned binary wire codec for the live runtime (msgpack-free).

Frames every message type the protocol core puts on the wire — the six
aggregation/consensus messages of :mod:`repro.aggregation.messages` plus
their nested :class:`~repro.consensus.block.Block`,
:class:`~repro.consensus.block.QuorumCertificate`,
:class:`~repro.crypto.multisig.SignatureShare` and
:class:`~repro.crypto.multisig.AggregateSignature` — with no external
dependency: a one-byte type tag per value, big-endian fixed-width lengths
and arbitrary-precision signed integers (BLS coordinates are 512-bit).

Signature *values* are backend-specific opaque objects; the codec covers
both registered backends:

* ``hashsig`` — plain ints and :class:`_HashSigAggregateValue` wrappers;
* ``bls`` — affine curve :class:`~repro.crypto.curve.Point` s.  Curve
  parameters do not travel with every point: both ends derive them from
  the shared :class:`~repro.scenarios.spec.ScenarioSpec`, so the decoder
  is constructed with the matching :class:`CurveParams`.

The first byte of every frame is :data:`WIRE_VERSION`; decoding a frame
with an unknown version raises :class:`CodecError` so incompatible nodes
fail loudly instead of mis-parsing.  The length prefix itself (4 bytes,
big-endian) is applied by :meth:`WireCodec.frame` and consumed by
:func:`repro.runtime.net.read_frame`.

Wire version 2 adds the **batch frame**: a :class:`FrameBatch` carries
several protocol messages in one length-prefixed frame, so a shaped or
congested link pays the framing and syscall cost once per flush instead
of once per message.  Batches are flat — a batch inside a batch is a
codec error — and each contained message is any of the six wire types.

Wire version 3 adds the **resilience layer**
(:mod:`repro.resilience.messages`): sequence-numbered session frames
(hello / envelope / cumulative ack / heartbeat) spoken by the live
runtime's connection supervisor, and the ``SyncRequest`` /
``SyncResponse`` state-transfer pair a recovering replica uses to fetch
the committed-block suffix it missed.  Envelopes are flat like batches:
an envelope may not contain another envelope or a batch.

Wire version 4 adds **packed int sequences**: a sequence whose elements
are all plain ints is encoded as one fixed-width array (4- or 8-byte
big-endian, whichever fits) instead of per-element tagged values.  Block
payloads are exactly this shape — a tuple of request ids — and the whole
tuple now decodes with a single ``struct`` call instead of one dispatch
per element.  Sequences with huge ints, bools or mixed types keep the
general per-element encoding.

Wire version 5 adds the **client layer** (:mod:`repro.clients.messages`):
the hello / request / reply / reject frames an open-loop client swarm
speaks to a replica.  They share the framing and versioning of the
protocol frames but never reach the protocol core — a replica terminates
them at the mempool admission boundary, and they stay out of the
per-replica transport counters like the session control frames.

Wire version 6 adds the **route header**
(:class:`~repro.resilience.messages.Routed`): a ``(src, dst)`` envelope
around one protocol message, spoken on the scale-out fabric's
worker-pair connections so n replicas' traffic multiplexes over
O(workers²) sessions and the receiving worker can demultiplex to the
hosted replica.  Route headers are flat like batches and envelopes — a
``Routed`` may not contain another ``Routed``.

Implementation notes
--------------------
**One schema table.**  Sixteen of the tags above are hand-written formats;
the other twenty are *plain records* — a tag byte, then every dataclass
field in declaration order, each an ordinary tagged value.  Those are
declared once, as ``(tag, class)`` rows of :data:`_RECORDS`, and
everything else about them is derived at import time:

* the exact-type encoder entry and the tag-indexed decoder entry, built
  by :func:`_record_encoder` / :func:`_record_decoder` from
  ``dataclasses.fields(cls)``;
* the subclass fallback (the encoder listing walked with ``isinstance``);
* :data:`WIRE_MESSAGE_TYPES` (the ``0x20``–``0x2F`` rows).

**Adding a wire message is one dataclass and one row.**  Conversely, a
record's field order *is* its byte format: reordering fields is a wire
change and needs a :data:`WIRE_VERSION` bump (a golden-bytes test pins
every row's v6 bytes).

What stays hand-written, and why — none of these is "tag, then each
field in order":

* the primitives and packed int sequences (variable-width ints, one
  ``struct`` call per int array, the precomputed small-int table);
* ``Point`` — two tags (affine / infinity), coordinates unwrapped from
  field elements, and the decoder needs the codec's curve parameters;
* the three flat containers ``Routed``, ``SessionEnvelope`` and
  ``FrameBatch`` — a raw member count instead of a tagged sequence,
  and the nesting bans checked on both ends;
* :class:`PreEncoded` — no tag at all, the bytes are spliced as they are.

The byte format above is stable, but the implementation is built for
throughput — a proposal frame decodes in tens of microseconds, not
hundreds:

* **Tag dispatch**: encode looks up an encoder by exact value type
  (``_ENCODERS``), decode indexes a 256-entry table by tag byte
  (``_DECODERS``) — no linear ``if``/``elif`` walk per value.  The
  generated record codecs dispatch each field inline, so they cost what
  the hand-unrolled per-record functions they replaced did.
* **Zero-copy decode**: :meth:`WireCodec.decode` wraps the payload in a
  :class:`memoryview` once and every decoder slices it without copying;
  only terminal ``bytes`` values materialise a copy.  ``decode`` also
  accepts a ``memoryview`` directly, so a frame can be decoded straight
  out of a larger receive buffer.
* **One error type**: whatever a malformed frame makes a decoder raise
  (running off the buffer, invalid UTF-8, an unhashable dict key, a
  constructor rejecting its arguments) leaves :meth:`WireCodec.decode`
  as :class:`CodecError`, converted once per frame.
* **Preallocated frame buffer**: :meth:`WireCodec.frame` reserves the
  4-byte length prefix and version byte up front and encodes into that
  single buffer, patching the length in place — one allocation per
  frame instead of header+body concatenation.
* **Pre-encoded splicing**: a :class:`PreEncoded` wraps an
  already-encoded value body; writers splice its bytes into envelopes
  and batches without re-encoding, so a multicast encodes its message
  once, not once per peer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.aggregation.messages import (
    AckMessage,
    NewViewMessage,
    ProposalMessage,
    SecondChanceMessage,
    SecondChanceReply,
    SignatureMessage,
)
from repro.consensus.block import Block, QuorumCertificate
from repro.crypto.curve import Point
from repro.crypto.multisig import (
    AggregateSignature,
    SignatureShare,
    _HashSigAggregateValue,
)
from repro.crypto.params import CurveParams
from repro.clients.messages import (
    ClientHello,
    ClientReject,
    ClientReply,
    ClientRequest,
)
from repro.resilience.messages import (
    Heartbeat,
    Routed,
    SessionAck,
    SessionEnvelope,
    SessionHello,
    SyncRequest,
    SyncResponse,
)

__all__ = [
    "CodecError",
    "FrameBatch",
    "PreEncoded",
    "WIRE_MESSAGE_TYPES",
    "WIRE_VERSION",
    "WireCodec",
]

#: Bump on any incompatible change to the encoding below.
#: v2: multi-message batch frames (:class:`FrameBatch`).
#: v3: resilience layer — session control frames and state-transfer sync.
#: v4: packed int sequences — all-int sequences as one fixed-width array.
#: v5: client layer — open-loop hello / request / reply / reject frames.
#: v6: route headers — (src, dst)-addressed messages on worker-pair links.
WIRE_VERSION = 6

#: The wire schema: one ``(tag, class)`` row per plain record — the tag
#: byte, then every dataclass field in declaration order.  Encoders,
#: decoders, subclass fallbacks and :data:`WIRE_MESSAGE_TYPES` are derived
#: from this table (see the module docstring's implementation notes).
_RECORDS: Tuple[Tuple[int, type], ...] = (
    (0x10, SignatureShare),
    (0x11, AggregateSignature),
    (0x12, _HashSigAggregateValue),
    (0x15, QuorumCertificate),
    (0x16, Block),
    (0x20, ProposalMessage),
    (0x21, SignatureMessage),
    (0x22, AckMessage),
    (0x23, SecondChanceMessage),
    (0x24, SecondChanceReply),
    (0x25, NewViewMessage),
    (0x26, SyncRequest),
    (0x27, SyncResponse),
    (0x30, SessionHello),
    (0x32, SessionAck),
    (0x33, Heartbeat),
    (0x40, ClientHello),
    (0x41, ClientRequest),
    (0x42, ClientReply),
    (0x43, ClientReject),
)

#: Every message type the protocol core sends between replicas: the
#: ``0x20``–``0x2F`` rows (session control and client frames never reach it).
WIRE_MESSAGE_TYPES: Tuple[type, ...] = tuple(
    cls for tag, cls in _RECORDS if 0x20 <= tag <= 0x2F
)


class CodecError(ValueError):
    """Raised for unsupported values, truncated frames or bad versions."""


@dataclass(frozen=True)
class FrameBatch:
    """Several protocol messages travelling in one wire frame.

    The live runtime's per-peer writers opportunistically drain their send
    queue into one of these, so a backlog behind a shaped (slow) link
    flushes in a single frame.  Batches are flat: members must be ordinary
    wire values, never another batch.
    """

    messages: Tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("a frame batch needs at least one message")

    def __len__(self) -> int:
        return len(self.messages)


class PreEncoded:
    """An already-encoded wire value spliced into frames without re-encoding.

    ``raw`` is the value body exactly as :meth:`WireCodec.encode_value`
    produced it (tag byte included, version byte excluded).  The live
    runtime pre-encodes a multicast payload once and hands the same
    ``PreEncoded`` to every peer session; the receiver decodes the
    original message and never sees the wrapper.  ``message`` keeps the
    source object for local bookkeeping (labels, metrics, debugging).
    """

    __slots__ = ("raw", "message")

    def __init__(self, raw: bytes, message: Any = None) -> None:
        self.raw = raw
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PreEncoded({len(self.raw)} bytes, message={self.message!r})"


# -- value tags ---------------------------------------------------------------
# Tags of the hand-written formats only; every plain record's tag lives in
# its ``_RECORDS`` row above.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_SEQ = 0x07
_T_DICT = 0x08
_T_SEQ_I32 = 0x09
_T_SEQ_I64 = 0x0A
_T_POINT = 0x13
_T_POINT_INF = 0x14
_T_BATCH = 0x1F
_T_SESSION_ENVELOPE = 0x31
_T_ROUTED = 0x34

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_pack_u32 = _U32.pack
_unpack_u32 = _U32.unpack_from
_pack_f64 = _F64.pack
_unpack_f64 = _F64.unpack_from


class WireCodec:
    """Encode/decode protocol messages to self-describing binary frames.

    Args:
        curve_params: Parameters used to reconstruct BLS curve points;
            required only when decoding frames produced by the ``bls``
            signature backend.
    """

    def __init__(self, curve_params: Optional[CurveParams] = None) -> None:
        self._params = curve_params

    # -- public API ----------------------------------------------------------
    def encode(self, message: Any) -> bytes:
        """Encode ``message`` into a version-tagged frame body."""
        out = bytearray((WIRE_VERSION,))
        self._write(out, message)
        return bytes(out)

    def encode_value(self, message: Any) -> bytes:
        """Encode one value body (no version byte), for :class:`PreEncoded`.

        ``PreEncoded(codec.encode_value(m), m)`` can then be spliced into
        any frame, envelope or batch this codec writes, encoding ``m``
        exactly once however many peers it fans out to.
        """
        out = bytearray()
        self._write(out, message)
        return bytes(out)

    def decode(self, payload) -> Any:
        """Decode one frame body produced by :meth:`encode`.

        Accepts ``bytes``, ``bytearray`` or a ``memoryview`` (a slice of
        a larger receive buffer decodes without copying it out first).
        """
        if not payload:
            raise CodecError("empty frame")
        buf = payload if type(payload) is memoryview else memoryview(payload)
        if buf[0] != WIRE_VERSION:
            raise CodecError(
                f"unsupported wire version {buf[0]} (this node speaks {WIRE_VERSION})"
            )
        try:
            value, offset = self._read(buf, 1)
        except CodecError:
            raise
        except (IndexError, struct.error):
            raise CodecError("truncated frame") from None
        except Exception as exc:
            # Corrupt bytes can reach any constructor, hash or text decoder
            # with a value of the wrong shape (a ``str`` that is not UTF-8,
            # an unhashable dict key, a record fed the wrong type).  The
            # frame is what is at fault, so callers see one error type —
            # converted here, once per frame, not checked per value.
            raise CodecError(f"malformed frame ({type(exc).__name__}: {exc})") from None
        if offset != len(buf):
            raise CodecError(f"{len(buf) - offset} trailing bytes after message")
        return value

    def frame(self, message: Any) -> bytes:
        """Length-prefixed frame, ready to write to a TCP stream.

        Encodes into one preallocated buffer: the 4-byte length prefix
        and version byte are reserved up front and the length patched in
        place once the body is written.
        """
        out = bytearray(5)
        out[4] = WIRE_VERSION
        self._write(out, message)
        _U32.pack_into(out, 0, len(out) - 4)
        return bytes(out)

    def frame_batch(self, messages: Iterable[Any]) -> bytes:
        """One length-prefixed frame carrying every message in ``messages``.

        Equivalent to ``frame(FrameBatch(tuple(messages)))``; a single
        message still pays only one frame, so callers can batch
        opportunistically without special-casing size one.
        """
        return self.frame(FrameBatch(tuple(messages)))

    # -- encoding ------------------------------------------------------------
    def _write(self, out: bytearray, value: Any) -> None:
        enc = _ENCODERS.get(value.__class__)
        if enc is None:
            enc = _resolve_encoder(value)
        enc(self, out, value)

    # -- decoding ------------------------------------------------------------
    def _read(self, buf, offset: int) -> Tuple[Any, int]:
        # Running off the end of ``buf`` raises IndexError / struct.error,
        # which :meth:`decode` reports as a truncated frame.
        fn = _DECODERS[buf[offset]]
        if fn is None:
            raise CodecError(f"unknown wire tag 0x{buf[offset]:02x}")
        return fn(self, buf, offset + 1)

    def _require_params(self) -> CurveParams:
        if self._params is None:
            raise CodecError(
                "decoding a BLS curve point requires the codec's curve_params"
            )
        return self._params


# -- hand-written encoders ----------------------------------------------------
# Only the formats that are not "tag, then each field in order": primitives,
# packed int sequences, curve points, the flat containers and PreEncoded.
# Each takes (codec, out, value) and appends to ``out``.

def _e_none(codec, out, value):
    out.append(_T_NONE)


def _e_bool(codec, out, value):
    out.append(_T_TRUE if value else _T_FALSE)


# Ints 0..127 encode to the same 6 bytes every time (tag + u32 size=1 +
# value byte); precomputing them removes to_bytes/pack from the hot loop.
_SMALL_INTS: Tuple[bytes, ...] = tuple(
    bytes((_T_INT, 0, 0, 0, 1, value)) for value in range(128)
)


def _e_int(codec, out, value):
    if 0 <= value < 128:
        out += _SMALL_INTS[value]
        return
    out.append(_T_INT)
    raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
    out += _pack_u32(len(raw))
    out += raw


def _e_float(codec, out, value):
    out.append(_T_FLOAT)
    out += _pack_f64(value)


def _e_str(codec, out, value):
    raw = value.encode("utf-8")
    out.append(_T_STR)
    out += _pack_u32(len(raw))
    out += raw


def _e_bytes(codec, out, value):
    out.append(_T_BYTES)
    out += _pack_u32(len(value))
    out += value


# Packed int sequences: block payloads are tuples of request ids, so the
# all-int case gets a fixed-width array encoding — one struct call for the
# whole sequence on both ends instead of per-element tag dispatch.  Struct
# objects are cached per element count (bounded: counts follow batch sizes).
_INT_SEQ_STRUCTS: Dict[Tuple[str, int], struct.Struct] = {}
_INT_SEQ_STRUCTS_MAX = 1024
_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _int_seq_struct(kind: str, count: int) -> struct.Struct:
    key = (kind, count)
    cached = _INT_SEQ_STRUCTS.get(key)
    if cached is None:
        if len(_INT_SEQ_STRUCTS) >= _INT_SEQ_STRUCTS_MAX:
            _INT_SEQ_STRUCTS.clear()
        cached = struct.Struct(f">{count}{kind}")
        _INT_SEQ_STRUCTS[key] = cached
    return cached


def _e_seq(codec, out, value):
    count = len(value)
    if count and all(item.__class__ is int for item in value):
        low, high = min(value), max(value)
        if _I32_MIN <= low and high <= _I32_MAX:
            out.append(_T_SEQ_I32)
            out += _pack_u32(count)
            out += _int_seq_struct("i", count).pack(*value)
            return
        if _I64_MIN <= low and high <= _I64_MAX:
            out.append(_T_SEQ_I64)
            out += _pack_u32(count)
            out += _int_seq_struct("q", count).pack(*value)
            return
    out.append(_T_SEQ)
    out += _pack_u32(count)
    write = codec._write
    small = _SMALL_INTS
    # Inline the dominant remaining case (small ints mixed with other types).
    for item in value:
        if item.__class__ is int:
            if 0 <= item < 128:
                out += small[item]
                continue
            out.append(_T_INT)
            raw = item.to_bytes((item.bit_length() + 8) // 8 or 1, "big", signed=True)
            out += _pack_u32(len(raw))
            out += raw
        else:
            write(out, item)


def _e_dict(codec, out, value):
    out.append(_T_DICT)
    out += _pack_u32(len(value))
    write = codec._write
    for key, item in value.items():
        write(out, key)
        write(out, item)


def _e_point(codec, out, value):
    if value.is_infinity:
        out.append(_T_POINT_INF)
    else:
        out.append(_T_POINT)
        codec._write(out, value.x.value)
        codec._write(out, value.y.value)


def _e_routed(codec, out, value):
    if isinstance(value.message, Routed):
        raise CodecError("route headers are flat wire containers")
    out.append(_T_ROUTED)
    codec._write(out, value.src)
    codec._write(out, value.dst)
    # The message goes through the ordinary dispatch, so a PreEncoded
    # multicast body splices its bytes here without re-encoding.
    codec._write(out, value.message)


def _e_session_envelope(codec, out, value):
    out.append(_T_SESSION_ENVELOPE)
    codec._write(out, value.seq)
    out += _pack_u32(len(value.messages))
    write = codec._write
    for member in value.messages:
        if isinstance(member, (SessionEnvelope, FrameBatch)):
            raise CodecError("session envelopes are flat wire containers")
        write(out, member)


def _e_batch(codec, out, value):
    out.append(_T_BATCH)
    out += _pack_u32(len(value.messages))
    write = codec._write
    for member in value.messages:
        if isinstance(member, FrameBatch):
            raise CodecError("batch frames cannot nest")
        write(out, member)


def _e_pre_encoded(codec, out, value):
    out += value.raw


# -- hand-written decoders ----------------------------------------------------
# The same formats, read back.  Each decoder takes (codec, buf,
# offset-past-tag) and returns (value, new offset).  ``buf`` is a memoryview:
# slices are views, not copies, so only terminal ``bytes`` values allocate.

def _d_none(codec, buf, offset):
    return None, offset


def _d_true(codec, buf, offset):
    return True, offset


def _d_false(codec, buf, offset):
    return False, offset


def _d_int(codec, buf, offset):
    size = _unpack_u32(buf, offset)[0]
    offset += 4
    end = offset + size
    if end > len(buf):
        raise CodecError("truncated frame")
    if size == 1:
        value = buf[offset]
        return (value - 256 if value >= 128 else value), end
    return int.from_bytes(buf[offset:end], "big", signed=True), end


def _d_float(codec, buf, offset):
    if offset + 8 > len(buf):
        raise CodecError("truncated frame")
    return _unpack_f64(buf, offset)[0], offset + 8


def _d_str(codec, buf, offset):
    size = _unpack_u32(buf, offset)[0]
    offset += 4
    end = offset + size
    if end > len(buf):
        raise CodecError("truncated frame")
    return str(buf[offset:end], "utf-8"), end


def _d_bytes(codec, buf, offset):
    size = _unpack_u32(buf, offset)[0]
    offset += 4
    end = offset + size
    if end > len(buf):
        raise CodecError("truncated frame")
    return bytes(buf[offset:end]), end


def _d_seq(codec, buf, offset):
    count = _unpack_u32(buf, offset)[0]
    offset += 4
    decoders = _DECODERS
    items: List[Any] = []
    append = items.append
    # Small ints dominate real payloads (request ids in block batches), so
    # the int case is inlined here: no dispatch call, no slice object for
    # the 1..2-byte encodings.
    from_bytes = int.from_bytes
    u32 = _unpack_u32
    buflen = len(buf)
    for _ in range(count):
        if buf[offset] == _T_INT:
            size = u32(buf, offset + 1)[0]
            offset += 5
            end = offset + size
            if end > buflen:
                raise CodecError("truncated frame")
            if size == 1:
                value = buf[offset]
                append(value - 256 if value >= 128 else value)
            elif size == 2:
                value = (buf[offset] << 8) | buf[offset + 1]
                append(value - 65536 if value >= 32768 else value)
            else:
                append(from_bytes(buf[offset:end], "big", signed=True))
            offset = end
        else:
            fn = decoders[buf[offset]]
            if fn is None:
                raise CodecError(f"unknown wire tag 0x{buf[offset]:02x}")
            item, offset = fn(codec, buf, offset + 1)
            append(item)
    return tuple(items), offset


def _d_seq_i32(codec, buf, offset):
    count = _unpack_u32(buf, offset)[0]
    offset += 4
    end = offset + 4 * count
    if end > len(buf):
        raise CodecError("truncated frame")
    return _int_seq_struct("i", count).unpack_from(buf, offset), end


def _d_seq_i64(codec, buf, offset):
    count = _unpack_u32(buf, offset)[0]
    offset += 4
    end = offset + 8 * count
    if end > len(buf):
        raise CodecError("truncated frame")
    return _int_seq_struct("q", count).unpack_from(buf, offset), end


def _d_dict(codec, buf, offset):
    count = _unpack_u32(buf, offset)[0]
    offset += 4
    read = codec._read
    mapping: Dict[Any, Any] = {}
    for _ in range(count):
        key, offset = read(buf, offset)
        item, offset = read(buf, offset)
        mapping[key] = item
    return mapping, offset


def _d_point_inf(codec, buf, offset):
    return Point.infinity(codec._require_params()), offset


def _d_point(codec, buf, offset):
    x, offset = codec._read(buf, offset)
    y, offset = codec._read(buf, offset)
    return Point.from_ints(x, y, codec._require_params()), offset


def _d_routed(codec, buf, offset):
    src, offset = codec._read(buf, offset)
    dst, offset = codec._read(buf, offset)
    message, offset = codec._read(buf, offset)
    if isinstance(message, Routed):
        raise CodecError("route headers are flat wire containers")
    return Routed(src=src, dst=dst, message=message), offset


def _d_session_envelope(codec, buf, offset):
    seq, offset = codec._read(buf, offset)
    count = _unpack_u32(buf, offset)[0]
    offset += 4
    if count == 0:
        raise CodecError("empty session envelope")
    read = codec._read
    members: List[Any] = []
    append = members.append
    for _ in range(count):
        member, offset = read(buf, offset)
        if isinstance(member, (SessionEnvelope, FrameBatch)):
            raise CodecError("session envelopes are flat wire containers")
        append(member)
    return SessionEnvelope(seq=seq, messages=tuple(members)), offset


def _d_batch(codec, buf, offset):
    count = _unpack_u32(buf, offset)[0]
    offset += 4
    if count == 0:
        raise CodecError("empty batch frame")
    read = codec._read
    members: List[Any] = []
    append = members.append
    for _ in range(count):
        member, offset = read(buf, offset)
        if isinstance(member, FrameBatch):
            raise CodecError("batch frames cannot nest")
        append(member)
    return FrameBatch(tuple(members)), offset


# -- records and dispatch tables ----------------------------------------------
# A plain record's codec is built from its ``_RECORDS`` row: the field names
# come from the dataclass declaration, so the schema is written down once.
# Both factories dispatch each field inline (what ``_write`` / ``_read`` do,
# minus one method call per field), which is what keeps a generated record
# codec as fast as the hand-unrolled functions it replaced.

def _record_encoder(tag: int, cls: type) -> Callable[[WireCodec, bytearray, Any], None]:
    names = tuple(field.name for field in fields(cls))
    exact = _ENCODERS.get

    def encode(codec, out, value):
        out.append(tag)
        for name in names:
            item = getattr(value, name)
            (exact(item.__class__) or _resolve_encoder(item))(codec, out, item)

    return encode


def _record_decoder(cls: type) -> Callable[[WireCodec, Any, int], Tuple[Any, int]]:
    names = tuple(field.name for field in fields(cls))
    decoders = _DECODERS

    def decode(codec, buf, offset):
        values: List[Any] = []
        for _ in names:  # one tagged value per field, in declaration order
            fn = decoders[buf[offset]]
            if fn is None:
                raise CodecError(f"unknown wire tag 0x{buf[offset]:02x}")
            value, offset = fn(codec, buf, offset + 1)
            values.append(value)
        return cls(*values), offset

    return decode


#: Encoder by exact value type.  A subclass (or a non-dict ``Mapping``, which
#: is how ``AggregateSignature.multiplicities`` is typed) misses here and is
#: resolved by :func:`_resolve_encoder`.
_ENCODERS: Dict[type, Callable[[WireCodec, bytearray, Any], None]] = {
    type(None): _e_none,
    bool: _e_bool,
    int: _e_int,
    float: _e_float,
    str: _e_str,
    bytes: _e_bytes,
    bytearray: _e_bytes,
    memoryview: _e_bytes,
    list: _e_seq,
    tuple: _e_seq,
    dict: _e_dict,
    Mapping: _e_dict,
    Point: _e_point,
    Routed: _e_routed,
    SessionEnvelope: _e_session_envelope,
    FrameBatch: _e_batch,
    PreEncoded: _e_pre_encoded,
}

#: Decoder by tag byte; ``None`` marks an unassigned tag.
_DECODERS: List[Optional[Callable]] = [None] * 256
for _tag, _fn in (
    (_T_NONE, _d_none),
    (_T_TRUE, _d_true),
    (_T_FALSE, _d_false),
    (_T_INT, _d_int),
    (_T_FLOAT, _d_float),
    (_T_STR, _d_str),
    (_T_BYTES, _d_bytes),
    (_T_SEQ, _d_seq),
    (_T_SEQ_I32, _d_seq_i32),
    (_T_SEQ_I64, _d_seq_i64),
    (_T_DICT, _d_dict),
    (_T_POINT, _d_point),
    (_T_POINT_INF, _d_point_inf),
    (_T_ROUTED, _d_routed),
    (_T_SESSION_ENVELOPE, _d_session_envelope),
    (_T_BATCH, _d_batch),
):
    _DECODERS[_tag] = _fn
for _tag, _cls in _RECORDS:
    if _DECODERS[_tag] is not None or _cls in _ENCODERS:
        raise RuntimeError(f"wire schema row (0x{_tag:02x}, {_cls.__name__}) reuses a tag or class")
    _ENCODERS[_cls] = _record_encoder(_tag, _cls)
    _DECODERS[_tag] = _record_decoder(_cls)
del _tag, _fn, _cls


def _resolve_encoder(value: Any) -> Callable[[WireCodec, bytearray, Any], None]:
    """Subclass fallback: the same listing, walked with ``isinstance``."""
    for base, enc in tuple(_ENCODERS.items()):
        if isinstance(value, base):
            _ENCODERS[value.__class__] = enc  # memoise the subclass
            return enc
    raise CodecError(f"cannot encode value of type {type(value).__name__}")
