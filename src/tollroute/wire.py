"""Packet types and the canonical TLV codec.

A packet on the wire is a single packet-type byte followed by field TLVs.
Every field TLV is a 1-byte tag, a 2-byte big-endian length, and the value;
nested structures repeat the same layout inside a field's value.  Optional
fields that are absent omit their TLV entirely, fields appear in strictly
ascending tag order, and fixed-width values (addresses, nonces, integers,
digests, signatures) have exact lengths.  Decoding enforces all of that, so
any byte string the decoder accepts re-encodes to the identical bytes.

docs/wire-format.md lists every tag value and field schema.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

ADDR_LEN = 6
NONCE_LEN = 8
DIGEST_LEN = 32
PUBKEY_LEN = 32
SIG_LEN = 64

# A field value must fit the 2-byte TLV length.
MAX_FIELD_LEN = 0xFFFF
# Largest payload one UDP overlay datagram can carry; the codec itself
# accepts anything up to MAX_FIELD_LEN.
MAX_OVERLAY_PAYLOAD = 65_507

CHANNEL_ID_MAX = 64
U64_MAX = 2**64 - 1

# ---------------------------------------------------------------------------
# tag values (see docs/wire-format.md)

TAG_INTEREST = 0x01
TAG_DATA = 0x02
TAG_NACK = 0x03

TAG_NAME = 0x10
TAG_NONCE = 0x11
TAG_HOP_INFO = 0x12
TAG_ROUTE = 0x13
TAG_PAYMENT = 0x14
TAG_LIFETIME = 0x15
TAG_PAYLOAD = 0x16
TAG_PRICE = 0x17
TAG_PROOF = 0x18
TAG_REASON = 0x19

TAG_COMPONENT = 0x20
TAG_CHUNK_INDEX = 0x21
TAG_LOCAL = 0x22
TAG_REMOTE = 0x23
TAG_HOP = 0x24
TAG_CHANNEL_ID = 0x25
TAG_AMOUNT = 0x26
TAG_SEQUENCE = 0x27
TAG_PAYER_SIG = 0x28
TAG_CHUNK_FIRST = 0x29
TAG_CHUNK_COUNT = 0x2A
TAG_DIGEST = 0x2B
TAG_HOP_SIGNATURE = 0x2C
TAG_SIGNER = 0x2D
TAG_SIGNER_PUB = 0x2E
TAG_SIG = 0x2F


class WireError(Exception):
    """Base class for codec failures."""


class EncodeError(WireError):
    pass


class DecodeError(WireError):
    """Decoding failure; carries the byte offset of the offending field."""

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True, order=True)
class NodeAddr:
    """Six-octet link address.  All-0xFF is the broadcast sentinel and is
    never a node's own address.  Ordering is plain byte order."""

    octets: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.octets, bytes) or len(self.octets) != ADDR_LEN:
            raise ValueError("address must be exactly 6 octets")

    @classmethod
    def parse(cls, text: str) -> "NodeAddr":
        parts = text.split("-")
        if len(parts) != ADDR_LEN or not all(len(p) == 2 for p in parts):
            raise ValueError(f"bad address {text!r}: want six dash-separated octets")
        try:
            return cls(bytes(int(p, 16) for p in parts))
        except ValueError:
            raise ValueError(f"bad address {text!r}: non-hex octet") from None

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        return self.octets.hex("-")

    def __repr__(self) -> str:
        return f"NodeAddr({str(self)!r})"

    @property
    def is_broadcast(self) -> bool:
        return self.octets == b"\xff" * ADDR_LEN


BROADCAST = NodeAddr(b"\xff" * ADDR_LEN)


@dataclass(frozen=True)
class Name:
    """Hierarchical content name, optionally narrowed to one packet index.

    The text form joins components with '/' and renders the index as a
    trailing 'seg=N' segment, e.g. /video/clip/seg=7.
    """

    components: tuple[bytes, ...]
    chunk_index: int | None = None

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("name needs at least one component")
        for comp in self.components:
            if not isinstance(comp, bytes) or not comp:
                raise ValueError("name components must be non-empty byte strings")
        if self.chunk_index is not None and not 0 <= self.chunk_index <= U64_MAX:
            raise ValueError("chunk index out of range")

    @classmethod
    def parse(cls, uri: str) -> "Name":
        if not uri.startswith("/"):
            raise ValueError(f"name {uri!r} must start with '/'")
        parts = [p for p in uri.split("/") if p]
        index = None
        if parts and parts[-1].startswith("seg=") and parts[-1][4:].isdigit():
            index = int(parts[-1][4:])
            parts = parts[:-1]
        if not parts:
            raise ValueError(f"name {uri!r} has no components")
        return cls(tuple(p.encode() for p in parts), index)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        base = "/" + "/".join(c.decode("utf-8", "backslashreplace") for c in self.components)
        if self.chunk_index is None:
            return base
        return f"{base}/seg={self.chunk_index}"

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    @property
    def prefix(self) -> "Name":
        """The name with any packet index stripped; FIB entries key on this."""
        if self.chunk_index is None:
            return self
        return Name(self.components)

    def with_index(self, index: int) -> "Name":
        return Name(self.components, index)

    def has_prefix(self, other: "Name") -> bool:
        return self.components[: len(other.components)] == other.components


@dataclass(frozen=True)
class HopInfo:
    """Last-hop sender (local) and, for unicast sends, the intended
    receiver (remote).  Receivers drop packets whose remote names someone
    else; broadcast packets carry no remote."""

    local: NodeAddr
    remote: NodeAddr | None = None

    def __post_init__(self) -> None:
        if self.remote is not None and self.remote == self.local:
            raise ValueError("hop info local and remote must differ")


@dataclass(frozen=True)
class RouteStack:
    """FILO address stack.  Index 0 is the top; while a packet is in
    flight the top always names the node the packet is addressed to."""

    hops: tuple[NodeAddr, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("route stack cannot be empty")
        for a, b in zip(self.hops, self.hops[1:]):
            if a == b:
                raise ValueError("route stack has two adjacent equal addresses")

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def top(self) -> NodeAddr:
        return self.hops[0]

    def pop(self) -> "RouteStack | None":
        """The stack below the top, or None when the top was the last hop."""
        if len(self.hops) == 1:
            return None
        return RouteStack(self.hops[1:])

    def push(self, addr: NodeAddr) -> "RouteStack":
        return RouteStack((addr,) + self.hops)


@dataclass(frozen=True)
class Payment:
    """Signed channel-update offer riding a content Interest.

    amount is in integer token micro-units ("u").  payer_sig covers the
    canonical update message for (channel_id, sequence) and the balances
    implied by amount; the payment module owns that construction.
    """

    channel_id: bytes
    amount: int
    sequence: int
    payer_sig: bytes

    def __post_init__(self) -> None:
        if not self.channel_id or len(self.channel_id) > CHANNEL_ID_MAX:
            raise ValueError("channel id must be 1..64 bytes")
        if not 0 <= self.amount <= U64_MAX:
            raise ValueError("payment amount out of range")
        if not 0 <= self.sequence <= U64_MAX:
            raise ValueError("payment sequence out of range")
        if not 0 < len(self.payer_sig) <= 255:
            raise ValueError("payer signature must be 1..255 bytes")


@dataclass(frozen=True)
class HopSignature:
    """One link of a forwarding-proof chain."""

    signer: NodeAddr
    signer_pub: bytes
    sig: bytes

    def __post_init__(self) -> None:
        if len(self.signer_pub) != PUBKEY_LEN:
            raise ValueError("signer public key must be 32 bytes")
        if len(self.sig) != SIG_LEN:
            raise ValueError("hop signature must be 64 bytes")


@dataclass(frozen=True)
class ChunkProof:
    """Forwarding proof for one packet group, carried by the group's final
    packet.  first/count delimit the packet indices the group covers,
    digest is the producer's hash commitment over the group payload, and
    chain holds the per-hop signatures in producer-first order."""

    first: int
    count: int
    digest: bytes
    chain: tuple[HopSignature, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.first <= U64_MAX:
            raise ValueError("proof first index out of range")
        if not 1 <= self.count <= U64_MAX:
            raise ValueError("proof packet count must be positive")
        if len(self.digest) != DIGEST_LEN:
            raise ValueError("proof digest must be 32 bytes")
        if not self.chain:
            raise ValueError("proof chain cannot be empty")


class NackReason(IntEnum):
    NO_ROUTE = 0
    INSUFFICIENT_PAYMENT = 1
    DUPLICATE = 2
    EXPIRED = 3


# ---------------------------------------------------------------------------
# packets


@dataclass(frozen=True)
class Interest:
    """Content request.  Without a route it is a discovery Interest and is
    flooded; with a route it travels the named hops and may carry a
    payment offer for this delivery."""

    name: Name
    nonce: bytes
    hop_info: HopInfo
    lifetime_ms: int
    route: RouteStack | None = None
    payment: Payment | None = None

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_LEN:
            raise ValueError("nonce must be exactly 8 bytes")
        if not 1 <= self.lifetime_ms <= U64_MAX:
            raise ValueError("lifetime must be a positive integer")
        if self.route is None:
            if self.hop_info.remote is not None:
                raise ValueError("discovery Interest cannot name a remote")
        elif self.hop_info.remote != self.route.top:
            raise ValueError("routed Interest must address the route top")

    @property
    def is_discovery(self) -> bool:
        return self.route is None


@dataclass(frozen=True)
class Data:
    """Content or discovery answer.  Discovery Data carries the route
    stack it accumulates plus the cumulative price and no useful payload;
    content Data carries payload (and possibly a proof) and neither route
    nor price."""

    name: Name
    payload: bytes
    hop_info: HopInfo
    route: RouteStack | None = None
    price: int | None = None
    proof: ChunkProof | None = None

    def __post_init__(self) -> None:
        if (self.route is None) != (self.price is None):
            raise ValueError("route and price travel together on discovery Data")
        if self.price is not None and not 0 <= self.price <= U64_MAX:
            raise ValueError("price out of range")
        if self.proof is not None and self.route is not None:
            raise ValueError("discovery Data cannot carry a forwarding proof")

    @property
    def is_discovery(self) -> bool:
        return self.route is not None


@dataclass(frozen=True)
class Nack:
    """Negative acknowledgement for one Interest."""

    name: Name
    nonce: bytes
    reason: NackReason

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_LEN:
            raise ValueError("nonce must be exactly 8 bytes")
        if not isinstance(self.reason, NackReason):
            raise ValueError("reason must be a NackReason")


Packet = Interest | Data | Nack


# ---------------------------------------------------------------------------
# encoding


def _tlv(tag: int, value: bytes) -> bytes:
    if len(value) > MAX_FIELD_LEN:
        raise EncodeError(f"field 0x{tag:02x} value of {len(value)} bytes exceeds 65535")
    return struct.pack("!BH", tag, len(value)) + value


def _u64(value: int) -> bytes:
    return struct.pack("!Q", value)


def _encode_name(name: Name) -> bytes:
    out = bytearray()
    for comp in name.components:
        out += _tlv(TAG_COMPONENT, comp)
    if name.chunk_index is not None:
        out += _tlv(TAG_CHUNK_INDEX, _u64(name.chunk_index))
    return bytes(out)


def _encode_hop_info(info: HopInfo) -> bytes:
    out = _tlv(TAG_LOCAL, info.local.octets)
    if info.remote is not None:
        out += _tlv(TAG_REMOTE, info.remote.octets)
    return out


def _encode_route(route: RouteStack) -> bytes:
    return b"".join(_tlv(TAG_HOP, hop.octets) for hop in route.hops)


def _encode_payment(payment: Payment) -> bytes:
    return (
        _tlv(TAG_CHANNEL_ID, payment.channel_id)
        + _tlv(TAG_AMOUNT, _u64(payment.amount))
        + _tlv(TAG_SEQUENCE, _u64(payment.sequence))
        + _tlv(TAG_PAYER_SIG, payment.payer_sig)
    )


def encode_hop_signature(hop_sig: HopSignature) -> bytes:
    """Canonical bytes for one chain link; the proof module signs over
    concatenations of these."""
    return (
        _tlv(TAG_SIGNER, hop_sig.signer.octets)
        + _tlv(TAG_SIGNER_PUB, hop_sig.signer_pub)
        + _tlv(TAG_SIG, hop_sig.sig)
    )


def _encode_proof(proof: ChunkProof) -> bytes:
    out = bytearray()
    out += _tlv(TAG_CHUNK_FIRST, _u64(proof.first))
    out += _tlv(TAG_CHUNK_COUNT, _u64(proof.count))
    out += _tlv(TAG_DIGEST, proof.digest)
    for hop_sig in proof.chain:
        out += _tlv(TAG_HOP_SIGNATURE, encode_hop_signature(hop_sig))
    return bytes(out)


def encode_packet(packet: Packet) -> bytes:
    """Deterministic canonical byte string for a packet.

    Raises EncodeError if any single field value exceeds 65,535 bytes.
    """
    if isinstance(packet, Interest):
        out = bytearray([TAG_INTEREST])
        out += _tlv(TAG_NAME, _encode_name(packet.name))
        out += _tlv(TAG_NONCE, packet.nonce)
        out += _tlv(TAG_HOP_INFO, _encode_hop_info(packet.hop_info))
        if packet.route is not None:
            out += _tlv(TAG_ROUTE, _encode_route(packet.route))
        if packet.payment is not None:
            out += _tlv(TAG_PAYMENT, _encode_payment(packet.payment))
        out += _tlv(TAG_LIFETIME, _u64(packet.lifetime_ms))
        return bytes(out)
    if isinstance(packet, Data):
        out = bytearray([TAG_DATA])
        out += _tlv(TAG_NAME, _encode_name(packet.name))
        out += _tlv(TAG_HOP_INFO, _encode_hop_info(packet.hop_info))
        if packet.route is not None:
            out += _tlv(TAG_ROUTE, _encode_route(packet.route))
        out += _tlv(TAG_PAYLOAD, packet.payload)
        if packet.price is not None:
            out += _tlv(TAG_PRICE, _u64(packet.price))
        if packet.proof is not None:
            out += _tlv(TAG_PROOF, _encode_proof(packet.proof))
        return bytes(out)
    if isinstance(packet, Nack):
        out = bytearray([TAG_NACK])
        out += _tlv(TAG_NAME, _encode_name(packet.name))
        out += _tlv(TAG_NONCE, packet.nonce)
        out += _tlv(TAG_REASON, bytes([packet.reason]))
        return bytes(out)
    raise EncodeError(f"not a packet: {type(packet).__name__}")


# ---------------------------------------------------------------------------
# decoding

class _Schema(NamedTuple):
    """One field schema, compiled once from its rows."""

    what: str
    rank_of: dict[int, int]  # tag -> position in canonical order
    repeatable: frozenset[int]
    required: tuple[int, ...]  # in canonical order


def _schema(what: str, *rows: tuple[int, bool, bool]) -> _Schema:
    """Rows are (tag, required, repeatable), in canonical order."""
    return _Schema(
        what,
        {tag: i for i, (tag, _, _) in enumerate(rows)},
        frozenset(tag for tag, _, rep in rows if rep),
        tuple(tag for tag, req, _ in rows if req),
    )


_INTEREST_SCHEMA = _schema(
    "Interest",
    (TAG_NAME, True, False),
    (TAG_NONCE, True, False),
    (TAG_HOP_INFO, True, False),
    (TAG_ROUTE, False, False),
    (TAG_PAYMENT, False, False),
    (TAG_LIFETIME, True, False),
)
_DATA_SCHEMA = _schema(
    "Data",
    (TAG_NAME, True, False),
    (TAG_HOP_INFO, True, False),
    (TAG_ROUTE, False, False),
    (TAG_PAYLOAD, True, False),
    (TAG_PRICE, False, False),
    (TAG_PROOF, False, False),
)
_NACK_SCHEMA = _schema(
    "Nack",
    (TAG_NAME, True, False),
    (TAG_NONCE, True, False),
    (TAG_REASON, True, False),
)
_NAME_SCHEMA = _schema(
    "Name",
    (TAG_COMPONENT, True, True),
    (TAG_CHUNK_INDEX, False, False),
)
_HOP_INFO_SCHEMA = _schema(
    "HopInfo",
    (TAG_LOCAL, True, False),
    (TAG_REMOTE, False, False),
)
_ROUTE_SCHEMA = _schema("RouteStack", (TAG_HOP, True, True))
_PAYMENT_SCHEMA = _schema(
    "Payment",
    (TAG_CHANNEL_ID, True, False),
    (TAG_AMOUNT, True, False),
    (TAG_SEQUENCE, True, False),
    (TAG_PAYER_SIG, True, False),
)
_PROOF_SCHEMA = _schema(
    "ChunkProof",
    (TAG_CHUNK_FIRST, True, False),
    (TAG_CHUNK_COUNT, True, False),
    (TAG_DIGEST, True, False),
    (TAG_HOP_SIGNATURE, True, True),
)
_HOP_SIGNATURE_SCHEMA = _schema(
    "HopSignature",
    (TAG_SIGNER, True, False),
    (TAG_SIGNER_PUB, True, False),
    (TAG_SIG, True, False),
)


def _collect(buf: bytes, start: int, end: int, schema: _Schema):
    """Parse buf[start:end] as field TLVs against an ordered schema.

    Returns {tag: [(value_start, value_end, tag_offset), ...]}; offsets
    are absolute within buf.
    """
    what, rank_of, repeatable, required = schema
    got: dict[int, list[tuple[int, int, int]]] = {}
    last_rank = -1
    pos = start
    while pos < end:
        if end - pos < 3:
            raise DecodeError(pos, "truncated TLV header")
        tag = buf[pos]
        vstart = pos + 3
        vend = vstart + ((buf[pos + 1] << 8) | buf[pos + 2])
        if vend > end:
            raise DecodeError(pos, f"field 0x{tag:02x} length overruns its container")
        rank = rank_of.get(tag)
        if rank is None:
            raise DecodeError(pos, f"unknown tag 0x{tag:02x} in {what}")
        if tag in got and tag not in repeatable:
            raise DecodeError(pos, f"duplicate tag 0x{tag:02x} in {what}")
        if rank < last_rank:
            raise DecodeError(pos, f"tag 0x{tag:02x} out of canonical order in {what}")
        last_rank = rank
        got.setdefault(tag, []).append((vstart, vend, pos))
        pos = vend
    for tag in required:
        if tag not in got:
            raise DecodeError(start, f"{what} missing required tag 0x{tag:02x}")
    return got


def _one(fields, tag: int) -> tuple[int, int, int]:
    return fields[tag][0]


def _dec_u64(buf: bytes, vstart: int, vend: int, off: int) -> int:
    if vend - vstart != 8:
        raise DecodeError(off, "integer field must be exactly 8 bytes")
    return struct.unpack_from("!Q", buf, vstart)[0]


def _dec_addr(buf: bytes, vstart: int, vend: int, off: int) -> NodeAddr:
    if vend - vstart != ADDR_LEN:
        raise DecodeError(off, "address field must be exactly 6 bytes")
    return NodeAddr(buf[vstart:vend])


def _checked(ctor, off: int, *args, **kwargs):
    """Build a value type, converting its invariant errors to DecodeError."""
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise DecodeError(off, str(exc)) from None


def _decode_name(buf: bytes, vstart: int, vend: int, off: int) -> Name:
    fields = _collect(buf, vstart, vend, _NAME_SCHEMA)
    components = []
    for s, e, o in fields[TAG_COMPONENT]:
        if s == e:
            raise DecodeError(o, "empty name component")
        components.append(buf[s:e])
    index = None
    if TAG_CHUNK_INDEX in fields:
        index = _dec_u64(buf, *_one(fields, TAG_CHUNK_INDEX))
    return _checked(Name, off, tuple(components), index)


def _decode_hop_info(buf: bytes, vstart: int, vend: int, off: int) -> HopInfo:
    fields = _collect(buf, vstart, vend, _HOP_INFO_SCHEMA)
    local = _dec_addr(buf, *_one(fields, TAG_LOCAL))
    remote = None
    if TAG_REMOTE in fields:
        remote = _dec_addr(buf, *_one(fields, TAG_REMOTE))
    return _checked(HopInfo, off, local, remote)


def _decode_route(buf: bytes, vstart: int, vend: int, off: int) -> RouteStack:
    fields = _collect(buf, vstart, vend, _ROUTE_SCHEMA)
    hops = tuple(_dec_addr(buf, s, e, o) for s, e, o in fields[TAG_HOP])
    return _checked(RouteStack, off, hops)


def _decode_payment(buf: bytes, vstart: int, vend: int, off: int) -> Payment:
    fields = _collect(buf, vstart, vend, _PAYMENT_SCHEMA)
    cid_s, cid_e, _ = _one(fields, TAG_CHANNEL_ID)
    sig_s, sig_e, _ = _one(fields, TAG_PAYER_SIG)
    return _checked(
        Payment,
        off,
        buf[cid_s:cid_e],
        _dec_u64(buf, *_one(fields, TAG_AMOUNT)),
        _dec_u64(buf, *_one(fields, TAG_SEQUENCE)),
        buf[sig_s:sig_e],
    )


def _decode_hop_signature(buf: bytes, vstart: int, vend: int, off: int) -> HopSignature:
    fields = _collect(buf, vstart, vend, _HOP_SIGNATURE_SCHEMA)
    pub_s, pub_e, _ = _one(fields, TAG_SIGNER_PUB)
    sig_s, sig_e, _ = _one(fields, TAG_SIG)
    return _checked(
        HopSignature,
        off,
        _dec_addr(buf, *_one(fields, TAG_SIGNER)),
        buf[pub_s:pub_e],
        buf[sig_s:sig_e],
    )


def _decode_proof(buf: bytes, vstart: int, vend: int, off: int) -> ChunkProof:
    fields = _collect(buf, vstart, vend, _PROOF_SCHEMA)
    dig_s, dig_e, _ = _one(fields, TAG_DIGEST)
    chain = tuple(
        _decode_hop_signature(buf, s, e, o) for s, e, o in fields[TAG_HOP_SIGNATURE]
    )
    return _checked(
        ChunkProof,
        off,
        _dec_u64(buf, *_one(fields, TAG_CHUNK_FIRST)),
        _dec_u64(buf, *_one(fields, TAG_CHUNK_COUNT)),
        buf[dig_s:dig_e],
        chain,
    )


def _decode_interest(buf: bytes) -> Interest:
    fields = _collect(buf, 1, len(buf), _INTEREST_SCHEMA)
    nonce_s, nonce_e, nonce_off = _one(fields, TAG_NONCE)
    if nonce_e - nonce_s != NONCE_LEN:
        raise DecodeError(nonce_off, "nonce must be exactly 8 bytes")
    route = None
    if TAG_ROUTE in fields:
        route = _decode_route(buf, *_one(fields, TAG_ROUTE))
    payment = None
    if TAG_PAYMENT in fields:
        payment = _decode_payment(buf, *_one(fields, TAG_PAYMENT))
    return _checked(
        Interest,
        0,
        name=_decode_name(buf, *_one(fields, TAG_NAME)),
        nonce=buf[nonce_s:nonce_e],
        hop_info=_decode_hop_info(buf, *_one(fields, TAG_HOP_INFO)),
        lifetime_ms=_dec_u64(buf, *_one(fields, TAG_LIFETIME)),
        route=route,
        payment=payment,
    )


def _decode_data(buf: bytes) -> Data:
    fields = _collect(buf, 1, len(buf), _DATA_SCHEMA)
    pay_s, pay_e, _ = _one(fields, TAG_PAYLOAD)
    route = None
    if TAG_ROUTE in fields:
        route = _decode_route(buf, *_one(fields, TAG_ROUTE))
    price = None
    if TAG_PRICE in fields:
        price = _dec_u64(buf, *_one(fields, TAG_PRICE))
    proof = None
    if TAG_PROOF in fields:
        proof = _decode_proof(buf, *_one(fields, TAG_PROOF))
    return _checked(
        Data,
        0,
        name=_decode_name(buf, *_one(fields, TAG_NAME)),
        payload=buf[pay_s:pay_e],
        hop_info=_decode_hop_info(buf, *_one(fields, TAG_HOP_INFO)),
        route=route,
        price=price,
        proof=proof,
    )


def _decode_nack(buf: bytes) -> Nack:
    fields = _collect(buf, 1, len(buf), _NACK_SCHEMA)
    nonce_s, nonce_e, nonce_off = _one(fields, TAG_NONCE)
    if nonce_e - nonce_s != NONCE_LEN:
        raise DecodeError(nonce_off, "nonce must be exactly 8 bytes")
    reason_s, reason_e, reason_off = _one(fields, TAG_REASON)
    if reason_e - reason_s != 1:
        raise DecodeError(reason_off, "reason must be exactly 1 byte")
    code = buf[reason_s]
    try:
        reason = NackReason(code)
    except ValueError:
        raise DecodeError(reason_off, f"unknown nack reason {code}") from None
    return _checked(
        Nack,
        0,
        name=_decode_name(buf, *_one(fields, TAG_NAME)),
        nonce=buf[nonce_s:nonce_e],
        reason=reason,
    )


def decode_packet(buf: bytes) -> Packet:
    """Parse one packet from buf, which must hold exactly one packet.

    Rejects unknown packet tags, unknown or out-of-order field tags,
    duplicated fields, truncations and overruns, and any value violating
    the packet type's invariants.  Every DecodeError names the byte offset
    of the offending field.
    """
    if not buf:
        raise DecodeError(0, "empty buffer")
    tag = buf[0]
    if tag == TAG_INTEREST:
        return _decode_interest(buf)
    if tag == TAG_DATA:
        return _decode_data(buf)
    if tag == TAG_NACK:
        return _decode_nack(buf)
    raise DecodeError(0, f"unknown packet tag 0x{tag:02x}")
