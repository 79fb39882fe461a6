"""Packet types and the canonical TLV codec.

A packet on the wire is a single packet-type byte followed by field TLVs.
Every field TLV is a 1-byte tag, a 2-byte big-endian length, and the value;
nested structures repeat the same layout inside a field's value.  Optional
fields that are absent omit their TLV entirely, fields appear in strictly
ascending tag order, and fixed-width values (addresses, nonces, integers,
digests, chain words, signatures) have exact lengths.  Decoding enforces
all of that, so any byte string the decoder accepts re-encodes to the
identical bytes.

Each wire type's layout is written once, as a schema of rows at the end
of this module, and both directions walk it.  docs/wire-format.md lists
every tag value and field schema.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, NamedTuple

ADDR_LEN = 6
NONCE_LEN = 8
DIGEST_LEN = 32
PUBKEY_LEN = 32
SIG_LEN = 64

# A field value must fit the 2-byte TLV length.
MAX_FIELD_LEN = 0xFFFF

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
TAG_WORD = 0x28
TAG_CHUNK_FIRST = 0x29
TAG_CHUNK_COUNT = 0x2A
TAG_DIGEST = 0x2B
TAG_HOP_SIGNATURE = 0x2C
TAG_SIGNER = 0x2D
TAG_SIGNER_PUB = 0x2E
TAG_SIG = 0x2F
TAG_COMMITMENT = 0x30
TAG_CHAIN_SEQUENCE = 0x31
TAG_CHAIN_BASE = 0x32
TAG_CHAIN_LENGTH = 0x33
TAG_CHAIN_ROOT = 0x34
TAG_CHAIN_SIG = 0x35


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
class ChainCommitment:
    """A payer's signed commitment to a PayWord hash chain that pays
    cumulative totals base .. base + length over one channel direction,
    opened by the offer at `sequence`; root is the chain's first word.
    payment.py builds and checks it."""

    sequence: int
    base: int
    length: int
    root: bytes
    sig: bytes

    def __post_init__(self) -> None:
        if len(self.root) != DIGEST_LEN:
            raise ValueError("chain root must be 32 bytes")
        if len(self.sig) != SIG_LEN:
            raise ValueError("commitment signature must be 64 bytes")


@dataclass(frozen=True)
class Payment:
    """Channel payment offer riding a content Interest.

    amount is in integer token micro-units ("u").  word is the payer's
    hash-chain word for the cumulative total that amount brings it to;
    commitment, when present, is the chain that word belongs to.
    payment.py builds both.
    """

    channel_id: bytes
    amount: int
    sequence: int
    word: bytes
    commitment: ChainCommitment | None = None

    def __post_init__(self) -> None:
        if not self.channel_id or len(self.channel_id) > CHANNEL_ID_MAX:
            raise ValueError("channel id must be 1..64 bytes")
        if not 0 <= self.amount <= U64_MAX:
            raise ValueError("payment amount out of range")
        if not 0 <= self.sequence <= U64_MAX:
            raise ValueError("payment sequence out of range")
        if len(self.word) != DIGEST_LEN:
            raise ValueError("payment word must be 32 bytes")


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
# codec: one schema per wire type drives both encoding and decoding


_HEADER = struct.Struct("!BH")
_U64_STRUCT = struct.Struct("!Q")


class _Kind(NamedTuple):
    """How one field value becomes TLV value bytes and back.  `decode`
    takes (buf, value_start, value_end, tag_offset) and reports a bad
    value at its field's tag offset."""

    encode: Callable[[Any], bytes]
    decode: Callable[[bytes, int, int, int], Any]


def _raw(value: bytes) -> bytes:
    return value


def _dec_bytes(buf: bytes, vstart: int, vend: int, off: int) -> bytes:
    return buf[vstart:vend]


def _dec_u64(buf: bytes, vstart: int, vend: int, off: int) -> int:
    if vend - vstart != 8:
        raise DecodeError(off, "integer field must be exactly 8 bytes")
    return _U64_STRUCT.unpack_from(buf, vstart)[0]


def _dec_addr(buf: bytes, vstart: int, vend: int, off: int) -> NodeAddr:
    if vend - vstart != ADDR_LEN:
        raise DecodeError(off, "address field must be exactly 6 bytes")
    return NodeAddr(buf[vstart:vend])


def _dec_component(buf: bytes, vstart: int, vend: int, off: int) -> bytes:
    if vstart == vend:
        raise DecodeError(off, "empty name component")
    return buf[vstart:vend]


def _dec_nonce(buf: bytes, vstart: int, vend: int, off: int) -> bytes:
    if vend - vstart != NONCE_LEN:
        raise DecodeError(off, "nonce must be exactly 8 bytes")
    return buf[vstart:vend]


def _dec_reason(buf: bytes, vstart: int, vend: int, off: int) -> NackReason:
    if vend - vstart != 1:
        raise DecodeError(off, "reason must be exactly 1 byte")
    try:
        return NackReason(buf[vstart])
    except ValueError:
        raise DecodeError(off, f"unknown nack reason {buf[vstart]}") from None


_U64 = _Kind(_U64_STRUCT.pack, _dec_u64)
_ADDR = _Kind(attrgetter("octets"), _dec_addr)
_BYTES = _Kind(_raw, _dec_bytes)
_COMPONENT = _Kind(_raw, _dec_component)
_NONCE = _Kind(_raw, _dec_nonce)
_REASON = _Kind(struct.Struct("!B").pack, _dec_reason)


class _Row(NamedTuple):
    tag: int
    attr: str
    kind: Any  # a _Kind, or the _Schema of a nested structure
    required: bool
    repeatable: bool  # the attribute holds a tuple, one TLV per item


class _Schema:
    """One wire type's layout, compiled once from its rows, which are in
    canonical order.  A schema is also the kind of a field nesting it."""

    def __init__(self, cls: type, *rows: tuple) -> None:
        self.cls = cls
        self.what = cls.__name__
        self.rows = tuple(_Row(*row) for row in rows)
        self.rank_of = {row.tag: i for i, row in enumerate(self.rows)}
        self.repeatable = frozenset(row.tag for row in self.rows if row.repeatable)
        self.required = tuple(row.tag for row in self.rows if row.required)
        self._encoders = tuple(
            (row.tag, row.attr, row.kind.encode, row.repeatable) for row in self.rows
        )
        # Decoding passes every attribute positionally, in the constructor's order.
        slot = [f.name for f in fields(cls)].index
        self._decoders = tuple(
            (row.tag, slot(row.attr), row.kind.decode, row.repeatable) for row in self.rows
        )

    def encode(self, value) -> bytes:
        parts = []
        for tag, attr, encode, repeatable in self._encoders:
            field = getattr(value, attr)
            if field is None:
                continue
            for item in field if repeatable else (field,):
                item = encode(item)
                if len(item) > MAX_FIELD_LEN:
                    raise EncodeError(
                        f"field 0x{tag:02x} value of {len(item)} bytes exceeds 65535"
                    )
                parts.append(_HEADER.pack(tag, len(item)))
                parts.append(item)
        return b"".join(parts)

    def decode(self, buf: bytes, start: int, end: int, off: int):
        """The value in buf[start:end]; a violated type invariant is
        reported at `off`, the offset of the TLV holding the value."""
        got = _collect(buf, start, end, self)
        args = [None] * len(self._decoders)
        for tag, slot, decode, repeatable in self._decoders:
            entries = got.get(tag)
            if entries is None:
                continue
            if repeatable:
                args[slot] = tuple(decode(buf, *entry) for entry in entries)
            else:
                args[slot] = decode(buf, *entries[0])
        try:
            return self.cls(*args)
        except ValueError as exc:
            raise DecodeError(off, str(exc)) from None


def _collect(buf: bytes, start: int, end: int, schema: _Schema):
    """Parse buf[start:end] as field TLVs against an ordered schema.

    Returns {tag: [(value_start, value_end, tag_offset), ...]}; offsets
    are absolute within buf.
    """
    what, rank_of, repeatable = schema.what, schema.rank_of, schema.repeatable
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
    for tag in schema.required:
        if tag not in got:
            raise DecodeError(start, f"{what} missing required tag 0x{tag:02x}")
    return got


# Rows are (tag, attribute, kind, required, repeatable).
_NAME_SCHEMA = _Schema(
    Name,
    (TAG_COMPONENT, "components", _COMPONENT, True, True),
    (TAG_CHUNK_INDEX, "chunk_index", _U64, False, False),
)
_HOP_INFO_SCHEMA = _Schema(
    HopInfo,
    (TAG_LOCAL, "local", _ADDR, True, False),
    (TAG_REMOTE, "remote", _ADDR, False, False),
)
_ROUTE_SCHEMA = _Schema(RouteStack, (TAG_HOP, "hops", _ADDR, True, True))
_COMMITMENT_SCHEMA = _Schema(
    ChainCommitment,
    (TAG_CHAIN_SEQUENCE, "sequence", _U64, True, False),
    (TAG_CHAIN_BASE, "base", _U64, True, False),
    (TAG_CHAIN_LENGTH, "length", _U64, True, False),
    (TAG_CHAIN_ROOT, "root", _BYTES, True, False),
    (TAG_CHAIN_SIG, "sig", _BYTES, True, False),
)
_PAYMENT_SCHEMA = _Schema(
    Payment,
    (TAG_CHANNEL_ID, "channel_id", _BYTES, True, False),
    (TAG_AMOUNT, "amount", _U64, True, False),
    (TAG_SEQUENCE, "sequence", _U64, True, False),
    (TAG_WORD, "word", _BYTES, True, False),
    (TAG_COMMITMENT, "commitment", _COMMITMENT_SCHEMA, False, False),
)
_HOP_SIGNATURE_SCHEMA = _Schema(
    HopSignature,
    (TAG_SIGNER, "signer", _ADDR, True, False),
    (TAG_SIGNER_PUB, "signer_pub", _BYTES, True, False),
    (TAG_SIG, "sig", _BYTES, True, False),
)
_PROOF_SCHEMA = _Schema(
    ChunkProof,
    (TAG_CHUNK_FIRST, "first", _U64, True, False),
    (TAG_CHUNK_COUNT, "count", _U64, True, False),
    (TAG_DIGEST, "digest", _BYTES, True, False),
    (TAG_HOP_SIGNATURE, "chain", _HOP_SIGNATURE_SCHEMA, True, True),
)
_PACKET_SCHEMAS = {
    TAG_INTEREST: _Schema(
        Interest,
        (TAG_NAME, "name", _NAME_SCHEMA, True, False),
        (TAG_NONCE, "nonce", _NONCE, True, False),
        (TAG_HOP_INFO, "hop_info", _HOP_INFO_SCHEMA, True, False),
        (TAG_ROUTE, "route", _ROUTE_SCHEMA, False, False),
        (TAG_PAYMENT, "payment", _PAYMENT_SCHEMA, False, False),
        (TAG_LIFETIME, "lifetime_ms", _U64, True, False),
    ),
    TAG_DATA: _Schema(
        Data,
        (TAG_NAME, "name", _NAME_SCHEMA, True, False),
        (TAG_HOP_INFO, "hop_info", _HOP_INFO_SCHEMA, True, False),
        (TAG_ROUTE, "route", _ROUTE_SCHEMA, False, False),
        (TAG_PAYLOAD, "payload", _BYTES, True, False),
        (TAG_PRICE, "price", _U64, False, False),
        (TAG_PROOF, "proof", _PROOF_SCHEMA, False, False),
    ),
    TAG_NACK: _Schema(
        Nack,
        (TAG_NAME, "name", _NAME_SCHEMA, True, False),
        (TAG_NONCE, "nonce", _NONCE, True, False),
        (TAG_REASON, "reason", _REASON, True, False),
    ),
}
_PACKET_TAGS = {schema.cls: tag for tag, schema in _PACKET_SCHEMAS.items()}


def encode_hop_signature(hop_sig: HopSignature) -> bytes:
    """Canonical bytes for one chain link; the proof module signs over
    concatenations of these."""
    return _HOP_SIGNATURE_SCHEMA.encode(hop_sig)


def encode_packet(packet: Packet) -> bytes:
    """Deterministic canonical byte string for a packet.

    Raises EncodeError if any single field value exceeds 65,535 bytes.
    """
    tag = _PACKET_TAGS.get(type(packet))
    if tag is None:
        raise EncodeError(f"not a packet: {type(packet).__name__}")
    return bytes((tag,)) + _PACKET_SCHEMAS[tag].encode(packet)


def decode_packet(buf: bytes) -> Packet:
    """Parse one packet from buf, which must hold exactly one packet.

    Rejects unknown packet tags, unknown or out-of-order field tags,
    duplicated fields, truncations and overruns, and any value violating
    the packet type's invariants.  Every DecodeError names the byte offset
    of the offending field.
    """
    if not buf:
        raise DecodeError(0, "empty buffer")
    schema = _PACKET_SCHEMAS.get(buf[0])
    if schema is None:
        raise DecodeError(0, f"unknown packet tag 0x{buf[0]:02x}")
    return schema.decode(buf, 1, len(buf), 0)
