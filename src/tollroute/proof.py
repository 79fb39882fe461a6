"""Chunk-level proof of forwarding.

A chunk is a run of consecutive content packets.  The producer signs the
chunk digest once; every relay that forwarded the chunk appends its own
signature over the digest plus the chain so far, so the consumer can
check that the bytes travelled exactly the path it paid for with one
signature per hop per chunk instead of per packet.

Signature messages are raw concatenations:

    message_i = digest || encode_hop_signature(chain[0]) || ... || chain[i-1]

so each signer also commits to everyone who signed before it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from .keys import KeyDirectory, KeyPair, verify
from .wire import ChunkProof, HopSignature, Name, NodeAddr, encode_hop_signature


class ProofError(ValueError):
    pass


@dataclass(frozen=True)
class ChunkDescriptor:
    """Identity of one chunk: which packets of which content it spans."""

    name: Name  # content prefix, no packet index
    first: int  # index of the first packet in the chunk
    count: int  # packets in the chunk
    packet_size: int  # payload bytes per packet (last one may be short)

    def __post_init__(self) -> None:
        if self.name.chunk_index is not None:
            raise ProofError("chunk descriptor takes a prefix, not a packet name")
        if self.first < 0:
            raise ProofError("first packet index cannot be negative")
        if self.count < 1:
            raise ProofError("a chunk spans at least one packet")
        if self.packet_size < 1:
            raise ProofError("packet size must be positive")

    @property
    def indices(self) -> range:
        return range(self.first, self.first + self.count)


@dataclass(frozen=True)
class SignedChunk:
    descriptor: ChunkDescriptor
    payload: bytes
    digest: bytes
    chain: tuple[HopSignature, ...]

    def proof(self) -> ChunkProof:
        return ChunkProof(
            first=self.descriptor.first,
            count=self.descriptor.count,
            digest=self.digest,
            chain=self.chain,
        )


def chunk_digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def chain_message(digest: bytes, chain: tuple[HopSignature, ...]) -> bytes:
    return digest + b"".join(encode_hop_signature(hop) for hop in chain)


def split_payload(payload: bytes, packet_size: int) -> list[bytes]:
    """Cut a chunk payload into per-packet payloads; all full size except
    possibly the last."""
    if not payload:
        raise ProofError("cannot split an empty payload")
    if packet_size < 1:
        raise ProofError("packet size must be positive")
    return [payload[i : i + packet_size] for i in range(0, len(payload), packet_size)]


def _check_payload(descriptor: ChunkDescriptor, payload: bytes) -> None:
    low = (descriptor.count - 1) * descriptor.packet_size
    high = descriptor.count * descriptor.packet_size
    if not (low < len(payload) <= high):
        raise ProofError(
            f"payload of {len(payload)} bytes does not fill {descriptor.count} "
            f"packets of {descriptor.packet_size}"
        )


def make_chunk(key: KeyPair, name: Name, first: int, payload: bytes, packet_size: int) -> SignedChunk:
    """Producer-side: wrap a chunk payload and lay down the first
    signature in the chain."""
    count = (len(payload) + packet_size - 1) // packet_size
    descriptor = ChunkDescriptor(name.prefix, first, count, packet_size)
    _check_payload(descriptor, payload)
    digest = chunk_digest(payload)
    sig = key.sign(chain_message(digest, ()))
    hop = HopSignature(signer=key.owner, signer_pub=key.public, sig=sig)
    return SignedChunk(descriptor, payload, digest, (hop,))


def sign_chunk(key: KeyPair, chunk: SignedChunk) -> SignedChunk:
    """Relay-side: append a signature.  Refuses to extend a chain it
    cannot itself validate, so a relay never vouches for garbage."""
    if chunk_digest(chunk.payload) != chunk.digest:
        raise ProofError("digest does not match payload")
    if not chunk.chain:
        raise ProofError("chain must start at the producer")
    for i, hop in enumerate(chunk.chain):
        if not verify(hop.signer_pub, chain_message(chunk.digest, chunk.chain[:i]), hop.sig):
            raise ProofError(f"existing signature {i} by {hop.signer} does not verify")
        if hop.signer == key.owner:
            raise ProofError("refusing to sign the same chunk twice")
    sig = key.sign(chain_message(chunk.digest, chunk.chain))
    hop = HopSignature(signer=key.owner, signer_pub=key.public, sig=sig)
    return SignedChunk(chunk.descriptor, chunk.payload, chunk.digest, chunk.chain + (hop,))


class ChainFault(Enum):
    PAYLOAD_TAMPERED = "payload-tampered"
    MISSING_SIGNER = "missing-signer"
    UNEXPECTED_SIGNER = "unexpected-signer"
    BAD_SIGNATURE = "bad-signature"


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    fault: ChainFault | None = None
    at_index: int | None = None
    signer: NodeAddr | None = None

    def __bool__(self) -> bool:
        return self.valid


VALID = VerifyResult(valid=True)


def verify_chain(
    chunk: SignedChunk,
    expected_path: tuple[NodeAddr, ...],
    directory: KeyDirectory,
) -> VerifyResult:
    """Consumer-side verdict on a chunk against the path it paid for.

    expected_path runs producer first, consumer-side relay last.  Keys
    come from the trusted directory; the pubkeys embedded in the chain
    only have to agree with it, they are never trusted on their own.
    """
    if not expected_path:
        raise ProofError("expected path cannot be empty")
    if chunk_digest(chunk.payload) != chunk.digest:
        return VerifyResult(False, ChainFault.PAYLOAD_TAMPERED, 0)
    signers_present = {hop.signer for hop in chunk.chain}
    for i, expected in enumerate(expected_path):
        if i >= len(chunk.chain):
            return VerifyResult(False, ChainFault.MISSING_SIGNER, i, expected)
        hop = chunk.chain[i]
        if hop.signer != expected:
            if expected not in signers_present:
                return VerifyResult(False, ChainFault.MISSING_SIGNER, i, expected)
            return VerifyResult(False, ChainFault.UNEXPECTED_SIGNER, i, hop.signer)
        trusted_pub = directory.get(expected)
        if trusted_pub is None or hop.signer_pub != trusted_pub:
            return VerifyResult(False, ChainFault.UNEXPECTED_SIGNER, i, hop.signer)
        if not verify(trusted_pub, chain_message(chunk.digest, chunk.chain[:i]), hop.sig):
            return VerifyResult(False, ChainFault.BAD_SIGNATURE, i, hop.signer)
    if len(chunk.chain) > len(expected_path):
        extra = chunk.chain[len(expected_path)]
        return VerifyResult(False, ChainFault.UNEXPECTED_SIGNER, len(expected_path), extra.signer)
    return VALID


class AssemblyState(Enum):
    INCOMPLETE = "incomplete"
    COMPLETE = "complete"


class ChunkAssembly:
    """Incremental reassembly of one chunk from its packets.

    Packets may arrive in any order and more than once; the first copy of
    an index wins.  Every packet except the chunk's last must carry
    exactly packet_size bytes.
    """

    def __init__(self, descriptor: ChunkDescriptor) -> None:
        self.descriptor = descriptor
        self._parts: dict[int, bytes] = {}

    def add(self, index: int, payload: bytes) -> AssemblyState:
        d = self.descriptor
        if index not in d.indices:
            raise ProofError(f"packet {index} is outside chunk [{d.first}, {d.first + d.count})")
        is_last = index == d.first + d.count - 1
        if is_last:
            if not (0 < len(payload) <= d.packet_size):
                raise ProofError("final packet payload out of range")
        elif len(payload) != d.packet_size:
            raise ProofError("non-final packet must be exactly packet_size")
        self._parts.setdefault(index, payload)
        return self.state()

    def state(self) -> AssemblyState:
        if len(self._parts) == self.descriptor.count:
            return AssemblyState.COMPLETE
        return AssemblyState.INCOMPLETE

    def payload(self) -> bytes:
        if self.state() is not AssemblyState.COMPLETE:
            raise ProofError("chunk is not complete")
        return b"".join(self._parts[i] for i in self.descriptor.indices)


def signature_budget(total_bytes: int, packet_size: int, packets_per_chunk: int) -> int:
    """Signatures one signer spends to cover total_bytes.

    packets_per_chunk == 1 degenerates to per-packet signing.
    """
    if total_bytes < 1 or packet_size < 1 or packets_per_chunk < 1:
        raise ProofError("all budget parameters must be positive")
    chunk_bytes = packet_size * packets_per_chunk
    return (total_bytes + chunk_bytes - 1) // chunk_bytes
