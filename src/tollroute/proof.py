"""Chunk-level proof of forwarding.

A chunk is a run of consecutive content packets.  The producer signs the
chunk digest once; every relay that forwarded the chunk appends its own
signature over the digest plus the chain so far, so the consumer can
check that the bytes travelled exactly the path it paid for with one
signature per hop per chunk instead of per packet.  A proof is held as
the `wire.ChunkProof` it travels as, beside the chunk payload it covers.

Signature messages are raw concatenations:

    message_i = digest || encode_hop_signature(chain[0]) || ... || chain[i-1]

so each signer also commits to everyone who signed before it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from .keys import KeyDirectory, KeyPair, verify
from .wire import ChunkProof, HopSignature, NodeAddr, encode_hop_signature


class ProofError(ValueError):
    pass


def chunk_digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def chain_message(digest: bytes, chain: tuple[HopSignature, ...]) -> bytes:
    return digest + b"".join(encode_hop_signature(hop) for hop in chain)


def make_chunk(key: KeyPair, first: int, payload: bytes, packet_size: int) -> ChunkProof:
    """Producer-side: the proof over a chunk payload that starts at packet
    index first, with the first signature in the chain."""
    count = (len(payload) + packet_size - 1) // packet_size
    digest = chunk_digest(payload)
    sig = key.sign(chain_message(digest, ()))
    hop = HopSignature(signer=key.owner, signer_pub=key.public, sig=sig)
    return ChunkProof(first=first, count=count, digest=digest, chain=(hop,))


def sign_chunk(key: KeyPair, proof: ChunkProof, payload: bytes) -> ChunkProof:
    """Relay-side: append a signature.  Refuses to extend a chain it
    cannot itself validate, so a relay never vouches for garbage.  A relay
    reads only the memo of its directory `key.memo`, never its public keys:
    each earlier link is checked against the public key it carries."""
    if chunk_digest(payload) != proof.digest:
        raise ProofError("digest does not match payload")
    message = proof.digest
    for i, hop in enumerate(proof.chain):
        if not key.memo.check(hop.signer_pub, message, hop.sig, verify):
            raise ProofError(f"existing signature {i} by {hop.signer} does not verify")
        if hop.signer == key.owner:
            raise ProofError("refusing to sign the same chunk twice")
        message += encode_hop_signature(hop)
    sig = key.sign(message)
    hop = HopSignature(signer=key.owner, signer_pub=key.public, sig=sig)
    return ChunkProof(
        first=proof.first, count=proof.count, digest=proof.digest, chain=proof.chain + (hop,)
    )


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
    proof: ChunkProof, payload: bytes, expected_path: tuple[NodeAddr, ...], keys: KeyDirectory
) -> VerifyResult:
    """Consumer-side verdict on a chunk payload and its proof against the
    path it paid for.

    expected_path runs producer first, consumer-side relay last.  Keys
    come from the trusted `keys.public`; the pubkeys embedded in the chain
    only have to agree with it, they are never trusted on their own.  A
    fresh `KeyDirectory(public)` verifies every link afresh.
    """
    if not expected_path:
        raise ProofError("expected path cannot be empty")
    if chunk_digest(payload) != proof.digest:
        return VerifyResult(False, ChainFault.PAYLOAD_TAMPERED, 0)
    signers_present = {hop.signer for hop in proof.chain}
    message = proof.digest
    for i, expected in enumerate(expected_path):
        if i >= len(proof.chain):
            return VerifyResult(False, ChainFault.MISSING_SIGNER, i, expected)
        hop = proof.chain[i]
        if hop.signer != expected:
            if expected not in signers_present:
                return VerifyResult(False, ChainFault.MISSING_SIGNER, i, expected)
            return VerifyResult(False, ChainFault.UNEXPECTED_SIGNER, i, hop.signer)
        trusted_pub = keys.public.get(expected)
        if trusted_pub is None or hop.signer_pub != trusted_pub:
            return VerifyResult(False, ChainFault.UNEXPECTED_SIGNER, i, hop.signer)
        if not keys.check(trusted_pub, message, hop.sig, verify):
            return VerifyResult(False, ChainFault.BAD_SIGNATURE, i, hop.signer)
        message += encode_hop_signature(hop)
    if len(proof.chain) > len(expected_path):
        extra = proof.chain[len(expected_path)]
        return VerifyResult(False, ChainFault.UNEXPECTED_SIGNER, len(expected_path), extra.signer)
    return VALID


def signature_budget(total_bytes: int, packet_size: int, packets_per_chunk: int) -> int:
    """Signatures one signer spends to cover total_bytes.

    packets_per_chunk == 1 degenerates to per-packet signing.
    """
    if total_bytes < 1 or packet_size < 1 or packets_per_chunk < 1:
        raise ProofError("all budget parameters must be positive")
    chunk_bytes = packet_size * packets_per_chunk
    return (total_bytes + chunk_bytes - 1) // chunk_bytes
