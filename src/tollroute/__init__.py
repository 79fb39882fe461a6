"""Price-aware route discovery, per-hop content payments, and forwarding
proofs for ad-hoc named-data networks, plus a deterministic scenario
simulator that exercises all of it."""

__version__ = "0.1.0"

from .wire import (  # noqa: F401
    BROADCAST,
    ChainCommitment,
    ChunkProof,
    Data,
    DecodeError,
    EncodeError,
    HopInfo,
    HopSignature,
    Interest,
    Nack,
    NackReason,
    Name,
    NodeAddr,
    Payment,
    RouteStack,
    WireError,
    decode_packet,
    encode_packet,
)
