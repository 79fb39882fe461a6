"""Node identity keys, payment hash chains and the run's memo of valid
signatures.

Each node holds one Ed25519 keypair used both for forwarding-proof chain
links and for the commitments to its payment hash chains.  Key
derivation is deterministic from a seed so simulation runs are
reproducible; public keys are assumed to be pre-distributed (the key
directory is a plain address-to-key map).  A chain's secret end derives
from the private key, so only the key's owner can extend its chains.

A run's keys share one `VerifiedLinks` memo and record every signature
they make in it.  Ed25519 is deterministic and a signature always
verifies under the public half of the key that made it, so a checker
that finds a triple in the memo gets the answer Ed25519 would give
without verifying it.  Any other triple is verified for real.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .wire import ChainCommitment, NodeAddr


@dataclass(frozen=True)
class KeyPair:
    """A node's signing identity.  The public half is always derived from
    the private key, so every signature recorded in `memo` is valid."""

    owner: NodeAddr
    _private: Ed25519PrivateKey = field(repr=False, compare=False)
    memo: VerifiedLinks | None = field(default=None, repr=False, compare=False)
    public: bytes = field(init=False)
    # The live payment chain, as its commitment, its words and the
    # highest total revealed on it, of each (channel id, direction) it
    # pays over.
    chains: dict[tuple[bytes, int], tuple[ChainCommitment, bytes, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "public", self._private.public_key().public_bytes_raw())

    @classmethod
    def from_seed(
        cls, owner: NodeAddr, seed: bytes, memo: VerifiedLinks | None = None
    ) -> "KeyPair":
        """Derive the node's keypair from an arbitrary seed string; its
        signatures feed `memo` when one is given."""
        material = hashlib.sha256(b"tollroute-key:" + seed + owner.octets).digest()
        return cls(owner, Ed25519PrivateKey.from_private_bytes(material), memo)

    def sign(self, message: bytes) -> bytes:
        sig = self._private.sign(message)
        if self.memo is not None:
            self.memo.add(self.public, message, sig)
        return sig

    def hash_chain(self, label: bytes, length: int) -> bytes:
        """The `length + 1` words of a hash chain, root first, as one
        buffer: the last word is a secret drawn from this key and
        `label`, and every other word is the SHA-256 of the next one."""
        sha256 = hashlib.sha256
        word = sha256(b"tollroute-payword:" + self._private.private_bytes_raw() + label).digest()
        words = [word]
        for _ in range(length):
            word = sha256(word).digest()
            words.append(word)
        words.reverse()
        return b"".join(words)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True when signature is a valid Ed25519 signature by public over
    message.  Malformed keys or signatures simply verify false."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


Verifier = Callable[[bytes, bytes, bytes], bool]


class VerifiedLinks:
    """(public key, message, signature) triples known valid in one run,
    shared by all its nodes: the signatures its keys made, and those a
    real verify accepted.  A failure is never stored.  Past CAPACITY the
    least recently used triple is dropped, so a chain link that every
    consumer checks outlives channel updates that are checked once."""

    CAPACITY = 1024

    def __init__(self) -> None:
        self._seen: dict[tuple[bytes, bytes, bytes], None] = {}

    def add(self, public: bytes, message: bytes, signature: bytes) -> None:
        seen = self._seen
        seen[(public, message, signature)] = None
        if len(seen) > self.CAPACITY:
            del seen[next(iter(seen))]

    def discard(self, public: bytes, message: bytes, signature: bytes) -> None:
        """Forget a triple that no check will ask about again."""
        self._seen.pop((public, message, signature), None)

    def check(self, public: bytes, message: bytes, signature: bytes, verify: Verifier) -> bool:
        """The memo's answer when it holds the triple, else `verify`'s."""
        triple = (public, message, signature)
        if triple in self._seen:
            self._seen[triple] = self._seen.pop(triple)
            return True
        if not verify(public, message, signature):
            return False
        self.add(public, message, signature)
        return True


KeyDirectory = dict[NodeAddr, bytes]
