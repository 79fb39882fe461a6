"""Node identity keys, payment hash chains and the run's key directory.

Each node holds one Ed25519 keypair used both for forwarding-proof chain
links and for the commitments to its payment hash chains.  Key
derivation is deterministic from a seed so simulation runs are
reproducible, and public keys are assumed to be pre-distributed.  A
chain's secret end derives from the private key, so only the key's
owner can extend its chains.

A run has one `KeyDirectory`: the public key of every node, which a
consumer and the ledger trust, and what the run's keys made: a memo of
their signatures, and the live payment chain of each channel direction
they pay over.  Ed25519 is deterministic (RFC 8032 5.1.6) and a
signature always verifies under the public half of the key that made
it, so a key asked to sign again returns the memo's signature, and a
checker that finds a signature there gets the answer Ed25519 would give
without verifying it.  Likewise a word that a live chain holds at the
position a check names hashes to the chain's root in that many steps,
so the check needs no hashing.  Anything else is verified or hashed for
real.
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

from .wire import DIGEST_LEN, ChainCommitment, NodeAddr


@dataclass(frozen=True)
class KeyPair:
    """A node's signing identity.  What it makes goes into its directory
    `memo`: its signatures, always valid because the public half derives
    from the private key, and its live payment chains."""

    owner: NodeAddr
    _private: Ed25519PrivateKey = field(repr=False, compare=False)
    memo: KeyDirectory = field(repr=False, compare=False)
    public: bytes = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "public", self._private.public_key().public_bytes_raw())

    @classmethod
    def from_seed(
        cls, owner: NodeAddr, seed: bytes, memo: KeyDirectory | None = None
    ) -> "KeyPair":
        """Derive the node's keypair from an arbitrary seed string; its
        signatures feed `memo`, or else a directory of its own."""
        material = hashlib.sha256(b"tollroute-key:" + seed + owner.octets).digest()
        private = Ed25519PrivateKey.from_private_bytes(material)
        return cls(owner, private, KeyDirectory() if memo is None else memo)

    def sign(self, message: bytes) -> bytes:
        sig = self.memo._seen.get((self.public, message))
        if sig is None:
            sig = self._private.sign(message)
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


class KeyDirectory:
    """One run's trust root, shared by all its nodes: `public`, each
    node's public key; the memo of signatures known valid, by (public
    key, message), which are the signatures the run's keys made and
    those a real verify accepted; and `chains`, the live payment chain
    of each (channel id, direction) the run's keys pay over, as its
    commitment, its words from the total `start` on, the highest total
    revealed on it and `start`.  A failure is never stored.  Past
    CAPACITY the least recently used signature is dropped, so a chain
    link that every consumer checks outlives channel updates that are
    checked once."""

    CAPACITY = 1024

    def __init__(self, public: dict[NodeAddr, bytes] | None = None) -> None:
        self.public: dict[NodeAddr, bytes] = {} if public is None else public
        self._seen: dict[tuple[bytes, bytes], bytes] = {}
        self.chains: dict[tuple[bytes, int], tuple[ChainCommitment, bytes, int, int]] = {}

    def add(self, public: bytes, message: bytes, signature: bytes) -> None:
        seen = self._seen
        seen[public, message] = signature
        if len(seen) > self.CAPACITY:
            del seen[next(iter(seen))]

    def discard(self, public: bytes, message: bytes, signature: bytes) -> None:
        """Forget a signature that no check will ask about again."""
        if self._seen.get((public, message)) == signature:
            del self._seen[public, message]

    def check(self, public: bytes, message: bytes, signature: bytes, verify: Verifier) -> bool:
        """The memo's answer when it holds this signature, else `verify`'s."""
        pair = (public, message)
        if self._seen.get(pair) == signature:
            self._seen[pair] = self._seen.pop(pair)
            return True
        if not verify(public, message, signature):
            return False
        self.add(public, message, signature)
        return True

    def on_chain(self, slot: tuple[bytes, int], root: bytes, position: int, word: bytes) -> bool:
        """Whether the live chain of `slot` has `root` and holds `word`
        `position` words past it, so that hashing `word` `position` times
        gives `root`.  False says only that the live chain cannot tell."""
        live = self.chains.get(slot)
        if live is None or live[0].root != root:
            return False
        commitment, words, _, start = live
        at = (commitment.base + position - start) * DIGEST_LEN
        return 0 <= at < len(words) and words[at : at + DIGEST_LEN] == word
