"""Proof-of-forwarding chain construction, verdict classification, and
the signature budget arithmetic."""

from dataclasses import FrozenInstanceError, replace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given
from hypothesis import strategies as st

from tollroute import keys as keys_module
from tollroute import proof as proof_module
from tollroute.keys import KeyDirectory, KeyPair
from tollroute.payment import chain_label
from tollroute.proof import (
    ChainFault,
    ProofError,
    VerifyResult,
    chain_message,
    chunk_digest,
    make_chunk,
    sign_chunk,
    signature_budget,
    verify_chain,
)
from tollroute.wire import (
    Data,
    HopInfo,
    HopSignature,
    Name,
    NodeAddr,
    decode_packet,
    encode_hop_signature,
    encode_packet,
)

PRODUCER = NodeAddr.parse("00-aa-00-00-00-01")
RELAY1 = NodeAddr.parse("00-aa-00-00-00-02")
RELAY2 = NodeAddr.parse("00-aa-00-00-00-03")
OUTSIDER = NodeAddr.parse("00-aa-00-00-00-99")
NAME = Name((b"video", b"clip"))


def _keys(directory):
    """The module's keys, which record their signatures in `directory`
    and whose public halves it holds, as a run's keys do."""
    keys = {
        addr: KeyPair.from_seed(addr, b"proof-tests", directory)
        for addr in (PRODUCER, RELAY1, RELAY2, OUTSIDER)
    }
    directory.public.update((addr, key.public) for addr, key in keys.items())
    return keys


@pytest.fixture(scope="module")
def directory():
    """The module keys' directory: checks given it take the memo's fast
    path on honest links.  `KeyDirectory(directory.public)` checks every
    link afresh."""
    return KeyDirectory()


@pytest.fixture(scope="module")
def keys(directory):
    return _keys(directory)


PAYLOAD = b"x" * 3000 + b"tail"


def build_chain(keys, payload=PAYLOAD, first=0, packet_size=1500):
    proof = make_chunk(keys[PRODUCER], first, payload, packet_size)
    proof = sign_chunk(keys[RELAY1], proof, payload)
    return sign_chunk(keys[RELAY2], proof, payload)


PATH = (PRODUCER, RELAY1, RELAY2)


class TestChainBuild:
    def test_full_chain_is_valid(self, keys, directory):
        proof = build_chain(keys)
        fresh = KeyDirectory(directory.public)
        assert verify_chain(proof, PAYLOAD, PATH, fresh) == VerifyResult(valid=True)

    def test_producer_only_chain_is_valid_for_one_hop_path(self, keys, directory):
        proof = make_chunk(keys[PRODUCER], 0, b"solo", 1500)
        assert verify_chain(proof, b"solo", (PRODUCER,), KeyDirectory(directory.public)).valid

    def test_each_signature_commits_to_prior_chain(self, keys):
        proof = build_chain(keys)
        for i in range(len(proof.chain)):
            msg = chain_message(proof.digest, proof.chain[:i])
            assert msg.startswith(proof.digest)
            if i:
                assert len(msg) > 32

    def test_make_chunk_checks_payload_bounds(self, keys):
        # 3001..4500 bytes is exactly three 1500-byte packets.
        for size, count in ((3001, 3), (4500, 3), (4501, 4)):
            proof = make_chunk(keys[PRODUCER], 16, b"a" * size, 1500)
            assert (proof.first, proof.count) == (16, count)
            assert proof.digest == chunk_digest(b"a" * size)
        with pytest.raises(ValueError, match="proof packet count must be positive"):
            make_chunk(keys[PRODUCER], 0, b"", 1500)
        with pytest.raises(ValueError, match="proof first index out of range"):
            make_chunk(keys[PRODUCER], -1, b"a", 1500)

    def test_sign_chunk_refuses_tampered_payload(self, keys):
        proof = build_chain(keys)
        with pytest.raises(ProofError, match="digest does not match payload"):
            sign_chunk(keys[OUTSIDER], proof, b"?" + PAYLOAD[1:])

    def test_sign_chunk_refuses_broken_prior_signature(self, keys):
        proof = build_chain(keys)
        bad_sig = bytes(64)
        broken = replace(
            proof,
            chain=(proof.chain[0], HopSignature(RELAY1, keys[RELAY1].public, bad_sig), proof.chain[2]),
        )
        with pytest.raises(ProofError, match=f"existing signature 1 by {RELAY1} does not verify"):
            sign_chunk(keys[OUTSIDER], broken, PAYLOAD)

    def test_sign_chunk_refuses_double_signing(self, keys):
        proof = build_chain(keys)
        with pytest.raises(ProofError, match="refusing to sign the same chunk twice"):
            sign_chunk(keys[RELAY1], proof, PAYLOAD)

    def test_a_chain_of_n_links_costs_n_encodes(self, monkeypatch):
        directory = KeyDirectory()
        path = tuple(NodeAddr(bytes([0, 0xBB, 0, 0, 0, i])) for i in range(1, 10))
        signers = {addr: KeyPair.from_seed(addr, b"proof-tests", directory) for addr in path}
        directory.public.update((addr, key.public) for addr, key in signers.items())
        outsider = KeyPair.from_seed(OUTSIDER, b"proof-tests", directory)
        encodes = []

        def counting(hop):
            encodes.append(hop)
            return encode_hop_signature(hop)

        monkeypatch.setattr(proof_module, "encode_hop_signature", counting)
        proof = make_chunk(signers[path[0]], 0, PAYLOAD, 1500)
        for n, addr in enumerate(path[1:], start=1):
            encodes.clear()
            proof = sign_chunk(signers[addr], proof, PAYLOAD)
            assert encodes == list(proof.chain[:n])
            # The new link signs the chain it extends, as chain_message defines it.
            hop, message = proof.chain[n], chain_message(proof.digest, proof.chain[:n])
            assert keys_module.verify(hop.signer_pub, message, hop.sig)
        encodes.clear()
        assert verify_chain(proof, PAYLOAD, path, directory).valid
        assert encodes == list(proof.chain)
        for i, hop in enumerate(proof.chain):
            chain = proof.chain[:i] + (replace(hop, sig=bytes(64)),) + proof.chain[i + 1 :]
            forged = replace(proof, chain=chain)
            encodes.clear()
            verdict = verify_chain(forged, PAYLOAD, path, directory)
            assert verdict == VerifyResult(False, ChainFault.BAD_SIGNATURE, i, hop.signer)
            assert len(encodes) == i
            with pytest.raises(ProofError, match=f"existing signature {i} by {hop.signer} "):
                sign_chunk(outsider, forged, PAYLOAD)


class TestVerdicts:
    def test_payload_tamper_classified_first(self, keys, directory):
        proof = build_chain(keys)
        got = verify_chain(proof, PAYLOAD[:-1] + b"!", PATH, directory)
        assert (got.valid, got.fault, got.at_index) == (False, ChainFault.PAYLOAD_TAMPERED, 0)

    def test_digest_swap_counts_as_tamper(self, keys, directory):
        swapped = replace(build_chain(keys), digest=bytes(32))
        got = verify_chain(swapped, PAYLOAD, PATH, directory)
        assert got.fault is ChainFault.PAYLOAD_TAMPERED

    def test_dropped_relay_is_missing_signer(self, keys, directory):
        proof = build_chain(keys)
        pruned = replace(proof, chain=(proof.chain[0], proof.chain[2]))
        got = verify_chain(pruned, PAYLOAD, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.MISSING_SIGNER, 1, RELAY1)

    def test_short_chain_is_missing_signer_at_gap(self, keys, directory):
        proof = make_chunk(keys[PRODUCER], 0, b"solo", 1500)
        got = verify_chain(proof, b"solo", (PRODUCER, RELAY1), directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.MISSING_SIGNER, 1, RELAY1)

    def test_swapped_order_is_unexpected_signer(self, keys, directory):
        proof = build_chain(keys)
        shuffled = replace(proof, chain=(proof.chain[0], proof.chain[2], proof.chain[1]))
        got = verify_chain(shuffled, PAYLOAD, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.UNEXPECTED_SIGNER, 1, RELAY2)

    def test_extra_trailing_signer_is_unexpected(self, keys, directory):
        proof = sign_chunk(keys[OUTSIDER], build_chain(keys), PAYLOAD)
        got = verify_chain(proof, PAYLOAD, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.UNEXPECTED_SIGNER, 3, OUTSIDER)

    def test_flipped_signature_bit_is_bad_signature(self, keys, directory):
        proof = build_chain(keys)
        hop = proof.chain[1]
        mangled = HopSignature(hop.signer, hop.signer_pub, hop.sig[:-1] + bytes([hop.sig[-1] ^ 1]))
        forged = replace(proof, chain=(proof.chain[0], mangled, proof.chain[2]))
        got = verify_chain(forged, PAYLOAD, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.BAD_SIGNATURE, 1, RELAY1)

    def test_key_substitution_is_unexpected_signer(self, keys, directory):
        # An impostor signs correctly with its own key but claims the
        # relay's address; the embedded pubkey betrays it.
        proof = sign_chunk(keys[RELAY1], make_chunk(keys[PRODUCER], 0, b"pay", 1500), b"pay")
        impostor = keys[OUTSIDER]
        msg = chain_message(proof.digest, proof.chain)
        fake = HopSignature(signer=RELAY2, signer_pub=impostor.public, sig=impostor.sign(msg))
        forged = replace(proof, chain=proof.chain + (fake,))
        got = verify_chain(forged, b"pay", PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.UNEXPECTED_SIGNER, 2, RELAY2)

    def test_signer_absent_from_directory_is_unexpected(self, keys, directory):
        proof = build_chain(keys)
        trimmed = KeyDirectory({a: pub for a, pub in directory.public.items() if a != RELAY1})
        got = verify_chain(proof, PAYLOAD, PATH, trimmed)
        assert (got.fault, got.at_index) == (ChainFault.UNEXPECTED_SIGNER, 1)

    def test_empty_expected_path_rejected(self, keys, directory):
        with pytest.raises(ProofError):
            verify_chain(build_chain(keys), PAYLOAD, (), directory)

    def test_mutation_mini_sweep_never_validates(self, keys, directory):
        # Flip every byte of the payload and of every signature; nothing
        # may come back Valid.  The full-size sweep lives in acceptance.
        payload = b"m" * 120
        proof = build_chain(keys, payload=payload, packet_size=64)
        path = PATH
        for i in range(len(payload)):
            mutated = bytearray(payload)
            mutated[i] ^= 0xFF
            assert not verify_chain(proof, bytes(mutated), path, directory).valid
        for h, hop in enumerate(proof.chain):
            for i in range(len(hop.sig)):
                mutated = bytearray(hop.sig)
                mutated[i] ^= 0x01
                chain = list(proof.chain)
                chain[h] = HopSignature(hop.signer, hop.signer_pub, bytes(mutated))
                forged = replace(proof, chain=tuple(chain))
                assert not verify_chain(forged, payload, path, directory).valid


def _flip(data: bytes, at: int = -1) -> bytes:
    mutated = bytearray(data)
    mutated[at] ^= 0x01
    return bytes(mutated)


def _one_byte_mutants(proof):
    """(proof, payload) pairs that each differ from the honest chain in
    one byte of a signature, of a signed message or of an embedded key."""
    for h, hop in enumerate(proof.chain):
        for changed in (
            replace(hop, sig=_flip(hop.sig)),
            replace(hop, signer_pub=_flip(hop.signer_pub)),
        ):
            chain = proof.chain[:h] + (changed,) + proof.chain[h + 1 :]
            yield replace(proof, chain=chain), PAYLOAD
    # Payload and digest agree, so every signed message differs by a byte.
    other = _flip(PAYLOAD)
    yield replace(proof, digest=chunk_digest(other)), other


def _relay_verdict(signer, proof, payload):
    try:
        sign_chunk(signer, proof, payload)
    except ProofError as err:
        return str(err)
    return None


class TestKeyDirectory:
    def test_memo_keeps_every_one_byte_fault(self, keys, directory):
        honest = build_chain(keys)
        assert verify_chain(honest, PAYLOAD, PATH, directory).valid
        assert _relay_verdict(keys[OUTSIDER], honest, PAYLOAD) is None
        mutants = list(_one_byte_mutants(honest))
        assert len(mutants) == 2 * len(honest.chain) + 1
        for proof, payload in mutants:
            fresh = verify_chain(proof, payload, PATH, KeyDirectory(directory.public))
            assert not fresh.valid
            assert verify_chain(proof, payload, PATH, directory) == fresh
            # A relay checks against the embedded keys, not the directory;
            # a key of its own directory checks every link afresh.
            refused = _relay_verdict(KeyPair.from_seed(OUTSIDER, b"proof-tests"), proof, payload)
            assert refused is not None
            assert _relay_verdict(keys[OUTSIDER], proof, payload) == refused

    def test_failed_check_is_not_stored(self, keys, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        real = proof_module.verify
        monkeypatch.setattr(proof_module, "verify", counting)
        signer = keys[PRODUCER]
        sig = signer.sign(b"message")
        links = KeyDirectory()
        assert not links.check(signer.public, b"message", _flip(sig), proof_module.verify)
        assert not links.check(signer.public, b"message", _flip(sig), proof_module.verify)
        assert len(calls) == 2
        assert links.check(signer.public, b"message", sig, proof_module.verify)
        assert links.check(signer.public, b"message", sig, proof_module.verify)
        assert len(calls) == 3

    def test_signed_triples_answer_as_ed25519_under_every_one_byte_mutant(self):
        memo = KeyDirectory()
        keys = _keys(memo)
        proof = build_chain(keys)
        triples = [
            (hop.signer_pub, chain_message(proof.digest, proof.chain[:i]), hop.sig)
            for i, hop in enumerate(proof.chain)
        ]
        message = chain_label(b"ch:test", 1, 7, 40, 60) + bytes(range(32))
        triples.append((keys[RELAY1].public, message, keys[RELAY1].sign(message)))
        real = []

        def counting(*triple):
            real.append(triple)
            return keys_module.verify(*triple)

        for triple in triples:
            assert memo.check(*triple, counting)
        assert real == []
        mutants = 0
        for triple in triples:
            for field, blob in enumerate(triple):
                for i in range(len(blob)):
                    mutant = triple[:field] + (_flip(blob, i),) + triple[field + 1 :]
                    assert memo.check(*mutant, counting) == keys_module.verify(*mutant)
                    mutants += 1
        # Every mutant missed the memo and was verified for real.
        assert len(real) == mutants

    def test_a_key_seeds_only_its_own_public_half(self, keys):
        memo = KeyDirectory()
        key = KeyPair.from_seed(PRODUCER, b"proof-tests", memo)
        other = keys[RELAY1].public
        with pytest.raises(TypeError):
            KeyPair(PRODUCER, key._private, memo, other)
        with pytest.raises(ValueError):
            replace(key, public=other)
        with pytest.raises(FrozenInstanceError):
            key.public = other
        sig = key.sign(b"message")
        assert [(p, m, s) for (p, m), s in memo._seen.items()] == [(key.public, b"message", sig)]
        assert keys_module.verify(key.public, b"message", sig)

    def test_a_reused_signature_is_the_one_ed25519_makes(self):
        """A key asked to sign a message again returns the signature it
        made without signing, byte for byte a fresh Ed25519 signature."""

        class Counting:
            def __init__(self, private):
                self.private, self.signed = private, []

            def sign(self, message):
                self.signed.append(message)
                return self.private.sign(message)

            def public_key(self):
                return self.private.public_key()

        seeded = KeyPair.from_seed(PRODUCER, b"proof-tests")
        private = Counting(seeded._private)
        key = KeyPair(PRODUCER, private, KeyDirectory())
        first = key.sign(b"message")
        again = key.sign(b"message")
        assert private.signed == [b"message"]
        fresh = Ed25519PrivateKey.from_private_bytes(seeded._private.private_bytes_raw())
        assert again == first == fresh.sign(b"message")

    def test_discard_drops_only_the_signature_it_names(self):
        memo = KeyDirectory()
        key = KeyPair.from_seed(PRODUCER, b"proof-tests", memo)
        sig = key.sign(b"message")
        memo.discard(key.public, b"message", _flip(sig))
        assert memo._seen == {(key.public, b"message"): sig}
        memo.discard(key.public, b"message", sig)
        assert memo._seen == {}

    def test_capacity_bounds_size_and_changes_no_outcome(self, monkeypatch):
        links = KeyDirectory()
        keys = _keys(links)
        honest = build_chain(keys)
        proof, payload = next(_one_byte_mutants(honest))
        expected = verify_chain(proof, payload, PATH, KeyDirectory(links.public))

        def outcomes_hold():
            for _ in range(2):
                assert verify_chain(honest, PAYLOAD, PATH, links).valid
                assert verify_chain(proof, payload, PATH, links) == expected
                assert len(links._seen) <= KeyDirectory.CAPACITY

        assert verify_chain(honest, PAYLOAD, PATH, links).valid
        with monkeypatch.context() as m:
            m.setattr(proof_module, "verify", lambda *args: True)
            for i in range(KeyDirectory.CAPACITY + 10):
                assert links.check(b"key", i.to_bytes(4, "big"), b"sig", proof_module.verify)
                assert len(links._seen) <= KeyDirectory.CAPACITY
        outcomes_hold()
        # Signing seeds the memo under the same bound and evicts the
        # honest chain's links, which are then verified for real.
        for i in range(KeyDirectory.CAPACITY + 10):
            keys[OUTSIDER].sign(i.to_bytes(4, "big"))
            assert len(links._seen) <= KeyDirectory.CAPACITY
        assert all(p == keys[OUTSIDER].public for (p, _m), _s in links._seen.items())
        outcomes_hold()


class TestWireRoundTrip:
    def test_proof_survives_packet_codec(self, keys, directory):
        proof = build_chain(keys)
        assert (proof.first, proof.count) == (0, 3)
        pkt = Data(
            name=NAME.with_index(proof.first + proof.count - 1),
            hop_info=HopInfo(RELAY2, OUTSIDER),
            payload=PAYLOAD[2 * 1500 :],
            proof=proof,
        )
        decoded = decode_packet(encode_packet(pkt))
        assert decoded.proof == proof
        assert verify_chain(decoded.proof, PAYLOAD, PATH, KeyDirectory(directory.public)).valid


class TestSignatureBudget:
    def test_two_megabyte_transfer_packet_level(self):
        # 2 MiB in 1500-byte packets signed one by one.
        assert signature_budget(2 * 1024 * 1024, 1500, 1) == 1399

    def test_default_chunking_cuts_cost_sixteenfold(self):
        per_packet = signature_budget(2 * 1024 * 1024, 1500, 1)
        per_chunk = signature_budget(2 * 1024 * 1024, 1500, 16)
        assert per_chunk == 88
        assert per_chunk <= -(-per_packet // 16)

    def test_exact_division_gives_exact_factor(self):
        # 64 packets of 1500 bytes divide evenly by every tested chunk size.
        total = 64 * 1500
        assert [signature_budget(total, 1500, n) for n in (1, 4, 16, 64)] == [64, 16, 4, 1]

    def test_rejects_nonpositive(self):
        for args in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ProofError):
                signature_budget(*args)

    @given(
        st.integers(min_value=1, max_value=10**7),
        st.integers(min_value=1, max_value=9000),
        st.integers(min_value=1, max_value=128),
    )
    def test_chunking_identity(self, total, size, n):
        # Signing every n packets equals signing ceil(packets / n) times.
        packets = -(-total // size)
        assert signature_budget(total, size, n) == -(-packets // n)
