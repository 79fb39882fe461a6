"""Proof-of-forwarding chain construction, verdict classification,
chunk reassembly, and the signature budget arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tollroute.keys import KeyPair
from tollroute.proof import (
    AssemblyState,
    ChainFault,
    ChunkAssembly,
    ChunkDescriptor,
    ProofError,
    SignedChunk,
    VerifyResult,
    chain_message,
    chunk_digest,
    make_chunk,
    sign_chunk,
    signature_budget,
    split_payload,
    verify_chain,
)
from tollroute.wire import Data, HopInfo, HopSignature, Name, NodeAddr, decode_packet, encode_packet

PRODUCER = NodeAddr.parse("00-aa-00-00-00-01")
RELAY1 = NodeAddr.parse("00-aa-00-00-00-02")
RELAY2 = NodeAddr.parse("00-aa-00-00-00-03")
OUTSIDER = NodeAddr.parse("00-aa-00-00-00-99")
NAME = Name((b"video", b"clip"))


def _keys():
    return {
        addr: KeyPair.from_seed(addr, b"proof-tests")
        for addr in (PRODUCER, RELAY1, RELAY2, OUTSIDER)
    }


@pytest.fixture(scope="module")
def keys():
    return _keys()


@pytest.fixture(scope="module")
def directory(keys):
    return {addr: kp.public for addr, kp in keys.items()}


def build_chain(keys, payload=b"x" * 3000 + b"tail", first=0, packet_size=1500):
    chunk = make_chunk(keys[PRODUCER], NAME, first, payload, packet_size)
    chunk = sign_chunk(keys[RELAY1], chunk)
    return sign_chunk(keys[RELAY2], chunk)


PATH = (PRODUCER, RELAY1, RELAY2)


class TestChainBuild:
    def test_full_chain_is_valid(self, keys, directory):
        chunk = build_chain(keys)
        assert verify_chain(chunk, PATH, directory) == VerifyResult(valid=True)

    def test_producer_only_chain_is_valid_for_one_hop_path(self, keys, directory):
        chunk = make_chunk(keys[PRODUCER], NAME, 0, b"solo", 1500)
        assert verify_chain(chunk, (PRODUCER,), directory).valid

    def test_each_signature_commits_to_prior_chain(self, keys):
        chunk = build_chain(keys)
        for i in range(len(chunk.chain)):
            msg = chain_message(chunk.digest, chunk.chain[:i])
            assert msg.startswith(chunk.digest)
            if i:
                assert len(msg) > 32

    def test_make_chunk_checks_payload_bounds(self, keys):
        # 3001..4500 bytes is exactly three 1500-byte packets.
        make_chunk(keys[PRODUCER], NAME, 0, b"a" * 4500, 1500)
        with pytest.raises(ProofError):
            ChunkDescriptor(NAME, 0, 0, 1500)
        with pytest.raises(ProofError):
            make_chunk(keys[PRODUCER], NAME, 0, b"", 1500)
        with pytest.raises(ProofError):
            ChunkDescriptor(Name((b"a",), chunk_index=3), 0, 1, 1500)

    def test_sign_chunk_refuses_tampered_payload(self, keys):
        chunk = build_chain(keys)
        forged = SignedChunk(chunk.descriptor, b"?" + chunk.payload[1:], chunk.digest, chunk.chain)
        with pytest.raises(ProofError):
            sign_chunk(keys[OUTSIDER], forged)

    def test_sign_chunk_refuses_broken_prior_signature(self, keys):
        chunk = build_chain(keys)
        bad_sig = bytes(64)
        broken = SignedChunk(
            chunk.descriptor,
            chunk.payload,
            chunk.digest,
            (chunk.chain[0], HopSignature(RELAY1, keys[RELAY1].public, bad_sig), chunk.chain[2]),
        )
        with pytest.raises(ProofError):
            sign_chunk(keys[OUTSIDER], broken)

    def test_sign_chunk_refuses_double_signing(self, keys):
        chunk = build_chain(keys)
        with pytest.raises(ProofError):
            sign_chunk(keys[RELAY1], chunk)


class TestVerdicts:
    def test_payload_tamper_classified_first(self, keys, directory):
        chunk = build_chain(keys)
        tampered = SignedChunk(
            chunk.descriptor, chunk.payload[:-1] + b"!", chunk.digest, chunk.chain
        )
        got = verify_chain(tampered, PATH, directory)
        assert (got.valid, got.fault, got.at_index) == (False, ChainFault.PAYLOAD_TAMPERED, 0)

    def test_digest_swap_counts_as_tamper(self, keys, directory):
        chunk = build_chain(keys)
        swapped = SignedChunk(chunk.descriptor, chunk.payload, bytes(32), chunk.chain)
        assert verify_chain(swapped, PATH, directory).fault is ChainFault.PAYLOAD_TAMPERED

    def test_dropped_relay_is_missing_signer(self, keys, directory):
        chunk = build_chain(keys)
        pruned = SignedChunk(
            chunk.descriptor, chunk.payload, chunk.digest, (chunk.chain[0], chunk.chain[2])
        )
        got = verify_chain(pruned, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.MISSING_SIGNER, 1, RELAY1)

    def test_short_chain_is_missing_signer_at_gap(self, keys, directory):
        chunk = make_chunk(keys[PRODUCER], NAME, 0, b"solo", 1500)
        got = verify_chain(chunk, (PRODUCER, RELAY1), directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.MISSING_SIGNER, 1, RELAY1)

    def test_swapped_order_is_unexpected_signer(self, keys, directory):
        chunk = build_chain(keys)
        shuffled = SignedChunk(
            chunk.descriptor,
            chunk.payload,
            chunk.digest,
            (chunk.chain[0], chunk.chain[2], chunk.chain[1]),
        )
        got = verify_chain(shuffled, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.UNEXPECTED_SIGNER, 1, RELAY2)

    def test_extra_trailing_signer_is_unexpected(self, keys, directory):
        chunk = sign_chunk(keys[OUTSIDER], build_chain(keys))
        got = verify_chain(chunk, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.UNEXPECTED_SIGNER, 3, OUTSIDER)

    def test_flipped_signature_bit_is_bad_signature(self, keys, directory):
        chunk = build_chain(keys)
        hop = chunk.chain[1]
        mangled = HopSignature(hop.signer, hop.signer_pub, hop.sig[:-1] + bytes([hop.sig[-1] ^ 1]))
        forged = SignedChunk(
            chunk.descriptor, chunk.payload, chunk.digest, (chunk.chain[0], mangled, chunk.chain[2])
        )
        got = verify_chain(forged, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.BAD_SIGNATURE, 1, RELAY1)

    def test_key_substitution_is_unexpected_signer(self, keys, directory):
        # An impostor signs correctly with its own key but claims the
        # relay's address; the embedded pubkey betrays it.
        chunk = sign_chunk(keys[RELAY1], make_chunk(keys[PRODUCER], NAME, 0, b"pay", 1500))
        impostor = keys[OUTSIDER]
        msg = chain_message(chunk.digest, chunk.chain)
        fake = HopSignature(signer=RELAY2, signer_pub=impostor.public, sig=impostor.sign(msg))
        forged = SignedChunk(chunk.descriptor, chunk.payload, chunk.digest, chunk.chain + (fake,))
        got = verify_chain(forged, PATH, directory)
        assert (got.fault, got.at_index, got.signer) == (ChainFault.UNEXPECTED_SIGNER, 2, RELAY2)

    def test_signer_absent_from_directory_is_unexpected(self, keys, directory):
        chunk = build_chain(keys)
        trimmed = {addr: pub for addr, pub in directory.items() if addr != RELAY1}
        got = verify_chain(chunk, PATH, trimmed)
        assert (got.fault, got.at_index) == (ChainFault.UNEXPECTED_SIGNER, 1)

    def test_empty_expected_path_rejected(self, keys, directory):
        with pytest.raises(ProofError):
            verify_chain(build_chain(keys), (), directory)

    def test_mutation_mini_sweep_never_validates(self, keys, directory):
        # Flip every byte of the payload and of every signature; nothing
        # may come back Valid.  The full-size sweep lives in acceptance.
        chunk = build_chain(keys, payload=b"m" * 120, packet_size=64)
        path = PATH
        for i in range(len(chunk.payload)):
            mutated = bytearray(chunk.payload)
            mutated[i] ^= 0xFF
            forged = SignedChunk(chunk.descriptor, bytes(mutated), chunk.digest, chunk.chain)
            assert not verify_chain(forged, path, directory).valid
        for h, hop in enumerate(chunk.chain):
            for i in range(len(hop.sig)):
                mutated = bytearray(hop.sig)
                mutated[i] ^= 0x01
                chain = list(chunk.chain)
                chain[h] = HopSignature(hop.signer, hop.signer_pub, bytes(mutated))
                forged = SignedChunk(chunk.descriptor, chunk.payload, chunk.digest, tuple(chain))
                assert not verify_chain(forged, path, directory).valid


class TestWireRoundTrip:
    def test_proof_survives_packet_codec(self, keys, directory):
        chunk = build_chain(keys)
        pkt = Data(
            name=NAME.with_index(chunk.descriptor.first + chunk.descriptor.count - 1),
            hop_info=HopInfo(RELAY2, OUTSIDER),
            payload=split_payload(chunk.payload, 1500)[-1],
            proof=chunk.proof(),
        )
        decoded = decode_packet(encode_packet(pkt))
        rebuilt = SignedChunk(chunk.descriptor, chunk.payload, decoded.proof.digest, decoded.proof.chain)
        assert verify_chain(rebuilt, PATH, directory).valid
        assert decoded.proof.first == chunk.descriptor.first
        assert decoded.proof.count == chunk.descriptor.count


class TestAssembly:
    DESC = ChunkDescriptor(NAME, first=16, count=4, packet_size=100)

    def test_out_of_order_completion(self):
        asm = ChunkAssembly(self.DESC)
        parts = {16: b"a" * 100, 17: b"b" * 100, 18: b"c" * 100, 19: b"d" * 37}
        for idx in (18, 16, 19):
            assert asm.add(idx, parts[idx]) is AssemblyState.INCOMPLETE
        assert asm.add(17, parts[17]) is AssemblyState.COMPLETE
        assert asm.payload() == b"a" * 100 + b"b" * 100 + b"c" * 100 + b"d" * 37

    def test_duplicate_packet_first_copy_wins(self):
        asm = ChunkAssembly(ChunkDescriptor(NAME, 0, 1, 100))
        asm.add(0, b"first")
        asm.add(0, b"second")
        assert asm.payload() == b"first"

    def test_index_out_of_range_rejected(self):
        asm = ChunkAssembly(self.DESC)
        with pytest.raises(ProofError):
            asm.add(20, b"x" * 100)
        with pytest.raises(ProofError):
            asm.add(15, b"x" * 100)

    def test_size_discipline(self):
        asm = ChunkAssembly(self.DESC)
        with pytest.raises(ProofError):
            asm.add(16, b"short")
        with pytest.raises(ProofError):
            asm.add(19, b"x" * 101)
        with pytest.raises(ProofError):
            asm.add(19, b"")

    def test_split_then_assemble_round_trip(self):
        payload = bytes(range(256)) * 3
        parts = split_payload(payload, 250)
        desc = ChunkDescriptor(NAME, 0, len(parts), 250)
        asm = ChunkAssembly(desc)
        for i, part in enumerate(parts):
            asm.add(i, part)
        assert asm.payload() == payload


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
