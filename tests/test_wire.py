"""Codec tests: golden vector, field layout, strict decoding, properties."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollroute.wire import (
    BROADCAST,
    ChunkProof,
    Data,
    DecodeError,
    EncodeError,
    HopInfo,
    HopSignature,
    Interest,
    MAX_OVERLAY_PAYLOAD,
    Nack,
    NackReason,
    Name,
    NodeAddr,
    Payment,
    RouteStack,
    decode_packet,
    encode_packet,
)

FIXTURES = Path(__file__).parent / "fixtures"

A1 = NodeAddr.parse("00-14-00-00-00-01")
A2 = NodeAddr.parse("00-40-00-00-00-02")
A3 = NodeAddr.parse("00-30-00-00-00-03")


# ---------------------------------------------------------------------------
# reference encoder: hand assembly straight from the documented layout


def _t(tag: int, value: bytes) -> bytes:
    assert len(value) <= 0xFFFF
    return bytes([tag]) + len(value).to_bytes(2, "big") + value


def _u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


def golden_interest() -> Interest:
    return Interest(
        name=Name((b"video", b"clip"), 7),
        nonce=bytes.fromhex("0123456789abcdef"),
        hop_info=HopInfo(A1, A2),
        lifetime_ms=4000,
        route=RouteStack((A2, A3)),
        payment=Payment(b"chan-a", 15, 3, b"\x5a" * 64),
    )


def reference_golden_bytes() -> bytes:
    name = _t(0x20, b"video") + _t(0x20, b"clip") + _t(0x21, _u64(7))
    hop = _t(0x22, A1.octets) + _t(0x23, A2.octets)
    route = _t(0x24, A2.octets) + _t(0x24, A3.octets)
    payment = (
        _t(0x25, b"chan-a") + _t(0x26, _u64(15)) + _t(0x27, _u64(3)) + _t(0x28, b"\x5a" * 64)
    )
    return (
        bytes([0x01])
        + _t(0x10, name)
        + _t(0x11, bytes.fromhex("0123456789abcdef"))
        + _t(0x12, hop)
        + _t(0x13, route)
        + _t(0x14, payment)
        + _t(0x15, _u64(4000))
    )


class TestGoldenVector:
    def test_reference_matches_frozen_fixture(self) -> None:
        frozen = bytes.fromhex((FIXTURES / "golden_interest.hex").read_text().strip())
        assert reference_golden_bytes() == frozen

    def test_encode_matches_frozen_fixture(self) -> None:
        frozen = bytes.fromhex((FIXTURES / "golden_interest.hex").read_text().strip())
        assert encode_packet(golden_interest()) == frozen

    def test_golden_round_trips(self) -> None:
        assert decode_packet(reference_golden_bytes()) == golden_interest()


# ---------------------------------------------------------------------------
# value types


class TestNodeAddr:
    def test_parse_format_round_trip(self) -> None:
        assert str(NodeAddr.parse("00-14-0a-ff-00-01")) == "00-14-0a-ff-00-01"

    def test_wrong_length_rejected(self) -> None:
        with pytest.raises(ValueError):
            NodeAddr(b"\x00" * 5)
        with pytest.raises(ValueError):
            NodeAddr.parse("00-14-00-00-01")

    def test_broadcast_sentinel(self) -> None:
        assert BROADCAST.is_broadcast
        assert not A1.is_broadcast

    def test_ordering_is_byte_order(self) -> None:
        assert A1 < A3 < A2
        assert min([A2, A3, A1]) == A1


class TestName:
    def test_uri_round_trip(self) -> None:
        n = Name.parse("/video/clip/seg=12")
        assert n.components == (b"video", b"clip")
        assert n.chunk_index == 12
        assert str(n) == "/video/clip/seg=12"

    def test_prefix_strips_index(self) -> None:
        n = Name.parse("/a/b/seg=3")
        assert n.prefix == Name.parse("/a/b")
        assert n.prefix.prefix == n.prefix

    def test_has_prefix(self) -> None:
        assert Name.parse("/a/b/c").has_prefix(Name.parse("/a/b"))
        assert not Name.parse("/a/b").has_prefix(Name.parse("/a/b/c"))
        assert not Name.parse("/ab").has_prefix(Name.parse("/a"))

    def test_empty_rejected(self) -> None:
        with pytest.raises(ValueError):
            Name(())
        with pytest.raises(ValueError):
            Name((b"",))
        with pytest.raises(ValueError):
            Name.parse("/")


class TestRouteStack:
    def test_top_pop_push(self) -> None:
        r = RouteStack((A2, A3))
        assert r.top == A2
        assert r.pop() == RouteStack((A3,))
        assert r.pop().pop() is None
        assert r.push(A1).top == A1

    def test_adjacent_duplicates_rejected(self) -> None:
        with pytest.raises(ValueError):
            RouteStack((A2, A2))
        with pytest.raises(ValueError):
            RouteStack((A2, A3)).push(A2)

    def test_nonadjacent_repeat_allowed_by_type(self) -> None:
        # The type only bans adjacent repeats; simple-path checks live in
        # the forwarding invariants.
        RouteStack((A2, A3, A2))


class TestPacketInvariants:
    def test_discovery_interest_cannot_name_remote(self) -> None:
        with pytest.raises(ValueError):
            Interest(Name.parse("/v"), b"n" * 8, HopInfo(A1, A2), 4000)

    def test_routed_interest_must_address_route_top(self) -> None:
        with pytest.raises(ValueError):
            Interest(
                Name.parse("/v"), b"n" * 8, HopInfo(A1, A3), 4000, route=RouteStack((A2,))
            )

    def test_data_route_and_price_travel_together(self) -> None:
        with pytest.raises(ValueError):
            Data(Name.parse("/v"), b"", HopInfo(A1), route=RouteStack((A2,)))
        with pytest.raises(ValueError):
            Data(Name.parse("/v"), b"", HopInfo(A1), price=5)

    def test_discovery_data_cannot_carry_proof(self) -> None:
        proof = ChunkProof(0, 1, b"\x00" * 32, (HopSignature(A3, b"\x01" * 32, b"\x02" * 64),))
        with pytest.raises(ValueError):
            Data(
                Name.parse("/v"),
                b"",
                HopInfo(A1),
                route=RouteStack((A2,)),
                price=1,
                proof=proof,
            )

    def test_nonce_length_enforced(self) -> None:
        with pytest.raises(ValueError):
            Interest(Name.parse("/v"), b"short", HopInfo(A1), 4000)
        with pytest.raises(ValueError):
            Nack(Name.parse("/v"), b"toolongnonce", NackReason.NO_ROUTE)


# ---------------------------------------------------------------------------
# encoding limits


class TestEncodeLimits:
    def test_overlay_maximum_payload_encodes(self) -> None:
        d = Data(Name.parse("/big"), b"\xab" * MAX_OVERLAY_PAYLOAD, HopInfo(A1, A2))
        buf = encode_packet(d)
        assert decode_packet(buf) == d

    def test_oversized_field_raises(self) -> None:
        d = Data(Name.parse("/big"), b"\xab" * 65_536, HopInfo(A1, A2))
        with pytest.raises(EncodeError):
            encode_packet(d)


# ---------------------------------------------------------------------------
# strict decoding with offsets


def _mutate(buf: bytes, index: int, value: int) -> bytes:
    out = bytearray(buf)
    out[index] = value
    return bytes(out)


class TestDecodeErrors:
    def test_empty_buffer(self) -> None:
        with pytest.raises(DecodeError) as err:
            decode_packet(b"")
        assert err.value.offset == 0

    def test_unknown_packet_tag(self) -> None:
        with pytest.raises(DecodeError) as err:
            decode_packet(b"\x7f\x00\x00")
        assert err.value.offset == 0

    def test_truncated_header_names_offset(self) -> None:
        buf = reference_golden_bytes()
        with pytest.raises(DecodeError) as err:
            decode_packet(buf + b"\x15")
        assert err.value.offset == len(buf)

    def test_length_overrun_names_offset(self) -> None:
        # Cut the buffer mid-value: the outermost field whose length now
        # overruns is the name at offset 1.
        buf = reference_golden_bytes()
        with pytest.raises(DecodeError) as err:
            decode_packet(buf[:10])
        assert err.value.offset == 1
        assert "overrun" in err.value.reason

    def test_duplicate_tag_names_offset(self) -> None:
        buf = reference_golden_bytes()
        nonce_tlv = _t(0x11, bytes.fromhex("0123456789abcdef"))
        start = buf.index(nonce_tlv)
        doubled = buf[:start] + nonce_tlv + buf[start:]
        with pytest.raises(DecodeError) as err:
            decode_packet(doubled)
        assert err.value.offset == start + len(nonce_tlv)
        assert "duplicate" in err.value.reason

    def test_out_of_order_fields_rejected(self) -> None:
        # Emit nonce before name: both valid TLVs, wrong canonical order.
        name = _t(0x10, _t(0x20, b"v"))
        nonce = _t(0x11, b"\x00" * 8)
        hop = _t(0x12, _t(0x22, A1.octets))
        life = _t(0x15, _u64(1000))
        with pytest.raises(DecodeError) as err:
            decode_packet(bytes([0x01]) + nonce + name + hop + life)
        assert "order" in err.value.reason

    def test_unknown_field_tag_rejected(self) -> None:
        buf = reference_golden_bytes()
        with pytest.raises(DecodeError):
            decode_packet(buf + _t(0x71, b""))

    def test_semantic_violation_rejected(self) -> None:
        # A routed Interest whose remote is not the route top decodes
        # field-wise but violates the packet invariant.
        name = _t(0x10, _t(0x20, b"v"))
        nonce = _t(0x11, b"\x00" * 8)
        hop = _t(0x12, _t(0x22, A1.octets) + _t(0x23, A3.octets))
        route = _t(0x13, _t(0x24, A2.octets))
        life = _t(0x15, _u64(1000))
        with pytest.raises(DecodeError):
            decode_packet(bytes([0x01]) + name + nonce + hop + route + life)

    def test_bad_reason_byte_rejected(self) -> None:
        nack = Nack(Name.parse("/v"), b"\x01" * 8, NackReason.EXPIRED)
        buf = encode_packet(nack)
        with pytest.raises(DecodeError):
            decode_packet(_mutate(buf, len(buf) - 1, 9))


# Valid frames as (tag, value) field lists, so a test can drop one field.
_NAME = _t(0x20, b"video") + _t(0x21, _u64(7))
_NONCE = bytes.fromhex("0123456789abcdef")
_HOP_SIG_FIELDS = [(0x2D, A3.octets), (0x2E, b"\x01" * 32), (0x2F, b"\x02" * 64)]
_PROOF_FIELDS = [
    (0x29, _u64(0)), (0x2A, _u64(1)), (0x2B, b"\x03" * 32),
    (0x2C, b"".join(_t(t, v) for t, v in _HOP_SIG_FIELDS)),
]
_PAYMENT_FIELDS = [(0x25, b"chan-a"), (0x26, _u64(15)), (0x27, _u64(3)), (0x28, b"\x5a" * 64)]
_HOP_INFO_FIELDS = [(0x22, A1.octets), (0x23, A2.octets)]
_FRAMES = {
    "Interest": (0x01, [
        (0x10, _NAME), (0x11, _NONCE),
        (0x12, b"".join(_t(t, v) for t, v in _HOP_INFO_FIELDS)),
        (0x13, _t(0x24, A2.octets)),
        (0x14, b"".join(_t(t, v) for t, v in _PAYMENT_FIELDS)),
        (0x15, _u64(4000)),
    ]),
    "Data": (0x02, [
        (0x10, _NAME), (0x12, _t(0x22, A1.octets)), (0x16, b"payload"),
        (0x18, b"".join(_t(t, v) for t, v in _PROOF_FIELDS)),
    ]),
    "Nack": (0x03, [(0x10, _NAME), (0x11, _NONCE), (0x19, bytes([NackReason.DUPLICATE]))]),
}


def _fields_bytes(fields) -> bytes:
    return b"".join(_t(t, v) for t, v in fields)


def _value_offset(fields, tag: int, base: int) -> int:
    """Absolute offset of `tag`'s value when `fields` start at `base`."""
    pos = base
    for t, v in fields:
        if t == tag:
            return pos + 3
        pos += 3 + len(v)
    raise KeyError(tag)


def _drop(fields, tag: int):
    return [(t, v) for t, v in fields if t != tag]


def _replace(fields, tag: int, value: bytes):
    return [(t, value if t == tag else v) for t, v in fields]


def _missing_field_cases():
    cases = []
    for what, tag in (("Interest", 0x11), ("Interest", 0x15), ("Data", 0x16), ("Nack", 0x19)):
        kind, fields = _FRAMES[what]
        cases.append(pytest.param(
            bytes([kind]) + _fields_bytes(_drop(fields, tag)), 1,
            f"{what} missing required tag 0x{tag:02x}", id=f"{what}-0x{tag:02x}",
        ))
    kind, fields = _FRAMES["Interest"]
    for outer, inner_fields, what, tag in (
        (0x12, _HOP_INFO_FIELDS, "HopInfo", 0x22),
        (0x14, _PAYMENT_FIELDS, "Payment", 0x28),
    ):
        doctored = _replace(fields, outer, _fields_bytes(_drop(inner_fields, tag)))
        cases.append(pytest.param(
            bytes([kind]) + _fields_bytes(doctored), _value_offset(doctored, outer, 1),
            f"{what} missing required tag 0x{tag:02x}", id=f"{what}-0x{tag:02x}",
        ))
    kind, fields = _FRAMES["Data"]
    doctored = _replace(fields, 0x18, _fields_bytes(_drop(_PROOF_FIELDS, 0x2B)))
    cases.append(pytest.param(
        bytes([kind]) + _fields_bytes(doctored), _value_offset(doctored, 0x18, 1),
        "ChunkProof missing required tag 0x2b", id="ChunkProof-0x2b",
    ))
    proof = _replace(_PROOF_FIELDS, 0x2C, _fields_bytes(_drop(_HOP_SIG_FIELDS, 0x2F)))
    doctored = _replace(fields, 0x18, _fields_bytes(proof))
    cases.append(pytest.param(
        bytes([kind]) + _fields_bytes(doctored),
        _value_offset(proof, 0x2C, _value_offset(doctored, 0x18, 1)),
        "HopSignature missing required tag 0x2f", id="HopSignature-0x2f",
    ))
    return cases


class TestMissingRequiredField:
    @pytest.mark.parametrize("what", sorted(_FRAMES))
    def test_unmodified_frames_decode(self, what) -> None:
        kind, fields = _FRAMES[what]
        buf = bytes([kind]) + _fields_bytes(fields)
        assert encode_packet(decode_packet(buf)) == buf

    @pytest.mark.parametrize("buf,offset,reason", _missing_field_cases())
    def test_dropped_field_names_container_offset(self, buf, offset, reason) -> None:
        with pytest.raises(DecodeError) as err:
            decode_packet(buf)
        assert (err.value.offset, err.value.reason) == (offset, reason)


# ---------------------------------------------------------------------------
# randomized packets (shared with the acceptance suite)

_COMPONENTS = [b"a", b"video", b"x" * 40, b"\xffbin\x00", b"clip7"]


def random_addr(rng: random.Random) -> NodeAddr:
    return NodeAddr(rng.randbytes(6))


def random_name(rng: random.Random) -> Name:
    comps = tuple(rng.choice(_COMPONENTS) for _ in range(rng.randint(1, 4)))
    index = rng.randrange(0, 2**32) if rng.random() < 0.5 else None
    return Name(comps, index)


def random_route(rng: random.Random) -> RouteStack:
    hops = [random_addr(rng)]
    for _ in range(rng.randint(0, 4)):
        nxt = random_addr(rng)
        if nxt != hops[-1]:
            hops.append(nxt)
    return RouteStack(tuple(hops))


def random_packet(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        route = random_route(rng) if rng.random() < 0.6 else None
        local = random_addr(rng)
        while route is not None and local == route.top:
            local = random_addr(rng)
        payment = None
        if route is not None and rng.random() < 0.5:
            payment = Payment(
                channel_id=rng.randbytes(rng.randint(1, 16)),
                amount=rng.randrange(0, 2**40),
                sequence=rng.randrange(0, 2**32),
                payer_sig=rng.randbytes(64),
            )
        return Interest(
            name=random_name(rng),
            nonce=rng.randbytes(8),
            hop_info=HopInfo(local, route.top if route is not None else None),
            lifetime_ms=rng.randint(1, 60_000),
            route=route,
            payment=payment,
        )
    if kind == 1:
        discovery = rng.random() < 0.4
        route = random_route(rng) if discovery else None
        proof = None
        if not discovery and rng.random() < 0.4:
            chain = tuple(
                HopSignature(random_addr(rng), rng.randbytes(32), rng.randbytes(64))
                for _ in range(rng.randint(1, 4))
            )
            proof = ChunkProof(rng.randrange(0, 2**16), rng.randint(1, 64), rng.randbytes(32), chain)
        local = random_addr(rng)
        return Data(
            name=random_name(rng),
            payload=rng.randbytes(rng.randint(0, 200)),
            hop_info=HopInfo(local),
            route=route,
            price=rng.randrange(0, 2**32) if discovery else None,
            proof=proof,
        )
    return Nack(random_name(rng), rng.randbytes(8), NackReason(rng.randrange(4)))


class TestRandomizedCodec:
    def test_round_trip_and_canonical_sample(self) -> None:
        rng = random.Random(0xC0DEC)
        for _ in range(2000):
            pkt = random_packet(rng)
            buf = encode_packet(pkt)
            assert decode_packet(buf) == pkt
            assert encode_packet(decode_packet(buf)) == buf

    def test_fuzz_random_bytes_never_crash_sample(self) -> None:
        rng = random.Random(0xF022)
        for _ in range(5000):
            buf = rng.randbytes(rng.randint(0, 80))
            try:
                pkt = decode_packet(buf)
            except DecodeError:
                continue
            assert encode_packet(pkt) == buf

    def test_truncation_fuzz_never_crashes(self) -> None:
        rng = random.Random(7)
        for _ in range(300):
            buf = encode_packet(random_packet(rng))
            for cut in range(0, len(buf), max(1, len(buf) // 17)):
                try:
                    decode_packet(buf[:cut])
                except DecodeError:
                    pass


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=300)
def test_fuzz_property_accept_implies_canonical(buf: bytes) -> None:
    try:
        pkt = decode_packet(buf)
    except DecodeError:
        return
    assert encode_packet(pkt) == buf


@given(
    st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
    st.binary(min_size=8, max_size=8),
    st.integers(min_value=1, max_value=2**32),
)
@settings(max_examples=200)
def test_interest_round_trip_property(comps, index, nonce, lifetime) -> None:
    pkt = Interest(Name(tuple(comps), index), nonce, HopInfo(A1), lifetime)
    assert decode_packet(encode_packet(pkt)) == pkt
