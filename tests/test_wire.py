"""Codec tests: golden vector, field layout, strict decoding, properties."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollroute import wire
from tollroute.wire import (
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
    decode_packet,
    encode_packet,
)

FIXTURES = Path(__file__).parent / "fixtures"
WIRE_DOC = Path(__file__).resolve().parents[1] / "docs" / "wire-format.md"

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
        payment=Payment(
            b"chan-a", 15, 3, b"\xa5" * 32, ChainCommitment(2, 0, 64, b"\x3c" * 32, b"\x5a" * 64)
        ),
    )


def reference_golden_bytes() -> bytes:
    name = _t(0x20, b"video") + _t(0x20, b"clip") + _t(0x21, _u64(7))
    hop = _t(0x22, A1.octets) + _t(0x23, A2.octets)
    route = _t(0x24, A2.octets) + _t(0x24, A3.octets)
    commitment = (
        _t(0x31, _u64(2)) + _t(0x32, _u64(0)) + _t(0x33, _u64(64)) + _t(0x34, b"\x3c" * 32)
        + _t(0x35, b"\x5a" * 64)
    )
    payment = (
        _t(0x25, b"chan-a") + _t(0x26, _u64(15)) + _t(0x27, _u64(3)) + _t(0x28, b"\xa5" * 32)
        + _t(0x30, commitment)
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
        # 65,507 bytes: the largest payload one UDP datagram can carry.
        d = Data(Name.parse("/big"), b"\xab" * 65_507, HopInfo(A1, A2))
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
_COMMITMENT_FIELDS = [
    (0x31, _u64(2)), (0x32, _u64(0)), (0x33, _u64(64)), (0x34, b"\x3c" * 32),
    (0x35, b"\x5a" * 64),
]
_PAYMENT_FIELDS = [
    (0x25, b"chan-a"), (0x26, _u64(15)), (0x27, _u64(3)), (0x28, b"\xa5" * 32),
    (0x30, b"".join(_t(t, v) for t, v in _COMMITMENT_FIELDS)),
]
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
    kind, fields = _FRAMES["Interest"]
    payment = _replace(_PAYMENT_FIELDS, 0x30, _fields_bytes(_drop(_COMMITMENT_FIELDS, 0x34)))
    doctored = _replace(fields, 0x14, _fields_bytes(payment))
    cases.append(pytest.param(
        bytes([kind]) + _fields_bytes(doctored),
        _value_offset(payment, 0x30, _value_offset(doctored, 0x14, 1)),
        "ChainCommitment missing required tag 0x34", id="ChainCommitment-0x34",
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


def _at(fields, i: int, base: int = 1) -> int:
    """Absolute offset of the i-th TLV of `fields` when they start at `base`."""
    return base + sum(3 + len(v) for _, v in fields[:i])


def _single_defect_cases():
    """Frames with exactly one defect, each with the (offset, reason) the
    decoder reports.  Structural and per-value checks name the offending
    TLV; a type invariant names its container's TLV (0 for a packet)."""
    interest, data, nack = (_FRAMES[w][1] for w in ("Interest", "Data", "Nack"))

    def frame(what, fields) -> bytes:
        return bytes([_FRAMES[what][0]]) + _fields_bytes(fields)

    swapped = [interest[1], interest[0]] + interest[2:]
    return [
        pytest.param(
            frame("Interest", interest + [(0x71, b"")]), _at(interest, len(interest)),
            "unknown tag 0x71 in Interest", id="unknown-tag",
        ),
        pytest.param(
            frame("Nack", nack[:2] + nack[1:]), _at(nack, 2),
            "duplicate tag 0x11 in Nack", id="duplicate-tag",
        ),
        pytest.param(
            frame("Interest", swapped), _at(swapped, 1),
            "tag 0x10 out of canonical order in Interest", id="out-of-order-tag",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x11, _NONCE[:7])), _at(interest, 1),
            "nonce must be exactly 8 bytes", id="interest-nonce-7",
        ),
        pytest.param(
            frame("Nack", _replace(nack, 0x11, _NONCE[:7])), _at(nack, 1),
            "nonce must be exactly 8 bytes", id="nack-nonce-7",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x15, _u64(4000)[1:])), _at(interest, 5),
            "integer field must be exactly 8 bytes", id="u64-7",
        ),
        pytest.param(
            frame("Interest", _replace(
                interest, 0x12, _t(0x22, A1.octets[:5]) + _t(0x23, A2.octets))),
            _at(interest, 2) + 3, "address field must be exactly 6 bytes", id="hop-info-addr-5",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x13, _t(0x24, A2.octets[:5]))),
            _at(interest, 3) + 3, "address field must be exactly 6 bytes", id="route-hop-addr-5",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x10, _t(0x20, b"") + _t(0x21, _u64(7)))),
            _at(interest, 0) + 3, "empty name component", id="empty-component",
        ),
        pytest.param(
            frame("Nack", _replace(nack, 0x19, b"\x02\x00")), _at(nack, 2),
            "reason must be exactly 1 byte", id="reason-2-bytes",
        ),
        pytest.param(
            frame("Nack", _replace(nack, 0x19, b"\x09")), _at(nack, 2),
            "unknown nack reason 9", id="reason-code-9",
        ),
        pytest.param(
            frame("Data", _replace(data, 0x18, _fields_bytes(
                _replace(_PROOF_FIELDS, 0x2B, b"\x03" * 31)))),
            _at(data, 3), "proof digest must be 32 bytes", id="proof-digest-31",
        ),
        pytest.param(
            frame("Interest", _replace(
                interest, 0x12, _t(0x22, A1.octets) + _t(0x23, A3.octets))),
            0, "routed Interest must address the route top", id="remote-not-route-top",
        ),
        pytest.param(
            frame("Interest", _replace(
                interest, 0x12, _t(0x22, A1.octets) + _t(0x23, A1.octets))),
            _at(interest, 2), "hop info local and remote must differ", id="local-is-remote",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x14, _fields_bytes(
                _replace(_PAYMENT_FIELDS, 0x25, b"c" * 65)))),
            _at(interest, 4), "channel id must be 1..64 bytes", id="channel-id-65",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x14, _fields_bytes(
                _replace(_PAYMENT_FIELDS, 0x28, b"")))),
            _at(interest, 4), "payment word must be 32 bytes", id="word-empty",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x14, _fields_bytes(
                _replace(_PAYMENT_FIELDS, 0x28, b"\xa5" * 33)))),
            _at(interest, 4), "payment word must be 32 bytes", id="word-33",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x14, _fields_bytes(_replace(
                _PAYMENT_FIELDS, 0x30, _fields_bytes(
                    _replace(_COMMITMENT_FIELDS, 0x34, b"\x3c" * 31)))))),
            _at(_PAYMENT_FIELDS, 4, _at(interest, 4) + 3), "chain root must be 32 bytes",
            id="chain-root-31",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x14, _fields_bytes(_replace(
                _PAYMENT_FIELDS, 0x30, _fields_bytes(
                    _replace(_COMMITMENT_FIELDS, 0x35, b"\x5a" * 63)))))),
            _at(_PAYMENT_FIELDS, 4, _at(interest, 4) + 3),
            "commitment signature must be 64 bytes", id="commitment-sig-63",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x14, _fields_bytes(_replace(
                _PAYMENT_FIELDS, 0x30, _fields_bytes(
                    _replace(_COMMITMENT_FIELDS, 0x33, _u64(64)[1:])))))),
            _at(_COMMITMENT_FIELDS, 2, _at(_PAYMENT_FIELDS, 4, _at(interest, 4) + 3) + 3),
            "integer field must be exactly 8 bytes", id="chain-length-7",
        ),
        pytest.param(
            frame("Data", _replace(data, 0x18, _fields_bytes(_replace(
                _PROOF_FIELDS, 0x2C, _fields_bytes(
                    _replace(_HOP_SIG_FIELDS, 0x2E, b"\x01" * 31)))))),
            _at(_PROOF_FIELDS, 3, _at(data, 3) + 3), "signer public key must be 32 bytes",
            id="signer-pub-31",
        ),
        pytest.param(
            frame("Data", _replace(data, 0x18, _fields_bytes(_replace(
                _PROOF_FIELDS, 0x2C, _fields_bytes(
                    _replace(_HOP_SIG_FIELDS, 0x2F, b"\x02" * 63)))))),
            _at(_PROOF_FIELDS, 3, _at(data, 3) + 3), "hop signature must be 64 bytes",
            id="hop-sig-63",
        ),
        pytest.param(
            frame("Interest", _replace(interest, 0x15, _u64(0))),
            0, "lifetime must be a positive integer", id="lifetime-0",
        ),
    ]


class TestSingleDefect:
    @pytest.mark.parametrize("buf,offset,reason", _single_defect_cases())
    def test_exact_offset_and_reason(self, buf, offset, reason) -> None:
        with pytest.raises(DecodeError) as err:
            decode_packet(buf)
        assert (err.value.offset, err.value.reason) == (offset, reason)


# Type invariants that no frame can break, because the decoder yields
# only u64 integers and NackReason codes and refuses a frame that lacks
# a required repeated field: only code that builds a value reaches them.
# (value builder, exact message)
CONSTRUCTOR_DEFECTS = {
    "addr-non-hex": (
        lambda: NodeAddr.parse("00-14-zz-00-00-01"),
        "bad address '00-14-zz-00-00-01': non-hex octet",
    ),
    "chunk-index-negative": (lambda: Name((b"v",), -1), "chunk index out of range"),
    "route-empty": (lambda: RouteStack(()), "route stack cannot be empty"),
    "amount-negative": (
        lambda: Payment(b"c", -1, 0, b"\x00" * 32), "payment amount out of range"),
    "sequence-2**64": (
        lambda: Payment(b"c", 0, 2**64, b"\x00" * 32), "payment sequence out of range"),
    "proof-chain-empty": (
        lambda: ChunkProof(0, 1, b"\x00" * 32, ()), "proof chain cannot be empty"),
    "price-negative": (
        lambda: Data(Name.parse("/v"), b"", HopInfo(A1), route=RouteStack((A2,)), price=-1),
        "price out of range",
    ),
    "reason-int": (
        lambda: Nack(Name.parse("/v"), b"\x00" * 8, 2), "reason must be a NackReason"),
}


class TestConstructorInvariants:
    @pytest.mark.parametrize("case", list(CONSTRUCTOR_DEFECTS))
    def test_exact_message(self, case) -> None:
        build, message = CONSTRUCTOR_DEFECTS[case]
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_reprs_show_the_text_form(self) -> None:
        assert repr(A1) == "NodeAddr('00-14-00-00-00-01')"
        assert repr(Name.parse("/video/clip/seg=7")) == "Name('/video/clip/seg=7')"

    def test_only_packets_encode(self) -> None:
        with pytest.raises(EncodeError) as err:
            encode_packet(HopInfo(A1))
        assert str(err.value) == "not a packet: HopInfo"


# ---------------------------------------------------------------------------
# docs/wire-format.md against the codec's schema rows


def _doc_table(heading: str) -> list[list[str]]:
    """Body cells of the first table after the line `heading`."""
    lines = WIRE_DOC.read_text(encoding="utf-8").splitlines()
    i = lines.index(heading) + 1
    while not lines[i].startswith("|"):
        i += 1
    rows = []
    while i < len(lines) and lines[i].startswith("|"):
        rows.append([cell.strip() for cell in lines[i].strip().strip("|").split("|")])
        i += 1
    return rows[2:]


def _schemas() -> list:
    """Every schema the codec uses, packet schemas first, each once."""
    found, todo = [], list(wire._PACKET_SCHEMAS.values())
    while todo:
        schema = todo.pop(0)
        if schema not in found:
            found.append(schema)
            todo += [row.kind for row in schema.rows if isinstance(row.kind, wire._Schema)]
    return found


class TestDocMatchesSchema:
    def test_packet_type_bytes(self) -> None:
        doc = {int(byte, 16): what for byte, what in _doc_table("## Packet-type bytes")}
        assert doc == {tag: s.what for tag, s in wire._PACKET_SCHEMAS.items()}

    def test_tag_tables(self) -> None:
        packets = list(wire._PACKET_SCHEMAS.values())
        kinds = {"## Field tags": {}, "Nested-structure tags:": {}}
        for schema in _schemas():
            table = kinds["## Field tags" if schema in packets else "Nested-structure tags:"]
            for row in schema.rows:
                assert table.setdefault(row.tag, row.kind) is row.kind, hex(row.tag)
        for heading, table in kinds.items():
            doc = {int(tag, 16): (field, value) for tag, field, value in _doc_table(heading)}
            assert sorted(doc) == sorted(table), heading
            for tag, (field, value) in doc.items():
                kind = table[tag]
                assert getattr(wire, f"TAG_{field.upper()}") == tag, field
                assert value.startswith("nested") == isinstance(kind, wire._Schema), field
                assert value.startswith("u64") == (kind is wire._U64), field
                assert value.startswith("6-byte") == (kind is wire._ADDR), field

    @pytest.mark.parametrize("what", sorted(_FRAMES))
    def test_packet_field_tables(self, what) -> None:
        schema = wire._PACKET_SCHEMAS[_FRAMES[what][0]]
        doc = _doc_table(f"## {what}")
        for field, tag, _, _ in doc:
            assert getattr(wire, f"TAG_{field.upper()}") == int(tag, 16), field
        assert [(int(tag, 16), required == "yes") for _, tag, required, _ in doc] == [
            (row.tag, row.required) for row in schema.rows
        ]


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
            commitment = None
            if rng.random() < 0.5:
                commitment = ChainCommitment(
                    rng.randrange(0, 2**32), rng.randrange(0, 2**40), rng.randrange(0, 2**12),
                    rng.randbytes(32), rng.randbytes(64),
                )
            payment = Payment(
                channel_id=rng.randbytes(rng.randint(1, 16)),
                amount=rng.randrange(0, 2**40),
                sequence=rng.randrange(0, 2**32),
                word=rng.randbytes(32),
                commitment=commitment,
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
