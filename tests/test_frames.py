"""Wire-format tests: exact byte layout, decode errors, round-trip."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from deauthsim.frames import (
    BROADCAST,
    CANONICAL_FRAME_SIZES,
    HEADER_SIZE,
    IE_ELEMENT_ID,
    PAYLOAD_HASH,
    PAYLOAD_TOKEN,
    DecodeError,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    decode_frame,
    encode_frame,
)
from deauthsim.tokens import DIGEST_SIZE, TOKEN_SIZE
from frame_reference import reference_decode

SRC = MacAddress.parse("aa:bb:cc:dd:ee:ff")
DST = MacAddress.parse("11:22:33:44:55:66")


class TestMacAddress:
    def test_parse_and_render_round_trip(self):
        assert str(MacAddress.parse("AA:bb:CC:dd:EE:ff")) == "aa:bb:cc:dd:ee:ff"

    def test_wrong_octet_count_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * 5)
        with pytest.raises(ValueError):
            MacAddress.parse("aa:bb:cc:dd:ee")

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError):
            MacAddress.parse("aa:bb:cc:dd:ee:zz")
        with pytest.raises(ValueError):
            MacAddress.parse("aabb.ccdd.eeff")
        # int(octet, 16) reads a sign, inner whitespace and non-ASCII digits.
        for text in (
            "+2:00:00:00:00:01",
            "-0:00:00:00:00:01",
            "02: 0:00:00:00:01",
            "\uff10\uff11:00:00:00:00:01",
            # Whitespace around the address, of any Unicode kind, is not trimmed.
            "\u300002:00:00:00:00:01",
            "\x1c02:00:00:00:00:01\x85",
            " 02:00:00:00:00:01",
            "02:00:00:00:00:01\n",
        ):
            with pytest.raises(ValueError, match="malformed MAC address"):
                MacAddress.parse(text)

    def test_hashable_as_dict_key(self):
        table = {SRC: 1, DST: 2}
        assert table[MacAddress.parse("aa:bb:cc:dd:ee:ff")] == 1

    def test_broadcast_constant(self):
        assert str(BROADCAST) == "ff:ff:ff:ff:ff:ff"

    def test_integer_rejected(self):
        with pytest.raises(TypeError):
            MacAddress(6)

    def test_is_its_octets(self):
        mac = MacAddress(b"\x02\x00\x00\x00\x00\x01")
        assert isinstance(mac, bytes) and mac == b"\x02\x00\x00\x00\x00\x01"
        assert hash(mac) == hash(b"\x02\x00\x00\x00\x00\x01")
        assert repr(mac) == "MacAddress.parse('02:00:00:00:00:01')"


def element_frame(**element):
    return ManagementFrame(FrameSubtype.DEAUTHENTICATION, SRC, DST, 3, **element)


class TestInformationElement:
    def test_hash_payload_must_be_64_bytes(self):
        assert len(element_frame(commitment=b"\x00" * 64).commitment) == DIGEST_SIZE
        with pytest.raises(ValueError):
            element_frame(commitment=b"\x00" * 63)

    def test_token_payload_must_be_16_bytes(self):
        assert len(element_frame(token=b"\x00" * 16).token) == TOKEN_SIZE
        with pytest.raises(ValueError):
            element_frame(token=b"\x00" * 17)

    def test_commitment_and_token_are_exclusive(self):
        with pytest.raises(ValueError):
            element_frame(commitment=b"\x00" * 64, token=b"\x00" * 16)

    def test_replace_checks_like_the_constructor(self):
        frame = element_frame(token=b"\x00" * 16)
        with pytest.raises(ValueError):
            frame._replace(token=b"\x00" * 15)
        with pytest.raises(ValueError):
            frame._replace(commitment=b"\x00" * 64)
        with pytest.raises(ValueError):
            frame._replace(status_or_reason=0x10000)


class TestEncodeLayout:
    """Byte-for-byte checks against the documented layout."""

    def test_bare_frame_layout(self):
        frame = ManagementFrame(FrameSubtype.DEAUTHENTICATION, SRC, DST, 3)
        raw = encode_frame(frame)
        assert len(raw) == HEADER_SIZE
        assert raw[0] == 0x0C, "deauthentication subtype code"
        assert raw[1:7] == bytes.fromhex("aabbccddeeff"), "source MAC at bytes 1-6"
        assert raw[7:13] == bytes.fromhex("112233445566"), "destination MAC at bytes 7-12"
        assert raw[13:15] == b"\x03\x00", "reason 3 little-endian at bytes 13-14"

    def test_status_little_endian(self):
        frame = ManagementFrame(FrameSubtype.ASSOC_RESPONSE, SRC, DST, 0x1234)
        assert encode_frame(frame)[13:15] == b"\x34\x12"

    def test_token_frame_layout(self):
        token = bytes(range(16))
        frame = ManagementFrame(
            FrameSubtype.DISASSOCIATION, SRC, DST, 8, token=token
        )
        raw = encode_frame(frame)
        assert len(raw) == 34
        assert raw[15] == IE_ELEMENT_ID
        assert raw[16] == 17, "declared length is payload plus kind byte"
        assert raw[17] == PAYLOAD_TOKEN
        assert raw[18:] == token

    def test_hash_frame_layout(self):
        digest = bytes(range(64))
        frame = ManagementFrame(
            FrameSubtype.ASSOC_REQUEST, SRC, DST, 0, commitment=digest
        )
        raw = encode_frame(frame)
        assert len(raw) == 82
        assert raw[15] == IE_ELEMENT_ID
        assert raw[16] == 65
        assert raw[17] == PAYLOAD_HASH
        assert raw[18:] == digest

    def test_frozen_vector_bare(self):
        # Hand-assembled from the layout table.
        frame = ManagementFrame(FrameSubtype.DEAUTHENTICATION, SRC, DST, 3)
        assert encode_frame(frame).hex() == "0caabbccddeeff1122334455660300"

    def test_frozen_vector_with_token(self):
        frame = ManagementFrame(
            FrameSubtype.DEAUTHENTICATION, SRC, DST, 3, token=b"\xab" * 16
        )
        assert (
            encode_frame(frame).hex()
            == "0caabbccddeeff1122334455660300" + "dd1102" + "ab" * 16
        )

    def test_subtype_codes(self):
        expected = {
            FrameSubtype.ASSOC_REQUEST: 0x00,
            FrameSubtype.ASSOC_RESPONSE: 0x01,
            FrameSubtype.DISASSOCIATION: 0x0A,
            FrameSubtype.DEAUTHENTICATION: 0x0C,
            FrameSubtype.AUTH_REQUEST: 0x10,
            FrameSubtype.AUTH_RESPONSE: 0x11,
        }
        for subtype, code in expected.items():
            assert encode_frame(ManagementFrame(subtype, SRC, DST, 0))[0] == code

    def test_canonical_sizes_are_the_only_sizes(self):
        sizes = {
            len(encode_frame(ManagementFrame(FrameSubtype.AUTH_REQUEST, SRC, DST, 0))),
            len(
                encode_frame(
                    ManagementFrame(
                        FrameSubtype.ASSOC_REQUEST, SRC, DST, 0, commitment=b"\x01" * 64
                    )
                )
            ),
            len(
                encode_frame(
                    ManagementFrame(
                        FrameSubtype.DEAUTHENTICATION, SRC, DST, 3, token=b"\x02" * 16
                    )
                )
            ),
        }
        assert sizes == set(CANONICAL_FRAME_SIZES)

    def test_status_outside_u16_rejected(self):
        with pytest.raises(ValueError):
            ManagementFrame(FrameSubtype.DEAUTHENTICATION, SRC, DST, 0x10000)
        with pytest.raises(ValueError):
            ManagementFrame(FrameSubtype.DEAUTHENTICATION, SRC, DST, -1)


class TestDecodeErrors:
    """Each malformed input raises the error of the check that refuses it."""

    VALID_BARE = bytes.fromhex("0caabbccddeeff1122334455660300")

    def test_too_short(self):
        for size in (0, 1, 14):
            with pytest.raises(DecodeError, match=rf"^{size} bytes is not a frame size"):
                decode_frame(self.VALID_BARE[:size])

    def test_unknown_subtype(self):
        for code in (0x02, 0x0B, 0x12, 0xFF):
            with pytest.raises(DecodeError, match=f"^unknown subtype code 0x{code:02x}$"):
                decode_frame(bytes([code]) + self.VALID_BARE[1:])

    def test_trailing_garbage_is_not_an_element(self):
        with pytest.raises(DecodeError, match="^16 bytes is not a frame size"):
            decode_frame(self.VALID_BARE + b"\x00")
        with pytest.raises(DecodeError, match="^19 bytes is not a frame size"):
            decode_frame(self.VALID_BARE + b"\xde\xad\xbe\xef")

    def test_element_header_truncated(self):
        with pytest.raises(DecodeError, match="^16 bytes is not a frame size"):
            decode_frame(self.VALID_BARE + bytes([IE_ELEMENT_ID]))
        with pytest.raises(DecodeError, match="^17 bytes is not a frame size"):
            decode_frame(self.VALID_BARE + bytes([IE_ELEMENT_ID, 17]))

    def test_declared_length_exceeds_payload(self):
        # Declares a 64-byte hash payload but the frame stops early.
        raw = self.VALID_BARE + bytes([IE_ELEMENT_ID, 65, PAYLOAD_HASH]) + b"\x00" * 10
        with pytest.raises(DecodeError, match="^28 bytes is not a frame size"):
            decode_frame(raw)

    def test_bytes_beyond_declared_payload(self):
        raw = (
            self.VALID_BARE
            + bytes([IE_ELEMENT_ID, 17, PAYLOAD_TOKEN])
            + b"\x00" * 16
            + b"\xff"
        )
        with pytest.raises(DecodeError, match="^35 bytes is not a frame size"):
            decode_frame(raw)

    def test_zero_declared_length(self):
        with pytest.raises(DecodeError, match="^18 bytes is not a frame size"):
            decode_frame(self.VALID_BARE + bytes([IE_ELEMENT_ID, 0, PAYLOAD_TOKEN]))

    def test_unknown_payload_kind(self):
        raw = self.VALID_BARE + bytes([IE_ELEMENT_ID, 17, 0x07]) + b"\x00" * 16
        refusal = "^element header dd1107 is not the one for 34 bytes$"
        with pytest.raises(DecodeError, match=refusal):
            decode_frame(raw)

    def test_kind_length_mismatch(self):
        # Token kind with a 64-byte payload: structurally consistent
        # declared length, wrong size for the kind.
        raw = self.VALID_BARE + bytes([IE_ELEMENT_ID, 65, PAYLOAD_TOKEN]) + b"\x00" * 64
        refusal = "^element header dd4102 is not the one for 82 bytes$"
        with pytest.raises(DecodeError, match=refusal):
            decode_frame(raw)

    def test_errors_repeat_and_are_never_remembered(self):
        malformed = (
            self.VALID_BARE[:14],
            bytes([0x02]) + self.VALID_BARE[1:],
            self.VALID_BARE + b"\x00",
            self.VALID_BARE + bytes([IE_ELEMENT_ID, 0, PAYLOAD_TOKEN]),
        )
        for raw in malformed:
            raised = []
            for before in (None, None, self.VALID_BARE):
                if before is not None:
                    decode_frame(before)
                with pytest.raises(DecodeError) as info:
                    decode_frame(raw)
                raised.append(str(info.value))
            assert len(set(raised)) == 1, (raw, raised)


def mac_strategy():
    return st.binary(min_size=6, max_size=6).map(MacAddress)


@st.composite
def frame_strategy(draw):
    subtype = draw(st.sampled_from(list(FrameSubtype)))
    element = draw(
        st.one_of(
            st.just({}),
            st.binary(min_size=64, max_size=64).map(lambda digest: {"commitment": digest}),
            st.binary(min_size=16, max_size=16).map(lambda token: {"token": token}),
        )
    )
    return ManagementFrame(
        subtype,
        draw(mac_strategy()),
        draw(mac_strategy()),
        draw(st.integers(min_value=0, max_value=0xFFFF)),
        **element,
    )


class TestRoundTrip:
    @given(frame=frame_strategy())
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_encode(self, frame):
        assert decode_frame(encode_frame(frame)) == frame, (
            "decoding an encoded frame must reproduce it exactly"
        )

    @given(frame=frame_strategy())
    @settings(max_examples=300, deadline=None)
    def test_encoded_size_is_canonical(self, frame):
        assert len(encode_frame(frame)) in CANONICAL_FRAME_SIZES

    def test_fields_cannot_be_assigned(self):
        frame = decode_frame(encode_frame(element_frame()))
        with pytest.raises(AttributeError):
            frame.status_or_reason = 4
        with pytest.raises(AttributeError):
            frame.token = b"\x00" * 16
        with pytest.raises(AttributeError):
            frame.extra = None

    def test_decoded_addresses_are_mac_addresses(self):
        frame = decode_frame(encode_frame(element_frame()))
        assert type(frame.src) is MacAddress and type(frame.dst) is MacAddress
        assert (str(frame.src), str(frame.dst)) == ("aa:bb:cc:dd:ee:ff", "11:22:33:44:55:66")
        table = {MacAddress.parse(str(frame.src)): "src", MacAddress.parse(str(frame.dst)): "dst"}
        assert (table[frame.src], table[frame.dst]) == ("src", "dst")

    def test_mutated_bytearray_decodes_afresh(self):
        # The same object, changed in place, decodes to what it holds now.
        buffer = bytearray(encode_frame(element_frame()))
        assert decode_frame(buffer).status_or_reason == 3
        buffer[0] = FrameSubtype.DISASSOCIATION.value
        buffer[13] = 8
        frame = decode_frame(buffer)
        assert (frame.subtype, frame.status_or_reason) == (FrameSubtype.DISASSOCIATION, 8)

    @pytest.mark.parametrize("data", [15, [0] * 15, "x" * 15], ids=["int", "list", "str"])
    def test_only_a_bytes_like_object_is_read(self, data):
        # bytes(15) is 15 zero bytes, a well-formed bare frame: an argument
        # that is not a buffer must be refused, never coerced into one.
        with pytest.raises(TypeError):
            decode_frame(data)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_a_buffer_decodes_as_its_bytes(self, wrap):
        raw = encode_frame(element_frame(token=bytes(range(16))))
        frame = decode_frame(wrap(raw))
        assert frame == decode_frame(raw)
        assert type(frame.token) is bytes


def outcome(data):
    """What decode_frame makes of ``data``: the frame, or the error's type and message."""
    try:
        return decode_frame(data)
    except DecodeError as exc:
        return type(exc), str(exc)


@st.composite
def wire_variant(draw):
    """An encoded frame, kept whole, truncated or with one byte flipped."""
    data = bytearray(encode_frame(draw(frame_strategy())))
    mutation = draw(st.sampled_from(("keep", "truncate", "flip")))
    if mutation == "truncate":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif mutation == "flip":
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


SENTINELS = (
    encode_frame(ManagementFrame(FrameSubtype.AUTH_REQUEST, SRC, DST)),
    encode_frame(ManagementFrame(FrameSubtype.AUTH_RESPONSE, SRC, DST)),
)


class TestDecodeRobustness:
    @given(data=st.binary(max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes_never_crash(self, data):
        try:
            decode_frame(data)
        except DecodeError:
            pass

    @given(data=st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_accepted_bytes_reencode_identically(self, data):
        # Any bytes the decoder accepts must be a canonical encoding.
        try:
            frame = decode_frame(data)
        except DecodeError:
            return
        assert encode_frame(frame) == data

    def test_mutated_valid_frames_never_crash(self):
        rng = random.Random(0xF0F0)
        base = encode_frame(
            ManagementFrame(
                FrameSubtype.ASSOC_REQUEST, SRC, DST, 0, commitment=bytes(64)
            )
        )
        for _ in range(2000):
            mutated = bytearray(base)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            mutated = bytes(mutated[: rng.randint(0, len(mutated))])
            try:
                decode_frame(mutated)
            except DecodeError:
                pass

    @given(
        pool=st.lists(wire_variant(), min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_repeats_decode_like_misses(self, pool, picks):
        for data in [pool[i % len(pool)] for i in picks]:
            first = outcome(data)
            decode_frame(next(s for s in SENTINELS if s != data))
            assert outcome(data) == first, data.hex()


def assert_agrees_with_reference(data):
    """decode_frame and the reference return equal frames, or both refuse."""
    try:
        expected = reference_decode(data)
    except DecodeError:
        with pytest.raises(DecodeError):
            decode_frame(data)
        return
    frame = decode_frame(data)
    assert frame == expected, data.hex()
    assert type(frame.src) is type(frame.dst) is MacAddress


# A few addresses, so that consecutive decodes often share one.
OFTEN = (SRC, DST, BROADCAST)
ELEMENT_HEADER_BYTES = (IE_ELEMENT_ID, TOKEN_SIZE + 1, DIGEST_SIZE + 1, 1, 2)


@st.composite
def mutated_canonical(draw):
    """A canonical frame flipped, truncated, extended or with an element-header byte set."""
    mac = st.one_of(st.sampled_from(OFTEN), mac_strategy())
    frame = draw(frame_strategy())
    frame = frame._replace(src=draw(mac), dst=draw(mac))
    data = bytearray(encode_frame(frame))
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from(("keep", "flip", "truncate", "extend", "element")))
        if mutation == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        elif mutation == "truncate":
            del data[draw(st.integers(0, len(data))) :]
        elif mutation == "extend":
            data += draw(st.binary(min_size=1, max_size=70))
        elif mutation == "element" and len(data) > HEADER_SIZE:
            position = draw(st.integers(HEADER_SIZE, min(HEADER_SIZE + 2, len(data) - 1)))
            data[position] = draw(st.sampled_from(ELEMENT_HEADER_BYTES))
    return bytes(data)


class TestReferenceOracle:
    """decode_frame against the rule-by-rule reference decoder in frame_reference.py."""

    @given(data=st.binary(max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes_agree(self, data):
        assert_agrees_with_reference(data)

    @given(data=mutated_canonical())
    @settings(max_examples=400, deadline=None)
    def test_mutated_frames_agree(self, data):
        assert_agrees_with_reference(data)

    def test_every_element_header_byte_and_cut_agrees(self):
        bases = [
            encode_frame(element_frame()),
            encode_frame(element_frame(token=bytes(range(16)))),
            encode_frame(element_frame(commitment=bytes(range(64)))),
        ]
        for base in bases + [b"\x02" + base[1:] for base in bases]:
            for size in range(len(base) + 1):
                for tail in (b"", b"\x00", bytes([IE_ELEMENT_ID]), bytes(70)):
                    assert_agrees_with_reference(base[:size] + tail)
            for position in range(HEADER_SIZE, len(base)):
                for value in ELEMENT_HEADER_BYTES:
                    mutated = bytearray(base)
                    mutated[position] = value
                    assert_agrees_with_reference(bytes(mutated))

    def test_addresses_follow_each_frame_not_the_last_one(self):
        x, y, z = SRC, DST, MacAddress.parse("02:00:00:00:00:03")
        walk = [(x, y, 3), (y, x, 8), (x, z, 1), (x, z, 0xFFFF)]
        for number, (src, dst, reason) in enumerate(walk):
            sent = ManagementFrame(
                FrameSubtype.DEAUTHENTICATION, src, dst, reason, token=bytes([number]) * 16
            )
            frame = decode_frame(encode_frame(sent))
            assert frame == sent
            assert (frame.subtype, frame.status_or_reason) == (sent.subtype, reason)
            assert (frame.src, frame.dst) == (src, dst), (number, str(frame.src), str(frame.dst))
            assert (frame.commitment, frame.token) == (None, sent.token)
            assert type(frame.src) is type(frame.dst) is MacAddress
