"""Management frame model and byte codec.

Every frame on the simulated medium uses one fixed layout:

    offset  size  field
    ------  ----  -----------------------------------------------
    0       1     subtype code
    1       6     source MAC
    7       6     destination MAC
    13      2     status or reason code, little-endian u16
    15      1     information element id, always 0xDD   (optional)
    16      1     declared length = payload length + 1  (optional)
    17      1     payload kind: 0x01 hash, 0x02 token   (optional)
    18      n     payload: 64 bytes (hash) or 16 (token)

The information element block is present only on frames that carry a
hash commitment or a revealed token, so the only legal encoded sizes
are 15 (bare), 82 (hash) and 34 (token) bytes.  A ``ManagementFrame``
holds either as plain bytes in its ``commitment`` or ``token`` field;
this module alone knows the element's id, kind bytes and sizes.  It
names a token frame's size, ``TOKEN_FRAME_SIZE``, and where its token
starts, ``TOKEN_OFFSET``, for a station that tells two guesses apart by
their tokens alone.

Both values are immutable and cheap to build, since every frame on the
air is decoded into one: a ``MacAddress`` is a ``bytes`` subclass, so it
hashes and compares as its six octets, in C, and a ``ManagementFrame``
is a tuple.  Their constructors validate; ``decode_frame`` builds both
without re-checking what ``struct`` and the element header have already
fixed, and a station builds each frame it sends without re-checking the
fields it fixed itself (``stations``).

Authentication is modeled as a single opaque request/response pair, so
the subtype byte uses two synthetic codes (0x10/0x11) that do not clash
with the association and teardown codes.

``decode_frame`` takes a bytes-like object (``bytes``, ``bytearray`` or
``memoryview``) and never raises anything but ``DecodeError`` on one, no
matter how hostile its contents: adversaries inject arbitrary bytes and
receivers must shrug them off.  Any other argument, such as an integer
or a list, is refused with an exception and never read as a frame.
Each canonical size is read whole by one precompiled ``struct``, and the
layout rules come down to three checks, made in this order: the size is
15, 34 or 82 bytes, the subtype code is known, and the 3-byte element
header is the one for that size (none, on the bare frame).  Input that
fails one raises a plain ``DecodeError`` whose message names that check.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import NamedTuple

from .tokens import DIGEST_SIZE, TOKEN_SIZE

HEADER_FORMAT = "<B6s6sH"
_HEADER = struct.Struct(HEADER_FORMAT)
HEADER_SIZE = _HEADER.size
# The destination MAC's bytes, after the subtype code and the source MAC.
DST_OFFSET = struct.calcsize("<B6s")
DST_END = DST_OFFSET + 6

IE_ELEMENT_ID = 0xDD
PAYLOAD_HASH = 0x01
PAYLOAD_TOKEN = 0x02

# Element id, declared length (payload plus kind byte) and kind.
_HASH_ELEMENT_HEADER = bytes((IE_ELEMENT_ID, DIGEST_SIZE + 1, PAYLOAD_HASH))
_TOKEN_ELEMENT_HEADER = bytes((IE_ELEMENT_ID, TOKEN_SIZE + 1, PAYLOAD_TOKEN))

# The two element-bearing sizes, each read whole by one struct.
_TOKEN_FRAME = struct.Struct(f"{HEADER_FORMAT}3s{TOKEN_SIZE}s")
_HASH_FRAME = struct.Struct(f"{HEADER_FORMAT}3s{DIGEST_SIZE}s")
TOKEN_FRAME_SIZE = _TOKEN_FRAME.size
# Where a token frame's token starts: all it has before is its header and
# its element's header.
TOKEN_OFFSET = TOKEN_FRAME_SIZE - TOKEN_SIZE
_HASH_FRAME_SIZE = _HASH_FRAME.size

# The only sizes encode_frame can emit: bare, with hash, with token.
CANONICAL_FRAME_SIZES = frozenset({HEADER_SIZE, _HASH_FRAME_SIZE, TOKEN_FRAME_SIZE})


class DecodeError(ValueError):
    """Raised when a byte string is not a well-formed frame."""


class FrameSubtype(Enum):
    """Wire codes for the management frame subtypes the simulator models."""

    ASSOC_REQUEST = 0x00
    ASSOC_RESPONSE = 0x01
    DISASSOCIATION = 0x0A
    DEAUTHENTICATION = 0x0C
    AUTH_REQUEST = 0x10
    AUTH_RESPONSE = 0x11

    # Members are singletons compared by identity, so identity hashing
    # agrees with equality and keeps subtype-set tests on the frame path
    # in C; Enum's default __hash__ is a Python call hashing the name.
    __hash__ = object.__hash__


TEARDOWN_SUBTYPES = frozenset({FrameSubtype.DEAUTHENTICATION, FrameSubtype.DISASSOCIATION})

# Enum.value is a Python-level property; the codec looks codes up here.
_SUBTYPE_BY_CODE = {subtype.value: subtype for subtype in FrameSubtype}
_CODE_BY_SUBTYPE = {subtype: subtype.value for subtype in FrameSubtype}


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class MacAddress(bytes):
    """A 6-octet hardware address: the octets themselves, shown as colon hex."""

    __slots__ = ()

    def __new__(cls, octets) -> "MacAddress":
        if isinstance(octets, int):
            raise TypeError("MAC address needs 6 octets, not an integer")
        mac = super().__new__(cls, octets)
        if len(mac) != 6:
            raise ValueError(f"MAC address needs exactly 6 octets, got {len(mac)}")
        return mac

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Read six colon-separated octets, each exactly two ASCII hex digits."""
        parts = text.split(":")
        if len(parts) != 6 or not all(len(p) == 2 and _HEX_DIGITS.issuperset(p) for p in parts):
            raise ValueError(f"malformed MAC address {text!r}")
        return cls(bytes.fromhex("".join(parts)))

    def __str__(self) -> str:
        return self.hex(":")

    def __repr__(self) -> str:
        return f"MacAddress.parse({str(self)!r})"


BROADCAST = MacAddress(b"\xff" * 6)


class _FrameFields(NamedTuple):
    # The fields and their types; ManagementFrame.__new__ owns the defaults.
    subtype: FrameSubtype
    src: MacAddress
    dst: MacAddress
    status_or_reason: int
    commitment: bytes | None
    token: bytes | None


class ManagementFrame(_FrameFields):
    """One simulated management frame.

    ``status_or_reason`` is a status code on association responses
    (0 = success) and a reason code on teardown frames.  The element
    carries at most one of ``commitment`` (64 bytes) and ``token`` (16).
    """

    __slots__ = ()

    def __new__(cls, subtype, src, dst, status_or_reason=0, commitment=None, token=None):
        if not 0 <= status_or_reason <= 0xFFFF:
            raise ValueError(f"status/reason {status_or_reason} outside u16 range")
        if commitment is not None:
            if token is not None:
                raise ValueError("a frame carries a commitment or a token, not both")
            if len(commitment) != DIGEST_SIZE:
                raise ValueError(
                    f"commitment needs {DIGEST_SIZE} bytes, got {len(commitment)}"
                )
        elif token is not None and len(token) != TOKEN_SIZE:
            raise ValueError(f"token needs {TOKEN_SIZE} bytes, got {len(token)}")
        return tuple.__new__(cls, (subtype, src, dst, status_or_reason, commitment, token))

    @classmethod
    def _make(cls, iterable) -> "ManagementFrame":
        # ``_replace`` builds through ``_make``, so it validates too.
        return cls(*iterable)


def encode_frame(frame: ManagementFrame) -> bytes:
    """Serialize a frame to its canonical byte string."""
    code = _CODE_BY_SUBTYPE[frame.subtype]
    header = _HEADER.pack(code, frame.src, frame.dst, frame.status_or_reason)
    if frame.commitment is not None:
        return header + _HASH_ELEMENT_HEADER + frame.commitment
    if frame.token is not None:
        return header + _TOKEN_ELEMENT_HEADER + frame.token
    return header


def decode_frame(data: bytes) -> ManagementFrame:
    """Parse a bytes-like object into a frame, raising ``DecodeError`` on anything malformed."""
    size = len(data)
    if size == TOKEN_FRAME_SIZE:
        code, src_raw, dst_raw, status, element, token = _TOKEN_FRAME.unpack(data)
        commitment = None
        valid = element == _TOKEN_ELEMENT_HEADER
    elif size == HEADER_SIZE:
        code, src_raw, dst_raw, status = _HEADER.unpack(data)
        commitment = token = None
        valid = True
    elif size == _HASH_FRAME_SIZE:
        code, src_raw, dst_raw, status, element, commitment = _HASH_FRAME.unpack(data)
        token = None
        valid = element == _HASH_ELEMENT_HEADER
    else:
        raise DecodeError(f"{size} bytes is not a frame size (15, 34 or 82)")
    subtype = _SUBTYPE_BY_CODE.get(code)
    if subtype is None:
        raise DecodeError(f"unknown subtype code 0x{code:02x}")
    if not valid:
        raise DecodeError(f"element header {element.hex()} is not the one for {size} bytes")

    # struct and the checks above fixed every size and range, so the
    # values are built without running their constructors' checks again.
    src = bytes.__new__(MacAddress, src_raw)
    dst = bytes.__new__(MacAddress, dst_raw)
    return tuple.__new__(ManagementFrame, (subtype, src, dst, status, commitment, token))
