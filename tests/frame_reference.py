"""Reference frame decoder, used only to cross-check the library's.

This is the straightforward decoder: it walks every layout rule in
order, on every input, and remembers nothing between calls.  The
library's ``decode_frame`` reads each canonical size with one ``struct``
and walks the rules only to name a refusal; for any input both must
return equal frames or raise the same ``DecodeError`` subclass with the
same message.  It shares the value and error types with the library, so
that their results compare, but none of its decoding code.
"""

from deauthsim.frames import (
    BadIeLength,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    TooShort,
    TrailingBytes,
    UnknownSubtype,
)

HEADER_SIZE = 15
ELEMENT_ID = 0xDD
KIND_HASH = 0x01
KIND_TOKEN = 0x02
HASH_SIZE = 64
TOKEN_SIZE = 16

SUBTYPE_BY_CODE = {subtype.value: subtype for subtype in FrameSubtype}


def reference_decode(data: bytes) -> ManagementFrame:
    """Parse ``data`` by the layout rules alone, raising the first one broken."""
    data = bytes(data)
    if len(data) < HEADER_SIZE:
        raise TooShort(f"{len(data)} bytes is shorter than the {HEADER_SIZE}-byte header")

    code = data[0]
    src = MacAddress(data[1:7])
    dst = MacAddress(data[7:13])
    status = int.from_bytes(data[13:15], "little")
    subtype = SUBTYPE_BY_CODE.get(code)
    if subtype is None:
        raise UnknownSubtype(f"unknown subtype code 0x{code:02x}")

    commitment = token = None
    if len(data) > HEADER_SIZE:
        if data[HEADER_SIZE] != ELEMENT_ID:
            raise TrailingBytes(
                f"byte {HEADER_SIZE} is 0x{data[HEADER_SIZE]:02x}, not an information element"
            )
        if len(data) < HEADER_SIZE + 3:
            raise BadIeLength("information element header truncated")
        declared = data[HEADER_SIZE + 1]
        kind = data[HEADER_SIZE + 2]
        payload = data[HEADER_SIZE + 3 :]
        if declared < 1:
            raise BadIeLength("declared element length must cover the kind byte")
        if len(payload) < declared - 1:
            raise BadIeLength(
                f"element declares {declared - 1} payload bytes, only {len(payload)} present"
            )
        if len(payload) > declared - 1:
            raise TrailingBytes(f"{len(payload) - (declared - 1)} bytes after the element")
        if kind == KIND_HASH and len(payload) == HASH_SIZE:
            commitment = payload
        elif kind == KIND_TOKEN and len(payload) == TOKEN_SIZE:
            token = payload
        else:
            raise BadIeLength(f"no payload kind 0x{kind:02x} has {len(payload)} bytes")

    return ManagementFrame(subtype, src, dst, status, commitment, token)
