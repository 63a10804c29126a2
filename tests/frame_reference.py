"""Reference frame decoder, used only to cross-check the library's.

This is the straightforward decoder: it walks every layout rule in
order, on every input, and remembers nothing between calls.  The
library's ``decode_frame`` reads each canonical size with one ``struct``
and checks only the size, the subtype code and the element header; for
any input both must accept the same bytes and return equal frames, or
both raise ``DecodeError``.  The messages are not compared.  It shares
the value and error types with the library, so that their results
compare, but none of its decoding code.
"""

from deauthsim.frames import DecodeError, FrameSubtype, MacAddress, ManagementFrame

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
        raise DecodeError(f"{len(data)} bytes is shorter than the {HEADER_SIZE}-byte header")

    code = data[0]
    src = MacAddress(data[1:7])
    dst = MacAddress(data[7:13])
    status = int.from_bytes(data[13:15], "little")
    subtype = SUBTYPE_BY_CODE.get(code)
    if subtype is None:
        raise DecodeError(f"unknown subtype code 0x{code:02x}")

    commitment = token = None
    if len(data) > HEADER_SIZE:
        if data[HEADER_SIZE] != ELEMENT_ID:
            raise DecodeError(
                f"byte {HEADER_SIZE} is 0x{data[HEADER_SIZE]:02x}, not an information element"
            )
        if len(data) < HEADER_SIZE + 3:
            raise DecodeError("information element header truncated")
        declared = data[HEADER_SIZE + 1]
        kind = data[HEADER_SIZE + 2]
        payload = data[HEADER_SIZE + 3 :]
        if declared < 1:
            raise DecodeError("declared element length must cover the kind byte")
        if len(payload) < declared - 1:
            raise DecodeError(
                f"element declares {declared - 1} payload bytes, only {len(payload)} present"
            )
        if len(payload) > declared - 1:
            raise DecodeError(f"{len(payload) - (declared - 1)} bytes after the element")
        if kind == KIND_HASH and len(payload) == HASH_SIZE:
            commitment = payload
        elif kind == KIND_TOKEN and len(payload) == TOKEN_SIZE:
            token = payload
        else:
            raise DecodeError(f"no payload kind 0x{kind:02x} has {len(payload)} bytes")

    return ManagementFrame(subtype, src, dst, status, commitment, token)
