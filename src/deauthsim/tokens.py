"""Disconnect tokens and their hash commitments.

A station proves ownership of a connection by committing to a secret
token at association time (sending only its SHA-512 digest) and
revealing the raw token inside the teardown frame.  A token is 16 raw
bytes laid out as an RFC 4122 version-4 UUID: the version nibble and
variant bits are pinned, leaving 122 random bits (about 5.3e36 values),
far too many to guess blindly within any session's lifetime.  That holds
only against an attacker who ignores the tokens a station reveals: a
seeded station draws from ``random.Random``, which is MT19937, and its
next token can be predicted from 156 revealed ones.  OS entropy
(``rng=None``) has no such stream.

Hashing always covers the 16 raw token bytes, never the hyphenated text
form, so a digest commits to exactly the bytes later revealed on the
wire.

The digest is the interpreter's built-in SHA-512, found the way
``random`` finds it: ``_sha512`` (3.10, 3.11), then ``_sha2`` (3.12+),
then ``hashlib`` where neither is built.  The verifier pays one hash per
token-bearing teardown, forged or not, and for a 16-byte input the
built-in function skips the per-call set-up of ``hashlib``'s OpenSSL
object, so it is the cheaper one.  It is the same function: every
digest is unchanged, and importing the package loads no ``hashlib``.
"""

from __future__ import annotations

import os
from random import Random

try:
    from _sha512 import sha512 as _sha512
except ImportError:
    try:
        from _sha2 import sha512 as _sha512
    except ImportError:
        from hashlib import sha512 as _sha512

TOKEN_SIZE = 16
DIGEST_SIZE = 64


def generate_token(rng: Random | None = None) -> bytes:
    """Draw a fresh version-4 token.

    With no ``rng`` the bytes come from OS entropy.  Passing a seeded
    ``random.Random`` makes the sequence reproducible: the same seed
    yields the same tokens in the same order.
    """
    if rng is None:
        bits = int.from_bytes(os.urandom(TOKEN_SIZE), "big")
    else:
        bits = rng.getrandbits(8 * TOKEN_SIZE)
    # Byte 6's high nibble is the version (4), byte 8's top two bits the
    # RFC 4122 variant (10), set on the integer as uuid.UUID(version=4)
    # sets them; the masks fold to constants at compile time.
    bits = bits & ~(0xF000 << 64 | 0xC000 << 48) | (0x4000 << 64 | 0x8000 << 48)
    return bits.to_bytes(TOKEN_SIZE, "big")


def hash_token(token: bytes) -> bytes:
    """SHA-512 digest of the raw token bytes.

    Any bytes hash, so a received wire payload is checked without first
    validating its version bits (an attacker's guess need not be a
    well-formed UUID to be hashed and compared).
    """
    return _sha512(token).digest()
