"""Disconnect tokens and their hash commitments.

A station proves ownership of a connection by committing to a secret
token at association time (sending only its SHA-512 digest) and
revealing the raw token inside the teardown frame.  A token is 16 raw
bytes laid out as an RFC 4122 version-4 UUID: the version nibble and
variant bits are pinned, leaving 122 random bits (about 5.3e36 values),
far too many to guess within any session's lifetime.

Hashing always covers the 16 raw token bytes, never the hyphenated text
form, so a digest commits to exactly the bytes later revealed on the
wire.
"""

from __future__ import annotations

import hashlib
import os
from random import Random

TOKEN_SIZE = 16
DIGEST_SIZE = 64


def generate_token(rng: Random | None = None) -> bytes:
    """Draw a fresh version-4 token.

    With no ``rng`` the bytes come from OS entropy.  Passing a seeded
    ``random.Random`` makes the sequence reproducible: the same seed
    yields the same tokens in the same order.
    """
    if rng is None:
        raw = bytearray(os.urandom(TOKEN_SIZE))
    else:
        raw = bytearray(rng.getrandbits(8 * TOKEN_SIZE).to_bytes(TOKEN_SIZE, "big"))
    raw[6] = raw[6] & 0x0F | 0x40  # version 4
    raw[8] = raw[8] & 0x3F | 0x80  # RFC 4122 variant
    return bytes(raw)


def hash_token(token: bytes) -> bytes:
    """SHA-512 digest of the raw token bytes.

    Any bytes hash, so a received wire payload is checked without first
    validating its version bits (an attacker's guess need not be a
    well-formed UUID to be hashed and compared).
    """
    return hashlib.sha512(token).digest()
