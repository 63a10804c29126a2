"""Disconnect tokens and their hash commitments.

A station proves ownership of a connection by committing to a secret
token at association time (sending only its SHA-512 digest) and
revealing the raw token inside the teardown frame.  Tokens are RFC 4122
version-4 UUIDs: 16 bytes with the version nibble and variant bits
pinned, leaving 122 random bits (about 5.3e36 values), far too many to
guess within any session's lifetime.

Hashing always covers the 16 raw token bytes, never the hyphenated text
form, so a digest commits to exactly the bytes later revealed on the
wire.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from dataclasses import dataclass
from random import Random

TOKEN_SIZE = 16
DIGEST_SIZE = 64


@dataclass(frozen=True)
class Token:
    """A version-4 UUID disconnect token."""

    data: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) != TOKEN_SIZE:
            raise ValueError(f"token needs {TOKEN_SIZE} bytes, got {len(self.data)}")
        if self.data[6] >> 4 != 0x4:
            raise ValueError("token version nibble is not 4")
        if self.data[8] >> 6 != 0b10:
            raise ValueError("token variant bits are not 10")

    def __str__(self) -> str:
        """Lowercase hyphenated UUID text form."""
        return str(uuid.UUID(bytes=self.data))


def generate_token(rng: Random | None = None) -> Token:
    """Draw a fresh version-4 token.

    With no ``rng`` the bytes come from OS entropy.  Passing a seeded
    ``random.Random`` makes the sequence reproducible: the same seed
    yields the same tokens in the same order.
    """
    if rng is None:
        raw = os.urandom(TOKEN_SIZE)
    else:
        raw = rng.getrandbits(8 * TOKEN_SIZE).to_bytes(TOKEN_SIZE, "big")
    return Token(uuid.UUID(bytes=raw, version=4).bytes)


def hash_token(token: Token | bytes) -> bytes:
    """SHA-512 digest of the raw token bytes.

    Accepts either a ``Token`` or raw bytes so received wire payloads
    can be checked without first validating their version bits (an
    attacker's guess need not be a well-formed UUID to be hashed and
    compared).
    """
    raw = token.data if isinstance(token, Token) else bytes(token)
    return hashlib.sha512(raw).digest()
