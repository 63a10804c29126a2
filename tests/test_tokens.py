"""Token generation and hashing: RFC 4122 shape, determinism, digests."""

import re
import uuid
from random import Random

from hypothesis import given, settings, strategies as st

from deauthsim.tokens import (
    DIGEST_SIZE,
    TOKEN_SIZE,
    generate_token,
    hash_token,
)
from sha512_reference import sha512_reference

UUID_TEXT = re.compile(r"^[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}$")


class TestTokenShape:
    def test_os_entropy_tokens_have_version_and_variant_bits(self):
        for _ in range(100):
            token = generate_token()
            assert isinstance(token, bytes) and len(token) == TOKEN_SIZE
            assert token[6] >> 4 == 0x4, "version nibble must be 4"
            assert token[8] >> 6 == 0b10, "variant bits must be 10"

    def test_seeded_tokens_have_version_and_variant_bits(self):
        rng = Random(123)
        for _ in range(100):
            token = generate_token(rng)
            assert token[6] >> 4 == 0x4
            assert token[8] >> 6 == 0b10

    def test_text_form_is_hyphenated_lowercase_uuid(self):
        for _ in range(20):
            assert UUID_TEXT.match(str(uuid.UUID(bytes=generate_token())))


class TestDeterminism:
    def test_fixed_seed_reproduces_token_sequence(self):
        first = [generate_token(Random(99)) for _ in range(1)]
        for _ in range(3):
            rng_a, rng_b = Random(1234), Random(1234)
            seq_a = [generate_token(rng_a) for _ in range(50)]
            seq_b = [generate_token(rng_b) for _ in range(50)]
            assert seq_a == seq_b
        assert first == [generate_token(Random(99))]

    def test_frozen_seeded_draw(self):
        # Derived independently: Random(42).getrandbits(128) big-endian
        # with version/variant bits forced.
        token = generate_token(Random(42))
        assert str(uuid.UUID(bytes=token)) == "bdd640fb-0667-4ad1-9c80-317fa3b1799d"

    def test_bits_forced_as_uuid4_forces_them(self):
        # The same 128 drawn bits, shaped by the stdlib UUID constructor.
        for seed in range(500):
            drawn = Random(seed).getrandbits(128).to_bytes(TOKEN_SIZE, "big")
            assert generate_token(Random(seed)) == uuid.UUID(bytes=drawn, version=4).bytes

    def test_different_seeds_give_distinct_tokens(self):
        assert generate_token(Random(1)) != generate_token(Random(2))

    def test_distinctness_over_many_draws(self):
        rng = Random(5)
        tokens = {generate_token(rng) for _ in range(2000)}
        assert len(tokens) == 2000, "seeded draws must not collide"


class TestHashing:
    def test_digest_is_64_raw_bytes(self):
        digest = hash_token(generate_token())
        assert isinstance(digest, bytes) and len(digest) == DIGEST_SIZE

    def test_hash_covers_raw_bytes_not_text(self):
        token = generate_token(Random(8))
        assert hash_token(token) == sha512_reference(token)
        assert hash_token(token) != sha512_reference(str(uuid.UUID(bytes=token)).encode())

    def test_purity(self):
        token = generate_token(Random(9))
        assert hash_token(token) == hash_token(token)

    def test_accepts_raw_bytes(self):
        raw = bytes(range(16))
        assert hash_token(raw) == sha512_reference(raw)

    def test_zero_token_frozen_vector(self):
        # 16 zero bytes with version/variant forced; digest computed by
        # the from-scratch reference implementation.
        data = bytearray(16)
        data[6], data[8] = 0x40, 0x80
        expected = sha512_reference(bytes(data))
        assert hash_token(bytes(data)) == expected
        assert expected.hex() == (
            "776b193331abb57c8e968425c5fd523018a89067765c85754d48cb93e0cfbd33"
            "d2cf721bf3789834a5f747e853f422196800ae2916af13c1c410be57591d05c6"
        )

    @given(raw=st.binary(min_size=TOKEN_SIZE, max_size=TOKEN_SIZE))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_implementation(self, raw):
        assert hash_token(raw) == sha512_reference(raw), (
            "library digest must agree with the independent implementation"
        )
