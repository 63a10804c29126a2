"""Attack frames built by ``Adversary``: shapes, determinism, replay captures."""

from dataclasses import replace
from random import Random

import pytest

from deauthsim.adversary import Adversary, AdversaryError, AttackerConfig, AttackKind
from deauthsim.frames import (
    BROADCAST,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    decode_frame,
    encode_frame,
)
from deauthsim.stations import Action
from helpers import AP_MAC, CLIENT_MAC, complete_handshake, make_pair


def adversary(cfg: AttackerConfig, *frames: bytes) -> Adversary:
    """An attacker for ``cfg`` that has sniffed ``frames`` in order, each sent by a station."""
    adv = Adversary(cfg, "attacker:0")
    for raw in frames:
        adv.on_sniffed(str(CLIENT_MAC), raw)
    return adv


class TestAttackerConfig:
    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            AttackerConfig(AttackKind.FORGED_DEAUTH, AP_MAC, CLIENT_MAC, frame_count=0)

    def test_reason_range_enforced(self):
        with pytest.raises(ValueError):
            AttackerConfig(AttackKind.FORGED_DEAUTH, AP_MAC, CLIENT_MAC, reason=70000)


class TestForgedDeauth:
    def test_frames_spoof_source_and_carry_no_token(self):
        cfg = AttackerConfig(
            AttackKind.FORGED_DEAUTH, AP_MAC, CLIENT_MAC, frame_count=5, reason=3
        )
        frames = adversary(cfg).frames()
        assert len(frames) == 5
        for raw in frames:
            frame = decode_frame(raw)
            assert frame.subtype is FrameSubtype.DEAUTHENTICATION
            assert frame.src == AP_MAC, "the source field is the spoofed MAC"
            assert frame.dst == CLIENT_MAC
            assert frame.status_or_reason == 3
            assert frame.token is None and frame.commitment is None

    def test_forged_frame_defeats_legacy_but_not_protected(self):
        cfg = AttackerConfig(AttackKind.FORGED_DEAUTH, AP_MAC, CLIENT_MAC)
        raw = adversary(cfg).frames()[0]

        client, ap = make_pair(protected=False)
        complete_handshake(client, ap)
        assert client.verify_deauth(decode_frame(raw)).action is Action.ACCEPT

        client, ap = make_pair(protected=True)
        complete_handshake(client, ap)
        verdict = client.verify_deauth(decode_frame(raw))
        assert (verdict.action, verdict.cause) == (Action.IGNORE, "no_token")


class TestTokenGuess:
    def test_each_frame_carries_a_16_byte_token(self):
        cfg = AttackerConfig(
            AttackKind.TOKEN_GUESS, CLIENT_MAC, AP_MAC, frame_count=50, reason=3
        )
        frames = adversary(replace(cfg, seed=7)).frames()
        assert len(frames) == 50
        payloads = set()
        for raw in frames:
            frame = decode_frame(raw)
            assert frame.token is not None
            payloads.add(frame.token)
        assert len(payloads) == 50, "independent uniform guesses"

    def test_guess_stream_is_seed_deterministic(self):
        cfg = AttackerConfig(AttackKind.TOKEN_GUESS, CLIENT_MAC, AP_MAC, frame_count=20)
        def guesses(seed):
            return adversary(replace(cfg, seed=seed)).frames()

        assert guesses(3) == guesses(3)
        assert guesses(3) != guesses(4)

    @pytest.mark.parametrize("reason", [3, 8, 0xFFFF])
    @pytest.mark.parametrize(
        "spoof_src, target",
        [
            (CLIENT_MAC, AP_MAC),
            (CLIENT_MAC, BROADCAST),
            (MacAddress.parse("01:00:5e:00:00:fb"), AP_MAC),
        ],
        ids=["unicast", "broadcast-target", "group-source"],
    )
    def test_guess_bytes_are_each_guess_encoded_whole(self, reason, spoof_src, target):
        seed = 0x5EED + reason
        cfg = AttackerConfig(
            AttackKind.TOKEN_GUESS, spoof_src, target, frame_count=40, reason=reason, seed=seed
        )
        rng = Random(seed)
        expected = tuple(
            encode_frame(
                ManagementFrame(
                    FrameSubtype.DEAUTHENTICATION,
                    spoof_src,
                    target,
                    reason,
                    token=rng.randbytes(16),
                )
            )
            for _ in range(40)
        )
        assert adversary(cfg).frames() == expected

    def test_each_step_continues_the_guess_stream(self):
        seed, count = 0x5EED, 30
        cfg = AttackerConfig(
            AttackKind.TOKEN_GUESS, CLIENT_MAC, AP_MAC, frame_count=count, seed=seed
        )
        adv = adversary(cfg)
        steps = adv.frames() + adv.frames()
        rng = Random(seed)
        assert [frame[-16:] for frame in steps] == [rng.randbytes(16) for _ in range(2 * count)]
        assert len(set(steps)) == 2 * count, "a second step repeats no guess"

    def test_random_guesses_never_verify(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        cfg = AttackerConfig(
            AttackKind.TOKEN_GUESS, CLIENT_MAC, AP_MAC, frame_count=2000, reason=3
        )
        for raw in adversary(replace(cfg, seed=11)).frames():
            assert ap.verify_deauth(decode_frame(raw)).action is Action.IGNORE
        assert CLIENT_MAC in ap.sessions

    def test_guessing_the_real_token_is_the_only_way_in(self):
        # Positive control: the check is on the token value, nothing else.
        client, ap = make_pair()
        complete_handshake(client, ap)
        stolen = client.sessions[AP_MAC].own_token
        frame = ManagementFrame(
            FrameSubtype.DEAUTHENTICATION, CLIENT_MAC, AP_MAC, 3, token=stolen
        )
        assert ap.verify_deauth(frame).action is Action.ACCEPT


class TestAssocReplay:
    def test_replays_first_captured_request_verbatim(self):
        client, ap = make_pair()
        request, _ = complete_handshake(client, ap)
        raw = encode_frame(request)
        noise = encode_frame(
            ManagementFrame(FrameSubtype.AUTH_REQUEST, CLIENT_MAC, AP_MAC, 0)
        )
        cfg = AttackerConfig(
            AttackKind.ASSOC_REPLAY, CLIENT_MAC, AP_MAC, frame_count=4
        )
        frames = adversary(cfg, noise, raw).frames()
        assert frames == (raw,) * 4, "bytes are re-emitted untouched"

    def test_garbage_captures_are_skipped(self):
        cfg = AttackerConfig(AttackKind.ASSOC_REPLAY, CLIENT_MAC, AP_MAC)
        raw = encode_frame(
            ManagementFrame(FrameSubtype.ASSOC_REQUEST, CLIENT_MAC, AP_MAC, 0)
        )
        frames = adversary(cfg, b"\xff\x00", raw).frames()
        assert frames == (raw,)

    def test_nothing_captured_raises(self):
        cfg = AttackerConfig(AttackKind.ASSOC_REPLAY, CLIENT_MAC, AP_MAC)
        with pytest.raises(AdversaryError, match="^no association request was sniffed$"):
            adversary(cfg).frames()
        with pytest.raises(AdversaryError, match="^no association request was sniffed$"):
            adversary(cfg, b"junk").frames()


class TestDeauthReplay:
    def test_replays_token_bearing_teardown_only(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        bare = encode_frame(
            ManagementFrame(FrameSubtype.DEAUTHENTICATION, CLIENT_MAC, AP_MAC, 3)
        )
        legit = encode_frame(client.make_verified_deauth(AP_MAC, 3))
        cfg = AttackerConfig(
            AttackKind.DEAUTH_REPLAY, CLIENT_MAC, AP_MAC, frame_count=2
        )
        frames = adversary(cfg, bare, legit).frames()
        assert frames == (legit,) * 2, "token-less frames are not worth replaying"

    def test_nothing_captured_raises(self):
        cfg = AttackerConfig(AttackKind.DEAUTH_REPLAY, CLIENT_MAC, AP_MAC)
        with pytest.raises(AdversaryError, match="^no token-bearing teardown was sniffed$"):
            adversary(cfg).frames()

    def test_replay_after_acceptance_is_ignored(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        legit = client.make_verified_deauth(AP_MAC, 3)
        assert ap.verify_deauth(legit).action is Action.ACCEPT
        verdict = ap.verify_deauth(legit)
        assert (verdict.action, verdict.cause) == (Action.IGNORE, "no_session")


class TestAdversaryShell:
    def test_collects_sniffed_events_and_dispatches_by_kind(self):
        client, ap = make_pair()
        request, _ = complete_handshake(client, ap)
        adv = Adversary(
            AttackerConfig(AttackKind.ASSOC_REPLAY, CLIENT_MAC, AP_MAC, frame_count=2),
            "attacker:0",
        )
        adv.on_sniffed(str(CLIENT_MAC), encode_frame(request))
        assert adv.frames() == (encode_frame(request),) * 2

    def test_frames_an_attacker_sent_are_never_kept(self):
        raw = encode_frame(ManagementFrame(FrameSubtype.ASSOC_REQUEST, CLIENT_MAC, AP_MAC, 0))
        adv = Adversary(AttackerConfig(AttackKind.ASSOC_REPLAY, CLIENT_MAC, AP_MAC), "attacker:0")
        adv.attackers = frozenset({"attacker:0", "attacker:1"})
        adv.on_sniffed("attacker:1", raw)
        adv.on_sniffed("attacker:0", raw)
        assert adv.captures == [], "neither another attacker's frame nor its own"
        adv.on_sniffed(str(CLIENT_MAC), raw)
        assert adv.captures == [raw]

    @pytest.mark.parametrize(
        "kind, keeps",
        [
            (AttackKind.FORGED_DEAUTH, False),
            (AttackKind.TOKEN_GUESS, False),
            (AttackKind.ASSOC_REPLAY, True),
            (AttackKind.DEAUTH_REPLAY, True),
        ],
    )
    def test_only_replay_kinds_retain_captures(self, kind, keeps):
        bare = encode_frame(
            ManagementFrame(FrameSubtype.DEAUTHENTICATION, CLIENT_MAC, AP_MAC, 3)
        )
        teardown = encode_frame(
            ManagementFrame(
                FrameSubtype.DEAUTHENTICATION, CLIENT_MAC, AP_MAC, 3, token=bytes(16)
            )
        )
        assoc = encode_frame(
            ManagementFrame(FrameSubtype.ASSOC_REQUEST, CLIENT_MAC, AP_MAC, 0)
        )
        adv = adversary(AttackerConfig(kind, CLIENT_MAC, AP_MAC), *(bare, teardown, assoc) * 2)
        replayed = assoc if kind is AttackKind.ASSOC_REPLAY else teardown
        assert adv.captures == ([replayed] if keeps else []), "one capture, the first match"

    def test_forged_kind_needs_no_captures(self):
        adv = Adversary(
            AttackerConfig(AttackKind.FORGED_DEAUTH, AP_MAC, CLIENT_MAC, frame_count=3),
            "attacker:0",
        )
        assert len(adv.frames()) == 3
