"""Attack traffic generators.

Attackers are remote-network adversaries: they spoof source MACs,
inject raw bytes through the medium, and sniff promiscuously, but never
touch station internals.  Four attacks are modeled:

* ``FORGED_DEAUTH``: bare teardown frames with a spoofed source, the
  classic token-less disconnect flood.
* ``TOKEN_GUESS``: teardown frames carrying uniformly random 16-byte
  tokens; with 122 secret bits per real token, the per-frame hit
  probability is negligible.
* ``ASSOC_REPLAY``: re-emits a sniffed association request verbatim,
  trying to ride an old hash commitment past the AP.
* ``DEAUTH_REPLAY``: re-emits a sniffed token-revealing teardown
  verbatim.

Known limitation, by design: a revealed token is a bearer credential
until the frame carrying it is accepted.  A replayed copy that races
ahead of the legitimate teardown is accepted in its place; the replay
only loses once the session record is gone.  The defense narrows the
attack window from the whole session to one in-flight frame, it does
not add sender authentication.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random

from .frames import (
    TEARDOWN_SUBTYPES,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    PAYLOAD_TOKEN,
    DecodeError,
    decode_frame,
    encode_frame,
    token_element,
)
from .medium import MediumEvent

DEFAULT_REASON = 3

# Every attack builds its whole frame list up front, so the count is
# capped: a one-line config must not exhaust memory.
MAX_FRAME_COUNT = 1_000_000


class AdversaryError(Exception):
    """Base for attack generation failures."""


class NoCapturedAssoc(AdversaryError):
    """Replay requested but no association request was ever sniffed."""


class NoCapturedDeauth(AdversaryError):
    """Replay requested but no token-bearing teardown was ever sniffed."""


class AttackKind(Enum):
    FORGED_DEAUTH = "forged_deauth"
    TOKEN_GUESS = "token_guess"
    ASSOC_REPLAY = "assoc_replay"
    DEAUTH_REPLAY = "deauth_replay"


# The only kinds that build their frames from sniffed traffic.
REPLAY_KINDS = frozenset({AttackKind.ASSOC_REPLAY, AttackKind.DEAUTH_REPLAY})


@dataclass(frozen=True)
class AttackerConfig:
    """One attacker: what to forge, at whom, and how hard."""

    kind: AttackKind
    spoof_src: MacAddress
    target: MacAddress
    frame_count: int = 1
    reason: int = DEFAULT_REASON
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.frame_count <= MAX_FRAME_COUNT:
            raise ValueError(
                f"frame_count must be in [1, {MAX_FRAME_COUNT}], got {self.frame_count}"
            )
        if not 0 <= self.reason <= 0xFFFF:
            raise ValueError(f"reason {self.reason} outside u16 range")


def forged_deauth_frames(cfg: AttackerConfig) -> list[bytes]:
    """Token-less deauthentications from the spoofed source."""
    frame = ManagementFrame(
        FrameSubtype.DEAUTHENTICATION, cfg.spoof_src, cfg.target, cfg.reason
    )
    return [encode_frame(frame)] * cfg.frame_count


def token_guess_frames(cfg: AttackerConfig, rng: Random) -> list[bytes]:
    """Deauthentications each revealing a fresh uniformly random token."""
    frames = []
    for _ in range(cfg.frame_count):
        guess = rng.randbytes(16)
        frames.append(
            encode_frame(
                ManagementFrame(
                    FrameSubtype.DEAUTHENTICATION,
                    cfg.spoof_src,
                    cfg.target,
                    cfg.reason,
                    token_element(guess),
                )
            )
        )
    return frames


def _sniffed_frames(sniffed_log: list[MediumEvent]):
    for event in sniffed_log:
        try:
            yield event.frame, decode_frame(event.frame)
        except DecodeError:
            continue


def assoc_replay_frames(
    sniffed_log: list[MediumEvent], cfg: AttackerConfig
) -> list[bytes]:
    """Verbatim copies of the first sniffed association request."""
    for raw, frame in _sniffed_frames(sniffed_log):
        if frame.subtype is FrameSubtype.ASSOC_REQUEST:
            return [raw] * cfg.frame_count
    raise NoCapturedAssoc("no association request in the sniffed log")


def deauth_replay_frames(
    sniffed_log: list[MediumEvent], cfg: AttackerConfig
) -> list[bytes]:
    """Verbatim copies of the first sniffed token-revealing teardown."""
    for raw, frame in _sniffed_frames(sniffed_log):
        if (
            frame.subtype in TEARDOWN_SUBTYPES
            and frame.ie is not None
            and frame.ie.payload_kind == PAYLOAD_TOKEN
        ):
            return [raw] * cfg.frame_count
    raise NoCapturedDeauth("no token-bearing teardown in the sniffed log")


class Adversary:
    """Runtime shell around a config: sniffs via its tap, emits frames.

    Only replay kinds keep what they sniff; the others never read it.
    """

    def __init__(self, cfg: AttackerConfig, endpoint_id: str):
        self.cfg = cfg
        self.endpoint_id = endpoint_id
        self.captures: list[MediumEvent] = []
        self._replays = cfg.kind in REPLAY_KINDS

    def on_sniffed(self, event: MediumEvent) -> None:
        if self._replays:
            self.captures.append(event)

    def frames(self) -> list[bytes]:
        """Build this attacker's frame sequence, ready to inject."""
        if self.cfg.kind is AttackKind.FORGED_DEAUTH:
            return forged_deauth_frames(self.cfg)
        if self.cfg.kind is AttackKind.TOKEN_GUESS:
            return token_guess_frames(self.cfg, Random(self.cfg.seed))
        if self.cfg.kind is AttackKind.ASSOC_REPLAY:
            return assoc_replay_frames(self.captures, self.cfg)
        return deauth_replay_frames(self.captures, self.cfg)
