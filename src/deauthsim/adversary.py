"""Attack traffic: ``Adversary`` is the one place attack frames are built.

Attackers are remote-network adversaries: they spoof source MACs,
inject raw bytes through the medium, and sniff promiscuously, but never
touch station internals.  Four attacks are modeled:

* ``FORGED_DEAUTH``: bare teardown frames with a spoofed source, the
  classic token-less disconnect flood.
* ``TOKEN_GUESS``: teardown frames carrying uniformly random 16-byte
  tokens; with 122 secret bits per real token, the per-frame hit
  probability is negligible.  Each attacker draws its guesses from one
  ``Random(cfg.seed)``, so a second attack step continues the stream
  and never repeats the first step's guesses.
* ``ASSOC_REPLAY``: re-emits a sniffed association request verbatim,
  trying to ride an old hash commitment past the AP.
* ``DEAUTH_REPLAY``: re-emits a sniffed token-revealing teardown
  verbatim.

A replay attacker keeps at most one capture: the first sniffed frame of
the kind it replays, as raw bytes.  Every other sniffed frame is dropped
as soon as it is seen.

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
from functools import cached_property
from random import Random

from .frames import (
    TEARDOWN_SUBTYPES,
    TOKEN_PAYLOAD_SIZE,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    DecodeError,
    decode_frame,
    encode_frame,
)

DEFAULT_REASON = 3

# An attack step is one tuple, built whole before it is sent and kept
# as is by the log, so the count is capped: a one-line config must not
# exhaust memory.  At the cap a forged step's log costs 16 MB (a
# reference and a label per frame); a token guess's distinct 34-byte
# frames add about 70 MB.
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


class Adversary:
    """One attacker: sniffs through its tap and builds the frames it injects.

    This is the only attack-frame builder.  A replay kind keeps at most
    one capture, the first station frame it would replay; the other kinds
    keep nothing.
    """

    def __init__(self, cfg: AttackerConfig, endpoint_id: str):
        self.cfg = cfg
        self.endpoint_id = endpoint_id
        self.captures: list[bytes] = []

    def on_sniffed(self, data: bytes) -> None:
        """Keep a sniffed frame's bytes if it is the first one this kind replays."""
        kind = self.cfg.kind
        if self.captures or kind not in REPLAY_KINDS:
            return
        try:
            frame = decode_frame(data)
        except DecodeError:
            return
        if kind is AttackKind.ASSOC_REPLAY:
            replayed = frame.subtype is FrameSubtype.ASSOC_REQUEST
        else:
            replayed = frame.subtype in TEARDOWN_SUBTYPES and frame.token is not None
        if replayed:
            self.captures.append(data)

    @cached_property
    def _deauth(self) -> bytes:
        """This attack's deauthentication, encoded once.

        A token guess's carries a placeholder token, which each guess
        replaces.
        """
        cfg = self.cfg
        token = bytes(TOKEN_PAYLOAD_SIZE) if cfg.kind is AttackKind.TOKEN_GUESS else None
        return encode_frame(
            ManagementFrame(
                FrameSubtype.DEAUTHENTICATION, cfg.spoof_src, cfg.target, cfg.reason, token=token
            )
        )

    @cached_property
    def _randbytes(self):
        """This attacker's guess stream: one ``Random(cfg.seed)`` for all its steps."""
        return Random(self.cfg.seed).randbytes

    def frames(self) -> tuple[bytes, ...]:
        """Build one attack step, a tuple of ``bytes`` ready to inject as is.

        Forged deauths are one token-less frame, encoded once per
        attacker and repeated.  Token guesses each reveal the next
        ``randbytes(16)`` of this attacker's ``Random(cfg.seed)``, which
        each call continues: each guess is the deauthentication's bytes
        up to the placeholder token followed by the draw, the same bytes
        as encoding each guess whole.  Replays re-send the capture
        verbatim.
        """
        cfg = self.cfg
        if cfg.kind is AttackKind.FORGED_DEAUTH:
            return (self._deauth,) * cfg.frame_count
        if cfg.kind is AttackKind.TOKEN_GUESS:
            prefix, randbytes = self._deauth[:-TOKEN_PAYLOAD_SIZE], self._randbytes
            return tuple(prefix + randbytes(TOKEN_PAYLOAD_SIZE) for _ in range(cfg.frame_count))
        if not self.captures:
            if cfg.kind is AttackKind.ASSOC_REPLAY:
                raise NoCapturedAssoc("no association request was sniffed")
            raise NoCapturedDeauth("no token-bearing teardown was sniffed")
        return tuple(self.captures) * cfg.frame_count
