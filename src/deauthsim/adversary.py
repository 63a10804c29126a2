"""Attack traffic: ``Adversary`` is the one place attack frames are built.

Attackers are remote-network adversaries: they spoof source MACs,
inject raw bytes through the medium, and sniff promiscuously, but never
touch station internals.  Four attacks are modeled:

* ``FORGED_DEAUTH``: bare teardown frames with a spoofed source, the
  classic token-less disconnect flood.
* ``TOKEN_GUESS``: teardown frames carrying uniformly random 16-byte
  tokens; with 122 secret bits per real token, a blind guess's hit
  probability is negligible.  It is not for an attacker who uses the
  tokens a seeded station reveals: 156 of them predict its MT19937
  stream, an attack not modelled here.  Each attacker draws its guesses
  from one ``Random(cfg.seed)``, so a second attack step continues the
  stream and never repeats the first step's guesses.
* ``ASSOC_REPLAY``: re-emits a sniffed association request verbatim,
  trying to ride an old hash commitment past the AP.
* ``DEAUTH_REPLAY``: re-emits a sniffed token-revealing teardown
  verbatim.

``REPLAYS`` is the one table of the kinds that sniff: for each replay
kind, the rule that picks the frames it keeps and the words naming what
it needs.  Adding a kind is one enum value and, if it sniffs, one table
entry.  A replay attacker keeps at most one capture: the first sniffed
frame its rule picks, as raw bytes.  Every other sniffed frame is
dropped as soon as it is seen.

Each ``Adversary`` attaches itself to the medium as an injector and
holds the ``Handle`` it gets, as a station does after
``bind_transmit``; an attack step is sent through that handle.  Only a
kind in ``REPLAYS`` is attached with a sniff callback, its bound
``on_sniffed(src, data)``, which ignores every frame an attacker sent,
its own included.  A tap sees every frame, so a flood attacker with a
callback would pay one Python call per frame, and would make the medium
hand every station each copy of a flood as a call of its own.

Known limitation, by design: a revealed token is a bearer credential
until the frame carrying it is accepted.  A replayed copy that races
ahead of the legitimate teardown is accepted in its place; the replay
only loses once the session record is gone.  The defense narrows the
attack window from the whole session to one in-flight frame, it does
not add sender authentication.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from random import Random

from .frames import (
    TEARDOWN_SUBTYPES,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    DecodeError,
    decode_frame,
    encode_frame,
)
from .medium import Handle, Medium
from .tokens import TOKEN_SIZE

DEFAULT_REASON = 3

# An attack step is one tuple, built whole before it is sent and kept
# as is by the log, so the count is capped: a one-line config must not
# exhaust memory.  At the cap a forged step's log costs 8 MB, unicast
# or broadcast (one reference to its frame per frame); a token guess's
# distinct 34-byte frames add about 70 MB.
MAX_FRAME_COUNT = 1_000_000


class AdversaryError(Exception):
    """An attack step could not be built: a replay with nothing captured."""


class AttackKind(Enum):
    FORGED_DEAUTH = "forged_deauth"
    TOKEN_GUESS = "token_guess"
    ASSOC_REPLAY = "assoc_replay"
    DEAUTH_REPLAY = "deauth_replay"


# How a replay kind sniffs: ``keeps(frame)`` picks the frames it may
# replay, and ``needs`` names them, for the error when it has none.
Replay = namedtuple("Replay", "keeps needs")

# The only kinds that build their frames from sniffed traffic.
REPLAYS = {
    AttackKind.ASSOC_REPLAY: Replay(
        lambda frame: frame.subtype is FrameSubtype.ASSOC_REQUEST, "association request"
    ),
    AttackKind.DEAUTH_REPLAY: Replay(
        lambda frame: frame.subtype in TEARDOWN_SUBTYPES and frame.token is not None,
        "token-bearing teardown",
    ),
}
REPLAY_KINDS = frozenset(REPLAYS)


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


class Adversary:
    """One attacker: attaches itself, sniffs through its tap, builds and sends its frames.

    This is the only attack-frame builder.  ``attach`` gives it its
    ``handle`` and the endpoint ids of every attacker, whose frames it
    never keeps.  A replay kind keeps at most one capture, the first
    station frame its ``REPLAYS`` rule picks; the other kinds keep
    nothing and are attached with no sniff callback.
    """

    def __init__(self, cfg: AttackerConfig, endpoint_id: str):
        self.cfg = cfg
        self.endpoint_id = endpoint_id
        self.captures: list[bytes] = []
        self.attackers: frozenset[str] = frozenset()
        self.handle: Handle | None = None
        # This attack's deauthentication, encoded once; a token guess's
        # carries a placeholder token, which each guess replaces.
        token = bytes(TOKEN_SIZE) if cfg.kind is AttackKind.TOKEN_GUESS else None
        deauth = ManagementFrame(
            FrameSubtype.DEAUTHENTICATION, cfg.spoof_src, cfg.target, cfg.reason, token=token
        )
        self._deauth = encode_frame(deauth)
        # This attacker's guess stream: one Random(cfg.seed) for all its steps.
        self._getrandbits = Random(cfg.seed).getrandbits

    def attach(self, medium: Medium, attackers: frozenset[str]) -> None:
        """Attach to ``medium`` as an injector; sniff only if this kind replays."""
        self.attackers = attackers
        sniff = self.on_sniffed if self.cfg.kind in REPLAY_KINDS else None
        self.handle = medium.attach(self.endpoint_id, None, sniff, injector=True)

    def on_sniffed(self, src: str, data: bytes) -> None:
        """Keep the first frame a non-attacker ``src`` sent that this kind replays."""
        replay = REPLAYS.get(self.cfg.kind)
        if replay is None or self.captures or src in self.attackers:
            return
        try:
            frame = decode_frame(data)
        except DecodeError:
            return
        if replay.keeps(frame):
            self.captures.append(data)

    def attack(self) -> None:
        """Send one attack step through this attacker's handle, as one queue entry."""
        self.handle.send(self.frames())

    def frames(self) -> tuple[bytes, ...]:
        """Build one attack step, a tuple of ``bytes`` ready to inject as is.

        Forged deauths are one token-less frame, encoded once per
        attacker and repeated.  Token guesses each reveal the next
        ``randbytes(16)`` of this attacker's ``Random(cfg.seed)``, which
        each call continues.  The bytes are drawn as ``randbytes`` draws
        them, ``getrandbits(128).to_bytes(16, "little")``, without its
        Python-level call.  Each guess is the deauthentication's bytes
        up to the placeholder token followed by the draw, the same bytes
        as encoding each guess whole.  Replays re-send the capture
        verbatim.
        """
        cfg = self.cfg
        if cfg.kind is AttackKind.FORGED_DEAUTH:
            return (self._deauth,) * cfg.frame_count
        if cfg.kind is AttackKind.TOKEN_GUESS:
            prefix, getrandbits = self._deauth[:-TOKEN_SIZE], self._getrandbits
            nbits = 8 * TOKEN_SIZE
            return tuple(
                prefix + getrandbits(nbits).to_bytes(TOKEN_SIZE, "little")
                for _ in range(cfg.frame_count)
            )
        if not self.captures:
            raise AdversaryError(f"no {REPLAYS[cfg.kind].needs} was sniffed")
        return tuple(self.captures) * cfg.frame_count
