"""Client and access point protocol logic.

Stations track a three-state lifecycle per peer:

    UNAUTH_UNASSOC -> AUTH_UNASSOC -> AUTH_ASSOC

The state is derived, never stored: a peer is AUTH_ASSOC exactly while
it has a record in ``Station.sessions``, else AUTH_UNASSOC while it is in
``Station.authenticated``, else UNAUTH_UNASSOC.  A verified
deauthentication deletes the session and forgets the authentication, so
the peer drops back to UNAUTH_UNASSOC; a verified disassociation deletes
only the session, so it drops back to AUTH_UNASSOC.

Protected mode implements the token handshake: the client commits to a
secret token by sending its SHA-512 digest as the association request's
``commitment``, the AP answers with a digest of its own token, and from
then on a teardown frame counts only if its ``token`` hashes to the
stored peer commitment; both are plain bytes.  Legacy mode models stock
behavior, where any teardown frame from a peer with a session is
honored unchecked; that is the spoofing hole the tokens close.

Reason code dispatch for protected-mode teardown frames:

    code        action
    ----------  ------------------------------------------------
    0           ignore (reserved)
    1           reject, unconditionally, token or not
    2, 6, 7, 9  ignore: sender claims no standing to tear down
    3, 4, 5, 8  verify token; accept and delete or else ignore
    10-65535    ignore (reserved)

Accepting a teardown deletes the session record outright, so an exact
replay of the same frame finds no session and is ignored: revealed
tokens are single-use.

``receive_frame`` picks each frame's handler by subtype, once: every
teardown addressed here goes to ``verify_deauth``, and each role's
``_dispatch`` hands its own association frames to its handler.  No
handler checks the subtype again.  Every frame a handler judges gets a
verdict; an association response with no request in flight is ignored
as ``no_request``.

Only a teardown that is not accepted has a verdict safe to repeat: its
IGNORE or REJECT changes no state and sends nothing, so another copy of
the same frame, with nothing handled in between, gets the same verdict.
An ACCEPT deletes a session, and a handshake frame is answered each
time.  ``receive_frame`` judges every frame it is handed; a flood's
further copies reach a station as one count only through the medium
(``scenario.ScenarioRun``).

Beside it, ``receive_frames`` judges a stretch of a queue entry handed
over in one call, in order, with the verdicts ``receive_frame`` would
give its frames one by one.  A frame with the size and the first
``frames.TOKEN_OFFSET`` bytes of a frame just judged ``token_mismatch``
or ``no_session`` differs from that frame only in its token, and
nothing has changed since.  So it finds no session either, or only its
token is hashed and compared with the stored commitment.  A match, or
any other frame, goes through ``receive_frame``: an accepted guess in
the middle deletes the session, and the guesses after it find none.

A station builds each frame it sends as ``decode_frame`` builds one,
with ``tuple.__new__``, skipping ``ManagementFrame``'s checks: it fixes
every field itself.  The addresses are its own MAC and a peer key, the
status is a constant or the reason one already checked against
``TEARDOWN_REASONS``, and the payload a 64-byte ``hash_token`` digest or
a 16-byte ``generate_token`` token.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from random import Random
from typing import Callable

from .frames import (
    BROADCAST,
    TEARDOWN_SUBTYPES,
    TOKEN_FRAME_SIZE,
    TOKEN_OFFSET,
    DecodeError,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    decode_frame,
    encode_frame,
)
from .tokens import generate_token, hash_token

# Reason codes on which a verified teardown is legitimate.
TEARDOWN_REASONS = frozenset({3, 4, 5, 8})

STATUS_SUCCESS = 0
STATUS_REFUSED = 1


class WrongState(Exception):
    """Operation not valid in the peer's current lifecycle state."""


class LifecycleState(IntEnum):
    UNAUTH_UNASSOC = 1
    AUTH_UNASSOC = 2
    AUTH_ASSOC = 3


class Action(Enum):
    ACCEPT = "accept"
    IGNORE = "ignore"
    REJECT = "reject"


@dataclass(frozen=True)
class Verdict:
    """Outcome of handling one inbound frame, with a stable cause tag."""

    action: Action
    cause: str


# Every verdict a station can hand out, built once.
_REJECT_UNSPECIFIED_REASON = Verdict(Action.REJECT, "unspecified_reason")
_IGNORE_UNAUTHENTICATED_SENDER = Verdict(Action.IGNORE, "unauthenticated_sender")
_IGNORE_RESERVED_CODE = Verdict(Action.IGNORE, "reserved_code")
_IGNORE_NO_SESSION = Verdict(Action.IGNORE, "no_session")
_IGNORE_NO_TOKEN = Verdict(Action.IGNORE, "no_token")
_IGNORE_TOKEN_MISMATCH = Verdict(Action.IGNORE, "token_mismatch")
_ACCEPT_TOKEN_VERIFIED = Verdict(Action.ACCEPT, "token_verified")
_ACCEPT_LEGACY_NO_CHECK = Verdict(Action.ACCEPT, "legacy_no_check")
_REJECT_ASSOC_REFUSED = Verdict(Action.REJECT, "assoc_refused")
_REJECT_MISSING_HASH = Verdict(Action.REJECT, "missing_hash")
_ACCEPT_ASSOC_CONFIRMED = Verdict(Action.ACCEPT, "assoc_confirmed")
_IGNORE_NO_REQUEST = Verdict(Action.IGNORE, "no_request")
_ACCEPT_LEGACY_ASSOC = Verdict(Action.ACCEPT, "legacy_assoc")
_REJECT_REPLAYED_HASH = Verdict(Action.REJECT, "replayed_hash")
_ACCEPT_HASH_RECORDED = Verdict(Action.ACCEPT, "hash_recorded")

# The protected-mode verdict on each reason that is not a teardown
# reason; every code missing here is reserved.
_NON_TEARDOWN_VERDICTS = {1: _REJECT_UNSPECIFIED_REASON}
# The sender claims it was never authenticated or associated.
_NON_TEARDOWN_VERDICTS.update(dict.fromkeys((2, 6, 7, 9), _IGNORE_UNAUTHENTICATED_SENDER))


@dataclass
class SessionRecord:
    """One side's secrets for an established (or in-flight) association.

    Holds this side's 16 raw token bytes and their digest, and the
    peer's commitment once known (``None`` in legacy mode and while a
    request is in flight).  The peer is the record's key in
    ``sessions`` or ``pending``; being a key in ``sessions`` is what
    makes the peer AUTH_ASSOC.
    """

    own_token: bytes
    own_hash: bytes
    peer_hash: bytes | None


class Station:
    """Shared machinery: lifecycle tracking and teardown verification."""

    def __init__(self, mac: MacAddress, *, rng: Random, protected: bool = True):
        self.mac = mac
        self.protected = protected
        self.rng = rng
        self.sessions: dict[MacAddress, SessionRecord] = {}
        # Peers that authenticated; those with a session are associated too.
        self.authenticated: set[MacAddress] = set()
        self._transmit: Callable[[tuple[bytes, ...]], None] | None = None

    # -- wiring ------------------------------------------------------

    def bind_transmit(self, transmit: Callable[[tuple[bytes, ...]], None]) -> None:
        """Attach the callable that puts encoded frames on the air, as a tuple."""
        self._transmit = transmit

    def _send(self, frame: ManagementFrame) -> None:
        if self._transmit is not None:
            self._transmit((encode_frame(frame),))

    # -- lifecycle ---------------------------------------------------

    def state_toward(self, peer: MacAddress) -> LifecycleState:
        if peer in self.sessions:
            return LifecycleState.AUTH_ASSOC
        if peer in self.authenticated:
            return LifecycleState.AUTH_UNASSOC
        return LifecycleState.UNAUTH_UNASSOC

    def _new_session(self, peer_hash: bytes | None) -> tuple[SessionRecord, bytes | None]:
        """Draw this side's token and commit to it.

        Returns the record and the commitment this side sends: the
        token's digest in protected mode, ``None`` in legacy mode.
        """
        token = generate_token(self.rng)
        record = SessionRecord(token, hash_token(token), peer_hash)
        return record, record.own_hash if self.protected else None

    def _delete_session(self, peer: MacAddress, subtype: FrameSubtype) -> None:
        del self.sessions[peer]
        if subtype is not FrameSubtype.DISASSOCIATION:
            self.authenticated.discard(peer)

    # -- teardown ----------------------------------------------------

    def make_verified_deauth(self, peer: MacAddress, reason: int) -> ManagementFrame:
        """Build a teardown frame, revealing this side's token when protected.

        Reason 8 is a disassociation; 3, 4 and 5 are deauthentications;
        any other reason is a ``ValueError`` in both modes.  Requires a
        session with ``peer``, else ``WrongState``.
        """
        if reason not in TEARDOWN_REASONS:
            raise ValueError(f"reason {reason} is not a normal-disconnect code")
        record = self.sessions.get(peer)
        if record is None:
            raise WrongState(f"no established session with {peer}")
        subtype = FrameSubtype.DISASSOCIATION if reason == 8 else FrameSubtype.DEAUTHENTICATION
        token = record.own_token if self.protected else None
        return tuple.__new__(ManagementFrame, (subtype, self.mac, peer, reason, None, token))

    def begin_teardown(self, peer: MacAddress, reason: int) -> ManagementFrame:
        """Send a teardown to ``peer`` and drop the local session."""
        frame = self.make_verified_deauth(peer, reason)
        self._send(frame)
        self._delete_session(peer, frame.subtype)
        return frame

    def teardown_all(self, reason: int) -> list[ManagementFrame]:
        """Tear down every live session, one frame per peer."""
        return [self.begin_teardown(peer, reason) for peer in list(self.sessions)]

    # -- verification ------------------------------------------------

    def verify_deauth(self, frame: ManagementFrame) -> Verdict:
        """Judge an inbound teardown frame (a deauthentication or disassociation).

        Legacy mode honors any teardown from a peer with a session.
        Protected mode accepts only a normal-disconnect reason code
        from a peer with a live session, revealing a token that hashes
        to the stored peer commitment.  Either way an accepted teardown
        deletes the session.  Protected mode ignores everything else,
        except reason 1, which it rejects outright, token or no token.
        """
        if not self.protected:
            if frame.src not in self.sessions:
                return _IGNORE_NO_SESSION
            self._delete_session(frame.src, frame.subtype)
            return _ACCEPT_LEGACY_NO_CHECK
        reason = frame.status_or_reason
        if reason not in TEARDOWN_REASONS:
            return _NON_TEARDOWN_VERDICTS.get(reason, _IGNORE_RESERVED_CODE)

        record = self.sessions.get(frame.src)
        if record is None:
            return _IGNORE_NO_SESSION
        if frame.token is None:
            return _IGNORE_NO_TOKEN
        if hash_token(frame.token) != record.peer_hash:
            return _IGNORE_TOKEN_MISMATCH

        self._delete_session(frame.src, frame.subtype)
        return _ACCEPT_TOKEN_VERIFIED

    # -- medium interface --------------------------------------------

    def receive_frame(self, data: bytes) -> tuple[ManagementFrame, Verdict] | None:
        """Decode and handle one frame off the air.

        Returns the frame and the verdict its handler gave, or ``None``
        for frames that decode badly, are not addressed here, carry the
        other role's handshake subtype, or are authentication frames,
        which are answered without a verdict.
        """
        try:
            frame = decode_frame(data)
        except DecodeError:
            return None
        if frame.dst != self.mac and frame.dst != BROADCAST:
            return None
        if frame.subtype in TEARDOWN_SUBTYPES:
            return frame, self.verify_deauth(frame)
        return self._dispatch(frame)  # each role answers its own handshake frames

    def receive_frames(self, frames: tuple[bytes, ...], start: int, stop: int) -> list[list]:
        """Judge ``frames[start:stop]`` in order, as ``receive_frame`` would one by one.

        Returns one ``[frame, verdict, count]`` per frame given a verdict,
        in order, where ``count`` frames in a row got it: that frame and
        the ones after it judged without a decode.  After a
        ``token_mismatch`` or a ``no_session``, a frame of the same size
        with the same first ``TOKEN_OFFSET`` bytes differs only in its
        token, so it gets ``no_session`` again, or has only its token
        hashed and compared with the commitment.  A match, or any other
        frame, goes through ``receive_frame``.
        """
        # The verdicts so far, and the last frame's bytes before its token
        # with its sender's session, while it got one of those two.
        judged, prefix, record = [], None, None
        # Indexed: islice would step through ``frames[:start]`` first, and
        # ``map(frames.__getitem__, ...)`` costs a call per frame.
        for index in range(start, stop):
            data = frames[index]
            if len(data) == TOKEN_FRAME_SIZE and data[:TOKEN_OFFSET] == prefix:
                if record is None or hash_token(data[TOKEN_OFFSET:]) != record.peer_hash:
                    judged[-1][2] += 1
                    continue
            result = self.receive_frame(data)
            prefix = None
            if result is not None:
                judged.append([*result, 1])
                if result[1] is _IGNORE_TOKEN_MISMATCH or result[1] is _IGNORE_NO_SESSION:
                    prefix, record = data[:TOKEN_OFFSET], self.sessions.get(result[0].src)
        return judged


class ClientStation(Station):
    """Joins an AP, then defends the session against forged teardowns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending: dict[MacAddress, SessionRecord] = {}
        self._join_targets: set[MacAddress] = set()

    def start_join(self, ap: MacAddress) -> None:
        """Kick off the full join handshake toward ``ap``.

        Sends the authentication request; once the AP's answer arrives,
        ``_dispatch`` resumes the join by calling ``start_join`` again.
        A client still authenticated (AUTH_UNASSOC) sends the association
        request at once; no other method sends it.  One already
        associated raises ``WrongState``.
        """
        if self.state_toward(ap) >= LifecycleState.AUTH_UNASSOC:
            self._send(self.begin_association(ap)[0])
            return
        self._join_targets.add(ap)
        self._send(
            tuple.__new__(
                ManagementFrame,
                (FrameSubtype.AUTH_REQUEST, self.mac, ap, STATUS_SUCCESS, None, None),
            )
        )

    def begin_association(
        self, ap: MacAddress
    ) -> tuple[ManagementFrame, SessionRecord]:
        """Generate this side's token and build the association request.

        In protected mode the request carries the token's SHA-512
        digest; legacy requests are bare.  Requires the peer to be in
        AUTH_UNASSOC, else ``WrongState``.
        """
        state = self.state_toward(ap)
        if state is not LifecycleState.AUTH_UNASSOC:
            raise WrongState(
                f"{self.mac} cannot associate with {ap} from {state.name}, need AUTH_UNASSOC"
            )
        record, commitment = self._new_session(None)
        self.pending[ap] = record
        frame = tuple.__new__(
            ManagementFrame,
            (FrameSubtype.ASSOC_REQUEST, self.mac, ap, STATUS_SUCCESS, commitment, None),
        )
        return frame, record

    def handle_assoc_response(self, frame: ManagementFrame) -> Verdict:
        """Complete (or abandon) the association in flight with the sender.

        A response with no request in flight to its sender is ignored
        (``no_request``) and changes nothing.  Otherwise the request is
        settled: a refusal is ``assoc_refused``, a protected success
        without the AP's digest ``missing_hash``, and any other success
        makes the session (``assoc_confirmed``).
        """
        record = self.pending.pop(frame.src, None)
        if record is None:
            return _IGNORE_NO_REQUEST
        if frame.status_or_reason != STATUS_SUCCESS:
            return _REJECT_ASSOC_REFUSED
        if self.protected:
            if frame.commitment is None:
                return _REJECT_MISSING_HASH
            record.peer_hash = frame.commitment
        self.sessions[frame.src] = record
        return _ACCEPT_ASSOC_CONFIRMED

    def _dispatch(self, frame: ManagementFrame) -> tuple[ManagementFrame, Verdict] | None:
        if frame.subtype is FrameSubtype.AUTH_RESPONSE:
            if frame.status_or_reason == STATUS_SUCCESS:
                self.authenticated.add(frame.src)
                if frame.src in self._join_targets:
                    self._join_targets.discard(frame.src)
                    self.start_join(frame.src)
            return None
        if frame.subtype is FrameSubtype.ASSOC_RESPONSE:
            return frame, self.handle_assoc_response(frame)
        return None


class AccessPoint(Station):
    """Answers joins and keeps the replay ledger of seen hash commitments."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen_hashes: set[bytes] = set()

    def handle_assoc_request(
        self, frame: ManagementFrame
    ) -> tuple[ManagementFrame, Verdict]:
        """Judge an association request and build the response.

        The first matching rule decides: legacy mode accepts; protected
        mode refuses a request with no hash commitment, then one
        replaying a commitment seen before, whether or not the original
        session still exists, and records any other commitment for the
        life of the AP.  The response's status follows the verdict's
        action.  Only an accepted request makes a session and draws the
        AP's own token; a protected response carries its digest.
        """
        src, peer_hash = frame.src, frame.commitment
        if not self.protected:
            verdict, peer_hash = _ACCEPT_LEGACY_ASSOC, None
        elif peer_hash is None:
            verdict = _REJECT_MISSING_HASH
        elif peer_hash in self.seen_hashes:
            verdict = _REJECT_REPLAYED_HASH
        else:
            verdict = _ACCEPT_HASH_RECORDED
            self.seen_hashes.add(peer_hash)

        status, commitment = STATUS_REFUSED, None
        if verdict.action is Action.ACCEPT:
            self.authenticated.add(src)
            self.sessions[src], commitment = self._new_session(peer_hash)
            status = STATUS_SUCCESS
        response = tuple.__new__(
            ManagementFrame, (FrameSubtype.ASSOC_RESPONSE, self.mac, src, status, commitment, None)
        )
        return response, verdict

    def _dispatch(self, frame: ManagementFrame) -> tuple[ManagementFrame, Verdict] | None:
        if frame.subtype is FrameSubtype.AUTH_REQUEST:
            # Keeps no state for a spoofable source: handle_assoc_request
            # records the authentication itself.
            self._send(
                tuple.__new__(
                    ManagementFrame,
                    (FrameSubtype.AUTH_RESPONSE, self.mac, frame.src, STATUS_SUCCESS, None, None),
                )
            )
            return None
        if frame.subtype is FrameSubtype.ASSOC_REQUEST:
            response, verdict = self.handle_assoc_request(frame)
            self._send(response)
            return frame, verdict
        return None
