"""Protocol logic: lifecycle, handshake, teardown verdicts, replays."""

import copy
from enum import Enum
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from deauthsim.frames import (
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    decode_frame,
    encode_frame,
)
from deauthsim.stations import (
    STATUS_REFUSED,
    Action,
    ClientStation,
    LifecycleState,
    WrongState,
)
from deauthsim.tokens import generate_token, hash_token
from helpers import AP_MAC, CLIENT_MAC, OTHER_MAC, auth_success, complete_handshake, make_pair
from sha512_reference import sha512_reference

S1 = LifecycleState.UNAUTH_UNASSOC
S2 = LifecycleState.AUTH_UNASSOC
S3 = LifecycleState.AUTH_ASSOC


class LifecycleEvent(Enum):
    """The stimuli of the lifecycle table, each sent to the client by the AP."""

    AUTH_OK = "an authentication response"
    ASSOC_OK = "begin_association, answered by the AP"
    VERIFIED_DISASSOC = "a verified reason-8 teardown"
    VERIFIED_DEAUTH = "a verified reason-3 teardown"


# The client's answer when it has no session to verify a teardown against.
NO_SESSION = "no_session"


class TestTransition:
    """The full 3x4 lifecycle table, driven through a client's public API.

    Each entry is the client's state toward the AP afterwards, or
    ``WrongState`` when the client refuses the step, or ``NO_SESSION``
    when it ignores a teardown and keeps its state.  A teardown is
    verified only from AUTH_ASSOC: in the other states there is no
    session, so the AP's frame carries a token nothing can check.
    """

    TABLE = {
        (S1, LifecycleEvent.AUTH_OK): S2,
        (S2, LifecycleEvent.AUTH_OK): S2,
        (S3, LifecycleEvent.AUTH_OK): S3,
        (S1, LifecycleEvent.ASSOC_OK): WrongState,
        (S2, LifecycleEvent.ASSOC_OK): S3,
        (S3, LifecycleEvent.ASSOC_OK): WrongState,
        (S1, LifecycleEvent.VERIFIED_DISASSOC): NO_SESSION,
        (S2, LifecycleEvent.VERIFIED_DISASSOC): NO_SESSION,
        (S3, LifecycleEvent.VERIFIED_DISASSOC): S2,
        (S1, LifecycleEvent.VERIFIED_DEAUTH): NO_SESSION,
        (S2, LifecycleEvent.VERIFIED_DEAUTH): NO_SESSION,
        (S3, LifecycleEvent.VERIFIED_DEAUTH): S1,
    }

    def test_table_is_exhaustive(self):
        assert len(self.TABLE) == len(LifecycleState) * len(LifecycleEvent)

    @staticmethod
    def _stimulate(client, ap, event):
        if event is LifecycleEvent.AUTH_OK:
            frame = ManagementFrame(FrameSubtype.AUTH_RESPONSE, AP_MAC, CLIENT_MAC, 0)
        elif event is LifecycleEvent.ASSOC_OK:
            request, _ = client.begin_association(AP_MAC)
            frame, _ = ap.handle_assoc_request(request)
        else:
            reason = 8 if event is LifecycleEvent.VERIFIED_DISASSOC else 3
            if CLIENT_MAC in ap.sessions:
                frame = ap.begin_teardown(CLIENT_MAC, reason)
            else:
                subtype = (
                    FrameSubtype.DISASSOCIATION if reason == 8 else FrameSubtype.DEAUTHENTICATION
                )
                token = b"\x42" * 16 if client.protected else None
                frame = ManagementFrame(subtype, AP_MAC, CLIENT_MAC, reason, token=token)
        return client.receive_frame(encode_frame(frame))

    @pytest.mark.parametrize("state", list(LifecycleState))
    @pytest.mark.parametrize("event", list(LifecycleEvent))
    def test_every_pair(self, state, event):
        expected = self.TABLE[(state, event)]
        for protected in (True, False):
            client, ap = make_pair(protected=protected)
            if state is S2:
                auth_success(client, ap)
            elif state is S3:
                complete_handshake(client, ap)
            assert client.state_toward(AP_MAC) is state
            if expected is WrongState:
                with pytest.raises(WrongState):
                    self._stimulate(client, ap, event)
                assert client.state_toward(AP_MAC) is state
                continue
            result = self._stimulate(client, ap, event)
            if expected == NO_SESSION:
                assert result[1].cause == NO_SESSION, protected
                assert client.state_toward(AP_MAC) is state, protected
            else:
                assert result is None or result[1].action is Action.ACCEPT, protected
                assert client.state_toward(AP_MAC) is expected, protected


class TestHandshake:
    def test_association_request_carries_token_digest(self):
        client, ap = make_pair()
        auth_success(client, ap)
        request, pending = client.begin_association(ap.mac)
        assert request.subtype is FrameSubtype.ASSOC_REQUEST
        assert request.commitment is not None
        assert request.commitment == sha512_reference(pending.own_token), (
            "the request must commit to the client token via its SHA-512 digest"
        )
        assert pending.own_hash == request.commitment
        assert pending.peer_hash is None

    def test_auth_request_leaves_no_ap_state(self):
        # Authentication requests carry a spoofable source, so answering
        # them must not grow the AP's per-peer state.
        _, ap = make_pair()
        sent = []
        ap.bind_transmit(sent.extend)
        for i in range(1000):
            spoofed = MacAddress(bytes([2, 0, 0, 0, i >> 8, i & 0xFF]))
            ap.receive_frame(
                encode_frame(ManagementFrame(FrameSubtype.AUTH_REQUEST, spoofed, AP_MAC, 0))
            )
        assert ap.authenticated == set() and ap.sessions == {}
        assert len(sent) == 1000
        assert all(decode_frame(raw).subtype is FrameSubtype.AUTH_RESPONSE for raw in sent)

    def test_full_join_reaches_auth_assoc_on_both_sides(self):
        client, ap = make_pair()
        request, response = complete_handshake(client, ap)
        assert client.state_toward(ap.mac) is S3
        assert ap.state_toward(client.mac) is S3
        client_record = client.sessions[ap.mac]
        ap_record = ap.sessions[client.mac]
        assert client_record.peer_hash == ap_record.own_hash, (
            "client must store the digest of the AP token"
        )
        assert ap_record.peer_hash == client_record.own_hash

    def test_session_records_satisfy_hash_invariant(self):
        for protected in (True, False):
            client, ap = make_pair(protected=protected)
            complete_handshake(client, ap)
            for record in (client.sessions[ap.mac], ap.sessions[client.mac]):
                assert record.own_hash == hash_token(record.own_token), protected
            # Each side's token is the first draw from its rng (make_pair
            # seeds 7 and 8) in both modes.  A legacy AP's token never
            # reaches the wire, so no event log would show a moved or
            # dropped draw.
            ap_token = ap.sessions[client.mac].own_token
            assert ap_token == generate_token(Random(8)), protected
            client_token = client.sessions[ap.mac].own_token
            assert client_token == generate_token(Random(7)), protected

    def test_ap_hash_ends_up_in_seen_set(self):
        client, ap = make_pair()
        request, _ = complete_handshake(client, ap)
        assert request.commitment in ap.seen_hashes

    def test_begin_association_requires_auth_unassoc(self):
        client, ap = make_pair()
        with pytest.raises(WrongState):
            client.begin_association(ap.mac)  # still UNAUTH_UNASSOC
        complete_handshake(client, ap)
        with pytest.raises(WrongState):
            client.begin_association(ap.mac)  # already AUTH_ASSOC

    def test_assoc_response_without_pending_is_ignored(self):
        client, _ = make_pair()
        frame = ManagementFrame(FrameSubtype.ASSOC_RESPONSE, AP_MAC, CLIENT_MAC, 0)
        verdict = client.handle_assoc_response(frame)
        assert (verdict.action, verdict.cause) == (Action.IGNORE, "no_request")
        assert client.sessions == {} and client.pending == {}

    def test_refusal_of_a_replayed_request_is_ignored_by_the_client(self):
        # protected_assoc_replay's path: the AP refuses a captured copy of
        # the request, and its refusal reaches the client, which has no
        # request in flight any more.
        client, ap = make_pair()
        request, _ = complete_handshake(client, ap)
        record = client.sessions[AP_MAC]
        refusal, verdict = ap.handle_assoc_request(request)
        assert verdict.cause == "replayed_hash"
        frame, verdict = client.receive_frame(encode_frame(refusal))
        assert frame == refusal
        assert (verdict.action, verdict.cause) == (Action.IGNORE, "no_request")
        assert client.sessions == {AP_MAC: record} and client.pending == {}
        assert client.state_toward(AP_MAC) is S3

    def test_forged_response_during_authentication_is_ignored(self):
        # Only the authentication request is in flight, so a success
        # response forged from the AP finds no request to settle, and the
        # AP's own answers still complete the join.
        client, ap = make_pair()
        to_ap, to_client = [], []
        client.bind_transmit(to_ap.extend)
        ap.bind_transmit(to_client.extend)
        client.start_join(AP_MAC)
        forged = ManagementFrame(
            FrameSubtype.ASSOC_RESPONSE, AP_MAC, CLIENT_MAC, 0, b"\x42" * 64
        )
        _, verdict = client.receive_frame(encode_frame(forged))
        assert (verdict.action, verdict.cause) == (Action.IGNORE, "no_request")
        assert client.sessions == {} and client.pending == {}
        for _ in range(2):  # authentication, then association
            ap.receive_frame(to_ap.pop())
            result = client.receive_frame(to_client.pop())
        assert to_ap == [] and to_client == []
        assert result[1].cause == "assoc_confirmed"
        assert client.state_toward(AP_MAC) is S3 and ap.state_toward(CLIENT_MAC) is S3
        assert client.sessions[AP_MAC].peer_hash == ap.sessions[CLIENT_MAC].own_hash

    def test_refused_response_keeps_client_unassociated(self):
        client, ap = make_pair()
        auth_success(client, ap)
        client.begin_association(ap.mac)
        refusal = ManagementFrame(FrameSubtype.ASSOC_RESPONSE, AP_MAC, CLIENT_MAC, 1)
        verdict = client.handle_assoc_response(refusal)
        assert verdict.action is Action.REJECT
        assert verdict.cause == "assoc_refused"
        assert ap.mac not in client.sessions
        assert client.state_toward(ap.mac) is S2

    def test_success_response_without_hash_rejected_in_protected_mode(self):
        client, ap = make_pair()
        auth_success(client, ap)
        client.begin_association(ap.mac)
        bare = ManagementFrame(FrameSubtype.ASSOC_RESPONSE, AP_MAC, CLIENT_MAC, 0)
        verdict = client.handle_assoc_response(bare)
        assert (verdict.action, verdict.cause) == (Action.REJECT, "missing_hash")
        assert ap.mac not in client.sessions

    def test_request_without_hash_refused_by_protected_ap(self):
        _, ap = make_pair()
        bare = ManagementFrame(FrameSubtype.ASSOC_REQUEST, CLIENT_MAC, AP_MAC, 0)
        response, verdict = ap.handle_assoc_request(bare)
        assert (verdict.action, verdict.cause) == (Action.REJECT, "missing_hash")
        assert response.status_or_reason == 1 and response.commitment is None
        assert CLIENT_MAC not in ap.sessions


class TestReplayLockout:
    def test_replayed_hash_rejected_during_session(self):
        client, ap = make_pair()
        request, _ = complete_handshake(client, ap)
        response, verdict = ap.handle_assoc_request(request)
        assert (verdict.action, verdict.cause) == (Action.REJECT, "replayed_hash")
        assert response.status_or_reason == 1

    def test_replayed_hash_rejected_after_session_ended(self):
        client, ap = make_pair()
        request, _ = complete_handshake(client, ap)
        frame = client.begin_teardown(ap.mac, 3)
        assert ap.verify_deauth(frame).action is Action.ACCEPT
        assert client.mac not in ap.sessions
        _, verdict = ap.handle_assoc_request(request)
        assert (verdict.action, verdict.cause) == (Action.REJECT, "replayed_hash")

    def test_replay_from_different_mac_also_rejected(self):
        client, ap = make_pair()
        request, _ = complete_handshake(client, ap)
        stolen = ManagementFrame(
            FrameSubtype.ASSOC_REQUEST, OTHER_MAC, AP_MAC, 0, request.commitment
        )
        _, verdict = ap.handle_assoc_request(stolen)
        assert (verdict.action, verdict.cause) == (Action.REJECT, "replayed_hash")

    def test_fresh_hash_accepted_after_teardown(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        frame = client.begin_teardown(ap.mac, 3)
        ap.verify_deauth(frame)
        fresh_client = ClientStation(CLIENT_MAC, rng=Random(555))
        auth_success(fresh_client, ap)
        request, _ = fresh_client.begin_association(ap.mac)
        _, verdict = ap.handle_assoc_request(request)
        assert (verdict.action, verdict.cause) == (Action.ACCEPT, "hash_recorded")


def expected_verdict(code: int, session: bool, good_token: bool):
    """Independent statement of the teardown dispatch rules."""
    if code == 1:
        return Action.REJECT
    if code in (2, 6, 7, 9):
        return Action.IGNORE
    if code in (3, 4, 5, 8):
        return Action.ACCEPT if session and good_token else Action.IGNORE
    return Action.IGNORE  # 0 and reserved codes


class TestReasonDispatch:
    ALL_CODES = list(range(11)) + [65535]

    def _teardown_frame(self, code: int, payload: bytes | None) -> ManagementFrame:
        subtype = (
            FrameSubtype.DISASSOCIATION if code == 8 else FrameSubtype.DEAUTHENTICATION
        )
        return ManagementFrame(subtype, CLIENT_MAC, AP_MAC, code, token=payload)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_with_session_and_correct_token(self, code):
        client, ap = make_pair()
        complete_handshake(client, ap)
        token = client.sessions[AP_MAC].own_token
        verdict = ap.verify_deauth(self._teardown_frame(code, token))
        assert verdict.action is expected_verdict(code, True, True), (
            f"reason {code} with a valid token"
        )

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_with_session_and_wrong_token(self, code):
        client, ap = make_pair()
        complete_handshake(client, ap)
        verdict = ap.verify_deauth(self._teardown_frame(code, b"\x42" * 16))
        assert verdict.action is expected_verdict(code, True, False)
        assert ap.sessions, "a wrong token must never cost the session"

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_with_session_and_no_token(self, code):
        client, ap = make_pair()
        complete_handshake(client, ap)
        verdict = ap.verify_deauth(self._teardown_frame(code, None))
        assert verdict.action is expected_verdict(code, True, False)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_without_session(self, code):
        _, ap = make_pair()
        verdict = ap.verify_deauth(self._teardown_frame(code, b"\x42" * 16))
        assert verdict.action is expected_verdict(code, False, False)
        verdict = ap.verify_deauth(self._teardown_frame(code, None))
        assert verdict.action is expected_verdict(code, False, False)

    def test_code_1_rejected_even_with_valid_token(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        token = client.sessions[AP_MAC].own_token
        frame = ManagementFrame(
            FrameSubtype.DEAUTHENTICATION, CLIENT_MAC, AP_MAC, 1, token=token
        )
        verdict = ap.verify_deauth(frame)
        assert (verdict.action, verdict.cause) == (Action.REJECT, "unspecified_reason")
        assert CLIENT_MAC in ap.sessions, "rejection must not tear anything down"

    def test_cause_tags(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        cases = [
            (self._teardown_frame(0, None), "reserved_code"),
            (self._teardown_frame(2, None), "unauthenticated_sender"),
            (self._teardown_frame(3, None), "no_token"),
            (self._teardown_frame(3, b"\x42" * 16), "token_mismatch"),
            (self._teardown_frame(10, None), "reserved_code"),
        ]
        for frame, cause in cases:
            assert ap.verify_deauth(frame).cause == cause
        _, ap2 = make_pair()
        assert ap2.verify_deauth(self._teardown_frame(3, None)).cause == "no_session"


class TestVerifiedTeardown:
    @pytest.mark.parametrize("reason", [3, 4, 5, 8])
    def test_client_initiated(self, reason):
        client, ap = make_pair()
        complete_handshake(client, ap)
        frame = client.make_verified_deauth(ap.mac, reason)
        expected_subtype = (
            FrameSubtype.DISASSOCIATION if reason == 8 else FrameSubtype.DEAUTHENTICATION
        )
        assert frame.subtype is expected_subtype
        verdict = ap.verify_deauth(frame)
        assert (verdict.action, verdict.cause) == (Action.ACCEPT, "token_verified")
        assert client.mac not in ap.sessions, "accepting deletes the record"
        expected_state = S2 if reason == 8 else S1
        assert ap.state_toward(client.mac) is expected_state
        # exact replay: the record is gone, nothing to verify against
        replay_verdict = ap.verify_deauth(frame)
        assert (replay_verdict.action, replay_verdict.cause) == (Action.IGNORE, "no_session")

    @pytest.mark.parametrize("reason", [3, 4, 5, 8])
    def test_ap_initiated(self, reason):
        client, ap = make_pair()
        complete_handshake(client, ap)
        frame = ap.make_verified_deauth(client.mac, reason)
        verdict = client.verify_deauth(frame)
        assert verdict.action is Action.ACCEPT
        assert ap.mac not in client.sessions
        expected_state = S2 if reason == 8 else S1
        assert client.state_toward(ap.mac) is expected_state
        assert client.verify_deauth(frame).action is Action.IGNORE

    def test_repeated_teardown_bytes_are_verified_each_time(self):
        # A revealed token stays single-use when the decoder hands back
        # the frame it decoded for the same bytes a moment ago.
        client, ap = make_pair()
        complete_handshake(client, ap)
        data = encode_frame(client.make_verified_deauth(ap.mac, 3))
        causes = [ap.receive_frame(data)[1].cause for _ in range(2)]
        assert causes == ["token_verified", "no_session"]
        elsewhere = ClientStation(OTHER_MAC, rng=Random(0))
        assert elsewhere.receive_frame(data) is None, "the same bytes, not addressed here"
        frame = client.make_verified_deauth(ap.mac, 3)._replace(dst=OTHER_MAC)
        assert ap.receive_frame(encode_frame(frame)) is None

    def test_frame_reveals_own_token(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        frame = client.make_verified_deauth(ap.mac, 3)
        assert frame.token == client.sessions[AP_MAC].own_token

    def test_requires_established_session(self):
        client, ap = make_pair()
        with pytest.raises(WrongState):
            client.make_verified_deauth(ap.mac, 3)

    def test_rejects_non_teardown_reasons(self):
        for protected in (True, False):
            client, ap = make_pair(protected=protected)
            complete_handshake(client, ap)
            for reason in (0, 1, 2, 6, 7, 9, 10):
                with pytest.raises(ValueError):
                    client.begin_teardown(ap.mac, reason)
            assert ap.mac in client.sessions, protected

    def test_begin_teardown_cleans_initiator_side(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        client.begin_teardown(ap.mac, 3)
        assert ap.mac not in client.sessions
        assert client.state_toward(ap.mac) is S1

    def test_disassociation_keeps_authentication(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        frame = client.begin_teardown(ap.mac, 8)
        ap.verify_deauth(frame)
        assert client.state_toward(ap.mac) is S2
        assert ap.state_toward(client.mac) is S2
        # still authenticated: re-association is allowed directly
        request, _ = client.begin_association(ap.mac)
        _, verdict = ap.handle_assoc_request(request)
        assert verdict.action is Action.ACCEPT


class TestBearerCredentialRace:
    def test_replay_that_wins_the_race_is_accepted_once(self):
        # A sniffed copy of a verified teardown that arrives before the
        # original is indistinguishable from it: the token is a bearer
        # credential until first use.
        client, ap = make_pair()
        complete_handshake(client, ap)
        legit = client.make_verified_deauth(ap.mac, 3)
        replay = ManagementFrame(
            legit.subtype, legit.src, legit.dst, legit.status_or_reason, token=legit.token
        )
        assert ap.verify_deauth(replay).action is Action.ACCEPT, (
            "the early copy wins: this window is a documented limitation"
        )
        verdict = ap.verify_deauth(legit)
        assert (verdict.action, verdict.cause) == (Action.IGNORE, "no_session"), (
            "the original finds the session already gone"
        )


# 802.11 association IDs run from 1 to 2007: the most stations one AP holds.
AID_CAPACITY = 2007


# One step of ``lifecycle_walk``; every station handler it calls is
# public, and frames cross between the two stations as encoded bytes.
# ``again`` hands the last teardown's bytes object to its receiver again.
lifecycle_op = st.one_of(
    st.tuples(st.just("auth")),
    st.tuples(st.just("join")),
    st.tuples(st.just("teardown"), st.booleans(), st.sampled_from([3, 4, 5, 8])),
    st.tuples(
        st.just("forged"),
        st.booleans(),
        st.sampled_from([FrameSubtype.DEAUTHENTICATION, FrameSubtype.DISASSOCIATION]),
        st.sampled_from([3, 4, 5, 8]),
        st.one_of(st.none(), st.binary(min_size=16, max_size=16)),
    ),
    st.tuples(st.just("replay_assoc"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("again")),
)


# Moves only ``TestKnownLimitations`` makes: an association request spoofed
# from the client's MAC, committing to the digest of a fresh token; and a
# join in which a success response forged from the AP, committing to such a
# digest, reaches the client ahead of the AP's own answer.
forge_req_op = st.tuples(st.just("forge_req"), st.binary(min_size=16, max_size=16))
forge_resp_op = st.tuples(st.just("forge_resp"), st.binary(min_size=16, max_size=16))


def lifecycle_walk(protected, ops):
    """Drive a fresh client and AP through ``ops``, checking after each step.

    Only the real peer may hold a session or an authentication.  In
    protected mode, while each side holds a session with the other,
    each stores the other's own commitment (agreement).
    """
    client, ap = make_pair(protected=protected)
    requests = []
    last_teardown = None

    def teardown(station, frame):
        nonlocal last_teardown
        last_teardown = station, encode_frame(frame)
        station.receive_frame(last_teardown[1])

    def move(op):
        if op[0] == "auth":
            auth_success(client, ap)
        elif op[0] in ("join", "forge_resp"):
            if client.state_toward(ap.mac) is S1:
                auth_success(client, ap)
            if client.state_toward(ap.mac) is not S2:
                with pytest.raises(WrongState):
                    client.begin_association(ap.mac)
                return
            request, _ = client.begin_association(ap.mac)
            requests.append(request)
            if op[0] == "forge_resp":
                commitment = hash_token(op[1])
                forged = ManagementFrame(
                    FrameSubtype.ASSOC_RESPONSE, ap.mac, client.mac, 0, commitment
                )
                client.receive_frame(encode_frame(forged))
            response, _ = ap.handle_assoc_request(request)
            client.handle_assoc_response(response)
        elif op[0] == "teardown":
            _, from_client, reason = op
            sender, receiver = (client, ap) if from_client else (ap, client)
            if receiver.mac not in sender.sessions:
                with pytest.raises(WrongState):
                    sender.begin_teardown(receiver.mac, reason)
                return
            teardown(receiver, sender.begin_teardown(receiver.mac, reason))
        elif op[0] == "forged":
            _, at_client, subtype, reason, token = op
            victim, spoofed = (client, ap) if at_client else (ap, client)
            teardown(victim, ManagementFrame(subtype, spoofed.mac, victim.mac, reason, token=token))
        elif op[0] == "again":
            if last_teardown is not None:
                station, data = last_teardown
                station.receive_frame(data)
        elif op[0] == "forge_req":
            commitment = hash_token(op[1])
            forged = ManagementFrame(FrameSubtype.ASSOC_REQUEST, client.mac, ap.mac, 0, commitment)
            ap.receive_frame(encode_frame(forged))
        elif requests:
            ap.handle_assoc_request(requests[op[1] % len(requests)])

    for op in ops:
        move(op)
        for station, peer in ((client, ap.mac), (ap, client.mac)):
            assert set(station.sessions) <= {peer}, op
            assert station.authenticated <= {peer}, op
        if protected and ap.mac in client.sessions and client.mac in ap.sessions:
            client_side, ap_side = client.sessions[ap.mac], ap.sessions[client.mac]
            assert client_side.peer_hash == ap_side.own_hash, op
            assert ap_side.peer_hash == client_side.own_hash, op


class TestKnownLimitations:
    """The association holes that protected mode leaves open today.

    Each test states the behaviour wanted once the named ROADMAP item
    lands.  Today each fails, so it is marked a strict ``xfail``: the
    fix turns it into a pass, which fails the suite until the mark goes.
    """

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="association displacement: ROADMAP item 2 closes it",
    )
    def test_spoofed_request_does_not_displace_a_live_session(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        token = generate_token(Random(99))
        spoofed = ManagementFrame(
            FrameSubtype.ASSOC_REQUEST, CLIENT_MAC, AP_MAC, 0, hash_token(token)
        )
        ap.receive_frame(encode_frame(spoofed))
        teardown = ManagementFrame(
            FrameSubtype.DEAUTHENTICATION, CLIENT_MAC, AP_MAC, 3, token=token
        )
        assert ap.verify_deauth(teardown).action is not Action.ACCEPT
        assert ap.sessions[CLIENT_MAC].peer_hash == client.sessions[AP_MAC].own_hash

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="forged association response accepted ahead of the AP's: "
        "ROADMAP item 4 fixes or documents it",
    )
    def test_forged_response_ahead_of_the_aps_binds_no_attacker_token(self):
        client, ap = make_pair()
        auth_success(client, ap)
        request, _ = client.begin_association(AP_MAC)
        token = generate_token(Random(99))
        forged = ManagementFrame(
            FrameSubtype.ASSOC_RESPONSE, AP_MAC, CLIENT_MAC, 0, hash_token(token)
        )
        client.receive_frame(encode_frame(forged))
        response, _ = ap.handle_assoc_request(request)
        client.receive_frame(encode_frame(response))  # today: no_request
        teardown = ManagementFrame(
            FrameSubtype.DEAUTHENTICATION, AP_MAC, CLIENT_MAC, 3, token=token
        )
        assert client.verify_deauth(teardown).action is not Action.ACCEPT

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
    def test_forged_refusal_ahead_of_the_aps_answer_leaves_both_sides_agreeing(self):
        client, ap = make_pair()
        auth_success(client, ap)
        request, _ = client.begin_association(AP_MAC)
        forged = ManagementFrame(FrameSubtype.ASSOC_RESPONSE, AP_MAC, CLIENT_MAC, STATUS_REFUSED)
        _, refused = client.receive_frame(encode_frame(forged))
        response, _ = ap.handle_assoc_request(request)
        _, answered = client.receive_frame(encode_frame(response))
        assert (refused.cause, answered.cause) == ("assoc_refused", "no_request")
        # Today the AP holds a session with the client, and the client none.
        assert (CLIENT_MAC in ap.sessions) == (AP_MAC in client.sessions)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="association flood: ROADMAP item 5 bounds the AP's table",
    )
    def test_spoofed_mac_flood_past_capacity_keeps_no_session(self):
        # 1,000 requests past a full table each leave a session today.
        _, ap = make_pair()
        rng = Random(99)
        for i in range(AID_CAPACITY + 1000):
            spoofed = MacAddress(bytes([2, 1, 0, 0, i >> 8, i & 0xFF]))
            commitment = hash_token(generate_token(rng))
            ap.receive_frame(
                encode_frame(
                    ManagementFrame(FrameSubtype.ASSOC_REQUEST, spoofed, AP_MAC, 0, commitment)
                )
            )
        assert len(ap.sessions) <= AID_CAPACITY

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="association displacement found by the walk: ROADMAP item 2",
    )
    @given(ops=st.lists(st.one_of(lifecycle_op, forge_req_op), max_size=25))
    @example(ops=[("join",), ("forge_req", bytes(range(16)))])
    @settings(max_examples=100, deadline=None)
    def test_walk_with_spoofed_requests_keeps_agreement(self, ops):
        lifecycle_walk(True, ops)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="forged association response found by the walk: ROADMAP item 4",
    )
    @given(ops=st.lists(st.one_of(lifecycle_op, forge_resp_op), max_size=25))
    @example(ops=[("forge_resp", bytes(range(16)))])
    @settings(max_examples=100, deadline=None)
    def test_walk_with_forged_responses_keeps_agreement(self, ops):
        lifecycle_walk(True, ops)


class TestLegacyMode:
    def test_token_less_deauth_accepted(self):
        client, ap = make_pair(protected=False)
        complete_handshake(client, ap)
        forged = ManagementFrame(FrameSubtype.DEAUTHENTICATION, AP_MAC, CLIENT_MAC, 3)
        verdict = client.verify_deauth(forged)
        assert (verdict.action, verdict.cause) == (Action.ACCEPT, "legacy_no_check")
        assert client.state_toward(ap.mac) is S1

    def test_any_reason_code_works_on_legacy(self):
        for reason in (0, 1, 2, 3, 9, 10, 65535):
            client, ap = make_pair(protected=False)
            complete_handshake(client, ap)
            forged = ManagementFrame(
                FrameSubtype.DEAUTHENTICATION, AP_MAC, CLIENT_MAC, reason
            )
            assert client.verify_deauth(forged).action is Action.ACCEPT

    def test_no_session_ignored(self):
        client, _ = make_pair(protected=False)
        forged = ManagementFrame(FrameSubtype.DEAUTHENTICATION, AP_MAC, CLIENT_MAC, 3)
        verdict = client.verify_deauth(forged)
        assert (verdict.action, verdict.cause) == (Action.IGNORE, "no_session")

    def test_legacy_frames_carry_no_elements(self):
        client, ap = make_pair(protected=False)
        auth_success(client, ap)
        request, _ = client.begin_association(ap.mac)
        assert request.commitment is None and request.token is None
        response, _ = ap.handle_assoc_request(request)
        assert response.commitment is None and response.token is None
        client.handle_assoc_response(response)
        frame = client.begin_teardown(ap.mac, 3)
        assert frame.commitment is None and frame.token is None


def _station_fingerprint(station):
    return (
        copy.deepcopy(station.sessions),
        set(station.authenticated),
        set(getattr(station, "seen_hashes", set())),
        dict(getattr(station, "pending", {})),
    )


@st.composite
def hostile_teardown(draw):
    subtype = draw(
        st.sampled_from([FrameSubtype.DEAUTHENTICATION, FrameSubtype.DISASSOCIATION])
    )
    src = draw(st.sampled_from([CLIENT_MAC, OTHER_MAC]))
    reason = draw(st.integers(min_value=0, max_value=0xFFFF))
    payload = draw(st.one_of(st.none(), st.binary(min_size=16, max_size=16)))
    return ManagementFrame(subtype, src, AP_MAC, reason, token=payload)


class TestNoStateChangeWithoutAccept:
    @given(frame=hostile_teardown())
    @settings(max_examples=300, deadline=None)
    def test_ignore_and_reject_leave_station_untouched(self, frame):
        client, ap = make_pair()
        complete_handshake(client, ap)
        before = _station_fingerprint(ap)
        verdict = ap.verify_deauth(frame)
        if verdict.action is Action.ACCEPT:
            # Only possible with the real token; the strategy cannot
            # produce it (16 random bytes against 2**122 values).
            raise AssertionError("random frame must not verify")
        assert _station_fingerprint(ap) == before, (
            f"verdict {verdict} must not mutate any station state"
        )


# A forged deauth a legacy client would honor; each case below spoils it.
_DEAUTH = encode_frame(ManagementFrame(FrameSubtype.DEAUTHENTICATION, AP_MAC, CLIENT_MAC, 3))


class TestHostileBytes:
    """``receive_frame`` returns ``None`` for bytes it cannot use and keeps no trace."""

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"\x7f" + _DEAUTH[1:],
            _DEAUTH + b"\x00garbage",
            _DEAUTH[:7] + OTHER_MAC + _DEAUTH[13:],
        ],
        ids=["empty", "unknown_subtype", "trailing_garbage", "other_mac"],
    )
    @pytest.mark.parametrize("protected", [True, False])
    def test_station_shrugs_off(self, raw, protected):
        client, ap = make_pair(protected=protected)
        complete_handshake(client, ap)
        before = _station_fingerprint(client)
        assert client.receive_frame(raw) is None
        assert _station_fingerprint(client) == before

    @pytest.mark.parametrize(
        "subtype",
        [
            FrameSubtype.AUTH_REQUEST,
            FrameSubtype.ASSOC_REQUEST,
            FrameSubtype.AUTH_RESPONSE,
            FrameSubtype.ASSOC_RESPONSE,
        ],
        ids=lambda subtype: subtype.name.lower(),
    )
    @pytest.mark.parametrize("protected", [True, False])
    def test_the_other_roles_handshake_frame(self, subtype, protected):
        # Requests are the AP's to answer and responses the client's; a
        # station sent the other role's frame does nothing with it.
        client, ap = make_pair(protected=protected)
        complete_handshake(client, ap)
        is_request = subtype in (FrameSubtype.AUTH_REQUEST, FrameSubtype.ASSOC_REQUEST)
        station, peer = (client, ap) if is_request else (ap, client)
        commitment = b"\x42" * 64 if subtype.name.startswith("ASSOC") else None
        sent = []
        station.bind_transmit(sent.extend)
        before = _station_fingerprint(station)
        frame = ManagementFrame(subtype, peer.mac, station.mac, 0, commitment)
        assert station.receive_frame(encode_frame(frame)) is None
        assert sent == []
        assert _station_fingerprint(station) == before


class TestSessionRecord:
    def test_deleted_not_blanked_on_accept(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        frame = client.make_verified_deauth(ap.mac, 3)
        ap.verify_deauth(frame)
        assert CLIENT_MAC not in ap.sessions


class TestSessionImpliesAssociated:
    """Only the real peer ever gets a session or an authentication.

    A record in ``sessions`` is what makes a peer AUTH_ASSOC, so no
    walk of handshakes, teardowns, forgeries and replays may leave one
    (or an ``authenticated`` entry) for any other MAC.  The walk also
    checks agreement (``lifecycle_walk``).
    """

    @given(protected=st.booleans(), ops=st.lists(lifecycle_op, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_every_session_peer_is_auth_assoc(self, protected, ops):
        lifecycle_walk(protected, ops)


class TestRepeatedTeardown:
    """A station judges every frame it is handed, a repeated one included."""

    def test_a_bytearray_is_judged_by_its_content_each_time(self):
        client, ap = make_pair()
        complete_handshake(client, ap)
        forged = ManagementFrame(FrameSubtype.DEAUTHENTICATION, AP_MAC, CLIENT_MAC, 3)
        data = bytearray(encode_frame(forged))
        causes = [client.receive_frame(data)[1].cause for _ in range(2)]
        data[:] = encode_frame(forged._replace(status_or_reason=1))
        causes.append(client.receive_frame(data)[1].cause)
        assert causes == ["no_token", "no_token", "unspecified_reason"]
