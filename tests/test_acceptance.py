"""Acceptance checklist.

One test per acceptance criterion, each printing a PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -v -s`` to see them as they go).
Tolerances and sample sizes are fixed here on purpose; do not loosen
them to make a failure go away.
"""

import io
import time
from random import Random

from deauthsim.adversary import AttackerConfig, AttackKind
from deauthsim.frames import (
    CANONICAL_FRAME_SIZES,
    DecodeError,
    FrameSubtype,
    MacAddress,
    ManagementFrame,
    decode_frame,
    encode_frame,
)
from deauthsim.bench import run_bench
from deauthsim.medium import write_event_log
from deauthsim.scenario import (
    AssociateAction,
    AttackAction,
    Mode,
    Role,
    ScenarioConfig,
    StationSpec,
    load_bundled_scenario,
    run_scenario,
)
from deauthsim.stations import Action, LifecycleState, generate_token
from deauthsim.tokens import hash_token
from helpers import AP_MAC, CLIENT_MAC, OTHER_MAC, auth_success, complete_handshake, make_pair
from sha512_reference import sha512_reference

AP = str(AP_MAC)
CLIENT = str(CLIENT_MAC)


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


class TestAcceptance:
    def test_a01_legacy_single_forged_deauth_disconnects(self):
        # 1000 seeded trials; one token-less forged frame each; the
        # client must end unauthenticated every time; under 5 seconds.
        cfg = load_bundled_scenario("legacy_forged_deauth")
        start = time.perf_counter()
        disconnected = 0
        for seed in range(1000):
            outcome, _ = run_scenario(cfg, seed=seed)
            if (
                outcome.final_states[CLIENT] == "unauth_unassoc"
                and outcome.attack_success_count == 1
            ):
                disconnected += 1
        elapsed = time.perf_counter() - start
        ok = disconnected == 1000 and elapsed < 5.0
        report(
            "A01 legacy-vulnerability",
            ok,
            f"{disconnected}/1000 trials disconnected the client in {elapsed:.2f}s (limit 5s)",
        )

    def test_a02_protected_shrugs_off_forged_flood(self):
        # 100000 forged frames, half token-less and half random-token,
        # zero accepted teardowns, client still associated; under 30s.
        half = 50_000
        cfg = ScenarioConfig(
            name="protected_flood",
            mode=Mode.PROTECTED,
            seed=42,
            stations=(
                StationSpec(Role.AP, AP_MAC),
                StationSpec(Role.CLIENT, CLIENT_MAC),
            ),
            attackers=(
                AttackerConfig(AttackKind.FORGED_DEAUTH, AP_MAC, CLIENT_MAC, frame_count=half),
                AttackerConfig(
                    AttackKind.TOKEN_GUESS, CLIENT_MAC, AP_MAC, frame_count=half, seed=99
                ),
            ),
            script=(
                AssociateAction(CLIENT_MAC, AP_MAC),
                AttackAction(0),
                AttackAction(1),
            ),
            max_ticks=20_000,
        )
        start = time.perf_counter()
        outcome, _ = run_scenario(cfg)
        elapsed = time.perf_counter() - start
        attacked = outcome.verdicts.get("no_token", 0) + outcome.verdicts.get(
            "token_mismatch", 0
        )
        ok = (
            outcome.attack_success_count == 0
            and attacked == 2 * half
            and outcome.final_states[CLIENT] == "auth_assoc"
            and outcome.final_states[AP] == "auth_assoc"
            and elapsed < 30.0
        )
        report(
            "A02 protected-flood-immunity",
            ok,
            f"0 of {attacked} forged frames accepted, client auth_assoc, {elapsed:.2f}s (limit 30s)",
        )

    def test_a03_exact_legitimate_teardown(self):
        # Every normal-disconnect reason, both directions: accepted
        # exactly once, sessions deleted, immediate replay ignored.
        checked = 0
        for reason in (3, 4, 5, 8):
            for initiator_role in ("client", "ap"):
                client, ap = make_pair(seed=reason * 10 + checked)
                complete_handshake(client, ap)
                sender, receiver = (
                    (client, ap) if initiator_role == "client" else (ap, client)
                )
                frame = sender.make_verified_deauth(receiver.mac, reason)
                first = receiver.verify_deauth(frame)
                replay = receiver.verify_deauth(frame)
                assert first.action is Action.ACCEPT, (reason, initiator_role)
                assert sender.mac not in receiver.sessions
                assert replay.action is Action.IGNORE and replay.cause == "no_session"
                expected = (
                    LifecycleState.AUTH_UNASSOC
                    if reason == 8
                    else LifecycleState.UNAUTH_UNASSOC
                )
                assert receiver.state_toward(sender.mac) is expected
                checked += 1
        report(
            "A03 legit-teardown-liveness",
            checked == 8,
            f"{checked}/8 reason/direction combinations accepted once then ignored on replay",
        )

    def test_a04_association_replay_lockout(self):
        client, ap = make_pair()
        request, _ = complete_handshake(client, ap)

        _, during = ap.handle_assoc_request(request)
        mid_session_ok = during.action is Action.REJECT and during.cause == "replayed_hash"

        teardown = client.begin_teardown(ap.mac, 3)
        ap.verify_deauth(teardown)
        _, after = ap.handle_assoc_request(request)
        post_session_ok = after.action is Action.REJECT and after.cause == "replayed_hash"

        stolen = ManagementFrame(
            FrameSubtype.ASSOC_REQUEST, OTHER_MAC, AP_MAC, 0, request.commitment
        )
        _, other_mac = ap.handle_assoc_request(stolen)
        other_mac_ok = other_mac.action is Action.REJECT

        ok = mid_session_ok and post_session_ok and other_mac_ok
        report(
            "A04 hash-replay-lockout",
            ok,
            "captured commitment refused during session, after teardown, and from a new MAC",
        )

    def test_a05_reason_code_dispatch_table(self):
        # Codes 0-10 and 65535, with and without a session, with valid,
        # wrong, and missing tokens where a session exists.
        def expected(code, session, good_token):
            if code == 1:
                return Action.REJECT
            if code in (3, 4, 5, 8) and session and good_token:
                return Action.ACCEPT
            return Action.IGNORE

        codes = list(range(11)) + [65535]
        checked = 0
        for code in codes:
            subtype = (
                FrameSubtype.DISASSOCIATION if code == 8 else FrameSubtype.DEAUTHENTICATION
            )
            for session in (True, False):
                variants = [("absent", None), ("wrong", b"\x55" * 16)]
                if session:
                    variants.append(("valid", "real"))
                for label, payload in variants:
                    client, ap = make_pair(seed=code + checked)
                    if session:
                        complete_handshake(client, ap)
                    if payload == "real":
                        payload = client.sessions[AP_MAC].own_token
                    frame = ManagementFrame(subtype, CLIENT_MAC, AP_MAC, code, token=payload)
                    verdict = ap.verify_deauth(frame)
                    want = expected(code, session, label == "valid")
                    assert verdict.action is want, (
                        f"code {code}, session={session}, token={label}: "
                        f"got {verdict.action}, want {want}"
                    )
                    checked += 1
        report(
            "A05 reason-dispatch-table",
            checked == 60,
            f"{checked}/60 code/session/token combinations matched the dispatch table",
        )

    def test_a06_codec_round_trip_and_fuzz(self):
        rng = Random(0xC0DEC)
        subtypes = list(FrameSubtype)

        def random_frame():
            element = {}
            kind = rng.randrange(3)
            if kind == 1:
                element = {"commitment": rng.randbytes(64)}
            elif kind == 2:
                element = {"token": rng.randbytes(16)}
            return ManagementFrame(
                subtypes[rng.randrange(len(subtypes))],
                MacAddress(rng.randbytes(6)),
                MacAddress(rng.randbytes(6)),
                rng.randrange(0x10000),
                **element,
            )

        round_trips = 0
        for _ in range(10_000):
            frame = random_frame()
            raw = encode_frame(frame)
            assert len(raw) in CANONICAL_FRAME_SIZES
            assert decode_frame(raw) == frame
            round_trips += 1

        base_frames = [encode_frame(random_frame()) for _ in range(50)]
        survived = 0
        decoded_ok = 0
        for i in range(1_000_000):
            if i % 2 == 0:
                data = rng.randbytes(rng.randrange(0, 131))
            else:
                mutated = bytearray(base_frames[rng.randrange(len(base_frames))])
                for _ in range(rng.randint(1, 6)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                data = bytes(mutated[: rng.randrange(0, len(mutated) + 1)])
            try:
                decode_frame(data)
                decoded_ok += 1
            except DecodeError:
                pass
            survived += 1

        ok = round_trips == 10_000 and survived == 1_000_000
        report(
            "A06 codec-soundness",
            ok,
            f"{round_trips} round-trips exact; {survived} fuzz inputs decoded or "
            f"rejected cleanly ({decoded_ok} parsed)",
        )

    def test_a07_crypto_conformance(self):
        # Published FIPS 180-4 SHA-512 vectors, checked against both the
        # library path and the from-scratch reference implementation.
        vectors = {
            b"abc": (
                "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
                "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
            ),
            b"": (
                "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
                "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                b"ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            ): (
                "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
                "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
            ),
        }
        vectors_ok = all(
            hash_token(message).hex() == digest
            and sha512_reference(message).hex() == digest
            for message, digest in vectors.items()
        )

        rng = Random(0x70CEB)
        tokens = [generate_token(rng) for _ in range(10_000)]
        bits_ok = all(
            t[6] >> 4 == 0x4 and t[8] >> 6 == 0b10 for t in tokens
        )
        distinct_ok = len(set(tokens)) == len(tokens)

        ok = vectors_ok and bits_ok and distinct_ok
        report(
            "A07 crypto-conformance",
            ok,
            f"3 published vectors matched on both paths; {len(tokens)} tokens "
            f"well-formed and pairwise distinct",
        )

    def test_a08_no_unjustified_session_deletion(self):
        # 100000 random frames at a protected AP; instrument every
        # deletion and demand a hash-matching token each time.
        rng = Random(0x5AFE)
        client, ap = make_pair(seed=1)
        complete_handshake(client, ap)
        macs = [CLIENT_MAC, AP_MAC, OTHER_MAC]
        subtypes = list(FrameSubtype)
        deletions = 0
        steps = 100_000
        rebuild_seeds = iter(range(1_000_000, 2_000_000))

        def rebuild_session():
            fresh = make_pair(seed=next(rebuild_seeds))[0]
            auth_success(fresh, ap)
            request, _ = fresh.begin_association(ap.mac)
            response, verdict = ap.handle_assoc_request(request)
            assert verdict.action is Action.ACCEPT
            assert fresh.handle_assoc_response(response).action is Action.ACCEPT
            return fresh

        for _ in range(steps):
            roll = rng.random()
            src = macs[rng.randrange(len(macs))]
            if roll < 0.0005 and CLIENT_MAC in ap.sessions:
                # Rare positive control: reveal the real token.  A fuzzed
                # association request may have displaced the commitment we
                # hold the token for; re-associate first if so.
                if client.sessions[AP_MAC].own_hash != ap.sessions[CLIENT_MAC].peer_hash:
                    client = rebuild_session()
                payload = client.sessions[AP_MAC].own_token
                frame = ManagementFrame(
                    FrameSubtype.DEAUTHENTICATION,
                    CLIENT_MAC,
                    AP_MAC,
                    rng.choice((3, 4, 5, 8)),
                    token=payload,
                )
            else:
                element = {}
                kind = rng.randrange(4)
                if kind == 1:
                    element = {"token": rng.randbytes(16)}
                elif kind == 2:
                    element = {"commitment": rng.randbytes(64)}
                frame = ManagementFrame(
                    subtypes[rng.randrange(len(subtypes))],
                    src,
                    AP_MAC,
                    rng.randrange(0x10000) if rng.random() < 0.5 else rng.randrange(12),
                    **element,
                )

            before = dict(ap.sessions)
            before_hashes = {peer: rec.peer_hash for peer, rec in before.items()}
            ap.receive_frame(encode_frame(frame))
            deleted = set(before) - set(ap.sessions)
            for peer in deleted:
                deletions += 1
                assert frame.token is not None, (
                    f"session {peer} deleted by a frame with no token"
                )
                assert hash_token(frame.token) == before_hashes[peer], (
                    f"session {peer} deleted by a non-matching token"
                )
                client = rebuild_session()

        ok = deletions >= 10
        report(
            "A08 state-machine-safety",
            ok,
            f"{steps} hostile frames; {deletions} deletions, every one backed by a "
            f"hash-matching token",
        )

    def test_a09_token_cost_benchmark(self):
        report_obj = run_bench(10_000)
        ok = report_obj.total_mean_s < 0.19
        report(
            "A09 token-cost-bound",
            ok,
            f"mean generate+hash {report_obj.total_mean_s * 1e6:.2f}us over "
            f"{report_obj.iterations} iterations (limit 0.19s)",
        )

    def test_a10_deterministic_event_logs(self):
        identical = True
        for name in ("protected_forged_deauth", "lossy_protected_flood"):
            cfg = load_bundled_scenario(name)
            _, events_a = run_scenario(cfg)
            _, events_b = run_scenario(cfg)
            log_a, log_b = io.StringIO(), io.StringIO()
            write_event_log(events_a, log_a)
            write_event_log(events_b, log_b)
            identical = identical and log_a.getvalue() == log_b.getvalue()
        report(
            "A10 log-determinism",
            identical,
            "same seed produced byte-identical JSONL logs for two bundled scenarios",
        )
