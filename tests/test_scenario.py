"""Scenario configs and end-to-end runs of the bundled scenarios."""

import gc
import io
import tracemalloc
from dataclasses import replace

import pytest

from deauthsim.frames import FrameSubtype, decode_frame
from deauthsim.medium import write_event_log
from deauthsim.scenario import (
    AssociateAction,
    AttackAction,
    ConfigError,
    DeauthAction,
    Mode,
    Role,
    ScenarioConfig,
    ScenarioRun,
    StationSpec,
    bundled_scenario_names,
    config_from_dict,
    load_bundled_scenario,
    load_scenario,
    load_scenario_text,
    run_scenario,
)
from deauthsim.adversary import MAX_FRAME_COUNT, AttackerConfig, AttackKind, NoCapturedDeauth
from deauthsim.frames import MacAddress
from helpers import read_events

AP = "02:00:00:00:00:01"
CLIENT = "02:00:00:00:00:02"

BASE_DOC = {
    "schema": 1,
    "name": "t",
    "mode": "protected",
    "seed": 1,
    "stations": [
        {"role": "ap", "mac": AP},
        {"role": "client", "mac": CLIENT},
    ],
    "script": [{"associate": {"client": CLIENT, "ap": AP}}],
}


def doc(**overrides):
    merged = {**BASE_DOC, **overrides}
    return merged


class TestConfigValidation:
    def test_minimal_document_parses(self):
        cfg = config_from_dict(doc())
        assert cfg.mode is Mode.PROTECTED
        assert cfg.stations[0].role is Role.AP
        assert isinstance(cfg.script[0], AssociateAction)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            config_from_dict(doc(mode="armored"))

    def test_bad_mac(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                doc(stations=[{"role": "ap", "mac": "not-a-mac"}])
            )

    def test_duplicate_station_macs(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                doc(
                    stations=[
                        {"role": "ap", "mac": AP},
                        {"role": "client", "mac": AP},
                    ],
                    script=[],
                )
            )

    def test_unknown_attack_index(self):
        with pytest.raises(ConfigError):
            config_from_dict(doc(script=[{"attack": {"index": 0}}]))

    def test_zero_frame_count(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                doc(
                    attackers=[
                        {
                            "kind": "forged_deauth",
                            "spoof_src": AP,
                            "target": CLIENT,
                            "frame_count": 0,
                        }
                    ]
                )
            )

    def test_unknown_attack_kind(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                doc(attackers=[{"kind": "evil_twin", "spoof_src": AP, "target": CLIENT}])
            )

    def test_unknown_action_verb(self):
        with pytest.raises(ConfigError):
            config_from_dict(doc(script=[{"explode": {}}]))

    def test_associate_roles_checked(self):
        with pytest.raises(ConfigError):
            config_from_dict(doc(script=[{"associate": {"client": AP, "ap": CLIENT}}]))

    def test_deauth_reason_checked(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                doc(script=[{"deauth": {"initiator": CLIENT, "reason": 1}}])
            )

    def test_loss_probability_range(self):
        with pytest.raises(ConfigError):
            config_from_dict(doc(loss_probability=1.5))
        with pytest.raises(ConfigError):
            config_from_dict(doc(loss_probability=-0.1))

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError):
            config_from_dict(doc(schema=99))

    def test_yaml_text_loader(self):
        cfg = load_scenario_text(
            """
            schema: 1
            name: inline
            mode: legacy
            seed: 3
            stations:
              - {role: ap, mac: "02:00:00:00:00:01"}
            """
        )
        assert cfg.mode is Mode.LEGACY and cfg.name == "inline"

    def test_invalid_yaml_is_config_error(self):
        with pytest.raises(ConfigError):
            load_scenario_text("{unbalanced")

    @pytest.mark.parametrize(
        "line",
        ["seed: 0x_", "name: 2024-13-45", "seed: " + "9" * 5000],
        ids=["empty_hex_int", "impossible_date", "int_past_digit_limit"],
    )
    def test_value_yaml_cannot_construct_is_config_error(self, line):
        # PyYAML's own constructors raise ValueError for these scalars.
        text = line + "\n" + SCENARIO_TEXT.replace("seed: 1\n", "")
        with pytest.raises(ConfigError, match="value YAML cannot construct"):
            load_scenario_text(text)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_scenario("/no/such/file.yaml")

    def test_unknown_bundled_name_is_config_error(self):
        with pytest.raises(ConfigError):
            load_scenario("no_such_scenario")
        # A name that leaves the scenarios directory is not a listed one.
        with pytest.raises(ConfigError, match="unknown bundled scenario"):
            load_bundled_scenario("../scenarios/protected_forged_deauth")


SCENARIO_TEXT = f"""\
mode: protected
seed: 1
stations:
  - {{role: ap, mac: "{AP}"}}
  - {{role: client, mac: "{CLIENT}"}}
script:
  - associate: {{client: "{CLIENT}", ap: "{AP}"}}
"""


def attacker(**fields):
    return {"kind": "forged_deauth", "spoof_src": AP, "target": CLIENT, **fields}


class TestStrictFields:
    """Bad field values and unknown keys are rejected, never coerced or ignored."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"frame_count": "3"},
            {"frame_count": 3.0},
            {"reason": 3.9},
            {"reason": "3"},
            {"seed": True},
            {"frame_count": True},
        ],
    )
    def test_attacker_integers_are_not_coerced(self, fields):
        with pytest.raises(ConfigError):
            config_from_dict(doc(attackers=[attacker(**fields)]))

    @pytest.mark.parametrize("key", ["seed", "max_ticks"])
    def test_top_level_booleans_are_not_integers(self, key):
        with pytest.raises(ConfigError):
            config_from_dict(doc(**{key: True}))

    def test_action_booleans_are_not_integers(self):
        with pytest.raises(ConfigError):
            config_from_dict(doc(script=[{"deauth": {"initiator": CLIENT, "reason": True}}]))
        with pytest.raises(ConfigError):
            config_from_dict(doc(attackers=[attacker()], script=[{"attack": {"index": False}}]))

    def test_misspelt_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="loss_probabilty"):
            config_from_dict(doc(loss_probabilty=0.9))

    def test_misspelt_schema_key_is_told_the_right_word(self):
        misspelt = {"shema": 1, **{k: v for k, v in BASE_DOC.items() if k != "schema"}}
        expected = r"unknown field 'shema'; expected one of schema, name, mode, "
        with pytest.raises(ConfigError, match=expected):
            config_from_dict(misspelt)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"attackers": [attacker(frame_cuont=5)]},
            {"stations": [{"role": "ap", "mac": AP, "channel": 6}], "script": []},
            {"script": [{"associate": {"client": CLIENT, "ap": AP, "ssid": "x"}}]},
            {"script": [{"deauth": {"initiator": CLIENT, "reason": 3, "token": "x"}}]},
            {"attackers": [attacker()], "script": [{"attack": {"index": 0, "at": 1}}]},
        ],
    )
    def test_unknown_nested_keys_rejected(self, overrides):
        with pytest.raises(ConfigError):
            config_from_dict(doc(**overrides))

    def test_valid_integers_still_accepted(self):
        cfg = config_from_dict(
            doc(max_ticks=7, attackers=[attacker(frame_count=3, reason=4, seed=9)])
        )
        assert cfg.max_ticks == 7
        assert (cfg.attackers[0].frame_count, cfg.attackers[0].reason) == (3, 4)
        assert cfg.attackers[0].seed == 9


    @pytest.mark.parametrize(
        "overrides",
        [
            {"attackers": None},
            {"attackers": 3},
            {"script": 5},
            {"name": {"a": 1}},
            {"mode": ["protected"]},
            {"stations": [{"role": "ap", "mac": 5}], "script": []},
            {"attackers": [attacker(kind={"x": 1})]},
            {"schema": True},
            {"schema": 1.0},
            {"stations": [{"role": "ap", "mac": "ff:ff:ff:ff:ff:ff"}], "script": []},
            {"stations": [{"role": "ap", "mac": "03:00:00:00:00:01"}], "script": []},
            {"stations": [], "script": []},
            {"max_ticks": 0},
            {"script": [{"associate": {"client": CLIENT, "ap": CLIENT}}]},
            {"script": [{"deauth": {"initiator": "02:00:00:00:00:09", "reason": 3}}]},
            {"stations": ["ap"], "script": []},
            {"stations": [{"role": "ap"}], "script": []},
            {
                "script": [
                    {
                        "associate": {"client": CLIENT, "ap": AP},
                        "deauth": {"initiator": CLIENT, "reason": 3},
                    }
                ]
            },
        ],
    )
    def test_hostile_values_are_config_errors(self, overrides):
        with pytest.raises(ConfigError):
            config_from_dict(doc(**overrides))

    def test_document_must_be_a_mapping_with_a_mode(self):
        with pytest.raises(ConfigError, match="mapping"):
            config_from_dict(["mode", "protected"])
        with pytest.raises(ConfigError, match="mode"):
            config_from_dict({key: value for key, value in BASE_DOC.items() if key != "mode"})

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seed: 1\n", "seed: 1\nloss_probability: 1.0\nloss_probability: 0.0\n"),
            ("{role: ap,", "{role: client, role: ap,"),
            (f'ap: "{AP}"}}', f'ap: "{AP}", ap: "{AP}"}}'),
        ],
        ids=["top_level", "station", "action_body"],
    )
    def test_duplicate_yaml_keys_rejected(self, old, new):
        # YAML alone keeps the last value, under which each text would run.
        assert load_scenario_text(SCENARIO_TEXT).seed == 1
        with pytest.raises(ConfigError, match="duplicate key"):
            load_scenario_text(SCENARIO_TEXT.replace(old, new))

    def test_merge_keys_and_unhashable_keys_keep_their_yaml_meaning(self):
        # A merged key is overridden by the mapping's own, which is no duplicate.
        cfg = load_scenario_text(SCENARIO_TEXT + "<<: {seed: 5, max_ticks: 7}\n")
        assert (cfg.seed, cfg.max_ticks) == (1, 7)
        with pytest.raises(ConfigError, match="unhashable"):
            load_scenario_text(SCENARIO_TEXT + "? [1]\n: 2\n")

    def test_frame_count_is_capped(self):
        cfg = config_from_dict(doc(attackers=[attacker(frame_count=MAX_FRAME_COUNT)]))
        assert cfg.attackers[0].frame_count == MAX_FRAME_COUNT
        with pytest.raises(ConfigError, match="frame_count"):
            config_from_dict(doc(attackers=[attacker(frame_count=MAX_FRAME_COUNT + 1)]))

    def test_script_attack_traffic_is_capped_in_total(self):
        # Each step is within frame_count's cap; a YAML alias repeats it.
        def text(frame_count):
            return (
                SCENARIO_TEXT
                + "  - &a {attack: {index: 0}}\n  - *a\n"
                + f'attackers:\n  - {{kind: forged_deauth, spoof_src: "{AP}", target: "{CLIENT}",'
                + f" frame_count: {frame_count}}}\n"
            )

        assert len(load_scenario_text(text(MAX_FRAME_COUNT // 2)).script) == 3
        with pytest.raises(ConfigError, match=f"more than the cap of {MAX_FRAME_COUNT}"):
            load_scenario_text(text(MAX_FRAME_COUNT))


CLIENT2 = "02:00:00:00:00:03"


def guess_then_replay(*script):
    """Attacker 0 guesses tokens as CLIENT2; attacker 1 replays a teardown to the AP."""
    return doc(
        stations=[*BASE_DOC["stations"], {"role": "client", "mac": CLIENT2}],
        attackers=[
            {"kind": "token_guess", "spoof_src": CLIENT2, "target": AP, "frame_count": 3},
            {"kind": "deauth_replay", "spoof_src": CLIENT, "target": AP, "frame_count": 2},
        ],
        script=[
            {"associate": {"client": CLIENT, "ap": AP}},
            {"associate": {"client": CLIENT2, "ap": AP}},
            {"attack": {"index": 0}},
            *script,
            {"attack": {"index": 1}},
        ],
    )


class TestReplayCaptures:
    """Replay attackers replay what stations sent, never other attackers' frames."""

    def test_other_attackers_frames_are_not_replayed(self):
        with pytest.raises(NoCapturedDeauth):
            run_scenario(config_from_dict(guess_then_replay()))

    def test_station_teardown_replayed_past_earlier_guesses(self):
        # Replaying a guess would hit CLIENT2's live session (token_mismatch);
        # the station's own teardown finds its session gone (no_session).
        cfg = config_from_dict(
            guess_then_replay({"deauth": {"initiator": CLIENT, "reason": 3}})
        )
        outcome, _ = run_scenario(cfg)
        assert outcome.verdicts == {
            "hash_recorded": 2,
            "token_mismatch": 3,
            "token_verified": 1,
            "no_session": 2,
        }
        assert outcome.attack_success_count == 0
        assert outcome.final_states[CLIENT2] == "auth_assoc"

    def test_replay_keeps_one_capture(self):
        clients = [f"02:00:00:00:01:{i:02x}" for i in range(3)]
        cfg = config_from_dict(
            doc(
                stations=[{"role": "ap", "mac": AP}]
                + [{"role": "client", "mac": mac} for mac in clients],
                attackers=[
                    {"kind": "deauth_replay", "spoof_src": clients[0], "target": AP}
                ],
                script=[{"associate": {"client": mac, "ap": AP}} for mac in clients]
                + [{"deauth": {"initiator": clients[0], "reason": 3}}, {"attack": {"index": 0}}],
            )
        )
        run = ScenarioRun(cfg)
        outcome, _ = run.execute()
        (capture,) = run.adversaries[0].captures
        frame = decode_frame(capture)
        assert frame.subtype is FrameSubtype.DEAUTHENTICATION
        assert str(frame.src) == clients[0]
        assert outcome.attack_success_count == 0


class TestBundledScenarios:
    EXPECTED = {
        "legacy_forged_deauth",
        "protected_forged_deauth",
        "protected_legit_teardown",
        "protected_token_guess",
        "protected_assoc_replay",
        "protected_deauth_replay",
        "lossy_protected_flood",
    }

    def test_all_bundled_names_present(self):
        assert set(bundled_scenario_names()) == self.EXPECTED

    def test_all_bundled_scenarios_load_and_run(self):
        for name in bundled_scenario_names():
            outcome, events = run_scenario(load_bundled_scenario(name))
            kinds = [kind for _, kind, _, _, _ in read_events(events)]
            assert outcome.frames_delivered == kinds.count("delivered"), name
            assert outcome.frames_dropped == kinds.count("dropped"), name
            assert outcome.frames_sent == outcome.frames_delivered + outcome.frames_dropped
            assert events, name

    def test_legacy_forged_deauth_disconnects_client(self):
        outcome, _ = run_scenario(load_bundled_scenario("legacy_forged_deauth"))
        assert outcome.attack_success_count == 1
        assert outcome.final_states[CLIENT] == "unauth_unassoc"
        assert outcome.verdicts.get("legacy_no_check") == 1

    def test_protected_forged_deauth_is_harmless(self):
        outcome, _ = run_scenario(load_bundled_scenario("protected_forged_deauth"))
        assert outcome.attack_success_count == 0
        assert outcome.final_states[CLIENT] == "auth_assoc"
        assert outcome.verdicts.get("no_token") == 1

    def test_protected_legit_teardown_still_works(self):
        outcome, _ = run_scenario(load_bundled_scenario("protected_legit_teardown"))
        assert outcome.legit_disconnect_success is True
        assert outcome.verdicts.get("token_verified") == 1
        assert outcome.final_states[CLIENT] == "unauth_unassoc"
        assert outcome.final_states[AP] == "unauth_unassoc"
        assert outcome.attack_success_count == 0

    def test_protected_token_guess_all_mismatch(self):
        outcome, _ = run_scenario(load_bundled_scenario("protected_token_guess"))
        assert outcome.attack_success_count == 0
        assert outcome.verdicts.get("token_mismatch") == 1000
        assert outcome.final_states[CLIENT] == "auth_assoc"

    def test_protected_assoc_replay_rejected(self):
        outcome, _ = run_scenario(load_bundled_scenario("protected_assoc_replay"))
        assert outcome.attack_success_count == 0
        assert outcome.verdicts.get("replayed_hash") == 3

    def test_protected_deauth_replay_finds_no_session(self):
        outcome, _ = run_scenario(load_bundled_scenario("protected_deauth_replay"))
        assert outcome.attack_success_count == 0
        assert outcome.legit_disconnect_success is True
        assert outcome.verdicts.get("no_session") == 2

    def test_lossy_flood_session_survives(self):
        outcome, _ = run_scenario(load_bundled_scenario("lossy_protected_flood"))
        assert outcome.frames_dropped > 0, "the lossy channel must actually drop"
        assert outcome.attack_success_count == 0
        assert outcome.final_states[CLIENT] == "auth_assoc"


class TestRejoin:
    def test_rejoin_after_disassociation_skips_authentication(self):
        # Disassociation keeps both sides AUTH_UNASSOC, so the second join
        # is only the association request and response.
        cfg = config_from_dict(
            doc(
                script=[
                    {"associate": {"client": CLIENT, "ap": AP}},
                    {"deauth": {"initiator": CLIENT, "reason": 8}},
                    {"associate": {"client": CLIENT, "ap": AP}},
                ]
            )
        )
        outcome, events = run_scenario(cfg)
        assert outcome.frames_sent == 7
        assert [decode_frame(frame).subtype for _, _, _, _, frame in read_events(events)[-2:]] == [
            FrameSubtype.ASSOC_REQUEST,
            FrameSubtype.ASSOC_RESPONSE,
        ]
        assert outcome.verdicts == {"hash_recorded": 2, "token_verified": 1}
        assert outcome.final_states == {AP: "auth_assoc", CLIENT: "auth_assoc"}


class TestOutcomeAccounting:
    def test_verdict_sum_matches_independent_event_log_count(self):
        # Recompute from the log: delivered teardown/assoc-request
        # frames whose receiver is the station role that handles them.
        cfg = load_bundled_scenario("protected_token_guess")
        outcome, events = run_scenario(cfg)
        station_ids = {AP, CLIENT}
        processed = 0
        for _, kind, _, dst, raw in read_events(events):
            if kind != "delivered" or dst not in station_ids:
                continue
            frame = decode_frame(raw)
            if frame.subtype in (
                FrameSubtype.DEAUTHENTICATION,
                FrameSubtype.DISASSOCIATION,
            ):
                processed += 1
            elif frame.subtype is FrameSubtype.ASSOC_REQUEST and dst == AP:
                processed += 1
        assert sum(outcome.verdicts.values()) == processed

    def test_runs_are_reproducible_byte_for_byte(self):
        cfg = load_bundled_scenario("lossy_protected_flood")
        outcome_a, events_a = run_scenario(cfg)
        outcome_b, events_b = run_scenario(cfg)
        log_a, log_b = io.StringIO(), io.StringIO()
        write_event_log(events_a, log_a)
        write_event_log(events_b, log_b)
        assert log_a.getvalue() == log_b.getvalue()
        assert outcome_a.to_dict() == outcome_b.to_dict()

    def test_seed_override_changes_the_traffic(self):
        cfg = load_bundled_scenario("protected_legit_teardown")
        _, events_a = run_scenario(cfg, seed=1)
        _, events_b = run_scenario(cfg, seed=2)
        # Different seeds draw different tokens, so the frame bytes differ.
        log_a, log_b = io.StringIO(), io.StringIO()
        write_event_log(events_a, log_a)
        write_event_log(events_b, log_b)
        assert log_a.getvalue() != log_b.getvalue()

    def test_retained_events_are_untracked_plain_tuples(self):
        run = ScenarioRun(load_bundled_scenario("lossy_protected_flood"))
        run.execute()
        assert len(run.medium.events) > 0

        # The log keeps tuples of atomic values, which the cyclic GC stops
        # tracking, and builds no GC-tracked object per frame, so a bigger
        # flood neither leaves more tracked objects nor triggers collections.
        base = load_bundled_scenario("protected_forged_deauth")

        def flood(frames):
            attacker = replace(base.attackers[0], frame_count=frames)
            run = ScenarioRun(replace(base, attackers=[attacker]))
            gc.collect()
            tracked = len(gc.get_objects())
            collections = sum(generation["collections"] for generation in gc.get_stats())
            run.execute()
            collections = sum(g["collections"] for g in gc.get_stats()) - collections
            gc.collect()
            return len(gc.get_objects()) - tracked, collections, len(run.medium.events)

        small, large = flood(1_000), flood(10_000)
        # Three events per attack frame, and eight for the join.
        assert (small[2], large[2]) == (3_008, 30_008)
        # Caches elsewhere in the process vary by a few objects between
        # runs; one tracked object per frame would add 9,000, and storing
        # each event as a tuple costs about 40 collections more.
        assert large[0] - small[0] < 100, "GC-tracked objects retained"
        assert large[1] - small[1] <= 1, "collections during execute"

    @staticmethod
    def traced_execute(name, frame_count):
        """Run bundled ``name`` with its attacker scaled to ``frame_count``.

        Returns the bytes the run keeps once done and the peak bytes
        during ``execute()``, both per frame sent and counted from before
        the run was built (tracemalloc).
        """
        base = load_bundled_scenario(name)
        attacker = replace(base.attackers[0], frame_count=frame_count)
        cfg = replace(base, attackers=[attacker])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = ScenarioRun(cfg)
            tracemalloc.reset_peak()
            run.execute()
            gc.collect()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        frames = run.medium.frames_sent
        return (kept - before) / frames, (peak - before) / frames

    @pytest.mark.parametrize(
        "name, frame_count",
        [("protected_forged_deauth", 100_000), ("protected_token_guess", 10_000)],
    )
    def test_an_attack_step_reaches_the_log_uncopied(self, name, frame_count):
        # The step built by the attacker is the tuple the log keeps: a copy
        # on the way, even one of references, would cost 8 bytes per frame.
        kept, peak = self.traced_execute(name, frame_count)
        assert peak - kept <= 1.0, f"peak {peak:.1f} B per frame, {kept:.1f} kept"

    def test_a_dropped_frame_costs_its_ordinal_only(self):
        # A quarter of the frames drop: 8 bytes for each one's ordinal, on
        # top of one frame reference and one label per frame.
        kept, _ = self.traced_execute("lossy_protected_flood", 100_000)
        assert kept <= 20.0, f"{kept:.1f} B kept per frame"

    def test_outcome_dict_is_json_shaped(self):
        outcome, _ = run_scenario(load_bundled_scenario("protected_legit_teardown"))
        data = outcome.to_dict()
        assert data["mode"] == "protected"
        assert set(data["final_states"]) == {AP, CLIENT}
        assert all(isinstance(v, int) for v in data["verdicts"].values())


class TestProgrammaticConfig:
    def test_direct_construction_and_multi_client_ap_teardown(self):
        client2 = "02:00:00:00:00:03"
        cfg = ScenarioConfig(
            name="two_clients",
            mode=Mode.PROTECTED,
            seed=5,
            stations=(
                StationSpec(Role.AP, MacAddress.parse(AP)),
                StationSpec(Role.CLIENT, MacAddress.parse(CLIENT)),
                StationSpec(Role.CLIENT, MacAddress.parse(client2)),
            ),
            script=(
                AssociateAction(MacAddress.parse(CLIENT), MacAddress.parse(AP)),
                AssociateAction(MacAddress.parse(client2), MacAddress.parse(AP)),
                DeauthAction(MacAddress.parse(AP), 5),
            ),
        )
        outcome, _ = run_scenario(cfg)
        assert outcome.legit_disconnect_success is True
        assert outcome.verdicts.get("token_verified") == 2, (
            "the AP tears down each session with its own verified frame"
        )
        assert outcome.final_states[CLIENT] == "unauth_unassoc"
        assert outcome.final_states[client2] == "unauth_unassoc"

    def test_attack_success_counted_from_true_sender(self):
        cfg = ScenarioConfig(
            name="legacy_hit",
            mode=Mode.LEGACY,
            seed=5,
            stations=(
                StationSpec(Role.AP, MacAddress.parse(AP)),
                StationSpec(Role.CLIENT, MacAddress.parse(CLIENT)),
            ),
            attackers=(
                AttackerConfig(
                    AttackKind.FORGED_DEAUTH,
                    MacAddress.parse(AP),
                    MacAddress.parse(CLIENT),
                ),
            ),
            script=(
                AssociateAction(MacAddress.parse(CLIENT), MacAddress.parse(AP)),
                AttackAction(0),
            ),
        )
        outcome, events = run_scenario(cfg)
        assert outcome.attack_success_count == 1
        assert outcome.legit_disconnect_success is True, (
            "no legitimate teardown was scripted, so none can have failed"
        )
        injected = [src for _, kind, src, _, _ in read_events(events) if kind == "injected"]
        assert injected == ["attacker:0"]

    def test_a_script_entry_that_is_not_an_action_is_refused(self):
        with pytest.raises(ConfigError, match="unknown script action"):
            ScenarioConfig(
                name="bad_script",
                mode=Mode.PROTECTED,
                seed=5,
                stations=(StationSpec(Role.AP, MacAddress.parse(AP)),),
                script=({"associate": {}},),
            )
