"""Scenario configs and end-to-end runs of the bundled scenarios."""

import contextlib
import copy
import gc
import io
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from deauthsim import scenario, stations
from deauthsim.frames import FrameSubtype, decode_frame
from deauthsim.medium import Medium, write_event_log
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
from deauthsim.adversary import (
    MAX_FRAME_COUNT,
    Adversary,
    AdversaryError,
    AttackerConfig,
    AttackKind,
)
from deauthsim.frames import TOKEN_OFFSET, MacAddress, ManagementFrame, encode_frame
from helpers import complete_handshake, make_pair, read_events
from medium_reference import ReferenceMedium, reference_write_event_log

AP = "02:00:00:00:00:01"
CLIENT = "02:00:00:00:00:02"
BROADCAST = "ff:ff:ff:ff:ff:ff"

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

    def test_name_and_seed_default_to_the_records_own(self):
        cfg = config_from_dict({k: v for k, v in BASE_DOC.items() if k not in ("name", "seed")})
        assert (cfg.name, cfg.seed) == ("unnamed", 0)

    def test_direct_construction_takes_the_same_defaults(self):
        ap = StationSpec(Role.AP, MacAddress.parse(AP))
        cfg = ScenarioConfig(mode=Mode.LEGACY, stations=(ap,))
        assert (cfg.name, cfg.seed) == ("unnamed", 0)

    def test_missing_stations_refused(self):
        with pytest.raises(ConfigError, match="at least one station"):
            config_from_dict(
                {k: v for k, v in BASE_DOC.items() if k not in ("stations", "script")}
            )

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


# A valid document that sets every field and uses all three script verbs.
FULL_DOC = {
    **BASE_DOC,
    "loss_probability": 0.5,
    "max_ticks": 100,
    "attackers": [attacker(frame_count=2, reason=3, seed=7)],
    "script": [
        {"associate": {"client": CLIENT, "ap": AP}},
        {"attack": {"index": 0}},
        {"deauth": {"initiator": CLIENT, "reason": 3}},
    ],
}


def _paths(node, prefix=()):
    """Every key or index path into ``node``, containers and leaves alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


PATH = st.sampled_from(list(_paths(FULL_DOC)))
KEY = st.sampled_from(["role", "mac", "kind", "index"]) | st.text(max_size=5)
ANY_VALUE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True)
    | st.text(max_size=20)
    | st.binary(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(KEY, children, max_size=3),
    max_leaves=6,
)


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
            # Random(-s) seeds as Random(s) does: the run would repeat seed s's.
            {"seed": -1},
            {"attackers": [attacker(seed=-1337)]},
            # float() of this int overflows rather than raising ValueError.
            {"loss_probability": 10**400},
        ],
    )
    def test_hostile_values_are_config_errors(self, overrides):
        with pytest.raises(ConfigError):
            config_from_dict(doc(**overrides))

    @given(edits=st.lists(st.tuples(PATH, ANY_VALUE), min_size=1, max_size=3))
    @example(edits=[(("loss_probability",), 10**400)])
    @settings(max_examples=200, deadline=None)
    def test_mutated_documents_load_or_raise_config_error(self, edits):
        mutated = copy.deepcopy(FULL_DOC)
        for path, value in edits:
            parent = mutated
            try:
                for step in path[:-1]:
                    parent = parent[step]
                parent[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit replaced a node on this path
        with contextlib.suppress(ConfigError):
            assert isinstance(config_from_dict(mutated), ScenarioConfig)

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
        with pytest.raises(AdversaryError, match="^no token-bearing teardown was sniffed$"):
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


class TestAttackerTaps:
    """Each attacker attaches itself as a tap; only the kinds that replay read what they sniff."""

    # Whether each kind's ``on_sniffed`` is attached; a new kind must say so here.
    SNIFFS = {
        AttackKind.FORGED_DEAUTH: False,
        AttackKind.TOKEN_GUESS: False,
        AttackKind.ASSOC_REPLAY: True,
        AttackKind.DEAUTH_REPLAY: True,
    }

    @pytest.mark.parametrize("kind", list(AttackKind), ids=lambda kind: kind.value)
    def test_only_the_kinds_that_replay_are_called_per_sniffed_frame(self, kind, monkeypatch):
        calls = Counter()
        on_sniffed = Adversary.on_sniffed

        def counted(adv, src, data):
            calls[adv.endpoint_id] += 1
            on_sniffed(adv, src, data)

        monkeypatch.setattr(Adversary, "on_sniffed", counted)
        cfg = config_from_dict(
            doc(
                attackers=[attacker(kind=kind.value, spoof_src=CLIENT, target=AP, frame_count=3)],
                script=[
                    {"associate": {"client": CLIENT, "ap": AP}},
                    {"deauth": {"initiator": CLIENT, "reason": 3}},
                    {"attack": {"index": 0}},
                ],
            )
        )
        _, events = run_scenario(cfg)
        # The medium logs every frame a tap sees, whether it has a callback or
        # not: at least the 5 station frames and the 3 attack frames.
        sniffed = sum(event == "sniffed" for _, event, _, _, _ in read_events(events))
        assert sniffed >= 8
        assert calls == (Counter({"attacker:0": sniffed}) if self.SNIFFS[kind] else Counter())

    def test_an_attacker_may_send_from_its_sniff_callback(self, monkeypatch):
        on_sniffed = Adversary.on_sniffed

        def react(adv, src, data):
            # The step goes out the moment the first capture is made.
            had_capture = bool(adv.captures)
            on_sniffed(adv, src, data)
            if adv.captures and not had_capture:
                adv.attack()

        monkeypatch.setattr(Adversary, "on_sniffed", react)
        cfg = load_bundled_scenario("protected_assoc_replay")
        cfg = replace(cfg, script=cfg.script[:1])
        assert isinstance(cfg.script[0], AssociateAction)
        outcome, events = ScenarioRun(cfg).execute()
        delivered = []
        for tick, kind, src, _, data in read_events(events):
            if kind == "delivered":
                frame = decode_frame(data)
                delivered.append((tick, src, frame.subtype, frame.status_or_reason))
        assert delivered == [
            (1, CLIENT, FrameSubtype.AUTH_REQUEST, 0),
            (2, AP, FrameSubtype.AUTH_RESPONSE, 0),
            (3, CLIENT, FrameSubtype.ASSOC_REQUEST, 0),
            *[(4, "attacker:0", FrameSubtype.ASSOC_REQUEST, 0)] * 3,
            (4, AP, FrameSubtype.ASSOC_RESPONSE, 0),
            *[(5, AP, FrameSubtype.ASSOC_RESPONSE, 1)] * 3,
        ], "the tap's answer is queued while the request is sniffed, ahead of the AP's reply"
        assert outcome.verdicts == {"hash_recorded": 1, "replayed_hash": 3}
        assert outcome.attack_success_count == 0
        assert outcome.final_states[CLIENT] == "auth_assoc"


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

    @pytest.mark.parametrize("target", [CLIENT, "ff:ff:ff:ff:ff:ff"])
    def test_a_legacy_flood_is_accepted_once(self, target):
        # The first copy disconnects the client.  A station never remembers
        # an accepted teardown, so every later copy, at each station it
        # reaches, is judged against the emptied session table.
        base = load_bundled_scenario("legacy_forged_deauth")
        attacker = replace(base.attackers[0], frame_count=1_000, target=MacAddress.parse(target))
        outcome, _ = run_scenario(replace(base, attackers=[attacker]))
        assert outcome.frames_delivered == 1_004  # and the join's four frames
        # A broadcast copy reaches the AP too, which has no session with itself.
        copies = 1_000 if target == CLIENT else 2_000
        assert outcome.attack_success_count == 1
        assert outcome.verdicts == {
            "legacy_assoc": 1,
            "legacy_no_check": 1,
            "no_session": copies - 1,
        }

    @pytest.mark.parametrize(
        "name, expected",
        [
            pytest.param(name, expected, id=name)
            for name, expected in [
                ("protected_forged_deauth", {CLIENT: (5, 1), BROADCAST: (6, 2)}),
                ("legacy_forged_deauth", {CLIENT: (6, 2), BROADCAST: (8, 4)}),
                ("lossy_protected_flood", {CLIENT: (5, 1), BROADCAST: (6, 2)}),
            ]
        ],
    )
    @pytest.mark.parametrize("target", [CLIENT, BROADCAST])
    def test_a_flood_is_judged_a_fixed_number_of_times(self, monkeypatch, name, expected, target):
        # Past the join's four frames, the client decodes and judges each
        # copy until it answers one true, a teardown it did not accept, and
        # the medium hands it the rest of the run as one count, so neither
        # count grows with the flood.  A protected client answers the first
        # copy true; a legacy one accepts the first and answers the second.
        # A broadcast copy also reaches the AP, which judges as many copies
        # as the client: a broadcast run starts once both have answered true.
        calls = Counter()
        decode, verify = stations.decode_frame, stations.Station.verify_deauth

        def counted_decode(data):
            calls["decode"] += 1
            return decode(data)

        def counted_verify(station, frame):
            calls["verify"] += 1
            return verify(station, frame)

        monkeypatch.setattr(stations, "decode_frame", counted_decode)
        monkeypatch.setattr(stations.Station, "verify_deauth", counted_verify)
        base = load_bundled_scenario(name)
        counts = []
        for frame_count in (1_000, 10_000):
            attacker = replace(
                base.attackers[0], frame_count=frame_count, target=MacAddress.parse(target)
            )
            calls.clear()
            run_scenario(replace(base, attackers=[attacker]))
            counts.append((calls["decode"], calls["verify"]))
        assert counts == [expected[target], expected[target]]

    def test_runs_are_reproducible_byte_for_byte(self):
        cfg = load_bundled_scenario("lossy_protected_flood")
        outcome_a, events_a = run_scenario(cfg)
        outcome_b, events_b = run_scenario(cfg)
        log_a, log_b = io.StringIO(), io.StringIO()
        write_event_log(events_a, log_a)
        write_event_log(events_b, log_b)
        assert log_a.getvalue() == log_b.getvalue()
        assert outcome_a.to_dict() == outcome_b.to_dict()

    def test_runs_share_no_tally(self):
        # Both runs are built before either executes: an outcome shared
        # through a default or a class attribute would count twice.  The
        # expected dict is a copy taken first, so a shared tally cannot
        # grow it along with the others.
        cfg = load_bundled_scenario("protected_token_guess")
        expected = run_scenario(cfg)[0].to_dict()
        first, second = ScenarioRun(cfg), ScenarioRun(cfg)
        outcome_a, _ = first.execute()
        outcome_b, _ = second.execute()
        assert outcome_a.to_dict() == outcome_b.to_dict() == expected
        assert type(outcome_a.verdicts) is dict

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
    def traced_execute(name, frame_count, target=None):
        """Run bundled ``name`` with its attacker scaled to ``frame_count``.

        ``target``, when given, replaces the attacker's target MAC.
        Returns the bytes the run keeps once done and the peak bytes
        during ``execute()``, both per frame sent and counted from before
        the run was built (tracemalloc).
        """
        base = load_bundled_scenario(name)
        attacker = replace(base.attackers[0], frame_count=frame_count)
        if target is not None:
            attacker = replace(attacker, target=MacAddress.parse(target))
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
    def test_an_attack_step_reaches_the_log_uncopied(self, monkeypatch, name, frame_count):
        # The step built by the attacker is the tuple the log keeps: a copy
        # on the way, even one of references, would cost 8 bytes per frame.
        # The peak is taken from the moment the step is built, so that the
        # attacker's own tuple growth while building distinct guesses,
        # about 2 B per frame, is not read as a copy.
        build = Adversary.frames

        def built(adversary):
            step = build(adversary)
            tracemalloc.reset_peak()
            return step

        monkeypatch.setattr(Adversary, "frames", built)
        kept, peak = self.traced_execute(name, frame_count)
        assert peak - kept <= 1.0, f"peak {peak:.1f} B per frame, {kept:.1f} kept"

    def test_a_dropped_frame_costs_its_ordinal_only(self):
        # A quarter of the frames drop: 8 bytes for each one's ordinal, on
        # top of the one frame reference every frame keeps.
        kept, _ = self.traced_execute("lossy_protected_flood", 100_000)
        assert kept <= 11.0, f"{kept:.1f} B kept per frame"

    @pytest.mark.parametrize("target", [CLIENT, BROADCAST])
    def test_a_flood_keeps_one_reference_per_frame(self, target):
        # A frame's destination is derived when the log is written, not
        # stored, so a flood keeps only its step's reference to each frame,
        # unicast or broadcast.  A label reference per frame would keep
        # 16 B, and a fresh 66-byte label per copy 82 B.
        kept, _ = self.traced_execute("protected_forged_deauth", 100_000, target)
        assert kept <= 9.0, f"{kept:.1f} B kept per frame"

    def test_writing_a_flood_log_holds_a_bounded_part_of_it(self):
        # A uniform record's lines are formatted once, and the text is
        # written in chunks of a bounded number of lines, a repeated stretch
        # cut to fit, so the writer never holds a flood's log whole: 300,008
        # lines of about 100 B here.
        base = load_bundled_scenario("protected_forged_deauth")
        attacker = replace(base.attackers[0], frame_count=100_000)
        _, events = run_scenario(replace(base, attackers=[attacker]))

        class Sink:
            """Counts the lines written to it and keeps none of the text."""

            lines = 0

            def write(self, text):
                self.lines += text.count("\n")

        sink = Sink()
        gc.collect()
        tracemalloc.start()
        try:
            write_event_log(events, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.lines == 300_008  # three per copy and eight for the join
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB while writing"

    def test_outcome_dict_is_json_shaped(self):
        outcome, _ = run_scenario(load_bundled_scenario("protected_legit_teardown"))
        data = outcome.to_dict()
        assert data["mode"] == "protected"
        assert set(data["final_states"]) == {AP, CLIENT}
        assert all(isinstance(v, int) for v in data["verdicts"].values())


class TestFloodRuns:
    """A flood as one uniform entry against the same copies as one entry each.

    An attack step repeats one frame, and once every station it reaches
    has answered a copy true, the medium hands each the rest of the entry
    as one count.  Copies sent as one-frame entries in the same tick
    cannot form a run, so each one is judged afresh.  Both must give the
    same log and the same outcome.
    """

    @staticmethod
    def log_and_outcome(cfg, one_by_one):
        run = ScenarioRun(cfg)
        adversary = run.adversaries[0]
        step = adversary.frames
        judged = Counter()
        for mac, station in run.stations.items():
            judge = station.receive_frame

            def receive_frame(data, mac=str(mac), judge=judge):
                judged[mac] += 1
                return judge(data)

            station.receive_frame = receive_frame

        def attack():
            frames = step()
            assert len(set(map(id, frames))) == 1
            if one_by_one:
                for frame in frames:
                    adversary.handle.send((frame,))
            else:
                adversary.handle.send(frames)

        adversary.attack = attack
        outcome, events = run.execute()
        if one_by_one:
            reached = Counter()
            for _, kind, src, dst, _ in read_events(events):
                if kind == "delivered":
                    reached.update(m for m in judged if dst in (m, BROADCAST) and m != src)
            assert judged == reached, "every delivered copy is judged by a call of its own"
        stream = io.StringIO()
        write_event_log(events, stream)
        return stream.getvalue(), outcome.to_dict()

    @pytest.mark.parametrize("mode", ["protected", "legacy"])
    @pytest.mark.parametrize("target", [CLIENT, BROADCAST, "02:00:00:00:00:99"])
    @given(
        loss=st.sampled_from([0.0, 0.25, 1.0]),
        seed=st.integers(0, 2**32),
        copies=st.integers(1, 30),
        reason=st.sampled_from([1, 3, 8]),
        before_join=st.booleans(),
    )
    # A legacy client accepts the first copy after the join and answers the
    # rest true; at loss 0 both the first copy and the run are delivered.
    @example(loss=0.0, seed=0, copies=5, reason=3, before_join=True)
    @settings(max_examples=40, deadline=None)
    def test_a_run_leaves_the_log_and_outcome_its_copies_one_by_one_do(
        self, mode, target, loss, seed, copies, reason, before_join
    ):
        flood = {"attack": {"index": 0}}
        cfg = config_from_dict(
            {
                **BASE_DOC,
                "mode": mode,
                "seed": seed,
                "loss_probability": loss,
                "attackers": [attacker(target=target, frame_count=copies, reason=reason)],
                "script": [flood] * before_join + BASE_DOC["script"] + [flood],
            }
        )
        assert self.log_and_outcome(cfg, False) == self.log_and_outcome(cfg, True)


class TestGuessBatches:
    """Distinct token guesses as one entry against the same guesses as one entry each.

    Once the AP answers ``BATCH`` the first guess of an entry that is
    delivered and answered true, the medium hands it the rest of the entry
    in one call per stretch of delivered frames.  The AP hashes a guess
    that differs from a ``token_mismatch`` only in its token without
    decoding it, and counts one that differs so from a ``no_session``
    without either.  Guesses sent as one-frame entries
    are each judged on their own.  Both must give the same log and the same
    outcome.
    """

    @staticmethod
    def log_and_outcome(cfg, one_by_one, real_at):
        run = ScenarioRun(cfg)
        adversary = run.adversaries[0]
        step = adversary.frames
        client = run.stations[MacAddress.parse(CLIENT)]

        def attack():
            frames = list(step())
            record = client.sessions.get(MacAddress.parse(AP))
            if record is not None:
                # The client's own token behind the guesses' first bytes.
                frames[real_at % len(frames)] = frames[0][:TOKEN_OFFSET] + record.own_token
            if one_by_one:
                for frame in frames:
                    adversary.handle.send((frame,))
            else:
                adversary.handle.send(tuple(frames))

        adversary.attack = attack
        outcome, events = run.execute()
        stream = io.StringIO()
        write_event_log(events, stream)
        return stream.getvalue(), outcome.to_dict()

    @pytest.mark.parametrize("mode", ["protected", "legacy"])
    @given(
        loss=st.sampled_from([0.0, 0.25, 1.0]),
        seed=st.integers(0, 2**32),
        guesses=st.integers(1, 30),
        real_at=st.integers(0, 29),
        reason=st.sampled_from([1, 3, 8]),
    )
    # The real token in the middle of a batch at loss 0: the guesses before
    # it are token_mismatch, the ones after it no_session.
    @example(loss=0.0, seed=0, guesses=9, real_at=4, reason=3)
    @settings(max_examples=40, deadline=None)
    def test_a_batch_leaves_the_log_and_outcome_its_frames_one_by_one_do(
        self, mode, loss, seed, guesses, real_at, reason
    ):
        cfg = config_from_dict(
            {
                **BASE_DOC,
                "mode": mode,
                "seed": seed,
                "loss_probability": loss,
                "attackers": [
                    {
                        "kind": "token_guess",
                        "spoof_src": CLIENT,
                        "target": AP,
                        "frame_count": guesses,
                        "reason": reason,
                        "seed": seed,
                    }
                ],
                "script": BASE_DOC["script"] + [{"attack": {"index": 0}}],
            }
        )
        batched = self.log_and_outcome(cfg, False, real_at)
        assert batched == self.log_and_outcome(cfg, True, real_at)

    def test_guesses_after_a_mismatch_are_hashed_but_not_decoded(self, monkeypatch):
        calls = Counter()
        for name in ("decode_frame", "hash_token"):
            original = getattr(stations, name)

            def counted(arg, name=name, original=original):
                calls[name] += 1
                return original(arg)

            monkeypatch.setattr(stations, name, counted)
        guesser = {"kind": "token_guess", "spoof_src": CLIENT, "target": AP, "frame_count": 100}
        cfg = config_from_dict(
            doc(attackers=[guesser], script=[*BASE_DOC["script"], {"attack": {"index": 0}}])
        )
        outcome, _ = ScenarioRun(cfg).execute()
        assert outcome.verdicts == {"hash_recorded": 1, "token_mismatch": 100}
        # Four join frames, then the first guess alone and the second as the
        # first of the batch: every guess is hashed, two are decoded.
        assert calls == {"decode_frame": 6, "hash_token": 102}

    def test_guesses_after_no_session_are_neither_decoded_nor_hashed(self, monkeypatch):
        calls = Counter()
        for name in ("decode_frame", "hash_token"):
            original = getattr(stations, name)

            def counted(arg, name=name, original=original):
                calls[name] += 1
                return original(arg)

            monkeypatch.setattr(stations, name, counted)
        guesser = {"kind": "token_guess", "spoof_src": CLIENT, "target": AP, "frame_count": 100}
        script = [*BASE_DOC["script"], {"attack": {"index": 0}}]
        cfg = config_from_dict(doc(mode="legacy", attackers=[guesser], script=script))
        outcome, _ = ScenarioRun(cfg).execute()
        assert outcome.verdicts == {"legacy_assoc": 1, "legacy_no_check": 1, "no_session": 99}
        # Four join frames; the first guess is accepted and the second finds
        # no session, one by one; the batch after them decodes its first
        # guess only.  Only the join's two tokens are hashed.
        assert calls == {"decode_frame": 7, "hash_token": 2}


class TestHostileBytesInABatch:
    """Frames that share a token_mismatch guess's first 18 bytes, or most of
    them, without being a guess of the same shape."""

    @staticmethod
    def entry(other_dst):
        """Guesses from the client at the AP, each after one hostile frame."""
        client, ap = MacAddress.parse(CLIENT), MacAddress.parse(AP)
        guess = encode_frame(
            ManagementFrame(FrameSubtype.DEAUTHENTICATION, client, ap, 3, token=bytes(16))
        )
        prefix = guess[:18]
        hostile = [
            prefix + bytes(15),  # 33 bytes
            prefix + bytes(17),  # 35 bytes
            prefix + bytes(64),  # 82 bytes, with a token's element header
            guess[:15],  # a bare teardown
            guess[:1] + MacAddress.parse("02:00:00:00:00:99") + guess[7:],  # another source
            guess[:7] + other_dst + guess[13:],  # another destination
        ]
        frames = [guess]
        for number, frame in enumerate(hostile, 1):
            frames += [frame, prefix + bytes([number]) * 16]
        return tuple(frames)

    # Joined, a guess gets token_mismatch; without a session, no_session.
    # Either verdict lets the frames after it skip their decode.
    @pytest.mark.parametrize(
        "joined, expected",
        [
            (True, {"token_mismatch": 7, "no_token": 1, "no_session": 1}),
            (False, {"no_session": 9}),
        ],
    )
    def test_each_frame_gets_the_verdict_or_none_it_gets_alone(self, joined, expected):
        frames = self.entry(MacAddress.parse(CLIENT2))

        def ap():
            client, ap = make_pair()
            if joined:
                complete_handshake(client, ap)
            return ap

        alone = ap()
        results = [alone.receive_frame(frame) for frame in frames]
        # A batch of the first k frames gets the verdicts the first k get
        # alone, in order, for every k: so each frame gets its own.
        for k in range(1, len(frames) + 1):
            judged = ap().receive_frames(frames, 0, k)
            verdicts = [verdict for _, verdict, count in judged for _ in range(count)]
            assert verdicts == [r[1] for r in results[:k] if r is not None], k
        causes = Counter(r[1].cause for r in results if r is not None)
        assert causes == expected
        assert [r is None for r in results[1:6:2]] == [True] * 3, "33, 35 and 82 bytes"

    def test_a_frame_to_another_station_reaches_it_in_order(self):
        frames = self.entry(MacAddress.parse(CLIENT2))
        cfg = config_from_dict(
            doc(
                stations=[*BASE_DOC["stations"], {"role": "client", "mac": CLIENT2}],
                attackers=[{"kind": "token_guess", "spoof_src": CLIENT, "target": AP}],
                script=[*BASE_DOC["script"], {"attack": {"index": 0}}],
            )
        )
        run = ScenarioRun(cfg)
        seen = []
        for mac, station in run.stations.items():
            judge = station.receive_frame

            def receive_frame(data, mac=str(mac), judge=judge):
                seen.append((mac, data))
                return judge(data)

            station.receive_frame = receive_frame
        run.adversaries[0].frames = lambda: frames
        outcome, _ = run.execute()
        other = 11  # the frame to CLIENT2
        assert seen[4:] == [(AP, f) for f in frames[:other]] + [(CLIENT2, frames[other])] + [
            (AP, f) for f in frames[other + 1 :]
        ], "an entry for two stations goes copy by copy, in order"
        assert outcome.verdicts == {
            "hash_recorded": 1,
            "token_mismatch": 7,
            "no_token": 1,
            "no_session": 2,
        }


class TestAgainstReferenceMedium:
    """Whole bundled scenarios on the library's medium and on the plain drain
    of medium_reference.py, which hands every frame over as a call of its own
    and knows no run and no batch."""

    @staticmethod
    def outcome_and_log(cfg, medium_class):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario, "Medium", medium_class)
            try:
                outcome, events = ScenarioRun(cfg).execute()
            except Exception as exc:
                return type(exc), str(exc)
        stream = io.StringIO()
        write = write_event_log if medium_class is Medium else reference_write_event_log
        write(events, stream)
        return outcome.to_dict(), stream.getvalue()

    @pytest.mark.parametrize("target", [None, BROADCAST, "02:99:99:99:99:99"])
    @pytest.mark.parametrize("name", sorted(TestBundledScenarios.EXPECTED))
    def test_same_outcome_and_log_as_the_plain_drain(self, name, target):
        base = load_bundled_scenario(name)
        if target is not None:
            mac = MacAddress.parse(target)
            base = replace(base, attackers=[replace(a, target=mac) for a in base.attackers])
        for loss in (0.0, 0.25, 1.0):
            cfg = replace(base, loss_probability=loss)
            library = self.outcome_and_log(cfg, Medium)
            assert library == self.outcome_and_log(cfg, ReferenceMedium), loss


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
