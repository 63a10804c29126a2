"""Scenario configuration, execution, and outcome accounting.

A scenario file is YAML with a versioned schema:

    schema: 1
    name: protected_forged_deauth
    mode: protected            # or legacy
    seed: 42
    loss_probability: 0.0
    max_ticks: 10000
    stations:
      - {role: ap, mac: "02:00:00:00:00:01"}
      - {role: client, mac: "02:00:00:00:00:02"}
    attackers:
      - kind: forged_deauth    # token_guess | assoc_replay | deauth_replay
        spoof_src: "02:00:00:00:00:01"
        target: "02:00:00:00:00:02"
        frame_count: 1
        reason: 3
        seed: 1337
    script:
      - associate: {client: "02:00:00:00:00:02", ap: "02:00:00:00:00:01"}
      - deauth: {initiator: "02:00:00:00:00:02", reason: 3}
      - attack: {index: 0}

Fields are checked strictly: an unknown key anywhere is a ``ConfigError``
(a misspelt ``loss_probability`` must not silently run loss-free), and
integer fields must be YAML integers, never strings, floats or booleans.

Script actions run in order; the medium drains to idle after each one.
Every attacker is attached as a promiscuous tap and an injector, so
replay attacks see all earlier traffic.

Randomness derivation is fixed: one master ``random.Random(seed)``
yields a 64-bit sub-seed for the medium's loss stream and then one per
station in listing order; attackers use their own explicit seeds.  Two
runs of the same config therefore produce byte-identical event logs.

Reported ``final_states`` map each station's MAC to the highest
lifecycle state it currently holds toward any peer.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from random import Random

import yaml

from .adversary import DEFAULT_REASON, Adversary, AttackerConfig, AttackKind
from .frames import TEARDOWN_SUBTYPES, FrameSubtype, MacAddress
from .medium import DEFAULT_MAX_TICKS, Medium, MediumConfig, MediumEvent
from .stations import (
    AccessPoint,
    ClientStation,
    LifecycleState,
    Station,
    Action,
    TEARDOWN_REASONS,
)

SCHEMA_VERSION = 1

# Every field a scenario document, and each of its attackers, may carry.
SCENARIO_KEYS = (
    "schema",
    "name",
    "mode",
    "seed",
    "loss_probability",
    "max_ticks",
    "stations",
    "attackers",
    "script",
)
ATTACKER_KEYS = ("kind", "spoof_src", "target", "frame_count", "reason", "seed")

# Subtypes whose verdicts the outcome tallies.
COUNTED_SUBTYPES = TEARDOWN_SUBTYPES | {FrameSubtype.ASSOC_REQUEST}


class ConfigError(Exception):
    """Scenario file or config rejected before any simulation ran."""


class Mode(Enum):
    PROTECTED = "protected"
    LEGACY = "legacy"


class Role(Enum):
    CLIENT = "client"
    AP = "ap"


@dataclass(frozen=True)
class StationSpec:
    role: Role
    mac: MacAddress


@dataclass(frozen=True)
class AssociateAction:
    client: MacAddress
    ap: MacAddress


@dataclass(frozen=True)
class DeauthAction:
    initiator: MacAddress
    reason: int


@dataclass(frozen=True)
class AttackAction:
    index: int


ScriptAction = AssociateAction | DeauthAction | AttackAction


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    mode: Mode
    seed: int
    stations: tuple[StationSpec, ...]
    attackers: tuple[AttackerConfig, ...] = ()
    script: tuple[ScriptAction, ...] = ()
    loss_probability: float = 0.0
    max_ticks: int = DEFAULT_MAX_TICKS

    def __post_init__(self) -> None:
        if not self.stations:
            raise ConfigError("scenario needs at least one station")
        macs = [spec.mac for spec in self.stations]
        if len(set(macs)) != len(macs):
            raise ConfigError("station MACs must be unique")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigError(
                f"loss probability {self.loss_probability} outside [0, 1]"
            )
        if self.max_ticks < 1:
            raise ConfigError(f"max_ticks must be positive, got {self.max_ticks}")
        roles = {spec.mac: spec.role for spec in self.stations}
        for action in self.script:
            if isinstance(action, AssociateAction):
                if roles.get(action.client) is not Role.CLIENT:
                    raise ConfigError(f"associate: {action.client} is not a client")
                if roles.get(action.ap) is not Role.AP:
                    raise ConfigError(f"associate: {action.ap} is not an AP")
            elif isinstance(action, DeauthAction):
                if action.initiator not in roles:
                    raise ConfigError(f"deauth: unknown initiator {action.initiator}")
                if action.reason not in TEARDOWN_REASONS:
                    raise ConfigError(
                        f"deauth: reason {action.reason} is not a normal-disconnect code"
                    )
            elif isinstance(action, AttackAction):
                if not 0 <= action.index < len(self.attackers):
                    raise ConfigError(f"attack: no attacker at index {action.index}")
            else:
                raise ConfigError(f"unknown script action {action!r}")


@dataclass
class ScenarioOutcome:
    """Counters summarizing one run."""

    name: str
    mode: Mode
    seed: int
    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    verdicts: dict[str, int] = field(default_factory=dict)
    attack_success_count: int = 0
    legit_disconnect_success: bool = True
    final_states: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(asdict(self), mode=self.mode.value)


# -- config loading ----------------------------------------------------


def _parse_mac(value, where: str) -> MacAddress:
    try:
        return MacAddress.parse(str(value))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _reject_unknown_keys(mapping: dict, known: tuple[str, ...], where: str) -> None:
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise ConfigError(
            f"{where}: unknown field {unknown[0]!r}; expected one of {', '.join(known)}"
        )


def _int_field(mapping: dict, key: str, where: str, default: int | None = None) -> int:
    """An integer field, never coerced; ``bool`` is not an integer here."""
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def _parse_action(entry, index: int) -> ScriptAction:
    where = f"script[{index}]"
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ConfigError(f"{where}: each action is a one-key mapping")
    (verb, body), = entry.items()
    if not isinstance(body, dict):
        raise ConfigError(f"{where}: {verb} body must be a mapping")
    if verb == "associate":
        _reject_unknown_keys(body, ("client", "ap"), where)
        return AssociateAction(
            client=_parse_mac(_require(body, "client", where), where),
            ap=_parse_mac(_require(body, "ap", where), where),
        )
    if verb == "deauth":
        _reject_unknown_keys(body, ("initiator", "reason"), where)
        return DeauthAction(
            initiator=_parse_mac(_require(body, "initiator", where), where),
            reason=_int_field(body, "reason", where),
        )
    if verb == "attack":
        _reject_unknown_keys(body, ("index",), where)
        return AttackAction(index=_int_field(body, "index", where))
    raise ConfigError(f"{where}: unknown action {verb!r}")


def _parse_attacker(entry, index: int) -> AttackerConfig:
    where = f"attackers[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: must be a mapping")
    _reject_unknown_keys(entry, ATTACKER_KEYS, where)
    kind_name = str(_require(entry, "kind", where))
    try:
        kind = AttackKind(kind_name)
    except ValueError:
        raise ConfigError(f"{where}: unknown attack kind {kind_name!r}") from None
    try:
        return AttackerConfig(
            kind=kind,
            spoof_src=_parse_mac(_require(entry, "spoof_src", where), where),
            target=_parse_mac(_require(entry, "target", where), where),
            frame_count=_int_field(entry, "frame_count", where, 1),
            reason=_int_field(entry, "reason", where, DEFAULT_REASON),
            seed=_int_field(entry, "seed", where, 0),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Validate a parsed scenario document into a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a mapping")
    _reject_unknown_keys(doc, SCENARIO_KEYS, "scenario")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema!r}")

    mode_name = str(_require(doc, "mode", "scenario"))
    try:
        mode = Mode(mode_name)
    except ValueError:
        raise ConfigError(f"unknown mode {mode_name!r}") from None

    stations_doc = _require(doc, "stations", "scenario")
    if not isinstance(stations_doc, list):
        raise ConfigError("stations must be a list")
    stations = []
    for i, entry in enumerate(stations_doc):
        where = f"stations[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: must be a mapping")
        _reject_unknown_keys(entry, ("role", "mac"), where)
        role_name = str(_require(entry, "role", where))
        try:
            role = Role(role_name)
        except ValueError:
            raise ConfigError(f"{where}: unknown role {role_name!r}") from None
        stations.append(
            StationSpec(role=role, mac=_parse_mac(_require(entry, "mac", where), where))
        )

    attackers = [
        _parse_attacker(entry, i) for i, entry in enumerate(doc.get("attackers", []))
    ]
    script = [_parse_action(entry, i) for i, entry in enumerate(doc.get("script", []))]

    seed = _int_field(doc, "seed", "scenario", 0)
    loss = doc.get("loss_probability", 0.0)
    if not isinstance(loss, (int, float)) or isinstance(loss, bool):
        raise ConfigError("loss_probability must be a number")
    max_ticks = _int_field(doc, "max_ticks", "scenario", DEFAULT_MAX_TICKS)

    return ScenarioConfig(
        name=str(doc.get("name", "unnamed")),
        mode=mode,
        seed=seed,
        stations=tuple(stations),
        attackers=tuple(attackers),
        script=tuple(script),
        loss_probability=float(loss),
        max_ticks=max_ticks,
    )


def load_scenario_text(text: str) -> ScenarioConfig:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file is not valid YAML: {exc}") from None
    return config_from_dict(doc)


def load_scenario_file(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file {path} does not exist")
    return load_scenario_text(path.read_text())


def bundled_scenario_names() -> list[str]:
    """Names of the scenarios shipped inside the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_bundled_scenario(name: str) -> ScenarioConfig:
    root = resources.files(__package__) / "scenarios"
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        raise ConfigError(
            f"unknown bundled scenario {name!r}; available: {', '.join(bundled_scenario_names())}"
        )
    return load_scenario_text(candidate.read_text())


def load_scenario(ref: str | Path) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(ref)
    if path.exists():
        return load_scenario_file(path)
    if isinstance(ref, str) and "/" not in ref and "\\" not in ref:
        return load_bundled_scenario(ref)
    raise ConfigError(f"scenario file {ref} does not exist")


# -- execution ---------------------------------------------------------


class ScenarioRun:
    """Wires stations, adversaries and medium for one config.

    Verdicts are tallied as they happen and not kept: per-cause counts
    for the subtypes in ``COUNTED_SUBTYPES``, accepted frames injected by
    an adversary, and accepted teardowns sent by stations.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.verdict_counts: Counter[str] = Counter()
        self.attack_success_count = 0
        self.teardown_accepts = 0
        self.expected_teardowns = 0

        master = Random(cfg.seed)
        medium_seed = master.getrandbits(64)
        station_seeds = [master.getrandbits(64) for _ in cfg.stations]

        self.adversaries = [
            Adversary(acfg, f"attacker:{i}") for i, acfg in enumerate(cfg.attackers)
        ]
        self.adversary_ids = {adv.endpoint_id for adv in self.adversaries}

        self.medium = Medium(
            MediumConfig(
                loss_probability=cfg.loss_probability,
                seed=medium_seed,
                promiscuous_taps=tuple(adv.endpoint_id for adv in self.adversaries),
            )
        )

        protected = cfg.mode is Mode.PROTECTED
        self.stations: dict[MacAddress, Station] = {}
        for spec, seed in zip(cfg.stations, station_seeds):
            cls = AccessPoint if spec.role is Role.AP else ClientStation
            station = cls(spec.mac, protected=protected, rng=Random(seed))
            self.stations[spec.mac] = station
            handle = self.medium.attach(
                station.name, spec.mac, functools.partial(self._deliver, station)
            )
            station.bind_transmit(handle.send)

        self.attack_handles = {
            adv.endpoint_id: self.medium.attach(
                adv.endpoint_id, None, adv.on_sniffed, injector=True
            )
            for adv in self.adversaries
        }

    def _deliver(self, station: Station, event: MediumEvent) -> None:
        result = station.receive_frame(event.frame)
        if result is None:
            return
        frame, verdict = result
        if frame.subtype in COUNTED_SUBTYPES:
            self.verdict_counts[verdict.cause] += 1
        if verdict.action is Action.ACCEPT:
            if event.src in self.adversary_ids:
                self.attack_success_count += 1
            elif frame.subtype in TEARDOWN_SUBTYPES:
                self.teardown_accepts += 1

    def _perform(self, action: ScriptAction) -> None:
        if isinstance(action, AssociateAction):
            client = self.stations[action.client]
            assert isinstance(client, ClientStation)
            client.start_join(action.ap)
        elif isinstance(action, DeauthAction):
            initiator = self.stations[action.initiator]
            self.expected_teardowns += len(initiator.teardown_all(action.reason))
        else:
            adversary = self.adversaries[action.index]
            handle = self.attack_handles[adversary.endpoint_id]
            for raw in adversary.frames():
                handle.send(raw)

    def execute(self) -> tuple[ScenarioOutcome, list[MediumEvent]]:
        """Run the script; return the outcome and the medium's whole event log."""
        for action in self.cfg.script:
            self._perform(action)
            self.medium.run_until_idle(self.cfg.max_ticks)
        return self._outcome(), self.medium.events

    def _outcome(self) -> ScenarioOutcome:
        medium = self.medium
        outcome = ScenarioOutcome(
            self.cfg.name,
            self.cfg.mode,
            self.cfg.seed,
            frames_sent=medium.frames_sent,
            frames_delivered=medium.frames_sent - medium.frames_dropped,
            frames_dropped=medium.frames_dropped,
            verdicts=dict(self.verdict_counts),
            attack_success_count=self.attack_success_count,
            legit_disconnect_success=self.teardown_accepts == self.expected_teardowns,
        )

        for mac, station in self.stations.items():
            state = max(
                station.peer_state.values(), default=LifecycleState.UNAUTH_UNASSOC
            )
            outcome.final_states[str(mac)] = state.name.lower()
        return outcome


def run_scenario(
    cfg: ScenarioConfig, seed: int | None = None
) -> tuple[ScenarioOutcome, list[MediumEvent]]:
    """Run one scenario to completion; ``seed`` overrides the config's."""
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return ScenarioRun(cfg).execute()
