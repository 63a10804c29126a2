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

Each record's dataclass is its schema: one strict builder reads
``ScenarioConfig``, ``StationSpec``, ``AttackerConfig`` and the script
actions from their fields, so the top level allows ``schema`` plus the
fields of ``ScenarioConfig`` and a new field needs no loader change; a
file may leave out ``name`` and ``seed``.  Unknown keys, keys repeated
within one mapping and missing required fields are a ``ConfigError`` (a
misspelt or repeated ``loss_probability`` must not silently run
loss-free).  Values are never coerced: a MAC comes only from a string,
an integer never from a string, float or boolean, and ``name`` must be a
string.  ``stations``, ``attackers`` and ``script`` must be lists, and
``frame_count`` is capped at ``adversary.MAX_FRAME_COUNT``, as is the
sum of the script's attack steps' frame counts.  A file
longer than ``MAX_SCENARIO_BYTES`` is refused.  Station MACs are unique
unicast addresses (I/G bit clear); an attacker's ``target`` and
``spoof_src`` may be group addresses: a broadcast deauth is a real
attack.

Script actions run in order; the medium drains to idle after each one.
An ``associate`` step for a client already associated with that AP
raises ``WrongState``.  Every attacker is attached as an injector, which
makes it a promiscuous tap too.  A replay attacker is shown only frames
that stations sent and keeps the first one it replays; replaying with
nothing captured raises ``AdversaryError``.

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
from collections.abc import Callable, Hashable
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from random import Random
from typing import get_args, get_origin, get_type_hints

from .adversary import MAX_FRAME_COUNT, REPLAY_KINDS, Adversary, AttackerConfig
from .frames import TEARDOWN_SUBTYPES, FrameSubtype, MacAddress
from .medium import DEFAULT_MAX_TICKS, EventLog, Medium
from .stations import (
    AccessPoint,
    ClientStation,
    LifecycleState,
    Station,
    Action,
    TEARDOWN_REASONS,
)

SCHEMA_VERSION = 1
# Far above any scenario this package builds; reading stops one byte past it.
MAX_SCENARIO_BYTES = 16 * 1024 * 1024

# Subtypes whose verdicts the outcome tallies.
COUNTED_SUBTYPES = TEARDOWN_SUBTYPES | {FrameSubtype.ASSOC_REQUEST}
_ACCEPT = Action.ACCEPT
# How ``final_states`` names each state.
_STATE_NAMES = {state: state.name.lower() for state in LifecycleState}


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
        for mac in macs:
            if mac[0] & 0x01:
                raise ConfigError(f"station MAC {mac} is a group address, not a unicast one")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigError(
                f"loss probability {self.loss_probability} outside [0, 1]"
            )
        if self.max_ticks < 1:
            raise ConfigError(f"max_ticks must be positive, got {self.max_ticks}")
        roles = {spec.mac: spec.role for spec in self.stations}
        attack_frames = 0
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
                # A replay keeps one capture, so every kind sends frame_count.
                attack_frames += self.attackers[action.index].frame_count
            else:
                raise ConfigError(f"unknown script action {action!r}")
        if attack_frames > MAX_FRAME_COUNT:
            raise ConfigError(
                f"script's attack steps send {attack_frames} frames in total,"
                f" more than the cap of {MAX_FRAME_COUNT}"
            )


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


# The YAML values each plain field type accepts.
_PLAIN_TYPES = {int: int, float: (int, float), str: str}


def _convert(value, kind: type, key: str, where: str):
    """One field's YAML value as its declared type, never coerced."""
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: {key} must be a list, got {value!r}")
        item_kind = get_args(kind)[0]
        return tuple(
            _convert(item, item_kind, key, f"{key}[{i}]") for i, item in enumerate(value)
        )
    if kind == ScriptAction:
        if not isinstance(value, dict) or len(value) != 1:
            raise ConfigError(f"{where}: each action is a one-key mapping")
        (verb, body), = value.items()
        if verb not in ACTIONS:
            raise ConfigError(f"{where}: unknown action {verb!r}")
        return _record(ACTIONS[verb], body, where)
    if is_dataclass(kind):
        return _record(kind, value, where)
    if kind is MacAddress:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: {key} must be a MAC address string, got {value!r}")
        try:
            return MacAddress.parse(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if kind in _PLAIN_TYPES:
        # bool is an int subclass, so it needs its own refusal.
        if not isinstance(value, _PLAIN_TYPES[kind]) or isinstance(value, bool):
            raise ConfigError(f"{where}: {key} must be {kind.__name__}, got {value!r}")
        return kind(value)
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except (ValueError, TypeError):
            expected = ", ".join(member.value for member in kind)
            raise ConfigError(
                f"{where}: unknown {key} {value!r}; expected one of {expected}"
            ) from None
    raise TypeError(f"no scenario converter for {kind!r}")


@functools.cache
def _schema(cls) -> tuple[dict[str, type], tuple[str, ...]]:
    """A record dataclass's field types, and the fields with no default."""
    hints = get_type_hints(cls)
    kinds = {f.name: hints[f.name] for f in fields(cls)}
    required = tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return kinds, required


def _record(cls, entry, where: str, read_by_caller: tuple[str, ...] = ()):
    """Build dataclass ``cls`` from a YAML mapping; the dataclass is the schema.

    Its fields are the only keys allowed, those without a default are
    required, each value is converted by its declared type, and the
    dataclass's own ``ValueError`` checks become ``ConfigError``.  Keys
    in ``read_by_caller`` were taken out of ``entry`` by the caller; the
    unknown-key message lists them first.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: must be a mapping")
    kinds, required = _schema(cls)
    unknown = [key for key in entry if key not in kinds]
    if unknown:
        raise ConfigError(
            f"{where}: unknown field {unknown[0]!r}; "
            f"expected one of {', '.join((*read_by_caller, *kinds))}"
        )
    for key in required:
        if key not in entry:
            raise ConfigError(f"{where}: missing required field {key!r}")
    values = {key: _convert(value, kinds[key], key, where) for key, value in entry.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


ACTIONS = {"associate": AssociateAction, "deauth": DeauthAction, "attack": AttackAction}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Validate a parsed scenario document into a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a mapping")
    # A file may leave out name, seed and stations; a ScenarioConfig may not.
    values = {"name": "unnamed", "seed": 0, "stations": [], **doc}
    schema = _convert(values.pop("schema", SCHEMA_VERSION), int, "schema", "scenario")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema!r}")
    return _record(ScenarioConfig, values, "scenario", ("schema",))


@functools.cache
def _unique_key_loader() -> type:
    """The YAML loader for scenario files, built on first use."""
    import yaml

    class _UniqueKeyLoader(yaml.SafeLoader):
        """``SafeLoader`` that refuses a mapping naming the same key twice.

        Plain YAML keeps the last value, so a repeated ``loss_probability``
        would silently override the first.  Merge keys (``<<``) keep their
        override meaning.
        """

        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=deep)
                if not isinstance(key, Hashable):
                    continue  # the base class reports unhashable keys
                if key in seen:
                    raise ConfigError(
                        f"scenario: duplicate key {key!r} on line {key_node.start_mark.line + 1}"
                    )
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    return _UniqueKeyLoader


def load_scenario_text(text: str) -> ScenarioConfig:
    # Imported here, so that importing the package does not load PyYAML.
    import yaml

    try:
        doc = yaml.load(text, Loader=_unique_key_loader())
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file is not valid YAML: {exc}") from None
    except RecursionError:
        raise ConfigError("scenario file is nested too deeply to parse") from None
    except ValueError as exc:
        # PyYAML's scalar constructors: a hex int with no digits, a date
        # with month 13, an int past Python's digit limit.
        raise ConfigError(f"scenario file has a value YAML cannot construct: {exc}") from None
    return config_from_dict(doc)


def bundled_scenario_names() -> list[str]:
    """Names of the scenarios shipped inside the package."""
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_bundled_scenario(name: str) -> ScenarioConfig:
    """Load the bundled scenario ``name``: only a listed name, read like any file."""
    names = bundled_scenario_names()
    if name not in names:
        raise ConfigError(f"unknown bundled scenario {name!r}; available: {', '.join(names)}")
    return load_scenario_text(
        _read_capped(resources.files(__package__) / "scenarios" / f"{name}.yaml")
    )


def _read_capped(path: Path) -> str:
    """The file's text, reading at most one byte past ``MAX_SCENARIO_BYTES``."""
    with path.open("rb") as stream:
        data = stream.read(MAX_SCENARIO_BYTES + 1)
    if len(data) > MAX_SCENARIO_BYTES:
        raise ConfigError(f"scenario file {path} is larger than {MAX_SCENARIO_BYTES} bytes")
    return data.decode()


def load_scenario(ref: str | Path) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name.

    A path that cannot be read as UTF-8 text, or holds more than
    ``MAX_SCENARIO_BYTES``, is a ``ConfigError``.
    """
    path = Path(ref)
    try:
        # exists() itself raises for a name too long to be a path.
        text = _read_capped(path) if path.exists() else None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {ref}: {exc}") from None
    if text is not None:
        return load_scenario_text(text)
    if isinstance(ref, str) and "/" not in ref and "\\" not in ref:
        return load_bundled_scenario(ref)
    raise ConfigError(f"scenario file {ref} does not exist")


# -- execution ---------------------------------------------------------


class ScenarioRun:
    """Wires stations, adversaries and medium for one config.

    The medium calls each station's ``deliver`` closure and ``_sniff``
    (replay attackers) with the true sender's endpoint id and the frame's
    bytes.  Verdicts are tallied as they happen and not kept: per-cause
    counts for the subtypes in ``COUNTED_SUBTYPES``, accepted frames
    injected by an adversary, and the teardowns that ``deauth`` steps sent
    and no receiver has accepted yet.
    Stations and attackers queue through the same ``Handle.send``: a
    station one frame at a time, an attack step as the tuple
    ``Adversary.frames`` returns, uncopied.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.verdict_counts: Counter[str] = Counter()
        self.attack_success_count = 0
        self.unaccepted_teardowns = 0

        master = Random(cfg.seed)
        medium_seed = master.getrandbits(64)
        station_seeds = [master.getrandbits(64) for _ in cfg.stations]

        self.adversaries = [
            Adversary(acfg, f"attacker:{i}") for i, acfg in enumerate(cfg.attackers)
        ]
        self.adversary_ids = {adv.endpoint_id for adv in self.adversaries}

        self.medium = Medium(loss_probability=cfg.loss_probability, seed=medium_seed)

        protected = cfg.mode is Mode.PROTECTED

        # The medium's callback per station: a plain function, not a
        # ``functools.partial`` of a method, so that each delivery is a
        # Python-to-Python call.  Defined here, every callback shares this
        # frame's cell for ``self`` and has one of its own, for its station:
        # each cell costs memory per station.
        def deliverer(station: Station) -> Callable[[str, bytes], None]:
            def deliver(src: str, data: bytes) -> None:
                result = station.receive_frame(data)
                if result is None:
                    return
                frame, verdict = result
                if frame.subtype in COUNTED_SUBTYPES:
                    self.verdict_counts[verdict.cause] += 1
                if verdict.action is _ACCEPT:
                    if src in self.adversary_ids:
                        self.attack_success_count += 1
                    elif frame.subtype in TEARDOWN_SUBTYPES:
                        self.unaccepted_teardowns -= 1

            return deliver

        self.stations: dict[MacAddress, Station] = {}
        for spec, seed in zip(cfg.stations, station_seeds):
            cls = AccessPoint if spec.role is Role.AP else ClientStation
            station = cls(spec.mac, protected=protected, rng=Random(seed))
            self.stations[spec.mac] = station
            handle = self.medium.attach(str(spec.mac), spec.mac, deliverer(station))
            station.bind_transmit(handle.send)

        # Indexed like ``adversaries``.
        self.attack_handles = [
            self.medium.attach(
                adv.endpoint_id,
                None,
                # Only replays read what they sniff; the medium logs every
                # tap's sniffed events whether it has a callback or not.
                functools.partial(self._sniff, adv) if adv.cfg.kind in REPLAY_KINDS else None,
                injector=True,
            )
            for adv in self.adversaries
        ]

    def _sniff(self, adversary: Adversary, src: str, data: bytes) -> None:
        if src not in self.adversary_ids:
            adversary.on_sniffed(data)

    def _perform(self, action: ScriptAction) -> None:
        if isinstance(action, AssociateAction):
            client = self.stations[action.client]
            assert isinstance(client, ClientStation)
            client.start_join(action.ap)
        elif isinstance(action, DeauthAction):
            initiator = self.stations[action.initiator]
            self.unaccepted_teardowns += len(initiator.teardown_all(action.reason))
        else:
            # The whole step is one queue entry, one tick.
            self.attack_handles[action.index].send(self.adversaries[action.index].frames())

    def execute(self) -> tuple[ScenarioOutcome, EventLog]:
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
            legit_disconnect_success=self.unaccepted_teardowns == 0,
        )

        for station in self.stations.values():
            peers = station.sessions.keys() | station.authenticated
            state = max(map(station.state_toward, peers), default=LifecycleState.UNAUTH_UNASSOC)
            outcome.final_states[str(station.mac)] = _STATE_NAMES[state]
        return outcome


def run_scenario(
    cfg: ScenarioConfig, seed: int | None = None
) -> tuple[ScenarioOutcome, EventLog]:
    """Run one scenario to completion; ``seed`` overrides the config's."""
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return ScenarioRun(cfg).execute()
