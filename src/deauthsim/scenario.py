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
fields of ``ScenarioConfig``, whose defaults include ``name`` and
``seed``, and a new field needs no loader change.  Unknown keys, keys
repeated within one mapping, missing required fields and any value a
record refuses, an integer too large for a float included, are a
``ConfigError`` (a misspelt or repeated ``loss_probability`` must not
silently run loss-free).  Values are never coerced: a MAC comes only
from a string, an integer never from a string, float or boolean, and
``name`` must be a string.  ``stations``, ``attackers`` and ``script``
must be lists, and ``frame_count`` is capped at
``adversary.MAX_FRAME_COUNT``, as is the sum of the script's attack
steps' frame counts.  A file longer than ``MAX_SCENARIO_BYTES`` is
refused.  Station MACs are unique unicast addresses (I/G bit clear); an
attacker's ``target`` and ``spoof_src`` may be group addresses: a
broadcast deauth is a real attack.

Each script action's class holds its fields, its refusals (``check``,
which returns the attack frames the action sends) and its step
(``perform``).  Script actions run in order; the medium drains to idle
after each one.
An ``associate`` step for a client already associated with that AP
raises ``WrongState``.  The stations are attached first, then the
attackers in listing order, each attaching itself as an injector, which
makes it a promiscuous tap too; all of them before the first step, since
endpoints are fixed once the medium has run.  A replay attacker keeps the first frame
a station sent that it replays, never one an attacker sent; replaying
with nothing captured raises ``AdversaryError``.

Randomness derivation is fixed: one master ``random.Random(seed)``
yields a 64-bit sub-seed for the medium's loss stream and then one per
station in listing order; attackers use their own explicit seeds.  Two
runs of the same config therefore produce byte-identical event logs.
Seeds, the scenario's and each attacker's, are non-negative: ``Random``
seeds ``-s`` as it seeds ``s``, so a negative seed would silently repeat
another seed's run.

Reported ``final_states`` map each station's MAC to the highest
lifecycle state it currently holds toward any peer.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from random import Random
from typing import get_args, get_origin, get_type_hints

from .adversary import MAX_FRAME_COUNT, Adversary, AttackerConfig
from .frames import TEARDOWN_SUBTYPES, FrameSubtype, MacAddress
from .medium import BATCH, DEFAULT_MAX_TICKS, EventLog, Medium, Receiver
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

    def check(self, cfg: ScenarioConfig, roles: dict[MacAddress, Role]) -> int:
        if roles.get(self.client) is not Role.CLIENT:
            raise ConfigError(f"associate: {self.client} is not a client")
        if roles.get(self.ap) is not Role.AP:
            raise ConfigError(f"associate: {self.ap} is not an AP")
        return 0

    def perform(self, run: ScenarioRun) -> None:
        run.stations[self.client].start_join(self.ap)


@dataclass(frozen=True)
class DeauthAction:
    initiator: MacAddress
    reason: int

    def check(self, cfg: ScenarioConfig, roles: dict[MacAddress, Role]) -> int:
        if self.initiator not in roles:
            raise ConfigError(f"deauth: unknown initiator {self.initiator}")
        if self.reason not in TEARDOWN_REASONS:
            raise ConfigError(f"deauth: reason {self.reason} is not a normal-disconnect code")
        return 0

    def perform(self, run: ScenarioRun) -> None:
        initiator = run.stations[self.initiator]
        run.unaccepted_teardowns += len(initiator.teardown_all(self.reason))


@dataclass(frozen=True)
class AttackAction:
    index: int

    def check(self, cfg: ScenarioConfig, roles: dict[MacAddress, Role]) -> int:
        if not 0 <= self.index < len(cfg.attackers):
            raise ConfigError(f"attack: no attacker at index {self.index}")
        # A replay keeps one capture, so every kind sends frame_count.
        return cfg.attackers[self.index].frame_count

    def perform(self, run: ScenarioRun) -> None:
        # The whole step is one queue entry, one tick.
        run.adversaries[self.index].attack()


ScriptAction = AssociateAction | DeauthAction | AttackAction


@dataclass(frozen=True)
class ScenarioConfig:
    # kw_only keeps these defaults in field order, which error messages list.
    name: str = field(default="unnamed", kw_only=True)
    mode: Mode
    seed: int = field(default=0, kw_only=True)
    stations: tuple[StationSpec, ...] = ()
    attackers: tuple[AttackerConfig, ...] = ()
    script: tuple[ScriptAction, ...] = ()
    loss_probability: float = 0.0
    max_ticks: int = DEFAULT_MAX_TICKS

    def __post_init__(self) -> None:
        if not self.stations:
            raise ConfigError("scenario needs at least one station")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
            if not isinstance(action, ScriptAction):
                raise ConfigError(f"unknown script action {action!r}")
            attack_frames += action.check(self, roles)
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
        return MacAddress.parse(value)
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
    required, each value is converted by its declared type, and any
    ``ValueError`` or ``OverflowError`` on the way becomes ``ConfigError``.
    Keys in ``read_by_caller`` were taken out of ``entry`` by the caller;
    the unknown-key message lists them first.
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
    try:
        return cls(**{k: _convert(v, kinds[k], k, where) for k, v in entry.items()})
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


ACTIONS = {"associate": AssociateAction, "deauth": DeauthAction, "attack": AttackAction}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Validate a parsed scenario document into a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a mapping")
    values = dict(doc)
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

    The medium calls each station's ``deliver`` closure and each replay
    attacker's ``Adversary.on_sniffed`` with the true sender's endpoint id
    and the frame's bytes.  Verdicts are tallied as they happen and not
    kept.  ``deliver`` counts straight into ``outcome``, the run's one
    ``ScenarioOutcome``: per-cause counts for the subtypes in
    ``COUNTED_SUBTYPES`` and accepted frames injected by an adversary.
    It answers the medium ``BATCH``, a true value, for a teardown its
    station did not accept, the one verdict safe to repeat
    (``stations``), and a false value for any other verdict, or for a
    frame given none.  The medium then
    hands it the equal frames left in a uniform queue entry as one count,
    which it adds to that verdict's tally without judging them again, or
    the rest of any other entry for this station alone as batch calls,
    whose frames ``Station.receive_frames`` judges in one loop and whose
    verdicts, each with how many frames in a row got it, are tallied as
    they come.  Every callback shares one tally function, so a batch adds
    no closure or cell per station.
    The run itself counts the teardowns that ``deauth`` steps sent and no
    receiver has accepted yet.  ``execute`` performs each script action
    and then fills in the rest of the outcome: the medium's totals,
    ``legit_disconnect_success`` and ``final_states``.
    Stations and attackers queue through the same ``Handle.send``, each
    through its own handle: a station one frame at a time, an attack step
    (``Adversary.attack``) as the tuple ``Adversary.frames`` returns,
    uncopied.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.outcome = outcome = ScenarioOutcome(cfg.name, cfg.mode, cfg.seed)
        verdicts = outcome.verdicts
        self.unaccepted_teardowns = 0

        self.adversaries = [
            Adversary(acfg, f"attacker:{i}") for i, acfg in enumerate(cfg.attackers)
        ]
        self.adversary_ids = frozenset(adv.endpoint_id for adv in self.adversaries)

        # The medium's sub-seed first, then one per station as it is built.
        master = Random(cfg.seed)
        self.medium = Medium(loss_probability=cfg.loss_probability, seed=master.getrandbits(64))

        protected = cfg.mode is Mode.PROTECTED

        def tally(src: str, frame, verdict, count: int) -> object:
            """Count ``count`` frames from ``src`` that got ``verdict`` in a row.

            Answers ``BATCH`` for a teardown not accepted, the one verdict
            safe to repeat, and a false value for any other.
            """
            if frame.subtype in COUNTED_SUBTYPES:
                verdicts[verdict.cause] = verdicts.get(verdict.cause, 0) + count
            if verdict.action is not _ACCEPT:
                return frame.subtype in TEARDOWN_SUBTYPES and BATCH
            if src in self.adversary_ids:
                outcome.attack_success_count += 1
            elif frame.subtype in TEARDOWN_SUBTYPES:
                self.unaccepted_teardowns -= 1

        # The medium's callback per station: a plain function, not a
        # ``functools.partial`` of a method, so that each delivery is a
        # Python-to-Python call.  Defined here, every callback shares this
        # frame's cells for ``tally`` and ``verdicts`` and has two of its
        # own, for its station and its last tallied cause: each cell costs
        # memory per station.
        def deliverer(station: Station) -> Receiver:
            cause = None

            def deliver(src: str, data, copies: int = 0, stop: int = 0) -> object:
                nonlocal cause
                if stop:
                    # A batch: ``data`` is the entry, and ``data[copies:stop]``
                    # the stretch of it handed over.
                    for frame, verdict, count in station.receive_frames(data, copies, stop):
                        tally(src, frame, verdict, count)
                elif copies:
                    # More copies of the teardown just answered true.
                    verdicts[cause] += copies
                elif result := station.receive_frame(data):
                    cause = result[1].cause
                    # ``BATCH`` when safe to repeat: the medium may then hand
                    # over further copies as one count, or the rest of the
                    # entry in batches.  Passed one by one: a call with ``*``
                    # costs about three plain ones.
                    return tally(src, result[0], result[1], 1)

            return deliver

        self.stations: dict[MacAddress, Station] = {}
        for spec in cfg.stations:
            cls = AccessPoint if spec.role is Role.AP else ClientStation
            station = cls(spec.mac, protected=protected, rng=Random(master.getrandbits(64)))
            self.stations[spec.mac] = station
            handle = self.medium.attach(str(spec.mac), spec.mac, deliverer(station))
            station.bind_transmit(handle.send)

        # After the stations, in listing order: the log records tap order.
        for adv in self.adversaries:
            adv.attach(self.medium, self.adversary_ids)

    def execute(self) -> tuple[ScenarioOutcome, EventLog]:
        """Run the script; return the outcome and the medium's whole event log."""
        medium, outcome = self.medium, self.outcome
        for action in self.cfg.script:
            action.perform(self)
            medium.run_until_idle(self.cfg.max_ticks)
        outcome.frames_sent = medium.frames_sent
        outcome.frames_delivered = medium.frames_sent - medium.frames_dropped
        outcome.frames_dropped = medium.frames_dropped
        outcome.legit_disconnect_success = self.unaccepted_teardowns == 0
        for station in self.stations.values():
            peers = station.sessions.keys() | station.authenticated
            state = max(map(station.state_toward, peers), default=LifecycleState.UNAUTH_UNASSOC)
            outcome.final_states[str(station.mac)] = state.name.lower()
        return outcome, medium.events


def run_scenario(
    cfg: ScenarioConfig, seed: int | None = None
) -> tuple[ScenarioOutcome, EventLog]:
    """Run one scenario to completion; ``seed`` overrides the config's."""
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return ScenarioRun(cfg).execute()
