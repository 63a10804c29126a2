"""Token-verified 802.11 deauthentication, simulated end to end.

Stock management frames carry no authentication, so a single spoofed
deauthentication knocks any client off the air.  This package simulates
the countermeasure of exchanging SHA-512 commitments to secret UUID
tokens at association time and honoring only teardown frames that
reveal a matching token, alongside the unprotected baseline, a
deterministic lossy medium, and the attacks the scheme does and does
not stop.
"""

from .adversary import (
    Adversary,
    AttackerConfig,
    AttackKind,
    NoCapturedAssoc,
    NoCapturedDeauth,
    assoc_replay_frames,
    deauth_replay_frames,
    forged_deauth_frames,
    token_guess_frames,
)
from .bench import BenchReport, run_bench
from .frames import (
    BROADCAST,
    BadIeLength,
    DecodeError,
    FrameSubtype,
    InformationElement,
    MacAddress,
    ManagementFrame,
    TooShort,
    TrailingBytes,
    UnknownSubtype,
    decode_frame,
    encode_frame,
)
from .medium import (
    Detached,
    DuplicateEndpoint,
    EventKind,
    Medium,
    MediumConfig,
    MediumEvent,
    TickLimitExceeded,
    write_event_log,
)
from .scenario import (
    ConfigError,
    Mode,
    ScenarioConfig,
    ScenarioOutcome,
    load_scenario,
    run_scenario,
)
from .stations import (
    AccessPoint,
    Action,
    ClientStation,
    LifecycleEvent,
    LifecycleState,
    MalformedFrame,
    NoPendingSession,
    SessionRecord,
    Station,
    Verdict,
    WrongState,
    transition,
)
from .tokens import Token, generate_token, hash_token

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "AttackerConfig",
    "AttackKind",
    "NoCapturedAssoc",
    "NoCapturedDeauth",
    "assoc_replay_frames",
    "deauth_replay_frames",
    "forged_deauth_frames",
    "token_guess_frames",
    "BenchReport",
    "run_bench",
    "BROADCAST",
    "BadIeLength",
    "DecodeError",
    "FrameSubtype",
    "InformationElement",
    "MacAddress",
    "ManagementFrame",
    "TooShort",
    "TrailingBytes",
    "UnknownSubtype",
    "decode_frame",
    "encode_frame",
    "Detached",
    "DuplicateEndpoint",
    "EventKind",
    "Medium",
    "MediumConfig",
    "MediumEvent",
    "TickLimitExceeded",
    "write_event_log",
    "ConfigError",
    "Mode",
    "ScenarioConfig",
    "ScenarioOutcome",
    "load_scenario",
    "run_scenario",
    "AccessPoint",
    "Action",
    "ClientStation",
    "LifecycleEvent",
    "LifecycleState",
    "MalformedFrame",
    "NoPendingSession",
    "SessionRecord",
    "Station",
    "Verdict",
    "WrongState",
    "transition",
    "Token",
    "generate_token",
    "hash_token",
    "__version__",
]
