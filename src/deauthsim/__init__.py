"""Token-verified 802.11 deauthentication, simulated end to end.

Stock management frames carry no authentication, so a single spoofed
deauthentication knocks any client off the air.  This package simulates
the countermeasure of exchanging SHA-512 commitments to secret UUID
tokens at association time and honoring only teardown frames that
reveal a matching token, alongside the unprotected baseline, a
deterministic lossy medium, and the attacks the scheme does and does
not stop.

The package root exports the scenario entry points and the few names
callers outside it read from here; everything else is imported from its
submodule (``deauthsim.frames``, ``deauthsim.stations``, ...).
"""

from .adversary import AttackerConfig, AttackKind
from .bench import run_bench
from .frames import MacAddress, decode_frame
from .medium import write_event_log
from .scenario import (
    ConfigError,
    Mode,
    ScenarioConfig,
    ScenarioOutcome,
    load_scenario,
    run_scenario,
)
from .stations import Action

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AttackerConfig",
    "AttackKind",
    "ConfigError",
    "MacAddress",
    "Mode",
    "ScenarioConfig",
    "ScenarioOutcome",
    "decode_frame",
    "load_scenario",
    "run_bench",
    "run_scenario",
    "write_event_log",
    "__version__",
]
