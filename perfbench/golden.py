"""Golden-log gate: the bundled scenarios must reproduce their logs exactly.

Each entry is the first 16 hex digits of the SHA-256 of the JSONL event log
that ``deauthsim run <name> --log FILE`` writes, and its line count.  A
mismatch means the simulator's behaviour changed, so no timing is trusted.
"""

from __future__ import annotations

import hashlib

from deauthsim.scenario import bundled_scenario_names, load_bundled_scenario, run_scenario
from workloads import write_log

GOLDEN_LOGS = {
    "legacy_forged_deauth": ("2474ae09b4fab49b", 11),
    "lossy_protected_flood": ("5ab4a48e02f09a11", 608),
    "protected_assoc_replay": ("dfd1f695af716ec4", 23),
    "protected_deauth_replay": ("1c9511a9a07e8dec", 16),
    "protected_forged_deauth": ("a68b335b6e7cbfce", 11),
    "protected_legit_teardown": ("280679c4cd8ed1af", 5),
    "protected_token_guess": ("4f73d3486338133f", 3008),
}


def log_fingerprint(name: str) -> tuple[str, int]:
    """Digest prefix and line count of a bundled scenario's event log."""
    _, events = run_scenario(load_bundled_scenario(name))
    text = write_log(events)
    return hashlib.sha256(text.encode()).hexdigest()[:16], text.count("\n")


def check_golden(expected: dict[str, tuple[str, int]] = GOLDEN_LOGS) -> list[str]:
    """One message per scenario in ``expected`` whose log differs or is missing."""
    bundled = set(bundled_scenario_names())
    problems = []
    for name, want in sorted(expected.items()):
        got = log_fingerprint(name) if name in bundled else "no such bundled scenario"
        if got != want:
            problems.append(f"{name}: log {got} differs from golden {want}")
    return problems
