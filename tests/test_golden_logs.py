"""Golden event logs: every bundled scenario reproduces its log byte for byte.

Each pin is the first 16 hex digits of the SHA-256 of the JSONL log that
``deauthsim run <name> --log FILE`` writes, and its line count.  Any change
to framing, routing, loss draws, token derivation or event order moves a
digest; a change that means to alter the logs must re-pin them here.
"""

import hashlib
import io

import pytest

from deauthsim.medium import write_event_log
from deauthsim.scenario import bundled_scenario_names, load_bundled_scenario, run_scenario

GOLDEN_LOGS = {
    "legacy_forged_deauth": ("2474ae09b4fab49b", 11),
    "lossy_protected_flood": ("5ab4a48e02f09a11", 608),
    "protected_assoc_replay": ("dfd1f695af716ec4", 23),
    "protected_deauth_replay": ("1c9511a9a07e8dec", 16),
    "protected_forged_deauth": ("a68b335b6e7cbfce", 11),
    "protected_legit_teardown": ("280679c4cd8ed1af", 5),
    "protected_token_guess": ("4f73d3486338133f", 3008),
}


def log_fingerprint(name):
    _, events = run_scenario(load_bundled_scenario(name))
    stream = io.StringIO()
    write_event_log(events, stream)
    text = stream.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()[:16], text.count("\n")


def test_every_bundled_scenario_is_pinned():
    assert sorted(bundled_scenario_names()) == sorted(GOLDEN_LOGS)


@pytest.mark.parametrize("name", sorted(GOLDEN_LOGS))
def test_log_matches_golden_digest(name):
    assert log_fingerprint(name) == GOLDEN_LOGS[name]
