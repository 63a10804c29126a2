"""Golden event logs: every bundled scenario reproduces its log byte for byte.

Each pin is the first 16 hex digits of the SHA-256 of the JSONL log that
``deauthsim run <name> --log FILE`` writes, and its line count.  Any change
to framing, routing, loss draws, token derivation or event order moves a
digest; a change that means to alter the logs must re-pin them here.

The logs hold no verdicts, so each scenario's outcome is pinned too: the
first 16 hex digits of the SHA-256 of what ``deauthsim run <name> --format
json`` prints.  A station that accepts a teardown it should ignore leaves
the log alone but moves the verdict counts and final states.
"""

import hashlib
import io
import json

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

GOLDEN_OUTCOMES = {
    "legacy_forged_deauth": "593be62dfc97d77f",
    "lossy_protected_flood": "1b99e669b48af30d",
    "protected_assoc_replay": "60117fd277eff367",
    "protected_deauth_replay": "493926634c4cf84d",
    "protected_forged_deauth": "881107a96ba1d52f",
    "protected_legit_teardown": "3e073f07a096aa89",
    "protected_token_guess": "ba46dfab2e1e7cd7",
}


def log_fingerprint(name):
    _, events = run_scenario(load_bundled_scenario(name))
    stream = io.StringIO()
    write_event_log(events, stream)
    text = stream.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()[:16], text.count("\n")


def outcome_fingerprint(name):
    outcome, _ = run_scenario(load_bundled_scenario(name))
    text = json.dumps(outcome.to_dict(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_bundled_scenario_is_pinned():
    assert sorted(bundled_scenario_names()) == sorted(GOLDEN_LOGS)
    assert sorted(bundled_scenario_names()) == sorted(GOLDEN_OUTCOMES)


@pytest.mark.parametrize("name", sorted(GOLDEN_LOGS))
def test_log_matches_golden_digest(name):
    assert log_fingerprint(name) == GOLDEN_LOGS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTCOMES))
def test_outcome_matches_golden_digest(name):
    assert outcome_fingerprint(name) == GOLDEN_OUTCOMES[name]
