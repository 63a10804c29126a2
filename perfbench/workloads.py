"""Seeded benchmark workloads and the outcomes they must produce.

Each workload is one protected-mode ``ScenarioConfig`` built only through
the package's public dataclasses, plus the counts the simulator has to
report for it.  The workload seed picks MAC addresses, the scenario and
attacker seeds, reason codes and the churn order; sizes are fixed so that
runs on different seeds do the same amount of work.

Why these three:

* ``forged_flood``: one attack step of token-less teardowns at an
  associated client.  Every frame costs the medium three retained events,
  one 15-byte decode and the ``no_token`` early exit of ``verify_deauth``;
  only two tokens are drawn in total.  It isolates per-frame medium and
  codec cost, the cyclic GC and memory growth.
* ``token_guess``: random-token teardowns spoofing the client at the AP.
  Each frame costs one attacker-side encode, one 34-byte decode with an
  information element and one SHA-512 check, which ``forged_flood``
  bypasses.
* ``assoc_churn``: thousands of clients each associate, sit through a
  short forged burst, and leave with a verified teardown whose reason
  cycles through 3/4/5/8.  It drives session creation and deletion, the
  replay ledger, token draws and about 6000 script steps, each of which
  drains the medium; the JSONL log is written to memory as part of the
  timed call.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from random import Random

from deauthsim import (
    AttackerConfig,
    AttackKind,
    MacAddress,
    Mode,
    ScenarioConfig,
    write_event_log,
)
from deauthsim.scenario import (
    AssociateAction,
    AttackAction,
    DeauthAction,
    Role,
    StationSpec,
)

WORKLOADS = ("forged_flood", "token_guess", "assoc_churn")

FLOOD_FRAMES = 100_000
GUESS_FRAMES = 50_000
CHURN_CLIENTS = 2_000
CHURN_BURST = 5

# Normal-disconnect reason codes: the only ones that reach the token check.
TEARDOWN_REASONS = (3, 4, 5, 8)
DISASSOC_REASON = 8

# Frames of one join: auth request, auth response, assoc request, assoc
# response.  With one promiscuous tap every station frame leaves two events
# (sniffed, delivered) and every injected frame three.
JOIN_FRAMES = 4
STATION_FRAME_EVENTS = 2
INJECTED_FRAME_EVENTS = 3


@dataclass(frozen=True)
class Workload:
    """A generated scenario and the outcome the simulator must report."""

    name: str
    config: ScenarioConfig
    frames_sent: int
    events: int
    verdicts: dict[str, int]
    final_states: dict[str, str]
    writes_log: bool = False


def _macs(rng: Random, count: int) -> list[MacAddress]:
    """Distinct locally administered unicast addresses."""
    seen: set[int] = set()
    macs = []
    while len(macs) < count:
        value = (rng.getrandbits(48) & ~(0x01 << 40)) | (0x02 << 40)
        if value not in seen:
            seen.add(value)
            macs.append(MacAddress(value.to_bytes(6, "big")))
    return macs


def _single_link(name: str, rng: Random, kind: AttackKind, frames: int, cause: str):
    ap, client = _macs(rng, 2)
    if kind is AttackKind.FORGED_DEAUTH:
        spoof_src, target = ap, client
    else:
        spoof_src, target = client, ap
    attacker = AttackerConfig(
        kind=kind,
        spoof_src=spoof_src,
        target=target,
        frame_count=frames,
        reason=rng.choice(TEARDOWN_REASONS),
        seed=rng.getrandbits(32),
    )
    config = ScenarioConfig(
        name=name,
        mode=Mode.PROTECTED,
        seed=rng.getrandbits(32),
        stations=(StationSpec(Role.AP, ap), StationSpec(Role.CLIENT, client)),
        attackers=(attacker,),
        script=(AssociateAction(client=client, ap=ap), AttackAction(index=0)),
    )
    return Workload(
        name=name,
        config=config,
        frames_sent=JOIN_FRAMES + frames,
        events=JOIN_FRAMES * STATION_FRAME_EVENTS + frames * INJECTED_FRAME_EVENTS,
        verdicts={"hash_recorded": 1, cause: frames},
        final_states={str(ap): "auth_assoc", str(client): "auth_assoc"},
    )


def _assoc_churn(rng: Random, clients: int, burst: int) -> Workload:
    ap, resident, *churners = _macs(rng, clients + 2)
    rng.shuffle(churners)
    offset = rng.randrange(len(TEARDOWN_REASONS))
    # The burst spoofs the AP at a resident client that stays associated
    # throughout, so every forged frame reaches the token check.
    attacker = AttackerConfig(
        kind=AttackKind.FORGED_DEAUTH,
        spoof_src=ap,
        target=resident,
        frame_count=burst,
        reason=rng.choice(TEARDOWN_REASONS),
        seed=rng.getrandbits(32),
    )
    script = [AssociateAction(client=resident, ap=ap)]
    final_states = {str(ap): "auth_assoc", str(resident): "auth_assoc"}
    for i, client in enumerate(churners):
        reason = TEARDOWN_REASONS[(offset + i) % len(TEARDOWN_REASONS)]
        script += [
            AssociateAction(client=client, ap=ap),
            AttackAction(index=0),
            DeauthAction(initiator=client, reason=reason),
        ]
        final_states[str(client)] = (
            "auth_unassoc" if reason == DISASSOC_REASON else "unauth_unassoc"
        )
    stations = [StationSpec(Role.AP, ap), StationSpec(Role.CLIENT, resident)]
    stations += [StationSpec(Role.CLIENT, mac) for mac in churners]
    config = ScenarioConfig(
        name="assoc_churn",
        mode=Mode.PROTECTED,
        seed=rng.getrandbits(32),
        stations=tuple(stations),
        attackers=(attacker,),
        script=tuple(script),
    )
    joins = clients + 1
    return Workload(
        name="assoc_churn",
        config=config,
        frames_sent=joins * JOIN_FRAMES + clients * (burst + 1),
        events=(joins * JOIN_FRAMES + clients) * STATION_FRAME_EVENTS
        + clients * burst * INJECTED_FRAME_EVENTS,
        verdicts={
            "hash_recorded": joins,
            "no_token": clients * burst,
            "token_verified": clients,
        },
        final_states=final_states,
        writes_log=True,
    )


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Generate workload ``name`` from ``seed``; ``scale`` shrinks it for tests."""
    rng = Random(f"{name}:{seed}")
    if name == "forged_flood":
        return _single_link(
            name, rng, AttackKind.FORGED_DEAUTH, max(1, int(FLOOD_FRAMES * scale)), "no_token"
        )
    if name == "token_guess":
        return _single_link(
            name, rng, AttackKind.TOKEN_GUESS, max(1, int(GUESS_FRAMES * scale)), "token_mismatch"
        )
    if name == "assoc_churn":
        return _assoc_churn(rng, max(1, int(CHURN_CLIENTS * scale)), CHURN_BURST)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def check(workload: Workload, outcome, events, log_text: str | None) -> list[str]:
    """Compare one run against the workload's predictions; return the violations."""
    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    expect("attack_success_count", outcome.attack_success_count, 0)
    expect("legit_disconnect_success", outcome.legit_disconnect_success, True)
    expect("frames_sent", outcome.frames_sent, workload.frames_sent)
    expect("frames_dropped", outcome.frames_dropped, 0)
    expect("verdicts", outcome.verdicts, workload.verdicts)
    expect("final_states", outcome.final_states, workload.final_states)
    expect("events", len(events), workload.events)
    if workload.writes_log:
        expect("log lines", None if log_text is None else log_text.count("\n"), workload.events)
    return problems


def write_log(events) -> str:
    """The run's JSONL event log, written to memory."""
    stream = io.StringIO()
    write_event_log(events, stream)
    return stream.getvalue()
