"""Command line front end.

    deauthsim run <scenario-file-or-name> [--seed N] [--format human|json]
                  [--log events.jsonl]
    deauthsim bench [--iterations N] [--format human|json]
    deauthsim list-scenarios

Exit codes: 0 success; 2 bad configuration, including an unreadable
scenario file or one longer than ``scenario.MAX_SCENARIO_BYTES``
(16 MiB, so ``run /dev/zero`` exits 2), a replay attack with no
station frame to replay, an ``associate`` step for a client already
associated with that AP, a ``--log`` path that cannot be written and a
bench ``--iterations`` outside 100 to 1,000,000; 3 tick limit exceeded.

The ``--log`` file is opened (created or truncated) after the scenario
loads and ``--seed`` is checked, and before the run, so an unwritable
path exits 2 without simulating anything and a refused scenario or seed
leaves an existing file untouched.  The events are written once the run
ends; a run that fails after the file is opened (exit 2 or 3) leaves it
empty.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import replace

from .adversary import AdversaryError
from .bench import DEFAULT_ITERATIONS, MAX_ITERATIONS, MIN_ITERATIONS, REFERENCE_ROWS
from .bench import BenchReport, run_bench
from .medium import TickLimitExceeded, write_event_log
from .scenario import (
    ConfigError,
    ScenarioOutcome,
    bundled_scenario_names,
    load_scenario,
    run_scenario,
)
from .stations import WrongState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TICK_LIMIT = 3


def _outcome_human(outcome: ScenarioOutcome) -> str:
    lines = [
        f"scenario: {outcome.name}",
        f"mode: {outcome.mode.value}    seed: {outcome.seed}",
        f"frames: sent={outcome.frames_sent}"
        f" delivered={outcome.frames_delivered} dropped={outcome.frames_dropped}",
        f"attack_success_count: {outcome.attack_success_count}",
        f"legit_disconnect_success: {str(outcome.legit_disconnect_success).lower()}",
        "verdicts:",
    ]
    if outcome.verdicts:
        for cause in sorted(outcome.verdicts):
            lines.append(f"  {cause}: {outcome.verdicts[cause]}")
    else:
        lines.append("  (none)")
    lines.append("final_states:")
    for mac in sorted(outcome.final_states):
        lines.append(f"  {mac}: {outcome.final_states[mac]}")
    return "\n".join(lines)


def _bench_human(report: BenchReport) -> str:
    def row(label: str, mean: float, pcts: dict[int, float]) -> str:
        return f"{label:<16}{mean:>12.9f}" + "".join(f"{pcts[p]:>12.9f}" for p in sorted(pcts))

    lines = [
        f"iterations: {report.iterations}",
        f"{'op':<16}{'mean_s':>12}{'p50_s':>12}{'p90_s':>12}{'p99_s':>12}",
        row("generate-token", report.token_mean_s, report.token_percentiles_s),
        row("sha512-digest", report.hash_mean_s, report.hash_percentiles_s),
        row("total", report.total_mean_s, {}),
        "",
        "reference hardware (mean seconds):",
    ]
    for platform, tok, sha, total in REFERENCE_ROWS:
        lines.append(
            f"  {platform:<16} token={tok:.6f} sha512={sha:.6f} total={total:.6f}"
        )
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_scenario(args.scenario)
        # Checked before the log is opened, so a refused seed keeps the file.
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        # Opened before the run, so an unwritable path costs no simulation.
        log = open(args.log, "w") if args.log is not None else contextlib.nullcontext()
        with log as stream:
            outcome, events = run_scenario(cfg)
            if stream is not None:
                write_event_log(events, stream)
    except (ConfigError, AdversaryError, WrongState) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TickLimitExceeded as exc:
        print(f"error: tick limit exceeded: {exc}", file=sys.stderr)
        return EXIT_TICK_LIMIT
    except OSError as exc:
        # load_scenario reports unreadable files itself, so this is the log.
        print(f"error: cannot write event log: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.format == "json":
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    else:
        print(_outcome_human(outcome))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        report = run_bench(args.iterations)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(_bench_human(report))
    return EXIT_OK


def _cmd_list_scenarios(_args: argparse.Namespace) -> int:
    for name in bundled_scenario_names():
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deauthsim",
        description="Simulate token-verified deauthentication against spoofing attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file or bundled scenario")
    run_p.add_argument("scenario", help="path to a scenario YAML, or a bundled name")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--format", choices=("human", "json"), default="human")
    run_p.add_argument("--log", default=None, metavar="FILE", help="write JSONL event log")
    run_p.set_defaults(func=_cmd_run)

    bench_p = sub.add_parser("bench", help="time token generation and hashing")
    bench_p.add_argument(
        "--iterations",
        type=int,
        default=DEFAULT_ITERATIONS,
        help=f"sample count, {MIN_ITERATIONS} to {MAX_ITERATIONS}",
    )
    bench_p.add_argument("--format", choices=("human", "json"), default="human")
    bench_p.set_defaults(func=_cmd_bench)

    list_p = sub.add_parser("list-scenarios", help="list bundled scenarios")
    list_p.set_defaults(func=_cmd_list_scenarios)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main())
