"""Print the lines of ``src/deauthsim`` that no ordinary traffic runs.

The traffic is what the package is run for, never its tests:

* every bundled scenario, run and its log written with ``write_event_log``;
* ``protected_forged_deauth`` again with the attacker's ``target`` the
  broadcast MAC, the one run whose frames have a group destination;
* the CLI: ``run`` on every bundled scenario, in both formats and with
  ``--log``, ``run`` on one bundled scenario's ``.yaml`` file by its
  path, ``run`` on one bundled scenario with ``--seed 7``,
  ``list-scenarios``, and ``bench --iterations 100`` in both formats;
* each ``perfbench/workloads.py`` workload, built at scale 0.01, run,
  its log written and the run checked against its predictions.

All of it runs under ``trace``.  For each module, the lines where a
statement starts that never ran are printed with their text: features
only the tests use, and guards that no real input reaches, which are
the first candidates for deletion.  It only reports: a CLI run that
exits non-zero and a failed workload check are printed, and the exit
status is 0.

Standard library only, no arguments: ``python tools/traffic_lines.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import dis
import importlib
import io
import runpy
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deauthsim"
WORKLOAD_SCALE = 0.01


def deauthsim(*argv: str) -> list[str]:
    """Run the command line as ``python -m deauthsim`` would, output discarded.

    Returns the failure to report, if the run exits non-zero.
    """
    sys.argv = ["deauthsim", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("deauthsim", run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            return [f"CLI run failed: deauthsim {' '.join(argv)} exited {exc.code}"]
    return []


def traffic() -> list[str]:
    """Run the traffic; return the failed CLI runs and workload checks."""
    # Imported here, under the tracer, so that module-level lines count.
    scenario = importlib.import_module("deauthsim.scenario")
    medium = importlib.import_module("deauthsim.medium")
    frames = importlib.import_module("deauthsim.frames")
    workloads = importlib.import_module("workloads")

    names = scenario.bundled_scenario_names()
    for name in names:
        _, events = scenario.run_scenario(scenario.load_bundled_scenario(name))
        medium.write_event_log(events, io.StringIO())
    forged = scenario.load_bundled_scenario("protected_forged_deauth")
    broadcast = dataclasses.replace(forged.attackers[0], target=frames.BROADCAST)
    _, events = scenario.run_scenario(dataclasses.replace(forged, attackers=(broadcast,)))
    medium.write_event_log(events, io.StringIO())
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for fmt in ("human", "json"):
                problems += deauthsim("run", name, "--format", fmt, "--log", f"{tmp}/{name}.jsonl")
    path = PACKAGE / "scenarios" / f"{names[0]}.yaml"
    problems += deauthsim("run", str(path), "--format", "json")
    problems += deauthsim("run", names[0], "--seed", "7")
    problems += deauthsim("list-scenarios")
    for fmt in ("human", "json"):
        problems += deauthsim("bench", "--iterations", "100", "--format", fmt)
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, seed=1, scale=WORKLOAD_SCALE)
        outcome, events = scenario.run_scenario(workload.config)
        log_text = workloads.write_log(events)
        problems += [
            f"workload check failed: {name}: {p}"
            for p in workloads.check(workload, outcome, events, log_text)
        ]
    return problems


def statement_lines(path: Path) -> set[int]:
    """The lines where some statement of ``path`` starts, in every code object."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    # Nothing is ignored: trace caches its ignore decision per module base
    # name, so ignoring the standard library would also skip every
    # package's ``__init__``.
    tracer = trace.Trace(count=1, trace=0)
    problems = tracer.runfunc(traffic)
    ran: dict[Path, set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    missing = {
        path: sorted(statement_lines(path) - ran.get(path, set()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    print(f"Lines no traffic reaches: {sum(map(len, missing.values()))}")
    for path, lines in missing.items():
        if lines:
            text = path.read_text().splitlines()
            print(f"  {path.name}: {len(lines)}")
            for line in lines:
                print(f"    {line}: {text[line - 1].strip()}")
    for problem in problems:
        print(problem)


if __name__ == "__main__":
    main()
