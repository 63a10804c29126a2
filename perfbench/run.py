"""deauthsim benchmark: one generated workload, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
The seed generates the workload (see workloads.py).  Before any timing the
bundled scenarios must reproduce their golden logs (golden.py); then the
workload runs closed loop for about S seconds, and every run's outcome is
checked against the generator's predictions.

``--trace 0`` reports the end-to-end metrics:

    frames_per_s  frames the medium processed per wall second of the timed
                  call, median over the window's runs, each rescaled to the
                  reference host speed sampled during it (pace.py)
    peak_rss_mib  peak resident set of this process, which runs only this
                  workload
    setup_s       median over fresh interpreters of importing deauthsim and
                  building the workload's ScenarioConfig, each at the
                  reference host speed

``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics listed in README.md, including ``trace.overhead``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, printing no result, when the package cannot
be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv: list[str] | None, workloads: tuple[str, ...]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import deauthsim from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import deauthsim
    except ImportError as exc:
        raise SystemExit(f"error: cannot import deauthsim from {SRC}: {exc}") from None
    if not Path(deauthsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: deauthsim imported from {deauthsim.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One cold set-up, timed in a fresh interpreter: raw and normalised seconds."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=PROBE_TIMEOUT_S,
    )
    raw, normalised = probe.stdout.split()
    return float(raw), float(normalised)


def main(argv: list[str] | None = None) -> int:
    import_package()
    import golden
    import harness
    import workloads
    from deauthsim import run_bench

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.build(args.workload, args.seed)
    setup_rss = harness.rss_mib()

    problems = golden.check_golden()
    attempted, failed = len(golden.GOLDEN_LOGS), len(problems)
    metrics: dict[str, tuple[float, str]] = {}
    if not problems:
        # Set-up probes are spread over the window, one per round, so their
        # median does not hang on one phase of a shared host's CPU speed.
        setup_samples: list[tuple[float, float]] = []

        def probe() -> None:
            setup_samples.append(setup_probe(args.workload, args.seed))

        untraced, traced = harness.measure(
            workload, args.seconds, bool(args.trace), None if args.trace else probe
        )
        runs = untraced + traced
        attempted += len(runs)
        for run in runs:
            problems += run.problems
        failed += sum(1 for run in runs if run.problems)
        if failed == 0 and args.trace:
            metrics = harness.layer_metrics(untraced, traced)
            bench = run_bench()
            metrics["tokens.generate_os.ns_per_call"] = (bench.token_mean_s * 1e9, "ns")
            metrics["tokens.hash_bench.ns_per_call"] = (bench.hash_mean_s * 1e9, "ns")
            metrics["mem.setup_rss_mib"] = (setup_rss, "MiB")
            # The first untraced run ends before any traced run starts.
            peak = untraced[0].peak_rss_mib
            metrics["mem.peak_rss_mib"] = (peak, "MiB")
            metrics["mem.kib_per_frame"] = ((peak - setup_rss) * 1024 / untraced[0].frames, "KiB")
        elif failed == 0:
            while len(setup_samples) < SETUP_PROBES:
                probe()
            metrics = {
                "frames_per_s": (harness.frames_per_s(untraced), "frames/s"),
                "peak_rss_mib": (harness.rss_mib(), "MiB"),
                "setup_s": (statistics.median(norm for _, norm in setup_samples), "s"),
            }
            rates = [run.frames_per_s for run in untraced]
            raw = statistics.median(run.raw_frames_per_s for run in untraced)
            tick = statistics.median(run.tick_ns for run in untraced)
            raw_setup = statistics.median(raw for raw, _ in setup_samples)
            print(
                f"# {args.workload}: {len(rates)} runs, frames/s min {min(rates):.0f}"
                f" median {statistics.median(rates):.0f} max {max(rates):.0f}"
                f" (raw median {raw:.0f}, median tick {tick:.0f} ns);"
                f" {len(setup_samples)} set-up probes, raw median {raw_setup:.4f} s"
            )

    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
