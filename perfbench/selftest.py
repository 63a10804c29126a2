"""Self-test of the benchmark, mostly at tiny sizes.

    python3 perfbench/selftest.py

Shows that each gate trips (a tampered golden digest or predicted count is
reported as a failure, not a pass), that count metrics repeat exactly for a
fixed seed, that tracing and the pace timer leave the process as they found
it, that normalisation rescales by the median tick, and that ``run.py``
prints the metrics ``BENCHMARK.json`` declares, or exits non-zero without a
result when the package is missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import deauthsim  # noqa: E402
import golden  # noqa: E402
import harness  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from deauthsim import adversary, medium, stations  # noqa: E402

TINY = 0.01
REPEATED_COUNTS = ("frames.decode.calls", "medium.drain.copied_events", "tokens.hash.calls")


def tiny(name: str, seed: int = 7) -> workloads.Workload:
    return workloads.build(name, seed, scale=TINY)


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class GoldenGate(unittest.TestCase):
    def test_bundled_logs_match(self):
        self.assertEqual(golden.check_golden(), [])

    def test_tampered_digest_fails(self):
        expected = dict(golden.GOLDEN_LOGS)
        digest, lines = expected["protected_forged_deauth"]
        expected["protected_forged_deauth"] = ("0" * 16, lines)
        problems = golden.check_golden(expected)
        self.assertEqual(len(problems), 1)
        self.assertIn("protected_forged_deauth", problems[0])

    def test_tampered_line_count_fails(self):
        expected = dict(golden.GOLDEN_LOGS)
        digest, lines = expected["protected_token_guess"]
        expected["protected_token_guess"] = (digest, lines + 1)
        self.assertEqual(len(golden.check_golden(expected)), 1)


class RunChecks(unittest.TestCase):
    def test_every_workload_passes_untraced_and_traced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                workload = tiny(name)
                self.assertEqual(harness.run_once(workload).problems, [])
                self.assertEqual(harness.run_once(workload, traced=True).problems, [])

    def test_tampered_counts_fail_the_run(self):
        workload = tiny("forged_flood")
        verdicts = dict(workload.verdicts, no_token=workload.verdicts["no_token"] + 1)
        for tampered in (
            dataclasses.replace(workload, verdicts=verdicts),
            dataclasses.replace(workload, frames_sent=workload.frames_sent - 1),
            dataclasses.replace(workload, events=workload.events + 3),
        ):
            untraced, traced = harness.measure(tampered, 0, trace=False)
            self.assertEqual(traced, [])
            self.assertEqual(len(untraced), 1)
            self.assertNotEqual(untraced[0].problems, [])

    def test_tampered_final_state_fails_churn(self):
        workload = tiny("assoc_churn")
        states = {mac: "auth_assoc" for mac in workload.final_states}
        run = harness.run_once(dataclasses.replace(workload, final_states=states))
        self.assertTrue(any("final_states" in p for p in run.problems))

    def test_counts_repeat_for_a_fixed_seed(self):
        for name in ("token_guess", "assoc_churn"):
            with self.subTest(name):
                self.assertEqual(tiny(name), tiny(name))
                self.assertNotEqual(tiny(name).config, tiny(name, seed=8).config)
                first = harness.layer_metrics(*harness.measure(tiny(name), 0, trace=True))
                again = harness.layer_metrics(*harness.measure(tiny(name), 0, trace=True))
                for metric in REPEATED_COUNTS:
                    self.assertGreater(first[metric][0], 0, metric)
                    self.assertEqual(first[metric], again[metric], metric)

    def test_tracing_restores_the_package(self):
        def patched_names():
            return (
                stations.decode_frame,
                adversary.encode_frame,
                stations.Station.__dict__["receive_frame"],
                medium.Medium.__dict__["attach"],
                medium.Medium.__dict__["run_until_idle"],
            )

        before = patched_names()
        harness.run_once(tiny("token_guess"), traced=True)
        self.assertEqual(patched_names(), before)
        self.assertIs(stations.decode_frame, deauthsim.decode_frame)


class PaceIndex(unittest.TestCase):
    def test_normalise_rescales_by_the_median_tick(self):
        reference = pace.REFERENCE_TICK_NS
        index = pace.Pace()
        # A host three times slower than the reference; one tick hit a stall.
        index.ticks_ns = [2 * reference, 3 * reference, 3 * reference, 10**9]
        ticks_s = sum(index.ticks_ns) / 1e9
        self.assertAlmostEqual(index.normalise(12.0), (12.0 - ticks_s) / 3)

    def test_ticks_are_taken_and_the_handler_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        run = harness.run_once(tiny("assoc_churn", seed=3))
        self.assertEqual(run.problems, [])
        self.assertGreater(run.tick_ns, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class CommandLine(unittest.TestCase):
    def declared(self, section: str) -> dict[str, str]:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {metric["name"]: metric["unit"] for metric in spec[section]}

    def result(self, proc: subprocess.CompletedProcess) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result

    def test_prints_the_declared_metrics(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                proc = run_cli(
                    "--workload", "token_guess", "--seed", "3", "--seconds", "0", "--trace", trace
                )
                metrics = self.result(proc)["metrics"]
                self.assertEqual(
                    {name: m["unit"] for name, m in metrics.items()}, self.declared(section)
                )

    def test_exits_nonzero_without_the_package(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_cli(
                "--workload", "forged_flood", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
