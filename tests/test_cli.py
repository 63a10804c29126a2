"""Command line behavior: formats, logs, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from deauthsim.bench import BenchReport
from deauthsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_TICK_LIMIT, _bench_human, main
from deauthsim.scenario import MAX_SCENARIO_BYTES

TICK_BOMB = """
schema: 1
name: tick_bomb
mode: protected
seed: 1
max_ticks: 2
stations:
  - {role: ap, mac: "02:00:00:00:00:01"}
  - {role: client, mac: "02:00:00:00:00:02"}
script:
  - associate: {client: "02:00:00:00:00:02", ap: "02:00:00:00:00:01"}
"""


class TestRun:
    def test_bundled_scenario_human(self, capsys):
        assert main(["run", "protected_forged_deauth"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "attack_success_count: 0" in out
        assert "auth_assoc" in out

    def test_bundled_scenario_json(self, capsys):
        assert main(["run", "legacy_forged_deauth", "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["attack_success_count"] == 1
        assert data["final_states"]["02:00:00:00:00:02"] == "unauth_unassoc"

    def test_a_run_with_no_verdicts_says_none(self, tmp_path, capsys):
        path = tmp_path / "idle.yaml"
        path.write_text(
            """
            schema: 1
            name: idle
            mode: protected
            stations:
              - {role: ap, mac: "02:00:00:00:00:01"}
            script: []
            """
        )
        assert main(["run", str(path), "--format", "human"]) == EXIT_OK
        assert "verdicts:\n  (none)\nfinal_states:" in capsys.readouterr().out

    def test_scenario_file_path(self, tmp_path, capsys):
        path = tmp_path / "mini.yaml"
        path.write_text(
            """
            schema: 1
            name: mini
            mode: protected
            seed: 9
            stations:
              - {role: ap, mac: "02:00:00:00:00:01"}
              - {role: client, mac: "02:00:00:00:00:02"}
            script:
              - associate: {client: "02:00:00:00:00:02", ap: "02:00:00:00:00:01"}
            """
        )
        assert main(["run", str(path)]) == EXIT_OK
        assert "auth_assoc" in capsys.readouterr().out

    def test_seed_override_accepted(self, capsys):
        assert main(["run", "protected_legit_teardown", "--seed", "123"]) == EXIT_OK
        assert "seed: 123" in capsys.readouterr().out

    def test_negative_seed_override_exits_2(self, capsys):
        # Random(-5) seeds as Random(5) does: the run would repeat seed 5's.
        assert main(["run", "lossy_protected_flood", "--seed", "-5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: seed must be non-negative, got -5\n"

    def test_refused_seed_leaves_an_existing_log_untouched(self, tmp_path, capsys):
        log = tmp_path / "keep.jsonl"
        log.write_bytes(b"old\n")
        argv = ["run", "protected_legit_teardown", "--seed", "-5", "--log", str(log)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be non-negative, got -5\n"
        assert log.read_bytes() == b"old\n"

    def test_event_log_written(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main(["run", "protected_legit_teardown", "--log", str(log)]) == EXIT_OK
        capsys.readouterr()
        lines = log.read_text().splitlines()
        assert lines, "the log must contain events"
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"tick", "kind", "from", "to", "frame"}
            bytes.fromhex(doc["frame"])

    def test_same_seed_same_log_bytes(self, tmp_path, capsys):
        log_a = tmp_path / "a.jsonl"
        log_b = tmp_path / "b.jsonl"
        main(["run", "lossy_protected_flood", "--log", str(log_a)])
        main(["run", "lossy_protected_flood", "--log", str(log_b)])
        capsys.readouterr()
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "/no/such/scenario.yaml"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("schema: 1\nname: broken\nmode: wat\nstations: []\n")
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_misspelt_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.yaml"
        path.write_text(TICK_BOMB.replace("max_ticks: 2", "loss_probabilty: 0.9"))
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "loss_probabilty" in capsys.readouterr().err

    def test_non_list_attackers_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "null.yaml"
        path.write_text(TICK_BOMB + "attackers: null\n")
        result = subprocess.run(
            [sys.executable, "-m", "deauthsim", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.startswith("error:")
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr

    def test_huge_loss_probability_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "huge.yaml"
        path.write_text(TICK_BOMB + "loss_probability: " + "9" * 400 + "\n")
        result = subprocess.run(
            [sys.executable, "-m", "deauthsim", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr == "error: scenario: int too large to convert to float\n"

    def test_deeply_nested_scenario_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "deep.yaml"
        path.write_text("mode: " + "[" * 5000 + "]" * 5000 + "\n")
        result = subprocess.run(
            [sys.executable, "-m", "deauthsim", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.startswith("error:")
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr

    def test_unwritable_log_exits_2(self, tmp_path, capsys):
        for log in (tmp_path, tmp_path / "missing" / "events.jsonl"):
            assert main(["run", "protected_legit_teardown", "--log", str(log)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_unwritable_log_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the scenario ran before the log path was checked")

        monkeypatch.setattr("deauthsim.cli.run_scenario", must_not_run)
        assert main(["run", "protected_legit_teardown", "--log", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: cannot write event log")

    def test_failed_run_leaves_an_empty_log(self, tmp_path, capsys):
        path = tmp_path / "bomb.yaml"
        path.write_text(TICK_BOMB)
        log = tmp_path / "events.jsonl"
        assert main(["run", str(path), "--log", str(log)]) == EXIT_TICK_LIMIT
        assert log.read_text() == ""

    def test_overlong_scenario_name_exits_2(self, capsys):
        assert main(["run", "x" * 5000]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scenario file") and len(err.splitlines()) == 1

    def test_replay_with_nothing_captured_exits_2(self, tmp_path, capsys):
        path = tmp_path / "replay.yaml"
        path.write_text(
            TICK_BOMB.replace("max_ticks: 2", "max_ticks: 10")
            + "  - attack: {index: 0}\n"
            + "attackers:\n"
            + '  - {kind: deauth_replay, spoof_src: "02:00:00:00:00:02",'
            + ' target: "02:00:00:00:00:01"}\n'
        )
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_associating_an_associated_client_exits_2(self, tmp_path, capsys):
        path = tmp_path / "twice.yaml"
        path.write_text(
            TICK_BOMB.replace("max_ticks: 2", "max_ticks: 10")
            + '  - associate: {client: "02:00:00:00:00:02", ap: "02:00:00:00:00:01"}\n'
        )
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "AUTH_ASSOC" in err

    def test_directory_path_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(TICK_BOMB.replace("tick_bomb", "caf\xe9").encode("latin-1"))
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_oversized_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.yaml"
        with open(path, "wb") as stream:
            stream.truncate(MAX_SCENARIO_BYTES + 1)  # sparse: no blocks written
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert str(MAX_SCENARIO_BYTES) in err

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_file_exits_2_in_bounded_memory(self):
        resource = pytest.importorskip("resource")

        def cap_address_space():
            limit = 512 * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        result = subprocess.run(
            [sys.executable, "-m", "deauthsim", "run", "/dev/zero"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_address_space,
        )
        assert result.returncode == EXIT_CONFIG, result.stderr[-500:]
        assert result.stderr.startswith("error:")
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr

    def test_tick_limit_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bomb.yaml"
        path.write_text(TICK_BOMB)
        assert main(["run", str(path)]) == EXIT_TICK_LIMIT
        assert "tick limit" in capsys.readouterr().err


# Percentiles given out of order: both reports list them sorted.
FIXED_REPORT = BenchReport(
    iterations=100,
    token_mean_s=0.25,
    hash_mean_s=0.5,
    total_mean_s=0.75,
    token_percentiles_s={99: 3.0, 50: 1.0, 90: 2.0},
    hash_percentiles_s={50: 4.0, 90: 5.0, 99: 6.0},
)


class TestBench:
    def test_json_report_shape(self, capsys):
        assert main(["bench", "--iterations", "200", "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["iterations"] == 200
        assert data["total_mean_s"] == pytest.approx(
            data["token_mean_s"] + data["hash_mean_s"]
        )
        assert {r["platform"] for r in data["reference"]} == {
            "raspberry-pi-3b",
            "esp8266",
        }
        assert set(data["token_percentiles_s"]) == {"p50", "p90", "p99"}

    def test_report_dict_is_pinned(self):
        assert FIXED_REPORT.to_dict() == {
            "iterations": 100,
            "token_mean_s": 0.25,
            "hash_mean_s": 0.5,
            "total_mean_s": 0.75,
            "token_percentiles_s": {"p50": 1.0, "p90": 2.0, "p99": 3.0},
            "hash_percentiles_s": {"p50": 4.0, "p90": 5.0, "p99": 6.0},
            "reference": [
                {
                    "platform": "raspberry-pi-3b",
                    "token_mean_s": 0.076341,
                    "hash_mean_s": 0.117223,
                    "total_mean_s": 0.193564,
                },
                {
                    "platform": "esp8266",
                    "token_mean_s": 0.058025,
                    "hash_mean_s": 0.123348,
                    "total_mean_s": 0.181373,
                },
            ],
        }

    def test_human_report_is_pinned(self):
        # The total row has no percentile cells, and no trailing spaces.
        assert _bench_human(FIXED_REPORT) == (
            "iterations: 100\n"
            "op                    mean_s       p50_s       p90_s       p99_s\n"
            "generate-token   0.250000000 1.000000000 2.000000000 3.000000000\n"
            "sha512-digest    0.500000000 4.000000000 5.000000000 6.000000000\n"
            "total            0.750000000\n"
            "\n"
            "reference hardware (mean seconds):\n"
            "  raspberry-pi-3b  token=0.076341 sha512=0.117223 total=0.193564\n"
            "  esp8266          token=0.058025 sha512=0.123348 total=0.181373"
        )

    def test_human_report_mentions_reference_hardware(self, capsys):
        assert main(["bench", "--iterations", "150"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "generate-token" in out and "sha512-digest" in out
        assert "raspberry-pi-3b" in out and "esp8266" in out

    def test_too_few_iterations_exits_2(self, capsys):
        assert main(["bench", "--iterations", "99"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_too_many_iterations_exits_2(self, capsys, monkeypatch):
        # Refused before any sample is taken or any sample list grows.
        def must_not_run():
            raise AssertionError("bench ran despite the refused iteration count")

        monkeypatch.setattr("deauthsim.bench.generate_token", must_not_run)
        assert main(["bench", "--iterations", "1000001"]) == EXIT_CONFIG
        assert "1000000" in capsys.readouterr().err


class TestListScenarios:
    def test_lists_all_bundled(self, capsys):
        assert main(["list-scenarios"]) == EXIT_OK
        names = capsys.readouterr().out.split()
        assert "legacy_forged_deauth" in names
        assert "protected_forged_deauth" in names
        assert "protected_legit_teardown" in names
        assert len(names) == 7


class TestInstalledEntrypoint:
    def test_python_dash_m_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "deauthsim", "list-scenarios"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "protected_forged_deauth" in result.stdout

    def test_bad_subcommand_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "deauthsim", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
