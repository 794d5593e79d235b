import csv
import json
import subprocess
import sys

import pytest

from attacksim.cli import main
from attacksim.graph import load_graph_file, validate


def run_cli(argv):
    return main(argv)


class TestGenerate:
    def test_writes_valid_graph(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli(["generate", "--size", "40", "--seed", "7", "--out", str(out)]) == 0
        graph = load_graph_file(out)
        assert validate(graph) == []
        assert graph.num_attack_steps == 40
        assert "wrote" in capsys.readouterr().out

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli(
            ["generate", "--size", "20", "--seed", "1", "--out", str(out), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attack_steps"] == 20
        assert payload["flags"] == 1

    def test_bad_size_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli(["generate", "--size", "21", "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_episode_summary_rows(self, tmp_path, capsys):
        out = tmp_path / "episodes.csv"
        code = run_cli(
            [
                "simulate", "--graph", "two_keys_one_door", "--attacker", "dfs",
                "--defender", "tripwire", "--fpr", "0.1", "--fnr", "0.1",
                "--episodes", "10", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("episode")]
        assert len(lines) == 10

    def test_unknown_attacker_exits_one(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["simulate", "--graph", "toy", "--attacker", "warp"])
        assert err.value.code == 1

    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_non_positive_episodes_exit_two(self, episodes, capsys):
        assert run_cli(["simulate", "--graph", "toy", "--episodes", episodes]) == 2
        err = capsys.readouterr().err
        assert err.startswith("attacksim: error: --episodes")
        assert len(err.splitlines()) == 1

    def test_ttc_beyond_float_range_exits_two(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(
            '{"attack_steps": [{"id": "e", "entry": true}, '
            '{"id": "a", "ttc": 1' + "0" * 400 + ', "flag": true}], "edges": [["e", "a"]]}'
        )
        assert run_cli(["simulate", "--graph", str(graph)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("attacksim: error: attack_steps[1].ttc: ")
        assert len(err.splitlines()) == 1

    def test_graph_violation_exits_two(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(
            '{"attack_steps": [{"id": "e", "entry": true}, {"id": "a", "ttc": 1}, '
            '{"id": "f", "ttc": 1, "flag": true}], "edges": [["e", "a"]]}'
        )
        assert run_cli(["simulate", "--graph", str(graph)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("attacksim: error: ")
        assert "unreachable flag f" in err
        assert len(err.splitlines()) == 1

    def test_unknown_graph_exits_two(self, capsys):
        assert run_cli(["simulate", "--graph", "missing.json"]) == 2
        assert "neither a file nor a bundled graph" in capsys.readouterr().err

    def test_trajectory_recording(self, tmp_path):
        record = tmp_path / "traj.csv"
        code = run_cli(
            [
                "simulate", "--graph", "toy", "--episodes", "2", "--seed", "3",
                "--record", str(record),
            ]
        )
        assert code == 0
        files = sorted(tmp_path.glob("traj_ep*.csv"))
        assert len(files) == 2
        header = files[0].read_text().splitlines()[0]
        assert header == "t,attacker_action,defender_action,reward,done,observation"


class TestTrainEvaluate:
    def test_train_then_evaluate_learned(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        curve = tmp_path / "curve.csv"
        code = run_cli(
            [
                "train", "--graph", "toy", "--attacker", "random",
                "--iterations", "2", "--train-batch", "64", "--minibatch", "32",
                "--seed", "1", "--out", str(policy), "--curve", str(curve),
            ]
        )
        assert code == 0
        with open(curve) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert set(rows[0]) == {
            "iteration", "mean_episode_reward", "mean_flags_captured",
            "approx_kl", "clip_fraction",
        }

        out = tmp_path / "eval.csv"
        code = run_cli(
            [
                "evaluate", "--graph", "toy", "--attacker", "random",
                "--defender", "learned", "--policy-file", str(policy),
                "--mode", "greedy", "--episodes", "5", "--seeds", "1,2",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_learned_without_policy_file_fails(self, capsys):
        assert run_cli(["evaluate", "--graph", "toy", "--defender", "learned"]) == 2
        assert "--policy-file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--minibatch", "0", "minibatch"),
            ("--train-batch", "0", "train_batch"),
            ("--iterations", "-1", "iterations"),
        ],
    )
    def test_out_of_range_training_numbers_exit_two(self, tmp_path, capsys, flag, value, field):
        policy = tmp_path / "policy.json"
        assert run_cli(["train", "--graph", "toy", "--out", str(policy), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"attacksim: error: {field} must be >= ")
        assert len(err.splitlines()) == 1
        assert not policy.exists()

    def test_help_lists_hyperparameter_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["train", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for fragment in ("0.001", "2046", "256", "500", "0.02", "0.0001"):
            assert fragment in text


class TestExperimentCommands:
    def test_sweep_outputs(self, tmp_path):
        out_dir = tmp_path / "sweep"
        code = run_cli(
            [
                "sweep", "--graph", "two_keys_one_door", "--defenders", "random,tripwire",
                "--values", "0,1", "--episodes", "3", "--seeds", "1",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        with open(out_dir / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 3 cells x 2 defenders x 1 seed
        assert len(rows) == 6
        assert (out_dir / "sweep_summary.csv").exists()

    def test_unknown_defender_in_sweep(self, tmp_path, capsys):
        code = run_cli(
            ["sweep", "--graph", "toy", "--defenders", "ghost", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--graph", "toy", "--defenders", "tripwire"],
            ["attacker-matrix", "--graph", "toy"],
            ["scaling", "--sizes", "20"],
        ],
        ids=["sweep", "attacker-matrix", "scaling"],
    )
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_non_positive_jobs_exit_two(self, tmp_path, capsys, command, jobs):
        out_dir = tmp_path / "out"
        argv = command + ["--episodes", "1", "--seeds", "1", "--jobs", jobs]
        argv += ["--out-dir", str(out_dir)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("attacksim: error: jobs must be >= 1")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["scaling"], "--sizes", "20,x"),
            (["scaling"], "--sizes", ","),
            (["sweep", "--graph", "toy"], "--seeds", ","),
            (["sweep", "--graph", "toy"], "--seeds", "1,two"),
            (["evaluate", "--graph", "toy"], "--seeds", ","),
            # the one float list takes the same path
            (["sweep", "--graph", "toy"], "--values", ","),
            (["sweep", "--graph", "toy"], "--values", "0,x"),
        ],
    )
    def test_bad_integer_list_names_its_flag(self, tmp_path, capsys, command, flag, value):
        out_dir = tmp_path / "out"
        argv = command + [flag, value]
        if command[0] != "evaluate":
            argv += ["--out-dir", str(out_dir)]
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"attacksim {command[0]}: error: argument {flag}: ")
        assert repr(value) in last
        assert "_parse" not in last  # no internal function name
        assert not out_dir.exists()

    def test_scaling_with_tiny_settings(self, tmp_path):
        out_dir = tmp_path / "scaling"
        code = run_cli(
            [
                "scaling", "--sizes", "20", "--episodes", "2", "--seeds", "1",
                "--iterations", "1", "--train-batch", "32", "--minibatch", "16",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        with open(out_dir / "scaling.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # learned + tripwire


class TestEntryPoint:
    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "attacksim.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "generate" in result.stdout
