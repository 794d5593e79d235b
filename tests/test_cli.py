import csv
import json
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from attacksim import experiments, ppo
from attacksim.cli import main
from attacksim.graph import load_graph_file, validate
from attacksim.ppo import init_params, save_policy


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

    @pytest.mark.parametrize(
        "ttc_max, message",
        [("inf", "invalid ttc_mean_range"), ("1e308", "the TTCs sum to inf")],
    )
    def test_ttc_bound_too_large_writes_no_file(self, tmp_path, capsys, ttc_max, message):
        out = tmp_path / "g.json"
        argv = ["generate", "--size", "20", "--ttc-max", ttc_max, "--out", str(out)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("attacksim: error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--ttc-max", "inf", "--ttc-min 1.0, --ttc-max inf: "),
            ("--ttc-min", "-1", "--ttc-min -1.0, --ttc-max 10.0: "),
            ("--ttc-max", "1e308", "--ttc-min 1.0, --ttc-max 1e+308, --size 20: "),
            ("--size", "30", "--size 30: "),
            ("--and-fraction", "1.5", "--and-fraction 1.5: "),
            ("--extra-parent-prob", "-0.1", "--extra-parent-prob -0.1: "),
        ],
        ids=["ttc-max-inf", "ttc-min-negative", "ttc-sum-inf", "size", "and-fraction", "extra-parent-prob"],
    )
    def test_config_errors_name_the_flags(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "g.json"
        argv = ["generate", "--size", "20", flag, value, "--out", str(out)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"attacksim: error: {named}")
        assert len(err.splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["generate", "--size", "20", "--out", "g.json"], "--seed", "-1"),
        (["simulate", "--graph", "toy"], "--seed", "-1"),
        (["train", "--graph", "toy", "--out", "p.json"], "--seed", "-5"),
        (["evaluate", "--graph", "toy"], "--seeds", "-1,2"),
        (["sweep", "--graph", "toy", "--out-dir", "o"], "--seeds", "1,-2"),
        (["attacker-matrix", "--graph", "toy", "--out-dir", "o"], "--seeds", "-1"),
        (["scaling", "--out-dir", "o"], "--seeds", "-3"),
        (["scaling", "--out-dir", "o"], "--graph-seed", "-1"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_negative_seed_rejected_at_parse_time(tmp_path, monkeypatch, capsys, argv, flag, value):
    monkeypatch.chdir(tmp_path)
    # argparse takes "-1" as a value but "-1,2" as an unknown option
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ([f"{flag}={value}"] if "," in value else [flag, value]))
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"attacksim {argv[0]}: error: argument {flag}: ")
    assert repr(value) in lines[0]
    assert list(tmp_path.iterdir()) == []


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

    def test_unknown_attacker_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["simulate", "--graph", "toy", "--attacker", "warp"])
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("attacksim simulate: error: argument --attacker: ")

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--flag-cost", "inf", "flag_cost"), ("--defense-cost", "nan", "defense_cost")],
    )
    def test_non_finite_cost_exits_two(self, capsys, flag, value, field):
        assert run_cli(["simulate", "--graph", "toy", "--episodes", "2", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"attacksim: error: {field} must be finite and positive")
        assert len(err.splitlines()) == 1

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
        assert err.startswith(f"attacksim: error: graph file {graph}: attack_steps[1].ttc: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "text, message",
        [("hello", "invalid JSON: "), ('{"attack_steps": []}', "invalid graph: ['no entry step']")],
        ids=["not-json", "no-entry"],
    )
    def test_bad_graph_file_error_names_the_path(self, tmp_path, capsys, text, message):
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        assert run_cli(["simulate", "--graph", str(graph)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"attacksim: error: graph file {graph}: {message}")
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

    def test_holds_at_most_one_earlier_record(self, tmp_path, monkeypatch):
        returned = []  # a weak reference to each record run_episode returned
        real_run_episode = experiments.run_episode

        def watched(*args, **kwargs):
            assert sum(ref() is not None for ref in returned) <= 1
            record = real_run_episode(*args, **kwargs)
            returned.append(weakref.ref(record))
            return record

        monkeypatch.setattr(experiments, "run_episode", watched)
        argv = [
            "simulate", "--graph", "four_ways", "--attacker", "dfs", "--defender", "tripwire",
            "--episodes", "6", "--out", str(tmp_path / "episodes.csv"),
            "--record", str(tmp_path / "traj.csv"),
        ]
        assert run_cli(argv) == 0
        assert len(returned) == 6
        assert len(list(tmp_path.glob("traj_ep*.csv"))) == 6

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

    @pytest.mark.parametrize("value", ["1e400", "2.5", "2.0", "true", '"3"', "-1"])
    @pytest.mark.parametrize(
        "field", ["num_attack_steps", "num_defense_steps", "hidden_layers[0]", "hidden_layers[1]"]
    )
    def test_policy_header_counts_must_be_integers(self, tmp_path, capsys, field, value):
        policy = tmp_path / "policy.json"
        save_policy(init_params(2, 1, np.random.default_rng(0)), policy)  # toy's |A|, |D|
        doc = json.loads(policy.read_text())
        if field.startswith("hidden_layers"):
            doc["hidden_layers"][int(field[-2])] = "@"
        else:
            doc[field] = "@"
        policy.write_text(json.dumps(doc).replace('"@"', value))
        argv = ["simulate", "--graph", "toy", "--defender", "learned", "--policy-file", str(policy)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"attacksim: error: malformed policy file {policy}: {field} must be ")
        assert len(err.splitlines()) == 1

    def test_learned_without_policy_file_fails(self, capsys):
        assert run_cli(["evaluate", "--graph", "toy", "--defender", "learned"]) == 2
        assert "--policy-file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--minibatch", "0", "minibatch"),
            ("--train-batch", "0", "train_batch"),
            ("--iterations", "-1", "iterations"),
            ("--clip-eps", "-1", "clip_eps"),
            ("--lr", "nan", "lr"),
            ("--gamma", "1.5", "gamma"),
        ],
    )
    def test_out_of_range_training_numbers_exit_two(self, tmp_path, capsys, flag, value, field):
        policy = tmp_path / "policy.json"
        assert run_cli(["train", "--graph", "toy", "--out", str(policy), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"attacksim: error: {field} must ")
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
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(["sweep", "--graph", "toy", "--defenders", "random,ghost", "--out-dir", str(out_dir)])
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("attacksim sweep: error: argument --defenders: ")
        assert "'ghost'" in lines[0]
        assert not out_dir.exists()

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
        "command",
        [
            ["sweep", "--graph", "toy", "--defenders", "learned"],
            ["attacker-matrix", "--graph", "toy"],
            ["scaling", "--sizes", "20"],
        ],
        ids=["sweep", "attacker-matrix", "scaling"],
    )
    def test_no_episodes_exit_two_before_training(self, tmp_path, capsys, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking --episodes")

        monkeypatch.setattr(ppo, "train", no_training)
        out_dir = tmp_path / "out"
        argv = command + ["--episodes", "0", "--seeds", "1", "--out-dir", str(out_dir)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err == "attacksim: error: episodes must be >= 1, got 0\n"
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
            (["sweep", "--graph", "toy"], "--defenders", ","),
            # a repeated value would repeat rows and understate the spread
            (["scaling"], "--sizes", "20,20"),
            (["sweep", "--graph", "toy"], "--seeds", "1,1"),
            (["evaluate", "--graph", "toy"], "--seeds", "1,2,1"),
            (["sweep", "--graph", "toy"], "--values", "0,0.0"),
            (["sweep", "--graph", "toy"], "--defenders", "tripwire,tripwire"),
            # the noise grid's own rules
            (["sweep", "--graph", "toy"], "--values", "0.5,0.25"),
            (["sweep", "--graph", "toy"], "--values", "0,1.5"),
        ],
    )
    def test_bad_integer_list_names_its_flag(self, tmp_path, capsys, command, flag, value):
        out_dir = tmp_path / "out"
        argv = command + [flag, value]
        if command[0] != "evaluate":
            argv += ["--out-dir", str(out_dir)]
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        last = lines[0]
        assert last.startswith(f"attacksim {command[0]}: error: argument {flag}: ")
        assert repr(value) in last
        assert "_parse" not in last  # no internal function name
        assert not out_dir.exists()

    def test_learned_sweep_jobs_byte_identical_with_timing_sidecar(self, tmp_path):
        argv = [
            "sweep", "--graph", "toy", "--defenders", "learned", "--values", "0",
            "--episodes", "2", "--seeds", "1,2", "--iterations", "2",
            "--train-batch", "48", "--minibatch", "16",
        ]
        for jobs in ("1", "2"):
            assert run_cli(argv + ["--jobs", jobs, "--out-dir", str(tmp_path / jobs)]) == 0
        for name in ("sweep.csv", "sweep_summary.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        for jobs in ("1", "2"):
            with open(tmp_path / jobs / "sweep.csv") as fh:
                learned = [r for r in csv.DictReader(fh) if r["defender"] == "learned"]
            with open(tmp_path / jobs / "sweep_timing.csv") as fh:
                timing = list(csv.DictReader(fh))
            key = ("cell_id", "defender", "eval_attacker", "seed")
            assert [tuple(r[k] for k in key) for r in timing] == [
                tuple(r[k] for k in key) for r in learned
            ]
            assert len(timing) == 2
            for row in timing:
                seconds = float(row["train_seconds"])
                assert math.isfinite(seconds) and seconds >= 0.0

    def test_huge_jobs_starts_one_worker_per_cell(self, tmp_path):
        # values 0,1 give 3 cells, so 3 workers whatever --jobs asks for
        argv = [
            "sweep", "--graph", "toy", "--defenders", "random", "--values", "0,1",
            "--seeds", "1", "--episodes", "2",
        ]
        for jobs in ("1", "100000000000000"):
            assert run_cli(argv + ["--jobs", jobs, "--out-dir", str(tmp_path / jobs)]) == 0
        for name in ("sweep.csv", "sweep_summary.csv", "sweep_timing.csv"):
            serial, parallel = (tmp_path / jobs / name for jobs in ("1", "100000000000000"))
            assert serial.read_bytes() == parallel.read_bytes()

    def test_help_lists_no_timing_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["sweep", "--help"])
        assert err.value.code == 0
        assert "--timing" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sizes", "30", "num_attack_steps must be a positive multiple of 20, got 30"),
            ("--graph-seed", "9" * 23, "seed must be a 64-bit unsigned integer"),
        ],
        ids=["sizes", "graph-seed"],
    )
    def test_scaling_graph_config_errors_name_the_flag(self, tmp_path, capsys, flag, value, message):
        out_dir = tmp_path / "out"
        argv = ["scaling", flag, value, "--episodes", "1", "--seeds", "1", "--out-dir", str(out_dir)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"attacksim: error: {flag}: {message}")
        assert len(err.splitlines()) == 1
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
