import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import attacksim
from attacksim import experiments, ppo
from attacksim.cli import build_parser, main
from attacksim.graph import bundled_graph, load_graph_file, validate
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

    def test_json_stays_strict_at_flag_cost_1e308(self, capsys):
        # each reward is about -1e308, so their sequential sum overflows
        argv = ["simulate", "--graph", "toy", "--episodes", "2", "--flag-cost", "1e308", "--json"]
        assert run_cli(argv) == 0

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["mean_reward"] == -1e308

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

    @pytest.mark.parametrize("flag, value", [("--fpr", "1.5"), ("--fnr", "-0.1")])
    def test_noise_rate_out_of_range_exits_two(self, capsys, flag, value):
        assert run_cli(["simulate", "--graph", "toy", "--episodes", "1", flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"attacksim: error: {flag[2:]} must be in [0, 1], got {float(value)}\n"

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
    def test_evaluate_mean_reward_finite_at_flag_cost_1e308(self, tmp_path):
        out = tmp_path / "e.csv"
        argv = ["evaluate", "--graph", "toy", "--defender", "none", "--episodes", "2", "--seeds", "1",
                "--flag-cost", "1e308", "--out", str(out)]
        assert run_cli(argv) == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        assert math.isfinite(float(row["mean_reward"]))
        assert float(row["mean_reward"]) < -1e307

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

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_policy_file_without_learned_fails_before_any_episode(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(experiments, "run_episode", no_episode)
        argv = [command, "--graph", "toy", "--defender", "tripwire",
                "--policy-file", str(tmp_path / "missing.json")]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("attacksim: error: --policy-file ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--graph", "toy", "--defender", "random", "--mode", "greedy"],
            ["evaluate", "--graph", "toy", "--defender", "tripwire", "--mode", "greedy", "--seeds", "1"],
        ],
        ids=["simulate", "evaluate"],
    )
    def test_mode_without_learned_fails_before_any_episode(self, capsys, monkeypatch, argv):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(experiments, "run_episode", no_episode)
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("attacksim: error: --mode ")
        assert len(err.splitlines()) == 1

    def test_learned_mode_defaults_to_sample(self, tmp_path, capsys):
        g, policy = bundled_graph("four_ways"), tmp_path / "policy.json"
        save_policy(init_params(g.num_attack_steps, g.num_defense_steps, np.random.default_rng(0)), policy)
        argv = ["simulate", "--graph", "four_ways", "--defender", "learned", "--policy-file", str(policy),
                "--episodes", "20", "--json"]
        outputs = []
        for mode in ([], ["--mode", "sample"], ["--mode", "greedy"]):
            assert run_cli(argv + mode) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

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

    @pytest.mark.parametrize("flag_cost", ["1e160", "1e308"])
    def test_rewards_too_large_for_the_learner_exit_two_before_a_batch(
        self, tmp_path, capsys, monkeypatch, flag_cost
    ):
        # squared advantages of rewards near -flag_cost overflow: at 1e160
        # the batch's advantage std read inf and every normalized advantage
        # 0, at 1e308 the loss went non-finite after a batch was collected
        def no_batch(*args, **kwargs):
            raise AssertionError("a batch was collected")

        monkeypatch.setattr(ppo, "collect_batch", no_batch)
        policy = tmp_path / "policy.json"
        argv = ["train", "--graph", "toy", "--iterations", "1", "--train-batch", "64",
                "--minibatch", "32", "--flag-cost", flag_cost, "--out", str(policy)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"attacksim: error: flag_cost {float(flag_cost)} and defense_cost 1.0 are too large"
        )
        assert len(err.splitlines()) == 1
        assert not policy.exists()

    def test_flag_cost_1e150_still_trains(self, tmp_path):
        policy = tmp_path / "policy.json"
        argv = ["train", "--graph", "toy", "--iterations", "1", "--train-batch", "64",
                "--minibatch", "32", "--flag-cost", "1e150", "--out", str(policy)]
        assert run_cli(argv) == 0
        assert policy.exists()

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

    def test_attacker_matrix_jobs_byte_identical(self, tmp_path):
        argv = [
            "attacker-matrix", "--graph", "toy", "--iterations", "1", "--train-batch", "16",
            "--minibatch", "8", "--episodes", "1", "--seeds", "1",
        ]
        # a missing --out-dir is made, parents and all
        outs = {jobs: tmp_path / jobs / "matrix" for jobs in ("1", "2")}
        for jobs, out_dir in outs.items():
            assert run_cli(argv + ["--jobs", jobs, "--out-dir", str(out_dir)]) == 0
        with open(outs["1"] / "attacker_matrix.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 25  # 5 training x 5 evaluation attackers
        for name in ("attacker_matrix.csv", "attacker_matrix_summary.csv"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()

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


def _no_work(*args, **kwargs):
    raise AssertionError("the command worked before its output paths were checked")


class TestOutputsCheckedFirst:
    @pytest.mark.parametrize("parent", ["nodir", "afile"])
    @pytest.mark.parametrize(
        "argv, flag, work",
        [
            (["generate", "--size", "20"], "--out", "attacksim.cli.generate"),
            (["simulate", "--graph", "toy"], "--out", "attacksim.experiments.run_episode"),
            (["simulate", "--graph", "toy"], "--record", "attacksim.experiments.run_episode"),
            (["train", "--graph", "toy"], "--out", "attacksim.ppo.train"),
            (["train", "--graph", "toy", "--out", "p.json"], "--curve", "attacksim.ppo.train"),
            (["evaluate", "--graph", "toy"], "--out", "attacksim.experiments.run_episode"),
        ],
        ids=["generate", "simulate-out", "simulate-record", "train-out", "train-curve", "evaluate"],
    )
    def test_file_outside_a_directory_exits_two_before_work(
        self, tmp_path, monkeypatch, capsys, argv, flag, work, parent
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(work, _no_work)
        pathlib.Path("afile").write_text("")
        path = f"{parent}/out.csv"
        assert run_cli(argv + [flag, path]) == 2
        assert capsys.readouterr().err == f"attacksim: error: {flag} {path}: {parent} is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize(
        "argv, flag, work",
        [
            (["generate", "--size", "20"], "--out", "attacksim.cli.generate"),
            (["simulate", "--graph", "toy"], "--out", "attacksim.experiments.run_episode"),
            (["train", "--graph", "toy", "--out", "p.json"], "--curve", "attacksim.ppo.train"),
            (["evaluate", "--graph", "toy"], "--out", "attacksim.experiments.run_episode"),
        ],
        ids=["generate", "simulate", "train-curve", "evaluate"],
    )
    def test_directory_as_output_file_exits_two_before_work(self, tmp_path, monkeypatch, capsys, argv, flag, work):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(work, _no_work)
        pathlib.Path("adir").mkdir()
        assert run_cli(argv + [flag, "adir"]) == 2
        assert capsys.readouterr().err == f"attacksim: error: {flag} adir: is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]

    @pytest.mark.parametrize(
        "argv, flag, work",
        [
            (["generate", "--size", "20"], "--out", "attacksim.cli.generate"),
            (["simulate", "--graph", "toy"], "--out", "attacksim.experiments.run_episode"),
            (["simulate", "--graph", "toy"], "--record", "attacksim.experiments.run_episode"),
            (["train", "--graph", "toy"], "--out", "attacksim.ppo.train"),
            (["train", "--graph", "toy", "--out", "p.json"], "--curve", "attacksim.ppo.train"),
            (["evaluate", "--graph", "toy"], "--out", "attacksim.experiments.run_episode"),
            (["sweep", "--graph", "toy"], "--out-dir", "attacksim.experiments._run_cells"),
        ],
        ids=["generate", "simulate-out", "simulate-record", "train-out", "train-curve", "evaluate", "sweep"],
    )
    def test_empty_path_exits_two_before_work(self, tmp_path, monkeypatch, capsys, argv, flag, work):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(work, _no_work)
        assert run_cli(argv + [flag, ""]) == 2
        assert capsys.readouterr().err == f"attacksim: error: {flag}: empty path\n"
        assert list(tmp_path.iterdir()) == []

    def test_record_stem_may_name_a_directory(self, tmp_path, monkeypatch):
        # the trajectories are written beside the stem, not into it
        monkeypatch.chdir(tmp_path)
        pathlib.Path("adir").mkdir()
        assert run_cli(["simulate", "--graph", "toy", "--episodes", "1", "--record", "adir"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "adir_ep0000.csv"]

    @pytest.mark.parametrize("out_dir", ["afile", "afile/out", "afile/out/deeper"])
    def test_out_dir_below_a_file_exits_two_before_work(self, tmp_path, monkeypatch, capsys, out_dir):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("attacksim.experiments._run_cells", _no_work)
        pathlib.Path("afile").write_text("")
        argv = ["sweep", "--graph", "toy", "--values", "0,0.25", "--seeds", "1", "--out-dir", out_dir]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"attacksim: error: --out-dir {out_dir}: afile is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]


def _run_in_subprocess(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(attacksim.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "attacksim.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


# a learner that overflows in its first update
DIVERGING = ["--iterations", "1", "--train-batch", "1", "--minibatch", "1", "--lr", "1e308"]


class TestOneStderrLine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--graph", "toy", "--out", "p.json"],
            # the two learned cells train in forked workers
            [
                "sweep", "--graph", "toy", "--defenders", "learned", "--values", "0,1",
                "--seeds", "1", "--episodes", "1", "--jobs", "2", "--out-dir", "out",
            ],
        ],
        ids=["train", "sweep-two-workers"],
    )
    def test_diverging_training_prints_only_its_error(self, tmp_path, argv):
        # in a subprocess, since the suite's warning filter turns numpy's
        # warnings into exceptions here
        result = _run_in_subprocess(argv + DIVERGING, tmp_path)
        assert result.returncode == 2
        assert result.stderr.startswith("attacksim: error: non-finite loss in PPO update; diagnostics: ")
        assert len(result.stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


# values no flag may turn into a traceback: empty, non-finite, beyond the
# float range, negative and non-ASCII
HOSTILE = ("", "nan", "inf", "-inf", "1e400", "-1", "-0.5", "\u00fc", "\u65e5\u672c")
# (legal, hostile) values per flag; legal ones keep every run short: counts
# of 1-2, graphs of at most 40 steps, no worker pool, lists of at most 2
# entries. 10**30 goes only where it starts no long run: floats and seeds.
FLAG_VALUES = {
    "--episodes": (("1", "2"), ("0", "1.5") + HOSTILE),
    "--iterations": (("0", "1", "2"), ("1.5",) + HOSTILE),
    "--train-batch": (("1", "2"), ("0", "1.5") + HOSTILE),
    "--minibatch": (("1", "2"), ("0", "1.5") + HOSTILE),
    "--size": (("20", "40"), ("0", "30", "-20") + HOSTILE),
    "--sizes": (("20",), ("30", "0", ",", "20,20", "20,x") + HOSTILE),
    "--jobs": (("1",), ("0", "-1")),
    "--values": (("0", "0.25", "0,1"), ("1.5", "1,0", "0,0", "0,nan", ",") + HOSTILE),
    "--seeds": (("1", str(10**30)), ("1,1", "1,-1", ",") + HOSTILE),
    "--defenders": (("random", "tripwire,learned", "none"), ("bogus", "random,random", ",") + HOSTILE),
    "--graph": (("toy",), ("nograph", "g.json") + HOSTILE),
    "--policy-file": (("toy_policy.json",), ("nofile.json", "g.json") + HOSTILE),
    "--out": (("o.csv", "\u00fc.json"), ("nodir/o.csv", "afile/o.csv", "afile", ".") + HOSTILE),
    "--out-dir": (("d", "d/deeper", "\u00fc"), ("afile/d", "afile") + HOSTILE),
}
FLAG_VALUES["--curve"] = FLAG_VALUES["--record"] = FLAG_VALUES["--out"]
FLOAT_VALUES = (("0", "0.1", "0.5", "1"), ("1.5", "1e308", "1e-300", str(10**30)) + HOSTILE)
SEED_VALUES = (("0", "1", str(10**30)), (str(2**64),) + HOSTILE)


def _flag_values(flag: str, action) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if flag in FLAG_VALUES:
        return FLAG_VALUES[flag]
    if action.choices is not None:
        return tuple(action.choices), ("bogus",) + HOSTILE
    return FLOAT_VALUES if action.type is float else SEED_VALUES


# flags always given, so that no run falls back to a long default
_ALWAYS = {"--episodes", "--iterations", "--train-batch", "--minibatch", "--size", "--sizes", "--values", "--seeds"}


# each subcommand's parser, by name
SUBPARSERS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


@st.composite
def cli_argvs(draw):
    """One subcommand's argv built from its parser's own actions: legal
    values except on at most two flags, which get hostile ones."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = [a for a in SUBPARSERS[command]._actions if not isinstance(a, argparse._HelpAction)]
    hostile = draw(st.sets(st.sampled_from([a.option_strings[0] for a in actions]), max_size=2))
    argv = [command]
    for action in actions:
        flag = action.option_strings[0]
        if not (action.required or flag in _ALWAYS or flag in hostile or draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        legal, bad = _flag_values(flag, action)
        argv.append(f"{flag}={draw(st.sampled_from(bad if flag in hostile else legal))}")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The inputs the fuzzed paths name; every example writes here too."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "afile").write_text("")
    (path / "g.json").write_text("{}")
    toy = bundled_graph("toy")
    params = init_params(toy.num_attack_steps, toy.num_defense_steps, np.random.default_rng(0))
    save_policy(params, path / "toy_policy.json")
    return path


class TestArgvFuzz:
    @given(argv=cli_argvs())
    @settings(max_examples=60, deadline=None)
    def test_every_command_exits_zero_or_two_with_one_stderr_line(self, fuzz_dir, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(fuzz_dir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 2), (argv, err.getvalue())
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


class TestEntryPoint:
    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "attacksim.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "generate" in result.stdout
