import concurrent.futures
import math
import pathlib
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from attacksim.graph import AttackGraph, AttackStep, DefenseStep, RewardConfig, default_rewards
from attacksim.engine import NoiseConfig
from attacksim import engine, experiments, ppo
from attacksim.experiments import (
    MetricsRow,
    aggregate_rows,
    attacker_matrix,
    evaluate,
    finite_mean,
    finite_std,
    noise_grid,
    run_episodes,
    run_sweep,
    scaling_study,
    write_metrics_csv,
    write_summary_csv,
)
from attacksim.ppo import HyperParams, init_params

from conftest import reward_ttest

TINY_HP = HyperParams(train_batch=32, minibatch=16, iterations=1)


class TestNoiseGrid:
    def test_default_values_give_fifteen_cells(self):
        cells = noise_grid([0.0, 0.125, 0.25, 0.725, 1.0])
        assert len(cells) == 15
        assert all(fnr <= fpr for fpr, fnr in cells)

    def test_single_value(self):
        assert noise_grid([0.0]) == [(0.0, 0.0)]

    def test_two_values_enumerated(self):
        assert noise_grid([0.0, 0.5]) == [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5)]

    def test_rejects_unsorted_or_out_of_range(self):
        with pytest.raises(ValueError):
            noise_grid([0.5, 0.0])
        with pytest.raises(ValueError, match="strictly ascending"):
            noise_grid([0.0, 0.0])
        with pytest.raises(ValueError):
            noise_grid([0.0, 1.5])


class TestEvaluate:
    def config(self, graph, **overrides):
        defaults = dict(
            graph=graph,
            attacker="random",
            defender="random",
            noise=NoiseConfig(0.1, 0.1),
            rewards=default_rewards(graph),
            episodes=20,
            seeds=(1, 2),
        )
        defaults.update(overrides)
        return defaults

    def test_rewards_finite_and_non_positive(self, two_keys_graph):
        rows = evaluate(**self.config(two_keys_graph))
        assert len(rows) == 2
        for row in rows:
            assert np.isfinite(row.mean_reward)
            assert row.mean_reward <= 0.0
            assert 0.0 <= row.flags_fraction <= 1.0
            assert row.min_len <= row.mean_len <= row.max_len

    def test_deterministic(self, two_keys_graph):
        assert evaluate(**self.config(two_keys_graph)) == evaluate(**self.config(two_keys_graph))

    def test_fnr_one_tripwire_equals_no_defender(self, four_ways_graph):
        # with every alert suppressed the tripwire never acts, so its
        # episodes replay the no-defender baseline exactly
        rewards = default_rewards(four_ways_graph)
        noise = NoiseConfig(fpr=0.0, fnr=1.0)
        for ep in range(20):
            a = run_episodes(four_ways_graph, "dfs", "tripwire", noise, rewards, 3, 1)[0]
            b = run_episodes(four_ways_graph, "dfs", "none", noise, rewards, 3, 1)[0]
            assert a.flags_fraction == b.flags_fraction
            assert a.cumulative_reward == b.cumulative_reward
            assert [r.attacker_action for r in a.steps] == [
                r.attacker_action for r in b.steps
            ]

    def test_counts_episodes_cut_at_the_step_cap(self, four_ways_graph, monkeypatch):
        config = self.config(four_ways_graph, attacker="dfs", defender="none", episodes=5)
        assert [row.truncated for row in evaluate(**config)] == [0, 0]
        monkeypatch.setattr(engine, "default_step_cap", lambda graph: 2)
        for row in evaluate(**config):
            assert row.truncated == 5
            assert row.max_len == 2

    def test_mean_reward_finite_when_every_reward_is(self, toy_graph):
        # each episode's reward is about -1e308, so their plain sum overflows
        config = self.config(
            toy_graph, defender="none", rewards=RewardConfig(1.0, 1e308), episodes=2, seeds=(1,)
        )
        records = run_episodes(toy_graph, "random", "none", config["noise"], config["rewards"], 1, 2)
        rewards = [r.cumulative_reward for r in records]
        assert all(math.isfinite(r) for r in rewards)
        (row,) = evaluate(**config)
        assert row.mean_reward == pytest.approx(rewards[0] / 2 + rewards[1] / 2, rel=1e-15)

    def test_config_validation(self, toy_graph):
        with pytest.raises(ValueError, match="episodes"):
            evaluate(**self.config(toy_graph, episodes=0))
        with pytest.raises(ValueError, match="seeds"):
            evaluate(**self.config(toy_graph, seeds=()))


class TestEvaluateFold:
    def test_holds_at_most_one_earlier_record(self, four_ways_graph, monkeypatch):
        returned = []  # a weak reference to each record run_episode returned
        real_run_episode = experiments.run_episode

        def watched(*args, **kwargs):
            assert sum(ref() is not None for ref in returned) <= 1
            record = real_run_episode(*args, **kwargs)
            returned.append(weakref.ref(record))
            return record

        monkeypatch.setattr(experiments, "run_episode", watched)
        rewards = default_rewards(four_ways_graph)
        evaluate(four_ways_graph, "depth_first", "tripwire", NoiseConfig(0.1, 0.1), rewards, 5, (1, 2))
        assert len(returned) == 10

    @pytest.mark.parametrize(
        "defender, mode",
        [("learned", "sample"), ("learned", "greedy"), ("tripwire", "sample"), ("random", "sample")],
    )
    def test_rows_match_the_records(self, four_ways_graph, defender, mode):
        graph = four_ways_graph
        rewards = default_rewards(graph)
        noise = NoiseConfig(0.1, 0.1)
        policy = None
        if defender == "learned":
            rng = np.random.default_rng(5)
            policy = init_params(graph.num_attack_steps, graph.num_defense_steps, rng)
        rows = evaluate(graph, "depth_first", defender, noise, rewards, 20, (1, 2), policy, mode)
        for row, seed in zip(rows, (1, 2), strict=True):
            records = run_episodes(
                graph, "depth_first", defender, noise, rewards, seed, 20, policy=policy, mode=mode
            )
            lengths = [r.length for r in records]
            assert row == MetricsRow(
                "evaluate", "fpr=0.1_fnr=0.1", 0.1, 0.1, graph.num_attack_steps, "",
                "depth_first", defender, seed,
                mean_reward=float(np.mean([r.cumulative_reward for r in records])),
                flags_fraction=float(np.mean([r.flags_fraction for r in records])),
                mean_len=float(np.mean(lengths)),
                min_len=min(lengths),
                max_len=max(lengths),
                truncated=sum(r.truncated for r in records),
            )


class TestPairedEvaluation:
    def test_defenseless_graph_shares_attacker_sequences(self):
        # when the graph has no defenses every defender is a no-op stream,
        # so paired evaluations replay identical attacker actions
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=2.0),
            AttackStep(id="b", ttc_mean=2.0, is_flag=True),
        )
        g = AttackGraph(
            attack_steps=steps,
            edges=frozenset({("entry", "a"), ("a", "b"), ("entry", "b")}),
        )
        rewards = default_rewards(g)
        noise = NoiseConfig(0.1, 0.1)
        a = run_episodes(g, "random", "none", noise, rewards, 7, 10)
        b = run_episodes(g, "random", "random", noise, rewards, 7, 10)
        for ra, rb in zip(a, b):
            assert [r.attacker_action for r in ra.steps] == [
                r.attacker_action for r in rb.steps
            ]


class TestRandomDefenderFlatness:
    def test_metrics_identical_across_noise_cells(self, two_keys_graph):
        # the random defender ignores observations and noise draws live on
        # the environment stream, so matching seeds give matching episodes
        rewards = default_rewards(two_keys_graph)
        baseline = None
        for fpr, fnr in noise_grid([0.0, 0.5, 1.0]):
            records = run_episodes(
                two_keys_graph, "random", "random", NoiseConfig(fpr, fnr), rewards, 5, 30
            )
            rewards_seq = [r.cumulative_reward for r in records]
            if baseline is None:
                baseline = rewards_seq
            else:
                assert rewards_seq == baseline


class TestSweep:
    def test_tripwire_beats_random_on_clean_observations(self):
        # flags guarded at the end of a long unguarded approach: blanket
        # random blocking pays upkeep for the whole slog while the tripwire
        # waits for alerts (paired seeds)
        steps = [
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="t1", ttc_mean=4.0),
            AttackStep(id="t2", ttc_mean=4.0),
            AttackStep(id="t3", ttc_mean=4.0),
            AttackStep(id="hub", ttc_mean=1.0),
        ]
        edges = {("entry", "t1"), ("t1", "t2"), ("t2", "t3"), ("t3", "hub")}
        defenses = []
        for i in range(4):
            breach, flag, block = f"breach{i}", f"flag{i}", f"block{i}"
            steps.append(AttackStep(id=breach, ttc_mean=1.0))
            steps.append(AttackStep(id=flag, ttc_mean=1.0, is_flag=True))
            defenses.append(DefenseStep(id=block))
            edges.update({("hub", breach), (breach, flag), (block, breach), (block, flag)})
        g = AttackGraph(
            attack_steps=tuple(steps),
            defense_steps=tuple(defenses),
            edges=frozenset(edges),
        )
        rewards = default_rewards(g)
        noise = NoiseConfig(0.0, 0.0)
        tripwire = [
            r.cumulative_reward
            for r in run_episodes(g, "dfs", "tripwire", noise, rewards, 1, 100)
        ]
        random_def = [
            r.cumulative_reward
            for r in run_episodes(g, "dfs", "random", noise, rewards, 1, 100)
        ]
        assert np.mean(tripwire) >= np.mean(random_def)
        assert reward_ttest(tripwire, random_def) < 0.05

    def test_heuristic_sweep_shape(self, two_keys_graph):
        rows = run_sweep(
            two_keys_graph,
            ["random", "tripwire"],
            values=(0.0, 0.5, 1.0),
            episodes=5,
            seeds=(1, 2),
        )
        # 6 cells x 2 defenders x 2 seeds
        assert len(rows) == 24
        assert {r.defender for r in rows} == {"random", "tripwire"}
        cells = {(r.fpr, r.fnr) for r in rows}
        assert len(cells) == 6
        for row in rows:
            assert row.train_seconds == 0.0
            assert row.train_attacker == ""

    def test_learned_sweep_trains_per_cell(self, toy_graph):
        rows = run_sweep(
            toy_graph,
            ["learned"],
            values=(0.0,),
            episodes=3,
            seeds=(1,),
            hp=TINY_HP,
        )
        assert len(rows) == 1
        assert rows[0].defender == "learned"
        assert rows[0].train_attacker == "depth_first"
        # wall-clock seconds ride along but leave equality alone
        assert math.isfinite(rows[0].train_seconds) and rows[0].train_seconds >= 0.0
        assert replace(rows[0], train_seconds=rows[0].train_seconds + 1.0) == rows[0]
        assert "train_seconds" not in experiments.METRICS_COLUMNS

    def test_unknown_defender_rejected_before_training(self, toy_graph, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the defenders")

        monkeypatch.setattr(ppo, "train", no_training)
        with pytest.raises(ValueError, match="unknown defender 'bogus'"):
            run_sweep(toy_graph, ["learned", "bogus"], values=(0.0,), episodes=1, seeds=(1,), hp=TINY_HP)

    def test_jobs_parallel_matches_serial(self, toy_graph):
        kwargs = dict(values=(0.0, 1.0), episodes=4, seeds=(1, 2), hp=TINY_HP)
        serial = run_sweep(toy_graph, ["random", "tripwire"], jobs=1, **kwargs)
        parallel = run_sweep(toy_graph, ["random", "tripwire"], jobs=3, **kwargs)
        assert serial == parallel

    @pytest.mark.parametrize(
        "jobs, values, pools",
        [(1, (0.0, 1.0), []), (8, (0.0,), []), (2, (0.0, 1.0), [2]), (10**14, (0.0, 1.0), [3])],
        ids=["one-job", "one-cell", "fewer-jobs-than-cells", "more-jobs-than-cells"],
    )
    def test_pool_never_larger_than_its_cells(self, toy_graph, monkeypatch, jobs, values, pools):
        built = []  # max_workers of each pool built

        class RecordingPool:
            """Records its size and runs the cells in this process."""

            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # noise values (0, 1) give 3 grid cells, (0,) gives 1
        run_sweep(toy_graph, ["random"], values=values, episodes=2, seeds=(1,), jobs=jobs)
        assert built == pools


class TestAttackerMatrix:
    def test_shape_and_diagonal(self, toy_graph):
        rows = attacker_matrix(toy_graph, hp=TINY_HP, episodes=3, seeds=(1,))
        # 5 training attackers x 5 eval attackers x 1 seed
        assert len(rows) == 25
        trains = {r.train_attacker for r in rows}
        assert trains == {"random", "breadth_first", "depth_first", "pathfinder", "mixture"}
        diagonal = [r for r in rows if r.train_attacker == r.eval_attacker]
        assert len(diagonal) == 5
        assert all(r.defender == "learned" for r in rows)


class TestScaling:
    def test_shape_and_flag_counts(self):
        rows = scaling_study(sizes=(20, 40), hp=TINY_HP, episodes=3, seeds=(1,))
        # 2 sizes x 2 defenders x 1 seed
        assert len(rows) == 4
        assert {r.defender for r in rows} == {"learned", "tripwire"}
        assert {r.graph_size for r in rows} == {20, 40}


class TestAggregationAndOutput:
    def rows(self):
        return [
            MetricsRow("e", "c", 0.0, 0.0, 2, "", "random", "random", 1, -10.0, 0.5, 3.0, 2, 4),
            MetricsRow("e", "c", 0.0, 0.0, 2, "", "random", "random", 2, -20.0, 0.7, 5.0, 3, 7),
        ]

    def test_cross_seed_mean_is_arithmetic_mean(self):
        summary = aggregate_rows(self.rows())
        assert len(summary) == 1
        assert summary[0]["mean_reward_mean"] == pytest.approx(-15.0)
        assert summary[0]["seeds"] == 2
        assert summary[0]["mean_reward_std"] == pytest.approx(np.std([-10, -20], ddof=1))

    def test_csv_round_trip(self, tmp_path):
        import csv

        path = tmp_path / "metrics.csv"
        write_metrics_csv(self.rows(), path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["mean_reward"] == "-10.0"
        assert list(rows[0]) == list(experiments.METRICS_COLUMNS)

    def test_summary_finite_when_every_seed_mean_is(self):
        rows = [replace(row, mean_reward=r) for row, r in zip(self.rows(), (-1e308, -1.5e308))]
        summary = aggregate_rows(rows)[0]
        assert summary["mean_reward_mean"] == pytest.approx(-1.25e308)
        assert summary["mean_reward_std"] == pytest.approx(0.5e308 / math.sqrt(2))

    def test_summary_sums_truncated_episodes(self):
        rows = [replace(row, truncated=n) for row, n in zip(self.rows(), (1, 3))]
        assert aggregate_rows(rows)[0]["truncated"] == 4

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(self.rows(), path)
        text = path.read_text()
        assert "mean_reward_mean" in text
        assert "-15.0" in text


class TestRewardTtest:
    def test_importing_experiments_leaves_scipy_unloaded(self):
        # the import budget: the runtime needs numpy only (scipy is a test
        # dependency), and the process pool's modules load only when a run
        # builds a pool
        src = pathlib.Path(experiments.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import attacksim, attacksim.experiments, attacksim.cli; "
            "print([m for m in ('scipy', 'multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"


class TestFiniteStats:
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_numpy_wherever_numpy_is_finite(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = [(finite_mean(values), np.mean(values))]
            if len(values) > 1:
                pairs.append((finite_std(values), np.std(values, ddof=1)))
        for ours, numpy in pairs:
            assert math.isfinite(ours)
            if math.isfinite(numpy):
                assert np.float64(ours).tobytes() == numpy.tobytes()

    @pytest.mark.parametrize(
        "values, mean",
        [
            ([-1e308, -1e308], -1e308),
            ([1.5e308, 1.5e308, -1e308], 1e308 / 3 * 2),
            ([np.finfo(float).max] * 3, np.finfo(float).max),
            ([-np.finfo(float).max] * 5, -np.finfo(float).max),
            # partial sums of opposite sign overflow to inf - inf = nan
            ([1e308, -1e308] * 8, 0.0),
        ],
    )
    def test_mean_finite_where_numpy_overflows(self, values, mean):
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.mean(values))
        assert finite_mean(values) == pytest.approx(mean, rel=1e-15)

    def test_std_finite_where_numpy_overflows(self):
        assert finite_std([1e308, 1.5e308]) == pytest.approx(0.5e308 / math.sqrt(2), rel=1e-15)
        assert finite_std([-1e308, 1e308]) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
        # only a deviation too large for a float reads inf
        assert finite_std([-1.5e308, 1.5e308]) == math.inf

    def test_non_finite_values_give_numpy_result(self):
        assert finite_mean([1.0, math.inf]) == math.inf
        with np.errstate(invalid="ignore"):
            assert math.isnan(finite_mean([-math.inf, math.inf]))
