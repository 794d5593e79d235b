"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see them).

Tolerances are fixed here, not calibrated: grid shape and generator
contracts are exact, Monte Carlo rates carry their stated absolute bounds,
gradient checks use relative error 1e-4 at h=1e-5, and policy comparisons
use Welch t-tests at p < 0.05.
"""

import filecmp
import math
from contextlib import contextmanager

import numpy as np
import pytest

from attacksim import ppo
from attacksim.attackers import make_attacker
from attacksim.cli import main as cli_main
from attacksim.defenders import make_defender
from attacksim.engine import (
    NoiseConfig,
    init_episode,
    min_reward_bound,
    observe,
    run_episode,
    sample_ttc,
    sync_derived,
)
from attacksim.experiments import noise_grid, run_episodes
from attacksim.generate import GenConfig, generate
from attacksim.graph import (
    AttackGraph,
    AttackStep,
    RewardConfig,
    attack_surface,
    bundled_graph,
    bundled_graph_names,
    default_rewards,
    validate,
)

from conftest import build_random_graph, env_stream, reward_ttest, surface_oracle, work_steps_oracle
from test_attackers import dijkstra_work_steps
from test_ppo import fd_gradients, make_batch, max_rel_error

NO_NOISE = NoiseConfig(0.0, 0.0)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {name}")
        raise
    print(f"criterion {number:2d} PASS  {name}")


def test_criterion_01_noise_grid_shape():
    with criterion(1, "noise grid emits exactly 15 cells"):
        cells = noise_grid([0.0, 0.125, 0.25, 0.725, 1.0])
        assert len(cells) == 15
        assert len(set(cells)) == 15
        assert all(fnr <= fpr for fpr, fnr in cells)


def test_criterion_02_reward_bounds():
    with criterion(2, "1000 random-policy episodes per bundled graph stay in [bound, 0]"):
        for name in bundled_graph_names():
            graph = bundled_graph(name)
            rewards = default_rewards(graph)
            defenses = graph.num_defense_steps
            for episode in range(1000):
                record = run_episode(
                    graph,
                    make_attacker("random"),
                    make_defender("random"),
                    NO_NOISE,
                    rewards,
                    seed=1,
                    episode=episode,
                )
                # the closed-form bound is defined for lengths >= |D|; an
                # episode shorter than that is bounded by the |D|-length
                # value since per-step rewards are non-positive
                bound = min_reward_bound(graph, rewards, max(record.length, defenses))
                assert bound <= record.cumulative_reward <= 0.0, (
                    f"{name} episode {episode}: {record.cumulative_reward} "
                    f"outside [{bound}, 0]"
                )


def test_criterion_03_noise_calibration():
    with criterion(3, "empirical FPR/FNR within 0.01 of configured rates"):
        n = 200
        steps = [AttackStep(id="entry", is_entry=True)] + [
            AttackStep(id=f"s{i}", ttc_mean=1.0) for i in range(n - 1)
        ]
        graph = AttackGraph(
            attack_steps=tuple(steps),
            edges=frozenset(("entry", f"s{i}") for i in range(n - 1)),
        )
        noise = NoiseConfig(fpr=0.25, fnr=0.125)
        state = init_episode(graph, noise, RewardConfig(1.0, 1.0), env_stream(17))
        state.compromised = set(list(graph.attack_ids)[: n // 2])
        sync_derived(state)
        compromised = np.array([sid in state.compromised for sid in graph.attack_ids])
        false_pos = false_neg = pos = neg = 0
        for _ in range(1000):
            bits = observe(state).attack_bits.astype(bool)
            false_neg += int((~bits[compromised]).sum())
            false_pos += int(bits[~compromised].sum())
            pos += int(compromised.sum())
            neg += int((~compromised).sum())
        assert pos >= 100_000 and neg >= 100_000
        assert abs(false_pos / neg - 0.25) < 0.01
        assert abs(false_neg / pos - 0.125) < 0.01


def test_criterion_04_ttc_sampling():
    with criterion(4, "exponential TTC sampling calibrated, zero means stay zero"):
        steps = [AttackStep(id="entry", is_entry=True)] + [
            AttackStep(id=f"s{i}", ttc_mean=10.0) for i in range(10)
        ] + [AttackStep(id="z", ttc_mean=0.0)]
        graph = AttackGraph(
            attack_steps=tuple(steps),
            edges=frozenset(
                {("entry", f"s{i}") for i in range(10)} | {("entry", "z")}
            ),
        )
        rng = np.random.default_rng(4)
        draws = []
        for _ in range(10_000):
            sampled = sample_ttc(graph, rng)
            assert sampled["z"] == 0.0
            assert sampled["entry"] == 0.0
            draws.extend(sampled[f"s{i}"] for i in range(10))
        draws = np.asarray(draws)
        assert draws.size == 100_000
        assert abs(draws.mean() - 10.0) < 0.2
        assert (draws > 0).all()


def test_criterion_05_attack_surface_oracle():
    with criterion(5, "attack surface matches brute-force oracle on 80 random graphs"):
        # (rng seed, graphs, states per graph, membership probability): the
        # first set gives the 10^4 states, the second 30 more graphs at a
        # sparser membership
        states_checked = 0
        for seed, graphs, states, prob in ((5, 50, 220, 0.45), (13, 30, 40, 0.4)):
            rng = np.random.default_rng(seed)
            for _ in range(graphs):
                graph = build_random_graph(rng)
                for _ in range(states):
                    compromised = {
                        sid for sid in graph.attack_ids if rng.random() < prob
                    } | {graph.entry_id}
                    enabled = {did for did in graph.defense_ids if rng.random() < prob}
                    assert attack_surface(graph, compromised, enabled) == surface_oracle(
                        graph, compromised, enabled
                    )
                    states_checked += 1
        assert states_checked >= 10_000


def _optimality_inputs():
    """Criterion 06's 20 graphs with `seed=trial`, then 20 more from rng 33,
    each episode seed drawn after its graph."""
    rng = np.random.default_rng(6)
    for trial in range(20):
        yield build_random_graph(rng, or_only=True, max_defense=0, flag_prob=0.3), trial
    rng = np.random.default_rng(33)
    for _ in range(20):
        graph = build_random_graph(rng, or_only=True, max_defense=0, flag_prob=0.3)
        yield graph, int(rng.integers(10_000))


def test_criterion_06_pathfinder_optimality():
    with criterion(6, "pathfinder time-to-first-flag equals Dijkstra work-step cost"):
        for graph, seed in _optimality_inputs():
            record = run_episode(
                graph,
                make_attacker("pathfinder"),
                make_defender("none"),
                NO_NOISE,
                RewardConfig(1.0, 5.0),
                seed=seed,
            )
            work = {sid: work_steps_oracle(record.sampled_ttc[sid]) for sid in graph.attack_ids}
            dist = dijkstra_work_steps(graph, work, {graph.entry_id})
            optimal = min(dist[fid] for fid in graph.flag_ids)
            captures = [i for i, row in enumerate(record.steps) if row.reward < 0]
            assert captures, "pathfinder found no flag on a defenseless graph"
            assert captures[0] + 1 == optimal


def test_criterion_07_gradient_check():
    with criterion(7, "backprop matches central finite differences to 1e-4"):
        for trial in range(10):
            rng = np.random.default_rng(700 + trial)
            params = ppo.init_params(3, 2, rng, hidden=(4, 3))
            behavior = params.copy()
            for arr in behavior.arrays().values():
                arr += rng.normal(scale=0.05, size=arr.shape)
            hp = ppo.HyperParams(k_s=0.01 if trial % 2 else 0.0)
            batch = make_batch(params, rng, n=10, behavior=behavior, hp=hp)
            _, _, analytic = ppo.ppo_loss_and_grads(params, batch, hp)
            numeric = fd_gradients(params, batch, hp, h=1e-5)
            error = max_rel_error(analytic, numeric)
            assert error < 1e-4, f"trial {trial}: max relative error {error}"


@pytest.fixture(scope="module")
def toy_training():
    """Criterion 08's 50-iteration toy run, trained once for both modes."""
    graph = bundled_graph("toy")
    hp = ppo.HyperParams(iterations=50)
    return ppo.train(graph, make_attacker("random"), NO_NOISE, default_rewards(graph), hp, seed=1)


def learned_against_random(params, mode):
    """Rewards of the learned defender in `mode` and of the random defender,
    200 toy episodes each against the random attacker on seed 99."""
    graph = bundled_graph("toy")
    rewards = default_rewards(graph)
    return [
        [
            r.cumulative_reward
            for r in run_episodes(
                graph, "random", defender, NO_NOISE, rewards, seed=99,
                episodes=200, policy=params, mode=mode,
            )
        ]
        for defender in ("learned", "random")
    ]


def test_criterion_08_learning_sanity(toy_training):
    with criterion(8, "learned greedy policy beats random defender on the toy graph"):
        params, curve = toy_training
        assert len(curve) == 50
        learned, random_def = learned_against_random(params, "greedy")
        assert np.mean(learned) > np.mean(random_def)
        assert reward_ttest(learned, random_def) < 0.05


def test_criterion_08_sampled_policy(toy_training):
    with criterion(8, "learned sampled policy beats random defender on the toy graph"):
        params, _ = toy_training
        learned, random_def = learned_against_random(params, "sample")
        assert np.mean(learned) > np.mean(random_def)
        assert reward_ttest(learned, random_def) < 0.05


def test_criterion_09_fnr_resilience_ordering():
    with criterion(9, "tripwire collapses to the no-op baseline as FNR goes to 1"):
        graph = bundled_graph("four_ways")
        rewards = default_rewards(graph)
        sharp = [
            r.cumulative_reward
            for r in run_episodes(
                graph, "dfs", "tripwire", NoiseConfig(0.0, 0.0), rewards, seed=1,
                episodes=200,
            )
        ]
        blind = [
            r.cumulative_reward
            for r in run_episodes(
                graph, "dfs", "tripwire", NoiseConfig(0.0, 1.0), rewards, seed=1,
                episodes=200,
            )
        ]
        assert np.mean(blind) < np.mean(sharp)
        assert reward_ttest(blind, sharp) < 0.05
        # trace identity with the no-op defender at fnr=1
        noop = run_episodes(
            graph, "dfs", "none", NoiseConfig(0.0, 1.0), rewards, seed=1, episodes=50
        )
        blind_records = run_episodes(
            graph, "dfs", "tripwire", NoiseConfig(0.0, 1.0), rewards, seed=1, episodes=50
        )
        for a, b in zip(blind_records, noop):
            assert a.steps == b.steps
            assert a.cumulative_reward == b.cumulative_reward


def test_criterion_10_random_defender_flatness():
    with criterion(10, "random-defender rewards flat across all 15 noise cells"):
        graph = bundled_graph("four_ways")
        rewards = default_rewards(graph)
        cells = noise_grid([0.0, 0.125, 0.25, 0.725, 1.0])
        assert len(cells) == 15
        stats = []
        for fpr, fnr in cells:
            cell_rewards = np.array(
                [
                    r.cumulative_reward
                    for r in run_episodes(
                        graph, "random", "random", NoiseConfig(fpr, fnr), rewards,
                        seed=1, episodes=500,
                    )
                ]
            )
            stats.append((cell_rewards.mean(), cell_rewards.std(ddof=1) / np.sqrt(500)))
        for i in range(len(stats)):
            for j in range(i + 1, len(stats)):
                gap = abs(stats[i][0] - stats[j][0])
                sigma = math.sqrt(stats[i][1] ** 2 + stats[j][1] ** 2)
                assert gap <= 3 * sigma, f"cells {i} and {j} differ by {gap} > 3x{sigma}"


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "repeated CLI invocations produce byte-identical files"):
        def invocations(base):
            base.mkdir()
            return [
                ["generate", "--size", "40", "--seed", "7", "--out", str(base / "g.json")],
                [
                    "simulate", "--graph", "two_keys_one_door", "--attacker", "dfs",
                    "--defender", "tripwire", "--fpr", "0.1", "--fnr", "0.1",
                    "--episodes", "5", "--seed", "1",
                    "--out", str(base / "episodes.csv"),
                    "--record", str(base / "traj.csv"),
                ],
                [
                    "train", "--graph", "toy", "--attacker", "random",
                    "--iterations", "2", "--train-batch", "64", "--minibatch", "32",
                    "--seed", "1", "--out", str(base / "policy.json"),
                    "--curve", str(base / "curve.csv"),
                ],
                [
                    "evaluate", "--graph", "two_keys_one_door", "--attacker", "bfs",
                    "--defender", "random", "--fpr", "0.25", "--fnr", "0.125",
                    "--episodes", "10", "--seeds", "1,2", "--out", str(base / "eval.csv"),
                ],
                [
                    "sweep", "--graph", "two_keys_one_door",
                    "--defenders", "random,tripwire", "--values", "0,0.5,1",
                    "--episodes", "5", "--seeds", "1,2", "--jobs", "2",
                    "--out-dir", str(base / "sweep"),
                ],
            ]

        runs = []
        for label in ("a", "b"):
            base = tmp_path / label
            for argv in invocations(base):
                assert cli_main(argv) == 0
            runs.append(base)

        files_a = sorted(p for p in runs[0].rglob("*") if p.is_file())
        files_b = sorted(p for p in runs[1].rglob("*") if p.is_file())
        assert [p.relative_to(runs[0]) for p in files_a] == [
            p.relative_to(runs[1]) for p in files_b
        ]
        assert len(files_a) >= 10
        for pa, pb in zip(files_a, files_b):
            assert filecmp.cmp(pa, pb, shallow=False), f"{pa.name} differs between runs"


def test_criterion_12_generator_contract():
    with criterion(12, "generated sizes 20..80 are valid with size/20 guarded flags"):
        for size in (20, 40, 60, 80):
            graph = generate(GenConfig(num_attack_steps=size, seed=1))
            assert validate(graph) == []
            assert graph.num_attack_steps == size
            assert len(graph.flag_ids) == size // 20
            assert graph.num_defense_steps == size // 20
            guards = {}
            for fid in graph.flag_ids:
                parents = graph.parent_rules[fid][2]
                assert len(parents) == 1, f"flag {fid} must have exactly one defense"
                guards[fid] = parents[0]
            assert len(set(guards.values())) == len(guards), "defenses must be distinct"
