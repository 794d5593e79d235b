"""The benchmark's workloads.

Each workload derives all of its inputs from the workload seed: the
graphs, the untrained policy and the episode seeds. An operation is split
into ``prepare`` (untimed, untraced), ``run`` (the timed call into
attacksim) and ``check`` (untimed, untraced), so the benchmark's own
bookkeeping stays out of both the timings and the spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from attacksim import GenConfig, NoiseConfig, bundled_graph, default_rewards, engine, experiments, generate, ppo
from attacksim.attackers import MixtureAttacker, make_attacker
from attacksim.defenders import make_defender

import checks

NOISE = NoiseConfig(fpr=0.1, fnr=0.1)


@dataclass
class Outcome:
    """What one operation did: counts for the metrics, problems found by
    the correctness gate, and the bytes of its deterministic output."""

    attempted: int
    failed: int = 0
    env_steps: int = 0
    episodes: int = 0
    problems: list[str] = field(default_factory=list)
    digest: bytes = b""


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _episode_outcome(graph, rewards, records, expected: int) -> Outcome:
    out = Outcome(attempted=expected)
    if len(records) != expected:
        out.failed = expected
        out.problems.append(f"{len(records)} records for {expected} episodes")
        return out
    for record in records:
        problems = checks.episode_problems(graph, rewards, record)
        if problems:
            out.failed += 1
            out.problems.extend(problems)
        out.env_steps += record.length
        out.episodes += 1
        out.digest += checks.episode_digest(record)
    return out


class EvalGen200Mixture:
    """``experiments.run_episodes`` on generated 200-step graphs, mixture
    attacker against tripwire, four episodes per operation.

    Operation k runs on graph k % GRAPHS: the first graph is generated
    from the workload seed, the others from seeds derived from it. Episode
    length depends on the graph, so one graph per run would make
    episodes_per_s swing with the seed rather than with the code.

    Each operation uses an episode seed whose four episodes draw each base
    attacker exactly once. Pathfinder episodes cost about four times the
    others, so an unstratified draw would make run-level throughput swing
    with the pathfinder share rather than with the code."""

    name = "eval-gen200-mixture"
    boundary = "engine.run_episode"
    prefix_ops = 2
    GRAPHS = 4
    EPISODES = 4
    units_per_op = EPISODES
    per_episode_ops = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        seeds = [self.seed] + [_derived_seed(self.seed, 4, g) for g in range(1, self.GRAPHS)]
        self.graphs = [generate(GenConfig(num_attack_steps=200, seed=seed)) for seed in seeds]
        self.rewards = [default_rewards(graph) for graph in self.graphs]
        tripwire = make_defender("tripwire")
        for graph, rewards in zip(self.graphs, self.rewards):
            for kind in MixtureAttacker.BASE_KINDS:
                engine.run_episode(
                    graph, make_attacker(kind), tripwire, NOISE, rewards, self.seed, max_steps=25,
                )

    def _kinds(self, g: int, seed: int):
        graph, rewards = self.graphs[g], self.rewards[g]
        for episode in range(self.EPISODES):
            env_rng, attacker_rng, _ = engine.episode_streams(seed, episode)
            state = engine.init_episode(graph, NOISE, rewards, env_rng)
            mixture = MixtureAttacker()
            mixture.reset(graph, state, attacker_rng)
            yield mixture.active_kind

    def _balanced(self, g: int, seed: int) -> bool:
        seen = set()
        for kind in self._kinds(g, seed):
            if kind in seen:
                return False
            seen.add(kind)
        return True

    def prepare(self, k: int) -> tuple[int, int]:
        g = k % self.GRAPHS
        for attempt in range(10_000):
            seed = _derived_seed(self.seed, 1, k, attempt)
            if self._balanced(g, seed):
                return g, seed
        raise RuntimeError("no balanced episode seed found")

    def run(self, job: tuple[int, int]):
        g, seed = job
        return experiments.run_episodes(
            self.graphs[g], "mixture", "tripwire", NOISE, self.rewards[g], seed, self.EPISODES
        )

    def check(self, job: tuple[int, int], records) -> Outcome:
        g, _ = job
        return _episode_outcome(self.graphs[g], self.rewards[g], records, self.EPISODES)


class EvalFourwaysLearned:
    """``engine.run_episode`` per operation on bundled four_ways, mixture
    attacker against an untrained learned defender in sample mode."""

    name = "eval-fourways-learned"
    boundary = "engine.run_episode"
    prefix_ops = 500
    units_per_op = 1
    per_episode_ops = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.graph = bundled_graph("four_ways")
        self.rewards = default_rewards(self.graph)
        params = ppo.init_params(
            self.graph.num_attack_steps, self.graph.num_defense_steps,
            np.random.default_rng(self.seed),
        )
        self.attacker = make_attacker("mixture")
        self.defender = make_defender("learned", params=params, mode="sample")
        self.episode_seed = _derived_seed(self.seed, 2)
        for episode in range(50):
            engine.run_episode(
                self.graph, self.attacker, self.defender, NOISE, self.rewards,
                self.episode_seed, episode=episode, context=engine.CONTEXT_TRAIN,
            )

    def prepare(self, k: int) -> int:
        return k

    def run(self, episode: int):
        return engine.run_episode(
            self.graph, self.attacker, self.defender, NOISE, self.rewards,
            self.episode_seed, episode=episode,
        )

    def check(self, episode: int, record) -> Outcome:
        return _episode_outcome(self.graph, self.rewards, [record], 1)


WORKLOADS = {cls.name: cls for cls in (EvalGen200Mixture, EvalFourwaysLearned)}
