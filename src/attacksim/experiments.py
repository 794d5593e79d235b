"""Experiment harness: noise-grid sweep, attacker generalization matrix and
graph-size scaling, aggregated over seeds into plot-ready CSV tables.

Desk-scale defaults (100 episodes, 2 seeds, 50 learner iterations) keep every
experiment laptop-sized; the full scale (500/3/500) is reachable through the
same knobs. Independent cells can run in parallel; rows are merged in a
deterministic key order so output files are byte-stable for a fixed config.
"""

from __future__ import annotations

import csv
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import AttackGraph, RewardConfig, default_rewards
from .generate import GenConfig, generate
from .engine import CONTEXT_EVAL, EpisodeRecord, NoiseConfig, run_episode
from .attackers import make_attacker
from .defenders import make_defender
from . import ppo

DESK_EPISODES = 100
DESK_SEEDS = (1, 2)
DESK_ITERATIONS = 50

FULL_NOISE_VALUES = (0.0, 0.125, 0.25, 0.725, 1.0)

METRICS_COLUMNS = (
    "experiment",
    "cell_id",
    "fpr",
    "fnr",
    "graph_size",
    "train_attacker",
    "eval_attacker",
    "defender",
    "seed",
    "mean_reward",
    "flags_fraction",
    "mean_len",
    "min_len",
    "max_len",
    "train_seconds",
)


@dataclass(frozen=True)
class EvalConfig:
    graph: AttackGraph
    attacker: str
    defender: str
    noise: NoiseConfig
    rewards: RewardConfig
    episodes: int = DESK_EPISODES
    seeds: tuple[int, ...] = DESK_SEEDS
    policy: "ppo.PolicyParams | None" = None
    mode: str = "sample"

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")


@dataclass(frozen=True)
class MetricsRow:
    experiment: str
    cell_id: str
    fpr: float
    fnr: float
    graph_size: int
    train_attacker: str
    eval_attacker: str
    defender: str
    seed: int
    mean_reward: float
    flags_fraction: float
    mean_len: float
    min_len: int
    max_len: int
    train_seconds: float = 0.0


def run_episodes(
    graph: AttackGraph,
    attacker_kind: str,
    defender_kind: str,
    noise: NoiseConfig,
    rewards: RewardConfig,
    seed: int,
    episodes: int,
    policy: "ppo.PolicyParams | None" = None,
    mode: str = "sample",
    context: int = CONTEXT_EVAL,
) -> list[EpisodeRecord]:
    attacker = make_attacker(attacker_kind)
    defender = make_defender(defender_kind, params=policy, mode=mode)
    return [
        run_episode(graph, attacker, defender, noise, rewards, seed, episode=ep, context=context)
        for ep in range(episodes)
    ]


def summarize_records(records: list[EpisodeRecord]) -> dict:
    rewards = [r.cumulative_reward for r in records]
    lengths = [r.length for r in records]
    return {
        "mean_reward": float(np.mean(rewards)),
        "flags_fraction": float(np.mean([r.flags_fraction for r in records])),
        "mean_len": float(np.mean(lengths)),
        "min_len": int(min(lengths)),
        "max_len": int(max(lengths)),
    }


def evaluate(config: EvalConfig, experiment: str = "evaluate", cell_id: str = "") -> list[MetricsRow]:
    """One metrics row per seed for the configured (graph, attacker,
    defender, noise) cell."""
    rows = []
    for seed in config.seeds:
        records = run_episodes(
            config.graph,
            config.attacker,
            config.defender,
            config.noise,
            config.rewards,
            seed,
            config.episodes,
            policy=config.policy,
            mode=config.mode,
        )
        summary = summarize_records(records)
        rows.append(
            MetricsRow(
                experiment=experiment,
                cell_id=cell_id or f"fpr={config.noise.fpr}_fnr={config.noise.fnr}",
                fpr=config.noise.fpr,
                fnr=config.noise.fnr,
                graph_size=config.graph.num_attack_steps,
                train_attacker="",
                eval_attacker=config.attacker,
                defender=config.defender,
                seed=seed,
                **summary,
            )
        )
    return rows


def noise_grid(values: list[float] | tuple[float, ...]) -> list[tuple[float, float]]:
    """All (fpr, fnr) pairs with fnr <= fpr. The complementary half of the
    grid is equivalent with true/false labels swapped, so it is skipped."""
    values = list(values)
    if sorted(values) != values:
        raise ValueError("noise values must be sorted ascending")
    if any(not 0 <= v <= 1 for v in values):
        raise ValueError("noise values must lie in [0, 1]")
    return [(fpr, fnr) for fpr in values for fnr in values if fnr <= fpr]


def reward_ttest(rewards_a, rewards_b) -> float:
    """Welch two-sample t-test p-value on per-episode rewards; degenerate
    zero-variance pairs resolve by mean equality."""
    # imported here: scipy takes about a second and 60 MB to import, and
    # nothing else in the package needs it
    from scipy import stats as scipy_stats

    a = np.asarray(rewards_a, dtype=np.float64)
    b = np.asarray(rewards_b, dtype=np.float64)
    if a.std() == 0.0 and b.std() == 0.0:
        return 1.0 if a.mean() == b.mean() else 0.0
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # a zero-variance side is legitimate here (e.g. a defender that
        # always ends episodes at the same cost)
        warnings.simplefilter("ignore", RuntimeWarning)
        result = scipy_stats.ttest_ind(a, b, equal_var=False)
    p = float(result.pvalue)
    return 1.0 if np.isnan(p) else p


# ---------------------------------------------------------------------------
# experiment cells; module-level functions so ProcessPoolExecutor can
# pickle them
# ---------------------------------------------------------------------------


def _train_policy(graph, attacker_kind, noise, rewards, hp, seed):
    attacker = make_attacker(attacker_kind)
    start = time.perf_counter()
    params, _ = ppo.train(graph, attacker, noise, rewards, hp, seed)
    return params, time.perf_counter() - start


def _sweep_cell(task) -> list[MetricsRow]:
    (graph, defender, fpr, fnr, seed, episodes, hp, train_attacker, eval_attacker, timing) = task
    noise = NoiseConfig(fpr=fpr, fnr=fnr)
    rewards = default_rewards(graph)
    train_seconds = 0.0
    policy = None
    if defender == "learned":
        policy, train_seconds = _train_policy(graph, train_attacker, noise, rewards, hp, seed)
    records = run_episodes(
        graph, eval_attacker, defender, noise, rewards, seed, episodes, policy=policy
    )
    summary = summarize_records(records)
    return [
        MetricsRow(
            experiment="sweep",
            cell_id=f"fpr={fpr}_fnr={fnr}",
            fpr=fpr,
            fnr=fnr,
            graph_size=graph.num_attack_steps,
            train_attacker=train_attacker if defender == "learned" else "",
            eval_attacker=eval_attacker,
            defender=defender,
            seed=seed,
            train_seconds=round(train_seconds, 3) if timing else 0.0,
            **summary,
        )
    ]


def _matrix_cell(task) -> list[MetricsRow]:
    (graph, train_attacker, seed, episodes, hp, fpr, fnr, eval_attackers, timing) = task
    noise = NoiseConfig(fpr=fpr, fnr=fnr)
    rewards = default_rewards(graph)
    policy, train_seconds = _train_policy(graph, train_attacker, noise, rewards, hp, seed)
    rows = []
    for eval_attacker in eval_attackers:
        records = run_episodes(
            graph, eval_attacker, "learned", noise, rewards, seed, episodes, policy=policy
        )
        summary = summarize_records(records)
        rows.append(
            MetricsRow(
                experiment="attacker_matrix",
                cell_id=f"train={train_attacker}_eval={eval_attacker}",
                fpr=fpr,
                fnr=fnr,
                graph_size=graph.num_attack_steps,
                train_attacker=train_attacker,
                eval_attacker=eval_attacker,
                defender="learned",
                seed=seed,
                train_seconds=round(train_seconds, 3) if timing else 0.0,
                **summary,
            )
        )
    return rows


def _scaling_cell(task) -> list[MetricsRow]:
    (graph, size, defender, seed, episodes, hp, fpr, fnr, attacker_kind, timing) = task
    noise = NoiseConfig(fpr=fpr, fnr=fnr)
    rewards = default_rewards(graph)
    train_seconds = 0.0
    policy = None
    if defender == "learned":
        policy, train_seconds = _train_policy(graph, attacker_kind, noise, rewards, hp, seed)
    records = run_episodes(
        graph, attacker_kind, defender, noise, rewards, seed, episodes, policy=policy
    )
    summary = summarize_records(records)
    return [
        MetricsRow(
            experiment="scaling",
            cell_id=f"size={size}_defender={defender}",
            fpr=fpr,
            fnr=fnr,
            graph_size=size,
            train_attacker=attacker_kind if defender == "learned" else "",
            eval_attacker=attacker_kind,
            defender=defender,
            seed=seed,
            train_seconds=round(train_seconds, 3) if timing else 0.0,
            **summary,
        )
    ]


def _run_cells(worker, tasks, jobs: int) -> list[MetricsRow]:
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(worker, tasks))
    else:
        chunks = [worker(task) for task in tasks]
    rows = [row for chunk in chunks for row in chunk]
    return sorted(
        rows,
        key=lambda r: (r.experiment, r.cell_id, r.defender, r.eval_attacker, r.seed),
    )


def run_sweep(
    graph: AttackGraph,
    defenders: list[str],
    values=FULL_NOISE_VALUES,
    episodes: int = DESK_EPISODES,
    seeds: tuple[int, ...] = DESK_SEEDS,
    hp: "ppo.HyperParams | None" = None,
    attacker: str = "depth_first",
    jobs: int = 1,
    timing: bool = False,
) -> list[MetricsRow]:
    """Noise-grid sweep: heuristic defenders are evaluated directly on each
    grid cell; the learned defender trains one policy per (cell, seed)
    against the depth-first attacker before evaluation."""
    hp = hp or ppo.HyperParams(iterations=DESK_ITERATIONS)
    cells = noise_grid(values)
    tasks = [
        (graph, defender, fpr, fnr, seed, episodes, hp, attacker, attacker, timing)
        for defender in defenders
        for (fpr, fnr) in cells
        for seed in seeds
    ]
    return _run_cells(_sweep_cell, tasks, jobs)


def attacker_matrix(
    graph: AttackGraph,
    hp: "ppo.HyperParams | None" = None,
    noise: tuple[float, float] = (0.1, 0.1),
    episodes: int = DESK_EPISODES,
    seeds: tuple[int, ...] = DESK_SEEDS,
    jobs: int = 1,
    timing: bool = False,
) -> list[MetricsRow]:
    """Generalization matrix: one learned policy per training attacker,
    evaluated against every attacker kind (5x5 cells per seed)."""
    hp = hp or ppo.HyperParams(iterations=DESK_ITERATIONS)
    kinds = ("random", "breadth_first", "depth_first", "pathfinder", "mixture")
    fpr, fnr = noise
    tasks = [
        (graph, train_attacker, seed, episodes, hp, fpr, fnr, kinds, timing)
        for train_attacker in kinds
        for seed in seeds
    ]
    return _run_cells(_matrix_cell, tasks, jobs)


def scaling_study(
    sizes: tuple[int, ...] = (20, 40, 60, 80),
    hp: "ppo.HyperParams | None" = None,
    noise: tuple[float, float] = (0.1, 0.1),
    episodes: int = DESK_EPISODES,
    seeds: tuple[int, ...] = DESK_SEEDS,
    attacker: str = "depth_first",
    graph_seed: int = 1,
    jobs: int = 1,
    timing: bool = False,
) -> list[MetricsRow]:
    """Graph-size scaling: generate one graph per size, train the learned
    defender on it and evaluate learned + tripwire."""
    hp = hp or ppo.HyperParams(iterations=DESK_ITERATIONS)
    fpr, fnr = noise
    graphs = {size: generate(GenConfig(num_attack_steps=size, seed=graph_seed)) for size in sizes}
    tasks = [
        (graphs[size], size, defender, seed, episodes, hp, fpr, fnr, attacker, timing)
        for size in sizes
        for defender in ("learned", "tripwire")
        for seed in seeds
    ]
    return _run_cells(_scaling_cell, tasks, jobs)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.experiment,
                    row.cell_id,
                    repr(row.fpr),
                    repr(row.fnr),
                    row.graph_size,
                    row.train_attacker,
                    row.eval_attacker,
                    row.defender,
                    row.seed,
                    repr(row.mean_reward),
                    repr(row.flags_fraction),
                    repr(row.mean_len),
                    row.min_len,
                    row.max_len,
                    repr(row.train_seconds),
                ]
            )


def aggregate_rows(rows: list[MetricsRow]) -> list[dict]:
    """Cross-seed aggregation: mean of the per-seed means plus their sample
    standard deviation, one summary entry per cell."""
    groups: dict[tuple, list[MetricsRow]] = {}
    for row in rows:
        key = (row.experiment, row.cell_id, row.defender, row.eval_attacker)
        groups.setdefault(key, []).append(row)
    summaries = []
    for key in sorted(groups):
        cell_rows = groups[key]
        rewards = np.array([r.mean_reward for r in cell_rows])
        flags = np.array([r.flags_fraction for r in cell_rows])
        summaries.append(
            {
                "experiment": key[0],
                "cell_id": key[1],
                "defender": key[2],
                "eval_attacker": key[3],
                "seeds": len(cell_rows),
                "mean_reward_mean": float(rewards.mean()),
                "mean_reward_std": float(rewards.std(ddof=1)) if len(cell_rows) > 1 else 0.0,
                "flags_fraction_mean": float(flags.mean()),
                "flags_fraction_std": float(flags.std(ddof=1)) if len(cell_rows) > 1 else 0.0,
                "mean_len_mean": float(np.mean([r.mean_len for r in cell_rows])),
            }
        )
    return summaries


def write_summary_csv(rows: list[MetricsRow], path) -> None:
    summaries = aggregate_rows(rows)
    columns = (
        "experiment",
        "cell_id",
        "defender",
        "eval_attacker",
        "seeds",
        "mean_reward_mean",
        "mean_reward_std",
        "flags_fraction_mean",
        "flags_fraction_std",
        "mean_len_mean",
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for entry in summaries:
            writer.writerow(
                [
                    entry[c] if not isinstance(entry[c], float) else repr(entry[c])
                    for c in columns
                ]
            )
