"""Experiment harness: noise-grid sweep, attacker generalization matrix and
graph-size scaling, aggregated over seeds into plot-ready CSV tables.

All three experiments build tasks for one cell function, `_cell`: it trains
a policy once when the defender is learned, then evaluates against each
attacker the task lists, one metrics row per attacker. The `sweep`,
`attacker-matrix` and `scaling` CLI subcommands are the entry points.

Desk-scale defaults (100 episodes, 2 seeds, 50 learner iterations) keep every
experiment laptop-sized; the full scale is reachable through the same knobs
(`--episodes 500 --seeds 1,2,3 --iterations 500`). `episode_records`
yields each episode's record as it ends, so `evaluate` and `simulate` hold
one episode at a time. Independent cells can run in parallel, at most one
worker per cell; rows are merged in a deterministic key order so output
files are byte-stable for a fixed config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple

import numpy as np

from .graph import AttackGraph, RewardConfig, default_rewards
from .generate import GenConfig, generate
from .engine import EpisodeRecord, NoiseConfig, run_episode, write_csv
from .attackers import ATTACKER_KINDS, make_attacker
from .defenders import DEFENDER_KINDS, make_defender
from . import ppo

DESK_EPISODES = 100
DESK_SEEDS = (1, 2)
DESK_ITERATIONS = 50

FULL_NOISE_VALUES = (0.0, 0.125, 0.25, 0.725, 1.0)


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
    truncated: int = 0  # episodes that hit the step cap
    # wall-clock, so left out of equality and of the metrics CSV
    train_seconds: float = field(default=0.0, compare=False)


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow) if f.compare)


def episode_records(
    graph: AttackGraph,
    attacker_kind: str,
    defender_kind: str,
    noise: NoiseConfig,
    rewards: RewardConfig,
    seed: int,
    episodes: int,
    policy: "ppo.PolicyParams | None" = None,
    mode: str = "sample",
) -> Iterator[EpisodeRecord]:
    """Every episode's full record, trajectory rows included, yielded as the
    episode ends. The attacker and the defender are built once, from their
    kinds, and reset by each episode."""
    attacker = make_attacker(attacker_kind)
    defender = make_defender(defender_kind, params=policy, mode=mode)
    for ep in range(episodes):
        yield run_episode(graph, attacker, defender, noise, rewards, seed, episode=ep)


def run_episodes(*args, **kwargs) -> list[EpisodeRecord]:
    """`episode_records` with the same arguments, as a list, for callers
    that read every record."""
    return list(episode_records(*args, **kwargs))


def finite_mean(values) -> float:
    """`np.mean` of the values, bit for bit, wherever that is finite. Where
    it overflows while every value is finite, the mean of the values scaled
    down by a power of two (so no partial sum overflows), scaled back up
    and kept within the values' range, where the true mean lies."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
        if not np.isfinite(mean) and np.isfinite(values).all():
            k = len(values).bit_length()
            mean = np.clip(np.ldexp(np.ldexp(values, -k).mean(), k), values.min(), values.max())
    return float(mean)


def finite_std(values) -> float:
    """The sample standard deviation (ddof 1) as `np.std` gives it wherever
    that is finite. Where it overflows while every value is finite, it is
    taken of the values scaled down by a power of two under which no
    square overflows, and scaled back up: inf only if the true value is."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        std = values.std(ddof=1)
        if not np.isfinite(std) and np.isfinite(values).all():
            k = 512 + len(values).bit_length()
            std = np.ldexp(np.ldexp(values, -k).std(ddof=1), k)
    return float(std)


def _check_episodes(episodes: int) -> None:
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")


def evaluate(
    graph: AttackGraph, attacker: str, defender: str, noise: NoiseConfig, rewards: RewardConfig,
    episodes: int = DESK_EPISODES, seeds: tuple[int, ...] = DESK_SEEDS,
    policy: "ppo.PolicyParams | None" = None, mode: str = "sample",
    *, experiment: str = "evaluate", cell_id: str = "", train_attacker: str = "", train_seconds: float = 0.0,
) -> list[MetricsRow]:
    """One metrics row per seed for the (graph, attacker, defender, noise)
    cell; the keyword arguments only label the rows."""
    _check_episodes(episodes)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    rows = []
    for seed in seeds:
        records = episode_records(graph, attacker, defender, noise, rewards, seed, episodes, policy, mode)
        outcomes = [(r.cumulative_reward, r.flags_fraction, r.length, r.truncated) for r in records]
        episode_rewards, flags, lengths, truncated = zip(*outcomes)
        rows.append(
            MetricsRow(
                experiment=experiment,
                cell_id=cell_id or f"fpr={noise.fpr}_fnr={noise.fnr}",
                fpr=noise.fpr,
                fnr=noise.fnr,
                graph_size=graph.num_attack_steps,
                train_attacker=train_attacker,
                eval_attacker=attacker,
                defender=defender,
                seed=seed,
                mean_reward=finite_mean(episode_rewards),
                flags_fraction=float(np.mean(flags)),
                mean_len=float(np.mean(lengths)),
                min_len=int(min(lengths)),
                max_len=int(max(lengths)),
                truncated=sum(truncated),
                train_seconds=train_seconds,
            )
        )
    return rows


def noise_grid(values: list[float] | tuple[float, ...]) -> list[tuple[float, float]]:
    """All (fpr, fnr) pairs with fnr <= fpr. The complementary half of the
    grid is equivalent with true/false labels swapped, so it is skipped."""
    values = list(values)
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError("noise values must be strictly ascending")
    if any(not 0 <= v <= 1 for v in values):
        raise ValueError("noise values must lie in [0, 1]")
    return [(fpr, fnr) for fpr in values for fnr in values if fnr <= fpr]


# ---------------------------------------------------------------------------
# the experiment cell: a module-level function and task so
# ProcessPoolExecutor can pickle them
# ---------------------------------------------------------------------------


class _Task(NamedTuple):
    """Train once if the defender is learned, then evaluate against each of
    `eval_attackers`. `cell_id` may hold an `{eval_attacker}` field."""

    experiment: str
    cell_id: str
    graph: AttackGraph
    defender: str
    noise: NoiseConfig
    seed: int
    episodes: int
    hp: "ppo.HyperParams"
    train_attacker: str
    eval_attackers: tuple[str, ...]


def _cell(task: _Task) -> list[MetricsRow]:
    rewards = default_rewards(task.graph)
    policy, train_attacker, train_seconds = None, "", 0.0
    if task.defender == "learned":
        start = time.perf_counter()
        policy, _ = ppo.train(
            task.graph, make_attacker(task.train_attacker), task.noise, rewards, task.hp, task.seed
        )
        train_attacker = task.train_attacker
        train_seconds = round(time.perf_counter() - start, 3)
    rows = []
    for eval_attacker in task.eval_attackers:
        rows += evaluate(
            task.graph, eval_attacker, task.defender, task.noise, rewards,
            task.episodes, (task.seed,), policy,
            experiment=task.experiment, cell_id=task.cell_id.format(eval_attacker=eval_attacker),
            train_attacker=train_attacker, train_seconds=train_seconds,
        )
    return rows


def _run_cells(tasks: list[_Task], jobs: int) -> list[MetricsRow]:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for task in tasks:
        _check_episodes(task.episodes)  # before any cell trains
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: it loads multiprocessing, ~20 ms only a parallel run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_cell, tasks))
    else:
        chunks = [_cell(task) for task in tasks]
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
) -> list[MetricsRow]:
    """Noise-grid sweep: heuristic defenders are evaluated directly on each
    grid cell; the learned defender trains one policy per (cell, seed)
    against the depth-first attacker before evaluation."""
    for defender in defenders:
        if defender not in DEFENDER_KINDS:
            raise ValueError(f"unknown defender {defender!r}; expected one of {DEFENDER_KINDS}")
    hp = hp or ppo.HyperParams(iterations=DESK_ITERATIONS)
    tasks = [
        _Task(
            "sweep", f"fpr={fpr}_fnr={fnr}", graph, defender, NoiseConfig(fpr=fpr, fnr=fnr),
            seed, episodes, hp, attacker, (attacker,),
        )
        for defender in defenders
        for (fpr, fnr) in noise_grid(values)
        for seed in seeds
    ]
    return _run_cells(tasks, jobs)


def attacker_matrix(
    graph: AttackGraph,
    hp: "ppo.HyperParams | None" = None,
    noise: tuple[float, float] = (0.1, 0.1),
    episodes: int = DESK_EPISODES,
    seeds: tuple[int, ...] = DESK_SEEDS,
    jobs: int = 1,
) -> list[MetricsRow]:
    """Generalization matrix: one learned policy per training attacker,
    evaluated against every attacker kind (5x5 cells per seed)."""
    hp = hp or ppo.HyperParams(iterations=DESK_ITERATIONS)
    tasks = [
        _Task(
            "attacker_matrix", f"train={train_attacker}_eval={{eval_attacker}}", graph,
            "learned", NoiseConfig(*noise), seed, episodes, hp, train_attacker, ATTACKER_KINDS,
        )
        for train_attacker in ATTACKER_KINDS
        for seed in seeds
    ]
    return _run_cells(tasks, jobs)


def scaling_study(
    sizes: tuple[int, ...] = (20, 40, 60, 80),
    hp: "ppo.HyperParams | None" = None,
    noise: tuple[float, float] = (0.1, 0.1),
    episodes: int = DESK_EPISODES,
    seeds: tuple[int, ...] = DESK_SEEDS,
    attacker: str = "depth_first",
    graph_seed: int = 1,
    jobs: int = 1,
) -> list[MetricsRow]:
    """Graph-size scaling: generate one graph per size, train the learned
    defender on it and evaluate learned + tripwire."""
    hp = hp or ppo.HyperParams(iterations=DESK_ITERATIONS)
    graphs = {size: generate(GenConfig(num_attack_steps=size, seed=graph_seed)) for size in sizes}
    tasks = [
        _Task(
            "scaling", f"size={size}_defender={defender}", graphs[size], defender,
            NoiseConfig(*noise), seed, episodes, hp, attacker, (attacker,),
        )
        for size in sizes
        for defender in ("learned", "tripwire")
        for seed in seeds
    ]
    return _run_cells(tasks, jobs)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    write_csv(path, METRICS_COLUMNS, ([getattr(row, c) for c in METRICS_COLUMNS] for row in rows))


SUMMARY_COLUMNS = (
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
    "truncated",
)


def aggregate_rows(rows: list[MetricsRow]) -> list[dict]:
    """Cross-seed aggregation, one summary entry per cell, keyed by
    `SUMMARY_COLUMNS`: mean of the per-seed means plus their sample
    standard deviation, and the total of truncated episodes."""
    groups: dict[tuple, list[MetricsRow]] = {}
    for row in rows:
        key = (row.experiment, row.cell_id, row.defender, row.eval_attacker)
        groups.setdefault(key, []).append(row)
    summaries = []
    for key in sorted(groups):
        cell_rows = groups[key]
        rewards = np.array([r.mean_reward for r in cell_rows])
        flags = np.array([r.flags_fraction for r in cell_rows])
        spread = len(cell_rows) > 1
        values = (
            *key,
            len(cell_rows),
            finite_mean(rewards),
            finite_std(rewards) if spread else 0.0,
            float(flags.mean()),
            float(flags.std(ddof=1)) if spread else 0.0,
            float(np.mean([r.mean_len for r in cell_rows])),
            sum(r.truncated for r in cell_rows),
        )
        summaries.append(dict(zip(SUMMARY_COLUMNS, values, strict=True)))
    return summaries


def write_summary_csv(rows: list[MetricsRow], path) -> None:
    write_csv(path, SUMMARY_COLUMNS, (entry.values() for entry in aggregate_rows(rows)))
