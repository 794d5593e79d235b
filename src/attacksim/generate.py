"""Procedural attack-graph generator for the graph-size scaling experiment.

Builds connected DAGs by semi-random attachment: each new step attaches to
one uniformly random prior step, with an optional second parent. One flag
per 20 attack steps is placed at the deepest nodes, and every flag gets its
own guarding defense step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import AttackGraph, AttackStep, DefenseStep

FLAG_INTERVAL = 20  # one flag (and one defense) per 20 attack steps


class GenConfigError(ValueError):
    """A GenConfig field out of range; `field` names it, so a caller can
    report the input that set it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class GenConfig:
    num_attack_steps: int
    seed: int
    ttc_mean_range: tuple[float, float] = (1.0, 10.0)
    and_fraction: float = 0.25
    extra_parent_prob: float = 0.3

    def __post_init__(self):
        n = self.num_attack_steps
        if n < FLAG_INTERVAL or n % FLAG_INTERVAL != 0:
            raise GenConfigError(
                "num_attack_steps",
                f"num_attack_steps must be a positive multiple of {FLAG_INTERVAL}, got {n}",
            )
        if not 0 <= self.seed < 2**64:
            raise GenConfigError("seed", f"seed must be a 64-bit unsigned integer, got {self.seed}")
        lo, hi = self.ttc_mean_range
        if not (0 <= lo <= hi < math.inf):
            raise GenConfigError("ttc_mean_range", f"invalid ttc_mean_range {self.ttc_mean_range}")
        for name in ("and_fraction", "extra_parent_prob"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise GenConfigError(name, f"{name} must be a probability, got {p}")


def generate(config: GenConfig) -> AttackGraph:
    """Generate a valid attack graph; identical config gives an identical
    graph (byte-identical saved document)."""
    rng = np.random.default_rng(config.seed)
    n = config.num_attack_steps
    lo, hi = config.ttc_mean_range

    ids = [f"a{k:03d}" for k in range(n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    logic = ["or"] * n
    depth = [0] * n
    ttc = [0.0] * n

    for k in range(1, n):
        first = int(rng.integers(k))
        parent_set = [first]
        if k >= 2 and rng.random() < config.extra_parent_prob:
            second = int(rng.integers(k - 1))
            if second >= first:
                second += 1
            parent_set.append(second)
        if len(parent_set) >= 2 and rng.random() < config.and_fraction:
            logic[k] = "and"
        parents[k] = sorted(parent_set)
        depth[k] = 1 + max(depth[p] for p in parent_set)
        ttc[k] = round(float(rng.uniform(lo, hi)), 1)

    # deepest nodes become flags; ties broken by id so the choice is stable
    num_flags = n // FLAG_INTERVAL
    flag_order = sorted(range(1, n), key=lambda k: (-depth[k], ids[k]))
    flags = set(flag_order[:num_flags])

    attack_steps = tuple(
        AttackStep(
            id=ids[k],
            logic=logic[k],
            ttc_mean=ttc[k],
            is_flag=k in flags,
            is_entry=k == 0,
        )
        for k in range(n)
    )

    flag_indices = sorted(flags)
    defense_steps = tuple(DefenseStep(id=f"d{i:03d}") for i in range(num_flags))
    edges = {(ids[p], ids[k]) for k in range(n) for p in parents[k]}
    edges.update(
        (f"d{i:03d}", ids[k]) for i, k in enumerate(flag_indices)
    )

    graph = AttackGraph(
        attack_steps=attack_steps, defense_steps=defense_steps, edges=frozenset(edges)
    )
    graph.check()
    return graph
