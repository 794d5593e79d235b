"""Correctness gate and output digests for the benchmark.

Every episode the benchmark runs is checked here; a failed check counts as
a failed operation, exactly like an exception. Digests cover only
deterministic outputs (never timings), so two commits, or a traced and an
untraced run, can be compared byte for byte.
"""

from __future__ import annotations

import math

from attacksim import engine


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def episode_problems(graph, rewards, record) -> list[str]:
    """Invariant violations of one EpisodeRecord; empty when it is sound."""
    problems = []
    steps = record.steps
    if record.length != len(steps) or not steps:
        return [f"length {record.length} does not match {len(steps)} step rows"]
    if [row.t for row in steps] != list(range(len(steps))):
        problems.append("step indices are not 0..length-1")

    total = 0.0
    for row in steps:
        total += row.reward
    if not _close(total, record.cumulative_reward):
        problems.append(f"rewards sum to {total!r}, record says {record.cumulative_reward!r}")
    if record.cumulative_reward > 1e-9:
        problems.append(f"positive cumulative reward {record.cumulative_reward!r}")
    if record.length >= graph.num_defense_steps:
        bound = engine.min_reward_bound(graph, rewards, record.length)
        if record.cumulative_reward < bound - 1e-9:
            problems.append(f"cumulative reward {record.cumulative_reward!r} below bound {bound!r}")

    flag_ids = graph.flag_ids
    if not set(record.flags_captured) <= set(flag_ids):
        problems.append(f"captured non-flags {sorted(set(record.flags_captured) - set(flag_ids))}")
    expected = len(record.flags_captured) / len(flag_ids) if flag_ids else 0.0
    if record.flags_fraction != expected:
        problems.append(f"flags_fraction {record.flags_fraction!r} != {expected!r}")

    enabled = [row.defender_action for row in steps if row.defender_action is not None]
    if len(enabled) != len(set(enabled)):
        problems.append("a defense was enabled more than once")
    if not set(enabled) <= set(graph.defense_ids):
        problems.append("unknown defense enabled")

    if steps[-1].done == record.truncated:
        problems.append(f"last step done={steps[-1].done} with truncated={record.truncated}")
    if any(row.done for row in steps[:-1]):
        problems.append("a step before the last is done")
    cap = engine.default_step_cap(graph)
    if record.length > cap:
        problems.append(f"length {record.length} exceeds the step cap {cap}")
    return problems


def episode_digest(record) -> bytes:
    """Canonical bytes of an EpisodeRecord's deterministic content."""
    parts = [
        f"{record.seed}|{record.episode}|{record.length}|{record.truncated}",
        repr(record.cumulative_reward),
        ",".join(sorted(record.flags_captured)),
        repr(record.flags_fraction),
        ",".join(f"{k}={v!r}" for k, v in sorted(record.sampled_ttc.items())),
    ]
    parts.extend(
        f"{row.t}|{row.attacker_action}|{row.defender_action}|{row.reward!r}|{row.done}|{row.observation}"
        for row in record.steps
    )
    return "\n".join(parts).encode()
