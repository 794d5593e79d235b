"""Attack-defend capture-the-flag episode engine.

Discrete time-steps; attacker and defender act within the same step, with
the defender's action resolving first so a freshly enabled defense blocks
work on its children immediately. Per-step time-to-compromise budgets are
sampled once per episode from exponential distributions; the defender sees
the attack state only through a noisy IDS observation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import AttackGraph, RewardConfig, attack_surface, workable

# stream contexts keep evaluation, training and ad-hoc rollouts on disjoint
# RNG streams even when they share a master seed
CONTEXT_EVAL = 0
CONTEXT_TRAIN = 1


@dataclass(frozen=True)
class NoiseConfig:
    """IDS error rates. fpr = P(bit reads 1 | step not compromised),
    fnr = P(bit reads 0 | step compromised)."""

    fpr: float
    fnr: float

    def __post_init__(self):
        if not 0 <= self.fpr <= 1:
            raise ValueError(f"fpr must be in [0, 1], got {self.fpr}")
        if not 0 <= self.fnr <= 1:
            raise ValueError(f"fnr must be in [0, 1], got {self.fnr}")


@dataclass(frozen=True, slots=True, eq=False)
class Observation:
    """Defender's view: noisy attack-step bits plus exact defense-step bits,
    in graph index order. A defense bit of 0 is a legal enable. Two
    observations are equal when their bits are."""

    attack_bits: np.ndarray
    defense_bits: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, Observation):
            return NotImplemented
        return np.array_equal(self.attack_bits, other.attack_bits) and np.array_equal(
            self.defense_bits, other.defense_bits
        )

    def vector(self) -> np.ndarray:
        return np.concatenate((self.attack_bits, self.defense_bits), dtype=np.float64)

    def bitstring(self) -> str:
        bits = np.concatenate([self.attack_bits, self.defense_bits]).astype(np.uint8, copy=False)
        return (bits + ord("0")).tobytes().decode("ascii")


@dataclass
class SimState:
    """Mutable per-episode state, owned by exactly one episode runner.

    `compromised` and `enabled` are the truth. `surface` (their attack
    surface), `compromised_bits` and `enabled_bits` (their 0/1 membership
    vectors in graph index order) and `thresholds` (per attack step, the
    IDS error rate its truth bit selects: fnr if compromised, else fpr)
    mirror them (the thresholds also mirror `noise`). `enabled_bits` is
    read-only and shared by every observation until the next enable, which
    replaces it. `sync_derived` builds the mirrors and `step()` keeps them
    current; code that assigns or edits `compromised`, `enabled` or `noise`
    directly must call `sync_derived(state)` before the next `observe` or
    `step`."""

    graph: AttackGraph
    noise: NoiseConfig
    rewards: RewardConfig
    t: int
    remaining_ttc: dict[str, float]
    compromised: set[str]
    enabled: set[str]
    captured_flags: set[str]
    rng: np.random.Generator
    surface: set[str] = field(init=False)
    compromised_bits: np.ndarray = field(init=False)
    enabled_bits: np.ndarray = field(init=False)
    thresholds: np.ndarray = field(init=False)


@dataclass(slots=True)
class StepRow:
    """One time-step of a trajectory: the actions taken at step t, the
    defender's reward for it, whether the episode ended, and the
    observation that followed."""

    t: int
    attacker_action: str | None
    defender_action: str | None
    reward: float
    done: bool
    obs: Observation

    @property
    def observation(self) -> str:
        """`obs` as its trajectory bit-string, formatted on each read."""
        return self.obs.bitstring()


@dataclass
class EpisodeRecord:
    seed: int
    episode: int
    steps: list[StepRow]
    cumulative_reward: float
    flags_captured: frozenset[str]
    flags_fraction: float
    length: int
    truncated: bool
    sampled_ttc: dict[str, float] = field(default_factory=dict)


TRAJECTORY_COLUMNS = ("t", "attacker_action", "defender_action", "reward", "done", "observation")


def episode_streams(
    seed: int, episode: int, context: int = CONTEXT_EVAL
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Independent (environment, attacker, defender) generators for one
    episode, derived from (seed, context, episode index) so parallel and
    serial execution produce identical per-episode results."""
    root = np.random.SeedSequence((int(seed), int(context), int(episode)))
    env_ss, attacker_ss, defender_ss = root.spawn(3)
    return (
        np.random.default_rng(env_ss),
        np.random.default_rng(attacker_ss),
        np.random.default_rng(defender_ss),
    )


def sample_ttc(graph: AttackGraph, rng: np.random.Generator) -> dict[str, float]:
    """Per-step time-to-compromise draws: exponential with the step's mean,
    except steps with mean 0 which always sample exactly 0."""
    means = np.array([s.ttc_mean for s in graph.attack_steps], dtype=np.float64)
    draws = rng.exponential(scale=np.where(means > 0, means, 1.0))
    draws = np.where(means > 0, draws, 0.0)
    return {s.id: float(draws[i]) for i, s in enumerate(graph.attack_steps)}


def init_episode(
    graph: AttackGraph,
    noise: NoiseConfig,
    rewards: RewardConfig,
    seed: int | np.random.Generator,
    episode: int = 0,
    context: int = CONTEXT_EVAL,
) -> SimState:
    """Fresh episode state: only the entry step compromised, no defenses
    enabled, TTCs sampled. `seed` may be a master seed (the environment
    stream is derived from it) or an already-derived Generator."""
    violations = graph.violations()
    if violations:
        raise ValueError(f"invalid graph: {list(violations)}")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = episode_streams(seed, episode, context)[0]
    state = SimState(
        graph=graph,
        noise=noise,
        rewards=rewards,
        t=0,
        remaining_ttc=sample_ttc(graph, rng),
        compromised={graph.entry_id},
        enabled=set(),
        captured_flags=set(),
        rng=rng,
    )
    sync_derived(state)
    return state


def sync_derived(state: SimState) -> None:
    """Rebuild every field mirrored from `state.compromised`,
    `state.enabled` and `state.noise` (the surface, both bit vectors and
    the IDS thresholds) with full scans. Raises ValueError on ids the
    graph does not know."""
    graph, noise = state.graph, state.noise
    state.surface = attack_surface(graph, state.compromised, state.enabled)
    state.compromised_bits = np.fromiter(
        (sid in state.compromised for sid in graph.attack_ids),
        dtype=np.uint8,
        count=graph.num_attack_steps,
    )
    state.enabled_bits = np.fromiter(
        (did in state.enabled for did in graph.defense_ids),
        dtype=np.uint8,
        count=graph.num_defense_steps,
    )
    state.enabled_bits.flags.writeable = False
    state.thresholds = np.where(state.compromised_bits, noise.fnr, noise.fpr).astype(np.float64)


def observe(state: SimState) -> Observation:
    """Noisy attack bits and exact defense bits; fresh noise every call.
    The defense bits are `state.enabled_bits` itself (read-only).

    One uniform draw u per attack step: a compromised step reads 1 unless
    u < fnr, an uncompromised one reads 1 when u < fpr. Both are
    `(u < threshold) ^ truth`."""
    truth = state.compromised_bits
    u = state.rng.random(truth.size)
    return Observation(
        attack_bits=(u < state.thresholds) ^ truth,
        defense_bits=state.enabled_bits,
    )


def reward_of(
    state: SimState, flags_captured_now: set[str] | frozenset[str], rewards: RewardConfig
) -> float:
    """Defender reward for one time-step: upkeep for every enabled defense
    plus a one-time penalty for each flag captured this step."""
    return -(
        len(state.enabled) * rewards.defense_cost
        + len(flags_captured_now) * rewards.flag_cost
    )


def _recheck(state: SimState, step_ids) -> None:
    """Re-apply the surface rule to `step_ids` after one of their parents
    changed."""
    graph, surface = state.graph, state.surface
    for sid in step_ids:
        if workable(graph, sid, state.compromised, state.enabled):
            surface.add(sid)
        else:
            surface.discard(sid)


def step(
    state: SimState,
    attacker_action: str | None,
    defender_action: str | None,
) -> StepRow:
    """Advance one time-step and return its trajectory row.

    The defender's enable resolves before the attacker's work, so a step
    blocked this very step cannot be compromised. The attacker's action must
    come from `state.surface` as it stood when actions were chosen; the
    engine enforces both masks and keeps `state.surface` current in
    O(children of the changed steps), the compromised bits and thresholds
    with one index write each per change, and the read-only enabled bits
    by a fresh copy per enable, so earlier observations keep theirs.
    """
    graph = state.graph
    surface = state.surface

    if attacker_action is None:
        if surface:
            raise ValueError("attacker must act while the attack surface is non-empty")
    elif attacker_action not in surface:
        raise ValueError(f"attacker action {attacker_action!r} is not on the attack surface")
    if defender_action is not None:
        if defender_action not in graph.defense_index:
            raise ValueError(f"unknown defense step {defender_action!r}")
        if defender_action in state.enabled:
            raise ValueError(f"defense step {defender_action!r} is already enabled")

    # 1) defense enables; its children leave the surface and, if compromised,
    #    are no longer considered compromised (the flag penalty is not refunded)
    if defender_action is not None:
        state.enabled.add(defender_action)
        enabled_bits = state.enabled_bits.copy()
        enabled_bits[graph.defense_index[defender_action]] = 1
        enabled_bits.flags.writeable = False
        state.enabled_bits = enabled_bits
        for child in graph.children(defender_action):
            surface.discard(child)
            if child in state.compromised:
                state.compromised.discard(child)
                i = graph.attack_index[child]
                state.compromised_bits[i] = 0
                state.thresholds[i] = state.noise.fpr
                _recheck(state, graph.children(child))

    # 2) attacker works its chosen step unless the defender's move just
    #    removed it from the surface
    flags_now: set[str] = set()
    if attacker_action is not None and attacker_action in surface:
        state.remaining_ttc[attacker_action] -= 1.0
        if state.remaining_ttc[attacker_action] <= 0.0:
            state.compromised.add(attacker_action)
            i = graph.attack_index[attacker_action]
            state.compromised_bits[i] = 1
            state.thresholds[i] = state.noise.fnr
            surface.discard(attacker_action)
            _recheck(state, graph.children(attacker_action))
            if (
                graph.step(attacker_action).is_flag
                and attacker_action not in state.captured_flags
            ):
                state.captured_flags.add(attacker_action)
                flags_now.add(attacker_action)

    # 3) reward, 4) next observation, 5) termination
    row = StepRow(
        t=state.t,
        attacker_action=attacker_action,
        defender_action=defender_action,
        reward=reward_of(state, flags_now, state.rewards),
        done=not surface,
        obs=observe(state),
    )
    state.t += 1
    return row


def min_reward_bound(graph: AttackGraph, rewards: RewardConfig, episode_len: int) -> float:
    """Lower bound on the cumulative episode reward: the defender enables one
    defense per step from the start and every flag is still captured.
    Requires episode_len >= |D| (one enable per step)."""
    num_defenses = graph.num_defense_steps
    if episode_len < num_defenses:
        raise ValueError(
            f"episode_len must be >= number of defenses ({num_defenses}), got {episode_len}"
        )
    ramp = num_defenses * (num_defenses - 1) // 2
    plateau = num_defenses * (episode_len - (num_defenses - 1))
    return -rewards.defense_cost * (ramp + plateau) - rewards.flag_cost * len(graph.flag_ids)


def default_step_cap(graph: AttackGraph) -> int:
    """Hard episode cap guarding against pathological configs; generously
    above the worst-case termination bound for sane graphs."""
    return int(math.ceil(10 * (graph.num_attack_steps + graph.total_ttc())))


def run_episode(
    graph: AttackGraph,
    attacker,
    defender,
    noise: NoiseConfig,
    rewards: RewardConfig,
    seed: int,
    episode: int = 0,
    context: int = CONTEXT_EVAL,
    max_steps: int | None = None,
) -> EpisodeRecord:
    """Run one full episode and return its trajectory and totals.

    Deterministic for a fixed (seed, episode, context) and deterministic
    policies: the environment, attacker and defender draw from independent
    derived streams.
    """
    env_rng, attacker_rng, defender_rng = episode_streams(seed, episode, context)
    state = init_episode(graph, noise, rewards, env_rng)
    attacker.reset(graph, state, attacker_rng)
    defender.reset(graph, defender_rng)
    cap = default_step_cap(graph) if max_steps is None else max_steps

    obs = observe(state)
    rows: list[StepRow] = []
    cumulative = 0.0
    truncated = False
    sampled = dict(state.remaining_ttc)
    while True:
        row = step(state, attacker.select(state), defender.select(obs))
        rows.append(row)
        cumulative += row.reward
        obs = row.obs
        if row.done:
            break
        if len(rows) >= cap:
            truncated = True
            break

    num_flags = len(graph.flag_ids)
    return EpisodeRecord(
        seed=seed,
        episode=episode,
        steps=rows,
        cumulative_reward=cumulative,
        flags_captured=frozenset(state.captured_flags),
        flags_fraction=len(state.captured_flags) / num_flags if num_flags else 0.0,
        length=len(rows),
        truncated=truncated,
        sampled_ttc=sampled,
    )


def write_trajectory(record: EpisodeRecord, path) -> None:
    """One CSV row per time-step: t, actions, reward, done and the
    observation bit-string (attack bits then defense bits)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for row in record.steps:
            writer.writerow(
                [
                    row.t,
                    row.attacker_action or "",
                    row.defender_action or "",
                    repr(row.reward),
                    int(row.done),
                    row.observation,
                ]
            )
