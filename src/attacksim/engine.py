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
from typing import NamedTuple

import numpy as np

from .graph import AttackGraph, RewardConfig, attack_surface, step_cap_bound, workable

# stream contexts keep evaluation and training rollouts, the policy's
# initial weights and the minibatch shuffle on disjoint RNG streams even
# when they share a master seed
CONTEXT_EVAL = 0
CONTEXT_TRAIN = 1
CONTEXT_INIT = 2
CONTEXT_SHUFFLE = 3

# observe() draws its IDS uniforms this many observations at a time; PCG64
# yields the same doubles in one (rows, |A|) draw as in rows draws of |A|
# kept: gen200 env_steps_per_s reads x0.60 without the block, x0.75 without only its column rewrite
NOISE_ROWS = 16


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


class Observation(NamedTuple):
    """Defender's view: noisy attack-step bits plus exact defense-step bits,
    in graph index order. A defense bit of 0 is a legal enable. Two
    observations are equal when their bits are; like their arrays, they
    are unhashable."""

    attack_bits: np.ndarray
    defense_bits: np.ndarray

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, Observation):
            return NotImplemented
        return np.array_equal(self.attack_bits, other.attack_bits) and np.array_equal(
            self.defense_bits, other.defense_bits
        )

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

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
    vectors in graph index order) mirror them. `enabled_bits` is read-only
    and shared by every observation until the next enable, which replaces
    it. `surface_version` counts the changes the surface may have had:
    each enable, each compromise and each `sync_derived` adds one, and
    agents rebuild what they derive from the surface only when it moved
    (their `reset` forgets it, as it starts again in each episode).
    `init_episode` copies the mirrors from the graph's entry snapshot and
    `step()` keeps them current; code that assigns or edits `compromised`,
    `enabled` or `noise` directly must call `sync_derived(state)`, the
    full-scan rebuild, before the next agent `select`, `observe` or `step`.

    `noise_block` holds the IDS uniforms of the next observations, drawn
    from `rng` `NOISE_ROWS` rows at a time; `noise_row` is the next unused
    row (`NOISE_ROWS` when the block is used up, as in a new state). Only
    `observe` advances them, so `sync_derived` neither skips nor repeats a
    draw. For those rows, `readings_block[t]` holds what each attack step
    reads when its truth bit is t, `(u < threshold) ^ t` for its uniform
    u: `u < fpr` for 0 and `u >= fnr` for 1. `bits_block` holds the
    observation bits, each step's reading for its current truth, and each
    observation's attack bits are a view of one of its rows. Rows before
    `noise_row` have been handed out and are never written again: a
    compromise or un-compromise in `step()` copies its own column of the
    reading for its new truth into the rows from `noise_row` on, and
    `sync_derived` drops the bits block (None), which the next `observe`
    rebuilds, readings included, from the current truth and noise."""

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
    surface_version: int = field(init=False, default=0)
    noise_block: np.ndarray | None = field(init=False, default=None)
    noise_row: int = field(init=False, default=NOISE_ROWS)
    readings_block: np.ndarray | None = field(init=False, default=None)
    bits_block: np.ndarray | None = field(init=False, default=None)


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


class EntrySnapshot(NamedTuple):
    """What every episode on one graph starts from: the entry-only state's
    surface and read-only bit vectors, plus the TTC means (read-only, in
    index order) and the step cap. `init_episode` copies the surface and
    the compromised bits and shares the all-zero enabled bits, which stay
    read-only until the first enable replaces them."""

    surface: frozenset[str]
    compromised_bits: np.ndarray
    enabled_bits: np.ndarray
    ttc_means: np.ndarray
    step_cap: int


def _build_entry_snapshot(graph: AttackGraph) -> EntrySnapshot:
    """Check the graph, then run `sync_derived` once on an entry-only state
    (it reads neither rewards nor rng, and the snapshot keeps nothing
    noise-dependent). A graph that fails `check()` gets no snapshot."""
    graph.check()
    state = SimState(
        graph=graph,
        noise=NoiseConfig(fpr=0.0, fnr=0.0),
        rewards=None,
        t=0,
        remaining_ttc={},
        compromised={graph.entry_id},
        enabled=set(),
        captured_flags=set(),
        rng=None,
    )
    sync_derived(state)
    state.compromised_bits.flags.writeable = False
    ttc_means = np.array([s.ttc_mean for s in graph.attack_steps], dtype=np.float64)
    ttc_means.flags.writeable = False
    return EntrySnapshot(
        frozenset(state.surface),
        state.compromised_bits,
        state.enabled_bits,
        ttc_means,
        int(math.ceil(step_cap_bound(graph))),
    )


def _entry_snapshot(graph: AttackGraph) -> EntrySnapshot:
    return graph.memo("entry_snapshot", _build_entry_snapshot)


def _key_words(key) -> np.ndarray:
    """The uint32 words `SeedSequence` makes of a tuple of non-negative
    ints: each int's little-endian 32-bit words, at least one per int."""
    words = []
    for n in key:
        n = int(n)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        while n:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
    return np.array(words, dtype=np.uint32)


def episode_streams(
    seed: int, episode: int, context: int = CONTEXT_EVAL
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Independent (environment, attacker, defender) generators for one
    episode, derived from (seed, context, episode index) so parallel and
    serial execution produce identical per-episode results. They are the
    three children `SeedSequence((seed, context, episode)).spawn(3)`
    gives, built directly from the key's 32-bit words."""
    # kept: a tuple key or spawn(3) reads x0.96-0.97 on both workloads, 48 or 56 us against 37 us a call
    key = _key_words((seed, context, episode))
    return (
        np.random.default_rng(np.random.SeedSequence(key, spawn_key=(0,))),
        np.random.default_rng(np.random.SeedSequence(key, spawn_key=(1,))),
        np.random.default_rng(np.random.SeedSequence(key, spawn_key=(2,))),
    )


def sample_ttc(graph: AttackGraph, rng: np.random.Generator) -> dict[str, float]:
    """Per-step time-to-compromise draws: exponential with the step's mean,
    except steps with mean 0 which always sample exactly +0.0. One
    standard exponential per step, scaled by its mean."""
    means = _entry_snapshot(graph).ttc_means
    return dict(zip(graph.attack_ids, (rng.standard_exponential(means.size) * means).tolist()))


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
    stream is derived from it) or an already-derived Generator. The
    derived fields are copied from the graph's entry snapshot, built on
    the graph's first episode; they equal what `sync_derived` would
    rebuild, at surface version 1."""
    entry = _entry_snapshot(graph)
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
    state.surface = set(entry.surface)
    state.surface_version = 1
    state.compromised_bits = entry.compromised_bits.copy()
    state.enabled_bits = entry.enabled_bits
    return state


def sync_derived(state: SimState) -> None:
    """Rebuild every field mirrored from `state.compromised`,
    `state.enabled` and `state.noise` (the surface, a new surface version
    and both bit vectors) with full scans, and drop the observation bits
    block: the rebuild after direct edits, and the rule the entry snapshot
    is built by. The noise block is left as it is. Raises ValueError on ids
    the graph does not know."""
    graph = state.graph
    state.surface = attack_surface(graph, state.compromised, state.enabled)
    state.surface_version += 1
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
    state.bits_block = None


def observe(state: SimState) -> Observation:
    """Noisy attack bits and exact defense bits; fresh noise every call.
    The defense bits are `state.enabled_bits` itself (read-only).

    One uniform draw u per attack step, the next row of `state.noise_block`
    (refilled from `state.rng` when used up): a compromised step reads 1
    unless u < fnr, an uncompromised one reads 1 when u < fpr. Both are
    `(u < threshold) ^ truth`, computed for the whole block at once (on a
    refill, or after `sync_derived` dropped it; see `SimState`); the attack
    bits are a view of the handed-out row of `state.bits_block`, which no
    later call writes."""
    row = state.noise_row
    if row == NOISE_ROWS:
        state.noise_block = state.rng.random((NOISE_ROWS, state.compromised_bits.size))
        state.bits_block = None
        row = 0
    bits = state.bits_block
    if bits is None:
        bits = _build_bits(state)
    state.noise_row = row + 1
    return Observation(bits[row], state.enabled_bits)


def _build_bits(state: SimState) -> np.ndarray:
    """Fill `state.readings_block` from the noise block and rates, and
    `state.bits_block` from the readings and the truth."""
    uniforms = state.noise_block
    readings = np.empty((2,) + uniforms.shape, dtype=bool)
    np.less(uniforms, state.noise.fpr, out=readings[0])
    np.greater_equal(uniforms, state.noise.fnr, out=readings[1])
    readings = state.readings_block = readings.view(np.uint8)
    bits = state.bits_block = np.where(state.compromised_bits, readings[1], readings[0])
    return bits


def _set_truth(state: SimState, i: int, bit: int) -> None:
    """Set attack step i's compromised bit, and its column of the
    observation bits in the block's rows not yet handed out."""
    state.compromised_bits[i] = bit
    bits, row = state.bits_block, state.noise_row
    if bits is not None and row < NOISE_ROWS:
        bits[row:, i] = state.readings_block[bit, row:, i]


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
    O(children of the changed steps), with `surface_version` moved on by one
    per enable and per compromise, the compromised bits with one index
    write per change (plus the changed step's column in the observation
    bits rows not yet handed out), and the read-only enabled bits by a
    fresh copy per enable, so earlier observations keep theirs.
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
        state.surface_version += 1
        for child in graph.children(defender_action):
            surface.discard(child)
            if child in state.compromised:
                state.compromised.discard(child)
                _set_truth(state, graph.attack_index[child], 0)
                _recheck(state, graph.children(child))

    # 2) attacker works its chosen step unless the defender's move just
    #    removed it from the surface
    flags_now: set[str] = set()
    if attacker_action is not None and attacker_action in surface:
        state.remaining_ttc[attacker_action] -= 1.0
        if state.remaining_ttc[attacker_action] <= 0.0:
            state.compromised.add(attacker_action)
            _set_truth(state, graph.attack_index[attacker_action], 1)
            surface.discard(attacker_action)
            state.surface_version += 1
            _recheck(state, graph.children(attacker_action))
            if attacker_action in graph.flag_ids and attacker_action not in state.captured_flags:
                state.captured_flags.add(attacker_action)
                flags_now.add(attacker_action)

    # 3) reward, 4) next observation, 5) termination; positional arguments,
    # as keywords cost a third of a microsecond per step
    row = StepRow(
        state.t,
        attacker_action,
        defender_action,
        reward_of(state, flags_now, state.rewards),
        not surface,
        observe(state),
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
    above the worst-case termination bound for sane graphs:
    `step_cap_bound(graph)` rounded up, kept in the graph's entry snapshot."""
    return _entry_snapshot(graph).step_cap


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
    derived streams. `max_steps` (default `default_step_cap(graph)`)
    must be at least 1.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
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


def write_csv(path, header, rows) -> None:
    """Write a header and rows as UTF-8 CSV. The csv module writes floats
    with repr (so they round-trip exactly) and None as an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory(record: EpisodeRecord, path) -> None:
    """One CSV row per time-step: t, actions, reward, done and the
    observation bit-string (attack bits then defense bits)."""
    rows = (
        (row.t, row.attacker_action, row.defender_action, row.reward, int(row.done), row.observation)
        for row in record.steps
    )
    write_csv(path, TRAJECTORY_COLUMNS, rows)
