import math
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from attacksim.engine import episode_streams
from attacksim.graph import AttackGraph, AttackStep, DefenseStep, bundled_graph


# JSON values for the file-format fuzz tests, with NaN/Infinity, integers
# far outside the float range and the graph format's ids and logic words
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["e", "a", "d", "and", "or"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


def build_random_graph(
    rng: np.random.Generator,
    max_attack: int = 12,
    max_defense: int = 4,
    or_only: bool = False,
    ttc_range: tuple[float, float] = (0.5, 6.0),
    flag_prob: float = 0.25,
) -> AttackGraph:
    """Small random valid graph: every node chains back to the entry, AND
    steps only where two parents exist, optional defenses on non-entry
    steps."""
    n = int(rng.integers(2, max_attack + 1))
    ids = [f"n{k}" for k in range(n)]
    steps = [AttackStep(id=ids[0], ttc_mean=0.0, is_entry=True)]
    edges: set[tuple[str, str]] = set()
    flagged = False
    for k in range(1, n):
        parents = {int(rng.integers(k))}
        if k >= 2 and rng.random() < 0.4:
            parents.add(int(rng.integers(k)))
        logic = "and" if (not or_only and len(parents) >= 2 and rng.random() < 0.5) else "or"
        lo, hi = ttc_range
        ttc = float(np.round(rng.uniform(lo, hi), 1)) if hi > 0 else 0.0
        is_flag = bool(rng.random() < flag_prob)
        flagged = flagged or is_flag
        steps.append(AttackStep(id=ids[k], logic=logic, ttc_mean=ttc, is_flag=is_flag))
        edges.update((ids[p], ids[k]) for p in parents)
    if not flagged:
        steps[-1] = AttackStep(
            id=steps[-1].id,
            logic=steps[-1].logic,
            ttc_mean=steps[-1].ttc_mean,
            is_flag=True,
        )
    defenses = []
    if n > 1:
        for j in range(int(rng.integers(0, max_defense + 1))):
            defenses.append(DefenseStep(id=f"d{j}"))
            edges.add((f"d{j}", ids[int(rng.integers(1, n))]))
    return AttackGraph(
        attack_steps=tuple(steps),
        defense_steps=tuple(defenses),
        edges=frozenset(edges),
    )


def surface_oracle(graph: AttackGraph, compromised: set, enabled: set) -> set:
    """Literal three-condition check against the raw edge set, independent
    of the adjacency tables the production code builds."""
    result = set()
    attack_ids = set(graph.attack_ids)
    defense_ids = set(graph.defense_ids)
    for step in graph.attack_steps:
        sid = step.id
        if sid in compromised:
            continue
        cond1 = any(
            (p, sid) in graph.edges for p in attack_ids if p in compromised
        )
        parents = [p for p in attack_ids if (p, sid) in graph.edges]
        if step.logic == "and":
            cond2 = bool(parents) and all(p in compromised for p in parents)
        else:
            cond2 = any(p in compromised for p in parents)
        cond3 = not any(
            (d, sid) in graph.edges for d in defense_ids if d in enabled
        )
        if cond1 and cond2 and cond3:
            result.add(sid)
    return result


def reachable_oracle(graph: AttackGraph, start: str) -> set:
    """Plain BFS over the raw edge set, attack steps only."""
    attack_ids = set(graph.attack_ids)
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop(0)
        for parent, child in graph.edges:
            if parent == node and child in attack_ids and child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


def reward_ttest(rewards_a, rewards_b) -> float:
    """Welch two-sample t-test p-value on per-episode rewards; degenerate
    zero-variance pairs resolve by mean equality."""
    # imported here: scipy takes about a second and 60 MB to import, and
    # only the tests that compare defenders need it
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


def masked_log_softmax_oracle(logits, legal):
    """The masked softmax in its first form: both the exponentials and the
    log-probabilities are masked by np.where, the log under errstate."""
    logits = np.asarray(logits, dtype=np.float64)
    masked = np.where(legal, logits, -np.inf)
    zmax = np.max(masked, axis=-1, keepdims=True)
    shifted = masked - zmax
    ez = np.where(legal, np.exp(shifted), 0.0)
    total = ez.sum(axis=-1, keepdims=True)
    probs = ez / total
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(legal, shifted - np.log(total), -np.inf)
    return probs, logp


def gae_oracle(rewards, values, dones, bootstrap, gamma, gae_lambda):
    """GAE in its first form: one recursion over a whole batch of episodes,
    reset after each `done` row t, where the next value is `bootstrap[t]`
    (V(s_T) for an episode cut at the step cap, 0 for one that ended).
    Returns (advantages, advantages + values)."""
    n = len(rewards)
    advantages = np.zeros(n, dtype=np.float64)
    running = 0.0
    for t in range(n - 1, -1, -1):
        if dones[t]:
            next_value = bootstrap[t]
            running = 0.0
        else:
            next_value = values[t + 1]
        delta = rewards[t] + gamma * next_value - values[t]
        running = delta + gamma * gae_lambda * running
        advantages[t] = running
    return advantages, advantages + values


def episode_streams_oracle(seed: int, episode: int, context: int):
    """`engine.episode_streams` in its first form: a root SeedSequence of
    (seed, context, episode) and its spawn(3) children."""
    root = np.random.SeedSequence((int(seed), int(context), int(episode)))
    return tuple(np.random.default_rng(child) for child in root.spawn(3))


def sample_ttc_oracle(graph: AttackGraph, rng: np.random.Generator) -> dict[str, float]:
    """`engine.sample_ttc` in its first form: exponential draws with the
    zero means replaced by scale 1, then masked back to 0.0."""
    means = np.array([s.ttc_mean for s in graph.attack_steps], dtype=np.float64)
    draws = rng.exponential(scale=np.where(means > 0, means, 1.0))
    draws = np.where(means > 0, draws, 0.0)
    return {s.id: float(draws[i]) for i, s in enumerate(graph.attack_steps)}


class ReferenceEpisode:
    """The episode rule as README states it, with no cache: sets for the
    truth, the attack surface recomputed by `surface_oracle` after every
    change, TTCs from `sample_ttc_oracle` and one `rng.random(|A|)` row per
    observation. Given the environment stream of a real episode and the
    actions it took, it must give the same rewards, observations, surfaces
    and ending, step for step. `noise` may be reassigned between steps."""

    def __init__(self, graph: AttackGraph, noise, rewards, rng: np.random.Generator):
        self.graph, self.noise, self.rewards, self.rng = graph, noise, rewards, rng
        self.ttc = sample_ttc_oracle(graph, rng)
        self.sampled_ttc = dict(self.ttc)
        self.compromised = {s.id for s in graph.attack_steps if s.is_entry}
        self.enabled: set[str] = set()
        self.captured: set[str] = set()
        self.surface = surface_oracle(graph, self.compromised, self.enabled)

    def observe(self) -> np.ndarray:
        """Attack bits from one uniform u per step: a compromised step reads 1
        unless u < fnr, an uncompromised one reads 1 when u < fpr."""
        u = self.rng.random(len(self.graph.attack_steps))
        return np.array(
            [
                u[i] >= self.noise.fnr if s.id in self.compromised else u[i] < self.noise.fpr
                for i, s in enumerate(self.graph.attack_steps)
            ],
            dtype=np.uint8,
        )

    def defense_bits(self) -> np.ndarray:
        return np.array([d.id in self.enabled for d in self.graph.defense_steps], dtype=np.uint8)

    def step(self, attack: str | None, defend: str | None) -> tuple[float, np.ndarray, bool]:
        """One time-step: the defender's enable, then the attacker's work,
        then the reward, the next observation's attack bits and `done`."""
        graph = self.graph
        assert (attack is None) == (not self.surface), "the attacker acts iff the surface is non-empty"
        assert attack is None or attack in self.surface
        if defend is not None:
            assert defend in {d.id for d in graph.defense_steps} - self.enabled
            # an enabled defense blocks its children, and compromised ones
            # stop counting as compromised (no flag penalty is refunded)
            self.enabled.add(defend)
            self.compromised -= {child for parent, child in graph.edges if parent == defend}
            self.surface = surface_oracle(graph, self.compromised, self.enabled)
        captured_now = []
        if attack in self.surface:
            self.ttc[attack] -= 1.0
            if self.ttc[attack] <= 0.0:
                self.compromised.add(attack)
                flag = next(s.is_flag for s in graph.attack_steps if s.id == attack)
                if flag and attack not in self.captured:
                    self.captured.add(attack)
                    captured_now.append(attack)
                self.surface = surface_oracle(graph, self.compromised, self.enabled)
        reward = -(
            len(self.enabled) * self.rewards.defense_cost
            + len(captured_now) * self.rewards.flag_cost
        )
        return reward, self.observe(), not self.surface


def work_steps_oracle(ttc: float) -> int:
    """Attacker work-steps to compromise a step with remaining TTC `ttc`:
    one decrement per work-step, compromise at <= 0."""
    return max(1, math.ceil(ttc))


def env_stream(seed: int, episode: int = 0):
    """The environment stream `run_episode` builds for (seed, episode) in
    the evaluation context, as `init_episode` takes it."""
    return episode_streams(seed, episode)[0]


def attainment_costs_oracle(
    graph: AttackGraph,
    remaining_ttc: dict[str, float],
    compromised: set[str],
    enabled: set[str],
) -> dict[str, float]:
    """`attackers.attainment_costs` in its first form: every sweep reads the
    parent-rule table and prices each step's own work again."""
    cost = {
        sid: 0.0 if sid in compromised else math.inf for sid in graph.attack_ids
    }
    blocked = {
        sid
        for sid in graph.attack_ids
        if any(d in enabled for d in graph.parent_rules[sid][2])
    }
    changed = True
    while changed:
        changed = False
        for step_obj in graph.attack_steps:
            sid = step_obj.id
            if sid in compromised or sid in blocked:
                continue
            parents = graph.parent_rules[sid][0]
            if not parents:
                continue
            own = float(work_steps_oracle(remaining_ttc[sid]))
            if step_obj.logic == "or":
                best = min(cost[p] for p in parents)
                if math.isinf(best):
                    continue
                candidate = own + best
            else:
                if any(math.isinf(cost[p]) for p in parents):
                    continue
                candidate = own + sum(cost[p] for p in parents if p not in compromised)
            if candidate < cost[sid] - 1e-9:
                cost[sid] = candidate
                changed = True
    return cost


@pytest.fixture
def toy_graph():
    return bundled_graph("toy")


@pytest.fixture
def four_ways_graph():
    return bundled_graph("four_ways")


@pytest.fixture
def two_keys_graph():
    return bundled_graph("two_keys_one_door")
