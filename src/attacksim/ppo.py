"""From-scratch policy-gradient learner for the defender, and the learned
defender it trains.

A two-hidden-layer tanh MLP (shared trunk, softmax policy head over the
defenses plus no-op, linear value head) trained with the clipped surrogate
objective, a clipped value loss, an entropy bonus and a fixed-coefficient KL
penalty against the behavior policy. Gradients are hand-derived
backpropagation over numpy arrays; optimization is minibatch Adam, whose
moments `train` keeps across iterations.

`learned_select` is the one masked-policy sampler, and `legal_mask` the one
rule of which actions it may take. `LearnedDefender` drives it in
evaluation and in PPO rollouts alike, with its own rng and memo, and keeps
each decision of the current episode for the update; no state is shared
between defenders. `defenders` registers it as "learned".

The memo holds, for up to `MEMO_ROWS` distinct observations, everything
deterministic about the policy's decision on it, so the network runs once
per distinct observation while a defender holds one policy; each decision
still draws its one uniform, and every decision and output bit is the same
as without the memo. It belongs to the `PolicyParams` object it was built
for: assign a new object rather than edit the held arrays in place, which
the memo would not see. Rollouts bootstrap an episode cut at the step cap
from the value of its last observation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .graph import AttackGraph, RewardConfig
from . import engine
from .engine import NoiseConfig, Observation, write_csv

# how a learned defender turns its policy into an action
ACTION_MODES = ("sample", "greedy")

HIDDEN_LAYERS = (128, 128)

# distinct observations a learned defender keeps the policy's rows for
MEMO_ROWS = 4096

# Adam's moment decay rates and denominator floor; the floor is the one in
# Huang et al. 2022, "The 37 Implementation Details of PPO"
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-5


@dataclass
class HyperParams:
    """Training knobs. The discount and advantage-smoothing factors are not
    part of the tuned set and default to common practice."""

    k_vf: float = 1e-3
    k_s: float = 0.0
    k_kl: float = 1.0
    train_batch: int = 2046
    minibatch: int = 256
    vf_clip: float = 500.0
    clip_eps: float = 0.02
    lr: float = 1e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    iterations: int = 500

    def __post_init__(self):
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            low = 1 if name in ("train_batch", "minibatch") else 0
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("gamma", "gae_lambda") and not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass
class PolicyParams:
    """MLP weights for one graph: input |A|+|D|, policy head |D|+1, value
    head 1. Row-major weight matrices, applied as x @ w + b."""

    num_attack_steps: int
    num_defense_steps: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    wp: np.ndarray
    bp: np.ndarray
    wv: np.ndarray
    bv: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_dims(self) -> tuple[int, int]:
        return (self.w1.shape[1], self.w2.shape[1])

    def arrays(self) -> dict[str, np.ndarray]:
        table = weight_table(self.num_attack_steps, self.num_defense_steps, self.hidden_dims)
        return {name: getattr(self, name) for name, _, _ in table}

    def copy(self) -> "PolicyParams":
        return replace(self, **{name: array.copy() for name, array in self.arrays().items()})


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).astype(np.float64)


def weight_table(num_attack_steps: int, num_defense_steps: int, hidden: tuple[int, int]) -> tuple:
    """(name, shape, orthogonal-init gain) of every weight array, in the
    order init_params draws them; biases have no gain and start at zero."""
    n_in, n_out = num_attack_steps + num_defense_steps, num_defense_steps + 1
    h1, h2 = hidden
    return (
        ("w1", (n_in, h1), np.sqrt(2.0)),
        ("b1", (h1,), None),
        ("w2", (h1, h2), np.sqrt(2.0)),
        ("b2", (h2,), None),
        ("wp", (h2, n_out), 0.01),
        ("bp", (n_out,), None),
        ("wv", (h2, 1), 1.0),
        ("bv", (1,), None),
    )


def init_params(
    num_attack_steps: int,
    num_defense_steps: int,
    rng: np.random.Generator,
    hidden: tuple[int, int] = HIDDEN_LAYERS,
) -> PolicyParams:
    """Orthogonally initialized trunk with small-gain output heads."""
    weights = {
        name: np.zeros(shape) if gain is None else _orthogonal(rng, *shape, gain=gain)
        for name, shape, gain in weight_table(num_attack_steps, num_defense_steps, hidden)
    }
    return PolicyParams(num_attack_steps, num_defense_steps, **weights)


def _layers(params: PolicyParams, x: np.ndarray):
    """Both hidden layers, the logits and the value of the MLP on one input
    vector or a batch of rows."""
    h1 = np.tanh(x @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    return h1, h2, h2 @ params.wp + params.bp, (h2 @ params.wv + params.bv)[..., 0]


def forward(params: PolicyParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Policy logits and value estimate; accepts one input vector or a
    batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.input_dim:
        raise ValueError(f"input width {x.shape[-1]} != |A|+|D| = {params.input_dim}")
    _, _, logits, value = _layers(params, x)
    if x.ndim == 1:
        return logits, float(value)
    return logits, value


def masked_log_softmax(logits: np.ndarray, legal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probs, log-probs) of the categorical restricted to legal actions;
    illegal actions get exactly zero probability and -inf log-probability.
    At least one action per row must be legal (the no-op always is)."""
    masked = np.where(legal, np.asarray(logits, dtype=np.float64), -np.inf)
    shifted = masked - masked.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    total = ez.sum(axis=-1, keepdims=True)
    return ez / total, shifted - np.log(total)


def masked_entropy(probs: np.ndarray, logp: np.ndarray) -> np.ndarray:
    return -(probs * np.where(probs > 0, logp, 0.0)).sum(axis=-1)


def legal_mask(defense_bits: np.ndarray) -> np.ndarray:
    """The actions the policy may take on one row of defense bits or a
    batch of rows: each defense whose bit is 0, in index order, then the
    always-legal no-op."""
    legal = np.ones(defense_bits.shape[:-1] + (defense_bits.shape[-1] + 1,), dtype=bool)
    legal[..., :-1] = defense_bits == 0
    return legal


def _draw(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """The one draw rule: the first index whose cumulative probability
    exceeds one `rng.random()` r. A zero-probability action repeats the sum
    before it, so it is never that first index. When r is at or past a last
    sum that rounded below 1, the draw takes the last index, the no-op."""
    return min(int(cumulative.searchsorted(rng.random(), side="right")), cumulative.shape[0] - 1)


@dataclass
class TrajectoryBatch:
    """What the update reads of whole-episode rollouts: the network inputs,
    the actions taken, their behavior log-probabilities and action
    distributions, and the GAE advantages (normalized per batch to zero mean
    and unit variance) and returns. The loss rebuilds each row's action mask
    from its input's defense columns."""

    obs: np.ndarray
    actions: np.ndarray
    logp_old: np.ndarray
    probs_old: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray

    def __len__(self) -> int:
        return self.obs.shape[0]

    def subset(self, idx: np.ndarray) -> "TrajectoryBatch":
        return TrajectoryBatch(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})


def gae_advantages(
    rewards: np.ndarray,
    values: np.ndarray,
    last_value: float,
    gamma: float,
    gae_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage recursion over one episode. `last_value` is the
    value after its last step: V(s_T) for an episode cut at the step cap, 0
    for one that ended. Returns (advantages, returns) with returns =
    advantages + values."""
    advantages = np.zeros(len(rewards), dtype=np.float64)
    running, next_value = 0.0, last_value
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + gamma * next_value - values[t]
        running = delta + gamma * gae_lambda * running
        advantages[t] = running
        next_value = values[t]
    return advantages, advantages + values


def _check_finite(name: str, value, diagnostics: dict) -> None:
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"non-finite {name} in PPO update; diagnostics: {diagnostics}")


def _loss_pieces(params: PolicyParams, batch: TrajectoryBatch, hp: HyperParams):
    x = np.asarray(batch.obs, dtype=np.float64)
    h1, h2, logits, values = _layers(params, x)
    probs, logp_all = masked_log_softmax(logits, legal_mask(x[:, params.num_attack_steps :]))
    n = len(batch)
    rows = np.arange(n)
    logp = logp_all[rows, batch.actions]
    ratio = np.exp(logp - batch.logp_old)
    adv = batch.advantages

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - hp.clip_eps, 1.0 + hp.clip_eps) * adv
    policy_loss = -np.mean(np.minimum(unclipped, clipped))

    verr = (values - batch.returns) ** 2
    vf_loss = np.mean(np.minimum(verr, hp.vf_clip))

    entropy = np.mean(masked_entropy(probs, logp_all))

    with np.errstate(divide="ignore"):
        logp_old_all = np.where(batch.probs_old > 0, np.log(batch.probs_old), 0.0)
    logp_cur_safe = np.where(batch.probs_old > 0, logp_all, 0.0)
    kl_terms = batch.probs_old * (logp_old_all - logp_cur_safe)
    kl = np.mean(kl_terms.sum(axis=-1))

    loss = policy_loss + hp.k_vf * vf_loss - hp.k_s * entropy + hp.k_kl * kl
    diagnostics = {
        "policy_loss": float(policy_loss),
        "vf_loss": float(vf_loss),
        "entropy": float(entropy),
        "approx_kl": float(np.mean(batch.logp_old - logp)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > hp.clip_eps)),
    }
    _check_finite("loss", loss, diagnostics)
    internals = (x, h1, h2, values, probs, logp_all, ratio, unclipped, clipped)
    return loss, diagnostics, internals


def ppo_loss(params: PolicyParams, batch: TrajectoryBatch, hp: HyperParams):
    """Scalar training loss and diagnostics for a batch whose stored
    log-probabilities come from the behavior-policy snapshot."""
    loss, diagnostics, _ = _loss_pieces(params, batch, hp)
    return float(loss), diagnostics


def ppo_loss_and_grads(params: PolicyParams, batch: TrajectoryBatch, hp: HyperParams):
    """Loss, diagnostics and hand-backpropagated gradients for every
    parameter array.

    Both clipped terms are min(unclipped, clipped), and at their kink,
    where the two are equal, the gradient is the unclipped side's: the
    policy term at a ratio of exactly 1 + clip_eps (advantage > 0) or
    1 - clip_eps (advantage < 0), the value term at a squared error of
    exactly vf_clip. That is the one-sided derivative from inside the
    clip range."""
    loss, diagnostics, internals = _loss_pieces(params, batch, hp)
    x, h1, h2, values, probs, logp_all, ratio, unclipped, clipped = internals
    n = len(batch)
    rows = np.arange(n)
    adv = batch.advantages

    # policy term: gradient flows where the unclipped branch is the min,
    # ties included
    active = unclipped <= clipped
    g_pol = np.where(active, adv * ratio, 0.0) * (-1.0 / n)
    onehot = np.zeros_like(probs)
    onehot[rows, batch.actions] = 1.0
    dlogits = g_pol[:, None] * (onehot - probs)

    # entropy bonus (weight k_s, subtracted from the loss)
    if hp.k_s != 0.0:
        entropy_per = masked_entropy(probs, logp_all)
        logp_safe = np.where(probs > 0, logp_all, 0.0)
        dlogits += (hp.k_s / n) * probs * (logp_safe + entropy_per[:, None])

    # fixed-coefficient KL(behavior || current)
    if hp.k_kl != 0.0:
        dlogits += (hp.k_kl / n) * (probs - batch.probs_old)

    # clipped value loss: gradient flows where verr is the min, ties included
    verr = (values - batch.returns) ** 2
    dvalues = np.where(verr <= hp.vf_clip, 2.0 * (values - batch.returns), 0.0) * (
        hp.k_vf / n
    )

    grads = {}
    grads["wp"] = h2.T @ dlogits
    grads["bp"] = dlogits.sum(axis=0)
    grads["wv"] = h2.T @ dvalues[:, None]
    grads["bv"] = np.array([dvalues.sum()])
    dh2 = dlogits @ params.wp.T + dvalues[:, None] @ params.wv.T
    dpre2 = dh2 * (1.0 - h2**2)
    grads["w2"] = h1.T @ dpre2
    grads["b2"] = dpre2.sum(axis=0)
    dh1 = dpre2 @ params.w2.T
    dpre1 = dh1 * (1.0 - h1**2)
    grads["w1"] = x.T @ dpre1
    grads["b1"] = dpre1.sum(axis=0)

    for name, grad in grads.items():
        _check_finite(f"gradient {name}", grad, diagnostics)
    return float(loss), diagnostics, grads


class AdamMoments:
    """Adam's running first and second moments of every weight array, zero
    at the start, and the number of steps taken: training state that
    `train` keeps across iterations, not part of the policy or its file."""

    def __init__(self, params: PolicyParams):
        self.first = {name: np.zeros_like(a) for name, a in params.arrays().items()}
        self.second = {name: np.zeros_like(a) for name, a in params.arrays().items()}
        self.steps = 0


def sgd_update(
    params: PolicyParams,
    batch: TrajectoryBatch,
    hp: HyperParams,
    rng: np.random.Generator,
    moments: AdamMoments,
) -> PolicyParams:
    """One pass of minibatch Adam over a shuffled batch, one step per
    minibatch (Kingma & Ba 2014, with bias correction): each array moves by
    `lr * m_hat / (sqrt(v_hat) + ADAM_EPS)`. Returns updated parameters
    (the input is left untouched) and advances `moments` in place."""
    beta1, beta2 = ADAM_BETAS
    updated = params.copy()
    order = rng.permutation(len(batch))
    for start in range(0, len(order), hp.minibatch):
        mb = batch.subset(order[start : start + hp.minibatch])
        _, _, grads = ppo_loss_and_grads(updated, mb, hp)
        moments.steps += 1
        correction1 = 1.0 - beta1**moments.steps
        correction2 = 1.0 - beta2**moments.steps
        for name, grad in grads.items():
            m, v = moments.first[name], moments.second[name]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            getattr(updated, name)[...] -= (
                hp.lr * (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)
            )
    return updated


# ---------------------------------------------------------------------------
# the learned defender
# ---------------------------------------------------------------------------


class PolicyStep(NamedTuple):
    """One decision of the masked policy: the observation it was made on,
    the action index (|D| is no-op) and what the learner stores for it."""

    obs: Observation
    action: int
    logp: float
    value: float
    probs: np.ndarray


def _policy_row(observation: Observation, params: PolicyParams) -> np.ndarray:
    """Everything deterministic about the decision on one observation, in
    one read-only float64 array: with n = |D|+1 actions, `probs`, `logp_all`
    and their cumulative sums (n entries each), then the value and the
    greedy action."""
    logits, value = forward(params, observation.vector())
    probs, logp_all = masked_log_softmax(logits, legal_mask(observation.defense_bits))
    row = np.concatenate((probs, logp_all, probs.cumsum(), (value, probs.argmax())))
    row.flags.writeable = False
    return row


def learned_select(
    observation: Observation,
    params: PolicyParams,
    rng: np.random.Generator,
    mode: str,
    memo: dict | None = None,
) -> PolicyStep:
    """Pick an action index through the policy network, restricted to
    `legal_mask(observation.defense_bits)`; `sample` draws one
    `rng.random()` from the masked categorical, `greedy` takes the argmax
    (a legal action: the illegal ones have probability 0) and draws
    nothing.

    With a `memo` (a dict kept for this one `params` object, whose arrays
    must not change while it is kept), the network runs once per distinct
    observation: the rows of the first `MEMO_ROWS` are kept, keyed by the
    observation's bits, and a hit builds neither the network input nor the
    mask. The step is the same, bit for bit, with a memo or without; its
    `probs` is a read-only view of the row."""
    if memo is None:
        row = _policy_row(observation, params)
    else:
        key = observation.attack_bits.tobytes() + observation.defense_bits.tobytes()
        row = memo.get(key)
        if row is None:
            row = _policy_row(observation, params)
            if len(memo) < MEMO_ROWS:
                memo[key] = row
    n = observation.defense_bits.shape[0] + 1
    if mode == "greedy":
        action = int(row[3 * n + 1])
    else:
        action = _draw(row[2 * n : 3 * n], rng)
    return PolicyStep(observation, action, row[n + action], float(row[3 * n]), row[:n])


class LearnedDefender:
    """The policy network's defender; its actions are those of
    `legal_mask`. Every decision of the current episode is kept, in order,
    in `decisions` for the learner.

    The defender keeps one memo of policy rows (see `learned_select`) for
    the `params` object it holds, and starts a fresh one when `params` is
    assigned another object. Edits made in place to the held arrays are not
    seen: assign a new `PolicyParams` instead."""

    kind = "learned"

    def __init__(self, params: PolicyParams | None, mode: str = "sample"):
        if params is None:
            raise ValueError("learned defender requires policy parameters")
        if mode not in ACTION_MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {ACTION_MODES}")
        self.params = params
        self.mode = mode
        self.decisions: list[PolicyStep] = []
        self._memo_params = params
        self._memo: dict[bytes, np.ndarray] = {}

    def reset(self, graph, rng):
        if (
            params_dims := (self.params.num_attack_steps, self.params.num_defense_steps)
        ) != (graph.num_attack_steps, graph.num_defense_steps):
            raise ValueError(
                f"policy built for |A|,|D|={params_dims} cannot drive a graph "
                f"with |A|,|D|={(graph.num_attack_steps, graph.num_defense_steps)}"
            )
        # action index -> defense id; the trailing index is the no-op
        self._action_ids = graph.defense_ids + (None,)
        self._rng = rng
        self.decisions = []

    def select(self, observation):
        if self.params is not self._memo_params:
            self._memo_params, self._memo = self.params, {}
        decision = learned_select(observation, self.params, self._rng, self.mode, self._memo)
        self.decisions.append(decision)
        return self._action_ids[decision.action]


# ---------------------------------------------------------------------------
# rollout collection and the training loop
# ---------------------------------------------------------------------------


def collect_batch(
    graph: AttackGraph,
    params: PolicyParams,
    attacker,
    noise: NoiseConfig,
    rewards: RewardConfig,
    hp: HyperParams,
    seed: int,
    first_episode: int,
) -> tuple[TrajectoryBatch, dict]:
    """Roll whole episodes with the current stochastic policy until at least
    hp.train_batch steps are gathered. Each episode's advantages and returns
    are computed as it ends; one cut at the step cap is bootstrapped from
    the value of its last observation, computed without drawing from any
    stream. Advantages are normalized once over the batch."""
    defender = LearnedDefender(params)
    decisions, advantages, returns = [], [], []
    episode_rewards, episode_flags = [], []
    episode = first_episode
    while len(decisions) < hp.train_batch:
        record = engine.run_episode(
            graph, attacker, defender, noise, rewards, seed,
            episode=episode, context=engine.CONTEXT_TRAIN,
        )
        last_value = forward(params, record.steps[-1].obs.vector())[1] if record.truncated else 0.0
        adv, ret = gae_advantages(
            np.array([row.reward for row in record.steps], dtype=np.float64),
            np.array([d.value for d in defender.decisions], dtype=np.float64),
            last_value, hp.gamma, hp.gae_lambda,
        )
        decisions.extend(defender.decisions)
        advantages.append(adv)
        returns.append(ret)
        episode_rewards.append(record.cumulative_reward)
        episode_flags.append(record.flags_fraction)
        episode += 1

    adv = np.concatenate(advantages)
    std = adv.std()
    batch = TrajectoryBatch(
        obs=np.array([d.obs.vector() for d in decisions]),
        actions=np.array([d.action for d in decisions], dtype=np.int64),
        logp_old=np.array([d.logp for d in decisions], dtype=np.float64),
        probs_old=np.array([d.probs for d in decisions], dtype=np.float64),
        advantages=(adv - adv.mean()) / (std if std > 1e-8 else 1.0),
        returns=np.concatenate(returns),
    )
    stats = {
        "episodes": episode - first_episode,
        "mean_episode_reward": float(np.mean(episode_rewards)),
        "mean_flags_captured": float(np.mean(episode_flags)),
    }
    return batch, stats


@dataclass
class CurvePoint:
    iteration: int
    mean_episode_reward: float
    mean_flags_captured: float
    approx_kl: float
    clip_fraction: float


def train(
    graph: AttackGraph,
    attacker,
    noise: NoiseConfig,
    rewards: RewardConfig,
    hp: HyperParams,
    seed: int,
) -> tuple[PolicyParams, list[CurvePoint]]:
    """Full training run: collect, estimate advantages, update; one curve
    point per iteration. Deterministic for a fixed seed; rewards whose
    squared advantages would overflow a batch are refused before any work."""
    episode_len = max(engine.default_step_cap(graph), graph.num_defense_steps)
    worst = engine.min_reward_bound(graph, rewards, episode_len)
    if not math.isfinite(4 * worst * worst * hp.train_batch):
        raise ValueError(
            f"flag_cost {rewards.flag_cost} and defense_cost {rewards.defense_cost} are too large "
            f"for the learner: an episode's reward can reach {worst:.3g}, whose squares overflow"
        )
    init_rng = np.random.default_rng(np.random.SeedSequence((int(seed), engine.CONTEXT_INIT)))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((int(seed), engine.CONTEXT_SHUFFLE)))
    params = init_params(graph.num_attack_steps, graph.num_defense_steps, init_rng)
    moments = AdamMoments(params)

    curve: list[CurvePoint] = []
    episode_counter = 0
    for iteration in range(hp.iterations):
        batch, stats = collect_batch(
            graph, params, attacker, noise, rewards, hp, seed, episode_counter
        )
        episode_counter += stats["episodes"]
        params = sgd_update(params, batch, hp, shuffle_rng, moments)
        _, diagnostics = ppo_loss(params, batch, hp)
        curve.append(
            CurvePoint(
                iteration=iteration,
                mean_episode_reward=stats["mean_episode_reward"],
                mean_flags_captured=stats["mean_flags_captured"],
                approx_kl=diagnostics["approx_kl"],
                clip_fraction=diagnostics["clip_fraction"],
            )
        )
    return params, curve


def write_curve(curve: list[CurvePoint], path) -> None:
    header = [f.name for f in fields(CurvePoint)]
    write_csv(path, header, (astuple(point) for point in curve))


# ---------------------------------------------------------------------------
# policy file format: shape header, flat row-major weights, provenance
# ---------------------------------------------------------------------------


def save_policy(
    params: PolicyParams,
    path,
    seed: int | None = None,
    hp: HyperParams | None = None,
) -> None:
    doc = {
        "num_attack_steps": params.num_attack_steps,
        "num_defense_steps": params.num_defense_steps,
        "hidden_layers": list(params.hidden_dims),
        "seed": seed,
        "hyperparams": asdict(hp) if hp is not None else None,
        "weights": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.arrays().items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _header_count(value, field: str, minimum: int) -> int:
    # a JSON integer only: `true` loads as a bool, `2.0` and `1e400` as floats
    if type(value) is not int or value < minimum:
        raise ValueError(f"{field} must be an integer >= {minimum}, got {value!r}")
    return value


def _weight(entry, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """One weight array from its entry, which must hold the shape the header
    implies and that many JSON numbers (not booleans), all finite."""
    size = math.prod(shape)
    data = entry.get("data") if isinstance(entry, dict) else None
    if (
        not isinstance(data, list)
        or len(data) != size
        or any(type(v) not in (int, float) for v in data)
        or entry.get("shape") != list(shape)
        or any(type(d) is not int for d in entry["shape"])
    ):
        raise ValueError(f'weight {name} must be {{"shape": {list(shape)}, "data": [{size} numbers]}}')
    try:
        array = np.array(data, dtype=np.float64).reshape(shape)
    except OverflowError:
        raise ValueError(f"weight {name} has an integer entry too large for a float") from None
    if not np.isfinite(array).all():
        raise ValueError(f"weight {name} has a non-finite entry")
    return array


def load_policy(path) -> PolicyParams:
    """Read a policy file; every defect, from invalid JSON to one bad
    weight, raises one ValueError naming the path and the field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"top-level document must be an object, got {type(doc).__name__}")
        num_attack = _header_count(doc["num_attack_steps"], "num_attack_steps", 0)
        num_defense = _header_count(doc["num_defense_steps"], "num_defense_steps", 0)
        hidden = doc["hidden_layers"]
        if not isinstance(hidden, list) or len(hidden) != 2:
            raise ValueError(f"hidden_layers must be a list of 2 integers, got {hidden!r}")
        h1, h2 = (_header_count(h, f"hidden_layers[{i}]", 1) for i, h in enumerate(hidden))
        table = weight_table(num_attack, num_defense, (h1, h2))
        names = sorted(name for name, _, _ in table)
        weights = doc["weights"]
        if not isinstance(weights, dict) or sorted(weights) != names:
            raise ValueError(f"weights must be an object with keys {names}")
        arrays = {name: _weight(weights[name], name, shape) for name, shape, _ in table}
        return PolicyParams(num_attack_steps=num_attack, num_defense_steps=num_defense, **arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed policy file {path}: {exc}") from exc
