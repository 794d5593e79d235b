"""Defender policies: no-op, random, tripwire and the learned-policy wrapper.

A defender selects one currently disabled defense step per time-step, or
no-op (None), from the observation alone: a defense bit of 0 is a legal
enable. Returning anything else is an engine contract violation.

`learned_select` is the one masked-policy sampler: evaluation uses it through
`LearnedDefender`, and PPO rollouts through `RecordingDefender`, which also
keeps each decision for the update.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import AttackGraph
from .engine import Observation
from . import ppo

DEFENDER_KINDS = ("none", "random", "tripwire", "learned")

# the legal-mask entry of the trailing no-op action
_NOOP_LEGAL = np.ones(1, dtype=bool)


def make_defender(kind: str, params: "ppo.PolicyParams | None" = None, mode: str = "sample"):
    if kind == "none":
        return NoopDefender()
    if kind == "random":
        return RandomDefender()
    if kind == "tripwire":
        return TripwireDefender()
    if kind == "learned":
        if params is None:
            raise ValueError("learned defender requires policy parameters")
        return LearnedDefender(params, mode=mode)
    raise ValueError(f"unknown defender kind {kind!r}; expected one of {DEFENDER_KINDS}")


def _disabled_indices(observation: Observation) -> list[int]:
    """Indices of the defenses whose bit reads 0 (the legal enables), in
    graph index order."""
    return [i for i, bit in enumerate(observation.defense_bits.tolist()) if not bit]


class DefenderPolicy:
    kind = "base"

    def reset(self, graph: AttackGraph, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def select(self, observation: Observation) -> str | None:
        raise NotImplementedError


class NoopDefender(DefenderPolicy):
    kind = "none"

    def reset(self, graph, rng):
        pass

    def select(self, observation):
        return None


class RandomDefender(DefenderPolicy):
    """Uniform over the disabled defenses plus no-op; reads only the
    defense bits."""

    kind = "random"

    def reset(self, graph, rng):
        self._defense_ids = graph.defense_ids
        self._rng = rng

    def select(self, observation):
        options = [self._defense_ids[i] for i in _disabled_indices(observation)] + [None]
        return options[int(self._rng.integers(len(options)))]


class TripwireDefender(DefenderPolicy):
    """If-this-then-that rule: enable the first (by defense index) disabled
    defense with a child attack step reported compromised. One defense per
    time-step; further triggered defenses fire on later steps."""

    kind = "tripwire"

    def reset(self, graph, rng):
        self._defense_ids = graph.defense_ids
        self._child_indices = [
            np.array([graph.attack_index[c] for c in graph.children(d)], dtype=int)
            for d in graph.defense_ids
        ]

    def select(self, observation):
        for i in _disabled_indices(observation):
            idx = self._child_indices[i]
            if idx.size and observation.attack_bits[idx].any():
                return self._defense_ids[i]
        return None


class PolicyStep(NamedTuple):
    """One decision of the masked policy: the network input, the action
    index (|D| is no-op) and what the learner stores for it."""

    obs: np.ndarray
    action: int
    logp: float
    value: float
    probs: np.ndarray
    legal: np.ndarray


def learned_select(
    observation: Observation,
    params: "ppo.PolicyParams",
    rng: np.random.Generator,
    mode: str,
) -> PolicyStep:
    """Pick an action index through the policy network. Already-enabled
    defenses (defense bit 1) get zero probability and the trailing no-op is
    always legal; `sample` draws from the masked categorical, `greedy`
    takes the argmax (a legal action: the illegal ones have probability 0)."""
    x = observation.vector()
    logits, value = ppo.forward(params, x)
    legal = np.concatenate((observation.defense_bits == 0, _NOOP_LEGAL))
    probs, logp_all = ppo.masked_log_softmax(logits, legal)
    if mode == "greedy":
        action = int(probs.argmax())
    elif mode == "sample":
        action = ppo.sample_action(probs, legal, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'sample' or 'greedy'")
    return PolicyStep(x, action, logp_all[action], value, probs, legal)


class LearnedDefender(DefenderPolicy):
    kind = "learned"

    def __init__(self, params: "ppo.PolicyParams", mode: str = "sample"):
        if mode not in ("sample", "greedy"):
            raise ValueError(f"unknown mode {mode!r}; expected 'sample' or 'greedy'")
        self.params = params
        self.mode = mode

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

    def select(self, observation):
        decision = learned_select(observation, self.params, self._rng, self.mode)
        return self._action_ids[decision.action]


class RecordingDefender(LearnedDefender):
    """Sample-mode learned defender that also keeps every decision, in
    order, for the learner."""

    def __init__(self, params: "ppo.PolicyParams"):
        super().__init__(params, mode="sample")
        self.decisions: list[PolicyStep] = []

    def select(self, observation):
        decision = learned_select(observation, self.params, self._rng, self.mode)
        self.decisions.append(decision)
        return self._action_ids[decision.action]
