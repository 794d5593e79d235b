"""Defender policies: no-op, random, tripwire and the learned-policy wrapper.

A defender selects one currently disabled defense step per time-step, or
no-op (None), from the observation alone: a defense bit of 0 is a legal
enable. Returning anything else is an engine contract violation.

What a defender derives from the defense bits is rebuilt only when
`observation.defense_bits` is a different array: the engine hands out one
read-only array per enabled set and replaces it on each enable, so the
bits of an array never change while it is in use.

`learned_select` is the one masked-policy sampler. `LearnedDefender` drives
it in evaluation and in PPO rollouts alike, with its own legal mask and
rng, and keeps each decision of the current episode for the update; no
state is shared between defenders.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .attackers import UniformChooser
from .graph import AttackGraph
from .engine import Observation
from . import ppo

# how a learned defender turns its policy into an action
ACTION_MODES = ("sample", "greedy")


def make_defender(kind: str, params: "ppo.PolicyParams | None" = None, mode: str = "sample"):
    if kind not in _CLASSES:
        raise ValueError(f"unknown defender kind {kind!r}; expected one of {DEFENDER_KINDS}")
    return LearnedDefender(params, mode=mode) if kind == "learned" else _CLASSES[kind]()


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
    defense bits, and draws its stream only through a `UniformChooser`."""

    kind = "random"

    def reset(self, graph, rng):
        self._defense_ids = graph.defense_ids
        self._choose = UniformChooser(rng).choice
        self._bits = None
        self._options: list[str | None] = []

    def select(self, observation):
        if observation.defense_bits is not self._bits:
            self._bits = observation.defense_bits
            self._options = [self._defense_ids[i] for i in _disabled_indices(observation)] + [None]
        return self._choose(self._options)


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
        self._bits = None
        self._disabled: list[int] = []

    def select(self, observation):
        if observation.defense_bits is not self._bits:
            self._bits = observation.defense_bits
            self._disabled = _disabled_indices(observation)
        for i in self._disabled:
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
    legal: np.ndarray,
    rng: np.random.Generator,
    mode: str,
) -> PolicyStep:
    """Pick an action index through the policy network, restricted to the
    `legal` mask; `sample` draws from the masked categorical, `greedy`
    takes the argmax (a legal action: the illegal ones have probability 0)."""
    x = observation.vector()
    logits, value = ppo.forward(params, x)
    probs, logp_all = ppo.masked_log_softmax(logits, legal)
    action = int(probs.argmax()) if mode == "greedy" else ppo.sample_action(probs, legal, rng)
    return PolicyStep(x, action, logp_all[action], value, probs, legal)


class LearnedDefender(DefenderPolicy):
    """The policy network's defender. Its legal mask is one entry per
    defense in index order, legal where the bit is 0, then the always-legal
    no-op. Every decision of the current episode is kept, in order, in
    `decisions` for the learner."""

    kind = "learned"

    def __init__(self, params: "ppo.PolicyParams | None", mode: str = "sample"):
        if params is None:
            raise ValueError("learned defender requires policy parameters")
        if mode not in ACTION_MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {ACTION_MODES}")
        self.params = params
        self.mode = mode
        self.decisions: list[PolicyStep] = []

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
        self._bits = None
        self._legal = None
        self.decisions = []

    def select(self, observation):
        if observation.defense_bits is not self._bits:
            self._bits = observation.defense_bits
            self._legal = np.concatenate((self._bits == 0, [True]))
            self._legal.flags.writeable = False
        decision = learned_select(observation, self.params, self._legal, self._rng, self.mode)
        self.decisions.append(decision)
        return self._action_ids[decision.action]


_CLASSES = {cls.kind: cls for cls in (NoopDefender, RandomDefender, TripwireDefender, LearnedDefender)}
DEFENDER_KINDS = tuple(_CLASSES)
