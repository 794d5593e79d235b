"""Defender policies: no-op, random and tripwire, and the registry of
every defender kind, the learned one (`ppo.LearnedDefender`) included.

A defender is reset with its own RNG stream each episode, then selects one
currently disabled defense step per time-step, or no-op (None), from the
observation alone: a defense bit of 0 is a legal enable. Returning anything
else is an engine contract violation.

Only tripwire keeps a view of the defense bits (its disabled indices),
rebuilt only when `observation.defense_bits` is a different array: the
engine hands out one read-only array per enabled set and replaces it on
each enable, so the bits of an array never change while it is in use.
"""

from __future__ import annotations

import numpy as np

from .attackers import UniformChooser
from .engine import Observation
from .ppo import LearnedDefender, PolicyParams

# perfbench/tracing.py wraps `defenders.learned_select` by this name, and
# perfbench/ stays unchanged so that its numbers compare across commits
from .ppo import learned_select  # noqa: F401


def make_defender(kind: str, params: PolicyParams | None = None, mode: str = "sample"):
    if kind not in _CLASSES:
        raise ValueError(f"unknown defender kind {kind!r}; expected one of {DEFENDER_KINDS}")
    return LearnedDefender(params, mode=mode) if kind == "learned" else _CLASSES[kind]()


def _disabled_indices(observation: Observation) -> list[int]:
    """Indices of the defenses whose bit reads 0 (the legal enables), in
    graph index order."""
    return [i for i, bit in enumerate(observation.defense_bits.tolist()) if not bit]


class NoopDefender:
    kind = "none"

    def reset(self, graph, rng):
        pass

    def select(self, observation):
        return None


class RandomDefender:
    """Uniform over the disabled defenses plus no-op; reads only the
    defense bits, and draws its stream only through a `UniformChooser`."""

    kind = "random"

    def reset(self, graph, rng):
        self._defense_ids = graph.defense_ids
        self._choose = UniformChooser(rng).choice

    def select(self, observation):
        return self._choose([self._defense_ids[i] for i in _disabled_indices(observation)] + [None])


class TripwireDefender:
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
        # kept: a scan of the defense bits per select reads gen200 x0.87, 2.6 us against 1.8 us a select
        if observation.defense_bits is not self._bits:
            self._bits = observation.defense_bits
            self._disabled = _disabled_indices(observation)
        for i in self._disabled:
            idx = self._child_indices[i]
            if idx.size and observation.attack_bits[idx].any():
                return self._defense_ids[i]
        return None


_CLASSES = {cls.kind: cls for cls in (NoopDefender, RandomDefender, TripwireDefender, LearnedDefender)}
DEFENDER_KINDS = tuple(_CLASSES)
