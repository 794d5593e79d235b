"""Attacker policies: random, breadth-first and depth-first (one frontier
walk, taken from its front or its back), pathfinder and a per-episode
mixture of the four.

Every policy's `select(state)` returns one member of `state.surface` (or
None when it is empty) and keeps only episode-local state; the episode
runner calls `reset(graph, state, rng)` with a per-episode RNG stream, so
attacker behavior is reproducible independently of IDS noise draws.

Uniform picks among n options (the random attacker's, pathfinder's
fallback and the random defender's) go through a `UniformChooser`, which
draws its generator's 32-bit words `CHOOSER_WORDS` at a time and gives
the values one `rng.integers(n)` call per pick would. A generator given to
a chooser is drawn only through it from then on: a draw made beside it
would see the stream the chooser has already read ahead. (The mixture's
one draw per episode comes before its base policy makes a chooser.)
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .graph import AttackGraph
from .engine import SimState

def canonical_kind(kind: str) -> str:
    kind = _ALIASES.get(kind, kind)
    if kind not in ATTACKER_KINDS:
        raise ValueError(f"unknown attacker kind {kind!r}; expected one of {ATTACKER_KINDS}")
    return kind


def make_attacker(kind: str):
    return _CLASSES[canonical_kind(kind)]()


class _SortedSurface:
    """`sorted(state.surface)`, re-sorted only when `state.surface_version`
    has changed since the last call."""

    def __init__(self):
        self._version = None
        self._options: list[str] = []

    def __call__(self, state: SimState) -> list[str]:
        if state.surface_version != self._version:
            self._version = state.surface_version
            self._options = sorted(state.surface)
        return self._options


# words a UniformChooser draws per refill
# kept: one rng.integers(n) per pick reads gen200 x0.84-0.95, 1.35 us against 0.36 us a pick
CHOOSER_WORDS = 64


class UniformChooser:
    """Uniform picks from one generator. `index(n)` follows numpy's
    `Generator.integers(n)` for n up to 2**32 (Lemire 2019, "Fast Random
    Integer Generation in an Interval"): multiply a 32-bit word by n, and
    take another word while the low 32 bits of the product are below
    `(2**32 - n) % n`; the high bits are the pick. n == 1 draws nothing.
    The words come from `rng.integers(0, 2**32, size=CHOOSER_WORDS,
    dtype=np.uint32)`, which reads the stream's 32-bit words in the order
    single calls would."""

    __slots__ = ("_rng", "_words")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        # unused words of the last block, the next one last
        self._words: list[int] = []

    def index(self, n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n <= 0x100000000:
            raise ValueError(f"cannot choose among {n} options")
        words = self._words
        while True:
            if not words:
                words = self._words = self._rng.integers(
                    0, 0x100000000, size=CHOOSER_WORDS, dtype=np.uint32
                ).tolist()
                words.reverse()
            m = words.pop() * n
            low = m & 0xFFFFFFFF
            # the threshold is below n, so it is computed only when needed
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32

    def choice(self, options):
        return options[self.index(len(options))]


class RandomAttacker:
    kind = "random"

    def reset(self, graph, state, rng):
        self._choose = UniformChooser(rng).choice
        self._options = _SortedSurface()

    def select(self, state):
        if not state.surface:
            return None
        return self._choose(self._options(state))


class _FrontierAttacker:
    """A frontier of discovered steps, fresh ones shuffled onto the back;
    `select` takes from the subclass's `_end` (0 front, -1 back)."""

    def reset(self, graph, state, rng):
        self._rng = rng
        self._frontier: deque[str] = deque()
        self._queued: set[str] = set()
        self._version = None

    def select(self, state):
        surface = state.surface
        if not surface:
            return None
        # every surface step is queued after a select, so only a changed
        # surface can hold fresh ones (and shuffling none draws nothing)
        if state.surface_version != self._version:
            self._version = state.surface_version
            fresh = sorted(surface - self._queued)
            self._rng.shuffle(fresh)
            self._frontier.extend(fresh)
            self._queued.update(fresh)
        # entries that left the surface (compromised or blocked) are dropped
        # lazily; a step that resurfaces later counts as a new discovery
        frontier, end = self._frontier, self._end
        while frontier[end] not in surface:
            self._queued.discard(frontier[end])
            del frontier[end]
        return frontier[end]


class BreadthFirstAttacker(_FrontierAttacker):
    """Works every step at the current discovery depth to completion before
    moving deeper; steps discovered together are ordered by a shuffle."""

    kind = "breadth_first"
    alias = "bfs"
    _end = 0
    # bound here, not only inherited: perfbench's tracer wraps
    # `cls.__dict__["select"]` on each attacker class
    select = _FrontierAttacker.select


class DepthFirstAttacker(_FrontierAttacker):
    """Follows newly exposed children of the last compromise; dead ends
    backtrack to the most recently stacked alternative."""

    kind = "depth_first"
    alias = "dfs"
    _end = -1
    # bound here for the tracer, as in BreadthFirstAttacker
    select = _FrontierAttacker.select


def work_steps(remaining: float) -> int:
    """Attacker work-steps needed to compromise a step with the given
    remaining TTC: one decrement per step, compromise at <= 0."""
    return max(1, int(math.ceil(remaining)))


def attainment_costs(
    graph: AttackGraph,
    remaining_ttc: dict[str, float],
    compromised: set[str],
    enabled: set[str],
) -> dict[str, float]:
    """Estimated work-steps to compromise each attack step from the current
    position. OR-steps take their cheapest parent; AND-steps are priced as
    their own work plus the sum of their uncompromised parents' costs (a
    monotone relaxation, since exact AND-aware planning is intractable).
    Blocked or unreachable steps cost inf.

    Sweeps repeat until one changes nothing. On a parents-first graph
    (`AttackGraph.parents_first`) the first sweep prices every step from
    its parents' final costs, so the sweep that would confirm it is
    skipped.
    """
    cost = {
        sid: 0.0 if sid in compromised else math.inf for sid in graph.attack_ids
    }
    ceil = math.ceil
    # the steps a sweep can price, each with its own work (`work_steps`):
    # uncompromised, not blocked by an enabled defense, with attack parents
    priced = [
        (sid, parents, is_or, float(max(1, ceil(remaining_ttc[sid]))))
        for sid, (parents, is_or, defense_parents) in graph.parent_rules.items()
        if sid not in compromised and enabled.isdisjoint(defense_parents) and parents
    ]
    inf = math.inf
    get = cost.__getitem__
    # kept: sweeping to a fixed point reads gen200 x0.94-0.99, 246 us against 186 us a call
    one_sweep = graph.parents_first()
    changed = True
    while changed:
        changed = False
        for sid, parents, is_or, own in priced:
            if is_or:
                best = min(map(get, parents))
                if best == inf:
                    continue
                candidate = own + best
            else:
                parent_costs = list(map(get, parents))
                if inf in parent_costs:
                    continue
                # compromised parents cost exactly 0.0, so they add nothing
                candidate = own + sum(parent_costs)
            if candidate < cost[sid] - 1e-9:
                cost[sid] = candidate
                changed = True
        if one_sweep:
            break
    return cost


class PathfinderAttacker:
    """Full-information attacker: plans the cheapest work-step route to each
    flag from the sampled TTCs, targets flags in order of increasing path
    cost, and replans when a defense cuts the route."""

    kind = "pathfinder"

    def reset(self, graph, state, rng):
        self._graph = graph
        self._choose = UniformChooser(rng).choice
        self._target: str | None = None
        self._needed: set[str] = set()
        self._costs: dict[str, float] = {}
        self._options = _SortedSurface()
        # the last choice taken from the plan and the surface version it
        # was made at
        self._choice: str | None = None
        self._choice_version = None
        self._replan(state)

    def select(self, state):
        if not state.surface:
            return None
        # Staleness, the compromised set and the surface all change only
        # with a new surface version, so an unchanged version repeats the
        # plan's last choice.
        if state.surface_version == self._choice_version:
            return self._choice
        if self._plan_stale(state):
            self._replan(state)
        choice = self._next_on_plan(state)
        if choice is None and self._target is not None:
            self._replan(state)
            choice = self._next_on_plan(state)
        if choice is None:
            return self._choose(self._options(state))
        self._choice, self._choice_version = choice, state.surface_version
        return choice

    def _plan_stale(self, state) -> bool:
        # With no flag reachable, only an enable can change that: compromise
        # only works steps that are already reachable, and captured flags
        # only grow. So "no target" holds until state.enabled changes. The
        # enabled bits are replaced on each enable and each sync_derived,
        # so the set is compared only when they have been.
        if state.enabled_bits is not self._enabled_bits:
            self._enabled_bits = state.enabled_bits
            if frozenset(state.enabled) != self._enabled_seen:
                return True
        return self._target is not None and self._target in state.captured_flags

    def _next_on_plan(self, state) -> str | None:
        if self._target is None:
            return None
        self._needed -= state.compromised
        candidates = self._needed & state.surface
        if not candidates:
            return None
        return min(candidates, key=lambda sid: (self._costs.get(sid, math.inf), sid))

    def _replan(self, state) -> None:
        graph = self._graph
        self._enabled_seen = frozenset(state.enabled)
        self._enabled_bits = state.enabled_bits
        self._costs = attainment_costs(
            graph, state.remaining_ttc, state.compromised, state.enabled
        )
        reachable = [
            (self._costs[fid], fid)
            for fid in graph.flag_ids
            if fid not in state.captured_flags and math.isfinite(self._costs[fid])
        ]
        if not reachable:
            self._target = None
            self._needed = set()
            return
        _, self._target = min(reachable)
        self._needed = self._needed_set(self._target, state.compromised)

    def _needed_set(self, target: str, compromised: set[str]) -> set[str]:
        """Steps that still have to be compromised on the planned route."""
        graph = self._graph
        needed: set[str] = set()
        stack = [target]
        while stack:
            sid = stack.pop()
            if sid in compromised or sid in needed:
                continue
            needed.add(sid)
            parents, is_or, _ = graph.parent_rules[sid]
            if not parents:
                continue
            if is_or:
                best = min(
                    parents, key=lambda p: (self._costs.get(p, math.inf), p)
                )
                stack.append(best)
            else:
                stack.extend(p for p in parents if p not in compromised)
        return needed


class MixtureAttacker:
    """Draws one of the four base policies uniformly at each episode reset
    and delegates to it for the whole episode. One instance of each base
    policy is kept; `reset` re-initialises all of the drawn one's episode
    state."""

    kind = "mixture"

    BASE_KINDS = ("random", "breadth_first", "depth_first", "pathfinder")

    def __init__(self):
        self.active_kind: str | None = None
        self._bases = {kind: make_attacker(kind) for kind in self.BASE_KINDS}

    def reset(self, graph, state, rng):
        self.active_kind = self.BASE_KINDS[int(rng.integers(len(self.BASE_KINDS)))]
        self._active = self._bases[self.active_kind]
        self._active.reset(graph, state, rng)

    def select(self, state):
        return self._active.select(state)


_CLASSES = {
    cls.kind: cls
    for cls in (RandomAttacker, BreadthFirstAttacker, DepthFirstAttacker, PathfinderAttacker, MixtureAttacker)
}
ATTACKER_KINDS = tuple(_CLASSES)

# every attacker kind, under its alias where it has one
ATTACKER_CHOICES = tuple(getattr(cls, "alias", kind) for kind, cls in _CLASSES.items())
_ALIASES = {alias: kind for alias, kind in zip(ATTACKER_CHOICES, ATTACKER_KINDS) if alias != kind}
