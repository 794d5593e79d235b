"""Attack graph data model: AND/OR attack steps, defense switches, JSON format.

An attack graph is a directed graph over two disjoint node sets. Attack steps
are compromisable (OR needs one compromised parent, AND needs all of them) and
carry a mean time-to-compromise; defense steps are root switches that, once
enabled, permanently block their child attack steps. Graphs are immutable
after construction and safe to share across concurrent episode runners.

Each attack step's parent rule is one row of `AttackGraph.parent_rules`,
read by the surface rule `workable` and by pathfinder's planning.

Every graph rule is in `validate`; `AttackGraph.check()`, called by load,
generate and the first episode, is the one gate for an invalid graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable

FLAG_COST_FACTOR = 1.5  # flag penalty is 1.5x the total mean TTC of the graph

_LOGIC_VALUES = ("and", "or")


class GraphFormatError(ValueError):
    """A graph document that cannot be parsed into an AttackGraph."""


@dataclass(frozen=True)
class AttackStep:
    id: str
    logic: str = "or"
    ttc_mean: float = 0.0
    is_flag: bool = False
    is_entry: bool = False


@dataclass(frozen=True)
class DefenseStep:
    id: str


@dataclass(frozen=True)
class RewardConfig:
    """Per-step defense upkeep cost and one-time flag loss cost."""

    defense_cost: float
    flag_cost: float

    def __post_init__(self):
        for name in ("defense_cost", "flag_cost"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class AttackGraph:
    """Immutable attack graph; array order of the step lists fixes the
    index order of the state/observation vectors."""

    attack_steps: tuple[AttackStep, ...]
    defense_steps: tuple[DefenseStep, ...] = ()
    edges: frozenset[tuple[str, str]] = frozenset()

    # derived lookup tables, filled in __post_init__
    attack_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    defense_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    flag_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "attack_steps", tuple(self.attack_steps))
        set_(self, "defense_steps", tuple(self.defense_steps))
        set_(self, "edges", frozenset((str(p), str(c)) for p, c in self.edges))
        set_(self, "attack_ids", tuple(s.id for s in self.attack_steps))
        set_(self, "defense_ids", tuple(d.id for d in self.defense_steps))
        set_(self, "flag_ids", tuple(s.id for s in self.attack_steps if s.is_flag))
        set_(self, "attack_index", {s.id: i for i, s in enumerate(self.attack_steps)})
        set_(self, "defense_index", {d.id: i for i, d in enumerate(self.defense_steps)})

        # the parent rule of every attack step, in index order:
        # id -> (attack parents, OR flag, defense parents)
        rules = {s.id: ([], s.logic == "or", []) for s in self.attack_steps}
        children = {s.id: [] for s in self.attack_steps}
        children.update({d.id: [] for d in self.defense_steps})
        for parent, child in sorted(self.edges):
            if parent in children:
                children[parent].append(child)
            if child in rules:
                if parent in self.attack_index:
                    rules[child][0].append(parent)
                elif parent in self.defense_index:
                    rules[child][2].append(parent)
        set_(self, "parent_rules", {k: (tuple(a), is_or, tuple(d)) for k, (a, is_or, d) in rules.items()})
        set_(self, "_children", {k: tuple(v) for k, v in children.items()})

        entries = [s.id for s in self.attack_steps if s.is_entry]
        set_(self, "entry_id", entries[0] if len(entries) == 1 else None)
        set_(self, "_memo", {})

    @property
    def num_attack_steps(self) -> int:
        return len(self.attack_steps)

    @property
    def num_defense_steps(self) -> int:
        return len(self.defense_steps)

    def attack_parents(self, step_id: str) -> tuple[str, ...]:
        return self.parent_rules[step_id][0]

    def defense_parents(self, step_id: str) -> tuple[str, ...]:
        return self.parent_rules[step_id][2]

    def children(self, node_id: str) -> tuple[str, ...]:
        return self._children[node_id]

    def total_ttc(self) -> float:
        return sum(s.ttc_mean for s in self.attack_steps)

    def memo(self, key: str, build):
        """`build(self)`, computed on the first call with `key` and kept:
        the graph is immutable, so nothing derived from it goes stale.
        Kept values are left out of pickles and copies, which build their
        own on first use."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(self)
        return value

    def __getstate__(self):
        return {**self.__dict__, "_memo": {}}

    def violations(self) -> tuple[str, ...]:
        """`validate(self)`, kept by `memo`."""
        return self.memo("violations", _violation_tuple)

    def check(self) -> None:
        """Raise one GraphFormatError listing every violation, if any."""
        violations = self.violations()
        if violations:
            raise GraphFormatError(f"invalid graph: {list(violations)}")

    def parents_first(self) -> bool:
        """Whether every attack step comes after all its attack parents in
        index order, with no id listed twice; kept by `memo`. Generated and
        bundled graphs list their steps this way."""
        return self.memo("parents_first", _parents_first)


def _violation_tuple(graph: AttackGraph) -> tuple[str, ...]:
    return tuple(validate(graph))


def _parents_first(graph: AttackGraph) -> bool:
    seen: set[str] = set()
    for sid in graph.attack_ids:
        if sid in seen or not seen.issuperset(graph.parent_rules[sid][0]):
            return False
        seen.add(sid)
    return True


def validate(graph: AttackGraph) -> list[str]:
    """Return every invariant violation, in deterministic (rule, id) order.

    An empty list means the graph is valid. Violations are data, not errors.
    """
    violations: list[str] = []

    all_ids = [s.id for s in graph.attack_steps] + [d.id for d in graph.defense_steps]
    seen: set[str] = set()
    dupes: set[str] = set()
    for node_id in all_ids:
        if node_id in seen:
            dupes.add(node_id)
        seen.add(node_id)
    violations.extend(f"duplicate id {node_id}" for node_id in sorted(dupes))

    shared = set(graph.attack_ids) & set(graph.defense_ids)
    violations.extend(
        f"id {node_id} used for both an attack and a defense step"
        for node_id in sorted(shared)
    )

    entries = sorted(s.id for s in graph.attack_steps if s.is_entry)
    if not entries:
        violations.append("no entry step")
    elif len(entries) > 1:
        violations.append("multiple entry steps")

    for step in sorted(graph.attack_steps, key=lambda s: s.id):
        if step.ttc_mean < 0:
            violations.append(f"negative ttc_mean on {step.id}")
    for step in sorted(graph.attack_steps, key=lambda s: s.id):
        if step.is_entry and step.ttc_mean != 0:
            violations.append(f"entry step {step.id} has nonzero ttc_mean")
    for step in sorted(graph.attack_steps, key=lambda s: s.id):
        if step.is_entry and step.is_flag:
            violations.append(f"entry step {step.id} is a flag")
    for step in sorted(graph.attack_steps, key=lambda s: s.id):
        if step.logic not in _LOGIC_VALUES:
            violations.append(f"unknown logic {step.logic!r} on {step.id}")

    known = set(all_ids)
    defense_set = set(graph.defense_ids)
    for parent, child in sorted(graph.edges):
        if parent == child:
            violations.append(f"self-loop on {parent}")
    for parent, child in sorted(graph.edges):
        if parent not in known or child not in known:
            violations.append(f"edge ({parent}, {child}) references unknown id")
        elif child in defense_set:
            violations.append(f"edge ({parent}, {child}) targets a defense step")

    if len(entries) == 1:
        reachable = _reachable_from(graph, entries[0])
        for flag_id in sorted(graph.flag_ids):
            if flag_id not in reachable:
                violations.append(f"unreachable flag {flag_id}")

    # a finite step cap implies a finite flag cost, 1.5x the same sum
    if not math.isfinite(step_cap_bound(graph)):
        violations.append(
            f"attack_steps[*].ttc: the TTCs sum to {graph.total_ttc()!r}, "
            "too large for the step cap and the flag cost"
        )

    return violations


def _reachable_from(graph: AttackGraph, start: str) -> set[str]:
    """Plain edge reachability over attack steps, ignoring defenses and
    AND/OR semantics."""
    attack_set = set(graph.attack_ids)
    reachable = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for child in graph.children(node):
            if child in attack_set and child not in reachable:
                reachable.add(child)
                frontier.append(child)
    return reachable


def workable(
    graph: AttackGraph, step_id: str, compromised: set[str], enabled: set[str]
) -> bool:
    """The attack-surface rule for one attack step: it is uncompromised,
    (1) some compromised attack step has an edge to it, (2) its AND/OR
    parent requirement is met by the compromised set, and (3) no enabled
    defense step is one of its parents. Costs O(parents of the step)."""
    if step_id in compromised:
        return False
    parents, is_or, defense_parents = graph.parent_rules[step_id]
    n_compromised = sum(1 for p in parents if p in compromised)
    if n_compromised == 0:
        return False
    if not is_or and n_compromised != len(parents):
        return False
    return not any(d in enabled for d in defense_parents)


def attack_surface(
    graph: AttackGraph, compromised: Iterable[str], enabled: Iterable[str]
) -> set[str]:
    """Attack steps the attacker can currently work on: every step that is
    `workable`. Rescans the whole graph; the engine keeps the same set up to
    date per step in `SimState.surface`, and this is its reference."""
    compromised = set(compromised)
    enabled = set(enabled)
    unknown = compromised - set(graph.attack_ids)
    if unknown:
        raise ValueError(f"unknown attack step id(s) in compromised: {sorted(unknown)}")
    unknown = enabled - set(graph.defense_ids)
    if unknown:
        raise ValueError(f"unknown defense step id(s) in enabled: {sorted(unknown)}")
    return {sid for sid in graph.attack_ids if workable(graph, sid, compromised, enabled)}


def flag_cost(graph: AttackGraph) -> float:
    """Flag loss cost derived from the graph: 1.5x the summed mean TTC of
    all attack steps, so losing a flag always outweighs enabling a defense
    on the first time-step."""
    return FLAG_COST_FACTOR * graph.total_ttc()


def default_rewards(graph: AttackGraph, defense_cost: float = 1.0) -> RewardConfig:
    return RewardConfig(defense_cost=defense_cost, flag_cost=flag_cost(graph))


# ---------------------------------------------------------------------------
# JSON document format
#
# {"attack_steps": [{"id": str, "logic": "and"|"or", "ttc": number,
#                    "flag": bool, "entry": bool}],
#  "defense_steps": [{"id": str}],
#  "edges": [[parent_id, child_id], ...]}
#
# Array order fixes the index order of the state vectors. save_graph emits
# a canonical form (all fields explicit, edges sorted) so save(load(doc))
# is byte-identical for canonical documents.
# ---------------------------------------------------------------------------


def load_graph(text: str) -> AttackGraph:
    """Parse a graph JSON document. Raises GraphFormatError with field
    context on schema violations, and `check()`'s one error listing every
    `validate` violation when the parsed graph breaks a graph rule."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be an object")

    attack_steps = []
    for i, entry in enumerate(_expect_list(doc, "attack_steps")):
        where = f"attack_steps[{i}]"
        if not isinstance(entry, dict):
            raise GraphFormatError(f"{where}: expected an object")
        step_id = _expect_str(entry, "id", where)
        logic = entry.get("logic", "or")
        if logic not in _LOGIC_VALUES:
            raise GraphFormatError(
                f"{where}.logic: expected 'and' or 'or', got {logic!r}"
            )
        ttc = entry.get("ttc", 0)
        if not isinstance(ttc, (int, float)) or isinstance(ttc, bool):
            raise GraphFormatError(f"{where}.ttc: expected a number, got {ttc!r}")
        try:
            ttc = float(ttc)
        except OverflowError:
            raise GraphFormatError(
                f"{where}.ttc: expected a finite number, got an integer too large for a float"
            ) from None
        if not math.isfinite(ttc):
            raise GraphFormatError(f"{where}.ttc: expected a finite number, got {ttc!r}")
        flag = _expect_bool(entry, "flag", where, default=False)
        is_entry = _expect_bool(entry, "entry", where, default=False)
        attack_steps.append(
            AttackStep(
                id=step_id,
                logic=logic,
                ttc_mean=ttc,
                is_flag=flag,
                is_entry=is_entry,
            )
        )

    defense_steps = []
    for i, entry in enumerate(_expect_list(doc, "defense_steps", default=[])):
        where = f"defense_steps[{i}]"
        if not isinstance(entry, dict):
            raise GraphFormatError(f"{where}: expected an object")
        defense_steps.append(DefenseStep(id=_expect_str(entry, "id", where)))

    edges = []
    for i, pair in enumerate(_expect_list(doc, "edges", default=[])):
        where = f"edges[{i}]"
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)
        ):
            raise GraphFormatError(f"{where}: expected [parent_id, child_id]")
        edges.append((pair[0], pair[1]))

    graph = AttackGraph(
        attack_steps=tuple(attack_steps),
        defense_steps=tuple(defense_steps),
        edges=frozenset(edges),
    )
    graph.check()
    return graph


def step_cap_bound(graph: AttackGraph) -> float:
    """10 * (|A| + total TTC): the engine's step cap before it is rounded
    up to a whole step."""
    return 10 * (graph.num_attack_steps + graph.total_ttc())


def save_graph(graph: AttackGraph) -> str:
    """Serialize to the canonical JSON document (round-trips through
    load_graph field-for-field)."""
    doc = {
        "attack_steps": [
            {
                "id": s.id,
                "logic": s.logic,
                "ttc": s.ttc_mean,
                "flag": s.is_flag,
                "entry": s.is_entry,
            }
            for s in graph.attack_steps
        ],
        "defense_steps": [{"id": d.id} for d in graph.defense_steps],
        "edges": [list(edge) for edge in sorted(graph.edges)],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_graph_file(path) -> AttackGraph:
    """`load_graph` on a UTF-8 file; every GraphFormatError names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_graph(fh.read())
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"graph file {path} is not UTF-8 text: {exc}") from None
    except GraphFormatError as exc:
        raise GraphFormatError(f"graph file {path}: {exc}") from None


def save_graph_file(graph: AttackGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(save_graph(graph))


def bundled_graph_names() -> list[str]:
    names = []
    for item in resources.files("attacksim.graphs").iterdir():
        if item.name.endswith(".json"):
            names.append(item.name[: -len(".json")])
    return sorted(names)


def bundled_graph(name: str) -> AttackGraph:
    """Load one of the example graphs shipped with the package."""
    candidate = resources.files("attacksim.graphs").joinpath(f"{name}.json")
    if not candidate.is_file():
        raise KeyError(
            f"no bundled graph named {name!r}; available: {bundled_graph_names()}"
        )
    return load_graph(candidate.read_text(encoding="utf-8"))


def _expect_list(doc: dict, key: str, default: list | None = None) -> list:
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise GraphFormatError(f"{key}: expected an array")
    return value


def _expect_str(entry: dict, key: str, where: str) -> str:
    value = entry.get(key)
    if not isinstance(value, str) or not value:
        raise GraphFormatError(f"{where}.{key}: expected a non-empty string")
    return value


def _expect_bool(entry: dict, key: str, where: str, default: bool) -> bool:
    value = entry.get(key, default)
    if not isinstance(value, bool):
        raise GraphFormatError(f"{where}.{key}: expected a boolean, got {value!r}")
    return value
