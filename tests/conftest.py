import numpy as np
import pytest

from attacksim.graph import AttackGraph, AttackStep, DefenseStep, bundled_graph


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


@pytest.fixture
def toy_graph():
    return bundled_graph("toy")


@pytest.fixture
def four_ways_graph():
    return bundled_graph("four_ways")


@pytest.fixture
def two_keys_graph():
    return bundled_graph("two_keys_one_door")
