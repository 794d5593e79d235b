import heapq
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from attacksim.graph import (
    AttackGraph,
    AttackStep,
    DefenseStep,
    RewardConfig,
    attack_surface,
    bundled_graph,
    bundled_graph_names,
    default_rewards,
)
from attacksim.generate import GenConfig, generate
from attacksim.engine import NoiseConfig, init_episode, observe, run_episode, step, sync_derived
from attacksim import attackers as attackers_module
from attacksim.attackers import (
    ATTACKER_KINDS,
    CHOOSER_WORDS,
    MixtureAttacker,
    PathfinderAttacker,
    UniformChooser,
    _SortedSurface,
    attainment_costs,
    canonical_kind,
    make_attacker,
)
from attacksim.defenders import DEFENDER_KINDS, make_defender
from attacksim.ppo import init_params

from conftest import attainment_costs_oracle, build_random_graph, env_stream, work_steps_oracle

NO_NOISE = NoiseConfig(0.0, 0.0)
UNIT_REWARDS = RewardConfig(defense_cost=1.0, flag_cost=1.0)


def or_chain(ids_with_ttc):
    steps = [AttackStep(id="entry", is_entry=True)]
    edges = set()
    prev = "entry"
    for sid, ttc in ids_with_ttc:
        steps.append(AttackStep(id=sid, ttc_mean=float(ttc)))
        edges.add((prev, sid))
        prev = sid
    return AttackGraph(attack_steps=tuple(steps), edges=frozenset(edges))


def fresh_state(graph, seed=1):
    return init_episode(graph, NO_NOISE, UNIT_REWARDS, env_stream(seed))


def exhausted_state():
    """A state whose attack surface is empty: every step is compromised."""
    g = or_chain([("a", 1.0)])
    state = fresh_state(g)
    state.compromised.add("a")
    sync_derived(state)
    assert state.surface == set()
    return g, state


def dijkstra_work_steps(graph, work, sources):
    """Node-weighted shortest work-path oracle for OR-only graphs."""
    dist = {sid: math.inf for sid in graph.attack_ids}
    heap = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, s))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for child in graph.children(u):
            if child not in dist:
                continue
            nd = d + work[child]
            if nd < dist[child]:
                dist[child] = nd
                heapq.heappush(heap, (nd, child))
    return dist


class TestKinds:
    def test_aliases(self):
        assert canonical_kind("bfs") == "breadth_first"
        assert canonical_kind("dfs") == "depth_first"
        with pytest.raises(ValueError):
            canonical_kind("warp")

    def test_every_kind_constructs(self):
        for kind in ("random", "bfs", "dfs", "pathfinder", "mixture"):
            assert make_attacker(kind) is not None


class TestRandomAttacker:
    def test_singleton(self):
        g = or_chain([("a", 1.0)])
        state = fresh_state(g)
        attacker = make_attacker("random")
        attacker.reset(g, state, np.random.default_rng(0))
        assert state.surface == {"a"}
        assert attacker.select(state) == "a"

    def test_empty_surface_returns_none(self):
        g, state = exhausted_state()
        attacker = make_attacker("random")
        attacker.reset(g, state, np.random.default_rng(0))
        assert attacker.select(state) is None

    def test_uniform_over_pair(self):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=1.0),
            AttackStep(id="b", ttc_mean=1.0),
        )
        g = AttackGraph(attack_steps=steps, edges=frozenset({("entry", "a"), ("entry", "b")}))
        state = fresh_state(g)
        attacker = make_attacker("random")
        attacker.reset(g, state, np.random.default_rng(1))
        assert state.surface == {"a", "b"}
        counts = Counter(attacker.select(state) for _ in range(10_000))
        assert abs(counts["a"] / 10_000 - 0.5) < 0.02


def trace_episode(graph, attacker, seed=1, defender=None):
    """Run with no noise and return the attacker action sequence plus the
    compromise order."""
    defender = defender or make_defender("none")
    record = run_episode(
        graph, attacker, defender, NO_NOISE, RewardConfig(1.0, 1.0), seed
    )
    actions = [r.attacker_action for r in record.steps if r.attacker_action]
    return record, actions


def zero_ttc(graph):
    """Same topology with every non-entry ttc forced to 0 so each work step
    compromises immediately."""
    return AttackGraph(
        attack_steps=tuple(
            AttackStep(s.id, s.logic, 0.0, s.is_flag, s.is_entry)
            for s in graph.attack_steps
        ),
        defense_steps=graph.defense_steps,
        edges=graph.edges,
    )


def entry_distances(graph):
    dist = {graph.entry_id: 0}
    frontier = [graph.entry_id]
    while frontier:
        nxt = []
        for u in frontier:
            for c in graph.children(u):
                if c in graph.attack_index and c not in dist:
                    dist[c] = dist[u] + 1
                    nxt.append(c)
        frontier = nxt
    return dist


class TestBreadthFirst:
    def test_chain_completes_in_order(self):
        g = or_chain([("a", 3.0), ("b", 2.0)])
        record, actions = trace_episode(g, make_attacker("bfs"))
        # a is worked to completion before b ever appears
        switch = actions.index("b")
        assert all(x == "a" for x in actions[:switch])
        assert all(x == "b" for x in actions[switch:])

    def test_same_depth_finished_before_deeper(self):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=2.0),
            AttackStep(id="b", ttc_mean=2.0),
            AttackStep(id="c", ttc_mean=1.0),
        )
        g = AttackGraph(
            attack_steps=steps,
            edges=frozenset({("entry", "a"), ("entry", "b"), ("a", "c")}),
        )
        for seed in range(10):
            record, actions = trace_episode(g, make_attacker("bfs"), seed=seed)
            # both depth-1 steps are fully compromised before any work on c
            first_c = actions.index("c")
            assert set(actions[:first_c]) == {"a", "b"}

    def test_order_non_decreasing_in_entry_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = zero_ttc(build_random_graph(rng, or_only=True, max_defense=0))
            dist = entry_distances(g)
            _, actions = trace_episode(g, make_attacker("bfs"), seed=int(rng.integers(1000)))
            depths = [dist[a] for a in actions]
            assert depths == sorted(depths)

    def test_switches_when_defended_mid_work(self):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=5.0),
            AttackStep(id="b", ttc_mean=5.0),
        )
        g = AttackGraph(
            attack_steps=steps,
            defense_steps=(DefenseStep(id="d"),),
            edges=frozenset({("entry", "a"), ("entry", "b"), ("d", "a")}),
        )
        state = fresh_state(g, seed=2)
        attacker = make_attacker("bfs")
        attacker.reset(g, state, np.random.default_rng(3))
        first = attacker.select(state)
        step(state, first, "d" if first == "a" else None)
        second = attacker.select(state)
        if first == "a":
            assert second == "b"


class TestDepthFirst:
    def test_single_branch_chain(self):
        g = or_chain([("a", 1.0), ("b", 1.0), ("c", 1.0)])
        for seed in range(5):
            _, actions = trace_episode(zero_ttc(g), make_attacker("dfs"), seed=seed)
            assert actions == ["a", "b", "c"]

    def test_follows_new_children_before_siblings(self):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=0.0),
            AttackStep(id="b", ttc_mean=0.0),
            AttackStep(id="c", ttc_mean=0.0),
        )
        g = AttackGraph(
            attack_steps=steps,
            edges=frozenset({("entry", "a"), ("entry", "b"), ("a", "c")}),
        )
        seen_a_first = 0
        for seed in range(20):
            _, actions = trace_episode(g, make_attacker("dfs"), seed=seed)
            if actions[0] == "a":
                seen_a_first += 1
                assert actions == ["a", "c", "b"]
        assert seen_a_first > 0

    def test_order_is_valid_dfs_on_trees(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            # trees: every node has exactly one parent
            n = int(rng.integers(3, 10))
            steps = [AttackStep(id="n0", is_entry=True)]
            edges = set()
            parent_of = {}
            for k in range(1, n):
                p = int(rng.integers(k))
                steps.append(AttackStep(id=f"n{k}", ttc_mean=0.0))
                edges.add((f"n{p}", f"n{k}"))
                parent_of[f"n{k}"] = f"n{p}"
            g = AttackGraph(attack_steps=tuple(steps), edges=frozenset(edges))
            _, actions = trace_episode(g, make_attacker("dfs"), seed=int(rng.integers(1000)))
            assert len(actions) == n - 1
            # stack discipline: each new node's parent must be on the active
            # root path after popping finished subtrees
            stack = ["n0"]
            for node in actions:
                while stack and stack[-1] != parent_of[node]:
                    stack.pop()
                assert stack, f"{node} visited outside DFS order {actions}"
                stack.append(node)


class TestWorkSteps:
    def test_rounding_semantics(self):
        # the work rule lives in attainment_costs: the cost of one step
        # next to the compromised entry is that step's own work
        g = or_chain([("a", 1.0)])
        for ttc, work in ((2.3, 3), (2.0, 2), (0.0, 1), (0.4, 1)):
            assert attainment_costs(g, {"entry": 0.0, "a": ttc}, {"entry"}, set())["a"] == work


class TestAttainmentCosts:
    def test_or_costs_match_dijkstra(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g = build_random_graph(rng, or_only=True, max_defense=0)
            state = fresh_state(g, seed=int(rng.integers(1000)))
            work = {sid: work_steps_oracle(state.remaining_ttc[sid]) for sid in g.attack_ids}
            costs = attainment_costs(g, state.remaining_ttc, state.compromised, set())
            oracle = dijkstra_work_steps(g, work, state.compromised)
            for sid in g.attack_ids:
                assert costs[sid] == pytest.approx(oracle[sid])

    def test_and_step_priced_as_sum_of_parents(self):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=1.0),
            AttackStep(id="b", ttc_mean=1.0),
            AttackStep(id="both", logic="and", ttc_mean=1.0),
        )
        g = AttackGraph(
            attack_steps=steps,
            edges=frozenset(
                {("entry", "a"), ("entry", "b"), ("a", "both"), ("b", "both")}
            ),
        )
        state = fresh_state(g)
        state.remaining_ttc.update({"a": 2.0, "b": 3.0, "both": 1.0})
        costs = attainment_costs(g, state.remaining_ttc, state.compromised, set())
        assert costs["both"] == pytest.approx(1 + 2 + 3)

    def test_blocked_steps_are_unreachable(self):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=1.0),
        )
        g = AttackGraph(
            attack_steps=steps,
            defense_steps=(DefenseStep(id="d"),),
            edges=frozenset({("entry", "a"), ("d", "a")}),
        )
        state = fresh_state(g)
        costs = attainment_costs(g, state.remaining_ttc, state.compromised, {"d"})
        assert math.isinf(costs["a"])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_first_form_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = build_random_graph(rng)
        # the same graph with its steps listed parents-first (as built),
        # child-first (reversed or shuffled), or with a cycle added; the
        # last three take the sweep-until-unchanged path
        order = data.draw(st.sampled_from(["parents_first", "reversed", "shuffled", "cyclic"]))
        if order == "cyclic":
            back = [(c, p) for p, c in g.edges if p in g.attack_index and p != g.entry_id]
            assume(back)
            g = AttackGraph(g.attack_steps, g.defense_steps, g.edges | {back[0]})
        elif order != "parents_first":
            steps = list(g.attack_steps)[::-1]
            if order == "shuffled":
                rng.shuffle(steps)
            g = AttackGraph(tuple(steps), g.defense_steps, g.edges)
        assert g.parents_first() == all(
            g.attack_index[p] < g.attack_index[c] for p, c in g.edges if p in g.attack_index
        )
        assert g.parents_first() == (order == "parents_first") or order == "shuffled"
        ids = g.attack_ids
        compromised = {g.entry_id} | data.draw(st.sets(st.sampled_from(ids)))
        enabled = data.draw(st.sets(st.sampled_from(g.defense_ids))) if g.defense_ids else set()
        # a defense can uncompromise a step whose TTC already reached 0 or below
        remaining = {
            sid: data.draw(st.floats(-2.0, 40.0, allow_nan=False)) for sid in ids
        }
        costs = attainment_costs(g, remaining, compromised, enabled)
        oracle = attainment_costs_oracle(g, remaining, compromised, enabled)
        assert list(costs) == list(oracle)
        assert costs == oracle

    def test_bundled_and_generated_graphs_are_parents_first(self):
        for name in bundled_graph_names():
            assert bundled_graph(name).parents_first(), name
        for size in (20, 80, 200):
            for seed in range(3):
                assert generate(GenConfig(num_attack_steps=size, seed=seed)).parents_first()


def diamond_graph(cost_left, cost_right):
    steps = (
        AttackStep(id="entry", is_entry=True),
        AttackStep(id="left", ttc_mean=1.0),
        AttackStep(id="right", ttc_mean=1.0),
        AttackStep(id="flag", ttc_mean=1.0, is_flag=True),
    )
    g = AttackGraph(
        attack_steps=steps,
        defense_steps=(DefenseStep(id="d_left"),),
        edges=frozenset(
            {
                ("entry", "left"),
                ("entry", "right"),
                ("left", "flag"),
                ("right", "flag"),
                ("d_left", "left"),
            }
        ),
    )
    return g


class TestPathfinder:
    def test_takes_cheap_arm_of_diamond(self):
        g = diamond_graph(3, 7)
        for seed in range(10):
            state = fresh_state(g, seed=seed)
            state.remaining_ttc.update({"left": 3.0, "right": 7.0, "flag": 1.0})
            attacker = make_attacker("pathfinder")
            attacker.reset(g, state, np.random.default_rng(seed))
            assert attacker.select(state) == "left"

    def test_targets_cheapest_flag_first(self):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="near", ttc_mean=1.0, is_flag=True),
            AttackStep(id="mid", ttc_mean=1.0),
            AttackStep(id="far", ttc_mean=1.0, is_flag=True),
        )
        g = AttackGraph(
            attack_steps=steps,
            edges=frozenset({("entry", "near"), ("entry", "mid"), ("mid", "far")}),
        )
        state = fresh_state(g)
        state.remaining_ttc.update({"near": 5.0, "mid": 6.0, "far": 6.0})
        attacker = make_attacker("pathfinder")
        attacker.reset(g, state, np.random.default_rng(0))
        assert attacker.select(state) == "near"

    def test_replans_when_route_severed(self):
        g = diamond_graph(3, 7)
        state = fresh_state(g, seed=4)
        state.remaining_ttc.update({"left": 3.0, "right": 7.0, "flag": 1.0})
        attacker = make_attacker("pathfinder")
        attacker.reset(g, state, np.random.default_rng(4))
        assert attacker.select(state) == "left"
        # the defender cuts the cheap arm in the same step
        step(state, "left", "d_left")
        assert attack_surface(g, state.compromised, state.enabled) == state.surface == {"right"}
        assert attacker.select(state) == "right"

    def test_replans_when_the_plan_yields_no_step(self):
        # a direct edit un-compromises a step the route has already crossed;
        # sync_derived replaces the enabled bits, which counts as an enable,
        # so the next select replans and finds the step again (the random
        # fallback would find it only by chance)
        steps = (
            AttackStep(id="e", is_entry=True),
            AttackStep(id="a", ttc_mean=1.0),
            AttackStep(id="b", ttc_mean=1.0),
            AttackStep(id="f", ttc_mean=1.0, is_flag=True),
        )
        g = AttackGraph(attack_steps=steps, edges=frozenset({("e", "a"), ("a", "f"), ("e", "b")}))
        for seed in range(40):
            state = fresh_state(g, seed=seed)
            attacker = make_attacker("pathfinder")
            attacker.reset(g, state, np.random.default_rng(seed))
            assert attacker.select(state) == "a"
            state.compromised.add("a")
            sync_derived(state)
            assert attacker.select(state) == "f"
            state.compromised.discard("a")
            sync_derived(state)
            assert state.surface == {"a", "b"}
            assert attacker.select(state) == "a"

    def test_falls_back_to_random_when_no_flag_reachable(self):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=1.0),
            AttackStep(id="f", ttc_mean=1.0, is_flag=True),
        )
        g = AttackGraph(
            attack_steps=steps,
            defense_steps=(DefenseStep(id="d"),),
            edges=frozenset({("entry", "a"), ("entry", "f"), ("d", "f")}),
        )
        state = fresh_state(g)
        state.enabled.add("d")
        sync_derived(state)
        attacker = make_attacker("pathfinder")
        attacker.reset(g, state, np.random.default_rng(0))
        assert attack_surface(g, state.compromised, state.enabled) == state.surface == {"a"}
        assert attacker.select(state) == "a"

    def test_no_replan_while_no_flag_reachable(self, monkeypatch):
        steps = (
            AttackStep(id="entry", is_entry=True),
            AttackStep(id="a", ttc_mean=5.0),
            AttackStep(id="b", ttc_mean=5.0),
            AttackStep(id="f", ttc_mean=5.0, is_flag=True),
        )
        g = AttackGraph(
            attack_steps=steps,
            defense_steps=(DefenseStep(id="d"), DefenseStep(id="d2")),
            edges=frozenset(
                {("entry", "a"), ("entry", "b"), ("entry", "f"), ("d", "f"), ("d2", "a")}
            ),
        )
        calls = []
        real = attackers_module.attainment_costs
        monkeypatch.setattr(
            attackers_module, "attainment_costs", lambda *args: calls.append(1) or real(*args)
        )
        state = fresh_state(g)
        state.remaining_ttc.update({"a": 10.0, "b": 10.0, "f": 10.0})
        attacker = make_attacker("pathfinder")
        attacker.reset(g, state, np.random.default_rng(0))
        assert attacker.select(state) == "f"
        step(state, "f", "d")  # cuts the only flag
        step(state, attacker.select(state), None)
        calls.clear()
        for _ in range(5):
            step(state, attacker.select(state), None)
        assert calls == []
        step(state, attacker.select(state), "d2")
        assert attacker.select(state) == "b"
        assert calls == [1]

    def test_sync_derived_makes_the_next_select_replan(self, monkeypatch):
        # a bare rebuild changes no truth, but replaces the enabled bits
        calls = []
        real = attackers_module.attainment_costs
        monkeypatch.setattr(
            attackers_module, "attainment_costs", lambda *args: calls.append(1) or real(*args)
        )
        g = diamond_graph(3, 7)
        state = fresh_state(g)
        attacker = make_attacker("pathfinder")
        attacker.reset(g, state, np.random.default_rng(0))
        attacker.select(state)
        calls.clear()
        sync_derived(state)
        attacker.select(state)
        attacker.select(state)
        assert calls == [1]

    @given(
        seed=st.integers(0, 2**32 - 1),
        defender=st.sampled_from(DEFENDER_KINDS),
        rate=st.sampled_from([0.0, 0.1, 1.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_a_held_target_has_a_route_step_on_the_surface(self, seed, defender, rate):
        # while the state moves only by step(), the route to a held target
        # always reaches the surface, so the plan never needs a second look
        class Checked(PathfinderAttacker):
            def select(self, state):
                action = super().select(state)
                if action is not None and self._target is not None:
                    assert action in self._needed
                return action

        rng = np.random.default_rng(seed)
        g = build_random_graph(rng)
        params = init_params(g.num_attack_steps, g.num_defense_steps, rng, hidden=(8, 8))
        run_episode(
            g,
            Checked(),
            make_defender(defender, params),
            NoiseConfig(rate, rate),
            UNIT_REWARDS,
            seed,
        )


class TestMixture:
    def test_uniform_over_base_policies(self, four_ways_graph):
        state = fresh_state(four_ways_graph)
        counts = Counter()
        attacker = MixtureAttacker()
        for ep in range(4000):
            attacker.reset(four_ways_graph, state, np.random.default_rng(ep))
            counts[attacker.active_kind] += 1
        for kind in MixtureAttacker.BASE_KINDS:
            assert abs(counts[kind] / 4000 - 0.25) < 0.03

    def test_kind_stable_within_episode(self, four_ways_graph):
        rewards = default_rewards(four_ways_graph)
        attacker = MixtureAttacker()
        record = run_episode(
            four_ways_graph, attacker, make_defender("none"), NO_NOISE, rewards, seed=9
        )
        assert attacker.active_kind in MixtureAttacker.BASE_KINDS
        assert record.length > 0

    def test_deterministic_draw_sequence(self, four_ways_graph):
        state = fresh_state(four_ways_graph)

        def draws(seed):
            attacker = MixtureAttacker()
            out = []
            for ep in range(30):
                rng = np.random.default_rng(
                    np.random.SeedSequence((seed, ep))
                )
                attacker.reset(four_ways_graph, state, rng)
                out.append(attacker.active_kind)
            return out

        assert draws(5) == draws(5)

    def test_one_instance_matches_a_fresh_one_per_episode(self):
        # the kept base instances carry nothing from one episode into the next
        g = generate(GenConfig(num_attack_steps=40, seed=3))
        rewards = default_rewards(g)
        noise = NoiseConfig(0.1, 0.1)
        shared = MixtureAttacker()
        kinds = set()
        for episode in range(40):
            kept = run_episode(g, shared, make_defender("tripwire"), noise, rewards, 5, episode)
            kinds.add(shared.active_kind)
            fresh = run_episode(
                g, MixtureAttacker(), make_defender("tripwire"), noise, rewards, 5, episode
            )
            assert kept == fresh, episode
        assert kinds == set(MixtureAttacker.BASE_KINDS)


class TestActionsAlwaysOnSurface:
    @pytest.mark.parametrize("kind", ["random", "bfs", "dfs", "pathfinder", "mixture"])
    def test_thousand_random_episodes_complete(self, kind):
        # the engine raises on any off-surface selection, so completing the
        # episodes is the property
        rng = np.random.default_rng(len(kind))
        episodes = 0
        while episodes < 1000:
            g = build_random_graph(rng, max_attack=8, ttc_range=(0.5, 2.0))
            rewards = default_rewards(g) if g.total_ttc() > 0 else UNIT_REWARDS
            for _ in range(25):
                record = run_episode(
                    g,
                    make_attacker(kind),
                    make_defender("random"),
                    NoiseConfig(0.2, 0.2),
                    rewards,
                    seed=episodes,
                    episode=episodes,
                )
                assert not record.truncated
                episodes += 1

    @pytest.mark.parametrize("kind", ["random", "bfs", "dfs", "pathfinder", "mixture"])
    def test_no_action_on_an_empty_surface(self, kind):
        # run_episode asks every attacker each step, so the attacker owns the
        # no-op: step() rejects None only while the surface is non-empty
        g, state = exhausted_state()
        attacker = make_attacker(kind)
        attacker.reset(g, state, np.random.default_rng(0))
        assert attacker.select(state) is None
        assert step(state, None, None).done

    @pytest.mark.parametrize("kind", ["random", "bfs", "dfs", "pathfinder", "mixture"])
    def test_every_selection_is_on_the_surface(self, kind):
        # the engine enforces this; drive policies manually to observe it
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(30):
            g = build_random_graph(rng)
            state = init_episode(g, NO_NOISE, UNIT_REWARDS, env_stream(int(rng.integers(1000))))
            attacker = make_attacker(kind)
            attacker.reset(g, state, np.random.default_rng(int(rng.integers(1000))))
            defender = make_defender("random")
            defender.reset(g, np.random.default_rng(int(rng.integers(1000))))
            for _ in range(100):
                surface = attack_surface(g, state.compromised, state.enabled)
                if not surface:
                    break
                action = attacker.select(state)
                assert action in surface
                step(state, action, defender.select(observe(state)))


def _forget_cached_views(attacker):
    """Make the next select rebuild every view it derives from the state,
    as the attackers did before they kept any. Pathfinder's plan, with the
    enabled bits it was made for, is its state, not a view."""
    attacker = getattr(attacker, "_active", attacker)
    if hasattr(attacker, "_version"):
        attacker._version = None
    if hasattr(attacker, "_options"):
        attacker._options = _SortedSurface()


class TestCachedViews:
    @pytest.mark.parametrize("kind", ATTACKER_KINDS)
    def test_reused_agent_matches_one_that_rebuilds_its_views(self, kind):
        # one instance across episodes, as the benchmark and the experiments
        # reuse theirs; its twin rebuilds every view before each select
        rng = np.random.default_rng(sum(map(ord, kind)))
        cached, rebuilt = make_attacker(kind), make_attacker(kind)
        defender = make_defender("random")
        noise = NoiseConfig(0.2, 0.2)
        for episode in range(40):
            g = build_random_graph(rng, max_attack=14, ttc_range=(0.5, 3.0))
            state = init_episode(g, noise, UNIT_REWARDS, env_stream(episode))
            cached.reset(g, state, np.random.default_rng(episode))
            rebuilt.reset(g, state, np.random.default_rng(episode))
            defender.reset(g, np.random.default_rng(episode))
            edit_at = int(rng.integers(1, 6))
            for t in range(300):
                disabled = [d for d in g.defense_ids if d not in state.enabled]
                if t == edit_at and disabled:
                    # a direct edit; sync_derived must make it visible
                    state.enabled.add(disabled[-1])
                    sync_derived(state)
                _forget_cached_views(rebuilt)
                action = cached.select(state)
                assert rebuilt.select(state) == action
                active = getattr(cached, "_active", cached)
                if hasattr(active, "_options"):
                    assert active._options(state) == sorted(state.surface)
                for name in ("_queued", "_stacked"):
                    if hasattr(active, name):
                        assert state.surface <= getattr(active, name)
                if action is None:
                    break
                if step(state, action, defender.select(observe(state))).done:
                    break


# ranges where numpy's rule rejects often: about half and a quarter of
# all words for the first two
REJECTING_RANGES = (2**31 + 1, 3 * 2**30, 2**32 - 1, 2**31, 3)


class TestUniformChooser:
    @given(
        seed=st.integers(0, 2**32 - 1),
        ns=st.lists(
            st.one_of(st.integers(1, 2**32), st.sampled_from((1, 2) + REJECTING_RANGES)),
            min_size=CHOOSER_WORDS + 1,
            max_size=3 * CHOOSER_WORDS,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_integers_on_a_twin_generator(self, seed, ns):
        chooser = UniformChooser(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        assert [chooser.index(n) for n in ns] == [int(twin.integers(n)) for n in ns]

    @pytest.mark.parametrize("n", REJECTING_RANGES)
    def test_rejecting_ranges_over_many_blocks(self, n):
        chooser = UniformChooser(np.random.default_rng(n))
        twin = np.random.default_rng(n)
        for _ in range(4 * CHOOSER_WORDS):
            assert chooser.index(n) == int(twin.integers(n))

    def test_one_option_draws_nothing(self):
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        chooser = UniformChooser(rng)
        assert [chooser.index(1) for _ in range(3)] == [0, 0, 0]
        assert chooser.choice(["only"]) == "only"
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_rejects_ranges_it_cannot_draw(self, n):
        with pytest.raises(ValueError, match="cannot choose"):
            UniformChooser(np.random.default_rng(0)).index(n)
