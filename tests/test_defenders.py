from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attacksim.graph import (
    AttackGraph,
    AttackStep,
    DefenseStep,
    RewardConfig,
    default_rewards,
)
from attacksim.engine import (
    NoiseConfig,
    Observation,
    init_episode,
    observe,
    run_episode,
    step,
    sync_derived,
)
from attacksim.attackers import ATTACKER_KINDS, make_attacker
from attacksim.defenders import _disabled_indices, make_defender
from attacksim import ppo

from conftest import build_random_graph, env_stream

NO_NOISE = NoiseConfig(0.0, 0.0)


def obs_of(graph, attack_bits, defense_bits):
    return Observation(
        attack_bits=np.array(attack_bits, dtype=np.uint8),
        defense_bits=np.array(defense_bits, dtype=np.uint8),
    )


def two_defense_graph():
    steps = (
        AttackStep(id="entry", is_entry=True),
        AttackStep(id="a", ttc_mean=2.0),
        AttackStep(id="b", ttc_mean=2.0),
    )
    return AttackGraph(
        attack_steps=steps,
        defense_steps=(DefenseStep(id="d0"), DefenseStep(id="d1")),
        edges=frozenset({("entry", "a"), ("entry", "b"), ("d0", "a"), ("d1", "b")}),
    )


class TestRandomDefender:
    def test_only_noop_when_all_enabled(self):
        g = two_defense_graph()
        defender = make_defender("random")
        defender.reset(g, np.random.default_rng(0))
        obs = obs_of(g, [1, 1, 1], [1, 1])
        for _ in range(50):
            assert defender.select(obs) is None

    def test_fifty_fifty_with_one_disabled(self):
        g = two_defense_graph()
        defender = make_defender("random")
        defender.reset(g, np.random.default_rng(1))
        obs = obs_of(g, [0, 0, 0], [0, 1])
        counts = Counter(defender.select(obs) for _ in range(10_000))
        assert abs(counts["d0"] / 10_000 - 0.5) < 0.02
        assert abs(counts[None] / 10_000 - 0.5) < 0.02

    def test_uniform_over_three_disabled(self):
        steps = (AttackStep(id="entry", is_entry=True), AttackStep(id="a", ttc_mean=1.0))
        g = AttackGraph(
            attack_steps=steps,
            defense_steps=tuple(DefenseStep(id=f"d{i}") for i in range(3)),
            edges=frozenset({("entry", "a"), ("d0", "a"), ("d1", "a"), ("d2", "a")}),
        )
        defender = make_defender("random")
        defender.reset(g, np.random.default_rng(2))
        obs = obs_of(g, [0, 0], [0, 0, 0])
        counts = Counter(defender.select(obs) for _ in range(10_000))
        for option in ["d0", "d1", "d2", None]:
            assert abs(counts[option] / 10_000 - 0.25) < 0.02


class TestTripwire:
    def test_fires_on_observed_child(self):
        g = two_defense_graph()
        defender = make_defender("tripwire")
        defender.reset(g, np.random.default_rng(0))
        # a (index 1) reads compromised; d0 guards a
        obs = obs_of(g, [0, 1, 0], [0, 0])
        assert defender.select(obs) == "d0"

    def test_noop_when_all_bits_zero(self):
        g = two_defense_graph()
        defender = make_defender("tripwire")
        defender.reset(g, np.random.default_rng(0))
        obs = obs_of(g, [0, 0, 0], [0, 0])
        assert defender.select(obs) is None

    def test_lowest_index_fires_first(self):
        g = two_defense_graph()
        defender = make_defender("tripwire")
        defender.reset(g, np.random.default_rng(0))
        obs = obs_of(g, [0, 1, 1], [0, 0])  # both children alerting
        assert defender.select(obs) == "d0"
        # with d0 already enabled, the next triggered defense fires
        assert defender.select(obs_of(g, [0, 1, 1], [1, 0])) == "d1"

    def test_never_fires_with_fnr_one(self, four_ways_graph):
        rewards = default_rewards(four_ways_graph)
        record = run_episode(
            four_ways_graph,
            make_attacker("dfs"),
            make_defender("tripwire"),
            NoiseConfig(fpr=0.0, fnr=1.0),
            rewards,
            seed=3,
        )
        assert all(r.defender_action is None for r in record.steps)

    def test_fpr_zero_fires_only_on_true_compromise(self, four_ways_graph):
        # under fpr=0 every 1-bit is a truly compromised step
        g = four_ways_graph
        rewards = default_rewards(g)
        noise = NoiseConfig(fpr=0.0, fnr=0.4)
        for ep in range(10):
            state = init_episode(g, noise, rewards, env_stream(31, ep))
            attacker = make_attacker("random")
            attacker.reset(g, state, np.random.default_rng(ep))
            defender = make_defender("tripwire")
            defender.reset(g, np.random.default_rng(0))
            obs = observe(state)
            while state.surface:
                action = defender.select(obs)
                if action is not None:
                    children = g.children(action)
                    assert any(c in state.compromised for c in children)
                obs = step(state, attacker.select(state), action).obs

    def test_fnr_zero_reacts_next_step(self):
        # with perfect recall, a compromised child of a disabled defense
        # triggers some defense enable on the following step
        g = two_defense_graph()
        rewards = default_rewards(g)
        state = init_episode(g, NO_NOISE, rewards, env_stream(5))
        state.remaining_ttc["a"] = 1.0
        defender = make_defender("tripwire")
        defender.reset(g, np.random.default_rng(0))
        row = step(state, "a", None)
        assert "a" in state.compromised
        assert defender.select(row.obs) == "d0"


def zero_policy(graph, bp=None):
    params = ppo.init_params(
        graph.num_attack_steps, graph.num_defense_steps, np.random.default_rng(0)
    )
    for arr in params.arrays().values():
        arr[...] = 0.0
    if bp is not None:
        params.bp[...] = np.asarray(bp, dtype=np.float64)
    return params


class TestLearnedDefender:
    def test_uniform_when_logits_zero(self):
        g = two_defense_graph()
        params = zero_policy(g)
        defender = make_defender("learned", params=params, mode="sample")
        defender.reset(g, np.random.default_rng(7))
        obs = obs_of(g, [1, 0, 0], [0, 0])
        counts = Counter(defender.select(obs) for _ in range(10_000))
        for option in ["d0", "d1", None]:
            assert abs(counts[option] / 10_000 - 1 / 3) < 0.02

    def test_full_mask_forces_noop(self):
        g = two_defense_graph()
        params = zero_policy(g, bp=[50.0, 50.0, -50.0])
        defender = make_defender("learned", params=params, mode="sample")
        defender.reset(g, np.random.default_rng(0))
        obs = obs_of(g, [1, 0, 0], [1, 1])
        for _ in range(200):
            assert defender.select(obs) is None

    def test_greedy_takes_argmax(self):
        g = two_defense_graph()
        params = zero_policy(g, bp=[2.0, 1.0, 0.5])
        defender = make_defender("learned", params=params, mode="greedy")
        defender.reset(g, np.random.default_rng(0))
        obs = obs_of(g, [1, 0, 0], [0, 0])
        assert defender.select(obs) == "d0"

    def test_shape_mismatch_rejected(self, four_ways_graph):
        g = two_defense_graph()
        params = zero_policy(g)
        defender = make_defender("learned", params=params)
        with pytest.raises(ValueError, match=r"\|A\|,\|D\|"):
            defender.reset(four_ways_graph, np.random.default_rng(0))

    def test_learned_requires_params(self):
        with pytest.raises(ValueError, match="policy parameters"):
            make_defender("learned")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'argmax'"):
            ppo.LearnedDefender(zero_policy(two_defense_graph()), mode="argmax")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defender kind 'bogus'"):
            make_defender("bogus")

    @pytest.mark.parametrize("mode", ["sample", "greedy"])
    def test_records_each_decision_of_the_episode(self, four_ways_graph, mode):
        g = four_ways_graph
        params = ppo.init_params(g.num_attack_steps, g.num_defense_steps, np.random.default_rng(3))
        defender = make_defender("learned", params=params, mode=mode)
        record = run_episode(
            g, make_attacker("dfs"), defender, NoiseConfig(0.2, 0.1), default_rewards(g), seed=5
        )
        action_ids = g.defense_ids + (None,)
        assert len(defender.decisions) == record.length
        assert [action_ids[d.action] for d in defender.decisions] == [
            row.defender_action for row in record.steps
        ]
        defender.reset(g, np.random.default_rng(0))
        assert defender.decisions == []


class TestMaskRespected:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_no_policy_returns_enabled_defense(self, data):
        # the observation is all a defender gets: its choice is the no-op or
        # a defense whose bit reads 0
        g = two_defense_graph()
        seed = data.draw(st.integers(0, 2**32 - 1))
        obs_bits = [data.draw(st.integers(0, 1)) for _ in range(3)]
        defense_bits = [data.draw(st.integers(0, 1)) for _ in g.defense_ids]
        obs = obs_of(g, obs_bits, defense_bits)
        params = ppo.init_params(3, 2, np.random.default_rng(seed))
        for kind, kwargs in [
            ("none", {}),
            ("random", {}),
            ("tripwire", {}),
            ("learned", {"params": params}),
        ]:
            defender = make_defender(kind, **kwargs)
            defender.reset(g, np.random.default_rng(seed))
            for _ in range(5):
                choice = defender.select(obs)
                assert choice is None or defense_bits[g.defense_index[choice]] == 0


class TestCachedViews:
    @pytest.mark.parametrize("kind", ["random", "tripwire", "learned"])
    def test_reused_defender_matches_one_that_rebuilds_its_views(self, kind):
        # one instance across episodes, as the benchmark and the experiments
        # reuse theirs; its twin rebuilds every view before each select
        rng = np.random.default_rng(len(kind))
        cached, rebuilt = (
            make_defender(kind, params=ppo.init_params(1, 1, rng)) for _ in range(2)
        )
        attacker = make_attacker("random")
        for episode in range(30):
            g = build_random_graph(rng, max_attack=14, max_defense=5)
            if kind == "learned":
                params = ppo.init_params(g.num_attack_steps, g.num_defense_steps, rng)
                cached.params = rebuilt.params = params
            state = init_episode(g, NoiseConfig(0.3, 0.1), RewardConfig(1.0, 1.0), env_stream(episode))
            cached.reset(g, np.random.default_rng(episode))
            rebuilt.reset(g, np.random.default_rng(episode))
            attacker.reset(g, state, np.random.default_rng(episode))
            obs = observe(state)
            edit_at = int(rng.integers(1, 6))
            for t in range(300):
                disabled = [d for d in g.defense_ids if d not in state.enabled]
                if t == edit_at and disabled:
                    # a direct edit; sync_derived must make it visible
                    state.enabled.add(disabled[0])
                    sync_derived(state)
                    obs = observe(state)
                choice = cached.select(obs)
                if kind == "tripwire":
                    assert cached._disabled == _disabled_indices(obs)
                    rebuilt._bits = None
                elif kind == "learned":
                    # the learned defender's one kept view is its memo
                    rebuilt._memo.clear()
                assert rebuilt.select(obs) == choice
                row = step(state, attacker.select(state), choice)
                if row.done:
                    break
                obs = row.obs


class PlainLearned(ppo.LearnedDefender):
    """The learned defender without a memo: every decision is computed
    afresh by `learned_select(..., memo=None)`."""

    def select(self, observation):
        decision = ppo.learned_select(observation, self.params, self._rng, self.mode)
        self.decisions.append(decision)
        return self._action_ids[decision.action]


def decision_bits(decision):
    return (
        decision.action,
        type(decision.logp), np.float64(decision.logp).tobytes(),
        type(decision.value), np.float64(decision.value).tobytes(),
        decision.probs.dtype, decision.probs.tobytes(),
        decision.obs.bitstring(),
    )


class TestPolicyMemo:
    @pytest.mark.parametrize("memo_rows", [ppo.MEMO_ROWS, 3], ids=["bound", "full-at-3"])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_memoised_defender_matches_the_plain_sampler(self, memo_rows, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        noise = NoiseConfig(*[data.draw(st.sampled_from([0.0, 0.1, 1.0]))] * 2)
        mode = data.draw(st.sampled_from(ppo.ACTION_MODES))
        kind = data.draw(st.sampled_from(ATTACKER_KINDS))
        rng = np.random.default_rng(seed)
        g = build_random_graph(rng, max_attack=8, max_defense=3)
        rewards = default_rewards(g)

        def new_policy():
            return ppo.init_params(g.num_attack_steps, g.num_defense_steps, rng)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ppo, "MEMO_ROWS", memo_rows)
            params = new_policy()
            memoised, plain = ppo.LearnedDefender(params, mode), PlainLearned(params, mode)
            for episode in range(12):
                if episode in (4, 8):
                    # a new policy object: the memo must start again
                    memoised.params = plain.params = new_policy()
                a = run_episode(g, make_attacker(kind), memoised, noise, rewards, seed, episode=episode)
                b = run_episode(g, make_attacker(kind), plain, noise, rewards, seed, episode=episode)
                assert [decision_bits(d) for d in memoised.decisions] == [
                    decision_bits(d) for d in plain.decisions
                ]
                assert memoised._rng.bit_generator.state == plain._rng.bit_generator.state
                assert [(r.defender_action, r.reward) for r in a.steps] == [
                    (r.defender_action, r.reward) for r in b.steps
                ]
                assert len(memoised._memo) <= memo_rows

    @pytest.mark.parametrize("mode", ppo.ACTION_MODES)
    def test_forward_runs_once_per_distinct_observation(self, four_ways_graph, mode, monkeypatch):
        g = four_ways_graph
        calls = []
        forward = ppo.forward
        monkeypatch.setattr(ppo, "forward", lambda params, x: calls.append(x) or forward(params, x))
        params = ppo.init_params(g.num_attack_steps, g.num_defense_steps, np.random.default_rng(7))
        defender = ppo.LearnedDefender(params, mode)
        attacker = make_attacker("mixture")
        steps = sum(
            run_episode(g, attacker, defender, NoiseConfig(0.1, 0.1), default_rewards(g), 7, episode=e).length
            for e in range(200)
        )
        # far below the bound, every distinct observation is kept
        assert len(calls) == len(defender._memo) == len({x.tobytes() for x in calls})
        assert len(calls) <= 0.7 * steps
