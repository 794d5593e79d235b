import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attacksim import graph as graph_module
from attacksim.graph import (
    AttackGraph,
    AttackStep,
    DefenseStep,
    RewardConfig,
    attack_surface,
    bundled_graph,
    bundled_graph_names,
    default_rewards,
    step_cap_bound,
)
from attacksim.engine import (
    NOISE_ROWS,
    NoiseConfig,
    SimState,
    episode_streams,
    init_episode,
    min_reward_bound,
    observe,
    reward_of,
    run_episode,
    sample_ttc,
    step,
    sync_derived,
    write_trajectory,
)
from attacksim.attackers import ATTACKER_KINDS, make_attacker
from attacksim.defenders import make_defender
from attacksim.ppo import ACTION_MODES, init_params

from conftest import (
    ReferenceEpisode,
    build_random_graph,
    episode_streams_oracle,
    sample_ttc_oracle,
    surface_oracle,
)

NO_NOISE = NoiseConfig(fpr=0.0, fnr=0.0)
UNIT_REWARDS = RewardConfig(defense_cost=1.0, flag_cost=10.0)


def chain_graph(ttcs, flag_last=True, defense_on=None):
    """entry -> s1 -> s2 -> ... with the given ttc means."""
    steps = [AttackStep(id="entry", ttc_mean=0.0, is_entry=True)]
    edges = set()
    prev = "entry"
    for i, ttc in enumerate(ttcs, start=1):
        sid = f"s{i}"
        steps.append(
            AttackStep(id=sid, ttc_mean=float(ttc), is_flag=flag_last and i == len(ttcs))
        )
        edges.add((prev, sid))
        prev = sid
    defenses = []
    if defense_on is not None:
        defenses.append(DefenseStep(id="d"))
        edges.add(("d", defense_on))
    return AttackGraph(
        attack_steps=tuple(steps), defense_steps=tuple(defenses), edges=frozenset(edges)
    )


class TestSampleTtc:
    def test_zero_mean_always_zero(self):
        g = chain_graph([0.0, 0.0])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            draws = sample_ttc(g, rng)
            assert draws["s1"] == 0.0
            assert draws["s2"] == 0.0

    def test_exponential_mean_and_support(self):
        g = chain_graph([10.0] * 10)
        rng = np.random.default_rng(42)
        draws = []
        for _ in range(10_000):
            sampled = sample_ttc(g, rng)
            draws.extend(sampled[f"s{i}"] for i in range(1, 11))
        draws = np.array(draws)
        assert draws.size == 100_000
        assert abs(draws.mean() - 10.0) < 0.2
        assert (draws > 0).all()

    @given(
        graph_seed=st.integers(0, 2**32 - 1),
        rng_seed=st.integers(0, 2**32 - 1),
        ttc_range=st.sampled_from([(0.0, 0.0), (0.0, 0.3), (0.0, 6.0), (0.5, 6.0)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_first_form_bit_for_bit(self, graph_seed, rng_seed, ttc_range):
        # zero means come from the entry step, from (0, 0) ranges and from
        # small draws rounded to 0.0; all of them must sample +0.0
        g = build_random_graph(np.random.default_rng(graph_seed), ttc_range=ttc_range)
        rng, twin = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
        for _ in range(3):
            got, want = sample_ttc(g, rng), sample_ttc_oracle(g, twin)
            assert list(got) == list(want)
            for sid, value in want.items():
                assert type(got[sid]) is float
                assert got[sid].hex() == value.hex()
                assert math.copysign(1.0, got[sid]) == math.copysign(1.0, value)
            for s in g.attack_steps:
                if s.ttc_mean == 0:
                    assert got[s.id] == 0.0 and math.copysign(1.0, got[s.id]) == 1.0
        # the same number of draws: both generators end in the same state
        assert rng.bit_generator.state == twin.bit_generator.state


class TestInitEpisode:
    def test_initial_state(self, four_ways_graph):
        state = init_episode(four_ways_graph, NO_NOISE, UNIT_REWARDS, seed=1)
        assert state.compromised == {"entry"}
        assert state.enabled == set()
        assert state.captured_flags == set()
        assert state.t == 0
        surface = attack_surface(four_ways_graph, state.compromised, state.enabled)
        assert surface == {"recon_north", "recon_east", "recon_south", "recon_west"}

    def test_deterministic_under_seed(self, four_ways_graph):
        a = init_episode(four_ways_graph, NO_NOISE, UNIT_REWARDS, seed=7)
        b = init_episode(four_ways_graph, NO_NOISE, UNIT_REWARDS, seed=7)
        assert a.remaining_ttc == b.remaining_ttc
        assert a.compromised == b.compromised

    def test_invalid_graph_rejected(self):
        bad = AttackGraph(attack_steps=(AttackStep(id="a"),))
        with pytest.raises(ValueError, match="invalid graph"):
            init_episode(bad, NO_NOISE, UNIT_REWARDS, seed=1)

    def test_ttc_sum_too_large_for_the_step_cap_rejected(self):
        # load_graph rejects such a document; a graph built in code meets
        # the same check when its first episode builds the step cap
        big = chain_graph([1e308, 1e308])
        with pytest.raises(ValueError, match="too large for the step cap"):
            init_episode(big, NO_NOISE, UNIT_REWARDS, seed=1)

    def test_graph_validated_once_across_episodes(self, monkeypatch):
        g = chain_graph([1.0, 2.0])
        calls = []
        real = graph_module.validate
        monkeypatch.setattr(graph_module, "validate", lambda gr: calls.append(gr) or real(gr))
        for seed in range(3):
            init_episode(g, NO_NOISE, UNIT_REWARDS, seed=seed)
        assert len(calls) == 1


class TestObserve:
    def test_noiseless_identity(self, four_ways_graph):
        state = init_episode(four_ways_graph, NO_NOISE, UNIT_REWARDS, seed=1)
        state.compromised |= {"recon_north", "breach_north"}
        sync_derived(state)
        obs = observe(state)
        truth = [
            int(sid in state.compromised) for sid in four_ways_graph.attack_ids
        ]
        assert obs.attack_bits.tolist() == truth
        assert obs.defense_bits.tolist() == [0, 0, 0, 0]

    def test_fpr_one_reads_all_ones(self, four_ways_graph):
        state = init_episode(
            four_ways_graph, NoiseConfig(fpr=1.0, fnr=0.0), UNIT_REWARDS, seed=1
        )
        obs = observe(state)
        assert obs.attack_bits.tolist() == [1] * four_ways_graph.num_attack_steps

    def test_fnr_one_reads_all_zeros_for_compromised(self, four_ways_graph):
        state = init_episode(
            four_ways_graph, NoiseConfig(fpr=0.0, fnr=1.0), UNIT_REWARDS, seed=1
        )
        obs = observe(state)
        assert obs.attack_bits.tolist() == [0] * four_ways_graph.num_attack_steps

    def test_defense_bits_exact(self, four_ways_graph):
        state = init_episode(
            four_ways_graph, NoiseConfig(fpr=0.5, fnr=0.5), UNIT_REWARDS, seed=1
        )
        state.enabled.add("block_east")
        sync_derived(state)
        obs = observe(state)
        expected = [int(d == "block_east") for d in four_ways_graph.defense_ids]
        assert obs.defense_bits.tolist() == expected

    def test_observation_is_a_snapshot(self, four_ways_graph):
        state = init_episode(four_ways_graph, NO_NOISE, UNIT_REWARDS, seed=1)
        before = observe(state)
        step(state, "recon_north", "block_east")
        assert before.defense_bits.tolist() == [0, 0, 0, 0]
        assert observe(state).defense_bits.tolist() == [
            int(d == "block_east") for d in four_ways_graph.defense_ids
        ]

    def test_defense_bits_shared_until_an_enable_and_read_only(self, four_ways_graph):
        state = init_episode(four_ways_graph, NO_NOISE, UNIT_REWARDS, seed=1)
        first = step(state, min(state.surface), None)
        second = step(state, min(state.surface), None)
        assert second.obs.defense_bits is first.obs.defense_bits
        third = step(state, min(state.surface), "block_east")
        assert first.obs.defense_bits.tolist() == [0, 0, 0, 0]
        assert third.obs.defense_bits.tolist() == [
            int(d == "block_east") for d in four_ways_graph.defense_ids
        ]
        sync_derived(state)
        for bits in (first.obs.defense_bits, third.obs.defense_bits, state.enabled_bits):
            with pytest.raises(ValueError, match="read-only"):
                bits[0] = 1

    def test_noise_blocks_draw_what_row_draws_would(self):
        # across two block boundaries and into a partial third block, with
        # sync_derived calls (one after a noise change) in between
        rng = np.random.default_rng(2)
        g = build_random_graph(rng, max_attack=12)
        while g.num_attack_steps < 3:
            g = build_random_graph(rng, max_attack=12)
        state = init_episode(g, NoiseConfig(fpr=0.3, fnr=0.2), UNIT_REWARDS, np.random.default_rng(77))
        twin = np.random.default_rng(77)
        sample_ttc(g, twin)  # the draws init_episode made before any noise
        edits = {NOISE_ROWS - 1: "compromise", NOISE_ROWS: "sync", NOISE_ROWS + 3: "noise"}
        for call in range(2 * NOISE_ROWS + NOISE_ROWS // 2):
            edit = edits.get(call)
            if edit == "compromise":
                state.compromised.add(g.attack_ids[-1])
            elif edit == "noise":
                state.noise = NoiseConfig(fpr=0.05, fnr=0.6)
            if edit:
                sync_derived(state)
            thresholds = [state.noise.fnr if bit else state.noise.fpr for bit in state.compromised_bits]
            expected = (twin.random(g.num_attack_steps) < np.array(thresholds)) ^ state.compromised_bits
            obs = observe(state)
            assert obs.attack_bits.dtype == expected.dtype
            assert np.array_equal(obs.attack_bits, expected), call
        assert state.noise_row == NOISE_ROWS // 2

    def test_empirical_rates_match_configured(self):
        # 200 attack steps, half compromised; 1000 observations give 1e5
        # bits per class
        n = 200
        steps = [AttackStep(id="entry", is_entry=True)] + [
            AttackStep(id=f"s{i}", ttc_mean=1.0) for i in range(n - 1)
        ]
        edges = {("entry", f"s{i}") for i in range(n - 1)}
        g = AttackGraph(attack_steps=tuple(steps), edges=frozenset(edges))
        noise = NoiseConfig(fpr=0.25, fnr=0.125)
        state = init_episode(g, noise, UNIT_REWARDS, seed=5)
        state.compromised = set(list(g.attack_ids)[: n // 2])
        sync_derived(state)
        compromised_mask = np.array(
            [sid in state.compromised for sid in g.attack_ids]
        )
        fp = fn = pos = neg = 0
        for _ in range(1000):
            bits = observe(state).attack_bits.astype(bool)
            fn += int((~bits[compromised_mask]).sum())
            pos += int(compromised_mask.sum())
            fp += int(bits[~compromised_mask].sum())
            neg += int((~compromised_mask).sum())
        assert pos >= 100_000 and neg >= 100_000
        assert abs(fp / neg - 0.25) < 0.01
        assert abs(fn / pos - 0.125) < 0.01


class TestObservationBitsBlock:
    """Observation bits are computed once per noise block; a handed-out row
    is final, and each row holds what the IDS rule gives for the truth and
    noise at the time it is handed out."""

    def test_handed_out_rows_never_change(self):
        rng = np.random.default_rng(14)
        seen = set()
        for trial in range(40):
            g = build_random_graph(rng, max_attack=40, ttc_range=(0.5, 2.5))
            state = init_episode(g, NoiseConfig(fpr=0.3, fnr=0.2), UNIT_REWARDS, np.random.default_rng(trial))
            twin = np.random.default_rng(trial)
            sample_ttc(g, twin)  # the draws init_episode made before any noise
            handed = []

            def hand_out(obs):
                # what a per-row draw gives for the truth and noise right now
                truth = state.compromised_bits
                thresholds = [state.noise.fnr if bit else state.noise.fpr for bit in truth]
                expected = (twin.random(truth.size) < np.array(thresholds)) ^ truth
                assert np.array_equal(obs.attack_bits, expected), (trial, len(handed))
                handed.append((obs, obs.attack_bits.copy()))

            hand_out(observe(state))
            while state.surface and state.t < 300:
                if state.t in (9, 21):
                    if state.t == 21:
                        state.noise = NoiseConfig(fpr=0.05, fnr=0.6)
                    # mid-block: the dropped bits are rebuilt for the rows left
                    sync_derived(state)
                    seen.add(("sync", state.t, state.noise_row))
                defense = None
                if state.t % 4 == 3:
                    disabled = [d for d in g.defense_ids if d not in state.enabled]
                    defense = (_cutting_defenses(g, state, disabled) or [None])[0]
                before = state.compromised_bits.copy()
                row = step(state, rng.choice(sorted(state.surface)), defense)
                if not np.array_equal(before, state.compromised_bits):
                    # the episode's observation index and the row in its block
                    seen.add(("index", len(handed)))
                    seen.add(("row", len(handed) % NOISE_ROWS))
                    if (before > state.compromised_bits).any():
                        seen.add("uncompromise")
                hand_out(row.obs)
            for obs, copy in handed:
                assert np.array_equal(obs.attack_bits, copy), trial
        assert {("index", 15), ("index", 16), ("row", 0), ("row", 1), ("row", 15)} <= seen
        assert "uncompromise" in seen
        assert ("sync", 9, 10) in seen and ("sync", 21, 6) in seen

    def test_observation_value_semantics(self, four_ways_graph):
        state = init_episode(four_ways_graph, NO_NOISE, UNIT_REWARDS, seed=1)
        first, second = observe(state), observe(state)
        assert first.attack_bits is not second.attack_bits
        assert first == second and not first != second
        other = observe(state)
        step(state, "recon_north", "block_east")
        assert observe(state) != other
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
        with pytest.raises(AttributeError):
            first.attack_bits = second.attack_bits


class TestRewardOf:
    def test_hand_evaluated(self, four_ways_graph):
        state = init_episode(
            four_ways_graph, NO_NOISE, RewardConfig(1.0, 30.0), seed=1
        )
        state.enabled |= {"block_north", "block_east"}
        assert reward_of(state, {"flag_north"}, RewardConfig(1.0, 30.0)) == -32.0

    def test_zero_when_nothing_enabled_or_captured(self, four_ways_graph):
        state = init_episode(four_ways_graph, NO_NOISE, UNIT_REWARDS, seed=1)
        assert reward_of(state, set(), UNIT_REWARDS) == 0.0

    def test_flag_penalty_charged_once(self):
        g = chain_graph([0.0])
        state = init_episode(g, NO_NOISE, UNIT_REWARDS, seed=1)
        outcome = step(state, "s1", None)
        assert state.captured_flags == {"s1"}
        assert outcome.reward == -10.0
        # a later capture of the same flag carries no penalty
        assert reward_of(state, set(), UNIT_REWARDS) == 0.0


class TestStep:
    def test_zero_ttc_step_compromised_in_one_work_step(self):
        g = chain_graph([0.0], flag_last=False)
        state = init_episode(g, NO_NOISE, UNIT_REWARDS, seed=1)
        assert state.remaining_ttc["s1"] == 0.0
        outcome = step(state, "s1", None)
        assert "s1" in state.compromised
        assert outcome.done  # s1 has no children
        assert state.t == 1

    def test_positive_ttc_needs_multiple_steps(self):
        g = chain_graph([5.0], flag_last=False)
        state = init_episode(g, NO_NOISE, UNIT_REWARDS, seed=1)
        state.remaining_ttc["s1"] = 2.3
        step(state, "s1", None)
        assert "s1" not in state.compromised
        step(state, "s1", None)
        assert "s1" not in state.compromised
        outcome = step(state, "s1", None)
        assert "s1" in state.compromised
        assert outcome.done

    def test_defended_step_uncompromised_and_never_resurfaces(self):
        g = chain_graph([0.0, 1.0], flag_last=False, defense_on="s1")
        state = init_episode(g, NO_NOISE, UNIT_REWARDS, seed=1)
        step(state, "s1", None)
        assert "s1" in state.compromised
        outcome = step(state, "s2", "d")
        assert "s1" not in state.compromised
        # with s1 gone, nothing is workable: s2's only parent is uncompromised
        assert outcome.done
        assert attack_surface(g, state.compromised, state.enabled) == set()

    def test_defender_preempts_attacker_same_step(self):
        # defense enabled this very step blocks the attacker's work on its child
        g = chain_graph([0.0], flag_last=True, defense_on="s1")
        state = init_episode(g, NO_NOISE, UNIT_REWARDS, seed=1)
        outcome = step(state, "s1", "d")
        assert "s1" not in state.compromised
        assert state.captured_flags == set()
        assert outcome.done
        assert outcome.reward == -1.0  # one enabled defense, no flag penalty

    def test_terminal_step_with_empty_surface(self):
        g = chain_graph([0.0], flag_last=False, defense_on="s1")
        state = init_episode(g, NO_NOISE, UNIT_REWARDS, seed=1)
        step(state, "s1", "d")  # surface now empty
        outcome = step(state, None, None)
        assert outcome.done
        assert outcome.reward == -1.0

    def test_contract_violations_rejected(self):
        g = chain_graph([1.0], flag_last=False, defense_on="s1")
        state = init_episode(g, NO_NOISE, UNIT_REWARDS, seed=1)
        with pytest.raises(ValueError, match="not on the attack surface"):
            step(state, "entry", None)
        with pytest.raises(ValueError, match="attacker must act"):
            step(state, None, None)
        with pytest.raises(ValueError, match="unknown defense"):
            step(state, "s1", "ghost")
        step(state, "s1", "d")
        state.compromised.add("s1")  # force surface non-empty would need children; check enabled
        with pytest.raises(ValueError, match="already enabled"):
            step(state, None, "d")


def _cutting_defenses(graph, state, disabled):
    """Disabled defenses whose enable uncompromises a step that has
    children on the surface."""
    return [
        d
        for d in disabled
        if any(
            c in state.compromised and any(gc in state.surface for gc in graph.children(c))
            for c in graph.children(d)
        )
    ]


def _assert_bits_match_sets(graph, state):
    """The maintained bit vectors equal a fresh scan of the sets, and the
    observation bits rows not yet handed out equal the IDS rule applied to
    their uniforms with the thresholds the truth selects."""
    truth = [sid in state.compromised for sid in graph.attack_ids]
    assert state.compromised_bits.tolist() == truth
    assert state.enabled_bits.tolist() == [did in state.enabled for did in graph.defense_ids]
    noise = state.noise
    thresholds = np.array([noise.fnr if bit else noise.fpr for bit in truth])
    if state.bits_block is not None:
        row = state.noise_row
        expected = (state.noise_block[row:] < thresholds) ^ np.array(truth, dtype=np.uint8)
        assert np.array_equal(state.bits_block[row:], expected)


class TestMaintainedSurface:
    def test_uncompromise_removes_children_from_surface(self):
        # entry -> s1 -> s2, defense d on s1: enabling d after s1 fell
        # uncompromises s1, so s2 must leave the surface with it
        g = chain_graph([1.0, 1.0], flag_last=False, defense_on="s1")
        state = init_episode(g, NO_NOISE, UNIT_REWARDS, seed=1)
        state.remaining_ttc["s1"] = 1.0
        step(state, "s1", None)
        assert state.surface == {"s2"}
        outcome = step(state, "s2", "d")
        assert state.compromised == {"entry"}
        assert state.surface == set()
        assert outcome.done

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_after_every_step(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = build_random_graph(rng, ttc_range=(0.5, 3.0))
        # distinct rates, so a threshold left at the wrong rate shows
        noise = data.draw(st.sampled_from([NO_NOISE, NoiseConfig(fpr=0.3, fnr=0.1)]))
        state = init_episode(g, noise, UNIT_REWARDS, seed=int(rng.integers(1000)))
        assert state.surface == surface_oracle(g, state.compromised, state.enabled)
        _assert_bits_match_sets(g, state)
        for _ in range(200):
            if not state.surface:
                break
            options = sorted(state.surface)
            attacker_action = options[int(rng.integers(len(options)))]
            disabled = [d for d in g.defense_ids if d not in state.enabled]
            cutting = _cutting_defenses(g, state, disabled)
            roll = rng.random()
            if cutting and roll < 0.3:
                defender_action = cutting[int(rng.integers(len(cutting)))]
            elif disabled and roll < 0.4:
                defender_action = disabled[int(rng.integers(len(disabled)))]
            else:
                defender_action = None
            outcome = step(state, attacker_action, defender_action)
            assert state.surface == surface_oracle(g, state.compromised, state.enabled)
            assert outcome.done == (not state.surface)
            _assert_bits_match_sets(g, state)
            assert outcome.obs.defense_bits.tolist() == state.enabled_bits.tolist()
            if noise == NO_NOISE:
                assert outcome.obs.attack_bits.tolist() == state.compromised_bits.tolist()


class TestMinRewardBound:
    def test_hand_evaluated(self):
        g = chain_graph([1.0, 1.0], flag_last=True)
        g = AttackGraph(
            attack_steps=g.attack_steps,
            defense_steps=(DefenseStep(id="d1"), DefenseStep(id="d2")),
            edges=g.edges | {("d1", "s1"), ("d2", "s2")},
        )
        rewards = RewardConfig(defense_cost=1.0, flag_cost=10.0)
        assert min_reward_bound(g, rewards, 5) == -19.0

    def test_no_defenses(self):
        g = chain_graph([1.0], flag_last=True)
        rewards = RewardConfig(defense_cost=1.0, flag_cost=10.0)
        assert min_reward_bound(g, rewards, 7) == -10.0

    def test_single_defense_single_step(self):
        g = chain_graph([1.0], flag_last=False, defense_on="s1")
        rewards = RewardConfig(defense_cost=1.0, flag_cost=10.0)
        assert min_reward_bound(g, rewards, 1) == -1.0

    def test_domain_error_below_defense_count(self):
        g = chain_graph([1.0, 1.0], flag_last=False)
        g = AttackGraph(
            attack_steps=g.attack_steps,
            defense_steps=(DefenseStep(id="d1"), DefenseStep(id="d2")),
            edges=g.edges | {("d1", "s1"), ("d2", "s2")},
        )
        with pytest.raises(ValueError):
            min_reward_bound(g, RewardConfig(1.0, 10.0), 1)


class TestRunEpisode:
    def test_defenseless_or_graph_loses_every_flag(self, four_ways_graph):
        g = AttackGraph(
            attack_steps=tuple(
                AttackStep(s.id, "or", s.ttc_mean, s.is_flag, s.is_entry)
                for s in four_ways_graph.attack_steps
            ),
            defense_steps=(),
            edges=frozenset(
                (p, c)
                for p, c in four_ways_graph.edges
                if p in four_ways_graph.attack_index
            ),
        )
        rewards = default_rewards(four_ways_graph)
        for seed in range(5):
            record = run_episode(
                g, make_attacker("random"), make_defender("none"), NO_NOISE, rewards, seed
            )
            assert record.flags_fraction == 1.0
            assert record.cumulative_reward == -rewards.flag_cost * len(g.flag_ids)
            assert not record.truncated

    def test_reward_bound_over_random_episodes(self, two_keys_graph):
        rewards = default_rewards(two_keys_graph)
        d = two_keys_graph.num_defense_steps
        for ep in range(200):
            record = run_episode(
                two_keys_graph,
                make_attacker("random"),
                make_defender("random"),
                NO_NOISE,
                rewards,
                seed=11,
                episode=ep,
            )
            # the closed-form bound assumes length >= |D|; shorter episodes
            # are bounded by the |D|-length value a fortiori
            bound = min_reward_bound(two_keys_graph, rewards, max(record.length, d))
            assert bound <= record.cumulative_reward <= 0.0

    def test_deterministic_with_fixed_seed(self, four_ways_graph):
        rewards = default_rewards(four_ways_graph)
        noise = NoiseConfig(fpr=0.2, fnr=0.1)
        a = run_episode(
            four_ways_graph, make_attacker("dfs"), make_defender("tripwire"), noise, rewards, seed=5
        )
        b = run_episode(
            four_ways_graph, make_attacker("dfs"), make_defender("tripwire"), noise, rewards, seed=5
        )
        assert a == b

    def test_monotone_enabled_and_flags(self, four_ways_graph):
        rewards = default_rewards(four_ways_graph)
        record = run_episode(
            four_ways_graph,
            make_attacker("random"),
            make_defender("random"),
            NO_NOISE,
            rewards,
            seed=3,
        )
        enabled_count = 0
        for row in record.steps:
            assert row.reward <= 0.0
            bits = row.observation[-four_ways_graph.num_defense_steps :]
            count = bits.count("1")
            assert count >= enabled_count
            enabled_count = count

    def test_noiseless_observation_tracks_truth(self, two_keys_graph):
        rewards = default_rewards(two_keys_graph)
        g = two_keys_graph
        state = init_episode(g, NO_NOISE, rewards, seed=2)
        attacker = make_attacker("bfs")
        attacker.reset(g, state, np.random.default_rng(0))
        for _ in range(40):
            surface = attack_surface(g, state.compromised, state.enabled)
            if not surface:
                break
            action = attacker.select(state)
            outcome = step(state, action, None)
            truth = [int(s in state.compromised) for s in g.attack_ids]
            assert outcome.obs.attack_bits.tolist() == truth

    def test_termination_bound(self, four_ways_graph):
        rewards = default_rewards(four_ways_graph)
        for ep in range(20):
            record = run_episode(
                four_ways_graph,
                make_attacker("random"),
                make_defender("none"),
                NO_NOISE,
                rewards,
                seed=17,
                episode=ep,
            )
            max_ttc = max(record.sampled_ttc.values())
            limit = four_ways_graph.num_attack_steps * math.ceil(max_ttc) + \
                four_ways_graph.num_defense_steps
            assert record.length <= limit
            assert not record.truncated

    def test_flag_penalty_total_matches_distinct_flags(self, four_ways_graph):
        rewards = default_rewards(four_ways_graph)
        for ep in range(20):
            record = run_episode(
                four_ways_graph,
                make_attacker("random"),
                make_defender("random"),
                NoiseConfig(0.3, 0.3),
                rewards,
                seed=23,
                episode=ep,
            )
            # reconstruct the flag penalties from per-step rewards minus the
            # defense upkeep visible in the defense observation bits
            flag_penalty = 0.0
            for row in record.steps:
                bits = row.observation[-four_ways_graph.num_defense_steps :]
                upkeep = bits.count("1") * rewards.defense_cost
                flag_penalty += -row.reward - upkeep
            assert flag_penalty == pytest.approx(
                rewards.flag_cost * len(record.flags_captured)
            )

    def test_truncation_flagged(self, four_ways_graph):
        rewards = default_rewards(four_ways_graph)
        record = run_episode(
            four_ways_graph,
            make_attacker("random"),
            make_defender("none"),
            NO_NOISE,
            rewards,
            seed=1,
            max_steps=3,
        )
        assert record.truncated
        assert record.length == 3

    def test_step_cap_below_one_rejected(self, four_ways_graph):
        def run(max_steps):
            return run_episode(
                four_ways_graph, make_attacker("random"), make_defender("none"),
                NO_NOISE, default_rewards(four_ways_graph), seed=1, max_steps=max_steps,
            )

        for bad in (0, -3):
            with pytest.raises(ValueError, match="max_steps"):
                run(bad)
        record = run(1)
        assert record.length == 1
        assert record.truncated

    def test_trajectory_csv(self, tmp_path, toy_graph):
        rewards = default_rewards(toy_graph)
        record = run_episode(
            toy_graph, make_attacker("random"), make_defender("none"), NO_NOISE, rewards, seed=1
        )
        out = tmp_path / "traj.csv"
        write_trajectory(record, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,attacker_action,defender_action,reward,done,observation"
        assert len(lines) == record.length + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first[5]) == toy_graph.num_attack_steps + toy_graph.num_defense_steps


class _TapAttacker:
    """Passes an attacker's selects through and records the surface and
    captured flags each one is shown; before the select of step t it runs
    `edits[t]` on the engine's state."""

    def __init__(self, inner, edits):
        self.inner, self.edits = inner, edits

    def reset(self, graph, state, rng):
        self.state, self.seen = state, []
        self.inner.reset(graph, state, rng)

    def select(self, state):
        if (edit := self.edits.get(len(self.seen))) is not None:
            edit(state)
        self.seen.append((set(state.surface), set(state.captured_flags)))
        return self.inner.select(state)


class _TapDefender:
    """Passes a defender's selects through and keeps each observation it is
    shown, with a copy of its bits as they were then."""

    def __init__(self, inner):
        self.inner = inner

    def reset(self, graph, rng):
        self.shown = []
        self.inner.reset(graph, rng)

    def select(self, observation):
        self.shown.append((observation, observation.attack_bits.copy()))
        return self.inner.select(observation)


RATES = st.sampled_from((0.0, 0.1, 1.0))


class TestReferenceEpisode:
    """The engine against `ReferenceEpisode`: an episode of real agents,
    with `sync_derived` and a noise change at drawn steps, replayed action
    by action through the reference."""

    @given(
        graph_seed=st.integers(0, 2**32 - 1),
        max_attack=st.sampled_from((12, 30)),
        attacker=st.sampled_from(ATTACKER_KINDS),
        defender=st.sampled_from(("none", "random", "tripwire", "learned")),
        mode=st.sampled_from(ACTION_MODES),
        noise=st.tuples(RATES, RATES),
        new_noise=st.tuples(RATES, RATES),
        seed=st.integers(0, 2**32 - 1),
        episode=st.integers(0, 3),
        max_steps=st.none() | st.integers(1, 40),
        sync_at=st.integers(0, 40),
        noise_at=st.integers(0, 40),
    )
    @settings(max_examples=120, deadline=None)
    def test_replay_matches_reference(
        self, graph_seed, max_attack, attacker, defender, mode, noise, new_noise,
        seed, episode, max_steps, sync_at, noise_at,
    ):
        g = build_random_graph(np.random.default_rng(graph_seed), max_attack=max_attack)
        rewards = RewardConfig(defense_cost=1.0, flag_cost=7.5)
        new_noise = NoiseConfig(*new_noise)

        def change_noise(state):
            state.noise = new_noise
            sync_derived(state)

        tap = _TapAttacker(make_attacker(attacker), {sync_at: sync_derived, noise_at: change_noise})
        params = init_params(g.num_attack_steps, g.num_defense_steps, np.random.default_rng(seed), hidden=(8, 8))
        shown = _TapDefender(make_defender(defender, params=params, mode=mode))
        record = run_episode(
            g, tap, shown, NoiseConfig(*noise), rewards, seed, episode=episode, max_steps=max_steps
        )

        ref = ReferenceEpisode(
            g, NoiseConfig(*noise), rewards, episode_streams(seed, episode)[0]
        )
        assert record.sampled_ttc == ref.sampled_ttc
        observations = [ref.observe()]
        done, total = False, 0.0
        for t, row in enumerate(record.steps):
            assert tap.seen[t] == (ref.surface, ref.captured), t
            if t == noise_at:
                ref.noise = new_noise
            reward, bits, done = ref.step(row.attacker_action, row.defender_action)
            observations.append(bits)
            total += reward
            assert (row.t, row.reward, row.done) == (t, reward, done)
            assert np.array_equal(row.obs.defense_bits, ref.defense_bits()), t
        assert tap.state.surface == ref.surface
        assert record.flags_captured == ref.captured
        assert record.cumulative_reward == total
        assert record.length == len(record.steps)
        assert record.truncated == (not done)
        if not done:
            cap = max_steps if max_steps is not None else math.ceil(step_cap_bound(g))
            assert record.length == cap
        # the attack bits each observation had when the defender was shown
        # it, and those of every observation after the episode ended
        for t, (_, bits) in enumerate(shown.shown):
            assert np.array_equal(bits, observations[t]), t
        handed_out = [shown.shown[0][0]] + [row.obs for row in record.steps]
        for t, obs in enumerate(handed_out):
            assert np.array_equal(obs.attack_bits, observations[t]), t


class TestEpisodeStreams:
    def test_streams_independent_of_noise_consumption(self, four_ways_graph):
        # attacker draws are identical regardless of observation noise level
        rewards = default_rewards(four_ways_graph)
        a = run_episode(
            four_ways_graph, make_attacker("random"), make_defender("none"),
            NoiseConfig(0.0, 0.0), rewards, seed=31,
        )
        b = run_episode(
            four_ways_graph, make_attacker("random"), make_defender("none"),
            NoiseConfig(0.9, 0.1), rewards, seed=31,
        )
        assert [r.attacker_action for r in a.steps] == [r.attacker_action for r in b.steps]
        assert a.cumulative_reward == b.cumulative_reward

    def test_distinct_episodes_distinct_draws(self):
        e0 = episode_streams(1, 0)[0].random(4).tolist()
        e1 = episode_streams(1, 1)[0].random(4).tolist()
        assert e0 != e1

    @given(
        seed=st.integers(0, 2**70),
        episode=st.integers(min_value=0),
        context=st.integers(0, 3),
    )
    @example(seed=2**32 - 1, episode=2**32, context=1)
    @example(seed=2**32, episode=5, context=0)
    @example(seed=2**64 - 1, episode=2**64, context=2)
    @example(seed=2**64, episode=2**70, context=3)
    @example(seed=2**70, episode=0, context=0)
    @settings(max_examples=200, deadline=None)
    def test_match_spawned_children(self, seed, episode, context):
        got = episode_streams(seed, episode, context)
        want = episode_streams_oracle(seed, episode, context)
        assert [g.bit_generator.state for g in got] == [w.bit_generator.state for w in want]

    @pytest.mark.parametrize("key", [(-1, 0, 0), (1, -1, 0), (1, 0, -1), (-(2**64), 0, 0)])
    def test_negative_key_rejected(self, key):
        seed, episode, context = key
        with pytest.raises(ValueError, match="non-negative"):
            episode_streams_oracle(seed, episode, context)
        with pytest.raises(ValueError, match="non-negative"):
            episode_streams(seed, episode, context)


SNAPSHOT_NOISES = (NoiseConfig(0.0, 0.0), NoiseConfig(0.1, 0.3), NoiseConfig(1.0, 0.5))


def _snapshot_graphs():
    rng = np.random.default_rng(12)
    return [bundled_graph(name) for name in bundled_graph_names()] + [
        build_random_graph(rng) for _ in range(20)
    ]


def _assert_matches_rebuild(state):
    """`state` holds what `sync_derived` rebuilds from its sets, at
    surface version 1, with the enabled bits read-only and the other
    vectors writable."""
    twin = SimState(
        graph=state.graph,
        noise=state.noise,
        rewards=state.rewards,
        t=state.t,
        remaining_ttc=dict(state.remaining_ttc),
        compromised=set(state.compromised),
        enabled=set(state.enabled),
        captured_flags=set(),
        rng=None,
    )
    sync_derived(twin)
    assert type(state.surface) is set
    assert state.surface == twin.surface
    for name in ("compromised_bits", "enabled_bits"):
        got, want = getattr(state, name), getattr(twin, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert state.surface_version == twin.surface_version == 1
    assert not state.enabled_bits.flags.writeable
    assert state.compromised_bits.flags.writeable
    # no observation bits yet: the first observe builds them from the
    # thresholds the truth selects
    assert state.bits_block is None and state.noise_row == NOISE_ROWS


def _play(state):
    """Work the lowest step on the surface each time-step and, every third
    step once a step has fallen, enable a defense (one that uncompromises a
    step if there is one) until the episode ends. Returns the largest
    compromised set."""
    graph = state.graph
    most = set(state.compromised)
    while state.surface:
        defense = None
        if len(most) > 1 and state.t % 3 == 2:
            disabled = [d for d in graph.defense_ids if d not in state.enabled]
            cutting = _cutting_defenses(graph, state, disabled)
            defense = (cutting or disabled or [None])[0]
        step(state, min(state.surface), defense)
        if len(state.compromised) > len(most):
            most = set(state.compromised)
    return most


class TestEntrySnapshot:
    def test_episodes_start_from_the_rebuilt_entry_state(self):
        enabled_any = False
        for g in _snapshot_graphs():
            rewards = default_rewards(g)
            for noise in SNAPSHOT_NOISES:
                state = init_episode(g, noise, rewards, seed=3)
                assert state.compromised == {g.entry_id}
                assert state.enabled == set()
                _assert_matches_rebuild(state)
                assert len(_play(state)) > 1
                enabled_any = enabled_any or bool(state.enabled)
                # the episode's enables and compromises left the next
                # episode's start untouched
                fresh = init_episode(g, noise, rewards, seed=4)
                assert fresh.compromised == {g.entry_id}
                assert fresh.enabled == set()
                _assert_matches_rebuild(fresh)
                # one read-only all-zero enabled vector shared by every start
                assert fresh.enabled_bits is init_episode(g, noise, rewards, seed=5).enabled_bits
        assert enabled_any

    def test_graph_copies_build_their_own_snapshot(self, four_ways_graph):
        rewards = default_rewards(four_ways_graph)
        original = init_episode(four_ways_graph, NO_NOISE, rewards, seed=1)
        for copy in (pickle.loads(pickle.dumps(four_ways_graph, protocol=p)) for p in (2, 4, 5)):
            state = init_episode(copy, NO_NOISE, rewards, seed=1)
            _assert_matches_rebuild(state)
            assert state.enabled_bits is not original.enabled_bits
            assert state.remaining_ttc == original.remaining_ttc

