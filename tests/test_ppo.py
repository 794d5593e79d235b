import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from attacksim import engine, ppo
from attacksim.graph import default_rewards
from attacksim.engine import CONTEXT_INIT, NoiseConfig, Observation, run_episode
from attacksim.defenders import learned_select
from attacksim.attackers import make_attacker
from attacksim.ppo import (
    AdamMoments,
    HyperParams,
    PolicyParams,
    TrajectoryBatch,
    forward,
    gae_advantages,
    init_params,
    load_policy,
    masked_log_softmax,
    ppo_loss,
    ppo_loss_and_grads,
    save_policy,
    sgd_update,
    train,
)

from conftest import JSON_LEAVES, JSON_VALUES, masked_log_softmax_oracle


def zero_params(num_attack=3, num_defense=2, hidden=(4, 4)):
    params = init_params(num_attack, num_defense, np.random.default_rng(0), hidden=hidden)
    for arr in params.arrays().values():
        arr[...] = 0.0
    return params


def make_batch(
    params: PolicyParams,
    rng: np.random.Generator,
    n: int = 12,
    behavior: PolicyParams | None = None,
    hp: HyperParams | None = None,
    legal: np.ndarray | None = None,
) -> TrajectoryBatch:
    """Synthetic whole-episode batch; log-probs and value estimates come from
    the behavior params (defaults to `params` itself, giving ratio 1). The
    legal mask is drawn at random unless given."""
    behavior = behavior or params
    hp = hp or HyperParams()
    obs = rng.integers(0, 2, size=(n, params.input_dim)).astype(np.float64)
    if legal is None:
        legal = np.ones((n, params.action_dim), dtype=bool)
        for i in range(n):
            for j in range(params.action_dim - 1):
                legal[i, j] = rng.random() < 0.7
    logits, values = forward(behavior, obs)
    probs, logp_all = masked_log_softmax(logits, legal)
    actions = np.array(
        [ppo._draw(probs[i].cumsum(), legal[i], rng) for i in range(n)], dtype=np.int64
    )
    rewards = -rng.random(n) * 3.0
    dones = rng.random(n) < 0.3
    dones[-1] = True
    batch = TrajectoryBatch(
        obs=obs,
        actions=actions,
        logp_old=logp_all[np.arange(n), actions],
        rewards=rewards,
        values_old=values,
        dones=dones,
        legal=legal,
        probs_old=probs,
    )
    batch.finalize(hp.gamma, hp.gae_lambda)
    return batch


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        params = zero_params()
        logits, value = forward(params, np.zeros(5))
        assert np.all(logits == 0.0)
        assert value == 0.0
        logits, value = forward(params, np.ones(5))
        assert np.all(logits == 0.0)
        assert value == 0.0

    def test_hidden_unit_permutation_invariance(self):
        params = init_params(3, 2, np.random.default_rng(5), hidden=(6, 6))
        x = np.random.default_rng(1).random(5)
        base_logits, base_value = forward(params, x)
        # swap hidden units 0 and 2 of the first layer together with their
        # incoming and outgoing weights
        swapped = params.copy()
        for arr, axis in ((swapped.w1, 1), (swapped.b1, 0), (swapped.w2, 0)):
            idx = [2, 1, 0, 3, 4, 5]
            if axis == 0:
                arr[...] = arr[idx]
            else:
                arr[...] = arr[:, idx]
        logits, value = forward(swapped, x)
        assert np.allclose(logits, base_logits, atol=1e-12)
        assert value == pytest.approx(base_value, abs=1e-12)

    def test_matches_manual_matrix_arithmetic(self):
        # 2-2-2 network with hand-set weights, checked against an explicit
        # loop evaluation
        params = PolicyParams(
            num_attack_steps=1,
            num_defense_steps=1,
            w1=np.array([[0.1, -0.2], [0.3, 0.4]]),
            b1=np.array([0.05, -0.1]),
            w2=np.array([[0.7, 0.2], [-0.5, 0.6]]),
            b2=np.array([0.0, 0.1]),
            wp=np.array([[1.0, -1.0], [0.5, 0.25]]),
            bp=np.array([0.2, -0.2]),
            wv=np.array([[0.3], [-0.4]]),
            bv=np.array([0.15]),
        )
        x = np.array([0.6, -1.2])

        def dot(vec, mat, bias):
            out = []
            for j in range(mat.shape[1]):
                acc = bias[j]
                for i in range(len(vec)):
                    acc += vec[i] * mat[i, j]
                out.append(acc)
            return out

        h1 = [np.tanh(v) for v in dot(x, params.w1, params.b1)]
        h2 = [np.tanh(v) for v in dot(h1, params.w2, params.b2)]
        expected_logits = dot(h2, params.wp, params.bp)
        expected_value = dot(h2, params.wv, params.bv)[0]

        logits, value = forward(params, x)
        assert np.allclose(logits, expected_logits, atol=1e-12)
        assert value == pytest.approx(expected_value, abs=1e-12)

    def test_single_row_equals_batched_row(self):
        # a 1-D input runs as 1-D; its outputs are bit-identical to row 0 of
        # the same input as a one-row batch
        rng = np.random.default_rng(11)
        for num_attack, num_defense in ((1, 1), (4, 4), (20, 5), (80, 8), (250, 9)):
            params = init_params(num_attack, num_defense, rng)
            for x in (
                rng.integers(0, 2, params.input_dim).astype(np.float64),
                rng.standard_normal(params.input_dim),
            ):
                logits, value = forward(params, x)
                batch_logits, batch_values = forward(params, x[None, :])
                assert logits.shape == (params.action_dim,)
                assert np.array_equal(logits, batch_logits[0])
                assert type(value) is float
                assert value == batch_values[0]

    def test_shape_mismatch_rejected(self):
        params = zero_params()
        with pytest.raises(ValueError, match="input width"):
            forward(params, np.zeros(4))


class TestMaskedSoftmax:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_normalization_and_illegal_mass(self, data):
        n = data.draw(st.integers(2, 6))
        logits = np.array(
            [data.draw(st.floats(-30, 30, allow_nan=False)) for _ in range(n)]
        )
        legal = np.array([data.draw(st.booleans()) for _ in range(n - 1)] + [True])
        probs, logp = masked_log_softmax(logits, legal)
        assert probs[legal].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs[~legal] < 1e-12)
        assert np.all(np.isneginf(logp[~legal]))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_reference_formula(self, data):
        rows = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(1, 8))
        shape = (rows, n) if rows else (n,)
        logits = data.draw(arrays(np.float64, shape, elements=st.floats(-1e4, 1e4)))
        legal = data.draw(arrays(bool, shape))
        legal[..., -1] = True  # the no-op
        if data.draw(st.booleans()):
            legal[..., :-1] = False  # the no-op is the only legal action
        probs, logp = masked_log_softmax(logits, legal)
        ref_probs, ref_logp = masked_log_softmax_oracle(logits, legal)
        assert np.array_equal(probs, ref_probs)
        assert np.array_equal(logp, ref_logp)

    def test_learned_select_legal_layout(self):
        # one entry per defense in index order (legal where its bit is 0),
        # then the always-legal no-op
        params = init_params(2, 3, np.random.default_rng(0))
        obs = Observation(
            attack_bits=np.array([1, 0], dtype=np.uint8),
            defense_bits=np.array([1, 0, 1], dtype=np.uint8),
        )
        legal = np.array([False, True, False, True])
        for mode in ("sample", "greedy"):
            decision = learned_select(obs, params, legal, np.random.default_rng(1), mode)
            assert decision.legal.dtype == bool
            assert decision.legal.tolist() == [False, True, False, True]
            assert decision.probs[~decision.legal].tolist() == [0.0, 0.0]
            assert decision.action in (1, 3)


class TestGae:
    def test_lambda_zero_is_td_residual(self):
        rewards = np.array([-1.0, -2.0, -3.0])
        values = np.array([1.0, 2.0, 3.0])
        dones = np.array([False, False, True])
        adv, ret = gae_advantages(rewards, values, dones, gamma=0.9, gae_lambda=0.0)
        expected = [
            -1.0 + 0.9 * 2.0 - 1.0,
            -2.0 + 0.9 * 3.0 - 2.0,
            -3.0 - 3.0,
        ]
        assert np.allclose(adv, expected)
        assert np.allclose(ret, adv + values)

    def test_monte_carlo_case(self):
        rewards = np.array([1.0, 2.0, 3.0, 4.0])
        values = np.zeros(4)
        dones = np.array([False, False, False, True])
        adv, _ = gae_advantages(rewards, values, dones, gamma=1.0, gae_lambda=1.0)
        assert np.allclose(adv, [10.0, 9.0, 7.0, 4.0])

    def test_hand_unrolled_three_step_trace(self):
        # recursion unrolled by hand for r=[-1,-1,-31], V=[-20,-25,-30],
        # gamma=0.99, lambda=0.95:
        #   d2 = -31 + 30 = -1
        #   d1 = -1 + 0.99*(-30) + 25 = -5.7
        #   d0 = -1 + 0.99*(-25) + 20 = -5.75
        #   A2 = -1
        #   A1 = -5.7 + 0.9405*(-1) = -6.6405
        #   A0 = -5.75 + 0.9405*(-6.6405) = -11.99539025
        rewards = np.array([-1.0, -1.0, -31.0])
        values = np.array([-20.0, -25.0, -30.0])
        dones = np.array([False, False, True])
        adv, ret = gae_advantages(rewards, values, dones, gamma=0.99, gae_lambda=0.95)
        assert np.allclose(adv, [-11.99539025, -6.6405, -1.0])
        assert np.allclose(ret, [-31.99539025, -31.6405, -31.0])

    def test_resets_across_episode_boundaries(self):
        rewards = np.array([-1.0, -1.0, -1.0, -1.0])
        values = np.zeros(4)
        dones = np.array([False, True, False, True])
        adv, _ = gae_advantages(rewards, values, dones, gamma=1.0, gae_lambda=1.0)
        assert np.allclose(adv, [-2.0, -1.0, -2.0, -1.0])


class TestTruncationBootstrap:
    def test_hand_unrolled_cut_episode(self):
        # rows 0-1 are one episode cut at the cap with V(s_T) = 5, row 2 one
        # that ended; r=[-1,-2,-3], V=[1,2,3], gamma=0.9, lambda=0.5:
        #   d2 = -3 - 3 = -6                A2 = -6
        #   d1 = -2 + 0.9*5 - 2 = 0.5       A1 = 0.5
        #   d0 = -1 + 0.9*2 - 1 = -0.2      A0 = -0.2 + 0.45*0.5 = 0.025
        rewards = np.array([-1.0, -2.0, -3.0])
        values = np.array([1.0, 2.0, 3.0])
        dones = np.array([False, True, True])
        adv, ret = gae_advantages(
            rewards, values, dones, gamma=0.9, gae_lambda=0.5, bootstrap=np.array([0.0, 5.0, 0.0])
        )
        assert np.allclose(adv, [0.025, 0.5, -6.0])
        assert np.allclose(ret, [1.025, 2.5, -3.0])

    def test_collect_batch_bootstraps_only_episodes_cut_at_the_cap(self, four_ways_graph, monkeypatch):
        g = four_ways_graph
        monkeypatch.setattr(engine, "default_step_cap", lambda graph: 9)
        params = init_params(g.num_attack_steps, g.num_defense_steps, np.random.default_rng(4))
        hp = HyperParams(train_batch=200, gamma=0.9, gae_lambda=0.5)
        attacker, noise, rewards = make_attacker("dfs"), NoiseConfig(0.1, 0.1), default_rewards(g)
        batch, stats = ppo.collect_batch(g, params, attacker, noise, rewards, hp, seed=3, first_episode=0)
        row, cut, ended = 0, 0, 0
        for episode in range(stats["episodes"]):
            defender = ppo.LearnedDefender(params)
            record = run_episode(
                g, attacker, defender, noise, rewards, 3, episode=episode, context=engine.CONTEXT_TRAIN
            )
            # the bootstrap value draws nothing: the batch holds this replay's decisions
            assert batch.actions[row : row + record.length].tolist() == [d.action for d in defender.decisions]
            row += record.length
            last = row - 1
            if record.truncated:
                cut += 1
                bootstrap = forward(params, record.steps[-1].obs.vector())[1]
                assert bootstrap != 0.0
                assert batch.returns[last] == pytest.approx(batch.rewards[last] + 0.9 * bootstrap, abs=1e-12)
            else:
                ended += 1
                assert batch.returns[last] == pytest.approx(batch.rewards[last], abs=1e-12)
        assert row == len(batch) and cut > 0 and ended > 0


class TestPpoLoss:
    def test_identity_ratio_when_params_unchanged(self):
        rng = np.random.default_rng(3)
        params = init_params(3, 2, rng, hidden=(4, 4))
        batch = make_batch(params, rng)
        hp = HyperParams()
        loss, diag = ppo_loss(params, batch, hp)
        assert diag["policy_loss"] == pytest.approx(-batch.advantages.mean(), abs=1e-10)
        assert diag["approx_kl"] == pytest.approx(0.0, abs=1e-12)
        assert diag["clip_fraction"] == 0.0
        assert np.isfinite(loss)

    def test_hand_clip_single_sample(self):
        # one sample with ratio 1.5, advantage 2, eps 0.02:
        # min(1.5*2, 1.02*2) = 2.04, policy term -2.04
        params = zero_params()
        obs = np.zeros((1, params.input_dim))
        legal = np.ones((1, params.action_dim), dtype=bool)
        logits, values = forward(params, obs)
        probs, logp_all = masked_log_softmax(logits, legal)
        batch = TrajectoryBatch(
            obs=obs,
            actions=np.array([0]),
            logp_old=logp_all[[0], [0]] - np.log(1.5),
            rewards=np.array([0.0]),
            values_old=values,
            dones=np.array([True]),
            legal=legal,
            probs_old=probs,
            advantages=np.array([2.0]),
            returns=values.copy(),
        )
        _, diag = ppo_loss(params, batch, HyperParams(clip_eps=0.02))
        assert diag["policy_loss"] == pytest.approx(-2.04)
        assert diag["clip_fraction"] == 1.0

    def test_eps_zero_fully_clips_large_ratios(self):
        params = zero_params()
        obs = np.zeros((1, params.input_dim))
        legal = np.ones((1, params.action_dim), dtype=bool)
        logits, values = forward(params, obs)
        probs, logp_all = masked_log_softmax(logits, legal)
        batch = TrajectoryBatch(
            obs=obs,
            actions=np.array([0]),
            logp_old=logp_all[[0], [0]] - np.log(3.0),  # ratio 3 > 1
            rewards=np.array([0.0]),
            values_old=values,
            dones=np.array([True]),
            legal=legal,
            probs_old=probs,
            advantages=np.array([1.5]),
            returns=values.copy(),
        )
        _, diag = ppo_loss(params, batch, HyperParams(clip_eps=0.0))
        # min(r, 1) * adv with r=3 degenerates to adv itself
        assert diag["policy_loss"] == pytest.approx(-1.5)

    def test_clip_invariant_to_scaling_ratio_beyond_bounds(self):
        params = zero_params()
        obs = np.zeros((1, params.input_dim))
        legal = np.ones((1, params.action_dim), dtype=bool)
        logits, values = forward(params, obs)
        probs, logp_all = masked_log_softmax(logits, legal)

        def policy_term(ratio):
            batch = TrajectoryBatch(
                obs=obs,
                actions=np.array([0]),
                logp_old=logp_all[[0], [0]] - np.log(ratio),
                rewards=np.array([0.0]),
                values_old=values,
                dones=np.array([True]),
                legal=legal,
                probs_old=probs,
                advantages=np.array([2.0]),
                returns=values.copy(),
            )
            _, diag = ppo_loss(params, batch, HyperParams(clip_eps=0.02))
            return diag["policy_loss"]

        assert policy_term(1.5) == pytest.approx(policy_term(4.0))
        assert policy_term(1.5) == pytest.approx(-2.04)

    def test_kl_non_negative_on_large_batches(self):
        rng = np.random.default_rng(9)
        behavior = init_params(3, 2, rng, hidden=(8, 8))
        current = behavior.copy()
        for arr in current.arrays().values():
            arr += rng.normal(scale=0.05, size=arr.shape)
        batch = make_batch(current, rng, n=512, behavior=behavior)
        hp = HyperParams(k_kl=1.0)
        logits, _ = forward(current, batch.obs)
        probs, logp_all = masked_log_softmax(logits, batch.legal)
        with np.errstate(divide="ignore"):
            logp_old_all = np.where(batch.probs_old > 0, np.log(batch.probs_old), 0.0)
        logp_cur = np.where(batch.probs_old > 0, logp_all, 0.0)
        kl = (batch.probs_old * (logp_old_all - logp_cur)).sum(axis=-1).mean()
        assert kl >= -1e-10

    def test_non_finite_inputs_raise(self):
        rng = np.random.default_rng(4)
        params = init_params(3, 2, rng, hidden=(4, 4))
        batch = make_batch(params, rng)
        batch.advantages[0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            ppo_loss(params, batch, HyperParams())


def fd_gradients(params, batch, hp, h=1e-5):
    """Central finite differences of ppo_loss over every parameter."""
    grads = {}
    for name, arr in params.arrays().items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = ppo_loss(params, batch, hp)
            flat[i] = orig - h
            down, _ = ppo_loss(params, batch, hp)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, b = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


class TestGradients:
    def test_gradcheck_with_entropy_and_kl_terms(self):
        rng = np.random.default_rng(77)
        params = init_params(2, 3, rng, hidden=(5, 4))
        behavior = params.copy()
        for arr in behavior.arrays().values():
            arr += rng.normal(scale=0.1, size=arr.shape)
        hp = HyperParams(k_s=0.05, k_kl=2.0, k_vf=0.5, clip_eps=0.2)
        batches = [make_batch(params, rng, n=16, behavior=behavior, hp=hp)]
        # the one-legal-action corner: in every other row only the no-op is
        # legal, so logp is -inf on all of that row's other actions
        only_noop = batches[0].legal.copy()
        only_noop[::2, :-1] = False
        batches.append(make_batch(params, rng, n=16, behavior=behavior, hp=hp, legal=only_noop))
        for batch in batches:
            _, _, analytic = ppo_loss_and_grads(params, batch, hp)
            numeric = fd_gradients(params, batch, hp)
            assert max_rel_error(analytic, numeric) < 1e-4


class TestClipKinks:
    """At the kink of a clipped term, where unclipped == clipped exactly,
    the gradient is the one-sided derivative from inside the clip range,
    and the derivative from outside it is zero."""

    H = 1e-6

    @staticmethod
    def one_row(seed):
        rng = np.random.default_rng(seed)
        params = init_params(3, 2, rng, hidden=(4, 3))
        batch = make_batch(params, rng, n=1, legal=np.ones((1, 3), dtype=bool))
        return params, batch

    @staticmethod
    def one_sided(params, batch, hp, name, index, h):
        """(loss(theta + h e) - loss(theta)) / h along one parameter entry."""
        arr = getattr(params, name)
        base, _ = ppo_loss(params, batch, hp)
        orig = arr.flat[index]
        arr.flat[index] = orig + h
        moved, _ = ppo_loss(params, batch, hp)
        arr.flat[index] = orig
        return (moved - base) / h

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_policy_ratio_at_the_clip_bound(self, side):
        # side +1: advantage > 0 at ratio 1 + eps; side -1: advantage < 0
        # at ratio 1 - eps. Raising bp[action] raises the ratio.
        params, batch = self.one_row(31)
        batch.advantages = np.array([0.7 * side])
        batch.logp_old = batch.logp_old - 0.1 * side
        ratio = ppo._loss_pieces(params, batch, HyperParams())[2][6][0]
        eps = side * (ratio - 1.0)
        hp = HyperParams(clip_eps=eps, k_vf=0.0, k_s=0.0, k_kl=0.0)
        assert ratio == 1.0 + side * hp.clip_eps
        action = int(batch.actions[0])
        _, _, grads = ppo_loss_and_grads(params, batch, hp)
        analytic = grads["bp"][action]
        inside = self.one_sided(params, batch, hp, "bp", action, -side * self.H)
        outside = self.one_sided(params, batch, hp, "bp", action, side * self.H)
        assert abs(analytic) > 1e-3
        assert analytic == pytest.approx(inside, rel=1e-4)
        assert outside == 0.0

    def test_value_error_at_vf_clip(self):
        # zero advantage silences the policy term; the value sits 3 above
        # its return, so raising bv raises the squared error
        params, batch = self.one_row(32)
        batch.advantages = np.array([0.0])
        values = ppo._loss_pieces(params, batch, HyperParams())[2][3]
        batch.returns = values - 3.0
        verr = float(((values - batch.returns) ** 2)[0])
        hp = HyperParams(vf_clip=verr, k_vf=1.0, k_s=0.0, k_kl=0.0)
        _, _, grads = ppo_loss_and_grads(params, batch, hp)
        analytic = grads["bv"][0]
        inside = self.one_sided(params, batch, hp, "bv", 0, -self.H)
        outside = self.one_sided(params, batch, hp, "bv", 0, self.H)
        assert analytic == pytest.approx(6.0, rel=1e-9)
        assert analytic == pytest.approx(inside, rel=1e-4)
        assert outside == 0.0


class TestSgdUpdate:
    def test_lr_zero_leaves_params_unchanged(self):
        rng = np.random.default_rng(6)
        params = init_params(3, 2, rng, hidden=(4, 4))
        batch = make_batch(params, rng)
        updated = sgd_update(
            params, batch, HyperParams(lr=0.0, minibatch=4), rng, AdamMoments(params)
        )
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, getattr(updated, name))

    def test_input_params_not_mutated(self):
        rng = np.random.default_rng(6)
        params = init_params(3, 2, rng, hidden=(4, 4))
        snapshot = {k: v.copy() for k, v in params.arrays().items()}
        batch = make_batch(params, rng)
        sgd_update(params, batch, HyperParams(lr=0.1, minibatch=4), rng, AdamMoments(params))
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, snapshot[name])

    def test_loss_decreases_on_frozen_batch(self):
        rng = np.random.default_rng(8)
        params = init_params(3, 2, rng, hidden=(8, 8))
        behavior = params.copy()
        batch = make_batch(params, rng, n=64, behavior=behavior)
        hp = HyperParams(lr=1e-2, minibatch=16)
        first, _ = ppo_loss(params, batch, hp)
        moments = AdamMoments(params)
        for _ in range(50):
            params = sgd_update(params, batch, hp, rng, moments)
        last, _ = ppo_loss(params, batch, hp)
        assert last < first

    def test_two_adam_steps_by_hand(self, monkeypatch):
        # every gradient entry reads 2.0 on the first step and -1.0 on the
        # second; one minibatch per call, so two calls are two steps
        rng = np.random.default_rng(9)
        params = init_params(3, 2, rng, hidden=(4, 4))
        batch = make_batch(params, rng, n=8)
        gradients = iter((2.0, -1.0))

        def fixed_grads(current, mb, hp):
            g = next(gradients)
            return 0.0, {}, {name: np.full_like(a, g) for name, a in current.arrays().items()}

        monkeypatch.setattr(ppo, "ppo_loss_and_grads", fixed_grads)
        hp = HyperParams(lr=0.1, minibatch=8)
        moments = AdamMoments(params)
        updated = sgd_update(sgd_update(params, batch, hp, rng, moments), batch, hp, rng, moments)
        # step 1: m = 0.1 * 2 = 0.2, v = 0.001 * 4 = 0.004, so m_hat = 2, v_hat = 4
        # step 2: m = 0.9 * 0.2 + 0.1 * -1 = 0.08, v = 0.999 * 0.004 + 0.001 * 1
        #         = 0.004996, so m_hat = 0.08 / 0.19, v_hat = 0.004996 / 0.001999
        step1 = 0.1 * 2.0 / (2.0 + 1e-5)
        step2 = 0.1 * (0.08 / 0.19) / (math.sqrt(0.004996 / 0.001999) + 1e-5)
        assert moments.steps == 2
        for name, arr in params.arrays().items():
            assert getattr(updated, name) == pytest.approx(arr - step1 - step2, rel=1e-12, abs=1e-14)
            assert moments.first[name] == pytest.approx(np.full_like(arr, 0.08), rel=1e-12)
            assert moments.second[name] == pytest.approx(np.full_like(arr, 0.004996), rel=1e-12)


class TestTrain:
    def test_zero_iterations_returns_init(self, toy_graph):
        hp = HyperParams(iterations=0)
        params, curve = train(
            toy_graph,
            make_attacker("random"),
            NoiseConfig(0.0, 0.0),
            default_rewards(toy_graph),
            hp,
            seed=1,
        )
        assert curve == []
        fresh = init_params(
            toy_graph.num_attack_steps,
            toy_graph.num_defense_steps,
            np.random.default_rng(np.random.SeedSequence((1, CONTEXT_INIT))),
        )
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, getattr(fresh, name))

    def test_same_seed_bitwise_identical(self, toy_graph):
        hp = HyperParams(train_batch=64, minibatch=32, iterations=3)

        def run():
            return train(
                toy_graph,
                make_attacker("random"),
                NoiseConfig(0.1, 0.1),
                default_rewards(toy_graph),
                hp,
                seed=5,
            )

        params_a, curve_a = run()
        params_b, curve_b = run()
        assert curve_a == curve_b
        for name, arr in params_a.arrays().items():
            assert np.array_equal(arr, getattr(params_b, name))

    def test_curve_has_expected_fields(self, toy_graph):
        hp = HyperParams(train_batch=32, minibatch=16, iterations=2)
        _, curve = train(
            toy_graph,
            make_attacker("random"),
            NoiseConfig(0.0, 0.0),
            default_rewards(toy_graph),
            hp,
            seed=2,
        )
        assert len(curve) == 2
        assert curve[0].iteration == 0
        assert curve[0].mean_episode_reward <= 0.0
        assert 0.0 <= curve[0].mean_flags_captured <= 1.0


class TestPolicyFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        params = init_params(3, 2, rng, hidden=(4, 4))
        path = tmp_path / "policy.json"
        save_policy(params, path, seed=7, hp=HyperParams())
        loaded = load_policy(path)
        assert loaded.num_attack_steps == 3
        assert loaded.num_defense_steps == 2
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, getattr(loaded, name))

    def test_header_recorded(self, tmp_path):
        import json

        params = zero_params()
        path = tmp_path / "policy.json"
        save_policy(params, path, seed=3, hp=HyperParams(lr=0.5))
        doc = json.loads(path.read_text())
        assert doc["num_attack_steps"] == 3
        assert doc["hidden_layers"] == [4, 4]
        assert doc["seed"] == 3
        assert doc["hyperparams"]["lr"] == 0.5

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"num_attack_steps": 3}')
        with pytest.raises(ValueError, match="malformed policy file"):
            load_policy(path)

    def test_non_json_file_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a policy\n")
        with pytest.raises(ValueError, match=f"malformed policy file {re.escape(str(path))}: "):
            load_policy(path)

    def test_weight_shape_must_match_header(self, tmp_path):
        import json

        path = tmp_path / "policy.json"
        save_policy(zero_params(), path)
        doc = json.loads(path.read_text())
        # a w1 with one extra row: 6 inputs under a header of |A|+|D| = 5
        doc["weights"]["w1"] = {"shape": [6, 4], "data": [0.0] * 24}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed policy file.*w1"):
            load_policy(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected_naming_the_array(self, tmp_path, bad):
        import json

        path = tmp_path / "policy.json"
        save_policy(zero_params(), path)
        doc = json.loads(path.read_text())
        doc["weights"]["bp"]["data"][1] = bad  # written as NaN / Infinity
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed policy file.*weight bp has a non-finite"):
            load_policy(path)


# a valid policy document for |A|=2, |D|=1 and hidden layers (1, 1)
_POLICY_DOC = {
    "num_attack_steps": 2,
    "num_defense_steps": 1,
    "hidden_layers": [1, 1],
    "seed": None,
    "hyperparams": None,
    "weights": {
        name: {"shape": list(shape), "data": [0.5] * math.prod(shape)}
        for name, shape, _ in ppo.weight_table(2, 1, (1, 1))
    },
}
_WEIGHT_NAMES = sorted(_POLICY_DOC["weights"])
_HOSTILE = st.one_of(JSON_VALUES, st.lists(st.integers(-1, 3), max_size=3))
# a data entry: any JSON leaf, with booleans and integers beyond float range
# drawn often
_HOSTILE_NUMBER = st.one_of(st.sampled_from([True, False, 10**400, -(10**309)]), JSON_LEAVES)
_SITES = ["num_attack_steps", "num_defense_steps", "hidden_layers", "weights", "entry", "shape", "data", "value"]


@st.composite
def _policy_shaped(draw):
    """The valid document with a hostile value put in at one or two sites:
    a header field, the weights object, one weight's entry, shape or data
    list, or one entry of a data list."""
    doc = json.loads(json.dumps(_POLICY_DOC))
    weights = doc["weights"]
    sites = draw(st.sets(st.sampled_from(_SITES), min_size=1, max_size=2))
    # innermost site first, so no edit lands inside a value already replaced
    for site in reversed(_SITES):
        if site not in sites:
            continue
        name = draw(st.sampled_from(_WEIGHT_NAMES))
        if site == "value":
            data = weights[name]["data"]
            data[draw(st.integers(0, len(data) - 1))] = draw(_HOSTILE_NUMBER)
        elif site in ("shape", "data"):
            weights[name][site] = draw(_HOSTILE)
        elif site == "entry":
            weights[name] = draw(_HOSTILE)
        else:
            doc[site] = draw(_HOSTILE)
    return doc


class TestPolicyFileFuzz:
    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc["weights"]["w1"]["data"].__setitem__(0, 10**400), "weight w1 "),
            (lambda doc: doc.__setitem__("hidden_layers", [4]), "hidden_layers "),
            (lambda doc: doc.__setitem__("hidden_layers", 4), "hidden_layers "),
            (lambda doc: doc["weights"]["bp"]["data"].__setitem__(1, True), "weight bp "),
            (lambda doc: doc["weights"].__setitem__("wv", [0.5]), "weight wv "),
            (lambda doc: doc["weights"]["bv"].__setitem__("shape", [True]), "weight bv "),
        ],
        ids=["huge-integer", "one-hidden-layer", "hidden-layers-integer", "boolean-weight",
             "entry-not-object", "boolean-shape"],
    )
    def test_each_defect_names_its_field(self, tmp_path, edit, field):
        doc = json.loads(json.dumps(_POLICY_DOC))
        edit(doc)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^malformed policy file {re.escape(str(path))}: {field}"):
            load_policy(path)

    def test_top_level_list_names_the_document(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps([_POLICY_DOC]))
        with pytest.raises(ValueError, match=": top-level document must be an object, got list$"):
            load_policy(path)

    def test_base_document_loads(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(_POLICY_DOC))
        assert load_policy(path).hidden_dims == (1, 1)

    @given(doc=st.one_of(JSON_VALUES, _policy_shaped()))
    @settings(max_examples=200, deadline=None)
    def test_any_json_document_loads_or_raises_malformed_policy(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "policy-fuzz.json"
        path.write_text(json.dumps(doc))
        try:
            params = load_policy(path)
        except ValueError as exc:
            assert str(exc).startswith(f"malformed policy file {path}: ")
            return
        # loaded: every weight is the document's list of JSON numbers
        for name, shape, _ in ppo.weight_table(
            params.num_attack_steps, params.num_defense_steps, params.hidden_dims
        ):
            data = doc["weights"][name]["data"]
            assert all(type(v) in (int, float) for v in data)
            assert getattr(params, name).shape == shape
            assert getattr(params, name).ravel().tolist() == [float(v) for v in data]


class TestHyperParamDefaults:
    def test_default_table_values(self):
        hp = HyperParams()
        assert hp.k_vf == 1e-3
        assert hp.k_s == 0.0
        assert hp.k_kl == 1.0
        assert hp.train_batch == 2046
        assert hp.minibatch == 256
        assert hp.vf_clip == 500.0
        assert hp.clip_eps == 0.02
        assert hp.lr == 1e-4
        assert hp.iterations == 500

    @pytest.mark.parametrize(
        "field, value",
        [("train_batch", 0), ("minibatch", 0), ("minibatch", -4), ("iterations", -1)],
    )
    def test_out_of_range_counts_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            HyperParams(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lr", math.nan, "must be finite"),
            ("k_kl", math.inf, "must be finite"),
            ("vf_clip", -math.inf, "must be finite"),
            ("gamma", 1.5, r"must lie in \[0, 1\]"),
            ("gae_lambda", -0.1, r"must lie in \[0, 1\]"),
            ("clip_eps", -1.0, "must be >= 0"),
            ("lr", -1e-4, "must be >= 0"),
            ("vf_clip", -1.0, "must be >= 0"),
            ("k_vf", -1.0, "must be >= 0"),
            ("k_s", -0.01, "must be >= 0"),
            ("k_kl", -1.0, "must be >= 0"),
        ],
    )
    def test_bad_float_knobs_rejected_naming_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {message}"):
            HyperParams(**{field: value})

    def test_zero_knobs_stay_legal(self):
        HyperParams(lr=0.0, clip_eps=0.0, vf_clip=0.0, k_vf=0.0, k_s=0.0, k_kl=0.0, gamma=0.0, gae_lambda=1.0)

    def test_network_shape_for_graph(self, four_ways_graph):
        params = init_params(
            four_ways_graph.num_attack_steps,
            four_ways_graph.num_defense_steps,
            np.random.default_rng(0),
        )
        assert params.w1.shape == (17, 128)
        assert params.w2.shape == (128, 128)
        assert params.wp.shape == (128, 5)
        assert params.wv.shape == (128, 1)
