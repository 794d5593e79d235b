import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from attacksim import ppo
from attacksim.graph import default_rewards
from attacksim.engine import NoiseConfig, Observation
from attacksim.defenders import learned_select
from attacksim.attackers import make_attacker
from attacksim.ppo import (
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

from conftest import masked_log_softmax_oracle


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
        [ppo.sample_action(probs[i], legal[i], rng) for i in range(n)], dtype=np.int64
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
        for mode in ("sample", "greedy"):
            decision = learned_select(obs, params, np.random.default_rng(1), mode)
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
    def test_backprop_matches_finite_differences(self):
        # ten random small nets and batches; behavior params are perturbed
        # so ratio/clip paths are exercised
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            params = init_params(3, 2, rng, hidden=(4, 3))
            behavior = params.copy()
            for arr in behavior.arrays().values():
                arr += rng.normal(scale=0.05, size=arr.shape)
            hp = HyperParams(k_s=0.01 if trial % 2 else 0.0)
            batch = make_batch(params, rng, n=10, behavior=behavior, hp=hp)
            _, _, analytic = ppo_loss_and_grads(params, batch, hp)
            numeric = fd_gradients(params, batch, hp)
            assert max_rel_error(analytic, numeric) < 1e-4, f"trial {trial}"

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


class TestSgdUpdate:
    def test_lr_zero_leaves_params_unchanged(self):
        rng = np.random.default_rng(6)
        params = init_params(3, 2, rng, hidden=(4, 4))
        batch = make_batch(params, rng)
        updated = sgd_update(params, batch, HyperParams(lr=0.0, minibatch=4), rng)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, getattr(updated, name))

    def test_input_params_not_mutated(self):
        rng = np.random.default_rng(6)
        params = init_params(3, 2, rng, hidden=(4, 4))
        snapshot = {k: v.copy() for k, v in params.arrays().items()}
        batch = make_batch(params, rng)
        sgd_update(params, batch, HyperParams(lr=0.1, minibatch=4), rng)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, snapshot[name])

    def test_loss_decreases_on_frozen_batch(self):
        rng = np.random.default_rng(8)
        params = init_params(3, 2, rng, hidden=(8, 8))
        behavior = params.copy()
        batch = make_batch(params, rng, n=64, behavior=behavior)
        hp = HyperParams(lr=1e-2, minibatch=16)
        first, _ = ppo_loss(params, batch, hp)
        for _ in range(50):
            params = sgd_update(params, batch, hp, rng)
        last, _ = ppo_loss(params, batch, hp)
        assert last < first


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
            np.random.default_rng(np.random.SeedSequence((1, ppo._CTX_INIT))),
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
