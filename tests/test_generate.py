import math

import pytest

from attacksim.generate import GenConfig, generate
from attacksim.graph import GraphFormatError, save_graph, validate

from conftest import reachable_oracle


class TestGenConfig:
    def test_size_must_be_multiple_of_20(self):
        with pytest.raises(ValueError):
            GenConfig(num_attack_steps=30, seed=1)
        with pytest.raises(ValueError):
            GenConfig(num_attack_steps=0, seed=1)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            GenConfig(num_attack_steps=20, seed=1, and_fraction=1.5)
        with pytest.raises(ValueError):
            GenConfig(num_attack_steps=20, seed=1, extra_parent_prob=-0.1)
        with pytest.raises(ValueError):
            GenConfig(num_attack_steps=20, seed=-1)

    @pytest.mark.parametrize("bounds", [(1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)])
    def test_non_finite_ttc_range_rejected(self, bounds):
        with pytest.raises(ValueError, match="ttc_mean_range"):
            GenConfig(num_attack_steps=20, seed=1, ttc_mean_range=bounds)

    def test_ttc_sum_beyond_float_range_rejected(self):
        config = GenConfig(num_attack_steps=20, seed=1, ttc_mean_range=(1e308, 1e308))
        with pytest.raises(GraphFormatError, match="the TTCs sum to inf"):
            generate(config)


class TestGenerate:
    def test_size_20_has_one_guarded_flag(self):
        g = generate(GenConfig(num_attack_steps=20, seed=1))
        assert g.num_attack_steps == 20
        assert len(g.flag_ids) == 1
        assert g.num_defense_steps == 1
        assert g.parent_rules[g.flag_ids[0]][2] == (g.defense_ids[0],)

    def test_size_80_has_four_guarded_flags(self):
        g = generate(GenConfig(num_attack_steps=80, seed=1))
        assert len(g.flag_ids) == 4
        assert g.num_defense_steps == 4
        guards = {g.parent_rules[fid][2][0] for fid in g.flag_ids}
        assert len(guards) == 4, "each flag must have its own defense"

    @pytest.mark.parametrize("size", [20, 40, 60, 80])
    def test_generated_graphs_are_valid(self, size):
        g = generate(GenConfig(num_attack_steps=size, seed=3))
        assert validate(g) == []
        assert sum(1 for s in g.attack_steps if s.is_entry) == 1
        entry = next(s for s in g.attack_steps if s.is_entry)
        assert entry.ttc_mean == 0.0

    def test_determinism_byte_identical(self):
        config = GenConfig(num_attack_steps=40, seed=99)
        assert save_graph(generate(config)) == save_graph(generate(config))

    def test_different_seeds_differ(self):
        a = generate(GenConfig(num_attack_steps=40, seed=1))
        b = generate(GenConfig(num_attack_steps=40, seed=2))
        assert save_graph(a) != save_graph(b)

    def test_and_steps_have_at_least_two_parents(self):
        for seed in range(5):
            g = generate(GenConfig(num_attack_steps=60, seed=seed, and_fraction=0.6))
            for step in g.attack_steps:
                if step.logic == "and":
                    assert len(g.parent_rules[step.id][0]) >= 2

    def test_flags_reachable_ignoring_defenses(self):
        for seed in range(5):
            g = generate(GenConfig(num_attack_steps=40, seed=seed))
            reachable = reachable_oracle(g, g.entry_id)
            for fid in g.flag_ids:
                assert fid in reachable

    def test_generation_under_a_second_per_size(self):
        import time

        for size in (20, 40, 60, 80):
            start = time.perf_counter()
            generate(GenConfig(num_attack_steps=size, seed=2))
            assert time.perf_counter() - start < 1.0

    def test_ttc_within_range_one_decimal(self):
        g = generate(GenConfig(num_attack_steps=20, seed=5, ttc_mean_range=(2.0, 4.0)))
        for step in g.attack_steps:
            if step.is_entry:
                continue
            assert 2.0 <= step.ttc_mean <= 4.0
            assert round(step.ttc_mean, 1) == step.ttc_mean
