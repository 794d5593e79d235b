import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attacksim.graph import (
    AttackGraph,
    AttackStep,
    DefenseStep,
    GraphFormatError,
    RewardConfig,
    attack_surface,
    bundled_graph,
    bundled_graph_names,
    flag_cost,
    load_graph,
    load_graph_file,
    save_graph,
    validate,
)

from attacksim.engine import NoiseConfig, init_episode
from attacksim.generate import GenConfig, generate

from conftest import JSON_LEAVES, JSON_VALUES, build_random_graph, reachable_oracle


_TTC_SUM_INF = (
    "attack_steps[*].ttc: the TTCs sum to inf, too large for the step cap and the flag cost"
)


def graph_of(steps, defenses=(), edges=()):
    return AttackGraph(
        attack_steps=tuple(steps),
        defense_steps=tuple(defenses),
        edges=frozenset(edges),
    )


def _overflowing_chain():
    """e -> a -> f: each TTC is finite, their sum is not."""
    return graph_of(
        [
            AttackStep(id="e", is_entry=True),
            AttackStep(id="a", ttc_mean=1e308),
            AttackStep(id="f", ttc_mean=1e308, is_flag=True),
        ],
        edges=[("e", "a"), ("a", "f")],
    )


class TestValidate:
    def test_minimal_valid_graph(self):
        g = graph_of(
            [
                AttackStep(id="e", is_entry=True),
                AttackStep(id="a"),
            ],
            edges=[("e", "a")],
        )
        assert validate(g) == []

    def test_two_entries(self):
        g = graph_of(
            [
                AttackStep(id="e1", is_entry=True),
                AttackStep(id="e2", is_entry=True),
            ],
            edges=[("e1", "e2")],
        )
        assert validate(g) == ["multiple entry steps"]

    def test_no_entry(self):
        g = graph_of([AttackStep(id="a")])
        assert "no entry step" in validate(g)

    def test_unreachable_flag_matches_bfs_oracle(self):
        g = graph_of(
            [
                AttackStep(id="e", is_entry=True),
                AttackStep(id="a"),
                AttackStep(id="f", is_flag=True),
            ],
            edges=[("e", "a")],
        )
        assert "f" not in reachable_oracle(g, "e")
        assert validate(g) == ["unreachable flag f"]

    def test_reachability_agrees_with_oracle_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = build_random_graph(rng)
            reachable = reachable_oracle(g, "n0")
            expected = sorted(
                f"unreachable flag {fid}" for fid in g.flag_ids if fid not in reachable
            )
            got = sorted(v for v in validate(g) if v.startswith("unreachable flag"))
            assert got == expected

    def test_entry_rules(self):
        g = graph_of(
            [AttackStep(id="e", is_entry=True, is_flag=True, ttc_mean=2.0)]
        )
        violations = validate(g)
        assert "entry step e has nonzero ttc_mean" in violations
        assert "entry step e is a flag" in violations

    def test_negative_ttc_and_bad_logic(self):
        g = graph_of(
            [
                AttackStep(id="e", is_entry=True),
                AttackStep(id="a", ttc_mean=-1.0, logic="xor"),
            ],
            edges=[("e", "a")],
        )
        violations = validate(g)
        assert "negative ttc_mean on a" in violations
        assert "unknown logic 'xor' on a" in violations

    def test_edge_violations(self):
        g = graph_of(
            [AttackStep(id="e", is_entry=True)],
            defenses=[DefenseStep(id="d")],
            edges=[("e", "e"), ("e", "ghost"), ("e", "d")],
        )
        violations = validate(g)
        assert "self-loop on e" in violations
        assert "edge (e, ghost) references unknown id" in violations
        assert "edge (e, d) targets a defense step" in violations

    def test_duplicate_and_shared_ids(self):
        g = graph_of(
            [AttackStep(id="e", is_entry=True), AttackStep(id="x")],
            defenses=[DefenseStep(id="x")],
            edges=[("e", "x")],
        )
        violations = validate(g)
        assert "duplicate id x" in violations
        assert "id x used for both an attack and a defense step" in violations

    def test_ttc_sum_too_large_for_the_step_cap(self):
        assert validate(_overflowing_chain()) == [_TTC_SUM_INF]

    def test_violations_are_deterministic(self):
        g = graph_of(
            [
                AttackStep(id="b", ttc_mean=-2.0),
                AttackStep(id="a", ttc_mean=-1.0),
            ]
        )
        assert validate(g) == validate(g)
        negatives = [v for v in validate(g) if "negative" in v]
        assert negatives == ["negative ttc_mean on a", "negative ttc_mean on b"]


class TestAttackSurface:
    def test_single_edge_or(self):
        g = graph_of(
            [AttackStep(id="e", is_entry=True), AttackStep(id="a")],
            edges=[("e", "a")],
        )
        assert attack_surface(g, {"e"}, set()) == {"a"}

    def test_and_step_requires_all_parents(self):
        g = graph_of(
            [
                AttackStep(id="e", is_entry=True),
                AttackStep(id="b", logic="and"),
                AttackStep(id="c"),
            ],
            edges=[("e", "b"), ("c", "b"), ("e", "c")],
        )
        assert attack_surface(g, {"e"}, set()) == {"c"}
        assert attack_surface(g, {"e", "c"}, set()) == {"b"}

    def test_enabled_defense_blocks(self):
        g = graph_of(
            [AttackStep(id="e", is_entry=True), AttackStep(id="a")],
            defenses=[DefenseStep(id="d")],
            edges=[("e", "a"), ("d", "a")],
        )
        assert attack_surface(g, {"e"}, set()) == {"a"}
        assert attack_surface(g, {"e"}, {"d"}) == set()

    def test_compromised_steps_excluded(self):
        g = graph_of(
            [AttackStep(id="e", is_entry=True), AttackStep(id="a")],
            edges=[("e", "a")],
        )
        assert attack_surface(g, {"e", "a"}, set()) == set()

    def test_unknown_ids_rejected(self):
        g = graph_of([AttackStep(id="e", is_entry=True)])
        with pytest.raises(ValueError):
            attack_surface(g, {"nope"}, set())
        with pytest.raises(ValueError):
            attack_surface(g, {"e"}, {"nope"})

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_compromised_for_or_graphs(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = build_random_graph(rng, or_only=True)
        ids = list(g.attack_ids)
        small = {sid for sid in ids if rng.random() < 0.3} | {g.entry_id}
        extra = {sid for sid in ids if rng.random() < 0.3}
        large = small | extra
        surface_small = attack_surface(g, small, set())
        surface_large = attack_surface(g, large, set())
        assert surface_small <= surface_large | large

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_enabling_defense_never_grows_surface(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = build_random_graph(rng)
        if not g.defense_ids:
            return
        compromised = {sid for sid in g.attack_ids if rng.random() < 0.4} | {g.entry_id}
        enabled = {did for did in g.defense_ids if rng.random() < 0.3}
        before = attack_surface(g, compromised, enabled)
        remaining = [d for d in g.defense_ids if d not in enabled]
        if not remaining:
            return
        extra = remaining[int(rng.integers(len(remaining)))]
        after = attack_surface(g, compromised, enabled | {extra})
        assert after <= before


class TestFlagCost:
    def test_hand_evaluated_sum(self):
        g = graph_of(
            [
                AttackStep(id="e", is_entry=True, ttc_mean=0.0),
                AttackStep(id="a", ttc_mean=10.0),
                AttackStep(id="b", ttc_mean=5.0),
            ],
            edges=[("e", "a"), ("a", "b")],
        )
        # 1.5 * (0 + 10 + 5), evaluated by hand
        assert flag_cost(g) == pytest.approx(22.5)

    def test_zero_case(self):
        g = graph_of([AttackStep(id="e", is_entry=True)])
        assert flag_cost(g) == 0.0

    def test_single_step(self):
        g = graph_of(
            [
                AttackStep(id="e", is_entry=True),
                AttackStep(id="a", ttc_mean=2.0),
            ],
            edges=[("e", "a")],
        )
        assert flag_cost(g) == pytest.approx(3.0)


class TestRewardConfig:
    def test_positive_costs_required(self):
        with pytest.raises(ValueError):
            RewardConfig(defense_cost=0.0, flag_cost=1.0)
        with pytest.raises(ValueError):
            RewardConfig(defense_cost=1.0, flag_cost=-2.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_costs_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError, match="^defense_cost must be finite"):
            RewardConfig(defense_cost=value, flag_cost=1.0)
        with pytest.raises(ValueError, match="^flag_cost must be finite"):
            RewardConfig(defense_cost=1.0, flag_cost=value)


# documents with the graph format's keys, so the fuzz reaches past the
# top-level checks into steps, edges and the graph invariants
_ID = st.sampled_from(["e", "a", "b", "d"])
_GRAPH_SHAPED = st.fixed_dictionaries(
    {
        "attack_steps": st.one_of(
            JSON_VALUES,
            st.lists(
                st.one_of(
                    JSON_VALUES,
                    st.fixed_dictionaries(
                        {"id": st.one_of(_ID, JSON_VALUES)},
                        optional={
                            "logic": st.one_of(st.sampled_from(["and", "or"]), JSON_VALUES),
                            "ttc": JSON_LEAVES,
                            "flag": st.one_of(st.booleans(), JSON_VALUES),
                            "entry": st.one_of(st.booleans(), JSON_VALUES),
                        },
                    ),
                ),
                max_size=4,
            ),
        ),
    },
    optional={
        "defense_steps": st.one_of(
            JSON_VALUES, st.lists(st.one_of(JSON_VALUES, st.fixed_dictionaries({"id": _ID})), max_size=2)
        ),
        "edges": st.one_of(
            JSON_VALUES, st.lists(st.one_of(JSON_VALUES, st.lists(_ID, min_size=2, max_size=2)), max_size=5)
        ),
    },
)


class TestDocumentFormat:
    def test_minimal_document(self):
        g = load_graph('{"attack_steps": [{"id": "e", "entry": true}]}')
        assert g.num_attack_steps == 1
        assert g.num_defense_steps == 0
        assert g.entry_id == "e"

    def test_unknown_logic_is_a_parse_error_naming_the_field(self):
        doc = json.dumps(
            {"attack_steps": [{"id": "e", "entry": True, "logic": "XOR"}]}
        )
        with pytest.raises(GraphFormatError, match="logic"):
            load_graph(doc)

    @pytest.mark.parametrize(
        "ttc",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            pytest.param("1" + "0" * 400, id="int-above-float-range"),
            pytest.param("-1" + "0" * 400, id="int-below-float-range"),
        ],
    )
    def test_non_finite_ttc_is_a_parse_error_naming_the_field(self, ttc):
        doc = (
            '{"attack_steps": [{"id": "e", "entry": true}, '
            f'{{"id": "a", "ttc": {ttc}, "flag": true}}], "edges": [["e", "a"]]}}'
        )
        with pytest.raises(GraphFormatError, match=r"attack_steps\[1\]\.ttc"):
            load_graph(doc)

    def test_ttc_sum_overflowing_step_cap_is_a_parse_error(self):
        # each TTC is finite, but their sum (and the step cap built from
        # it) is not
        doc = json.dumps(
            {
                "attack_steps": [
                    {"id": "e", "entry": True},
                    {"id": "a", "ttc": 1e308},
                    {"id": "b", "ttc": 1e308, "flag": True},
                ],
                "edges": [["e", "a"], ["a", "b"]],
            }
        )
        with pytest.raises(GraphFormatError, match=r"attack_steps\[\*\]\.ttc"):
            load_graph(doc)

    def test_invalid_graph_reported_at_load(self):
        doc = json.dumps(
            {
                "attack_steps": [
                    {"id": "e", "entry": True},
                    {"id": "f", "flag": True},
                ]
            }
        )
        with pytest.raises(GraphFormatError, match="unreachable flag f"):
            load_graph(doc)

    def test_every_violation_in_one_error(self):
        # an unreachable flag and overflowing TTCs: both rules are listed
        doc = json.dumps(
            {
                "attack_steps": [
                    {"id": "e", "entry": True},
                    {"id": "a", "ttc": 1e308},
                    {"id": "f", "ttc": 1e308, "flag": True},
                ],
                "edges": [["e", "a"]],
            }
        )
        with pytest.raises(GraphFormatError) as err:
            load_graph(doc)
        assert str(err.value) == f"invalid graph: {['unreachable flag f', _TTC_SUM_INF]}"

    def test_generate_and_first_episode_share_the_gate(self):
        expected = f"invalid graph: {[_TTC_SUM_INF]}"
        config = GenConfig(num_attack_steps=20, seed=1, ttc_mean_range=(1e308, 1e308))
        with pytest.raises(GraphFormatError) as err:
            generate(config)
        assert str(err.value) == expected
        rewards = RewardConfig(defense_cost=1.0, flag_cost=1.0)
        with pytest.raises(GraphFormatError) as err:
            init_episode(_overflowing_chain(), NoiseConfig(fpr=0.0, fnr=0.0), rewards, seed=1)
        assert str(err.value) == expected

    def test_parse_errors_carry_context(self):
        with pytest.raises(GraphFormatError, match="attack_steps"):
            load_graph("{}")
        with pytest.raises(GraphFormatError, match=r"attack_steps\[0\].id"):
            load_graph('{"attack_steps": [{"ttc": 1}]}')
        with pytest.raises(GraphFormatError, match=r"edges\[0\]"):
            load_graph('{"attack_steps": [{"id": "e", "entry": true}], "edges": [["e"]]}')
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            load_graph("{nope")

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_bytes(b'{"attack_steps": [\xff]}')
        with pytest.raises(GraphFormatError, match=f"graph file {re.escape(str(path))} is not UTF-8"):
            load_graph_file(path)

    @given(doc=st.one_of(JSON_VALUES, _GRAPH_SHAPED))
    @settings(max_examples=300, deadline=None)
    def test_any_json_document_loads_or_raises_graph_format_error(self, doc):
        try:
            graph = load_graph(json.dumps(doc))
        except GraphFormatError:
            return
        assert graph.violations() == ()

    def test_bundled_graphs_round_trip_byte_identical(self):
        from importlib import resources

        for name in bundled_graph_names():
            text = (
                resources.files("attacksim.graphs")
                .joinpath(f"{name}.json")
                .read_text(encoding="utf-8")
            )
            assert save_graph(load_graph(text)) == text

    def test_round_trip_field_for_field(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = build_random_graph(rng)
            g2 = load_graph(save_graph(g))
            assert g2.attack_steps == g.attack_steps
            assert g2.defense_steps == g.defense_steps
            assert g2.edges == g.edges

    def test_bundled_graphs_exist_and_validate(self):
        names = bundled_graph_names()
        assert {"toy", "four_ways", "two_keys_one_door"} <= set(names)
        for name in names:
            g = bundled_graph(name)
            assert validate(g) == []

    def test_four_ways_has_four_defensible_flags(self):
        g = bundled_graph("four_ways")
        assert len(g.flag_ids) == 4
        assert g.num_defense_steps == 4
        for fid in g.flag_ids:
            assert g.defense_parents(fid), f"flag {fid} has no guarding defense"

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError):
            bundled_graph("nope")
