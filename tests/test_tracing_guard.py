"""The benchmark's tracer wraps attacksim functions and select methods by
name (perfbench/tracing.py). Installing it here fails when one of those
names is renamed or removed, instead of breaking traced benchmark runs."""

import importlib.util
import pathlib
import sys

import numpy as np

from attacksim import engine, ppo
from attacksim.attackers import make_attacker
from attacksim.defenders import make_defender
from attacksim.graph import bundled_graph, default_rewards

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # read-only: leave no bytecode cache inside perfbench/
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_installs_on_every_traced_name():
    tracing = load_tracing()
    original = engine.run_episode
    tracer = tracing.Tracer("engine.run_episode")
    tracer.install()
    try:
        assert engine.run_episode is not original
        graph = bundled_graph("four_ways")
        params = ppo.init_params(
            graph.num_attack_steps, graph.num_defense_steps, np.random.default_rng(0)
        )
        engine.run_episode(
            graph,
            make_attacker("mixture"),
            make_defender("learned", params=params),
            engine.NoiseConfig(fpr=0.1, fnr=0.1),
            default_rewards(graph),
            seed=1,
        )
    finally:
        tracer.uninstall()
    assert engine.run_episode is original
    calls = np.bincount(tracer.spans()["name"], minlength=len(tracer.names))
    called = {name for name, n in zip(tracer.names, calls) if n}
    assert {"engine.run_episode", "engine.step", "defenders.learned_select", "ppo.forward"} <= called


def test_episode_setup_spans_per_episode():
    """Over three traced episodes on a fresh four_ways graph: one stream
    and one init span per episode, and the full surface scan only in the
    first, where the graph's entry snapshot is built."""
    tracing = load_tracing()
    tracer = tracing.Tracer("engine.run_episode")
    graph = bundled_graph("four_ways")
    params = ppo.init_params(
        graph.num_attack_steps, graph.num_defense_steps, np.random.default_rng(0)
    )
    defender = make_defender("learned", params=params)
    tracer.install()
    try:
        for episode in range(3):
            engine.run_episode(
                graph, make_attacker("mixture"), defender,
                engine.NoiseConfig(fpr=0.1, fnr=0.1), default_rewards(graph),
                seed=9, episode=episode,
            )
    finally:
        tracer.uninstall()
    spans = tracer.spans()

    def per_episode(name):
        ops = spans["op"][spans["name"] == tracer.names.index(name)]
        return np.bincount(ops, minlength=3).tolist()

    assert per_episode("engine.run_episode") == [1, 1, 1]
    assert per_episode("engine.episode_streams") == [1, 1, 1]
    assert per_episode("engine.init_episode") == [1, 1, 1]
    assert per_episode("graph.attack_surface") == [1, 0, 0]
