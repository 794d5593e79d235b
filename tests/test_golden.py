"""Golden episode digest: pins the exact episodes (actions, rewards,
observation bit-strings, sampled TTCs) the engine produces for every
attacker against a heuristic and a learned defender, so an engine
optimisation that changes any output bit or RNG draw fails here."""

import hashlib

import numpy as np

from attacksim import ppo
from attacksim.attackers import ATTACKER_KINDS, make_attacker
from attacksim.defenders import make_defender
from attacksim.engine import NoiseConfig, run_episode
from attacksim.generate import GenConfig, generate
from attacksim.graph import bundled_graph, bundled_graph_names, default_rewards

NOISE = NoiseConfig(fpr=0.1, fnr=0.1)
SEED = 11
EPISODES = 2

# sha256 over every record below, captured before the engine kept the
# attack surface as episode state
GOLDEN_SHA256 = "fa55a61db68d9023104f97f0cec0b98bcc37d6b8fe4d093aae2e5721a63bf936"


def record_bytes(record) -> bytes:
    parts = [
        f"{record.seed}|{record.episode}|{record.length}|{record.truncated}",
        repr(record.cumulative_reward),
        ",".join(sorted(record.flags_captured)),
        repr(record.flags_fraction),
        ",".join(f"{k}={v!r}" for k, v in sorted(record.sampled_ttc.items())),
    ]
    parts.extend(
        f"{row.t}|{row.attacker_action}|{row.defender_action}|{row.reward!r}|{row.done}|{row.observation}"
        for row in record.steps
    )
    return "\n".join(parts).encode() + b"\n"


def golden_digest() -> str:
    graphs = [bundled_graph(name) for name in bundled_graph_names()]
    graphs.append(generate(GenConfig(num_attack_steps=60, seed=SEED)))
    hasher = hashlib.sha256()
    for graph in graphs:
        rewards = default_rewards(graph)
        params = ppo.init_params(
            graph.num_attack_steps, graph.num_defense_steps, np.random.default_rng(SEED)
        )
        for kind in ATTACKER_KINDS:
            for defender in ("tripwire", "learned"):
                for episode in range(EPISODES):
                    record = run_episode(
                        graph,
                        make_attacker(kind),
                        make_defender(defender, params=params),
                        NOISE,
                        rewards,
                        SEED,
                        episode=episode,
                    )
                    hasher.update(record_bytes(record))
    return hasher.hexdigest()


def test_golden_episodes_unchanged():
    assert golden_digest() == GOLDEN_SHA256
