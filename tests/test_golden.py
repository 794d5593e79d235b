"""Golden digests: pin the exact episodes (actions, rewards, observation
bit-strings, sampled TTCs) the engine produces for every attacker against a
heuristic and a learned defender, the policy and curve files of short PPO
runs, and the metrics CSVs of tiny experiments, so a refactor or
optimisation that changes any output bit or RNG draw fails here."""

import csv
import hashlib
import io

import numpy as np

from attacksim import experiments, ppo
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


# sha256 over the policy file and curve CSV of short training runs, and over
# the metrics and summary CSVs of tiny experiments; both captured before
# collect_batch ran its episodes through run_episode. The experiments digest
# is of the CSVs in their earlier format, which the current ones reproduce
# through `old_format`; EXPERIMENTS_RAW_SHA256 pins the current format.
TRAINING_SHA256 = "47a1b78dbe7bb303027b38cfabc51783cec55bd683dce0c47116c431c749debe"
EXPERIMENTS_SHA256 = "03815a4cb4581255f2ae8d2f53ca2db30b70968f41d610ff86dd981d74121063"
EXPERIMENTS_RAW_SHA256 = "8e7a7e85948a0abf0b3800de6685b60d704b87de32d3dfb0461c777286d0ef70"
TINY_HP = ppo.HyperParams(iterations=2, train_batch=48, minibatch=16)


def test_golden_training_unchanged(tmp_path):
    hasher = hashlib.sha256()
    for name in ("toy", "four_ways"):
        graph = bundled_graph(name)
        params, curve = ppo.train(
            graph,
            make_attacker("mixture"),
            NOISE,
            default_rewards(graph),
            ppo.HyperParams(iterations=3, train_batch=256),
            SEED,
        )
        ppo.save_policy(params, tmp_path / "policy.json", seed=SEED)
        ppo.write_curve(curve, tmp_path / "curve.csv")
        hasher.update((tmp_path / "policy.json").read_bytes())
        hasher.update((tmp_path / "curve.csv").read_bytes())
    assert hasher.hexdigest() == TRAINING_SHA256


def old_format(data: bytes, metrics: bool) -> bytes:
    """A metrics or summary CSV in the format EXPERIMENTS_SHA256 was taken
    in: no `truncated` column and, in metrics CSVs, a trailing
    `train_seconds` column that always read 0.0. Fails if any episode
    truncated, since the old format could not show it."""
    table = list(csv.reader(io.StringIO(data.decode())))
    i = table[0].index("truncated")
    assert [row[i] for row in table[1:]] == ["0"] * (len(table) - 1)
    out = io.StringIO()
    writer = csv.writer(out)
    for n, row in enumerate(table):
        del row[i]
        writer.writerow(row + (["0.0" if n else "train_seconds"] if metrics else []))
    return out.getvalue().encode()


def test_golden_experiments_unchanged(tmp_path):
    toy = bundled_graph("toy")
    runs = {
        "sweep": experiments.run_sweep(
            toy, ["random", "tripwire", "learned"], values=(0.0, 0.25),
            episodes=3, seeds=(1, 2), hp=TINY_HP,
        ),
        "attacker_matrix": experiments.attacker_matrix(
            toy, hp=TINY_HP, episodes=2, seeds=(1,)
        ),
        "scaling": experiments.scaling_study(
            sizes=(20,), hp=TINY_HP, episodes=2, seeds=(1, 2)
        ),
    }
    old, raw = hashlib.sha256(), hashlib.sha256()
    for name, rows in runs.items():
        experiments.write_metrics_csv(rows, tmp_path / f"{name}.csv")
        experiments.write_summary_csv(rows, tmp_path / f"{name}_summary.csv")
        for path, metrics in ((f"{name}.csv", True), (f"{name}_summary.csv", False)):
            data = (tmp_path / path).read_bytes()
            raw.update(data)
            old.update(old_format(data, metrics))
    assert old.hexdigest() == EXPERIMENTS_SHA256
    assert raw.hexdigest() == EXPERIMENTS_RAW_SHA256
