"""Graph-based attack/defense capture-the-flag simulator.

An attacker agent traverses an AND/OR attack graph to capture flags while a
defender agent, watching a noisy IDS, enables costly defenses. Ships with
heuristic agents for both sides, a from-scratch PPO policy learner for the
defender, and an experiment harness for noise sweeps, attacker
generalization matrices and graph-size scaling studies.
"""

from .graph import (
    AttackGraph,
    AttackStep,
    DefenseStep,
    GraphFormatError,
    RewardConfig,
    attack_surface,
    bundled_graph,
    bundled_graph_names,
    default_rewards,
    flag_cost,
    load_graph,
    load_graph_file,
    save_graph,
    save_graph_file,
    validate,
)
from .generate import GenConfig, generate
from .engine import (
    EpisodeRecord,
    NoiseConfig,
    Observation,
    SimState,
    StepRow,
    episode_streams,
    init_episode,
    min_reward_bound,
    observe,
    reward_of,
    run_episode,
    sample_ttc,
    step,
    sync_derived,
)
from .attackers import make_attacker
from .defenders import make_defender
from .ppo import HyperParams, PolicyParams, load_policy, save_policy, train

__version__ = "0.1.0"
