"""Command-line entry point.

Subcommands: generate, simulate, train, evaluate, sweep, attacker-matrix,
scaling. Every run is fully seeded, so identical invocations produce
byte-identical output files. The one exception is `<name>_timing.csv`,
which the experiment commands write beside their metrics: the wall-clock
training seconds of each learned metrics row. Exit codes: 0 success,
2 usage error or runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import pathlib
import sys

import numpy as np

from . import experiments, ppo
from .attackers import ATTACKER_CHOICES, canonical_kind, make_attacker
from .defenders import DEFENDER_KINDS
from .engine import NoiseConfig, write_csv, write_trajectory
from .generate import GenConfig, GenConfigError, generate
from .graph import (
    GraphFormatError,
    RewardConfig,
    bundled_graph,
    bundled_graph_names,
    default_rewards,
    load_graph_file,
    save_graph_file,
)


def _resolve_graph(ref: str):
    path = pathlib.Path(ref)
    if path.exists():
        graph = load_graph_file(path)
    elif ref in bundled_graph_names():
        graph = bundled_graph(ref)
    else:
        raise ValueError(
            f"graph {ref!r} is neither a file nor a bundled graph "
            f"(bundled: {', '.join(bundled_graph_names())})"
        )
    return graph


def _parse_list(text: str, convert, noun: str) -> tuple:
    """Comma-separated distinct values; argparse names the flag in the
    error."""
    try:
        values = tuple(convert(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"must list at least one {noun}, got {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise argparse.ArgumentTypeError(f"repeated {noun} {value!r} in {text!r}")
    return values


def _parse_ints(text: str) -> tuple[int, ...]:
    return _parse_list(text, int, "integer")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _parse_seed(text: str) -> int:
    try:
        return _seed(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None


def _parse_seeds(text: str) -> tuple[int, ...]:
    return _parse_list(text, _seed, "non-negative integer")


def _parse_noise_values(text: str) -> tuple[float, ...]:
    values = _parse_list(text, float, "number")
    try:
        experiments.noise_grid(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    return values


def _parse_defenders(text: str) -> tuple[str, ...]:
    kinds = _parse_list(text, str.strip, "defender kind")
    for kind in kinds:
        if kind not in DEFENDER_KINDS:
            expected = ", ".join(DEFENDER_KINDS)
            raise argparse.ArgumentTypeError(f"unknown defender {kind!r}; expected one of {expected}")
    return kinds


def _rewards_for(graph, args):
    if args.flag_cost is not None:
        return RewardConfig(defense_cost=args.defense_cost, flag_cost=args.flag_cost)
    return default_rewards(graph, defense_cost=args.defense_cost)


def _add_reward_flags(parser):
    parser.add_argument(
        "--defense-cost",
        type=float,
        default=1.0,
        help="per-step cost of each enabled defense (default: %(default)s)",
    )
    parser.add_argument(
        "--flag-cost",
        type=float,
        default=None,
        help="one-time cost per captured flag (default: 1.5 x total mean TTC of the graph)",
    )


def _add_noise_flags(parser, default=0.0):
    parser.add_argument("--fpr", type=float, default=default, help="IDS false positive rate (default: %(default)s)")
    parser.add_argument("--fnr", type=float, default=default, help="IDS false negative rate (default: %(default)s)")


def _add_hyperparam_flags(parser):
    hp = ppo.HyperParams()
    parser.add_argument("--k-vf", type=float, default=hp.k_vf, help="value-loss coefficient (default: %(default)s)")
    parser.add_argument("--k-s", type=float, default=hp.k_s, help="entropy coefficient (default: %(default)s)")
    parser.add_argument("--k-kl", type=float, default=hp.k_kl, help="KL coefficient (default: %(default)s)")
    parser.add_argument("--train-batch", type=int, default=hp.train_batch, help="environment steps per iteration (default: %(default)s)")
    parser.add_argument("--minibatch", type=int, default=hp.minibatch, help="update minibatch size (default: %(default)s)")
    parser.add_argument("--vf-clip", type=float, default=hp.vf_clip, help="value-loss clip bound (default: %(default)s)")
    parser.add_argument("--clip-eps", type=float, default=hp.clip_eps, help="policy ratio clip (default: %(default)s)")
    parser.add_argument("--lr", type=float, default=hp.lr, help="Adam learning rate (default: %(default)s)")
    parser.add_argument("--gamma", type=float, default=hp.gamma, help="discount factor (default: %(default)s)")
    parser.add_argument("--gae-lambda", type=float, default=hp.gae_lambda, help="advantage smoothing (default: %(default)s)")


def _hp_from_args(args) -> ppo.HyperParams:
    # every HyperParams field has a flag of the same name
    return ppo.HyperParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ppo.HyperParams)})


def _add_experiment_flags(parser):
    parser.add_argument("--episodes", type=int, default=experiments.DESK_EPISODES)
    parser.add_argument("--seeds", type=_parse_seeds, default=experiments.DESK_SEEDS)
    parser.add_argument("--iterations", type=int, default=experiments.DESK_ITERATIONS)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out-dir", required=True)
    _add_hyperparam_flags(parser)
    parser.add_argument("--json", action="store_true")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line naming the flag, without the usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="attacksim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random attack graph")
    p.add_argument("--size", type=int, required=True, help="number of attack steps (multiple of 20)")
    p.add_argument("--seed", type=_parse_seed, default=1)
    p.add_argument("--out", required=True, help="output graph JSON path")
    p.add_argument("--ttc-min", type=float, default=GenConfig.ttc_mean_range[0])
    p.add_argument("--ttc-max", type=float, default=GenConfig.ttc_mean_range[1])
    p.add_argument("--and-fraction", type=float, default=GenConfig.and_fraction)
    p.add_argument("--extra-parent-prob", type=float, default=GenConfig.extra_parent_prob)
    p.add_argument("--json", action="store_true", help="machine-readable summary on stdout")

    p = sub.add_parser("simulate", help="run episodes with chosen agents")
    p.add_argument("--graph", required=True, help="graph file or bundled name")
    p.add_argument("--attacker", choices=ATTACKER_CHOICES, default="random")
    p.add_argument("--defender", choices=DEFENDER_KINDS, default="none")
    p.add_argument("--policy-file", help="policy parameters for --defender learned")
    p.add_argument("--mode", choices=ppo.ACTION_MODES, help="learned-defender action mode (default sample)")
    _add_noise_flags(p)
    _add_reward_flags(p)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--seed", type=_parse_seed, default=1)
    p.add_argument("--out", help="write the per-episode summary CSV here")
    p.add_argument("--record", help="write per-step trajectories (one CSV per episode, suffixed by index)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("train", help="train a defender policy")
    p.add_argument("--graph", required=True)
    p.add_argument("--attacker", choices=ATTACKER_CHOICES, default="dfs")
    _add_noise_flags(p)
    _add_reward_flags(p)
    p.add_argument("--iterations", type=int, default=ppo.HyperParams().iterations)
    p.add_argument("--seed", type=_parse_seed, default=1)
    p.add_argument("--out", required=True, help="policy file path")
    p.add_argument("--curve", help="learning-curve CSV path")
    _add_hyperparam_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("evaluate", help="evaluate a defender across seeds")
    p.add_argument("--graph", required=True)
    p.add_argument("--attacker", choices=ATTACKER_CHOICES, default="dfs")
    p.add_argument("--defender", choices=DEFENDER_KINDS, default="random")
    p.add_argument("--policy-file")
    p.add_argument("--mode", choices=ppo.ACTION_MODES, help="learned-defender action mode (default sample)")
    _add_noise_flags(p)
    _add_reward_flags(p)
    p.add_argument("--episodes", type=int, default=experiments.DESK_EPISODES)
    p.add_argument("--seeds", type=_parse_seeds, default=experiments.DESK_SEEDS)
    p.add_argument("--out", help="metrics CSV path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="noise-grid sweep over defenders")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--defenders",
        type=_parse_defenders,
        default="random,tripwire",
        help=f"comma-separated defender kinds, of {', '.join(DEFENDER_KINDS)} (default: %(default)s)",
    )
    p.add_argument("--values", type=_parse_noise_values, default=experiments.FULL_NOISE_VALUES, help="ascending noise rates")
    p.add_argument("--attacker", choices=ATTACKER_CHOICES, default="dfs")
    _add_experiment_flags(p)

    p = sub.add_parser("attacker-matrix", help="train per attacker, evaluate against all")
    p.add_argument("--graph", required=True)
    _add_noise_flags(p, default=0.1)
    _add_experiment_flags(p)

    p = sub.add_parser("scaling", help="graph-size scaling study")
    p.add_argument("--sizes", type=_parse_ints, default="20,40,60,80", help="comma-separated graph sizes")
    p.add_argument("--graph-seed", type=_parse_seed, default=1, help="seed for graph generation")
    _add_noise_flags(p, default=0.1)
    p.add_argument("--attacker", choices=ATTACKER_CHOICES, default="dfs")
    _add_experiment_flags(p)

    return parser


# the generate flags that set each GenConfig field
_GEN_FLAGS = {
    "num_attack_steps": ("--size",),
    "seed": ("--seed",),
    "ttc_mean_range": ("--ttc-min", "--ttc-max"),
    "and_fraction": ("--and-fraction",),
    "extra_parent_prob": ("--extra-parent-prob",),
}


def _gen_flags(args, *fields: str) -> str:
    flags = (flag for field in fields for flag in _GEN_FLAGS[field])
    return ", ".join(f"{flag} {getattr(args, flag[2:].replace('-', '_'))}" for flag in flags)


def _cmd_generate(args) -> int:
    try:
        graph = generate(
            GenConfig(
                num_attack_steps=args.size,
                seed=args.seed,
                ttc_mean_range=(args.ttc_min, args.ttc_max),
                and_fraction=args.and_fraction,
                extra_parent_prob=args.extra_parent_prob,
            )
        )
    except GenConfigError as exc:
        raise ValueError(f"{_gen_flags(args, exc.field)}: {exc}") from None
    except GraphFormatError as exc:
        # a generated graph can fail only the TTC-total check
        raise ValueError(f"{_gen_flags(args, 'ttc_mean_range', 'num_attack_steps')}: {exc}") from None
    save_graph_file(graph, args.out)
    summary = {
        "out": args.out,
        "attack_steps": graph.num_attack_steps,
        "defense_steps": graph.num_defense_steps,
        "flags": len(graph.flag_ids),
    }
    _emit(args, summary, f"wrote {args.out}: |A|={summary['attack_steps']} "
          f"|D|={summary['defense_steps']} flags={summary['flags']}")
    return 0


def _load_policy_arg(args):
    if args.defender != "learned":
        for flag, value in (("--policy-file", args.policy_file), ("--mode", args.mode)):
            if value is not None:
                raise ValueError(f"{flag} is read only by --defender learned, not {args.defender}")
        return None
    if not args.policy_file:
        raise ValueError("--defender learned requires --policy-file")
    return ppo.load_policy(args.policy_file)


def _cmd_simulate(args) -> int:
    if args.episodes < 1:
        raise ValueError(f"--episodes must be >= 1, got {args.episodes}")
    graph = _resolve_graph(args.graph)
    records = experiments.episode_records(
        graph, args.attacker, args.defender, NoiseConfig(fpr=args.fpr, fnr=args.fnr),
        _rewards_for(graph, args), args.seed, args.episodes,
        policy=_load_policy_arg(args), mode=args.mode or "sample",
    )
    # each record is dropped once read: only its CSV row and line are kept
    outcomes, lines = [], []
    for r in records:
        if args.record:
            stem = pathlib.Path(args.record)
            write_trajectory(r, stem.with_name(f"{stem.stem}_ep{r.episode:04d}{stem.suffix or '.csv'}"))
        outcomes.append((r.episode, r.length, r.cumulative_reward, r.flags_fraction, int(r.truncated)))
        lines.append(
            f"episode {r.episode}: len={r.length} reward={r.cumulative_reward:.3f} "
            f"flags={r.flags_fraction:.2f} truncated={r.truncated}"
        )
    if args.out:
        write_csv(args.out, ("episode", "length", "reward", "flags_fraction", "truncated"), outcomes)
    rewards = [o[2] for o in outcomes]
    mean_reward = sum(rewards) / len(rewards)
    if not math.isfinite(mean_reward):
        # the sequential sum overflows near 1e308; finite_mean does not
        mean_reward = experiments.finite_mean(rewards)
    summary = {
        "episodes": len(outcomes),
        "mean_reward": mean_reward,
        "mean_flags_fraction": sum(o[3] for o in outcomes) / len(outcomes),
    }
    _emit(args, summary, "\n".join(lines + [
        f"mean reward {summary['mean_reward']:.3f}, mean flags {summary['mean_flags_fraction']:.2f}"
    ]))
    return 0


def _cmd_train(args) -> int:
    graph = _resolve_graph(args.graph)
    noise = NoiseConfig(fpr=args.fpr, fnr=args.fnr)
    rewards = _rewards_for(graph, args)
    hp = _hp_from_args(args)
    attacker = make_attacker(args.attacker)
    params, curve = ppo.train(graph, attacker, noise, rewards, hp, args.seed)
    ppo.save_policy(params, args.out, seed=args.seed, hp=hp)
    if args.curve:
        ppo.write_curve(curve, args.curve)
    final = curve[-1].mean_episode_reward if curve else None
    summary = {"out": args.out, "iterations": len(curve), "final_mean_episode_reward": final}
    _emit(args, summary, f"trained {len(curve)} iterations -> {args.out}"
          + (f" (final mean episode reward {final:.3f})" if final is not None else ""))
    return 0


def _cmd_evaluate(args) -> int:
    graph = _resolve_graph(args.graph)
    rows = experiments.evaluate(
        graph, canonical_kind(args.attacker), args.defender, NoiseConfig(fpr=args.fpr, fnr=args.fnr),
        _rewards_for(graph, args), args.episodes, tuple(args.seeds), _load_policy_arg(args), args.mode or "sample",
    )
    if args.out:
        experiments.write_metrics_csv(rows, args.out)
    lines = [
        f"seed {r.seed}: mean reward {r.mean_reward:.3f}, flags {r.flags_fraction:.2f}, "
        f"len {r.mean_len:.1f} [{r.min_len}, {r.max_len}]"
        for r in rows
    ]
    summary = {"rows": [r.__dict__ for r in rows]}
    _emit(args, summary, "\n".join(lines))
    return 0


def _experiment_outputs(args, rows, name) -> int:
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    experiments.write_metrics_csv(rows, out_dir / f"{name}.csv")
    experiments.write_summary_csv(rows, out_dir / f"{name}_summary.csv")
    timing = ("cell_id", "defender", "eval_attacker", "seed", "train_seconds")
    learned = ([getattr(r, c) for c in timing] for r in rows if r.defender == "learned")
    write_csv(out_dir / f"{name}_timing.csv", timing, learned)
    _emit(args, {"rows": len(rows), "out_dir": args.out_dir},
          f"{name.replace('_', ' ')}: {len(rows)} rows -> {args.out_dir}/{name}.csv")
    return 0


def _cmd_sweep(args) -> int:
    graph = _resolve_graph(args.graph)
    rows = experiments.run_sweep(
        graph,
        list(args.defenders),
        values=tuple(args.values),
        episodes=args.episodes,
        seeds=tuple(args.seeds),
        hp=_hp_from_args(args),
        attacker=canonical_kind(args.attacker),
        jobs=args.jobs,
    )
    return _experiment_outputs(args, rows, "sweep")


def _cmd_attacker_matrix(args) -> int:
    graph = _resolve_graph(args.graph)
    rows = experiments.attacker_matrix(
        graph,
        hp=_hp_from_args(args),
        noise=(args.fpr, args.fnr),
        episodes=args.episodes,
        seeds=tuple(args.seeds),
        jobs=args.jobs,
    )
    return _experiment_outputs(args, rows, "attacker_matrix")


# the scaling flags that set each GenConfig field
_SCALING_FLAGS = {"num_attack_steps": "--sizes", "seed": "--graph-seed"}


def _cmd_scaling(args) -> int:
    try:
        rows = experiments.scaling_study(
            sizes=args.sizes,
            hp=_hp_from_args(args),
            noise=(args.fpr, args.fnr),
            episodes=args.episodes,
            seeds=tuple(args.seeds),
            attacker=canonical_kind(args.attacker),
            graph_seed=args.graph_seed,
            jobs=args.jobs,
        )
    except GenConfigError as exc:
        raise ValueError(f"{_SCALING_FLAGS[exc.field]}: {exc}") from None
    return _experiment_outputs(args, rows, "scaling")


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        # strict JSON: a NaN or infinity raises ValueError, an exit-2 error
        print(json.dumps(payload, indent=2, default=str, allow_nan=False))
    else:
        print(text)


_COMMANDS = {
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "attacker-matrix": _cmd_attacker_matrix,
    "scaling": _cmd_scaling,
}


def _check_outputs(args) -> None:
    """Reject an output path that could not be written, before any work: no
    path may be empty, a file flag's directory must exist, `--out` and
    `--curve` must not be directories (`--record` is a stem the files are
    named beside), and the nearest existing ancestor of `--out-dir` must be
    a directory. Nothing is created here."""
    for dest in ("out", "curve", "record", "out_dir"):
        if getattr(args, dest, None) == "":
            raise ValueError(f"--{dest.replace('_', '-')}: empty path")
    for dest in ("out", "curve", "record"):
        path = getattr(args, dest, None)
        if path is None:
            continue
        if not (parent := pathlib.Path(path).parent).is_dir():
            raise ValueError(f"--{dest} {path}: {parent} is not a directory")
        if dest != "record" and pathlib.Path(path).is_dir():
            raise ValueError(f"--{dest} {path}: is a directory")
    if getattr(args, "out_dir", None) is not None:
        path = pathlib.Path(args.out_dir)
        ancestor = next(p for p in (path, *path.parents) if p.exists())
        if not ancestor.is_dir():
            raise ValueError(f"--out-dir {args.out_dir}: {ancestor} is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's floating-point warnings would add stderr lines (forked
        # --jobs workers inherit this state too); a diverging run still
        # fails on the learner's own finiteness check
        with np.errstate(all="ignore"):
            _check_outputs(args)
            return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, FloatingPointError) as exc:
        print(f"attacksim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
