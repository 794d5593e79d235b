"""Outside-in tracing of the attacksim layers.

The tracer replaces each traced function at every module attribute that
holds it (and each traced ``select`` method on its class) with a wrapper
that records a span, so no file under ``src/`` carries tracing code. Spans
live in flat in-memory arrays (name, start, end, parent, episode or
iteration id, forward rows) and are written out once, at the end of a run.
A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

import attacksim
from attacksim import attackers, defenders, engine, experiments, graph, ppo

# (defining module, function name) of every traced function; the span name
# is "<module>.<function>"
TRACED_FUNCTIONS = (
    (graph, "attack_surface"),
    (graph, "validate"),
    (engine, "episode_streams"),
    (engine, "init_episode"),
    (engine, "observe"),
    (engine, "step"),
    (engine, "run_episode"),
    (attackers, "attainment_costs"),
    (defenders, "learned_select"),
    (ppo, "forward"),
    (experiments, "run_episodes"),
)

# classes whose select() is traced, as "<module>.<kind>.select"
TRACED_SELECTS = (
    attackers.RandomAttacker,
    attackers.BreadthFirstAttacker,
    attackers.DepthFirstAttacker,
    attackers.PathfinderAttacker,
    attackers.MixtureAttacker,
    defenders.TripwireDefender,
)

# forward() calls made while choosing an action during an episode
_ROLLOUT_PARENTS = ("defenders.learned_select",)


def _module_short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def layer_names() -> list[str]:
    names = [f"{_module_short(m)}.{fn}" for m, fn in TRACED_FUNCTIONS]
    names += [f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.kind}.select" for cls in TRACED_SELECTS]
    return names


def _forward_rows(args, kwargs) -> int:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return 1 if np.ndim(x) == 1 else len(x)


class Tracer:
    """Records one span per call of every traced function while installed
    and active. ``boundary`` names the span whose start begins a new
    episode or iteration id."""

    def __init__(self, boundary: str):
        self.names = layer_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self._boundary = self._index[boundary]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.rows = array("i")
        self.active = True
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str):
        idx = self._index[span_name]
        counts_rows = span_name == "ppo.forward"
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if idx == tracer._boundary:
                tracer._op += 1
            sid = len(tracer.start)
            tracer.name.append(idx)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer._op)
            tracer.rows.append(_forward_rows(args, kwargs) if counts_rows else 0)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "attacksim"]
        for module, fn_name in TRACED_FUNCTIONS:
            original = getattr(module, fn_name)
            wrapper = self._wrap(original, f"{_module_short(module)}.{fn_name}")
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, value))
                        setattr(holder, attr, wrapper)
        for cls, span_name in zip(TRACED_SELECTS, self.names[len(TRACED_FUNCTIONS):]):
            original = cls.__dict__["select"]
            self._undo.append((cls, "select", original))
            setattr(cls, "select", self._wrap(original, span_name))

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "rows": np.frombuffer(self.rows, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, traced_prefix_wall: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``traced_wall`` is the host time of every traced operation; the part of
    it no span covers is the benchmark's own remainder (``bench``), so all
    self shares sum to 1. ``trace.overhead`` compares the same operations
    run untraced and traced.
    """
    s = tracer.spans()
    n_names = len(tracer.names)
    dur = s["end"] - s["start"]
    child = np.zeros_like(dur)
    has_parent = s["parent"] >= 0
    np.add.at(child, s["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    calls = np.bincount(s["name"], minlength=n_names)
    self_s = np.bincount(s["name"], weights=self_time, minlength=n_names)
    incl_s = np.bincount(s["name"], weights=dur, minlength=n_names)
    idx = {name: i for i, name in enumerate(tracer.names)}

    out: dict[str, float] = {}
    for name, i in idx.items():
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
        out[f"{name}.self_share"] = _ratio(float(self_s[i]), traced_wall)
        out[f"{name}.us_per_call"] = _ratio(float(self_s[i]) * 1e6, int(calls[i]))

    def c(name):
        return int(calls[idx[name]])

    steps = c("engine.step")
    out["graph.attack_surface.calls_per_step"] = _ratio(c("graph.attack_surface"), steps)
    out["graph.validate.calls_per_episode"] = _ratio(c("graph.validate"), c("engine.init_episode"))
    out["attackers.attainment_costs.calls_per_select"] = _ratio(
        c("attackers.attainment_costs"), c("attackers.pathfinder.select")
    )

    is_forward = s["name"] == idx["ppo.forward"]
    parent_name = np.where(has_parent, s["name"][np.maximum(s["parent"], 0)], -1)
    rollout_parents = [idx[p] for p in _ROLLOUT_PARENTS]
    rollout = is_forward & np.isin(parent_name, rollout_parents)
    rollout_calls = int(rollout.sum())
    rollout_rows = int(s["rows"][rollout].sum())
    out["ppo.forward.rows_per_call"] = _ratio(rollout_rows, rollout_calls)
    out["ppo.forward.calls_per_env_step"] = _ratio(rollout_calls, steps)
    out["ppo.forward.us_per_row"] = _ratio(float(dur[rollout].sum()) * 1e6, rollout_rows)

    out["bench.self_share"] = 1.0 - _ratio(float(self_s.sum()), traced_wall)
    out["trace.overhead"] = _ratio(traced_prefix_wall, untraced_wall) - 1.0
    return out
