"""attacksim benchmark: one workload per invocation, in one process.

    python3 perfbench/run.py --workload eval-fourways-learned --seed 1 --seconds 30 --trace 0

Runs the workload's operations for ``--seconds`` seconds after set-up,
checks every episode, and prints each metric by name
with its unit. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced run first runs a fixed prefix of operations
untraced, then the same prefix traced (their output digests must match, and
their time ratio is ``trace.overhead``), then traced operations until time
is up. Detailed results go to ``perfbench/out/``.
"""

import os
import sys
import time

T0 = time.perf_counter()

# one process, one BLAS thread: OpenBLAS must see this before numpy loads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# the benchmark writes nothing outside perfbench/, not even bytecode caches
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up is repeated and its median reported, so one slow repeat does not
# move setup_s
SETUP_REPEATS = 5
MAX_PROBLEMS = 10


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import attacksim from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import attacksim
    except ImportError as exc:
        _fail(f"cannot import attacksim from {src}: {exc}")
    if not Path(attacksim.__file__).resolve().is_relative_to(src):
        _fail(f"attacksim was imported from {attacksim.__file__}, not from {src}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


class Tally:
    """Totals over a sequence of operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.env_steps = 0
        self.episodes = 0
        self.busy_s = 0.0
        self.op_seconds: list[float] = []
        self.problems: list[str] = []
        self.hasher = hashlib.sha256()

    def add(self, outcome, seconds: float, hashed: bool) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.env_steps += outcome.env_steps
        self.episodes += outcome.episodes
        self.busy_s += seconds
        self.op_seconds.append(seconds)
        room = MAX_PROBLEMS - len(self.problems)
        self.problems.extend(outcome.problems[:room])
        if hashed:
            self.hasher.update(outcome.digest)


def run_ops(workload, tally, first, stop, deadline=None, hashed_ops=0, tracer=None):
    """Run operations first, first+1, ... until ``stop`` (exclusive) or,
    once past the hashed prefix, until ``deadline``."""
    from workloads import Outcome

    clock = time.perf_counter
    k = first
    while (stop is None or k < stop) and (deadline is None or k < hashed_ops or clock() < deadline):
        if tracer:
            tracer.active = False
        job = workload.prepare(k)
        if tracer:
            tracer.active = True
        t0 = clock()
        try:
            result = workload.run(job)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = clock() - t0
            if tracer:
                tracer.active = False
            outcome = Outcome(attempted=workload.units_per_op, failed=workload.units_per_op)
            outcome.problems.append(f"operation {k}: {type(exc).__name__}: {exc}")
        else:
            elapsed = clock() - t0
            if tracer:
                tracer.active = False
            outcome = workload.check(job, result)
        tally.add(outcome, elapsed, hashed=k < hashed_ops)
        k += 1
    return k


def _blas_threads():
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "git_revision": _git_revision(),
    }


def end_to_end_metrics(workload, tally, setup_s) -> dict[str, float]:
    import numpy as np

    # Rates are totals over the whole run. The host's speed drifts in
    # regimes lasting seconds; a median over short windows follows whichever
    # regime held longest and spread twice as much across runs.
    busy = tally.busy_s
    metrics = {
        "setup_s": setup_s,
        "env_steps_per_s": tally.env_steps / busy,
        "episodes_per_s": tally.episodes / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": tally.failed / tally.attempted,
    }
    if workload.per_episode_ops:
        p50, p99 = np.percentile(np.array(tally.op_seconds) * 1e3, [50, 99])
        metrics["episode_ms_p50"] = float(p50)
        metrics["episode_ms_p99"] = float(p99)
    return metrics


EXTRA_UNITS = {
    "error_rate": "ratio",
    "episode_ms_p50": "ms",
    "episode_ms_p99": "ms",
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed)
        workload.setup()
        setup_samples.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_samples)

    prefix = workload.prefix_ops
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        untraced = Tally()
        run_ops(workload, untraced, 0, prefix, hashed_ops=prefix)
        tracer = tracing.Tracer(workload.boundary)
        tracer.install()
        try:
            traced = Tally()
            run_ops(workload, traced, 0, prefix, hashed_ops=prefix, tracer=tracer)
            digest = traced.hasher.hexdigest()
            prefix_busy = traced.busy_s
            run_ops(workload, traced, prefix, None, deadline=deadline, tracer=tracer)
        finally:
            tracer.uninstall()
        neutral = digest == untraced.hasher.hexdigest()
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        problems = untraced.problems + traced.problems
        if not neutral:
            problems.append("traced output digest differs from the untraced one")
        measured = tracing.layer_metrics(tracer, traced.busy_s, untraced.busy_s, prefix_busy)
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        counts = {"spans": len(tracer.start), "traced_s": traced.busy_s}
    else:
        tally = Tally()
        run_ops(workload, tally, 0, None, deadline=deadline, hashed_ops=prefix)
        digest = tally.hasher.hexdigest()
        neutral = True
        attempted, failed, problems = tally.attempted, tally.failed, tally.problems
        measured = end_to_end_metrics(workload, tally, setup_s)
        wanted = spec["end_to_end"] + [
            {"name": name, "unit": unit} for name, unit in EXTRA_UNITS.items() if name in measured
        ]
        counts = {
            "operations": len(tally.op_seconds),
            "env_steps": tally.env_steps,
            "episodes": tally.episodes,
            "busy_s": tally.busy_s,
            "import_s": import_s,
            "setup_samples_s": setup_samples,
        }

    correct = failed == 0 and neutral
    report = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, entry in report.items():
        print(f"  {name:48s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in counts.items():
        print(f"  [{name}] {round(value, 6) if isinstance(value, float) else value}")
    print(f"  [attempted] {attempted}  [failed] {failed}  [output_sha256] {digest}")
    for problem in problems:
        print(f"  problem: {problem}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "claim": None,
        "environment": environment(),
        "output_sha256": digest,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "counts": counts,
        "metrics": report,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    print(json.dumps({"environment": results["environment"], "output_sha256": digest}))
    final_names = {m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: v for k, v in report.items() if k in final_names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
