"""The benchmark (perfbench/workloads.py and checks.py) drives attacksim
through its public interfaces. Running one operation of every workload here
fails when an interface change would make every benchmark operation fail,
and the pinned digests fail when a change moves any benchmark output bit."""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7

# sha256 of Outcome.digest for operation 0 of each workload at SEED,
# captured before the agents read the engine's observation and state only
DIGESTS = {
    "eval-gen200-mixture": "a5788697cfa40728112947830b5d16ddc870d2d2383ab7d1a58ccde7a919ab21",
    "eval-fourways-learned": "ff84ee8f108a7ebc0ec4fd407ba611153ae3fa2214a0bfa7f568504f75414671",
}


def load_workloads():
    """Import workloads.py (and the checks.py it imports by bare name)
    without writing bytecode into perfbench/ and without leaving either
    module or the path entry behind."""
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.get(name) for name in ("checks", "perfbench_workloads")}
    saved_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        for name, filename in (("checks", "checks.py"), ("perfbench_workloads", "workloads.py")):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = saved_bytecode
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_loading_leaves_no_trace():
    before_path, before_modules = list(sys.path), set(sys.modules)
    before_cache = sorted(PERFBENCH.glob("__pycache__/*"))
    load_workloads()
    assert sys.path == before_path
    assert {"checks", "perfbench_workloads"}.isdisjoint(set(sys.modules) - before_modules)
    assert sorted(PERFBENCH.glob("__pycache__/*")) == before_cache


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_first_operation_passes_and_matches_digest(name):
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name](SEED)
    workload.setup()
    job = workload.prepare(0)
    outcome = workload.check(job, workload.run(job))
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted > 0 and outcome.env_steps > 0
    assert hashlib.sha256(outcome.digest).hexdigest() == DIGESTS[name]
