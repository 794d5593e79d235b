"""Self-test of the benchmark (not part of the repository's test suite).

    python3 perfbench/selftest.py

Checks that:
  1. every workload prints every BENCHMARK.json metric, with its unit, in
     both modes, and reports no failed operation;
  2. a corrupted EpisodeRecord, or an operation that raises, counts as a
     failed operation;
  3. tracing is behaviour-neutral: traced and untraced output digests match;
  4. running the benchmark changes no file outside perfbench/;
  5. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def snapshot() -> dict[str, str]:
    """Content hash of every file outside .git and perfbench/."""
    files = {}
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if rel.parts[0] in (".git", HERE.name) or not path.is_file():
            continue
        files[str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_outputs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            if proc.returncode != 0:
                expect(False, f"{workload} trace={trace} exits 0 (stderr: {proc.stderr[-500:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            final = json.loads(lines[-1])
            digests[trace] = json.loads(lines[-2])["output_sha256"]
            expect(set(final) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: last line has exactly the four keys")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = final["metrics"]
            expect(set(got) == set(wanted)
                   and all(got[n]["unit"] == u and isinstance(got[n]["value"], (int, float))
                           for n, u in wanted.items()),
                   f"{workload} trace={trace}: all {len(wanted)} {key} metrics with units")
            expect(all(f" {n} " in proc.stdout for n in wanted),
                   f"{workload} trace={trace}: every metric printed by name")
            expect(final["correct"] and final["failed"] == 0 and final["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, {final['attempted']} attempted, none failed")
        if len(digests) == 2:
            expect(digests[0] == digests[1], f"{workload}: traced digest equals untraced digest")


def check_failure_counting() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import attacksim
    import checks
    import run
    from workloads import EvalFourwaysLearned

    workload = EvalFourwaysLearned(7)
    workload.setup()
    record = next(r for r in map(workload.run, range(100)) if r.length >= 2)
    expect(checks.episode_problems(workload.graph, workload.rewards, record) == [],
           "a genuine EpisodeRecord passes the gate")
    defense = workload.graph.defense_ids[0]
    twice = [dataclasses.replace(row, defender_action=defense) if row.t < 2 else row for row in record.steps]
    corruptions = {
        "reward sum": dataclasses.replace(record, cumulative_reward=record.cumulative_reward - 1.0),
        "flags fraction": dataclasses.replace(record, flags_fraction=record.flags_fraction + 0.5),
        "non-flag captured": dataclasses.replace(record, flags_captured=frozenset({"not-a-flag"})),
        "done/truncated": dataclasses.replace(record, truncated=not record.truncated),
        "double enable": dataclasses.replace(record, steps=twice),
    }
    for what, bad in corruptions.items():
        expect(checks.episode_problems(workload.graph, workload.rewards, bad) != [],
               f"gate rejects a record with a corrupted {what}")

    original = attacksim.engine.run_episode

    def faulty(*args, **kwargs):
        episode = kwargs["episode"]
        if episode == 3:
            raise RuntimeError("injected")
        good = original(*args, **kwargs)
        if episode == 5:
            return dataclasses.replace(good, cumulative_reward=good.cumulative_reward - 1.0)
        return good

    attacksim.engine.run_episode = faulty
    try:
        tally = run.Tally()
        run.run_ops(workload, tally, 0, 10)
    finally:
        attacksim.engine.run_episode = original
    expect(tally.attempted == 10 and tally.failed == 2,
           f"a raising and a corrupted episode count as 2 failures of 10 (got {tally.failed} of {tally.attempted})")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy2(path, bare / HERE.name / path.name)
    proc = run_bench("eval-fourways-learned", 0, cwd=bare, script=bare / HERE.name / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = snapshot()
    check_outputs(spec)
    check_failure_counting()
    check_bare_directory()
    after = snapshot()
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    expect(not changed, f"no file outside {HERE.name}/ changed {changed[:5]}")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
