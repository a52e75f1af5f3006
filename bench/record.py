"""Record alternating parent/change benchmark pairs in BENCH_<PR>.json.

    python3 bench/record.py --pr N --parent HEAD~1 [--seed 100]

The change is this checkout; the parent is the commit `--parent`,
exported with `git archive` into a temporary directory (under $TMPDIR)
that is removed at exit, so an interrupted run leaves no git state
behind.  The workloads and the run length are those of BENCHMARK.json
(`workloads`, `run_seconds`).  Each of the PAIRS pairs runs
`perfbench/run.py --workload W --seed S --seconds T` once in each tree at
the same seed, pair i at seed `--seed` + i, and the order alternates:
the parent runs first in even pairs and second in odd ones, so a slow
drift of the machine does not favour one side.  Runs go one at a time.

The JSON holds, per workload and end-to-end metric of BENCHMARK.json,
the per-pair values of both sides, their medians and quartiles, the
change/parent ratio of the medians and the number of pairs the change
wins; the attempted and failed op counts, the cycle count and the
`FAILED ...` lines of each run; the (op, seed) failures of each pair
that only one side had, with whether the other side's run reached that
seed; the `machine` line that perfbench prints (core count, BLAS,
Python and numpy versions); and the lines of `src/dpplab` added, deleted
and net from the parent to this checkout (`git diff --numstat`, which
leaves out untracked files).
"""
from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# pairs per workload: the fewest that can support a claimed gain (9 wins of 10)
PAIRS = 10
# perfbench runs cycle c of a run at --seed S at op seed 1000 * S + c
SEEDS_PER_RUN = 1000

FAILED_OP = re.compile(r"^FAILED workload=\S+ op=(\S+) seed=(\d+)")
CYCLES = re.compile(r"^workload \S+ seed -?\d+: (\d+) cycle")


def parse_run(stdout: str) -> dict:
    """The final JSON line of a perfbench run plus its machine facts, cycle count and FAILED lines."""
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    machine = [line for line in lines if line.startswith("machine ")]
    result["machine"] = json.loads(machine[0].split(" ", 1)[1]) if machine else {}
    cycles = [int(m.group(1)) for m in map(CYCLES.match, lines) if m]
    result["cycles"] = cycles[0] if cycles else None
    result["failures"] = [line for line in lines if line.startswith("FAILED ")]
    return result


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `tree`, parsed by `parse_run`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return parse_run(proc.stdout)


def one_side_failures(runs: dict, seeds: list[int]) -> list[dict]:
    """The (op, seed) failures of a pair that the other side's run at that pair's seed did not have.

    `reached` tells whether the other run completed the cycle of that seed;
    an op run before the loop at cycle 0 counts as reached.
    """
    out = []
    for i, seed in enumerate(seeds):
        failed = {}
        for side in runs:
            matches = map(FAILED_OP.match, runs[side][i]["failures"])
            failed[side] = {(m.group(1), int(m.group(2))) for m in matches if m}
        for side, other in (("parent", "change"), ("change", "parent")):
            for op, op_seed in sorted(failed[side] - failed[other]):
                cycle = op_seed - SEEDS_PER_RUN * seed
                out.append({"pair": i, "side": side, "op": op, "seed": op_seed,
                            "reached": cycle < (runs[other][i]["cycles"] or 0)})
    return out


def net_lines(numstat: str) -> dict:
    """Added, deleted and net lines of a `git diff --numstat` listing; a binary file counts 0."""
    added = deleted = 0
    for line in numstat.splitlines():
        plus, minus, _ = line.split("\t", 2)
        if plus != "-":
            added += int(plus)
            deleted += int(minus)
    return {"added": added, "deleted": deleted, "net": added - deleted}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def record(spec: dict, parent: Path, seed: int, log=print) -> dict:
    trees = {"parent": parent, "change": ROOT}
    seconds = spec["run_seconds"]
    out, machine = {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], workload, seed + i, seconds)
                machine = machine or result["machine"]
                runs[side].append(result)
                log(f"{workload} pair {i} {side}: " + ", ".join(
                    f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()))
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            sign = 1 if m["better"] == "lower" else -1
            stats = {side: summarize(values[side]) for side in values}
            metrics[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "parent": values["parent"],
                "change": values["change"],
                "parent_summary": stats["parent"],
                "change_summary": stats["change"],
                "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
                "change_wins": sum(
                    sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            }
        seeds = [seed + i for i in range(PAIRS)]
        out[workload] = {
            "seeds": seeds,
            "metrics": metrics,
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
            "cycles": {side: [r["cycles"] for r in runs[side]] for side in runs},
            "failures": {side: [r["failures"] for r in runs[side]] for side in runs},
            "one_side_failures": one_side_failures(runs, seeds),
        }
    return {"machine": machine, "workloads": out}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<PR>.json")
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_rev = git("rev-parse", args.parent)
    header = {
        "parent": parent_rev,
        "change": git("rev-parse", "HEAD") + (" (with uncommitted changes)" if git("status", "--porcelain") else ""),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T",
        "seconds": spec["run_seconds"],
        "pairs": PAIRS,
        "src_dpplab_lines": net_lines(git("diff", "--numstat", parent_rev, "--", "src/dpplab")),
    }
    with tempfile.TemporaryDirectory(prefix="dpplab-parent-") as tmp:
        tree = Path(tmp) / "parent"
        archive = subprocess.run(["git", "archive", "--format=tar", parent_rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        body = record(spec, tree, args.seed)
    target = ROOT / f"BENCH_{args.pr}.json"
    target.write_text(json.dumps({**header, **body}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
