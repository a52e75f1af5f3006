"""Record alternating parent/change benchmark pairs in BENCH_<PR>.json.

    python3 bench/record.py --pr N --parent HEAD~1 [--seed 100]

The change is this checkout; the parent is the commit `--parent`, checked
out with `git worktree` into a temporary directory that is removed at
exit.  The workloads and the run length are those of BENCHMARK.json
(`workloads`, `run_seconds`).  Each of the PAIRS pairs runs
`perfbench/run.py --workload W --seed S --seconds T` once in each tree at
the same seed, pair i at seed `--seed` + i, and the order alternates:
the parent runs first in even pairs and second in odd ones, so a slow
drift of the machine does not favour one side.  Runs go one at a time.

The JSON holds, per workload and end-to-end metric of BENCHMARK.json,
the per-pair values of both sides, their medians and quartiles, the
change/parent ratio of the medians and the number of pairs the change
wins; the attempted and failed op counts per run; and the `machine` line
that perfbench prints (core count, BLAS, Python and numpy versions).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# pairs per workload: the fewest that can support a claimed gain (9 wins of 10)
PAIRS = 10


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `tree`: its final JSON line plus the machine facts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    machine = [line for line in lines if line.startswith("machine ")]
    result["machine"] = json.loads(machine[0].split(" ", 1)[1]) if machine else {}
    return result


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
        out[workload] = {
            "seeds": [seed + i for i in range(PAIRS)],
            "metrics": metrics,
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
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
    }
    with tempfile.TemporaryDirectory(prefix="dpplab-parent-") as tmp:
        tree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(tree), parent_rev)
        try:
            body = record(spec, tree, args.seed)
        finally:
            git("worktree", "remove", "--force", str(tree))
    target = ROOT / f"BENCH_{args.pr}.json"
    target.write_text(json.dumps({**header, **body}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
