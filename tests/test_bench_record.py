"""bench/record.py reads cycle counts and failed ops out of perfbench's standard output, and net lines out of git."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "bench" / "record.py"
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _stdout(cycles: int, failed: list[tuple[str, int]]) -> str:
    lines = [
        f"FAILED workload=spectra op={op} seed={seed} exit=1: FAIL check | reproduce: dpp-lab run ..."
        for op, seed in failed
    ]
    lines += [
        "  setup_s                            0.41 s  (median of 3)",
        'machine {"cpu_count": 2, "python": "3.11.7"}',
        f"workload spectra seed 100: {cycles} cycle(s), {4 * cycles + 2} ops attempted, {len(failed)} failed",
        '{"correct": true, "attempted": %d, "failed": %d, "metrics": {}}' % (4 * cycles + 2, len(failed)),
    ]
    return "\n".join(lines) + "\n"


def test_parse_keeps_cycles_and_failed_lines():
    run = record.parse_run(_stdout(12, [("renewal-equivalence", 100007)]))
    assert run["cycles"] == 12
    assert run["attempted"] == 50 and run["failed"] == 1
    assert run["machine"] == {"cpu_count": 2, "python": "3.11.7"}
    (line,) = run["failures"]
    assert line.startswith("FAILED workload=spectra op=renewal-equivalence seed=100007 exit=1: ")


def test_a_run_without_failures_lists_none():
    assert record.parse_run(_stdout(3, []))["failures"] == []


def test_one_side_failures_name_the_seed_and_whether_the_other_side_reached_it():
    runs = {
        "parent": [record.parse_run(_stdout(8, [("renewal-equivalence", 100007)])),
                   record.parse_run(_stdout(9, []))],
        "change": [
            record.parse_run(_stdout(12, [("renewal-equivalence", 100007), ("janossy-normalization", 100010)])),
            record.parse_run(_stdout(9, [("vacuum-correlation", 101003)])),
        ],
    }
    assert record.one_side_failures(runs, [100, 101]) == [
        # pair 0: the parent stopped after 8 cycles, before seed 100010
        {"pair": 0, "side": "change", "op": "janossy-normalization", "seed": 100010, "reached": False},
        # pair 1: both sides ran cycle 3, and only the change failed there
        {"pair": 1, "side": "change", "op": "vacuum-correlation", "seed": 101003, "reached": True},
    ]


def test_net_lines_sum_a_numstat_listing():
    numstat = "12\t40\tsrc/dpplab/samplers.py\n3\t0\tsrc/dpplab/experiments.py\n-\t-\tsrc/dpplab/logo.png\n"
    assert record.net_lines(numstat) == {"added": 15, "deleted": 40, "net": -25}
    assert record.net_lines("") == {"added": 0, "deleted": 0, "net": 0}
