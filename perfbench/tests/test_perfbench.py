"""Small-scale smoke test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Every workload runs one cycle with its ops shrunk through their [params]
keys, so the whole file takes about a minute.  The assertions are about
the harness: every metric name is emitted with a unit, the layer counts
repeat exactly at one seed, and a directory without the program makes
the benchmark fail without printing a result.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SMALL = {
    "domination": {"samples": 100},
    "percolation-curve": {"reps": 50, "window_lengths": "6,12"},
    "sampler-validation": {"spectral_samples": 100, "birth_death_samples": 50},
    "batch-io": {"samples": 50},
    "cpi-monotonicity": {"instances": 10},
    "cpi-limit": {"instances": 5, "window_lengths": "4,8", "domain": 8.0},
    "cluster-formula": {"instances": 10},
    "janossy-normalization": {"nodes_interval": 24, "integration_nodes_interval": 32, "nodes_square": 6},
    "vacuum-correlation": {"pairs": 10},
    "matrix-ineq-suite": {"trials": 500, "projection_trials": 100, "monotonicity_trials": 100},
    "renewal-equivalence": {"ks_samples": 1000, "configurations": 100},
}

END_TO_END = ["setup_s", "ops_per_s", "fail_frac", "peak_rss_mb", "run_s.geomean"]
RUN_S = {
    "draws": ["domination", "percolation-curve", "sampler-validation", "batch-io"],
    "ratios": ["cpi-monotonicity", "cpi-limit", "cluster-formula"],
    "spectra": ["janossy-normalization", "vacuum-correlation", "matrix-ineq-suite", "renewal-equivalence"],
}
PER_LAYER = """
kernels.k_values.self_s kernels.k_values.pairs kernels.j_values.self_s kernels.j_values.pairs
kernels.attach_context.calls kernels.attach_context.self_s
quadrature.tensor_gauss_legendre.calls quadrature.tensor_gauss_legendre.self_s
operators.discretize_on.self_s operators.discretize_on.nodes
operators.spectral.self_s operators.spectral.calls operators.spectral.n3
operators.interaction_values.self_s operators.interaction_values.calls
operators.interaction_values.points operators.interaction_values.self_us_per_point
operators.fredholm_det_I_minus.self_s
densities.compound_intensity.self_s densities.compound_intensity.calls
densities.compound_intensity.self_us_per_call
densities.candidate_intensity.self_s densities.candidate_intensity.calls densities.cluster_intensity.self_s
densities.janossy_normalization.self_s
matrixineq.psd_inequality_suite.self_s matrixineq.projection_inversion_suite.self_s
matrixineq.determinant_monotonicity_suite.self_s
samplers.sample_dpp_spectral.self_s samplers.sample_dpp_spectral.draws
samplers.sample_dpp_spectral.self_us_per_draw
samplers.sample_poisson.self_s samplers.sample_poisson.draws
samplers.sample_dpp_birth_death.self_s samplers.sample_dpp_birth_death.samples
samplers.sample_dpp_birth_death.proposals
samplers.domination_test.self_s samplers.domination_test.configs
samplers.save_batch.self_s samplers.save_batch.bytes samplers.load_batch.self_s
geometry.from_coords.self_s geometry.from_coords.calls geometry.count_in.self_s geometry.count_in.calls
percolation.decompose.self_s percolation.decompose.calls percolation.decompose.points
percolation.hull_of.self_s
renewal.sample_stationary_renewal.self_s renewal.log_det_factorized.self_s renewal.sample_spacings.self_s
experiments.glue.self_s experiments.write_outputs.self_s cli.load_config.self_s
trace.overhead_frac trace.coverage_frac
""".split()
# counts that must repeat exactly; attach_context.calls is ROADMAP item 4's rebuild count
COUNTS = [n for n in PER_LAYER if n.rsplit(".", 1)[1] not in ("self_s", "overhead_frac", "coverage_frac")
          and not n.rsplit(".", 1)[1].startswith("self_us")]

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_ops(workload: str):
    return tuple(
        dataclasses.replace(op, params={**op.params, **SMALL[op.name]}) for op in run.WORKLOADS[workload]
    )


def quiet(*args, **kwargs):
    pass


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def measure(workload: str, trace: bool, workdir: Path) -> run.Run:
    return run.measure(workload, 3, 0, trace, workdir, ops=small_ops(workload), log=quiet)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics_are_named_with_units(workload, tmp_path):
    result = measure(workload, False, tmp_path)
    metrics = run.end_to_end_metrics(result, small_ops(workload))
    for name in END_TO_END + [f"run_s.{op}" for op in RUN_S[workload]]:
        assert metrics[name][1], name
    selected = run.report(metrics, [m["name"] for m in SPEC["end_to_end"]], log=quiet)
    for m in SPEC["end_to_end"]:
        assert selected[m["name"]]["unit"] == m["unit"]
        assert selected[m["name"]]["value"] >= 0
    assert result.correct
    assert len(result.attempted) == len(RUN_S[workload]) + 2  # one cycle plus warm-up and repeat


# counts each workload must move: the layers its README entry says it stresses
EXERCISED = {
    "draws": ["samplers.sample_dpp_spectral.draws", "samplers.sample_dpp_birth_death.proposals",
              "samplers.save_batch.bytes", "percolation.decompose.points", "geometry.count_in.calls"],
    "ratios": ["densities.compound_intensity.calls", "operators.interaction_values.points",
               "kernels.j_values.pairs", "percolation.hull_of.calls"],
    "spectra": ["kernels.attach_context.calls", "operators.discretize_on.nodes",
                "operators.fredholm_det_I_minus.calls", "matrixineq.psd_inequality_suite.calls"],
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_layer_counts_repeat_at_one_seed(workload, tmp_path):
    first = run.per_layer_metrics(measure(workload, True, tmp_path / "a"))
    second = run.per_layer_metrics(measure(workload, True, tmp_path / "b"))
    for name in PER_LAYER:
        assert first[name][1], name
    assert {n: first[n][0] for n in COUNTS} == {n: second[n][0] for n in COUNTS}
    for name in EXERCISED[workload]:
        assert first[name][0] > 0, name
    selected = run.report(first, [m["name"] for m in SPEC["per_layer"]], log=quiet)
    for m in SPEC["per_layer"]:
        assert selected[m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "draws", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
