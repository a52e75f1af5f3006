"""Command-line interface: configs, outputs, exit codes."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpplab
from dpplab.cli import main
from dpplab.experiments import _blas_thread_controls, _two_sample_chi2, run_experiment

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRun:
    def test_example_config_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(EXAMPLES / "matrix-ineq-suite.ini"), "--out", str(out)])
        assert code == 0
        for name in ("results.csv", "summary.txt", "plot.svg"):
            assert (out / name).is_file()
        summary = (out / "summary.txt").read_text()
        assert "result: PASS" in summary
        assert "FAIL" not in summary.replace("PASS/FAIL", "")
        stdout = capsys.readouterr().out
        assert "matrix-ineq-suite" in stdout and "PASS" in stdout
        assert "FAIL" not in stdout and "rerun" not in stdout

    def test_failing_run_names_failed_checks_and_seed(self, tmp_path, capsys):
        # at seed 147 the pair-count z check fails by chance (z = -3.11)
        argv = ["run", str(EXAMPLES / "sampler-validation.ini"), "--seed", "147", "--out", str(tmp_path)]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL pair counts within r=0.75: ")
        assert lines[0].endswith("(z = -3.11)")
        assert lines[1].startswith("sampler-validation: FAIL (3/4 checks)")
        assert lines[2:] == ["rerun with --seed 147"]
        # --verbose adds the passing lines
        assert main(argv + ["--verbose"]) == 1
        tags = [line.split()[0] for line in capsys.readouterr().out.splitlines()[:4]]
        assert sorted(tags) == ["FAIL", "PASS", "PASS", "PASS"]

    @pytest.mark.parametrize(
        "name, params",
        [
            ("cpi-monotonicity", "instances = 40"),
            ("cpi-limit", "instances = 12"),
            # reruns the birth-death chains as well as the spectral sampler
            ("sampler-validation", "spectral_samples = 600\nbirth_death_samples = 60"),
            ("domination", "samples = 400"),
        ],
        ids=["cpi-monotonicity", "cpi-limit", "sampler-validation", "domination"],
    )
    def test_reruns_are_byte_identical(self, tmp_path, name, params):
        cfg = write(tmp_path, f"[experiment]\nname = {name}\nseed = 3\n\n[params]\n{params}\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        # --threads is accepted for compatibility and changes nothing
        assert main(["run", cfg, "--out", str(out_b), "--threads", "4"]) == 0
        for output in ("results.csv", "summary.txt"):
            assert (out_a / output).read_bytes() == (out_b / output).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write(
            tmp_path,
            "[experiment]\nname = cpi-monotonicity\nseed = 3\n\n[params]\ninstances = 40\n",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b), "--seed", "4"]) == 0
        assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()

    @pytest.mark.parametrize("seed", [1002, 2000, 401002, 404000, 406001, 408001, 410001])
    def test_birth_death_envelope_holds_at_logged_seeds(self, tmp_path, seed):
        # these seeds once ended in exit code 3: a birth acceptance above the
        # birth-death envelope
        ini = str(EXAMPLES / "sampler-validation.ini")
        assert main(["run", ini, "--seed", str(seed), "--out", str(tmp_path)]) != 3

    @pytest.mark.parametrize("seed", [17, 18])
    @pytest.mark.parametrize("ini", sorted(EXAMPLES.glob("*.ini")), ids=lambda path: path.stem)
    def test_examples_never_break_down(self, tmp_path, ini, seed):
        # seed sweep: no example config ends in a NumericalBreakdown (exit 3);
        # the examples run at seed 7 and the acceptance gates at 101-110
        assert main(["run", str(ini), "--seed", str(seed), "--out", str(tmp_path)]) != 3

    def test_all_example_configs_parse(self, tmp_path):
        # cheap structural check: every documented example names a real
        # experiment and passes config validation (mangled name -> error)
        from dpplab.cli import load_config

        inis = sorted(EXAMPLES.glob("*.ini"))
        assert len(inis) == 10
        for ini in inis:
            name, seed, kernel_cfg, params_cfg = load_config(str(ini))
            assert name == ini.stem


class TestExitCodes:
    def test_supercritical_rho_is_config_error(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "[experiment]\nname = cpi-limit\n\n[kernel]\nfamily = renewal\nrho = 0.6\na = 1.0\n",
        )
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "rho" in err and "a/2" in err

    def test_supercritical_params_rho_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "[experiment]\nname = domination\n\n[params]\nrho = 0.6\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: domination: ") and "rho" in err

    def test_cpi_limit_window_shorter_than_the_added_span_is_config_error(self, tmp_path, capsys):
        # the added point lies within domain / 10 = 2 of the center; a 3.9 window misses part of that
        cfg = write(
            tmp_path,
            "[experiment]\nname = cpi-limit\n\n[params]\ninstances = 50\nwindow_lengths = 3.9, 20\n",
        )
        assert main(["run", cfg, "--seed", "7", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cpi-limit: window_lengths") and "domain / 5 = 4" in err

    @pytest.mark.parametrize(
        "name, assignment",
        [
            ("janossy-normalization", "rho = 0.9"),
            ("janossy-normalization", "amplitude = nan"),
            ("vacuum-correlation", "domain = inf"),
            ("cpi-limit", "window_lengths = ,"),
        ],
    )
    def test_malformed_params_value_is_config_error(self, tmp_path, capsys, name, assignment):
        cfg = write(tmp_path, f"[experiment]\nname = {name}\n\n[params]\n{assignment}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {name}: ")

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = write(tmp_path, "[experiment]\nname = nope\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        cfg = write(tmp_path, "[experiment]\nname = domination\n\n[extra]\nx = 1\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_param(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "[experiment]\nname = domination\n\n[params]\nbogus_knob = 3\n",
        )
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.ini")]) == 2

    def test_kernel_section_rejected_when_fixed(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "[experiment]\nname = matrix-ineq-suite\n\n[kernel]\nfamily = renewal\n",
        )
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


class TestListing:
    def test_lists_all_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.strip().splitlines()]
        assert len(names) == 10
        for expected in (
            "matrix-ineq-suite",
            "cpi-monotonicity",
            "janossy-normalization",
            "sampler-validation",
            "domination",
            "vacuum-correlation",
            "cpi-limit",
            "cluster-formula",
            "renewal-equivalence",
            "percolation-curve",
        ):
            assert expected in names


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # at two BLAS threads eigh may return another basis of this run's
        # repeated eigenspaces, which moves the draws unless the run holds
        # BLAS to one thread; on a one-core machine both runs have one thread
        src = str(Path(dpplab.__file__).resolve().parent.parent)
        outputs = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}"
            argv = ["run", str(EXAMPLES / "vacuum-correlation.ini"), "--seed", "7", "--out", str(out)]
            subprocess.run([sys.executable, "-m", "dpplab.cli", *argv], env=env, capture_output=True, check=True)
            outputs.append({name: (out / name).read_bytes() for name in ("results.csv", "summary.txt", "plot.svg")})
        assert outputs[0] == outputs[1]

    def test_a_run_restores_the_thread_counts(self):
        controls = _blas_thread_controls()
        before = [get() for get, _ in controls]
        try:
            for _, put in controls:
                put(2)
            params = {"trials": 7, "projection_trials": 7, "monotonicity_trials": 7}
            run_experiment("matrix-ineq-suite", params_cfg=params, seed=1)
            assert [get() for get, _ in controls] == [2] * len(controls)
        finally:
            for (_, put), count in zip(controls, before):
                put(count)


class TestStartup:
    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats costs about half the start-up time; only renewal-equivalence imports it
        src = str(Path(dpplab.__file__).resolve().parent.parent)
        probe = f"import sys; sys.path.insert(0, {src!r}); import dpplab, dpplab.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_chi2_p_value_is_scipy_stats_survival_function(self):
        import scipy.stats

        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.poisson(rng.uniform(1.0, 8.0), 400)
            b = rng.poisson(rng.uniform(1.0, 8.0), 300)
            stat, dof, p = _two_sample_chi2(a, b)
            assert p == float(scipy.stats.chi2.sf(stat, dof))
