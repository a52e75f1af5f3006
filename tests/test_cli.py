"""Command-line interface: configs, outputs, exit codes."""
from pathlib import Path

import pytest

from dpplab.cli import main

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

    @pytest.mark.parametrize(
        "name, params",
        [
            ("cpi-monotonicity", "instances = 40"),
            ("cpi-limit", "instances = 12"),
            # 16 spectral chunks at 4 threads: every sampler stack is composed differently
            ("sampler-validation", "spectral_samples = 600\nbirth_death_samples = 60"),
            ("domination", "samples = 400"),
        ],
        ids=["cpi-monotonicity", "cpi-limit", "sampler-validation", "domination"],
    )
    def test_reruns_are_byte_identical(self, tmp_path, name, params):
        cfg = write(tmp_path, f"[experiment]\nname = {name}\nseed = 3\n\n[params]\n{params}\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(out_a)]) == 0
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
