"""Command-line front end.

    dpp-lab run <config.ini> [--seed N] [--out DIR] [--threads N] [--verbose]
    dpp-lab list-experiments

A config file has an [experiment] section naming the experiment, an
optional [kernel] section, and an optional [params] section; see
docs/config-schema.md.  Exit codes: 0 when every check passes, 1 when a
check fails, 2 for configuration errors, 3 for numerical failures.
`--threads` is accepted for compatibility and ignored: every run is
sequential, and its outputs depend only on the config and the seed.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from . import experiments
from .errors import ConfigError, DppLabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def load_config(path) -> tuple[str, int | None, dict | None, dict | None]:
    """(experiment name, seed, kernel table, params table) from an INI file."""
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(file.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    known = {"experiment", "kernel", "params"}
    stray = sorted(set(parser.sections()) - known)
    if stray:
        raise ConfigError(f"{path}: unknown section(s): {', '.join(stray)}")
    if "experiment" not in parser:
        raise ConfigError(f"{path}: missing [experiment] section")
    sec = parser["experiment"]
    extra = sorted(set(sec) - {"name", "seed"})
    if extra:
        raise ConfigError(f"{path}: unknown [experiment] key(s): {', '.join(extra)}")
    name = sec.get("name")
    if not name:
        raise ConfigError(f"{path}: [experiment] needs a 'name' key")
    seed = None
    if "seed" in sec:
        try:
            seed = sec.getint("seed")
        except ValueError:
            raise ConfigError(f"{path}: experiment.seed must be an integer")
    kernel = dict(parser["kernel"]) if "kernel" in parser else None
    params = dict(parser["params"]) if "params" in parser else None
    return name, seed, kernel, params


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpp-lab",
        description="determinantal point process experiments with pass/fail checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from an INI config file")
    run.add_argument("config", help="path to the INI configuration")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="output directory (default runs/<name>)")
    run.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; ignored"
    )
    run.add_argument("--verbose", action="store_true", help="print passing check lines too")
    sub.add_parser("list-experiments", help="list experiment names and summaries")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for name, exp in experiments.REGISTRY.items():
            print(f"{name:22s} {exp.summary}")
        return EXIT_OK
    try:
        name, cfg_seed, kernel_cfg, params_cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else (cfg_seed or 0)
        out_dir = Path(args.out) if args.out else Path("runs") / name
        result = experiments.run_experiment(
            name,
            kernel_cfg,
            params_cfg,
            seed=seed,
            out_dir=out_dir,
        )
        experiments.write_outputs(result, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DppLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for c in result.checks:
        if args.verbose or not c.passed:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.observed}")
    good = sum(c.passed for c in result.checks)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{name}: {verdict} ({good}/{len(result.checks)} checks), outputs in {out_dir}")
    if not result.passed:
        print(f"rerun with --seed {seed}")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
