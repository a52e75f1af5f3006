"""Named experiments behind the command-line interface.

Each experiment validates one cluster of determinantal-process facts at a
configurable scale: it draws randomness from counter-based streams keyed
by the run seed, fills a numeric table, and evaluates a short list of
assertion checks.  For a fixed configuration and seed the table is
byte-identical across runs.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.special

from . import matrixineq, percolation, renewal
from .densities import (
    _stack_logdets,
    candidate_intensity,
    cluster_intensity,
    compound_intensity,
    determinant_ratios,
    janossy_normalization,
)
from .errors import ConfigError, DimensionMismatch, ParameterOutOfRange
from .geometry import Window, count_in, restrict
from .kernels import FiniteRangeFourier, Kernel, RenewalExponential
from .operators import (
    discretize,
    discretize_on,
    fredholm_det_I_minus,
    interaction_values,
)
from .quadrature import concatenate, tensor_gauss_legendre
from .samplers import (
    SampleBatch,
    _streams,
    domination_test,
    sample_dpp_birth_death,
    sample_dpp_spectral,
    sample_poisson,
    stream,
)
from .svg import Series, line_plot


# ---------------------------------------------------------------------------
# configuration access


class Params:
    """Typed access to one key=value table with field-named errors."""

    def __init__(self, owner: str, raw: dict | None):
        self.owner = owner
        self.raw = {str(k): str(v) for k, v in (raw or {}).items()}
        self._seen: set[str] = set()

    def _value(self, key: str) -> str | None:
        self._seen.add(key)
        return self.raw.get(key)

    def get_int(self, key: str, default: int, minimum: int | None = None) -> int:
        raw = self._value(key)
        if raw is None:
            value = default
        else:
            try:
                value = int(raw)
            except ValueError:
                raise ConfigError(f"{self.owner}: '{key}' must be an integer, got {raw!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.owner}: '{key}' must be >= {minimum}, got {value}")
        return value

    def get_float(
        self,
        key: str,
        default: float,
        minimum: float | None = None,
        positive: bool = False,
    ) -> float:
        raw = self._value(key)
        if raw is None:
            value = default
        else:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(f"{self.owner}: '{key}' must be a number, got {raw!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{self.owner}: '{key}' must be finite, got {raw!r}")
        if positive and not value > 0:
            raise ConfigError(f"{self.owner}: '{key}' must be positive, got {value}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.owner}: '{key}' must be >= {minimum}, got {value}")
        return value

    def get_str(self, key: str, default: str, choices: Sequence[str] | None = None) -> str:
        raw = self._value(key)
        value = default if raw is None else raw
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{self.owner}: '{key}' must be one of {', '.join(choices)}, got {value!r}"
            )
        return value

    def get_floats(self, key: str, default: Sequence[float]) -> list[float]:
        raw = self._value(key)
        if raw is None:
            return list(default)
        try:
            values = [float(v) for v in raw.replace(";", ",").split(",") if v.strip()]
        except ValueError:
            values = []
        if not values or not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{self.owner}: '{key}' must be a non-empty comma-separated list of finite numbers")
        return values

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.raw) - self._seen)
        if unknown:
            raise ConfigError(f"{self.owner}: unknown parameter(s): {', '.join(unknown)}")


def build_kernel(section: dict | None, defaults: dict | None = None) -> Kernel:
    """Kernel from a [kernel] table; constraint violations become ConfigError."""
    merged = dict(defaults or {})
    merged.update(section or {})
    p = Params("kernel", merged)
    family = p.get_str("family", "renewal", choices=("renewal", "finite-range"))
    try:
        if family == "renewal":
            rho = p.get_float("rho", 0.25)
            a = p.get_float("a", 1.0)
            p.reject_unknown()
            return RenewalExponential(rho, a)
        rng = p.get_float("range", 1.0)
        amplitude = p.get_float("amplitude", 0.8)
        dimension = p.get_int("dimension", 1)
        p.reject_unknown()
        return FiniteRangeFourier(rng, amplitude, dimension=dimension)
    except (ParameterOutOfRange, DimensionMismatch) as exc:
        raise ConfigError(f"kernel: {exc}") from exc


def _no_kernel(section: dict | None, name: str) -> None:
    if section:
        raise ConfigError(f"{name} takes no [kernel] section")


def _subseed(seed: int, salt: int) -> int:
    # derived stream keys for independent sub-batches of one run
    return (seed * 1_000_003 + salt) & ((1 << 63) - 1)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    observed: str
    requirement: str


def _margin_check(name: str, margins, tol: float) -> Check:
    """No margin below -tol, and no NaN margin.

    A failing check names the index of the worst margin's instance, the i
    of `stream(_subseed(seed, salt), i)` where a runner draws instance i.
    """
    margins = np.asarray(margins, dtype=float)
    bad = int(np.sum(~(margins >= -tol)))
    observed = f"{bad} violations in {margins.size} (worst {margins.min():.3e})"
    if bad:
        observed += f" at instance {int(np.argmin(margins))}"
    return Check(name, bad == 0, observed, f"0 violations at tolerance {tol:g}")


def _z_check(name: str, observed: str, z: float, limit: float) -> Check:
    """|z| <= limit, with z appended to the observed text."""
    return Check(name, abs(z) <= limit, f"{observed} (z = {z:+.2f})", f"|z| <= {limit:g}")


@dataclass
class ExperimentResult:
    checks: list[Check]
    header: list[str]
    rows: list[list]
    series: list[Series] = field(default_factory=list)
    xlabel: str = ""
    ylabel: str = ""
    # set by run_experiment
    name: str = field(default="", init=False)
    seed: int = field(default=0, init=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_outputs(result: ExperimentResult, out_dir) -> None:
    """results.csv, summary.txt, and plot.svg under `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(result.header)]
    lines += [",".join(_cell(v) for v in row) for row in result.rows]
    (out / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    exp = REGISTRY[result.name]
    summary = [
        f"experiment: {result.name}",
        f"seed: {result.seed}",
        f"anchor: {exp.anchor}",
        "",
    ]
    for c in result.checks:
        tag = "PASS" if c.passed else "FAIL"
        summary.append(f"{tag} {c.name}: observed {c.observed}; requires {c.requirement}")
    summary += ["", f"result: {'PASS' if result.passed else 'FAIL'}"]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")

    series = result.series or [
        Series(x=list(range(len(result.rows))), y=[0.0] * len(result.rows))
    ]
    line_plot(
        out / "plot.svg",
        series,
        title=result.name,
        xlabel=result.xlabel,
        ylabel=result.ylabel,
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Experiment:
    name: str
    summary: str
    anchor: str
    runner: Callable


REGISTRY: dict[str, Experiment] = {}


def _register(name: str, summary: str, anchor: str):
    def wrap(fn):
        REGISTRY[name] = Experiment(name=name, summary=summary, anchor=anchor, runner=fn)
        return fn

    return wrap


# (getter, setter) of the thread count in the OpenBLAS of the numpy and scipy
# wheels; numpy's build has 64-bit indices and suffixes its symbols with 64_
_OPENBLAS_THREAD_SYMBOLS = [
    (f"scipy_openblas_get_num_threads{suffix}", f"scipy_openblas_set_num_threads{suffix}")
    for suffix in ("64_", "")
]


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS copies bundled with numpy and scipy.

    Each package loads its own copy from `<package>.libs`; opening the
    file again returns the loaded library.  Looked up on first use, so
    that `import dpplab` does not pay for it.
    """
    controls = []
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS copy at one thread, then restore the previous counts.

    A threaded BLAS can return another eigenbasis of a repeated
    eigenspace, or sum in another order, so outputs would depend on the
    thread count.
    """
    controls = _blas_thread_controls()
    if not controls:
        print("dpp-lab: no OpenBLAS thread setter found; outputs may depend on the BLAS thread count",
              file=sys.stderr)
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)


def run_experiment(
    name: str,
    kernel_cfg: dict | None = None,
    params_cfg: dict | None = None,
    seed: int = 0,
    out_dir=None,
) -> ExperimentResult:
    """Run one registered experiment at `seed`, with BLAS held to one thread."""
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown experiment {name!r}; available: {known}")
    with _one_blas_thread():
        result = REGISTRY[name].runner(kernel_cfg, Params(name, params_cfg), int(seed), out_dir)
    result.name, result.seed = name, int(seed)
    return result


# most points of a downsampled quantile plot
PLOT_POINTS = 400


def _downsample(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values thinned to at most PLOT_POINTS points, with quantile x."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return np.zeros(0), np.zeros(0)
    idx = np.unique(np.linspace(0, v.size - 1, min(PLOT_POINTS, v.size)).astype(int))
    return idx / max(v.size - 1, 1), v[idx]


# ---------------------------------------------------------------------------
# 1. matrix inequality suite


@_register(
    "matrix-ineq-suite",
    "randomized determinant and resolvent-projection inequalities on PSD pools",
    "det A <= det A[aa] det A[bb]; det A det A[bb] <= det A[ab,ab] det A[bc,bc]; "
    "det A / det A[bb] = det of the bordered-ratio matrix; P T^-1 P >= P (P T P)^-1 P",
)
def _run_matrix_suite(kernel_cfg, p: Params, seed, out_dir):
    _no_kernel(kernel_cfg, "matrix-ineq-suite")
    trials = p.get_int("trials", 20000, minimum=7)
    proj_trials = p.get_int("projection_trials", max(trials // 10, 700), minimum=7)
    mono_trials = p.get_int("monotonicity_trials", max(trials // 10, 700), minimum=7)
    tol = p.get_float("tolerance", 1e-9, positive=True)
    p.reject_unknown()

    dump_dir = str(Path(out_dir) / "violations") if out_dir else None
    reports = list(matrixineq.psd_inequality_suite(trials, seed, tol=tol, dump_dir=dump_dir).values())
    reports.append(matrixineq.projection_inversion_suite(proj_trials, seed, tol=tol))
    reports.append(matrixineq.determinant_monotonicity_suite(mono_trials, seed, tol=tol))

    checks = [
        Check(
            name=f"{r.name}: zero violations",
            passed=r.ok,
            observed=f"{r.violations} violations in {r.trials} trials "
            f"(worst margin {r.worst_margin:.3e}, skipped {r.skipped})",
            requirement=f"0 violations at tolerance {tol:g}",
        )
        for r in reports
    ]
    header = ["check", "trials", "violations", "skipped", "worst_margin"]
    rows = [[r.name, r.trials, r.violations, r.skipped, r.worst_margin] for r in reports]
    series = [
        Series(
            x=list(range(len(reports))),
            y=[max(-r.worst_margin, 1e-18) for r in reports],
            label="|worst margin|",
        )
    ]
    return ExperimentResult(
        checks=checks,
        header=header,
        rows=rows,
        series=series,
        xlabel="check index",
        ylabel="worst |margin|",
    )


# ---------------------------------------------------------------------------
# 2. compound-intensity monotonicity and diagonal bound


def _cpi_family_run(spec: Kernel, window: Window, n: int, instances: int, seed: int,
                    salt: int, max_points: int):
    """Monotonicity and diagonal-bound margins of one family, one entry per instance.

    An instance is a point a, a configuration eta of m points and xi, a
    random subset of eta.  Every instance's (a, eta) block comes from one
    `interaction_values` stack over all instances, and c(a | eta),
    c(a | xi) and J(a, a) are read from principal sub-blocks of that one
    matrix, so both ratios share its roundoff.
    """
    disc = discretize(spec, window, n)

    def draw(i: int):
        rng = stream(_subseed(seed, salt), i)
        while True:
            m = int(rng.integers(2, max_points + 1))
            pts = np.asarray(window.lower) + np.asarray(window.sides) * rng.random(
                (m + 1, window.dimension)
            )
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=2))
            np.fill_diagonal(dist, np.inf)
            if dist.min() > 1e-7:
                break
        keep = rng.random(m) < 0.5
        return pts, np.concatenate([[0], 1 + np.flatnonzero(keep)])

    drawn = [draw(i) for i in range(instances)]
    offsets = np.cumsum([0] + [len(pts) for pts, _ in drawn])
    full = interaction_values(disc, np.concatenate([pts for pts, _ in drawn]), blocks=offsets)
    blocks, tails = [], []
    for (pts, sub), J in zip(drawn, full):
        blocks += [J, J[np.ix_(sub, sub)]]
        tails += [len(pts) - 1, sub.size - 1]
    ratios = determinant_ratios(blocks, tails)
    c_eta, c_xi = ratios[0::2], ratios[1::2]
    diag = np.array([J[0, 0] for J in full])
    mono = (c_xi - c_eta) / np.maximum(1.0, c_xi)
    bound = (diag - c_xi) / np.maximum(1.0, diag)
    return mono, bound


def _families(p: Params, window_renewal: float, nodes_renewal: int) -> list[tuple]:
    """(label, spec, window, nodes, salt) of the renewal and finite-range cases.

    Reads the shared keys after the runner's own and rejects unknown ones.
    """
    rho = p.get_float("rho", 0.25)
    a = p.get_float("a", 1.0)
    len_renewal = p.get_float("window_renewal", window_renewal, positive=True)
    len_fr = p.get_float("window_finite_range", 6.0, positive=True)
    n1 = p.get_int("nodes_renewal", nodes_renewal, minimum=8)
    n2 = p.get_int("nodes_finite_range", 100, minimum=8)
    p.reject_unknown()
    try:
        renewal_spec = RenewalExponential(rho, a)
    except ParameterOutOfRange as exc:
        raise ConfigError(f"{p.owner}: {exc}") from exc
    return [
        ("renewal", renewal_spec, Window.interval(0.0, len_renewal), n1, 1),
        ("finite-range", FiniteRangeFourier(1.0, 0.8, dimension=1), Window.interval(0.0, len_fr), n2, 2),
    ]


@_register(
    "cpi-monotonicity",
    "local compound intensities shrink under conditioning and respect the diagonal bound",
    "for xi subset eta: c(a | xi) >= c(a | eta); c(a | xi) <= J_[window](a, a)",
)
def _run_cpi_monotonicity(kernel_cfg, p: Params, seed, out_dir):
    _no_kernel(kernel_cfg, "cpi-monotonicity")
    instances = p.get_int("instances", 400, minimum=1)
    tol = p.get_float("tolerance", 1e-9, positive=True)
    max_points = p.get_int("max_points", 8, minimum=2)
    checks, rows, series = [], [], []
    for label, spec, window, n, salt in _families(p, window_renewal=8.0, nodes_renewal=120):
        mono, bound = _cpi_family_run(spec, window, n, instances, seed, salt, max_points)
        checks.append(_margin_check(f"{label}: monotone under conditioning", mono, tol))
        checks.append(_margin_check(f"{label}: diagonal bound", bound, tol))
        rows.append([
            label,
            instances,
            int(np.sum(mono < -tol)),
            float(mono.min()),
            int(np.sum(bound < -tol)),
            float(bound.min()),
        ])
        qx, qy = _downsample(mono)
        series.append(Series(x=list(qx), y=list(qy), label=f"{label} monotonicity", markers=False))
        qx, qy = _downsample(bound)
        series.append(Series(x=list(qx), y=list(qy), label=f"{label} bound", markers=False))
    return ExperimentResult(
        checks=checks,
        header=[
            "family",
            "instances",
            "monotonicity_violations",
            "worst_monotonicity_margin",
            "bound_violations",
            "worst_bound_margin",
        ],
        rows=rows,
        series=series,
        xlabel="quantile",
        ylabel="normalized margin",
    )


# ---------------------------------------------------------------------------
# 3. Janossy normalization


@_register(
    "janossy-normalization",
    "truncated Janossy-integral sums reach 1 on a unit interval and a unit square",
    "sum_m (1/m!) int det(I - K) det J_[window](x_1..x_m) dx = 1",
)
def _run_janossy(kernel_cfg, p: Params, seed, out_dir):
    _no_kernel(kernel_cfg, "janossy-normalization")
    tol = p.get_float("tolerance", 1e-5, positive=True)
    term_tol = p.get_float("term_tolerance", 1e-8, positive=True)
    rho = p.get_float("rho", 0.25)
    a = p.get_float("a", 1.0)
    rng = p.get_float("range", 0.6, positive=True)
    amplitude = p.get_float("amplitude", 0.7, minimum=0.0)
    n1 = p.get_int("nodes_interval", 80, minimum=8)
    q1 = p.get_int("integration_nodes_interval", 110, minimum=8)
    n2 = p.get_int("nodes_square", 16, minimum=6)
    # 0 keeps the square case on the operator's own rule (kinked profile:
    # a second rule converges too slowly to be worth it)
    q2 = p.get_int("integration_nodes_square", 0, minimum=0)
    p.reject_unknown()

    try:
        cases = [
            ("interval", RenewalExponential(rho, a), Window.interval(0.0, 1.0), n1, q1),
            (
                "square",
                FiniteRangeFourier(rng, amplitude, dimension=2),
                Window.box((0.0, 0.0), (1.0, 1.0)),
                n2,
                q2,
            ),
        ]
    except ParameterOutOfRange as exc:
        raise ConfigError(f"{p.owner}: {exc}") from exc
    checks, rows, series = [], [], []
    for label, spec, window, n, q in cases:
        res = janossy_normalization(
            spec, window, n, term_tolerance=term_tol,
            integration_nodes=q if q > 0 else None,
        )
        err = abs(res.total - 1.0)
        checks.append(
            Check(
                name=f"{label}: normalization",
                passed=err <= tol,
                observed=f"total {res.total:.9f} ({res.terms_used} terms, error {err:.3e})",
                requirement=f"|total - 1| <= {tol:g}",
            )
        )
        checks.append(
            Check(
                name=f"{label}: truncation",
                passed=res.next_term < term_tol,
                observed=f"first omitted term {res.next_term:.3e}",
                requirement=f"< {term_tol:g}",
            )
        )
        rows.append([label, n, q, res.total, err, res.terms_used, res.next_term])
        series.append(
            Series(x=[0, res.terms_used], y=[res.total, res.total], label=label, markers=True)
        )
    return ExperimentResult(
        checks=checks,
        header=[
            "case",
            "operator_nodes",
            "integration_nodes",
            "total",
            "abs_error",
            "terms_used",
            "next_term",
        ],
        rows=rows,
        series=series,
        xlabel="terms",
        ylabel="running total",
    )


# ---------------------------------------------------------------------------
# 4. sampler validation


# smallest expected count of a merged bin in the two-sample chi-square
CHI2_MIN_EXPECTED = 5.0


def _two_sample_chi2(counts_a: np.ndarray, counts_b: np.ndarray):
    """Two-sample chi-square on count histograms, merging sparse bins."""
    hi = int(max(counts_a.max(initial=0), counts_b.max(initial=0)))
    oa = np.bincount(counts_a, minlength=hi + 1).astype(float)
    ob = np.bincount(counts_b, minlength=hi + 1).astype(float)
    na, nb = oa.sum(), ob.sum()
    small = min(na, nb)
    bins_a, bins_b = [], []
    acc_a = acc_b = 0.0
    for k in range(hi + 1):
        acc_a += oa[k]
        acc_b += ob[k]
        # flush once the smaller group's expected count clears the floor
        if small * (acc_a + acc_b) / (na + nb) >= CHI2_MIN_EXPECTED:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0.0
    if (acc_a or acc_b) and bins_a:
        bins_a[-1] += acc_a
        bins_b[-1] += acc_b
    oa, ob = np.array(bins_a), np.array(bins_b)
    if oa.size < 2:
        return 0.0, 1, 1.0
    pooled = (oa + ob) / (na + nb)
    ea, eb = na * pooled, nb * pooled
    stat = float(np.sum((oa - ea) ** 2 / ea) + np.sum((ob - eb) ** 2 / eb))
    dof = oa.size - 1
    return stat, dof, float(scipy.special.chdtrc(dof, stat))  # the chi2(dof) survival function


@_register(
    "sampler-validation",
    "spectral sampler matches the discrete intensity, pair counts, and vacuum; "
    "birth-death agrees with it in distribution",
    "E N = tr K; E ordered close pairs = sum (K_ii K_jj - K_ij^2); P(N=0) = det(I - K)",
)
def _run_sampler_validation(kernel_cfg, p: Params, seed, out_dir):
    spec = build_kernel(kernel_cfg)
    if spec.dimension != 1:
        raise ConfigError("sampler-validation: use a one-dimensional kernel")
    length = p.get_float("window", 6.0, positive=True)
    n = p.get_int("nodes", 96, minimum=8)
    m_spectral = p.get_int("spectral_samples", 4000, minimum=100)
    m_bd = p.get_int("birth_death_samples", 800, minimum=50)
    pair_r = p.get_float("pair_radius", 0.75, positive=True)
    z_limit = p.get_float("z_limit", 3.0, positive=True)
    p_floor = p.get_float("chi2_p_floor", 1e-3, positive=True)
    p.reject_unknown()

    window = Window.interval(0.0, length)
    disc = discretize(spec, window, n)
    lams = disc.clipped_eigenvalues()
    expected_n = float(lams.sum())
    vacuum = fredholm_det_I_minus(disc)
    M = disc.matrix
    nodes = disc.quad.nodes[:, 0]
    close = np.abs(nodes[:, None] - nodes[None, :]) <= pair_r
    np.fill_diagonal(close, False)
    pair_matrix = np.outer(np.diag(M), np.diag(M)) - M * M
    expected_pairs = float(pair_matrix[close].sum()) / 2.0

    batch = sample_dpp_spectral(spec, window, n, m_spectral, _subseed(seed, 1), disc=disc)
    counts = batch.counts()
    near = percolation.close_pairs(batch, pair_r)
    pairs = np.bincount(batch.sample_ids()[near[:, 0]], minlength=len(batch))
    empty = (counts == 0).astype(float)

    checks, zs = [], []
    for name, sample, truth in [
        ("intensity: mean count", counts, expected_n),
        (f"pair counts within r={pair_r:g}", pairs, expected_pairs),
        ("vacuum frequency", empty, vacuum),
    ]:
        se = float(np.std(sample, ddof=1) / math.sqrt(len(sample)))
        z = (float(np.mean(sample)) - truth) / se if se > 0 else 0.0
        zs.append(z)
        checks.append(_z_check(name, f"mean {np.mean(sample):.6f} vs {truth:.6f}", z, z_limit))

    bd = sample_dpp_birth_death(spec, window, n, m_bd, _subseed(seed, 2), disc=disc)
    stat, dof, pval = _two_sample_chi2(counts, bd.counts())
    checks.append(Check(
        name="birth-death vs spectral count law",
        passed=pval > p_floor,
        observed=f"chi2 {stat:.2f} on {dof} dof, p = {pval:.4f}",
        requirement=f"p > {p_floor:g}",
    ))

    hi = int(max(counts.max(initial=0), bd.counts().max(initial=0)))
    hist_s = np.bincount(counts, minlength=hi + 1) / len(counts)
    hist_b = np.bincount(bd.counts(), minlength=hi + 1) / len(bd.counts())
    rows = [
        [k, float(hist_s[k]), float(hist_b[k])] for k in range(hi + 1)
    ]
    rows += [[f"z_{key}", z, 0.0] for key, z in zip(("intensity", "pairs", "vacuum"), zs)]
    rows.append(["chi2_p", pval, 0.0])
    series = [
        Series(x=list(range(hi + 1)), y=list(hist_s), label="spectral"),
        Series(x=list(range(hi + 1)), y=list(hist_b), label="birth-death"),
    ]
    return ExperimentResult(
        checks=checks,
        header=["count_or_stat", "spectral", "birth_death"],
        rows=rows,
        series=series,
        xlabel="point count",
        ylabel="frequency",
    )


# ---------------------------------------------------------------------------
# 5. stochastic domination by the interaction-diagonal Poisson process


@_register(
    "domination",
    "DPP samples sit below the Poisson process with the interaction diagonal "
    "as its rate, for increasing statistics",
    "mu <= Poisson(z) with z(x) = J(x, x): every increasing statistic has smaller mean",
)
def _run_domination(kernel_cfg, p: Params, seed, out_dir):
    _no_kernel(kernel_cfg, "domination")
    count = p.get_int("samples", 3000, minimum=100)
    z_limit = p.get_float("z_limit", 3.0, positive=True)
    checks, rows, series = [], [], []
    for label, spec, window, n, salt in _families(p, window_renewal=10.0, nodes_renewal=140):
        zdiag = spec.interaction_diagonal
        dpp = sample_dpp_spectral(spec, window, n, count, _subseed(seed, salt))
        poi = sample_poisson(zdiag, window, count, _subseed(seed, salt + 10))
        comparisons = domination_test(dpp, poi, z_threshold=z_limit)
        for comp in comparisons:
            checks.append(
                Check(
                    name=f"{label}: {comp.name}",
                    passed=comp.ok,
                    observed=(
                        f"DPP mean {comp.mean_lower:.4f} vs Poisson {comp.mean_upper:.4f} "
                        f"(z = {comp.zscore:+.2f})"
                    ),
                    requirement=f"mean difference <= {z_limit:g} SE",
                )
            )
            rows.append(
                [label, comp.name, comp.mean_lower, comp.mean_upper, comp.se_diff, comp.zscore]
            )
        series.append(
            Series(
                x=list(range(len(comparisons))),
                y=[c.mean_lower for c in comparisons],
                label=f"{label} DPP",
            )
        )
        series.append(
            Series(
                x=list(range(len(comparisons))),
                y=[c.mean_upper for c in comparisons],
                label=f"{label} Poisson",
            )
        )
    return ExperimentResult(
        checks=checks,
        header=["family", "statistic", "dpp_mean", "poisson_mean", "se_diff", "z"],
        rows=rows,
        series=series,
        xlabel="statistic index",
        ylabel="mean",
    )


# ---------------------------------------------------------------------------
# 6. vacuum subadditivity over disjoint windows


@_register(
    "vacuum-correlation",
    "vacuum probabilities of disjoint windows multiply up to a deficit with a "
    "definite sign, and Monte Carlo joint-vacuum frequencies match determinants",
    "det(I - K on union) <= det(I - K on A) det(I - K on B) for disjoint A, B",
)
def _run_vacuum_correlation(kernel_cfg, p: Params, seed, out_dir):
    spec = build_kernel(kernel_cfg)
    if spec.dimension != 1:
        raise ConfigError("vacuum-correlation: use a one-dimensional kernel")
    pairs = p.get_int("pairs", 100, minimum=1)
    tol = p.get_float("tolerance", 1e-9, positive=True)
    domain_len = p.get_float("domain", 20.0, positive=True)
    nodes_per_unit = p.get_float("nodes_per_unit", 10.0, positive=True)
    mc_samples = p.get_int("mc_samples", 20000, minimum=0)
    mc_nodes = p.get_int("mc_nodes", 220, minimum=16)
    z_limit = p.get_float("z_limit", 3.0, positive=True)
    p.reject_unknown()

    rng = stream(_subseed(seed, 1), 0)
    margins, rows = [], []
    geometry = []
    for k in range(pairs):
        while True:
            l1 = 1.0 + 3.0 * rng.random()
            l2 = 1.0 + 3.0 * rng.random()
            gap = 0.1 + 2.0 * rng.random()
            free = domain_len - (l1 + l2 + gap)
            if free > 0:
                break
        start = rng.random() * free
        wa = Window.interval(start, start + l1)
        wb = Window.interval(start + l1 + gap, start + l1 + gap + l2)
        geometry.append((wa, wb))
        na = max(16, int(math.ceil(nodes_per_unit * l1)))
        nb = max(16, int(math.ceil(nodes_per_unit * l2)))
        qa = tensor_gauss_legendre(wa, na)
        qb = tensor_gauss_legendre(wb, nb)
        vac_a = fredholm_det_I_minus(discretize_on(spec, "K", qa))
        vac_b = fredholm_det_I_minus(discretize_on(spec, "K", qb))
        vac_u = fredholm_det_I_minus(discretize_on(spec, "K", concatenate([qa, qb])))
        margin = (vac_a * vac_b - vac_u) / max(1.0, vac_a * vac_b)
        margins.append(margin)
        rows.append([k, wa.lower[0], wa.upper[0], wb.lower[0], wb.upper[0], vac_a, vac_b, vac_u, margin])
    checks = [_margin_check("vacuum subadditivity over disjoint windows", margins, tol)]

    series = [
        Series(x=list(range(pairs)), y=list(margins), label="normalized deficit", markers=False)
    ]
    if mc_samples:
        domain = Window.interval(0.0, domain_len)
        disc = discretize(spec, domain, mc_nodes)
        batch = sample_dpp_spectral(spec, domain, mc_nodes, mc_samples, _subseed(seed, 2), disc=disc)
        nodes = disc.quad.nodes[:, 0]
        for j, (wa, wb) in enumerate(geometry[: min(3, len(geometry))]):
            in_u = ((nodes >= wa.lower[0]) & (nodes <= wa.upper[0])) | (
                (nodes >= wb.lower[0]) & (nodes <= wb.upper[0])
            )
            sub = disc.matrix[np.ix_(in_u, in_u)]
            truth = float(np.exp(np.sum(np.log1p(-np.clip(np.linalg.eigvalsh(sub), 0.0, None)))))
            both_empty = (count_in(batch, wa) + count_in(batch, wb) == 0).astype(float)
            freq = float(both_empty.mean())
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / mc_samples)
            z = (freq - truth) / se
            checks.append(_z_check(
                f"joint vacuum frequency, pair {j}",
                f"frequency {freq:.5f} vs determinant {truth:.5f}", z, z_limit,
            ))
            rows.append([f"mc_pair_{j}", wa.lower[0], wa.upper[0], wb.lower[0], wb.upper[0], freq, truth, se, z])
    return ExperimentResult(
        checks=checks,
        header=[
            "row",
            "a_lo",
            "a_hi",
            "b_lo",
            "b_hi",
            "vacuum_a_or_frequency",
            "vacuum_b_or_determinant",
            "vacuum_union_or_se",
            "margin_or_z",
        ],
        rows=rows,
        series=series,
        xlabel="pair index",
        ylabel="normalized deficit",
    )


# ---------------------------------------------------------------------------
# 7. window-limit consistency of local compound intensities


@_register(
    "cpi-limit",
    "windowed compound intensities stabilize to the closed-form global one "
    "and the candidate sequence is monotone",
    "c_window(a | xi) -> d(l) d(r) / d(l + r); det-ratio candidates are non-increasing in the window",
)
def _run_cpi_limit(kernel_cfg, p: Params, seed, out_dir):
    spec = build_kernel(kernel_cfg)
    if not isinstance(spec, RenewalExponential):
        raise ConfigError("cpi-limit: needs the renewal family (closed-form limit)")
    instances = p.get_int("instances", 200, minimum=1)
    tol = p.get_float("tolerance", 1e-4, positive=True)
    mono_tol = p.get_float("monotonicity_tolerance", 1e-9, positive=True)
    route_tol = p.get_float("route_tolerance", 1e-9, positive=True)
    domain_len = p.get_float("domain", 20.0, positive=True)
    # the |x - y| kink limits Nystrom accuracy; 56/unit keeps the worst
    # windowed-vs-closed-form gap near 2e-5 over 10^3 random instances
    nodes_per_unit = p.get_float("nodes_per_unit", 56.0, positive=True)
    ladder = p.get_floats("window_lengths", (4.0, 8.0, 12.0, 16.0, domain_len))
    p.reject_unknown()
    if max(ladder) > domain_len + 1e-12:
        raise ConfigError("cpi-limit: window_lengths cannot exceed the domain")
    # the added point is drawn within domain / 10 of the center, so every window must hold that span
    if min(ladder) < domain_len / 5.0 - 1e-12:
        raise ConfigError(
            f"cpi-limit: window_lengths must be at least domain / 5 = {domain_len / 5.0:g}, got {min(ladder):g}"
        )

    forms = spec.forms
    center = domain_len / 2.0
    windows = [
        Window.interval(center - l / 2.0, center + l / 2.0) for l in sorted(ladder)
    ]
    discs = []
    for w in windows:
        n = max(24, int(math.ceil(nodes_per_unit * w.sides[0])))
        discs.append((w, n, discretize(spec, w, n, panels=max(2, int(w.sides[0])))))
    domain = Window.interval(0.0, domain_len)
    lo_a, hi_a = center - domain_len / 10.0, center + domain_len / 10.0

    def one(i: int):
        xi = renewal.sample_stationary_renewal(forms, domain, 1, _subseed(seed, 100 + i)).coords
        rng = stream(_subseed(seed, 7), i)
        while True:
            a_pt = lo_a + (hi_a - lo_a) * rng.random()
            if len(xi) == 0 or np.abs(xi[:, 0] - a_pt).min() > 1e-6:
                break
        closed = renewal.global_compound_intensity(forms, a_pt, xi[:, 0])
        return np.array([[a_pt]]), xi, closed

    flat = [one(i) for i in range(instances)]
    added = SampleBatch.from_samples(domain, [f[0] for f in flat], seed=seed, method="uniform")
    given = SampleBatch.from_samples(domain, [f[1] for f in flat], seed=seed, method="renewal")
    closed = np.array([f[2] for f in flat])
    # candidate ratios of every instance, one stack per window
    cand = np.array([candidate_intensity(spec, added, given, w) for w, _, _ in discs]).T
    if len(discs) > 1:
        monos = np.min(np.diff(-cand, axis=1) / np.maximum(1.0, cand[:, :-1]), axis=1)
    else:
        monos = np.zeros(instances)
    routes = np.abs(cand[:, -1] - closed) / np.maximum(1.0, np.abs(closed))

    # c_window(a | xi in window) of every instance, from one stack per window
    local = np.array(
        [compound_intensity(spec, w, n, added, restrict(given, w), disc=d) for w, n, d in discs]
    ).T
    per_window_err = np.abs(local - closed[:, None])
    errs = per_window_err[:, -1]

    checks = [
        Check(
            name="largest window matches the closed form",
            passed=bool(errs.max() < tol),
            observed=f"max |difference| {errs.max():.3e} over {instances} instances",
            requirement=f"< {tol:g}",
        ),
        _margin_check("candidate sequence is non-increasing", monos, mono_tol),
        Check(
            name="candidate at the full domain equals the closed form",
            passed=bool(routes.max() <= route_tol),
            observed=f"max relative gap {routes.max():.3e}",
            requirement=f"<= {route_tol:g}",
        ),
    ]
    rows = [
        [w.sides[0], float(per_window_err[:, k].mean()), float(per_window_err[:, k].max())]
        for k, (w, _, _) in enumerate(discs)
    ]
    series = [
        Series(
            x=[w.sides[0] for w, _, _ in discs],
            y=[max(float(per_window_err[:, k].mean()), 1e-18) for k in range(len(discs))],
            label="mean |local - closed|",
        )
    ]
    return ExperimentResult(
        checks=checks,
        header=["window_length", "mean_abs_error", "max_abs_error"],
        rows=rows,
        series=series,
        xlabel="window length",
        ylabel="|local - closed form|",
    )


# ---------------------------------------------------------------------------
# 8. finite-range cluster factorization


@_register(
    "cluster-formula",
    "for finite-range interactions the stabilized candidate intensity equals "
    "its cluster factorization over the connected hull",
    "det J(a xi)/det J(xi) = same ratio restricted to clusters of a under the range graph",
)
def _run_cluster_formula(kernel_cfg, p: Params, seed, out_dir):
    spec = build_kernel(kernel_cfg, defaults={"family": "finite-range"})
    if not math.isfinite(spec.declared_range):
        raise ConfigError("cluster-formula: needs a finite-range kernel family")
    instances = p.get_int("instances", 300, minimum=1)
    tol = p.get_float("tolerance", 1e-10, positive=True)
    mono_tol = p.get_float("monotonicity_tolerance", 1e-9, positive=True)
    domain_len = p.get_float("domain", 12.0, positive=True)
    intensity = p.get_float("point_intensity", spec.interaction_diagonal, positive=True)
    p.reject_unknown()

    if spec.dimension != 1:
        raise ConfigError("cluster-formula: use a one-dimensional kernel")
    domain = Window.interval(0.0, domain_len)
    center = domain_len / 2.0

    def draw(i: int):
        rng = stream(_subseed(seed, 11), i)
        while True:
            m = int(rng.poisson(intensity * domain_len))
            pts = np.sort(rng.random(m)) * domain_len
            n_add = 1 + int(rng.integers(0, 2))
            extra = center + (rng.random(n_add) - 0.5) * domain_len / 2.0
            allpts = np.concatenate([extra, pts])
            if m == 0 or np.abs(allpts[:, None] - allpts[None, :])[
                ~np.eye(len(allpts), dtype=bool)
            ].min() > 1e-6:
                break
        return extra[:, None], pts[:, None]

    drawn = [draw(i) for i in range(instances)]
    added = SampleBatch.from_samples(domain, [d[0] for d in drawn], seed=seed, method="uniform")
    given = SampleBatch.from_samples(domain, [d[1] for d in drawn], seed=seed, method="poisson")
    cluster = cluster_intensity(spec, added, given)
    ladder = [
        Window.interval(center - r, center + r)
        for r in (domain_len / 8.0, domain_len / 4.0, domain_len / 2.0)
    ] + [domain]
    # candidate ratios of every instance, one stack per window
    cand = np.array([candidate_intensity(spec, added, given, w) for w in ladder]).T
    monos = np.min(np.diff(-cand, axis=1) / np.maximum(1.0, cand[:, :-1]), axis=1)
    errs = np.abs(cand[:, -1] - cluster) / np.maximum(1.0, np.abs(cand[:, -1]))

    checks = [
        Check(
            name="cluster formula equals the stabilized candidate",
            passed=bool(errs.max() < tol),
            observed=f"max relative gap {errs.max():.3e} over {instances} instances",
            requirement=f"< {tol:g}",
        ),
        _margin_check("candidate ladder is non-increasing", monos, mono_tol),
    ]
    qx, qy = _downsample(errs)
    series = [Series(x=list(qx), y=list(np.maximum(qy, 1e-18)), label="relative gap", markers=False)]
    counts = given.counts()
    rows = [[i, counts[i], cluster[i], cand[i, -1], errs[i]] for i in range(min(instances, 2000))]
    return ExperimentResult(
        checks=checks,
        header=["instance", "given_points", "cluster_value", "candidate_value", "relative_gap"],
        rows=rows,
        series=series,
        xlabel="quantile",
        ylabel="relative gap",
    )


# ---------------------------------------------------------------------------
# 9. renewal-representation equivalence


@_register(
    "renewal-equivalence",
    "sampled spacings follow the closed-form density and interaction "
    "determinants factor over gaps",
    "spacing density f(s) = e^{-as} d(s); det J(alpha) = u(x_1) v(x_n) prod d(gap_i)",
)
def _run_renewal_equivalence(kernel_cfg, p: Params, seed, out_dir):
    import scipy.stats  # the only use of scipy.stats, which takes half of `import dpplab` at module level

    spec = build_kernel(kernel_cfg)
    if not isinstance(spec, RenewalExponential):
        raise ConfigError("renewal-equivalence: needs the renewal family")
    ks_samples = p.get_int("ks_samples", 20000, minimum=100)
    configs = p.get_int("configurations", 2000, minimum=10)
    tol = p.get_float("tolerance", 1e-9, positive=True)
    domain_len = p.get_float("domain", 30.0, positive=True)
    p.reject_unknown()

    forms = spec.forms
    spacings = renewal.sample_spacings(forms, ks_samples, _subseed(seed, 1))
    ks = scipy.stats.kstest(spacings, lambda s: renewal.spacing_cdf(forms, s))
    critical = 1.628 / math.sqrt(ks_samples)

    # configuration i has 2 + i % 7 points; the determinants of one size form one stack
    coords = {m: [] for m in range(2, 9)}
    products = np.empty(configs)
    for i, rng in enumerate(_streams(_subseed(seed, 2), 0, configs)):
        m = 2 + (i % 7)
        while True:
            xs = np.sort(rng.random(m)) * domain_len
            if np.diff(xs).min() > 1e-6:
                break
        products[i] = renewal.log_det_factorized(forms, xs[:, None])
        coords[m].append(xs[:, None])
    direct = np.empty(configs)
    for m, pts in coords.items():
        direct[m - 2::7] = _stack_logdets(np.array([spec.j_values(x, x) for x in pts]))
    errs = np.abs(direct - products) / np.maximum(1.0, np.abs(products))

    checks = [
        Check(
            name="Kolmogorov-Smirnov fit of spacings",
            passed=bool(ks.statistic < critical),
            observed=f"D = {ks.statistic:.5f} (p = {ks.pvalue:.4f}) at n = {ks_samples}",
            requirement=f"D < {critical:.5f} (99% critical value)",
        ),
        Check(
            name="gap-product factorization of log det J",
            passed=bool(errs.max() <= tol),
            observed=f"max relative gap {errs.max():.3e} over {configs} configurations",
            requirement=f"<= {tol:g}",
        ),
    ]
    grid = np.linspace(0.0, float(np.quantile(spacings, 0.995)), 200)
    emp = np.searchsorted(np.sort(spacings), grid, side="right") / ks_samples
    closed = renewal.spacing_cdf(forms, grid)
    rows = [[float(g), float(e), float(c)] for g, e, c in zip(grid, emp, closed)]
    series = [
        Series(x=list(grid), y=list(emp), label="empirical CDF", markers=False),
        Series(x=list(grid), y=list(closed), label="closed form", markers=False),
    ]
    return ExperimentResult(
        checks=checks,
        header=["spacing", "empirical_cdf", "closed_form_cdf"],
        rows=rows,
        series=series,
        xlabel="spacing",
        ylabel="CDF",
    )


# ---------------------------------------------------------------------------
# 10. percolation comparison against the dominating Poisson process


@_register(
    "percolation-curve",
    "Boolean-model spanning under the DPP stays below the dominating Poisson "
    "process and decays with window length on the line",
    "spanning is an increasing event: P_DPP(span) <= P_Poisson(span) at z(x) = J(x, x)",
)
def _run_percolation_curve(kernel_cfg, p: Params, seed, out_dir):
    spec = build_kernel(kernel_cfg, defaults={"rho": "0.45", "a": "1.0"})
    if spec.dimension != 1:
        raise ConfigError("percolation-curve: use a one-dimensional kernel")
    radius = p.get_float("radius", 2.0, positive=True)
    lengths = p.get_floats("window_lengths", (6.0, 12.0, 18.0, 24.0))
    reps = p.get_int("reps", 1500, minimum=50)
    nodes_per_unit = p.get_float("nodes_per_unit", 10.0, positive=True)
    z_limit = p.get_float("z_limit", 3.0, positive=True)
    p.reject_unknown()
    if sorted(lengths) != list(lengths) or len(lengths) < 2:
        raise ConfigError("percolation-curve: window_lengths must be increasing, length >= 2")

    zdiag = spec.interaction_diagonal
    rows, checks = [], []
    p_dpp, se_dpp, p_poi, se_poi = [], [], [], []
    for k, length in enumerate(lengths):
        window = Window.interval(0.0, length)
        n = max(24, int(math.ceil(nodes_per_unit * length)))
        dpp = sample_dpp_spectral(spec, window, n, reps, _subseed(seed, 20 + k))
        poi = sample_poisson(zdiag, window, reps, _subseed(seed, 40 + k))
        span_d = percolation.spanning(dpp, window, radius).astype(float)
        span_p = percolation.spanning(poi, window, radius).astype(float)
        pd, pp = float(span_d.mean()), float(span_p.mean())
        sd = math.sqrt(max(pd * (1 - pd), 1e-12) / reps)
        sp = math.sqrt(max(pp * (1 - pp), 1e-12) / reps)
        p_dpp.append(pd)
        se_dpp.append(sd)
        p_poi.append(pp)
        se_poi.append(sp)
        se_comb = math.hypot(sd, sp)
        checks.append(
            Check(
                name=f"length {length:g}: DPP spanning below Poisson",
                passed=pd <= pp + z_limit * se_comb,
                observed=f"DPP {pd:.4f} vs Poisson {pp:.4f} (combined SE {se_comb:.4f})",
                requirement=f"DPP <= Poisson + {z_limit:g} SE",
            )
        )
        rows.append([length, pd, sd, pp, sp])
    steps_ok = all(
        p_dpp[k + 1] <= p_dpp[k] + z_limit * math.hypot(se_dpp[k], se_dpp[k + 1])
        for k in range(len(lengths) - 1)
    )
    drop = p_dpp[0] - p_dpp[-1]
    drop_se = math.hypot(se_dpp[0], se_dpp[-1])
    checks.append(
        Check(
            name="DPP spanning decays with window length",
            passed=steps_ok and drop > z_limit * drop_se,
            observed=f"probabilities {', '.join(f'{v:.4f}' for v in p_dpp)}",
            requirement=f"non-increasing steps and total drop > {z_limit:g} SE",
        )
    )
    series = [
        Series(x=list(lengths), y=p_dpp, yerr=se_dpp, label="DPP"),
        Series(x=list(lengths), y=p_poi, yerr=se_poi, label="Poisson"),
    ]
    return ExperimentResult(
        checks=checks,
        header=["window_length", "dpp_spanning", "dpp_se", "poisson_spanning", "poisson_se"],
        rows=rows,
        series=series,
        xlabel="window length",
        ylabel="spanning probability",
    )
