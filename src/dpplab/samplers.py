"""Point-process samplers and stochastic-domination checks.

Reproducibility: every sample index gets its own counter-based stream
(Philox keyed by (seed, index)), so batches are bit-identical for a
given (seed, parameters) regardless of chunking.  The spectral sampler
draws from projection kernels by the O(N k^2) Gram-Schmidt chain rule,
run on (t, N, k) stacks of samples with equal point counts k.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BadBound, DomainError, NumericalBreakdown
from .geometry import SampleBatch, Window, count_in
from .kernels import Kernel
from .operators import (
    DiscretizedOperator,
    discretize,
    interaction_diagonal_bound,
    interaction_values,
    operator_trace,
)
from .percolation import close_pairs

_MASK64 = (1 << 64) - 1


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one sample index."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _streams(seed: int, start: int, count: int) -> Iterator[np.random.Generator]:
    """`stream(seed, i)` for i in start..start + count - 1, each valid until the next.

    One generator is rewound to each key, which skips the entropy draw of
    a fresh bit generator.
    """
    rng = stream(seed, start)
    state = rng.bit_generator.state
    for index in range(start, start + count):
        state["state"]["key"][1] = index & _MASK64
        rng.bit_generator.state = state
        yield rng


def _uniform_in(window: Window, rng: np.random.Generator, count: int) -> np.ndarray:
    lo = np.asarray(window.lower)
    hi = np.asarray(window.upper)
    return lo + (hi - lo) * rng.random((count, window.dimension))


def sample_poisson(
    intensity: float | Callable[[np.ndarray], np.ndarray],
    bound: float,
    window: Window,
    count: int,
    seed: int,
    index_offset: int = 0,
) -> SampleBatch:
    """Inhomogeneous Poisson samples by thinning a homogeneous envelope.

    `bound` must dominate the intensity everywhere; a drawn point where
    the intensity exceeds the bound raises BadBound.  `index_offset`
    shifts the per-sample stream indices so a batch can be produced in
    chunks without changing its contents.
    """
    if bound < 0 or not np.isfinite(bound):
        raise DomainError(f"envelope bound must be finite and nonnegative, got {bound}")
    constant = not callable(intensity)
    if constant and intensity > bound * (1 + 1e-12):
        raise BadBound(f"intensity {intensity} exceeds the envelope {bound}")
    rate = bound * window.volume
    samples = []
    for rng in _streams(seed, index_offset, count):
        n = int(rng.poisson(rate)) if rate > 0 else 0
        pts = _uniform_in(window, rng, n)
        if n and not constant:
            vals = np.asarray(intensity(pts), dtype=float)
            if np.any(vals > bound * (1 + 1e-12)):
                raise BadBound(
                    f"intensity {vals.max():.6g} above the envelope {bound} at a drawn point"
                )
            keep = rng.random(n) * bound < vals
            pts = pts[keep]
        elif n and constant and intensity < bound:
            keep = rng.random(n) * bound < intensity
            pts = pts[keep]
        samples.append(pts)
    return SampleBatch.from_samples(
        window, samples, seed=seed, method="poisson", params={"bound": bound, "count": count}
    )


_BLOCK = 256  # samples per stacked pass; bounds the (t, N, k) temporaries
_PIVOT_FLOOR = 1e-12  # a picked node's conditional marginal below this means rank loss


def _chain_rule(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Node indices drawn from a stack of projection kernels, in pick order.

    `V` is (t, N, k) with orthonormal columns in each slice and `u` holds
    the (t, k) step uniforms.  Gram-Schmidt chain rule (Hough, Krishnapur,
    Peres, Virag 2006, Alg. 18): p holds the conditional marginals; step s
    picks idx by inverse CDF, then c_s = (V V[idx] - sum_{r<s} c_r c_r[idx])
    / sqrt(p[idx]) and p -= c_s**2.  With c_r = V q_r the sum is formed on
    the k coefficients q_r, so a step costs O(N k).
    """
    t, N, k = V.shape
    rows = np.arange(t)
    p = np.einsum("tnj,tnj->tn", V, V)
    Q = np.empty((t, k - 1, k))
    chosen = np.empty((t, k), dtype=np.int64)
    for s in range(k):
        np.maximum(p, 0.0, out=p)
        total = p.sum(axis=1)
        if not np.all(np.isfinite(total) & (total > 0)):
            raise NumericalBreakdown("projection marginals vanished")
        below = np.cumsum(p, axis=1) < (u[:, s] * total)[:, None]
        idx = np.minimum(below.sum(axis=1), N - 1)
        chosen[:, s] = idx
        pivot = p[rows, idx]
        if np.any(pivot < _PIVOT_FLOOR):
            raise NumericalBreakdown("projection basis collapsed during sampling")
        if s == k - 1:
            break
        row, done = V[rows, idx, :, None], Q[:, :s]
        q = row - done.transpose(0, 2, 1) @ (done @ row)
        q /= np.sqrt(pivot)[:, None, None]
        Q[:, s] = q[:, :, 0]
        c = (V @ q)[:, :, 0]
        p -= np.square(c, out=c)
        p[rows, idx] = 0.0
    return chosen


def sample_dpp_spectral(
    spec: Kernel,
    window: Window,
    n: int,
    count: int,
    seed: int,
    *,
    panels: int | None = None,
    disc: DiscretizedOperator | None = None,
    index_offset: int = 0,
) -> SampleBatch:
    """Spectral sampler on the Nystrom nodes.

    Eigenfunctions enter independently with probability lambda_i, then
    that many nodes are drawn from the projection kernel by the O(N k^2)
    Gram-Schmidt chain rule.  Sample i reads `stream(seed, index_offset
    + i)`: the coin flips, then one uniform per pick.  Blocks of `_BLOCK`
    samples run as one (t, N, k) stack per count k, and a sample's picks
    do not depend on its stack.  The law converges to the window
    restriction of the process as the rule refines.
    """
    disc = disc or discretize(spec, "K", window, n, panels=panels)
    spect = disc.spectral()
    lams = np.clip(spect.eigenvalues, 0.0, None)
    keep = lams > 1e-12
    lams = lams[keep]
    U = spect.eigenvectors[:, keep]
    if lams.size and lams[0] >= 1.0:
        raise NumericalBreakdown(f"eigenvalue {lams[0]} >= 1 in the sampler")
    nodes = disc.quad.nodes
    samples = []
    for start in range(index_offset, index_offset + count, _BLOCK):
        select, steps = [], []
        for rng in _streams(seed, start, min(_BLOCK, index_offset + count - start)):
            select.append(rng.random(lams.size) < lams)
            steps.append(rng.random(np.count_nonzero(select[-1])))
        select = np.array(select)
        ks = select.sum(axis=1)
        block = [nodes[:0]] * len(ks)
        for k in np.unique(ks[ks > 0]):
            members = np.flatnonzero(ks == k)
            cols = np.nonzero(select[members])[1].reshape(-1, k)
            V = np.ascontiguousarray(U[:, cols].transpose(1, 0, 2))
            for m, picks in zip(members, _chain_rule(V, np.array([steps[m] for m in members]))):
                block[m] = nodes[picks]
        samples += block
    return SampleBatch.from_samples(
        window,
        samples,
        seed=seed,
        method="dpp-spectral",
        params={"n": n, "count": count},
        metadata={"expected_count": float(lams.sum()), "nodes": nodes.shape[0]},
    )


def sample_dpp_birth_death(
    spec: Kernel,
    window: Window,
    n: int,
    count: int,
    seed: int,
    *,
    burn_in: float | None = None,
    thinning: float | None = None,
    chains: int = 8,
    panels: int | None = None,
    disc: DiscretizedOperator | None = None,
    threads: int = 1,
) -> SampleBatch:
    """Spatial birth-death chain with the local compound intensity.

    Births are proposed uniformly at envelope rate B * |window|, with B the
    certified bound on sup_x J(x,x) from `interaction_diagonal_bound`, and
    accepted with probability c(x, xi) / B; each point dies at
    rate 1.  The acceptance ratio c(x, xi) / J(x, x) must stay in [0, 1]
    (hard assertion).  Time is measured in death-rate units; defaults for
    `burn_in` and `thinning` convert the usual event-count heuristics
    (20x and 5x the expected population).
    """
    disc = disc or discretize(spec, "K", window, n, panels=panels)
    jmax = interaction_diagonal_bound(disc)
    expected = max(operator_trace(disc), 1e-9)
    birth_rate = jmax * window.volume
    event_rate = birth_rate + max(expected, 1.0)
    if burn_in is None:
        burn_in = 20.0 * max(expected, 1.0) / event_rate
    if thinning is None:
        thinning = 5.0 * max(expected, 1.0) / event_rate
    chains = max(1, min(chains, count))
    per_chain = [count // chains + (1 if c < count % chains else 0) for c in range(chains)]

    def one_chain(chain_idx: int) -> list[np.ndarray]:
        rng = stream(seed, chain_idx)
        return _run_birth_death_chain(
            disc, window, rng, per_chain[chain_idx], burn_in, thinning, jmax, birth_rate
        )

    if threads > 1 and chains > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, chains)) as pool:
            by_chain = list(pool.map(one_chain, range(chains)))
    else:
        by_chain = [one_chain(c) for c in range(chains)]
    return SampleBatch.from_samples(
        window,
        [sample for chain in by_chain for sample in chain],
        seed=seed,
        method="dpp-birth-death",
        params={
            "n": n,
            "count": count,
            "burn_in": burn_in,
            "thinning": thinning,
            "chains": chains,
        },
        metadata={"envelope": jmax, "expected_count": expected},
    )


def _run_birth_death_chain(
    disc: DiscretizedOperator,
    window: Window,
    rng: np.random.Generator,
    wanted: int,
    burn_in: float,
    thinning: float,
    jmax: float,
    birth_rate: float,
) -> list[np.ndarray]:
    pts: list[np.ndarray] = []
    jmat = np.zeros((0, 0))
    out: list[np.ndarray] = []
    t = 0.0
    next_sample = burn_in
    while len(out) < wanted:
        m = len(pts)
        rate = birth_rate + m
        if rate <= 0:
            # absorbing empty state: emit the remaining samples directly
            while len(out) < wanted:
                out.append(np.empty((0, window.dimension)))
            break
        dt = rng.exponential(1.0 / rate)
        while t + dt >= next_sample and len(out) < wanted:
            out.append(np.array(pts).reshape(m, window.dimension))
            next_sample += thinning
        t += dt
        if rng.random() * rate < birth_rate:
            x = _uniform_in(window, rng, 1)[0]
            jxx = float(interaction_values(disc, x[None, :])[0, 0])
            if m:
                cross = interaction_values(disc, x[None, :], np.array(pts))[0]
                try:
                    sol = np.linalg.solve(jmat, cross)
                    c = jxx - float(cross @ sol)
                except np.linalg.LinAlgError:
                    c = 0.0
            else:
                cross = np.zeros(0)
                c = jxx
            c = max(c, 0.0)
            if c > jxx * (1 + 1e-10) or c > jmax * (1 + 1e-10):
                raise NumericalBreakdown(
                    f"birth acceptance {c:.6g} above its envelope (J(x,x)={jxx:.6g}, sup={jmax:.6g})"
                )
            if rng.random() * jmax < c:
                if m:
                    jmat = np.block(
                        [[jmat, cross[:, None]], [cross[None, :], np.array([[jxx]])]]
                    )
                else:
                    jmat = np.array([[jxx]])
                pts.append(x)
        elif m:
            kill = int(rng.integers(m))
            pts.pop(kill)
            keep = [i for i in range(m) if i != kill]
            jmat = jmat[np.ix_(keep, keep)]
    return out


# ---------------------------------------------------------------------------
# increasing statistics and the domination check


def total_count(batch: SampleBatch) -> np.ndarray:
    """Number of points of each sample."""
    return batch.counts().astype(float)


def max_quadrant_count(batch: SampleBatch) -> np.ndarray:
    """Largest count over a fixed split into 4 congruent closed subwindows.

    A point on an edge shared by two subwindows counts in both.
    """
    window = batch.window
    if window.dimension == 1:
        edges = np.linspace(window.lower[0], window.upper[0], 5)
        quadrants = [Window.interval(edges[k], edges[k + 1]) for k in range(4)]
    else:
        (lx, ly), (ux, uy) = window.lower, window.upper
        mx, my = 0.5 * (lx + ux), 0.5 * (ly + uy)
        quadrants = [
            Window.box((a, b), (a + (ux - lx) / 2, b + (uy - ly) / 2))
            for a, b in ((lx, ly), (lx, my), (mx, ly), (mx, my))
        ]
    return np.max([count_in(batch, q) for q in quadrants], axis=0).astype(float)


def neighbor_count(radius: float) -> Callable[[SampleBatch], np.ndarray]:
    """Number of points having another point within `radius` (increasing)."""

    def stat(batch: SampleBatch) -> np.ndarray:
        has_neighbor = np.zeros(len(batch.coords), dtype=bool)
        has_neighbor[close_pairs(batch, radius).ravel()] = True
        return np.bincount(batch.sample_ids()[has_neighbor], minlength=len(batch)).astype(float)

    return stat


@dataclass(frozen=True)
class FunctionalComparison:
    name: str
    mean_lower: float
    mean_upper: float
    se_diff: float
    zscore: float
    ok: bool


@dataclass(frozen=True)
class DominationReport:
    comparisons: tuple[FunctionalComparison, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.comparisons)


def domination_test(
    dominated: SampleBatch,
    dominating: SampleBatch,
    functionals: Sequence[tuple[str, Callable[[SampleBatch], np.ndarray]]] | None = None,
    z_threshold: float = 3.0,
) -> DominationReport:
    """Compare means of increasing statistics between two batches.

    A statistic maps a batch to one value per sample.  Stochastic
    domination of `dominated` by `dominating` implies every increasing
    statistic has a smaller (or equal) mean; a violation beyond
    `z_threshold` standard errors flags the pair.
    """
    if functionals is None:
        r = min(dominated.window.sides) / 8.0
        functionals = [
            ("total_count", total_count),
            ("max_quadrant_count", max_quadrant_count),
            (f"neighbor_count(r={r:.4g})", neighbor_count(r)),
        ]
    rows = []
    for name, fn in functionals:
        a = fn(dominated)
        b = fn(dominating)
        se = float(np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b)))
        diff = float(a.mean() - b.mean())
        z = diff / se if se > 0 else (0.0 if diff <= 0 else np.inf)
        rows.append(
            FunctionalComparison(
                name=name,
                mean_lower=float(a.mean()),
                mean_upper=float(b.mean()),
                se_diff=se,
                zscore=z,
                ok=bool(diff <= z_threshold * se),
            )
        )
    return DominationReport(tuple(rows))


# ---------------------------------------------------------------------------
# persistence: CSV of points plus a key=value sidecar


def save_batch(batch: SampleBatch, prefix) -> tuple[str, str]:
    """Write `<prefix>.csv` (sample_id, x[, y]) and `<prefix>.meta`."""
    prefix = str(prefix)
    csv_path = prefix + ".csv"
    meta_path = prefix + ".meta"
    d = batch.window.dimension
    header = "sample_id,x" if d == 1 else "sample_id,x,y"
    lines = [header]
    for i, row in zip(batch.sample_ids().tolist(), batch.coords.tolist()):
        lines.append(f"{i}," + ",".join(f"{c:.17g}" for c in row))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = [
        "[batch]",
        f"method = {batch.method}",
        f"seed = {batch.seed}",
        f"count = {len(batch)}",
        f"dimension = {d}",
        f"window_lower = {','.join(str(v) for v in batch.window.lower)}",
        f"window_upper = {','.join(str(v) for v in batch.window.upper)}",
        "",
        "[params]",
    ]
    meta += [f"{k} = {v}" for k, v in sorted(batch.params.items())]
    meta += ["", "[metadata]"]
    meta += [f"{k} = {v}" for k, v in sorted(batch.metadata.items())]
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(meta) + "\n")
    return csv_path, meta_path


def load_batch(prefix) -> SampleBatch:
    import configparser

    prefix = str(prefix)
    parser = configparser.ConfigParser()
    with open(prefix + ".meta", "r", encoding="utf-8") as fh:
        parser.read_string(fh.read())
    sec = parser["batch"]
    d = sec.getint("dimension")
    count = sec.getint("count")
    window = Window(
        tuple(float(v) for v in sec["window_lower"].split(",")),
        tuple(float(v) for v in sec["window_upper"].split(",")),
    )
    with open(prefix + ".csv", "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        body = fh.read()
    if header != ("sample_id,x" if d == 1 else "sample_id,x,y"):
        raise DomainError(f"unexpected batch header {header!r}")
    table = np.empty((0, 1 + d))
    if body.strip():
        try:
            table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:  # a ragged row or a field that is not a number
            raise DomainError(f"malformed batch row: {exc}") from None
    ids = table[:, 0]
    if table.shape[1] != 1 + d or np.any(ids != np.round(ids)):
        raise DomainError(f"malformed batch rows: {table.shape[1]} columns or a fractional sample id")
    # sample ids outside 0..count-1 leave offsets that SampleBatch rejects
    order = np.argsort(ids, kind="stable")
    params = dict(parser["params"]) if parser.has_section("params") else {}
    metadata = dict(parser["metadata"]) if parser.has_section("metadata") else {}
    return SampleBatch(
        window=window,
        coords=table[order, 1:],
        offsets=np.searchsorted(ids[order], np.arange(count + 1)),
        seed=sec.getint("seed"),
        method=sec["method"],
        params=params,
        metadata=metadata,
    )
