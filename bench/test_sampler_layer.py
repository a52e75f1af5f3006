"""Microbenchmarks of the spectral sampler and batch I/O (pytest-benchmark).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench/test_sampler_layer.py

Not collected by the test suite (`testpaths` is `tests`).  Each sampler
benchmark times one `sample_dpp_spectral` call on a warm operator (the
eigendecomposition is cached first), so its time divided by
`extra_info["draws"]` is the cost per draw.  Shapes:

- `batch-io`: renewal(rho=0.25, a=1) on [0, 6], n = 96, 6000 draws, mean
  count about 1.5; the batch that the `batch-io` op of the benchmark draws;
- `percolation`: renewal(rho=0.45, a=1) on [0, 24], n = 240, the largest
  window of `percolation-curve`, mean count about 11;
- `finite-range`: FiniteRangeFourier(1, 0.8) on [0, 24], n = 240, mean
  count about 12.8.

`test_save_batch` and `test_load_batch` write and read the 6000-draw
`batch-io` batch.
"""
import pytest

from dpplab.geometry import Window
from dpplab.kernels import FiniteRangeFourier, RenewalExponential
from dpplab.operators import discretize
from dpplab.samplers import load_batch, sample_dpp_spectral, save_batch

SHAPES = {
    "batch-io": (RenewalExponential(0.25, 1.0), Window.interval(0.0, 6.0), 96, 6000),
    "percolation": (RenewalExponential(0.45, 1.0), Window.interval(0.0, 24.0), 240, 1500),
    "finite-range": (FiniteRangeFourier(1.0, 0.8, dimension=1), Window.interval(0.0, 24.0), 240, 1500),
}


@pytest.fixture(scope="module")
def discs():
    out = {}
    for name, (spec, window, n, _) in SHAPES.items():
        out[name] = discretize(spec, window, n)
        out[name].spectral()
    return out


@pytest.mark.parametrize("shape", list(SHAPES))
def test_spectral_sampler(benchmark, discs, shape):
    spec, window, n, count = SHAPES[shape]
    benchmark.extra_info["draws"] = count
    batch = benchmark(sample_dpp_spectral, spec, window, n, count, 7, disc=discs[shape])
    benchmark.extra_info["mean_count"] = float(batch.counts().mean())


@pytest.fixture(scope="module")
def io_batch(discs):
    spec, window, n, count = SHAPES["batch-io"]
    return sample_dpp_spectral(spec, window, n, count, 7, disc=discs["batch-io"])


def test_save_batch(benchmark, io_batch, tmp_path):
    benchmark(save_batch, io_batch, tmp_path / "batch")


def test_load_batch(benchmark, io_batch, tmp_path):
    save_batch(io_batch, tmp_path / "batch")
    back = benchmark(load_batch, tmp_path / "batch")
    assert (back.coords == io_batch.coords).all()
