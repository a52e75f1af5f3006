"""Outside-in layer trace for the dpp-lab benchmark.

Spans are recorded around calls into each `dpplab` module's public
functions by swapping the module attributes (and class attributes, for
methods) for timing wrappers while a `Tracer` is installed.  Nothing in
the program changes: the wrappers live here and are removed again on
exit.  Every module namespace that holds the original object is patched,
because the modules import each other's functions by name.

A span's self time is its duration minus the time of the spans it
encloses.  Counts are computed from call arguments and results only, so
they depend on (config, seed) and never on timing.
"""
from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# spans of these layers are glue around the computational layers; they
# are left out of `trace.coverage_frac`
GLUE_LAYERS = ("experiments", "cli")

BIRTH_DEATH = "samplers.sample_dpp_birth_death"


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value)
    return int(shape[0]) if len(shape) else 1


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _pairs(args, kwargs, tracer):
    # (self, X, Y)
    return {"pairs": _rows(_arg(args, kwargs, 1, "X")) * _rows(_arg(args, kwargs, 2, "Y"))}


def _spectral_n3(args, kwargs, tracer):
    op = args[0]
    if "spectral" in op._cache:
        return {}
    return {"n3": op.size**3}


def _interaction_points(args, kwargs, tracer):
    X = _arg(args, kwargs, 1, "X")
    Y = _arg(args, kwargs, 2, "Y")
    rows = _rows(X)
    points = rows + (_rows(Y) if Y is not None and Y is not X else 0)
    if tracer.open_spans[BIRTH_DEATH] and rows == 1:
        tracer.counts[f"{BIRTH_DEATH}.proposals"] += 1
    return {"points": points}


def _batch_len(key: str):
    def count(args, kwargs, result, tracer):
        return {key: len(result)}

    return count


def _batch_bytes(args, kwargs, result, tracer):
    return {"bytes": sum(os.path.getsize(path) for path in result)}


@dataclass(frozen=True)
class Target:
    """One traced callable: `where` is "module.function" or "module.Class.method".

    A method name without a class ("kernels.*.k_values") means every class
    of the module that defines that method itself.  `counts` names the
    counts reported for the span besides its calls; the hooks add to them.
    """

    span: str
    where: str
    counts: tuple[str, ...] = ()
    before: Callable | None = None  # (args, kwargs, tracer) -> counts
    after: Callable | None = None  # (args, kwargs, result, tracer) -> counts


TARGETS = (
    Target("kernels.k_values", "kernels.*.k_values", ("pairs",), before=_pairs),
    Target("kernels.j_values", "kernels.*.j_values", ("pairs",), before=_pairs),
    Target("kernels.attach_context", "kernels.*.attach_context"),
    Target("quadrature.tensor_gauss_legendre", "quadrature.tensor_gauss_legendre"),
    Target(
        "operators.discretize_on",
        "operators.discretize_on",
        ("nodes",),
        before=lambda a, k, t: {"nodes": _arg(a, k, 2, "quad").size},
    ),
    Target(
        "operators.spectral", "operators.DiscretizedOperator.spectral", ("n3",), before=_spectral_n3
    ),
    Target(
        "operators.interaction_values",
        "operators.interaction_values",
        ("points",),
        before=_interaction_points,
    ),
    Target("operators.fredholm_det_I_minus", "operators.fredholm_det_I_minus"),
    Target("densities.compound_intensity", "densities.compound_intensity"),
    Target("densities.candidate_intensity", "densities.candidate_intensity"),
    Target("densities.cluster_intensity", "densities.cluster_intensity"),
    Target("densities.janossy_normalization", "densities.janossy_normalization"),
    Target("matrixineq.psd_inequality_suite", "matrixineq.psd_inequality_suite"),
    Target("matrixineq.projection_inversion_suite", "matrixineq.projection_inversion_suite"),
    Target("matrixineq.determinant_monotonicity_suite", "matrixineq.determinant_monotonicity_suite"),
    Target(
        "samplers.sample_dpp_spectral",
        "samplers.sample_dpp_spectral",
        ("draws",),
        after=_batch_len("draws"),
    ),
    Target("samplers.sample_poisson", "samplers.sample_poisson", ("draws",), after=_batch_len("draws")),
    # proposals: single-point interaction_values calls made under this span
    Target(
        BIRTH_DEATH,
        "samplers.sample_dpp_birth_death",
        ("samples", "proposals"),
        after=_batch_len("samples"),
    ),
    Target(
        "samplers.domination_test",
        "samplers.domination_test",
        ("configs",),
        before=lambda a, k, t: {"configs": len(a[0]) + len(a[1])},
    ),
    Target("samplers.save_batch", "samplers.save_batch", ("bytes",), after=_batch_bytes),
    Target("samplers.load_batch", "samplers.load_batch"),
    Target("geometry.from_coords", "geometry.Configuration.from_coords"),
    Target("geometry.count_in", "geometry.count_in"),
    Target(
        "percolation.decompose",
        "percolation.decompose",
        ("points",),
        before=lambda a, k, t: {"points": len(_arg(a, k, 0, "config"))},
    ),
    Target("percolation.hull_of", "percolation.hull_of"),
    Target("renewal.sample_stationary_renewal", "renewal.sample_stationary_renewal"),
    Target("renewal.log_det_factorized", "renewal.log_det_factorized"),
    Target("renewal.sample_spacings", "renewal.sample_spacings"),
    Target("experiments.glue", "experiments.run_experiment"),
    Target("experiments.write_outputs", "experiments.write_outputs"),
    Target("cli.load_config", "cli.load_config"),
)


class Tracer:
    """Aggregated spans and counts of the calls made while it is installed.

    Use as a context manager: entering patches every target, leaving
    restores the originals.  `self_s[span]` is the summed self time,
    `counts["<span>.calls"]` the number of calls and `counts["<span>.<k>"]`
    the summed counts of that span; `covered_s` is the time spent inside
    outermost spans of the computational (non-glue) layers.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.open_spans: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [start, child seconds] per open span
        self._layer_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        span = target.span
        layer = not span.startswith(GLUE_LAYERS)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if target.before is not None:
                self._add(span, target.before(args, kwargs, self))
            self.open_spans[span] += 1
            self._layer_depth += layer
            frame = [clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                self._stack.pop()
                self.self_s[span] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self._layer_depth -= layer
                if layer and self._layer_depth == 0:
                    self.covered_s += duration
                self.open_spans[span] -= 1
                self.counts[f"{span}.calls"] += 1
            if target.after is not None:
                self._add(span, target.after(args, kwargs, result, self))
            return result

        return traced

    def _add(self, span: str, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[f"{span}.{key}"] += int(value)

    def __enter__(self) -> "Tracer":
        self.missing = [t.where for t in TARGETS if not self._install(t)]
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _install(self, target: Target) -> bool:
        module_name, *path = target.where.split(".")
        module = sys.modules.get(f"dpplab.{module_name}")
        if module is None:
            return False
        if len(path) == 1:
            original = getattr(module, path[0], None)
            if original is None:
                return False
            wrapper = self.wrap(target, original)
            # modules import each other's functions by name: patch every alias
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "dpplab" or mod_name.startswith("dpplab."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
            return True
        cls_name, method = path
        if cls_name == "*":
            classes = [c for c in vars(module).values() if isinstance(c, type)]
        else:
            classes = [getattr(module, cls_name, None)]
        found = False
        for cls in classes:
            if cls is None or cls.__module__ != module.__name__ or method not in vars(cls):
                continue
            original = vars(cls)[method]
            if isinstance(original, classmethod):
                wrapper = classmethod(self.wrap(target, original.__func__))
            else:
                wrapper = self.wrap(target, original)
            self._patch(cls, method, wrapper)
            found = True
        return found

    def _patch(self, owner, name: str, value) -> None:
        # vars() keeps a classmethod object as is, so restoring is exact
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)
