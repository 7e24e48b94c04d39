"""Wrappers installed at the module boundaries of ``discrep``.

Every wrapper is installed from this file and removed again when the run
ends; ``src/discrep`` is never edited. A function is rebound everywhere the
package holds a reference to it, so names that one module imports from
another (``reweight``'s own binding of the eigensolver, ``experiments``'
binding of ``minimize_1d``) go through the same wrapper.

Two kinds of wrapper share the rebinding code:

* a capture records the arguments and result of a call, so the checks can see
  what a pipeline computed internally (installed on every run);
* a span times a call and adds it to a per-layer total (installed on the
  traced run only).

Wrappers record only while ``active`` is set, which the benchmark does around
each timed operation, so warm-up and the checks' own numpy calls stay out of
the numbers.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# numpy routines that count as the eigensolve when program code calls them,
# so the layer keeps its meaning if the package moves to LAPACK.
NUMPY_EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")

SOLVERS = ("minimize_l2_linear", "minimize_l2_kernel")


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "discrep" or name.startswith("discrep."))
    ]


class Patcher:
    """Rebinds functions and remembers how to undo it."""

    def __init__(self):
        self._undo: list[tuple] = []

    def rebind(self, owner, name: str, make_wrapper) -> bool:
        """Replace ``owner.name`` and every package binding of the same object.

        Returns False when ``owner`` has no such attribute (a later version of
        the package may have removed it).
        """
        original = getattr(owner, name, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        targets = [owner] + [m for m in _package_modules() if m is not owner]
        for target in targets:
            for attr, value in list(vars(target).items()):
                if value is original:
                    setattr(target, attr, wrapper)
                    self._undo.append((target, attr, original))
        return True

    def restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


class Capture:
    """Records ``(args, kwargs, result)`` of calls to chosen functions."""

    def __init__(self, patcher: Patcher):
        self.active = False
        self.calls: dict[str, list] = {}
        self._patcher = patcher

    def watch(self, module, name: str) -> None:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        self.calls[key] = []
        log = self.calls[key]

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                result = func(*args, **kwargs)
                if self.active:
                    log.append((args, kwargs, result))
                return result

            return wrapper

        if not self._patcher.rebind(module, name, make):
            raise AttributeError(f"{module.__name__} has no attribute {name!r}")

    def take(self) -> dict:
        """Hand over what was recorded since the last call and start afresh."""
        out = {key: list(log) for key, log in self.calls.items()}
        for log in self.calls.values():
            log.clear()
        return out


@dataclass
class Layer:
    seconds: float = 0.0
    calls: int = 0
    depth: int = 0
    counters: dict = field(default_factory=dict)

    def bump(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


class Tracer:
    """Per-layer time and counts from spans around calls into ``discrep``.

    A layer groups one or more functions. Its time is the inclusive time of
    its outermost spans: a call made while another call of the same layer is
    open (``draw_labeled_target_1d`` calling ``draw_target_1d``, or
    ``jacobi_eigen`` calling its 2x2 closed form) is not counted again.
    """

    def __init__(self, patcher: Patcher):
        self.active = False
        self.layers: dict[str, Layer] = {}
        self.wrapped_calls = 0
        self._patcher = patcher
        self._solve_eigs: list | None = None

    def layer(self, key: str) -> Layer:
        return self.layers.setdefault(key, Layer())

    def span(self, key: str, owner, name: str, after=None) -> bool:
        """Time calls to ``owner.name`` under layer ``key``.

        ``after(layer, args, result, start, end)`` runs after each outermost
        call to record counts derived from the arguments or the result.
        """
        layer = self.layer(key)

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not self.active or layer.depth:
                    return func(*args, **kwargs)
                layer.depth += 1
                start = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    layer.depth -= 1
                layer.seconds += end - start
                layer.calls += 1
                self.wrapped_calls += 1
                if after is not None:
                    after(layer, args, result, start, end)
                return result

            return wrapper

        return self._patcher.rebind(owner, name, make)

    def install(self, discrep_modules: dict) -> None:
        """Install the spans that feed the per-layer metrics."""
        core = discrep_modules["core"]
        distance = discrep_modules["distance"]
        linalg = discrep_modules["linalg"]
        reweight = discrep_modules["reweight"]
        simplex_lp = discrep_modules["simplex_lp"]
        learners = discrep_modules["learners"]
        datagen = discrep_modules["datagen"]
        experiments = discrep_modules["experiments"]

        self.span(
            "core.merge_duplicates", core, "merge_duplicates",
            lambda layer, args, result, *_: layer.bump("rows", len(args[0])),
        )
        self.span("distance.joint_support", distance, "joint_support")
        self.span("experiments.per_example_weights", experiments, "per_example_weights")
        self.span("distance.disc_01_threshold1d", distance, "disc_01_threshold1d")
        self.span("reweight.minimize_1d", reweight, "minimize_1d")

        # The eigensolver is found by role: every public linalg routine whose
        # name says "eig", plus numpy's eigensolvers when program code calls
        # them. Nested calls (psd_sqrt -> jacobi_eigen -> eigh) count once.
        for name in sorted(vars(linalg)):
            if "eig" in name and not name.startswith("_") and callable(getattr(linalg, name)):
                self.span("linalg.eigensolve", linalg, name, self._eig_done)
        for name in NUMPY_EIGENSOLVERS:
            self.span("linalg.eigensolve", np.linalg, name, self._eig_done)
        self.span("linalg.gram_matrix", linalg, "gram_matrix")
        self.span("linalg.psd_sqrt", linalg, "psd_sqrt")
        self.span("distance.disc_l2_kernel", distance, "disc_l2_kernel")

        for name in ("l2_linear_family", "l2_kernel_family"):
            self.span("reweight.pencil", reweight, name)
        family = getattr(linalg, "AffineMatrixFamily", None)
        if family is not None:
            self.span("reweight.pencil", family, "stacked", self._stacked_done)
        for name in SOLVERS:
            self._solver_span(reweight, name)

        self.span(
            "reweight.canonical_regions_1d", reweight, "canonical_regions_1d",
            lambda layer, args, result, *_: layer.bump("regions", len(result)),
        )
        self.span("reweight.minimize_01_lp", reweight, "minimize_01_lp")
        self.span(
            "simplex_lp.solve_lp", simplex_lp, "solve_lp",
            lambda layer, args, result, *_: layer.bump("rows", int(np.shape(args[1])[0])),
        )
        self.span("learners.train_weighted_threshold", learners, "train_weighted_threshold")
        self.span("learners.train_weighted_ridge", learners, "train_weighted_ridge")
        for name in sorted(vars(datagen)):
            value = getattr(datagen, name)
            if (
                not name.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == datagen.__name__
            ):
                self.span("datagen", datagen, name)

    def _eig_done(self, layer, args, result, start, end) -> None:
        if self._solve_eigs is not None:
            self._solve_eigs.append((start, end))

    def _stacked_done(self, layer, args, result, start, end) -> None:
        stack = result[1]
        size = int(np.prod(stack.shape)) * stack.dtype.itemsize
        layer.counters["bytes"] = max(layer.counters.get("bytes", 0), size)

    def _solver_span(self, reweight, name: str) -> None:
        """Time a squared-loss solve and split it into its stages.

        The mirror-descent iterations and the certificate have no public entry
        point. The solver makes one eigensolve per iteration, one more for the
        value at the returned weights, then two for the certificate, so with
        ``N = len(result.trace)`` iterations the last ``N + 3`` eigensolves of
        the solve mark the stages: iterations run from the start of the first
        of them to the start of the third-last, the certificate from the end
        of the third-last to the end of the solve.
        """
        solves = self.layer("reweight.solve")

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return func(*args, **kwargs)
                outer, self._solve_eigs = self._solve_eigs, []
                start = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    eigs, self._solve_eigs = self._solve_eigs, outer
                solves.seconds += end - start
                solves.calls += 1
                self.wrapped_calls += 1
                solves.bump("converged", int(bool(result.converged)))
                n_iter = len(result.trace) if len(result.weights) > 1 else 0
                if n_iter and len(eigs) >= n_iter + 3:
                    solves.bump("iterations", n_iter)
                    solves.bump("iteration_s", eigs[-3][0] - eigs[-(n_iter + 3)][0])
                    solves.bump("certificate_s", end - eigs[-3][1])
                return result

            return wrapper

        self._patcher.rebind(reweight, name, make)

    def metrics(self, operations: int) -> dict:
        """The per-layer metrics, every one present even when its layer idled.

        Times and counts are per operation, so they do not grow with the number
        of operations a run of fixed length fits in. Times are inclusive: a
        layer's seconds contain the layers it calls.
        """

        def per_op(key, name=None):
            layer = self.layers.get(key, Layer())
            value = layer.seconds if name is None else layer.counters.get(name, 0)
            return value / operations

        eig = self.layers.get("linalg.eigensolve", Layer())
        solves = self.layers.get("reweight.solve", Layer())
        iterations = solves.counters.get("iterations", 0)
        out = {
            "core.merge_duplicates.s": (per_op("core.merge_duplicates"), "s/op"),
            "core.merge_duplicates.rows": (per_op("core.merge_duplicates", "rows"), "count/op"),
            "distance.joint_support.s": (per_op("distance.joint_support"), "s/op"),
            "experiments.per_example_weights.s": (
                per_op("experiments.per_example_weights"), "s/op"),
            "distance.disc_01_threshold1d.s": (per_op("distance.disc_01_threshold1d"), "s/op"),
            "reweight.minimize_1d.s": (per_op("reweight.minimize_1d"), "s/op"),
            "linalg.eigensolve.s": (eig.seconds / operations, "s/op"),
            "linalg.eigensolve.calls": (eig.calls / operations, "count/op"),
            "linalg.eigensolve.us_per_call": (
                1e6 * eig.seconds / eig.calls if eig.calls else 0.0, "us"),
            "linalg.gram_matrix.s": (per_op("linalg.gram_matrix"), "s/op"),
            "linalg.psd_sqrt.s": (per_op("linalg.psd_sqrt"), "s/op"),
            "distance.disc_l2_kernel.s": (per_op("distance.disc_l2_kernel"), "s/op"),
            "reweight.pencil.s": (per_op("reweight.pencil"), "s/op"),
            "reweight.pencil.bytes": (
                self.layers.get("reweight.pencil", Layer()).counters.get("bytes", 0), "bytes"),
            "reweight.iterations": (iterations / operations, "count/op"),
            "reweight.iteration.us": (
                1e6 * solves.counters.get("iteration_s", 0.0) / iterations if iterations else 0.0,
                "us",
            ),
            "reweight.certificate.s": (per_op("reweight.solve", "certificate_s"), "s/op"),
            "reweight.converged": (per_op("reweight.solve", "converged"), "count/op"),
            "reweight.canonical_regions_1d.s": (per_op("reweight.canonical_regions_1d"), "s/op"),
            "reweight.canonical_regions_1d.regions": (
                per_op("reweight.canonical_regions_1d", "regions"), "count/op"),
            "reweight.minimize_01_lp.s": (per_op("reweight.minimize_01_lp"), "s/op"),
            "simplex_lp.solve_lp.s": (per_op("simplex_lp.solve_lp"), "s/op"),
            "simplex_lp.rows": (per_op("simplex_lp.solve_lp", "rows"), "count/op"),
            "learners.train_weighted_threshold.s": (
                per_op("learners.train_weighted_threshold"), "s/op"),
            "learners.train_weighted_ridge.s": (per_op("learners.train_weighted_ridge"), "s/op"),
            "datagen.s": (per_op("datagen"), "s/op"),
            "trace.wrapped_calls": (self.wrapped_calls / operations, "count/op"),
        }
        return {name: {"value": float(value), "unit": unit} for name, (value, unit) in out.items()}
