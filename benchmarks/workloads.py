"""The benchmark's workloads: their inputs, operations, checks and quality.

Every workload runs in rounds. A round is a fixed list of operations; the
runner only stops between rounds, so every run attempts whole rounds of the
same make-up. The first ``quality_rounds`` rounds of every run use fixed
inputs, the same whatever ``--seed`` is: the quality metrics are means over
them and repeat exactly from run to run. Later rounds take their inputs from
``--seed``.

A workload's ``run`` is the timed operation and calls only into ``discrep``.
``outputs`` gathers what the checks need, from the result and from the calls
the probe captured, into a plain dict; ``check`` tests that dict against the
references in :mod:`reference` and returns the operation's quality record.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import (
    gaussian_gram,
    gram_factor,
    interval_disc_enumerated,
    interval_disc_prefix_range,
    kernel_disc,
    linear_disc,
    max_unlabeled_mass,
    require,
    require_close,
    require_lower_bound,
    require_simplex,
    ridge_residual,
    signed_mass_1d,
    simplex_samples,
    threshold_accuracy,
)

# Entropy for the fixed inputs of the quality rounds; any constant will do.
QUALITY_ENTROPY = 0x0D15C
SIMPLEX_SAMPLES = 32


def round_rng(index: int, seed: int, quality_rounds: int) -> np.random.Generator:
    """Generator for a round's inputs; the quality rounds' inputs are fixed."""
    entropy = QUALITY_ENTROPY if index < quality_rounds else int(seed)
    return np.random.default_rng([entropy, index])


def _entries(weights) -> np.ndarray:
    """Weights as an array, whether passed as a SimplexVector or an array."""
    return np.asarray(getattr(weights, "entries", weights), dtype=float)


def _one(captured: dict, key: str, count: int = 1) -> list:
    calls = captured.get(key, [])
    require(len(calls) == count, f"expected {count} call(s) to {key}, saw {len(calls)}")
    return calls


def _mean(values) -> float:
    return float(np.mean(values))


@dataclass
class Quality:
    """Quality metrics over the quality rounds, plus run-level problems."""

    achieved_disc: float
    certified_gap: float
    extras: dict
    problems: list


def _disc_quality(records, extras=None, problems=None) -> Quality:
    return Quality(
        achieved_disc=_mean([r["achieved"] for r in records]),
        certified_gap=_mean([r["achieved"] - r["lower"] for r in records]),
        extras=extras or {},
        problems=problems or [],
    )


# --------------------------------------------------------------------------
# exp1-large: the 1-d classification pipeline
# --------------------------------------------------------------------------


class Exp1Large:
    """``run_experiment_1`` at m source and 10*m target points, one trial per
    operation."""

    name = "exp1-large"
    quality_rounds = 3

    def __init__(self, m: int = 20_000):
        self.m = m

    def watch(self, capture, mods) -> None:
        capture.watch(mods["experiments"], "minimize_1d")
        capture.watch(mods["experiments"], "train_weighted_threshold")
        capture.watch(mods["datagen"], "draw_labeled_target_1d")

    def setup(self, seed, mods) -> None:
        self._mods = mods
        experiments = mods["experiments"]
        experiments.run_experiment_1(experiments.ExperimentConfig("exp1", m=50, seed=0, trials=1))

    def round(self, index: int, seed: int) -> list:
        rng = round_rng(index, seed, self.quality_rounds)
        return [int(rng.integers(0, 2**31))]

    def run(self, trial_seed: int):
        experiments = self._mods["experiments"]
        cfg = experiments.ExperimentConfig("exp1", m=self.m, seed=trial_seed, trials=1)
        return experiments.run_experiment_1(cfg)

    def outputs(self, instance, record, captured: dict) -> dict:
        (args, _, result), = _one(captured, "experiments.minimize_1d")
        q, p = args[0], args[1]
        fits = _one(captured, "experiments.train_weighted_threshold", 2)
        (_, _, test), = _one(captured, "datagen.draw_labeled_target_1d")
        rows = {(row.variant, row.metric): row.value for row in record.trial_rows}
        return {
            "q_points": q.points[:, 0],
            "p_points": p.points[:, 0],
            "p_weights": p.weights,
            "weights": result.weights.entries,
            "achieved": result.achieved_disc,
            "lower": result.lower_bound,
            "example_weights": _entries(fits[1][0][1]),
            "rules": [(fit[2].cutoff, fit[2].orientation) for fit in fits],
            "rows": rows,
            "test_x": test.points[:, 0],
            "test_y": test.labels,
        }

    def check(self, instance, out: dict) -> dict:
        require_simplex("minimize_1d weights", out["weights"], out["q_points"].size)
        require_simplex("per-example weights", out["example_weights"], self.m)
        require(out["lower"] <= out["achieved"] + 1e-12, "lower_bound exceeds achieved_disc")
        _, diff = signed_mass_1d(out["q_points"], out["weights"], out["p_points"], out["p_weights"])
        require_close("achieved_disc", out["achieved"], interval_disc_prefix_range(diff), 1e-9)
        record = {"achieved": out["achieved"], "lower": out["lower"]}
        for variant, (cutoff, orientation) in zip(("unweighted", "weighted"), out["rules"]):
            require(
                out["rows"][(variant, "cutoff")] == cutoff,
                f"{variant} cutoff row differs from the trained rule",
            )
            accuracy = threshold_accuracy(cutoff, orientation, out["test_x"], out["test_y"])
            require_close(f"{variant} accuracy", out["rows"][(variant, "accuracy")], accuracy, 1e-9)
            record[variant] = accuracy
        return record

    def quality(self, records) -> Quality:
        weighted = _mean([r["weighted"] for r in records])
        unweighted = _mean([r["unweighted"] for r in records])
        problems = []
        if not weighted > unweighted:
            problems.append(
                f"mean weighted accuracy {weighted} does not exceed unweighted {unweighted}"
            )
        extras = {"weighted_accuracy": weighted, "unweighted_accuracy": unweighted}
        return _disc_quality(records, extras, problems)


# --------------------------------------------------------------------------
# exp2-16d: the regression pipeline in 16 dimensions
# --------------------------------------------------------------------------


class Exp2Wide:
    """``run_experiment_2`` with ``dim=16`` and its default solver, one trial
    per operation."""

    name = "exp2-16d"
    quality_rounds = 2
    variants = ("source", "reweighted", "target")

    def __init__(self, m: int = 200, max_iters=None):
        self.m = m
        self.max_iters = max_iters

    def watch(self, capture, mods) -> None:
        capture.watch(mods["experiments"], "minimize_l2_linear")
        capture.watch(mods["experiments"], "train_weighted_ridge")
        capture.watch(mods["datagen"], "draw_labeled_target_regression")

    def setup(self, seed, mods) -> None:
        self._mods = mods
        experiments = mods["experiments"]
        warm = experiments.ExperimentConfig("exp2", m=20, dim=16, seed=0, trials=1)
        experiments.run_experiment_2(warm, solver=mods["reweight"].SolverConfig(max_iters=3))

    def round(self, index: int, seed: int) -> list:
        rng = round_rng(index, seed, self.quality_rounds)
        return [int(rng.integers(0, 2**31))]

    def run(self, trial_seed: int):
        experiments = self._mods["experiments"]
        cfg = experiments.ExperimentConfig("exp2", m=self.m, dim=16, seed=trial_seed, trials=1)
        solver = None
        if self.max_iters is not None:
            solver = self._mods["reweight"].SolverConfig(
                max_iters=self.max_iters, eta0=experiments.EXP2_ETA0)
        return experiments.run_experiment_2(cfg, solver=solver)

    def outputs(self, instance, record, captured: dict) -> dict:
        (args, _, result), = _one(captured, "experiments.minimize_l2_linear")
        q, p = args[0], args[1]
        fits = _one(captured, "experiments.train_weighted_ridge", 3)
        (_, _, test), = _one(captured, "datagen.draw_labeled_target_regression")
        rows = {(row.variant, row.metric): row.value for row in record.trial_rows}
        return {
            "q_points": q.points,
            "p_points": p.points,
            "p_weights": p.weights,
            "weights": result.weights.entries,
            "achieved": result.achieved_disc,
            "lower": result.lower_bound,
            "fits": [
                {
                    "x": fit_args[0].points,
                    "y": fit_args[0].labels,
                    "w": _entries(fit_args[1]),
                    "lam": fit_args[2],
                    "coef": hyp.coef,
                }
                for fit_args, _, hyp in fits
            ],
            "rows": rows,
            "test_x": test.points,
            "test_y": test.labels,
        }

    def check(self, instance, out: dict) -> dict:
        xq, z = out["q_points"], out["weights"]
        require_simplex("minimize_l2_linear weights", z, xq.shape[0])
        reference = linear_disc(xq, z, out["p_points"], out["p_weights"])
        require_close("achieved_disc", out["achieved"], reference, 1e-9)
        samples = simplex_samples(np.random.default_rng(instance), xq.shape[0], SIMPLEX_SAMPLES)
        values = [linear_disc(xq, point, out["p_points"], out["p_weights"]) for point in samples]
        require_lower_bound(out["lower"], out["achieved"], values, 1e-9 * max(1.0, out["achieved"]))
        test_x = np.hstack([out["test_x"], np.ones((out["test_x"].shape[0], 1))])
        record = {"achieved": out["achieved"], "lower": out["lower"]}
        for variant, fit in zip(self.variants, out["fits"]):
            residual = ridge_residual(fit["x"], fit["y"], fit["w"], fit["lam"], fit["coef"])
            scale = 1.0 + float(np.linalg.norm(fit["x"].T @ (fit["w"] * fit["y"])))
            require(
                float(np.linalg.norm(residual)) <= 1e-9 * scale,
                f"{variant} ridge normal equations off by {np.linalg.norm(residual):.3e}",
            )
            mse = float(np.mean((test_x @ fit["coef"] - out["test_y"]) ** 2))
            require_close(f"{variant} mse", out["rows"][(variant, "mse")], mse, 1e-9)
            record[variant] = mse
        return record

    def quality(self, records) -> Quality:
        mse = {v: _mean([r[v] for r in records]) for v in self.variants}
        problems = []
        if not mse["source"] > mse["reweighted"] >= mse["target"]:
            problems.append(f"mean mse not ordered source > reweighted >= target: {mse}")
        extras = {f"{v}_mse": value for v, value in mse.items()}
        return _disc_quality(records, extras, problems)


# --------------------------------------------------------------------------
# kernel-minimize: Gaussian-kernel distance and reweighting on small 2-d pairs
# --------------------------------------------------------------------------


class KernelMinimize:
    """Per operation: build the Gaussian gram over the joint support, read the
    kernel discrepancy, then reweight the source at a fixed iteration cap."""

    name = "kernel-minimize"
    quality_rounds = 3
    gamma = 0.5
    shift = 0.5

    def __init__(self, source_size: int = 8, target_size: int = 16, max_iters: int = 200):
        self.source_size = source_size
        self.target_size = target_size
        self.max_iters = max_iters

    def watch(self, capture, mods) -> None:
        pass

    def setup(self, seed, mods) -> None:
        self._mods = mods
        self._kernel = mods["linalg"].GaussianKernel(self.gamma)
        self._solver = mods["reweight"].SolverConfig(max_iters=self.max_iters)
        rng = np.random.default_rng(0)
        warm = (rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        self._solve(warm, mods["reweight"].SolverConfig(max_iters=3))

    def round(self, index: int, seed: int) -> list:
        rng = round_rng(index, seed, self.quality_rounds)
        source = rng.normal(-self.shift, 1.0, (self.source_size, 2))
        target = rng.normal(self.shift, 1.0, (self.target_size, 2))
        return [(source, target, int(rng.integers(0, 2**31)))]

    def run(self, instance):
        return self._solve(instance, self._solver)

    def _solve(self, instance, solver):
        mods = self._mods
        source, target = instance[:2]
        q = mods["core"].WeightedEmpirical.from_points(source)
        p = mods["core"].WeightedEmpirical.from_points(target)
        points, _, _ = mods["distance"].joint_support(q, p)
        gram = mods["linalg"].gram_matrix(points, self._kernel)
        disc = mods["distance"].disc_l2_kernel(q, p, gram)
        result = mods["reweight"].minimize_l2_kernel(q, p, gram, solver)
        return points, gram.data, disc.value, result

    def outputs(self, instance, result, captured: dict) -> dict:
        points, gram, disc, solved = result
        return {
            "points": points,
            "gram": gram,
            "disc": disc,
            "weights": solved.weights.entries,
            "achieved": solved.achieved_disc,
            "lower": solved.lower_bound,
        }

    def check(self, instance, out: dict) -> dict:
        source, target, check_seed = instance
        support = np.vstack([source, target])
        require(
            np.unique(support, axis=0).shape[0] == support.shape[0],
            "benchmark inputs must have distinct points",
        )
        require(
            out["points"].shape == support.shape and bool((out["points"] == support).all()),
            "joint support is not the source points followed by the target points",
        )
        gram = gaussian_gram(support, self.gamma)
        gap = float(np.abs(out["gram"] - gram).max())
        require(gap <= 1e-12, f"gram differs from the reference by {gap:.3e}")
        factor = gram_factor(gram)
        k, mq = support.shape[0], source.shape[0]
        p_mass = np.concatenate([np.zeros(mq), np.full(k - mq, 1.0 / (k - mq))])

        def objective(z):
            return kernel_disc(factor, p_mass - np.concatenate([z, np.zeros(k - mq)]))

        require_close("disc_l2_kernel", out["disc"], objective(np.full(mq, 1.0 / mq)), 1e-9)
        require_simplex("minimize_l2_kernel weights", out["weights"], mq)
        require_close("achieved_disc", out["achieved"], objective(out["weights"]), 1e-9)
        samples = simplex_samples(np.random.default_rng(check_seed), mq, SIMPLEX_SAMPLES)
        values = [objective(z) for z in np.vstack([np.eye(mq), samples])]
        require_lower_bound(out["lower"], out["achieved"], values, 1e-9 * max(1.0, out["achieved"]))
        return {"achieved": out["achieved"], "lower": out["lower"]}

    def quality(self, records) -> Quality:
        return _disc_quality(records)


# --------------------------------------------------------------------------
# tiny-1d: many small weighted pairs on the line
# --------------------------------------------------------------------------


class Tiny1d:
    """Per operation, one weighted pair on a grid of step 1/4 (so points repeat
    within and across samples) through the exact rule, the canonical-region
    LP and the threshold distance."""

    name = "tiny-1d"
    quality_rounds = 1
    # (points per side, pairs of that size per round): small pairs dominate.
    SIZES = tuple((k, 17 - k) for k in range(3, 17))
    shift = 0.5

    def watch(self, capture, mods) -> None:
        pass

    def setup(self, seed, mods) -> None:
        self._mods = mods
        self.run((np.array([0.0, 1.0]), np.ones(2), np.array([0.5, 2.0]), np.ones(2)))

    def round(self, index: int, seed: int) -> list:
        rng = round_rng(index, seed, self.quality_rounds)
        pairs = []
        for size, count in self.SIZES:
            for _ in range(count):
                xq = np.round(rng.normal(0.0, 1.0, size) * 4.0) / 4.0
                xp = np.round(rng.normal(self.shift, 1.0, size) * 4.0) / 4.0
                pairs.append((xq, rng.uniform(0.1, 1.0, size), xp, rng.uniform(0.1, 1.0, size)))
        return pairs

    def run(self, instance):
        mods = self._mods
        xq, wq, xp, wp = instance
        q = mods["core"].WeightedEmpirical.from_points(xq, wq)
        p = mods["core"].WeightedEmpirical.from_points(xp, wp)
        rule = mods["reweight"].minimize_1d(q, p)
        regions = mods["reweight"].canonical_regions_1d(q, p)
        lp = mods["reweight"].minimize_01_lp(q, p, regions)
        disc = mods["distance"].disc_01_threshold1d(q, p)
        return q.points[:, 0], rule, lp, disc.value

    def outputs(self, instance, result, captured: dict) -> dict:
        q_points, rule, lp, disc = result
        return {
            "q_points": q_points,
            "disc": disc,
            "rule_weights": rule.weights.entries,
            "rule": rule.achieved_disc,
            "rule_lower": rule.lower_bound,
            "rule_warned": bool(rule.warnings),
            "lp_weights": lp.weights.entries,
            "lp": lp.achieved_disc,
            "lp_lower": lp.lower_bound,
        }

    def check(self, instance, out: dict) -> dict:
        xq, wq, xp, wp = instance
        require(
            out["q_points"].size == np.unique(xq).size
            and bool(np.isin(out["q_points"], xq).all()),
            "reweightable support is not the distinct source points",
        )
        _, diff = signed_mass_1d(xq, wq, xp, wp)
        require_close("disc_01_threshold1d", out["disc"], interval_disc_enumerated(diff), 1e-9)
        for solver in ("rule", "lp"):
            weights = out[f"{solver}_weights"]
            require_simplex(f"{solver} weights", weights, out["q_points"].size)
            _, diff = signed_mass_1d(out["q_points"], weights, xp, wp)
            value = interval_disc_enumerated(diff)
            require_close(f"{solver} achieved_disc", out[solver], value, 1e-9)
        unlabeled = max_unlabeled_mass(xq, xp, wp)
        require_close("rule lower_bound", out["rule_lower"], unlabeled, 1e-9)
        require_close("lp lower_bound", out["lp_lower"], unlabeled, 1e-9)
        left_mass = bool(np.min(xp) < np.min(xq))
        require(out["rule_warned"] == left_mass, "left-mass warning disagrees with the inputs")
        if left_mass:
            require(out["lp"] <= out["rule"] + 1e-9, "LP value above the exact rule's")
            require(out["lp"] >= unlabeled - 1e-9, "LP value below the unlabeled-region mass")
        else:
            require_close("LP value against the exact rule", out["lp"], out["rule"], 1e-9)
            require_close("LP value against the unlabeled-region mass", out["lp"], unlabeled, 1e-9)
        return {"achieved": out["rule"], "lower": out["rule_lower"]}

    def quality(self, records) -> Quality:
        return _disc_quality(records)


WORKLOADS = {w.name: w for w in (Exp1Large, Exp2Wide, KernelMinimize, Tiny1d)}
