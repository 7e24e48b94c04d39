"""Benchmark pipelines over the shifted-Gaussian generators.

Pipeline 1 (classification): train 1-d threshold classifiers on the source
sample with uniform weights and with discrepancy-minimizing weights, then score
both on a fresh labeled target test set.

Pipeline 2 (regression): train ridge fits on the source sample (uniform
weights), on the reweighted source, and on the labeled target sample, then
compare their target-test mean squared errors. Both the reweighting objective
and ridge operate on points augmented with a constant-1 feature so first
moments participate in the match.

Trials are seeded independently through SeedSequence((seed, m, trial)) so any
trial can be reproduced in isolation; output rows are sorted before emission.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import datagen
from .core import LabeledSample, SimplexVector, WeightedEmpirical, _unique_rows, as_point_array
from .learners import (
    train_weighted_ridge,
    train_weighted_threshold,
    weighted_zero_one_error,
)
from .reweight import SolverConfig, minimize_1d, minimize_l2_linear

EXPERIMENT_IDS = ("exp1", "exp2")
PRIMARY_METRIC = {"exp1": "accuracy", "exp2": "mse"}
# Regression-pipeline solver defaults. The step size selects mirror descent,
# whose weights are an early-stopped iterate by design, and its cool scale
# matters: hot multiplicative updates, and the exact minimizer even more so,
# reach similar objective values through spiky low-entropy weight vectors,
# which starve the downstream weighted fit.
EXP2_MAX_ITERS = 600
EXP2_ETA0 = 0.1
CURVE_HEADER = ("m", "variant", "metric_mean", "metric_std", "trials", "seed")
TRIALS_HEADER = ("m", "trial", "variant", "metric", "value")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by both pipelines; n defaults to 10*m when omitted."""

    experiment: str
    m: int
    n: Optional[int] = None
    dim: int = 2
    seed: int = 0
    trials: int = 1
    lam: float = 0.1

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"experiment must be one of {EXPERIMENT_IDS}")
        if int(self.m) < 1:
            raise ValueError("m must be at least 1")
        if self.n is not None and int(self.n) < 1:
            raise ValueError("n must be at least 1")
        if int(self.trials) < 1:
            raise ValueError("trials must be at least 1")
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    def n_for(self, m: int) -> int:
        return int(self.n) if self.n is not None else 10 * int(m)


@dataclass(frozen=True)
class TrialRow:
    m: int
    trial: int
    variant: str
    metric: str
    value: float


@dataclass(frozen=True)
class SummaryRow:
    m: int
    variant: str
    metric: str
    mean: float
    std: float
    trials: int
    seed: int


@dataclass(frozen=True)
class RunRecord:
    """Per-trial rows plus per-(m, variant, metric) summaries.

    Summaries must be recomputable from the rows; the constructor checks this
    along with the trial count, so a RunRecord cannot disagree with itself.
    """

    config: ExperimentConfig
    trial_rows: tuple
    summary_rows: tuple

    def __post_init__(self):
        expected = summarize_rows(self.trial_rows, self.config)
        if len(expected) != len(self.summary_rows):
            raise ValueError("summary rows do not match the trial rows")
        for got, want in zip(self.summary_rows, expected):
            if got.std < 0:
                raise ValueError("summary std must be nonnegative")
            same = (
                (got.m, got.variant, got.metric, got.trials, got.seed)
                == (want.m, want.variant, want.metric, want.trials, want.seed)
                and abs(got.mean - want.mean) <= 1e-9
                and abs(got.std - want.std) <= 1e-9
            )
            if not same:
                raise ValueError("summary rows are not recomputable from the trial rows")


def trial_rng(seed: int, m: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, reproducible without running others."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(m), int(trial))))


def per_example_weights(
    points, support_weights: SimplexVector, support: WeightedEmpirical
) -> SimplexVector:
    """Spread per-atom weights of the merged support back over raw sample rows.

    Duplicated rows split their atom's mass evenly, so training on the weighted
    sample reproduces the weighted distribution exactly.
    """
    pts = as_point_array(points)
    if pts.shape[1] != support.dim:
        raise ValueError("support does not match the sample points")
    first, inverse = _unique_rows(np.vstack([support.points, pts]))
    atom = inverse[support.size :]
    counts = np.bincount(atom, minlength=first.size)
    if first.size != support.size or not counts.all():
        raise ValueError("support does not match the sample points")
    return SimplexVector.normalized(support_weights.entries[atom] / counts[atom])


def summarize_rows(rows: Sequence[TrialRow], cfg: ExperimentConfig) -> tuple:
    """Group rows by (m, variant, metric); mean and population std over trials."""
    groups: dict[tuple, list[float]] = {}
    seen: dict[tuple, set] = {}
    for row in rows:
        key = (row.m, row.variant, row.metric)
        groups.setdefault(key, []).append(row.value)
        seen.setdefault(key, set()).add(row.trial)
    out = []
    for key in sorted(groups):
        values = np.asarray(groups[key], dtype=float)
        if len(values) != cfg.trials or seen[key] != set(range(cfg.trials)):
            raise ValueError("trial count does not match the configuration")
        out.append(
            SummaryRow(
                m=key[0],
                variant=key[1],
                metric=key[2],
                mean=float(values.mean()),
                std=float(values.std()),
                trials=cfg.trials,
                seed=cfg.seed,
            )
        )
    return tuple(out)


def _sorted_rows(rows: list) -> tuple:
    return tuple(sorted(rows, key=lambda r: (r.m, r.trial, r.variant, r.metric)))


def _uniform(k: int) -> np.ndarray:
    return np.full(k, 1.0 / k)


# --------------------------------------------------------------------------
# pipeline 1: shifted-Gaussian threshold classification
# --------------------------------------------------------------------------


def _exp1_trial(cfg: ExperimentConfig, m: int, trial: int) -> list:
    rng = trial_rng(cfg.seed, m, trial)
    source = datagen.draw_source_1d(rng, m)
    n = cfg.n_for(m)
    target_points = datagen.draw_target_1d(rng, n)

    q = WeightedEmpirical.from_points(source.points)
    p = WeightedEmpirical.from_points(target_points)
    result = minimize_1d(q, p)
    weights = per_example_weights(source.points, result.weights, q)

    h_plain = train_weighted_threshold(source, _uniform(source.size))
    h_reweighted = train_weighted_threshold(source, weights)

    test = datagen.draw_labeled_target_1d(rng, 10 * n)
    test_uniform = _uniform(test.size)
    rows = []
    for variant, hyp in (("unweighted", h_plain), ("weighted", h_reweighted)):
        accuracy = 1.0 - weighted_zero_one_error(hyp, test, test_uniform)
        rows.append(TrialRow(m, trial, variant, "accuracy", float(accuracy)))
        rows.append(TrialRow(m, trial, variant, "cutoff", float(hyp.cutoff)))
    return rows


def run_experiment_1(cfg: ExperimentConfig, m_values: Optional[Sequence[int]] = None) -> RunRecord:
    """Threshold classification under uniform vs discrepancy-minimizing weights."""
    if cfg.experiment != "exp1":
        raise ValueError("config does not describe the classification pipeline")
    ms = sorted({int(m) for m in m_values}) if m_values is not None else [cfg.m]
    rows: list = []
    for m in ms:
        for trial in range(cfg.trials):
            rows.extend(_exp1_trial(cfg, m, trial))
    trial_rows = _sorted_rows(rows)
    return RunRecord(cfg, trial_rows, summarize_rows(trial_rows, cfg))


# --------------------------------------------------------------------------
# pipeline 2: mirrored-cloud ridge regression
# --------------------------------------------------------------------------


def _augment(points) -> np.ndarray:
    pts = as_point_array(points)
    return np.hstack([pts, np.ones((pts.shape[0], 1))])


def _slope(coef: np.ndarray) -> float:
    """Mean coefficient over the raw coordinates (the bias column excluded)."""
    return float(np.mean(coef[:-1]))


def _exp2_trial(cfg: ExperimentConfig, m: int, trial: int, solver: SolverConfig) -> list:
    rng = trial_rng(cfg.seed, m, trial)
    source = datagen.draw_source_regression(rng, m, cfg.dim)
    n = cfg.n_for(m)
    target_points = datagen.draw_target_regression(rng, n, cfg.dim)

    source_aug = _augment(source.points)
    target_aug = _augment(target_points)
    q = WeightedEmpirical.from_points(source_aug)
    p = WeightedEmpirical.from_points(target_aug)
    result = minimize_l2_linear(q, p, solver)
    weights = per_example_weights(source_aug, result.weights, q)

    train_source = LabeledSample(source_aug, source.labels)
    train_target = LabeledSample(target_aug, datagen.tent_values(target_points))
    fits = {
        "source": train_weighted_ridge(train_source, _uniform(m), cfg.lam),
        "reweighted": train_weighted_ridge(train_source, weights, cfg.lam),
        "target": train_weighted_ridge(train_target, _uniform(n), cfg.lam),
    }

    test = datagen.draw_labeled_target_regression(rng, 10 * n, cfg.dim)
    test_aug = _augment(test.points)
    rows = []
    for variant, hyp in fits.items():
        residual = hyp.predict(test_aug) - test.labels
        rows.append(TrialRow(m, trial, variant, "mse", float(np.mean(residual**2))))
        rows.append(TrialRow(m, trial, variant, "slope", _slope(hyp.coef)))
    return rows


def run_experiment_2(
    cfg: ExperimentConfig,
    m_values: Optional[Sequence[int]] = None,
    solver: Optional[SolverConfig] = None,
) -> RunRecord:
    """Ridge regression trained on source, reweighted source, and target data.

    The default solver is mirror descent at ``EXP2_MAX_ITERS`` steps of scale
    ``EXP2_ETA0``; a ``solver`` without ``eta0`` runs the exact interior-point
    method instead.
    """
    if cfg.experiment != "exp2":
        raise ValueError("config does not describe the regression pipeline")
    if solver is None:
        solver = SolverConfig(max_iters=EXP2_MAX_ITERS, eta0=EXP2_ETA0)
    ms = sorted({int(m) for m in m_values}) if m_values is not None else [cfg.m]
    rows: list = []
    for m in ms:
        for trial in range(cfg.trials):
            rows.extend(_exp2_trial(cfg, m, trial, solver))
    trial_rows = _sorted_rows(rows)
    return RunRecord(cfg, trial_rows, summarize_rows(trial_rows, cfg))


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------


def write_curve_csv(record: RunRecord, path: str) -> None:
    """Primary-metric summary curve: one row per (m, variant)."""
    primary = PRIMARY_METRIC[record.config.experiment]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CURVE_HEADER)
        for row in record.summary_rows:
            if row.metric != primary:
                continue
            writer.writerow([row.m, row.variant, row.mean, row.std, row.trials, row.seed])


def write_trials_csv(record: RunRecord, path: str) -> None:
    """Every per-trial metric row, so summaries can be recomputed downstream."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRIALS_HEADER)
        for row in record.trial_rows:
            writer.writerow([row.m, row.trial, row.variant, row.metric, row.value])
