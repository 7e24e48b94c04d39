"""Tests for the benchmark pipelines and their record/CSV plumbing."""
import csv

import numpy as np
import pytest

from discrep.core import SimplexVector, WeightedEmpirical
from discrep.experiments import (
    ExperimentConfig,
    RunRecord,
    SummaryRow,
    TrialRow,
    per_example_weights,
    run_experiment_1,
    run_experiment_2,
    summarize_rows,
    trial_rng,
    write_curve_csv,
    write_trials_csv,
)
from discrep.reweight import SolverConfig


def test_config_validation():
    with pytest.raises(ValueError, match="experiment"):
        ExperimentConfig("exp3", m=10)
    with pytest.raises(ValueError, match="m must be"):
        ExperimentConfig("exp1", m=0)
    with pytest.raises(ValueError, match="n must be"):
        ExperimentConfig("exp1", m=10, n=0)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig("exp1", m=10, trials=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig("exp1", m=10, seed=-1)
    with pytest.raises(ValueError, match="lam"):
        ExperimentConfig("exp2", m=10, lam=0.0)


def test_n_defaults_to_ten_m():
    cfg = ExperimentConfig("exp1", m=30)
    assert cfg.n_for(30) == 300
    assert cfg.n_for(50) == 500
    explicit = ExperimentConfig("exp1", m=30, n=70)
    assert explicit.n_for(30) == 70


def test_trial_rng_reproducible_and_distinct():
    a = trial_rng(5, 100, 3).normal(size=4)
    b = trial_rng(5, 100, 3).normal(size=4)
    c = trial_rng(5, 100, 4).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_per_example_weights_split_duplicates():
    pts = np.array([[0.0], [1.0], [1.0], [2.0]])
    support = WeightedEmpirical.from_points(pts)
    support_weights = SimplexVector(np.array([0.5, 0.4, 0.1]))
    w = per_example_weights(pts, support_weights, support)
    assert w.entries == pytest.approx([0.5, 0.2, 0.2, 0.1])
    with pytest.raises(ValueError, match="does not match"):
        per_example_weights(np.array([[9.0]]), SimplexVector(np.ones(1)), support)
    # a support point missing from the sample, and a sample of another dimension
    with pytest.raises(ValueError, match="does not match"):
        per_example_weights(np.array([[0.0], [1.0]]), support_weights, support)
    with pytest.raises(ValueError, match="does not match"):
        per_example_weights(np.array([[0.0, 1.0]]), support_weights, support)
    # sample rows in another order than the support
    shuffled = np.array([[2.0], [1.0], [0.0], [1.0]])
    w = per_example_weights(shuffled, support_weights, support)
    assert w.entries == pytest.approx([0.1, 0.2, 0.5, 0.2])


def test_summarize_rows_and_record_invariants():
    cfg = ExperimentConfig("exp1", m=10, trials=2)
    rows = (
        TrialRow(10, 0, "weighted", "accuracy", 0.8),
        TrialRow(10, 1, "weighted", "accuracy", 0.6),
    )
    summary = summarize_rows(rows, cfg)
    assert summary[0].mean == pytest.approx(0.7)
    assert summary[0].std == pytest.approx(0.1)
    record = RunRecord(cfg, rows, summary)
    assert record.summary_rows[0].trials == 2
    bad = (SummaryRow(10, "weighted", "accuracy", 0.9, 0.1, 2, 0),)
    with pytest.raises(ValueError, match="not recomputable"):
        RunRecord(cfg, rows, bad)
    with pytest.raises(ValueError, match="trial count"):
        summarize_rows(rows[:1], cfg)


def test_exp1_record_structure_and_reproducibility():
    cfg = ExperimentConfig("exp1", m=40, trials=3, seed=12)
    rec1 = run_experiment_1(cfg)
    rec2 = run_experiment_1(cfg)
    assert rec1 == rec2
    assert len(rec1.trial_rows) == 3 * 2 * 2
    variants = {r.variant for r in rec1.trial_rows}
    assert variants == {"unweighted", "weighted"}
    with pytest.raises(ValueError, match="classification"):
        run_experiment_1(ExperimentConfig("exp2", m=10))


def test_exp1_cutoff_locations():
    cfg = ExperimentConfig("exp1", m=100, trials=5, seed=3)
    rec = run_experiment_1(cfg)
    cuts = {s.variant: s.mean for s in rec.summary_rows if s.metric == "cutoff"}
    assert cuts["unweighted"] < 0.0
    assert cuts["weighted"] > 0.0


def test_exp1_weighted_beats_unweighted_across_seeds():
    # The documented robustness property at m = 200: positive accuracy gap on
    # at least 19 of 20 seeds.
    wins = 0
    for seed in range(20):
        cfg = ExperimentConfig("exp1", m=200, trials=1, seed=seed)
        rec = run_experiment_1(cfg)
        acc = {s.variant: s.mean for s in rec.summary_rows if s.metric == "accuracy"}
        wins += acc["weighted"] > acc["unweighted"]
    assert wins >= 19


def test_exp2_ordering_and_slopes_2d():
    cfg = ExperimentConfig("exp2", m=80, dim=2, trials=3, seed=4)
    rec = run_experiment_2(cfg, solver=SolverConfig(max_iters=250, eta0=0.1))
    mse = {s.variant: s.mean for s in rec.summary_rows if s.metric == "mse"}
    slope = {s.variant: s.mean for s in rec.summary_rows if s.metric == "slope"}
    assert mse["source"] > mse["reweighted"] >= mse["target"]
    assert slope["source"] < 0.0 < slope["target"]
    with pytest.raises(ValueError, match="regression"):
        run_experiment_2(ExperimentConfig("exp1", m=10))


def test_exp2_multiple_m_values():
    cfg = ExperimentConfig("exp2", m=30, dim=2, trials=1, seed=1)
    rec = run_experiment_2(cfg, m_values=(30, 60), solver=SolverConfig(max_iters=120))
    assert {r.m for r in rec.trial_rows} == {30, 60}
    assert len(rec.trial_rows) == 2 * 3 * 2


def test_csv_writers_round_trip(tmp_path):
    cfg = ExperimentConfig("exp1", m=25, trials=2, seed=6)
    rec = run_experiment_1(cfg)
    curve = tmp_path / "curve.csv"
    trials = tmp_path / "trials.csv"
    write_curve_csv(rec, str(curve))
    write_trials_csv(rec, str(trials))
    with open(curve, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["variant"] for r in rows} == {"unweighted", "weighted"}
    assert all(r["trials"] == "2" and r["seed"] == "6" for r in rows)
    with open(trials, newline="") as fh:
        trial_rows = list(csv.DictReader(fh))
    acc = [
        float(r["value"])
        for r in trial_rows
        if r["variant"] == "weighted" and r["metric"] == "accuracy"
    ]
    want = next(r for r in rows if r["variant"] == "weighted")
    assert np.mean(acc) == pytest.approx(float(want["metric_mean"]))
    assert np.std(acc) == pytest.approx(float(want["metric_std"]))
