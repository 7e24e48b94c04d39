"""End-to-end CLI tests: exit codes, JSON contracts, CSV outputs."""
import csv
import json

import numpy as np
import pytest

from discrep.cli import main, parse_kernel
from discrep.linalg import GaussianKernel, LinearKernel
from discrep.sample_io import write_sample_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pair_1d(tmp_path):
    src = tmp_path / "src.csv"
    tgt = tmp_path / "tgt.csv"
    write_sample_csv(src, [0.0, 1.0, 2.0])
    write_sample_csv(tgt, [0.5, 1.5])
    return str(src), str(tgt)


@pytest.fixture()
def pair_2d(tmp_path):
    rng = np.random.default_rng(8)
    src = tmp_path / "src2.csv"
    tgt = tmp_path / "tgt2.csv"
    write_sample_csv(src, rng.normal(size=(6, 2)))
    write_sample_csv(tgt, rng.normal(size=(5, 2)))
    return str(src), str(tgt)


def test_disc_zeroone_json(capsys, pair_1d):
    code, out, _ = run_cli(capsys, "disc", "--loss", "zeroone",
                           "--hypothesis", "threshold1d", *pair_1d)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "witness"}
    assert payload["value"] == pytest.approx(2 / 3)
    assert payload["witness"]["kind"] == "interval"


def test_disc_l2_linear_json(capsys, pair_2d):
    code, out, _ = run_cli(capsys, "disc", "--loss", "l2", "--hypothesis", "linear", *pair_2d)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] >= 0
    assert payload["witness"]["kind"] == "direction"
    assert len(payload["witness"]["vector"]) == 2


def test_disc_l2_kernel_matches_linear(capsys, pair_2d):
    code, out, _ = run_cli(capsys, "disc", "--loss", "l2", "--hypothesis", "kernel",
                           "--kernel", "linear", *pair_2d)
    assert code == 0
    kernel_value = json.loads(out)["value"]
    run_cli(capsys, "disc", "--loss", "l2", "--hypothesis", "linear", *pair_2d)
    # second invocation captured separately
    code2, out2, _ = run_cli(capsys, "disc", "--loss", "l2", "--hypothesis", "linear", *pair_2d)
    assert kernel_value == pytest.approx(json.loads(out2)["value"], abs=1e-6)


def test_minimize_zeroone_json(capsys, pair_1d):
    code, out, _ = run_cli(capsys, "minimize", "--loss", "zeroone", *pair_1d)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"weights", "achieved_disc", "lower_bound", "converged", "warnings"}
    assert payload["achieved_disc"] == pytest.approx(0.5)
    assert sum(payload["weights"]) == pytest.approx(1.0)
    with pytest.raises(SystemExit) as exc:  # no --dim flag: the route reads the files' dimension
        main(["minimize", "--loss", "zeroone", "--dim", "2", *pair_1d])
    assert exc.value.code == 2


def test_minimize_l2_json_and_convergence_exit(capsys, pair_2d):
    code, out, _ = run_cli(capsys, "minimize", "--loss", "l2", "--max-iters", "400", *pair_2d)
    payload = json.loads(out)
    assert code in (0, 3)
    assert (code == 0) == payload["converged"]
    code2, out2, _ = run_cli(capsys, "minimize", "--loss", "l2", "--max-iters", "3", *pair_2d)
    assert code2 == 3
    assert json.loads(out2)["converged"] is False


def test_minimize_kernel_route(capsys, pair_2d):
    code, out, _ = run_cli(capsys, "minimize", "--loss", "l2", "--hypothesis", "kernel",
                           "--kernel", "gaussian:0.5", "--max-iters", "200", *pair_2d)
    assert code in (0, 3)
    payload = json.loads(out)
    assert payload["achieved_disc"] >= payload["lower_bound"] - 1e-9


def test_rademacher_exact_json(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    write_sample_csv(path, [0.0, 1.0, 2.0, 3.0])
    code, out, _ = run_cli(capsys, "rademacher", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["stderr"] == 0.0
    assert payload["trials"] == 16


def test_rademacher_linear_montecarlo(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    write_sample_csv(path, np.random.default_rng(1).normal(size=(30, 2)))
    code, out, _ = run_cli(capsys, "rademacher", str(path), "--hypothesis", "linear",
                           "--trials", "200", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False and payload["value"] > 0


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "pointwise_stability",
                           "kappa=1", "sigma=4", "disc=0.09", "lam=0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(4 * np.sqrt(0.9))
    assert payload["inputs"]["disc"] == 0.09


def test_bounds_bad_assignment_exits_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "pointwise_stability", "kappa")
    assert code == 2
    assert "name=value" in err


def test_malformed_csv_exits_2_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x_1\n1.0\noops\n", encoding="utf-8")
    tgt = tmp_path / "t.csv"
    write_sample_csv(tgt, [0.0])
    code, _, err = run_cli(capsys, "disc", "--loss", "zeroone",
                           "--hypothesis", "threshold1d", str(bad), str(tgt))
    assert code == 2
    assert "line 3" in err


def test_missing_file_exits_2(capsys, tmp_path):
    tgt = tmp_path / "t.csv"
    write_sample_csv(tgt, [0.0])
    code, _, err = run_cli(capsys, "disc", "--loss", "zeroone",
                           "--hypothesis", "threshold1d", str(tmp_path / "nope.csv"), str(tgt))
    assert code == 2
    assert "error" in err


def test_exp1_writes_curve_and_trials_csv(capsys, tmp_path):
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "exp1", "--m", "30", "--trials", "2", "--seed", "5",
                           "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "variant", "metric_mean", "metric_std", "trials", "seed"]
    assert {r[1] for r in rows[1:]} == {"unweighted", "weighted"}
    trials_file = tmp_path / "curve.trials.csv"
    with open(trials_file, newline="") as fh:
        trows = list(csv.reader(fh))
    assert trows[0] == ["m", "trial", "variant", "metric", "value"]
    # 2 trials x 2 variants x 2 metrics
    assert len(trows) == 1 + 8
    payload = json.loads(out)
    assert payload["out"] == str(out_csv)


def test_exp1_reproducible(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "exp1", "--m", "25", "--trials", "2", "--seed", "9",
                             "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_exp2_curve(capsys, tmp_path):
    out_csv = tmp_path / "c2.csv"
    code, out, _ = run_cli(capsys, "exp2", "--m", "40", "--trials", "1", "--seed", "2",
                           "--n-dim", "2", "--max-iters", "150", "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert {r[1] for r in rows[1:]} == {"source", "reweighted", "target"}
    payload = json.loads(out)
    metrics = {(s["variant"], s["metric"]) for s in payload["summaries"]}
    assert ("reweighted", "mse") in metrics and ("target", "slope") in metrics


def test_exp2_m_grid(capsys, tmp_path):
    out_csv = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "exp2", "--m-grid", "20,30", "--trials", "1", "--seed", "2",
                         "--n-dim", "2", "--max-iters", "100", "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        ms = {int(r[0]) for r in list(csv.reader(fh))[1:]}
    assert ms == {20, 30}


def test_parse_kernel():
    assert isinstance(parse_kernel("linear"), LinearKernel)
    kern = parse_kernel("gaussian:0.5")
    assert isinstance(kern, GaussianKernel) and kern.gamma == 0.5
    with pytest.raises(ValueError, match="unknown kernel"):
        parse_kernel("cubic")
    with pytest.raises(ValueError, match="width"):
        parse_kernel("gaussian:abc")


def test_unknown_bound_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "not_a_bound", "m=1"])
    assert exc.value.code == 2
