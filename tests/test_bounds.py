"""Tests for the closed-form guarantee calculators.

The frozen expected values were computed with an independent high-precision
script (mpmath, 30 significant digits) before this module was written.
"""
import math

import pytest

from discrep import bounds
from discrep.bounds import BOUND_REGISTRY, bound_value


def test_rademacher_generalization_frozen():
    got = bounds.rademacher_generalization(emp_risk=0.1, rad=0.2, m=100, delta=0.05)
    assert got == pytest.approx(0.707430454722186, rel=1e-12)


def test_zeroone_disc_estimation_frozen():
    got = bounds.zeroone_disc_estimation(rad=0.2, m=50, delta=0.1)
    assert got == pytest.approx(1.3192455147806856, rel=1e-12)


def test_lq_disc_estimation_frozen():
    got = bounds.lq_disc_estimation(q=2, rad=0.15, bound=2.0, m=200, delta=0.05)
    assert got == pytest.approx(1.7761936747919525, rel=1e-12)


def test_two_sample_disc_estimation_frozen():
    got = bounds.two_sample_disc_estimation(
        emp_disc=0.3, q=2, rad_source=0.1, rad_target=0.12,
        bound=1.0, m=100, n=400, delta=0.1,
    )
    assert got == pytest.approx(2.671145682083279, rel=1e-12)


def test_adaptation_empirical_zeroone_frozen():
    got = bounds.adaptation_empirical_zeroone(
        emp_source_loss=0.2, emp_disc=0.25, rad_source=0.1, rad_target=0.05,
        q=1, m=100, n=1000, delta=0.05, best_pair_loss=0.02,
    )
    assert got == pytest.approx(1.9083156047649214, rel=1e-12)


def test_pointwise_stability_frozen():
    got = bounds.pointwise_stability(kappa=1.0, sigma=4.0, disc=0.09, lam=0.1)
    assert got == pytest.approx(3.7947331922020552, rel=1e-12)


def test_pointwise_stability_shifted_labels_frozen():
    got = bounds.pointwise_stability_shifted_labels(
        kappa=1.0, bound=1.0, disc=0.09, lam=0.1, label_gap=0.2,
    )
    assert got == pytest.approx(9.513619500836089, rel=1e-12)


def test_zeroone_classification_frozen():
    got = bounds.zeroone_classification(emp_loss=0.15, rad=0.2, m=50, delta=0.1)
    assert got == pytest.approx(0.4017427129385146, rel=1e-12)


def test_sum_style_bounds_are_plain_sums():
    assert bounds.adaptation_triangle(0.1, 0.2, 0.3, 0.05) == pytest.approx(0.65)
    assert bounds.adaptation_baseline(0.2, 0.3, 0.15) == pytest.approx(0.65)


def test_zeroone_special_case_matches_lq_with_unit_settings():
    # With q = 1 and bound = 1 the general calculator reduces to the 0-1 one.
    general = bounds.lq_disc_estimation(q=1, rad=0.07, bound=1.0, m=64, delta=0.2)
    special = bounds.zeroone_disc_estimation(rad=0.07, m=64, delta=0.2)
    assert general == pytest.approx(special, rel=1e-14)


def test_shifted_labels_with_zero_gap_matches_matching_label_form():
    # When the label functions agree the gap term vanishes and the shifted
    # formula collapses to kappa * (4 * bound) * sqrt(disc / lam).
    kappa, bound, disc, lam = 1.5, 2.0, 0.04, 0.25
    shifted = bounds.pointwise_stability_shifted_labels(
        kappa=kappa, bound=bound, disc=disc, lam=lam, label_gap=0.0,
    )
    matching = bounds.pointwise_stability(kappa=kappa, sigma=4.0 * bound, disc=disc, lam=lam)
    assert shifted == pytest.approx(matching, rel=1e-12)


def test_deviation_terms_shrink_with_sample_size_and_grow_with_confidence():
    loose = bounds.zeroone_disc_estimation(rad=0.0, m=50, delta=0.1)
    tighter = bounds.zeroone_disc_estimation(rad=0.0, m=5000, delta=0.1)
    assert tighter < loose
    stricter = bounds.zeroone_disc_estimation(rad=0.0, m=50, delta=0.01)
    assert stricter > loose


def test_registry_round_trip():
    report = bound_value("pointwise_stability", kappa=1.0, sigma=4.0, disc=0.09, lam=0.1)
    assert report.name == "pointwise_stability"
    assert report.inputs["disc"] == 0.09
    assert report.value == pytest.approx(3.7947331922020552, rel=1e-12)
    assert set(BOUND_REGISTRY) == {
        "rademacher_generalization",
        "lq_disc_estimation",
        "zeroone_disc_estimation",
        "two_sample_disc_estimation",
        "adaptation_triangle",
        "adaptation_baseline",
        "adaptation_empirical_zeroone",
        "pointwise_stability",
        "pointwise_stability_shifted_labels",
        "zeroone_classification",
    }


def test_registry_signatures_match_functions():
    for name, (fn, params) in BOUND_REGISTRY.items():
        code = fn.__code__
        assert code.co_varnames[: code.co_argcount] == params, name


def test_unknown_bound_and_wrong_inputs_are_named():
    with pytest.raises(ValueError, match="unknown bound 'nope'"):
        bound_value("nope")
    with pytest.raises(ValueError, match="missing input 'delta'"):
        bound_value("zeroone_disc_estimation", rad=0.1, m=10)
    with pytest.raises(ValueError, match="unexpected input 'gamma'"):
        bound_value("zeroone_disc_estimation", rad=0.1, m=10, delta=0.1, gamma=3)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(rad=0.1, m=10, delta=0.0), "delta must lie in"),
        (dict(rad=0.1, m=10, delta=1.0), "delta must lie in"),
        (dict(rad=0.1, m=0, delta=0.1), "m must be a positive integer"),
        (dict(rad=0.1, m=2.5, delta=0.1), "m must be a positive integer"),
        (dict(rad=-0.1, m=10, delta=0.1), "rad must be nonnegative"),
        (dict(rad=math.nan, m=10, delta=0.1), "rad must be finite"),
    ],
)
def test_zeroone_estimation_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        bounds.zeroone_disc_estimation(**kwargs)


def test_more_validation_messages():
    with pytest.raises(ValueError, match="lam must be positive"):
        bounds.pointwise_stability(kappa=1, sigma=4, disc=0.1, lam=0.0)
    with pytest.raises(ValueError, match="q must be at least 1"):
        bounds.lq_disc_estimation(q=0.5, rad=0.1, bound=1, m=10, delta=0.1)
    with pytest.raises(ValueError, match="bound must be positive"):
        bounds.lq_disc_estimation(q=2, rad=0.1, bound=0, m=10, delta=0.1)
    with pytest.raises(ValueError, match="label_gap must be nonnegative"):
        bounds.pointwise_stability_shifted_labels(
            kappa=1, bound=1, disc=0.1, lam=0.1, label_gap=-0.2
        )
    with pytest.raises(ValueError, match="n must be a positive integer"):
        bounds.two_sample_disc_estimation(
            emp_disc=0.1, q=1, rad_source=0.1, rad_target=0.1,
            bound=1, m=10, n=-3, delta=0.1,
        )
