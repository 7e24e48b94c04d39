"""Closed-form guarantee calculators.

Each entry takes plain numbers already measured elsewhere (empirical losses,
Rademacher averages, discrepancies, regularization strength) and evaluates one
right-hand side. Nothing here estimates anything; these are the formulas, with
strict input validation that names the offending quantity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: dict
    value: float


def _finite(name, v) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite")
    return v


def _nonneg(name, v) -> float:
    v = _finite(name, v)
    if v < 0:
        raise ValueError(f"{name} must be nonnegative")
    return v


def _positive(name, v) -> float:
    v = _finite(name, v)
    if v <= 0:
        raise ValueError(f"{name} must be positive")
    return v


def _confidence(name, v) -> float:
    v = _finite(name, v)
    if not (0.0 < v < 1.0):
        raise ValueError(f"{name} must lie in (0, 1)")
    return v


def _count(name, v) -> int:
    f = float(v)
    if not (math.isfinite(f) and f == int(f) and f >= 1):
        raise ValueError(f"{name} must be a positive integer")
    return int(f)


def _exponent(name, v) -> float:
    v = _finite(name, v)
    if v < 1.0:
        raise ValueError(f"{name} must be at least 1")
    return v


def _dev(delta: float, m: int, factor: float) -> float:
    return math.sqrt(math.log(factor / delta) / (2.0 * m))


def rademacher_generalization(emp_risk, rad, m, delta) -> float:
    """Empirical risk + class Rademacher average + 3*sqrt(log(2/delta)/(2m))."""
    emp_risk = _nonneg("emp_risk", emp_risk)
    rad = _nonneg("rad", rad)
    m = _count("m", m)
    delta = _confidence("delta", delta)
    return emp_risk + rad + 3.0 * _dev(delta, m, 2.0)


def lq_disc_estimation(q, rad, bound, m, delta) -> float:
    """Sample-vs-population discrepancy ceiling for the |a-b|^q loss family."""
    q = _exponent("q", q)
    rad = _nonneg("rad", rad)
    bound = _positive("bound", bound)
    m = _count("m", m)
    delta = _confidence("delta", delta)
    return 4.0 * q * rad + 3.0 * bound * _dev(delta, m, 2.0)


def zeroone_disc_estimation(rad, m, delta) -> float:
    """Specialization of the discrepancy-estimation ceiling to the 0-1 loss."""
    rad = _nonneg("rad", rad)
    m = _count("m", m)
    delta = _confidence("delta", delta)
    return 4.0 * rad + 3.0 * _dev(delta, m, 2.0)


def two_sample_disc_estimation(emp_disc, q, rad_source, rad_target, bound, m, n, delta) -> float:
    """Population discrepancy ceiling from the two empirical samples together."""
    emp_disc = _nonneg("emp_disc", emp_disc)
    q = _exponent("q", q)
    rad_source = _nonneg("rad_source", rad_source)
    rad_target = _nonneg("rad_target", rad_target)
    bound = _positive("bound", bound)
    m = _count("m", m)
    n = _count("n", n)
    delta = _confidence("delta", delta)
    return (
        emp_disc
        + 4.0 * q * (rad_source + rad_target)
        + 3.0 * bound * (_dev(delta, m, 4.0) + _dev(delta, n, 4.0))
    )


def adaptation_triangle(target_best_loss, source_loss, disc, best_pair_loss) -> float:
    """Target-risk ceiling: ideal target loss + source-domain loss to the source
    optimum + discrepancy + the gap between the two domain optima."""
    return (
        _nonneg("target_best_loss", target_best_loss)
        + _nonneg("source_loss", source_loss)
        + _nonneg("disc", disc)
        + _nonneg("best_pair_loss", best_pair_loss)
    )


def adaptation_baseline(source_loss, disc, joint_best_loss) -> float:
    """Earlier-style target-risk ceiling: source loss + discrepancy + joint optimum."""
    return (
        _nonneg("source_loss", source_loss)
        + _nonneg("disc", disc)
        + _nonneg("joint_best_loss", joint_best_loss)
    )


def adaptation_empirical_zeroone(
    emp_source_loss, emp_disc, rad_source, rad_target, q, m, n, delta, best_pair_loss
) -> float:
    """Fully empirical target-excess-risk ceiling for 0-1 classification."""
    emp_source_loss = _nonneg("emp_source_loss", emp_source_loss)
    emp_disc = _nonneg("emp_disc", emp_disc)
    rad_source = _nonneg("rad_source", rad_source)
    rad_target = _nonneg("rad_target", rad_target)
    q = _exponent("q", q)
    m = _count("m", m)
    n = _count("n", n)
    delta = _confidence("delta", delta)
    best_pair_loss = _nonneg("best_pair_loss", best_pair_loss)
    return (
        emp_source_loss
        + emp_disc
        + (4.0 * q + 0.5) * rad_source
        + 4.0 * q * rad_target
        + 4.0 * _dev(delta, m, 8.0)
        + 3.0 * _dev(delta, n, 8.0)
        + best_pair_loss
    )


def pointwise_stability(kappa, sigma, disc, lam) -> float:
    """Pointwise loss-difference ceiling for two regularized kernel fits whose
    training distributions differ by ``disc`` (matching labels)."""
    kappa = _nonneg("kappa", kappa)
    sigma = _nonneg("sigma", sigma)
    disc = _nonneg("disc", disc)
    lam = _positive("lam", lam)
    return kappa * sigma * math.sqrt(disc / lam)


def _stability_with_gap(kappa, bound, disc, lam, label_gap) -> float:
    kappa = _nonneg("kappa", kappa)
    bound = _positive("bound", bound)
    disc = _nonneg("disc", disc)
    lam = _positive("lam", lam)
    label_gap = _nonneg("label_gap", label_gap)
    root = math.sqrt(kappa * kappa * label_gap * label_gap + 4.0 * lam * disc)
    return (2.0 * kappa * bound / lam) * (kappa * label_gap + root)


def pointwise_stability_shifted_labels(kappa, bound, disc, lam, label_gap) -> float:
    """Ceiling when the two domains' labeling functions differ; ``label_gap`` is
    the root-mean-square label difference on the reweightable sample. For
    targets that no hypothesis matches exactly (the agnostic case), pass the
    gap to the best in-class fit instead."""
    return _stability_with_gap(kappa, bound, disc, lam, label_gap)


def zeroone_classification(emp_loss, rad, m, delta) -> float:
    """Population 0-1 proximity ceiling from its empirical counterpart."""
    emp_loss = _nonneg("emp_loss", emp_loss)
    rad = _nonneg("rad", rad)
    m = _count("m", m)
    delta = _confidence("delta", delta)
    return emp_loss + 0.5 * rad + math.sqrt(math.log(1.0 / delta) / (2.0 * m))


BOUND_REGISTRY = {
    "rademacher_generalization": (
        rademacher_generalization,
        ("emp_risk", "rad", "m", "delta"),
    ),
    "lq_disc_estimation": (lq_disc_estimation, ("q", "rad", "bound", "m", "delta")),
    "zeroone_disc_estimation": (zeroone_disc_estimation, ("rad", "m", "delta")),
    "two_sample_disc_estimation": (
        two_sample_disc_estimation,
        ("emp_disc", "q", "rad_source", "rad_target", "bound", "m", "n", "delta"),
    ),
    "adaptation_triangle": (
        adaptation_triangle,
        ("target_best_loss", "source_loss", "disc", "best_pair_loss"),
    ),
    "adaptation_baseline": (adaptation_baseline, ("source_loss", "disc", "joint_best_loss")),
    "adaptation_empirical_zeroone": (
        adaptation_empirical_zeroone,
        (
            "emp_source_loss",
            "emp_disc",
            "rad_source",
            "rad_target",
            "q",
            "m",
            "n",
            "delta",
            "best_pair_loss",
        ),
    ),
    "pointwise_stability": (pointwise_stability, ("kappa", "sigma", "disc", "lam")),
    "pointwise_stability_shifted_labels": (
        pointwise_stability_shifted_labels,
        ("kappa", "bound", "disc", "lam", "label_gap"),
    ),
    "zeroone_classification": (zeroone_classification, ("emp_loss", "rad", "m", "delta")),
}


def bound_value(name: str, **inputs) -> BoundReport:
    """Evaluate a registered guarantee formula on explicit numeric inputs."""
    if name not in BOUND_REGISTRY:
        known = ", ".join(sorted(BOUND_REGISTRY))
        raise ValueError(f"unknown bound {name!r}; known bounds: {known}")
    fn, expected = BOUND_REGISTRY[name]
    missing = [k for k in expected if k not in inputs]
    extra = [k for k in inputs if k not in expected]
    if missing:
        raise ValueError(f"missing input {missing[0]!r} for bound {name!r}")
    if extra:
        raise ValueError(f"unexpected input {extra[0]!r} for bound {name!r}")
    value = fn(**inputs)
    return BoundReport(name, dict(inputs), float(value))
