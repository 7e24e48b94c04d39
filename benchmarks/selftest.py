"""Show that the benchmark's checks pass real outputs and reject corrupted ones.

    python3 benchmarks/selftest.py

Runs each workload's operation on a small instance, checks the real output,
then corrupts one field at a time (weights moved onto one point, a shifted
value, a wrong cutoff, a bent ridge fit) and requires the check to reject each
copy. It also holds the linear-time prefix-range formula equal to the full
interval enumeration it stands in for on large supports. Exits 1 if any
corrupted output is accepted or any real one rejected.
"""
from __future__ import annotations

import copy
import sys

import run  # noqa: I001  sets the BLAS and numpy settings before numpy loads
import numpy as np
from probe import Capture, Patcher
from reference import (
    CheckFailed,
    interval_disc_enumerated,
    interval_disc_prefix_range,
    max_unlabeled_mass,
    require_lower_bound,
)
from workloads import Exp1Large, Exp2Wide, KernelMinimize, Tiny1d

MISSES: list = []


def expect(label: str, accepted: bool, wanted: bool) -> None:
    verdict = "accepted" if accepted else "rejected"
    ok = accepted == wanted
    print(f"{'ok  ' if ok else 'MISS'} {verdict}: {label}")
    if not ok:
        MISSES.append(label)


def check_passes(workload, instance, out) -> bool:
    try:
        workload.check(instance, out)
    except CheckFailed as exc:
        print(f"     {exc}")
        return False
    return True


def corruptions(workload, instance, out, cases) -> None:
    expect(f"{workload.name}: real output", check_passes(workload, instance, out), True)
    for label, mutate in cases:
        bad = copy.deepcopy(out)
        mutate(bad)
        expect(f"{workload.name}: {label}", check_passes(workload, instance, bad), False)


def collapse(weights) -> np.ndarray:
    """All mass on the lightest point: still on the simplex, but far from the
    returned weights, so the discrepancy it claims no longer holds."""
    w = np.zeros(len(weights))
    w[int(np.argmin(weights))] = 1.0
    return w


def run_op(workload, mods, instance):
    patcher = Patcher()
    capture = Capture(patcher)
    try:
        workload.watch(capture, mods)
        workload.setup(0, mods)
        capture.active = True
        result = workload.run(instance)
        capture.active = False
        return workload.outputs(instance, result, capture.take())
    finally:
        patcher.restore()


def reference_identities() -> None:
    rng = np.random.default_rng(7)
    agree = True
    for _ in range(200):
        diff = rng.normal(size=int(rng.integers(1, 40)))
        diff -= diff.mean()
        agree &= abs(interval_disc_enumerated(diff) - interval_disc_prefix_range(diff)) <= 1e-12
    expect("prefix-range formula equals the interval enumeration", agree, True)
    # one source point at 0; target mass 0.25 left of it, 0.5 and 0.25 right
    value = max_unlabeled_mass([0.0], [-1.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    expect("unlabeled-region mass of a hand-worked pair is 1", value == 1.0, True)
    try:
        require_lower_bound(0.5, 2.0, [3.0, 0.4, 2.5], 1e-9)
        accepted = True
    except CheckFailed:
        accepted = False
    expect("lower bound above one sampled objective value", accepted, False)


def main() -> int:
    mods = run.import_package()
    reference_identities()

    exp1 = Exp1Large(m=200)
    out = run_op(exp1, mods, 12345)
    corruptions(exp1, 12345, out, [
        ("weights collapsed onto one point",
         lambda o: o.update(weights=collapse(o["weights"]))),
        ("weights off the simplex", lambda o: o.update(weights=o["weights"] * 1.01)),
        ("shifted achieved_disc", lambda o: o.update(achieved=o["achieved"] + 1e-6)),
        ("lower_bound above achieved_disc", lambda o: o.update(lower=o["achieved"] + 1e-6)),
        ("shifted accuracy row", lambda o: o["rows"].update(
            {("weighted", "accuracy"): o["rows"][("weighted", "accuracy")] + 1e-6})),
        ("moved cutoff", lambda o: o.update(rules=[o["rules"][0], (o["rules"][1][0] + 0.5,
                                                                  o["rules"][1][1])])),
        ("flipped orientation", lambda o: o.update(rules=[o["rules"][0], (
            o["rules"][1][0],
            "predict-1-left" if o["rules"][1][1] == "predict-1-right" else "predict-1-right")])),
    ])
    records = [{"achieved": 0.1, "lower": 0.1, "weighted": 0.6, "unweighted": 0.7}]
    expect("exp1-large: weighted accuracy below unweighted",
           not exp1.quality(records).problems, False)

    exp2 = Exp2Wide(m=30, max_iters=40)
    out = run_op(exp2, mods, 2024)
    corruptions(exp2, 2024, out, [
        ("weights collapsed onto one point", lambda o: o.update(weights=collapse(o["weights"]))),
        ("shifted achieved_disc", lambda o: o.update(achieved=o["achieved"] * 1.001)),
        ("lower_bound above the objective", lambda o: o.update(lower=o["achieved"] * 2.0)),
        ("bent ridge fit", lambda o: o["fits"][1].update(coef=o["fits"][1]["coef"] * 1.001)),
        ("shifted mse row", lambda o: o["rows"].update(
            {("target", "mse"): o["rows"][("target", "mse")] * 1.001})),
    ])
    records = [{"achieved": 1.0, "lower": 0.0, "source": 2.0, "reweighted": 2.5, "target": 1.0}]
    expect("exp2-16d: reweighted mse above source", not exp2.quality(records).problems, False)

    kernel = KernelMinimize(source_size=3, target_size=5, max_iters=40)
    instance = kernel.round(0, 0)[0]
    out = run_op(kernel, mods, instance)
    corruptions(kernel, instance, out, [
        ("shifted disc_l2_kernel", lambda o: o.update(disc=o["disc"] + 1e-5)),
        ("weights collapsed onto one point", lambda o: o.update(weights=collapse(o["weights"]))),
        ("shifted achieved_disc", lambda o: o.update(achieved=o["achieved"] + 1e-5)),
        ("lower_bound above a vertex", lambda o: o.update(lower=o["achieved"] + 1e-3)),
        ("perturbed gram", lambda o: o["gram"].__setitem__((0, 1), o["gram"][0, 1] + 1e-9)),
        ("reordered joint support", lambda o: o.update(points=o["points"][::-1])),
    ])

    tiny = Tiny1d()
    pairs = tiny.round(0, 0)
    tiny.setup(0, mods)
    kinds = {}
    for pair in pairs:
        left = bool(np.min(pair[2]) < np.min(pair[0]))
        if left not in kinds and np.unique(pair[0]).size > 1:
            kinds[left] = pair
    for left, pair in sorted(kinds.items()):
        out = run_op(tiny, mods, pair)
        tag = "left mass" if left else "no left mass"
        cases = [
            (f"{tag}, shifted threshold distance", lambda o: o.update(disc=o["disc"] + 1e-6)),
            (f"{tag}, rule weights collapsed onto one point",
             lambda o: o.update(rule_weights=collapse(o["rule_weights"]))),
            (f"{tag}, LP weights collapsed onto one point",
             lambda o: o.update(lp_weights=collapse(o["lp_weights"]))),
            (f"{tag}, shifted LP value", lambda o: o.update(lp=o["lp"] + 1e-6)),
            (f"{tag}, shifted rule lower_bound",
             lambda o: o.update(rule_lower=o["rule_lower"] - 1e-6)),
            (f"{tag}, flipped left-mass warning",
             lambda o: o.update(rule_warned=not o["rule_warned"])),
        ]
        corruptions(tiny, pair, out, cases)

    print(f"{len(MISSES)} miss(es)")
    return 1 if MISSES else 0


if __name__ == "__main__":
    sys.exit(main())
