"""Reference oracles the tests compare the package against.

They enumerate exhaustively, so they only serve tiny inputs: every subset of a
joint support for the 0-1 discrepancy, every point of a simplex grid for the
reweighting objective, and exact-equality point keys for the loop oracles.
"""
import math
from typing import Optional

import numpy as np

from discrep.core import HypothesisSpec, Threshold1D, WeightedEmpirical
from discrep.distance import joint_support


def point_key(vec) -> tuple:
    """Hashable exact-equality key for a support point (0.0 == -0.0)."""
    return tuple(float(c) for c in np.atleast_1d(vec))


def _mask_bits(count: int, width: int) -> np.ndarray:
    masks = np.arange(count, dtype=np.int64)
    return ((masks[:, None] >> np.arange(width)[None, :]) & 1).astype(bool)


def disc_01_bruteforce(
    q: WeightedEmpirical,
    p: WeightedEmpirical,
    max_support: int = 16,
    hypothesis: Optional[HypothesisSpec] = None,
) -> tuple[float, np.ndarray]:
    """0-1 discrepancy by exhaustive region enumeration over the joint support.

    Every subset of the support is a candidate region. When ``hypothesis`` is
    the 1-d threshold class the candidates are filtered to interval traces and
    their complements (realizability is decidable there); for other classes
    the unfiltered power set is used, which upper-bounds any class-restricted
    value. Supports of more than ``max_support`` points are refused: the
    enumeration is exponential and anything larger is a combinatorial blowup.
    Returns ``(value, region)``, the region a boolean mask over
    :func:`~discrep.distance.joint_support`.
    """
    pts, qm, pm = joint_support(q, p)
    p0 = pts.shape[0]
    if p0 > max_support:
        raise ValueError(
            f"joint support has {p0} points > max_support={max_support}: "
            "refusing combinatorial blowup"
        )
    d = qm - pm
    bits = _mask_bits(2**p0, p0)
    if hypothesis is not None and isinstance(hypothesis, Threshold1D):
        if q.dim != 1:
            raise ValueError("threshold-class filtering needs 1-d supports")
        order = np.argsort(pts[:, 0], kind="stable")
        sb = bits[:, order]

        def contiguous(b):
            count = b.sum(axis=1)
            first = np.argmax(b, axis=1)
            last = b.shape[1] - 1 - np.argmax(b[:, ::-1], axis=1)
            return (count > 0) & (last - first + 1 == count)

        keep = contiguous(sb) | contiguous(~sb)
        bits = bits[keep]
    gaps = np.abs(bits @ d)
    best = int(np.argmax(gaps))
    return float(gaps[best]), bits[best]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_oracle(objective, m0: int, step: float):
    """Exhaustive simplex-grid minimization for tiny problems.

    Enumerates the grid in lexicographic order and keeps the first strict
    minimum, so results are deterministic. Returns ``(z, value)``.
    """
    if int(m0) != m0 or not (1 <= m0 <= 4):
        raise ValueError("grid oracle supports between 1 and 4 weights")
    m0 = int(m0)
    if not (math.isfinite(step) and 0 < step <= 1):
        raise ValueError("step must lie in (0, 1]")
    k = round(1.0 / step)
    if abs(k * step - 1.0) > 1e-9:
        raise ValueError("step must evenly divide 1")
    best_z = None
    best_val = np.inf
    for comp in _compositions(k, m0):
        z = np.array(comp, dtype=float) / k
        val = float(objective(z))
        if val < best_val:
            best_val = val
            best_z = z
    return best_z, best_val
