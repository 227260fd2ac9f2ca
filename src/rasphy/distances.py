"""Distance estimation from an abundant bin of near-common-rate sites.

Restricted to the sites of one bin, the normalized pair agreement
concentrates around ``exp(-lam* d(a, b))`` for the bin's common rate
``lam*``.  Taking ``-log`` of its positive part therefore estimates the
rescaled tree metric ``lam* * d`` accurately at short range, which is
all a distance-based topology reconstruction needs: the estimate is a
distorted metric with short-range accuracy ``tau`` and trust horizon
``psi``, and entries that cannot be estimated come out as ``+inf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import _agreement
from .models import Alignment, SubstitutionModel

__all__ = [
    "DistortedMetric",
    "DistortionReport",
    "bin_agreement",
    "distorted_metric",
    "verify_distortion",
]

#: replacement distance for agreement estimates that exceed 1
MIN_POSITIVE_DISTANCE = np.finfo(float).tiny


@dataclass(frozen=True)
class DistortedMetric:
    """Symmetric leaf-pair distance estimates in ``(0, +inf]``.

    ``values`` is an ``(n, n)`` array with zero diagonal (by convention)
    and possibly infinite off-diagonal entries.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.array_equal(v, v.T, equal_nan=True):
            raise ValueError("distance matrix must be symmetric")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DistortionReport:
    """Violation count of the short-range accuracy condition."""

    violations: int
    checked: int
    tau: float
    psi: float
    worst: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def lines(self):
        yield f"distortion_ok={self.ok}"
        yield f"violations={self.violations}"
        yield f"checked={self.checked}"
        yield f"tau={self.tau!r}"
        yield f"psi={self.psi!r}"
        if self.worst is not None:
            a, b, err = self.worst
            yield f"worst_pair={a},{b}"
            yield f"worst_error={err!r}"


def bin_agreement(aln: Alignment, bin_sites, model: SubstitutionModel) -> np.ndarray:
    """Normalized pair agreement restricted to the given site indices.

    With the whole site range this coincides with the global agreement
    matrix; on an abundant bin its expectation is approximately
    ``exp(-lam* d(a, b))``.  The counting kernel gathers the bin's rows
    one site chunk at a time, so the bin is never copied whole.
    """
    idx = np.asarray(bin_sites, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("site bin is empty")
    return _agreement(aln, model, idx)


def distorted_metric(qstar: np.ndarray) -> DistortedMetric:
    """Map bin agreement to distances: ``dhat = -log(max(qstar, 0))``.

    Nonpositive agreement gives ``+inf`` (the pair is beyond the trust
    horizon); values above 1 (possible from normalization noise) clamp
    to the smallest positive distance.  The diagonal is set to zero.
    """
    q = np.asarray(qstar, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("agreement matrix must be square")
    if not np.array_equal(q, q.T):
        raise ValueError("agreement matrix must be symmetric")
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(q > 0.0, -np.log(np.minimum(q, 1.0)), np.inf)
    d[q >= 1.0] = MIN_POSITIVE_DISTANCE
    np.fill_diagonal(d, 0.0)
    return DistortedMetric(values=d)


def verify_distortion(dhat: DistortedMetric, true_scaled: np.ndarray,
                      tau: float, psi: float) -> DistortionReport:
    """Check the two-sided short-range accuracy condition.

    For every leaf pair with either the true scaled distance or the
    estimate below ``psi + tau``, the two must agree within ``tau``.
    Oracle mode: requires the true (rescaled) metric.
    """
    if tau <= 0.0 or psi <= 0.0:
        raise ValueError("tau and psi must be positive")
    d = np.asarray(true_scaled, dtype=float)
    est = dhat.values
    if d.shape != est.shape:
        raise ValueError("metric shapes differ")
    n = d.shape[0]
    a_idx, b_idx = np.triu_indices(n, k=1)
    dv, ev = d[a_idx, b_idx], est[a_idx, b_idx]
    short = (dv < psi + tau) | (ev < psi + tau)
    err = np.abs(dv - ev)
    bad = short & ~(err < tau)
    violations = int(bad.sum())
    worst = None
    if violations:
        errs = np.where(bad, np.where(np.isfinite(err), err, np.inf), -1.0)
        w = int(np.argmax(errs))
        worst = (int(a_idx[w]), int(b_idx[w]), float(err[w]))
    return DistortionReport(violations=violations, checked=int(short.sum()),
                            tau=tau, psi=psi, worst=worst)
