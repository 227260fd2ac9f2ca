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
        # a NaN matches its NaN mirror; the temporaries are boolean
        if not ((v == v.T) | (np.isnan(v) & np.isnan(v.T))).all():
            raise ValueError("distance matrix must be symmetric")
        object.__setattr__(self, "values", v)

    @classmethod
    def _from_symmetric(cls, values: np.ndarray) -> "DistortedMetric":
        """Wrap a square float array already known to be symmetric,
        skipping the transposed comparison of ``__post_init__``."""
        metric = object.__new__(cls)
        object.__setattr__(metric, "values", values)
        return metric


@dataclass(frozen=True)
class DistortionReport:
    """Violation count of the short-range accuracy condition; ``worst``
    is ``(a, b, error)`` of the largest violation, if any."""

    violations: int
    checked: int
    tau: float
    psi: float
    worst: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0


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
    Symmetry is checked once, on ``qstar``: the map is elementwise, so a
    symmetric ``qstar`` gives symmetric distances.
    """
    q = np.asarray(qstar, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("agreement matrix must be square")
    if not np.array_equal(q, q.T):
        raise ValueError("agreement matrix must be symmetric")
    # one output array; the caller's ``qstar`` is left as it is
    d = np.minimum(q, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(d, out=d)
    np.negative(d, out=d)
    d[~(q > 0.0)] = np.inf
    d[q >= 1.0] = MIN_POSITIVE_DISTANCE
    np.fill_diagonal(d, 0.0)
    return DistortedMetric._from_symmetric(d)


def verify_distortion(dhat: DistortedMetric, true_scaled: np.ndarray,
                      tau: float, psi: float) -> DistortionReport:
    """Check the two-sided short-range accuracy condition.

    For every leaf pair with either the true scaled distance or the
    estimate below ``psi + tau``, the two must agree within ``tau``.
    Oracle mode: requires the true (rescaled) metric.
    """
    if not (tau > 0.0 and psi > 0.0):
        raise ValueError("tau and psi must be positive")
    d = np.asarray(true_scaled, dtype=float)
    est = dhat.values
    if d.shape != est.shape:
        raise ValueError("metric shapes differ")
    # pairs a < b, as a strict upper-triangle mask in row-major order
    short = np.triu((d < psi + tau) | (est < psi + tau), 1)
    err = np.subtract(d, est)
    np.abs(err, out=err)
    bad = np.less(err, tau)
    np.logical_not(bad, out=bad)
    bad &= short
    checked = int(np.count_nonzero(short))
    violations = int(np.count_nonzero(bad))
    worst = None
    if violations:  # rank the violating errors in place, NaN as inf
        np.copyto(err, -1.0, where=np.logical_not(bad, out=bad))
        nan = np.isnan(err, out=short)
        np.copyto(err, np.inf, where=nan)
        w = int(np.argmax(err))
        worst = (*divmod(w, d.shape[0]),
                 np.nan if nan.flat[w] else float(err.flat[w]))
    return DistortionReport(violations=violations, checked=checked, tau=tau,
                            psi=psi, worst=worst)
