"""Binning sites by their clustering-statistic value.

Because the statistic's conditional mean is strictly decreasing in the
per-site rate, sites whose statistic falls into a common narrow bin
share a nearly common rate.  The bin edges and width are derived from
the regularity parameters (f, g, M) alone:

* rates land in ``[g/M, 2/(1 - exp(-5g))]`` with probability at least
  ``chi = (1 - exp(-5g)) / 2``,
* hence statistic values land in ``[u_lo, u_hi]`` with the same
  probability, where ``u_lo = exp(-M * rate_hi)`` and
  ``u_hi = exp(-2f * rate_lo)``,
* bins have width ``delta_u = gamma_u / log(n)``, one guard bin beyond
  each end of the range, and everything outside goes to bin 0.

A bin holding at least ``k * chi / (6 * num_bins)`` sites is abundant;
at least one interior bin is abundant with high probability, and its
sites are handed to distance estimation.  When none is,
``select_abundant`` raises :class:`NoAbundantBin`, a statistical
failure that the pipeline records instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trees import RegularityParams, StatisticalFailure

__all__ = [
    "BinAssignment",
    "BinningParams",
    "NoAbundantBin",
    "bin_sites",
    "derive_params",
    "select_abundant",
]


class NoAbundantBin(StatisticalFailure):
    """No interior bin reached the abundance threshold (k too small)."""

    def __init__(self, threshold: float, best_count: int, best_bin: int):
        super().__init__(
            f"no bin reaches the abundance threshold {threshold:.3f} "
            f"(best: bin {best_bin} with {best_count} sites); "
            "increase the number of sites k"
        )
        self.threshold = threshold
        self.best_count = best_count
        self.best_bin = best_bin


@dataclass(frozen=True)
class BinningParams:
    """All constants of the binning stage.

    ``rate_lo``/``rate_hi`` bound the usable rates, ``chi`` is the
    guaranteed probability mass between them, ``u_lo``/``u_hi`` bound
    the corresponding statistic values, ``delta_u = gamma_u / log n`` is
    the bin width and ``num_bins`` the number of interior bins (bin 0 is
    the out-of-range bucket).  ``gamma_u`` must be small enough that

        ``u_hi + 2*delta_u <= exp(-f * rate_lo)``   and
        ``u_lo - 2*delta_u >= exp(-2*M * rate_hi)``,

    which is what pins the rates of binned sites inside
    ``[f*g/M**2, 2M / (f*(1 - exp(-5g)))]``.
    """

    rate_lo: float
    rate_hi: float
    chi: float
    u_lo: float
    u_hi: float
    gamma_u: float
    delta_u: float
    num_bins: int
    n_leaves: int

    def abundance_threshold(self, k: int) -> float:
        """Sites a bin needs out of ``k`` to count as abundant."""
        return k * self.chi / (6.0 * self.num_bins)


@dataclass(frozen=True)
class BinAssignment:
    """The bin of every site: ``site_bin[i]`` is 0 when the statistic of
    site ``i`` fell out of range, else the interior bin j >= 1 whose
    half-open interval holds it.  One int64 label per site, whatever the
    number of bins; :meth:`sites` lists a bin's sites in ascending order.
    """

    site_bin: np.ndarray
    params: BinningParams

    def sites(self, j: int) -> np.ndarray:
        """Ascending indices of the sites in bin ``j``."""
        return np.flatnonzero(self.site_bin == j)

    def counts(self) -> np.ndarray:
        return np.bincount(self.site_bin, minlength=self.params.num_bins + 1)

    def edges(self, j) -> tuple:
        """Half-open interval ``[lo, hi)`` of interior bin ``j >= 1``, or
        the arrays of both edges of an integer array ``j``."""
        bp = self.params
        lo = bp.u_lo - bp.delta_u + (j - 1) * bp.delta_u
        return lo, lo + bp.delta_u


def derive_params(reg: RegularityParams, n: int,
                  gamma_u: float | None = None) -> BinningParams:
    """Compute the binning constants for an n-leaf instance.

    ``gamma_u`` defaults to half the largest value compatible with the
    rate-pinning inequalities (solved in closed form); passing a larger
    value is rejected.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    g, f, cap = reg.max_edge, reg.min_edge, reg.distance_cap
    rate_lo = g / cap
    rate_hi = 2.0 / (1.0 - math.exp(-5.0 * g))
    chi = (1.0 - math.exp(-5.0 * g)) / 2.0
    u_lo = math.exp(-cap * rate_hi)
    u_hi = math.exp(-2.0 * f * rate_lo)
    room_hi = (math.exp(-f * rate_lo) - u_hi) / 2.0
    room_lo = (u_lo - math.exp(-2.0 * cap * rate_hi)) / 2.0
    biggest = math.log(n) * min(room_hi, room_lo)
    if gamma_u is None:
        gamma_u = biggest / 2.0
    elif not (0.0 < gamma_u <= biggest):
        raise ValueError(
            f"gamma_u={gamma_u} violates the rate-pinning inequalities; "
            f"largest admissible value is {biggest!r}"
        )
    delta_u = gamma_u / math.log(n)
    num_bins = math.ceil((u_hi - u_lo + 2.0 * delta_u) / delta_u)
    return BinningParams(
        rate_lo=rate_lo, rate_hi=rate_hi, chi=chi,
        u_lo=u_lo, u_hi=u_hi,
        gamma_u=gamma_u, delta_u=delta_u, num_bins=num_bins,
        n_leaves=n,
    )


def bin_sites(u_values, bp: BinningParams) -> BinAssignment:
    """Assign each site to its statistic bin.

    Site ``i`` goes to bin 0 if its value is outside
    ``[u_lo - delta_u, u_hi + delta_u)`` and otherwise to the half-open
    interval bin containing it (left edges closed).
    """
    u = np.asarray(u_values, dtype=float)
    if u.ndim != 1:
        raise ValueError("u_values must be 1-d")
    if not np.all(np.isfinite(u)):
        raise ValueError("u_values must be finite")
    lo = bp.u_lo - bp.delta_u
    hi = bp.u_hi + bp.delta_u
    idx = np.floor((u - lo) / bp.delta_u).astype(np.int64) + 1
    idx = np.clip(idx, 1, bp.num_bins)
    idx[(u < lo) | (u >= hi)] = 0
    return BinAssignment(site_bin=idx, params=bp)


def select_abundant(ba: BinAssignment, k: int) -> int:
    """Index of the largest abundant interior bin.

    A bin is abundant when it holds at least
    :meth:`BinningParams.abundance_threshold` sites.  Ties break toward
    the lowest index; raises :class:`NoAbundantBin` when nothing
    qualifies.
    """
    threshold = ba.params.abundance_threshold(k)
    counts = ba.counts()
    best_bin = 1 + int(np.argmax(counts[1:]))
    best_count = int(counts[best_bin])
    if best_count < threshold:
        raise NoAbundantBin(threshold, best_count, best_bin)
    return best_bin
