import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasphy import (Alignment, DistortedMetric, RateDistribution,
                    RegularityParams, SubstitutionModel, agreement_matrix,
                    bin_agreement,
                    distorted_metric, generate_random_regular,
                    simulate_alignment, tree_metric, verify_distortion)
from rasphy.distances import MIN_POSITIVE_DISTANCE, DistortionReport


class TestBinAgreement:
    def test_full_bin_equals_agreement_matrix(self, jc, two_speed, reg_01_02):
        tree = generate_random_regular(12, reg_01_02, seed=0)
        aln = simulate_alignment(tree, jc, two_speed, 300, seed=1)
        full = agreement_matrix(aln, jc)
        got = bin_agreement(aln, np.arange(aln.k), jc)
        assert np.array_equal(got, full)

    def test_constant_rate_decay_law(self, cfn, reg_01_02):
        tree = generate_random_regular(8, reg_01_02, seed=2)
        aln = simulate_alignment(tree, cfn, RateDistribution.constant(),
                                 80_000, seed=3)
        half = np.arange(0, aln.k, 2)  # an arbitrary bin
        q = bin_agreement(aln, half, cfn)
        d = tree_metric(tree)
        for a in range(8):
            for b in range(a + 1, 8):
                p = 0.5 + 0.5 * math.exp(-d[a, b])
                sigma = 2.0 * math.sqrt(p * (1 - p) / len(half))
                assert abs(q[a, b] - math.exp(-d[a, b])) < 4 * sigma

    def test_identical_leaves_give_one(self, cfn):
        data = np.zeros((10, 2), dtype=np.uint8)
        q = bin_agreement(Alignment(data, r=2), [1, 3, 5], cfn)
        assert q[0, 1] == pytest.approx(1.0)

    def test_empty_bin_rejected(self, cfn):
        data = np.zeros((10, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="empty"):
            bin_agreement(Alignment(data, r=2), [], cfn)

    def test_bin_is_not_copied_whole(self, jc):
        # a copy of the bin's rows alone would take 24 MiB here, on top of
        # the kernel's float32 block of 8192 sites, 8 MiB
        rng = np.random.default_rng(0)
        aln = Alignment(rng.integers(0, 4, size=(200_000, 256))
                        .astype(np.uint8), r=4)
        every_second = np.arange(0, aln.k, 2)
        tracemalloc.start()
        try:
            bin_agreement(aln, every_second, jc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestBinAgreementGolden:
    """sha256 of the little-endian float64 bytes of ``bin_agreement``.

    The bin leaves out sites 1 and 2.  A site chunk of the counting kernel
    holds 8192 sites, so 2**20 + 1 kept sites fill 128 chunks and put one
    site in a 129th.
    """

    @pytest.mark.parametrize("r, k, digest", [
        (2, 1, "d1db8e63e737361f1078ec103b14c04d5c0c91e3f1f15ad93548a923331c365a"),
        (4, 1, "39959a76ce288a5e7fe4dac24c2c7ef4ee87e7b37a7bddcf9084947db0d5fcc1"),
        (20, 1, "2283928402dab44aee6ad9fdf32cdf80aafdb3507c1b821647bf3e922509e955"),
        (2, 2**20 + 1, "994016315b030adc51da74eb803b2387d34d4d5743bca53442770418362a0883"),
        (4, 2**20 + 1, "eebc94fbce28d86fe7b7e5a22d184b5fc0b8370803a4f12b7c527638c6068d32"),
        (20, 2**20 + 1, "2fe0c018fd81e212eb9bb58f1a5dd542e7abd8f5fbc54ff3bb55a5fc41ccdeea"),
    ])
    def test_digest(self, r, k, digest):
        rng = np.random.default_rng(100 + r)
        data = rng.integers(0, r, size=(k + 2, 4)).astype(np.uint8)
        bin_sites = np.delete(np.arange(k + 2), [1, 2])
        q = bin_agreement(Alignment(data, r=r), bin_sites,
                          SubstitutionModel.uniform(r))
        assert hashlib.sha256(q.astype("<f8").tobytes()).hexdigest() == digest


class TestDistortedMetric:
    def test_log_inverse(self):
        q = np.array([[1.0, math.exp(-2.0)], [math.exp(-2.0), 1.0]])
        d = distorted_metric(q)
        assert d.values[0, 1] == pytest.approx(2.0)
        assert d.values[0, 0] == 0.0

    def test_unit_agreement_clamps_to_minimal_positive(self):
        q = np.array([[1.0, 1.0], [1.0, 1.0]])
        d = distorted_metric(q)
        assert d.values[0, 1] == MIN_POSITIVE_DISTANCE
        over = np.array([[1.0, 1.02], [1.02, 1.0]])
        assert distorted_metric(over).values[0, 1] == MIN_POSITIVE_DISTANCE

    def test_nonpositive_goes_infinite(self):
        q = np.array([[1.0, -0.01], [-0.01, 1.0]])
        assert np.isinf(distorted_metric(q).values[0, 1])
        q0 = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.isinf(distorted_metric(q0).values[0, 1])

    def test_asymmetric_rejected(self):
        q = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            distorted_metric(q)

    def test_asymmetric_rejected_where_both_entries_go_infinite(self):
        # both entries map to +inf, so only a check of the agreement
        # itself, not of the distances, sees the asymmetry
        q = np.array([[1.0, -0.1], [-0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            distorted_metric(q)

    def test_same_bits_as_where_formula_and_input_kept(self):
        # the oracle is the former body; the input is public and stays
        # as it was
        rng = np.random.default_rng(5)
        n = 64
        a = rng.choice([-0.5, 0.0, 1.0, 1.5, np.inf, -np.inf], size=(n, n))
        a = np.where(rng.random((n, n)) < 0.3, a,
                     rng.uniform(-0.2, 1.2, size=(n, n)))
        q = np.triu(a) + np.triu(a, 1).T
        before = q.tobytes()
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(q > 0.0, -np.log(np.minimum(q, 1.0)), np.inf)
        want[q >= 1.0] = MIN_POSITIVE_DISTANCE
        np.fill_diagonal(want, 0.0)
        got = distorted_metric(q).values
        assert got.tobytes() == want.tobytes()
        assert q.tobytes() == before

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_transform(self, seed):
        # entrywise larger agreement <=> entrywise smaller distance
        rng = np.random.default_rng(seed)
        n = 5
        a = rng.uniform(-0.2, 1.0, size=(n, n))
        q1 = (a + a.T) / 2
        bump = rng.uniform(0.0, 0.3, size=(n, n))
        q2 = q1 + (bump + bump.T) / 2
        d1 = distorted_metric(q1).values
        d2 = distorted_metric(q2).values
        iu = np.triu_indices(n, k=1)
        assert np.all(d2[iu] <= d1[iu])


def _reference_verify_distortion(dhat, true_scaled, tau, psi):
    """``verify_distortion`` over int64 ``triu_indices`` pairs, its former
    body, as an oracle."""
    d = np.asarray(true_scaled, dtype=float)
    est = dhat.values
    a_idx, b_idx = np.triu_indices(d.shape[0], k=1)
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


def _noisy(d, tau, psi, seed, spread=1.0):
    """``d`` with symmetric uniform noise in ``(-spread tau, spread tau)``,
    censored to ``inf`` at ``psi + tau`` and beyond."""
    n = d.shape[0]
    rng = np.random.default_rng(seed)
    est = d.copy()
    iu = np.triu_indices(n, k=1)
    est[iu] += rng.uniform(-spread * tau, spread * tau, size=len(iu[0]))
    est.T[iu] = est[iu]
    est[d >= psi + tau] = np.inf
    np.fill_diagonal(est, 0.0)
    return est


class TestVerifyDistortion:
    def _true(self, seed=4):
        tree = generate_random_regular(16, RegularityParams(0.1, 0.2, 1.2),
                                       seed=seed)
        return tree_metric(tree)

    def test_exact_metric_passes(self):
        d = self._true()
        report = verify_distortion(DistortedMetric(d), d, tau=1e-6, psi=2.0)
        assert report.ok
        assert report.violations == 0

    def test_noise_inside_tau_passes(self):
        d = self._true()
        tau, psi = 0.05, 2.0
        rng = np.random.default_rng(9)
        est = d.copy()
        iu = np.triu_indices(16, k=1)
        est[iu] += rng.uniform(-tau / 2, tau / 2, size=len(iu[0]))
        est.T[iu] = est[iu]
        est[d >= psi + tau] = np.inf
        np.fill_diagonal(est, 0.0)
        assert verify_distortion(DistortedMetric(est), d, tau, psi).ok

    def test_planted_violation_counted_once(self):
        d = self._true()
        tau, psi = 0.05, 2.0
        est = d.copy()
        est[0, 1] = est[1, 0] = d[0, 1] + 2 * tau
        report = verify_distortion(DistortedMetric(est), d, tau, psi)
        assert not report.ok
        assert report.violations == 1
        assert report.worst[:2] == (0, 1)

    def test_censored_short_entry_is_violation(self):
        d = self._true()
        est = d.copy()
        est[2, 3] = est[3, 2] = np.inf
        report = verify_distortion(DistortedMetric(est), d, tau=0.05, psi=2.0)
        assert report.violations >= 1

    def test_same_report_as_reference(self):
        tree = generate_random_regular(64, RegularityParams(0.1, 0.2, 1.2),
                                       seed=5)
        d = tree_metric(tree)
        tau, psi = 0.05, 1.5
        # short pairs at distance 1.0, to plant exactly tied errors on
        for a, b in ((0, 7), (1, 8), (2, 9), (3, 5), (4, 6)):
            d[a, b] = d[b, a] = 1.0
        cases = {
            "exact": d.copy(),
            "inside tau": _noisy(d, tau, psi, seed=1, spread=0.5),
            "violations": _noisy(d, tau, psi, seed=2, spread=3.0),
        }
        # short entries censored to inf: the worst error is inf, tied
        censored = _noisy(d, tau, psi, seed=3, spread=0.5)
        censored[2, 9] = censored[9, 2] = np.inf
        censored[0, 7] = censored[7, 0] = np.inf
        cases["censored"] = censored
        # two violations with the same error; the first in row order wins
        tied = d.copy()
        tied[3, 5] = tied[5, 3] = tied[1, 8] = tied[8, 1] = 1.5
        tied[4, 6] = tied[6, 4] = 1.25
        cases["tied"] = tied
        for name, est in cases.items():
            dhat = DistortedMetric(est)
            got = verify_distortion(dhat, d, tau, psi)
            assert got == _reference_verify_distortion(dhat, d, tau, psi), name
        assert verify_distortion(DistortedMetric(d), d, tau, psi).worst is None
        assert verify_distortion(DistortedMetric(tied), d, tau,
                                 psi).worst == (1, 8, 0.5)
        assert verify_distortion(DistortedMetric(censored), d, tau,
                                 psi).worst == (0, 7, np.inf)
        assert verify_distortion(DistortedMetric(cases["violations"]), d,
                                 tau, psi).violations > 10
        # a NaN error ranks as inf, so the censored (0, 7) still comes first
        nan_true = d.copy()
        nan_true[3, 5] = nan_true[5, 3] = np.nan
        dhat = DistortedMetric(censored)
        got = verify_distortion(dhat, nan_true, tau, psi)
        assert got == _reference_verify_distortion(dhat, nan_true, tau, psi)
        assert got.violations == 3 and got.worst == (0, 7, np.inf)

    def test_traced_peak(self):
        # in units of n^2 float64 beyond the two input matrices; at
        # spread=20 about 95% of the checked pairs violate, and no index
        # or gather of the violating pairs may add to the error matrix
        n = 512
        tree = generate_random_regular(n, RegularityParams(0.1, 0.2, 1.5),
                                       seed=0)
        d = tree_metric(tree)
        tau, psi = 0.01, 5 * 0.2 * math.log(n)
        for spread, bound in ((1.5, 2.0), (20.0, 1.4)):
            dhat = DistortedMetric(_noisy(d, tau, psi, seed=0, spread=spread))
            tracemalloc.start()
            try:
                report = verify_distortion(dhat, d, tau, psi)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.violations > 0
            assert peak / (8 * n * n) < bound, spread

    def test_bad_parameters_rejected(self):
        d = self._true()
        with pytest.raises(ValueError):
            verify_distortion(DistortedMetric(d), d, tau=0.0, psi=1.0)
        for tau, psi in ((np.nan, 1.0), (0.05, np.nan)):
            with pytest.raises(ValueError):
                verify_distortion(DistortedMetric(d), d, tau=tau, psi=psi)

    def test_bin_distance_estimate_is_valid_distortion(self):
        # a bin of common-rate sites turns -log(bin agreement) into a
        # valid (lam* f/5, 5 lam* g log n)-distortion of lam* d.  The
        # estimate's noise at the trust horizon scales like
        # exp(lam * horizon) / sqrt(bin size), so the property is checked
        # where that ratio is feasible: a small tree inside the horizon
        # and a large bin selected by the (oracle) hidden rate, which is
        # what the statistic's bins converge to on large trees.
        from rasphy import (RateDistribution, SubstitutionModel,
                            generate_complete_binary, simulate_alignment)
        f = g = 0.2
        tree = generate_complete_binary(3, g)  # n=8, diameter 1.2
        model = SubstitutionModel.uniform(4)
        rates = RateDistribution.two_speed(0.5, 1.5)
        metric = tree_metric(tree)
        lam_star = 0.5
        passes = 0
        for seed in range(5):
            aln = simulate_alignment(tree, model, rates, 150_000,
                                     seed=31 + seed)
            idx = np.flatnonzero(aln.hidden_lambdas == lam_star)
            dhat = distorted_metric(bin_agreement(aln, idx, model))
            report = verify_distortion(
                dhat, lam_star * metric,
                tau=lam_star * f / 5.0,
                psi=5.0 * lam_star * g * math.log(aln.n))
            passes += report.ok
        assert passes >= 4
