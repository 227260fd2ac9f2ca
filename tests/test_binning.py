import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rasphy import (NoAbundantBin, RateDistribution, RegularityParams,
                    SubstitutionModel, all_site_statistics, bin_sites,
                    derive_params, generate_random_regular, oracle_sparsify,
                    select_abundant, simulate_alignment)

REG = RegularityParams(0.1, 0.2, 1.2)


class TestDeriveParams:
    def test_reference_constants(self):
        # g=0.2, M=1.2, f=0.1: plug the defining formulas independently
        bp = derive_params(REG, n=128)
        assert bp.chi == pytest.approx(0.31606, abs=5e-6)
        assert bp.rate_lo == pytest.approx(1.0 / 6.0)
        assert bp.rate_hi == pytest.approx(2.0 / (1.0 - math.exp(-1.0)))
        assert bp.rate_hi == pytest.approx(3.1639, abs=1e-4)
        rate_hi = 2.0 / (1.0 - math.exp(-1.0))  # 3.16395...
        assert bp.u_lo == pytest.approx(math.exp(-1.2 * rate_hi), rel=1e-12)
        assert bp.u_hi == pytest.approx(math.exp(-1.0 / 30.0), rel=1e-12)
        assert 0.0 < bp.u_lo < bp.u_hi < 1.0
        assert 0.0 < bp.chi < 0.5

    def test_guard_inequalities_hold(self):
        for n in (8, 64, 1024):
            bp = derive_params(REG, n=n)
            assert bp.u_hi + 2 * bp.delta_u <= math.exp(-0.1 * bp.rate_lo)
            assert bp.u_lo - 2 * bp.delta_u >= math.exp(-2 * 1.2 * bp.rate_hi)

    def test_minimum_bin_count(self):
        # two guard bins plus at least one interior bin, always
        for n in (4, 16, 4096):
            assert derive_params(REG, n=n).num_bins >= 3

    def test_requested_gamma_u(self):
        bp_default = derive_params(REG, n=64)
        custom = derive_params(REG, n=64, gamma_u=bp_default.gamma_u / 4)
        assert custom.delta_u == pytest.approx(bp_default.delta_u / 4)
        with pytest.raises(ValueError, match="inequalities"):
            derive_params(REG, n=64, gamma_u=10.0 * bp_default.gamma_u)

    def test_three_leaves_rejected(self):
        with pytest.raises(ValueError) as exc:
            derive_params(REG, n=3)
        assert str(exc.value) == "n must be at least 4"

    def test_ceiling_covers_range(self):
        bp = derive_params(REG, n=100)
        assert bp.num_bins * bp.delta_u >= bp.u_hi - bp.u_lo + 2 * bp.delta_u


class TestBinSites:
    def test_out_of_bounds_to_bin_zero(self):
        bp = derive_params(REG, n=64)
        ba = bin_sites([bp.u_lo - 2 * bp.delta_u, bp.u_hi + bp.delta_u], bp)
        assert list(ba.sites(0)) == [0, 1]

    def test_left_edge_closed(self):
        bp = derive_params(REG, n=64)
        ba = bin_sites([bp.u_lo - bp.delta_u], bp)
        assert list(ba.sites(1)) == [0]

    def test_histogram_oracle(self):
        bp = derive_params(REG, n=64)
        rng = np.random.default_rng(1)
        u = rng.uniform(bp.u_lo - bp.delta_u, bp.u_hi + bp.delta_u, size=5000)
        ba = bin_sites(u, bp)
        lo = bp.u_lo - bp.delta_u
        edges = lo + bp.delta_u * np.arange(bp.num_bins + 1)
        oracle = np.array([((u >= edges[j]) & (u < edges[j + 1])).sum()
                           for j in range(bp.num_bins)])
        assert np.array_equal(ba.counts()[1:], oracle)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1,
                    max_size=300),
           st.integers(4, 2000))
    def test_partition_property(self, values, n):
        bp = derive_params(REG, n=n)
        ba = bin_sites(values, bp)
        together = np.concatenate([ba.sites(j)
                                   for j in range(bp.num_bins + 1)])
        assert sorted(together.tolist()) == list(range(len(values)))

    def test_same_bins_as_one_pass_per_bin(self):
        # the oracle is the former body: one full pass per bin
        def oracle(u, bp):
            lo = bp.u_lo - bp.delta_u
            hi = bp.u_hi + bp.delta_u
            idx = np.floor((u - lo) / bp.delta_u).astype(np.int64) + 1
            idx = np.clip(idx, 1, bp.num_bins)
            idx[(u < lo) | (u >= hi)] = 0
            return tuple(np.flatnonzero(idx == j)
                         for j in range(bp.num_bins + 1))

        bp = derive_params(REG, n=64)
        lo = bp.u_lo - bp.delta_u
        edges = lo + bp.delta_u * np.arange(bp.num_bins + 1)
        rng = np.random.default_rng(7)
        for size in (1, 50, 5000):
            # bin edges, out-of-range values, and a middle stretch of
            # interior bins that stays empty
            u = np.concatenate([
                rng.choice(edges, size),
                rng.uniform(lo - 0.5, lo, size),
                rng.uniform(edges[-1], 1.5, size),
                rng.uniform(edges[0], edges[2], size),
                rng.uniform(edges[-3], edges[-1], size)])
            rng.shuffle(u)
            want = oracle(u, bp)
            ba = bin_sites(u, bp)
            got = tuple(ba.sites(j) for j in range(bp.num_bins + 1))
            assert len(got) == len(want)
            assert any(len(b) == 0 for b in want)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                assert np.array_equal(g, w)

    def test_nonfinite_rejected(self):
        bp = derive_params(REG, n=64)
        with pytest.raises(ValueError, match="finite"):
            bin_sites([0.5, np.nan], bp)

    def test_memory_linear_in_sites_and_bins(self):
        # at (f, g, M) = (0.1, 0.5, 4.5) and n=32 there are 70 894 narrow
        # bins, most of them empty: the working memory may grow with the
        # sites and by one count per bin, but not by an array per bin
        bp = derive_params(RegularityParams(0.1, 0.5, 4.5), n=32)
        assert bp.num_bins == 70_894
        k = 20_000
        u = np.random.default_rng(11).uniform(
            bp.u_lo - 2 * bp.delta_u, bp.u_hi + 2 * bp.delta_u, size=k)
        tracemalloc.start()
        try:
            counts = bin_sites(u, bp).counts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == k
        assert peak <= 4 * 8 * k + 8 * (bp.num_bins + 1)


class TestSelectAbundant:
    def test_single_loaded_bin_selected(self):
        bp = derive_params(REG, n=64)
        mid = bp.u_lo + (bp.u_hi - bp.u_lo) / 2
        ba = bin_sites(np.full(1000, mid), bp)
        j = select_abundant(ba, k=1000)
        assert len(ba.sites(j)) == 1000

    def test_all_out_of_range_fails(self):
        bp = derive_params(REG, n=64)
        ba = bin_sites(np.full(1000, bp.u_hi + 2 * bp.delta_u), bp)
        with pytest.raises(NoAbundantBin, match="increase"):
            select_abundant(ba, k=1000)

    def test_largest_bin_wins_low_index_ties(self):
        bp = derive_params(REG, n=64)
        lo = bp.u_lo - bp.delta_u
        # bins 1 and 2 equally loaded, bin 3 lighter
        u = np.concatenate([
            np.full(40, lo + 0.5 * bp.delta_u),
            np.full(40, lo + 1.5 * bp.delta_u),
            np.full(10, lo + 2.5 * bp.delta_u),
        ])
        ba = bin_sites(u, bp)
        assert select_abundant(ba, k=len(u)) == 1


class TestOracleModeProperties:
    def _instance(self, seed, n=64, k=4000, rates=None):
        rates = rates or RateDistribution.gamma(4.0)
        model = SubstitutionModel.uniform(4)
        reg = RegularityParams(0.1, 0.2, 1.5)
        tree = generate_random_regular(n, reg, seed=seed)
        pairs = oracle_sparsify(tree, reg, m=1.0)
        aln = simulate_alignment(tree, model, rates, k, seed=seed + 500)
        u = all_site_statistics(aln, pairs, model)
        return reg, aln, u

    def test_scaling_factor_bounds_in_range_bins(self):
        # binned sites carry rates inside [f g / M^2, 2M / (f (1 - e^-5g))]
        violations = 0
        total = 0
        for seed in range(5):
            reg, aln, u = self._instance(seed)
            bp = derive_params(reg, aln.n)
            ba = bin_sites(u, bp)
            idx = np.flatnonzero(ba.site_bin)
            total += len(idx)
            lam = aln.hidden_lambdas[idx]
            lo = reg.min_edge * reg.max_edge / reg.distance_cap ** 2
            hi = 2 * reg.distance_cap / (reg.min_edge
                                         * (1 - math.exp(-5 * reg.max_edge)))
            violations += int(((lam < lo) | (lam > hi)).sum())
        assert total > 0
        assert violations < 0.01 * total

    def test_halving_gamma_u_never_widens_rate_spread(self):
        # statistical check over 20 seeds: majority must satisfy it
        wins = 0
        for seed in range(20):
            reg, aln, u = self._instance(seed, n=64, k=2000)
            spreads = []
            for divisor in (1.0, 2.0):
                bp_full = derive_params(reg, aln.n)
                bp = derive_params(reg, aln.n, gamma_u=bp_full.gamma_u / divisor)
                ba = bin_sites(u, bp)
                worst = 0.0
                for j in range(1, bp.num_bins + 1):
                    idx = ba.sites(j)
                    if len(idx) >= 2:
                        lam = aln.hidden_lambdas[idx]
                        worst = max(worst, float(lam.max() - lam.min()))
                spreads.append(worst)
            if spreads[1] <= spreads[0]:
                wins += 1
        assert wins >= 11

    def test_abundant_bin_exists_at_scale(self, jc, two_speed):
        # an abundant bin exists in at least 95% of 40 seeded runs
        reg = RegularityParams(0.1, 0.2, 1.5)
        bp = derive_params(reg, 256)
        hits = 0
        for seed in range(40):
            tree = generate_random_regular(256, reg, seed=seed)
            aln = simulate_alignment(tree, jc, two_speed, 20_000,
                                     seed=seed + 40)
            pairs = oracle_sparsify(tree, reg, m=1.0)
            u = all_site_statistics(aln, pairs, jc)
            try:
                j = select_abundant(bin_sites(u, bp), k=20_000)
            except Exception:
                continue
            hits += j >= 1
        assert hits >= 38
