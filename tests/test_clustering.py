import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rasphy import (Alignment, ClusteringThresholds, EmptyPairSet, PairSet,
                    RateDistribution, RegularityParams, SubstitutionModel,
                    agreement_matrix, all_site_statistics, bin_agreement,
                    certify_sparsity,
                    close_pairs,
                    expected_statistic_curve, full_sum_statistics,
                    generate_complete_binary,
                    generate_random_regular, invert_statistic_curve,
                    oracle_sparsify, paths_disjoint, simulate_alignment,
                    sparsify, sparsity_constant,
                    tree_metric)
from rasphy.clustering import CHUNK_BYTES


def thresholds(g=0.2):
    return ClusteringThresholds.for_max_edge(g)


class TestThresholds:
    def test_levels_and_gap(self):
        t = thresholds(0.2)
        assert t.close_level == pytest.approx(math.exp(-0.9))
        assert t.prune_level == pytest.approx(math.exp(-1.1))
        assert t.prune_level < t.close_level

    def test_nonpositive_max_edge_rejected(self):
        with pytest.raises(ValueError) as exc:
            ClusteringThresholds.for_max_edge(0.0)
        assert str(exc.value) == "max edge weight must be positive"

    @pytest.mark.parametrize("close_level, prune_level", [
        (0.3, 0.5), (0.5, 0.5), (math.nan, 0.5)])
    def test_unordered_levels_rejected(self, close_level, prune_level):
        # a directly built object comes from outside the program
        with pytest.raises(ValueError) as exc:
            ClusteringThresholds(close_level=close_level,
                                 prune_level=prune_level)
        assert str(exc.value) == "thresholds must be ordered prune < close"


class TestAgreementMatrix:
    def test_perfect_agreement_is_one(self, cfn):
        data = np.zeros((50, 3), dtype=np.uint8)
        q = agreement_matrix(Alignment(data, r=2), cfn)
        assert np.allclose(q, 1.0)

    def test_independent_leaves_center_near_zero(self, jc):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 4, size=(200_000, 2)).astype(np.uint8)
        q = agreement_matrix(Alignment(data, r=4), jc)
        assert abs(q[0, 1]) < 4 * (4 / 3) * math.sqrt(0.25 * 0.75 / 200_000)

    def test_binomial_oracle_at_distance(self, cfn):
        tree = generate_complete_binary(3, 0.3)
        aln = simulate_alignment(tree, cfn, RateDistribution.constant(),
                                 100_000, seed=3)
        q = agreement_matrix(aln, cfn)
        d = tree_metric(tree)
        for a, b in ((0, 1), (0, 4), (2, 7)):
            p = 0.5 + 0.5 * math.exp(-d[a, b])
            sigma = 2.0 * math.sqrt(p * (1 - p) / aln.k)
            assert abs(q[a, b] - math.exp(-d[a, b])) < 4 * sigma

    def test_entries_in_normalized_range(self, jc, reg_01_02, two_speed):
        tree = generate_random_regular(16, reg_01_02, seed=1)
        aln = simulate_alignment(tree, jc, two_speed, 500, seed=2)
        q = agreement_matrix(aln, jc)
        lo = -jc.q_inf / jc.p_inf
        assert np.all(q >= lo - 1e-12)
        assert np.all(q <= 1.0 + 1e-12)
        assert np.all(np.diag(q) == 1.0)

    def test_memory_bounded_at_large_k(self, jc):
        # a k x n float64 one-hot would take 195 MiB here
        rng = np.random.default_rng(0)
        aln = Alignment(rng.integers(0, 4, size=(100_000, 256))
                        .astype(np.uint8), r=4)
        tracemalloc.start()
        try:
            agreement_matrix(aln, jc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_no_float32_partial_at_large_n(self, jc):
        # at n=2048 one chunk holds 2048 sites; besides its float32 block
        # the kernel may hold only the float64 counts and one float32
        # product, 1.5 units of n*n*8 bytes
        n = 2048
        rng = np.random.default_rng(0)
        aln = Alignment(rng.integers(0, 4, size=(n, n)).astype(np.uint8),
                        r=4)
        tracemalloc.start()
        try:
            agreement_matrix(aln, jc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_BYTES + 1.6 * 8 * n * n

    def test_block_capped_in_sites_below_n_512(self, jc):
        # at n=128 the byte bound alone would hold all 20 000 sites in one
        # 10 MB float32 block; the site cap holds it to 4096 sites, 2 MiB.
        # Besides it the kernel holds the float64 counts, one float32
        # product (1.5 units of n*n*8 bytes) and the 64 KiB buffer numpy
        # casts the product to float64 through, whatever n is
        n, k = 128, 20_000
        rng = np.random.default_rng(0)
        aln = Alignment(rng.integers(0, 4, size=(k, n)).astype(np.uint8),
                        r=4)
        tracemalloc.start()
        try:
            agreement_matrix(aln, jc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * n * 4 + 1.6 * 8 * n * n + 2**16


def _reference_agreement(data, r):
    """The agreement matrix from float64 one-hot products over all sites."""
    k, n = data.shape
    counts = np.zeros((n, n))
    for x in range(r):
        hot = (data == x).astype(np.float64)
        counts += hot.T @ hot
    model = SubstitutionModel.uniform(r)
    want = (counts / k - model.q_inf) / model.p_inf
    np.fill_diagonal(want, 1.0)
    return want


@pytest.mark.parametrize("n, r, k", [
    (300, 2, 8193), (300, 3, 8193), (300, 4, 8193), (300, 8, 8193),
    (300, 16, 8193), (300, 2, 13_982), (300, 3, 13_982), (300, 4, 13_982),
    (300, 8, 13_982), (300, 16, 13_982), (7, 20, 5), (300, 32, 8193),
    (300, 33, 8193)])
def test_counts_equal_float64_one_hot_reference(n, r, k):
    # at n=300 a site chunk holds 4096 sites, with sign planes (r = 2, 4,
    # 8, 16, 32) as with one-hot planes (r = 3, 33): k = 8193 fills two
    # chunks and puts one site in a third, and k = 13 982 ends in a
    # part-filled fourth; r = 32 reads the top half of the parity bits,
    # and r = 33 is the first alphabet past the sign planes
    rng = np.random.default_rng(n)
    data = rng.integers(0, r, size=(k, n)).astype(np.uint8)
    got = agreement_matrix(Alignment(data, r=r), SubstitutionModel.uniform(r))
    assert np.array_equal(got, _reference_agreement(data, r))


def test_gathered_counts_equal_float64_one_hot_reference():
    # bin_agreement gathers each chunk's rows; 8193 of every second site
    # fill two chunks of 4096 sites and put one site in a third
    n, r = 128, 4
    rng = np.random.default_rng(n)
    data = rng.integers(0, r, size=(2 * 8193, n)).astype(np.uint8)
    sites = np.arange(0, len(data), 2)
    got = bin_agreement(Alignment(data, r=r), sites,
                        SubstitutionModel.uniform(r))
    assert np.array_equal(got, _reference_agreement(data[sites], r))


def test_sign_partial_stays_below_2_24():
    # r = 16 takes 15 sign products per chunk.  Over k = 1 398 101 sites
    # the equal pair (0, 1) sums to 15 * 1 398 101 > 2**24 over all the
    # products, an odd number float32 cannot hold.  A chunk holds at most
    # 4096 sites, and each product adds straight into the float64 total,
    # so no float32 value exceeds 4096; a float32 total kept across
    # chunks or planes would have to be folded before it passed 2**24
    k, r = 1_398_101, 16
    rng = np.random.default_rng(3)
    data = rng.integers(0, r, size=(k, 3)).astype(np.uint8)
    data[:, 1] = data[:, 0]
    got = agreement_matrix(Alignment(data, r=r), SubstitutionModel.uniform(r))
    assert np.array_equal(got, _reference_agreement(data, r))


def _digest(q):
    """sha256 of the little-endian float64 bytes of an agreement matrix."""
    return hashlib.sha256(q.astype("<f8").tobytes()).hexdigest()


def _pairs_digest(pairs):
    """sha256 of a pair set's pairs as little-endian int64, in order."""
    return hashlib.sha256(np.array(pairs.pairs, dtype="<i8").tobytes()
                          ).hexdigest()


class TestAgreementGolden:
    # a site chunk of the counting kernel holds 4096 sites, so
    # k = 2**20 + 1 fills 256 chunks and puts one site in a 257th
    @pytest.mark.parametrize("r, k, digest", [
        (2, 1, "264d51aa8691c450cca04217821a82b3f95a653abe88f849f46da0499d77cd4b"),
        (4, 1, "74bb001660323f9cedb40769dadef706493a84b8fa00dd9dd99c29e10ccd0753"),
        (20, 1, "c5d34778205593c205353ce34b7baa184f8e7d76548e019bb4e65825624ad272"),
        (2, 2**20 + 1, "bf61d01c95deb6e3cb9412ba9b90a93abf431946800ce8a14c5b6f46082bd04e"),
        (4, 2**20 + 1, "42c6a54824797ab892d573818d886615e00b17e7edfa5e9b676184bc55f4b282"),
        (20, 2**20 + 1, "792ae5732bcc0b40d47a88b55fa1b320b3846716aadce3ffadfb5d46cce40769"),
    ])
    def test_digest(self, r, k, digest):
        rng = np.random.default_rng(r)
        data = rng.integers(0, r, size=(k, 4)).astype(np.uint8)
        q = agreement_matrix(Alignment(data, r=r),
                             SubstitutionModel.uniform(r))
        assert _digest(q) == digest

    def test_digest_simulated(self, jc, reg_01_02, two_speed):
        tree = generate_random_regular(37, reg_01_02, seed=5)
        aln = simulate_alignment(tree, jc, two_speed, 3001, seed=6)
        assert _digest(agreement_matrix(aln, jc)) == (
            "a306f49ca19c0b582c71b52cbc5b0d393262d49710f1ed0f3147e65dedbc1176")


class TestClosePairs:
    def test_boundary_closed(self):
        t = thresholds()
        vals = np.eye(3)
        vals[0, 1] = vals[1, 0] = t.close_level  # exactly on the threshold
        vals[0, 2] = vals[2, 0] = t.close_level - 1e-9
        vals[1, 2] = vals[2, 1] = 0.0
        np.fill_diagonal(vals, 1.0)
        got = close_pairs(vals, t)
        assert got.pairs == ((0, 1),)

    def test_exact_phi_below_4g_included(self):
        # constant rate: phi(d) = e^-d >= e^-4g > close_level for d <= 4g
        g = 0.2
        t = thresholds(g)
        tree = generate_complete_binary(3, g)
        d = tree_metric(tree)
        vals = np.exp(-d)
        np.fill_diagonal(vals, 1.0)
        got = close_pairs(vals, t)
        for a in range(8):
            for b in range(a + 1, 8):
                if d[a, b] <= 4 * g:
                    assert (a, b) in got.pairs

    def test_exact_phi_beyond_mid_scale_excluded(self, two_speed):
        g = 0.2
        t = thresholds(g)
        m = two_speed.phi_inverse(math.exp(-5.0 * g))
        dists = np.array([m + 0.05, m + 0.3, m + 1.0])
        vals = np.eye(4)
        for j, dist in enumerate(dists, start=1):
            vals[0, j] = vals[j, 0] = two_speed.phi(dist)
        got = close_pairs(vals, t)
        assert got.pairs == ()


class TestSparsify:
    def test_mutually_far_pairs_all_kept(self):
        t = thresholds()
        vals = np.full((6, 6), 0.01)
        np.fill_diagonal(vals, 1.0)
        for a, b in ((0, 1), (2, 3), (4, 5)):
            vals[a, b] = vals[b, a] = 0.9
        cand = PairSet(((0, 1), (2, 3), (4, 5)))
        got = sparsify(cand, vals, t)
        assert set(got.pairs) == {(0, 1), (2, 3), (4, 5)}

    def test_overlapping_pairs_one_survives(self):
        t = thresholds()
        vals = np.full((3, 3), 0.02)
        np.fill_diagonal(vals, 1.0)
        vals[0, 1] = vals[1, 0] = 0.9
        vals[1, 2] = vals[2, 1] = 0.8
        got = sparsify(PairSet(((0, 1), (1, 2))), vals, t)
        assert got.pairs == ((0, 1),)  # higher agreement wins the pick

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sparsify(PairSet(()), np.eye(2), thresholds())

    # sha256 of the kept pairs as little-endian int64, on the agreement of
    # k=2000 simulated sites: noisy enough for thousands of candidates
    @pytest.mark.parametrize("n, digest", [
        (512, "589fbf3dda16cbef38d230759d286a7f0872b3d2c51a9a8679b6567f084c1fca"),
        (2048, "169e77ba52e9bd3fe6923e7ed1c5c83b0d248ed520b953f8969244e5d4d821ce"),
    ])
    def test_kept_pairs_pinned(self, jc, two_speed, reg_01_02, n, digest):
        tree = generate_random_regular(n, reg_01_02, seed=5)
        aln = simulate_alignment(tree, jc, two_speed, 2000, seed=5)
        t = thresholds(0.2)
        q = agreement_matrix(aln, jc)
        got = sparsify(close_pairs(q, t), q, t)
        assert _pairs_digest(got) == digest

    def test_simulated_output_passes_certificate(self, jc, two_speed):
        params = RegularityParams(0.2, 0.2, 1.5)
        tree = generate_complete_binary(8, 0.2)
        aln = simulate_alignment(tree, jc, two_speed, 100_000, seed=11)
        t = thresholds(0.2)
        q = agreement_matrix(aln, jc)
        got = sparsify(close_pairs(q, t), q, t)
        cert = certify_sparsity(got, tree, params)
        assert cert.ok, cert.detail


class TestOracleSparsify:
    def test_complete_binary_all_three_properties(self, two_speed):
        params = RegularityParams(0.2, 0.2, 1.5)
        m = two_speed.phi_inverse(math.exp(-5 * 0.2))
        tree = generate_complete_binary(4, 0.2)
        got = oracle_sparsify(tree, params, m)
        cert = certify_sparsity(got, tree, params)
        assert cert.ok, cert.detail
        assert len(got) >= sparsity_constant(params) * 16
        # exhaustive cross-checks of the certificate itself
        d = tree_metric(tree)
        for p1, p2 in itertools.combinations(got.pairs, 2):
            assert paths_disjoint(tree, p1, p2)
        for a, b in got:
            assert 2 * params.min_edge <= d[a, b] <= params.distance_cap

    def test_caterpillar(self):
        text = "(a:0.1,(b:0.12,(c:0.15,(d:0.1,(e:0.2,(f:0.1,(g:0.15,h:0.1)" \
               ":0.12):0.1):0.14):0.1):0.13):0.1);"
        from rasphy import parse_newick
        cat = parse_newick(text)
        params = RegularityParams(0.1, 0.2, 1.2)
        got = oracle_sparsify(cat, params, m=1.0)
        assert len(got) >= 1
        cert = certify_sparsity(got, cat, params)
        assert cert.path_disjoint and cert.distance_ok

    def test_given_metric_gives_same_certificate(self, reg_01_02):
        tree = generate_random_regular(48, reg_01_02, seed=4)
        d = tree_metric(tree)
        far = np.unravel_index(np.argmax(d), d.shape)
        good = oracle_sparsify(tree, reg_01_02, m=1.0)
        for pairs in (good, PairSet(((0, 1), (0, 2))),  # paths share an edge
                      PairSet((far,))):  # beyond the distance cap
            want = certify_sparsity(pairs, tree, reg_01_02)
            assert certify_sparsity(pairs, tree, reg_01_02, dist=d) == want
        assert want.detail.startswith("1 pairs outside")

    def test_kept_pairs_pinned(self, reg_01_02):
        tree = generate_random_regular(512, reg_01_02, seed=5)
        got = oracle_sparsify(tree, reg_01_02, m=1.0)
        assert _pairs_digest(got) == (
            "f5efed1d9f9ff0065051a2c6766fbed436ce49eaec62819e66a40f275b50a2ab")

    def test_parameter_ordering_enforced(self, quartet):
        params = RegularityParams(1.0, 1.0, 6.0)
        with pytest.raises(ValueError, match="4g < m < M"):
            oracle_sparsify(quartet, params, m=3.9)
        with pytest.raises(ValueError, match="4g < m < M"):
            oracle_sparsify(quartet, params, m=6.0)

    def test_distances_within_bounds_many_trees(self, reg_01_02):
        for seed in range(10):
            tree = generate_random_regular(48, reg_01_02, seed=seed)
            got = oracle_sparsify(tree, reg_01_02, m=1.0)
            d = tree_metric(tree)
            for a, b in got:
                assert 2 * 0.1 <= d[a, b] <= 1.5


def site_statistic(aln: Alignment, pairs: PairSet, i: int,
                   model: SubstitutionModel) -> float:
    """Oracle of :func:`all_site_statistics` at site ``i``: the average
    normalized agreement over the pair set, one pair at a time.

    Conditioned on the site's scaling factor ``lam`` its mean is the
    pair average of ``exp(-lam * d(a, b))``, strictly decreasing in
    ``lam``.
    """
    row = aln.data[i]
    agree = np.fromiter((row[a] == row[b] for a, b in pairs),
                        dtype=np.float64, count=len(pairs)).mean()
    return float((agree - model.q_inf) / model.p_inf)


class TestSiteStatistic:
    def test_all_agreeing_site_is_one(self, jc):
        data = np.zeros((3, 6), dtype=np.uint8)
        aln = Alignment(data, r=4)
        pairs = PairSet(((0, 1), (2, 3), (4, 5)))
        assert all_site_statistics(aln, pairs, jc) == pytest.approx(1.0)
        assert site_statistic(aln, pairs, 0, jc) == pytest.approx(1.0)

    def test_stationary_site_centers_at_zero(self, jc):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 4, size=(4000, 8)).astype(np.uint8)
        aln = Alignment(data, r=4)
        pairs = PairSet(((0, 1), (2, 3), (4, 5), (6, 7)))
        u = all_site_statistics(aln, pairs, jc)
        assert abs(u.mean()) < 0.05

    def test_matches_scalar_path(self, jc, two_speed, reg_01_02):
        tree = generate_random_regular(12, reg_01_02, seed=3)
        aln = simulate_alignment(tree, jc, two_speed, 50, seed=4)
        pairs = oracle_sparsify(tree, reg_01_02, m=1.0)
        u = all_site_statistics(aln, pairs, jc)
        for i in (0, 17, 49):
            assert site_statistic(aln, pairs, i, jc) == pytest.approx(u[i])

    def test_two_speed_separation_complete_tree(self, jc):
        # oracle pair set on a large tree: per-site speeds explain the
        # statistic; midpoint thresholding misclassifies < 1% of sites
        rates = RateDistribution.two_speed(0.5, 1.5)
        params = RegularityParams(0.2, 0.2, 1.5)
        m = rates.phi_inverse(math.exp(-1.0))
        tree = generate_complete_binary(10, 0.2)
        pairs = oracle_sparsify(tree, params, m)
        aln = simulate_alignment(tree, jc, rates, 2000, seed=6)
        u = all_site_statistics(aln, pairs, jc)
        curve = dict(expected_statistic_curve(tree, pairs, [0.5, 1.5]))
        cut = 0.5 * (curve[0.5] + curve[1.5])
        predicted_slow = u >= cut
        truly_slow = aln.hidden_lambdas < 1.0
        assert (predicted_slow != truly_slow).mean() < 0.01


class TestExpectedCurve:
    def test_at_zero_is_one(self, five_leaf):
        pairs = PairSet(((0, 1), (2, 3)))
        curve = expected_statistic_curve(five_leaf, pairs, [0.0])
        assert curve[0][1] == pytest.approx(1.0)

    def test_strictly_decreasing_and_vanishing(self, five_leaf):
        pairs = PairSet(((0, 1), (2, 3)))
        grid = np.linspace(0.0, 40.0, 200)
        vals = [u for _, u in expected_statistic_curve(five_leaf, pairs, grid)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4

    def test_inversion_round_trip(self):
        tree = generate_complete_binary(4, 0.2)
        params = RegularityParams(0.2, 0.2, 1.5)
        pairs = oracle_sparsify(tree, params, m=1.05)
        for lam in (0.3, 1.0, 2.7):
            u = dict(expected_statistic_curve(tree, pairs, [lam]))[lam]
            assert invert_statistic_curve(tree, pairs, u) == pytest.approx(
                lam, abs=1e-9)
        assert invert_statistic_curve(tree, pairs, 1.0) == 0.0
        with pytest.raises(ValueError):
            invert_statistic_curve(tree, pairs, 1.5)
        with pytest.raises(EmptyPairSet):
            invert_statistic_curve(tree, PairSet(()), 0.5)

    def test_separation_lower_bound(self, reg_01_02):
        # U(lam') - U(lam) >= exp(-lam M) (exp(2 f beta) - 1) for lam-lam'=beta
        rng = np.random.default_rng(7)
        for seed in range(5):
            tree = generate_random_regular(32, reg_01_02, seed=seed)
            pairs = oracle_sparsify(tree, reg_01_02, m=1.0)
            lam_lo = rng.uniform(0.1, 1.5)
            beta = rng.uniform(0.0, 1.0)
            lam_hi = lam_lo + beta
            curve = dict(expected_statistic_curve(tree, pairs,
                                                  [lam_lo, lam_hi]))
            bound = math.exp(-lam_hi * reg_01_02.distance_cap) * \
                (math.exp(2 * reg_01_02.min_edge * beta) - 1.0)
            assert curve[lam_lo] - curve[lam_hi] >= bound - 1e-12


class TestFullSum:
    def test_two_leaves_reduces_to_single_pair(self, cfn):
        data = np.array([[0, 0], [0, 1]], dtype=np.uint8)
        aln = Alignment(data, r=2)
        assert full_sum_statistics(aln, cfn)[0] == pytest.approx(1.0)
        assert full_sum_statistics(aln, cfn)[1] == pytest.approx(-1.0)

    def test_equals_spin_sum_form(self, cfn):
        # for r=2 the normalized-indicator sum equals sum of sigma_a sigma_b
        rng = np.random.default_rng(8)
        data = rng.integers(0, 2, size=(100, 16)).astype(np.uint8)
        aln = Alignment(data, r=2)
        spins = 1.0 - 2.0 * data.astype(float)
        s = spins.sum(axis=1)
        want = (s * s - 16) / 2.0
        got = full_sum_statistics(aln, cfn)
        assert np.allclose(got, want)

    def test_mean_matches_recursion_formula(self, cfn):
        # small complete tree, moderate sites: 4 sigma band around the
        # closed-form mean of the all-pairs statistic
        h, mu = 5, 0.9486
        gamma = 2.0 * math.exp(-2.0 * mu)
        tree = generate_complete_binary(h, mu)
        aln = simulate_alignment(tree, cfn, RateDistribution.constant(),
                                 60_000, seed=9)
        u = full_sum_statistics(aln, cfn)
        want = gamma * 2 ** (h - 2) * (gamma ** h - 1) / (gamma - 1)
        se = u.std(ddof=1) / math.sqrt(len(u))
        assert abs(u.mean() - want) < 4 * se


class TestStatisticTheory:
    def test_independence_factorization(self, six_leaf_cherries, cfn):
        from rasphy import exact_leaf_distribution
        rates = RateDistribution.constant()
        exact = exact_leaf_distribution(six_leaf_cherries, cfn, rates)
        pairs = [(0, 1), (2, 3), (4, 5)]
        configs = np.array(list(itertools.product(range(2), repeat=6)))
        probs = exact.reshape(-1)
        agree = {p: configs[:, p[0]] == configs[:, p[1]] for p in pairs}
        for outcome in itertools.product([False, True], repeat=3):
            mask = np.ones(len(configs), dtype=bool)
            prod = 1.0
            for p, want in zip(pairs, outcome):
                mask &= agree[p] == want
                prod *= probs[agree[p] == want].sum()
            assert abs(probs[mask].sum() - prod) < 1e-10

    def test_size_bound_sample(self, reg_01_02):
        # |pairs within 4g| >= n / 4 (full 100-tree sweep in acceptance)
        g = reg_01_02.max_edge
        for seed, n in ((0, 32), (1, 100), (2, 320)):
            tree = generate_random_regular(n, reg_01_02, seed=seed)
            d = tree_metric(tree)
            iu = np.triu_indices(n, k=1)
            assert (d[iu] <= 4 * g).sum() >= n / 4

    def test_concentration_medians_shrink_with_n(self, jc):
        # |U_i - conditional mean| medians strictly decreasing in n
        rates = RateDistribution.constant()
        params = RegularityParams(0.2, 0.2, 1.5)
        medians = []
        for h in (6, 8, 10):
            tree = generate_complete_binary(h, 0.2)
            pairs = oracle_sparsify(tree, params, m=1.05)
            aln = simulate_alignment(tree, jc, rates, 400, seed=h)
            u = all_site_statistics(aln, pairs, jc)
            target = dict(expected_statistic_curve(tree, pairs, [1.0]))[1.0]
            medians.append(float(np.median(np.abs(u - target))))
        assert medians[0] > medians[1] > medians[2]


class TestPairSetValidation:
    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            PairSet(((1, 1),))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PairSet(((1, 2), (2, 1)))


@pytest.mark.parametrize("call", [
    agreement_matrix,
    lambda aln, model: bin_agreement(aln, [0, 2], model),
    lambda aln, model: all_site_statistics(aln, PairSet(((0, 1),)), model),
    full_sum_statistics,
], ids=["agreement_matrix", "bin_agreement", "all_site_statistics",
        "full_sum_statistics"])
def test_model_alphabet_must_match_alignment(call):
    # row 0 of the r=4 agreement is [1, 0.556, -0.333]; normalised by the
    # q_inf of r=2 it would read [1, 0.333, -1]
    data = np.array([[0, 0, 3], [1, 2, 3], [2, 2, 1]], dtype=np.uint8)
    with pytest.raises(ValueError) as exc:
        call(Alignment(data, r=4), SubstitutionModel.uniform(2))
    assert str(exc.value) == "the model has r=2 but the alignment has r=4"
