import errno
import hashlib
import itertools
import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from rasphy import (Alignment, DistortedMetric, PairSet, RateDistribution,
                    RegularityParams, SubstitutionModel, Topology,
                    agreement_matrix, all_site_statistics, bin_agreement,
                    bin_sites, check_assumption, derive_params,
                    distorted_metric, exact_leaf_distribution,
                    four_point_topology, generate_random_regular,
                    invert_decreasing, parse_newick, simulate_alignment,
                    site_classification_report, transition_matrix,
                    tree_metric, verify_distortion)
from rasphy import io as rio
from rasphy import models

LN2 = math.log(2.0)


class TestSubstitutionModel:
    @pytest.mark.parametrize("pi", [(0.0, 1.0), (0.3, 0.3),
                                    (np.nan, np.nan), (0.5, np.nan)])
    def test_bad_pi_rejected(self, pi):
        with pytest.raises(ValueError, match="positive and sum to 1"):
            SubstitutionModel(2, pi)


class TestTransitionMatrix:
    def test_zero_weight_is_identity(self, jc):
        assert np.allclose(transition_matrix(0.0, jc), np.eye(4))

    def test_large_weight_reaches_stationary(self, jc):
        m = transition_matrix(50.0, jc)
        assert np.allclose(m, np.full((4, 4), 0.25), atol=1e-12)

    def test_two_state_ln2(self, cfn):
        m = transition_matrix(LN2, cfn)
        assert np.allclose(np.diag(m), 0.75)
        assert m[0, 1] == pytest.approx(0.25)

    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.2, 1.2, 50.0])
    def test_rows_sum_to_one(self, mu):
        model = SubstitutionModel(3, pi=(0.5, 0.3, 0.2))
        m = transition_matrix(mu, model)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(m >= 0.0)

    def test_negative_weight_rejected(self, cfn):
        with pytest.raises(ValueError):
            transition_matrix(-0.1, cfn)


class TestRateDistribution:
    def test_phi_at_zero_is_one(self):
        for rates in (RateDistribution.constant(),
                      RateDistribution.two_speed(0.5, 1.5),
                      RateDistribution.gamma(2.0),
                      RateDistribution.lognormal(0.5)):
            assert rates.phi(0.0) == 1.0

    def test_constant_matches_jensen_equality(self):
        # the mean-1 convention turns the Jensen lower bound into equality
        g = 0.2
        rates = RateDistribution.constant()
        assert rates.phi(5 * g) == pytest.approx(math.exp(-5 * g), rel=1e-14)

    def test_gamma_closed_form(self):
        rates = RateDistribution.gamma(2.0)
        assert rates.phi(2.0) == pytest.approx(0.25)

    def test_discrete_rescaled_to_mean_one(self):
        rates = RateDistribution.two_speed(1.0, 3.0)
        assert np.allclose(rates.support, [0.5, 1.5])
        assert rates.support @ rates.probs == pytest.approx(1.0)

    def test_atom_at_zero_rejected(self):
        with pytest.raises(ValueError, match="atom at 0"):
            RateDistribution.discrete([0.0, 2.0], [0.5, 0.5])

    def test_phi_strictly_decreasing_all_kinds(self):
        grid = np.linspace(0.0, 8.0, 100)
        for rates in (RateDistribution.constant(),
                      RateDistribution.two_speed(0.5, 1.5),
                      RateDistribution.gamma(2.0),
                      RateDistribution.lognormal(0.7)):
            vals = [rates.phi(s) for s in grid]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_lognormal_phi_against_quadrature_oracle(self):
        # independent check: Gauss-Hermite quadrature of the same integral
        from numpy.polynomial.hermite_e import hermegauss
        nodes, weights = hermegauss(201)
        sigma = 0.6
        rates = RateDistribution.lognormal(sigma)
        for s in (0.3, 1.0, 2.5):
            lam = np.exp(-0.5 * sigma**2 + sigma * nodes)
            oracle = float((weights * np.exp(-s * lam)).sum()
                           / math.sqrt(2 * math.pi))
            assert rates.phi(s) == pytest.approx(oracle, rel=1e-9)

    def test_lognormal_phi_golden_bits(self):
        # exact bits of the adaptive quadrature and of the bisection on it,
        # so moving or changing the quadrature cannot shift a result
        rates = RateDistribution.lognormal(0.6)
        for s, want in ((0.05, "0x1.e7497ad61569ap-1"),
                        (0.5, "0x1.44921c99e7365p-1"),
                        (2.0, "0x1.c1dcd1b2f10c7p-3"),
                        (12.5, "0x1.03f243da07d60p-8")):
            assert rates.phi(s).hex() == want
        for y, want in ((0.95, "0x1.a8d9ac41f0000p-5"),
                        (0.5, "0x1.96f1c48a85000p-1"),
                        (0.02, "0x1.d0aaccc791200p+2")):
            assert rates.phi_inverse(y).hex() == want

    def test_phi_inverse_identity_at_one(self):
        assert RateDistribution.gamma(3.0).phi_inverse(1.0) == 0.0

    def test_phi_inverse_constant_is_log(self):
        g = 0.2
        rates = RateDistribution.constant()
        assert rates.phi_inverse(math.exp(-5 * g)) == pytest.approx(
            5 * g, abs=1e-10)

    def test_phi_inverse_gamma_against_closed_form(self):
        # (1 + s/4)^-4 = 1/2  <=>  s = 4 (2^(1/4) - 1)
        rates = RateDistribution.gamma(4.0)
        want = 4.0 * (2.0 ** 0.25 - 1.0)
        assert rates.phi_inverse(0.5) == pytest.approx(want, abs=1e-10)

    def test_phi_inverse_far_root_returns(self):
        # (1 + 10 s)^-0.1 = e^-1.2  <=>  s = (e^12 - 1) / 10, about 16 275,
        # where adjacent doubles lie 1.8e-12 apart, wider than the tolerance
        rates = RateDistribution.gamma(0.1)
        want = (math.exp(12.0) - 1.0) / 10.0
        assert rates.phi_inverse(math.exp(-1.2)) == pytest.approx(
            want, rel=1e-12)

    def test_phi_phi_inverse_round_trip(self):
        for rates in (RateDistribution.two_speed(0.5, 1.5),
                      RateDistribution.gamma(2.0),
                      RateDistribution.lognormal(0.5)):
            for y in (0.9, 0.5, 0.2, 0.05):
                assert rates.phi(rates.phi_inverse(y)) == pytest.approx(
                    y, abs=1e-10)

    def test_phi_inverse_domain(self):
        rates = RateDistribution.constant()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                rates.phi_inverse(bad)

    def test_sample_mean_one(self):
        rng = np.random.default_rng(0)
        for rates in (RateDistribution.two_speed(0.5, 1.5),
                      RateDistribution.gamma(2.0),
                      RateDistribution.lognormal(0.5)):
            lam = rates.sample(rng, 200_000)
            assert lam.min() > 0.0
            assert lam.mean() == pytest.approx(1.0, abs=0.02)


class TestCheckAssumption:
    def test_constant_boundary(self):
        g = 0.2
        rates = RateDistribution.constant()
        ok = check_assumption(rates, RegularityParams(0.1, g, 6 * g + 1e-9))
        assert ok.ok
        assert ok.phi_inv_6g == pytest.approx(6 * g, abs=1e-10)
        bad = check_assumption(rates, RegularityParams(0.1, g, 6 * g - 1e-3))
        assert not bad.ok

    def test_two_speed_against_dense_tabulation(self):
        g, cap = 0.2, 3.0
        rates = RateDistribution.two_speed(0.5, 1.5)
        report = check_assumption(rates, RegularityParams(0.1, g, cap))
        # oracle: scan a dense grid for the crossing of phi with e^{-6g}
        grid = np.linspace(0.0, 10.0, 2_000_001)
        vals = 0.5 * (np.exp(-0.5 * grid) + np.exp(-1.5 * grid))
        crossing = grid[np.searchsorted(-vals, -math.exp(-6 * g))]
        assert report.phi_inv_6g == pytest.approx(crossing, abs=1e-5)
        assert report.ok  # 1.439... <= 3

    def test_cap_below_6g_always_fails(self):
        # phi_inverse(e^{-6g}) >= 6g by Jensen, for every rate law
        g = 0.2
        params = RegularityParams(0.1, g, 6 * g - 0.01)
        for rates in (RateDistribution.constant(),
                      RateDistribution.two_speed(0.5, 1.5),
                      RateDistribution.gamma(2.0),
                      RateDistribution.lognormal(0.5)):
            report = check_assumption(rates, params)
            assert not report.ok
            assert report.phi_inv_6g >= 6 * g - 1e-9


class TestSimulation:
    def test_pair_agreement_constant_rate(self, cfn):
        # two leaves at distance ln 2: agreement 0.5 + 0.5 * 0.5 = 0.75
        half = LN2 / 2.0
        tree = parse_newick(f"(a:{half},b:{half},c:0.5);")
        aln = simulate_alignment(tree, cfn, RateDistribution.constant(),
                                 100_000, seed=4)
        a, b = tree.leaf_id("a"), tree.leaf_id("b")
        agree = (aln.data[:, a] == aln.data[:, b]).mean()
        sigma = math.sqrt(0.75 * 0.25 / aln.k)
        assert abs(agree - 0.75) < 3 * sigma

    def test_spin_correlation_matches_distance_decay(self, cfn):
        # for the +-1 encoding, E[sigma_a sigma_b] = exp(-d(a, b))
        half = LN2 / 2.0
        tree = parse_newick(f"(a:{half},b:{half},c:0.5);")
        aln = simulate_alignment(tree, cfn, RateDistribution.constant(),
                                 100_000, seed=5)
        spins = 1.0 - 2.0 * aln.data.astype(float)
        corr = (spins[:, 0] * spins[:, 1]).mean()
        sigma = 1.0 / math.sqrt(aln.k)
        assert abs(corr - 0.5) < 4 * sigma

    def test_determinism_and_seed_sensitivity(self, five_leaf, jc, two_speed):
        one = simulate_alignment(five_leaf, jc, two_speed, 500, seed=7)
        two = simulate_alignment(five_leaf, jc, two_speed, 500, seed=7)
        other = simulate_alignment(five_leaf, jc, two_speed, 500, seed=8)
        assert np.array_equal(one.data, two.data)
        assert np.array_equal(one.hidden_lambdas, two.hidden_lambdas)
        assert not np.array_equal(one.data, other.data)

    def test_sidecar_strip(self, five_leaf, jc, two_speed):
        aln = simulate_alignment(five_leaf, jc, two_speed, 100, seed=1)
        assert aln.hidden_lambdas is not None
        bare = aln.without_lambdas()
        assert bare.hidden_lambdas is None
        assert bare.data is aln.data

    def test_lambdas_come_from_support(self, five_leaf, jc, two_speed):
        aln = simulate_alignment(five_leaf, jc, two_speed, 1000, seed=2)
        assert set(np.unique(aln.hidden_lambdas)) == {0.5, 1.5}


GOLDEN_LAWS = {
    "constant": RateDistribution.constant(),
    "two_speed": RateDistribution.two_speed(0.5, 1.5),
    "three_point": RateDistribution.discrete([0.3, 1.0, 2.5], [0.2, 0.5, 0.3]),
    "gamma4": RateDistribution.gamma(4.0),
    "lognormal": RateDistribution.lognormal(0.5),
}

# (n, model, k, tree seed); the simulation seed is the tree seed + 10
GOLDEN_SHAPES = {
    "n5": (5, SubstitutionModel.uniform(2), 3000, 3),
    "n64": (64, SubstitutionModel(4, pi=(0.1, 0.2, 0.3, 0.4)), 2000, 5),
}

# sha256 of (aln.data, aln.hidden_lambdas as little-endian float64); any
# change to the per-site (seed, site) Philox stream layout changes these
GOLDEN_DIGESTS = {
    ("n5", "constant"): (
        "e40e65af29e3cdbd1de91a4b8dac36026820c3a2b417ccd6c1e1f98fbf6cc5dc",
        "bf92e28edd3af5c14ac29cbcd4313b3c9ffa9e35e4038e377d994d62467617ed"),
    ("n5", "two_speed"): (
        "d6e3be29866daf13ddfd07403ed15afb7c187129793436599c1f82eeb1f19e65",
        "e08567e198fa5c570b3e724517b329167353149f83c006c5c393b590392dcb1f"),
    ("n5", "three_point"): (
        "5b26436a027c16a70fd037385804af4bba845cd80a6e01ab58093f582f3400c1",
        "19466c95e6b2dd1ad57ca16f062e0db7d7a41b8242432d89d2015b24cb3bd528"),
    ("n5", "gamma4"): (
        "7d9fd2df99853437e796d9783bc0cb36217f481af7d3013cd02dcef18a7d8388",
        "87e9b7d1cc4cc0deed9b8b5ade72051980276fc4d3ffe235ea7ab4ee163c5fc0"),
    ("n5", "lognormal"): (
        "0345ce514b7936f50196b499cc8b70bc8e72aaa4369ebc7f5e03134da43a2e35",
        "b839ad2d0b2720a2c3d332099cc889a818143d023cd6a26948afb9518a75618b"),
    ("n64", "constant"): (
        "e1d665b60936461fb4cd7faa453ab7d8d5ef596c4663883762ce6f9d1a2672bd",
        "9c7d87294de0610ce1ba95775bb9e8ae510ec6e3b29772fa9d31f0a01fa99de3"),
    ("n64", "two_speed"): (
        "e6df4e48883b2515c82a47092ca3c10d4497df4e46e756b13d780bcf0f82b647",
        "c652fb8dbb6e1e5e60601bf3f2ccaac7ad0282d45ef179f0155030973cb4437b"),
    ("n64", "three_point"): (
        "70457e009f875a4db449f094beb2fcb2a2ba5ab681cbbe235e80a446e592aadf",
        "eb2ec4030d4bb083942b8deb0b6e62f1a5141507817944afd404f14b6906647b"),
    ("n64", "gamma4"): (
        "6edb1ce665c56ef64809975cf9ca5816149752032a290d024c87125a8439e040",
        "a9803709f76a024080bd203cf552cacf3b37d10cf3e2fdb1604efa0e83f44bf2"),
    ("n64", "lognormal"): (
        "97ef5c24e08fc8a975e61f45767dd392c29042f17999f43f71d602f0fe512322",
        "821af709ce8cb1deae1486da44611e9fcb6a91e3e8cc7021882dbb8cbcf56b02"),
}


def _reference_site(tree, model, rates, seed, site):
    """One site straight from the stream layout that the
    ``simulate_alignment`` docstring states: a fresh generator for the
    site, ``Generator.choice`` for a discrete rate, a walk in Python."""
    rng = np.random.Generator(np.random.Philox(key=[seed, site]))
    if rates.kind == "discrete":
        lam = rates.support[rng.choice(len(rates.support), p=rates.probs)]
    else:
        lam = rates.sample(rng, 1)[0]
    keep_u, fresh_u = rng.random((2, tree.n_vertices))
    cum_pi = np.cumsum(model.pi)
    cum_pi[-1] = 1.0
    state = np.searchsorted(cum_pi, fresh_u, side="right")
    for parent, child, w in tree.preorder_edges():
        if keep_u[child] < np.exp(-lam * w):
            state[child] = state[parent]
    return lam, state[:tree.n_leaves]


class TestSimulationContract:
    """Byte-level pins of the per-site stream layout documented in
    :func:`simulate_alignment`."""

    @pytest.mark.parametrize("shape, law", sorted(GOLDEN_DIGESTS))
    def test_golden_digests(self, shape, law):
        n, model, k, seed = GOLDEN_SHAPES[shape]
        tree = generate_random_regular(n, RegularityParams(0.1, 0.2, 1.5),
                                       seed=seed)
        aln = simulate_alignment(tree, model, GOLDEN_LAWS[law], k,
                                 seed=seed + 10)
        assert aln.data.shape == (k, n)
        got = (hashlib.sha256(aln.data.tobytes()).hexdigest(),
               hashlib.sha256(aln.hidden_lambdas.astype("<f8").tobytes())
               .hexdigest())
        assert got == GOLDEN_DIGESTS[shape, law]

    def test_rows_do_not_depend_on_batching(self, jc, two_speed):
        # at n=2048 the simulator draws 16 sites per tile and 1024 per
        # chunk, so k=8300 spans nine chunks; m=1050 ends inside a tile and
        # m=8250 inside the last chunk
        tree = generate_random_regular(2048, RegularityParams(0.1, 0.2, 1.5),
                                       seed=1)
        full = simulate_alignment(tree, jc, two_speed, 8300, seed=9)
        for m in (1, 1050, 8250):
            part = simulate_alignment(tree, jc, two_speed, m, seed=9)
            assert np.array_equal(part.data, full.data[:m])
            assert np.array_equal(part.hidden_lambdas,
                                  full.hidden_lambdas[:m])
        # and the sites on either side of the first and the last chunk
        # boundary (1024 and 8192 = 8 * 1024) are the sites the stream
        # layout defines
        for site in (0, 1023, 1024, 8191, 8192, 8299):
            lam, leaves = _reference_site(tree, jc, two_speed, 9, site)
            assert full.hidden_lambdas[site] == lam
            assert np.array_equal(full.data[site], leaves)

    @pytest.mark.parametrize("seed", [2 ** 63, 2 ** 63 + 5])
    def test_seed_from_2_63_rejected(self, five_leaf, jc, two_speed, seed):
        # Philox would round such a seed through float64 and alias it
        with pytest.raises(ValueError, match="2\\*\\*63"):
            simulate_alignment(five_leaf, jc, two_speed, 10, seed=seed)

    def test_r_above_256_rejected(self, five_leaf, two_speed):
        # states are uint8, so states above 255 would wrap
        with pytest.raises(ValueError, match="at most 256"):
            simulate_alignment(five_leaf, SubstitutionModel.uniform(300),
                               two_speed, 10, seed=0)

    def test_r_256_reaches_state_255(self, five_leaf, two_speed):
        model = SubstitutionModel.uniform(256)
        aln = simulate_alignment(five_leaf, model, two_speed, 2000, seed=0)
        assert aln.data.dtype == np.uint8
        assert aln.data.max() == 255
        _, leaves = _reference_site(five_leaf, model, two_speed, 0, 1999)
        assert np.array_equal(aln.data[1999], leaves)

    def test_working_set_bounded(self, jc, two_speed, monkeypatch):
        # up to three 4 MiB block arrays are live at a chunk boundary (the
        # next keep block and the last chunk's two); tiles and the
        # per-tile temporaries fit in the remaining slack.  The output is
        # a shared mapping that tracemalloc does not see, so the traced
        # peak is this process's walk alone: with the default split, in
        # which this process walks the first range, and with one worker
        tree = generate_random_regular(512, RegularityParams(0.1, 0.2, 1.5),
                                       seed=1)
        for one_worker in (False, True):
            if one_worker:
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid: {0}, raising=False)
            tracemalloc.start()
            try:
                simulate_alignment(tree, jc, two_speed, 20_000, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20

    def test_largest_seed_simulates(self, five_leaf, jc, two_speed):
        seed = 2 ** 63 - 1
        aln = simulate_alignment(five_leaf, jc, two_speed, 10, seed=seed)
        lam, leaves = _reference_site(five_leaf, jc, two_speed, seed, 9)
        assert aln.hidden_lambdas[9] == lam
        assert np.array_equal(aln.data[9], leaves)

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_discrete_sample_matches_generator_choice(self, seed):
        rates = RateDistribution.discrete([0.3, 1.0, 2.5, 0.7],
                                          [0.1, 0.45, 0.15, 0.3])
        got = rates.sample(np.random.default_rng(seed), 5000)
        # the oracle: Generator.choice with p= draws one double per value
        rng = np.random.default_rng(seed)
        want = rates.support[rng.choice(len(rates.support), 5000,
                                        p=rates.probs)]
        assert np.array_equal(got, want)


class TestSimulationWorkers:
    """The split of :func:`simulate_alignment`'s sites over forked
    workers, forced through the CPU count and the share threshold."""

    @staticmethod
    def force_workers(monkeypatch, workers):
        monkeypatch.setattr(models, "_MIN_SHARE", 1)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(workers)), raising=False)

    @pytest.mark.parametrize("law", ["constant", "two_speed", "gamma4"])
    def test_bytes_do_not_depend_on_worker_count(self, monkeypatch, law):
        tree = generate_random_regular(64, RegularityParams(0.1, 0.2, 1.5),
                                       seed=2)
        model = SubstitutionModel(4, pi=(0.1, 0.2, 0.3, 0.4))
        rates = GOLDEN_LAWS[law]
        real_fork, forks = os.fork, []

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        outs = []
        for workers in (1, 2, 3):
            self.force_workers(monkeypatch, workers)
            forks.clear()
            outs.append(simulate_alignment(tree, model, rates, 1000, seed=21))
            assert len(forks) == workers - 1
        for aln in outs:
            assert aln.data.tobytes() == outs[0].data.tobytes()
            assert aln.hidden_lambdas.tobytes() == \
                outs[0].hidden_lambdas.tobytes()
            # either side of each range boundary: 500 for two workers,
            # 333 and 666 for three
            for site in (0, 332, 333, 499, 500, 665, 666, 999):
                lam, leaves = _reference_site(tree, model, rates, 21, site)
                assert aln.hidden_lambdas[site] == lam
                assert np.array_equal(aln.data[site], leaves)

    def test_failed_worker_raises_and_is_reaped(self, monkeypatch, capfd,
                                                five_leaf, jc, two_speed):
        self.force_workers(monkeypatch, 3)
        real = models._simulate_sites

        def fail_in_workers(*args):
            if args[-2] > 0:  # lo: a forked worker's range
                raise ValueError("worker failure")
            real(*args)

        monkeypatch.setattr(models, "_simulate_sites", fail_in_workers)
        with pytest.raises(RuntimeError, match="sites 3..5, 6..8$"):
            simulate_alignment(five_leaf, jc, two_speed, 9, seed=0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "ValueError: worker failure" in capfd.readouterr().err

    def test_failure_in_caller_kills_workers(self, monkeypatch, five_leaf,
                                             jc, two_speed):
        self.force_workers(monkeypatch, 2)

        def stall_workers(*args):
            if args[-2] > 0:
                time.sleep(60)
            raise KeyError("caller failure")

        monkeypatch.setattr(models, "_simulate_sites", stall_workers)
        t0 = time.perf_counter()
        with pytest.raises(KeyError, match="caller failure"):
            simulate_alignment(five_leaf, jc, two_speed, 10, seed=0)
        assert time.perf_counter() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_caller_runs_ranges_fork_could_not_take(self, monkeypatch,
                                                    five_leaf, jc, two_speed):
        want = simulate_alignment(five_leaf, jc, two_speed, 90, seed=5)
        self.force_workers(monkeypatch, 3)
        real_fork, forks = os.fork, []

        def fork_once():
            forks.append(1)
            if len(forks) > 1:
                raise BlockingIOError(errno.EAGAIN, "no more processes")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        got = simulate_alignment(five_leaf, jc, two_speed, 90, seed=5)
        assert len(forks) == 2
        assert got.data.tobytes() == want.data.tobytes()
        assert got.hidden_lambdas.tobytes() == want.hidden_lambdas.tobytes()

    def test_no_fork_below_share_threshold(self, monkeypatch, five_leaf, jc,
                                           two_speed):
        def no_fork():
            raise AssertionError("forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(4)), raising=False)
        k = 2 * models._MIN_SHARE - 1  # one share, short of two
        aln = simulate_alignment(five_leaf, jc, two_speed, k, seed=0)
        lam, leaves = _reference_site(five_leaf, jc, two_speed, 0, k - 1)
        assert aln.hidden_lambdas[k - 1] == lam
        assert np.array_equal(aln.data[k - 1], leaves)
        # and one worker where the CPU set cannot be read
        monkeypatch.setattr(models, "_MIN_SHARE", 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        simulate_alignment(five_leaf, jc, two_speed, 10, seed=0)


class TestBatchedPhilox:
    """The batched draw of small trees' per-site streams, against the
    per-site ``Generator`` it replaces."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 + 7, 2 ** 63 - 1])
    @pytest.mark.parametrize("first_site", [0, 2 ** 32 - 3, 2 ** 40])
    def test_doubles_match_generator_random(self, monkeypatch, seed,
                                            first_site):
        # five sites in passes of two, so the last pass is short; widths
        # 1..64 cover every residue of a four-word block
        monkeypatch.setattr(models, "_BATCH_SITES", 2)
        for width in range(1, 65):
            got = np.empty((5, width))
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                models._philox_doubles(seed, first_site, got)
            for i, row in enumerate(got):
                rng = np.random.Generator(
                    np.random.Philox(key=[seed, first_site + i]))
                assert np.array_equal(row, rng.random(width)), (width, i)

    @pytest.mark.parametrize("law", ["constant", "two_speed", "three_point"])
    @pytest.mark.parametrize("n", [5, 8])
    def test_paths_give_identical_bytes(self, monkeypatch, law, n):
        # 9000 sites cross a tile (7710 sites at n=5, 4369 at n=8) and
        # several passes of the batched draw
        tree = generate_random_regular(n, RegularityParams(0.1, 0.2, 1.5),
                                       seed=4)
        model = SubstitutionModel(4, pi=(0.1, 0.2, 0.3, 0.4))
        calls = []
        real = models._philox_doubles

        def counted(*args):
            calls.append(1)
            real(*args)

        monkeypatch.setattr(models, "_philox_doubles", counted)
        outs = {}
        for workers in (1, 2):
            TestSimulationWorkers.force_workers(monkeypatch, workers)
            for batch_words in (0, 64):
                monkeypatch.setattr(models, "_BATCH_WORDS", batch_words)
                calls.clear()
                aln = simulate_alignment(tree, model, GOLDEN_LAWS[law],
                                         9000, seed=31)
                # the calling process takes the batched path exactly when
                # the site's 29 or fewer doubles fit
                assert bool(calls) == (batch_words > 0)
                outs[workers, batch_words] = (aln.data.tobytes(),
                                              aln.hidden_lambdas.tobytes())
        assert len(set(outs.values())) == 1

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)])
    def test_numpy_integer_seed(self, five_leaf, jc, two_speed, seed):
        # the batched path takes the key word as Philox converts the seed
        aln = simulate_alignment(five_leaf, jc, two_speed, 10, seed=seed)
        lam, leaves = _reference_site(five_leaf, jc, two_speed, 5, 9)
        assert aln.hidden_lambdas[9] == lam
        assert np.array_equal(aln.data[9], leaves)

    @pytest.mark.parametrize("seed, shown", [
        (-1, "-1"), (np.int64(-1), "-1"), (5.5, "5.5"), (5.0, "5.0")])
    def test_seed_must_name_one_stream(self, five_leaf, jc, two_speed, seed,
                                       shown):
        # Philox would wrap -1 to the key 2**64 - 1 and truncate 5.5 to 5,
        # so that 5.5, 5.0 and 5 gave the same streams
        with pytest.raises(ValueError) as exc:
            simulate_alignment(five_leaf, jc, two_speed, 10, seed=seed)
        assert str(exc.value) == ("seed must be an integer in [0, 2**63), "
                                  f"got {shown}")

    @pytest.mark.parametrize("law", ["gamma4", "lognormal"])
    def test_continuous_laws_keep_per_site_path(self, monkeypatch, five_leaf,
                                                jc, law):
        def refuse(*args):
            raise AssertionError("batched draw for a continuous law")

        monkeypatch.setattr(models, "_BATCH_WORDS", 10 ** 6)
        monkeypatch.setattr(models, "_philox_doubles", refuse)
        rates = GOLDEN_LAWS[law]
        aln = simulate_alignment(five_leaf, jc, rates, 50, seed=2)
        lam, leaves = _reference_site(five_leaf, jc, rates, 2, 49)
        assert aln.hidden_lambdas[49] == lam
        assert np.array_equal(aln.data[49], leaves)


class TestExactLeafDistribution:
    def test_quartet_against_direct_summation(self, quartet, cfn):
        # independent oracle: brute-force sum over all internal states
        rates = RateDistribution.constant()
        got = exact_leaf_distribution(quartet, cfn, rates)
        pi = 0.5
        d = {}
        for u, v, w in quartet.edges:
            d[(u, v)] = d[(v, u)] = w
        total = np.zeros((2, 2, 2, 2))
        for s4 in range(2):
            for s5 in range(2):
                for leaves in np.ndindex(2, 2, 2, 2):
                    prob = pi
                    # root the quartet at internal vertex 4
                    for (u, v, _w) in quartet.edges:
                        su = leaves[u] if u < 4 else (s4 if u == 4 else s5)
                        sv = leaves[v] if v < 4 else (s4 if v == 4 else s5)
                        stay = 0.5 + 0.5 * math.exp(-d[(u, v)])
                        prob *= stay if su == sv else 1.0 - stay
                    total[leaves] += prob
        assert np.allclose(got, total, atol=1e-12)

    def test_brute_force_with_skewed_pi(self, five_leaf):
        # a non-uniform pi tells the edge directions apart; the joint law
        # of every vertex is prod_e pi_x P_xy(w_e) / prod_v pi_v^(deg-1),
        # which needs no root, summed over all 3^8 joint states
        pi = np.array([0.5, 0.3, 0.2])
        model = SubstitutionModel(3, tuple(pi))
        rates = RateDistribution.discrete([0.4, 2.0], [0.7, 0.3])
        n, nv = five_leaf.n_leaves, five_leaf.n_vertices
        states = np.array(list(itertools.product(range(3), repeat=nv)))
        want = np.zeros((3,) * n)
        for lam, weight in zip(*rates.finite_support()):
            prob = np.full(len(states), weight)
            for u, v, w in five_leaf.edges:
                x, y = states[:, u], states[:, v]
                decay = math.exp(-lam * w)
                prob *= pi[x] * (pi[y] * (1.0 - decay) + (x == y) * decay)
            for v in range(n, nv):  # internal vertices have degree 3
                prob /= pi[states[:, v]] ** 2
            np.add.at(want, tuple(states[:, :n].T), prob)
        for root in range(nv):
            got = exact_leaf_distribution(five_leaf, model, rates, root=root)
            assert np.abs(got - want).max() < 1e-12

    def test_sums_to_one_and_symmetry(self, five_leaf, cfn, two_speed):
        dist = exact_leaf_distribution(five_leaf, cfn, two_speed)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        # uniform pi: invariant under the global state swap
        flipped = dist[tuple([slice(None, None, -1)] * 5)]
        assert np.allclose(dist, flipped, atol=1e-14)

    def test_rerooting_invariance(self, five_leaf, cfn, two_speed):
        base = exact_leaf_distribution(five_leaf, cfn, two_speed, root=0)
        for root in range(five_leaf.n_vertices):
            other = exact_leaf_distribution(five_leaf, cfn, two_speed,
                                            root=root)
            assert np.abs(other - base).max() < 1e-12

    def test_two_leaf_marginal_closed_form(self, five_leaf, cfn):
        rates = RateDistribution.constant()
        dist = exact_leaf_distribution(five_leaf, cfn, rates)
        d = tree_metric(five_leaf)
        # marginalize down to leaves (a, b) and compare the agreement mass
        marg = dist.sum(axis=(2, 3, 4))
        agree = marg[0, 0] + marg[1, 1]
        want = 0.5 + 0.5 * math.exp(-d[0, 1])
        assert agree == pytest.approx(want, abs=1e-12)

    def test_distinct_topologies_differ(self, cfn, two_speed):
        p1 = parse_newick("((a:0.1,b:0.2):0.15,(c:0.12,d:0.18):0.11,e:0.14);")
        p2 = parse_newick("((a:0.1,c:0.2):0.15,(b:0.12,d:0.18):0.11,e:0.14);")
        d1 = exact_leaf_distribution(p1, cfn, two_speed)
        d2 = exact_leaf_distribution(p2, cfn, two_speed)
        # leaf order differs between the trees; align by label
        perm = [p2.labels.index(lab) for lab in p1.labels]
        tv = 0.5 * np.abs(d1 - np.transpose(d2, perm)).sum()
        assert tv > 0.0

    def test_too_large_rejected(self, cfn, two_speed):
        params = RegularityParams(0.1, 0.2, 1.2)
        big = generate_random_regular(9, params, seed=0)
        with pytest.raises(ValueError, match="too large"):
            exact_leaf_distribution(big, cfn, two_speed)

    def test_continuous_rates_rejected(self, five_leaf, cfn):
        with pytest.raises(ValueError, match="finite-support"):
            exact_leaf_distribution(five_leaf, cfn,
                                    RateDistribution.gamma(2.0))


class TestAlignment:
    def test_state_range_validated(self):
        with pytest.raises(ValueError, match="states"):
            Alignment(np.array([[0, 3]]), r=2)

    def test_sidecar_length_validated(self):
        with pytest.raises(ValueError, match="per site"):
            Alignment(np.zeros((3, 2), dtype=np.uint8), r=2,
                      hidden_lambdas=np.ones(2))


_QUARTET = "((a:1,b:1):1,(c:1,d:1):1);"
_FIVE = "((a:0.1,b:0.2):0.1,(c:0.1,d:0.3):0.2,e:0.1);"  # 8 vertices
_ZEROS = Alignment(np.zeros((4, 3), dtype=np.uint8), r=2)


def _piped(text):
    """A file descriptor that reads ``text``; ``open`` takes one in place
    of a path."""
    fd, end = os.pipe()
    os.write(end, text.encode())
    os.close(end)
    return fd


@pytest.mark.parametrize("build, message", [
    (lambda: SubstitutionModel(1), "alphabet size must be at least 2"),
    (lambda: SubstitutionModel(3, (0.5, 0.5)), "pi must have length r"),
    (lambda: RateDistribution.discrete([1.0, 2.0], [1.0]),
     "support and probs must be equal-length 1-d"),
    (lambda: RateDistribution("weibull"),
     "unknown rate distribution kind 'weibull'"),
    # each product 5e-324 / 3 rounds to 0, so the mean underflows
    (lambda: RateDistribution.discrete([5e-324] * 3, [1 / 3] * 3),
     "rate distribution has zero mean"),
    (lambda: invert_decreasing(lambda s: 1.0, 0.5),
     "curve never reaches 0.5"),
    (lambda: simulate_alignment(parse_newick(_QUARTET),
                                SubstitutionModel.uniform(2),
                                RateDistribution.constant(), 0, 0),
     "k must be at least 1"),
    # 0 / 0 would fill the matrix with NaN off the diagonal
    (lambda: agreement_matrix(Alignment(np.zeros((0, 5), dtype=np.uint8),
                                        r=4), SubstitutionModel.uniform(4)),
     "alignment has no sites"),
    (lambda: Alignment(np.zeros(3, dtype=np.uint8), r=2),
     "alignment data must be 2-d (sites x leaves)"),
    (lambda: Alignment(np.array([[0.5, 1.0, 0.0]] * 10), r=3),
     "alignment states must be integers, not float64"),
    (lambda: Alignment(np.array([[np.nan, 1.0, 0.0]] * 10), r=3),
     "alignment states must be integers, not float64"),
    # the writer would print "4.0", which the reader refuses
    (lambda: Alignment(np.zeros((2, 3), dtype=np.uint8), r=4.0),
     "alphabet size must be an integer of at least 2, not 4.0"),
    (lambda: Alignment(np.zeros((2, 3), dtype=np.uint8), r=1.5),
     "alphabet size must be an integer of at least 2, not 1.5"),
    (lambda: Alignment(np.zeros((2, 3), dtype=np.uint8), r=1),
     "alphabet size must be an integer of at least 2, not 1"),
    (lambda: bin_sites(np.zeros((2, 3)),
                       derive_params(RegularityParams(0.1, 0.2, 1.5), 8)),
     "u_values must be 1-d"),
    (lambda: distorted_metric(np.ones((2, 3))),
     "agreement matrix must be square"),
    (lambda: rio.read_distance_matrix(_piped("2\na 0 1\nb 1\n")),
     "bad distance matrix row"),
    (lambda: rio.read_distance_matrix(_piped("2\na 0 1\nb 1 0\nc 5 5\n")),
     "distance matrix does not match header (2): text after row 2"),
    (lambda: rio.read_distance_matrix(_piped("2\na 0 1\nb 2 0\n")),
     "distance matrix must be symmetric"),
    (lambda: verify_distortion(DistortedMetric(np.zeros((4, 4))),
                               np.zeros((5, 5)), tau=0.1, psi=1.0),
     "metric shapes differ"),
    (lambda: RateDistribution.constant().phi(-1.0),
     "phi is defined for s >= 0"),
    # EmptyPairSet is also a ValueError
    (lambda: all_site_statistics(Alignment(np.zeros((3, 4), dtype=np.uint8),
                                           r=2), PairSet(()),
                                 SubstitutionModel.uniform(2)),
     "pair set is empty"),
    (lambda: site_classification_report(
        Alignment(np.zeros((3, 4), dtype=np.uint8), r=2,
                  hidden_lambdas=[0.5, 1.0, 2.0]),
        PairSet(((0, 1),)), parse_newick(_QUARTET)),
     "classification report needs two-speed rates"),
    # leaf -1 would be read as the last leaf, 0.7 truncated to leaf 0
    (lambda: PairSet(((-1, 1),)), "pair leaves must be nonnegative leaf ids"),
    (lambda: PairSet(((0.7, 1),)), "pair leaves must be integer leaf ids"),
    (lambda: Topology.from_nested(("a", "b")),
     "top level must be a tuple of 3 groups"),
    (lambda: Topology.from_nested(("a", "b", ("c", "d", "e"))),
     "internal groups must be pairs"),
    (lambda: four_point_topology(np.ones((4, 4)), 0, 1, 2, 2),
     "four distinct leaves required"),
    # a mask would be read as the sites 0 and 1
    (lambda: bin_agreement(_ZEROS, np.arange(4) >= 2,
                           SubstitutionModel.uniform(2)),
     "site indices must be integers, not bool"),
    (lambda: bin_agreement(_ZEROS, [0.7, 1.9], SubstitutionModel.uniform(2)),
     "site indices must be integers, not float64"),
    (lambda: bin_agreement(_ZEROS, [[0, 1]], SubstitutionModel.uniform(2)),
     "site indices must be 1-d"),
    # a negative index would wrap around to the end
    (lambda: bin_agreement(_ZEROS, [0, -1], SubstitutionModel.uniform(2)),
     "site indices must lie in [0, 4)"),
    (lambda: bin_agreement(_ZEROS, [0, 4], SubstitutionModel.uniform(2)),
     "site indices must lie in [0, 4)"),
    (lambda: exact_leaf_distribution(parse_newick(_FIVE),
                                     SubstitutionModel.uniform(2),
                                     RateDistribution.constant(), root=-1),
     "root must be a vertex id in [0, 8)"),
    (lambda: exact_leaf_distribution(parse_newick(_FIVE),
                                     SubstitutionModel.uniform(2),
                                     RateDistribution.constant(), root=8),
     "root must be a vertex id in [0, 8)"),
], ids=["r-1", "pi-length", "support-probs-length", "kind-weibull",
        "zero-mean", "curve-never-reaches", "k-0", "agreement-k-0",
        "data-1d", "data-half", "data-nan", "alphabet-float",
        "alphabet-half", "alphabet-1", "bin-sites-2d",
        "distorted-non-square", "distance-row-short", "distance-text-after",
        "distance-asymmetric", "metric-shapes",
        "phi-negative", "pair-set-empty", "classify-three-speeds",
        "pair-leaf-negative", "pair-leaf-float",
        "nested-top-pair", "nested-triple", "four-point-repeat",
        "bin-agreement-mask", "bin-agreement-float", "bin-agreement-2d",
        "bin-agreement-negative", "bin-agreement-past-end",
        "exact-root-negative", "exact-root-past-end"])
def test_rejections(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
