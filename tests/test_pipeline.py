import numpy as np
import pytest

import rasphy.clustering
from rasphy import (EmptyPairSet, PipelineConfig, RateDistribution,
                    RegularityParams, SubstitutionModel,
                    generate_complete_binary,
                    generate_random_regular, identifiability_witness,
                    oracle_sparsify, parse_newick, run_pipeline,
                    simulate_alignment, site_classification_report)

REG = RegularityParams(0.1, 0.2, 1.5)


def make_instance(n=32, k=20_000, seed=0, rates=None, r=4):
    rates = rates or RateDistribution.two_speed(0.5, 1.5)
    model = SubstitutionModel.uniform(r)
    tree = generate_random_regular(n, REG, seed=seed)
    aln = simulate_alignment(tree, model, rates, k, seed=seed + 1)
    return tree, aln, rates


class TestRunPipeline:
    def test_happy_path_small(self):
        tree, aln, rates = make_instance(n=32, k=20_000, seed=3)
        report = run_pipeline(aln, PipelineConfig(reg=REG, rates=rates),
                              truth=tree)
        report.raise_if_failed()
        assert report.rf_distance == 0
        assert report.certificate is not None and report.certificate.ok
        assert report.distortion is not None
        assert [rec.status for rec in report.stages] == ["ok"] * 10

    def test_sidecar_never_leaks(self):
        # byte-identical topology with and without the hidden rates
        tree, aln, rates = make_instance(n=24, k=10_000, seed=5)
        cfg = PipelineConfig(reg=REG, rates=rates)
        with_sidecar = run_pipeline(aln, cfg, truth=tree)
        without = run_pipeline(aln.without_lambdas(), cfg, truth=tree)
        assert with_sidecar.topology.to_newick() == without.topology.to_newick()

    def test_tiny_k_degrades_gracefully(self):
        tree, aln, rates = make_instance(n=32, k=100, seed=7)
        report = run_pipeline(aln, PipelineConfig(reg=REG, rates=rates),
                              truth=tree)
        # NoAbundantBin (or another captured stage error) or a worse tree,
        # but never an uncaught exception
        if report.ok:
            assert report.rf_distance >= 0
        else:
            assert report.error.stage in (
                "close_pairs", "sparsify", "select_abundant",
                "reconstruct_topology")
            statuses = {rec.name: rec.status for rec in report.stages}
            assert len(report.stages) == 10
            assert statuses[report.error.stage] == "failed"
            skipped = [rec for rec in report.stages if rec.status == "skipped"]
            assert all(rec.reason for rec in skipped)

    def test_programming_errors_propagate(self, monkeypatch):
        tree, aln, rates = make_instance(n=16, k=2000, seed=9)

        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(rasphy.clustering, "sparsify", broken)
        with pytest.raises(TypeError, match="bug"):
            run_pipeline(aln, PipelineConfig(reg=REG, rates=rates))

    def test_empty_pair_set_is_recorded_at_sparsify(self):
        # every leaf pair is at distance >= 1.8, far beyond the close
        # level exp(-4.5g) that g=0.2 sets: no candidate pair survives
        tree = generate_complete_binary(5, 0.9)
        rates = RateDistribution.constant()
        aln = simulate_alignment(tree, SubstitutionModel.uniform(4), rates,
                                 2000, seed=1)
        report = run_pipeline(aln, PipelineConfig(reg=REG, rates=rates),
                              truth=tree)
        assert not report.ok
        assert report.error.stage == "sparsify"
        assert isinstance(report.error.cause, EmptyPairSet)
        assert len(report.stages) == 10
        statuses = [rec.status for rec in report.stages]
        assert statuses == ["ok", "ok", "failed"] + ["skipped"] * 7
        assert report.stages[1].detail == {"candidate_pairs": 0}

    def test_assumption_gate(self):
        tree, aln, rates = make_instance(n=16, k=500, seed=9)
        bad_reg = RegularityParams(0.1, 0.2, 1.3)  # below phi_inv(e^-6g)=1.439
        with pytest.raises(ValueError, match="assumption"):
            run_pipeline(aln, PipelineConfig(reg=bad_reg, rates=rates))

    def test_constant_rates_concentrate_around_oracle_value(self):
        # unmixed data: the pipeline still succeeds, and site statistics
        # concentrate around the conditional mean at rate 1 (the bin width
        # shrinks like 1/log n, so at desk scale the relevant check is a
        # 4-sigma band around the oracle value, not a fixed bin count)
        from rasphy import expected_statistic_curve
        tree, aln, _ = make_instance(n=32, k=20_000, seed=11,
                                     rates=RateDistribution.constant())
        report = run_pipeline(
            aln, PipelineConfig(reg=REG, rates=RateDistribution.constant()),
            truth=tree)
        report.raise_if_failed()
        assert report.rf_distance == 0
        target = dict(expected_statistic_curve(tree, report.pair_set,
                                               [1.0]))[1.0]
        sigma = report.u_values.std()
        assert abs(np.median(report.u_values) - target) < sigma
        assert (np.abs(report.u_values - target) < 4 * sigma).mean() >= 0.99


class TestIdentifiability:
    def test_symmetry_and_zero_on_equal(self, cfn, two_speed):
        p1 = parse_newick("((a:0.1,b:0.2):0.15,(c:0.12,d:0.18):0.11,e:0.14);")
        p2 = parse_newick("((a:0.1,c:0.2):0.15,(b:0.12,d:0.18):0.11,e:0.14);")
        tv12 = identifiability_witness(p1, p2, two_speed, two_speed, cfn)
        tv21 = identifiability_witness(p2, p1, two_speed, two_speed, cfn)
        assert tv12 == pytest.approx(tv21, abs=1e-14)
        assert tv12 > 0.0
        assert identifiability_witness(p1, p1, two_speed, two_speed,
                                       cfn) == pytest.approx(0.0, abs=1e-14)

    def test_same_topology_different_rates_nonnegative(self, cfn):
        p1 = parse_newick("((a:0.1,b:0.2):0.15,(c:0.12,d:0.18):0.11,e:0.14);")
        r1 = RateDistribution.two_speed(0.5, 1.5)
        r2 = RateDistribution.two_speed(0.9, 1.1)
        tv = identifiability_witness(p1, p1, r1, r2, cfn)
        assert tv >= 0.0

    def test_label_mismatch_rejected(self, cfn, two_speed):
        p1 = parse_newick("((a:0.1,b:0.2):0.15,c:0.14);")
        p2 = parse_newick("((a:0.1,b:0.2):0.15,x:0.14);")
        with pytest.raises(ValueError, match="label"):
            identifiability_witness(p1, p2, two_speed, two_speed, cfn)


class TestClassification:
    def test_null_case_no_spurious_signal(self, jc):
        # identical speeds: accuracy should hover around coin-flipping
        rates = RateDistribution.constant()
        tree = generate_complete_binary(8, 0.2)
        params = RegularityParams(0.2, 0.2, 1.5)
        pairs = oracle_sparsify(tree, params, m=1.05)
        aln = simulate_alignment(tree, jc, rates, 4000, seed=13)
        report = site_classification_report(aln, pairs, tree)
        assert 0.4 < report.accuracy < 0.6

    def test_small_tree_reported_not_asserted(self, jc, two_speed):
        tree = generate_complete_binary(4, 0.2)
        params = RegularityParams(0.2, 0.2, 1.5)
        m = two_speed.phi_inverse(np.exp(-1.0))
        pairs = oracle_sparsify(tree, params, m)
        aln = simulate_alignment(tree, jc, two_speed, 2000, seed=15)
        report = site_classification_report(aln, pairs, tree)
        assert 0.0 <= report.accuracy <= 1.0  # markedly lower; just recorded
        assert report.n_slow + report.n_fast == aln.k

    def test_missing_sidecar_rejected(self, jc, two_speed):
        tree = generate_complete_binary(4, 0.2)
        params = RegularityParams(0.2, 0.2, 1.5)
        pairs = oracle_sparsify(tree, params, m=1.0)
        aln = simulate_alignment(tree, jc, two_speed, 100, seed=17)
        with pytest.raises(ValueError, match="sidecar"):
            site_classification_report(aln.without_lambdas(), pairs, tree)

    def test_monotone_benefit_of_n(self, jc, two_speed):
        # median accuracy nondecreasing across doubling tree sizes
        params = RegularityParams(0.2, 0.2, 1.5)
        m = two_speed.phi_inverse(np.exp(-1.0))
        medians = []
        for h in (6, 8, 10):
            tree = generate_complete_binary(h, 0.2)
            pairs = oracle_sparsify(tree, params, m)
            accs = []
            for seed in range(3):
                aln = simulate_alignment(tree, jc, two_speed, 20_000,
                                         seed=100 * h + seed)
                accs.append(site_classification_report(aln, pairs,
                                                       tree).accuracy)
            medians.append(float(np.median(accs)))
        assert medians[0] <= medians[1] <= medians[2]
