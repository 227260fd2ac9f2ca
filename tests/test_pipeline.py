import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rasphy.clustering
import rasphy.pipeline
import rasphy.reconstruct
import rasphy.trees
from rasphy import (AmbiguousCherry, EmptyPairSet, PipelineConfig,
                    PipelineError, RateDistribution, RegularityParams,
                    SubstitutionModel,
                    generate_complete_binary,
                    generate_random_regular, identifiability_witness,
                    oracle_sparsify, parse_newick, run_pipeline,
                    simulate_alignment, site_classification_report)

REG = RegularityParams(0.1, 0.2, 1.5)
STAGES = ["agreement_matrix", "close_pairs", "sparsify", "site_statistics",
          "derive_params", "bin_sites", "select_abundant", "bin_agreement",
          "distorted_metric", "reconstruct_topology"]
# the report field each stage fills, for the stages that fill one
FIELDS = {"sparsify": "pair_set", "site_statistics": "u_values",
          "derive_params": "bin_params", "bin_sites": "assignment",
          "select_abundant": "abundant_bin", "distorted_metric": "dhat",
          "reconstruct_topology": "topology"}


def make_instance(n=32, k=20_000, seed=0, rates=None, r=4):
    rates = rates or RateDistribution.two_speed(0.5, 1.5)
    model = SubstitutionModel.uniform(r)
    tree = generate_random_regular(n, REG, seed=seed)
    aln = simulate_alignment(tree, model, rates, k, seed=seed + 1)
    return tree, aln, rates


def _same(got, want):
    """Equal values, with arrays and dataclass fields compared by bytes."""
    if isinstance(want, np.ndarray):
        return got.tobytes() == want.tobytes()
    if dataclasses.is_dataclass(want):
        return all(_same(getattr(got, f.name), getattr(want, f.name))
                   for f in dataclasses.fields(want))
    return got == want


@pytest.fixture(scope="module")
def full_run():
    tree, aln, rates = make_instance(n=24, k=10_000, seed=5)
    cfg = PipelineConfig(reg=REG, rates=rates)
    return aln, cfg, run_pipeline(aln, cfg)


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
        # the record holds only plain Python values, so report.txt never
        # shows a numpy scalar repr such as "np.float64(...)"; type(), not
        # isinstance, since np.float64 subclasses float
        record = report.to_record()
        assert list(record) == ["stages", "summary", "params",
                                "certificate", "distortion"]
        todo = [record]
        while todo:
            value = todo.pop()
            if type(value) is dict:
                assert all(type(key) is str for key in value)
                todo.extend(value.values())
            elif type(value) is list:
                todo.extend(value)
            else:
                assert type(value) in (str, int, float, bool), repr(value)

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

    def test_raise_if_failed_raises_the_recorded_error(self):
        tree, aln, rates = make_instance(n=32, k=100, seed=7)
        report = run_pipeline(aln, PipelineConfig(reg=REG, rates=rates))
        with pytest.raises(PipelineError) as info:
            report.raise_if_failed()
        assert info.value is report.error
        assert info.value.stage == "reconstruct_topology"
        assert info.value.hint == "increase k or loosen the trust cap"
        assert isinstance(info.value.cause, AmbiguousCherry)

    def test_statistical_failure_without_hint_propagates(self, monkeypatch):
        # agreement_matrix has no hint, so it is not meant to fail
        # statistically: such a failure is a bug and is not recorded
        tree, aln, rates = make_instance(n=16, k=2000, seed=9)

        def empty(*args, **kwargs):
            raise EmptyPairSet("no pairs")

        monkeypatch.setattr(rasphy.clustering, "agreement_matrix", empty)
        with pytest.raises(EmptyPairSet, match="no pairs"):
            run_pipeline(aln, PipelineConfig(reg=REG, rates=rates))

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

    def test_tree_metric_computed_once(self, monkeypatch):
        # count calls through every rasphy namespace that imported it
        calls = []
        original = rasphy.trees.tree_metric

        def counted(p):
            calls.append(p)
            return original(p)

        for name, mod in list(sys.modules.items()):
            if (name == "rasphy" or name.startswith("rasphy.")) and \
                    getattr(mod, "tree_metric", None) is original:
                monkeypatch.setattr(mod, "tree_metric", counted)
        tree, aln, rates = make_instance(n=24, k=10_000, seed=5)
        report = run_pipeline(aln, PipelineConfig(reg=REG, rates=rates),
                              truth=tree)
        report.raise_if_failed()
        assert report.certificate is not None
        assert report.distortion is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("stage", STAGES)
    def test_stop_after_a_stage(self, full_run, stage):
        # the stages up to and including ``stage`` run and fill their
        # fields as the full run does; the later ones leave no trace
        aln, cfg, full = full_run
        report = run_pipeline(aln, cfg, stop_after=stage)
        assert report.ok
        done = STAGES[:STAGES.index(stage) + 1]
        assert [rec.name for rec in report.stages] == done
        assert [(rec.status, rec.detail) for rec in report.stages] == [
            (rec.status, rec.detail) for rec in full.stages[:len(done)]]
        for name, attr in FIELDS.items():
            if name in done:
                assert _same(getattr(report, attr), getattr(full, attr)), attr
            else:
                assert getattr(report, attr) is None, attr

    def test_stop_after_an_unknown_stage(self, full_run):
        aln, cfg, _ = full_run
        with pytest.raises(ValueError, match="unknown stage"):
            run_pipeline(aln, cfg, stop_after="bin_size")

    def test_failed_run_skips_only_up_to_stop_after(self):
        # the instance of test_empty_pair_set_is_recorded_at_sparsify
        tree = generate_complete_binary(5, 0.9)
        rates = RateDistribution.constant()
        aln = simulate_alignment(tree, SubstitutionModel.uniform(4), rates,
                                 2000, seed=1)
        report = run_pipeline(aln, PipelineConfig(reg=REG, rates=rates),
                              truth=tree, stop_after="site_statistics")
        assert report.error.stage == "sparsify"
        assert [(rec.name, rec.status) for rec in report.stages] == [
            ("agreement_matrix", "ok"), ("close_pairs", "ok"),
            ("sparsify", "failed"), ("site_statistics", "skipped")]

    def test_reconstruction_starts_with_one_live_matrix(self, monkeypatch):
        # in units of n^2 float64: the agreement matrix and the bin
        # agreement are freed once read for the last time, so what is
        # live when reconstruction starts is about its input alone
        n = 512
        tree, aln, rates = make_instance(n=n, k=20_000, seed=2)
        real = rasphy.reconstruct.reconstruct_topology
        live = []

        def spy(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(rasphy.reconstruct, "reconstruct_topology", spy)
        tracemalloc.start()
        try:
            report = run_pipeline(aln, PipelineConfig(reg=REG, rates=rates))
        finally:
            tracemalloc.stop()
        report.raise_if_failed()
        assert len(live) == 1
        assert live[0] / (8 * n * n) < 1.5

    def test_truth_leaf_count_must_match_alignment(self, monkeypatch):
        tree16, aln16, rates = make_instance(n=16, k=500, seed=9)
        tree20, aln20, _ = make_instance(n=20, k=500, seed=9)
        cfg = PipelineConfig(reg=REG, rates=rates)
        # the check comes before any stage: none may run
        monkeypatch.setattr(rasphy.pipeline, "_STAGES", ())
        with pytest.raises(ValueError, match="20 leaves .* has 16"):
            run_pipeline(aln16, cfg, truth=tree20)
        with pytest.raises(ValueError, match="16 leaves .* has 20"):
            run_pipeline(aln20, cfg, truth=tree16)

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

    def test_outputs_do_not_depend_on_blas_threads(self):
        # the agreement counts are exact whatever order BLAS sums in, so
        # one BLAS thread and BLAS's own choice give the same bytes
        script = (
            "import hashlib\n"
            "import rasphy as rp\n"
            "reg = rp.RegularityParams(0.1, 0.2, 1.5)\n"
            "rates = rp.RateDistribution.two_speed(0.5, 1.5)\n"
            "tree = rp.generate_random_regular(64, reg, seed=11)\n"
            "aln = rp.simulate_alignment(\n"
            "    tree, rp.SubstitutionModel.uniform(4), rates, 20_000, 12)\n"
            "report = rp.run_pipeline(\n"
            "    aln, rp.PipelineConfig(reg=reg, rates=rates), truth=tree)\n"
            "report.raise_if_failed()\n"
            "for out in (report.topology.to_newick().encode(),\n"
            "            report.dhat.values.tobytes(),\n"
            "            report.u_values.tobytes()):\n"
            "    print(hashlib.sha256(out).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(rasphy.pipeline.__file__))
        inherited = dict(os.environ)
        inherited["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, inherited.get("PYTHONPATH")]))
        single = dict(inherited, OPENBLAS_NUM_THREADS="1",
                      OMP_NUM_THREADS="1")
        digests = []
        for env in (single, inherited):
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 3
        assert digests[0] == digests[1]


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
