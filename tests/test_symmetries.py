"""The pipeline's exact symmetries, as an oracle that works at any n.

The model draws i.i.d. site rates on one tree under the symmetric
r-state model, so the order of the sites, the names of the states and
the order of the leaves carry nothing:

- permuting the sites permutes ``u_values`` and changes nothing else;
- relabelling the states under the uniform model changes nothing;
- permuting the leaves permutes the pair set and ``dhat`` and gives the
  same tree once the labels are mapped back.

The agreement counts are exact integers, so "changes nothing" means
equal bytes.  Leaf ids break ties in two orders: sparsify's order of the
candidate pairs by agreement, and reconstruction's order of the pairs by
distance.  A permutation of the leaves can therefore pick another of two
tied pairs, so the leaf check runs on instances with no ties in either
order, and asserts that they have none.  At n=64 every instance has
hundreds of tied distances; the site and state checks, which keep every
id, run at n=64 and 128.
"""

import numpy as np
import pytest

from rasphy import (Alignment, PipelineConfig, RateDistribution,
                    RegularityParams, SubstitutionModel, Topology,
                    agreement_matrix, close_pairs, generate_random_regular,
                    robinson_foulds, run_pipeline, simulate_alignment)
from rasphy.clustering import ClusteringThresholds

REG = RegularityParams(0.1, 0.2, 1.5)
RATES = RateDistribution.two_speed(0.5, 1.5)
CFG = PipelineConfig(reg=REG, rates=RATES)
INSTANCES = ["n64-r4", "n64-r3", "n128-r4", "n32-k100"]


def _simulated(n, k, r, seed):
    tree = generate_random_regular(n, REG, seed=seed)
    aln = simulate_alignment(tree, SubstitutionModel.uniform(r), RATES, k,
                             seed=seed + 1)
    return tree, aln.without_lambdas()


def _outputs(report):
    """Everything a run gives but its timings, as comparable values."""
    record = report.to_record()
    for stage in record["stages"].values():
        del stage["seconds"]
    return (record,
            None if report.topology is None else report.topology.to_newick(),
            None if report.dhat is None else report.dhat.values.tobytes(),
            None if report.pair_set is None else report.pair_set.pairs,
            str(report.error))


@pytest.fixture(scope="module")
def runs():
    """Each instance's tree, alignment and report, by name: three that
    succeed, with sign planes (r=4) and one-hot planes (r=3), and one
    with too few sites that fails at a stage."""
    out = {}
    for name, n, k, r, seed in (("n64-r4", 64, 20_000, 4, 0),
                                ("n64-r3", 64, 20_000, 3, 1),
                                ("n128-r4", 128, 20_000, 4, 0),
                                ("n32-k100", 32, 100, 4, 7)):
        tree, aln = _simulated(n, k, r, seed)
        out[name] = tree, aln, run_pipeline(aln, CFG, truth=tree)
    return out


def test_instances_succeed_and_fail_where_chosen(runs):
    assert runs["n64-r4"][2].rf_distance == 0
    assert runs["n64-r3"][2].rf_distance == 0
    assert runs["n128-r4"][2].rf_distance == 0
    assert runs["n32-k100"][2].error.stage == "reconstruct_topology"


@pytest.mark.parametrize("name", INSTANCES)
def test_site_order_changes_nothing(runs, name):
    tree, aln, want = runs[name]
    perm = np.random.default_rng(1).permutation(aln.k)
    got = run_pipeline(Alignment(aln.data[perm], aln.r), CFG, truth=tree)
    assert _outputs(got) == _outputs(want)
    assert got.u_values.tobytes() == want.u_values[perm].tobytes()


@pytest.mark.parametrize("name", INSTANCES)
def test_state_labels_change_nothing(runs, name):
    tree, aln, want = runs[name]
    perm = np.random.default_rng(2).permutation(aln.r).astype(np.uint8)
    assert (perm != np.arange(aln.r)).any()
    got = run_pipeline(Alignment(perm[aln.data], aln.r), CFG, truth=tree)
    assert _outputs(got) == _outputs(want)
    assert got.u_values.tobytes() == want.u_values.tobytes()


def _ordered_values(aln, report):
    """The values whose ties leaf ids break: the candidate pairs'
    agreements, which sparsify sorts, and the finite distances, which
    reconstruction sorts."""
    q = agreement_matrix(aln, SubstitutionModel.uniform(aln.r))
    candidates = close_pairs(q, ClusteringThresholds.for_max_edge(
        REG.max_edge))
    agreements = np.array([q[a, b] for a, b in candidates])
    if report.dhat is None:
        return agreements, np.array([])
    d = report.dhat.values[np.triu_indices(aln.n, 1)]
    return agreements, d[np.isfinite(d)]


@pytest.fixture(scope="module")
def leaf_runs():
    """One instance that succeeds and one that fails at sparsify, its
    independent uniform columns leaving no pair close."""
    _, ok = _simulated(16, 20_000, 4, 3)
    rng = np.random.default_rng(0)
    empty = Alignment(rng.integers(0, 4, (2000, 16)).astype(np.uint8), 4)
    return {"n16": (ok, run_pipeline(ok, CFG)),
            "n16-independent": (empty, run_pipeline(empty, CFG))}


@pytest.mark.parametrize("name", ["n16", "n16-independent"])
def test_leaf_order_permutes_the_outputs(leaf_runs, name):
    aln, want = leaf_runs[name]
    for values in _ordered_values(aln, want):
        assert np.unique(values).size == values.size, "tied values"
    perm = np.random.default_rng(3).permutation(aln.n)
    got = run_pipeline(Alignment(aln.data[:, perm], aln.r), CFG)
    # the record holds each stage's status, counts and reason
    assert _outputs(got)[0] == _outputs(want)[0]
    if want.error is not None:
        assert want.error.stage == "sparsify"
        return
    assert got.u_values.tobytes() == want.u_values.tobytes()
    # column j of the permuted alignment is leaf perm[j]
    assert sorted(tuple(sorted((perm[a], perm[b]))) for a, b in got.pair_set
                  ) == list(want.pair_set.pairs)
    assert got.dhat.values.tobytes() == (
        want.dhat.values[np.ix_(perm, perm)].tobytes())
    mapped = Topology(got.topology.edges, [
        f"leaf_{perm[int(label.removeprefix('leaf_'))]}"
        for label in got.topology.labels])
    assert robinson_foulds(mapped, want.topology) == 0
