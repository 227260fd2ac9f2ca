import hashlib
import heapq
import tracemalloc

import numpy as np
import pytest

from rasphy import (AmbiguousCherry, DisconnectedTrustGraph,
                    DistortedMetric, ReconstructionConfig,
                    end_to_end_contract_check, generate_complete_binary,
                    generate_random_regular, inject_distortion, parse_newick,
                    reconstruct_topology, robinson_foulds, tree_metric)
from rasphy import reconstruct

NOISELESS = ReconstructionConfig(trust_cap=np.inf, tau=0.0)


def _four_subtrees(size, reg):
    """Four random ``size``-leaf subtrees joined by 0.01 edges."""
    parts = [generate_random_regular(size, reg, seed=s).to_newick()
             .rstrip(";").replace("leaf_", f"s{s}_") for s in range(4)]
    return parse_newick(f"(({parts[0]}:0.01,{parts[1]}:0.01):0.01,"
                        f"({parts[2]}:0.01,{parts[3]}:0.01):0.01);")


class TestNoiseless:
    def test_exact_quartet(self, quartet):
        d = tree_metric(quartet)
        topo = reconstruct_topology(d, NOISELESS, labels=quartet.labels)
        assert topo == quartet.topology()

    def test_caterpillar_eight(self):
        text = "(a:1,(b:1,(c:1,(d:1,(e:1,(f:1,(g:1,h:1):1):1):1):1):1):1);"
        cat = parse_newick(text)
        topo = reconstruct_topology(tree_metric(cat), NOISELESS,
                                    labels=cat.labels)
        assert robinson_foulds(topo, cat) == 0
        # any labels are named by ``str``, as ``Phylogeny`` names them
        named = reconstruct_topology(tree_metric(cat), NOISELESS,
                                     labels=[str(i) for i in range(8)])
        for labels in (list(range(8)), np.arange(8)):
            assert reconstruct_topology(tree_metric(cat), NOISELESS,
                                        labels=labels) == named

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_random_trees_rf_zero(self, n, reg_01_02):
        for seed in range(3):
            tree = generate_random_regular(n, reg_01_02, seed=seed)
            topo = reconstruct_topology(tree_metric(tree), NOISELESS,
                                        labels=tree.labels)
            assert robinson_foulds(topo, tree) == 0

    def test_determinism(self, reg_01_02):
        tree = generate_random_regular(24, reg_01_02, seed=5)
        d = tree_metric(tree)
        one = reconstruct_topology(d, NOISELESS, labels=tree.labels)
        two = reconstruct_topology(d, NOISELESS, labels=tree.labels)
        assert one.to_newick() == two.to_newick()


class TestDistorted:
    def test_synthetic_distortion_recovers(self, reg_01_02):
        f, g = reg_01_02.min_edge, reg_01_02.max_edge
        n = 64
        psi = 5 * g * np.log(n)
        cfg = ReconstructionConfig(trust_cap=psi, tau=f / 10)
        for seed in range(20):
            tree = generate_random_regular(n, reg_01_02, seed=seed)
            dhat = inject_distortion(tree_metric(tree), f / 10, psi,
                                     seed=seed + 1)
            topo = reconstruct_topology(dhat, cfg, labels=tree.labels)
            assert robinson_foulds(topo, tree) == 0

    def test_contract_check_exact_is_certain(self, reg_01_02):
        tree = generate_random_regular(16, reg_01_02, seed=1)
        cfg = ReconstructionConfig(trust_cap=np.inf, tau=0.0)
        rate = end_to_end_contract_check(tree, cfg, 0.0, np.inf,
                                         seeds=range(5))
        assert rate == 1.0

    def test_contract_check_rescaled_metric(self, reg_01_02):
        # an unknown positive rescale with config scaled along is harmless
        tree = generate_random_regular(32, reg_01_02, seed=2)
        lam = 0.37
        f, g = reg_01_02.min_edge, reg_01_02.max_edge
        psi = 5 * lam * g * np.log(32)
        cfg = ReconstructionConfig(trust_cap=psi, tau=lam * f / 5)
        rate = end_to_end_contract_check(tree, cfg, lam * f / 5, psi,
                                         seeds=range(10), lam_scale=lam)
        assert rate >= 0.9

    def test_out_of_contract_never_crashes(self, reg_01_02):
        # tau = 2f violates the contract: failures are allowed, crashes not
        f, g = reg_01_02.min_edge, reg_01_02.max_edge
        tree = generate_random_regular(32, reg_01_02, seed=3)
        psi = 5 * g * np.log(32)
        cfg = ReconstructionConfig(trust_cap=psi, tau=2 * f / 5)
        rate = end_to_end_contract_check(tree, cfg, 2 * f, psi,
                                         seeds=range(5))
        assert 0.0 <= rate <= 1.0

    def test_scale_invariance(self, reg_01_02):
        for seed in range(10):
            tree = generate_random_regular(20, reg_01_02, seed=seed)
            d = tree_metric(tree)
            psi = 5 * reg_01_02.max_edge * np.log(20)
            dhat = inject_distortion(d, 0.01, psi, seed=seed).values
            cfg1 = ReconstructionConfig(trust_cap=psi, tau=0.01)
            scale = 7.3
            cfg2 = ReconstructionConfig(trust_cap=scale * psi,
                                        tau=scale * 0.01)
            one = reconstruct_topology(dhat, cfg1, labels=tree.labels)
            two = reconstruct_topology(scale * dhat, cfg2, labels=tree.labels)
            assert one == two


class TestErrors:
    def test_disconnected_trust_graph(self):
        d = np.full((5, 5), np.inf)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(DisconnectedTrustGraph):
            reconstruct_topology(d, ReconstructionConfig(trust_cap=1.0))
        # the data-driven cap, 0.1 nudged up by one ulp, is below 4*tau
        d = np.full((5, 5), 0.1)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(DisconnectedTrustGraph) as exc:
            reconstruct_topology(d, ReconstructionConfig(tau=0.1))
        assert str(exc.value) == ("data-driven trust cap 0.10000000000000002"
                                  " does not exceed 4*tau=0.4")

    def test_ambiguous_cherry_on_star(self):
        d = np.full((4, 4), 2.0)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(AmbiguousCherry):
            reconstruct_topology(d, ReconstructionConfig(trust_cap=10.0,
                                                         tau=0.0))

    def test_too_few_leaves(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError, match="4 leaves"):
            reconstruct_topology(d, NOISELESS)

    def test_labels_must_match_leaf_count(self, reg_01_02):
        tree = generate_random_regular(8, reg_01_02, seed=0)
        for labels in (tree.labels[:6], [*tree.labels, "x", "y"]):
            with pytest.raises(ValueError, match=f"{len(labels)} labels "
                                                 "for 8 leaves"):
                reconstruct_topology(tree_metric(tree), NOISELESS,
                                     labels=labels)

    def test_raw_array_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            reconstruct_topology(np.zeros((5, 4)), NOISELESS)

    def test_raw_array_must_be_symmetric(self, reg_01_02):
        tree = generate_random_regular(8, reg_01_02, seed=0)
        d = tree_metric(tree)
        d[0, 5] += 0.05
        with pytest.raises(ValueError, match="symmetric"):
            reconstruct_topology(d, NOISELESS)
        for upper, lower in ((np.inf, 0.3), (-np.inf, np.inf)):
            d = tree_metric(tree)
            d[2, 3], d[3, 2] = upper, lower
            with pytest.raises(ValueError, match="symmetric"):
                reconstruct_topology(d, NOISELESS)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="trust_cap"):
            ReconstructionConfig(trust_cap=0.4, tau=0.1)
        with pytest.raises(ValueError, match="witness"):
            ReconstructionConfig(witness_count=1)
        for tau in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                ReconstructionConfig(tau=tau)
        for count in (2.5, 6.0, "6"):
            with pytest.raises(ValueError, match="witness_count"):
                ReconstructionConfig(witness_count=count)
        ReconstructionConfig(tau=0.01, witness_count=np.int64(6))


class TestInjectDistortion:
    def test_validity_of_injected_distortion(self, reg_01_02):
        from rasphy import verify_distortion
        tree = generate_random_regular(24, reg_01_02, seed=7)
        d = tree_metric(tree)
        tau, psi = 0.02, 1.5
        dhat = inject_distortion(d, tau, psi, seed=8)
        assert verify_distortion(dhat, d, tau, psi).ok

    def test_zero_tau_keeps_exact_entries(self, reg_01_02):
        tree = generate_random_regular(12, reg_01_02, seed=9)
        d = tree_metric(tree)
        dhat = inject_distortion(d, 0.0, np.inf, seed=1).values
        assert np.array_equal(dhat, d)


def _block(dist: dict) -> list:
    """Rows of the symmetric block over the letters named in ``dist``,
    in alphabetical order, from ``{"xy": d[x, y]}``; 0 on the diagonal."""
    names = sorted(set("".join(dist)))
    return [[0.0 if x == y else dist.get(x + y, dist.get(y + x))
             for y in names] for x in names]


# ab|ce with every edge 1: s1 = 4, s2 = s3 = 6
_QUARTET = {"ab": 2.0, "ce": 2.0, "ac": 3.0, "ae": 3.0, "bc": 3.0, "be": 3.0}
# three witnesses c, e, f, each 3 from a and from b
_FIVE = {"ab": 2.0, "ac": 3.0, "ae": 3.0, "af": 3.0, "bc": 3.0, "be": 3.0,
         "bf": 3.0}


@pytest.mark.parametrize("dist, floor, want", [
    (_QUARTET, 1.0, (True, True)),
    ({**_QUARTET, "ac": 2.0, "be": 2.0}, 0.0, (True, False)),
    (_QUARTET, 2.0, (True, False)),
    ({**_QUARTET, "ab": 3.0, "ce": 3.0, "ac": 2.0, "be": 2.0}, 0.0,
     (True, False)),
    ({**_FIVE, "ce": 10.0, "cf": np.inf, "ef": np.nan}, 0.0, (False, False)),
    ({**_FIVE, "ce": 2.0, "cf": np.inf, "ef": 2.0}, 1.0, (True, True)),
], ids=["wins-above-floor", "tie-at-floor-0", "margin-equals-floor",
        "s1-not-smallest", "no-pair-below-cap", "untrusted-pair-skipped"])
def test_cherry_rule(dist, floor, want):
    # the cap is 10: a witness pair at or past it, or NaN, is not trusted
    assert reconstruct._test_cherry(_block(dist), 10.0, floor) == want


def _decision_digest(monkeypatch, dhat, cfg) -> str:
    """sha256 of every merge's ``(d[a, b], h_a, h_b)`` and pseudo-leaf
    row, in merge order, then the outcome: the Newick text, or the
    exception class and message."""
    h = hashlib.sha256()
    real = reconstruct._pseudo_leaf_row

    def spy(dac, dbc, dab, h_a, h_b):
        row = real(dac, dbc, dab, h_a, h_b)
        h.update(np.array([dab, h_a, h_b], dtype="<f8").tobytes())
        h.update(row.astype("<f8").tobytes())
        return row

    monkeypatch.setattr(reconstruct, "_pseudo_leaf_row", spy)
    try:
        outcome = reconstruct_topology(dhat, cfg).to_newick()
    except (AmbiguousCherry, DisconnectedTrustGraph) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    h.update(outcome.encode())
    return h.hexdigest()


class TestDecisionPins:
    """Every merge decision, apex height and pseudo-leaf row, pinned at
    sizes the reference oracle does not reach."""

    def test_random_tree(self, monkeypatch, reg_01_02):
        n = 2048
        tree = generate_random_regular(n, reg_01_02, seed=11)
        dhat = inject_distortion(tree_metric(tree), 0.01,
                                 5 * reg_01_02.max_edge * np.log(n), seed=3)
        assert _decision_digest(
            monkeypatch, dhat, ReconstructionConfig(tau=0.01)) == (
            "eba52bd586e1ab8ee4d09742175c6b4d98fea2b2776d669e0194336d4cb025ef")

    def test_random_tree_witness_calls(self, monkeypatch, reg_01_02):
        # the cache of failed verdicts does the same work: a failed
        # candidate is tested again only once its witness list changed
        n = 2048
        tree = generate_random_regular(n, reg_01_02, seed=11)
        dhat = inject_distortion(tree_metric(tree), 0.01,
                                 5 * reg_01_02.max_edge * np.log(n), seed=3)
        real = reconstruct._witnesses
        calls = []

        def spy(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(reconstruct, "_witnesses", spy)
        reconstruct_topology(dhat, ReconstructionConfig(tau=0.01))
        assert len(calls) == 2173

    def test_ties_decide(self, monkeypatch):
        # every edge 0.2, exact distances: most candidates tie, and the
        # order (value, lower id, higher id) picks the merge
        tree = generate_complete_binary(10, 0.2)
        assert _decision_digest(
            monkeypatch, tree_metric(tree), ReconstructionConfig()) == (
            "420d3d62ee5e67f30d35640b0159c1a52092560be8cd57ce802f153b587f1510")

    def test_failure(self, monkeypatch, reg_01_02):
        # a short trust horizon: DisconnectedTrustGraph with 7 nodes left
        tree = generate_random_regular(1024, reg_01_02, seed=5)
        dhat = inject_distortion(tree_metric(tree), 0.01, 1.2, seed=3)
        assert _decision_digest(
            monkeypatch, dhat, ReconstructionConfig(tau=0.01)) == (
            "6d2e14c731d3d0a955582ef35f8fe912837c846d6c89dd35794e19134bcdf7b9")


class TestQueueCost:
    def test_failure_at_the_top_pops_few(self, monkeypatch, reg_01_02):
        # four 128-leaf subtrees joined by 0.01 edges, below 4*tau: the
        # subtrees resolve and the top fails with 8 nodes left, when
        # almost every pair in the queue holds a merged node
        tree = _four_subtrees(128, reg_01_02)
        n = tree.n_leaves
        real = heapq.heappop
        pops = []

        def spy(heap):
            pops.append(None)
            return real(heap)

        monkeypatch.setattr(heapq, "heappop", spy)
        with pytest.raises(AmbiguousCherry, match="with 8 nodes left"):
            reconstruct_topology(tree_metric(tree),
                                 ReconstructionConfig(tau=0.02))
        assert len(pops) < n * (n - 1) // 20

    def test_merged_runs_are_freed(self, monkeypatch, reg_01_02):
        # a merged node's run goes at its merge, not when its head
        # reaches the top of the heap
        queues = []
        real = reconstruct._CandidateQueue.__init__

        def spy(self, *args):
            real(self, *args)
            queues.append(self)

        monkeypatch.setattr(reconstruct._CandidateQueue, "__init__", spy)
        tree = generate_random_regular(256, reg_01_02, seed=1)
        reconstruct_topology(tree_metric(tree), ReconstructionConfig())
        (queue,) = queues
        assert all(queue._alive[b] for b in queue._runs)

    def test_traced_peak(self, reg_01_02):
        # in units of n^2 float64; the (n, n) working matrix is 1 of them,
        # the candidate runs at most 0.75
        n = 512
        tree = generate_random_regular(n, reg_01_02, seed=0)
        dhat = inject_distortion(tree_metric(tree), 0.01,
                                 5 * reg_01_02.max_edge * np.log(n), seed=0)
        tracemalloc.start()
        try:
            reconstruct_topology(dhat, ReconstructionConfig(tau=0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) < 3


class TestVerdictRule:
    """A failed candidate's verdict stands exactly when a fresh witness
    list equals the one it failed with, at n=512 where slots are reused."""

    @staticmethod
    def _checks(monkeypatch, dhat, cfg) -> dict:
        real = reconstruct._verdict_stands
        seen = {True: 0, False: 0}

        def spy(d, slot, alive, x, y, w, products, cap, count):
            stands = real(d, slot, alive, x, y, w, products, cap, count)
            act = np.flatnonzero(alive)
            fresh = reconstruct._witnesses(d, slot, act, slot[act], x, y,
                                           cap, count)
            assert stands == (tuple(fresh.tolist()) == w), (x, y, w)
            seen[stands] += 1
            return stands

        monkeypatch.setattr(reconstruct, "_verdict_stands", spy)
        try:
            reconstruct_topology(dhat, cfg)
        except (AmbiguousCherry, DisconnectedTrustGraph):
            pass
        return seen

    def test_failure_at_the_top(self, monkeypatch, reg_01_02):
        tree = _four_subtrees(128, reg_01_02)
        seen = self._checks(monkeypatch, tree_metric(tree),
                            ReconstructionConfig(tau=0.02))
        assert seen[True] > 0 and seen[False] > 0

    def test_noisy(self, monkeypatch, reg_01_02):
        n = 512
        tree = generate_random_regular(n, reg_01_02, seed=0)
        dhat = inject_distortion(tree_metric(tree), 0.01,
                                 5 * reg_01_02.max_edge * np.log(n), seed=0)
        seen = self._checks(monkeypatch, dhat, ReconstructionConfig(tau=0.01))
        assert seen[True] > 0 and seen[False] > 0

    def test_ties(self, monkeypatch):
        # every edge 0.2, exact distances: witness keys tie, and a trust
        # cap of 1.3 lets some candidates fail
        tree = generate_complete_binary(9, 0.2)
        seen = self._checks(monkeypatch, tree_metric(tree),
                            ReconstructionConfig(trust_cap=1.3))
        assert seen[True] > 0 and seen[False] > 0


class TestInputUntouched:
    """The input matrix is the pipeline's ``report.dhat``, which
    ``distances.txt`` is written from; reconstruction works on a copy."""

    @staticmethod
    def _check(dhat, cfg, raises=None):
        before = dhat.values.tobytes()
        if raises is None:
            reconstruct_topology(dhat, cfg)
        else:
            with pytest.raises(raises):
                reconstruct_topology(dhat, cfg)
        assert dhat.values.tobytes() == before

    def test_success(self, reg_01_02):
        n = 256
        tree = generate_random_regular(n, reg_01_02, seed=4)
        dhat = inject_distortion(tree_metric(tree), 0.01,
                                 5 * reg_01_02.max_edge * np.log(n), seed=4)
        self._check(dhat, ReconstructionConfig(tau=0.01))

    def test_ambiguous_cherry(self, reg_01_02):
        # the top fails after many merges have reused slots
        tree = _four_subtrees(32, reg_01_02)
        self._check(DistortedMetric(values=tree_metric(tree)),
                    ReconstructionConfig(tau=0.02), raises=AmbiguousCherry)
