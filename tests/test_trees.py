import hashlib
import itertools

import numpy as np
import pytest

from rasphy import (NewickError, Phylogeny, ReconstructionConfig,
                    RegularityParams, Topology, four_point_topology,
                    generate_complete_binary, generate_random_regular,
                    inject_distortion, parse_newick, paths_disjoint,
                    reconstruct_topology, robinson_foulds, tree_metric)

from conftest import brute_force_splits


class TestNewick:
    def test_quartet_round_trip(self, quartet):
        assert quartet.labels == ("a", "b", "c", "d")
        assert quartet.n_vertices == 6
        assert len(quartet.edges) == 5
        # the two root edges merged into the internal edge of weight 2
        internal = [w for u, v, w in quartet.edges
                    if u >= 4 and v >= 4]
        assert internal == [2.0]
        again = parse_newick(quartet.to_newick())
        assert np.allclose(tree_metric(again), tree_metric(quartet))
        assert again.labels == quartet.labels

    def test_round_trip_preserves_weights_exactly(self, five_leaf):
        again = parse_newick(five_leaf.to_newick())
        assert np.array_equal(tree_metric(again), tree_metric(five_leaf))

    def test_two_leaves_rejected(self):
        with pytest.raises(NewickError, match="fewer than 3 leaves"):
            parse_newick("(a:1,b:1);")

    def test_nonpositive_branch_length(self):
        with pytest.raises(NewickError, match="nonpositive") as err:
            parse_newick("((a:0,b:1):1,c:1);")
        assert err.value.position == 4  # points at the "0"

    def test_missing_branch_length(self):
        with pytest.raises(NewickError, match="missing branch length"):
            parse_newick("((a,b:1):1,c:1);")

    def test_malformed_syntax_positions(self):
        with pytest.raises(NewickError, match="character"):
            parse_newick("((a:1,b:1:1,c:1);")
        with pytest.raises(NewickError, match="terminator"):
            parse_newick("((a:1,b:1):1,c:1)")

    def test_non_binary_rejected(self):
        with pytest.raises(NewickError, match="not binary"):
            parse_newick("((a:1,b:1,c:1,d:1):1,e:1,f:1);")
        with pytest.raises(NewickError, match="not binary"):
            parse_newick("(a:1,b:1,c:1,d:1);")
        # the error points at the offending group, not at the root
        with pytest.raises(NewickError, match="not binary") as err:
            parse_newick("((a:1,b:1,c:1):1,d:1,e:1);")
        assert err.value.position == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(NewickError, match="duplicate"):
            parse_newick("((a:1,a:1):1,c:1);")


def _caterpillar(labels):
    """Caterpillar with ``labels[0]`` and ``labels[1]`` in the deep cherry
    and the last two labels beside the root vertex n."""
    n = len(labels)
    text = f"({labels[0]}:1,{labels[1]}:1)"
    for lab in labels[2:n - 2]:
        text = f"({lab}:1,{text}:1)"
    return parse_newick(f"({labels[-2]}:1,{labels[-1]}:1,{text}:1);")


class TestStructure:
    def test_two_components_rejected(self):
        # every degree and the edge count are right: a triangle 6-7-8
        # carrying leaves a, b, c, and a star at 9 carrying d, e, f
        edges = [(6, 7, 1.0), (7, 8, 1.0), (8, 6, 1.0), (0, 6, 1.0),
                 (1, 7, 1.0), (2, 8, 1.0), (9, 3, 1.0), (9, 4, 1.0),
                 (9, 5, 1.0)]
        with pytest.raises(ValueError, match="tree is not connected"):
            Phylogeny(edges, "abcdef")

    def test_preorder_edges_cover_tree_parents_first(self, five_leaf):
        edges = five_leaf.preorder_edges()
        reached = {five_leaf.root}
        for parent, child, w in edges:
            assert parent in reached and child not in reached
            reached.add(child)
        assert reached == set(range(five_leaf.n_vertices))
        assert sorted((min(u, v), max(u, v), w) for u, v, w in edges) == \
            sorted((min(u, v), max(u, v), w) for u, v, w in five_leaf.edges)


class TestTreeMetric:
    def test_quartet_hand_sums(self, quartet):
        d = tree_metric(quartet)
        a, b, c, e = (quartet.leaf_id(x) for x in "abcd")
        assert d[a, b] == 2.0
        assert d[a, c] == 4.0
        assert d[c, e] == 2.0
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_complete_binary_by_independent_traversal(self, h):
        mu = 0.3
        tree = generate_complete_binary(h, mu)
        d = tree_metric(tree)
        # independent oracle: hop counts via breadth-first search over the
        # public adjacency, then distance = hops * mu except across the
        # merged root edge, handled by counting it as 2 hops of mu
        n = tree.n_leaves
        for leaf in range(n):
            hops = {leaf: 0.0}
            frontier = [leaf]
            while frontier:
                nxt = []
                for x in frontier:
                    for y, w in tree.neighbors(x):
                        if y not in hops:
                            hops[y] = hops[x] + w
                            nxt.append(y)
                frontier = nxt
            for other in range(n):
                assert d[leaf, other] == pytest.approx(hops[other], abs=1e-12)
        # sisters at 2 mu, antipodal leaves at 2 h mu
        assert d[0, 1] == pytest.approx(2 * mu)
        assert d[0, n - 1] == pytest.approx(2 * h * mu)

    def test_four_point_condition_all_quadruples(self, five_leaf):
        params = RegularityParams(0.1, 0.4, 3.0)
        trees = [five_leaf] + [generate_random_regular(12, params, seed=s)
                               for s in range(3)]
        for tree in trees:
            d = tree_metric(tree)
            for a, b, c, e in itertools.combinations(range(tree.n_leaves), 4):
                s = sorted([d[a, b] + d[c, e], d[a, c] + d[b, e],
                            d[a, e] + d[b, c]])
                assert s[1] == pytest.approx(s[2], abs=1e-12)


def _leaf_distances_from(tree, leaf):
    """Distances from ``leaf`` to every leaf, summed along a walk out
    from ``leaf`` over the public adjacency."""
    dist = np.full(tree.n_vertices, -1.0)
    dist[leaf] = 0.0
    stack = [leaf]
    while stack:
        x = stack.pop()
        for y, w in tree.neighbors(x):
            if dist[y] < 0.0:
                dist[y] = dist[x] + w
                stack.append(y)
    return dist[:tree.n_leaves]


def _per_leaf_walks(tree):
    out = np.array([_leaf_distances_from(tree, leaf)
                    for leaf in range(tree.n_leaves)])
    return (out + out.T) / 2.0


class TestTreeMetricBitwise:
    """``tree_metric`` equals the symmetrised per-leaf walks bit for bit."""

    def assert_bitwise(self, tree):
        got, want = tree_metric(tree), _per_leaf_walks(tree)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_three_leaves(self):
        self.assert_bitwise(parse_newick("(a:0.1,b:0.7,c:1e-3);"))

    def test_caterpillar_eight(self):
        self.assert_bitwise(parse_newick(
            "(a:1,(b:1,(c:1,(d:1,(e:1,(f:1,(g:1,h:1):1):1):1):1):1):1);"))

    @pytest.mark.parametrize("n", [4, 5, 16, 100, 512])
    def test_random_trees_varied_weights(self, n):
        for seed in range(2):
            shape = generate_random_regular(n, RegularityParams(0.1, 0.2, 1.5),
                                            seed=seed)
            rng = np.random.default_rng(seed)
            weights = np.exp(rng.normal(0.0, 3.0, size=len(shape.edges)))
            self.assert_bitwise(Phylogeny(
                [(u, v, float(w)) for (u, v, _), w in zip(shape.edges,
                                                          weights)],
                shape.labels))
            self.assert_bitwise(shape)


class TestGenerators:
    def test_complete_binary_counts(self):
        tree = generate_complete_binary(10, 0.2)
        assert tree.n_leaves == 1024
        assert tree.n_vertices == 2 * 1024 - 2

    def test_complete_binary_smallest(self):
        tree = generate_complete_binary(2, 0.1)
        assert tree.n_leaves == 4
        assert tree.n_vertices == 6
        weights = sorted(w for _, _, w in tree.edges)
        assert weights == pytest.approx([0.1, 0.1, 0.1, 0.1, 0.2])

    def test_complete_binary_cherries_cover_all_leaves(self):
        # every leaf has its sister at distance 2g <= 4g
        g = 0.25
        tree = generate_complete_binary(3, g)
        d = tree_metric(tree)
        for leaf in range(8):
            sister = leaf ^ 1
            assert d[leaf, sister] == pytest.approx(2 * g)
            assert d[leaf, sister] <= 4 * g

    def test_complete_binary_h1_rejected(self):
        with pytest.raises(ValueError):
            generate_complete_binary(1, 0.1)

    def test_random_regular_support(self):
        params = RegularityParams(0.1, 0.2, 1.2)
        tree = generate_random_regular(4, params, seed=0)
        assert tree.n_leaves == 4
        assert all(0.1 <= w <= 0.2 for _, _, w in tree.edges)

    def test_random_regular_deterministic(self):
        params = RegularityParams(0.1, 0.2, 1.2)
        one = generate_random_regular(64, params, seed=9).to_newick()
        two = generate_random_regular(64, params, seed=9).to_newick()
        assert one == two
        other = generate_random_regular(64, params, seed=10).to_newick()
        assert one != other

    def test_random_regular_monte_carlo_support(self):
        params = RegularityParams(0.05, 0.3, 2.0)
        lo, hi = np.inf, -np.inf
        for seed in range(200):
            tree = generate_random_regular(16, params, seed=seed)
            ws = [w for _, _, w in tree.edges]
            lo, hi = min(lo, min(ws)), max(hi, max(ws))
        assert 0.05 <= lo and hi <= 0.3

    def test_random_regular_small_n_rejected(self):
        with pytest.raises(ValueError):
            generate_random_regular(3, RegularityParams(0.1, 0.2, 1.2), 0)


class TestFourPoint:
    def test_exact_quartet(self):
        tree = parse_newick("((a:1,b:1):2,(c:1,e:1):2);")
        d = tree_metric(tree)
        assert four_point_topology(d, 0, 1, 2, 3) == ((0, 1), (2, 3))

    def test_star_metric_unresolved(self):
        # at 1e308 every pair sum overflows to inf, which is still a tie
        for length in (2.0, 1e308):
            d = np.full((4, 4), length)
            np.fill_diagonal(d, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                assert four_point_topology(d, 0, 1, 2, 3) is None

    def test_perturbation_extremes_keep_split(self):
        # internal edge 2; noise below half of it can never flip the split
        tree = parse_newick("((a:1,b:1):2,(c:1,e:1):2);")
        base = tree_metric(tree)
        eps = 0.99  # just under half the internal edge weight
        iu = np.triu_indices(4, k=1)
        for signs in itertools.product([-1.0, 1.0], repeat=6):
            d = base.copy()
            d[iu] += eps * np.array(signs)
            d.T[iu] = d[iu]
            assert four_point_topology(d, 0, 1, 2, 3) == ((0, 1), (2, 3))

    def test_true_split_on_all_quadruples_small_trees(self):
        params = RegularityParams(0.1, 0.4, 3.0)
        for seed in range(5):
            tree = generate_random_regular(12, params, seed=seed)
            d = tree_metric(tree)
            splits = tree.topology().splits()
            for quad in itertools.combinations(range(12), 4):
                got = four_point_topology(d, *quad)
                assert got is not None
                # any tree split restricting to 2|2 on the quartet must
                # group exactly the winning pair (and its complement)
                (x, y), (z, w) = got
                labs = [tree.labels[i] for i in (x, y, z, w)]
                for side in splits:
                    inside = [lab in side for lab in labs]
                    if sum(inside) == 2:
                        grouped = {lab for lab, yes in zip(labs, inside) if yes}
                        assert grouped in ({labs[0], labs[1]},
                                           {labs[2], labs[3]})

    def test_infinite_entry_rejected(self):
        d = np.full((4, 4), np.inf)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(ValueError, match="finite"):
            four_point_topology(d, 0, 1, 2, 3)


class TestRobinsonFoulds:
    def test_identity(self, five_leaf):
        assert robinson_foulds(five_leaf, five_leaf) == 0

    def test_distinct_quartets(self):
        t1 = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
        t2 = parse_newick("((a:1,c:1):1,(b:1,d:1):1);")
        assert robinson_foulds(t1, t2) == 2

    def test_matches_bipartition_oracle(self):
        params = RegularityParams(0.1, 0.2, 1.2)
        pairs = [(generate_random_regular(16, params, seed=seed),
                  generate_random_regular(16, params, seed=seed + 100))
                 for seed in range(10)]
        # the smallest label at the deep end of a long root path, where
        # every internal split is taken as its complement (once as each
        # leaf of its cherry), and at the top
        labels = [f"t{i:02d}" for i in range(64)]
        top = _caterpillar(labels[::-1])
        pairs.append((_caterpillar(labels), top))
        pairs.append((_caterpillar(labels[1::-1] + labels[2:]), top))
        pairs.append((generate_random_regular(512, params, seed=0),
                      generate_random_regular(512, params, seed=1)))
        for t1, t2 in pairs:
            for t in (t1, t2):
                assert t.topology().splits() == brute_force_splits(t)
            want = len(brute_force_splits(t1) ^ brute_force_splits(t2))
            assert robinson_foulds(t1, t2) == want

    def test_pseudometric_properties(self):
        params = RegularityParams(0.1, 0.2, 1.2)
        trees = [generate_random_regular(12, params, seed=s) for s in range(6)]
        for t1, t2 in itertools.combinations(trees, 2):
            assert robinson_foulds(t1, t2) == robinson_foulds(t2, t1)
        for t1, t2, t3 in itertools.combinations(trees, 3):
            assert (robinson_foulds(t1, t3)
                    <= robinson_foulds(t1, t2) + robinson_foulds(t2, t3))

    def test_mismatched_leaves_rejected(self, quartet):
        other = parse_newick("((a:1,b:1):1,(c:1,x:1):1);")
        with pytest.raises(ValueError, match="label sets"):
            robinson_foulds(quartet, other)


class TestPathsDisjoint:
    def test_disjoint_cherries(self, six_leaf_cherries):
        assert paths_disjoint(six_leaf_cherries, ("a", "b"), ("c", "d"))

    def test_interleaved_on_caterpillar(self):
        cat = parse_newick("(a:1,(b:1,(c:1,(d:1,e:1):1):1):1);")
        # a-c and b-d interleave along the spine: explicit listing shows
        # they share the spine edge between b's and c's attachment points
        a, b, c, d = (cat.leaf_id(x) for x in "abcd")
        shared = cat.path_edges(a, c) & cat.path_edges(b, d)
        assert shared
        assert not paths_disjoint(cat, ("a", "c"), ("b", "d"))

    def test_vertex_sharing_allowed(self, quartet):
        # (a,b) and (c,d) paths meet the internal edge's endpoints only
        assert paths_disjoint(quartet, ("a", "b"), ("c", "d"))

    def test_path_edges_match_breadth_first_search(self):
        params = RegularityParams(0.1, 0.2, 1.2)
        trees = [generate_random_regular(n, params, seed=n) for n in (4, 7, 12)]
        trees.append(_caterpillar("abcdefgh"))
        for tree in trees:
            for u in range(tree.n_vertices):
                back = {u: None}  # breadth-first tree from u
                frontier = [u]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for y, _ in tree.neighbors(x):
                            if y not in back:
                                back[y] = x
                                nxt.append(y)
                    frontier = nxt
                for v in range(tree.n_vertices):
                    want, x = set(), v
                    while back[x] is not None:
                        want.add((min(x, back[x]), max(x, back[x])))
                        x = back[x]
                    assert tree.path_edges(u, v) == want

    def test_repeated_leaf_rejected(self, quartet):
        with pytest.raises(ValueError, match="distinct"):
            paths_disjoint(quartet, ("a", "b"), ("a", "c"))


class TestTopology:
    def test_from_nested_round_trip(self, five_leaf):
        topo = five_leaf.topology()
        rebuilt = Topology.from_nested(
            (("a", "b"), ("c", "d"), "e"))
        assert rebuilt == topo

    def test_newick_unit_lengths(self, quartet):
        text = quartet.topology().to_newick()
        again = parse_newick(text)
        assert all(w in (1.0, 0.5) for _, _, w in again.edges)
        assert robinson_foulds(again, quartet) == 0

    def test_deep_caterpillar_round_trip(self):
        # 3000 levels deep, well past Python's default recursion limit
        n = 3000
        nested = "leaf_0"
        for i in range(1, n - 2):
            nested = (nested, f"leaf_{i}")
        topo = Topology.from_nested((nested, f"leaf_{n - 2}", f"leaf_{n - 1}"))
        text = topo.to_newick()
        back = parse_newick(text)
        assert back.n_leaves == n
        assert robinson_foulds(topo, back) == 0
        assert back.to_newick() == text

    def test_rebuilt_from_another_topologys_edges(self):
        # what a caller does to relabel a reconstructed topology
        tree = generate_random_regular(16, RegularityParams(0.1, 0.2, 1.2), 3)
        topo = tree.topology()
        again = Topology(topo.edges, topo.labels)
        assert again == topo
        assert again.to_newick() == topo.to_newick()
        labels = list(topo.labels)
        labels[0], labels[5] = labels[5], labels[0]
        assert Topology(topo.edges, labels) != topo


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenTrees:
    """sha256 pins of tree text and vertex numbering.

    The simulator keys each vertex's stream by its id, so parsed vertex
    ids must not move either.
    """

    REG = RegularityParams(0.1, 0.2, 1.5)

    @pytest.mark.parametrize("n, digest", [
        (5, "fa84f9c3ecee050f4a38b932cea16acd9efd72c646d531d8400bebc3f623a748"),
        (64, "a34592f8d2cf58ed4765b9565e0c62800024d893f192cd6bb7212c9397a7d190"),
    ])
    def test_random_topology_newick(self, n, digest):
        tree = generate_random_regular(n, self.REG, seed=n)
        assert _sha256(tree.topology().to_newick()) == digest

    def test_reconstructed_topology_newick(self):
        tree = generate_random_regular(64, self.REG, seed=64)
        psi = 5 * self.REG.max_edge * np.log(64)
        dhat = inject_distortion(tree_metric(tree), 0.01, psi, seed=65)
        topo = reconstruct_topology(
            dhat, ReconstructionConfig(trust_cap=psi, tau=0.01),
            labels=tree.labels)
        assert robinson_foulds(topo, tree) == 0
        assert _sha256(topo.to_newick()) == (
            "38b119e8921a3cbd201775a6ffbdbfdb1ce649653c8dcd809722699bab116f08")

    def test_parsed_vertex_ids(self):
        tree = generate_random_regular(64, self.REG, seed=64)
        edges = parse_newick(tree.to_newick()).edges
        assert _sha256(repr(edges)) == (
            "c3fc0765f7da5b6777aaee0e6627be1d1c119d0c7442dc770594859422af49c9")
