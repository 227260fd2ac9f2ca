"""Unrooted binary phylogenies with positive edge weights.

A phylogeny here is an unrooted tree whose internal vertices all have
degree exactly 3 and whose leaves carry unique string labels.  Edge
weights are strictly positive reals measured in expected substitutions
per site.  The module provides

* ``Phylogeny`` / ``Topology``   immutable tree containers,
* ``parse_newick`` / ``Phylogeny.to_newick``   Newick round-tripping
  (a degree-2 root is suppressed on parse and re-introduced on write),
* ``tree_metric``   all-pairs leaf distances (path sums),
* ``generate_complete_binary`` / ``generate_random_regular``   tree
  generators for experiments,
* ``four_point_topology``   the quartet split test,
* ``robinson_foulds``   bipartition distance between topologies,
* ``paths_disjoint``   edge-disjointness of two leaf-to-leaf paths,
* ``StatisticalFailure``   base of the errors that mean "too little
  signal in the data", not "wrong call"; ``run_pipeline`` records these
  and lets every other exception propagate (defined here because the
  binning, clustering and reconstruction modules all import this one).

Construction roots each tree once, at internal vertex ``n``, with one
depth-first walk that records every vertex's parent, edge weight, depth
and block of the walk's leaf order.  ``tree_metric``, ``Phylogeny.splits``,
``Phylogeny.path_edges`` and the simulator's ``Phylogeny.preorder_edges``
all read that record.  In this module only Newick writing and parsing,
the generators and the reference ``Phylogeny.leaf_distances_from`` walk
the tree themselves.

Everything is immutable after construction and safe to share across
threads; the random generator takes an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NewickError",
    "Phylogeny",
    "RegularityParams",
    "StatisticalFailure",
    "Topology",
    "four_point_topology",
    "generate_complete_binary",
    "generate_random_regular",
    "parse_newick",
    "paths_disjoint",
    "robinson_foulds",
    "tree_metric",
]

_NEWICK_META = set("():,;[]'\" \t\n\r")


class NewickError(ValueError):
    """Malformed Newick input; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at character {position})")
        self.position = position


class StatisticalFailure(RuntimeError):
    """A stage found too little signal in the data to decide (k too
    small, or the thresholds do not fit the data scale); not a bug."""


@dataclass(frozen=True)
class RegularityParams:
    """Edge-weight bounds ``f <= mu_e <= g`` plus the scaled-distance cap M.

    ``min_edge`` and ``max_edge`` bound every edge weight of the trees
    under study; ``distance_cap`` is the largest evolutionary distance the
    inference pipeline is allowed to rely on.  Requires
    ``0 < min_edge <= max_edge < distance_cap``.
    """

    min_edge: float
    max_edge: float
    distance_cap: float

    def __post_init__(self):
        if not (0.0 < self.min_edge <= self.max_edge < self.distance_cap):
            raise ValueError(
                "need 0 < min_edge <= max_edge < distance_cap, got "
                f"f={self.min_edge}, g={self.max_edge}, M={self.distance_cap}"
            )


class Phylogeny:
    """Unrooted leaf-labeled binary tree with positive edge weights.

    Vertices are integers ``0 .. 2n-3``; ids ``0 .. n-1`` are the leaves,
    in the order of ``labels``.  Internal vertices have degree exactly 3,
    leaves degree 1.  Instances are immutable.

    Construction roots the tree at internal vertex ``n`` (:attr:`root`)
    with one depth-first walk, which also checks connectivity.  For each
    vertex the walk records its parent, the weight of the edge to it, its
    depth, and its block ``lo:hi`` of the walk's leaf order (the leaves
    below it are leaves ``lo .. hi-1`` in the order the walk meets them).
    Every structure query reads this record instead of walking again.

    Parameters
    ----------
    edges : iterable of (int, int, float)
        Undirected weighted edges covering all vertices.
    labels : sequence of str
        Leaf labels; ``labels[i]`` names leaf vertex ``i``.
    """

    __slots__ = ("labels", "edges", "_adj", "_label_to_leaf", "_order",
                 "_parent", "_weight", "_depth", "_lo", "_hi")

    def __init__(self, edges, labels):
        labels = tuple(str(x) for x in labels)
        if len(labels) < 3:
            raise ValueError("a phylogeny needs at least 3 leaves")
        if len(set(labels)) != len(labels):
            raise ValueError("leaf labels must be unique")
        n = len(labels)
        edges = tuple((int(u), int(v), float(w)) for u, v, w in edges)
        n_vertices = 2 * n - 2
        if len(edges) != n_vertices - 1:
            raise ValueError(
                f"{n} leaves require {n_vertices - 1} edges, got {len(edges)}"
            )
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n_vertices)]
        for u, v, w in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            if w <= 0.0:
                raise ValueError(f"nonpositive edge weight {w} on ({u}, {v})")
            adj[u].append((v, w))
            adj[v].append((u, w))
        for vid in range(n_vertices):
            deg = len(adj[vid])
            want = 1 if vid < n else 3
            if deg != want:
                kind = "leaf" if vid < n else "internal vertex"
                raise ValueError(f"{kind} {vid} has degree {deg}, expected {want}")
        root = n
        parent = [root] * n_vertices
        weight = [0.0] * n_vertices
        depth = [-1] * n_vertices  # -1: not reached yet
        lo = [0] * n_vertices
        order = []
        stack = [root]
        depth[root] = 0
        leaves_seen = 0
        while stack:
            x = stack.pop()
            order.append(x)
            lo[x] = leaves_seen
            if x < n:
                leaves_seen += 1
            for y, w in adj[x]:
                if depth[y] < 0:
                    parent[y], weight[y], depth[y] = x, w, depth[x] + 1
                    stack.append(y)
        # acyclicity follows from |E| = |V| - 1
        if len(order) != n_vertices:
            raise ValueError("tree is not connected")
        hi = [lo[x] + 1 if x < n else lo[x] for x in range(n_vertices)]
        for c in reversed(order[1:]):  # every descendant of c comes first
            hi[parent[c]] = max(hi[parent[c]], hi[c])
        self.labels = labels
        self.edges = edges
        self._adj = tuple(tuple(nbrs) for nbrs in adj)
        self._label_to_leaf = {lab: i for i, lab in enumerate(labels)}
        self._order = tuple(order)
        self._parent = tuple(parent)
        self._weight = tuple(weight)
        self._depth = tuple(depth)
        self._lo = tuple(lo)
        self._hi = tuple(hi)

    # -- basic accessors -------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    @property
    def n_vertices(self) -> int:
        return 2 * len(self.labels) - 2

    @property
    def root(self) -> int:
        """The internal vertex the tree is rooted at, vertex ``n``."""
        return self._order[0]

    def neighbors(self, v: int):
        """Neighbors of vertex ``v`` as ``((vertex, weight), ...)``."""
        return self._adj[v]

    def leaf_id(self, label: str) -> int:
        return self._label_to_leaf[label]

    def __repr__(self):
        return f"Phylogeny(n_leaves={self.n_leaves})"

    # -- structure queries -----------------------------------------------

    def path_edges(self, u: int, v: int) -> frozenset:
        """Edge set of the path between vertices u and v.

        Edges are canonicalized as ``(min_id, max_id)`` tuples.  The path
        is found by climbing parent pointers from the deeper end until
        the two ends meet.
        """
        parent, depth = self._parent, self._depth
        from_u, from_v = [], []
        while u != v:
            if depth[u] >= depth[v]:
                p = parent[u]
                from_u.append((u, p) if u < p else (p, u))
                u = p
            else:
                p = parent[v]
                from_v.append((v, p) if v < p else (p, v))
                v = p
        # in path order from v to u, which fixes the set's iteration order
        return frozenset(from_v + from_u[::-1])

    def preorder_edges(self) -> tuple:
        """Edges ``(parent, child, weight)`` away from :attr:`root`,
        each parent's edge listed before its children's."""
        return tuple((self._parent[c], c, self._weight[c])
                     for c in self._order[1:])

    def splits(self) -> frozenset:
        """Nontrivial bipartitions (weights are ignored), each as the
        label side not holding the lexicographically smallest leaf label.

        The edge above internal vertex ``c`` of the rooted walk splits
        off the leaves ``lo:hi`` of the walk's leaf order.
        """
        n = self.n_leaves
        leaves = [self.labels[x] for x in self._order if x < n]
        ref = leaves.index(min(self.labels))
        out = set()
        for c in self._order[1:]:
            if c < n:
                continue  # pendant edge: trivial split
            lo, hi = self._lo[c], self._hi[c]
            if lo <= ref < hi:
                out.add(frozenset(leaves[:lo] + leaves[hi:]))
            else:
                out.add(frozenset(leaves[lo:hi]))
        return frozenset(out)

    def leaf_distances_from(self, leaf: int) -> np.ndarray:
        """Distances from ``leaf`` to every leaf (0.0 for itself)."""
        n_vertices = self.n_vertices
        dist = np.full(n_vertices, -1.0)
        dist[leaf] = 0.0
        stack = [leaf]
        while stack:
            x = stack.pop()
            dx = dist[x]
            for y, w in self._adj[x]:
                if dist[y] < 0.0:
                    dist[y] = dx + w
                    stack.append(y)
        return dist[: self.n_leaves].copy()

    def topology(self) -> "Topology":
        """This tree with the edge weights erased."""
        return Topology(tuple((u, v) for u, v, _ in self.edges), self.labels)

    # -- Newick serialization ---------------------------------------------

    def to_newick(self) -> str:
        """Serialize to Newick with branch lengths.

        The unrooted tree is written rooted at a fresh degree-2 vertex
        placed at the midpoint of leaf 0's pendant edge, so parsing the
        output and suppressing that root recovers this tree exactly.
        Children are ordered by smallest descendant label, which makes
        the output canonical for a given vertex numbering.
        """
        leaf0 = 0
        (nbr, w0), = self._adj[leaf0]

        def render(v: int, parent: int) -> tuple[str, str]:
            # returns (newick fragment without branch length, min label below)
            if v < self.n_leaves:
                return self.labels[v], self.labels[v]
            parts = []
            for u, w in self._adj[v]:
                if u == parent:
                    continue
                frag, lo = render(u, v)
                parts.append((lo, f"{frag}:{w!r}"))
            parts.sort()
            inner = ",".join(frag for _, frag in parts)
            return f"({inner})", parts[0][0]

        half = w0 / 2.0
        sub, _ = render(nbr, leaf0)
        return f"({self.labels[leaf0]}:{half!r},{sub}:{half!r});"


class Topology:
    """Leaf-labeled binary tree shape without edge weights.

    Same degree constraints as :class:`Phylogeny`.  Provides the set of
    nontrivial bipartitions (splits) used for tree comparison.
    """

    __slots__ = ("labels", "edges", "_adj", "_tree")

    def __init__(self, edges, labels):
        # the unit-weight tree carries the structural checks and the walk
        tree = Phylogeny(tuple((u, v, 1.0) for u, v in edges), labels)
        self.labels = tree.labels
        self.edges = tuple((u, v) for u, v, _ in tree.edges)
        self._adj = tree._adj
        self._tree = tree

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    @classmethod
    def from_nested(cls, nested) -> "Topology":
        """Build from a nested grouping, e.g. ``("a", ("b", "c"), ("d", "e"))``.

        The top level must be a tuple of 3 groups (the unrooted central
        vertex); every other group is a pair.  Strings are leaf labels.
        """
        labels: list[str] = []

        def collect(node):
            if isinstance(node, str):
                labels.append(node)
            else:
                for child in node:
                    collect(child)

        collect(nested)
        n = len(labels)
        if n < 3:
            raise ValueError("need at least 3 leaves")
        leaf_of = {lab: i for i, lab in enumerate(labels)}
        edges = []
        next_id = [n]

        def build(node) -> int:
            if isinstance(node, str):
                return leaf_of[node]
            if len(node) != 2:
                raise ValueError("internal groups must be pairs")
            vid = next_id[0]
            next_id[0] += 1
            for child in node:
                edges.append((vid, build(child)))
            return vid

        if not isinstance(nested, tuple) or len(nested) != 3:
            raise ValueError("top level must be a tuple of 3 groups")
        center = next_id[0]
        next_id[0] += 1
        for child in nested:
            edges.append((center, build(child)))
        return cls(tuple(edges), labels)

    def splits(self) -> frozenset:
        """Nontrivial bipartitions; see :meth:`Phylogeny.splits`."""
        return self._tree.splits()

    def to_newick(self) -> str:
        """Newick with unit branch lengths."""
        return self._tree.to_newick()

    def __eq__(self, other):
        if not isinstance(other, Topology):
            return NotImplemented
        return set(self.labels) == set(other.labels) and self.splits() == other.splits()

    def __hash__(self):
        return hash((frozenset(self.labels), self.splits()))

    def __repr__(self):
        return f"Topology(n_leaves={self.n_leaves})"


# ---------------------------------------------------------------------------
# Newick parsing
# ---------------------------------------------------------------------------


def parse_newick(text: str) -> Phylogeny:
    """Parse a Newick string into a :class:`Phylogeny`.

    Branch lengths are mandatory on every edge and must be positive;
    a degree-2 root is collapsed (its two child edges merge into one).
    Errors report the character position of the offending token.
    """
    pos = 0
    n_chars = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n_chars and text[pos] in " \t\n\r":
            pos += 1

    def parse_label() -> str:
        nonlocal pos
        start = pos
        while pos < n_chars and text[pos] not in _NEWICK_META:
            pos += 1
        if pos == start:
            raise NewickError("expected a leaf label", start)
        return text[start:pos]

    def parse_length(where: int) -> float:
        nonlocal pos
        skip_ws()
        if pos >= n_chars or text[pos] != ":":
            raise NewickError("missing branch length", where)
        pos += 1
        start = pos
        while pos < n_chars and (text[pos].isdigit() or text[pos] in "+-.eE"):
            pos += 1
        try:
            value = float(text[start:pos])
        except ValueError:
            raise NewickError("unparseable branch length", start) from None
        if value <= 0.0:
            raise NewickError(f"nonpositive branch length {value}", start)
        return value

    # a group is (children, position of its "("); children is a list of
    # (subtree, weight) and a subtree is a label or a group
    def parse_group():
        nonlocal pos
        open_at = pos
        pos += 1
        children = []
        while True:
            child = parse_node()
            children.append((child, parse_length(pos)))
            skip_ws()
            if pos >= n_chars:
                raise NewickError("unterminated group", open_at)
            if text[pos] == ",":
                pos += 1
            elif text[pos] == ")":
                pos += 1
                return children, open_at
            else:
                raise NewickError(f"unexpected character {text[pos]!r}", pos)

    def parse_node():
        skip_ws()
        if pos >= n_chars:
            raise NewickError("unexpected end of input", pos)
        return parse_group() if text[pos] == "(" else parse_label()

    skip_ws()
    if pos >= n_chars or text[pos] != "(":
        raise NewickError("tree must start with '('", pos)
    root_children, open_at = parse_group()
    skip_ws()
    if pos >= n_chars or text[pos] != ";":
        raise NewickError("missing ';' terminator", pos)

    # flatten: assign leaf ids in encounter order, internal ids afterwards
    labels: list[str] = []

    def count_leaves(node):
        if isinstance(node, str):
            labels.append(node)
        else:
            for child, _ in node[0]:
                count_leaves(child)

    count_leaves((root_children, open_at))
    if len(labels) < 3:
        raise NewickError(
            f"fewer than 3 leaves ({len(labels)}) cannot form a "
            "degree-3 internal vertex",
            0,
        )
    if len(set(labels)) != len(labels):
        raise NewickError("duplicate leaf label", 0)

    n = len(labels)
    leaf_iter = iter(range(n))
    next_internal = [n]
    edges: list[tuple[int, int, float]] = []

    def realize(node) -> int:
        if isinstance(node, str):
            return next(leaf_iter)
        children, at = node
        if len(children) != 2:
            raise NewickError(
                f"internal vertex with {len(children)} children is not binary", at
            )
        vid = next_internal[0]
        next_internal[0] += 1
        for child, w in children:
            edges.append((vid, realize(child), w))
        return vid

    if len(root_children) == 2:
        # suppress the degree-2 root: merge the two root edges
        (left, wl), (right, wr) = root_children
        if isinstance(left, str) and isinstance(right, str):
            raise NewickError("fewer than 3 leaves cannot form a degree-3 "
                              "internal vertex", 0)
        lid = realize(left)
        rid = realize(right)
        edges.append((lid, rid, wl + wr))
    elif len(root_children) == 3:
        vid = next_internal[0]
        next_internal[0] += 1
        for child, w in root_children:
            edges.append((vid, realize(child), w))
    else:
        raise NewickError(
            f"root with {len(root_children)} children is not binary", open_at
        )
    return Phylogeny(edges, labels)


# ---------------------------------------------------------------------------
# Metrics and quartets
# ---------------------------------------------------------------------------


def tree_metric(p: Phylogeny) -> np.ndarray:
    """All-pairs leaf distance matrix (path sums of edge weights).

    Returns a symmetric ``(n, n)`` array with zero diagonal, indexed by
    leaf id.  It reads the rooted walk that :class:`Phylogeny` records:
    the leaves below each vertex ``c`` form one block ``S_c`` of the
    walk's leaf order.  Two passes over the walk then fill the distance
    from every leaf to every vertex, where ``p`` is the parent of ``c``
    and ``w`` their edge weight:

    * children first, ``D[p, S_c] = D[c, S_c] + w``;
    * parents first, ``D[c, ~S_c] = D[p, ~S_c] + w``.

    Each entry is summed along its path starting from the leaf, exactly
    as :meth:`Phylogeny.leaf_distances_from` does, so the result equals
    the symmetrised per-leaf walks bit for bit.
    """
    n, n_vertices = p.n_leaves, p.n_vertices
    order, parent, weight = p._order, p._parent, p._weight
    lo, hi = p._lo, p._hi
    leaf_at = list(lo[:n])  # position of each leaf in the walk's leaf order

    # D[x, i]: distance from the i-th leaf in the walk's order to vertex x
    dist = np.empty((n_vertices, n))
    dist[np.arange(n), leaf_at] = 0.0
    for c in reversed(order[1:]):  # every descendant of c comes first
        s = slice(lo[c], hi[c])
        dist[parent[c], s] = dist[c, s] + weight[c]
    for c in order[1:]:
        pc, w = parent[c], weight[c]
        dist[c, :lo[c]] = dist[pc, :lo[c]] + w
        dist[c, hi[c]:] = dist[pc, hi[c]:] + w
    out = dist[:n, leaf_at].T
    # paths summed from either end may differ in the last bit
    return (out + out.T) / 2.0


def four_point_topology(d, a: int, b: int, c: int, e: int):
    """Quartet split by the four-point test.

    Among the three pairings of ``{a, b, c, e}``, returns the one whose
    pairwise distance sum is strictly smallest, as a tuple of two leaf
    pairs, e.g. ``((a, b), (c, e))``.  Returns ``None`` if the two
    smallest sums tie (an unresolved quartet).

    ``d`` is any matrix-like supporting ``d[x, y]``; all six entries
    must be finite.
    """
    ids = (a, b, c, e)
    if len(set(ids)) != 4:
        raise ValueError("four distinct leaves required")
    vals = [d[x, y] for x in ids for y in ids if x < y]
    if not all(np.isfinite(v) for v in vals):
        raise ValueError("four-point test requires six finite distances")
    split, margin = quartet_margin(d, a, b, c, e)
    # not ``margin == 0.0``: sums that overflow to inf tie with nan margin
    return split if margin > 0.0 else None


def quartet_margin(d, a: int, b: int, c: int, e: int):
    """Best split plus its margin (second-smallest sum minus smallest).

    Same conventions as :func:`four_point_topology`; the margin is 0.0
    for a tie.  Used by reconstruction to require a noise-proof margin.
    """
    sums = sorted(
        (
            (d[a, b] + d[c, e], ((a, b), (c, e))),
            (d[a, c] + d[b, e], ((a, c), (b, e))),
            (d[a, e] + d[b, c], ((a, e), (b, c))),
        ),
        key=lambda t: t[0],
    )
    return sums[0][1], sums[1][0] - sums[0][0]


def robinson_foulds(t1, t2) -> int:
    """Number of nontrivial bipartitions present in exactly one tree.

    Accepts :class:`Topology` or :class:`Phylogeny` arguments (weights
    are ignored).  Zero iff the topologies are identical.
    """
    if set(t1.labels) != set(t2.labels):
        raise ValueError("trees have different leaf label sets")
    return len(t1.splits() ^ t2.splits())


def paths_disjoint(p: Phylogeny, pair1, pair2) -> bool:
    """True iff the two leaf-to-leaf paths share no edge.

    Pairs are given as label pairs; the four leaves must be distinct
    (sharing a vertex but no edge still counts as disjoint).
    """
    a, b = (p.leaf_id(x) if isinstance(x, str) else int(x) for x in pair1)
    c, e = (p.leaf_id(x) if isinstance(x, str) else int(x) for x in pair2)
    if len({a, b, c, e}) != 4:
        raise ValueError("pairs must involve four distinct leaves")
    return not (p.path_edges(a, b) & p.path_edges(c, e))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_complete_binary(h: int, mu: float) -> Phylogeny:
    """Complete binary tree with ``2**h`` leaves and all edges ``mu``.

    Built as two depth ``h-1`` complete subtrees joined by an edge of
    weight ``2*mu`` (the suppressed root).  Leaves are labeled
    ``leaf_0 .. leaf_{2**h - 1}`` left to right.
    """
    if h < 2:
        raise ValueError("h must be at least 2")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    n = 2 ** h
    labels = [f"leaf_{i}" for i in range(n)]
    edges: list[tuple[int, int, float]] = []
    next_internal = [n]

    def build(lo: int, hi: int) -> int:
        # subtree over leaf ids [lo, hi); returns its root vertex
        if hi - lo == 1:
            return lo
        vid = next_internal[0]
        next_internal[0] += 1
        mid = (lo + hi) // 2
        edges.append((vid, build(lo, mid), mu))
        edges.append((vid, build(mid, hi), mu))
        return vid

    half = n // 2
    left = build(0, half)
    right = build(half, n)
    edges.append((left, right, 2.0 * mu))
    return Phylogeny(edges, labels)


def generate_random_regular(n: int, params: RegularityParams, seed: int) -> Phylogeny:
    """Random phylogeny with every edge weight uniform in ``[f, g]``.

    The topology is drawn by sequential uniform leaf attachment: starting
    from the 3-leaf star, each new leaf subdivides a uniformly random
    edge.  Weights are then drawn i.i.d. uniform on
    ``[min_edge, max_edge]``.  Deterministic for a given seed.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    rng = np.random.default_rng(seed)
    labels = [f"leaf_{i}" for i in range(n)]
    center = n
    next_internal = n + 1
    edges = [(0, center), (1, center), (2, center)]
    for leaf in range(3, n):
        idx = int(rng.integers(len(edges)))
        u, v = edges[idx]
        m = next_internal
        next_internal += 1
        edges[idx] = (u, m)
        edges.append((m, v))
        edges.append((m, leaf))
    canonical = sorted((min(u, v), max(u, v)) for u, v in edges)
    weights = rng.uniform(params.min_edge, params.max_edge, size=len(edges))
    weighted = [(u, v, float(w)) for (u, v), w in zip(canonical, weights)]
    return Phylogeny(weighted, labels)
