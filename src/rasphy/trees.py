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

    Parameters
    ----------
    edges : iterable of (int, int, float)
        Undirected weighted edges covering all vertices.
    labels : sequence of str
        Leaf labels; ``labels[i]`` names leaf vertex ``i``.
    """

    __slots__ = ("labels", "edges", "_adj", "_label_to_leaf")

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
        # connectivity (acyclicity follows from |E| = |V| - 1)
        seen = [False] * n_vertices
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        if count != n_vertices:
            raise ValueError("tree is not connected")
        self.labels = labels
        self.edges = edges
        self._adj = tuple(tuple(nbrs) for nbrs in adj)
        self._label_to_leaf = {lab: i for i, lab in enumerate(labels)}

    # -- basic accessors -------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    @property
    def n_vertices(self) -> int:
        return 2 * len(self.labels) - 2

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

        Edges are canonicalized as ``(min_id, max_id)`` tuples.
        """
        parent = {u: None}
        stack = [u]
        while v not in parent:
            x = stack.pop()
            for y, _ in self._adj[x]:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        out = []
        x = v
        while parent[x] is not None:
            p = parent[x]
            out.append((x, p) if x < p else (p, x))
            x = p
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

    __slots__ = ("labels", "edges", "_adj")

    def __init__(self, edges, labels):
        weighted = tuple((u, v, 1.0) for u, v in edges)
        probe = Phylogeny(weighted, labels)  # reuse the structural checks
        self.labels = probe.labels
        self.edges = tuple((u, v) for u, v, _ in probe.edges)
        self._adj = probe._adj

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
        """Nontrivial bipartitions, each as the label side not holding
        the lexicographically smallest leaf label."""
        ref = min(self.labels)
        n = self.n_leaves
        out = set()
        # orient each internal edge and gather the leaf set on one side
        for u, v in self.edges:
            if u < n or v < n:
                continue  # pendant edge: trivial split
            side = self._leaves_beyond(v, u)
            if ref in side:
                side = frozenset(set(self.labels) - set(side))
            if len(side) >= 2 and len(side) <= n - 2:
                out.add(side)
        return frozenset(out)

    def _leaves_beyond(self, start: int, blocked: int) -> frozenset:
        found = []
        stack = [start]
        seen = {start, blocked}
        while stack:
            x = stack.pop()
            if x < self.n_leaves:
                found.append(self.labels[x])
            for y, _ in self._adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(found)

    def to_newick(self) -> str:
        """Newick with unit branch lengths."""
        weighted = tuple((u, v, 1.0) for u, v in self.edges)
        return Phylogeny(weighted, self.labels).to_newick()

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

    # children: list of (subtree, weight); subtree is a label or a list
    def parse_node():
        nonlocal pos
        skip_ws()
        if pos >= n_chars:
            raise NewickError("unexpected end of input", pos)
        if text[pos] == "(":
            open_at = pos
            pos += 1
            children = []
            while True:
                child = parse_node()
                w = parse_length(pos)
                children.append((child, w))
                skip_ws()
                if pos >= n_chars:
                    raise NewickError("unterminated group", open_at)
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == ")":
                    pos += 1
                    break
                raise NewickError(f"unexpected character {text[pos]!r}", pos)
            return children
        return parse_label()

    skip_ws()
    if pos >= n_chars or text[pos] != "(":
        raise NewickError("tree must start with '('", pos)
    open_at = pos
    pos += 1
    root_children = []
    while True:
        child = parse_node()
        w = parse_length(pos)
        root_children.append((child, w))
        skip_ws()
        if pos >= n_chars:
            raise NewickError("unterminated group", open_at)
        if text[pos] == ",":
            pos += 1
            continue
        if text[pos] == ")":
            pos += 1
            break
        raise NewickError(f"unexpected character {text[pos]!r}", pos)
    skip_ws()
    if pos >= n_chars or text[pos] != ";":
        raise NewickError("missing ';' terminator", pos)

    # flatten: assign leaf ids in encounter order, internal ids afterwards
    labels: list[str] = []

    def count_leaves(node):
        if isinstance(node, str):
            labels.append(node)
        else:
            for child, _ in node:
                count_leaves(child)

    for child, _ in root_children:
        count_leaves(child)
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
        if len(node) != 2:
            raise NewickError(
                f"internal vertex with {len(node)} children is not binary", open_at
            )
        vid = next_internal[0]
        next_internal[0] += 1
        for child, w in node:
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
    leaf id.  The tree is rooted at an internal vertex and its leaves are
    put in depth-first order, so the leaves below each vertex ``c`` form
    one contiguous block ``S_c``.  Two passes over the edges then fill
    the distance from every leaf to every vertex, where ``p`` is the
    parent of ``c`` and ``w`` their edge weight:

    * children first, ``D[p, S_c] = D[c, S_c] + w``;
    * parents first, ``D[c, ~S_c] = D[p, ~S_c] + w``.

    Each entry is summed along its path starting from the leaf, exactly
    as :meth:`Phylogeny.leaf_distances_from` does, so the result equals
    the symmetrised per-leaf walks bit for bit.
    """
    n, n_vertices = p.n_leaves, p.n_vertices
    root = n  # an internal vertex
    parent = [root] * n_vertices
    weight = [0.0] * n_vertices
    lo = [0] * n_vertices  # leaves before the vertex in depth-first order
    order = []
    stack = [root]
    seen = 0
    while stack:
        x = stack.pop()
        order.append(x)
        lo[x] = seen
        if x < n:
            seen += 1
        for y, w in p.neighbors(x):
            if y != parent[x]:
                parent[y], weight[y] = x, w
                stack.append(y)
    hi = [lo[x] + 1 if x < n else lo[x] for x in range(n_vertices)]

    # D[x, i]: distance from the i-th leaf in depth-first order to vertex x
    dist = np.empty((n_vertices, n))
    dist[np.arange(n), lo[:n]] = 0.0
    for c in reversed(order[1:]):  # every descendant of c comes first
        pc, s = parent[c], slice(lo[c], hi[c])
        hi[pc] = max(hi[pc], hi[c])
        dist[pc, s] = dist[c, s] + weight[c]
    for c in order[1:]:
        pc, w = parent[c], weight[c]
        dist[c, :lo[c]] = dist[pc, :lo[c]] + w
        dist[c, hi[c]:] = dist[pc, hi[c]:] + w
    out = dist[:n, lo[:n]].T
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
    if isinstance(t1, Phylogeny):
        t1 = t1.topology()
    if isinstance(t2, Phylogeny):
        t2 = t2.topology()
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
