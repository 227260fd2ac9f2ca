"""Unrooted binary phylogenies with positive edge weights.

A phylogeny here is an unrooted tree whose internal vertices all have
degree exactly 3 and whose leaves carry unique string labels.  Edge
weights are strictly positive reals measured in expected substitutions
per site.  The module provides

* ``Phylogeny``   the one tree class; ``Topology`` is a ``Phylogeny``
  with every edge weight 1.0 that compares equal by splits,
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
``Phylogeny.path_edges`` and ``Phylogeny.preorder_edges`` all read that
record; the simulator walks the last, and the exact leaf-law oracle
(``models.exact_leaf_distribution``) the last two.  Only ``to_newick``
walks the tree again, hung from leaf 0.  Trees given as nested groups,
parsed Newick, ``Topology.from_nested``'s tuples and
``generate_complete_binary``'s levels, are numbered by one builder,
``_build_nested``; the vertex ids it gives are part of the simulator's
contract.  It and ``to_newick`` keep explicit stacks, so no tree depth
reaches Python's recursion limit.

Everything is immutable after construction and safe to share across
threads; the random generator takes an explicit seed.
"""

from __future__ import annotations

import re
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

_WS = re.compile(r"[ \t\n\r]*")
_LABEL = re.compile(r"[^():,;\[\]'\" \t\n\r]+")
_LENGTH = re.compile(r":([0-9+\-.eE]*)")


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
    ``0 < min_edge <= max_edge < distance_cap < inf``.
    """

    min_edge: float
    max_edge: float
    distance_cap: float

    def __post_init__(self):
        if not (0.0 < self.min_edge <= self.max_edge < self.distance_cap
                < np.inf):
            raise ValueError(
                "need 0 < min_edge <= max_edge < distance_cap < inf, got "
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
            if not 0.0 < w < np.inf:
                raise ValueError(f"edge weight {w} on ({u}, {v}) is not "
                                 "positive and finite")
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
        return f"{type(self).__name__}(n_leaves={self.n_leaves})"

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

    def topology(self) -> "Topology":
        """This tree with every edge weight set to 1.0."""
        return Topology(self.edges, self.labels)

    # -- Newick serialization ---------------------------------------------

    def to_newick(self) -> str:
        """Serialize to Newick with branch lengths.

        The unrooted tree is written rooted at a fresh degree-2 vertex
        placed at the midpoint of leaf 0's pendant edge, so parsing the
        output and suppressing that root recovers this tree exactly.
        Children are ordered by smallest descendant label, which makes
        the output canonical for a given vertex numbering.
        """
        n, adj, labels = self.n_leaves, self._adj, self.labels
        leaf0 = 0
        (nbr, w0), = adj[leaf0]
        # smallest label below each vertex, hanging the tree from leaf 0
        walk = [(nbr, leaf0)]
        for v, parent in walk:  # grows while it runs: a breadth-first walk
            if v >= n:
                walk.extend((u, v) for u, _ in adj[v] if u != parent)
        low = {}
        for v, parent in reversed(walk):
            low[v] = labels[v] if v < n else min(
                low[u] for u, _ in adj[v] if u != parent)

        half = w0 / 2.0
        out = [f"({labels[leaf0]}:{half!r},"]
        todo = [f":{half!r});", (nbr, leaf0)]  # a stack of text and subtrees
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            v, parent = item
            if v < n:
                out.append(labels[v])
                continue
            kids = sorted((low[u], u, w) for u, w in adj[v] if u != parent)
            out.append("(")
            todo.append(")")
            for i in range(len(kids) - 1, -1, -1):
                _, u, w = kids[i]
                todo.append(f":{w!r}")
                todo.append((u, v))
                if i:
                    todo.append(",")
        return "".join(out)


class Topology(Phylogeny):
    """Leaf-labeled binary tree shape: a :class:`Phylogeny` whose edge
    weights are all 1.0.

    Two topologies are equal when they have the same leaf labels and the
    same nontrivial bipartitions (splits), however their vertices are
    numbered.

    Parameters
    ----------
    edges : iterable of (int, int) or (int, int, float)
        Undirected edges covering all vertices; a third item is ignored.
    labels : sequence of str
        Leaf labels; ``labels[i]`` names leaf vertex ``i``.
    """

    __slots__ = ()

    def __init__(self, edges, labels):
        super().__init__(((u, v, 1.0) for u, v, *_ in edges), labels)

    @classmethod
    def from_nested(cls, nested) -> "Topology":
        """Build from a nested grouping, e.g. ``("a", ("b", "c"), ("d", "e"))``.

        The top level must be a tuple of 3 groups (the unrooted central
        vertex); every other group is a pair.  Strings are leaf labels.
        """
        if not isinstance(nested, tuple) or len(nested) != 3:
            raise ValueError("top level must be a tuple of 3 groups")

        def pair(group):
            if len(group) != 2:
                raise ValueError("internal groups must be pairs")
            return [(child, 1.0) for child in group]

        return cls(*_build_nested([(child, 1.0) for child in nested], pair))

    def __eq__(self, other):
        if not isinstance(other, Topology):
            return NotImplemented
        return set(self.labels) == set(other.labels) and self.splits() == other.splits()

    def __hash__(self):
        return hash((frozenset(self.labels), self.splits()))


# ---------------------------------------------------------------------------
# Newick parsing
# ---------------------------------------------------------------------------


def parse_newick(text: str) -> Phylogeny:
    """Parse a Newick string into a :class:`Phylogeny`.

    Branch lengths are mandatory on every edge, must be positive and
    finite and are written in ASCII decimals; a degree-2 root is
    collapsed (its two child edges merge into one).  Errors report the
    character position of the offending token.
    """
    labels: list[str] = []  # in the order met, which numbers the leaves
    pos = _WS.match(text).end()
    if not text.startswith("(", pos):
        raise NewickError("tree must start with '('", pos)
    # A group is (children, position of its "("), children a list of
    # (subtree, weight), and a subtree is a label or a group.  Groups still
    # open are kept on a stack, so deep trees need no recursion.
    open_groups = [([], pos)]
    pos += 1
    while open_groups:
        pos = _WS.match(text, pos).end()
        if pos == len(text):
            raise NewickError("unexpected end of input", pos)
        if text[pos] == "(":
            open_groups.append(([], pos))
            pos += 1
            continue
        label = _LABEL.match(text, pos)
        if label is None:
            raise NewickError("expected a leaf label", pos)
        labels.append(label[0])
        node, pos = label[0], label.end()
        while open_groups:  # attach the finished node, close groups
            children, open_at = open_groups[-1]
            length = _LENGTH.match(text, _WS.match(text, pos).end())
            if length is None:
                raise NewickError("missing branch length", pos)
            try:
                value = float(length[1])
            except ValueError:
                raise NewickError("unparseable branch length",
                                  length.start(1)) from None
            if value <= 0.0:
                raise NewickError(f"nonpositive branch length {value}",
                                  length.start(1))
            if value == np.inf:
                raise NewickError("branch length overflows to inf",
                                  length.start(1))
            children.append((node, value))
            pos = _WS.match(text, length.end()).end()
            if pos == len(text):
                raise NewickError("unterminated group", open_at)
            if text[pos] == ",":
                pos += 1
                break
            if text[pos] != ")":
                raise NewickError(f"unexpected character {text[pos]!r}", pos)
            pos += 1
            node = open_groups.pop()
    root_children, open_at = node
    pos = _WS.match(text, pos).end()
    if not text.startswith(";", pos):
        raise NewickError("missing ';' terminator", pos)

    if len(labels) < 3:
        raise NewickError(
            f"fewer than 3 leaves ({len(labels)}) cannot form a "
            "degree-3 internal vertex",
            0,
        )
    if len(set(labels)) != len(labels):
        raise NewickError("duplicate leaf label", 0)
    if len(root_children) not in (2, 3):
        raise NewickError(
            f"root with {len(root_children)} children is not binary", open_at
        )

    def pair(group):
        children, at = group
        if len(children) != 2:
            raise NewickError(
                f"internal vertex with {len(children)} children is not binary", at
            )
        return children

    # a degree-2 root is suppressed: its two edges merge into one
    return Phylogeny(*_build_nested(root_children, pair))


def _build_nested(root_items, items_of):
    """Edges and leaf labels of a tree given as nested groups.

    ``root_items`` are the root's 2 or 3 ``(child, weight)`` items.  A
    child is a leaf label (a ``str``) or a group, whose own items
    ``items_of(group)`` lists; it raises the caller's error for a group
    that is not a pair.  Leaves are numbered in the order met and
    internal vertices from ``n`` in preorder; each group's edge to its
    parent is listed after the group's own edges.  A 2-item root is
    suppressed: one edge of the summed weight joins its two children and
    is listed last.  Open groups are kept on a stack, so deep trees need
    no recursion.
    """
    labels, edges, ends = [], [], []
    # internal vertex i is ~i until the leaf count fixes its id n + i
    top = ~0 if len(root_items) == 3 else None
    internal = 0 if top is None else 1
    open_groups = [(top, iter(root_items), None)]

    def attach(child, w):
        parent = open_groups[-1][0]
        if parent is None:
            ends.append((child, w))
        else:
            edges.append((parent, child, w))

    while open_groups:
        vid, items, w_up = open_groups[-1]
        item = next(items, None)
        if item is None:
            open_groups.pop()
            if open_groups:
                attach(vid, w_up)
        elif isinstance(item[0], str):
            labels.append(item[0])
            attach(len(labels) - 1, item[1])
        else:
            open_groups.append((~internal, iter(items_of(item[0])), item[1]))
            internal += 1
    if ends:
        (a, wa), (b, wb) = ends
        edges.append((a, b, wa + wb))
    n = len(labels)
    return ([(u if u >= 0 else n + ~u, v if v >= 0 else n + ~v, w)
             for u, v, w in edges], labels)


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
    as a walk out from that leaf sums it, so the result equals the
    symmetrised per-leaf walks bit for bit.
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
    del dist
    # paths summed from either end may differ in the last bit; this is
    # (out + out.T) / 2 bit for bit, with one (n, n) array fewer
    out = out + out.T
    out /= 2.0
    return out


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
    for a tie.  Reconstruction does not call it: it applies the same
    margin rule in ``reconstruct._test_cherry``, over a candidate's
    witness pairs.  ``reconstruct`` imports this name
    only because ``perfbench/spans.py`` looks it up there.
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

    Edge weights are ignored.  Zero iff the topologies are identical.
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
    if not 0.0 < mu < np.inf:
        raise ValueError("mu must be positive and finite")
    level = [f"leaf_{i}" for i in range(2 ** h)]
    while len(level) > 2:  # pair neighbours, one level at a time
        level = [((a, mu), (b, mu)) for a, b in zip(level[::2], level[1::2])]
    return Phylogeny(*_build_nested([(x, mu) for x in level], lambda g: g))


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
