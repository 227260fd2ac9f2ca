"""Site clustering statistics built from sparse families of leaf pairs.

The per-site statistic averages normalized agreement indicators over a
set of leaf pairs.  For it to discriminate between per-site rates the
pair set must consist of close pairs (separation) whose connecting paths
are pairwise edge-disjoint and which number linearly in the leaf count
(concentration).  This module builds such pair sets two ways:

* data-driven (``close_pairs`` then ``sparsify``), using only the
  empirical agreement matrix, a plain ``(n, n)`` array from
  ``agreement_matrix``, and thresholds derived from the maximum edge
  weight g, never true distances;
* oracle (``oracle_sparsify``), using the true tree metric, for
  verification of the sparsity properties.

``all_site_statistics`` evaluates the per-site average;
``full_sum_statistics`` is the naive all-pairs variant kept as a
negative control (its signal-to-noise degrades on large trees).
``certify_sparsity`` checks the three sparse-pair properties against a
known tree.

An empty pair set (no pair of the data reached ``close_level``) raises
:class:`EmptyPairSet`, a statistical failure that the pipeline records
instead of raising; every other error here means a wrong call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Alignment, SubstitutionModel, invert_decreasing
from .trees import Phylogeny, RegularityParams, StatisticalFailure, tree_metric

__all__ = [
    "ClusteringThresholds",
    "EmptyPairSet",
    "PairSet",
    "SparsityCertificate",
    "agreement_matrix",
    "all_site_statistics",
    "certify_sparsity",
    "close_pairs",
    "expected_statistic_curve",
    "full_sum_statistics",
    "invert_statistic_curve",
    "oracle_sparsify",
    "sparsify",
    "sparsity_constant",
]


class EmptyPairSet(StatisticalFailure, ValueError):
    """A statistic or a thinning step was given no leaf pairs."""


@dataclass(frozen=True)
class ClusteringThresholds:
    """Agreement cutoffs derived from the maximum edge weight g.

    ``close_level = exp(-4.5 g)``   admit a pair as "close"
    ``prune_level = exp(-5.5 g)``   treat two leaves as crowding
    """

    close_level: float
    prune_level: float

    @classmethod
    def for_max_edge(cls, g: float) -> "ClusteringThresholds":
        if g <= 0.0:
            raise ValueError("max edge weight must be positive")
        return cls(close_level=math.exp(-4.5 * g),
                   prune_level=math.exp(-5.5 * g))

    def __post_init__(self):
        if not (self.prune_level < self.close_level):
            raise ValueError("thresholds must be ordered prune < close")


@dataclass(frozen=True)
class PairSet:
    """Unordered distinct leaf pairs, each stored as ``(a, b)`` with a < b."""

    pairs: tuple

    def __post_init__(self):
        canon = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        if any(a == b for a, b in canon):
            raise ValueError("a pair may not repeat a leaf")
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate pair")
        object.__setattr__(self, "pairs", canon)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _pair_index(pairs: PairSet) -> tuple:
    """The pairs' first and second leaves, as two intp arrays."""
    index = np.array(pairs.pairs, dtype=np.intp).reshape(-1, 2)
    return index[:, 0], index[:, 1]


@dataclass(frozen=True)
class SparsityCertificate:
    """Oracle-mode verification of the three sparse-pair properties.

    ``gamma_s = 2 ** -(2 * floor(M / f) + 2)`` is the guaranteed linear
    density.  The certificate is complete only if all three checks ran;
    ``ok`` means all three passed.
    """

    gamma_s: float
    path_disjoint: bool
    size_ok: bool
    distance_ok: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.path_disjoint and self.size_ok and self.distance_ok


def sparsity_constant(params: RegularityParams) -> float:
    """The guaranteed pair density ``2 ** -(2*floor(M/f) + 2)``."""
    return 2.0 ** -(2 * math.floor(params.distance_cap / params.min_edge) + 2)


# ---------------------------------------------------------------------------
# Empirical agreement
# ---------------------------------------------------------------------------


#: Bytes of the float32 block that holds one chunk of encoded sites in
#: the match-counting kernel.  With no site cap, 16 and 32 MiB ran
#: fastest of 4 to 64 MiB at n=512 and r=4.  It binds from n=1024 on;
#: below that :data:`_CHUNK_SITES` binds first.
CHUNK_BYTES = 16 * 2**20
#: Most sites in one chunk of the match-counting kernel: at n <= 512 and
#: r=4 its BLAS products ran no faster with 8192 rows on a 2-vCPU VM.
_CHUNK_SITES = 4096

#: Bit ``x`` is the parity of ``x``, for every ``x < 32``.
_PARITY = np.uint32(0x96696996)
#: The bits of float32 1.0; setting bit 31 as well gives -1.0.
_ONE_BITS = 0x3F800000
#: The sign planes are written in pieces of this many bytes, so that the
#: four passes over a piece find it in cache.
_PIECE_BYTES = 2**18


def _sign_plane(block: np.ndarray, m: int, bits: np.ndarray) -> None:
    """Write the Walsh sign ``(-1) ** popcount(s & m)`` of every state
    ``s`` of ``block`` as a float32 into ``bits``, a uint32 view of the
    float32 block.  Needs ``m < 32``."""
    step = max(1, _PIECE_BYTES // (4 * bits.shape[1]))
    for i in range(0, len(block), step):
        x = bits[i:i + step]
        np.bitwise_and(block[i:i + step], m, out=x, casting="unsafe")
        np.right_shift(_PARITY, x, out=x)
        np.left_shift(x, 31, out=x)
        np.bitwise_or(x, _ONE_BITS, out=x)


def _match_counts(data: np.ndarray, r: int, sites=None) -> np.ndarray:
    """How many of the sites each leaf pair agrees at, as a float64
    ``(n, n)``.  ``sites`` selects site indices; ``None`` takes them all.

    Walks the sites in chunks, gathering a chunk's rows when ``sites``
    is given, and encodes each chunk into float32 planes whose products
    ``X.T @ X`` it adds straight into a float64 total.  When ``r`` is a
    power of two up to 32 the planes are the Walsh signs ``X_m(s) = (-1)
    ** popcount(s & m)`` for ``m = 1 .. r-1``: since ``sum_m X_m(s)
    X_m(t)`` over ``m = 0 .. r-1`` is ``r`` when ``s == t`` and 0
    otherwise, and ``X_0 = 1``, the counts are ``(k + total) / r``, from
    ``r - 1`` products.  Otherwise the planes are the ``r`` one-hot
    indicators ``[s == x]`` and the total is the counts.

    Exactness: a product entry is a sum of ``+-1`` (or 0/1) over the
    chunk's sites, so every sum BLAS forms is an integer of magnitude at
    most the chunk's site count.  A chunk holds at most ``_CHUNK_SITES``
    = 4096 sites, far below ``2**24``, so float32 holds each such integer
    exactly, and their float64 total is exact too.  The counts are thus
    the exact integers, whatever order BLAS sums in.  The float32 block
    of a chunk takes at most ``min(_CHUNK_SITES * 4 n, CHUNK_BYTES)``
    bytes; the signs are written into it in place, and a gathered chunk
    adds its uint8 rows, a quarter of the block.
    """
    k = data.shape[0] if sites is None else len(sites)
    n = data.shape[1]
    signs = 2 <= r <= 32 and r & (r - 1) == 0
    planes = range(1, r) if signs else range(r)
    rows = min(_CHUNK_SITES, CHUNK_BYTES // (4 * max(n, 1)))
    counts = np.zeros((n, n))
    buf = np.empty((min(rows, k), n), dtype=np.float32)
    for start in range(0, k, rows):
        if sites is None:
            block = data[start:start + rows]
        else:
            block = data[sites[start:start + rows]]
        hot = buf[:len(block)]
        for m in planes:
            if signs:
                _sign_plane(block, m, hot.view(np.uint32))
            else:
                np.equal(block, m, out=hot)
            counts += hot.T @ hot
        del block  # a gathered chunk goes before the next one comes
    if signs:
        counts += k
        counts /= r
    return counts


def _check_alphabet(aln: Alignment, model: SubstitutionModel):
    if model.r != aln.r:
        raise ValueError(f"the model has r={model.r} but the alignment "
                         f"has r={aln.r}")


def _agreement(aln: Alignment, model: SubstitutionModel,
               sites=None) -> np.ndarray:
    """:func:`agreement_matrix` over the site indices ``sites``, or over
    all sites for ``None``."""
    _check_alphabet(aln, model)
    k = aln.k if sites is None else len(sites)
    if k == 0:
        raise ValueError("alignment has no sites")
    # in place on the counts: (counts / k - q_inf) / p_inf, bit for bit
    q = _match_counts(aln.data, aln.r, sites)
    q /= k
    q -= model.q_inf
    q /= model.p_inf
    np.fill_diagonal(q, 1.0)
    return q


def agreement_matrix(aln: Alignment, model: SubstitutionModel) -> np.ndarray:
    """Empirical normalized agreement of every leaf pair, ``(n, n)``.

    Entry ``[a, b]`` is the average over sites of
    ``(indicator(state_a == state_b) - q_inf) / p_inf``; its expectation
    under the model is ``phi(d(a, b))``.  Entries lie in
    ``[-q_inf/p_inf, 1]``.  The diagonal holds the self-agreement value
    1.0 (a leaf always agrees with itself), which :func:`sparsify`
    relies on to discard pairs sharing a leaf.

    The match counts come from float32 products over site chunks: ``r -
    1`` products of +-1 Walsh sign planes when ``r`` is a power of two up
    to 32, ``r`` one-hot products otherwise.  They are exact integers;
    :func:`_match_counts` says why.  Besides a few ``(n, n)`` arrays,
    the working memory is one float32 block of at most 4096 sites and at
    most ``CHUNK_BYTES``, whatever the number of sites.  An alignment
    with no sites is refused.
    """
    return _agreement(aln, model)


def close_pairs(q: np.ndarray, t: ClusteringThresholds) -> PairSet:
    """All pairs whose agreement in ``q`` (from :func:`agreement_matrix`)
    reaches ``close_level``.

    The boundary is closed: a pair sitting exactly on the threshold is
    included.
    """
    # nonzero lists the pairs in row-major order; a boolean mask costs a
    # byte per entry, where int64 indices of all pairs cost eight
    a_idx, b_idx = np.nonzero(np.triu(q >= t.close_level, 1))
    pairs = tuple(zip(a_idx.tolist(), b_idx.tolist()))
    return PairSet(pairs)


def sparsify(candidates: PairSet, q: np.ndarray,
             t: ClusteringThresholds) -> PairSet:
    """Greedily thin a candidate set so surviving pairs do not crowd.

    Pairs are picked in descending agreement (ties broken
    lexicographically).  After a pick, every remaining pair with a leaf
    whose agreement with either picked leaf reaches ``prune_level`` is
    dropped; since self-agreement is 1, the picked pair and anything
    sharing a leaf with it always go.
    """
    if len(candidates) == 0:
        raise EmptyPairSet("candidate pair set is empty")
    pa, pb = _pair_index(candidates)
    return PairSet(_greedy_thin(pa, pb, q, t.prune_level))


def _greedy_thin(pa: np.ndarray, pb: np.ndarray, closeness: np.ndarray,
                 level: float) -> tuple:
    """Pick the pairs ``(pa[i], pb[i])`` in descending ``closeness`` (ties
    lexicographic); after each pick drop every pair with a leaf whose
    closeness to either picked leaf reaches ``level``.

    ``closeness`` must be symmetric, as both callers' matrices are (the
    agreement matrix and the negated tree metric): the crowding test reads
    the picked leaves' rows, which are contiguous, in place of their
    columns."""
    order = np.lexsort((pb, pa, -closeness[pa, pb]))
    crowded = np.zeros(len(closeness), dtype=bool)  # "not below": NaN crowds
    kept = []
    for a, b in zip(pa[order].tolist(), pb[order].tolist()):
        if not (crowded[a] or crowded[b]):
            kept.append((a, b))
            crowded |= ~(closeness[a] < level) | ~(closeness[b] < level)
    return tuple(kept)


def oracle_sparsify(p: Phylogeny, params: RegularityParams,
                    m: float) -> PairSet:
    """Idealized sparsification with the true tree metric.

    Starts from all pairs at distance at most ``m`` (requires
    ``4g < m < M``), picks pairs in ascending distance, and after each
    pick removes every pair having a leaf within distance ``m`` of
    either picked leaf.  The output is pairwise path-disjoint, has at
    least ``gamma_s * n`` pairs, and all its distances lie in
    ``[2f, M]``.
    """
    g = params.max_edge
    if not (4.0 * g < m < params.distance_cap):
        raise ValueError(f"need 4g < m < M, got m={m}, 4g={4 * g}, "
                         f"M={params.distance_cap}")
    dist = tree_metric(p)
    a_idx, b_idx = np.nonzero(np.triu(dist <= m, 1))  # as in close_pairs
    # nearest first, and "within m" crowds: on negated distances this
    # is the thinning of ``sparsify``, exactly, as negation is exact
    return PairSet(_greedy_thin(a_idx, b_idx, -dist, -m))


def certify_sparsity(pairs: PairSet, p: Phylogeny, params: RegularityParams,
                     dist: np.ndarray | None = None) -> SparsityCertificate:
    """Verify the three sparse-pair properties against the true tree.

    Path-disjointness is checked by counting edge usage across all pair
    paths (pairwise disjoint iff no edge is used twice).  ``dist`` is the
    tree metric of ``p`` when the caller already holds it; by default it
    is computed here.
    """
    if dist is None:
        dist = tree_metric(p)
    n = p.n_leaves
    gamma_s = sparsity_constant(params)

    usage: dict = {}
    clash = None
    for a, b in pairs:
        for e in p.path_edges(a, b):
            if e in usage:
                clash = (usage[e], (a, b))
                break
            usage[e] = (a, b)
        if clash:
            break

    size_ok = len(pairs) >= gamma_s * n
    dmin, dmax = 2.0 * params.min_edge, params.distance_cap
    dvals = dist[_pair_index(pairs)]
    bad = np.flatnonzero(~((dmin <= dvals) & (dvals <= dmax)))
    distance_ok = bad.size == 0
    detail = ""
    if clash:
        detail = f"paths of {clash[0]} and {clash[1]} share an edge"
    elif not distance_ok:
        detail = (f"{bad.size} pairs outside [2f, M], "
                  f"first {pairs.pairs[bad[0]]}")
    return SparsityCertificate(
        gamma_s=gamma_s,
        path_disjoint=clash is None,
        size_ok=size_ok,
        distance_ok=distance_ok,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# The statistic
# ---------------------------------------------------------------------------


def all_site_statistics(aln: Alignment, pairs: PairSet,
                        model: SubstitutionModel) -> np.ndarray:
    """Vector of the clustering statistic for every site."""
    _check_alphabet(aln, model)
    if len(pairs) == 0:
        raise EmptyPairSet("pair set is empty")
    data = aln.data
    pa, pb = _pair_index(pairs)
    # np.take's gather along axis 1 is several times faster than fancy
    # indexing of the site-major array, with the same result
    agree = (np.take(data, pa, axis=1)
             == np.take(data, pb, axis=1)).mean(axis=1)
    return (agree - model.q_inf) / model.p_inf


def _pair_distances(p: Phylogeny, pairs: PairSet) -> np.ndarray:
    """The true distance of every pair, in the pair set's order."""
    if len(pairs) == 0:
        raise EmptyPairSet("pair set is empty")
    return tree_metric(p)[_pair_index(pairs)]


def expected_statistic_curve(p: Phylogeny, pairs: PairSet, lambda_grid):
    """Exact conditional-mean curve ``lam -> mean over pairs of
    exp(-lam * d(a, b))`` (strictly decreasing).  Oracle diagnostic; uses
    the true metric."""
    dvals = _pair_distances(p, pairs)
    return [(float(lam), float(np.exp(-lam * dvals).mean()))
            for lam in lambda_grid]


def invert_statistic_curve(p: Phylogeny, pairs: PairSet,
                           u_value: float) -> float:
    """The rate whose conditional-mean statistic equals ``u_value``.

    Oracle-mode diagnostic (needs true distances): inverts the strictly
    decreasing curve of :func:`expected_statistic_curve` with
    :func:`~rasphy.models.invert_decreasing`, e.g. to name the rate a
    statistic bin's midpoint corresponds to.  ``u_value`` must lie in
    (0, 1].
    """
    dvals = _pair_distances(p, pairs)
    return invert_decreasing(lambda lam: float(np.exp(-lam * dvals).mean()),
                             u_value)


def full_sum_statistics(aln: Alignment, model: SubstitutionModel) -> np.ndarray:
    """All-pairs agreement sum at every site (negative baseline).

    Sums the normalized indicator over every distinct leaf pair, without
    the pair-count normalization.  In the two-state uniform model this
    equals ``sum over pairs of sigma_a * sigma_b`` for the +/-1 site
    encoding.
    """
    _check_alphabet(aln, model)
    data = aln.data
    n = aln.n
    agree = np.zeros(aln.k)
    for x in range(aln.r):
        cx = (data == x).sum(axis=1).astype(np.float64)
        agree += cx * (cx - 1.0) / 2.0
    n_pairs = n * (n - 1) / 2.0
    return (agree - model.q_inf * n_pairs) / model.p_inf
