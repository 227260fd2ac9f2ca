"""Topology recovery from a distorted metric.

The input is a symmetric matrix of distance estimates that is accurate
(within ``tau``) on every entry below a trust horizon and arbitrary or
``+inf`` beyond it.  Reconstruction proceeds by cherry agglomeration:

1. among trusted entries, find a pair whose quartet split against the
   nearest trusted witnesses is confirmed with margin above ``4 * tau``
   (four entries enter a four-point comparison, each off by at most
   ``tau``, so a genuine cherry margin of twice the scaled minimum edge
   weight survives whenever ``tau`` is at most a fifth of it);
2. merge the pair into a pseudo-leaf placed at the cherry apex, taking
   the median of the available distance estimates per neighbor for
   robustness against censored entries;
3. repeat until three nodes remain.

Candidates are tried in the order ``(value, lower id, higher id)``:
ascending distance, ties broken by node id.  Leaves keep their ids
``0 .. n-1`` and each pseudo-leaf takes the next unused id, so this is
also the stable order of the active pairs by distance.  The order is
part of the contract: tree metrics on a coarse grid tie often, and the
tie-break decides which of several equal cherries merges first.

The agglomeration is incremental, with sorted candidate rows as in
RapidNJ (Simonsen, Mailund and Pedersen, WABI 2008).  Each node ``b``
owns one sorted run of its usable pairs with the nodes below it, and a
heap over the heads of the runs yields, in order, only pairs whose two
ends are alive; the runs of a merged pair are dropped at its merge.
Each merge tests candidates until one is confirmed, pushes back those
that failed and adds the new pseudo-leaf's run, whose distance row is
computed over arrays in one step.  A pair's distance never changes
while both ends live, so the order stays exact.

Distances live in one ``(n, n)`` working matrix ``d`` indexed by slot,
not by node id: leaf ``i`` sits in slot ``i``, and a merge product
takes the slot of the lower id of its cherry and overwrites its row
and column.  Node ids stay the only keys of every order and record; a
slot only locates a distance.

A failed candidate is pushed back with its verdict: that round's
product id, its witness list and whether any witness pair was trusted.
The verdict reads only entries of ``d`` among the pair and its
witnesses, which do not change while they live, so it stands while the
list does.  The list has changed iff a member is dead, or a live
product made since is trusted from both ends and comes before the last
member (any such product, when the list is short of ``witness_count``);
a product's id exceeds every member's, so a tie with the last member's
key leaves it out.  A candidate popped again with its list unchanged
fails again without a test, and its trusted flag decides between
:class:`AmbiguousCherry` and :class:`DisconnectedTrustGraph` when no
candidate passes.  A test gathers the block of ``d`` among the pair and
its witnesses once, as Python floats; the quartet checks and, for the
confirmed cherry, the apex heights read only that block.

Every comparison is homogeneous in the distance scale, so a global
rescaling of the input (with the configuration scaled along) cannot
change any decision; the unknown scaling factor of the estimated metric
is therefore harmless.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .distances import DistortedMetric
from .trees import Phylogeny, StatisticalFailure, Topology, tree_metric
# not called here; perfbench/spans.py looks this name up in this module
from .trees import quartet_margin  # noqa: F401

__all__ = [
    "AmbiguousCherry",
    "DisconnectedTrustGraph",
    "ReconstructionConfig",
    "end_to_end_contract_check",
    "inject_distortion",
    "reconstruct_topology",
]


class DisconnectedTrustGraph(StatisticalFailure):
    """No candidate cherry could be tested; the trust horizon or the
    sample size is too small."""


class AmbiguousCherry(StatisticalFailure):
    """Candidate cherries exist but none passed the quartet margin test."""


@dataclass(frozen=True)
class ReconstructionConfig:
    """Tuning knobs for the agglomeration.

    ``trust_cap``       only entries strictly below it are used; ``None``
                        selects a data-driven cap (3 times the 20th
                        percentile of the finite entries, clipped to the
                        largest finite entry).
    ``tau``             noise tolerance; quartet splits must win by more
                        than ``4 * tau``.
    ``witness_count``   how many nearest witnesses vet each candidate.
    """

    trust_cap: float | None = None
    tau: float = 0.0
    witness_count: int = 6

    def __post_init__(self):
        if not 0.0 <= self.tau < np.inf:
            raise ValueError("tau must be finite and nonnegative, "
                             f"not {self.tau!r}")
        if self.trust_cap is not None and not self.trust_cap > 4.0 * self.tau:
            raise ValueError("trust_cap must exceed 4 * tau")
        if (not isinstance(self.witness_count, (int, np.integer))
                or self.witness_count < 2):
            raise ValueError("witness_count must be an integer of at "
                             f"least 2, not {self.witness_count!r}")


def _resolve_trust_cap(vals: np.ndarray, cfg: ReconstructionConfig) -> float:
    """The trust cap, from ``vals``, the entries below the diagonal."""
    if cfg.trust_cap is not None:
        return cfg.trust_cap
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise DisconnectedTrustGraph("no finite distance estimates")
    cap = min(3.0 * float(np.percentile(finite, 20)), float(finite.max()))
    # strict comparisons below; nudge so the largest finite entry stays usable
    cap = np.nextafter(cap, np.inf)
    if not cap > 4.0 * cfg.tau:
        raise DisconnectedTrustGraph(
            f"data-driven trust cap {cap} does not exceed 4*tau={4 * cfg.tau}"
        )
    return cap


class _CandidateQueue:
    """Candidate pairs ``(value, a, b)``, ``a < b``, popped in the order
    ``(value, a, b)`` while both ends are alive.

    Node ``b``'s run holds its pairs below ``cap`` with the nodes ``ids``
    below it, sorted once in numpy; the heap holds only the head of each
    run, as ``(value, a, b, i, None)`` with ``i`` the place in the run,
    plus failed pairs pushed back, as ``(value, a, b, -1, verdict)``.
    ``(value, a, b, i)`` is unique among live entries, so the heap never
    compares a verdict.  Every pair of ``b``'s run holds ``b``;
    :meth:`drop` frees the run when ``b`` merges, and its head is
    skipped when it reaches the top.
    """

    def __init__(self, alive: np.ndarray, cap: float):
        self._heap = []
        self._runs = {}
        self._alive = alive
        self._cap = cap

    def add_run(self, b: int, vals: np.ndarray, ids: np.ndarray):
        # ``ids`` ascend, so a stable sort on the value puts the pairs in
        # the order (value, a, b)
        keep = (vals < self._cap).nonzero()[0]
        order = keep[vals[keep].argsort(kind="stable")]
        self._runs[b] = (vals[order], ids[order])
        self._push_head(b, 0)

    def _push_head(self, b: int, i: int):
        vals, ids = self._runs[b]
        if i < vals.size:
            heapq.heappush(self._heap,
                           (float(vals[i]), int(ids[i]), b, i, None))
        else:
            del self._runs[b]

    def drop(self, b: int):
        self._runs.pop(b, None)

    def push(self, pair: tuple, verdict: tuple):
        heapq.heappush(self._heap, pair + (-1, verdict))

    def pop(self) -> tuple | None:
        """``(value, a, b, verdict)`` of the next live pair, or ``None``."""
        while self._heap:
            value, a, b, i, verdict = heapq.heappop(self._heap)
            if not self._alive[b]:
                continue
            if i >= 0:
                self._push_head(b, i + 1)
            if self._alive[a]:
                return value, a, b, verdict
        return None


def _witnesses(d: np.ndarray, slot: np.ndarray, act: np.ndarray,
               acts: np.ndarray, a: int, b: int, cap: float,
               count: int) -> np.ndarray:
    """The ``count`` active nodes nearest to the pair ``(a, b)`` that are
    trusted from both ends, ordered by ``(min(d[a, c], d[b, c]), c)``.

    ``d`` is indexed by slot and ``slot`` maps node ids to slots; ``act``
    holds the active ids in ascending order and ``acts`` their slots, in
    the same order, so that the stable sort below breaks ties by id.
    """
    # a 1-D take from a row view is quicker than 2-D fancy indexing
    da, db = d[slot[a]][acts], d[slot[b]][acts]
    keep = (da < cap) & (db < cap) & (act != a) & (act != b)
    ids = act[keep]
    key = np.minimum(da, db)[keep]
    if ids.size > count:
        # keep every node up to the count-th smallest key, ties included
        near = key <= np.partition(key, count - 1)[count - 1]
        ids, key = ids[near], key[near]
    # ``act`` ascends, so a stable sort on the key orders by (key, id)
    return ids[key.argsort(kind="stable")[:count]]


def _test_cherry(block: list, cap: float, margin_floor: float) -> tuple:
    """``(tested, confirmed)`` for a candidate ``(a, b)`` from ``block``,
    the rows of ``d`` among ``a``, ``b`` and its witnesses, in that
    order, as lists of floats.

    ``tested`` is whether some witness pair ``(c, e)`` is trusted.
    ``confirmed`` is whether every trusted pair splits ``ab|ce`` with
    margin above ``margin_floor``: the sum ``s1 = d[a, b] + d[c, e]``
    comes first in a stable sort of the three four-point sums, and the
    next sum exceeds it by more than the floor.  Every entry is below
    ``cap``, so no sum is NaN; a NaN margin passes, as ``margin <=
    margin_floor`` is false for it.  The first pair that fails decides.
    """
    row_a, row_b = block[0], block[1]
    dab = row_a[1]
    tested = False
    for c in range(2, len(block)):
        row_c = block[c]
        for e in range(c + 1, len(block)):
            if not row_c[e] < cap:
                continue
            tested = True
            s1 = dab + row_c[e]
            s2 = row_a[c] + row_b[e]
            s3 = row_a[e] + row_b[c]
            if not (s1 <= s2 and s1 <= s3
                    and not min(s2, s3) - s1 <= margin_floor):
                return True, False
    return tested, tested


def _verdict_stands(d: np.ndarray, slot: np.ndarray, alive: np.ndarray,
                    x: int, y: int, w: tuple, products: range, cap: float,
                    count: int) -> bool:
    """Whether ``w``, the witness list of the live pair ``(x, y)`` when
    its test failed, is still its list after the merges that made
    ``products``, by the rule in the module docstring.  ``d`` is indexed
    by slot, and only the slots of live nodes are read.
    """
    if not all(alive[c] for c in w):
        return False
    sx, sy = slot[x], slot[y]
    full = len(w) == count
    last = min(d[sx, slot[w[-1]]], d[sy, slot[w[-1]]]) if full else None
    for p in products:
        if alive[p]:
            dxp, dyp = d[sx, slot[p]], d[sy, slot[p]]
            if dxp < cap and dyp < cap and (not full or min(dxp, dyp) < last):
                return False
    return True


def _pseudo_leaf_row(dac: np.ndarray, dbc: np.ndarray, dab: float,
                     h_a: float, h_b: float) -> np.ndarray:
    """Distances from the apex of cherry ``(a, b)`` to the other nodes.

    Per node, the median of the available estimates: the three-point
    estimate when both entries are finite, plus one estimate through
    each finite entry.  Both entries finite gives three estimates, one
    finite entry gives one, none gives ``inf``.  The median of three is
    computed as ``max(min(e1, e2), min(max(e1, e2), e3))``, which is the
    middle element exactly.  Negative estimates clamp to 0.
    """
    fa, fb = np.isfinite(dac), np.isfinite(dbc)
    with np.errstate(invalid="ignore"):
        e1 = 0.5 * (dac + dbc - dab)
        e2 = dac - h_a
        e3 = dbc - h_b
        mid = np.maximum(np.minimum(e1, e2), np.minimum(np.maximum(e1, e2), e3))
    est = np.where(fa & fb, mid, np.where(fa, e2, np.where(fb, e3, np.inf)))
    return np.where(est < 0.0, 0.0, est)


def reconstruct_topology(dhat, cfg: ReconstructionConfig | None = None,
                         labels=None) -> Topology:
    """Recover the leaf topology from a distorted metric.

    ``dhat`` is a :class:`DistortedMetric` or a symmetric ``(n, n)``
    array with ``+inf`` for missing entries; a raw array passes the same
    square and symmetry checks as a :class:`DistortedMetric` and raises
    ``ValueError`` if it fails them.  ``labels`` names the leaves, each
    through ``str`` (defaults to ``leaf_0 ..``); a list of another length
    than ``n`` raises ``ValueError``.

    Contract: if the input is a valid distortion of a tree metric whose
    (rescaled) edge weights lie in ``[f', g']`` with accuracy
    ``tau <= f'/5`` and trust horizon ``psi >= 5 g' log n``, and
    ``cfg.trust_cap <= psi``, the output equals the true topology.
    """
    cfg = cfg or ReconstructionConfig()
    if not isinstance(dhat, DistortedMetric):
        dhat = DistortedMetric(values=dhat)
    values = dhat.values
    n = values.shape[0]
    if n < 4:
        raise ValueError("need at least 4 leaves")
    if labels is None:
        labels = [f"leaf_{i}" for i in range(n)]
    labels = [str(x) for x in labels]
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} leaves")
    cap = _resolve_trust_cap(values[np.tri(n, k=-1, dtype=bool)], cfg)
    margin_floor = 4.0 * cfg.tau

    total = 2 * n - 3  # leaves plus every merge product
    # the working matrix, indexed by slot; ``values`` is the caller's
    d = values.copy()
    np.fill_diagonal(d, 0.0)
    slot = np.arange(total)  # leaf i in slot i; products' are set at merge
    clades: list = list(labels)
    alive = np.zeros(total, dtype=bool)
    alive[:n] = True

    queue = _CandidateQueue(alive, cap)
    for b in range(1, n):
        queue.add_run(b, values[b, :b], np.arange(b, dtype=np.int32))

    for v in range(n, total):
        act = alive.nonzero()[0]
        acts = slot[act]
        failed = []  # (pair, verdict) of each popped candidate that failed
        tested_any = False
        while (entry := queue.pop()) is not None:
            value, a, b, verdict = entry
            if verdict is not None and _verdict_stands(
                    d, slot, alive, a, b, verdict[1], range(verdict[0], v),
                    cap, cfg.witness_count):
                _, w, tested = verdict
            else:
                witnesses = _witnesses(d, slot, act, acts, a, b, cap,
                                       cfg.witness_count)
                near = [slot[a], slot[b], *slot[witnesses].tolist()]
                block = d[np.ix_(near, near)].tolist()
                tested, confirmed = _test_cherry(block, cap, margin_floor)
                if confirmed:
                    break
                w = tuple(witnesses.tolist())
            tested_any = tested_any or tested
            failed.append(((value, a, b), (v, w, tested)))
        else:
            if tested_any:
                raise AmbiguousCherry(
                    f"no candidate cherry won its quartet tests by more than "
                    f"4*tau={margin_floor} with {act.size} nodes left"
                )
            raise DisconnectedTrustGraph(
                f"no candidate cherry has two trusted witnesses with "
                f"{act.size} nodes left; trust horizon or sample size "
                "too small"
            )
        # merge the confirmed cherry at its apex, into the slot of ``a``;
        # its height above ``a`` is the median of the witnesses' estimates
        sa, sb = int(slot[a]), int(slot[b])
        da, db = d[sa], d[sb]
        dab = block[0][1]
        heights = sorted(0.5 * (dab + x - y)
                         for x, y in zip(block[0][2:], block[1][2:]))
        m = len(heights) // 2
        h_a = heights[m] if len(heights) % 2 else (
            heights[m - 1] + heights[m]) / 2
        h_a = min(max(h_a, 0.0), dab)
        h_b = dab - h_a
        clades.append((clades[a], clades[b]))
        alive[a] = alive[b] = False
        queue.drop(a)
        queue.drop(b)
        others = alive[:v].nonzero()[0]
        so = slot[others]
        row = _pseudo_leaf_row(da[so], db[so], dab, h_a, h_b)
        slot[v] = sa
        da[so] = row
        d[:, sa][so] = row  # d[:, sa] is a view, so this writes the column
        alive[v] = True
        for pair, verdict in failed:
            queue.push(pair, verdict)
        queue.add_run(v, row, others)
    return Topology.from_nested(tuple(clades[c] for c in np.flatnonzero(alive)))


def inject_distortion(metric: np.ndarray, tau: float, psi: float,
                      seed: int) -> DistortedMetric:
    """Synthetic valid distortion of an exact metric.

    Entries at distance ``psi + tau`` or beyond are censored to ``+inf``;
    all others receive independent uniform noise strictly inside
    ``(-tau, tau)``.  With ``tau = 0`` the surviving entries are exact.
    """
    rng = np.random.default_rng(seed)
    d = np.asarray(metric, dtype=float)
    n = d.shape[0]
    out = d.copy()
    if tau > 0.0:
        upper = ~np.tri(n, dtype=bool)  # pairs a < b, taken in row-major order
        out[upper] += rng.uniform(-tau, tau, n * (n - 1) // 2) * (1.0 - 1e-12)
        out.T[upper] = out[upper]
    out[d >= psi + tau] = np.inf
    np.fill_diagonal(out, 0.0)
    return DistortedMetric(values=out)


def end_to_end_contract_check(p: Phylogeny, cfg: ReconstructionConfig,
                              injected_tau: float, injected_psi: float,
                              seeds, lam_scale: float = 1.0) -> float:
    """Fraction of seeds for which reconstruction from a synthetic
    distortion of the (rescaled) true metric returns the true topology.

    Out-of-contract settings may fail; failures and reconstruction
    errors count against the rate but never raise.
    """
    truth = p.topology()
    metric = lam_scale * tree_metric(p)
    hits = 0
    seeds = list(seeds)
    for seed in seeds:
        dhat = inject_distortion(metric, injected_tau, injected_psi, seed)
        try:
            recon = reconstruct_topology(dhat, cfg, labels=p.labels)
        except (AmbiguousCherry, DisconnectedTrustGraph):
            continue
        if recon == truth:
            hits += 1
    return hits / len(seeds)
