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
RapidNJ (Simonsen, Mailund and Pedersen, WABI 2008).  One queue holds
the usable pairs, read from the upper triangle of the symmetric input:
the leaf pairs as one sorted run, each pseudo-leaf's pairs as another,
and a heap over the heads of the runs.  Each merge pops candidates in
order, drops those with a merged endpoint, tests the rest until one is
confirmed, and then pushes back the candidates that failed and adds the
new pseudo-leaf's usable pairs as a run.  A pair's distance never
changes once written, so the order stays exact.  The pseudo-leaf's
distance row is computed over arrays in one step.

A failed candidate keeps its verdict with its witness list.  The
verdict reads only the entries of ``d`` among the pair and its
witnesses, and entries never change once written, so the verdict stands
while the list does.  A merge of ``(a, b)`` into ``v`` changes the list
in two ways only:

- ``a`` or ``b`` is a member.  A merged node never returns, so the list
  has changed for good.
- ``v`` is trusted from both ends and comes before the last member, or
  the list is shorter than ``witness_count``.  ``v`` then holds a place
  until it merges in turn.  Its id exceeds every live id, so a tie with
  the last member's key leaves it out.

A candidate popped again with its list unchanged fails again without a
test.  The cache also keeps whether any witness pair was trusted, which
decides between :class:`AmbiguousCherry` and
:class:`DisconnectedTrustGraph` when no candidate passes.  A test checks
all witness pairs of a candidate in one array expression.

Every comparison is homogeneous in the distance scale, so a global
rescaling of the input (with the configuration scaled along) cannot
change any decision; the unknown scaling factor of the estimated metric
is therefore harmless.
"""

from __future__ import annotations

import functools
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
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if self.trust_cap is not None and not self.trust_cap > 4.0 * self.tau:
            raise ValueError("trust_cap must exceed 4 * tau")
        if self.witness_count < 2:
            raise ValueError("witness_count must be at least 2")


def _resolve_trust_cap(values: np.ndarray, cfg: ReconstructionConfig) -> float:
    if cfg.trust_cap is not None:
        return cfg.trust_cap
    n = values.shape[0]
    iu = np.triu_indices(n, k=1)
    finite = values[iu][np.isfinite(values[iu])]
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
    ``(value, a, b)``.

    Pairs arrive in runs (all leaf pairs, then one run per pseudo-leaf),
    each sorted once in numpy; the heap holds only the head of each run
    plus single pairs pushed back, so adding a run of ``m`` pairs costs
    one sort instead of ``m`` heap pushes.
    """

    def __init__(self):
        self._heap = []
        self._runs = []

    def __bool__(self):
        return bool(self._heap)

    def add_run(self, vals: np.ndarray, a: np.ndarray, b: np.ndarray):
        # the pairs arrive in (a, b) order, so a stable sort on the value
        # puts them in the order (value, a, b)
        order = np.argsort(vals, kind="stable")
        run = (vals[order], a[order], b[order])
        self._runs.append(run)
        self._push_head(len(self._runs) - 1, 0)

    def _push_head(self, r: int, i: int):
        vals, a, b = self._runs[r]
        if i < vals.size:
            heapq.heappush(self._heap,
                           (float(vals[i]), int(a[i]), int(b[i]), r, i))

    def push(self, pair: tuple):
        heapq.heappush(self._heap, pair + (-1, 0))

    def pop(self) -> tuple:
        value, a, b, r, i = heapq.heappop(self._heap)
        if r >= 0:
            self._push_head(r, i + 1)
        return value, a, b


def _witnesses(d: np.ndarray, act: np.ndarray, a: int, b: int, cap: float,
               count: int) -> np.ndarray:
    """The ``count`` active nodes nearest to the pair ``(a, b)`` that are
    trusted from both ends, ordered by ``(min(d[a, c], d[b, c]), c)``."""
    da, db = d[a, act], d[b, act]
    keep = (da < cap) & (db < cap) & (act != a) & (act != b)
    ids = act[keep]
    key = np.minimum(da, db)[keep]
    if ids.size > count:
        # keep every node up to the count-th smallest key, ties included
        near = key <= np.partition(key, count - 1)[count - 1]
        ids, key = ids[near], key[near]
    # ``act`` ascends, so a stable sort on the key orders by (key, id)
    return ids[np.argsort(key, kind="stable")[:count]]


@functools.lru_cache(maxsize=None)
def _upper_pairs(m: int) -> tuple:
    """Index pairs ``i < j`` of ``m`` items, in row order."""
    return np.triu_indices(m, k=1)


def _test_cherry(d: np.ndarray, a: int, b: int, w: np.ndarray, cap: float,
                 margin_floor: float) -> tuple:
    """``(tested, confirmed)`` for the candidate ``(a, b)`` and its
    witnesses ``w``.

    ``tested`` is whether some witness pair ``(c, e)`` is trusted.
    ``confirmed`` is whether every trusted pair splits ``ab|ce`` with
    margin above ``margin_floor``: the sum ``s1 = d[a, b] + d[c, e]``
    comes first in a stable sort of the three four-point sums, and the
    next sum exceeds it by more than the floor.  Every entry is below
    ``cap``, so no sum is NaN; a NaN margin passes, as ``margin <=
    margin_floor`` is false for it.
    """
    i, j = _upper_pairs(w.size)
    c, e = w[i], w[j]
    dce = d[c, e]
    trusted = dce < cap
    if not trusted.any():
        return False, False
    c, e = c[trusted], e[trusted]
    s1 = d[a, b] + dce[trusted]
    s2 = d[a, c] + d[b, e]
    s3 = d[a, e] + d[b, c]
    wins = (s1 <= s2) & (s1 <= s3) & ~(np.minimum(s2, s3) - s1 <= margin_floor)
    return True, bool(wins.all())


def _verdict_stands(d: np.ndarray, x: int, y: int, w: tuple, cap: float,
                    count: int, merges) -> bool:
    """Whether the witness list ``w`` of the pair ``(x, y)`` is still
    its list after the merges ``(a, b, v)``.

    The list stays ``w`` while every member lives and no other trusted
    node comes before its last member (no other trusted node at all,
    when the list is short of ``count``).  Only merge products join the
    active nodes, and a product's id exceeds every live id, so a product
    comes before the last member iff its key is smaller.  Such a product
    holds a place in the list until it merges in turn; a merged member
    never comes back.
    """
    full = len(w) == count
    last = min(d[x, w[-1]], d[y, w[-1]]) if full else None
    ahead = set()  # live merge products that take a place in the list
    for a, b, v in merges:
        if a in w or b in w:
            return False
        ahead.discard(a)
        ahead.discard(b)
        dxv, dyv = d[x, v], d[y, v]
        if dxv < cap and dyv < cap and (not full or min(dxv, dyv) < last):
            ahead.add(v)
    return not ahead


def _median(x: np.ndarray) -> float:
    """``np.median`` of a short vector, bit for bit."""
    s = np.sort(x)
    m = s.size // 2
    if np.isnan(s[-1]):
        return float("nan")
    return float(s[m] if s.size % 2 else (s[m - 1] + s[m]) / 2)


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
    ``ValueError`` if it fails them.  ``labels`` names the leaves
    (defaults to ``leaf_0 ..``).

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
    cap = _resolve_trust_cap(values, cfg)
    margin_floor = 4.0 * cfg.tau

    total = 2 * n - 3  # leaves plus every merge product
    d = np.full((total, total), np.inf)
    d[:n, :n] = values
    np.fill_diagonal(d, 0.0)
    clades: list = list(labels)
    alive = np.zeros(total, dtype=bool)
    alive[:n] = True

    # the usable pairs, read from the upper triangle; entries whose
    # endpoint has merged are dropped when popped
    ii, jj = np.triu_indices(n, k=1)
    vals = d[ii, jj]
    usable = vals < cap
    queue = _CandidateQueue()
    queue.add_run(vals[usable], ii[usable], jj[usable])

    # failed candidates: (a, b) -> (merges seen, witnesses, tested)
    verdicts = {}
    merges = []  # (a, b, v) of each merge so far
    for v in range(n, total):
        act = np.flatnonzero(alive)
        failed = []  # popped live candidates that did not merge
        tested_any = False
        while queue:
            entry = queue.pop()
            _, a, b = entry
            if not (alive[a] and alive[b]):
                verdicts.pop((a, b), None)
                continue
            cached = verdicts.get((a, b))
            if cached is not None and _verdict_stands(
                    d, a, b, cached[1], cap, cfg.witness_count,
                    merges[cached[0]:]):
                _, w, tested = cached
            else:
                witnesses = _witnesses(d, act, a, b, cap, cfg.witness_count)
                tested, confirmed = _test_cherry(d, a, b, witnesses, cap,
                                                 margin_floor)
                if confirmed:
                    break
                w = tuple(witnesses.tolist())
            verdicts[(a, b)] = (len(merges), w, tested)
            tested_any = tested_any or tested
            failed.append(entry)
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
        # merge the confirmed cherry at its apex
        dab = d[a, b]
        heights = 0.5 * (dab + d[a, witnesses] - d[b, witnesses])
        h_a = _median(heights)
        h_a = min(max(h_a, 0.0), dab)
        h_b = dab - h_a
        clades.append((clades[a], clades[b]))
        alive[a] = alive[b] = False
        others = np.flatnonzero(alive[:v])
        row = _pseudo_leaf_row(d[a, others], d[b, others], dab, h_a, h_b)
        d[v, others] = row
        d[others, v] = row
        alive[v] = True
        merges.append((a, b, v))
        for entry in failed:
            queue.push(entry)
        keep = row < cap
        queue.add_run(row[keep], others[keep], np.full(keep.sum(), v))
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
        iu = np.triu_indices(n, k=1)
        noise = rng.uniform(-tau, tau, size=len(iu[0])) * (1.0 - 1e-12)
        out[iu] += noise
        out.T[iu] = out[iu]
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
