"""The incremental agglomeration against the loop it replaced.

``reference_reconstruct_topology`` is the original cubic loop, kept
verbatim as an oracle.  ``reconstruct_topology`` must make the same
decisions on every input: the same Newick string, or the same exception
type and message.  The grid covers exact, noisy, censored and tie-heavy
metrics (the tree metric rounded to a 0.25 grid), which reach both
``AmbiguousCherry`` and ``DisconnectedTrustGraph``.
"""

import numpy as np
import pytest

from rasphy import (AmbiguousCherry, DisconnectedTrustGraph,
                    ReconstructionConfig, RegularityParams,
                    generate_random_regular, inject_distortion,
                    reconstruct_topology, tree_metric)
from rasphy import reconstruct
from rasphy.distances import DistortedMetric
from rasphy.trees import Topology, quartet_margin


# the trust cap as the loop first read it, from the whole matrix; a copy,
# so that the oracle shares no code with the code it checks
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


def reference_reconstruct_topology(dhat,
                                   cfg: ReconstructionConfig | None = None,
                                   labels=None) -> Topology:
    """The agglomeration loop as first written: every merge re-sorts all
    active pairs and walks the neighbours one by one in Python."""
    cfg = cfg or ReconstructionConfig()
    values = dhat.values if isinstance(dhat, DistortedMetric) else \
        np.asarray(dhat, dtype=float)
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
    active: list[int] = list(range(n))
    next_id = n

    while len(active) > 3:
        act = np.array(active)
        sub = d[np.ix_(act, act)]
        ii, jj = np.triu_indices(len(act), k=1)
        vals = sub[ii, jj]
        usable = vals < cap
        order = np.argsort(vals[usable], kind="stable")
        cand = list(zip(act[ii[usable]][order].tolist(),
                        act[jj[usable]][order].tolist()))
        merged = False
        tested_any = False
        for a, b in cand:
            witnesses = [
                c for c in active
                if c != a and c != b and d[a, c] < cap and d[b, c] < cap
            ]
            witnesses.sort(key=lambda c: (min(d[a, c], d[b, c]), c))
            witnesses = witnesses[: cfg.witness_count]
            pairs = [
                (c, e)
                for i_, c in enumerate(witnesses)
                for e in witnesses[i_ + 1:]
                if d[c, e] < cap
            ]
            if not pairs:
                continue
            tested_any = True
            confirmed = True
            for c, e in pairs:
                split, margin = quartet_margin(d, a, b, c, e)
                if set(split[0]) not in ({a, b}, {c, e}) or \
                        margin <= margin_floor:
                    confirmed = False
                    break
            if not confirmed:
                continue
            # merge the confirmed cherry at its apex
            heights = [0.5 * (d[a, b] + d[a, c] - d[b, c]) for c in witnesses]
            h_a = float(np.median(heights))
            h_a = min(max(h_a, 0.0), d[a, b])
            h_b = d[a, b] - h_a
            v = next_id
            next_id += 1
            clades.append((clades[a], clades[b]))
            for c in active:
                if c == a or c == b:
                    continue
                ests = []
                if np.isfinite(d[a, c]) and np.isfinite(d[b, c]):
                    ests.append(0.5 * (d[a, c] + d[b, c] - d[a, b]))
                if np.isfinite(d[a, c]):
                    ests.append(d[a, c] - h_a)
                if np.isfinite(d[b, c]):
                    ests.append(d[b, c] - h_b)
                est = max(float(np.median(ests)), 0.0) if ests else np.inf
                d[v, c] = d[c, v] = est
            active = [c for c in active if c != a and c != b]
            active.append(v)
            merged = True
            break
        if not merged:
            if tested_any:
                raise AmbiguousCherry(
                    f"no candidate cherry won its quartet tests by more than "
                    f"4*tau={margin_floor} with {len(active)} nodes left"
                )
            raise DisconnectedTrustGraph(
                f"no candidate cherry has two trusted witnesses with "
                f"{len(active)} nodes left; trust horizon or sample size "
                "too small"
            )
    return Topology.from_nested(tuple(clades[c] for c in active))




REG = RegularityParams(0.1, 0.2, 1.5)
# (psi / (g log n), injected tau, witness_count)
DISTORTIONS = [(5, 0.01, 6), (2, 0.02, 3), (1, 0.02, 2), (0.5, 0.0, 6),
               (5, 0.08, 6)]
# (tau, witness_count, trust_cap) on the metric rounded to a 0.25 grid
TIE_HEAVY = [(0.0, 6, np.inf), (0.0, 2, None), (0.05, 3, 1.0),
             (0.0, 6, 0.6)]


def _cases(n):
    for seed in range(3 if n <= 64 else 1):
        metric = tree_metric(generate_random_regular(n, REG, seed=seed))
        yield metric, ReconstructionConfig(trust_cap=np.inf)
        yield metric, ReconstructionConfig()
        for psi_mult, tau, wc in DISTORTIONS:
            psi = psi_mult * REG.max_edge * np.log(n)
            dhat = inject_distortion(metric, tau, psi, seed=seed + 100)
            yield dhat, ReconstructionConfig(trust_cap=psi, tau=tau,
                                             witness_count=wc)
            yield dhat, ReconstructionConfig(tau=tau, witness_count=wc)
        rounded = np.round(metric * 4) / 4
        for tau, wc, cap in TIE_HEAVY:
            yield rounded, ReconstructionConfig(trust_cap=cap, tau=tau,
                                                witness_count=wc)


def _outcome(fn, dhat, cfg, labels):
    try:
        return fn(dhat, cfg, labels=labels).to_newick()
    except (AmbiguousCherry, DisconnectedTrustGraph) as exc:
        return type(exc).__name__, str(exc)


def _quick_cases(n):
    """``_cases(n)`` without the infinite trust cap and the ``tau =
    0.08`` distortion, where the reference takes longest; the rest still
    reach every outcome."""
    for dhat, cfg in _cases(n):
        if cfg.trust_cap != np.inf and cfg.tau != 0.08:
            yield dhat, cfg


@pytest.mark.parametrize("n", [4, 5, 8, 16, 32, 64, 128, 256])
def test_same_decisions_as_reference(n):
    labels = [f"t{i}" for i in range(n)]
    kinds = set()
    for dhat, cfg in (_cases(n) if n <= 128 else _quick_cases(n)):
        want = _outcome(reference_reconstruct_topology, dhat, cfg, labels)
        got = _outcome(reconstruct_topology, dhat, cfg, labels)
        assert got == want, (cfg, want, got)
        kinds.add(want[0] if isinstance(want, tuple) else "tree")
    assert kinds == {"tree", "AmbiguousCherry", "DisconnectedTrustGraph"}


def test_no_candidate_retested_with_unchanged_witnesses(monkeypatch):
    # a failed candidate is tested again only after a merge changed its
    # witness list, so two tests of one candidate never see the same list
    real = reconstruct._witnesses
    calls = []

    def spy(d, slot, act, acts, a, b, cap, count):
        w = real(d, slot, act, acts, a, b, cap, count)
        calls.append(((a, b), tuple(w.tolist())))
        return w

    monkeypatch.setattr(reconstruct, "_witnesses", spy)
    n = 128
    retested = 0
    for dhat, cfg in _cases(n):
        calls.clear()
        _outcome(reconstruct_topology, dhat, cfg, [f"t{i}" for i in range(n)])
        last = {}
        for pair, w in calls:
            assert last.get(pair) != w, (cfg, pair, w)
            retested += pair in last
            last[pair] = w
    assert retested > 0
