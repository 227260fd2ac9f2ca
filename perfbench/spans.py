"""Outside-in tracing of rasphy's layers, from the benchmark's own files.

The tracer wraps public functions of each rasphy module by replacing the
name in every ``rasphy`` module namespace that holds the same function
object (``rasphy.cli.simulate_alignment``, ``rasphy.pipeline.tree_metric``,
``rasphy.clustering.tree_metric``, ...).  Calls then record a span: name,
start, end, parent span and replicate id.  Spans stay in memory and are
written out when the run ends; self time is a span's duration minus the
durations of its direct children (calls on one thread nest, so the
children never overlap).  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# Layers are named after rasphy's modules; a span's layer is the prefix of
# its name up to the first dot.
LAYERS = ("cli", "io", "pipeline", "models", "clustering", "binning",
          "distances", "reconstruct", "trees")


def _observe_select_abundant(args, kwargs, result, counters):
    ba, k = args[0], args[1]
    bp = ba.params
    threshold = k * bp.chi / (6.0 * bp.num_bins)
    counters["binning.best_bin_count"] += int(ba.counts()[result])
    counters["binning.abundance_threshold"] += threshold
    counters["binning.sites"] += k


def _observe_distorted_metric(args, kwargs, result, counters):
    import numpy as np
    v = result.values
    n = v.shape[0]
    off = ~np.eye(n, dtype=bool)
    counters["distances.finite_entries"] += int(np.isfinite(v[off]).sum())
    counters["distances.offdiag_entries"] += n * (n - 1)


def _observe_reconstruct(args, kwargs, result, counters):
    # the agglomeration merges until three nodes remain
    counters["reconstruct.merges"] += len(result.labels) - 3


def _observe_write_alignment(args, kwargs, result, counters):
    counters["io.alignment_bytes"] += os.path.getsize(args[0])


def _observe_simulate(args, kwargs, result, counters):
    counters["models.simulate_alignment.sites"] += result.k


def _observe_close_pairs(args, kwargs, result, counters):
    counters["clustering.close_pairs.candidate_pairs"] += len(result)


def _observe_sparsify(args, kwargs, result, counters):
    counters["clustering.sparsify.kept_pairs"] += len(result)


def _observe_run_pipeline(args, kwargs, result, counters):
    counters["pipeline.stage_records_s"] += sum(r.seconds for r in result.stages)


# (module, function, span name, observer)
TARGETS = (
    ("rasphy.cli", "main", "cli.main", None),
    ("rasphy.models", "simulate_alignment", "models.simulate_alignment",
     _observe_simulate),
    ("rasphy.models", "check_assumption", "models.check_assumption", None),
    ("rasphy.models", "exact_leaf_distribution",
     "models.exact_leaf_distribution", None),
    ("rasphy.io", "parse_rates_spec", "io.parse_rates_spec", None),
    ("rasphy.io", "format_rates_spec", "io.format_rates_spec", None),
    ("rasphy.io", "parse_config_text", "io.parse_config_text", None),
    ("rasphy.io", "read_lambdas", "io.read_lambdas", None),
    ("rasphy.io", "read_distance_matrix", "io.read_distance_matrix", None),
    ("rasphy.io", "write_alignment", "io.write_alignment",
     _observe_write_alignment),
    ("rasphy.io", "read_alignment", "io.read_alignment", None),
    ("rasphy.io", "write_lambdas", "io.write_lambdas", None),
    ("rasphy.io", "read_tree", "io.read_tree", None),
    ("rasphy.io", "write_tree", "io.write_tree", None),
    ("rasphy.io", "write_pairset", "io.write_pairset", None),
    ("rasphy.io", "write_statistics_csv", "io.write_statistics_csv", None),
    ("rasphy.io", "write_bin_report", "io.write_bin_report", None),
    ("rasphy.io", "write_distance_matrix", "io.write_distance_matrix", None),
    ("rasphy.pipeline", "run_pipeline", "pipeline.run_pipeline",
     _observe_run_pipeline),
    ("rasphy.pipeline", "_oracle_diagnostics", "pipeline.oracle", None),
    ("rasphy.clustering", "agreement_matrix", "clustering.agreement_matrix",
     None),
    ("rasphy.clustering", "close_pairs", "clustering.close_pairs",
     _observe_close_pairs),
    ("rasphy.clustering", "sparsify", "clustering.sparsify",
     _observe_sparsify),
    ("rasphy.clustering", "all_site_statistics",
     "clustering.all_site_statistics", None),
    ("rasphy.clustering", "certify_sparsity", "clustering.certify_sparsity",
     None),
    ("rasphy.binning", "bin_sites", "binning.bin_sites", None),
    ("rasphy.binning", "select_abundant", "binning.select_abundant",
     _observe_select_abundant),
    ("rasphy.distances", "bin_agreement", "distances.bin_agreement", None),
    ("rasphy.distances", "distorted_metric", "distances.distorted_metric",
     _observe_distorted_metric),
    ("rasphy.distances", "verify_distortion", "distances.verify_distortion",
     None),
    ("rasphy.reconstruct", "reconstruct_topology",
     "reconstruct.reconstruct_topology", _observe_reconstruct),
    ("rasphy.reconstruct", "quartet_margin", "reconstruct.quartet_margin",
     None),
    ("rasphy.trees", "tree_metric", "trees.tree_metric", None),
    ("rasphy.trees", "robinson_foulds", "trees.robinson_foulds", None),
    ("rasphy.trees", "generate_random_regular",
     "trees.generate_random_regular", None),
    ("rasphy.trees", "parse_newick", "trees.parse_newick", None),
)

# called thousands of times per replicate: counted, not timed
COUNT_ONLY = ("reconstruct.quartet_margin",)
# peak traced allocation is sampled around each call of these spans
ALLOC_SPANS = ("clustering.agreement_matrix",)


class Tracer:
    """Spans and counters of the traced replicates of one run."""

    def __init__(self):
        self.spans = []          # [id, parent, replicate, name, t0, t1]
        self.counters = defaultdict(int)
        self.peak_alloc = defaultdict(float)
        self._stack = []
        self._replicate = None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every rasphy namespace that imported it,
        and put the originals back when the block ends."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rasphy"
                                         or name.startswith("rasphy."))]
        patches = []
        try:
            for mod_name, attr, span, observe in TARGETS:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(original, span, observe)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def _wrap(self, fn, span, observe):
        tracer = self
        if span in COUNT_ONLY:
            count_name = f"{span}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer._replicate is not None:
                    tracer.counters[count_name] += 1
                return fn(*args, **kwargs)
            return counted

        sample_alloc = span in ALLOC_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._replicate is None:
                return fn(*args, **kwargs)
            name = span
            if span == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.{argv[0]}"
            if sample_alloc:
                tracemalloc.start()
            with tracer.span(name):
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if sample_alloc:
                        peak = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
                        tracer.peak_alloc[name] = max(
                            tracer.peak_alloc[name], peak)
            tracer.counters[f"{name}.calls"] += 1
            if observe is not None:
                observe(args, kwargs, result, tracer.counters)
            return result
        return traced

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, self._replicate, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def replicate(self, rep_id):
        """Record spans under ``rep_id`` while the block runs."""
        self._replicate = rep_id
        try:
            yield
        finally:
            self._replicate = None

    def self_times(self):
        """Per-span self time: duration minus direct children's durations."""
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, rep, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "replicate": rep, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def per_layer_metrics(tracer, untraced_times, traced_times):
    """The per-layer metrics of BENCHMARK.json from one traced run.

    Durations and counts are summed over the traced replicates; each of
    those runs under a root span named ``replicate``.
    """
    import statistics

    own = tracer.self_times()
    total = defaultdict(float)
    self_total = defaultdict(float)
    for sid, parent, rep, name, t0, t1 in tracer.spans:
        total[name] += t1 - t0
        self_total[name] += own[sid]
    c = tracer.counters

    def s(name):
        return total.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = defaultdict(float)
    for name, value in self_total.items():
        layer_self[name.split(".")[0]] += value

    io_total = sum(v for k, v in total.items() if k.startswith("io."))
    merges = c["reconstruct.merges"]
    sites = c["models.simulate_alignment.sites"]
    m = {
        "trace.replicates": len(traced_times),
        "trace.replicate_s": sum(traced_times),
        "trace.overhead_s": (statistics.median(traced_times)
                             - statistics.median(untraced_times)),
        "trace.harness_self_s": layer_self["replicate"],
        "models.simulate_alignment.s": s("models.simulate_alignment"),
        "models.simulate_alignment.calls":
            c["models.simulate_alignment.calls"],
        "models.simulate_alignment.us_per_site":
            1e6 * ratio(s("models.simulate_alignment"), sites),
        "models.check_assumption.s": s("models.check_assumption"),
        "models.exact_leaf_distribution.s":
            s("models.exact_leaf_distribution"),
        "io.write_alignment.s": s("io.write_alignment"),
        "io.read_alignment.s": s("io.read_alignment"),
        "io.write_distance_matrix.s": s("io.write_distance_matrix"),
        "io.total_s": io_total,
        "io.alignment_bytes": c["io.alignment_bytes"],
        "cli.simulate.s": s("cli.simulate"),
        "cli.pipeline.s": s("cli.pipeline"),
        "pipeline.run_pipeline.s": s("pipeline.run_pipeline"),
        "pipeline.run_pipeline.self_s": self_total["pipeline.run_pipeline"],
        "pipeline.oracle_s": s("pipeline.oracle"),
        "pipeline.unstaged_s": (s("pipeline.run_pipeline")
                                - c["pipeline.stage_records_s"]
                                - s("pipeline.oracle")),
        "clustering.agreement_matrix.s": s("clustering.agreement_matrix"),
        "clustering.agreement_matrix.calls":
            c["clustering.agreement_matrix.calls"],
        "clustering.agreement_matrix.peak_alloc_mb":
            tracer.peak_alloc["clustering.agreement_matrix"],
        "clustering.close_pairs.s": s("clustering.close_pairs"),
        "clustering.close_pairs.candidate_pairs":
            c["clustering.close_pairs.candidate_pairs"],
        "clustering.sparsify.s": s("clustering.sparsify"),
        "clustering.sparsify.kept_pairs": c["clustering.sparsify.kept_pairs"],
        "clustering.kept_pair_ratio":
            ratio(c["clustering.sparsify.kept_pairs"],
                  c["clustering.close_pairs.candidate_pairs"]),
        "clustering.all_site_statistics.s":
            s("clustering.all_site_statistics"),
        "clustering.certify_sparsity.s": s("clustering.certify_sparsity"),
        "binning.bin_sites.s": s("binning.bin_sites"),
        "binning.select_abundant.s": s("binning.select_abundant"),
        "binning.abundance_ratio": ratio(c["binning.best_bin_count"],
                                         c["binning.abundance_threshold"]),
        "binning.kept_site_fraction": ratio(c["binning.best_bin_count"],
                                            c["binning.sites"]),
        "distances.bin_agreement.s": s("distances.bin_agreement"),
        "distances.distorted_metric.s": s("distances.distorted_metric"),
        "distances.verify_distortion.s": s("distances.verify_distortion"),
        "distances.finite_fraction": ratio(c["distances.finite_entries"],
                                           c["distances.offdiag_entries"]),
        "reconstruct.reconstruct_topology.s":
            s("reconstruct.reconstruct_topology"),
        "reconstruct.merges": merges,
        "reconstruct.s_per_merge":
            ratio(s("reconstruct.reconstruct_topology"), merges),
        "reconstruct.quartet_margin.calls":
            c["reconstruct.quartet_margin.calls"],
        "trees.tree_metric.s": s("trees.tree_metric"),
        "trees.robinson_foulds.s": s("trees.robinson_foulds"),
        "trees.generate_random_regular.s": s("trees.generate_random_regular"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
