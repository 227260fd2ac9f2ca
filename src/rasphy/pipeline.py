"""End-to-end orchestration: alignment in, topology plus diagnostics out.

``run_pipeline`` calls the inference stages in turn, one statement each,
in the order that ``_STAGES`` names them

    agreement matrix -> close pairs -> sparsify -> per-site statistics
    -> binning constants -> bin assignment -> abundant bin
    -> bin agreement -> distorted metric -> topology

reading nothing but the alignment character matrix (the hidden rate
sidecar is stripped on entry, so inference cannot leak it even by
accident).  A stage that finds too little signal in the data raises a
:class:`~rasphy.trees.StatisticalFailure` (an empty pair set, no
abundant bin, no confirmable cherry); it is recorded in the report with
a hint, and the later stages are marked skipped.  Any other exception is
a wrong input or a bug and propagates.  Diagnostics against the true
tree and the hidden rates are filled in afterwards when the caller
provides them.

Also here: the desk-scale identifiability oracle (exact total-variation
distance between leaf distributions of two small models) and the
slow/fast site classification report for two-speed simulations.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import binning as _binning
from . import clustering as _clustering
from . import distances as _distances
from . import reconstruct as _reconstruct
from .models import (Alignment, RateDistribution, SubstitutionModel,
                     check_assumption, exact_leaf_distribution)
from .trees import (Phylogeny, RegularityParams, StatisticalFailure, Topology,
                    robinson_foulds, tree_metric)

__all__ = [
    "ClassificationReport",
    "PipelineConfig",
    "PipelineError",
    "PipelineReport",
    "StageRecord",
    "identifiability_witness",
    "run_pipeline",
    "site_classification_report",
]


class PipelineError(RuntimeError):
    """A stage failed; carries the stage name and a remediation hint."""

    def __init__(self, stage: str, cause: BaseException, hint: str):
        super().__init__(f"stage {stage!r} failed: {cause} (hint: {hint})")
        self.stage = stage
        self.cause = cause
        self.hint = hint


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs besides the alignment itself.

    ``rates`` is the modeled rate distribution; when provided, the
    regularity assumption is checked before anything runs.
    """

    reg: RegularityParams
    rates: RateDistribution | None = None
    gamma_u: float | None = None
    recon: _reconstruct.ReconstructionConfig | None = None


@dataclass
class StageRecord:
    name: str
    status: str  # "ok" | "failed" | "skipped"
    seconds: float = 0.0
    detail: dict = field(default_factory=dict)
    reason: str = ""


@dataclass
class PipelineReport:
    """Everything a run produced, stage by stage.

    ``ok`` is true iff every stage ran; on a statistical failure
    ``error`` holds the annotated exception and downstream stages are
    marked skipped.  Oracle-mode fields (``rf_distance``,
    ``certificate``, ``distortion``) are filled only when ground truth
    was supplied.
    """

    stages: list = field(default_factory=list)
    topology: Topology | None = None
    pair_set: _clustering.PairSet | None = None
    u_values: np.ndarray | None = None
    bin_params: _binning.BinningParams | None = None
    assignment: _binning.BinAssignment | None = None
    abundant_bin: int | None = None
    dhat: _distances.DistortedMetric | None = None
    rf_distance: int | None = None
    certificate: _clustering.SparsityCertificate | None = None
    distortion: _distances.DistortionReport | None = None
    error: PipelineError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_record(self) -> dict:
        """The run as one JSON-safe dict of plain Python values.

        ``stages`` maps each stage to its status, seconds, counts and
        reason; ``summary`` holds ``ok`` and, once scored, ``rf``;
        ``params``, ``certificate`` and ``distortion`` hold their fields
        (and ``ok``) when filled.  Each value has one key path.
        """
        record = {"stages": {}, "summary": {"ok": self.ok}}
        for rec in self.stages:
            stage = record["stages"][rec.name] = {
                "status": rec.status, "seconds": rec.seconds, **rec.detail}
            if rec.reason:
                stage["reason"] = rec.reason
        if self.rf_distance is not None:
            record["summary"]["rf"] = self.rf_distance
        for key, value in (("params", self.bin_params),
                           ("certificate", self.certificate),
                           ("distortion", self.distortion)):
            if value is None:
                continue
            record[key] = {
                name: list(item) if isinstance(item, tuple) else item
                for name, item in asdict(value).items()
                if item is not None and item != ""}
            if hasattr(value, "ok"):
                record[key]["ok"] = value.ok
        return record

    def raise_if_failed(self):
        if self.error is not None:
            raise self.error


_STAGES = ("agreement_matrix", "close_pairs", "sparsify", "site_statistics",
           "derive_params", "bin_sites", "select_abundant", "bin_agreement",
           "distorted_metric", "reconstruct_topology")


class _Stop(Exception):
    """Ends the stage chain: past ``stop_after``, or at a recorded failure."""


def run_pipeline(aln: Alignment, cfg: PipelineConfig,
                 truth: Phylogeny | None = None,
                 stop_after: str | None = None) -> PipelineReport:
    """Run the full inference chain on an alignment.

    The sidecar of hidden rates, if present, is stripped before any
    stage runs; with ``truth`` (and the original sidecar) given, oracle
    diagnostics are appended after inference finishes.  Statistical
    stage failures are recorded in the report (``report.ok`` false)
    instead of raising; use ``report.raise_if_failed()`` to escalate.
    Every other exception propagates.  With ``stop_after`` naming a
    stage, the stages after it neither run nor appear in the report.
    A ``truth`` whose leaf count differs from the alignment's raises
    ``ValueError`` before any stage runs.
    """
    if truth is not None and truth.n_leaves != aln.n:
        raise ValueError(f"the truth tree has {truth.n_leaves} leaves but "
                         f"the alignment has {aln.n}")
    if stop_after is not None and stop_after not in _STAGES:
        raise ValueError(f"unknown stage {stop_after!r}")
    names = _STAGES[:_STAGES.index(stop_after) + 1] if stop_after else _STAGES
    if cfg.rates is not None:
        check_assumption(cfg.rates, cfg.reg).raise_if_failed()
    data = aln.without_lambdas()
    model = SubstitutionModel.uniform(aln.r)
    thresholds = _clustering.ClusteringThresholds.for_max_edge(
        cfg.reg.max_edge)
    report = PipelineReport()

    def run(func, *args, hint=None, **kwargs):
        if len(report.stages) == len(names):
            raise _Stop
        rec = StageRecord(name=names[len(report.stages)], status="ok")
        report.stages.append(rec)
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        except StatisticalFailure as exc:
            if hint is None:  # only stages with a hint fail statistically
                raise
            report.error = PipelineError(rec.name, exc, hint)
            rec.status, rec.reason = "failed", str(report.error)
            raise _Stop from None
        finally:
            rec.seconds = time.perf_counter() - t0

    # Each call is the next stage in ``_STAGES`` order, which names it; its
    # function is looked up through its module at call time, so a patched
    # module attribute takes effect.  An (n, n) output is deleted after
    # its last reader, before the next stage allocates its own.
    try:
        agreement = run(_clustering.agreement_matrix, data, model)
        candidates = run(_clustering.close_pairs, agreement, thresholds)
        report.stages[-1].detail = {"candidate_pairs": len(candidates)}
        report.pair_set = run(
            _clustering.sparsify, candidates, agreement, thresholds,
            hint="increase k so agreement estimates stabilize, "
            "or check f/g against the data scale")
        report.stages[-1].detail = {"pair_count": len(report.pair_set)}
        del agreement, candidates
        report.u_values = run(_clustering.all_site_statistics, data,
                              report.pair_set, model)
        report.bin_params = run(_binning.derive_params, cfg.reg, aln.n,
                                cfg.gamma_u)
        report.assignment = run(_binning.bin_sites, report.u_values,
                                report.bin_params)
        report.abundant_bin = run(_binning.select_abundant,
                                  report.assignment, aln.k, hint="increase k")
        abundant_sites = report.assignment.sites(report.abundant_bin)
        report.stages[-1].detail = {"abundant_bin": report.abundant_bin,
                                    "bin_size": abundant_sites.size}
        bin_agreement = run(_distances.bin_agreement, data, abundant_sites,
                            model)
        report.dhat = run(_distances.distorted_metric, bin_agreement)
        del bin_agreement
        report.topology = run(
            _reconstruct.reconstruct_topology, report.dhat, cfg.recon,
            labels=truth.labels if truth is not None else None,
            hint="increase k or loosen the trust cap")
    except _Stop:
        pass
    for name in names[len(report.stages):]:
        report.stages.append(StageRecord(
            name=name, status="skipped",
            reason=f"upstream stage {report.error.stage!r} failed"))

    if truth is not None:
        _oracle_diagnostics(report, aln, cfg, truth)
    return report


def _oracle_diagnostics(report: PipelineReport, aln: Alignment,
                        cfg: PipelineConfig, truth: Phylogeny):
    if report.topology is not None:
        report.rf_distance = robinson_foulds(report.topology, truth)
    if report.pair_set is None:  # then no later stage ran either
        return
    dist = tree_metric(truth)
    report.certificate = _clustering.certify_sparsity(
        report.pair_set, truth, cfg.reg, dist=dist)
    if report.dhat is not None and aln.hidden_lambdas is not None:
        bin_idx = report.assignment.sites(report.abundant_bin)
        lam_star = float(aln.hidden_lambdas[bin_idx].mean())
        tau = lam_star * cfg.reg.min_edge / 5.0
        psi = float(5.0 * lam_star * cfg.reg.max_edge * np.log(aln.n))
        report.distortion = _distances.verify_distortion(
            report.dhat, lam_star * dist, tau, psi)


# ---------------------------------------------------------------------------
# Desk-scale oracles and diagnostics
# ---------------------------------------------------------------------------


def identifiability_witness(p1: Phylogeny, p2: Phylogeny,
                            rates1: RateDistribution,
                            rates2: RateDistribution,
                            model: SubstitutionModel) -> float:
    """Exact total-variation distance between the two leaf distributions.

    Both instances must be small enough for exact enumeration and share
    the same leaf label set.  A strictly positive value witnesses that
    the models are distinguishable from leaf data alone.
    """
    if set(p1.labels) != set(p2.labels):
        raise ValueError("instances must share a leaf label set")
    d1 = exact_leaf_distribution(p1, model, rates1)
    d2 = exact_leaf_distribution(p2, model, rates2)
    # align the second distribution's leaf axes to the first's label order
    d2 = np.transpose(d2, axes=[p2.leaf_id(lab) for lab in p1.labels])
    return 0.5 * float(np.abs(d1 - d2).sum())


@dataclass(frozen=True)
class ClassificationReport:
    """Slow/fast site classification against the hidden rate sidecar."""

    accuracy: float
    threshold: float
    mean_slow: float
    mean_fast: float
    n_slow: int
    n_fast: int
    confusion: tuple  # ((true slow pred slow, true slow pred fast), (...))


def site_classification_report(aln: Alignment, pairs: _clustering.PairSet,
                               truth: Phylogeny,
                               model: SubstitutionModel | None = None
                               ) -> ClassificationReport:
    """Classify sites as slow or fast by thresholding the statistic.

    Requires the simulator sidecar (two distinct hidden rates at most)
    and the true tree, which supplies the conditional-mean curve whose
    midpoint is the decision threshold.  Slow sites have the smaller
    rate, hence the larger statistic.
    """
    if aln.hidden_lambdas is None:
        raise ValueError("alignment carries no hidden rate sidecar")
    model = model or SubstitutionModel.uniform(aln.r)
    speeds = np.unique(aln.hidden_lambdas)
    if len(speeds) > 2:
        raise ValueError("classification report needs two-speed rates")
    lam_slow = float(speeds[0])
    lam_fast = float(speeds[-1])
    curve = _clustering.expected_statistic_curve(
        truth, pairs, [lam_slow, lam_fast])
    mean_slow, mean_fast = curve[0][1], curve[1][1]
    threshold = 0.5 * (mean_slow + mean_fast)
    u = _clustering.all_site_statistics(aln, pairs, model)
    lam_mid = 0.5 * (lam_slow + lam_fast)
    truly_fast = aln.hidden_lambdas > lam_mid
    predicted_fast = u < threshold
    tss, tsf, tfs, tff = np.bincount(
        2 * truly_fast + predicted_fast, minlength=4).tolist()
    return ClassificationReport(
        accuracy=(tss + tff) / len(u), threshold=threshold,
        mean_slow=mean_slow, mean_fast=mean_fast,
        n_slow=tss + tsf, n_fast=tfs + tff,
        confusion=((tss, tsf), (tfs, tff)),
    )
