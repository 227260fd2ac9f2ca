"""End-to-end orchestration: alignment in, topology plus diagnostics out.

``run_pipeline`` chains the inference stages of ``_STAGES``

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
from dataclasses import dataclass, field

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
    model: SubstitutionModel | None = None
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

    @property
    def bin_size(self) -> int | None:
        """Number of sites in the abundant bin."""
        if self.abundant_bin is None:
            return None
        return len(self.assignment.bins[self.abundant_bin])

    def raise_if_failed(self):
        if self.error is not None:
            raise self.error


# (stage, report field, call, hint, detail).  ``call`` and ``detail``
# read the run state: "aln", "model", "cfg", "thresholds", "labels" and
# the output of every earlier stage under its name.  Calls name their
# function through its module at call time, so a patched module
# attribute takes effect.  Only the stages with a hint can fail
# statistically.
_STAGES = (
    ("agreement_matrix", None,
     lambda s: _clustering.agreement_matrix(s["aln"], s["model"]),
     None, None),
    ("close_pairs", None,
     lambda s: _clustering.close_pairs(s["agreement_matrix"],
                                       s["thresholds"]),
     None, lambda s: {"candidate_pairs": len(s["close_pairs"])}),
    ("sparsify", "pair_set",
     lambda s: _clustering.sparsify(s["close_pairs"], s["agreement_matrix"],
                                    s["thresholds"]),
     "increase k so agreement estimates stabilize, or check f/g against "
     "the data scale",
     lambda s: {"pair_count": len(s["sparsify"])}),
    ("site_statistics", "u_values",
     lambda s: _clustering.all_site_statistics(s["aln"], s["sparsify"],
                                               s["model"]),
     None, None),
    ("derive_params", "bin_params",
     lambda s: _binning.derive_params(s["cfg"].reg, s["aln"].n,
                                      s["cfg"].gamma_u),
     None, None),
    ("bin_sites", "assignment",
     lambda s: _binning.bin_sites(s["site_statistics"], s["derive_params"]),
     None, None),
    ("select_abundant", "abundant_bin",
     lambda s: _binning.select_abundant(s["bin_sites"], s["aln"].k),
     "increase k",
     lambda s: {"abundant_bin": s["select_abundant"],
                "bin_size": len(s["bin_sites"].bins[s["select_abundant"]])}),
    ("bin_agreement", None,
     lambda s: _distances.bin_agreement(
         s["aln"], s["bin_sites"].bins[s["select_abundant"]], s["model"]),
     None, None),
    ("distorted_metric", "dhat",
     lambda s: _distances.distorted_metric(s["bin_agreement"]),
     None, None),
    ("reconstruct_topology", "topology",
     lambda s: _reconstruct.reconstruct_topology(
         s["distorted_metric"], s["cfg"].recon, labels=s["labels"]),
     "increase k or loosen the trust cap", None),
)


def run_pipeline(aln: Alignment, cfg: PipelineConfig,
                 truth: Phylogeny | None = None) -> PipelineReport:
    """Run the full inference chain on an alignment.

    The sidecar of hidden rates, if present, is stripped before any
    stage runs; with ``truth`` (and the original sidecar) given, oracle
    diagnostics are appended after inference finishes.  Statistical
    stage failures are recorded in the report (``report.ok`` false)
    instead of raising; use ``report.raise_if_failed()`` to escalate.
    Every other exception propagates.
    """
    if cfg.rates is not None:
        verdict = check_assumption(cfg.rates, cfg.reg)
        if not verdict.ok:
            raise ValueError(
                "model assumption violated: phi_inverse(exp(-6g)) = "
                f"{verdict.phi_inv_6g!r} exceeds the distance cap "
                f"{cfg.reg.distance_cap!r}"
            )
    state = {
        "aln": aln.without_lambdas(),
        "model": cfg.model or SubstitutionModel.uniform(aln.r),
        "cfg": cfg,
        "thresholds": _clustering.ClusteringThresholds.for_max_edge(
            cfg.reg.max_edge),
        "labels": truth.labels if truth is not None else None,
    }
    report = PipelineReport()
    for name, attr, call, hint, detail in _STAGES:
        if report.error is not None:
            report.stages.append(StageRecord(
                name=name, status="skipped",
                reason=f"upstream stage {report.error.stage!r} failed"))
            continue
        t0 = time.perf_counter()
        try:
            state[name] = call(state)
        except StatisticalFailure as exc:
            if hint is None:
                raise
            report.error = PipelineError(name, exc, hint)
            report.stages.append(StageRecord(
                name=name, status="failed",
                seconds=time.perf_counter() - t0, reason=str(report.error)))
            continue
        report.stages.append(StageRecord(
            name=name, status="ok", seconds=time.perf_counter() - t0,
            detail=detail(state) if detail is not None else {}))
        if attr is not None:
            setattr(report, attr, state[name])

    if truth is not None:
        _oracle_diagnostics(report, aln, cfg, truth)
    return report


def _oracle_diagnostics(report: PipelineReport, aln: Alignment,
                        cfg: PipelineConfig, truth: Phylogeny):
    if report.topology is not None:
        report.rf_distance = robinson_foulds(report.topology, truth)
    if report.pair_set is not None:
        report.certificate = _clustering.certify_sparsity(
            report.pair_set, truth, cfg.reg)
    if (report.dhat is not None and aln.hidden_lambdas is not None
            and report.abundant_bin is not None):
        bin_idx = report.assignment.bins[report.abundant_bin]
        lam_star = float(aln.hidden_lambdas[bin_idx].mean())
        tau = lam_star * cfg.reg.min_edge / 5.0
        psi = 5.0 * lam_star * cfg.reg.max_edge * np.log(aln.n)
        report.distortion = _distances.verify_distortion(
            report.dhat, lam_star * tree_metric(truth), tau, psi)


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
    axis_of = {lab: i for i, lab in enumerate(p2.labels)}
    perm = [axis_of[lab] for lab in p1.labels]
    d2 = np.transpose(d2, axes=perm)
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
    accuracy = float((truly_fast == predicted_fast).mean())
    tss = int((~truly_fast & ~predicted_fast).sum())
    tsf = int((~truly_fast & predicted_fast).sum())
    tfs = int((truly_fast & ~predicted_fast).sum())
    tff = int((truly_fast & predicted_fast).sum())
    return ClassificationReport(
        accuracy=accuracy, threshold=threshold,
        mean_slow=mean_slow, mean_fast=mean_fast,
        n_slow=int((~truly_fast).sum()), n_fast=int(truly_fast.sum()),
        confusion=((tss, tsf), (tfs, tff)),
    )
