"""rasphy: rates-across-sites phylogenetics.

Simulation of the generalized Poisson model with random per-site rate
scaling, and reconstruction of the tree topology from leaf data alone
via site clustering, statistic binning, and distorted-metric
agglomeration, with exact small-instance oracles for verification.
"""

from .binning import (BinAssignment, BinningParams, NoAbundantBin, bin_sites,
                      derive_params, select_abundant)
from .clustering import (ClusteringThresholds, EmptyPairSet, PairSet,
                         SparsityCertificate, agreement_matrix,
                         all_site_statistics, certify_sparsity, close_pairs,
                         expected_statistic_curve, full_sum_statistics,
                         invert_statistic_curve, oracle_sparsify,
                         sparsify, sparsity_constant)
from .distances import (DistortedMetric, DistortionReport, bin_agreement,
                        distorted_metric, verify_distortion)
from .models import (Alignment, AssumptionReport, RateDistribution,
                     SubstitutionModel, check_assumption,
                     exact_leaf_distribution, simulate_alignment,
                     transition_matrix)
from .pipeline import (ClassificationReport, PipelineConfig, PipelineError,
                       PipelineReport, identifiability_witness, run_pipeline,
                       site_classification_report)
from .reconstruct import (AmbiguousCherry, DisconnectedTrustGraph,
                          ReconstructionConfig, end_to_end_contract_check,
                          inject_distortion, reconstruct_topology)
from .trees import (NewickError, Phylogeny, RegularityParams,
                    StatisticalFailure, Topology, four_point_topology,
                    generate_complete_binary, generate_random_regular,
                    parse_newick, paths_disjoint, robinson_foulds,
                    tree_metric)

__version__ = "0.1.0"
