"""The package's export lists agree with what the modules define."""

import importlib
import pkgutil
import types

import pytest

import rasphy

# every submodule but ``__main__``, which would run the command line
MODULES = [importlib.import_module(f"rasphy.{info.name}")
           for info in pkgutil.iter_modules(rasphy.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_every_top_level_name_is_listed():
    listed = {name for module in MODULES
              for name in getattr(module, "__all__", ())}
    public = {name for name, value in vars(rasphy).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public - listed == set()


# Removing or renaming a public name must be a deliberate edit here.
PUBLIC_NAMES = {
    "rasphy": [
        "Alignment", "AmbiguousCherry", "AssumptionReport", "BinAssignment",
        "BinningParams", "ClassificationReport", "ClusteringThresholds",
        "DisconnectedTrustGraph", "DistortedMetric", "DistortionReport",
        "EmptyPairSet", "NewickError", "NoAbundantBin", "PairSet",
        "Phylogeny", "PipelineConfig", "PipelineError", "PipelineReport",
        "RateDistribution", "ReconstructionConfig", "RegularityParams",
        "SparsityCertificate", "StageRecord", "StatisticalFailure",
        "SubstitutionModel", "Topology", "agreement_matrix",
        "all_site_statistics", "bin_agreement", "bin_sites",
        "certify_sparsity", "check_assumption", "close_pairs",
        "derive_params", "distorted_metric",
        "end_to_end_contract_check", "exact_leaf_distribution",
        "expected_statistic_curve", "four_point_topology",
        "full_sum_statistics", "generate_complete_binary",
        "generate_random_regular", "identifiability_witness",
        "inject_distortion", "invert_decreasing", "invert_statistic_curve",
        "oracle_sparsify", "parse_newick", "paths_disjoint",
        "reconstruct_topology",
        "robinson_foulds", "run_pipeline", "select_abundant",
        "simulate_alignment", "site_classification_report", "sparsify",
        "sparsity_constant", "transition_matrix", "tree_metric",
        "verify_distortion",
    ],
    "rasphy.binning": [
        "BinAssignment", "BinningParams", "NoAbundantBin", "bin_sites",
        "derive_params", "select_abundant",
    ],
    "rasphy.cli": [],
    "rasphy.clustering": [
        "ClusteringThresholds", "EmptyPairSet", "PairSet",
        "SparsityCertificate", "agreement_matrix", "all_site_statistics",
        "certify_sparsity", "close_pairs", "expected_statistic_curve",
        "full_sum_statistics", "invert_statistic_curve", "oracle_sparsify",
        "sparsify", "sparsity_constant",
    ],
    "rasphy.distances": [
        "DistortedMetric", "DistortionReport", "bin_agreement",
        "distorted_metric", "verify_distortion",
    ],
    "rasphy.io": [
        "format_rates_spec", "parse_config_text", "parse_rates_spec",
        "read_alignment", "read_distance_matrix", "read_lambdas", "read_tree",
        "write_alignment", "write_bin_report", "write_distance_matrix",
        "write_lambdas", "write_pairset", "write_statistics_csv",
        "write_tree",
    ],
    "rasphy.models": [
        "Alignment", "AssumptionReport", "RateDistribution",
        "SubstitutionModel", "check_assumption", "exact_leaf_distribution",
        "invert_decreasing", "simulate_alignment", "transition_matrix",
    ],
    "rasphy.pipeline": [
        "ClassificationReport", "PipelineConfig", "PipelineError",
        "PipelineReport", "StageRecord", "identifiability_witness",
        "run_pipeline", "site_classification_report",
    ],
    "rasphy.reconstruct": [
        "AmbiguousCherry", "DisconnectedTrustGraph", "ReconstructionConfig",
        "end_to_end_contract_check", "inject_distortion",
        "reconstruct_topology",
    ],
    "rasphy.trees": [
        "NewickError", "Phylogeny", "RegularityParams", "StatisticalFailure",
        "Topology", "four_point_topology", "generate_complete_binary",
        "generate_random_regular", "parse_newick", "paths_disjoint",
        "robinson_foulds", "tree_metric",
    ],
}


def test_public_names_pinned():
    names = {"rasphy": sorted(
        name for name, value in vars(rasphy).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType))}
    for module in MODULES:
        names[module.__name__] = sorted(getattr(module, "__all__", ()))
    assert names == PUBLIC_NAMES
