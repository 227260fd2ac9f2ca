"""
From site statistics to a distorted metric
==========================================

Sites whose clustering statistic lands in a common narrow bin share a
nearly common speed.  Restricting pair agreement to one abundant bin and
taking ``-log`` therefore estimates the tree metric up to an unknown
overall scale (the bin's speed) -- accurately at short range, censored to
``+inf`` beyond the trust horizon.  Topology reconstruction only needs
exactly that.
"""

import dataclasses

import numpy as np

import rasphy as rp

params = rp.RegularityParams(0.2, 0.2, 1.5)
rates = rp.RateDistribution.two_speed(0.5, 1.5)
model = rp.SubstitutionModel.uniform(4)
tree = rp.generate_complete_binary(h=8, mu=0.2)  # 256 leaves
aln = rp.simulate_alignment(tree, model, rates, k=20_000, seed=6)

# data-driven pair selection and per-site statistics
thresholds = rp.ClusteringThresholds.for_max_edge(params.max_edge)
q = rp.agreement_matrix(aln, model)
pairs = rp.sparsify(rp.close_pairs(q, thresholds), q, thresholds)
u = rp.all_site_statistics(aln, pairs, model)

# binning constants derived from (f, g, M) alone
bp = rp.derive_params(params, n=aln.n)
print("binning constants:")
for name, value in dataclasses.asdict(bp).items():
    print(f"    {name}={value}")

assignment = rp.bin_sites(u, bp)
star = rp.select_abundant(assignment, k=aln.k)
bin_sites = assignment.sites(star)
print(f"\nabundant bin {star}: {len(bin_sites)} of {aln.k} sites, "
      f"edges {assignment.edges(star)}")

lam_in_bin = aln.hidden_lambdas[bin_sites]
frac_slow = (lam_in_bin == lam_in_bin.min()).mean()
print(f"hidden speeds inside the bin: {frac_slow:.1%} at "
      f"{lam_in_bin.min():.1f}, rest at {lam_in_bin.max():.1f} "
      f"(mean {lam_in_bin.mean():.3f})")
lo, hi = assignment.edges(star)
named = rp.invert_statistic_curve(tree, pairs, 0.5 * (lo + hi))
print(f"rate named by the bin midpoint (oracle inversion): {named:.3f}")

# distances from the bin, compared against the rescaled truth
qstar = rp.bin_agreement(aln, bin_sites, model)
dhat = rp.distorted_metric(qstar)
lam_star = float(lam_in_bin.mean())
scaled_truth = lam_star * rp.tree_metric(tree)

finite = np.isfinite(dhat.values)
iu = np.triu_indices(aln.n, k=1)
err = np.abs(dhat.values - scaled_truth)[iu]
print(f"\nfinite distance estimates: {int(finite[iu].sum())} "
      f"of {len(iu[0])} pairs")
for horizon in (0.5, 1.0, 2.0):
    band = scaled_truth[iu] < horizon
    med = np.median(err[band & np.isfinite(err)])
    print(f"median |dhat - lam* d| on scaled distances < {horizon}: "
          f"{med:.4f}")
print("(errors grow with distance; reconstruction only consumes the "
      "short, accurate range)")
