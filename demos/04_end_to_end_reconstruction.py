"""
End-to-end: leaf data in, tree topology out
===========================================

The full inference chain reads nothing but the alignment matrix: compute
pair agreements, pick a sparse family of close pairs, form per-site
statistics, bin the sites, estimate distances from one abundant bin, and
agglomerate cherries from the resulting distorted metric.  With ground
truth available, every intermediate claim is verified along the way.
"""

import rasphy as rp

params = rp.RegularityParams(0.1, 0.2, 1.5)
rates = rp.RateDistribution.two_speed(0.5, 1.5)
model = rp.SubstitutionModel.uniform(4)

print("model assumption:", rp.check_assumption(rates, params))

tree = rp.generate_random_regular(128, params, seed=11)
aln = rp.simulate_alignment(tree, model, rates, k=20_000, seed=12)

report = rp.run_pipeline(aln, rp.PipelineConfig(reg=params, rates=rates),
                         truth=tree)
report.raise_if_failed()

print("\nstage timings:")
for rec in report.stages:
    print(f"    {rec.name:22s} {rec.status:8s} {rec.seconds * 1000:8.1f} ms")

print(f"\nsparse pairs: {len(report.pair_set)}")
print(f"certificate (path-disjoint / size / distances): "
      f"{report.certificate.path_disjoint} / {report.certificate.size_ok} / "
      f"{report.certificate.distance_ok}")
counts = report.to_record()["stages"]["select_abundant"]
print(f"abundant bin {counts['abundant_bin']} with {counts['bin_size']} sites")
print(f"\nRobinson-Foulds distance to the true topology: "
      f"{report.rf_distance}")

# the hidden speeds never enter inference: stripping them changes nothing
bare = rp.run_pipeline(aln.without_lambdas(),
                       rp.PipelineConfig(reg=params, rates=rates), truth=tree)
same = bare.topology.to_newick() == report.topology.to_newick()
print("identical topology without the speed sidecar:", same)
