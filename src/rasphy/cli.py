"""Command-line front end: simulate, pipeline, eval.

Every run echoes its fully resolved configuration into the output
directory, all randomness is seeded, and reruns reproduce outputs byte
for byte.  Exit codes: 0 success, 1 usage error, 2 statistical, model
or input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


from . import io as _io
from .models import SubstitutionModel, check_assumption, simulate_alignment
from .pipeline import PipelineConfig, identifiability_witness, run_pipeline
from .reconstruct import ReconstructionConfig
from .trees import (RegularityParams, generate_complete_binary,
                    generate_random_regular, parse_newick, robinson_foulds)

USAGE_ERROR = 1
STAGE_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rasphy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate an alignment",
                         description="Write alignment, rate sidecar, and "
                                     "tree files for a simulated instance.")
    sim.add_argument("--tree", help="Newick file with the phylogeny")
    sim.add_argument("--n", type=int, help="random tree: number of leaves")
    sim.add_argument("--complete-h", type=int, dest="complete_h",
                     help="complete binary tree with 2**h leaves")
    sim.add_argument("--mu", type=float, help="edge weight for --complete-h")
    sim.add_argument("--f", type=float, help="minimum edge weight")
    sim.add_argument("--g", type=float, help="maximum edge weight")
    sim.add_argument("--big-m", type=float, dest="big_m",
                     help="distance cap M (enables the assumption check)")
    sim.add_argument("--rates", default="constant",
                     help="rate spec: constant | discrete:l,p;... | "
                          "gamma:shape | lognormal:sigma")
    sim.add_argument("--k", type=int, required=True, help="number of sites")
    sim.add_argument("--r", type=int, default=4, help="alphabet size")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--config", help="key = value defaults file")

    pipe = sub.add_parser("pipeline", help="run the inference pipeline",
                          description="Reconstruct a topology from an "
                                      "alignment file.")
    pipe.add_argument("--alignment", required=True)
    pipe.add_argument("--f", type=float, required=True)
    pipe.add_argument("--g", type=float, required=True)
    pipe.add_argument("--big-m", type=float, dest="big_m", required=True)
    pipe.add_argument("--rates",
                      help="modeled rate spec; enables the assumption check")
    pipe.add_argument("--gamma-u", type=float, dest="gamma_u")
    pipe.add_argument("--trust-cap", type=float, dest="trust_cap")
    pipe.add_argument("--tau", type=float, default=0.0)
    pipe.add_argument("--witness-count", type=int, dest="witness_count",
                      default=6)
    pipe.add_argument("--truth", help="true tree Newick for RF scoring")
    pipe.add_argument("--stats-only", action="store_true",
                      help="stop after the per-site statistic CSV")
    pipe.add_argument("--out-dir", required=True)
    pipe.add_argument("--config", help="key = value defaults file")

    ev = sub.add_parser("eval", help="compare trees or models",
                        description="rf: Robinson-Foulds between two Newick "
                                    "files.  tv: exact total-variation "
                                    "identifiability witness.")
    ev.add_argument("mode", choices=["rf", "tv"])
    ev.add_argument("--tree1", required=True)
    ev.add_argument("--tree2", required=True)
    ev.add_argument("--rates1", help="tv: rate spec of the first model")
    ev.add_argument("--rates2", help="tv: rate spec of the second model")
    ev.add_argument("--r", type=int, default=2, help="tv: alphabet size")
    ev.add_argument("--out", help="also write the result line to this file")
    return parser


def _apply_config_file(args, actions):
    """File values fill in only flags still at their parser default;
    explicit flags always win."""
    if not getattr(args, "config", None):
        return args
    text = Path(args.config).read_text()
    for key, value in _io.parse_config_text(text).items():
        attr = key.replace("-", "_")
        action = actions.get(attr)
        if action is None:
            print(f"config: unknown key {key!r}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        if getattr(args, attr) != action.default:
            continue  # flag was given explicitly
        if isinstance(action, argparse._StoreTrueAction):
            setattr(args, attr, value.lower() in ("1", "true", "yes"))
        else:
            caster = action.type or str
            setattr(args, attr, caster(value))
    return args


def _echo_config(out_dir: Path, args, extra=None):
    lines = []
    for key in sorted(vars(args)):
        if key in ("command", "config"):
            continue
        lines.append(f"{key} = {getattr(args, key)}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")


def _cmd_simulate(args) -> int:
    rates = _io.parse_rates_spec(args.rates)
    if args.tree:
        tree = _io.read_tree(args.tree)
        g_for_check = args.g
    elif args.complete_h is not None:
        if args.mu is None:
            print("simulate: --complete-h requires --mu", file=sys.stderr)
            return USAGE_ERROR
        tree = generate_complete_binary(args.complete_h, args.mu)
        g_for_check = args.g if args.g is not None else args.mu
    elif args.n is not None:
        if args.f is None or args.g is None:
            print("simulate: --n requires --f and --g", file=sys.stderr)
            return USAGE_ERROR
        cap = args.big_m if args.big_m is not None else 10.0 * args.g
        params = RegularityParams(args.f, args.g, cap)
        tree = generate_random_regular(args.n, params, args.seed)
        g_for_check = args.g
    else:
        print("simulate: provide --tree, --complete-h, or --n",
              file=sys.stderr)
        return USAGE_ERROR
    # canonicalize so alignment columns follow the tree file's leaf order,
    # which is the binding convention (the alignment format has no labels)
    tree = parse_newick(tree.to_newick())
    if args.big_m is not None and g_for_check is not None:
        f_for_check = args.f if args.f is not None else g_for_check
        verdict = check_assumption(
            rates, RegularityParams(f_for_check, g_for_check, args.big_m))
        if not verdict.ok:
            print("simulate: model assumption violated: "
                  f"phi_inverse(exp(-6g))={verdict.phi_inv_6g!r} > "
                  f"M={args.big_m!r}", file=sys.stderr)
            return STAGE_ERROR
    model = SubstitutionModel.uniform(args.r)
    aln = simulate_alignment(tree, model, rates, args.k, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _io.write_alignment(out / "alignment.txt", aln)
    _io.write_lambdas(out / "lambdas.txt", aln.hidden_lambdas)
    _io.write_tree(out / "tree.nwk", tree)
    _echo_config(out, args, {"resolved_rates": _io.format_rates_spec(rates)})
    return 0


def _cmd_pipeline(args) -> int:
    aln = _io.read_alignment(args.alignment)
    reg = RegularityParams(args.f, args.g, args.big_m)
    rates = _io.parse_rates_spec(args.rates) if args.rates else None
    recon = ReconstructionConfig(trust_cap=args.trust_cap, tau=args.tau,
                                 witness_count=args.witness_count)
    cfg = PipelineConfig(reg=reg, rates=rates, gamma_u=args.gamma_u,
                         recon=recon)
    truth = _io.read_tree(args.truth) if args.truth else None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(out, args)

    try:
        report = run_pipeline(aln, cfg, truth=truth)
    except ValueError as exc:  # assumption violations and bad inputs
        print(f"pipeline: {exc}", file=sys.stderr)
        return STAGE_ERROR

    labels = truth.labels if truth else [f"leaf_{i}" for i in range(aln.n)]
    if report.u_values is not None:
        _io.write_statistics_csv(out / "u_values.csv", report.u_values)
    if args.stats_only:
        _write_report(out / "report.txt", report, stats_only=True)
        return 0 if report.u_values is not None else STAGE_ERROR
    if report.pair_set is not None:
        _io.write_pairset(out / "pairs.txt", report.pair_set, labels)
    if report.bin_params is not None:
        (out / "params.txt").write_text(
            "\n".join(report.bin_params.lines()) + "\n")
    if report.assignment is not None:
        _io.write_bin_report(out / "bins.csv", report.assignment, aln.k)
    if report.dhat is not None:
        _io.write_distance_matrix(out / "distances.txt",
                                  report.dhat.values, labels)
    if report.topology is not None:
        _io.write_tree(out / "reconstructed.nwk", report.topology)
    _write_report(out / "report.txt", report)
    if not report.ok:
        print(f"pipeline: {report.error}", file=sys.stderr)
        return STAGE_ERROR
    if report.rf_distance is not None:
        print(f"rf={report.rf_distance}")
    return 0


def _write_report(path, report, stats_only=False):
    lines = ["[stages]"]
    for rec in report.stages:
        lines.append(f"{rec.name}.status={rec.status}")
        lines.append(f"{rec.name}.seconds={rec.seconds!r}")
        for key, value in rec.detail.items():
            lines.append(f"{rec.name}.{key}={value}")
        if rec.reason:
            lines.append(f"{rec.name}.reason={rec.reason}")
        if stats_only and rec.name == "site_statistics":
            break
    lines.append("[summary]")
    lines.append(f"ok={report.ok}")
    if report.pair_set is not None:
        lines.append(f"pair_count={len(report.pair_set)}")
    if report.abundant_bin is not None:
        lines.append(f"abundant_bin={report.abundant_bin}")
        lines.append(f"bin_size={report.bin_size}")
    if report.rf_distance is not None:
        lines.append(f"rf={report.rf_distance}")
    if report.certificate is not None:
        lines.append("[certificate]")
        lines.extend(report.certificate.lines())
    if report.distortion is not None:
        lines.append("[distortion]")
        lines.extend(report.distortion.lines())
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_eval(args) -> int:
    t1 = _io.read_tree(args.tree1)
    t2 = _io.read_tree(args.tree2)
    if args.mode == "rf":
        line = f"rf={robinson_foulds(t1, t2)}"
    else:
        if not args.rates1 or not args.rates2:
            print("eval tv: --rates1 and --rates2 are required",
                  file=sys.stderr)
            return USAGE_ERROR
        tv = identifiability_witness(
            t1, t2,
            _io.parse_rates_spec(args.rates1),
            _io.parse_rates_spec(args.rates2),
            SubstitutionModel.uniform(args.r),
        )
        line = f"tv={tv!r}"
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    subparser = parser._subparsers._group_actions[0].choices[args.command]
    actions = {a.dest: a for a in subparser._actions}
    args = _apply_config_file(args, actions)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        return _cmd_eval(args)
    except (ValueError, OSError) as exc:
        print(f"rasphy {args.command}: {exc}", file=sys.stderr)
        return STAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
