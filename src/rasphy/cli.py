"""Command-line front end: simulate, pipeline, eval.

A ``--config`` file is read as the flags it names and placed before the
explicit flags, which therefore win.  Every run writes its flags to
``config.txt`` in the output directory in that same form, all
randomness is seeded, and ``--config <out-dir>/config.txt`` replays the
run byte for byte.  Exit codes: 0 success, 1 usage error, 2
statistical, model or input error.
"""

from __future__ import annotations

import argparse
import json
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
CONFIG_HELP = ("file of 'key = value' lines, read as --key value before the "
               "flags given here, which win; 'true' sets a switch and "
               "'false' leaves it off.  A run's config.txt replays it.")


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
    sim.set_defaults(run=_cmd_simulate)
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--tree", help="Newick file with the phylogeny")
    source.add_argument("--n", type=int, help="random tree: number of leaves")
    source.add_argument("--complete-h", type=int, dest="complete_h",
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
    sim.add_argument("--config", help=CONFIG_HELP)

    pipe = sub.add_parser("pipeline", help="run the inference pipeline",
                          description="Reconstruct a topology from an "
                                      "alignment file.")
    pipe.set_defaults(run=_cmd_pipeline)
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
    pipe.add_argument("--config", help=CONFIG_HELP)

    ev = sub.add_parser("eval", help="compare trees or models",
                        description="rf: Robinson-Foulds between two Newick "
                                    "files.  tv: exact total-variation "
                                    "identifiability witness.")
    ev.set_defaults(run=_cmd_eval)
    ev.add_argument("mode", choices=["rf", "tv"])
    ev.add_argument("--tree1", required=True)
    ev.add_argument("--tree2", required=True)
    ev.add_argument("--rates1", help="tv: rate spec of the first model")
    ev.add_argument("--rates2", help="tv: rate spec of the second model")
    ev.add_argument("--r", type=int, default=2, help="tv: alphabet size")
    ev.add_argument("--out", help="also write the result line to this file")
    return parser


def _config_tokens(parser, argv) -> list:
    """The flag tokens that the lines of argv's --config file name."""
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        entries = _io.parse_config_text(Path(path).read_text())
    except (ValueError, OSError) as exc:
        parser.error(f"--config {path}: {exc}")
    if "config" in entries:
        parser.error(f"--config {path}: a config file cannot name another")
    flags = {key: "--" + key.replace("_", "-") for key in entries}
    return [flags[key] if value == "true" else f"{flags[key]}={value}"
            for key, value in entries.items() if value != "false"]


def _echoed(args) -> dict:
    """The flags a run writes to its config.txt, by flag name."""
    return {key.replace("_", "-"): "true" if value is True else value
            for key, value in sorted(vars(args).items())
            if key not in ("command", "config", "run")
            and value is not None and value is not False}


def _echo_config(out_dir: Path, args, resolved_rates=None):
    """Write the run's flags as a config file that replays the run."""
    lines = [f"{key} = {value}" for key, value in _echoed(args).items()]
    if resolved_rates is not None:
        lines.append(f"# resolved_rates = {resolved_rates}")
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")


def _cmd_simulate(args) -> int:
    rates = _io.parse_rates_spec(args.rates)
    g_for_check = args.g
    if args.tree is not None:
        if args.big_m is not None and args.g is None:
            print("simulate: --big-m with --tree requires --g",
                  file=sys.stderr)
            return USAGE_ERROR
        tree = _io.read_tree(args.tree)
    elif args.complete_h is not None:
        if args.mu is None:
            print("simulate: --complete-h requires --mu", file=sys.stderr)
            return USAGE_ERROR
        tree = generate_complete_binary(args.complete_h, args.mu)
        g_for_check = args.g if args.g is not None else args.mu
    else:
        if args.f is None or args.g is None:
            print("simulate: --n requires --f and --g", file=sys.stderr)
            return USAGE_ERROR
        cap = args.big_m if args.big_m is not None else 10.0 * args.g
        params = RegularityParams(args.f, args.g, cap)
        tree = generate_random_regular(args.n, params, args.seed)
    # canonicalize so alignment columns follow the tree file's leaf order,
    # which is the binding convention (the alignment format has no labels)
    tree = parse_newick(tree.to_newick())
    if args.big_m is not None:
        f_for_check = args.f if args.f is not None else g_for_check
        check_assumption(rates, RegularityParams(
            f_for_check, g_for_check, args.big_m)).raise_if_failed()
    model = SubstitutionModel.uniform(args.r)
    aln = simulate_alignment(tree, model, rates, args.k, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _io.write_alignment(out / "alignment.txt", aln)
    _io.write_lambdas(out / "lambdas.txt", aln.hidden_lambdas)
    _io.write_tree(out / "tree.nwk", tree)
    _echo_config(out, args, _io.format_rates_spec(rates))
    return 0


# Every file _cmd_pipeline can write into --out-dir.  A run removes them
# first, so that no output of an earlier run survives beside its own.
_PIPELINE_FILES = ("config.txt", "u_values.csv", "pairs.txt", "params.txt",
                   "bins.csv", "distances.txt", "reconstructed.nwk",
                   "report.txt", "report.json")


def _cmd_pipeline(args) -> int:
    aln = _io.read_alignment(args.alignment)
    reg = RegularityParams(args.f, args.g, args.big_m)
    rates = _io.parse_rates_spec(args.rates) if args.rates else None
    recon = ReconstructionConfig(trust_cap=args.trust_cap, tau=args.tau,
                                 witness_count=args.witness_count)
    cfg = PipelineConfig(reg=reg, rates=rates, gamma_u=args.gamma_u,
                         recon=recon)
    truth = _io.read_tree(args.truth) if args.truth else None
    report = run_pipeline(
        aln, cfg, truth=truth,
        stop_after="site_statistics" if args.stats_only else None)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _PIPELINE_FILES:
        (out / name).unlink(missing_ok=True)
    _echo_config(out, args)

    record = report.to_record()
    labels = truth.labels if truth else [f"leaf_{i}" for i in range(aln.n)]
    if report.u_values is not None:
        _io.write_statistics_csv(out / "u_values.csv", report.u_values)
    if report.pair_set is not None and not args.stats_only:
        _io.write_pairset(out / "pairs.txt", report.pair_set, labels)
    if "params" in record:
        (out / "params.txt").write_text(_key_value_text(record["params"]))
    if report.assignment is not None:
        _io.write_bin_report(out / "bins.csv", report.assignment, aln.k)
    if report.dhat is not None:
        _io.write_distance_matrix(out / "distances.txt",
                                  report.dhat.values, labels)
    if report.topology is not None:
        _io.write_tree(out / "reconstructed.nwk", report.topology)
    (out / "report.json").write_text(json.dumps(record, indent=1) + "\n")
    (out / "report.txt").write_text("".join(
        f"[{section}]\n" + _key_value_text(values)
        for section, values in record.items()))
    if not report.ok:
        print(f"pipeline: {report.error}", file=sys.stderr)
        return STAGE_ERROR
    if report.rf_distance is not None:
        print(f"rf={report.rf_distance}")
    return 0


def _key_value_text(record, prefix="") -> str:
    """``key=value`` lines of a record, nested keys joined by dots."""
    text = ""
    for key, value in record.items():
        if isinstance(value, dict):
            text += _key_value_text(value, f"{prefix}{key}.")
        else:
            text += f"{prefix}{key}={value}\n"
    return text


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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(
        argv[:1] + _config_tokens(parser, argv) + argv[1:])
    if args.run is not _cmd_eval:
        for key, value in _echoed(args).items():
            if "#" in str(value):  # config.txt would cut it at the '#'
                parser.error(f"--{key} {value}: a value cannot hold '#'")
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"rasphy {args.command}: {exc}", file=sys.stderr)
        return STAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
