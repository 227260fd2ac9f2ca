"""The benchmark's workloads: inputs from a seed, one timed replicate, checks.

Each workload builds its inputs from the workload seed in ``prepare``
(untimed, repeated during set-up), runs one replicate in ``replicate``
(the timed unit), and judges a replicate's output in ``evaluate``
(untimed).  Every replicate of a run gets the same inputs, so every
replicate must produce the same output digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rasphy as rp
import rasphy.cli

REG = rp.RegularityParams(0.1, 0.2, 1.5)
TWO_SPEED = rp.RateDistribution.two_speed(0.5, 1.5)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combine(parts: dict) -> str:
    """One digest over named part digests, independent of dict order."""
    return sha256("".join(f"{k} {parts[k]}\n" for k in sorted(parts)).encode())


@dataclass
class Verdict:
    """How one replicate fared.

    ``failed``: raised, exited non-zero, reported ``ok == False``, or
    produced a digest other than the reference.  ``correct``: the result
    checks out against the truth (RF = 0, or the 4-sigma pattern test).
    """

    failed: bool
    correct: bool
    parts: dict
    reason: str = ""

    @property
    def digest(self) -> str:
        return combine(self.parts)


def _judge(parts, reference, failed_reason, correct, correct_reason):
    reason = failed_reason
    if not reason and reference is not None and parts != reference:
        bad = sorted(k for k in reference if parts.get(k) != reference[k])
        reason = f"digest mismatch in {', '.join(bad) or 'part names'}"
    return Verdict(failed=bool(reason), correct=correct and not reason,
                   parts=parts, reason=reason or correct_reason)


class SimN5Discrete:
    """Simulator only: per-site Python overhead dominates."""

    name = "sim-n5-discrete"
    default_seed = 11

    def __init__(self, k=50_000):
        self.k = k

    def prepare(self, seed, workdir):
        # the 5-leaf tree of acceptance test 01; the seed drives the sites
        tree = rp.generate_random_regular(5, REG, seed=3)
        return {"tree": tree, "model": rp.SubstitutionModel.uniform(2),
                "seed": seed}

    def replicate(self, inp):
        # simulate, and the exact leaf law the output is tested against
        # (as in acceptance test 01; about a millisecond at n=5, r=2)
        aln = rp.simulate_alignment(inp["tree"], inp["model"], TWO_SPEED,
                                    self.k, inp["seed"])
        exact = rp.exact_leaf_distribution(inp["tree"], inp["model"],
                                           TWO_SPEED)
        return aln, exact

    def evaluate(self, inp, out, reference):
        aln, exact = out
        exact = exact.reshape(-1)
        parts = {"alignment": sha256(np.ascontiguousarray(aln.data).tobytes()),
                 "lambdas": sha256(aln.hidden_lambdas.astype("<f8").tobytes())}
        powers = aln.r ** np.arange(aln.n - 1, -1, -1, dtype=np.int64)
        codes = aln.data.astype(np.int64) @ powers
        emp = np.bincount(codes, minlength=exact.size) / aln.k
        sigma = np.sqrt(exact * (1.0 - exact) / aln.k)
        worst_z = float(np.max(np.abs(emp - exact) / np.maximum(sigma, 1e-15)))
        return _judge(parts, reference, "", worst_z < 4.0,
                      f"worst pattern z={worst_z:.2f}")


class CliN128Gamma:
    """The documented file-based workflow: ``rasphy simulate`` then
    ``rasphy pipeline``, in process."""

    name = "cli-n128-gamma"
    default_seed = 7
    SIM_FILES = ("alignment.txt", "lambdas.txt", "tree.nwk")
    PIPE_FILES = ("pairs.txt", "u_values.csv", "bins.csv", "distances.txt",
                  "reconstructed.nwk")

    def __init__(self, n=128, k=20_000):
        self.n = n
        self.k = k

    def prepare(self, seed, workdir):
        sim_dir = Path(workdir) / self.name
        pipe_dir = sim_dir / "out"
        common = ["--f", "0.1", "--g", "0.2", "--big-m", "1.5",
                  "--rates", "gamma:4"]
        return {
            "sim_dir": sim_dir, "pipe_dir": pipe_dir,
            "simulate": ["simulate", "--n", str(self.n), *common,
                         "--k", str(self.k), "--r", "4", "--seed", str(seed),
                         "--out-dir", str(sim_dir)],
            "pipeline": ["pipeline", "--alignment",
                         str(sim_dir / "alignment.txt"), *common,
                         "--truth", str(sim_dir / "tree.nwk"),
                         "--out-dir", str(pipe_dir)],
        }

    def replicate(self, inp):
        # no file of an earlier replicate may stand in for a missing one
        shutil.rmtree(inp["sim_dir"], ignore_errors=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = [rasphy.cli.main(inp["simulate"])]
            if codes[0] == 0:
                codes.append(rasphy.cli.main(inp["pipeline"]))
        return {"codes": codes, "stdout": out.getvalue()}

    def evaluate(self, inp, out, reference):
        parts = {}
        for d, names in ((inp["sim_dir"], self.SIM_FILES),
                         (inp["pipe_dir"], self.PIPE_FILES)):
            for fname in names:
                path = d / fname
                parts[fname] = sha256(path.read_bytes()) if path.exists() \
                    else "missing"
        failed = ""
        if out["codes"] != [0, 0]:
            failed = f"exit codes {out['codes']}"
        correct = False
        if not failed:
            truth = rp.parse_newick((inp["sim_dir"] / "tree.nwk").read_text())
            recon = rp.parse_newick(
                (inp["pipe_dir"] / "reconstructed.nwk").read_text())
            rf = rp.robinson_foulds(recon, truth)
            correct = rf == 0 and "rf=0" in out["stdout"].split()
        return _judge(parts, reference, failed, correct,
                      "" if correct else "RF != 0")


class InferN512Discrete:
    """Inference only: cubic cherry agglomeration dominates."""

    name = "infer-n512-discrete"
    default_seed = 12

    def __init__(self, n=512, k=20_000):
        self.n = n
        self.k = k

    def prepare(self, seed, workdir):
        # One tree for every seed, so that the seed varies only the sampled
        # sites: agglomeration time depends on the tree's shape, and a
        # shape change between runs would read as a speed change.
        tree = rp.generate_random_regular(self.n, REG, seed=11)
        aln = rp.simulate_alignment(tree, rp.SubstitutionModel.uniform(4),
                                    TWO_SPEED, self.k, seed)
        return {"tree": tree, "aln": aln,
                "cfg": rp.PipelineConfig(reg=REG, rates=TWO_SPEED)}

    def replicate(self, inp):
        return rp.run_pipeline(inp["aln"], inp["cfg"], truth=inp["tree"])

    def evaluate(self, inp, report, reference):
        topo = report.topology
        pairs = report.pair_set
        parts = {
            "topology": sha256(topo.to_newick().encode()) if topo else "none",
            "pairs": sha256("".join(f"{a} {b}\n" for a, b in pairs).encode())
            if pairs is not None else "none",
        }
        failed = "" if report.ok else f"report not ok: {report.error}"
        correct = topo is not None and \
            rp.robinson_foulds(topo, inp["tree"].topology()) == 0
        return _judge(parts, reference, failed, correct,
                      "" if correct else "RF != 0")


WORKLOADS = {w.name: w for w in (SimN5Discrete, CliN128Gamma,
                                 InferN512Discrete)}
