"""File formats: alignments, rate sidecars, trees, pair sets, matrices,
reports, and the rate-distribution config grammar.

Formats are plain text so downstream plotting and batch tooling can
consume them without this package:

alignment        header line ``k n r`` then k lines of n space-separated
                 integer states
lambda sidecar   k lines, one positive decimal per line
rate spec        ``constant`` | ``discrete:l1,p1;l2,p2;...`` |
                 ``gamma:shape`` | ``lognormal:sigma``
pair set         lines ``leaf_a leaf_b``
statistic CSV    ``site,U_value[,hidden_lambda]``
bin report CSV   ``bin_index,lower_edge,upper_edge,count,is_abundant``
distance matrix  PHYLIP-style square matrix with ``inf`` tokens
config file      ``key = value`` lines, ``#`` comments
"""

from __future__ import annotations

import numpy as np

from .binning import BinAssignment
from .clustering import PairSet
from .models import Alignment, RateDistribution
from .trees import Phylogeny, parse_newick

__all__ = [
    "format_rates_spec",
    "parse_config_text",
    "parse_rates_spec",
    "read_alignment",
    "read_distance_matrix",
    "read_lambdas",
    "read_tree",
    "write_alignment",
    "write_bin_report",
    "write_distance_matrix",
    "write_lambdas",
    "write_pairset",
    "write_statistics_csv",
    "write_tree",
]


# -- rate distribution grammar ------------------------------------------------


def parse_rates_spec(spec: str) -> RateDistribution:
    """Parse ``constant`` / ``discrete:...`` / ``gamma:a`` / ``lognormal:s``."""
    spec = spec.strip()
    if spec == "constant":
        return RateDistribution.constant()
    if ":" not in spec:
        raise ValueError(f"bad rate spec {spec!r}")
    kind, _, arg = spec.partition(":")
    if kind == "discrete":
        support, probs = [], []
        for chunk in arg.split(";"):
            if not chunk:
                continue
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad discrete atom {chunk!r}")
            support.append(float(parts[0]))
            probs.append(float(parts[1]))
        return RateDistribution.discrete(support, probs)
    if kind == "gamma":
        return RateDistribution.gamma(float(arg))
    if kind == "lognormal":
        return RateDistribution.lognormal(float(arg))
    raise ValueError(f"unknown rate distribution kind {kind!r}")


def format_rates_spec(rates: RateDistribution) -> str:
    if rates.kind == "constant":
        return "constant"
    if rates.kind == "discrete":
        return "discrete:" + ";".join(
            f"{float(l)!r},{float(p)!r}"
            for l, p in zip(rates.support, rates.probs))
    if rates.kind == "gamma":
        return f"gamma:{rates.shape!r}"
    return f"lognormal:{rates.sigma!r}"


# -- alignments ---------------------------------------------------------------


def write_alignment(path, aln: Alignment):
    data = aln.data
    k, n = data.shape
    # Each state's decimal digits, left-aligned and padded with zero bytes.
    # A row is laid out as cells [separator, digits] and a newline, with no
    # separator before the first cell; dropping the zero bytes then leaves
    # the text, so a block of rows is formatted in a few array passes.
    top = int(data.max()) if data.size else 0
    width = len(str(top))
    digits = (np.array([str(v) for v in range(top + 1)], dtype=f"S{width}")
              .view(np.uint8).reshape(top + 1, width))
    block_rows = max(1, (1 << 20) // max(1, n))
    with open(path, "wb") as fh:
        fh.write(f"{k} {n} {aln.r}\n".encode())
        for start in range(0, k, block_rows):
            block = data[start:start + block_rows]
            line = np.empty((len(block), n * (width + 1) + 1), dtype=np.uint8)
            cells = line[:, :-1].reshape(len(block), n, width + 1)
            cells[:, :1, 0] = 0
            cells[:, 1:, 0] = ord(" ")
            cells[:, :, 1:] = digits[block]
            line[:, -1] = ord("\n")
            fh.write(line[line != 0].tobytes())


def read_alignment(path) -> Alignment:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("alignment header must be 'k n r'")
        k, n, r = map(int, header)
        data = np.loadtxt(fh, dtype=np.uint8, ndmin=2, max_rows=k)
    if data.shape != (k, n):
        raise ValueError(f"alignment body {data.shape} does not match "
                         f"header ({k}, {n})")
    return Alignment(data, r)


def write_lambdas(path, lambdas):
    with open(path, "w") as fh:
        for lam in np.asarray(lambdas, dtype=float):
            fh.write(f"{float(lam)!r}\n")


def read_lambdas(path) -> np.ndarray:
    return np.loadtxt(path, dtype=float, ndmin=1)


# -- trees --------------------------------------------------------------------


def read_tree(path) -> Phylogeny:
    with open(path) as fh:
        return parse_newick(fh.read())


def write_tree(path, tree):
    with open(path, "w") as fh:
        fh.write(tree.to_newick() + "\n")


# -- pair sets and reports ----------------------------------------------------


def write_pairset(path, pairs: PairSet, labels):
    with open(path, "w") as fh:
        for a, b in pairs:
            fh.write(f"{labels[a]} {labels[b]}\n")


def write_statistics_csv(path, u_values, hidden_lambdas=None):
    with open(path, "w") as fh:
        if hidden_lambdas is None:
            fh.write("site,U_value\n")
            for i, u in enumerate(u_values):
                fh.write(f"{i},{float(u)!r}\n")
        else:
            fh.write("site,U_value,hidden_lambda\n")
            for i, (u, lam) in enumerate(zip(u_values, hidden_lambdas)):
                fh.write(f"{i},{float(u)!r},{float(lam)!r}\n")


def write_bin_report(path, assignment: BinAssignment, k: int):
    bp = assignment.params
    threshold = bp.abundance_threshold(k)
    counts = assignment.counts()
    with open(path, "w") as fh:
        fh.write("bin_index,lower_edge,upper_edge,count,is_abundant\n")
        fh.write(f"0,-inf,+inf,{counts[0]},False\n")
        for j in range(1, bp.num_bins + 1):
            lo, hi = assignment.edges(j)
            abundant = counts[j] >= threshold
            fh.write(f"{j},{lo!r},{hi!r},{counts[j]},{abundant}\n")


# -- distance matrices --------------------------------------------------------


def write_distance_matrix(path, values: np.ndarray, labels):
    rows = np.asarray(values, dtype=float).tolist()
    with open(path, "w") as fh:
        fh.write(f"{len(rows)}\n")
        for i, row in enumerate(rows):
            # repr of a float is its shortest round-trip text; inf is "inf"
            fh.write(f"{labels[i]} {' '.join(map(repr, row))}\n")


def read_distance_matrix(path):
    """Returns ``(values, labels)``; ``inf`` tokens become ``np.inf``."""
    with open(path) as fh:
        n = int(fh.readline())
        labels, rows = [], []
        for _ in range(n):
            parts = fh.readline().split()
            if len(parts) != n + 1:
                raise ValueError("bad distance matrix row")
            labels.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    return np.array(rows), labels


# -- config files -------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """``key = value`` per line; '#' starts a comment; values stay strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
