"""File formats: alignments, rate sidecars, trees, pair sets, matrices,
reports, and the rate-distribution config grammar.

Formats are plain text, with floats as Python's shortest round-trip
``repr``, so downstream plotting and batch tooling can consume them
without this package:

alignment        header line ``k n r`` then k lines of n space-separated
                 integer states; :func:`write_alignment` separates by
                 single spaces and ends every line with ``\\n``, so with
                 single-digit states each line is exactly ``2n`` bytes and
                 :func:`read_alignment` checks and reads that layout in
                 blocks, falling back to ``np.loadtxt`` for other text
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

import itertools
import os

import numpy as np

from .binning import BinAssignment
from .clustering import PairSet
from .distances import DistortedMetric
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
    # Single digits need no padding: a row is [digit, space] * n with its
    # last space a newline, already the text.
    top = int(data.max()) if data.size else 0
    width = len(str(top))
    digits = (np.array([str(v) for v in range(top + 1)], dtype=f"S{width}")
              .view(np.uint8).reshape(top + 1, width))
    block_rows = max(1, (1 << 20) // max(1, n))
    with open(path, "wb") as fh:
        fh.write(f"{k} {n} {aln.r}\n".encode())
        for start in range(0, k, block_rows):
            block = data[start:start + block_rows]
            if width == 1:
                line = np.empty((len(block), max(1, 2 * n)), dtype=np.uint8)
                line[:, 1::2] = ord(" ")
                np.add(block, ord("0"), out=line[:, :2 * n:2],
                       casting="unsafe")
                line[:, -1] = ord("\n")
                fh.write(line.tobytes())
                continue
            line = np.empty((len(block), n * (width + 1) + 1), dtype=np.uint8)
            cells = line[:, :-1].reshape(len(block), n, width + 1)
            cells[:, :1, 0] = 0
            cells[:, 1:, 0] = ord(" ")
            cells[:, :, 1:] = digits[block]
            line[:, -1] = ord("\n")
            fh.write(line[line != 0].tobytes())


def read_alignment(path) -> Alignment:
    with open(path, "rb") as fh:
        aln = _read_fixed_width(fh)
    if aln is not None:
        return aln
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("alignment header must be 'k n r'")
        k, n, r = map(int, header)
        dtype = np.uint8 if r <= 256 else np.int64
        if k and n:  # the k rows loadtxt would read, and no further
            rows = (line for line in fh if line.partition("#")[0].strip())
            data = np.loadtxt(itertools.islice(rows, k), dtype=dtype, ndmin=2)
        # loadtxt skips blank lines, so the k empty rows of n = 0 are read here
        elif all(fh.readline().isspace() for _ in range(k)):
            data = np.empty((k, n), dtype=dtype)
        else:
            raise ValueError(f"alignment body does not match header ({k}, "
                             f"{n}): want {k} blank lines")
        if fh.read().strip():
            raise ValueError(f"alignment body does not match header ({k}, "
                             f"{n}): text after row {k}")
    if data.shape != (k, n):
        raise ValueError(f"alignment body {data.shape} does not match "
                         f"header ({k}, {n})")
    return Alignment(data, r)


def _read_fixed_width(fh):
    """The alignment, if the text has the layout :func:`write_alignment`
    gives single digits, or None for any other text.

    Rows are ``2n`` bytes (one byte, the newline, at ``n = 0``) and are
    read in blocks of about 1 MiB into one reused buffer; a block is
    taken only if its separators are spaces, its last bytes newlines and
    its digits below ``r``, and the text only if nothing but whitespace
    follows row ``k``.  The states are uint8, as the general grammar
    stores them for ``r <= 256``; a byte below ``"0"`` wraps to 208 and
    up, so one comparison rejects it with every byte above ``"9"``.
    """
    head = fh.readline()
    fields = head.split()
    if (len(fields) != 3 or b"\r" in head
            or not all(f.isdigit() for f in fields)):
        return None
    k, n, r = map(int, fields)
    row = max(1, 2 * n)
    if r > 256 or os.fstat(fh.fileno()).st_size - fh.tell() < k * row:
        return None
    data = np.empty((k, n), dtype=np.uint8)
    block_rows = max(1, (1 << 20) // row)
    buf = np.empty((min(k, block_rows), row), dtype=np.uint8)
    below = min(r, 10)
    for start in range(0, k, block_rows):
        rows = buf[:min(block_rows, k - start)]
        out = data[start:start + len(rows)]
        if (fh.readinto(rows) != rows.nbytes
                or not (rows[:, 1:-1:2] == ord(" ")).all()
                or not (rows[:, -1] == ord("\n")).all()
                or not (np.subtract(rows[:, :2 * n:2], ord("0"), out=out)
                        < below).all()):
            return None
    if fh.read().strip():
        return None
    return Alignment(data, r)


def write_lambdas(path, lambdas):
    lams = np.asarray(lambdas, dtype=float)
    with open(path, "w") as fh:
        for block in np.split(lams, range(1 << 12, len(lams), 1 << 12)):
            fh.write("\n".join([*map(repr, block.tolist()), ""]))


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
    top = max((b for _, b in pairs), default=-1)  # each pair has a < b
    if top >= len(labels):
        raise ValueError(f"{len(labels)} labels for leaf index {top}")
    with open(path, "w") as fh:
        for a, b in pairs:
            fh.write(f"{labels[a]} {labels[b]}\n")


def write_statistics_csv(path, u_values, hidden_lambdas=None):
    columns = [np.asarray(c, dtype=float) for c in (u_values, hidden_lambdas)
               if c is not None]
    if columns[-1].shape != columns[0].shape:
        raise ValueError("u_values and hidden_lambdas differ in length")
    with open(path, "w") as fh:
        fh.write("site,U_value" + ",hidden_lambda" * (len(columns) - 1) + "\n")
        _write_float_rows(fh, range(len(columns[0])),
                          np.column_stack(columns), ",")


def write_bin_report(path, assignment: BinAssignment, k: int):
    bp = assignment.params
    counts = assignment.counts()
    j = np.arange(1, bp.num_bins + 1)
    edges = _float_rows(np.column_stack(assignment.edges(j)), ",")
    abundant = counts[j] >= bp.abundance_threshold(k)
    with open(path, "w") as fh:
        fh.write("bin_index,lower_edge,upper_edge,count,is_abundant\n")
        fh.write(f"0,-inf,+inf,{counts[0]},False\n")
        fh.write("".join([f"{i},{row},{c},{a}\n" for i, row, c, a in zip(
            j.tolist(), edges, counts[j].tolist(), abundant.tolist())]))


# -- distance matrices --------------------------------------------------------


def write_distance_matrix(path, values: np.ndarray, labels):
    """Refuses what :func:`read_distance_matrix` refuses, before the file
    is opened: a non-square or asymmetric matrix, or a label count that
    differs from the row count."""
    values = DistortedMetric(values).values
    if len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels for {len(values)} rows")
    with open(path, "w") as fh:
        fh.write(f"{len(values)}\n")
        _write_float_rows(fh, labels, values, " ")


def read_distance_matrix(path):
    """Returns ``(values, labels)``; ``inf`` tokens become ``np.inf``.
    Refuses text after row n, and asymmetry as DistortedMetric does."""
    with open(path) as fh:
        n = int(fh.readline())
        labels, rows = [], []
        for _ in range(n):
            parts = fh.readline().split()
            if len(parts) != n + 1:
                raise ValueError("bad distance matrix row")
            labels.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
        if fh.read().strip():
            raise ValueError(f"distance matrix does not match header ({n}): "
                             f"text after row {n}")
    return DistortedMetric(np.reshape(rows, (n, n))).values, labels


def _float_rows(values, sep) -> list:
    """Rows of the 2-D ``values`` as ``sep``-joined float ``repr``s.  Each
    distinct bit pattern, not value (``-0.0 == 0.0``), is formatted once."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
    return [sep.join(row)
            for row in texts[inverse.reshape(bits.shape)].tolist()]


def _write_float_rows(fh, heads, values, sep):
    """Write ``heads[i]``, ``sep`` and row i of :func:`_float_rows` as line i,
    formatting and writing at most 128 KiB of cells (or one row) at a time."""
    step = max(1, (1 << 17) // max(1, 8 * values.shape[1]))
    for start in range(0, len(values), step):
        rows = _float_rows(values[start:start + step], sep)
        fh.write("".join([f"{head}{sep}{row}\n" for head, row
                          in zip(heads[start:start + step], rows)]))


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
