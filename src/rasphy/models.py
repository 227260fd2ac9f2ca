"""The r-state Poisson substitution model with random per-site rate scaling.

Sites evolve independently on a common phylogeny.  Site ``i`` first draws
a scaling factor ``lam_i`` from a mean-1 rate distribution, then runs the
Poisson substitution process on the tree with every edge weight
multiplied by ``lam_i``: along an edge of (scaled) weight ``w`` the child
state copies the parent with probability ``exp(-w)`` and otherwise
redraws from the stationary distribution ``pi``.

The module provides

* ``SubstitutionModel``     alphabet size and stationary distribution,
* ``RateDistribution``      constant / discrete / gamma / lognormal rate
  laws, all normalized to mean exactly 1, with the decay transform
  ``phi(s) = E[exp(-s * lam)]`` and its numerical inverse,
* ``invert_decreasing``     the bisection behind every such inverse,
* ``transition_matrix``     the per-edge channel,
* ``simulate_alignment``    the sequence simulator (counter-based
  per-site random streams, reproducible and scheduling-independent),
* ``exact_leaf_distribution``   exact enumeration oracle for small trees,
* ``check_assumption``      the model regularity test tying the rate law
  to the distance cap M.

scipy is imported only by the lognormal law's ``phi``, when it first
integrates, so importing this module loads numpy alone.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
import signal
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from .trees import Phylogeny, RegularityParams

__all__ = [
    "Alignment",
    "AssumptionReport",
    "RateDistribution",
    "SubstitutionModel",
    "check_assumption",
    "exact_leaf_distribution",
    "invert_decreasing",
    "simulate_alignment",
    "transition_matrix",
]


@dataclass(frozen=True)
class SubstitutionModel:
    """Alphabet size ``r`` and stationary distribution ``pi``.

    ``pi`` must be strictly positive and sum to 1.  The symmetric
    ("Poisson") special case has uniform ``pi``; ``q_inf`` is the
    stationary probability that two independent draws agree and
    ``p_inf = 1 - q_inf`` normalizes agreement indicators.
    """

    r: int
    pi: tuple = field(default=None)

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("alphabet size must be at least 2")
        pi = self.pi
        if pi is None:
            pi = tuple([1.0 / self.r] * self.r)
        else:
            pi = tuple(float(x) for x in pi)
            if len(pi) != self.r:
                raise ValueError("pi must have length r")
            if not (min(pi) > 0.0 and abs(sum(pi) - 1.0) <= 1e-12):
                raise ValueError("pi entries must be positive and sum to 1")
        object.__setattr__(self, "pi", pi)

    @classmethod
    def uniform(cls, r: int) -> "SubstitutionModel":
        """The r-state Poisson model (uniform stationary distribution)."""
        return cls(r=r)

    @property
    def q_inf(self) -> float:
        return float(sum(x * x for x in self.pi))

    @property
    def p_inf(self) -> float:
        return 1.0 - self.q_inf


def transition_matrix(mu_e: float, model: SubstitutionModel) -> np.ndarray:
    """Edge channel: stay w.p. ``pi_x + (1-pi_x) e^{-mu}``, move to ``y``
    w.p. ``pi_y (1 - e^{-mu})``.  Rows sum to 1; ``mu_e = 0`` is the
    identity and large ``mu_e`` approaches the stationary distribution."""
    if mu_e < 0.0:
        raise ValueError("edge weight must be nonnegative")
    decay = math.exp(-mu_e)
    pi = np.asarray(model.pi)
    m = np.tile(pi * (1.0 - decay), (model.r, 1))
    m[np.diag_indices(model.r)] = pi + (1.0 - pi) * decay
    return m


class RateDistribution:
    """Per-site rate scaling law, normalized so the mean is exactly 1.

    Supported kinds:

    ``constant``              point mass at 1.
    ``discrete``              finite support, rescaled to mean 1;
                              support points must be positive (no mass
                              at 0) and finite, with positive
                              probabilities.
    ``gamma``                 shape ``a`` and rate ``a`` (mean 1).
    ``lognormal``             location ``-sigma**2 / 2``, scale
                              ``sigma`` (mean 1).

    ``phi(s)`` is the decay transform ``E[exp(-s*lam)]``: continuous,
    strictly decreasing, ``phi(0) = 1``.  It has a closed form for all
    kinds except lognormal, which is integrated numerically to 1e-10
    relative accuracy.
    """

    __slots__ = ("kind", "support", "probs", "shape", "sigma")

    def __init__(self, kind, support=None, probs=None, shape=None, sigma=None):
        self.kind = kind
        self.support = None
        self.probs = None
        self.shape = None
        self.sigma = None
        if kind == "constant":
            pass
        elif kind == "discrete":
            support = np.asarray(support, dtype=float)
            probs = np.asarray(probs, dtype=float)
            if support.ndim != 1 or support.shape != probs.shape or len(support) == 0:
                raise ValueError("support and probs must be equal-length 1-d")
            if not np.all(support > 0.0):
                raise ValueError("rate support must be strictly positive "
                                 "(an atom at 0 is not allowed)")
            if not np.all(probs > 0.0):
                raise ValueError("probabilities must be strictly positive")
            total = probs.sum()
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError("probabilities must sum to 1")
            probs = probs / total
            mean = float(support @ probs)
            if mean <= 0.0:
                raise ValueError("rate distribution has zero mean")
            if mean == np.inf:
                raise ValueError("rate distribution has infinite mean")
            self.support = support / mean
            self.probs = probs
        elif kind == "gamma":
            if shape is None or not shape > 0.0:
                raise ValueError("gamma kind needs a positive shape")
            if shape == np.inf:
                raise ValueError("gamma kind needs a finite shape")
            self.shape = float(shape)
        elif kind == "lognormal":
            if sigma is None or not sigma > 0.0:
                raise ValueError("lognormal kind needs a positive sigma")
            if sigma == np.inf:
                raise ValueError("lognormal kind needs a finite sigma")
            self.sigma = float(sigma)
        else:
            raise ValueError(f"unknown rate distribution kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls) -> "RateDistribution":
        return cls("constant")

    @classmethod
    def discrete(cls, support, probs) -> "RateDistribution":
        return cls("discrete", support=support, probs=probs)

    @classmethod
    def gamma(cls, shape: float) -> "RateDistribution":
        return cls("gamma", shape=shape)

    @classmethod
    def lognormal(cls, sigma: float) -> "RateDistribution":
        return cls("lognormal", sigma=sigma)

    @classmethod
    def two_speed(cls, slow: float, fast: float) -> "RateDistribution":
        """Equiprobable two-point law (rescaled to mean 1)."""
        return cls.discrete([slow, fast], [0.5, 0.5])

    def __repr__(self):
        from .io import format_rates_spec  # io imports this module

        return f"RateDistribution({format_rates_spec(self)})"

    # -- transform ----------------------------------------------------------

    def phi(self, s: float) -> float:
        """``E[exp(-s*lam)]`` for ``s >= 0``.

        The lognormal law integrates with ``scipy.integrate.quad``, which
        is imported here on first use; the other laws need no scipy.
        """
        if s < 0.0:
            raise ValueError("phi is defined for s >= 0")
        if s == 0.0:
            return 1.0
        if self.kind == "constant":
            return math.exp(-s)
        if self.kind == "discrete":
            return float(self.probs @ np.exp(-s * self.support))
        if self.kind == "gamma":
            return (1.0 + s / self.shape) ** (-self.shape)
        from scipy import integrate

        sig = self.sigma
        mu = -0.5 * sig * sig
        norm = 1.0 / math.sqrt(2.0 * math.pi)

        def integrand(z):
            inner = mu + sig * z
            if inner > 690.0:  # exp would overflow; the integrand is ~0 there
                return 0.0
            return math.exp(-s * math.exp(inner) - 0.5 * z * z) * norm

        return integrate.quad(integrand, -np.inf, np.inf,
                              epsabs=1e-14, epsrel=1e-11, limit=200)[0]

    def phi_inverse(self, y: float) -> float:
        """The unique ``s >= 0`` with ``phi(s) = y``, for ``y in (0, 1]``;
        see :func:`invert_decreasing`."""
        return invert_decreasing(self.phi, y)

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """``size`` rates as an array, or one rate as a scalar for ``None``."""
        if self.kind == "constant":
            return 1.0 if size is None else np.ones(size)
        if self.kind == "discrete":
            return self._atoms_at(rng.random(size))
        if self.kind == "gamma":
            return rng.gamma(shape=self.shape, scale=1.0 / self.shape, size=size)
        return rng.lognormal(mean=-0.5 * self.sigma ** 2, sigma=self.sigma,
                             size=size)

    def _atoms_at(self, u: np.ndarray) -> np.ndarray:
        """Discrete rates for uniforms ``u``: the support point whose
        cumulative-probability interval holds each ``u``, the rule of
        ``Generator.choice(p=probs)``, so each rate costs one double."""
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        return self.support[np.searchsorted(cdf, u, side="right")]

    def finite_support(self):
        """``(support, probs)`` arrays, or None for continuous kinds."""
        if self.kind == "constant":
            return np.array([1.0]), np.array([1.0])
        if self.kind == "discrete":
            return self.support.copy(), self.probs.copy()
        return None


def invert_decreasing(curve, y: float) -> float:
    """The ``s >= 0`` with ``curve(s) = y``, for ``y in (0, 1]``.

    ``curve`` must be continuous and strictly decreasing with
    ``curve(0) = 1``.  Bisection with bracket doubling; absolute
    tolerance 1e-12 on s, or adjacent doubles where those lie further
    apart (``s >= 8192``).  Raises ``ValueError`` for ``y`` outside
    (0, 1] or when the curve stays above ``y`` up to ``s = 1e9``.
    """
    if not (0.0 < y <= 1.0):
        raise ValueError(f"need y in (0, 1], got {y!r}")
    if y == 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while curve(hi) > y:
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise ValueError(f"curve never reaches {y}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if curve(mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Alignments and simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alignment:
    """``k x n`` character matrix over ``{0 .. r-1}``.

    ``hidden_lambdas``, when present, records the per-site scaling
    factors drawn by the simulator.  It is provenance for diagnostics
    only; inference operations must not read it (strip it with
    :meth:`without_lambdas`).
    """

    data: np.ndarray
    r: int
    hidden_lambdas: np.ndarray | None = None

    def __post_init__(self):
        try:  # the writer prints r as given and the reader parses an int
            r = operator.index(self.r)
        except TypeError:
            r = None
        if r is None or r < 2:
            raise ValueError(f"alphabet size must be an integer of at least "
                             f"2, not {self.r}")
        object.__setattr__(self, "r", r)
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError("alignment data must be 2-d (sites x leaves)")
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError(f"alignment states must be integers, "
                             f"not {data.dtype}")
        if data.size and (data.min() < 0 or data.max() >= self.r):
            raise ValueError("alignment states must lie in [0, r)")
        object.__setattr__(self, "data", data)
        if self.hidden_lambdas is not None:
            lam = np.asarray(self.hidden_lambdas, dtype=float)
            if lam.shape != (data.shape[0],):
                raise ValueError("hidden_lambdas must have one entry per site")
            object.__setattr__(self, "hidden_lambdas", lam)

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def without_lambdas(self) -> "Alignment":
        """The same alignment with the provenance sidecar stripped."""
        return Alignment(self.data, self.r, None)


# Sites per simulation worker, at least, so that a worker's share costs
# well over the fork that starts it.  On a 2-vCPU VM a fork plus its reap
# took 4-7 ms with 50-63 MB resident and BLAS threads live, and a site at
# least 2.3 us (n=5; 9 us at n=128), so 2**13 sites take 19 ms or more.
# At n=5 two workers beat one from about 6000 sites on.
_MIN_SHARE = 1 << 13


def simulate_alignment(p: Phylogeny, model: SubstitutionModel,
                       rates: RateDistribution, k: int, seed: int) -> Alignment:
    """Simulate ``k`` independent sites of the scaled Poisson process.

    Each site owns a counter-based random stream keyed by
    ``(seed, site_index)`` (Philox), so the output is a pure function of
    the seed and does not depend on evaluation order or batching.  Per
    site: draw the scaling factor, draw the root state from ``pi``, then
    walk the tree copying each parent state with probability
    ``exp(-lam * mu_e)`` and redrawing from ``pi`` otherwise.  ``seed``
    must be an integer in ``[0, 2**63)``, and ``model.r`` at most 256,
    since states are stored as ``uint8``.

    The sites are split into ``W`` contiguous ranges, one per worker.
    ``W`` is the number of CPUs this process may run on
    (``os.sched_getaffinity``; 1 where that call does not exist), capped
    so that every worker gets at least ``_MIN_SHARE`` sites, whose cost
    is well over that of one fork.  The calling process runs the first
    range, and each other range runs in an ``os.fork()`` child.  Every
    worker writes its rows and rates straight into one anonymous shared
    ``mmap``, which the returned arrays view, so no result is pickled or
    copied back.  Where ``os.fork`` fails, the caller runs the ranges
    left over itself; a worker that fails raises ``RuntimeError`` here,
    naming its range.  Python 3.12 and later may warn that forking a
    process with threads can deadlock the child: the threads are BLAS's,
    and the workers call no BLAS routine.

    Besides the output, each worker holds a vertex-major block of keep
    flags and states, one byte each per vertex and site, in chunks of
    ``(1 << 22) // n_vertices`` sites: 8 MiB per chunk.  At a chunk
    boundary the next chunk's keep flags are allocated while the last
    chunk's two 4 MiB arrays are still bound, so up to 12 MiB of blocks
    are live; with the tile and its temporaries each worker stays within
    16 MiB (13.1 MiB measured at n=512, k=2e4), about ``W`` x 16 MiB in
    all.

    The walk starts at :attr:`Phylogeny.root`; by reversibility of the
    channel the leaf distribution does not depend on this choice.

    Stream layout, the contract that faster code must keep (the golden
    digests in the tests pin it).  Site ``i`` reads the stream of a fresh
    ``np.random.Generator(np.random.Philox(key=[seed, i]))``: key
    ``[seed, i]``, counter 0, empty buffer.  Doubles are
    ``Generator.random`` doubles, and they are read in this order:

    1. the rate ``lam``: nothing for the constant law; for a discrete law
       one double ``u``, giving ``support[searchsorted(cdf, u, "right")]``
       with ``cdf = cumsum(probs) / cumsum(probs)[-1]``, which is the rule
       of ``Generator.choice(p=probs)``; for gamma and lognormal laws,
       one ``Generator.gamma`` or ``Generator.lognormal`` variate, drawn
       by ``rates.sample(rng)`` with no size, however many words that
       takes (it reads the stream as ``size=1`` does);
    2. one keep double per vertex id, ``0 .. n_vertices - 1``: the vertex
       copies its parent's state iff its double is below
       ``exp(-lam * w)``, ``w`` the weight of the edge to its parent (the
       root's double is read but unused);
    3. one fresh double ``u`` per vertex id: the vertex's redrawn state is
       the number of partial sums ``pi_0, pi_0 + pi_1, ...`` (the first
       ``r - 1``) that are ``<= u``; the root always takes this state.

    How the streams are drawn does not change this layout.  Under the
    constant and discrete laws, a site that reads at most
    ``_BATCH_WORDS`` (31) doubles, as on a binary tree of up to 8
    leaves, has its doubles computed in one batched numpy pass over many
    sites (:func:`_philox_doubles`).  Gamma and lognormal rates take a
    variable number of words, so those laws, and wider sites, reset one
    ``Generator`` per site.  Both paths give the same bytes.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    try:
        seed = operator.index(seed)
    except TypeError:
        pass  # not an integer: refused below
    # Philox would truncate a float key, wrap a negative one and round one
    # from 2**63 up through float64, each onto another seed's streams
    if not (isinstance(seed, int) and 0 <= seed < 2 ** 63):
        raise ValueError(f"seed must be an integer in [0, 2**63), "
                         f"got {seed!r}")
    if model.r > 256:
        raise ValueError("states are stored as uint8, so r must be at "
                         f"most 256, got {model.r}")
    n = p.n_leaves
    # the rates first, so that both views are aligned
    shared = mmap.mmap(-1, 8 * k + k * n)
    lambdas = np.frombuffer(shared, dtype=np.float64, count=k)
    data = np.frombuffer(shared, dtype=np.uint8, count=k * n,
                         offset=8 * k).reshape(k, n)
    lambdas[:] = 1.0  # the constant law's rates

    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cpus, k // _MIN_SHARE))
    bounds = [k * w // workers for w in range(workers + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    args = (p, model, rates, seed, data, lambdas)
    children = {}  # pid -> its site range
    try:
        for lo, hi in ranges[1:]:
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                code = 1
                try:
                    _simulate_sites(*args, lo, hi)
                    code = 0
                except BaseException:
                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
            children[pid] = (lo, hi)
        # the first range, and any range no child took
        for lo, hi in ranges[:1] + ranges[1 + len(children):]:
            _simulate_sites(*args, lo, hi)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failed = [(lo, hi) for pid, (lo, hi) in children.items()
                  if os.waitpid(pid, 0)[1] != 0]
    if failed:
        raise RuntimeError("simulation worker failed on sites "
                           + ", ".join(f"{lo}..{hi - 1}" for lo, hi in failed))
    return Alignment(data, model.r, lambdas)


def _simulate_sites(p: Phylogeny, model: SubstitutionModel,
                    rates: RateDistribution, seed: int, data: np.ndarray,
                    lambdas: np.ndarray, lo: int, hi: int) -> None:
    """Write sites ``lo .. hi - 1`` of :func:`simulate_alignment`'s
    output into ``data`` and ``lambdas``, whose constant-law rates are
    already 1."""
    n = p.n_leaves
    n_vertices = p.n_vertices
    edges = p.preorder_edges()
    weight = np.zeros(n_vertices)  # the root's stays 0.0
    for _, child, w in edges:
        weight[child] = w
    cuts = np.cumsum(model.pi)[:-1]
    lead = 1 if rates.kind == "discrete" else 0  # the rate's double
    continuous = rates.kind in ("gamma", "lognormal")
    width = lead + 2 * n_vertices
    fresh_at = lead + n_vertices
    batched = not continuous and width <= _BATCH_WORDS

    if not batched:
        # One bit generator for the call.  Each site resets it to the
        # start state of a fresh Philox(key=[seed, site]), taken from the
        # constructor so the key is converted as it converts it; lists
        # set faster.
        bits = np.random.Philox(key=[seed, 0])
        rng = np.random.Generator(bits)
        state = bits.state
        state["state"] = {name: words.tolist()
                          for name, words in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        key = state["state"]["key"]

    # Sites are drawn into a cache-sized tile, one row of doubles per site,
    # and reduced there to keep flags and fresh states.  Those go into a
    # vertex-major chunk block (one byte each, 2 * 2**22 B = 8 MiB; three
    # 4 MiB arrays are live at a chunk boundary), so the walk handles each
    # edge with one contiguous pass over the chunk.
    chunk = max(1, min(hi - lo, (1 << 22) // n_vertices))
    tile = np.empty((max(1, min(chunk, (1 << 17) // width)), width))
    for start in range(lo, hi, chunk):
        stop = min(hi, start + chunk)
        lam = lambdas[start:stop]
        keep = np.empty((n_vertices, stop - start), dtype=np.uint8)
        states = np.empty((n_vertices, stop - start), dtype=np.uint8)
        for t0 in range(0, stop - start, len(tile)):
            t1 = min(stop - start, t0 + len(tile))
            rows = tile[:t1 - t0]
            if batched:
                _philox_doubles(seed, start + t0, rows)
            else:
                for j, row in enumerate(rows, start + t0):
                    key[1] = j
                    bits.state = state
                    if continuous:
                        lam[j - start] = rates.sample(rng)
                    rng.random(out=row)
            if lead:
                lam[t0:t1] = rates._atoms_at(rows[:, 0])
            thresh = np.exp(np.multiply.outer(-lam[t0:t1], weight))
            keep[:, t0:t1] = (rows[:, lead:fresh_at] < thresh).T
            fresh = np.zeros((t1 - t0, n_vertices), dtype=np.uint8)
            # counting the cuts <= u is searchsorted(side="right") on
            # cumsum(pi), in one cheap pass per cut (20x faster at r=4)
            for c in cuts:
                fresh += rows[:, fresh_at:] >= c
            states[:, t0:t1] = fresh.T
        # Parents first: each child copies its parent's final state where
        # its keep flag (0 or 1) is set, as child + keep * (parent - child)
        # in uint8 arithmetic, exact mod 256; three plain passes are much
        # faster than a masked copy.
        diff = np.empty(stop - start, dtype=np.uint8)
        for parent, child, _ in edges:
            np.subtract(states[parent], states[child], out=diff)
            diff *= keep[child]
            states[child] += diff
        data[start:stop] = states[:n].T


# Philox4x64-10 as numpy's Philox runs it (Salmon et al., "Parallel random
# numbers: as easy as 1, 2, 3", SC 2011): the round multipliers and the
# key increments (Weyl constants).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Sites whose doubles _simulate_sites draws with _philox_doubles: those of
# the constant and discrete laws that read at most this many doubles.  It
# sits at the measured crossover: on a 2-vCPU VM with one worker, the
# batched and the per-site draw took 1.76 and 1.84 us a site at 29 doubles
# (n=8, discrete law), 1.95 and 1.83 us at 33 (n=9).
_BATCH_WORDS = 31
# Sites per pass of _philox_doubles, so that its temporaries stay in cache
_BATCH_SITES = 2048


def _mulhilo(x: np.ndarray, m: int):
    """The low and high 64-bit words of ``x * m``, for uint64 ``x`` and
    a 64-bit constant ``m``.  numpy has no 128-bit product, so the high
    word is summed from the four 32 x 32-bit partial products, in sums
    that cannot wrap."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LO32
    x_hi = x >> _SHIFT32
    mid = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    mid2 = x_lo * m_hi + (mid & _LO32)
    return (x * np.uint64(m),
            x_hi * m_hi + (mid >> _SHIFT32) + (mid2 >> _SHIFT32))


def _philox_doubles(seed: int, first_site: int, out: np.ndarray) -> None:
    """Fill row ``i`` of the float64 array ``out`` with the first
    ``out.shape[1]`` doubles of ``Generator(Philox(key=[seed, first_site
    + i])).random``, for all rows at once.

    A fresh Philox has counter 0 and an empty buffer, so its block ``j``
    of four words is Philox4x64-10 of counter ``[j + 1, 0, 0, 0]`` under
    key ``[seed, site]``, and its ``m``-th double is ``(word_m >> 11) *
    2**-53``.  Every (site, block) pair is computed at once in wrapping
    uint64 arithmetic.  The state words start as broadcastable shapes, so
    the first rounds run on the counter or the key alone.  All constants
    are numpy scalars, so the arithmetic stays uint64 under both the old
    value-based promotion and NEP 50's.  ``seed`` is a Python int in
    ``[0, 2**63)``, the key's first word.
    """
    sites, width = out.shape
    blocks = -(-width // 4)
    zero = np.zeros((1, 1), dtype=np.uint64)
    counter = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    words = np.empty((min(sites, _BATCH_SITES), blocks, 4), dtype=np.uint64)
    for s0 in range(0, sites, _BATCH_SITES):
        s1 = min(sites, s0 + _BATCH_SITES)
        site = np.arange(first_site + s0, first_site + s1,
                         dtype=np.uint64)[:, None]
        x = (counter, zero, zero, zero)
        for r in range(10):
            # the key after r increments, mod 2**64
            k0 = np.uint64((seed + r * _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF)
            k1 = site + np.uint64(r * _PHILOX_W[1] & 0xFFFFFFFFFFFFFFFF)
            lo0, hi0 = _mulhilo(x[0], _PHILOX_M[0])
            lo1, hi1 = _mulhilo(x[2], _PHILOX_M[1])
            x = (hi1 ^ x[1] ^ k0, lo1, hi0 ^ x[3] ^ k1, lo0)
        block = words[:s1 - s0]
        for lane in range(4):
            block[:, :, lane] = x[lane]
        np.multiply(block.reshape(s1 - s0, 4 * blocks)[:, :width]
                    >> np.uint64(11), 2.0 ** -53, out=out[s0:s1])


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


def exact_leaf_distribution(p: Phylogeny, model: SubstitutionModel,
                            rates: RateDistribution,
                            root: int | None = None) -> np.ndarray:
    """Exact leaf-state distribution of the scaled Poisson model.

    Returns an array of shape ``(r,) * n`` whose ``[s_0, ..., s_{n-1}]``
    entry is the probability of observing state ``s_i`` at leaf ``i``:
    ``pi`` at ``root`` times one :func:`transition_matrix` per edge,
    directed away from ``root``, summed over the states of the internal
    vertices, and mixed over the (finite) rate support.  Each rate atom
    is one ``np.einsum`` labelled by vertex id over the walk's
    :meth:`~rasphy.trees.Phylogeny.preorder_edges`, with the edges on
    the path from :attr:`~rasphy.trees.Phylogeny.root` to ``root``
    reversed.  Only tractable instances are accepted: ``n <= 8``
    leaves, ``r <= 4`` states, and a rate distribution with finite
    support.

    The output is invariant (to floating-point accuracy) under the
    choice of ``root``, which can be any vertex id in
    ``[0, p.n_vertices)``; any other value is refused.
    """
    n = p.n_leaves
    if n > 8 or model.r > 4:
        raise ValueError("instance too large for exact enumeration "
                         f"(n={n}, r={model.r}; need n<=8, r<=4)")
    fs = rates.finite_support()
    if fs is None:
        raise ValueError("exact enumeration requires a finite-support "
                         "rate distribution")
    if root is None:
        root = p.root
    elif not 0 <= root < p.n_vertices:
        raise ValueError(f"root must be a vertex id in [0, {p.n_vertices})")
    flip = p.path_edges(root, p.root)
    edges = [(c, a, w) if (min(a, c), max(a, c)) in flip else (a, c, w)
             for a, c, w in p.preorder_edges()]
    total = np.zeros((model.r,) * n)
    for lam, weight in zip(*fs):
        operands = [np.asarray(model.pi), [root]]
        for a, c, w in edges:
            operands += [transition_matrix(lam * w, model), [a, c]]
        total += weight * np.einsum(*operands, list(range(n)), optimize=True)
    return total


# ---------------------------------------------------------------------------
# Model assumption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the regularity check tying the rate law to the cap M.

    ``ok`` is true iff ``phi_inverse(exp(-6g)) <= M``, with M the
    ``distance_cap`` checked against.
    """

    ok: bool
    phi_inv_6g: float
    distance_cap: float

    def raise_if_failed(self):
        if not self.ok:
            raise ValueError(
                "model assumption violated: phi_inverse(exp(-6g)) = "
                f"{self.phi_inv_6g!r} exceeds the distance cap "
                f"{self.distance_cap!r}")


def check_assumption(rates: RateDistribution,
                     params: RegularityParams) -> AssumptionReport:
    """Check ``phi_inverse(exp(-6g)) <= M`` and report the value.

    Passing means an evolutionary distance of M under random scaling
    still shows at least as much correlation as an unscaled distance of
    ``6g``, which keeps the data-driven clustering thresholds sound.
    """
    g = params.max_edge
    value = rates.phi_inverse(math.exp(-6.0 * g))
    return AssumptionReport(
        ok=bool(value <= params.distance_cap),
        phi_inv_6g=value,
        distance_cap=params.distance_cap,
    )
