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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

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
            if min(pi) <= 0.0 or abs(sum(pi) - 1.0) > 1e-12:
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
                              at 0) with positive probabilities.
    ``gamma``                 shape ``a`` and rate ``a`` (mean 1).
    ``lognormal``             location ``-sigma**2 / 2``, scale
                              ``sigma`` (mean 1).

    ``phi(s)`` is the decay transform ``E[exp(-s*lam)]``: continuous,
    strictly decreasing, ``phi(0) = 1``.  It has a closed form for all
    kinds except lognormal, which is integrated numerically to 1e-10
    relative accuracy and cached per evaluation point.
    """

    __slots__ = ("kind", "support", "probs", "shape", "sigma", "_phi_cache")

    def __init__(self, kind, support=None, probs=None, shape=None, sigma=None):
        self.kind = kind
        self.support = None
        self.probs = None
        self.shape = None
        self.sigma = None
        self._phi_cache = {}
        if kind == "constant":
            pass
        elif kind == "discrete":
            support = np.asarray(support, dtype=float)
            probs = np.asarray(probs, dtype=float)
            if support.ndim != 1 or support.shape != probs.shape or len(support) == 0:
                raise ValueError("support and probs must be equal-length 1-d")
            if np.any(support <= 0.0):
                raise ValueError("rate support must be strictly positive "
                                 "(an atom at 0 is not allowed)")
            if np.any(probs <= 0.0):
                raise ValueError("probabilities must be strictly positive")
            total = probs.sum()
            if abs(total - 1.0) > 1e-9:
                raise ValueError("probabilities must sum to 1")
            probs = probs / total
            mean = float(support @ probs)
            if mean <= 0.0:
                raise ValueError("rate distribution has zero mean")
            self.support = support / mean
            self.probs = probs
        elif kind == "gamma":
            if shape is None or shape <= 0.0:
                raise ValueError("gamma kind needs a positive shape")
            self.shape = float(shape)
        elif kind == "lognormal":
            if sigma is None or sigma <= 0.0:
                raise ValueError("lognormal kind needs a positive sigma")
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
        if self.kind == "discrete":
            pts = ";".join(f"{l:g},{p:g}" for l, p in zip(self.support, self.probs))
            return f"RateDistribution(discrete:{pts})"
        if self.kind == "gamma":
            return f"RateDistribution(gamma:{self.shape:g})"
        if self.kind == "lognormal":
            return f"RateDistribution(lognormal:{self.sigma:g})"
        return "RateDistribution(constant)"

    # -- transform ----------------------------------------------------------

    def phi(self, s: float) -> float:
        """``E[exp(-s*lam)]`` for ``s >= 0``."""
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
        cached = self._phi_cache.get(s)
        if cached is not None:
            return cached
        sig = self.sigma
        mu = -0.5 * sig * sig
        norm = 1.0 / math.sqrt(2.0 * math.pi)

        def integrand(z):
            inner = mu + sig * z
            if inner > 690.0:  # exp would overflow; the integrand is ~0 there
                return 0.0
            return math.exp(-s * math.exp(inner) - 0.5 * z * z) * norm

        value, _ = integrate.quad(integrand, -np.inf, np.inf,
                                  epsabs=1e-14, epsrel=1e-11, limit=200)
        self._phi_cache[s] = value
        return value

    def phi_inverse(self, y: float) -> float:
        """The unique ``s >= 0`` with ``phi(s) = y``, for ``y in (0, 1]``;
        see :func:`invert_decreasing`."""
        return invert_decreasing(self.phi, y)

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.ones(size)
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
    tolerance 1e-12 on s.  Raises ``ValueError`` for ``y`` outside
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
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError("alignment data must be 2-d (sites x leaves)")
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


def simulate_alignment(p: Phylogeny, model: SubstitutionModel,
                       rates: RateDistribution, k: int, seed: int) -> Alignment:
    """Simulate ``k`` independent sites of the scaled Poisson process.

    Each site owns a counter-based random stream keyed by
    ``(seed, site_index)`` (Philox), so the output is a pure function of
    the seed and does not depend on evaluation order or batching.  Per
    site: draw the scaling factor, draw the root state from ``pi``, then
    walk the tree copying each parent state with probability
    ``exp(-lam * mu_e)`` and redrawing from ``pi`` otherwise.  ``seed``
    must be below ``2**63``.

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
       ``Generator.gamma`` or ``Generator.lognormal`` with ``size=1``,
       however many words that takes;
    2. one keep double per vertex id, ``0 .. n_vertices - 1``: the vertex
       copies its parent's state iff its double is below
       ``exp(-lam * w)``, ``w`` the weight of the edge to its parent (the
       root's double is read but unused);
    3. one fresh double ``u`` per vertex id: the vertex's redrawn state is
       the number of partial sums ``pi_0, pi_0 + pi_1, ...`` (the first
       ``r - 1``) that are ``<= u``; the root always takes this state.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if seed >= 2 ** 63:
        # Philox turns a key list holding such a seed into float64, which
        # rounds it: seeds from 2**63 up would share streams
        raise ValueError(f"seed must be below 2**63, got {seed}")
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

    # One bit generator for the call.  Each site resets it to the start
    # state of a fresh Philox(key=[seed, site]), taken from the constructor
    # so the key is converted as it converts it; lists set faster.
    bits = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bits)
    state = bits.state
    state["state"] = {name: words.tolist()
                      for name, words in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]

    data = np.empty((k, n), dtype=np.uint8)
    lambdas = np.ones(k)  # the constant law's rates
    # Sites are drawn into a cache-sized tile, one row of doubles per site,
    # and reduced there to keep flags and fresh states.  Those go into a
    # vertex-major chunk block (one byte each, 64 MiB at most), so the
    # walk handles each edge with one contiguous pass over the chunk.
    chunk = max(1, min(k, (1 << 25) // n_vertices))
    tile = np.empty((max(1, min(chunk, (1 << 17) // width)), width))
    for start in range(0, k, chunk):
        stop = min(k, start + chunk)
        lam = lambdas[start:stop]
        keep = np.empty((n_vertices, stop - start), dtype=bool)
        states = np.empty((n_vertices, stop - start), dtype=np.uint8)
        for t0 in range(0, stop - start, len(tile)):
            t1 = min(stop - start, t0 + len(tile))
            rows = tile[:t1 - t0]
            for j, row in enumerate(rows, start + t0):
                key[1] = j
                bits.state = state
                if continuous:
                    lam[j - start] = rates.sample(rng, 1)[0]
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
        # parents first: each child copies its parent's final state
        for parent, child, _ in edges:
            np.copyto(states[child], states[parent], where=keep[child])
        data[start:stop] = states[:n].T
    return Alignment(data, model.r, lambdas)


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


def exact_leaf_distribution(p: Phylogeny, model: SubstitutionModel,
                            rates: RateDistribution,
                            root: int | None = None) -> np.ndarray:
    """Exact leaf-state distribution of the scaled Poisson model.

    Returns an array of shape ``(r,) * n`` whose ``[s_0, ..., s_{n-1}]``
    entry is the probability of observing state ``s_i`` at leaf ``i``.
    Internal states are marginalized by tensor elimination along the
    tree; the result is mixed over the (finite) rate support.  Only
    tractable instances are accepted: ``n <= 8`` leaves, ``r <= 4``
    states, and a rate distribution with finite support.

    The output is invariant (to floating-point accuracy) under the
    choice of ``root``, which can be any vertex id.
    """
    n = p.n_leaves
    if n > 8 or model.r > 4:
        raise ValueError("instance too large for exact enumeration "
                         f"(n={n}, r={model.r}; need n<=8, r<=4)")
    fs = rates.finite_support()
    if fs is None:
        raise ValueError("exact enumeration requires a finite-support "
                         "rate distribution")
    support, probs = fs
    if root is None:
        root = p.root
    r = model.r
    pi = np.asarray(model.pi)

    def subtree(v: int, parent: int, lam: float):
        # returns (tensor with axes [state_v, *leaf axes], leaf id list)
        tensor = np.ones((r,))
        leaf_ids: list[int] = []
        if v < n:
            tensor = np.eye(r)
            leaf_ids = [v]
        for u, w in p.neighbors(v):
            if u == parent:
                continue
            child_t, child_leaves = subtree(u, v, lam)
            m = transition_matrix(lam * w, model)
            # bound tensor over the edge: sum out the child state
            bound = np.tensordot(m, child_t, axes=(1, 0))
            # outer-combine with what we have so far on the state axis
            t_shape = tensor.shape + (1,) * (bound.ndim - 1)
            b_shape = (r,) + (1,) * (tensor.ndim - 1) + bound.shape[1:]
            tensor = tensor.reshape(t_shape) * bound.reshape(b_shape)
            leaf_ids = leaf_ids + child_leaves
        return tensor, leaf_ids

    total = np.zeros((r,) * n)
    for lam, weight in zip(support, probs):
        tensor, leaf_ids = subtree(root, -1, float(lam))
        joint = np.tensordot(pi, tensor, axes=(0, 0))
        order = np.argsort(leaf_ids)
        total += weight * np.transpose(joint, axes=order)
    return total


# ---------------------------------------------------------------------------
# Model assumption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the regularity check tying the rate law to the cap M.

    ``ok`` is true iff ``phi_inverse(exp(-6g)) <= M``.  ``mid_scale`` is
    the derived constant ``phi_inverse(exp(-5g))`` used by the clustering
    thresholds; when the check passes it is guaranteed to lie in
    ``[5g, M)``.
    """

    ok: bool
    phi_inv_6g: float
    mid_scale: float

    def __bool__(self):
        return self.ok


def check_assumption(rates: RateDistribution,
                     params: RegularityParams) -> AssumptionReport:
    """Check ``phi_inverse(exp(-6g)) <= M`` and report derived constants.

    Passing means an evolutionary distance of M under random scaling
    still shows at least as much correlation as an unscaled distance of
    ``6g``, which keeps the data-driven clustering thresholds sound.
    """
    g = params.max_edge
    value = rates.phi_inverse(math.exp(-6.0 * g))
    m = rates.phi_inverse(math.exp(-5.0 * g))
    return AssumptionReport(
        ok=bool(value <= params.distance_cap),
        phi_inv_6g=value,
        mid_scale=m,
    )
