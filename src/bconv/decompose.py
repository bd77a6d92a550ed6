"""Decomposing measures into Bernoulli pairs, and entropy-gain experiments.

A Bernoulli pair is (m/2)(delta_x + delta_y): equal masses on two atoms.
Given a measure nu and a distance window, the decomposition writes

    nu = theta + sum_i zeta_i

with every zeta_i a pair whose endpoints are admissibly separated, and the
residual theta as small as possible.  Atoms may split their mass across
several pairs, so the optimum is a maximum fractional matching with vertex
capacities; it is computed exactly as a max-flow on the bipartite double
cover of the admissibility graph.

The admissibility window is geometric: after rescaling by the inverse of the
integer-ratio scale s_{n+2N}, endpoints must sit at distance between 1/6 and
2 |lambda^{-3N}|.  Pairs additionally report whether they satisfy the looser
window eps <= |s_n^{-1}(x - y)| <= 1/eps at the statement scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entropy as ent
from .measures import DiscreteMeasure, bernoulli_power
from .scales import ScaleVector, _as_scale, s_sequence, validate_contraction_vector

__all__ = [
    "BernoulliPair",
    "Decomposition",
    "bernoulli_decompose",
    "IncreaseReport",
    "entropy_increase_gap",
    "TubeRow",
    "TubeReport",
    "tube_entropy_selfconv",
]

_GREEDY_THRESHOLD = 10_000
_PAIR_MASS_FLOOR = 1e-15


@dataclass(frozen=True)
class BernoulliPair:
    """Equal mass on two atoms: (mass/2)(delta_x + delta_y)."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    mass: float
    rescaled_distance: float  # |s_{n+2N}^{-1} (x - y)|
    statement_distance: float  # |s_n^{-1} (x - y)|
    in_statement_window: bool


@dataclass(frozen=True)
class Decomposition:
    theta: DiscreteMeasure
    pairs: tuple[BernoulliPair, ...]
    paired_mass: float
    original_mass: float
    window_low: float
    window_high: float
    method: str  # "max-flow" or "greedy"
    optimality_gap: float  # 0 for the exact method

    def mass_identity_defect(self) -> float:
        """|theta + paired mass - original mass| should vanish to 1e-12."""
        return abs(self.theta.mass + self.paired_mass - self.original_mass)


def bernoulli_decompose(
    nu: DiscreteMeasure,
    lam: "ScaleVector | Sequence[float]",
    n: int,
    big_n: int,
    eps: float,
    greedy_threshold: int = _GREEDY_THRESHOLD,
) -> Decomposition:
    """Extract the maximal mass of admissibly separated Bernoulli pairs.

    Admissibility, checked after rescaling by s_{n+2N}^{-1}: pair endpoints
    at Euclidean distance in [1/6, 2 |lambda^{-3N}|].  Mass splits
    fractionally; the residual theta keeps whatever no pair could carry.
    Beyond greedy_threshold atoms an O(E log E) greedy pairing replaces the
    exact flow and the report carries its optimality gap bound.
    """
    lam = validate_contraction_vector(lam)
    if nu.dim != len(lam):
        raise ValueError("dimension mismatch")
    if nu.mass <= 0:
        raise ValueError("measure must have positive mass")
    if big_n < 1:
        raise ValueError("window exponent N must be >= 1")
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if n < 0:
        raise ValueError("scale index n must be nonnegative")

    seq = s_sequence(lam, n + 2 * big_n)
    s_pair = seq.term(n + 2 * big_n).as_array()
    s_stmt = seq.term(n).as_array()
    lam_arr = lam.as_array()
    r_high = 2.0 * float(np.linalg.norm(lam_arr ** (-3.0 * big_n)))
    r_low = 1.0 / 6.0

    z = nu.points / s_pair
    k = nu.n_atoms
    # Admissible pairs by rescaled Euclidean distance.
    edges: list[tuple[int, int, float]] = []
    from scipy.spatial import cKDTree

    tree = cKDTree(z)
    for i, j in sorted(tree.query_pairs(r_high * (1 + 1e-12))):
        dist = float(np.linalg.norm(z[i] - z[j]))
        if r_low <= dist <= r_high:
            edges.append((i, j, dist))

    weights = nu.weights
    if not edges:
        return Decomposition(nu, (), 0.0, nu.mass, r_low, r_high, "max-flow", 0.0)

    if k <= greedy_threshold:
        pair_mass, method, gap = _maxflow_pairing(k, weights, edges)
    else:
        pair_mass, method, gap = _greedy_pairing(k, weights, edges)

    pairs = []
    used = np.zeros(k)
    for (i, j, dist), m in zip(edges, pair_mass):
        if m <= _PAIR_MASS_FLOOR:
            continue
        used[i] += m / 2.0
        used[j] += m / 2.0
        dvec = (nu.points[i] - nu.points[j]) / s_stmt
        sd = float(np.linalg.norm(dvec))
        pairs.append(
            BernoulliPair(
                tuple(float(c) for c in nu.points[i]),
                tuple(float(c) for c in nu.points[j]),
                m,
                dist,
                sd,
                eps <= sd <= 1.0 / eps,
            )
        )
    residual = np.maximum(weights - used, 0.0)
    theta = DiscreteMeasure(nu.points, residual)
    paired = math.fsum(p.mass for p in pairs)
    return Decomposition(theta, tuple(pairs), paired, nu.mass, r_low, r_high, method, gap)


def _maxflow_pairing(k, weights, edges):
    """Exact maximum fractional pairing via the bipartite double cover.

    Vertices split into a left and a right copy; each admissible pair
    contributes both cross edges.  The max-flow value equals the maximal
    total pair mass, and edge flows recover the per-pair masses as the
    average of the two cross flows.

    Float capacities break augmenting-path solvers (residuals drift off
    zero), but every float64 weight is a dyadic rational, so the weights are
    rescaled to exact integers first and the flow is computed over Z.
    """
    import networkx as nx
    from fractions import Fraction

    fracs = [Fraction(float(w)) for w in weights]
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
    cap = [int(f * scale) for f in fracs]

    g = nx.DiGraph()
    src, snk = "s", "t"
    for v in range(k):
        g.add_edge(src, ("L", v), capacity=cap[v])
        g.add_edge(("R", v), snk, capacity=cap[v])
    for i, j, _ in edges:
        g.add_edge(("L", i), ("R", j), capacity=cap[i])
        g.add_edge(("L", j), ("R", i), capacity=cap[j])
    from networkx.algorithms.flow import dinitz

    _, flows = nx.maximum_flow(g, src, snk, flow_func=dinitz)
    # A pair of mass m places flow m/2 on each of its two cover edges, so the
    # pair mass is recovered as the sum of the two cross flows, and the total
    # flow value equals the total paired mass.
    masses = []
    for i, j, _ in edges:
        f = flows.get(("L", i), {}).get(("R", j), 0) + flows.get(("L", j), {}).get(("R", i), 0)
        masses.append(float(Fraction(f, scale)))
    return masses, "max-flow", 0.0


def _greedy_pairing(k, weights, edges):
    """Maximal greedy pairing; reports an upper bound on the missed mass."""
    residual = np.asarray(weights, dtype=float).copy()
    masses = []
    order = sorted(range(len(edges)), key=lambda e: -min(residual[edges[e][0]], residual[edges[e][1]]))
    out = [0.0] * len(edges)
    for e in order:
        i, j, _ = edges[e]
        m = 2.0 * min(residual[i], residual[j])
        if m > _PAIR_MASS_FLOOR:
            out[e] = m
            residual[i] -= m / 2.0
            residual[j] -= m / 2.0
    value = math.fsum(out)
    touched = np.zeros(k, dtype=bool)
    for i, j, _ in edges:
        touched[i] = touched[j] = True
    upper = float(np.sum(np.asarray(weights)[touched]))
    return out, "greedy", max(0.0, upper - value)


# ---------------------------------------------------------------------------
# Entropy increase
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncreaseReport:
    """Entropy gained by convolving mu with nu between two lambda-power scales."""

    beta: float  # normalized conditional entropy of nu on the same window
    gain: float  # H(nu * mu; lambda^t2 | lambda^t1) - H(mu; ...)
    t1: float
    t2: float
    method: str


def entropy_increase_gap(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    lam: "ScaleVector | Sequence[float]",
    t1: float,
    t2: float,
    quad: ent.QuadratureSpec | None = None,
) -> IncreaseReport:
    """Measure how much convolution with nu increases average entropy.

    Scales are lambda^t1 (coarse) and lambda^t2 (fine), t2 > t1.  beta is
    nu's own conditional entropy normalized by the window length; the gain
    compares mu * nu against mu on the same window.
    """
    lam = validate_contraction_vector(lam)
    if not t2 > t1:
        raise ValueError("need t2 > t1")
    quad = quad or ent.QuadratureSpec()
    r_fine = lam ** float(t2)
    r_coarse = lam ** float(t1)
    beta = ent.avg_cond_entropy(nu, r_fine, r_coarse, quad).value / (t2 - t1)
    from .measures import convolve

    conv = convolve(nu, mu)
    h_conv = ent.avg_cond_entropy(conv, r_fine, r_coarse, quad)
    h_mu = ent.avg_cond_entropy(mu, r_fine, r_coarse, quad)
    return IncreaseReport(beta, h_conv.value - h_mu.value, t1, t2, h_conv.method)


# ---------------------------------------------------------------------------
# Tube entropy of self-convolutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TubeRow:
    axis: int  # 1-based
    a: int  # per-axis level shift floor(log2(k) / (2 chi_j))
    value: float  # (1/m) H(zeta^*k, E_{l-a+m} | E_{l-a} join projected)
    chi: float


@dataclass(frozen=True)
class TubeReport:
    k: int
    m: int
    level: int
    rows: tuple[TubeRow, ...]
    # Axis whose entry comes closest to its chi, i.e. the saturating direction.
    top_axis: int


def tube_entropy_selfconv(
    x,
    y,
    k: int,
    lam: "ScaleVector | Sequence[float]",
    m: int,
    level: int = 0,
) -> TubeReport:
    """Across-axis conditional entropy of the k-fold pair self-convolution.

    The k-th self-convolution of (delta_x + delta_y)/2 is binomial along the
    segment; its spread is sqrt(k), so each axis is examined a = floor(
    log2(k) / (2 chi_j)) levels above the base.  Entries near chi_j mean the
    tube fills that axis direction.
    """
    lam = validate_contraction_vector(lam)
    if m < 1:
        raise ValueError("window m must be >= 1")
    zk = bernoulli_power(x, y, k)
    if zk.dim != len(lam):
        raise ValueError("dimension mismatch")
    d = len(lam)
    chi = tuple(-math.log2(e) for e in lam)
    rows = []
    for j in range(1, d + 1):
        a = math.floor(math.log2(k) / (2.0 * chi[j - 1])) if k > 1 else 0
        base = level - a
        other = [t for t in range(1, d + 1) if t != j]
        fine = ent.en(base + m, lam)
        coarse = ent.en_join_projected(base, m, other, lam)
        val = ent.conditional_entropy(zk, fine, coarse) / m
        rows.append(TubeRow(j, a, val, chi[j - 1]))
    top = max(rows, key=lambda r: r.value - r.chi)
    return TubeReport(k, m, level, tuple(rows), top.axis)
