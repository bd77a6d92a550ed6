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
# Capacity scaling: each phase leaves under 2^30 units of flow to find, so
# its floored capacities clamp to int32 without losing any of it.
_PHASE_BITS = 30
_INT32_MAX = 2**31 - 1


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
) -> Decomposition:
    """Extract the maximal mass of admissibly separated Bernoulli pairs.

    Admissibility, checked after rescaling by s_{n+2N}^{-1}: pair endpoints
    at Euclidean distance in [1/6, 2 |lambda^{-3N}|].  Mass splits
    fractionally; the residual theta keeps whatever no pair could carry.
    Beyond _GREEDY_THRESHOLD (10,000) atoms an O(E log E) greedy pairing replaces the
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

    k = nu.n_atoms
    ei, ej, dist = _admissible_pairs(nu.points / s_pair, r_low, r_high)
    weights = nu.weights
    if len(ei) == 0:
        return Decomposition(nu, (), 0.0, nu.mass, r_low, r_high, "max-flow", 0.0)

    if k <= _GREEDY_THRESHOLD:
        num, scale = _maxflow_pairing(k, weights, ei, ej)
        # int / int rounds correctly, however large the integers.
        pair_mass, method, gap = [f / scale for f in num.tolist()], "max-flow", 0.0
    else:
        pair_mass, method, gap = _greedy_pairing(k, weights, ei, ej)

    pair_mass = np.asarray(pair_mass, dtype=float)
    sel = pair_mass > _PAIR_MASS_FLOOR
    ei, ej, dist, pair_mass = ei[sel], ej[sel], dist[sel], pair_mass[sel]
    stmt = _row_norms((nu.points[ei] - nu.points[ej]) / s_stmt)
    used = np.zeros(k)
    # Interleaved i, j order: each atom accumulates its halves in edge order.
    np.add.at(used, np.column_stack((ei, ej)).ravel(), np.repeat(pair_mass / 2.0, 2))
    pts = nu.points.tolist()
    pairs = tuple(
        BernoulliPair(tuple(pts[i]), tuple(pts[j]), m, rd, sd, eps <= sd <= 1.0 / eps)
        for i, j, m, rd, sd in zip(
            ei.tolist(), ej.tolist(), pair_mass.tolist(), dist.tolist(), stmt.tolist()
        )
    )
    residual = np.maximum(weights - used, 0.0)
    theta = DiscreteMeasure(nu.points, residual)
    paired = math.fsum(p.mass for p in pairs)
    return Decomposition(theta, pairs, paired, nu.mass, r_low, r_high, method, gap)


def _admissible_pairs(z, r_low, r_high):
    """Atom pairs i < j at Euclidean distance in [r_low, r_high].

    Returns index arrays ei, ej in sorted (i, j) order and the distances.
    """
    from scipy.spatial import cKDTree

    cand = cKDTree(z).query_pairs(r_high * (1 + 1e-12), output_type="ndarray")
    cand = cand[np.lexsort((cand[:, 1], cand[:, 0]))]
    dist = _row_norms(z[cand[:, 0]] - z[cand[:, 1]])
    keep = (dist >= r_low) & (dist <= r_high)
    return cand[keep, 0], cand[keep, 1], dist[keep]


def _row_norms(diff):
    """Euclidean norm of each row, bit-identical to np.linalg.norm(row).

    norm(row) is sqrt(row @ row); norm(diff, axis=1) sums in another order
    and differs in the last bit on some rows, which the batched dot does not.
    """
    return np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())


def _maxflow_pairing(k, weights, ei, ej):
    """Exact maximum fractional pairing via the bipartite double cover.

    Vertices split into a left and a right copy; each admissible pair
    contributes both cross edges.  The max-flow value equals the maximal
    total pair mass, and edge flows recover the per-pair masses as the
    sum of the two cross flows.

    Float capacities break augmenting-path solvers (residuals drift off
    zero), but every float64 weight is a dyadic rational, so the weights are
    rescaled to exact integers first and the flow is computed over Z.
    Returns the exact pair masses as Python ints over a common denominator:
    (numerators per edge, denominator).
    """
    ratios = [w.as_integer_ratio() for w in weights.tolist()]
    scale = math.lcm(*(den for _, den in ratios))
    cap = np.array([num * (scale // den) for num, den in ratios], dtype=object)

    # Nodes: source 0, left copies 1..k, right copies k+1..2k, sink 2k+1.
    atoms = np.arange(k)
    left, right, sink = 1 + atoms, 1 + k + atoms, 2 * k + 1
    tails = np.concatenate((np.zeros(k, dtype=np.int64), right, left[ei], left[ej]))
    heads = np.concatenate((left, np.full(k, sink), right[ej], right[ei]))
    flow = _certified_max_flow(
        2 * k + 2, tails, heads, np.concatenate((cap, cap, cap[ei], cap[ej])), 0, sink
    )
    # A pair of mass m places flow m/2 on each of its two cover edges, so the
    # pair mass is the sum of the two cross flows, and the total flow value
    # equals the total paired mass.
    ne = len(ei)
    return flow[2 * k : 2 * k + ne] + flow[2 * k + ne :], scale


def _certified_max_flow(n_nodes, tails, heads, cap, source, sink):
    """Exact maximum flow for Python-int capacities, certified by a min cut.

    Edge e runs tails[e] -> heads[e] with capacity cap[e] (an object array
    of Python ints, possibly beyond 2^64); no two edges join the same pair
    of nodes in either direction.  Returns the exact edge flows.

    scipy's csgraph max-flow is exact on int32 capacities only (int64 input
    can return wrong flows), so the flow is found by capacity scaling.  Each
    phase floors the residual capacities to units of 2^s, solves that int32
    network, and adds its flow times 2^s to the exact flows.  The cut the
    source then reaches bounds the flow still missing; s is chosen so that
    bound is below 2^30 units, so no flow is lost to the int32 clamp, and
    drops until the cut's residual is zero.  The flows are returned only
    after they are checked to be feasible and the cut the source reaches in
    the exact residual network is checked to have capacity equal to the flow
    value, both in exact integer arithmetic.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    # Residual network: forward entries tail -> head, backward head -> tail.
    rows = np.concatenate((tails, heads))
    cols = np.concatenate((heads, tails))
    order = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(n_nodes + 1))
    indices = cols[order]
    flow = np.zeros(len(tails), dtype=object)

    def floored(s):
        units = np.concatenate((cap - flow, flow)) >> s
        return np.minimum(units, _INT32_MAX).astype(np.int32)

    def reached(s):
        live = floored(s) > 0
        g = csr_matrix((np.ones(int(live.sum())), (rows[live], cols[live])), (n_nodes, n_nodes))
        seen = np.zeros(n_nodes, dtype=bool)
        seen[breadth_first_order(g, source, return_predecessors=False)] = True
        return seen

    bound = sum(cap[tails == source].tolist())
    s = max(0, bound.bit_length() - _PHASE_BITS)
    while True:
        g = csr_matrix((floored(s)[order], indices, indptr), (n_nodes, n_nodes))
        step = np.asarray(maximum_flow(g, source, sink, method="dinic").flow[tails, heads])
        step = step.ravel().astype(object)
        flow = flow + (step << s)
        seen = reached(s)
        if seen[sink]:
            # Only a clamped capacity can leave a path; the next phase uses it.
            if not step.any():
                raise RuntimeError("max-flow phase made no progress")
            continue
        # The residual capacity of the reached cut bounds the flow still missing.
        out, back = seen[tails] & ~seen[heads], ~seen[tails] & seen[heads]
        bound = sum((cap[out] - flow[out]).tolist()) + sum(flow[back].tolist())
        if bound == 0:
            break
        s = max(0, min(s - 1, bound.bit_length() - _PHASE_BITS))

    seen = reached(0)
    net = np.zeros(n_nodes, dtype=object)
    np.add.at(net, heads, flow)
    np.subtract.at(net, tails, flow)
    value = -net[source]
    cut = sum(cap[seen[tails] & ~seen[heads]].tolist())
    interior = np.ones(n_nodes, dtype=bool)
    interior[[source, sink]] = False
    if (
        seen[sink]
        or cut != value
        or any(net[interior].tolist())
        or not np.all((flow >= 0) & (flow <= cap))
    ):
        raise RuntimeError("max-flow certificate failed: the flow is not a certified maximum")
    return flow


def _greedy_pairing(k, weights, ei, ej):
    """Maximal greedy pairing; reports an upper bound on the missed mass."""
    residual = np.asarray(weights, dtype=float).tolist()
    order = np.argsort(-np.minimum(weights[ei], weights[ej]), kind="stable")
    ei_l, ej_l = ei.tolist(), ej.tolist()
    out = [0.0] * len(ei_l)
    for e in order.tolist():
        i, j = ei_l[e], ej_l[e]
        m = 2.0 * min(residual[i], residual[j])
        if m > _PAIR_MASS_FLOOR:
            out[e] = m
            residual[i] -= m / 2.0
            residual[j] -= m / 2.0
    value = math.fsum(out)
    touched = np.zeros(k, dtype=bool)
    touched[ei] = touched[ej] = True
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
