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

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entropy as ent
from .errors import _DEFAULT_BUDGET, BudgetExceededError
from .measures import DiscreteMeasure, bernoulli_power, convolve
from .scales import ScaleVector, s_sequence, validate_contraction_vector

__all__ = [
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


@dataclass(frozen=True, eq=False)  # arrays: compare and hash by identity, as theta does
class Decomposition:
    """nu = theta + sum_i (mass_i/2)(delta_x_i + delta_y_i), one read-only
    array entry per pair i, in admissible-edge order."""

    theta: DiscreteMeasure
    pairs: np.ndarray  # (m, 2, d): endpoints x_i = pairs[i, 0], y_i = pairs[i, 1]
    mass: np.ndarray
    rescaled_distance: np.ndarray  # |s_{n+2N}^{-1} (x - y)|
    statement_distance: np.ndarray  # |s_n^{-1} (x - y)|
    in_statement_window: np.ndarray  # bool: eps <= statement_distance <= 1/eps
    paired_mass: float
    original_mass: float
    window_low: float
    window_high: float
    method: str  # "max-flow" or "greedy"
    optimality_gap: float  # 0 for the exact method


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
    with np.errstate(all="ignore"):  # refused below if not finite
        r_high = 2.0 * float(np.linalg.norm(lam_arr ** (-3.0 * big_n)))
        z = nu.points / s_pair
    r_low = 1.0 / 6.0
    if not (math.isfinite(r_high * r_high) and np.isfinite(z).all()):
        raise ValueError(f"window 2|lambda^(-3N)|, its square or rescaled atoms leave float64 at n = {n}, N = {big_n}")

    k = nu.n_atoms
    ei, ej, dist = _admissible_pairs(z, r_low, r_high)
    weights = nu.weights
    method = "max-flow"
    if len(ei) == 0:  # nothing to pair: no solver, no scipy import
        pair_mass = np.zeros(0)
    elif k <= _GREEDY_THRESHOLD:
        pair_mass = _maxflow_pairing(k, weights, ei, ej)
    else:
        pair_mass, method = _greedy_pairing(weights, ei, ej), "greedy"

    touched = np.zeros(k, dtype=bool)
    touched[ei] = touched[ej] = True
    sel = pair_mass > _PAIR_MASS_FLOOR
    ei, ej, dist, pair_mass = ei[sel], ej[sel], dist[sel], pair_mass[sel]
    stmt = _row_norms((nu.points[ei] - nu.points[ej]) / s_stmt)
    used = np.zeros(k)
    # Interleaved i, j order: each atom accumulates its halves in edge order.
    np.add.at(used, np.column_stack((ei, ej)).ravel(), np.repeat(pair_mass / 2.0, 2))
    theta = DiscreteMeasure(nu.points, np.maximum(weights - used, 0.0))
    paired = math.fsum(pair_mass.tolist())
    # Greedy's bound: every atom some edge touches could at best pair off whole.
    gap = max(0.0, float(np.sum(weights[touched])) - paired) if method == "greedy" else 0.0
    columns = (
        np.stack((nu.points[ei], nu.points[ej]), axis=1),
        pair_mass,
        dist,
        stmt,
        (eps <= stmt) & (stmt <= 1.0 / eps),
    )
    for col in columns:
        col.setflags(write=False)
    return Decomposition(theta, *columns, paired, nu.mass, r_low, r_high, method, gap)


def _admissible_pairs(z, r_low, r_high):
    """Row pairs i < j at Euclidean distance in [r_low, r_high], in sorted order,
    with _row_norms distances: the one neighbour search.  Grid cells (Bentley,
    Stanat and Williams 1977) are the dense ranks of floor(z_j / side), side
    doubling from r_high while the packed code would reach 2^62; a pair is found
    from its one cell step lexicographically >= 0, later rows only in its own cell.
    Refuses, before building them, more candidate pairs than the default budget.
    """
    n, d = z.shape
    side, radix = r_high / 2, [math.inf]
    while math.prod(radix) >= 2**62:
        side *= 2
        ranks = [np.unique(np.floor(col / side), return_inverse=True)[1] + 1 for col in z.T]
        radix = [int(r.max(initial=0)) + 2 for r in ranks]  # ranks 1..m: steps of +-1 never carry
    code = np.ravel_multi_index(ranks, radix)
    order = np.argsort(code)
    code, cols = code[order], z[order].T.copy()
    # Steps ending in 0, in product()'s lexicographic order; runs t-1..t+1 cover the last axis.
    steps = np.array(list(itertools.product(*[(-1, 0, 1)] * (d - 1), (0,))))
    target = code + (steps @ [math.prod(radix[j + 1 :]) for j in range(d)])[len(steps) // 2 :, None]
    lo, hi = np.searchsorted(code, target - 1, "left"), np.searchsorted(code, target + 1, "right")
    lo[0] = np.arange(1, n + 1)
    count = (hi - lo).T.ravel()  # candidates: rows p against runs q, in code order
    total = int(count.sum())
    if total > _DEFAULT_BUDGET:
        raise BudgetExceededError(f"the pair window has {total} candidate pairs, budget is {_DEFAULT_BUDGET}")
    p = np.repeat(np.arange(n), (hi - lo).sum(0))
    q = np.arange(total) - np.repeat(np.cumsum(count) - count - lo.T.ravel(), count)
    with np.errstate(over="ignore"):  # an overflowing square exceeds any finite window
        near = sum((c[p] - c[q]) ** 2 for c in cols) <= (r_high * (1 + 1e-12)) ** 2
    a, b = order[p[near]], order[q[near]]
    ei, ej = np.divmod(np.sort(np.minimum(a, b) * n + np.maximum(a, b)), n)
    dist = _row_norms(z[ei] - z[ej])
    keep = (dist >= r_low) & (dist <= r_high)
    return ei[keep], ej[keep], dist[keep]


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
    Returns each edge's pair mass as a float, correctly rounded from the
    exact integer flow.
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
    num = flow[2 * k : 2 * k + ne] + flow[2 * k + ne :]
    # int / int rounds correctly, however large the integers.
    return np.array([f / scale for f in num.tolist()])


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


def _greedy_pairing(weights, ei, ej):
    """Maximal greedy pairing: edges by decreasing smaller endpoint weight,
    each taking all the mass both endpoints still have; one mass per edge."""
    residual = weights.tolist()
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
    return np.array(out)


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
    atoms = mu.n_atoms * nu.n_atoms
    if atoms > _DEFAULT_BUDGET:
        raise BudgetExceededError(f"mu * nu has {atoms} atoms before merging, budget is {_DEFAULT_BUDGET}")
    quad = quad or ent.QuadratureSpec()
    r_fine = lam ** float(t2)
    r_coarse = lam ** float(t1)
    beta = ent.avg_cond_entropy(nu, r_fine, r_coarse, quad).value / (t2 - t1)
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
    shifts = [math.floor(math.log2(k) / (2.0 * c)) if k > 1 else 0 for c in chi]
    values = ent._saturation_defects(zk, lam, [(j, level - a, m) for j, a in enumerate(shifts, 1)])
    rows = [TubeRow(j, a, v, c) for j, (a, v, c) in enumerate(zip(shifts, values, chi), 1)]
    top = max(rows, key=lambda r: r.value - r.chi)
    return TubeReport(k, m, level, tuple(rows), top.axis)
