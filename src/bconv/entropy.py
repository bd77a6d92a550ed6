"""Shannon entropy of discrete measures over partitions, in bits.

Two families of partitions are keyed here:

* anisotropic dyadic partitions: axis j is cut at depth floor(chi_j * n)
  where chi_j = -log2(lambda_j), so cells shrink like lambda^n up to a
  factor of two per axis;
* translated grids at a vector scale r: cell of x is floor(x / r + u) for
  an offset u in [0, 1)^d.

The average entropy of a measure at scale r is the integral over u of the
entropy of the offset-u grid partition.  For a finite atom set the integrand
is piecewise constant in u: on axis j it can only change where u_j crosses
1 - frac(x_j / r_j) for some atom x.  The exact quadrature enumerates the
product of these per-axis breakpoint intervals and sums entropy times cell
volume, so its only error is float rounding.  A quasi-random fallback
averages over a low-discrepancy offset set when the breakpoint product is
out of budget.

Entropy of a mass-c measure at a scale is defined as c times the entropy of
the normalized measure; this scaling convention applies to average entropy
only.  Partition entropy normalizes internally and always refers to the
probability measure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundaryHazardWarning, BudgetExceededError
from .measures import DiscreteMeasure
from .scales import ScaleVector, _as_scale, _nudged_floor, dyadic_levels

__all__ = [
    "QuadratureSpec",
    "EntropyReport",
    "Keying",
    "en",
    "en_join_projected",
    "grid",
    "trivial",
    "partition_entropy",
    "conditional_entropy",
    "avg_entropy",
    "avg_cond_entropy",
]

# Combined group codes must stay within int64.
_CODE_LIMIT = 2**62


@dataclass(frozen=True)
class QuadratureSpec:
    """How to average entropy over grid offsets.

    mode "exact" integrates the piecewise-constant integrand over its
    breakpoint cells; it refuses (rather than degrades) when the cell count
    would exceed cell_budget.  mode "qmc" averages over `offsets` points of a
    scrambled Sobol sequence seeded by `seed`.
    """

    mode: str = "exact"
    offsets: int = 4096
    seed: int = 0
    cell_budget: int = 10_000_000

    def __post_init__(self):
        if self.mode not in ("exact", "qmc"):
            raise ValueError("quadrature mode must be 'exact' or 'qmc'")
        if self.offsets < 1:
            raise ValueError("offset count must be positive")
        if self.cell_budget < 1:
            raise ValueError("cell budget must be positive")


@dataclass(frozen=True)
class EntropyReport:
    """An entropy value in bits together with how it was obtained."""

    value: float
    method: str
    offsets_used: int
    error_bound: float


# ---------------------------------------------------------------------------
# Keyings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DyadicColumn:
    axis: int  # 0-based
    level: int


@dataclass(frozen=True)
class _GridColumn:
    axis: int
    scale: float
    offset: float


@dataclass(frozen=True)
class Keying:
    """A finite-valued measurable key on R^d: point -> integer vector.

    Keyings are pure and hashable; joining two keyings concatenates their key
    columns, which realizes the common refinement of the two partitions.
    """

    dim: int
    columns: tuple[_DyadicColumn | _GridColumn, ...]

    def join(self, other: "Keying") -> "Keying":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Keying(self.dim, self.columns + other.columns)

    def key_matrix(self, points: np.ndarray) -> np.ndarray:
        """Integer key rows for an (n, d) point array."""
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError("points do not match keying dimension")
        n = points.shape[0]
        out = np.empty((n, len(self.columns)), dtype=np.int64)
        hazards = 0
        for c, col in enumerate(self.columns):
            if isinstance(col, _DyadicColumn):
                v = points[:, col.axis] * 2.0**col.level
            else:
                v = points[:, col.axis] / col.scale + col.offset
            keys, h = _floor_keys(v)
            out[:, c] = keys
            hazards += h
        if hazards:
            warnings.warn(
                f"{hazards} atom coordinate(s) within 2^-45 of a cell boundary; "
                "shifted by +2^-44 before flooring",
                BoundaryHazardWarning,
                stacklevel=2,
            )
        return out

    def key(self, x) -> tuple[int, ...]:
        """Key of a single point."""
        pt = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryHazardWarning)
            return tuple(int(v) for v in self.key_matrix(pt)[0])


def _floor_keys(v: np.ndarray) -> tuple[np.ndarray, int]:
    """Nudged floor (scales._nudged_floor) as int64 keys."""
    fl, hazards = _nudged_floor(v)
    if np.any(np.abs(fl) >= _CODE_LIMIT):
        raise ValueError("key magnitude exceeds the int64 range")
    return fl.astype(np.int64), hazards


def en(n: int, lam: "ScaleVector | Sequence[float]") -> Keying:
    """Keying of the anisotropic dyadic partition at level n."""
    lam = _as_scale(lam)
    levels = dyadic_levels(lam.entries, n)
    return Keying(len(lam), tuple(_DyadicColumn(j, k) for j, k in enumerate(levels)))


def en_join_projected(
    n: int,
    m: int,
    axes: Sequence[int],
    lam: "ScaleVector | Sequence[float]",
) -> Keying:
    """Level-n keying refined by the level-(n+m) keying of the listed axes.

    Axes are 1-based.  An empty axis list degenerates to the plain level-n
    keying, which is the d = 1 case of conditioning on all other axes.
    """
    lam = _as_scale(lam)
    base = en(n, lam)
    axes = tuple(int(a) for a in axes)
    if any(a < 1 or a > len(lam) for a in axes):
        raise ValueError("projection axis out of range")
    if list(axes) != sorted(set(axes)):
        raise ValueError("axes must be strictly increasing")
    fine_levels = dyadic_levels(lam.entries, n + m)
    cols = tuple(_DyadicColumn(a - 1, fine_levels[a - 1]) for a in axes)
    return Keying(len(lam), base.columns + cols)


def grid(
    r: "ScaleVector | Sequence[float] | float",
    offset: Sequence[float] | None = None,
    dim: int | None = None,
) -> Keying:
    """Keying of the scale-r grid translated by offset in [0, 1)^d."""
    r = _as_scale(r, dim)
    d = len(r)
    if offset is None:
        offset = (0.0,) * d
    off = tuple(float(u) for u in np.atleast_1d(offset))
    if len(off) != d:
        raise ValueError("offset dimension mismatch")
    if any(u < 0.0 or u >= 1.0 for u in off):
        raise ValueError("offset entries must lie in [0, 1)")
    return Keying(d, tuple(_GridColumn(j, r[j], off[j]) for j in range(d)))


def trivial(dim: int) -> Keying:
    """The one-cell keying (no columns): conditioning on it is a no-op."""
    return Keying(dim, ())


# ---------------------------------------------------------------------------
# Partition entropy
# ---------------------------------------------------------------------------


def _grouped_entropy(codes: np.ndarray, weights: np.ndarray, total: float) -> float:
    """Entropy in bits of weights grouped by identical code rows.

    Groups are visited in sorted code order, so the summation order is a
    function of the partition alone.
    """
    n, c = codes.shape
    if n == 0:
        raise ValueError("measure has no atoms")
    if c == 0 or n == 1:
        return 0.0
    order = np.lexsort(codes.T[::-1])
    sc = codes[order]
    sw = weights[order]
    boundary = np.any(sc[1:] != sc[:-1], axis=1)
    starts = np.concatenate(([0], np.nonzero(boundary)[0] + 1))
    g = np.add.reduceat(sw, starts)
    p = g / total
    return float(-np.dot(p, np.log2(p)))


def partition_entropy(mu: DiscreteMeasure, keying: Keying) -> float:
    """H(mu, P) in bits for the partition induced by the keying.

    The measure is normalized internally; zero mass is an error.
    """
    if mu.mass <= 0.0:
        raise ValueError("measure must have positive mass")
    codes = keying.key_matrix(mu.points)
    return _grouped_entropy(codes, mu.weights, mu.mass)


def conditional_entropy(mu: DiscreteMeasure, fine: Keying, coarse: Keying) -> float:
    """H(mu, fine | coarse) = H(fine join coarse) - H(coarse), in bits.

    Both terms are computed by the same grouped summation, so the difference
    is stable against reordering.
    """
    joined = fine.join(coarse)
    return partition_entropy(mu, joined) - partition_entropy(mu, coarse)


# ---------------------------------------------------------------------------
# Average (offset-integrated) entropy
# ---------------------------------------------------------------------------


def _axis_tables(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoint table for one axis of scaled coordinates y = x / r.

    Returns (keys, lengths): keys[i, k] is the integer key of atom i on the
    k-th offset interval, lengths[k] its length.  Interval k starts at the
    k-th breakpoint; the key of atom i jumps from floor(y_i) to floor(y_i)+1
    exactly when the offset reaches 1 - frac(y_i).
    """
    base = np.floor(y)
    if np.any(np.abs(base) >= _CODE_LIMIT):
        raise ValueError("key magnitude exceeds the int64 range")
    thr = 1.0 - (y - base)  # in (0, 1]; a threshold of 1 never fires
    edges = np.unique(thr[thr < 1.0])
    edges = np.concatenate(([0.0], edges))
    lengths = np.diff(np.append(edges, 1.0))
    keys = base[:, None].astype(np.int64) + (edges[None, :] >= thr[:, None]).astype(np.int64)
    return keys, lengths


def _cell_entropies(codes: np.ndarray, weights: np.ndarray, total: float) -> np.ndarray:
    """Entropies of many grouped-weight configurations at once.

    codes has one row per cell and one column per atom; row r is grouped by
    equal values and its entropy returned in bits.
    """
    m, n = codes.shape
    order = np.argsort(codes, axis=1, kind="stable")
    sc = np.take_along_axis(codes, order, axis=1)
    sw = weights[order]
    cw = np.cumsum(sw, axis=1)
    ends = np.ones(sc.shape, dtype=bool)
    ends[:, :-1] = sc[:, 1:] != sc[:, :-1]
    rows, cols = np.nonzero(ends)  # row-major order
    cw_ends = cw[rows, cols]
    prev = np.concatenate(([0.0], cw_ends[:-1]))
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    prev[first] = 0.0
    g = np.maximum(cw_ends - prev, 1e-300)
    contrib = g * np.log2(g / total)
    return -np.bincount(rows, weights=contrib, minlength=m) / total


def _avg_entropy_exact(
    points: np.ndarray, weights: np.ndarray, r: np.ndarray, cell_budget: int
) -> tuple[float, int]:
    n, d = points.shape
    if d == 0 or n == 1:
        return 0.0, 1
    tables = [_axis_tables(points[:, j] / r[j]) for j in range(d)]
    m = [t[0].shape[1] for t in tables]
    n_cells = math.prod(m)
    if n_cells > cell_budget:
        raise BudgetExceededError(
            f"exact offset quadrature needs {n_cells} cells, budget is {cell_budget}"
        )
    total = float(weights.sum())

    mins = [int(k.min()) for k, _ in tables]
    ranges = [int(k.max()) - mn + 1 for (k, _), mn in zip(tables, mins)]
    strides = [1] * d
    for j in range(1, d):
        strides[j] = strides[j - 1] * ranges[j - 1]
    if math.prod(ranges) >= _CODE_LIMIT:
        raise ValueError("combined key range exceeds the int64 range")

    chunk = max(1, (1 << 21) // max(1, n))
    parts = []
    for start in range(0, n_cells, chunk):
        idx = np.arange(start, min(start + chunk, n_cells))
        multi = np.unravel_index(idx, m)
        codes = np.zeros((n, len(idx)), dtype=np.int64)
        vol = np.ones(len(idx))
        for j in range(d):
            keys, lengths = tables[j]
            codes += (keys[:, multi[j]] - mins[j]) * strides[j]
            vol *= lengths[multi[j]]
        h = _cell_entropies(codes.T.copy(), weights, total)
        parts.append(float(np.dot(vol, h)))
    return math.fsum(parts), n_cells


def _sobol_offsets(d: int, count: int, seed: int) -> np.ndarray:
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=d, scramble=True, seed=seed)
    return sampler.random(count)


def _avg_entropy_qmc(
    points: np.ndarray, weights: np.ndarray, r: np.ndarray, offsets: np.ndarray
) -> tuple[float, float]:
    n, d = points.shape
    if d == 0 or n == 1:
        return 0.0, 0.0
    total = float(weights.sum())
    y = points / r
    q = offsets.shape[0]
    values = np.empty(q)
    chunk = max(1, (1 << 21) // max(1, n))
    for start in range(0, q, chunk):
        off = offsets[start : start + chunk]
        keys = np.floor(y[None, :, :] + off[:, None, :]).astype(np.int64)  # (qc, n, d)
        mins = keys.min(axis=(0, 1))
        ranges = [int(v) for v in keys.max(axis=(0, 1)) - mins + 1]
        if math.prod(ranges) >= _CODE_LIMIT:
            raise ValueError("combined key range exceeds the int64 range")
        codes = np.zeros(keys.shape[:2], dtype=np.int64)
        stride = 1
        for j in range(d):
            codes += (keys[:, :, j] - mins[j]) * stride
            stride *= ranges[j]
        values[start : start + off.shape[0]] = _cell_entropies(codes, weights, total)
    value = float(values.mean())
    blocks = np.array_split(values, min(8, q))
    bm = np.array([b.mean() for b in blocks])
    err = float(bm.std(ddof=1) / math.sqrt(len(bm))) if len(bm) > 1 else float("nan")
    return value, err


def avg_entropy(
    mu: DiscreteMeasure,
    r: "ScaleVector | Sequence[float] | float",
    quad: QuadratureSpec | None = None,
    _offsets: np.ndarray | None = None,
) -> EntropyReport:
    """Average entropy of mu at vector scale r, in bits.

    For a measure of mass c != 1 this is c times the average entropy of the
    normalized measure; a zero-mass measure contributes zero.
    """
    quad = quad or QuadratureSpec()
    rv = _as_scale(r, mu.dim).as_array()
    if len(rv) != mu.dim:
        raise ValueError("scale dimension mismatch")
    c = mu.mass
    if c == 0.0:
        return EntropyReport(0.0, quad.mode, 0, 0.0)
    # The integrators normalize by the measure's own mass internally, so they
    # return the entropy of the normalized measure; scale it back by c.
    if quad.mode == "exact":
        raw, cells = _avg_entropy_exact(mu.points, mu.weights, rv, quad.cell_budget)
        return EntropyReport(max(c * raw, 0.0), "exact", cells, 1e-10)
    offs = _offsets if _offsets is not None else _sobol_offsets(mu.dim, quad.offsets, quad.seed)
    raw, err = _avg_entropy_qmc(mu.points, mu.weights, rv, offs)
    return EntropyReport(max(c * raw, 0.0), "qmc", offs.shape[0], c * err)


def avg_cond_entropy(
    mu: DiscreteMeasure,
    r: "ScaleVector | Sequence[float] | float",
    r_coarse: "ScaleVector | Sequence[float] | float",
    quad: QuadratureSpec | None = None,
) -> EntropyReport:
    """Average conditional entropy H(mu; r | r') = H(mu; r) - H(mu; r').

    In qmc mode both scales are evaluated with the same offset draw so the
    difference does not pick up independent sampling noise.
    """
    quad = quad or QuadratureSpec()
    if quad.mode == "qmc":
        offs = _sobol_offsets(mu.dim, quad.offsets, quad.seed)
        fine = avg_entropy(mu, r, quad, _offsets=offs)
        coarse = avg_entropy(mu, r_coarse, quad, _offsets=offs)
    else:
        fine = avg_entropy(mu, r, quad)
        coarse = avg_entropy(mu, r_coarse, quad)
    err = fine.error_bound + coarse.error_bound
    return EntropyReport(fine.value - coarse.value, fine.method, fine.offsets_used, err)
