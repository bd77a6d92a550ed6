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

Every cell decision is a floor of a scaled coordinate, and it is refused
once that coordinate reaches 2^52 in magnitude: from there on doubles are
integers, so the key would say nothing about the cell.

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
from .scales import ScaleVector, _as_scale, dyadic_levels

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

# Scaled coordinates at or beyond 2^52 carry no fractional bits to key by.
_KEY_LIMIT = 2.0**52
# Combined group codes must stay within int64.
_CODE_LIMIT = 2**62
# Values closer than this to a cell boundary (in key units) get nudged.
_HAZARD_TOL = 2.0**-45
_HAZARD_SHIFT = 2.0**-44


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
class _Column:
    """One key column: the cell of x is floor(x[axis] / scale + offset)."""

    axis: int  # 0-based
    scale: float
    offset: float = 0.0


@dataclass(frozen=True)
class Keying:
    """A finite-valued measurable key on R^d: point -> integer vector.

    Keyings are pure and hashable; joining two keyings concatenates their key
    columns, which realizes the common refinement of the two partitions.
    """

    dim: int
    columns: tuple[_Column, ...]

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
            out[:, c], h = _floor_keys(points[:, col.axis] / col.scale + col.offset)
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


def _floor(v: np.ndarray) -> np.ndarray:
    """floor(v), refused unless every |v| < 2^52.

    From 2^52 on every double is an integer, so a scaled coordinate there no
    longer tells which cell it lies in; the keys would be noise.
    """
    if not np.all(np.abs(v) < _KEY_LIMIT):
        raise ValueError(
            "scaled coordinates must be finite and below 2^52 in magnitude; "
            "cell keys would lose precision"
        )
    return np.floor(v)


def _floor_keys(v: np.ndarray) -> tuple[np.ndarray, int]:
    """Floor as int64 keys, with a deterministic boundary nudge.

    Values within 2^-45 of an integer are shifted by +2^-44 before flooring,
    so a point that roundoff left just below a cell edge lands in the cell
    it would occupy in exact arithmetic.  Returns the keys and the number of
    nudged values.
    """
    fl = _floor(v)
    frac = v - fl
    near = (frac < _HAZARD_TOL) | (frac > 1.0 - _HAZARD_TOL)
    hazards = int(np.count_nonzero(near))
    if hazards:
        v = v.copy()
        v[near] += _HAZARD_SHIFT
        fl = np.floor(v)
    return fl.astype(np.int64), hazards


def en(n: int, lam: "ScaleVector | Sequence[float]") -> Keying:
    """Keying of the anisotropic dyadic partition at level n."""
    lam = _as_scale(lam)
    levels = dyadic_levels(lam.entries, n)
    return Keying(len(lam), tuple(_Column(j, 2.0**-k) for j, k in enumerate(levels)))


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
    cols = tuple(_Column(a - 1, 2.0 ** -fine_levels[a - 1]) for a in axes)
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
    return Keying(d, tuple(_Column(j, r[j], off[j]) for j in range(d)))


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
    if mu.mass <= 0.0:
        raise ValueError("measure must have positive mass")
    # The joined key's trailing columns are the coarse key: key each atom once.
    codes = fine.join(coarse).key_matrix(mu.points)
    w, c = mu.weights, mu.mass
    return _grouped_entropy(codes, w, c) - _grouped_entropy(codes[:, len(fine.columns) :], w, c)


# ---------------------------------------------------------------------------
# Average (offset-integrated) entropy
# ---------------------------------------------------------------------------


def _breakpoints(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offset cell rule for scaled coordinates y = x / r.

    Returns (base, thr) with base = floor(y) and thr = 1 - frac(y) in (0, 1]:
    under an offset u in [0, 1) the cell of y is base + (u >= thr), so the
    key of an atom jumps exactly when u reaches its threshold, and a
    threshold of 1 never fires.
    """
    base = _floor(y)
    return base, 1.0 - (y - base)


def _rows_per_chunk(n: int) -> int:
    """Offset rows per batch, so a batch holds about 2^21 atom keys."""
    return max(1, (1 << 21) // max(1, n))


def _offset_entropies(
    base: np.ndarray, thr: np.ndarray, weights: np.ndarray, total: float, offsets: np.ndarray
) -> np.ndarray:
    """Entropy in bits of the grid partition at each offset row u of offsets.

    Atom i lies in cell base[i] + (u >= thr[i]).  Cells are packed into one
    int64 code per atom, mixed-radix with axis 0 fastest; the radices come
    once from the range of base, which the +1 step can exceed by one.
    """
    lo = base.min(axis=0)
    ranges = [int(v) for v in base.max(axis=0) - lo + 2]
    if math.prod(ranges) >= _CODE_LIMIT:
        raise ValueError("combined key range exceeds the int64 range")
    strides = np.cumprod([1] + ranges[:-1])
    base_codes = (base - lo).astype(np.int64) @ strides
    n = base.shape[0]
    q = offsets.shape[0]
    values = np.empty(q)
    chunk = _rows_per_chunk(n)
    for start in range(0, q, chunk):
        off = offsets[start : start + chunk]
        codes = np.empty((off.shape[0], n), dtype=np.int64)
        codes[:] = base_codes
        for j, stride in enumerate(strides):
            codes += (off[:, j, None] >= thr[:, j]) * stride
        values[start : start + off.shape[0]] = _cell_entropies(codes, weights, total)
    return values


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
    base, thr = _breakpoints(points / r)
    # Axis j's offset intervals start at 0 and at every threshold below 1.
    edges = [np.concatenate(([0.0], np.unique(t[t < 1.0]))) for t in thr.T]
    lengths = [np.diff(np.append(e, 1.0)) for e in edges]
    m = [len(e) for e in edges]
    n_cells = math.prod(m)
    if n_cells > cell_budget:
        raise BudgetExceededError(
            f"exact offset quadrature needs {n_cells} cells, budget is {cell_budget}"
        )
    total = float(weights.sum())

    # The integrand is constant on each breakpoint cell, so its left corner
    # stands for the whole cell.
    chunk = _rows_per_chunk(n)
    parts = []
    for start in range(0, n_cells, chunk):
        multi = np.unravel_index(np.arange(start, min(start + chunk, n_cells)), m)
        corners = np.column_stack([e[k] for e, k in zip(edges, multi)])
        vol = np.ones(len(corners))
        for ln, k in zip(lengths, multi):
            vol *= ln[k]
        h = _offset_entropies(base, thr, weights, total, corners)
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
    base, thr = _breakpoints(points / r)
    values = _offset_entropies(base, thr, weights, float(weights.sum()), offsets)
    value = float(values.mean())
    q = offsets.shape[0]
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
