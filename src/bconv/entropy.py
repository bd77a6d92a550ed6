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
1 - frac(x_j / r_j) for some atom x.  The exact quadrature takes the left
corner of each product of breakpoint intervals of the outer axes
u_1..u_{d-1} and sweeps the last axis: by linearity the integral is
-(1/T) sum over cells c of the integral of g_c log2(g_c / T), with g_c the
mass of cell c and T the total mass.  Along u_d a cell's mass changes only
where one of its atoms enters or leaves, so sorting each row's 2n
enter/leave thresholds by cell gives every piece at once.
Its only error is float rounding.  A quasi-random fallback averages over a
low-discrepancy offset set, bconv's own scrambled Sobol points, when the
breakpoint product is out of budget.

Every cell decision is a floor of a scaled coordinate, and it is refused
once that coordinate reaches 2^52 in magnitude: from there on doubles are
integers, so the key would say nothing about the cell.

Entropy of a mass-c measure at a scale is defined as c times the entropy of
the normalized measure; this scaling convention applies to average entropy
only.  Partition entropy normalizes internally and always refers to the
probability measure.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import _DEFAULT_BUDGET, BoundaryHazardWarning, BudgetExceededError, _warn_at_caller
from .measures import DiscreteMeasure
from .scales import ScaleVector, _as_scale, dyadic_levels

__all__ = [
    "QuadratureSpec",
    "EntropyReport",
    "Keying",
    "en",
    "en_join_projected",
    "grid",
    "partition_entropy",
    "conditional_entropy",
    "saturation_defect",
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
# The QMC kernel numbers every atom's 2^d candidate cells, about 54 bytes each
# at peak; past 2^21 of them it would outgrow the sort kernel's 2^21-key batch
# (about 150 MB), so it sorts instead.
_CANDIDATE_LIMIT = 1 << 21

# Sobol' sequence for QMC offsets: Joe & Kuo's primitive polynomials and
# initial direction numbers (new-joe-kuo-6.21201) for axes 2..32, as in
# scipy's qmc.Sobol table; axis 1 needs none.  Points have 30 bits.
_SOBOL_BITS = 30
_SOBOL_POLY = (
    3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103,
    109, 115, 131, 137, 143, 145, 157, 167, 171, 185, 191, 193, 203, 211, 213,
)
_SOBOL_VINIT = (
    (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63), (1, 3, 5, 9, 1, 25, 53),
    (1, 3, 1, 13, 9, 35, 107), (1, 3, 1, 5, 27, 61, 31), (1, 1, 5, 11, 19, 41, 61),
    (1, 3, 5, 3, 3, 13, 69), (1, 1, 7, 13, 1, 19, 1), (1, 3, 7, 5, 13, 19, 59),
    (1, 1, 3, 9, 25, 29, 41), (1, 3, 5, 13, 23, 1, 55), (1, 3, 7, 3, 13, 59, 17),
)
_SOBOL_MAX_DIM = 1 + len(_SOBOL_POLY)


@dataclass(frozen=True)
class QuadratureSpec:
    """How to average entropy over grid offsets.

    mode "exact" integrates the piecewise-constant integrand over its
    breakpoint cells; it refuses (rather than degrades) when the cell count
    would exceed cell_budget.  mode "qmc" averages over the first `offsets`
    points of bconv's own scrambled Sobol sequence seeded by `seed`
    (bit-identical to scipy's ``qmc.Sobol(d, scramble=True, seed=seed)``),
    in dimension d <= 32.  Its error bound compares block means, so at least
    two offsets are required; a power of two keeps Sobol's balance.
    """

    mode: str = "exact"
    offsets: int = 4096
    seed: int = 0
    cell_budget: int = 10_000_000

    def __post_init__(self):
        if self.mode not in ("exact", "qmc"):
            raise ValueError("quadrature mode must be 'exact' or 'qmc'")
        if self.offsets < 2:
            raise ValueError("at least two offsets are required: the QMC block error estimate needs two")
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

    def keys(self, points: np.ndarray) -> tuple[np.ndarray, int]:
        """int64 cell keys of the (n, d) points and the number of nudged ones."""
        return _floor_keys(points[:, self.axis] / self.scale + self.offset)


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

    def _check(self, points: np.ndarray) -> None:
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError("points do not match keying dimension")

    def key_matrix(self, points: np.ndarray) -> np.ndarray:
        """Integer key rows for an (n, d) point array."""
        self._check(points)
        out = np.empty((points.shape[0], len(self.columns)), dtype=np.int64)
        hazards = 0
        for c, col in enumerate(self.columns):
            out[:, c], h = col.keys(points)
            hazards += h
        _warn_hazards(hazards)
        return out

    def key(self, x) -> tuple[int, ...]:
        """Key of a single point."""
        pt = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryHazardWarning)
            return tuple(int(v) for v in self.key_matrix(pt)[0])


def _warn_hazards(count: int) -> None:
    if count:
        _warn_at_caller(
            f"{count} atom coordinate(s) within 2^-45 of a cell boundary; "
            "shifted by +2^-44 before flooring",
            BoundaryHazardWarning,
        )


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


# ---------------------------------------------------------------------------
# Partition entropy
# ---------------------------------------------------------------------------


def _column_keys(points: np.ndarray, keying: Keying) -> dict[_Column, np.ndarray]:
    """The cell keys of each distinct column of the keying, as offsets
    from the column's minimum, with one boundary-hazard warning that counts
    every nudged coordinate once.

    Columns are keyed one at a time and kept as int32 when their range
    fits.  Keying all 17 columns of a 134k-atom profile into one int64
    matrix raised the process's peak memory by about 12 MB; this way it
    does not move.
    """
    keying._check(points)
    out, hazards = {}, 0
    for col in dict.fromkeys(keying.columns):
        k, h = col.keys(points)
        hazards += h
        k -= k.min()
        out[col] = k.astype(np.int32) if k.max() <= np.iinfo(np.int32).max else k
    _warn_hazards(hazards)
    return out


def _packed_code(columns: Sequence[np.ndarray]) -> np.ndarray | None:
    """One int64 code per row, ordered as the rows of the integer columns
    are ordered lexicographically, first column most significant; None when
    there are no columns.  It is the one grouping of equal integer rows: the
    partition entropies group cell keys by it, and algebraic._word_states
    and exact_overlap_depth group exact word states by it.

    The code is mixed-radix: each column enters as its offset from its
    minimum, with radix its range.  Once the product of the radices would
    reach _CODE_LIMIT the running code is replaced by its rank among its
    distinct values (and the column by its rank too, if that is still not
    enough), which keeps the order and every tie.  A column that repeats an
    earlier one could not change the order; the partition entropies drop
    such columns.  Columns must lie in (-2^62, 2^62): cell keys are below
    2^52 and word-state entries below algebraic._STATE_LIMIT = 2^62.
    """
    code, size = None, 1
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if code is None:
            code, size = np.subtract(col, lo, dtype=np.int64), span
            continue
        if size * span >= _CODE_LIMIT:
            uniq, code = np.unique(code, return_inverse=True)
            size = len(uniq)
        if size * span >= _CODE_LIMIT:
            uniq, col = np.unique(col, return_inverse=True)
            lo, span = 0, len(uniq)
        # code * span < 2^62 - span and |col| < 2^62, so code * span + col
        # lies in (-2^62, 2^63 - span) and no step leaves int64.
        code *= span
        code += col
        if lo:
            code -= lo
        size *= span
    return code


def _grouped_entropy(code: np.ndarray | None, weights: np.ndarray, total: float) -> float:
    """Entropy in bits of weights grouped by equal packed codes (_packed_code).

    One stable argsort of the code gives the permutation a lexicographic
    sort of the key rows gives, so groups are visited in sorted key order
    and the summation order is a function of the partition alone.  A code
    of None is the one-cell partition.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("measure has no atoms")
    if code is None or n == 1:
        return 0.0
    order = np.argsort(code, kind="stable")
    sc = code[order]
    starts = np.concatenate(([0], np.flatnonzero(sc[1:] != sc[:-1]) + 1))
    g = np.add.reduceat(weights[order], starts)
    p = g / total
    return float(-np.dot(p, np.log2(p)))


def _cells_entropy(
    keys: dict[_Column, np.ndarray], columns: Sequence[_Column], mu: DiscreteMeasure
) -> float:
    """H(mu) over the cells of the listed columns, read from _column_keys."""
    code = _packed_code([keys[c] for c in dict.fromkeys(columns)])
    return _grouped_entropy(code, mu.weights, mu.mass)


def partition_entropy(mu: DiscreteMeasure, keying: Keying) -> float:
    """H(mu, P) in bits for the partition induced by the keying.

    The measure is normalized internally; zero mass is an error.
    """
    if mu.mass <= 0.0:
        raise ValueError("measure must have positive mass")
    return _cells_entropy(_column_keys(mu.points, keying), keying.columns, mu)


def conditional_entropy(mu: DiscreteMeasure, fine: Keying, coarse: Keying) -> float:
    """H(mu, fine | coarse) = H(fine join coarse) - H(coarse), in bits.

    Both terms are computed by the same grouped summation, so the difference
    is stable against reordering.
    """
    if mu.mass <= 0.0:
        raise ValueError("measure must have positive mass")
    joined = fine.join(coarse)
    keys = _column_keys(mu.points, joined)
    return _cells_entropy(keys, joined.columns, mu) - _cells_entropy(keys, coarse.columns, mu)


def _saturation_defects(
    mu: DiscreteMeasure, lam: "ScaleVector | Sequence[float]", rows: Sequence[tuple[int, int, int]]
) -> list[float]:
    """saturation_defect(mu, lam, j, n, m) for each (j, n, m) of rows.

    The distinct columns of all the rows are keyed once, by one
    _column_keys call, so a boundary hazard draws one warning that counts
    each nudged coordinate once; each defect then packs its own columns.
    A non-saturation profile or a tube report is one call.
    """
    lam = _as_scale(lam)
    d = len(lam)
    terms = []
    for j, n, m in rows:
        if not 1 <= j <= d:
            raise ValueError("axis j out of range")
        coarse = en_join_projected(n, m, [a for a in range(1, d + 1) if a != j], lam)
        terms.append((en(n + m, lam).join(coarse).columns, coarse.columns, m))
    if not terms:
        return []
    if mu.mass <= 0.0:
        raise ValueError("measure must have positive mass")
    keys = _column_keys(mu.points, Keying(d, tuple(c for joined, _, _ in terms for c in joined)))
    return [
        (_cells_entropy(keys, joined, mu) - _cells_entropy(keys, coarse, mu)) / m
        for joined, coarse, m in terms
    ]


def saturation_defect(
    mu: DiscreteMeasure, lam: "ScaleVector | Sequence[float]", j: int, n: int, m: int
) -> float:
    """(1/m) H(mu, E_{n+m} | E_n join level-(n+m) cells of every axis but j).

    The fresh entropy the level-(n+m) cells add along axis j (1-based) once
    level n and the finer cells of the other axes are known, per level.
    """
    return _saturation_defects(mu, lam, [(j, n, m)])[0]


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


def _rows_per_chunk(n: int, keys: int = 1 << 21) -> int:
    """Offset rows of n keys each per batch, so a batch holds about `keys` keys."""
    return max(1, keys // max(1, n))


def _cell_codes(base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack base cells into one int64 code per atom: (codes, strides).

    Mixed-radix with axis 0 fastest.  The radices come once from the range
    of base, which an offset's +1 step can exceed by one, so codes plus
    step @ strides is the code of the stepped cell for every 0/1 step.
    """
    lo = base.min(axis=0)
    ranges = [int(v) for v in base.max(axis=0) - lo + 2]
    if math.prod(ranges) >= _CODE_LIMIT:
        raise ValueError("combined key range exceeds the int64 range")
    strides = np.cumprod([1] + ranges[:-1])
    return (base - lo).astype(np.int64) @ strides, strides


def _offset_entropies(
    base: np.ndarray, thr: np.ndarray, weights: np.ndarray, total: float, offsets: np.ndarray
) -> np.ndarray:
    """Entropy in bits of the grid partition at each offset row u of offsets.

    Atom i lies in cell base[i] + step with step_j = (u_j >= thr[i, j]), one
    of its 2^d candidate cells.  The candidates of all atoms are numbered
    once, in sorted code order, and lut[i, mask] is the number of atom i's
    cell under the step whose bit j is step_j.  Each row's cell masses are
    then one bincount, with no sort, and are summed in sorted code order.
    Past _CANDIDATE_LIMIT candidates each row is sorted instead.
    """
    n, d = base.shape
    if n << d > _CANDIDATE_LIMIT:
        return _sorted_offset_entropies(base, thr, weights, total, offsets)
    base_codes, strides = _cell_codes(base)
    steps = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
    cells, lut = np.unique(base_codes[:, None] + steps @ strides, return_inverse=True)
    lut = lut.ravel()
    u = len(cells)
    q = offsets.shape[0]
    values = np.empty(q)
    # Small batches stay in cache: at 2^21 keys this kernel ran 1.5-1.8x slower.
    chunk = _rows_per_chunk(max(n, u), 1 << 16)
    w = np.tile(weights, min(chunk, q))
    first = np.arange(n) << d  # where atom i's row starts in the flat lut
    for start in range(0, q, chunk):
        off = offsets[start : start + chunk]
        k = off.shape[0]
        mask = first + (off[:, 0, None] >= thr[:, 0])
        for j in range(1, d):
            mask += (off[:, j, None] >= thr[:, j]) << j
        cell = lut[mask]
        cell += (np.arange(k) * u)[:, None]
        g = np.bincount(cell.ravel(), weights=w[: k * n], minlength=k * u)
        full = g > 0.0
        rows = np.flatnonzero(full) // u
        contrib = _g_log_g(g[full], total)
        values[start : start + k] = -np.bincount(rows, weights=contrib, minlength=k) / total
    return values


def _sorted_offset_entropies(
    base: np.ndarray, thr: np.ndarray, weights: np.ndarray, total: float, offsets: np.ndarray
) -> np.ndarray:
    """_offset_entropies by sorting each row's cell codes: memory is linear
    in the batch, whatever n 2^d is, and the test suite's oracle for the
    candidate-cell kernel."""
    base_codes, strides = _cell_codes(base)
    n = base.shape[0]
    q = offsets.shape[0]
    values = np.empty(q)
    chunk = _rows_per_chunk(n)
    for start in range(0, q, chunk):
        off = offsets[start : start + chunk]
        k = off.shape[0]
        codes = np.empty((k, n), dtype=np.int64)
        codes[:] = base_codes
        for j, stride in enumerate(strides):
            codes += (off[:, j, None] >= thr[:, j]) * stride
        order = np.argsort(codes, axis=1, kind="stable")
        sc = np.take_along_axis(codes, order, axis=1)
        cw = np.cumsum(weights[order], axis=1)
        ends = np.ones(sc.shape, dtype=bool)
        ends[:, :-1] = sc[:, 1:] != sc[:, :-1]
        rows, cols = np.nonzero(ends)  # row-major order
        cw_ends = cw[rows, cols]
        prev = np.concatenate(([0.0], cw_ends[:-1]))
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        prev[first] = 0.0
        contrib = _g_log_g(cw_ends - prev, total)
        values[start : start + k] = -np.bincount(rows, weights=contrib, minlength=k) / total
    return values


def _g_log_g(g: np.ndarray, total: float) -> np.ndarray:
    """g log2(g / total), taken as 0 wherever g <= 0, with no log of 0."""
    return g * np.log2(np.where(g > 0.0, g, total) / total)


def _sweep_last_axis(
    codes_a: np.ndarray, step: int, t: np.ndarray, w: np.ndarray, by_t: np.ndarray, total: float
) -> np.ndarray:
    """Integral over the last offset u in [0, 1) of sum_c g log2(g / total), per row.

    In row k atom i lies in cell codes_a[k, i] while u < t[i], and in
    codes_a[k, i] + step from u = t[i] on.  Each atom gives an A-entry (its
    weight leaves a cell at t) and a B-entry (it arrives); by_t orders these
    2n entries by t, so a stable sort by cell leaves each cell's entries in
    threshold order.  A cell's mass on [t_k, t_{k+1}) is the A-weight of its
    entries after k plus the B-weight of those up to k, and on [0, t_first)
    its whole A-weight.
    """
    rows, n = codes_a.shape
    codes = np.concatenate((codes_a, codes_a + step), axis=1)[:, by_t]
    order = np.argsort(codes, axis=1, kind="stable")
    cells = np.take_along_axis(codes, order, axis=1)
    entry = by_t[order]
    tk = np.concatenate((t, t))[entry]
    is_a = entry < n
    wk = w[entry % n]
    wa = np.where(is_a, wk, 0.0)
    wb = np.where(is_a, 0.0, wk)

    starts = np.ones(cells.shape, dtype=bool)
    starts[:, 1:] = cells[:, 1:] != cells[:, :-1]
    heads = np.flatnonzero(starts)
    group = np.cumsum(starts.ravel()) - 1
    a_cell = np.add.reduceat(wa.ravel(), heads)
    # Group-local prefix sums: row prefix sums less their value before the group.
    cum_a = np.cumsum(wa, axis=1)
    cum_b = np.cumsum(wb, axis=1)
    a_before = (cum_a - wa).ravel()[heads]
    b_before = (cum_b - wb).ravel()[heads]
    g = (a_before + a_cell - b_before)[group] + (cum_b - cum_a).ravel()

    # Every row starts a group, so shifting starts left marks each group's end.
    ends = np.roll(starts, -1, axis=1)
    length = np.where(ends, 1.0, np.roll(tk, -1, axis=1)) - tk
    swept = (length.ravel() * _g_log_g(g, total)).reshape(rows, -1).sum(axis=1)
    lead = tk.ravel()[heads] * _g_log_g(a_cell, total)
    return swept + np.bincount(heads // (2 * n), weights=lead, minlength=rows)


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
    base_codes, strides = _cell_codes(base)
    t = thr[:, -1]
    by_t = np.argsort(np.concatenate((t, t)), kind="stable")

    # On each product of breakpoint intervals of the outer axes (all but the
    # last) the cells are fixed, so its left corner stands for it; the last
    # axis is swept exactly.
    outer = m[:-1]
    n_rows = math.prod(outer)
    chunk = _rows_per_chunk(2 * n)
    parts = []
    for start in range(0, n_rows, chunk):
        stop = min(start + chunk, n_rows)
        codes_a = np.empty((stop - start, n), dtype=np.int64)
        codes_a[:] = base_codes
        vol = np.ones(stop - start)
        multi = np.unravel_index(np.arange(start, stop), outer) if outer else ()
        for j, k in enumerate(multi):
            codes_a += (edges[j][k, None] >= thr[:, j]) * strides[j]
            vol *= lengths[j][k]
        rows = _sweep_last_axis(codes_a, int(strides[-1]), t, weights, by_t, total)
        parts.append(float(np.dot(vol, rows)))
    return -math.fsum(parts) / total, n_cells


@functools.cache
def _sobol_directions() -> np.ndarray:
    """Direction numbers of Sobol axes 1..32 as 30-bit uint32, one row per axis.

    Column j of an axis is v_j 2^(29-j): v_0..v_{m-1} are its initial
    numbers, each later v_j follows the recurrence of its primitive
    polynomial of degree m, and axis 1 has v_j = 1 throughout.
    """
    rows = [[1] * _SOBOL_BITS]
    for poly, init in zip(_SOBOL_POLY, _SOBOL_VINIT):
        m = len(init)
        v = list(init)
        for j in range(m, _SOBOL_BITS):
            new = v[j - m]
            for k in range(m):
                if (poly >> (m - 1 - k)) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append(v)
    return np.array(rows, dtype=np.uint32) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


def _sobol_offsets(d: int, count: int, seed: int) -> np.ndarray:
    """The first count points of scrambled Sobol in [0, 1)^d, fixed by the seed.

    Each axis's direction numbers are scrambled by a random unit lower-
    triangular matrix over GF(2) acting on their bits from the top, and
    every point is XORed with a random digital shift (Matousek's linear
    matrix scramble plus shift).  Both are drawn from default_rng(seed) in
    scipy's order, shift bits first, so the points equal those of scipy's
    ``qmc.Sobol(d, scramble=True, seed=seed).random(count)`` bit for bit.
    Point k is the shift XOR the direction columns indexed by the trailing
    zeros of 1..k (Gray-code order).
    """
    if d > _SOBOL_MAX_DIM:
        raise ValueError(f"QMC offsets are tabulated for dimension <= {_SOBOL_MAX_DIM}, not {d}")
    if count > 1 << _SOBOL_BITS:
        raise ValueError(f"QMC offsets are limited to 2^{_SOBOL_BITS} points")
    if count * d > _DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"{count} QMC offsets in dimension {d} need {count * d} coordinates, budget is {_DEFAULT_BUDGET}"
        )
    if count & (count - 1):
        _warn_at_caller(
            f"{count} QMC offsets: the balance properties of Sobol' points "
            "require n to be a power of 2"
        )
    rng = np.random.default_rng(seed)
    bits = np.arange(_SOBOL_BITS, dtype=np.uint32)
    shift = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) @ (np.uint32(1) << bits)
    ltm = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    top = bits[::-1]  # bit k from the top is bit 29 - k
    v = (_sobol_directions()[:d, :, None] >> top) & 1
    sv = ((np.einsum("apk,ajk->ajp", ltm, v) & 1) << top).sum(axis=2, dtype=np.uint32)
    k = np.arange(1, count)
    ctz = np.frexp(k & -k)[1] - 1
    points = np.empty((count, d), dtype=np.uint32)
    points[:1] = shift
    points[1:] = shift ^ np.bitwise_xor.accumulate(sv[:, ctz].T, axis=0)
    return points * 2.0**-_SOBOL_BITS


def _avg_entropy_qmc(
    points: np.ndarray, weights: np.ndarray, r: np.ndarray, offsets: np.ndarray
) -> tuple[float, float]:
    n, d = points.shape
    if d == 0 or n == 1:
        return 0.0, 0.0
    base, thr = _breakpoints(points / r)
    values = _offset_entropies(base, thr, weights, float(weights.sum()), offsets)
    # Standard error over up to eight block means; QuadratureSpec ensures two.
    bm = np.array([b.mean() for b in np.array_split(values, min(8, len(values)))])
    return float(values.mean()), float(bm.std(ddof=1) / math.sqrt(len(bm)))


def avg_entropy(
    mu: DiscreteMeasure,
    r: "ScaleVector | Sequence[float] | float",
    quad: QuadratureSpec | None = None,
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
    offs = _sobol_offsets(mu.dim, quad.offsets, quad.seed)
    raw, err = _avg_entropy_qmc(mu.points, mu.weights, rv, offs)
    return EntropyReport(max(c * raw, 0.0), "qmc", offs.shape[0], c * err)


def avg_cond_entropy(
    mu: DiscreteMeasure,
    r: "ScaleVector | Sequence[float] | float",
    r_coarse: "ScaleVector | Sequence[float] | float",
    quad: QuadratureSpec | None = None,
) -> EntropyReport:
    """Average conditional entropy H(mu; r | r') = H(mu; r) - H(mu; r').

    In qmc mode both scales see the same offsets: the scrambled Sobol draw
    is a function of (dimension, count, seed) alone, so the difference does
    not pick up independent sampling noise.

    offsets_used is that of the scale r alone, whichever scale is finer: in
    exact mode the breakpoint cell count of r, not of r_coarse and not their
    sum.  Both calls are still checked against the cell budget.
    """
    quad = quad or QuadratureSpec()
    fine = avg_entropy(mu, r, quad)
    coarse = avg_entropy(mu, r_coarse, quad)
    err = fine.error_bound + coarse.error_bound
    return EntropyReport(fine.value - coarse.value, fine.method, fine.offsets_used, err)
