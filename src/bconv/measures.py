"""Finitely supported measures on R^d: construction, convolution and CSV I/O.

A DiscreteMeasure is an immutable weighted point cloud in canonical form:
atoms sorted lexicographically by coordinates, duplicate atoms merged, zero
weights dropped.  Canonical form makes every downstream computation (entropy,
convolution, decomposition) independent of construction order, which is what
the determinism guarantees of the reporting layer rest on.

Atoms merge only when their coordinates compare equal as float64 values.
Coincidences that are exact in the underlying algebra but differ by float
roundoff are decided by the exact word arithmetic of the algebraic layer,
never by rounding coordinates here.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "from_atoms",
    "delta",
    "convolve",
    "bernoulli_power",
    "read_atoms_csv",
    "write_atoms_csv",
]

# Relative slack on conserved masses (construction, convolution).
MASS_RTOL = 1e-12


class DiscreteMeasure:
    """Immutable finitely supported measure in canonical form."""

    __slots__ = ("points", "weights", "mass")

    def __init__(self, points, weights):
        points = np.asarray(points, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (n_atoms, d)")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must be 1-d with one entry per atom")
        if not np.all(np.isfinite(points)):
            raise ValueError("atom coordinates must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("negative weight")

        points, weights = _canonicalize(points, weights)
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mass", math.fsum(weights.tolist()))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n_atoms={self.n_atoms}, dim={self.dim}, mass={self.mass:.12g})"


def _canonicalize(points: np.ndarray, weights: np.ndarray):
    """Sort lexicographically, merge bit-equal points, drop zero weights."""
    keep = weights > 0.0
    points = points[keep]
    weights = weights[keep]
    points = points + 0.0  # normalizes -0.0 to +0.0 so value equality is key equality
    n, d = points.shape
    if n == 0 or d == 0:
        # Zero-dimensional points are all equal: collapse to one atom.
        if d == 0 and n > 0:
            total = math.fsum(weights.tolist())
            return np.empty((1, 0)), np.array([total])
        return points.reshape(n, d), weights

    order = np.lexsort(points.T[::-1])  # sort by x1, then x2, ...
    pts = points[order]
    wts = weights[order]
    boundary = np.any(pts[1:] != pts[:-1], axis=1)
    starts = np.concatenate(([0], np.nonzero(boundary)[0] + 1))
    return pts[starts], np.add.reduceat(wts, starts)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _as_point_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def from_atoms(atoms: Iterable[tuple[Sequence[float] | float, float]]) -> DiscreteMeasure:
    """Build a measure from (point, weight) pairs.  Scalars are 1-d points."""
    pts = []
    wts = []
    for x, w in atoms:
        pts.append(_as_point_array(x))
        wts.append(float(w))
    if not pts:
        return DiscreteMeasure(np.empty((0, 1)), np.empty(0))
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("dimension mismatch among atoms")
    return DiscreteMeasure(np.array(pts).reshape(len(pts), d), np.array(wts))


def delta(x) -> DiscreteMeasure:
    """Unit point mass."""
    return from_atoms([(x, 1.0)])


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def convolve(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Convolution: atoms at all pairwise sums, weights multiplied.

    Mass is multiplicative up to roundoff in the pairwise products.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    pts = (mu.points[:, None, :] + nu.points[None, :, :]).reshape(-1, mu.dim)
    wts = (mu.weights[:, None] * nu.weights[None, :]).ravel()
    out = DiscreteMeasure(pts, wts)
    expected = mu.mass * nu.mass
    if expected > 0 and abs(out.mass - expected) > MASS_RTOL * max(1.0, expected):
        raise AssertionError("convolution failed to conserve mass")
    return out


def bernoulli_power(x, y, k: int) -> DiscreteMeasure:
    """k-fold self-convolution of the fair two-point measure on {x, y}.

    Computed directly from the binomial law on the segment between the two
    endpoints: atoms k*x + i*(y - x) with weights C(k, i) / 2^k.  Repeated
    pairwise convolution would square the intermediate atom counts and leak
    roundoff into the atom positions, so it is never used here.  Each weight
    is one int / int division, which Python rounds correctly, so it carries
    only the final rounding error.
    """
    if k < 1:
        raise ValueError("power k must be >= 1")
    xp = _as_point_array(x)
    yp = _as_point_array(y)
    if xp.shape != yp.shape:
        raise ValueError("dimension mismatch")
    if np.array_equal(xp, yp):
        raise ValueError("the two endpoints must differ")
    i = np.arange(k + 1)
    pts = k * xp[None, :] + i[:, None] * (yp - xp)[None, :]
    denom = 1 << k
    wts = np.empty(k + 1)
    c = 1
    for m in range(k + 1):
        wts[m] = c / denom
        c = c * (k - m) // (m + 1)
    return DiscreteMeasure(pts, wts)


# ---------------------------------------------------------------------------
# Atom CSV interchange
# ---------------------------------------------------------------------------


def write_atoms_csv(mu: DiscreteMeasure, path) -> None:
    """Write atoms as CSV with header x1,...,xd,w in canonical order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j + 1}" for j in range(mu.dim)] + ["w"])
        for p, w in zip(mu.points, mu.weights):
            writer.writerow([repr(float(v)) for v in p] + [repr(float(w))])


def read_atoms_csv(path) -> DiscreteMeasure:
    """Read a measure from CSV with header x1,...,xd,w."""
    with open(path) as fh:
        first = fh.readline()
        has_rows = any(line.strip() for line in fh)  # stops at the first row
    if not first:
        raise ValueError("empty atom file")
    header = [h.strip() for h in next(csv.reader([first]))]
    if len(header) < 2 or header[-1] != "w":
        raise ValueError("atom CSV header must be x1,...,xd,w")
    d = len(header) - 1
    if header[:-1] != [f"x{j + 1}" for j in range(d)]:
        raise ValueError("atom CSV header must be x1,...,xd,w")
    if not has_rows:  # np.loadtxt warns on a body without rows
        return DiscreteMeasure(np.empty((0, d)), np.empty(0))
    try:
        rows = np.loadtxt(
            path, delimiter=",", comments=None, quotechar='"', skiprows=1, ndmin=2
        )
    except ValueError as e:
        raise ValueError(f"atom rows must hold {d + 1} numeric fields: {e}") from None
    if rows.shape[1] != d + 1:
        raise ValueError(f"atom row has {rows.shape[1]} fields, expected {d + 1}")
    return DiscreteMeasure(rows[:, :-1], rows[:, -1])
