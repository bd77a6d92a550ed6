"""Integer polynomials, algebraic contraction ratios, and small-value search.

Exact arithmetic enters the package through this module.  Polynomials over Z
are kept with constant term first.  An algebraic number is a primitive
irreducible integer polynomial together with an exactly isolating rational
interval; refinement is plain bisection with exact sign evaluation, so no
floating-point step can silently cross a root.

The small-value search looks for a nonzero polynomial of degree < n with
coefficients in a given finite set minimizing |P(xi)|.  All strategies share
one canonical float evaluation (split into ascending partial sums at
position floor(n/2)), which is what makes their results comparable down to
the last bit and their tie-breaking deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetExceededError

if TYPE_CHECKING:  # pragma: no cover
    from .selfaffine import SystemSpec

__all__ = [
    "IntPolynomial",
    "AlgebraicNumber",
    "reduce_mod_minpoly",
    "mahler_measure",
    "count_roots_in_disk",
    "SearchResult",
    "min_value_poly_search",
    "AxisApproximation",
    "ApproxReport",
    "approximate_parameters",
    "OverlapReport",
    "exact_overlap_depth",
]

_ROOT_AMBIGUITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Integer polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with integer coefficients, constant term first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = []
        for c in self.coeffs:
            ic = int(c)
            if ic != c:
                raise ValueError("coefficients must be integers")
            cs.append(ic)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        """Horner evaluation; works for float, Fraction, and mpmath inputs."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Content removed, leading coefficient made positive."""
        if self.is_zero():
            return self
        g = self.content()
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(tuple(c * sign // g for c in self.coeffs))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def bounded_by(self, n: int, height: int) -> bool:
        """Membership in the family deg < n, max |coefficient| <= height."""
        return (
            not self.is_zero()
            and self.degree < n
            and max(abs(c) for c in self.coeffs) <= height
        )

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return " + ".join(parts)


def _sympy_poly(poly: IntPolynomial):
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(poly.coeffs)), x)


def _is_irreducible(poly: IntPolynomial) -> bool:
    if poly.degree < 1:
        return False
    factors = _sympy_poly(poly.primitive()).factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Algebraic numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: primitive irreducible minpoly plus an
    exactly isolating open rational interval with a strict sign change."""

    minpoly: IntPolynomial
    low: Fraction
    high: Fraction

    def __post_init__(self):
        object.__setattr__(self, "low", Fraction(self.low))
        object.__setattr__(self, "high", Fraction(self.high))
        p = self.minpoly
        if p.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if p.content() != 1 or p.leading < 0:
            raise ValueError("minimal polynomial must be primitive with positive leading coefficient")
        if not _is_irreducible(p):
            raise ValueError("minimal polynomial must be irreducible")
        if not (self.low < self.high):
            raise ValueError("isolating interval is empty")
        if p(self.low) * p(self.high) >= 0:
            raise ValueError("isolating interval must have a strict sign change")
        if _sympy_poly(p).count_roots(self.low, self.high) != 1:
            raise ValueError("interval does not isolate a single real root")

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def refined(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Bisect the isolating interval down to the requested width."""
        lo, hi = self.low, self.high
        s_lo = self.minpoly(lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            s_mid = self.minpoly(mid)
            if s_mid == 0:
                # Rational root: shrink symmetric interval around it.
                half = min(width / 2, (hi - lo) / 4)
                return mid - half, mid + half
            if (s_lo < 0) == (s_mid < 0):
                lo, s_lo = mid, s_mid
            else:
                hi = mid
        return lo, hi

    def to_float(self) -> float:
        lo, hi = self.refined(Fraction(1, 2**60))
        return float((lo + hi) / 2)

    @staticmethod
    def from_root_near(poly: IntPolynomial, x0: float) -> "AlgebraicNumber":
        """The real root of poly nearest x0, with its minimal polynomial.

        poly need not be irreducible; it is factored over Z and the factor
        owning the nearest real root becomes the minimal polynomial.
        """
        if poly.is_zero() or poly.degree < 1:
            raise ValueError("polynomial must have degree >= 1")
        import sympy

        best = None
        for factor, _mult in _sympy_poly(poly).factor_list()[1]:
            if factor.degree() < 1:
                continue
            for (lo, hi), _m in factor.intervals():
                lo_f, hi_f = Fraction(lo.p, lo.q), Fraction(hi.p, hi.q)
                mid = float((lo_f + hi_f) / 2)
                dist = abs(mid - x0)
                if best is None or dist < best[0]:
                    best = (dist, factor, lo_f, hi_f)
        if best is None:
            raise ValueError("polynomial has no real roots")
        _, factor, lo_f, hi_f = best
        coeffs = tuple(int(c) for c in reversed(factor.all_coeffs()))
        minpoly = IntPolynomial(coeffs).primitive()
        lo_f, hi_f = _widen_to_sign_change(minpoly, lo_f, hi_f)
        return AlgebraicNumber(minpoly, lo_f, hi_f)


def _widen_to_sign_change(p: IntPolynomial, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Grow a (possibly degenerate) isolating interval until signs differ."""
    if lo == hi:
        step = Fraction(1, 4)
        lo, hi = lo - step, hi + step
    while p(lo) * p(hi) >= 0 or _sympy_poly(p).count_roots(lo, hi) != 1:
        width = hi - lo
        lo -= width / 4
        hi += width / 4
        if width > 4 * (abs(hi) + abs(lo) + 1):  # pragma: no cover
            raise AssertionError("failed to build an isolating interval")
    return lo, hi


# ---------------------------------------------------------------------------
# Reduction modulo a minimal polynomial
# ---------------------------------------------------------------------------


def reduce_mod_minpoly(
    expr: "IntPolynomial | Sequence[int]",
    minpoly: "IntPolynomial | AlgebraicNumber",
) -> tuple[Fraction, ...]:
    """Canonical coefficient vector of expr modulo the minimal polynomial.

    The result has length deg(minpoly); two integer polynomials agree at the
    algebraic number iff their reduced vectors are equal, so this vector is a
    collision-free key for exact evaluation.
    """
    if isinstance(minpoly, AlgebraicNumber):
        minpoly = minpoly.minpoly
    if not isinstance(expr, IntPolynomial):
        expr = IntPolynomial(tuple(expr))
    m = minpoly.degree
    if m < 1:
        raise ValueError("minimal polynomial must have degree >= 1")
    rem = [Fraction(c) for c in expr.coeffs]
    lead = Fraction(minpoly.leading)
    while len(rem) > m:
        top = rem.pop()
        if top == 0:
            continue
        f = top / lead
        k = len(rem) - m  # the reduced monomial sits at offset k
        for i in range(m):
            rem[k + i] -= f * minpoly.coeffs[i]
    rem.extend([Fraction(0)] * (m - len(rem)))
    return tuple(rem)


_STATE_LIMIT = 1 << 62  # int64 word-state entries must stay below this


def _scaled_powers(minpoly: IntPolynomial) -> Iterator[list[int]]:
    """T[k] = lead^k * (reduced vector of x^k mod minpoly) for k = 0, 1, ...

    T[k+1] = lead * shift(T[k]) - top * coeffs[:m], with top the last entry
    of T[k]; every entry is an integer even when the minpoly is not monic.
    """
    m, lead, cs = minpoly.degree, minpoly.leading, minpoly.coeffs
    row = [1] + [0] * (m - 1)
    while True:
        yield row
        top = row[-1]
        row = [lead * s - top * c for s, c in zip([0] + row[:-1], cs)]


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an int64 matrix, numbered by first occurrence.

    Returns (ids, first): ids[i] is the group of row i and first[g] the
    index of group g's first row, so first is increasing.  Each column is
    dense-ranked and folded into the running code, which is then re-ranked;
    a folded code is below rows^2, so it never wraps while rows < 2^31.
    np.unique(rows, axis=0) gives the same grouping but sorts the rows as
    opaque byte strings, about 4x slower on the golden and tri2d depths.
    """
    code = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        uniq, rank = np.unique(col, return_inverse=True)
        _, first, code = np.unique(code * len(uniq) + rank, return_index=True, return_inverse=True)
    order = np.argsort(first)
    relabel = np.empty_like(order)
    relabel[order] = np.arange(len(order))
    return relabel[code], first[order]


def _word_states(spec: "SystemSpec", n: int, budget: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact word states at depths 1..n as (rows, weights) pairs.

    A state is one int64 row: the axis-j reduced vector of a word's
    translation polynomial, times lead_j^(depth-1), for each axis side by
    side.  Two words share a map iff their rows are equal, so depth k has
    one row per distinct length-k map, weighted by its summed word
    probability.  Each depth extends the previous states, then the maps in
    spec order (child = lead * S + a * T[depth]).  Groups are numbered by
    first occurrence in that child order, and np.bincount adds each group's
    terms in input order, the order a dict accumulating w * p per child
    would use; so the rows come out in that dict's insertion order and
    every weight is the same float sum.

    int64 arithmetic wraps silently, so a bound on every intermediate entry
    is kept in Python integers while the power table is built one depth at
    a time; it grows by |lead| per depth, since a minpoly may have a
    negative leading coefficient.  The call is refused at the first depth
    whose bound reaches 2^62, before any state is enumerated, or when a
    depth would build more than `budget` child rows.
    """
    degrees = [p.degree for p in spec.minpolys]
    digit = [max(abs(row[j]) for row in spec.translations) for j in range(spec.dim)]
    bound = [0] * spec.dim
    table = []
    for depth, ts in zip(range(1, n + 1), zip(*map(_scaled_powers, spec.minpolys))):
        for j, (p, t) in enumerate(zip(spec.minpolys, ts)):
            top = max(map(abs, t))
            bound[j] = max(abs(p.leading) * bound[j] + digit[j] * top, top)
            if bound[j] >= _STATE_LIMIT:
                raise BudgetExceededError(
                    f"axis {j + 1} word states at depth {depth} may reach {bound[j]}, "
                    "past the int64 limit 2^62"
                )
        table.append(sum(ts, []))
    lead = np.repeat([p.leading for p in spec.minpolys], degrees).astype(np.int64)
    powers = np.array(table, dtype=np.int64)
    digits = np.repeat(np.asarray(spec.translations, dtype=np.int64), degrees, axis=1)
    probs = np.asarray(spec.probs)
    rows = np.zeros((1, sum(degrees)), dtype=np.int64)
    weights = np.ones(1)
    for depth in range(n):
        count = spec.n_maps * len(rows)
        if count > budget:
            raise BudgetExceededError(
                f"depth {depth + 1} builds {count} word-state rows, budget is {budget}"
            )
        child = ((lead * rows)[:, None, :] + (digits * powers[depth])[None, :, :]).reshape(count, -1)
        ids, first = _group_rows(child)
        rows = child[first]
        terms = (weights[:, None] * probs[None, :]).ravel()
        weights = np.bincount(ids, weights=terms, minlength=len(first))
        yield rows, weights


# ---------------------------------------------------------------------------
# Mahler measure and root counting
# ---------------------------------------------------------------------------


def _certified_roots(poly: IntPolynomial, err_target: float):
    """Complex roots of poly with a reported max error below err_target.

    Precision escalates until the arbitrary-precision solver's own error
    estimate meets the target.  Zero roots are stripped first (they never
    matter for Mahler measure, and the solver dislikes them).
    """
    import mpmath as mp

    coeffs = list(poly.coeffs)
    n_zero_roots = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        n_zero_roots += 1
    stripped = IntPolynomial(tuple(coeffs))
    if stripped.degree < 1:
        return [], n_zero_roots, mp.mpf(0)
    desc = list(reversed(stripped.coeffs))
    for dps in (40, 80, 160, 320):
        with mp.workdps(dps):
            try:
                roots, err = mp.polyroots(desc, maxsteps=200, extraprec=dps, error=True)
            except mp.libmp.libhyper.NoConvergence:  # pragma: no cover
                continue
            if err < err_target:
                return [mp.mpc(r) for r in roots], n_zero_roots, mp.mpf(err)
    raise ArithmeticError("root finding did not reach the requested certification")


def mahler_measure(poly: "IntPolynomial | Sequence[int]", rel_tol: float = 1e-9) -> float:
    """Mahler measure |lead| * prod(max(1, |root|)), certified to rel_tol.

    The root solver's error estimate is driven below rel_tol / (10 * degree)
    so the propagated relative error on the product stays below rel_tol.
    """
    if not isinstance(poly, IntPolynomial):
        poly = IntPolynomial(tuple(poly))
    if poly.is_zero():
        raise ValueError("Mahler measure of the zero polynomial is undefined")
    if poly.degree == 0:
        return float(abs(poly.leading))
    import mpmath as mp

    err_target = rel_tol / (10.0 * max(1, poly.degree))
    roots, _, _ = _certified_roots(poly, err_target)
    with mp.workdps(60):
        m = mp.mpf(abs(poly.leading))
        for z in roots:
            m *= max(mp.mpf(1), abs(z))
        return float(m)


def count_roots_in_disk(
    poly: "IntPolynomial | Sequence[int]", rho: float, tol: float = _ROOT_AMBIGUITY_TOL
) -> int:
    """Number of nonzero roots with |z| < rho, counted with multiplicity.

    Raises if any root modulus lies within tol of rho: the count would then
    depend on rounding, so the caller must perturb rho instead.
    """
    if not isinstance(poly, IntPolynomial):
        poly = IntPolynomial(tuple(poly))
    if poly.is_zero():
        raise ValueError("the zero polynomial has no well-defined root count")
    if rho <= 0:
        raise ValueError("disk radius must be positive")
    if poly.degree == 0:
        return 0
    roots, _, _ = _certified_roots(poly, tol / 100.0)
    count = 0
    for z in roots:
        mod = float(abs(z))
        if abs(mod - rho) < tol:
            raise ValueError(
                f"a root modulus {mod!r} lies within {tol} of the disk radius; perturb rho"
            )
        if mod < rho:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Small-value polynomial search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Minimizer of |P(xi)| over the searched family."""

    poly: IntPolynomial
    value: float
    strategy: str

    @property
    def abs_value(self) -> float:
        return abs(self.value)


def _validate_search(xi: float, n: int, coeff_set: Sequence[int]) -> tuple[float, int, tuple[int, ...]]:
    xi = float(xi)
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    if n < 1:
        raise ValueError("degree bound n must be >= 1")
    coeffs = tuple(sorted({int(c) for c in coeff_set}))
    if 0 not in coeffs:
        raise ValueError("coefficient set must contain 0")
    if len(coeffs) < 2:
        raise ValueError("coefficient set must contain a nonzero value")
    # Every |P(xi)| and partial sum is at most max|c| * sum |xi|^k; while that
    # bound is finite, no strategy's float arithmetic can overflow.
    if not math.isfinite(max(map(abs, coeffs)) * sum(map(abs, _powers(xi, n)))):
        raise ValueError(f"|P(xi)| overflows float64 for xi={xi!r} at degree bound {n}")
    return xi, n, coeffs


def _powers(xi: float, n: int) -> list[float]:
    out = [1.0]
    for _ in range(1, n):
        out.append(out[-1] * xi)
    return out


def _build_half(ks: range, coeffs: tuple[int, ...], powers: list[float]) -> np.ndarray:
    """Values of all coefficient choices on the positions ks, ascending fold.

    Index decodes with digit for position ks[t] at stride |coeffs|^t.
    """
    vals = np.zeros(1)
    for k in ks:
        term = np.array([c * powers[k] for c in coeffs])
        vals = (term[:, None] + vals[None, :]).ravel()
    return vals


def _halves(xi: float, n: int, coeffs: tuple[int, ...]):
    """Powers, split h = n // 2, the low and high half tables, and their all-zero indices.

    A family member's value is high[j] + low[i], bit-identical to _canonical_value.
    """
    powers = _powers(xi, n)
    h = n // 2
    low = _build_half(range(0, h), coeffs, powers)
    high = _build_half(range(h, n), coeffs, powers)
    z, base = coeffs.index(0), len(coeffs)  # the all-zero index has digit z everywhere
    zl, zh = (z * (base**m - 1) // (base - 1) for m in (h, n - h))
    return powers, h, low, high, zl, zh


def _digits(index: np.ndarray, n_digits: int, coeffs: tuple[int, ...]) -> np.ndarray:
    """Digit rows of half-table indices; position t sits at stride |coeffs|^t."""
    base = len(coeffs)
    strides = base ** np.arange(n_digits, dtype=np.int64)
    return np.array(coeffs)[(index[:, None] // strides) % base]


def _canonical_value(digits: Sequence[int], powers: list[float], h: int) -> float:
    lo = 0.0
    for k in range(h):
        lo = digits[k] * powers[k] + lo
    hi = 0.0
    for k in range(h, len(digits)):
        hi = digits[k] * powers[k] + hi
    return lo + hi


def _rev_key(digits: Sequence[int]) -> tuple[int, ...]:
    # Ties break on the descending-degree coefficient tuple.
    return tuple(reversed(digits))


def _search_exhaustive(
    xi: float, n: int, coeffs: tuple[int, ...], budget: int
) -> tuple[tuple[int, ...], float]:
    base = len(coeffs)
    if base**n > budget:
        raise BudgetExceededError(
            f"exhaustive search needs {base**n} evaluations, budget is {budget}"
        )
    powers, h, low, high, zl, zh = _halves(xi, n, coeffs)

    block = max(1, (1 << 22) // max(1, len(low)))
    best = math.inf
    ties: list[tuple[int, ...]] = []
    for start in range(0, len(high), block):
        sums = np.abs(high[start : start + block, None] + low[None, :])
        j0 = zh - start
        if 0 <= j0 < sums.shape[0]:
            sums[j0, zl] = math.inf
        m = float(sums.min())
        if m > best:
            continue
        if m < best:
            best, ties = m, []
        jj, ii = np.nonzero(sums == best)
        rows = np.hstack([_digits(ii, h, coeffs), _digits(jj + start, n - h, coeffs)])
        ties.extend(map(tuple, rows.tolist()))
    digits = min(ties, key=_rev_key)
    return digits, _canonical_value(digits, powers, h)


def _window_bound(hs: np.ndarray, low: np.ndarray, zl: int, zs: int, take: int) -> float:
    """The take-th smallest |hs[j] + low[i]| over each row's nearest sorted neighbours.

    Row i's window is the w entries of hs on each side of -low[i], padded with
    inf past the ends, so it holds at least min(w, len(hs)) real pairs.  With
    w * len(low) > take the windows hold `take` distinct pairs besides the
    all-zero one (row zl, sorted position zs), which makes the result an upper
    bound on the family's take-th smallest |value|.
    """
    w = -(-(take + 1) // len(low))
    pos = np.searchsorted(hs, -low)
    near = sliding_window_view(np.pad(hs, w, constant_values=math.inf), 2 * w)[pos]
    near += low[:, None]
    np.abs(near, out=near)
    if 0 <= zs + w - pos[zl] < 2 * w:
        near[zl, zs + w - pos[zl]] = math.inf
    return float(np.partition(near, take - 1, axis=None)[take - 1])


def _smallest(
    xi: float, n: int, coeffs: tuple[int, ...], k: int, budget: int
) -> list[tuple[float, tuple[int, ...], float]]:
    """The first k (|value|, digits, value) of the family in (|value|, _rev_key) order.

    Sorted-halves search: the high half is stably sorted, every low entry
    finds its nearest high neighbours, and the k-th smallest of those sums
    bounds the answer by tau.  All pairs within tau are then collected by
    searchsorted ranges, so ties at the k-th value are kept whole and cut by
    the tie rule, not by selection order.
    """
    base = len(coeffs)
    h = n // 2
    if base ** max(h, n - h) > budget:
        raise BudgetExceededError(
            f"meet-in-the-middle table of {base ** max(h, n - h)} entries exceeds budget {budget}"
        )
    _, h, low, high, zl, zh = _halves(xi, n, coeffs)
    order = np.argsort(high, kind="stable")
    hs = high[order]
    zs = int(np.flatnonzero(order == zh)[0])  # sorted position of the all-zero high half
    take = min(k, base**n - 1)

    tau = _window_bound(hs, low, zl, zs, take)

    # fl(hs[j] + low[i]) is monotone in j, so each row's pairs within tau are
    # one run of hs; widen its ends by a few ulps and filter exactly.
    slack = 4 * np.spacing(np.abs(low) + tau)
    first = np.searchsorted(hs, -low - tau - slack, side="left")
    counts = np.searchsorted(hs, -low + tau + slack, side="right") - first
    ii = np.repeat(np.arange(len(low)), counts)
    jj = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    values = hs[jj] + low[ii]
    keep = (np.abs(values) <= tau) & ((ii != zl) | (jj != zs))
    values = values[keep]
    digits = np.hstack([_digits(ii[keep], h, coeffs), _digits(order[jj[keep]], n - h, coeffs)])
    pick = np.lexsort(tuple(digits.T) + (np.abs(values),))[:take]
    return [(abs(v), tuple(d), v) for v, d in zip(values[pick].tolist(), digits[pick].tolist())]


def _search_branch_and_bound(
    xi: float, n: int, coeffs: tuple[int, ...]
) -> tuple[tuple[int, ...], float]:
    powers = _powers(xi, n)
    h = n // 2
    cmax = max(abs(c) for c in coeffs)
    # rem[k]: loosest possible |contribution| of positions 0..k.
    rem = [0.0] * n
    acc = 0.0
    for k in range(n):
        acc += cmax * abs(powers[k])
        rem[k] = acc
    slack = 1e-12 * (1.0 + acc)

    best_abs = math.inf
    best_digits: tuple[int, ...] | None = None
    chosen = [0] * n

    def visit(k: int, partial: float):
        nonlocal best_abs, best_digits
        if k < 0:
            if all(c == 0 for c in chosen):
                return
            value = _canonical_value(chosen, powers, h)
            a = abs(value)
            digits = tuple(chosen)
            if a < best_abs or (a == best_abs and (best_digits is None or _rev_key(digits) < _rev_key(best_digits))):
                best_abs = a
                best_digits = digits
            return
        bound = abs(partial) - rem[k]
        if bound > best_abs + slack:
            return
        for c in coeffs:
            chosen[k] = c
            visit(k - 1, partial + c * powers[k])
        chosen[k] = 0

    visit(n - 1, 0.0)
    assert best_digits is not None
    return best_digits, _canonical_value(best_digits, powers, h)


def min_value_poly_search(
    xi: float,
    n: int,
    coeff_set: Sequence[int],
    strategy: str = "meet-in-middle",
    budget: int = 1 << 24,
) -> SearchResult:
    """Nonzero P with deg < n and coefficients in coeff_set minimizing |P(xi)|.

    All strategies agree bit-for-bit: values come from one canonical split
    evaluation and ties break on the lexicographically smallest coefficient
    vector read from the leading coefficient down.
    """
    xi, n, coeffs = _validate_search(xi, n, coeff_set)
    if strategy == "exhaustive":
        digits, value = _search_exhaustive(xi, n, coeffs, budget)
    elif strategy == "meet-in-middle":
        _, digits, value = _smallest(xi, n, coeffs, 1, budget)[0]
    elif strategy == "branch-and-bound":
        digits, value = _search_branch_and_bound(xi, n, coeffs)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return SearchResult(IntPolynomial(digits), value, strategy)


def _top_candidates(
    xi: float, n: int, coeffs: tuple[int, ...], k: int, budget: int = 1 << 24
) -> list[tuple[float, tuple[int, ...]]]:
    """The k best (|value|, digits) pairs, ordered by value then tie rule."""
    return [(a, d) for a, d, _ in _smallest(xi, n, coeffs, k, budget)]


# ---------------------------------------------------------------------------
# Parameter approximation pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisApproximation:
    """Outcome of the search-then-root step on one axis."""

    axis: int  # 1-based
    status: str  # "ok" or "no-root"
    poly: IntPolynomial
    search_value: float
    eta: AlgebraicNumber | None
    eta_float: float | None
    distance: float | None


@dataclass(frozen=True)
class ApproxReport:
    axes: tuple[AxisApproximation, ...]
    eta: tuple[float, ...] | None
    in_omega: bool
    max_distance: float | None


def approximate_parameters(
    lam: Sequence[float],
    n: int,
    diff_sets: Sequence[Sequence[int]],
    top_k: int = 32,
) -> ApproxReport:
    """Replace each lambda_j by a nearby algebraic number.

    Per axis: search degree-< n polynomials with coefficients in the axis
    difference set for a small value at lambda_j, walk the candidates in
    value order, and take the real root in (0, 1) nearest lambda_j from the
    first candidate that has one.  If no candidate does, the axis is reported
    failed together with the globally nearest real root seen.
    """
    lam = [float(v) for v in lam]
    if len(diff_sets) != len(lam):
        raise ValueError("one coefficient set per axis is required")
    axes: list[AxisApproximation] = []
    for j, (lj, dset) in enumerate(zip(lam, diff_sets), start=1):
        _, _, coeffs = _validate_search(lj, n, dset)
        cands = _top_candidates(lj, n, coeffs, top_k)
        chosen = None
        fallback = None  # nearest real root anywhere, for the failure report
        for absval, digits in cands:
            poly = IntPolynomial(digits)
            roots = _real_roots_float(poly)
            for r in roots:
                if fallback is None or abs(r - lj) < abs(fallback[2] - lj):
                    fallback = (absval, poly, r)
            inside = [r for r in roots if 0.0 < r < 1.0]
            if inside:
                r = min(inside, key=lambda v: abs(v - lj))
                chosen = (absval, poly, r)
                break
        if chosen is not None:
            absval, poly, r = chosen
            eta = AlgebraicNumber.from_root_near(poly, r)
            ef = eta.to_float()
            axes.append(AxisApproximation(j, "ok", poly, absval, eta, ef, abs(ef - lj)))
        elif fallback is not None:
            absval, poly, r = fallback
            axes.append(AxisApproximation(j, "no-root", poly, absval, None, r, abs(r - lj)))
        else:
            poly = IntPolynomial(cands[0][1])
            axes.append(AxisApproximation(j, "no-root", poly, cands[0][0], None, None, None))

    ok = all(a.status == "ok" for a in axes)
    eta = tuple(a.eta_float for a in axes) if ok else None  # type: ignore[misc]
    in_omega = False
    if eta is not None:
        in_omega = all(0.0 < e < 1.0 for e in eta) and all(
            a > b for a, b in zip(eta, eta[1:])
        )
    dists = [a.distance for a in axes if a.distance is not None]
    return ApproxReport(tuple(axes), eta, in_omega, max(dists) if dists else None)


def _real_roots_float(poly: IntPolynomial) -> list[float]:
    if poly.degree < 1:
        return []
    import sympy

    return [float(r.evalf(25)) for r in _sympy_poly(poly).real_roots()]


# ---------------------------------------------------------------------------
# Exact overlap detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapReport:
    """First depths at which two distinct words share a map."""

    per_axis: tuple[int | None, ...]
    joint: int | None
    n_max: int


def exact_overlap_depth(spec: "SystemSpec", n_max: int, budget: int = 1 << 24) -> OverlapReport:
    """Smallest word length with an exact coincidence, per axis and jointly.

    All length-n maps share the diagonal part, so two words collide exactly
    when their translation polynomials agree, i.e. reduce to the same vector
    modulo the axis minimal polynomial.  Axis j reports the first depth where
    the axis-j values collide; the joint depth requires simultaneous
    collision on every axis.  None means no collision up to n_max.
    """
    if spec.minpolys is None:
        raise ValueError("exact overlap detection needs minimal polynomials")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k = spec.n_maps
    per_axis: list[int | None] = [None] * spec.dim
    joint: int | None = None
    edges = np.cumsum([0] + [p.degree for p in spec.minpolys])
    for depth, (rows, _) in enumerate(_word_states(spec, n_max, budget), start=1):
        # The axis-j values of all words are the projection of the joint states.
        expected = k**depth
        for j in range(spec.dim):
            if per_axis[j] is None and len(_group_rows(rows[:, edges[j] : edges[j + 1]])[1]) < expected:
                per_axis[j] = depth
        if joint is None and len(rows) < expected:
            joint = depth
        if joint is not None and all(v is not None for v in per_axis):
            break
    return OverlapReport(tuple(per_axis), joint, n_max)
