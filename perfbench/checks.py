"""Reference checks on the reports of one warm-up pass.

Every check is computed without bconv: exact counts known independently,
a linear-programming optimum for pairings, a midpoint re-evaluation of the
exact offset quadrature, a sorted-halves re-run of the polynomial search,
numpy roots for Mahler measures, and, for commands whose inputs do not
depend on the seed, the reports pinned at the seed commit (pinned.json,
written by pin.py).  References that cost real time are computed once per
run, before any pass is timed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs

PINNED_FILE = Path(__file__).resolve().parent / "pinned.json"
# Commands whose inputs do not depend on the seed; their reports are pinned.
PINNED = (
    "rw-golden", "rw-tri2d", "overlap-golden", "overlap-tri2d", "separation-tri2d",
    "dim-third", "nonsat-tri2d", "tube", "approx-golden", "approx-tri2d",
)
# The acceptance suite's tolerance for entropies, in bits.
TOL = 1e-9
LEHMER_MAHLER = 1.1762808182599175


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def s_term(lam: tuple[float, ...], m: int) -> np.ndarray:
    """s_m of the integer-ratio sequence: s_0 = 1, s_k = s_{k-1} / floor(s_{k-1} / lam^k)."""
    out = []
    for e in lam:
        e = Fraction(e)
        s = Fraction(1)
        for k in range(1, m + 1):
            s /= math.floor(s / e**k)
        out.append(float(s))
    return np.array(out)


def pairing_lp(points, weights, lam, n, big_n):
    """(LP optimum of the total pair mass, window low, window high)."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix
    from scipy.spatial import cKDTree

    pts, inv = np.unique(points, axis=0, return_inverse=True)
    w = np.bincount(inv.ravel(), weights=weights)
    lo = 1.0 / 6.0
    hi = 2.0 * float(np.linalg.norm(np.asarray(lam) ** (-3.0 * big_n)))
    z = pts / s_term(lam, n + 2 * big_n)
    pairs = cKDTree(z).query_pairs(hi * (1 + 1e-9), output_type="ndarray")
    dist = np.linalg.norm(z[pairs[:, 0]] - z[pairs[:, 1]], axis=1)
    pairs = pairs[(dist >= lo) & (dist <= hi)]
    e = len(pairs)
    if e == 0:
        return 0.0, lo, hi
    cols = np.repeat(np.arange(e), 2)
    a_ub = coo_matrix((np.full(2 * e, 0.5), (pairs.ravel(), cols)), shape=(len(w), e)).tocsr()
    res = linprog(-np.ones(e), A_ub=a_ub, b_ub=w, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun, lo, hi


def _grouped_entropies(codes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of codes, atoms grouped by equal code."""
    rows, n = codes.shape
    span = int(codes.max()) + 1
    flat = (np.arange(rows)[:, None] * span + codes).ravel()
    uniq, inv = np.unique(flat, return_inverse=True)
    g = np.bincount(inv, weights=np.tile(weights, rows)) / weights.sum()
    return np.bincount(uniq // span, weights=-g * np.log2(g), minlength=rows)


def avg_entropy_exact(points: np.ndarray, weights: np.ndarray, r) -> tuple[float, int]:
    """Offset-averaged entropy at scalar or per-axis scale r by midpoint
    evaluation of every breakpoint cell: (value, cell count)."""
    n, d = points.shape
    y = points / r
    base = np.floor(y)
    thr = 1.0 - (y - base)
    keys, vols = [], []
    for j in range(d):
        cuts = np.unique(thr[:, j][thr[:, j] < 1.0])
        edges = np.concatenate(([0.0], cuts, [1.0]))
        mid = (edges[:-1] + edges[1:]) / 2
        k = base[:, j, None] + (mid[None, :] >= thr[:, j, None])
        keys.append((k - k.min()).astype(np.int64))
        vols.append(np.diff(edges))
    shape = [len(v) for v in vols]
    n_cells = math.prod(shape)
    chunk = max(1, (1 << 20) // n)
    parts = []
    for start in range(0, n_cells, chunk):
        multi = np.unravel_index(np.arange(start, min(start + chunk, n_cells)), shape)
        code = np.zeros((len(multi[0]), n), dtype=np.int64)
        vol = np.ones(len(multi[0]))
        stride = 1
        for j in range(d):
            code += keys[j][:, multi[j]].T * stride
            stride *= int(keys[j].max()) + 1
            vol *= vols[j][multi[j]]
        parts.append(float(np.dot(vol, _grouped_entropies(code, weights))))
    return math.fsum(parts), n_cells


def avg_entropy_qmc(points, weights, r, offsets_n, seed):
    """(mean entropy, block error) over the scrambled Sobol offsets the CLI uses."""
    from scipy.stats import qmc

    offs = qmc.Sobol(d=points.shape[1], scramble=True, seed=seed).random(offsets_n)
    keys = np.floor(points[None, :, :] / r + offs[:, None, :]).astype(np.int64)
    keys -= keys.min(axis=(0, 1))
    code = np.zeros(keys.shape[:2], dtype=np.int64)
    stride = 1
    for j in range(points.shape[1]):
        code += keys[:, :, j] * stride
        stride *= int(keys[:, :, j].max()) + 1
    values = _grouped_entropies(code, weights)
    bm = np.array([b.mean() for b in np.array_split(values, min(8, len(values)))])
    return float(values.mean()), float(bm.std(ddof=1) / math.sqrt(len(bm)))


def poly_search(xi: float, n: int, coeff_set) -> tuple[list[int], float]:
    """Nonzero P of degree < n with coefficients in the set minimizing |P(xi)|.

    The value is the canonical split evaluation (ascending partial sums below
    and from floor(n/2), then added); ties break on the smallest coefficient
    vector read from the leading coefficient down.
    """
    coeffs = sorted(set(coeff_set))
    powers = [1.0]
    for _ in range(1, n):
        powers.append(powers[-1] * xi)
    h = n // 2

    def half(ks):
        vals = np.zeros(1)
        for k in ks:
            vals = (np.array([c * powers[k] for c in coeffs])[:, None] + vals[None, :]).ravel()
        return vals

    def digits(index, count):
        out = []
        for _ in range(count):
            index, q = divmod(index, len(coeffs))
            out.append(coeffs[q])
        return out

    lo, hi = half(range(h)), half(range(h, n))
    z = coeffs.index(0)
    zl = sum(z * len(coeffs) ** t for t in range(h))
    zh = sum(z * len(coeffs) ** t for t in range(n - h))
    order = np.argsort(hi, kind="stable")
    hs = hi[order]
    j = np.clip(np.searchsorted(hs, -lo)[:, None] + np.arange(-3, 3)[None, :], 0, len(hs) - 1)
    vals = np.abs(hs[j] + lo[:, None])
    vals[(order[j] == zh) & (np.arange(len(lo))[:, None] == zl)] = math.inf
    best = vals.min()
    cands = {(int(i), int(order[j[i, k]])) for i, k in zip(*np.nonzero(vals == best))}
    i, jj = min(cands, key=lambda c: (digits(c[0], h) + digits(c[1], n - h))[::-1])
    poly = digits(i, h) + digits(jj, n - h)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly, float(lo[i] + hi[jj])


def mahler_numpy(coeffs) -> float:
    """|lead| * prod max(1, |root|) from numpy's companion-matrix roots."""
    c = list(coeffs)
    while c[0] == 0:
        c.pop(0)
    roots = np.roots(c[::-1])
    return abs(c[-1]) * float(np.prod(np.maximum(1.0, np.abs(roots))))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def close(a, b, tol=TOL) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def same(got, want, path="") -> list[str]:
    """Differences between two reports: floats within TOL, all else equal."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [p for k in want for p in same(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in same(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool):
        return [] if close(got, want) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


class References:
    """Reference values for one workload at one seed."""

    def __init__(self, workload: str, seed: int, builder: inputs.Builder):
        self.measures = builder.measures
        self.pinned = json.loads(PINNED_FILE.read_text())
        self.expect: dict[str, object] = {}
        if workload == "quadrature":
            self._quadrature(seed)
        elif workload == "pairing":
            for op_id, name, lam, n in (
                ("pair-golden", "golden-l8", (inputs.GOLDEN_LAM,), 2),
                ("pair-line600", "line600", (0.5,), 1),
                ("pair-line12k", "line12k", (0.5,), 1),
            ):
                pts, w = self.measures[name]
                self.expect[op_id] = (pairing_lp(pts, w, lam, n, 1), name)
        elif workload == "search":
            xis = inputs.search_xis(seed)
            self.expect["search-mitm20"] = poly_search(xis[0], 20, (-1, 0, 1))
            self.expect["search-mitm13"] = poly_search(xis[1], 13, (-2, -1, 0, 1, 2))
            for k, xi in enumerate(xis):
                self.expect[f"search-bb11-{k}"] = poly_search(xi, 11, (-1, 0, 1))
            self.expect["mahler-deg40"] = mahler_numpy(inputs.DEG40)

    def _quadrature(self, seed):
        m = self.measures
        for op_id, name, r in (("avg-d1", "q1", 0.01), ("avg-d2", "q2", 0.05), ("avg-d3", "q3", 0.1)):
            self.expect[op_id] = avg_entropy_exact(*m[name], r)
        fine, cells = avg_entropy_exact(*m["qc"], 0.02)
        self.expect["avg-cond"] = (fine - avg_entropy_exact(*m["qc"], 0.1)[0], cells)
        self.expect["avg-qmc"] = avg_entropy_qmc(*m["qq"], 0.02, 2048, seed)
        # increase: lam = (0.5, 0.25), t1 = 1, t2 = 3.
        r_fine, r_coarse = np.array([0.5, 0.25]) ** 3, np.array([0.5, 0.25]) ** 1

        def cond(pts, w):
            return avg_entropy_exact(pts, w, r_fine)[0] - avg_entropy_exact(pts, w, r_coarse)[0]

        (mu_p, mu_w), (nu_p, nu_w) = m["inc-mu"], m["inc-nu"]
        conv_p = (nu_p[:, None, :] + mu_p[None, :, :]).reshape(-1, 2)
        conv_w = (nu_w[:, None] * mu_w[None, :]).ravel()
        self.expect["increase"] = (cond(nu_p, nu_w) / 2.0, cond(conv_p, conv_w) - cond(mu_p, mu_w))

    def check(self, op_id: str, report: dict) -> list[str]:
        """Problems found in one command's report; empty when it passes."""
        problems = []
        if op_id in PINNED:
            if op_id not in self.pinned:
                return [f"{op_id}: no pinned report"]
            problems += [f"{op_id}{p}" for p in same(report, self.pinned[op_id])]
        handler = getattr(self, "_check_" + op_id.split("-")[0], None)
        if handler is not None:
            problems += handler(op_id, report)
        return problems

    def _check_rw(self, op_id, rep):
        rows = {r["n"]: r for r in rep["rows"]}
        if op_id == "rw-golden":
            want = {3: 7, 17: 6764, 18: 10945, 19: 17710}
            bad = [n for n, k in want.items() if rows[n]["distinct_maps"] != k]
            if 3 * rows[3]["value"] != 2.75:
                bad.append("value(3)")
        else:
            bad = [] if rows[9]["distinct_maps"] == 14434 else [9]
        return [f"{op_id}: wrong exact count at {b}" for b in bad]

    def _check_overlap(self, op_id, rep):
        if op_id == "overlap-golden" and rep["joint"] != 3:
            return [f"{op_id}: joint depth {rep['joint']} != 3"]
        return []

    def _check_avg(self, op_id, rep):
        if op_id == "avg-qmc":
            value, err = self.expect[op_id]
            ok = close(rep["value"], value) and close(rep["error_bound"], err)
            ok = ok and rep["method"] == "qmc" and rep["offsets_used"] == 2048
        else:
            value, cells = self.expect[op_id]
            ok = close(rep["value"], value) and rep["offsets_used"] == cells
            ok = ok and rep["method"] == "exact"
        return [] if ok else [f"{op_id}: {rep} does not match reference {self.expect[op_id]}"]

    def _check_increase(self, op_id, rep):
        beta, gain = self.expect[op_id]
        if close(rep["beta"], beta) and close(rep["gain"], gain) and rep["method"] == "exact":
            return []
        return [f"{op_id}: {rep} does not match reference beta={beta} gain={gain}"]

    def _check_pair(self, op_id, rep):
        (opt, lo, hi), name = self.expect[op_id]
        pts, w = self.measures[name]
        problems = []
        paired, gap = rep["paired_mass"], rep["optimality_gap"]
        if gap == 0.0:
            if abs(paired - opt) > 1e-9:
                problems.append(f"paired mass {paired!r} != LP optimum {opt!r}")
        elif not (paired <= opt + 1e-9 <= paired + gap + 2e-9):
            problems.append(f"LP optimum {opt!r} outside [{paired!r}, {paired + gap!r}]")
        if abs(paired + rep["theta_mass"] - math.fsum(w.tolist())) > 1e-12:
            problems.append("mass identity fails")
        if rep["window_low"] != lo or not close(rep["window_high"], hi, 1e-12):
            problems.append("window differs")
        mass = {}
        for p, wt in zip(map(tuple, pts.tolist()), w.tolist()):
            mass[p] = mass.get(p, 0.0) + wt
        for row in rep["rows"]:
            if not (lo - 1e-9 <= row["rescaled_distance"] <= hi + 1e-9) or row["mass"] <= 0:
                problems.append(f"pair outside its window: {row}")
                break
            for end in (tuple(row["x"]), tuple(row["y"])):
                if end not in mass:
                    problems.append(f"pair endpoint {end} is not an atom")
                    break
                mass[end] -= row["mass"] / 2.0
        if any(v < -1e-12 for v in mass.values()):
            problems.append("pairs use more mass than an atom has")
        return [f"{op_id}: {p}" for p in problems]

    def _check_search(self, op_id, rep):
        poly, value = self.expect[op_id]
        if rep["poly"] == poly and rep["value"] == value and rep["abs_value"] == abs(value):
            return []
        return [f"{op_id}: got {rep['poly']} {rep['value']!r}, reference {poly} {value!r}"]

    def _check_mahler(self, op_id, rep):
        if op_id == "mahler-lehmer":
            ok = abs(rep["mahler"] - LEHMER_MAHLER) <= 1e-9
        else:
            ok = close(rep["mahler"], self.expect[op_id], 1e-8)
        return [] if ok else [f"{op_id}: Mahler measure {rep['mahler']!r} is off"]
