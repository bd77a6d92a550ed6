"""Seeded inputs and command lists for the four benchmark workloads.

Everything here uses numpy only and never imports bconv, so a change to the
program (for example to how level-n measures merge atoms) cannot change what
the benchmark feeds it.  Level-n word measures are written unmerged, one row
per word.

A workload is a list of ops.  Each op is one `bconv` command line with the
exit code it must return; the literal "{out}" in an argv is replaced by the
report path of the pass that runs it.  Each workload also has a list of tiny
ops that make the first cold call of every command kind it uses; the set-up
probe times those.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN_LAM = 0.6180339887498949
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
# A fixed degree-40 {-1,0,1} polynomial with Mahler cost near the middle of
# its family.  That cost varies threefold from one random draw to the next,
# which would swamp every other change in the search workload, so it is not
# drawn from the seed.
DEG40 = (
    -1, -1, 0, -1, -1, 0, 1, 0, 1, 1, 0, 1, -1, 0, 0, 0, 0, 1, -1, 1, 1,
    -1, 0, -1, 0, 1, -1, 1, 1, 0, -1, -1, 0, 0, 1, 0, 0, 1, 0, -1, 1,
)

SPECS = {
    "golden": {
        "lambda": [GOLDEN_LAM],
        "maps": [{"a": [1], "p": 0.5}, {"a": [-1], "p": 0.5}],
        "minpolys": [[-1, 1, 1]],
    },
    "third": {
        "lambda": [0.3333333333333333],
        "maps": [{"a": [1], "p": 0.5}, {"a": [-1], "p": 0.5}],
        "minpolys": [[-1, 3]],
    },
    "tri2d": {
        "lambda": [GOLDEN_LAM, 0.3819660112501051],
        "maps": [{"a": [0, 0], "p": 1 / 3}, {"a": [1, 0], "p": 1 / 3}, {"a": [0, 1], "p": 1 / 3}],
        "minpolys": [[-1, 1, 1], [1, -3, 1]],
    },
}

def word_points(spec: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unmerged level-n word values and weights, digit k carrying lambda^k."""
    lam = np.asarray(spec["lambda"], dtype=np.float64)
    a = np.asarray([m["a"] for m in spec["maps"]], dtype=np.float64)
    p = np.asarray([m["p"] for m in spec["maps"]], dtype=np.float64)
    pts = np.zeros((1, len(lam)))
    wts = np.ones(1)
    lam_pow = np.ones(len(lam))
    for _ in range(n):
        pts = ((a * lam_pow)[:, None, :] + pts[None, :, :]).reshape(-1, len(lam))
        wts = (p[:, None] * wts[None, :]).ravel()
        lam_pow = lam_pow * lam
    return pts, wts


def write_csv(path: Path, points: np.ndarray, weights: np.ndarray) -> None:
    """Atom CSV with header x1,...,xd,w; floats written round-trip exact."""
    d = points.shape[1]
    lines = [",".join([f"x{j + 1}" for j in range(d)] + ["w"])]
    for row, w in zip(points.tolist(), weights.tolist()):
        lines.append(",".join(repr(v) for v in row) + "," + repr(w))
    path.write_text("\n".join(lines) + "\n")


def random_atoms(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """n atoms uniform in the unit cube with positive weights summing to 1."""
    pts = rng.uniform(0.0, 1.0, (n, d))
    w = rng.uniform(0.1, 1.0, n)
    return pts, w / w.sum()


def line_atoms(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n atoms on a line at spacing 0.5 with +-0.1 jitter, random weights."""
    x = np.arange(n) * 0.5 + rng.uniform(-0.1, 0.1, n)
    w = rng.uniform(0.1, 1.0, n)
    return x[:, None], w / w.sum()


class Builder:
    """Writes input files into a directory and remembers their arrays."""

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.dir = workdir / "inputs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.measures: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def spec(self, name: str) -> str:
        path = self.dir / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(SPECS[name]))
        return str(path)

    def measure(self, name: str, points: np.ndarray, weights: np.ndarray, shuffle=False) -> str:
        if shuffle:
            perm = self.rng.permutation(len(weights))
            points, weights = points[perm], weights[perm]
        path = self.dir / f"{name}.csv"
        write_csv(path, points, weights)
        self.measures[name] = (points, weights)
        return str(path)


def _op(op_id: str, *argv, expect: int = 0) -> dict:
    argv = [str(a) for a in argv]
    if expect == 0:
        argv += ["--out", "{out}"]
    return {"id": op_id, "argv": argv, "expect": expect}


def _words(b: Builder) -> tuple[list, list]:
    golden, third, tri2d = b.spec("golden"), b.spec("third"), b.spec("tri2d")
    l11 = b.measure("tri2d-l11", *word_points(SPECS["tri2d"], 11), shuffle=True)
    ops = [
        _op("rw-golden", "rw-entropy", "--spec", golden, "--n", "3..19"),
        _op("rw-tri2d", "rw-entropy", "--spec", tri2d, "--n", "4..9"),
        _op("overlap-golden", "overlap", "--spec", golden, "--n", 12),
        _op("overlap-tri2d", "overlap", "--spec", tri2d, "--n", 10),
        _op("separation-tri2d", "separation", "--spec", tri2d, "--n", 10),
        _op("dim-third", "dim", "--spec", third, "--n", "8..15"),
        _op("nonsat-tri2d", "nonsat", "--measure", l11, "--spec", tri2d,
            "--eps", 0.1, "--m", 3, "--n", "2..8"),
        _op("tube", "tube", "--lam", "0.5,0.25", "--x", "0,0", "--y", "1,0",
            "--k", 4096, "--m", 6),
        _op("probe-dim", "dim", "--spec", third, "--n", 30, expect=2),
    ]
    l2 = b.measure("tri2d-l2", *word_points(SPECS["tri2d"], 2))
    setup = [
        _op("rw", "rw-entropy", "--spec", golden, "--n", 3),
        _op("overlap", "overlap", "--spec", tri2d, "--n", 2),
        _op("separation", "separation", "--spec", tri2d, "--n", 2),
        _op("dim", "dim", "--spec", third, "--n", 2),
        _op("nonsat", "nonsat", "--measure", l2, "--spec", tri2d, "--eps", 0.1, "--m", 1, "--n", 1),
        _op("tube", "tube", "--lam", "0.5,0.25", "--x", "0,0", "--y", "1,0", "--k", 4, "--m", 1),
    ]
    return ops, setup


def _quadrature(b: Builder) -> tuple[list, list]:
    rng = b.rng
    q1 = b.measure("q1", *random_atoms(rng, 2000, 1))
    q2 = b.measure("q2", *random_atoms(rng, 200, 2))
    q3 = b.measure("q3", *random_atoms(rng, 50, 3))
    qc = b.measure("qc", *random_atoms(rng, 100, 2))
    mu = b.measure("inc-mu", *random_atoms(rng, 12, 2))
    nu = b.measure("inc-nu", *random_atoms(rng, 10, 2))
    qq = b.measure("qq", *random_atoms(rng, 300, 2))
    qp = b.measure("qp", *random_atoms(rng, 400, 3))
    ops = [
        _op("avg-d1", "avg-entropy", "--measure", q1, "--r", 0.01),
        _op("avg-d2", "avg-entropy", "--measure", q2, "--r", 0.05),
        _op("avg-d3", "avg-entropy", "--measure", q3, "--r", 0.1),
        _op("avg-cond", "avg-entropy", "--measure", qc, "--r", 0.02, "--r2", 0.1),
        _op("increase", "increase", "--measure", mu, "--measure2", nu, "--lam", "0.5,0.25",
            "--t1", 1, "--t2", 3),
        _op("avg-qmc", "avg-entropy", "--measure", qq, "--r", 0.02, "--quad", "qmc",
            "--offsets", 2048, "--seed", b.seed),
        _op("probe-cells", "avg-entropy", "--measure", qp, "--r", 0.01, expect=2),
    ]
    tiny = b.measure("tiny2", *random_atoms(rng, 5, 2))
    tiny_nu = b.measure("tiny2b", *random_atoms(rng, 3, 2))
    setup = [
        _op("avg", "avg-entropy", "--measure", tiny, "--r", 0.1),
        _op("cond", "avg-entropy", "--measure", tiny, "--r", 0.1, "--r2", 0.5),
        _op("increase", "increase", "--measure", tiny, "--measure2", tiny_nu, "--lam", "0.5,0.25",
            "--t1", 1, "--t2", 2),
        _op("qmc", "avg-entropy", "--measure", tiny, "--r", 0.1, "--quad", "qmc",
            "--offsets", 16, "--seed", b.seed),
    ]
    return ops, setup


def _pairing(b: Builder) -> tuple[list, list]:
    golden = b.spec("golden")
    l8 = b.measure("golden-l8", *word_points(SPECS["golden"], 8), shuffle=True)
    line600 = b.measure("line600", *line_atoms(b.rng, 600))
    line12k = b.measure("line12k", *line_atoms(b.rng, 12_000))
    ops = [
        _op("pair-golden", "decompose", "--measure", l8, "--spec", golden,
            "--n", 2, "--N", 1, "--eps", 0.05),
        _op("pair-line600", "decompose", "--measure", line600, "--lam", 0.5,
            "--n", 1, "--N", 1, "--eps", 0.05),
        _op("pair-line12k", "decompose", "--measure", line12k, "--lam", 0.5,
            "--n", 1, "--N", 1, "--eps", 0.05),
    ]
    tiny = b.measure("tiny-line", *line_atoms(b.rng, 4))
    setup = [
        _op("decompose", "decompose", "--measure", tiny, "--lam", 0.5, "--n", 1, "--N", 1,
            "--eps", 0.05),
    ]
    return ops, setup


def search_xis(seed: int) -> list[float]:
    """Three xi, one in each third of (0.5, 0.9).

    Branch-and-bound slows as xi grows, so stratified draws keep the summed
    cost of a pass from swinging with the seed.
    """
    rng = np.random.default_rng(seed)
    return [float(0.5 + 0.4 * (k + rng.uniform()) / 3) for k in range(3)]


def _search(b: Builder) -> tuple[list, list]:
    golden, tri2d = b.spec("golden"), b.spec("tri2d")
    xs = [repr(x) for x in search_xis(b.seed)]
    ops = [
        _op("search-mitm20", "poly-search", "--xi", xs[0], "--n", 20, "--coeffs", "-1,0,1"),
        _op("search-mitm13", "poly-search", "--xi", xs[1], "--n", 13, "--coeffs", "-2,-1,0,1,2"),
        *(
            _op(f"search-bb11-{k}", "poly-search", "--xi", x, "--n", 11, "--coeffs", "-1,0,1",
                "--strategy", "branch-and-bound")
            for k, x in enumerate(xs)
        ),
        _op("approx-golden", "approx", "--spec", golden, "--n", 8, "--rw-n", 16),
        _op("approx-tri2d", "approx", "--spec", tri2d, "--n", 8),
        _op("mahler-lehmer", "mahler", "--poly", ",".join(map(str, LEHMER))),
        _op("mahler-deg40", "mahler", "--poly", ",".join(map(str, DEG40))),
        _op("probe-search", "poly-search", "--xi", xs[2], "--n", 30, "--coeffs", "-1,0,1",
            "--strategy", "exhaustive", expect=2),
    ]
    setup = [
        _op("mitm", "poly-search", "--xi", xs[0], "--n", 4, "--coeffs", "-1,0,1"),
        _op("bb", "poly-search", "--xi", xs[0], "--n", 4, "--coeffs", "-1,0,1",
            "--strategy", "branch-and-bound"),
        _op("approx", "approx", "--spec", golden, "--n", 3, "--rw-n", 3),
        _op("mahler", "mahler", "--poly", "1,1,1"),
    ]
    return ops, setup


WORKLOADS = {"words": _words, "quadrature": _quadrature, "pairing": _pairing, "search": _search}


def build(workload: str, seed: int, workdir: Path) -> tuple[list, list, Builder]:
    """Write the workload's inputs; return (ops, set-up ops, builder)."""
    b = Builder(workdir, seed)
    ops, setup = WORKLOADS[workload](b)
    return ops, setup, b
