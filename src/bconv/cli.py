"""Command-line front end.

One subcommand per study: dimension estimates, partition and average
entropy, random-walk entropy, overlap and separation scans, non-saturation
profiling, Bernoulli-pair decomposition, entropy-increase and tube-entropy
experiments, Mahler measure, small-value polynomial search, and parameter
approximation.

Reports are written as JSON (default) or CSV.  Output depends only on the
inputs and the declared seed, never on wall-clock or iteration order, so
reruns are byte-identical.  Exit codes: 0 success, 1 input error, 2 budget
refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import decompose as dec
from . import entropy as ent
from . import selfaffine as sa
from .algebraic import (
    IntPolynomial,
    approximate_parameters,
    exact_overlap_depth,
    mahler_measure,
    min_value_poly_search,
)
from .errors import BudgetExceededError, UncertifiedError
from .measures import read_atoms_csv
from .scales import ScaleVector
from .selfaffine import SystemSpec

__all__ = ["load_system_spec", "dispatch", "main"]


def _numbers(value, refusal: str) -> tuple:
    """A nonempty JSON list of numbers as a tuple; ValueError(refusal) otherwise."""
    if not value or not isinstance(value, list) or any(type(v) not in (int, float) for v in value):
        raise ValueError(refusal)
    return tuple(value)


def load_system_spec(path) -> SystemSpec:
    """Read a system from JSON: lambda, maps (a, p), optional minpolys."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed system spec: {e}") from None
    if not isinstance(raw, dict):
        raise ValueError("system spec must be a JSON object")
    if "lambda" not in raw or "maps" not in raw:
        raise ValueError("system spec needs 'lambda' and 'maps'")
    lam = _numbers(raw["lambda"], "'lambda' must be a nonempty list of numbers")
    maps = raw["maps"]
    if not isinstance(maps, list) or len(maps) < 2:
        raise ValueError("'maps' must list at least two maps")
    if not all(isinstance(entry, dict) and "a" in entry and "p" in entry for entry in maps):
        raise ValueError("each map needs 'a' and 'p'")
    trans = tuple(_numbers(entry["a"], "each 'a' must be a nonempty list of integers") for entry in maps)
    probs = _numbers([entry["p"] for entry in maps], "each 'p' must be a number")
    minpolys = raw.get("minpolys")
    if minpolys is not None:
        refusal = "'minpolys' must be a list of nonempty integer lists"
        if not isinstance(minpolys, list):
            raise ValueError(refusal)
        minpolys = tuple(IntPolynomial(_numbers(c, refusal)) for c in minpolys)
    return SystemSpec(ScaleVector(lam), trans, probs, minpolys)


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _parse_range(text: str) -> list[int]:
    """'3..12' -> [3..12] inclusive; '7' -> [7]."""
    if ".." in text:
        a, b = text.split("..", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError("range end before start")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_one(text: str) -> int:
    """The value of a single-valued --n; a range is refused."""
    values = _parse_range(text)
    if len(values) != 1:
        raise ValueError(f"--n takes one value for this command, not the range {text}")
    return values[0]


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _quad_from_args(args) -> ent.QuadratureSpec:
    """The quadrature the flags ask for; a flag the chosen mode ignores is refused."""
    if args.quad == "qmc":
        if args.budget is not None:
            raise ValueError("--budget bounds exact quadrature cells; --quad qmc does not use it")
    else:
        unused = [f for f, v in (("--offsets", args.offsets), ("--seed", args.seed)) if v is not None]
        if unused:
            raise ValueError(f"{', '.join(unused)}: used only with --quad qmc")
    kw = {}
    if args.quad:
        kw["mode"] = args.quad
    if args.offsets is not None:
        kw["offsets"] = args.offsets
    if args.seed is not None:
        kw["seed"] = args.seed
    if args.budget is not None:
        kw["cell_budget"] = args.budget
    return ent.QuadratureSpec(**kw)


def _budget_kw(args) -> dict:
    """Forward --budget only when it was given, so each callee keeps its default."""
    return {} if args.budget is None else {"budget": args.budget}


def _lam_from_args(args) -> ScaleVector:
    if getattr(args, "lam", None):
        return ScaleVector(_parse_floats(args.lam))
    if getattr(args, "spec", None):
        return load_system_spec(args.spec).lam
    raise ValueError("a contraction vector is required (--lam or --spec)")


def _report_bytes(payload: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    # CSV: row-shaped payloads write their rows; scalar payloads write one row.
    lines = []
    if "columns" in payload and "rows" in payload:
        cols = payload["columns"]
        lines.append(",".join(cols))
        for row in payload["rows"]:
            lines.append(",".join(_cell(row[c]) for c in cols))
    else:
        keys = sorted(payload)
        lines.append(",".join(keys))
        lines.append(",".join(_cell(payload[k]) for k in keys))
    return ("\n".join(lines) + "\n").encode()


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # normalizes numpy scalars
    if isinstance(v, (list, tuple)):
        return '"' + " ".join(_cell(x) for x in v) + '"'
    return str(v)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_dim(args) -> dict:
    spec = load_system_spec(args.spec)
    lyap = sa.lyapunov_dimension(spec)
    rows = []
    for n in _parse_range(args.n):
        rep = sa.kappa_estimate(spec, n, **_budget_kw(args))
        rows.append(
            {
                "n": n,
                "entropy_bits": rep.entropy_bits,
                "kappa": rep.kappa,
                "dim_estimate": sa.dim_from_kappa(rep.kappa, spec),
                "method": "partition",
            }
        )
    return {
        "columns": ["n", "entropy_bits", "kappa", "dim_estimate", "method"],
        "rows": rows,
        "lyapunov": lyap.dim_lyapunov,
        "gamma": lyap.gamma,
        "m": lyap.m,
        "prob_entropy": lyap.prob_entropy,
    }


def _cmd_entropy(args) -> dict:
    mu = read_atoms_csv(args.measure)
    lam = _lam_from_args(args)
    n = _parse_one(args.n)
    value = ent.partition_entropy(mu, ent.en(n, lam))
    return {"value": value, "n": n, "method": "partition"}


def _cmd_avg_entropy(args) -> dict:
    mu = read_atoms_csv(args.measure)
    quad = _quad_from_args(args)
    r = ScaleVector(_parse_floats(args.r)) if "," in args.r else float(args.r)
    if args.r2 is not None:
        r2 = ScaleVector(_parse_floats(args.r2)) if "," in args.r2 else float(args.r2)
        rep = ent.avg_cond_entropy(mu, r, r2, quad)
    else:
        rep = ent.avg_entropy(mu, r, quad)
    return {
        "value": rep.value,
        "method": rep.method,
        "offsets_used": rep.offsets_used,
        "error_bound": rep.error_bound,
    }


def _cmd_rw_entropy(args) -> dict:
    spec = load_system_spec(args.spec)
    rows = []
    for n in _parse_range(args.n):
        rep = sa.rw_entropy_upper(spec, n)
        rows.append(
            {
                "n": n,
                "value": rep.value,
                "arithmetic": "exact",
                "distinct_maps": rep.distinct_maps,
                "collision_note": (
                    "collision detected" if rep.collisions_detected else "no collision detected"
                ),
            }
        )
    return {
        "columns": ["n", "value", "arithmetic", "distinct_maps", "collision_note"],
        "rows": rows,
    }


def _cmd_overlap(args) -> dict:
    spec = load_system_spec(args.spec)
    n_max = _parse_one(args.n)
    rep = exact_overlap_depth(spec, n_max, **_budget_kw(args))
    return {
        "per_axis": list(rep.per_axis),
        "joint": rep.joint,
        "n_max": rep.n_max,
    }


def _cmd_separation(args) -> dict:
    spec = load_system_spec(args.spec)
    n_max = _parse_one(args.n)
    rep = sa.separation_profile(spec, n_max, **_budget_kw(args))
    rows = []
    for n in range(1, n_max + 1):
        for j in range(spec.dim):
            rows.append(
                {
                    "n": n,
                    "axis": j + 1,
                    "gap": rep.per_axis[n - 1][j],
                    "gap_rate": rep.gap_rate[n - 1][j],
                }
            )
    return {"columns": ["n", "axis", "gap", "gap_rate"], "rows": rows}


def _cmd_nonsat(args) -> dict:
    mu = read_atoms_csv(args.measure)
    lam = _lam_from_args(args)
    profile = sa.non_saturation_profile(mu, lam, args.eps, args.m, _parse_range(args.n))
    rows = [
        {
            "axis": j,
            "n": n,
            "value": v,
            "chi": profile.chi[j - 1],
            "margin": profile.chi[j - 1] - args.eps - v,
        }
        for j, n, v in profile.rows
    ]
    return {
        "columns": ["axis", "n", "value", "chi", "margin"],
        "rows": rows,
        "non_saturated": profile.non_saturated,
        "eps": args.eps,
        "m": args.m,
    }


def _cmd_decompose(args) -> dict:
    nu = read_atoms_csv(args.measure)
    lam = _lam_from_args(args)
    n = _parse_one(args.n)
    out = dec.bernoulli_decompose(nu, lam, n, args.big_n, args.eps)
    rows = []
    for p in out.pairs:
        rows.append(
            {
                "x": list(p.x),
                "y": list(p.y),
                "mass": p.mass,
                "rescaled_distance": p.rescaled_distance,
                "statement_distance": p.statement_distance,
                "in_statement_window": p.in_statement_window,
            }
        )
    return {
        "columns": [
            "x",
            "y",
            "mass",
            "rescaled_distance",
            "statement_distance",
            "in_statement_window",
        ],
        "rows": rows,
        "paired_mass": out.paired_mass,
        "theta_mass": out.theta.mass,
        "window_low": out.window_low,
        "window_high": out.window_high,
        "method": out.method,
        "optimality_gap": out.optimality_gap,
    }


def _cmd_increase(args) -> dict:
    mu = read_atoms_csv(args.measure)
    nu = read_atoms_csv(args.measure2)
    lam = _lam_from_args(args)
    quad = _quad_from_args(args)
    rep = dec.entropy_increase_gap(mu, nu, lam, args.t1, args.t2, quad)
    return {
        "beta": rep.beta,
        "gain": rep.gain,
        "t1": rep.t1,
        "t2": rep.t2,
        "method": rep.method,
    }


def _cmd_tube(args) -> dict:
    lam = _lam_from_args(args)
    x = _parse_floats(args.x)
    y = _parse_floats(args.y)
    rep = dec.tube_entropy_selfconv(x, y, args.k, lam, args.m, args.level)
    rows = [
        {"axis": r.axis, "a": r.a, "value": r.value, "chi": r.chi, "method": "partition"}
        for r in rep.rows
    ]
    return {
        "columns": ["axis", "a", "value", "chi", "method"],
        "rows": rows,
        "k": rep.k,
        "m": rep.m,
        "level": rep.level,
        "top_axis": rep.top_axis,
    }


def _cmd_mahler(args) -> dict:
    m = mahler_measure(IntPolynomial(_parse_ints(args.poly)))
    return {"mahler": float(m), "error_bound": m.error_bound, "method": m.method}


def _cmd_poly_search(args) -> dict:
    res = min_value_poly_search(
        args.xi, args.n_int, _parse_ints(args.coeffs), args.strategy, **_budget_kw(args)
    )
    return {
        "poly": list(res.poly.coeffs),
        "value": res.value,
        "abs_value": abs(res.value),
        "strategy": res.strategy,
    }


def _cmd_approx(args) -> dict:
    spec = load_system_spec(args.spec)
    n = _parse_one(args.n)
    rep = approximate_parameters(spec.lam.entries, n, spec.axis_difference_sets(), args.top_k)
    rows = []
    for a in rep.axes:
        rows.append(
            {
                "axis": a.axis,
                "status": a.status,
                "poly": list(a.poly.coeffs),
                "search_value": a.search_value,
                "root": a.eta_float,
                "distance": a.distance,
            }
        )
    payload = {
        "columns": ["axis", "status", "poly", "search_value", "root", "distance"],
        "rows": rows,
        "eta": list(rep.eta) if rep.eta is not None else None,
        "in_omega": rep.in_omega,
        "max_distance": rep.max_distance,
    }
    if args.rw_n is not None and rep.eta is not None and rep.in_omega:
        eta_spec = SystemSpec(
            ScaleVector(rep.eta),
            spec.translations,
            spec.probs,
            tuple(a.eta.minpoly for a in rep.axes),
        )
        payload["rw_entropy_upper"] = sa.rw_entropy_upper(eta_spec, args.rw_n).value
        payload["rw_n"] = args.rw_n
    return payload


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache  # handlers look library functions up at call time
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bconv", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, budget=False, quad=False, spec=False, measure=False, lam=False, n=None):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        if budget:
            p.add_argument("--budget", type=int, default=None, help="enumeration or cell budget")
        if quad:
            p.add_argument("--quad", choices=("exact", "qmc"), default=None)
            p.add_argument("--offsets", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        if spec:
            p.add_argument("--spec", required=True, help="system spec JSON")
        if measure:
            p.add_argument("--measure", required=True, help="atom CSV (header x1,...,xd,w)")
        if lam:
            p.add_argument("--lam", default=None, help="comma-separated lambda entries")
            if not spec:
                p.add_argument("--spec", default=None, help="system spec JSON (for lambda)")
        if n:
            p.add_argument("--n", required=True, help=n)

    p = sub.add_parser("dim", help="level-n entropy dimension estimates")
    common(p, budget=True, spec=True, n="level or range A..B")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("entropy", help="partition entropy at level n")
    common(p, measure=True, lam=True, n="partition level")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("avg-entropy", help="average entropy at a scale")
    common(p, budget=True, quad=True, measure=True)
    p.add_argument("--r", required=True, help="scale (scalar or comma-separated)")
    p.add_argument("--r2", default=None, help="coarse scale for conditional entropy")
    p.set_defaults(handler=_cmd_avg_entropy)

    p = sub.add_parser("rw-entropy", help="random-walk entropy upper bounds")
    common(p, spec=True, n="word length or range A..B")
    p.set_defaults(handler=_cmd_rw_entropy)

    p = sub.add_parser("overlap", help="first exact word coincidence depth")
    common(p, budget=True, spec=True, n="max depth")
    p.set_defaults(handler=_cmd_overlap)

    p = sub.add_parser("separation", help="minimal word-value gaps")
    common(p, budget=True, spec=True, n="max depth")
    p.set_defaults(handler=_cmd_separation)

    p = sub.add_parser("nonsat", help="non-saturation profile")
    common(p, measure=True, lam=True, n="level or range A..B")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--m", type=int, required=True, help="window size")
    p.set_defaults(handler=_cmd_nonsat)

    p = sub.add_parser("decompose", help="Bernoulli-pair decomposition")
    common(p, measure=True, lam=True, n="scale index n")
    p.add_argument("--N", dest="big_n", type=int, required=True, help="window exponent")
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("increase", help="entropy gain from convolution")
    common(p, budget=True, quad=True, measure=True, lam=True)
    p.add_argument("--measure2", required=True, help="convolving measure (atom CSV)")
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.set_defaults(handler=_cmd_increase)

    p = sub.add_parser("tube", help="tube entropy of a pair self-convolution")
    common(p, lam=True)
    p.add_argument("--x", required=True, help="first endpoint, comma-separated")
    p.add_argument("--y", required=True, help="second endpoint, comma-separated")
    p.add_argument("--k", type=int, required=True, help="self-convolution power")
    p.add_argument("--m", type=int, required=True, help="window size")
    p.add_argument("--l", dest="level", type=int, default=0, help="base level")
    p.set_defaults(handler=_cmd_tube)

    p = sub.add_parser("mahler", help="Mahler measure of an integer polynomial")
    common(p)
    p.add_argument("--poly", required=True, help="coefficients, constant term first")
    p.set_defaults(handler=_cmd_mahler)

    p = sub.add_parser("poly-search", help="minimize |P(xi)| over bounded families")
    common(p, budget=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--n", dest="n_int", type=int, required=True, help="degree bound")
    p.add_argument("--coeffs", required=True, help="coefficient set, comma-separated")
    p.add_argument(
        "--strategy",
        choices=("exhaustive", "meet-in-middle", "branch-and-bound"),
        default="meet-in-middle",
    )
    p.set_defaults(handler=_cmd_poly_search)

    p = sub.add_parser("approx", help="replace lambda by nearby algebraic parameters")
    common(p, spec=True, n="search degree bound")
    p.add_argument("--top-k", type=int, default=32)
    p.add_argument("--rw-n", type=int, default=None, help="also bound rw entropy at this length")
    p.set_defaults(handler=_cmd_approx)

    return top


# Flags whose values may start with '-' (coefficient lists, coordinates,
# exponents).  argparse would read such a value as an option, so fold the
# pair into --flag=value form before parsing.
_SIGNED_VALUE_FLAGS = frozenset(
    {"--poly", "--coeffs", "--x", "--y", "--lam", "--t1", "--t2", "--xi", "--r", "--r2", "--eps"}
)


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SIGNED_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def dispatch(argv: Sequence[str]) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except SystemExit as e:  # argparse reports its own input errors
        return 0 if e.code in (0, None) else 1
    try:
        payload = args.handler(args)
        data = _report_bytes(payload, args.format)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data.decode())
        return 0
    except BudgetExceededError as e:
        print(f"budget refused: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, UncertifiedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
