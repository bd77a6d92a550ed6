"""Per-layer spans recorded from outside the program.

The traced run replaces each listed public function of bconv, wherever its
callers look it up, with a wrapper that records one span per call: name,
op id, parent span, start, end, self time (duration minus the child spans)
and counts taken from the call's arguments and return value.  Spans stay in
memory and are written as JSONL when the run ends.  Only the traced run
installs the wrappers, and it removes them between traced passes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rw(a, k, out):
    return {"states": out.distinct_maps, "words": _arg(a, k, 0, "spec").n_maps ** _arg(a, k, 1, "n")}


def _level(a, k, out):
    return {"words": _arg(a, k, 0, "spec").n_maps ** _arg(a, k, 1, "n"), "atoms": out.n_atoms}


def _avg(a, k, out):
    if out.method == "exact":
        return {"cells": out.offsets_used, "cell_atoms": out.offsets_used * _arg(a, k, 0, "mu").n_atoms}
    return {"qmc_offsets": out.offsets_used}


def _decompose(a, k, out):
    return {"atoms": _arg(a, k, 0, "nu").n_atoms, "pairs": len(out.pairs), "gap": out.optimality_gap}


def _family(a, k, out):
    return {"family": len(set(_arg(a, k, 2, "coeff_set"))) ** _arg(a, k, 1, "n")}


# Span name -> (module, attribute path, counts(args, kwargs, result), count names).
# The span name is the layer module and function; counts are summed per pass.
# read_atoms_csv.rows counts the atoms it returns, i.e. rows after the merge
# of equal points, since counts come from arguments and return values only.
LAYERS = {
    "cli.dispatch": ("bconv.cli", "dispatch", None, ()),
    "selfaffine.rw_entropy_upper": ("bconv.selfaffine", "rw_entropy_upper", _rw, ("states", "words")),
    "selfaffine.build_level_n": ("bconv.selfaffine", "build_level_n", _level, ("words", "atoms")),
    "selfaffine.kappa_estimate": ("bconv.selfaffine", "kappa_estimate", None, ()),
    "selfaffine.separation_profile": ("bconv.selfaffine", "separation_profile", None, ()),
    "selfaffine.non_saturation_profile": ("bconv.selfaffine", "non_saturation_profile", None, ()),
    "algebraic.exact_overlap_depth": ("bconv.algebraic", "exact_overlap_depth", None, ()),
    "entropy.Keying.key_matrix": (
        "bconv.entropy", "Keying.key_matrix", lambda a, k, out: {"rows": out.shape[0]}, ("rows",)),
    "entropy.partition_entropy": ("bconv.entropy", "partition_entropy", None, ()),
    "entropy.conditional_entropy": ("bconv.entropy", "conditional_entropy", None, ()),
    "measures.bernoulli_power": ("bconv.measures", "bernoulli_power", None, ()),
    "decompose.tube_entropy_selfconv": ("bconv.decompose", "tube_entropy_selfconv", None, ()),
    "entropy.avg_entropy": ("bconv.entropy", "avg_entropy", _avg, ("cells", "cell_atoms", "qmc_offsets")),
    "entropy.avg_cond_entropy": ("bconv.entropy", "avg_cond_entropy", None, ()),
    "decompose.entropy_increase_gap": ("bconv.decompose", "entropy_increase_gap", None, ()),
    "measures.convolve": (
        "bconv.measures", "convolve", lambda a, k, out: {"atoms_out": out.n_atoms}, ("atoms_out",)),
    "decompose.bernoulli_decompose": (
        "bconv.decompose", "bernoulli_decompose", _decompose, ("atoms", "pairs", "gap")),
    "scales.s_sequence": ("bconv.scales", "s_sequence", None, ()),
    "algebraic.min_value_poly_search": ("bconv.algebraic", "min_value_poly_search", _family, ("family",)),
    "algebraic.approximate_parameters": ("bconv.algebraic", "approximate_parameters", None, ()),
    "algebraic.AlgebraicNumber.from_root_near": (
        "bconv.algebraic", "AlgebraicNumber.from_root_near", None, ()),
    "algebraic.mahler_measure": (
        "bconv.algebraic", "mahler_measure", lambda a, k, out: {"degree": _arg(a, k, 0, "poly").degree},
        ("degree",)),
    "measures.read_atoms_csv": (
        "bconv.measures", "read_atoms_csv", lambda a, k, out: {"rows": out.n_atoms}, ("rows",)),
}


def metric_names() -> list[tuple[str, str]]:
    """(per-layer metric name, unit) in report order."""
    out = []
    for name, (_, _, _, counts) in LAYERS.items():
        out += [(f"{name}.self_s", "s"), (f"{name}.calls", "count")]
        out += [(f"{name}.{c}", "mass" if c == "gap" else "count") for c in counts]
    return out + [("trace.overhead_ratio", "ratio")]


class Recorder:
    """Holds finished spans and the stack of open ones."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[list] = []  # [span index, time covered by child spans]
        self.op = None

    def wrap(self, name, fn, counts):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.spans)
            span = {"name": name, "op": rec.op, "parent": rec.stack[-1][0] if rec.stack else None}
            rec.spans.append(span)
            frame = [idx, 0.0]
            rec.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                if rec.stack:
                    rec.stack[-1][1] += t1 - t0
                span.update(start=t0, end=t1, self_s=t1 - t0 - frame[1])
            if counts is not None:
                span.update(counts(args, kwargs, out))
            return out

        return traced

    def install(self):
        """Wrap every layer function at its definition and at each alias
        (any bconv module attribute bound to the same object).  Returns the
        undo function."""
        undo = []
        for name, (module, attr, counts, _) in LAYERS.items():
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self.wrap(name, fn, counts)
            sites = [(owner, leaf, raw)] + [
                (mod, key, val)
                for mod_name, mod in list(sys.modules.items())
                if mod_name.split(".")[0] == "bconv" and mod is not owner
                for key, val in vars(mod).items()
                if val is fn
            ]
            for site, key, old in sites:
                setattr(site, key, staticmethod(wrapped) if isinstance(old, staticmethod) else wrapped)
                undo.append((site, key, old))

        def uninstall():
            for site, key, old in reversed(undo):
                setattr(site, key, old)

        return uninstall

    def pass_metrics(self, ops: set) -> dict:
        """Per-layer totals over the spans of the given op ids."""
        out = {}
        for name, (_, _, _, counts) in LAYERS.items():
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
            for c in counts:
                out[f"{name}.{c}"] = 0
        for s in self.spans:
            if s["op"] in ops:
                out[f"{s['name']}.self_s"] += s["self_s"]
                out[f"{s['name']}.calls"] += 1
                for c in LAYERS[s["name"]][3]:
                    out[f"{s['name']}.{c}"] += s.get(c, 0)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
