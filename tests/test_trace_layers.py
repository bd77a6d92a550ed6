"""The traced benchmark wraps bconv functions by module and attribute path
(perfbench/tracing.py LAYERS); a deleted or moved layer function must fail
here, not only in a traced benchmark run.  So must a layer whose signature
or result no longer fits its count function, or a wrapper that changes what
a command reports."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bconv import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"bconv_perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_resolves():
    layers = _perfbench("tracing").LAYERS
    assert layers
    for name, (module, attr, _, _) in layers.items():
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = owner.__dict__[part]
        assert leaf in owner.__dict__, name
        assert callable(getattr(owner, leaf)), name


def _bindings():
    """Every attribute of every bconv module and class, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "bconv":
            continue
        for key, val in vars(mod).items():
            out[(mod_name, key)] = val
            if isinstance(val, type) and val.__module__ == mod_name:
                for ckey, cval in vars(val).items():
                    out[(mod_name, key, ckey)] = cval
    return out


def _run_ops(ops, outdir):
    outdir.mkdir()
    codes = []
    for op in ops:
        argv = [str(outdir / f"{op['id']}.json") if a == "{out}" else a for a in op["argv"]]
        codes.append(cli.dispatch(argv))  # looked up per call, so a wrapped dispatch is seen
    return codes, {p.name: p.read_bytes() for p in outdir.iterdir()}


@pytest.mark.filterwarnings("ignore::bconv.errors.BoundaryHazardWarning")
@pytest.mark.parametrize("workload", ["words", "quadrature", "pairing", "search"])
def test_traced_setup_ops_report_as_plain(workload, tmp_path):
    _, setup, _ = _perfbench("inputs").build(workload, 0, tmp_path)
    plain_codes, plain = _run_ops(setup, tmp_path / "plain")
    assert plain_codes == [op["expect"] for op in setup]

    before = _bindings()
    rec = _perfbench("tracing").Recorder()
    uninstall = rec.install()
    try:
        traced_codes, traced = _run_ops(setup, tmp_path / "traced")
    finally:
        uninstall()
    after = _bindings()

    assert traced_codes == plain_codes
    assert traced == plain
    assert sum(s["name"] == "cli.dispatch" for s in rec.spans) == len(setup)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
