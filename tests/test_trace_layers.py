"""The traced benchmark wraps bconv functions by module and attribute path
(perfbench/tracing.py LAYERS); a deleted or moved layer function must fail
here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bconv_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for name, (module, attr, _, _) in layers.items():
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = owner.__dict__[part]
        assert leaf in owner.__dict__, name
        assert callable(getattr(owner, leaf)), name
