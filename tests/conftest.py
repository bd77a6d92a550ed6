"""Suite-wide setup: the console script runs from a plain source checkout."""

import os
import shutil
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10 ships no TOML reader
    tomllib = None

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session", autouse=True)
def console_scripts_on_path(tmp_path_factory):
    """Put launchers for the [project.scripts] targets of pyproject.toml on
    PATH when the package is not installed, so subprocess tests run the same
    entry point an install would create."""
    if shutil.which("bconv") is not None or tomllib is None:
        yield
        return
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    bindir = tmp_path_factory.mktemp("bin")
    for name, target in scripts.items():
        module, func = target.split(":")
        launcher = bindir / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", str(bindir), prepend=os.pathsep)
        yield
