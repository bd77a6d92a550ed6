"""Suite-wide setup: the console script runs from a plain source checkout,
and every JSON report a test writes through the CLI is checked against
json.dumps."""

import json
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


@pytest.fixture(autouse=True)
def json_reports_match_json_dumps(monkeypatch):
    """Every JSON report a test writes through bconv.cli must be exactly
    json.dumps(payload, sort_keys=True, indent=2) plus a newline: json.dumps
    is the oracle of the CLI's own report writer."""
    from bconv import cli

    write = cli._report_text

    def checked(payload, fmt):
        text = write(payload, fmt)
        if fmt == "json":
            want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            # a bool, not `text == want`: pytest's diff of megabyte reports takes minutes
            same = text == want
            assert same, f"differs from json.dumps at {len(os.path.commonprefix([text, want]))}"
        return text

    monkeypatch.setattr(cli, "_report_text", checked)
