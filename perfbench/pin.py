"""Write pinned.json: the reports of the commands whose inputs do not depend on
the seed (checks.PINNED), as the current commit produces them.

    PYTHONPATH=src python3 perfbench/pin.py

The committed file was written at the seed commit of the benchmark.  Re-pin
only in a change that is meant to alter these reports, and say so.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import checks
import inputs
from bconv.cli import dispatch


def main() -> None:
    pinned = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        work = Path(tmp)
        for workload in inputs.WORKLOADS:
            ops, _, _ = inputs.build(workload, 0, work)
            for op in ops:
                if op["id"] in checks.PINNED:
                    out = work / f"{op['id']}.json"
                    argv = [str(out) if a == "{out}" else a for a in op["argv"]]
                    if dispatch(argv) != 0:
                        raise SystemExit(f"{op['id']} failed")
                    pinned[op["id"]] = json.loads(out.read_text())
    checks.PINNED_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
