"""Worker process for one workload; run.py starts it in a fresh interpreter.

    python3 perfbench/child.py setup PLAN   import bconv.cli and make the first
                                            cold call of each command kind
    python3 perfbench/child.py run PLAN     one warm-up pass, then timed passes

Every op runs in-process through bconv.cli.dispatch with --out pointing at a
file under the plan's work directory.  Only the standard library is imported
before the timed set-up starts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_op(cli, op: dict, outdir: Path) -> int:
    argv = [str(outdir / f"{op['id']}.json") if a == "{out}" else a for a in op["argv"]]
    try:
        return cli.dispatch(argv)
    except Exception:  # an op that crashes is a failed op; keep running the rest
        traceback.print_exc()
        return -1


def setup(plan: dict, work: Path) -> dict:
    outdir = work / "setup"
    outdir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    import bconv.cli as cli

    codes = [run_op(cli, op, outdir) for op in plan["setup"]]
    return {"setup_s": time.perf_counter() - t0, "codes": codes}


def run(plan: dict, work: Path) -> dict:
    import bconv.cli as cli

    ops = plan["ops"]
    rec = None
    if plan["trace"]:
        import tracing

        rec = tracing.Recorder()

    def one_pass(outdir: Path, label: str) -> dict:
        outdir.mkdir(exist_ok=True)
        for f in outdir.iterdir():
            f.unlink()
        codes, op_wall, op_cpu = [], [], []
        t_start = time.perf_counter()
        for op in ops:
            if rec is not None:
                rec.op = f"{label}:{op['id']}"
            c0, t0 = time.process_time(), time.perf_counter()
            codes.append(run_op(cli, op, outdir))
            t1, c1 = time.perf_counter(), time.process_time()
            op_wall.append(t1 - t0)
            op_cpu.append(c1 - c0)
        return {
            "label": label, "wall_s": time.perf_counter() - t_start, "codes": codes,
            "op_wall_s": op_wall, "op_cpu_s": op_cpu,
        }

    def outputs(outdir: Path) -> list:
        return [
            (outdir / f"{op['id']}.json").read_bytes() if (outdir / f"{op['id']}.json").exists() else None
            for op in ops
        ]

    warm = one_pass(work / "warm", "warm")
    reference = outputs(work / "warm")
    passes = []
    start = time.perf_counter()
    # Untraced and traced passes alternate in the traced run, so the overhead
    # ratio compares passes made under the same machine conditions.
    # At least three passes; after that, a pass starts only if one more of
    # the last pass's length still ends within the measuring time.
    while len(passes) < 3 or time.perf_counter() - start + passes[-1]["wall_s"] <= plan["seconds"]:
        label = f"p{len(passes)}"
        traced = rec is not None and len(passes) % 2 == 1
        uninstall = rec.install() if traced else None
        p = one_pass(work / "pass", label)
        if traced:
            uninstall()
            p["layers"] = rec.pass_metrics({f"{label}:{op['id']}" for op in ops})
        p["traced"] = traced
        p["same"] = [a == b for a, b in zip(outputs(work / "pass"), reference)]
        passes.append(p)
    if rec is not None:
        rec.write_jsonl(plan["trace_path"])
    return {
        "warm": warm,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> None:
    mode, plan_path = sys.argv[1], Path(sys.argv[2])
    plan = json.loads(plan_path.read_text())
    work = plan_path.parent
    result = setup(plan, work) if mode == "setup" else run(plan, work)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
