"""bconv benchmark: one workload of CLI commands, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the bconv source under src/.
Inputs come from the seed (inputs.py).  Each workload runs in a fresh
interpreter with BLAS/OpenMP threads pinned to 1: one warm-up pass, then at
least three passes and as many as fit in S seconds.  Reference checks
(checks.py) run outside the timed region; every command of every timed pass
is one op, and it fails on a wrong exit code, a report that fails its check,
or a report that differs from the warm-up pass.

--trace 0 reports the end-to-end metrics.  wall_s and cpu_s are the median
pass taken op by op (each command's median over the passes, summed); setup_s
is the median of three fresh interpreters that import bconv.cli and make the
first cold call of each command kind on a tiny input; peak_rss_mb is the
workload process's maximum resident set.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of tracing.py, with the
spans written as JSONL under .perfbench_runs/.  The last stdout line is the
result object; the line before it holds quartiles, sample counts,
error_rate, per-command times and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    env = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "networkx", "sympy", "mpmath"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return env


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def median_pass(passes: list, key: str) -> float:
    """The median pass taken op by op: each op's median over the passes, summed."""
    return sum(statistics.median(col) for col in zip(*(p[key] for p in passes)))


class Child:
    """Runs child.py in a fresh interpreter, one at a time, within the deadline."""

    def __init__(self, plan_path: Path, log_path: Path, started: float):
        self.plan_path, self.log_path, self.started = plan_path, log_path, started
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env = dict(os.environ, PYTHONPATH=path, **{v: "1" for v in THREAD_VARS})

    def __call__(self, mode: str) -> dict:
        left = DEADLINE_S - (time.monotonic() - self.started)
        with open(self.log_path, "a") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(self.plan_path)],
                stdout=subprocess.PIPE, stderr=log, text=True, env=self.env, timeout=max(left, 1.0),
            )
        if proc.returncode != 0:
            raise RuntimeError(f"child {mode} exited with {proc.returncode}; see {self.log_path}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def evaluate(ops: list, result: dict, refs, work: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every op of every timed pass."""
    problems = []
    warm_ok = []
    for op, code in zip(ops, result["warm"]["codes"]):
        bad = [] if code == op["expect"] else [f"{op['id']}: exit {code}, expected {op['expect']}"]
        if not bad and op["expect"] == 0:
            bad = refs.check(op["id"], json.loads((work / "warm" / f"{op['id']}.json").read_text()))
        problems += bad
        warm_ok.append(not bad)
    attempted = failed = 0
    for p in result["passes"]:
        for op, ok, code, same in zip(ops, warm_ok, p["codes"], p["same"]):
            attempted += 1
            if not (ok and same and code == op["expect"]):
                failed += 1
                if ok:
                    problems.append(f"{op['id']} in {p['label']}: exit {code}, same report {same}")
    return attempted, failed, problems


def layer_metrics(traced: list, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and any accounting problem."""
    metrics = {}
    for name, unit in tracing.metric_names()[:-1]:
        # Counts repeat exactly from pass to pass; median_low keeps them whole.
        pick = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = {"value": pick(p["layers"][name] for p in traced), "unit": unit}
    ratio = median_pass(traced, "op_wall_s") / untraced_wall
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    # cli.dispatch's self time plus every layer's self time must account for
    # the traced pass: no time is spent outside the spans.
    problems = []
    for p in traced:
        covered = sum(v for k, v in p["layers"].items() if k.endswith(".self_s"))
        if not 0.99 * p["wall_s"] <= covered <= p["wall_s"]:
            problems.append(f"spans cover {covered:.4f} s of a {p['wall_s']:.4f} s traced pass")
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "bconv" / "cli.py").is_file():
        print(f"perfbench: no bconv source at {ROOT / 'src' / 'bconv'}", file=sys.stderr)
        return 2

    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"work-{tag}-", dir=runs))
    try:
        ops, setup_ops, builder = inputs.build(args.workload, args.seed, work)
        refs = checks.References(args.workload, args.seed, builder)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps({
            "ops": ops, "setup": setup_ops, "seconds": args.seconds, "trace": args.trace,
            "trace_path": str(runs / f"spans-{tag}.jsonl"),
        }))
        child = Child(plan_path, runs / f"{tag}.log", started)
        setups = [child("setup") for _ in range(0 if args.trace else SETUP_REPEATS)]
        result = child("run")
        attempted, failed, problems = evaluate(ops, result, refs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for s in setups:
        bad = [op["id"] for op, code in zip(setup_ops, s["codes"]) if code != 0]
        attempted += len(s["codes"])
        failed += len(bad)
        problems += [f"set-up command {b} failed" for b in bad]

    untraced = [p for p in result["passes"] if not p["traced"]]
    timings = {
        "wall_s": median_pass(untraced, "op_wall_s"),
        "cpu_s": median_pass(untraced, "op_cpu_s"),
        "pass_wall_s": summary([p["wall_s"] for p in untraced]),
        "op_wall_s": {
            op["id"]: statistics.median(p["op_wall_s"][i] for p in untraced) for i, op in enumerate(ops)
        },
    }
    if args.trace:
        metrics, bad = layer_metrics([p for p in result["passes"] if p["traced"]], timings["wall_s"])
        problems += bad
    else:
        timings["setup_s"] = summary([s["setup_s"] for s in setups])
        metrics = {
            "wall_s": {"value": timings["wall_s"], "unit": "s"},
            "cpu_s": {"value": timings["cpu_s"], "unit": "s"},
            "setup_s": {"value": timings["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    for p in problems[:20]:
        print("problem:", p, file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "error_rate": failed / attempted, "problems": len(problems),
        "timings": timings, "environment": environment(),
    }))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
