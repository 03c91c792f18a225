"""One benchmark process: set up a workload, then (unless probing) measure it.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  Prints
``READY`` once the first operation could start, then (measuring runs)
one ``RESULT <json>`` line.  Passes run until the next one would end
after ``--seconds``; there is always at least one pass, and with
``--trace 1`` untraced and traced passes alternate, at least one each.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer, median_metrics, pass_metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="set up, report READY, exit")
    return parser.parse_args(argv)


def merge_health(total: dict, health: dict) -> None:
    for key, value in health.items():
        if key.endswith("_max"):
            total[key] = max(total.get(key, value), value)
        else:
            total[key] = total.get(key, 0) + value


def run_pass(workload, tracer=None, pass_id=0) -> dict:
    """Run every operation once; time the program calls, check each result."""
    workload.reset()
    wall, units, failed, health = 0.0, 0, 0, {}
    for op in workload.ops:
        outcome = run_op(op, tracer, pass_id)
        wall += outcome["s"]
        units += op.units
        failed += 0 if outcome["ok"] else op.units
        merge_health(health, outcome["health"])
    return {"wall_s": wall, "units": units, "failed": failed, "health": health}


def run_op(op, tracer=None, pass_id=0) -> dict:
    if tracer is not None:
        tracer.pass_id = pass_id
        tracer.install()
    start = perf_counter()
    try:
        result = op.run()
        error = None
    except Exception:  # an unexpected raise is a failed operation, not a crash
        error = traceback.format_exc()
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.restore()
    if error is None:
        try:
            verdict = op.check(result)
        except Exception:
            verdict = None
            error = traceback.format_exc()
    if error is not None:
        print(f"FAIL {op.name}: raised\n{error}", file=sys.stderr)
        return {"s": elapsed, "ok": False, "health": {}}
    if not verdict.ok:
        print(f"FAIL {op.name}: {verdict.detail}", file=sys.stderr)
    return {"s": elapsed, "ok": verdict.ok, "health": verdict.health}


def measure(workload, seconds, tracer=None) -> dict:
    """Passes until the next one would overrun ``seconds``; traced ones alternate."""
    warm = run_op(workload.warmup)
    attempted = workload.warmup.units
    failed = 0 if warm["ok"] else attempted
    walls = {False: [], True: []}
    per_layer = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        pass_id = len(walls[False]) + len(walls[True])
        began = perf_counter()
        record = run_pass(workload, tracer if traced else None, pass_id)
        last = perf_counter() - began
        walls[traced].append(record["wall_s"])
        attempted += record["units"]
        failed += record["failed"]
        if traced:
            per_layer.append(pass_metrics(tracer.spans, tracer.counts, record["health"], pass_id))
            tracer.counts.clear()
        enough = walls[False] and (tracer is None or walls[True])
        if enough and perf_counter() - start + last > seconds:
            break
    out = {"operation": workload.operation, "attempted": attempted, "failed": failed,
           "walls": walls[False],
           "units_per_pass": record["units"],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["per_layer"] = median_metrics(per_layer)
        out["traced_walls"] = walls[True]
        out["per_layer"]["trace.overhead_s"] = (statistics.median(walls[True])
                                                - statistics.median(walls[False]))
    return out


def write_spans(tracer, path: Path) -> None:
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "geomode" / "__init__.py").is_file():
        print(f"error: no geomode sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    began = perf_counter()
    import geomode
    from geomode import cli, coupledmode, enumeration, experiment, fock, holonomy, reference  # noqa: F401
    import_s = perf_counter() - began
    if Path(geomode.__file__).resolve().parent != (src / "geomode").resolve():
        print(f"error: geomode imported from {geomode.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.build(args.workload, args.seed, work)
        print("READY", flush=True)
        if args.probe:
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer(geomode)
        result = measure(workload, args.seconds, tracer)
        result["import_s"] = import_s
        if tracer is not None:
            result["per_layer"]["setup.import_s"] = import_s
            out = root / ".bench_out"
            out.mkdir(exist_ok=True)
            write_spans(tracer, out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
