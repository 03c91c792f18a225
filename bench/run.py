"""geomode benchmark.

    python3 bench/run.py --workload {census,widths,counts} --seed N \
        --seconds T --trace {0,1}

Run from the root of a source checkout (the directory holding ``src/``).
Every workload runs in fresh processes with BLAS/OpenMP pinned to one
thread: a few set-up probes (for ``setup_s``) and one measuring process.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  The exit code is
0 only when every operation passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
WORKLOADS = ("census", "widths", "counts")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: fresh processes that only set up; the measuring process adds one more sample
SETUP_PROBES = 2
#: the whole run must end well inside 180 s
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every probe compiles the same sources
    return env


def start_worker(args, probe: bool):
    """(process, seconds from spawn until the worker reported READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    began = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    line = proc.stdout.readline()
    setup = perf_counter() - began
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return proc, setup


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def tail_note(walls) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99, 90, 75):
        if len(walls) * (100 - pct) / 100 >= 10:
            return f"p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.4f} s"
    return "no tail percentile below 40 passes"


def run(args) -> int:
    deadline = perf_counter() + DEADLINE_S
    setups = []
    proc = None
    try:
        for _ in range(SETUP_PROBES):
            proc, setup = start_worker(args, probe=True)
            finish(proc, deadline)
            setups.append(setup)
        proc, setup = start_worker(args, probe=False)
        setups.append(setup)
        out = finish(proc, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    result = json.loads(out.strip().splitlines()[-1].removeprefix("RESULT "))
    attempted, failed = result["attempted"], result["failed"]
    walls = result["walls"]
    print(f"workload {args.workload}, seed {args.seed}; one operation = "
          f"{result['operation']}; {result['units_per_pass']} per pass")
    print("threads: " + " ".join(f"{name}=1" for name in THREAD_VARS)
          + f" (nproc {os.cpu_count()})")
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
        print(f"traced passes {len(result['traced_walls'])}, untraced {len(walls)}; "
              f"tracing overhead {result['per_layer']['trace.overhead_s']:+.4f} s per pass")
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        wall = statistics.median(walls)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": result["units_per_pass"] * len(walls) / sum(walls),
                          "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"setup_s     {metrics['setup_s']['value']:.4f} s (median of {len(setups)} "
              f"fresh processes)")
        print(f"wall_s      {wall:.4f} s (median of {len(walls)} passes; {tail_note(walls)}; "
              f"passes " + " ".join(f"{w:.3f}" for w in walls) + ")")
        print(f"ops_per_s   {metrics['ops_per_s']['value']:.2f} 1/s (operations over summed pass time)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"fail_ratio  {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geomode benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "geomode" / "__init__.py").is_file():
        print("error: run from a geomode source checkout (no src/geomode here)", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
