"""The benchmark workloads: inputs made from a seed, the operations
that drive ``geomode.cli.main`` and the public API, and the oracle that
checks every operation against the physics spec.

Each workload draws its inputs from ``numpy.random.default_rng(seed)``
and picks them so that the cost of a pass does not depend on the seed:
the seed only chooses among inputs of equal cost (mode relabellings,
catalogue rows of one class, grid members).

Oracle values are written here, not read back from the program:

* census: the holonomic dim >= 2 counts 17 / 87 / 17 and the total and
  cyclic counts of (M, N) = (4, 2), (5, 2), (3, 3).  The (3, 3) count was
  checked against the independent lifted-Hamiltonian K path on all 62
  cyclic unions;
* widths: every catalogue width within max(15 %, 1.5 mm), holonomic
  widths above 5.8 mm and non-holonomic ones below 3.5 mm, and the
  delta-axis cross-check within 1e-3 rad (c09);
* counts: the round trip simulate -> ingest equals the direct synthetic
  scan to 1e-12, simulating twice gives identical bytes, the count file of
  the canonical seed-1022 case matches a stored hash, its pulls against
  theory stay below 5 sigma (c11), and dense-grid scans have an RMS pull
  against theory below 1.5.  A per-point 5 sigma bound is not applied to
  the dense grids: with ~2000 points per scan and sigma estimated from
  observed counts it fails by chance (5.1 sigma at seed 1022).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from geomode import cli
from geomode import coupledmode as cm
from geomode import experiment as xp
from geomode import holonomy as hol
from geomode import reference as ref

GOLDEN_COUNTS = Path(__file__).resolve().parent / "golden" / "counts-seed1022.sha256"

#: (modes, particles, cyclic unions, holonomic subspaces of dim >= 2)
CENSUS = ((4, 2, 62, 17), (5, 2, 510, 87), (3, 3, 62, 17))
DELTA_AXIS_TOL = 1e-3
COUNT_GRID = "80:102:0.02"
COUNT_LENGTHS = 1101
COUNT_INPUTS = 2
RMS_PULL_LIMIT = 1.5
C11_PULL_LIMIT = 5.0
C11_STATES = [[2, 0, 0, 0], [1, 0, 0, 1], [0, 0, 0, 2]]


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    #: values measured by the check: "*_max" entries are maxima over a
    #: pass, the others are summed
    health: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    operation: str
    ops: list
    warmup: Op
    pass_dir: Path

    def reset(self):
        """Give the next pass an empty output directory."""
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir.mkdir(parents=True)


# --------------------------------------------------------------------- CLI


@dataclass
class CliRun:
    code: int
    err: str
    out_dir: Path

    def json(self, name):
        return json.loads((self.out_dir / name).read_text())

    def report_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.iterdir() if p.is_file())


def run_cli(argv, out_dir: Path) -> CliRun:
    """``geomode --out-dir out_dir *argv`` in process, output captured."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--out-dir", str(out_dir), *argv])
    return CliRun(code, err.getvalue(), out_dir)


def _exit_ok(run: CliRun) -> Verdict | None:
    """A failing verdict unless the command exited with 0."""
    if run.code != 0:
        return Verdict(False, f"exit {run.code}: {run.err.strip()[-300:]}")
    return None


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def jx_config(pattern) -> dict:
    """A coupling pattern under the calibrated Jx4 envelope, as a system file."""
    doc = cm.system_to_json(cm.jx4_structure(cm.IDEAL_LENGTH_MM))
    doc["modes"] = len(pattern)
    doc["pattern"] = [[[float(v.real), float(v.imag)] for v in row] for row in pattern]
    return doc


def relabelled_jx_pattern(modes: int, rng) -> np.ndarray:
    """P kappa P^T for the Jx(M) chain and a random mode permutation P."""
    perm = rng.permutation(modes)
    return cm.jx_pattern(modes).matrix[np.ix_(perm, perm)]


def _choose(rng, items):
    return items[int(rng.integers(len(items)))]


def _rows(statistics, min_members=2):
    return [r for r in ref.REFERENCE_WIDTHS
            if r.statistics == statistics and len(r.states) >= min_members]


def _row_file(row, path: Path) -> str:
    return _write_json(path, hol.subspace_to_json(ref.row_subspace(row)))


def _occ_key(state) -> str:
    if state.particle.kind == "distinguishable":
        return "".join(f"{lab}{m + 1}" for lab, m in zip(state.particle.labels, state.occupations))
    return "".join(str(n) for n in state.occupations)


# ------------------------------------------------------------------ census


def census(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    pass_dir = work / "pass"
    ops = []
    for modes, particles, cyclic, ge2 in CENSUS:
        config = _write_json(work / f"jx{modes}-n{particles}.json",
                             jx_config(relabelled_jx_pattern(modes, rng)))
        out = pass_dir / f"census-{modes}-{particles}"
        ops.append(Op(
            f"enumerate-M{modes}-N{particles}", cyclic,
            lambda config=config, particles=particles, out=out: run_cli(
                ["--config", config, "enumerate", "--particles", str(particles)], out),
            lambda run, m=modes, n=particles, c=cyclic, g=ge2: _check_census(run, m, n, c, g),
        ))
    return Workload("cyclic union classified", ops, ops[0], pass_dir)


def _check_census(run: CliRun, modes, particles, cyclic, ge2) -> Verdict:
    bad = _exit_ok(run)
    if bad:
        return bad
    totals = run.json("enumeration_report.json")["totals"]
    want = {"subspaces": 2 ** math.comb(modes + particles - 1, particles) - 2,
            "cyclic": cyclic, "holonomic_dim_ge_2": ge2}
    got = {key: totals[key] for key in want}
    return Verdict(got == want, f"got {got}, want {want}",
                   {"cli.report_bytes": run.report_bytes(),
                    "enumeration.holonomic_records": totals["holonomic"]})


# ------------------------------------------------------------------ widths


def _width_tol(reference: float) -> float:
    return max(0.15 * reference, 1.5)


def widths(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    pass_dir = work / "pass"
    table = Op("plateau-table-s2", len(ref.REFERENCE_WIDTHS) + len(ref.NON_HOLONOMIC_REFERENCES),
               lambda: run_cli(["plateau", "--table-s2"], pass_dir / "table"),
               _check_table)
    ops = [table]
    for i, statistics in enumerate((ref.INDIST, ref.DIST)):
        row = _choose(rng, _rows(statistics))
        sub_file = _row_file(row, work / f"row{i}.json")
        flags = ["--distinguishable"] if statistics == ref.DIST else []
        out = pass_dir / f"row{i}"
        ops.append(Op(
            f"row-{row.key()}", 1,
            lambda row=row, sub_file=sub_file, flags=flags, out=out: (
                run_cli(["plateau", "--subspace", sub_file, *flags], out),
                xp.plateau_width_delta(ref.row_subspace(row), ref.row_inputs(row)[0])),
            lambda result, row=row: _check_row(result, row)))
    return Workload("catalogue row", ops, ops[-1], pass_dir)


def _check_table(run: CliRun) -> Verdict:
    bad = _exit_ok(run)
    if bad:
        return bad
    doc = run.json("plateau_table.json")
    rows, non_h = doc["rows"], doc["non_holonomic_rows"]
    problems = []
    for r in rows:
        for kind in ("restricted", "unrestricted"):
            got, want = r[f"{kind}_mm"], r[f"{kind}_reference_mm"]
            if abs(got - want) > _width_tol(want):
                problems.append(f"{r['subspace']} {kind} {got:.2f} vs {want}")
        if r["unrestricted_mm"] < ref.HOLONOMIC_WIDTH_FLOOR_MM - 1e-9:
            problems.append(f"{r['subspace']} below the holonomic floor")
    problems += [f"{r['subspace']} width {r['unrestricted_mm']:.2f}" for r in non_h
                 if r["unrestricted_mm"] > ref.NON_HOLONOMIC_WIDTH_MM]
    census_ge2 = doc["holonomy_census"]["enumerated_dim_ge_2"]
    if census_ge2 != 17:
        problems.append(f"census dim>=2 {census_ge2}")
    ok = (not problems and doc["all_pass"] is True
          and len(rows) == len(ref.REFERENCE_WIDTHS)
          and len(non_h) == len(ref.NON_HOLONOMIC_REFERENCES))
    return Verdict(ok, "; ".join(problems) or f"{len(rows)} + {len(non_h)} rows",
                   {"cli.report_bytes": run.report_bytes()})


def _check_row(result, row) -> Verdict:
    run, width_delta = result
    bad = _exit_ok(run)
    if bad:
        return bad
    per_input = run.json("plateau_report.json")["per_input"]
    unrestricted = float(np.mean([iv["width_mm"] for iv in per_input.values()]))
    restricted = float(np.mean([max(min(iv["end_mm"], 100.0) - max(iv["start_mm"], 80.0), 0.0)
                                for iv in per_input.values()]))
    first = ref.row_inputs(row)[0].label()
    delta_dev = abs(per_input[first]["width_mm"] * cm.FLAT_COUPLING_PER_MM - width_delta)
    ok = (abs(unrestricted - row.unrestricted_mm) <= _width_tol(row.unrestricted_mm)
          and abs(restricted - row.restricted_mm) <= _width_tol(row.restricted_mm)
          and delta_dev < DELTA_AXIS_TOL)
    return Verdict(ok, f"widths {restricted:.2f}/{unrestricted:.2f} mm vs "
                       f"{row.restricted_mm}/{row.unrestricted_mm}, delta dev {delta_dev:.1e} rad",
                   {"cli.report_bytes": run.report_bytes(),
                    "experiment.width_delta_dev_max": delta_dev})


# ------------------------------------------------------------------ counts


def _points(doc):
    """{label: (probabilities, sigmas)} of a scan JSON; None stays NaN."""
    out = {}
    for label, pts in doc["curves"].items():
        p = np.array([np.nan if q["probability"] is None else q["probability"] for q in pts])
        s = np.array([np.nan if q["sigma"] is None else q["sigma"] for q in pts])
        out[label] = (p, s)
    return out


def _pulls(measured, theory) -> np.ndarray:
    pulls = []
    for label, (p, s) in measured.items():
        pulls.append(np.abs(p - theory[label][0]) / s)
    return np.concatenate(pulls)


def counts(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    pass_dir = work / "pass"
    geomode_seed = str(int(rng.integers(1, 2 ** 31 - 1)))
    state = {}

    def scan_args(row, flags, name):
        sub = ref.row_subspace(row)
        members = [sub.members[i] for i in
                   sorted(rng.choice(len(sub.members), COUNT_INPUTS, replace=False))]
        if "--hom-bunched" in flags and not any(2 in m.occupations for m in members):
            bunched = [m for m in sub.members if 2 in m.occupations]
            members[0] = _choose(rng, bunched)
        inputs = ",".join(_occ_key(m) for m in members)
        return ["--subspace", _row_file(row, work / f"{name}.json"), "--grid", COUNT_GRID,
                "--inputs", inputs, *flags]

    def cli_op(name, argv, check):
        out = pass_dir / name
        return Op(name, COUNT_INPUTS * COUNT_LENGTHS,
                  lambda: run_cli(["--seed", geomode_seed, *argv], out), check)

    plain = scan_args(_choose(rng, _rows(ref.INDIST)), [], "plain")
    bunched_rows = [r for r in _rows(ref.INDIST) if any(2 in occ for occ in r.states)]
    hom = scan_args(_choose(rng, bunched_rows), ["--hom-bunched"], "hom")
    dist = scan_args(_choose(rng, _rows(ref.INDIST)), ["--distinguishable"], "dist")
    assignment = scan_args(_choose(rng, _rows(ref.ASSIGNMENT)), [], "assignment")
    c11 = _write_json(work / "c11.json", {"particle": "boson", "states": C11_STATES})

    def theory(argv):
        key = tuple(argv)
        if key not in state:
            run = run_cli(["scan", *argv], work / "theory")
            state[key] = _points(run.json("scan_result.json"))
        return state[key]

    def check_simulate(run):
        bad = _exit_ok(run)
        if bad:
            return bad
        data = (run.out_dir / "counts.csv").read_bytes()
        first = state.setdefault("counts_sha256", hashlib.sha256(data).hexdigest())
        same = hashlib.sha256(data).hexdigest() == first
        return Verdict(same, "identical bytes" if same else "count file differs between runs",
                       {"experiment.count_bytes": len(data), "cli.report_bytes": len(data)})

    def check_ingest(run):
        bad = _exit_ok(run)
        if bad:
            return bad
        ingested = _points(run.json("ingested_scan.json"))
        state["ingested"] = ingested
        with open(pass_dir / "simulate" / "counts.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        verdict = _check_rms(ingested, theory(plain))
        verdict.health = {"experiment.ingest_rows": rows, "cli.report_bytes": run.report_bytes()}
        return verdict

    def check_synthetic(run, argv, same_as_ingested=False):
        bad = _exit_ok(run)
        if bad:
            return bad
        got = _points(run.json("scan_result.json"))
        verdict = _check_rms(got, theory(argv))
        if same_as_ingested:
            ingested = state.get("ingested", {})
            dev = max((float(np.max(np.abs(np.r_[got[k][0] - ingested[k][0],
                                                   got[k][1] - ingested[k][1]])))
                       for k in got if k in ingested), default=math.inf)
            if set(got) != set(ingested) or not dev < 1e-12:
                verdict = Verdict(False, f"ingested scan differs from direct scan by {dev:.1e}")
        verdict.health = {"cli.report_bytes": run.report_bytes()}
        return verdict

    def run_golden():
        out = pass_dir / "golden"
        simulated = run_cli(["--seed", str(xp.DEFAULT_SEED), "simulate-counts",
                             "--subspace", c11], out)
        ingested = run_cli(["--seed", str(xp.DEFAULT_SEED), "ingest", "--subspace", c11,
                            "--counts", str(out / "counts.csv")], out / "ingested")
        return simulated, ingested

    def check_golden(result):
        simulated, ingested = result
        bad = _exit_ok(simulated) or _exit_ok(ingested)
        if bad:
            return bad
        digest = hashlib.sha256((simulated.out_dir / "counts.csv").read_bytes()).hexdigest()
        golden = GOLDEN_COUNTS.read_text().split()[0]
        pulls = _pulls(_points(ingested.json("ingested_scan.json")),
                       theory(["--subspace", c11]))
        worst = float(np.max(pulls))
        ok = digest == golden and worst < C11_PULL_LIMIT
        return Verdict(ok, f"sha256 {'matches' if digest == golden else 'DIFFERS'}, "
                           f"worst pull {worst:.2f}",
                       {"cli.report_bytes": simulated.report_bytes() + ingested.report_bytes()})

    simulate = ["simulate-counts", *plain]
    ops = [
        cli_op("simulate", simulate, check_simulate),
        cli_op("simulate-again", simulate, check_simulate),
        cli_op("ingest", ["ingest", "--subspace", plain[1],
                          "--counts", str(pass_dir / "simulate" / "counts.csv")], check_ingest),
        cli_op("scan-synthetic", ["scan", "--mode", "synthetic", *plain],
               lambda run: check_synthetic(run, plain, same_as_ingested=True)),
        cli_op("scan-hom-bunched", ["scan", "--mode", "synthetic", *hom],
               lambda run: check_synthetic(run, hom)),
        cli_op("scan-distinguishable", ["scan", "--mode", "synthetic", *dist],
               lambda run: check_synthetic(run, dist)),
        cli_op("scan-assignment", ["scan", "--mode", "synthetic", *assignment],
               lambda run: check_synthetic(run, assignment)),
    ]
    golden = Op("golden-c11", len(C11_STATES) * len(cm.STRUCTURE_LENGTHS_MM), run_golden,
                check_golden)
    ops.append(golden)
    return Workload("(input, length) point simulated and re-estimated", ops, golden, pass_dir)


def _check_rms(measured, theory) -> Verdict:
    pulls = _pulls(measured, theory)
    if not np.all(np.isfinite(pulls)):
        return Verdict(False, f"{int(np.sum(~np.isfinite(pulls)))} undefined points")
    rms = float(np.sqrt(np.mean(pulls ** 2)))
    return Verdict(rms < RMS_PULL_LIMIT, f"RMS pull {rms:.3f} over {pulls.size} points")


BUILDERS = {"census": census, "widths": widths, "counts": counts}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    workload = BUILDERS[name](seed, work)
    workload.reset()
    return workload
