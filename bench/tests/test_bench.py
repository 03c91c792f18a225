"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/tests -q

The traced-pass tests run one untraced and one traced pass of every
workload, about a minute in all on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import geomode  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from geomode import cli, coupledmode, enumeration, experiment, fock, holonomy, reference  # noqa: E402,F401

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ span arithmetic


def test_self_time_subtracts_the_union_of_children():
    recs = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 4.0, 0, 0],      # overlaps a: together they cover [1, 4]
        ["c", 5.0, 6.0, 0, 0],
        ["d", 5.5, 5.75, 3, 0],     # grandchild, only c's child
        ["e", 9.5, 12.0, 0, 0],     # sticks out of the parent: clipped at 10
    ]
    assert spans.self_times(recs) == pytest.approx([10 - 3 - 1 - 0.5, 2, 2, 0.75, 0.25, 2.5])


def test_pass_metrics_on_synthetic_spans():
    recs = [
        ["cli.main", 0.0, 10.0, -1, 7],
        ["cli.enumerate", 1.0, 9.0, 0, 7],
        ["enumeration.enumerate_holonomic", 2.0, 8.0, 1, 7],
        ["holonomy.k_matrix", 3.0, 4.0, 2, 7],
        ["holonomy.k_matrix", 5.0, 6.0, 2, 7],
        ["holonomy.k_matrix", 8.5, 8.75, 1, 7],   # not inside the census
        ["holonomy.k_matrix", 0.0, 100.0, -1, 8],  # another pass
    ]
    health = {"enumeration.holonomic_records": 1, "experiment.width_delta_dev_max": 2e-7}
    out = spans.pass_metrics(recs, {"fock.permanent_naive": 12}, health, 7)
    assert out["holonomy.k_matrix.calls"] == 3
    assert out["holonomy.k_matrix.s"] == pytest.approx(2.25)
    assert out["enumeration.enumerate_holonomic.self_s"] == pytest.approx(4.0)
    assert out["enumeration.unions_checked"] == 2
    assert out["enumeration.holonomic_ratio"] == pytest.approx(0.5)
    # cli self time: main 10 - 8, enumerate 8 - 6 - 0.25
    assert out["cli.self_s"] == pytest.approx(2 + 1.75)
    assert out["cli.enumerate.s"] == pytest.approx(8.0)
    assert out["fock.permanent_naive.calls"] == 12
    assert out["experiment.width_delta_dev_max"] == 2e-7
    assert set(out) == {name for name, *_ in spans.PER_LAYER}


# -------------------------------------------------------------- patching


def _namespaces():
    mods = [getattr(geomode, m) for m in spans.MODULES]
    classes = [coupledmode.Envelope, coupledmode.CouplingPattern, experiment.CurveEngine]
    return mods + classes


def _snapshot():
    return [dict(vars(ns)) for ns in _namespaces()]


def _assert_same(before, after):
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is old[key] for key in old)


def test_install_patches_every_binding_site_and_restore_undoes_it():
    before = _snapshot()
    tracer = spans.Tracer(geomode)
    tracer.install()
    try:
        assert experiment.evolve is coupledmode.evolve is not before[0]["evolve"]
        assert experiment.lift_unitary is fock.lift_unitary
        assert experiment.lift_unitary_batch is fock.lift_unitary_batch
        assert experiment.CurveEngine is before[4]["CurveEngine"]
        coupledmode.jx4_structure(84.9).envelope.phase(10.0)
        fock.permanent_naive([[1.0]])
        assert [s[0] for s in tracer.spans] == ["coupledmode.phase"]
        assert tracer.counts == {"fock.permanent_naive": 1}
    finally:
        tracer.restore()
    _assert_same(before, _snapshot())


# ------------------------------------------------------------ workloads


def _inputs(workload):
    root = workload.pass_dir.parent
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.json"))}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_inputs_are_deterministic(name, tmp_path):
    a = workloads.build(name, 11, tmp_path / "a")
    b = workloads.build(name, 11, tmp_path / "b")
    c = workloads.build(name, 12, tmp_path / "c")
    assert [(op.name, op.units) for op in a.ops] == [(op.name, op.units) for op in b.ops]
    assert _inputs(a) == _inputs(b)
    assert sum(op.units for op in a.ops) == sum(op.units for op in c.ops)
    assert _inputs(a) != _inputs(c)


@pytest.mark.parametrize("seed", [3, 29])
def test_census_relabelling_keeps_the_counts(seed, tmp_path):
    workload = workloads.build("census", seed, tmp_path)
    for op in workload.ops:
        verdict = op.check(op.run())
        assert verdict.ok, verdict.detail


# --------------------------------------------------- traced pass per workload


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    before = _snapshot()
    out = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 5, tmp_path_factory.mktemp(name))
        out[name] = worker.measure(workload, 0, spans.Tracer(geomode))
    out["namespaces"] = before, _snapshot()
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_is_correct(traced, name):
    assert traced[name]["failed"] == 0


@pytest.mark.parametrize("metric,unit,better,mapped", spans.PER_LAYER)
def test_per_layer_metric_nonzero_on_its_workload(traced, metric, unit, better, mapped):
    if metric == "setup.import_s":
        pytest.skip("measured by the worker process; see test_result_line_contract")
    for name in mapped:
        assert traced[name]["per_layer"][metric] != 0, f"{metric} is zero on {name}"


def test_traced_run_leaves_modules_untouched(traced):
    _assert_same(*traced["namespaces"])


# ------------------------------------------------------ BENCHMARK.json and CLI


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in spans.PER_LAYER]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert e2e == {"setup_s", "wall_s", "ops_per_s", "peak_rss_mb"}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _run_bench(cwd, *args):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_bench(tmp_path, "--workload", "counts", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_contract(trace):
    done = _run_bench(ROOT, "--workload", "counts", "--seed", "4", "--seconds", "1",
                      "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "1":
        assert result["metrics"]["setup.import_s"]["value"] > 0
