import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geomode import cli
from geomode import coupledmode as cm
from geomode import experiment as xp
from geomode import fock
from geomode import holonomy as hol
from geomode import report
from geomode.cli import main


def write_subspace(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def outer_pair_file(tmp_path):
    return write_subspace(tmp_path / "outer.json",
                          {"particle": "boson", "states": [[1, 0, 0, 0], [0, 0, 0, 1]]})


@pytest.fixture
def three_state_file(tmp_path):
    return write_subspace(
        tmp_path / "three.json",
        {"particle": "boson", "states": [[2, 0, 0, 0], [1, 0, 0, 1], [0, 0, 0, 2]]})


def read_matrix(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


# ------------------------------------------------------------------ evolve


def test_evolve_delta_pi(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "evolve", "--delta", str(math.pi)]) == 0
    doc = json.loads((tmp_path / "evolution.json").read_text())
    u = read_matrix(doc)
    assert np.max(np.abs(u - 1j * np.fliplr(np.eye(4)))) < 1e-8


def test_evolve_delta_zero(tmp_path):
    assert main(["--out-dir", str(tmp_path), "evolve", "--delta", "0"]) == 0
    u = read_matrix(json.loads((tmp_path / "evolution.json").read_text()))
    assert np.allclose(u, np.eye(4), atol=1e-12)


def test_evolve_ideal_length_matches_delta_pi(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert main(["--out-dir", str(d1), "evolve", "--length", "84.9"]) == 0
    assert main(["--out-dir", str(d2), "evolve", "--delta", str(math.pi)]) == 0
    u1 = read_matrix(json.loads((d1 / "evolution.json").read_text()))
    u2 = read_matrix(json.loads((d2 / "evolution.json").read_text()))
    assert np.max(np.abs(u1 - u2)) < 1e-10


def test_evolve_delta_refuses_a_static_part(tmp_path, capsys):
    """A phase alone does not fix U once the system has a static part."""
    jx4 = cm.jx4_structure(cm.IDEAL_LENGTH_MM)
    detuned = cm.CoupledModeSystem(jx4.pattern, jx4.envelope,
                                   cm.CouplingPattern(np.diag([0.01, 0, 0, 0])))
    config = write_system(tmp_path / "detuned.json", detuned)
    code = main(["--config", config, "--out-dir", str(tmp_path / "out"), "evolve",
                 "--delta", str(math.pi)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[invalid-arguments]:") and "--length" in err
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()
    assert main(["--config", config, "--out-dir", str(tmp_path / "out"), "evolve",
                 "--length", "84.9"]) == 0


def test_evolve_needs_exactly_one_flag(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "evolve"])
    assert code == 2
    assert "error[invalid-arguments]" in capsys.readouterr().err


def write_system(path, system):
    path.write_text(json.dumps(cm.system_to_json(system)))
    return str(path)


@pytest.mark.parametrize("from_file, flags, detail", [
    (True, ["--length", "-5"], "at least 60.0 mm"),
    (True, ["--length", "nan"], "argument --length: must be a finite number"),
    (False, ["--length", "nan"], "argument --length: must be a finite number"),
    (False, ["--length", "inf"], "argument --length: must be a finite number"),
    (False, ["--delta", "nan"], "argument --delta: must be a finite number"),
    (False, ["--delta", "inf"], "argument --delta: must be a finite number"),
], ids=["file-negative-length", "file-nan-length", "preset-nan-length",
        "preset-inf-length", "nan-delta", "inf-delta"])
def test_evolve_rejects_bad_values(tmp_path, capsys, from_file, flags, detail):
    config = []
    if from_file:
        jx4 = cm.jx4_structure(cm.IDEAL_LENGTH_MM)
        config = ["--config", write_system(tmp_path / "jx4.json", jx4)]
    code = main([*config, "--out-dir", str(tmp_path / "out"), "evolve", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[invalid-arguments]:") and detail in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path), "evolve", "--delta", "0"])
    assert code == 2
    assert "error[invalid-config]" in capsys.readouterr().err


# --------------------------------------------------------------- enumerate


def test_enumerate_single_photon(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "enumerate", "--particles", "1"]) == 0
    out = capsys.readouterr().out
    assert "14 total, 2 cyclic" in out
    assert (tmp_path / "enumeration_report.json").exists()
    assert (tmp_path / "enumeration_summary.csv").exists()


def test_enumerate_two_bosons(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "enumerate", "--particles", "2"]) == 0
    out = capsys.readouterr().out
    assert "1022 total, 62 cyclic" in out
    doc = json.loads((tmp_path / "enumeration_report.json").read_text())
    assert doc["totals"]["holonomic_dim_ge_2"] == 17
    assert doc["totals"]["holonomic_non_scalar"] >= 16


def test_enumerate_distinguishable(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "enumerate", "--particles", "2",
                 "--type", "distinguishable"]) == 0
    out = capsys.readouterr().out
    assert "65534 total, 254 cyclic" in out


def test_enumerate_accepts_a_cycle_that_mixes_modes(tmp_path, capsys):
    """Coupling 1 on modes 0-1 and 0.7 on modes 2-3: the cycle mixes modes 2
    and 3, so the census runs on the components of its support."""
    kappa = np.zeros((4, 4))
    kappa[0, 1] = kappa[1, 0] = 1.0
    kappa[2, 3] = kappa[3, 2] = 0.7
    two_pair = cm.CoupledModeSystem(cm.CouplingPattern(kappa),
                                    cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)
    code = main(["--config", write_system(tmp_path / "two_pair.json", two_pair),
                 "--out-dir", str(tmp_path), "enumerate", "--particles", "2"])
    assert code == 0
    assert "1022 total, 62 cyclic" in capsys.readouterr().out
    doc = json.loads((tmp_path / "enumeration_report.json").read_text())
    assert len(doc["subspaces"]) == 62


def test_enumerate_cap_exceeded(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "enumerate", "--particles", "2",
                 "--cap", "5"])
    assert code == 3
    assert "error[cap-exceeded]" in capsys.readouterr().err


def test_cap_line_names_the_flag_that_covers_the_census(tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "enumerate", "--particles", "2", "--cap", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("error[cap-exceeded]: 62 cyclic subspaces exceed the cap of 10; "
                   "rerun with --cap 62\n")
    assert "token" not in err
    assert main(["--out-dir", str(tmp_path), "enumerate", "--particles", "2",
                 "--cap", "62"]) == 0


# ------------------------------------------------------------------- check


def test_check_holonomic_three_state(tmp_path, capsys, three_state_file):
    assert main(["--out-dir", str(tmp_path), "check",
                 "--subspace", three_state_file]) == 0
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert doc["verdict"] == "holonomic"
    assert doc["classification"] == "non_scalar"
    h = np.array([[complex(re, im) for re, im in row] for row in doc["holonomy"]])
    assert np.max(np.abs(h + np.fliplr(np.eye(3)))) < 1e-8


def test_check_cyclic_not_holonomic(tmp_path, capsys):
    sub_file = write_subspace(
        tmp_path / "inner.json",
        {"particle": "boson", "states": [[0, 2, 0, 0], [0, 0, 2, 0], [0, 1, 1, 0]]})
    code = main(["--out-dir", str(tmp_path), "check", "--subspace", sub_file])
    assert code == 5
    err = capsys.readouterr().err
    assert "error[not-holonomic]" in err
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert doc["verdict"] == "cyclic-not-holonomic"
    assert doc["worst_element"] != []


def test_check_not_cyclic(tmp_path, capsys):
    sub_file = write_subspace(
        tmp_path / "bad.json",
        {"particle": "boson", "states": [[2, 0, 0, 0], [0, 2, 0, 0]]})
    code = main(["--out-dir", str(tmp_path), "check", "--subspace", sub_file])
    assert code == 4
    assert "error[not-cyclic]" in capsys.readouterr().err


def test_check_singleton_is_scalar(tmp_path, capsys):
    sub_file = write_subspace(
        tmp_path / "one.json", {"particle": "boson", "states": [[1, 0, 0, 1]]})
    assert main(["--out-dir", str(tmp_path), "check", "--subspace", sub_file]) == 0
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert doc["classification"] == "scalar"


@pytest.mark.parametrize("particle", ["boson", "fermion"])
def test_check_vacuum_is_holonomic_scalar(tmp_path, capsys, particle):
    # zero particles: the one-body lift has no entries, K is 0 and the
    # cycle acts on the vacuum as 1
    sub_file = write_subspace(tmp_path / "vacuum.json",
                              {"particle": particle, "states": [[0, 0, 0, 0]]})
    assert main(["--out-dir", str(tmp_path), "check", "--subspace", sub_file]) == 0
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert (doc["cyclic"], doc["max_k"], doc["verdict"]) == (True, 0.0, "holonomic")
    assert doc["classification"] == "scalar" and doc["holonomy"] == [[[1.0, 0.0]]]


def test_zero_coupling_is_holonomic_in_check_and_census(tmp_path, capsys):
    # H vanishes, so the tolerance and K are both exactly 0: K at the
    # tolerance is holonomic in the check and in the census alike
    config = write_system(tmp_path / "zero.json", cm.CoupledModeSystem(
        cm.CouplingPattern(np.zeros((4, 4))), cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope))
    sub_file = write_subspace(tmp_path / "one.json",
                              {"particle": "boson", "states": [[1, 0, 0, 0]]})
    assert main(["--config", config, "--out-dir", str(tmp_path), "check",
                 "--subspace", sub_file]) == 0
    assert "max|K|: 0.000e+00  verdict: holonomic" in capsys.readouterr().out
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert (doc["holonomic_tolerance"], doc["classification"]) == (0.0, "scalar")
    assert main(["--config", config, "--out-dir", str(tmp_path), "enumerate",
                 "--particles", "2"]) == 0
    out = capsys.readouterr().out
    assert "1022 cyclic" in out
    assert "1022 holonomic (scalar=1022, diagonal=0, non_scalar=0); " \
           "dim>=2 holonomic=1012" in out


# -------------------------------------------------------------------- scan


def test_scan_theory_default_lengths(tmp_path, capsys, outer_pair_file):
    assert main(["--out-dir", str(tmp_path), "scan",
                 "--subspace", outer_pair_file]) == 0
    doc = json.loads((tmp_path / "scan_result.json").read_text())
    assert doc["mode"] == "theory"
    assert len(doc["curves"]["|1000>"]) == 7
    csv_lines = (tmp_path / "scan_curves.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 2 * 7


def test_scan_reruns_byte_identical(tmp_path, outer_pair_file):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["--out-dir", str(d), "scan", "--subspace", outer_pair_file,
                     "--mode", "synthetic", "--trials", "5000"]) == 0
    assert (d1 / "scan_result.json").read_bytes() == (d2 / "scan_result.json").read_bytes()


def test_scan_input_selection(tmp_path, three_state_file, capsys):
    assert main(["--out-dir", str(tmp_path), "scan", "--subspace", three_state_file,
                 "--inputs", "2000"]) == 0
    doc = json.loads((tmp_path / "scan_result.json").read_text())
    assert list(doc["curves"]) == ["|2000>"]
    code = main(["--out-dir", str(tmp_path), "scan", "--subspace", three_state_file,
                 "--inputs", "1111"])
    assert code == 2


# ----------------------------------------------------------------- plateau


def test_plateau_outer_pair(tmp_path, capsys, outer_pair_file):
    assert main(["--out-dir", str(tmp_path), "plateau",
                 "--subspace", outer_pair_file]) == 0
    doc = json.loads((tmp_path / "plateau_report.json").read_text())
    assert doc["mean_width_mm"] == pytest.approx(23.7, abs=0.1)


def test_plateau_clipping(tmp_path, outer_pair_file):
    assert main(["--out-dir", str(tmp_path), "plateau", "--subspace", outer_pair_file,
                 "--clip-lo", "80", "--clip-hi", "100"]) == 0
    doc = json.loads((tmp_path / "plateau_report.json").read_text())
    assert doc["mean_width_mm"] == pytest.approx(16.7, abs=0.1)


def test_plateau_experimental_rule(tmp_path, outer_pair_file):
    assert main(["--out-dir", str(tmp_path), "plateau", "--subspace", outer_pair_file,
                 "--rule", "experimental"]) == 0
    doc = json.loads((tmp_path / "plateau_report.json").read_text())
    assert doc["rule"] == "experimental_5pct_step"


def test_plateau_dummy_constant_system(tmp_path):
    config = {
        "modes": 4,
        "pattern": [[[0.0, 0.0]] * 4 for _ in range(4)],
        "envelope": [{"kind": "constant", "value_per_mm": 0.05, "length_mm": 120.0}],
        "length_mm": 120.0,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    sub_file = write_subspace(
        tmp_path / "sub.json",
        {"particle": "boson", "states": [[1, 0, 0, 0], [0, 0, 0, 1]]})
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "plateau",
                 "--subspace", sub_file, "--grid", "80:100:0.1"]) == 0
    doc = json.loads((tmp_path / "plateau_report.json").read_text())
    assert doc["mean_width_mm"] == pytest.approx(20.0)


def test_plateau_warns_on_open_edges(tmp_path, capsys, three_state_file):
    # on 84-86 mm the slope rule finds no plateau edge, so each plateau runs
    # to both ends of the grid; on the 60-115 mm grid it finds both edges
    assert main(["--out-dir", str(tmp_path / "open"), "plateau",
                 "--subspace", three_state_file, "--grid", "84:86:0.1"]) == 0
    doc = json.loads((tmp_path / "open" / "plateau_report.json").read_text())
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning[open-plateau]: ")]
    assert len(warnings) == len(doc["per_input"]) == 3
    for label, line in zip(doc["per_input"], warnings):
        assert line.startswith(f"warning[open-plateau]: {label}: ")
        assert "start (84.00 mm) and end (86.00 mm)" in line
    assert main(["--out-dir", str(tmp_path / "preset"), "plateau",
                 "--subspace", three_state_file]) == 0
    assert "warning" not in capsys.readouterr().err


def test_plateau_all_undefined_points(tmp_path, capsys, outer_pair_file, monkeypatch):
    def undefined_scan(sub, specs, lengths, **kwargs):
        result = xp.ScanResult(sub, "synthetic-experiment")
        for spec in specs:
            undefined = np.full(len(lengths), np.nan)
            result.curves[spec.label()] = xp.Curve(np.asarray(lengths, dtype=float),
                                                   undefined, undefined)
        return result

    monkeypatch.setattr(xp, "scan", undefined_scan)
    code = main(["--out-dir", str(tmp_path), "plateau", "--subspace", outer_pair_file,
                 "--mode", "synthetic", "--rule", "experimental", "--lengths", "80,90,100"])
    assert code == 2
    assert "error[invalid-arguments]: curve has no defined points" in capsys.readouterr().err


def test_plateau_table_preset(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "plateau", "--table-s2",
                 "--table-grid-step", "0.02"]) == 0
    doc = json.loads((tmp_path / "plateau_table.json").read_text())
    assert doc["all_pass"] is True
    assert len(doc["rows"]) == 34
    assert len(doc["non_holonomic_rows"]) == 4
    out = capsys.readouterr().out
    assert "all_pass: True" in out
    # global flags and scan options at their defaults leave the table as it is
    assert main(["--seed", "9", "--out-dir", str(tmp_path / "b"), "plateau",
                 "--table-s2", "--table-grid-step", "0.02", "--trials", "100000"]) == 0
    assert ((tmp_path / "b" / "plateau_table.json").read_bytes()
            == (tmp_path / "plateau_table.json").read_bytes())


# ------------------------------------------------------- counts / fidelity


def test_simulate_and_ingest_round_trip(tmp_path, three_state_file):
    assert main(["--seed", "7", "--out-dir", str(tmp_path), "simulate-counts",
                 "--subspace", three_state_file, "--trials", "20000"]) == 0
    counts = tmp_path / "counts.csv"
    assert counts.exists()
    assert main(["--seed", "7", "--out-dir", str(tmp_path), "ingest",
                 "--subspace", three_state_file, "--counts", str(counts)]) == 0
    ingested = json.loads((tmp_path / "ingested_scan.json").read_text())
    d2 = tmp_path / "direct"
    assert main(["--seed", "7", "--out-dir", str(d2), "scan",
                 "--subspace", three_state_file, "--mode", "synthetic",
                 "--trials", "20000"]) == 0
    direct = json.loads((d2 / "scan_result.json").read_text())
    for label, points in direct["curves"].items():
        got = {p["length_mm"]: p["probability"] for p in ingested["curves"][label]}
        for p in points:
            assert got[p["length_mm"]] == pytest.approx(p["probability"], abs=1e-12)


#: sha256 of counts.csv from `geomode --seed 1022 simulate-counts` on
#: {2000, 1001, 0002} (default lengths, trials and splitters)
GOLDEN_COUNTS_SHA256 = "2c0d6198cdbb3b5d847599475001f0a22c016da52b0022a291dbb730c197931c"


def test_simulate_counts_golden_file(tmp_path, three_state_file):
    assert main(["--seed", "1022", "--out-dir", str(tmp_path), "simulate-counts",
                 "--subspace", three_state_file]) == 0
    data = (tmp_path / "counts.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_COUNTS_SHA256


def test_ingest_uses_configured_system(tmp_path):
    """A Jx4 with modes 0 and 1 swapped: ingest must use its own ideal cycle."""
    doc = cm.system_to_json(cm.jx4_structure(cm.IDEAL_LENGTH_MM))
    swap = [1, 0, 2, 3]
    doc["pattern"] = [[doc["pattern"][i][j] for j in swap] for i in swap]
    cfg = tmp_path / "swapped.json"
    cfg.write_text(json.dumps(doc))
    sub_file = write_subspace(
        tmp_path / "sub.json",
        {"particle": "boson", "states": [[0, 2, 0, 0], [0, 1, 0, 1], [0, 0, 0, 2]]})
    common = ["--config", str(cfg), "--seed", "5"]
    scan_opts = ["--subspace", sub_file, "--trials", "20000", "--lengths", "70,80,84.9,90,100"]
    assert main([*common, "--out-dir", str(tmp_path), "simulate-counts", *scan_opts]) == 0
    assert main([*common, "--out-dir", str(tmp_path), "ingest", "--subspace", sub_file,
                 "--trials", "20000", "--counts", str(tmp_path / "counts.csv")]) == 0
    d2 = tmp_path / "direct"
    assert main([*common, "--out-dir", str(d2), "scan", "--mode", "synthetic", *scan_opts]) == 0
    ingested = json.loads((tmp_path / "ingested_scan.json").read_text())["curves"]
    direct = json.loads((d2 / "scan_result.json").read_text())["curves"]
    assert set(ingested) == set(direct) == {"|0200>", "|0101>", "|0002>"}
    for label, points in direct.items():
        got = {p["length_mm"]: p["probability"] for p in ingested[label]}
        assert len(got) == len(points) == 5
        for p in points:
            assert got[p["length_mm"]] == pytest.approx(p["probability"], abs=1e-12)


def test_ingest_distinguishable_round_trip(tmp_path):
    """Heralded (nXY) count files ingest with the heralded channel map."""
    sub_file = write_subspace(
        tmp_path / "sub.json",
        {"particle": "boson", "states": [[0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]]})
    opts = ["--subspace", sub_file, "--trials", "5000", "--distinguishable",
            "--lengths", "70,80,84.9,90,100"]
    assert main(["--seed", "3", "--out-dir", str(tmp_path), "simulate-counts", *opts]) == 0
    assert main(["--seed", "3", "--out-dir", str(tmp_path), "ingest", "--subspace", sub_file,
                 "--counts", str(tmp_path / "counts.csv")]) == 0
    d2 = tmp_path / "direct"
    assert main(["--seed", "3", "--out-dir", str(d2), "scan", "--mode", "synthetic",
                 *opts]) == 0
    ingested = json.loads((tmp_path / "ingested_scan.json").read_text())["curves"]
    direct = json.loads((d2 / "scan_result.json").read_text())["curves"]
    assert set(ingested) == set(direct) == {"|0200>", "|0020>", "|1001>"}
    for label, points in direct.items():
        assert len(ingested[label]) == len(points) == 5
        for got, want in zip(ingested[label], points):
            assert got["length_mm"] == want["length_mm"]
            assert got["probability"] is not None
            assert got["probability"] == pytest.approx(want["probability"], abs=1e-12)
            assert got["sigma"] == pytest.approx(want["sigma"], abs=1e-12)


def test_ingest_unknown_channel(tmp_path, three_state_file, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("structure_id,length_mm,input_state,detector_pair,counts\n"
                   "s1,80,|2000>,1a-1b,90\n"
                   "s1,80,|2000>,m4,3\n")
    code = main(["--out-dir", str(tmp_path), "ingest", "--subspace", three_state_file,
                 "--counts", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'m4'" in err and "line 3" in err


def test_check_lifts_cycle_and_k_once(tmp_path, three_state_file, monkeypatch):
    calls = {"lift": 0, "k": 0}
    lift, k_matrix = fock.lift_unitary, hol.k_matrix

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fock, "lift_unitary", counted("lift", lift))
    monkeypatch.setattr(hol, "k_matrix", counted("k", k_matrix))
    assert main(["--out-dir", str(tmp_path), "check", "--subspace", three_state_file]) == 0
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert doc["verdict"] == "holonomic"
    assert calls == {"lift": 1, "k": 1}


def test_synthetic_scan_beyond_the_splitters(tmp_path, capsys):
    """Five output ports and four calibrated splitters: exit 2, no crash."""
    system = cm.CoupledModeSystem(cm.jx_pattern(5),
                                  cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)
    cfg = tmp_path / "jx5.json"
    cfg.write_text(json.dumps(cm.system_to_json(system)))
    sub_file = write_subspace(tmp_path / "sub.json",
                              {"particle": "boson", "modes": 5,
                               "states": [[2, 0, 0, 0, 0], [0, 0, 0, 0, 2]]})
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "scan",
                 "--subspace", sub_file, "--mode", "synthetic", "--lengths", "80,90"])
    assert code == 2
    assert "no splitter on output port 5" in capsys.readouterr().err


def test_three_photon_distinguishable_synthetic_scan_is_rejected(tmp_path, capsys):
    """Theory scans take independent photons for any N; detection only two."""
    sub_file = write_subspace(tmp_path / "sub.json",
                              {"particle": "boson", "states": [[2, 1, 0, 0], [0, 0, 1, 2]]})
    for stats in (["--distinguishable"], []):
        opts = ["--subspace", sub_file, *stats, "--lengths", "80,90"]
        assert main(["--out-dir", str(tmp_path), "scan", *opts]) == 0
        code = main(["--out-dir", str(tmp_path), "scan", "--mode", "synthetic", *opts])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[invalid-arguments]: synthetic detection covers one or two photons" in err
        assert "indistinguishable" not in err and "Traceback" not in err


@pytest.mark.parametrize("states", [[[0, 0, 0, 0]], [[2, 1, 0, 0], [0, 0, 1, 2]]],
                         ids=["vacuum", "three-photons"])
@pytest.mark.parametrize("command", [["simulate-counts"], ["scan", "--mode", "synthetic"]])
def test_synthetic_detection_covers_one_or_two_photons(tmp_path, capsys, command, states):
    """The boson vacuum and three photons are both outside the detection model."""
    sub_file = write_subspace(tmp_path / "sub.json", {"particle": "boson", "states": states})
    code = main(["--out-dir", str(tmp_path / "out"), *command, "--subspace", sub_file,
                 "--lengths", "80,90"])
    assert code == 2
    assert capsys.readouterr().err == ("error[invalid-arguments]: synthetic detection covers "
                                       f"one or two photons (this basis has {sum(states[0])})\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["simulate-counts"], ["scan", "--mode", "synthetic"]])
def test_negative_seed_is_rejected_promptly(tmp_path, three_state_file, command):
    src = str(Path(cm.__file__).resolve().parents[1])
    argv = ["--seed", "-1", "--out-dir", str(tmp_path), *command,
            "--subspace", three_state_file, "--lengths", "80,90"]
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from geomode.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2
    assert out.stderr.startswith("error[invalid-arguments]:")
    assert "non-negative" in out.stderr


def test_synthetic_scan_ideal_splitters_on_every_port(tmp_path):
    system = cm.CoupledModeSystem(cm.jx_pattern(5),
                                  cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)
    cfg = tmp_path / "jx5.json"
    cfg.write_text(json.dumps(cm.system_to_json(system)))
    sub_file = write_subspace(tmp_path / "sub.json",
                              {"particle": "boson", "modes": 5,
                               "states": [[2, 0, 0, 0, 0], [0, 0, 0, 0, 2]]})
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "scan",
                 "--subspace", sub_file, "--mode", "synthetic", "--splitters", "ideal",
                 "--lengths", "80,90"]) == 0
    doc = json.loads((tmp_path / "scan_result.json").read_text())
    assert doc["mode"] == "synthetic-experiment"


def test_full_turn_family_peaks_at_its_own_cycle(tmp_path, capsys, outer_pair_file):
    """A constant pi/40 per mm envelope over 80 mm closes at delta = 2 pi:
    the cycle is -1, so each outer-pair input returns to itself at 80 mm,
    not at the delta = pi flip (40 mm)."""
    full_turn = cm.CoupledModeSystem(
        cm.jx_pattern(4), cm.Envelope((cm.ConstantSegment(math.pi / 40, 80.0),)))
    config = ["--config", write_system(tmp_path / "turn.json", full_turn)]
    assert main([*config, "--out-dir", str(tmp_path), "check",
                 "--subspace", outer_pair_file]) == 0
    doc = json.loads((tmp_path / "check_report.json").read_text())
    assert doc["verdict"] == "holonomic" and doc["classification"] == "scalar"
    h = np.array([[complex(re, im) for re, im in row] for row in doc["holonomy"]])
    assert np.max(np.abs(h + np.eye(2))) < 1e-12
    capsys.readouterr()
    assert main([*config, "--out-dir", str(tmp_path), "scan", "--subspace", outer_pair_file,
                 "--lengths", "20,40,60,80,100"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{label}: 5 points, peak 1.0000 at 80 mm" for label in ("|1000>", "|0001>")]
    curves = json.loads((tmp_path / "scan_result.json").read_text())["curves"]
    for points in curves.values():
        assert points[1]["probability"] < 1e-12  # the delta = pi flip


def test_scan_without_a_sharp_cycle_image_exits_2(tmp_path, capsys, outer_pair_file):
    """A detuned Jx4 no longer closes on a permutation: its scan exits 2."""
    jx4 = cm.jx4_structure(cm.IDEAL_LENGTH_MM)
    detuned = cm.CoupledModeSystem(jx4.pattern, jx4.envelope,
                                   cm.CouplingPattern(np.diag([0.01, 0.0, 0.0, 0.0])))
    code = main(["--config", write_system(tmp_path / "detuned.json", detuned),
                 "--out-dir", str(tmp_path), "scan", "--subspace", outer_pair_file,
                 "--lengths", "80,90"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[invalid-arguments]:") and "no sharp image" in err


def test_preset_length_sets_the_cycle(tmp_path, capsys, outer_pair_file):
    """A preset length_mm is the configured structure, whose evolution is the
    scan's cycle: at 90 mm it closes on no permutation, as its file config does."""
    for name, doc in (("preset", {"preset": "paper-jx4", "length_mm": 90}),
                      ("file", cm.system_to_json(cm.jx4_structure(90.0)))):
        code = main(["--config", write_subspace(tmp_path / f"{name}.json", doc),
                     "--out-dir", str(tmp_path / "out"), "scan", "--subspace", outer_pair_file])
        err = capsys.readouterr().err
        assert code == 2, name
        assert err.startswith("error[invalid-arguments]:") and "no sharp image" in err


def test_preset_as_a_file_config_gives_the_same_reports(tmp_path, three_state_file):
    """The preset and its own system written as a file config are one system:
    plateau, scan, simulate-counts and ingest write the same bytes."""
    config = write_system(tmp_path / "jx4.json", cm.jx4_structure(cm.IDEAL_LENGTH_MM))
    written = {}
    for name, flags in (("preset", []), ("file", ["--config", config])):
        out = tmp_path / name
        for command in (["plateau"], ["scan"], ["simulate-counts", "--trials", "2000"],
                        ["ingest", "--trials", "2000", "--counts", str(out / "counts.csv")]):
            assert main([*flags, "--out-dir", str(out), command[0],
                         "--subspace", three_state_file, *command[1:]]) == 0
        written[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written["file"]) == ["counts.csv", "ingested_curves.csv", "ingested_scan.json",
                                       "plateau_report.json", "scan_curves.csv",
                                       "scan_result.json"]
    assert written["file"] == written["preset"]


def test_commands_without_a_length_axis_exit_2(tmp_path, capsys, outer_pair_file):
    """An envelope of two constant segments has no one segment to stretch: the
    commands over lengths exit 2, and those that read its cycle run."""
    two = cm.CoupledModeSystem(cm.jx_pattern(4), cm.Envelope(
        (cm.ConstantSegment(math.pi / 80, 40.0), cm.ConstantSegment(math.pi / 80, 40.0))))
    config = ["--config", write_system(tmp_path / "two.json", two)]
    out = ["--out-dir", str(tmp_path / "out")]
    for command in (["scan", "--subspace", outer_pair_file], ["plateau", "--subspace",
                    outer_pair_file], ["simulate-counts", "--subspace", outer_pair_file],
                    ["evolve", "--length", "80"]):
        assert main([*config, *out, *command]) == 2
        assert capsys.readouterr().err == (
            "error[invalid-arguments]: a structure family stretches the envelope's one "
            "constant segment; this envelope has 2\n")
    assert not (tmp_path / "out").exists()
    assert main(["--out-dir", str(tmp_path), "simulate-counts", "--subspace",
                 outer_pair_file, "--trials", "1000"]) == 0
    assert main([*config, *out, "ingest", "--subspace", outer_pair_file, "--trials", "1000",
                 "--counts", str(tmp_path / "counts.csv")]) == 0
    assert main([*config, *out, "check", "--subspace", outer_pair_file]) == 0


def test_check_subspace_takes_modes_from_config(tmp_path):
    """A subspace file without "modes" gets the configured system's mode count."""
    system = cm.CoupledModeSystem(cm.jx_pattern(3),
                                  cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)
    cfg = tmp_path / "jx3.json"
    cfg.write_text(json.dumps(cm.system_to_json(system)))
    doc = {"particle": "boson", "states": [[2, 0, 0], [0, 0, 2]]}
    sub_file = write_subspace(tmp_path / "sub.json", doc)
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "check",
                 "--subspace", sub_file]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    check = hol.check_subspace(hol.subspace_from_json(doc, modes=3), system)
    assert report["verdict"] == "holonomic"
    assert report["classification"] == check.classification
    assert np.allclose(read_matrix({"matrix": report["holonomy"]}), check.matrix, atol=1e-12)


def test_cli_runs_without_scipy(tmp_path):
    """The runtime needs numpy only; SciPy is a test oracle."""
    src = str(Path(cm.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from geomode.cli import main\n"
            f"assert main(['--out-dir', {str(tmp_path)!r}, 'evolve', '--length', '84.9']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"


def _main_under_2_gib(argv):
    """``main(argv)`` in a child process whose address space is capped at
    2 GiB, with one BLAS thread so that thread buffers do not count."""
    src = str(Path(cm.__file__).resolve().parents[1])
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({2 << 30}, {2 << 30}))\n"
            f"sys.path.insert(0, {src!r})\n"
            "from geomode.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)


def test_check_on_a_2401_state_basis_fits_in_2_gib(tmp_path):
    """check on two members of the basis of four distinguishable particles
    on Jx(7), in a child process whose address space is capped at 2 GiB."""
    jx7 = cm.CoupledModeSystem(cm.jx_pattern(7), cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)
    config = tmp_path / "jx7.json"
    config.write_text(json.dumps(cm.system_to_json(jx7)))
    sub = write_subspace(tmp_path / "pair.json", {
        "particle": "distinguishable", "modes": 7,
        "states": [dict.fromkeys("abcd", 1), dict.fromkeys("abcd", 7)]})
    out = _main_under_2_gib(["--config", str(config), "--out-dir", str(tmp_path), "check",
                             "--subspace", sub])
    assert out.returncode == 0, out.stderr
    assert "verdict: holonomic" in out.stdout


def test_capped_census_of_2_20_unions_fits_in_2_gib(tmp_path):
    """enumerate for two bosons on Jx(8) (20 components, 2^20 - 2 unions)
    stops at the default cap in a child process capped at 2 GiB."""
    jx8 = cm.CoupledModeSystem(cm.jx_pattern(8), cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)
    config = tmp_path / "jx8.json"
    config.write_text(json.dumps(cm.system_to_json(jx8)))
    out = _main_under_2_gib(["--config", str(config), "--out-dir", str(tmp_path / "out"),
                             "enumerate", "--particles", "2"])
    assert out.returncode == 3, out.stderr
    assert out.stderr == ("error[cap-exceeded]: 1048574 cyclic subspaces exceed the cap of "
                          "4096; rerun with --cap 1048574\n")


def test_census_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    """A census that runs out of memory under a large --cap is one error line
    that advises a smaller cap, not a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli.en, "enumerate_holonomic", exhausted)
    code = main(["--out-dir", str(tmp_path / "out"), "enumerate", "--particles", "2",
                 "--cap", "268435454"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ("error[out-of-memory]: the census ran out of memory under the cap "
                            "of 268435454; rerun with a smaller --cap\n")
    assert "Traceback" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("modes,particles", [(m, n) for m in range(4, 9) for n in range(2, 5)])
def test_north_star_boson_census(tmp_path, capsys, modes, particles):
    """N bosons on Jx(M), M = 4..8, N = 2..4: the mirror cycle's c = (S + P) / 2
    orbits, P of the S occupation vectors being palindromes, give 2^c - 2
    cyclic unions.  Four censuses fit the default cap, the other eleven exit 3;
    (8,4), with 170 components, runs under the 2 GiB harness."""
    states = fock.enumerate_basis(modes, particles, fock.ParticleType.boson()).states
    palindromes = sum(s.occupations == s.occupations[::-1] for s in states)
    cyclic = 2 ** ((len(states) + palindromes) // 2) - 2
    jx = cm.CoupledModeSystem(cm.jx_pattern(modes),
                              cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)
    config = tmp_path / "jx.json"
    config.write_text(json.dumps(cm.system_to_json(jx)))
    argv = ["--config", str(config), "--out-dir", str(tmp_path / "out"), "enumerate",
            "--particles", str(particles)]
    if (modes, particles) == (8, 4):
        child = _main_under_2_gib(argv)
        code, err = child.returncode, child.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    if (modes, particles) in {(4, 2), (4, 3), (5, 2), (6, 2)}:
        assert code == 0, err
        report = json.loads((tmp_path / "out" / "enumeration_report.json").read_text())
        assert report["totals"]["cyclic"] == cyclic
    else:
        assert code == 3, err
        assert err == (f"error[cap-exceeded]: {cyclic} cyclic subspaces exceed the cap of "
                       f"4096; rerun with --cap {cyclic}\n")


def test_ingest_malformed_counts(tmp_path, outer_pair_file, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("structure_id,length_mm,input_state,detector_pair,counts\n"
                   "s1,eighty,|1000>,m4,90\n")
    code = main(["--out-dir", str(tmp_path), "ingest", "--subspace", outer_pair_file,
                 "--counts", str(bad)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_fidelity_command(tmp_path, capsys):
    t = tmp_path / "t.json"
    e = tmp_path / "e.json"
    t.write_text("[1.0, 0.0]")
    e.write_text("[0.9, 0.1]")
    assert main(["--out-dir", str(tmp_path), "fidelity", "--theory", str(t),
                 "--experiment", str(e)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.9, abs=1e-12)


def test_fidelity_dict_inputs(tmp_path, capsys):
    t = tmp_path / "t.json"
    e = tmp_path / "e.json"
    t.write_text('{"a": 0.5, "b": 0.5}')
    e.write_text('{"a": 0.5, "b": 0.5}')
    assert main(["--out-dir", str(tmp_path), "fidelity", "--theory", str(t),
                 "--experiment", str(e)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)


@pytest.mark.parametrize("theory, experiment", [
    ("[null, 1.0]", "[0.5, 0.5]"),
    ("[1.0, 0.0]", "[NaN, 1.0]"),
    ("[{}, 1.0]", "[0.5, 0.5]"),
    ('{"a": null}', '{"a": 1.0}'),
    ('{"a": [1.0]}', '{"a": 1.0}'),
], ids=["null", "nan", "object-in-list", "null-in-object", "list-in-object"])
def test_fidelity_rejects_undefined_entries(tmp_path, capsys, theory, experiment):
    t = tmp_path / "t.json"
    e = tmp_path / "e.json"
    t.write_text(theory)
    e.write_text(experiment)
    code = main(["--out-dir", str(tmp_path), "fidelity", "--theory", str(t),
                 "--experiment", str(e)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error[invalid-arguments]:")
    assert "list of finite numbers" in captured.err


# ---------------------------------------------------------- deterministic JSON


def test_dumps_json_float_precision():
    text = report.dumps_json({"x": 0.1, "v": [1.0, 2.5]})
    assert "0.10000000000000001" in text
    assert report.dumps_json(float("nan")) == "null"



COUNT_HEADER = "structure_id,length_mm,input_state,detector_pair,counts\n"


@pytest.mark.parametrize("argv, counts, detail", [
    (["scan", "--subspace", "{sub}", "--grid", "80:90:0"], None, "STEP"),
    (["simulate-counts", "--subspace", "{sub}", "--grid", "80:90:0"], None, "STEP"),
    (["simulate-counts", "--subspace", "{sub}", "--grid", "90:80:1"], None, "ascending"),
    (["scan", "--subspace", "{sub}", "--lengths", "80,nan"], None, "finite"),
    (["scan", "--subspace", "{sub}", "--lengths", "80,inf"], None, "finite"),
    (["plateau", "--subspace", "{sub}", "--rule", "experimental",
      "--lengths", "80,nan,90,95,100"], None, "finite"),
    (["ingest", "--subspace", "{sub}", "--counts", "{counts}"],
     "s1,80,|1000>,m1,5\n", "'|1000>' at line 2"),
    (["ingest", "--subspace", "{sub}", "--counts", "{counts}"],
     "s1,80,|200>,1a-1b,5\n", "'|200>' at line 2"),
    (["ingest", "--subspace", "{sub}", "--counts", "{counts}"],
     "s1,80,|2000>,1a-1b,5\n\ns1,eighty,|2000>,1a-1b,3\n", "line 4"),
    (["--config", "{tmp}/nope.json", "plateau", "--table-s2"], None, "--config"),
    (["plateau", "--table-s2", "--rule", "experimental", "--lengths", "80,nan",
      "--subspace", "/nonexistent.json"], None, "argument --lengths:"),
    (["plateau", "--table-s2", "--mode", "synthetic"], None, "--mode"),
    (["plateau", "--table-s2", "--grid", "60:115:0.5"], None, "--grid"),
    (["plateau", "--table-s2", "--inputs", "2000"], None, "--inputs"),
    (["plateau", "--table-s2", "--distinguishable"], None, "--distinguishable"),
    (["plateau", "--table-s2", "--visibility", "nan"], None, "--visibility"),
    (["plateau", "--table-s2", "--clip-lo", "70", "--clip-hi", "90"], None,
     "--clip-lo, --clip-hi"),
    (["enumerate", "--particles", "0"], None, "give 1"),
    (["enumerate", "--particles", "4", "--type", "fermion"], None, "give 1"),
    (["enumerate", "--particles", "2", "--cap", "-1"], None, "--cap"),
    (["plateau", "--subspace", "{sub}", "--clip-lo", "85"], None, "go together"),
    (["plateau", "--subspace", "{sub}", "--clip-hi", "95"], None, "go together"),
    (["plateau", "--subspace", "{sub}", "--clip-lo", "95", "--clip-hi", "85"], None,
     "finite LO < HI"),
    (["plateau", "--subspace", "{sub}", "--clip-lo", "nan", "--clip-hi", "95"], None,
     "finite LO < HI"),
    (["plateau", "--table-s2", "--table-grid-step", "0"], None, "--table-grid-step"),
    (["plateau", "--table-s2", "--table-grid-step", "-1"], None, "--table-grid-step"),
    (["plateau", "--table-s2", "--table-grid-step", "nan"], None, "--table-grid-step"),
    (["evolve", "--length", "59"], None, "at least 60.0 mm"),
    (["--jobs", "2", "evolve", "--length", "84.9"], None, "invalid choice: '2'"),
    (["enumerate", "--particles", "two"], None, "invalid int value: 'two'"),
    (["enumerate"], None, "required: --particles"),
    (["enumerate", "--particles", "2", "--type", "quark"], None, "invalid choice: 'quark'"),
    (["bogus"], None, "invalid choice: 'bogus'"),
    ([], None, "required: command"),
    (["plateau", "--table-s2", "--rule", "experimental", "--lengths", "80,85",
      "--subspace", "/nonexistent.json"], None, "--subspace, --lengths, --rule"),
    (["simulate-counts", "--subspace", "{sub}", "--hom-bunched", "--visibility", "2"], None,
     "visibility must lie in [0, 1]"),
    (["scan", "--subspace", "{sub}", "--grid", "80:90:1", "--lengths", "80,85"], None,
     "argument --lengths: not allowed with argument --grid"),
    (["scan", "--subspace", "{sub}", "--lengths", ""], None, "argument --lengths:"),
    (["scan", "--subspace", "{sub}", "--grid", ""], None, "argument --grid:"),
    (["simulate-counts", "--subspace", "{sub}", "--inputs", "2000,2000"], None,
     "argument --inputs: must name each input once"),
    (["evolve", "--delta", "0", "--length", "84.9"], None,
     "argument --length: not allowed with argument --delta"),
    # a directory where a file is read
    (["--config", "{tmp}", "evolve", "--delta", "0"], None,
     "error[invalid-config]: cannot read config file"),
    (["check", "--subspace", "{tmp}"], None, "cannot read subspace file"),
    (["ingest", "--subspace", "{sub}", "--counts", "{tmp}"], None, "cannot read count file"),
    (["fidelity", "--theory", "{tmp}", "--experiment", "{sub}"], None,
     "cannot read distribution file"),
])
def test_bad_arguments_exit_2_without_traceback(tmp_path, capsys, three_state_file, argv,
                                                 counts, detail):
    if counts is not None:
        (tmp_path / "counts.csv").write_text(COUNT_HEADER + counts)
    paths = {"sub": three_state_file, "counts": tmp_path / "counts.csv", "tmp": tmp_path}
    code = main(["--out-dir", str(tmp_path / "out"), *(a.format(**paths) for a in argv)])
    err = capsys.readouterr().err
    assert code == 2
    # a detail that begins with "error[" names its own kind
    prefix = detail if detail.startswith("error[") else "error[invalid-arguments]:"
    assert err.startswith(prefix) and detail in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["plateau", "scan", "simulate-counts"])
def test_failing_command_leaves_no_report_directory(tmp_path, capsys, command):
    code = main(["--out-dir", str(tmp_path / "out" / "p"), command])
    assert code == 2
    assert "this command needs --subspace FILE" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SEGMENT = {"kind": "constant", "value_per_mm": 0.1, "length_mm": 10.0}
PAIR = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
BEYOND_FLOAT = 10 ** 400  # a JSON integer that float() cannot convert


@pytest.mark.parametrize("name, doc, detail", [
    ("subspace", [1, 2], "must be a JSON object"),
    ("subspace", {"particle": "boson", "states": 5}, "list of JSON arrays"),
    ("subspace", {"particle": "distinguishable", "modes": 4, "states": [[1, 2]]},
     "list of JSON objects"),
    ("subspace", {"particle": "boson", "states": [[[1], 0, 0, 0]]}, "expected an integer"),
    ("config", {"modes": 2, "pattern": 5, "envelope": [SEGMENT]}, "[re, im] pairs"),
    ("config", {"modes": 2, "pattern": PAIR, "envelope": 5}, "list of segments"),
    ("config", {"modes": 2, "pattern": PAIR, "envelope": [[1, 2]]}, "must be a JSON object"),
    ("config", {"modes": 2, "pattern": PAIR, "envelope": [{**SEGMENT, "value_per_mm": "x"}]},
     "'value_per_mm' must be a finite number"),
    ("config", {"modes": 2, "pattern": PAIR, "envelope": [SEGMENT], "length_mm": [10]},
     "length_mm must be a finite number, not [10]"),
    ("config", {"modes": 2, "pattern": [[[0, 0], [math.nan, 0]], [[math.nan, 0], [0, 0]]],
                "envelope": [SEGMENT]}, "finite, Hermitian"),
    ("config", {"preset": "paper-jx4", "length_mm": [1]},
     "length_mm must be a finite number, not [1]"),
    ("config", {"preset": "paper-jx4", "length_mm": None},
     "length_mm must be a finite number, not None"),
    ("config", {"preset": "paper-jx4", "length_mm": "x"},
     "length_mm must be a finite number, not 'x'"),
    ("config", {"preset": "paper-jx4", "length_mm": "84.9"},
     "length_mm must be a finite number, not '84.9'"),
    ("config", {"preset": "paper-jx4", "omega_flat_per_mm": [0.1]},
     "omega_flat_per_mm must be a finite number, not [0.1]"),
    ("config", {"preset": "paper-jx4", "omega_flat_per_mm": "x"},
     "omega_flat_per_mm must be a finite number, not 'x'"),
    ("config", {"preset": "paper-jx4", "length_mm": BEYOND_FLOAT},
     "length_mm must be a finite number, not 1000"),
    ("config", {"modes": 2, "pattern": PAIR, "envelope": [{**SEGMENT, "length_mm": BEYOND_FLOAT}]},
     "'length_mm' must be a finite number, not 1000"),
    ("config", {"modes": 2, "pattern": PAIR, "envelope": [SEGMENT], "length_mm": BEYOND_FLOAT},
     "length_mm must be a finite number, not 1000"),
    ("config", {"modes": 2, "pattern": [[[0, 0], [BEYOND_FLOAT, 0]], [[1, 0], [0, 0]]],
                "envelope": [SEGMENT]}, "[re, im] pairs of floats"),
    ("config", {"modes": 2.7, "pattern": PAIR, "envelope": [SEGMENT]},
     "modes must be a JSON integer, not 2.7"),
    ("config", {"modes": "2", "pattern": PAIR, "envelope": [SEGMENT]},
     "modes must be a JSON integer, not '2'"),
    ("config", {"modes": True, "pattern": PAIR, "envelope": [SEGMENT]},
     "modes must be a JSON integer, not True"),
    ("config", {"modes": 2, "pattern": PAIR, "envelope": [SEGMENT], "length_mm": "10"},
     "length_mm must be a finite number, not '10'"),
], ids=["subspace-array", "subspace-states-number", "subspace-label-lists",
        "subspace-nested-entry", "config-pattern-number", "config-envelope-number",
        "config-segment-list", "config-segment-string", "config-length-list",
        "config-pattern-nan", "preset-length-list", "preset-length-null",
        "preset-length-string", "preset-length-numeric-string", "preset-omega-list",
        "preset-omega-string", "preset-length-beyond-float", "config-segment-beyond-float",
        "config-length-beyond-float", "config-pattern-beyond-float", "config-modes-float",
        "config-modes-string", "config-modes-bool", "config-length-string"])
def test_malformed_documents_exit_2_without_traceback(tmp_path, capsys, outer_pair_file, name,
                                                      doc, detail):
    """A subspace or config document of the wrong shape is one error line."""
    paths = {"subspace": outer_pair_file, "config": None}
    paths[name] = write_subspace(tmp_path / f"{name}.json", doc)
    config = ["--config", paths["config"]] if paths["config"] else []
    code = main([*config, "--out-dir", str(tmp_path / "out"), "check",
                 "--subspace", paths["subspace"]])
    err = capsys.readouterr().err
    kind = "invalid-config" if name == "config" else "invalid-arguments"
    assert code == 2
    assert err.startswith(f"error[{kind}]:") and detail in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, kind, what", [
    (["--config", "{bad}", "evolve", "--delta", "0"], "invalid-config", "config file"),
    (["check", "--subspace", "{bad}"], "invalid-arguments", "subspace file"),
    (["ingest", "--subspace", "{sub}", "--counts", "{bad}"], "invalid-arguments", "count file"),
    (["fidelity", "--theory", "{sub}", "--experiment", "{bad}"], "invalid-arguments",
     "distribution file"),
], ids=["config", "subspace", "counts", "distribution"])
def test_non_utf8_file_exits_2_without_traceback(tmp_path, capsys, three_state_file, argv,
                                                 kind, what):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("structure_id,length_mm,input_state,detector_pair,counts\n"
                    "s1,80,|2000>,caf\u00e9,5\n".encode("latin-1"))
    paths = {"sub": three_state_file, "bad": bad}
    code = main(["--out-dir", str(tmp_path / "out"), *(a.format(**paths) for a in argv)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error[{kind}]: cannot read {what} {bad}: 'utf-8' codec")
    assert err.count("\n") == 1


# Every numeric or list flag of evolve, enumerate, scan, plateau and
# simulate-counts, and the global --seed, with base arguments under which
# its value matters; the --grid and --lengths cells drop the base lengths.
SCAN_BASE = ["--subspace", "{sub}", "--lengths", "80,90", "--hom-bunched"]
FUZZ_CELLS = [
    ("evolve", [], "--delta"),
    ("evolve", [], "--length"),
    ("enumerate", ["--particles", "1"], "--particles"),
    ("enumerate", ["--particles", "1"], "--cap"),
    *((command, [*SCAN_BASE, *extra], flag)
      for command, extra in (("scan", ["--mode", "synthetic"]), ("plateau", []),
                             ("simulate-counts", []))
      for flag in ("--inputs", "--lengths", "--grid", "--trials", "--visibility", "--seed")),
    ("plateau", [*SCAN_BASE, "--clip-hi", "95"], "--clip-lo"),
    ("plateau", [*SCAN_BASE, "--clip-lo", "70"], "--clip-hi"),
    ("plateau", ["--table-s2"], "--table-grid-step"),
]
FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "", "x", "2", "1e400", "80,80", "90:80:1",
               "2000,2000"]


@pytest.mark.parametrize("value", FUZZ_VALUES)
@pytest.mark.parametrize("command, base, flag", FUZZ_CELLS,
                         ids=[f"{c}{f}" for c, _, f in FUZZ_CELLS])
def test_flag_values_exit_cleanly(tmp_path, capsys, three_state_file, command, base, flag,
                                  value):
    """Any value of any numeric or list flag: exit 0, or one error line."""
    base = [a.format(sub=three_state_file) for a in base]
    if flag in ("--lengths", "--grid"):
        base = [a for a in base if a not in ("--lengths", "80,90")]
    argv = [flag, value, command, *base] if flag == "--seed" else [command, *base, flag, value]
    code = main(["--out-dir", str(tmp_path), *argv])
    err = capsys.readouterr().err
    if code == 0:
        assert "error[" not in err
    elif code == 3:
        assert flag == "--cap" and err.startswith("error[cap-exceeded]:")
    else:
        assert code == 2 and err.startswith("error[") and err.count("\n") == 1, err


def _system_axis():
    """The systems of the census axis by name; None is the preset."""
    jx4 = cm.jx4_structure(cm.IDEAL_LENGTH_MM)
    swap = [1, 0, 2, 3]
    two_pair = np.zeros((4, 4))
    two_pair[0, 1] = two_pair[1, 0] = 1.0
    two_pair[2, 3] = two_pair[3, 2] = 0.7
    return {
        "preset": None,
        "file-jx4": jx4,
        "jx4-swapped": cm.CoupledModeSystem(
            cm.CouplingPattern(jx4.pattern.matrix[np.ix_(swap, swap)]), jx4.envelope),
        "jx4-detuned": cm.CoupledModeSystem(jx4.pattern, jx4.envelope,
                                            cm.CouplingPattern(np.diag([0.01, 0, 0, 0]))),
        "jx3": cm.CoupledModeSystem(cm.jx_pattern(3), jx4.envelope),
        "jx5": cm.CoupledModeSystem(cm.jx_pattern(5), jx4.envelope),
        "two-pair": cm.CoupledModeSystem(cm.CouplingPattern(two_pair), jx4.envelope),
    }


SYSTEM_AXIS = _system_axis()


@pytest.mark.parametrize("name", ["preset", "file-jx4", "jx4-detuned"])
def test_evolve_length_writes_the_scan_stack(tmp_path, name):
    """evolve --length L writes the operator and phase that a scan over the
    seven structure lengths uses at L, on the preset and on file configs."""
    system = SYSTEM_AXIS[name]
    config = [] if system is None else ["--config", write_system(tmp_path / "s.json", system)]
    family = cm.StructureFamily(system or cm.jx4_structure(cm.IDEAL_LENGTH_MM))
    lengths = np.array(cm.STRUCTURE_LENGTHS_MM)
    stack, phases = xp.CurveEngine(lengths, family).u_stack, family.phase(lengths)
    for length, u, delta in zip(lengths.tolist(), stack, phases):
        assert main([*config, "--out-dir", str(tmp_path), "evolve", "--length",
                     repr(length)]) == 0
        doc = json.loads((tmp_path / "evolution.json").read_text())
        assert np.array_equal(read_matrix(doc), u) and doc["delta"] == delta


@pytest.mark.parametrize("particle", ["boson", "fermion", "distinguishable"])
@pytest.mark.parametrize("name", list(SYSTEM_AXIS))
def test_enumerate_and_check_on_every_system(tmp_path, capsys, name, particle):
    """Every admitted system through every command that takes a system: a
    documented exit code, one error line when it is not 0, no traceback,
    and a report over the config's own modes."""
    system = SYSTEM_AXIS[name]
    modes = 4 if system is None else system.modes
    config = [] if system is None else ["--config", write_system(tmp_path / "s.json", system)]
    basis = fock.enumerate_basis(modes, 2, cli._particle_type(particle, 2))
    sub = write_subspace(tmp_path / "sub.json", hol.subspace_to_json(
        hol.Subspace(basis, basis.states[:2])))
    counts = str(tmp_path / "simulate-counts" / "counts.csv")
    for command in (["enumerate", "--particles", "2", "--type", particle],
                    ["check", "--subspace", sub],
                    ["evolve", "--delta", "3.1"], ["evolve", "--length", "84.9"],
                    ["scan", "--subspace", sub],
                    ["plateau", "--subspace", sub, "--grid", "80:100:1"],
                    ["simulate-counts", "--subspace", sub, "--trials", "100"],
                    ["ingest", "--subspace", sub, "--counts", counts]):
        out = tmp_path / command[0]
        code = main([*config, "--out-dir", str(out), *command])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert code in (0, 2, 3, 4, 5), (command, code)
        if code:
            assert captured.err.startswith("error[") and captured.err.count("\n") == 1
        if code == 0 and command[0] == "enumerate":
            report = json.loads((out / "enumeration_report.json").read_text())
            assert report["modes"] == modes


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-h"])
    assert exc.value.code == 0
    assert "--particles" in capsys.readouterr().out


@pytest.mark.parametrize("command, argv", [
    ("fidelity", ["--theory", "t.json", "--experiment", "e.json"]),
    ("simulate-counts", []),
])
def test_main_runs_the_command_found_by_name(monkeypatch, command, argv):
    """``main`` looks ``cmd_<command>`` up when it is called, so a rebound
    attribute is the one that runs (the parser is built once per process)."""
    seen = []
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                        lambda args: seen.append(args.command) or 7)
    assert main([command, *argv]) == 7
    assert seen == [command]
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, outer_pair_file):
    """Failing calls leave the one parser as they found it: every call exits
    and writes as it does on a freshly built parser."""
    calls = [
        ["scan", "--subspace", outer_pair_file, "--grid", "80:90:1", "--lengths", "80,85"],
        ["scan", "--subspace", outer_pair_file, "--lengths", "80,85,90"],
        ["plateau", "--table-s2", "--mode", "synthetic"],
        ["simulate-counts", "--lengths", "80,90"],
        ["simulate-counts", "--subspace", outer_pair_file, "--lengths", "80,90",
         "--trials", "100"],
        ["enumerate", "--particles", "two"],
        ["enumerate", "--particles", "1"],
    ]

    def run(directory, fresh):
        codes = []
        for i, argv in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            codes.append(main(["--out-dir", str(directory / str(i)), *argv]))
        err = capsys.readouterr().err
        files = {p.relative_to(directory): p.read_bytes()
                 for p in sorted(directory.rglob("*")) if p.is_file()}
        return codes, err, files

    shared = run(tmp_path / "shared", fresh=False)
    assert shared == run(tmp_path / "fresh", fresh=True)
    assert shared[0] == [2, 0, 2, 2, 0, 2, 0]


@pytest.mark.parametrize("argv", [
    ["check"], ["scan"], ["plateau"], ["simulate-counts"], ["ingest", "--counts", "c.csv"],
], ids=lambda argv: argv[0])
def test_missing_subspace_is_one_error_line(tmp_path, capsys, argv):
    code = main(["--out-dir", str(tmp_path), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error[invalid-arguments]: this command needs --subspace FILE\n"
    assert "Traceback" not in captured.out


def test_short_config_length_is_a_config_error(tmp_path, capsys, outer_pair_file):
    """A preset length_mm below 60 mm is the config's mistake (a short --length
    is the caller's: see test_bad_arguments_exit_2_without_traceback)."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "paper-jx4", "length_mm": 59}))
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "check",
                 "--subspace", outer_pair_file])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[invalid-config]:") and "at least 60.0 mm" in err
