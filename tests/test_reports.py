"""Report bytes: the JSON and CSV writers against the recursive and
``csv.writer`` forms they replaced, and golden hashes of the count round
trip's reports (the census's are in ``test_enumeration.py``)."""

import csv
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomode import coupledmode as cm
from geomode import enumeration as en
from geomode import experiment as xp
from geomode import holonomy as hol
from geomode import report
from geomode.cli import main
from geomode.fock import ParticleType, enumerate_basis

REPORT_HASHES = json.loads((Path(__file__).parent / "data" / "report_hashes.json").read_text())


# ------------------------------------------------------------ JSON oracle


def oracle_format_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if v != v or v in (float("inf"), float("-inf")):
            return "null"
        return format(v, ".17g")
    raise TypeError(f"cannot serialize {type(x)!r}")


def oracle_dumps_json(obj, indent: int = 0) -> str:
    """The recursive writer: one call per container, one per number."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {oracle_dumps_json(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating, type(None), bool))
               for v in seq):
            return "[" + ", ".join(oracle_format_scalar(v) for v in seq) + "]"
        parts = [f"{inner}{oracle_dumps_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, complex):
        return "[" + oracle_format_scalar(obj.real) + ", " + oracle_format_scalar(obj.imag) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    return oracle_format_scalar(obj)


def write_subspace(path, states, particle="boson"):
    path.write_text(json.dumps({"particle": particle, "states": states}))
    return str(path)


@pytest.fixture
def recorded_reports(monkeypatch):
    """Every (path, document) that ``report.write_json`` writes."""
    written = []
    real = report.write_json

    def record(path, obj):
        written.append((path, obj))
        real(path, obj)

    monkeypatch.setattr(report, "write_json", record)
    return written


def run_matrix(tmp_path):
    three = write_subspace(tmp_path / "three.json", [[2, 0, 0, 0], [1, 0, 0, 1], [0, 0, 0, 2]])
    mixed = write_subspace(tmp_path / "mixed.json", [[2, 0, 0, 0], [0, 2, 0, 0]])
    out = ["--out-dir", str(tmp_path / "out")]
    codes = [main([*out, "evolve", "--length", "84.9"]),
             main([*out, "enumerate", "--particles", "2"]),
             main([*out, "check", "--subspace", three]),
             main([*out, "check", "--subspace", mixed]),
             main([*out, "scan", "--subspace", three]),
             main([*out, "--seed", "5", "scan", "--subspace", three, "--mode", "synthetic",
                   "--trials", "20"]),
             main([*out, "plateau", "--subspace", three, "--rule", "experimental"]),
             main([*out, "plateau", "--table-s2", "--table-grid-step", "0.05"]),
             main([*out, "--seed", "5", "simulate-counts", "--subspace", three,
                   "--trials", "20"]),
             main([*out, "ingest", "--subspace", three, "--counts",
                   str(tmp_path / "out" / "counts.csv")])]
    return codes


def test_dumps_json_matches_recursive_writer_on_every_report(tmp_path, recorded_reports):
    codes = run_matrix(tmp_path)
    assert codes[:3] + codes[4:] == [0] * 9 and codes[3] != 0
    names = {path.name for path, _ in recorded_reports}
    assert names == {"evolution.json", "enumeration_report.json", "check_report.json",
                     "scan_result.json", "plateau_report.json", "plateau_table.json",
                     "ingested_scan.json"}
    assert len(recorded_reports) == 9
    for path, doc in recorded_reports:
        assert report.dumps_json(doc) == oracle_dumps_json(doc), path.name
    # the last write of each name is the file on disk
    for path, doc in dict(recorded_reports).items():
        assert path.read_text() == oracle_dumps_json(doc) + "\n"


KEYS = st.sampled_from(["a", "b", "length_mm", "%s", "100%", 'q"k', "é", 7])
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, 1e308, 5e-324]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)


def records(values):
    """Lists of dicts with the same keys in the same order."""
    return st.lists(KEYS, unique=True, max_size=4).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: values for k in keys}),
                              min_size=1, max_size=5))


DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        records(LEAVES),
        records(children),
        st.lists(st.dictionaries(KEYS, LEAVES, max_size=3), min_size=1, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=250)
@given(DOCUMENTS)
def test_dumps_json_matches_recursive_writer(doc):
    assert report.dumps_json(doc) == oracle_dumps_json(doc)


@pytest.mark.parametrize("doc", [
    [{"x": 1.0, "y": None}, {"x": 2.5, "y": 0.1}],
    [{"x": 1.0}, {"y": 1.0}],
    [{"x": 1.0, "y": 2.0}, {"y": 2.0, "x": 1.0}],
    [{"x": [1.0]}, {"x": [2.0]}],
    [{}, {}],
    {"curves": {"|2000>": [{"length_mm": 80.0, "probability": math.nan, "sigma": math.inf}]}},
    [{"x": np.float64(0.1), "c": 1 + 2j, "s": "%d", "b": True, "i": np.int64(3)}] * 3,
    np.arange(3.0),
    [np.arange(2.0), {"k": ()}],
    [{"v": True}, {"v": 1}, {"v": 0}, {"v": False}, {"v": None}, {"v": 1}, {"v": True}],
    [{"m": ["|20>", "|02>"], "c": None}, {"m": (), "c": "scalar"}, {"m": ('a"b',), "c": "%s"}],
], ids=["records-with-null", "differing-keys", "differing-order", "container-values",
        "empty-dicts", "non-finite", "mixed-types", "array", "nested", "bools-and-ints",
        "label-lists"])
def test_dumps_json_matches_recursive_writer_on_edge_cases(doc):
    assert report.dumps_json(doc) == oracle_dumps_json(doc)


def test_dumps_json_rejects_unknown_values():
    for doc in ([{"x": object()}], [{"x": np.bool_(True)}, {"x": np.bool_(False)}]):
        with pytest.raises(TypeError):
            oracle_dumps_json(doc)
        with pytest.raises(TypeError):
            report.dumps_json(doc)


# ------------------------------------------------------------- CSV oracle


def oracle_write_csv(result, path):
    """The ``csv.writer`` export, one ``writerow`` per point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["input_state", "length_mm", "probability", "sigma"])
        for lab, curve in result.curves.items():
            for x, p, s in zip(*curve):
                writer.writerow([
                    lab, f"{x:.17g}",
                    "" if np.isnan(p) else f"{p:.17g}",
                    "" if np.isnan(s) else f"{s:.17g}",
                ])


def test_scan_csv_matches_csv_writer(tmp_path):
    sub = hol.subspace_from_json({"particle": "boson", "states": [[2, 0, 0, 0], [0, 0, 0, 2]]},
                                 modes=4)
    nan = math.nan
    points = {  # (length, probability, sigma); NaN is undefined
        "|2000>": [(80.0, 0.25, 0.01), (80.5, nan, nan), (81.0, 1.0, nan), (-0.0, nan, 5e-324)],
        'a,"b%s\r\n': [(1e308, nan, math.inf), (3, 1, 0)],
        "": [(0.1, 0.2, 0.3)],
        "|0002>": [],
        "all defined": [(90.0 + k / 7, k / 9, k / 11) for k in range(5)],
    }
    result = xp.ScanResult(sub, "ingested", {
        label: xp.Curve(*np.array(rows, dtype=float).reshape(-1, 3).T)
        for label, rows in points.items()})
    result.write_csv(tmp_path / "new.csv")
    oracle_write_csv(result, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_enumeration_csv_matches_csv_writer(tmp_path):
    system = cm.jx4_structure(cm.IDEAL_LENGTH_MM)
    for particle in (ParticleType.boson(), ParticleType.distinguishable("p,", 'q"')):
        report = en.enumerate_holonomic(system, enumerate_basis(4, 2, particle))
        report.write_csv(tmp_path / "new.csv")
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["members", "dimension", "cyclic", "holonomic", "classification",
                             "max_k"])
            for r in report.records:
                writer.writerow([" ".join(r.members), r.dimension, r.cyclic, r.holonomic,
                                 r.classification or "", f"{r.max_k:.17g}"])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


CSV_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "%", "a", "b", " "]), max_size=6)
CSV_KINDS = [CSV_TEXT, st.integers(-2 ** 70, 2 ** 70), st.booleans(),
             st.floats(allow_nan=True, allow_infinity=True)]
CSV_KINDS.append(st.one_of(st.none(), *CSV_KINDS))  # a mixed column


def csv_tables():
    """(header, rows) of two to five columns, each column of one kind or mixed."""
    return st.lists(st.sampled_from(CSV_KINDS), min_size=2, max_size=5).flatmap(
        lambda kinds: st.tuples(st.tuples(*[CSV_TEXT] * len(kinds)),
                                st.lists(st.tuples(*kinds), max_size=8)))


@settings(max_examples=300)
@given(csv_tables())
def test_shared_csv_writer_matches_csv_writer(tmp_path_factory, table):
    """The one CSV writer has ``csv.writer``'s bytes once a float is given
    as its 17-digit text and a NaN as an empty cell."""
    header, rows = table
    directory = tmp_path_factory.getbasetemp()
    report.write_csv(directory / "new.csv", header, rows)
    with open(directory / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([("" if math.isnan(v) else f"{v:.17g}") if isinstance(v, float) else v
                          for v in row] for row in rows)
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


def test_census_module_does_not_load_the_simulator():
    src = str(Path(report.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import geomode.enumeration\n"
            "print('geomode.experiment' in sys.modules, 'geomode.report' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["False", "True"]


# ------------------------------------------------------- golden reports


@pytest.mark.parametrize("case", sorted(REPORT_HASHES["cases"]))
def test_count_round_trip_report_hashes(tmp_path, case):
    """simulate-counts, ingest and scan --mode synthetic at the golden
    seed reproduce the stored sha256 of every report."""
    spec = REPORT_HASHES["cases"][case]
    sub = write_subspace(tmp_path / "sub.json", REPORT_HASHES["states"])
    out = tmp_path / "out"
    common = ["--seed", str(REPORT_HASHES["seed"]), "--out-dir", str(out)]
    assert main([*common, "simulate-counts", "--subspace", sub, *spec["args"]]) == 0
    assert main([*common, "ingest", "--subspace", sub, "--counts", str(out / "counts.csv")]) == 0
    assert main([*common, "scan", "--mode", "synthetic", "--subspace", sub, *spec["args"]]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in spec["sha256"]}
    assert got == spec["sha256"]


PLATEAU_HASHES = json.loads((Path(__file__).parent / "data" / "plateau_hashes.json").read_text())


@pytest.mark.parametrize("case", sorted(PLATEAU_HASHES["cases"]))
def test_plateau_report_hashes(tmp_path, capsys, case):
    """plateau --table-s2 and plateau --subspace reproduce the stored
    sha256 of their report and standard output, bit for bit."""
    spec = PLATEAU_HASHES["cases"][case]
    sub = write_subspace(tmp_path / "sub.json", PLATEAU_HASHES["states"])
    out = tmp_path / "out"
    args = [a.format(subspace=sub) for a in spec["args"]]
    assert main(["--out-dir", str(out), "plateau", *args]) == 0
    stdout, stderr = capsys.readouterr()
    got = {"report": hashlib.sha256((out / spec["report"]).read_bytes()).hexdigest(),
           "stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    assert got == spec["sha256"]
    assert stderr == ""


SCAN_HASHES = json.loads((Path(__file__).parent / "data" / "scan_hashes.json").read_text())


@pytest.mark.parametrize("case", sorted(SCAN_HASHES["cases"]))
def test_theory_scan_report_hashes(tmp_path, capsys, case):
    """scan in theory mode reproduces the stored sha256 of its JSON and
    CSV reports and standard output, bit for bit."""
    spec = SCAN_HASHES["cases"][case]
    sub = write_subspace(tmp_path / "sub.json", SCAN_HASHES["states"])
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "scan", "--subspace", sub, *spec["args"]]) == 0
    stdout, stderr = capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in ("scan_result.json", "scan_curves.csv")}
    got["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert got == spec["sha256"]
    assert stderr == ""
