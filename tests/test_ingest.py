"""Columnar count ingest against the row-by-row reader it replaced.

``row_loop_ingest`` is the reference: it reads the count file with
``csv.reader``, one Python row at a time, and groups each input's rows
with ``np.unique`` and ``np.add.at``.  Every generated file must give
bit-equal curves (compared by ``repr``, so -0.0 and the last float bit
count), the same warnings, or a ValueError with the same text and line
number.
"""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomode import experiment as xp
from geomode import holonomy as hol

BOSONS = hol.subspace_from_json(
    {"particle": "boson", "states": [[2, 0, 0, 0], [1, 0, 0, 1], [0, 0, 0, 2]]}, modes=4)
# labels and channel names holding "," and '"' come from the subspace file's keys
QUOTED = hol.subspace_from_json(json.loads(json.dumps(
    {"particle": "distinguishable", "modes": 4,
     "states": [{'x,"1': 1, "y": 4}, {'x,"1': 4, "y": 1}]})))
MODEL = xp.DetectionModel()


def row_loop_ingest(path, sub, detection=None, family=None):
    """The row-by-row reader: csv.reader, a float pair, a tuple and a
    dict.setdefault per row, then one np.add.at per input."""
    detection = detection or xp.DetectionModel()
    records = {}  # input label -> [(line, length, channel, counts)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            warnings.warn(f"count file {path} is empty")
            return xp.ScanResult(sub, "ingested")
        missing = set(xp.COUNT_COLUMNS) - set(header)
        if missing:
            raise ValueError(f"count file missing columns {sorted(missing)}")
        i_length, i_label, i_channel, i_counts = (header.index(name)
                                                  for name in xp.COUNT_COLUMNS[1:])
        for row in filter(None, reader):
            lineno = reader.line_num
            try:
                length, counts = float(row[i_length]), float(row[i_counts])
                label, channel = row[i_label], row[i_channel]
                if counts < 0 or not math.isfinite(length + counts) or not label or not channel:
                    raise ValueError
            except (IndexError, ValueError):
                raise ValueError(f"malformed count row at line {lineno}") from None
            records.setdefault(label, []).append((lineno, length, channel, counts))

    if not records:
        warnings.warn(f"count file {path} has no data rows")
        return xp.ScanResult(sub, "ingested")

    ideal = (family or xp.StructureFamily(xp.jx4_structure(xp.IDEAL_LENGTH_MM))).cycle()
    states = {state.label(): state for state in sub.basis.states}
    result = xp.ScanResult(sub, "ingested")
    for label in sorted(records):
        lines, lengths, names, values = zip(*records[label])
        if label not in states:
            raise ValueError(f"unknown input_state {label!r} at line {lines[0]}")
        spec = xp.InputSpec(states[label])
        statistics = (xp.DISTINGUISHABLE_STATS if names[0].startswith("n")
                      else xp._statistics(sub, spec))
        channels = xp.channel_map(sub.basis, statistics, detection)
        index = {name: c for c, name in enumerate(channels.labels)}
        for lineno, name in zip(lines, names):
            if name not in index:
                raise ValueError(f"unknown detector_pair {name!r} at line {lineno}")
        grid, at = np.unique(lengths, return_inverse=True)
        counts = np.zeros((grid.size, len(channels.labels)))
        np.add.at(counts, (at, [index[name] for name in names]), values)
        target, = xp._ideal_targets(sub, ideal, [spec.state])
        result.curves[label] = xp._success_points(grid, sub, target,
                                                  *channels.estimate(counts))
    return result


def outcome(reader, path, sub):
    """('ok', repr of the curves' values, warnings) or ('error', message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = reader(path, sub, MODEL)
        except ValueError as exc:
            return "error", str(exc)
    curves = {label: [a.tolist() for a in curve] for label, curve in result.curves.items()}
    return "ok", repr(curves), [str(w.message) for w in caught]


def quote(field: str) -> str:
    return '"' + field.replace('"', '""') + '"'


#: texts of one length (mm) or one count that parse to the same float
LENGTHS = [["80", "80.0", "8e1", " 80", "+80.000"], ["85.5", "85.50"], ["90.02"],
           ["1e-3"], ["0"], ["-0.0"], ["1e308"]]
COUNTS = ["0", "0", "0", "1", "5", "17", "2.5", "1e1", "123456", " 3 "]
#: a malformed cell: (column, text); None drops the row's last fields
BAD_CELLS = [("length_mm", "eighty"), ("length_mm", "nan"), ("length_mm", "inf"),
             ("length_mm", ""), ("counts", "-1"), ("counts", "x"), ("counts", "-inf"),
             ("counts", "1e308"), ("input_state", ""), ("detector_pair", ""),
             ("input_state", "|0000>"), ("detector_pair", "m9"), (None, None)]
NOTES = ["", "plain", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "x" * 40]


@st.composite
def count_files(draw):
    """(file text, subspace) of a count file with a permuted header and an
    extra column, optional quoting, blank lines, LF/CRLF/CR line ends and
    maybe one malformed cell."""
    sub = draw(st.sampled_from([BOSONS, QUOTED]))
    columns = draw(st.permutations([*xp.COUNT_COLUMNS, "note"]))
    labels = draw(st.lists(st.sampled_from([m.label() for m in sub.members]),
                           min_size=1, max_size=len(sub.members), unique=True))
    rows = []
    for label in labels:
        statistics = draw(st.sampled_from([xp._statistics(sub, xp.InputSpec(
            sub.members[0])), xp.DISTINGUISHABLE_STATS]))
        names = xp.channel_map(sub.basis, statistics, MODEL).labels
        channels = draw(st.lists(st.sampled_from(names), min_size=1, max_size=6))
        for length in draw(st.lists(st.sampled_from(LENGTHS), min_size=1, max_size=3)):
            for channel in channels:
                rows.append({"structure_id": "s1", "length_mm": draw(st.sampled_from(length)),
                             "input_state": label, "detector_pair": channel,
                             "counts": draw(st.sampled_from(COUNTS)),
                             "note": draw(st.sampled_from(NOTES))})
    rows = draw(st.permutations(rows))
    if draw(st.sampled_from([False] * 9 + [True])):  # a file cut short, maybe to no rows
        rows = rows[:draw(st.integers(0, len(rows)))]
    short = set()
    if rows and draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        column, text = draw(st.sampled_from(BAD_CELLS))
        if column is None:
            short.add(at)
        else:
            rows[at] = {**rows[at], column: text}
    quoting = sub is QUOTED or draw(st.booleans())

    def field(value):
        must = any(c in value for c in ',"\r\n')
        if not (quoting or must):
            return value
        if must and not quoting:  # the unquoted file drops what it cannot hold
            return value.replace(",", " ").replace('"', "'").replace("\r", " ").replace("\n", " ")
        return quote(value) if must or draw(st.booleans()) else value

    lines = [",".join(map(field, columns))]
    for i, row in enumerate(rows):
        cells = [field(row[name]) for name in columns]
        if i in short:
            cells = cells[:draw(st.integers(1, len(cells) - 1))]
        lines.extend([""] * draw(st.integers(0, 1)) + [",".join(cells)])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + end * draw(st.integers(0, 2))
    empty = draw(st.sampled_from([None] * 19 + ["", end]))
    return (text if empty is None else empty), sub


@settings(max_examples=300)
@given(count_files())
def test_columnar_ingest_matches_row_loop(tmp_path_factory, case):
    text, sub = case
    path = tmp_path_factory.mktemp("ingest") / "counts.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    assert outcome(xp.ingest_counts, path, sub) == outcome(row_loop_ingest, path, sub)


@pytest.mark.parametrize("text, line", [
    ("structure_id,length_mm,input_state,detector_pair,counts\r\n\r\n"
     "s1,80,|2000>,1a-1b,5\r\ns1,80,|2000>,1a-1b\r\n", 4),
    ('structure_id,length_mm,input_state,detector_pair,counts,note\n'
     's1,80,|2000>,1a-1b,5,"two\nlines"\n\ns1,80,|2000>,1a-1b,-1,x\n', 5),
    ("structure_id,length_mm,input_state,detector_pair,counts\n"
     "s1,80,|2000>,1a-1b,5\n\n\ns1,80,,1a-1b,5", 5),
], ids=["crlf-short-row", "quoted-newline-negative", "lf-empty-label-no-final-newline"])
def test_malformed_row_line_numbers(tmp_path, text, line):
    """Blank lines and quoted line breaks count toward the line number."""
    path = tmp_path / "counts.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=f"^malformed count row at line {line}$"):
        xp.ingest_counts(path, BOSONS, MODEL)
    assert outcome(row_loop_ingest, path, BOSONS) == ("error",
                                                      f"malformed count row at line {line}")
