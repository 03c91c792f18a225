"""In-memory span tracer that wraps geomode's public functions from outside.

A :class:`Tracer` replaces selected functions and methods of the geomode
modules with thin wrappers while a traced pass runs, and puts every
original back afterwards.  Each wrapper call records one span
``[name, start, end, parent, pass_id]``; functions called tens of
thousands of times per pass at a few microseconds each are only counted,
so that the wrapper's own cost does not distort the times.

Binding sites: a module-level function is patched in every geomode
module whose namespace holds it (``experiment`` imports ``evolve``,
``lift_unitary`` and ``lift_unitary_batch`` by name).  Methods are patched
on their class; ``CurveEngine`` itself is never rebound because
``plateau_width_delta`` subclasses it at call time.

What cannot be wrapped from outside:

* default arguments bound at definition time, e.g.
  ``structure_factory=jx4_structure`` of ``CurveEngine``, ``scan``,
  ``simulate_counts`` and ``theory_plateau_widths``; the number of
  structures built is derived from the engine lengths instead;
* ``functools.cached_property`` values such as ``CouplingPattern._eigh``
  once computed;
* private helpers (``holonomy._k_pair_terms``, ``experiment._sample_counts``),
  which are left alone on purpose: only public names are wrapped.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from time import perf_counter

#: (module, attribute path, span name, mode) for every wrapped name.
#: ``mode`` is "span" (timed) or "count" (call count only).
TARGETS = (
    ("coupledmode", "Envelope.phase", "coupledmode.phase", "span"),
    ("coupledmode", "evolve", "coupledmode.evolve", "span"),
    ("coupledmode", "CouplingPattern.unitary_batch", "coupledmode.unitary_batch", "span"),
    ("fock", "lift_unitary", "fock.lift_unitary", "span"),
    ("fock", "lift_unitary_batch", "fock.lift_unitary_batch", "span"),
    ("fock", "permanent_naive", "fock.permanent_naive", "count"),
    ("holonomy", "k_matrix", "holonomy.k_matrix", "span"),
    ("holonomy", "mode_coupling_on_grid", "holonomy.mode_coupling_on_grid", "span"),
    ("enumeration", "decompose_orbits", "enumeration.decompose_orbits", "span"),
    ("enumeration", "enumerate_holonomic", "enumeration.enumerate_holonomic", "span"),
    ("experiment", "CurveEngine.__init__", "experiment.CurveEngine", "span"),
    ("experiment", "CurveEngine.success_curve", "experiment.success_curve", "span"),
    ("experiment", "plateau_interval", "experiment.plateau_interval", "span"),
    ("experiment", "plateau_width_delta", "experiment.plateau_width_delta", "span"),
    ("experiment", "simulate_counts", "experiment.simulate_counts", "span"),
    ("experiment", "scan", "experiment.scan", "span"),
    ("experiment", "detect", "experiment.detect", "span"),
    ("experiment", "invert_counts", "experiment.invert_counts", "span"),
    ("experiment", "write_counts_csv", "experiment.write_counts_csv", "span"),
    ("experiment", "ingest_counts", "experiment.ingest_counts", "span"),
    ("reference", "compare_reference_widths", "reference.compare_reference_widths", "span"),
    ("reference", "non_holonomic_widths", "reference.non_holonomic_widths", "span"),
    ("cli", "main", "cli.main", "span"),
    ("cli", "cmd_enumerate", "cli.enumerate", "span"),
    ("cli", "cmd_scan", "cli.scan", "span"),
    ("cli", "cmd_plateau", "cli.plateau", "span"),
    ("cli", "cmd_simulate_counts", "cli.simulate-counts", "span"),
    ("cli", "cmd_ingest", "cli.ingest", "span"),
)

MODULES = ("coupledmode", "fock", "holonomy", "enumeration", "experiment", "reference", "cli")

#: Per-layer metrics of a traced pass: (name, unit, better, workloads it
#: must be non-zero on).  Every one of them moves ``wall_s`` on the listed
#: workloads; the README gives the reasoning.
PER_LAYER = (
    ("coupledmode.phase.calls", "count", "lower", ("widths", "counts")),
    ("coupledmode.phase.s", "s", "lower", ("widths", "counts")),
    ("coupledmode.evolve.calls", "count", "lower", ("widths", "counts")),
    ("coupledmode.evolve.s", "s", "lower", ("widths", "counts")),
    ("coupledmode.unitary_batch.s", "s", "lower", ("widths",)),
    ("coupledmode.structures_built", "count", "lower", ("widths",)),
    ("fock.lift_unitary.calls", "count", "lower", ("census", "widths")),
    ("fock.lift_unitary.s", "s", "lower", ("census", "widths")),
    ("fock.lift_unitary_batch.calls", "count", "lower", ("widths", "counts")),
    ("fock.lift_unitary_batch.s", "s", "lower", ("widths", "counts")),
    ("fock.permanent_naive.calls", "count", "lower", ("census",)),
    ("holonomy.k_matrix.calls", "count", "lower", ("census",)),
    ("holonomy.k_matrix.s", "s", "lower", ("census",)),
    ("holonomy.mode_coupling_on_grid.s", "s", "lower", ("census",)),
    ("enumeration.decompose_orbits.s", "s", "lower", ("census",)),
    ("enumeration.enumerate_holonomic.s", "s", "lower", ("census",)),
    ("enumeration.enumerate_holonomic.self_s", "s", "lower", ("census",)),
    ("enumeration.unions_checked", "count", "lower", ("census",)),
    ("enumeration.holonomic_ratio", "ratio", "higher", ("census",)),
    ("experiment.CurveEngine.calls", "count", "lower", ("widths",)),
    ("experiment.CurveEngine.s", "s", "lower", ("widths",)),
    ("experiment.success_curve.s", "s", "lower", ("widths",)),
    ("experiment.plateau_interval.calls", "count", "lower", ("widths",)),
    ("experiment.plateau_interval.s", "s", "lower", ("widths",)),
    ("experiment.plateau_width_delta.s", "s", "lower", ("widths",)),
    ("experiment.width_delta_dev_max", "rad", "lower", ("widths",)),
    ("experiment.simulate_counts.s", "s", "lower", ("counts",)),
    ("experiment.scan.s", "s", "lower", ("counts",)),
    ("experiment.detect.calls", "count", "lower", ("counts",)),
    ("experiment.detect.s", "s", "lower", ("counts",)),
    ("experiment.invert_counts.calls", "count", "lower", ("counts",)),
    ("experiment.invert_counts.s", "s", "lower", ("counts",)),
    ("experiment.write_counts_csv.s", "s", "lower", ("counts",)),
    ("experiment.count_bytes", "B", "lower", ("counts",)),
    ("experiment.ingest_counts.s", "s", "lower", ("counts",)),
    ("experiment.ingest_rows", "count", "lower", ("counts",)),
    ("reference.compare_reference_widths.s", "s", "lower", ("widths",)),
    ("reference.non_holonomic_widths.s", "s", "lower", ("widths",)),
    ("cli.enumerate.s", "s", "lower", ("census",)),
    ("cli.plateau.s", "s", "lower", ("widths",)),
    ("cli.scan.s", "s", "lower", ("counts",)),
    ("cli.simulate-counts.s", "s", "lower", ("counts",)),
    ("cli.ingest.s", "s", "lower", ("counts",)),
    ("cli.self_s", "s", "lower", ("counts",)),
    ("cli.report_bytes", "B", "lower", ("census", "widths", "counts")),
    ("setup.import_s", "s", "lower", ("census", "widths", "counts")),
    ("trace.overhead_s", "s", "lower", ("census", "widths", "counts")),
)


def _resolve(module, path):
    """(owner, attribute) for a dotted path inside a module."""
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.pass_id = 0
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------- patch/restore

    def install(self):
        """Replace every target at every binding site; idempotent."""
        if self._saved:
            return
        modules = [getattr(self.package, m) for m in MODULES]
        for mod_name, path, name, mode in TARGETS:
            owner, attr = _resolve(getattr(self.package, mod_name), path)
            original = owner.__dict__[attr]
            after = _structures_built if name == "experiment.CurveEngine" else None
            wrapper = (self._span(name, original, after) if mode == "span"
                       else self._count(name, original))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def add(self, name, value):
        self.counts[name] += value


def _structures_built(tracer, args, _result):
    tracer.add("coupledmode.structures_built", len(args[0].lengths))


# ----------------------------------------------------------- span arithmetic


def self_times(spans):
    """Self time per span: its duration minus the part its children cover.

    Children of one span may in principle overlap; their covered time is
    the length of the union of their intervals, clipped to the parent.
    """
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def pass_metrics(spans, counts, health, pass_id):
    """Per-layer values of traced pass ``pass_id`` from its spans, counters and health.

    ``spans`` may hold several passes; ``counts`` holds this pass only.
    ``health`` holds values measured by the correctness checks:
    ``experiment.width_delta_dev_max``,
    ``experiment.count_bytes``, ``experiment.ingest_rows``,
    ``cli.report_bytes`` and ``enumeration.holonomic_records``.
    """
    own = self_times(spans)
    calls, total, self_s = Counter(), Counter(), Counter()
    cli_self = 0.0
    unions = 0
    for i, (name, start, end, _, pid) in enumerate(spans):
        if pid != pass_id:
            continue
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own[i]
        if name.startswith("cli."):
            cli_self += own[i]
        if name == "holonomy.k_matrix" and _has_ancestor(spans, i, "enumeration.enumerate_holonomic"):
            unions += 1
    out = {}
    for name, _, _, _ in PER_LAYER:
        if name == "cli.self_s":
            value = cli_self
        elif name == "enumeration.unions_checked":
            value = unions
        elif name == "enumeration.holonomic_ratio":
            value = health.get("enumeration.holonomic_records", 0) / unions if unions else 0.0
        elif name in health:
            value = health[name]
        elif name in counts:
            value = counts[name]
        elif name.endswith(".calls"):
            base = name[: -len(".calls")]
            value = calls[base] + counts.get(base, 0)
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            value = total[name[: -len(".s")]]
        else:  # setup.import_s and trace.overhead_s: filled in by the worker
            value = 0
        out[name] = value
    return out


def median_metrics(per_pass):
    """Median over passes of each per-layer value."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
