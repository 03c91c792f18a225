"""Simulator and analyzer of the four-waveguide stability experiment.

Success-probability scans over structure length, post-selected onto a
cyclic subspace; a photon-number-resolving detection model (one two-way
fiber splitter per output port) with Poisson counting noise; input
preparation including interference-based bunching with finite
visibility; plateau-width extraction under the theory (slope) and
experimental (step) rules; Bhattacharyya fidelities; and CSV count-data
export/ingestion so externally measured counts run through the same
pipeline.

Statistics conventions
----------------------
An input can be launched with the subspace's native statistics or, for
number-state subspaces, with ``distinguishable`` statistics: the two
photons are then independent (heralded, time-separated) and outcome
probabilities aggregate over the photon-to-mode assignments of each
member's mode multiset.  Assignment-level subspaces (built over a
distinguishable-particle basis) keep each assignment as its own member.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import holonomy as hol
from .coupledmode import (
    FLAT_COUPLING_PER_MM,
    SLOPE_LIMIT_PER_MM,
    STRUCTURE_LENGTHS_MM,
    CoupledModeSystem,
    StructureFamily,
    evolve,
    jx4_family,
    jx_pattern,
)
from .fock import BOSON, DISTINGUISHABLE, FERMION, OccupationState, lift_unitary_batch
from .fock import lift_unitary  # noqa: F401 -- re-exported: the validated single-matrix lift
from .holonomy import Subspace

DEFAULT_SEED = 1022

THEORY_RULE = "theory_1p5pct_per_mm"
EXPERIMENTAL_RULE = "experimental_5pct_step"
EXPERIMENTAL_STEP_LIMIT = 0.05

#: Measured first-arm splitting ratios of the four output-port fiber
#: splitters used by the photon-number-resolving detection stage.
CALIBRATED_SPLITTERS = (0.5130, 0.5736, 0.4419, 0.4751)

#: Interference visibility of the bunched-input preparation stage.
BUNCHED_PREPARATION_VISIBILITY = 0.986

INDISTINGUISHABLE = "indistinguishable"
DISTINGUISHABLE_STATS = "distinguishable"


@dataclass(frozen=True)
class InputSpec:
    """One launched input state.

    ``statistics`` defaults to the subspace's native statistics; pass
    ``"distinguishable"`` to launch independent (heralded) photons into
    the modes of a number state.  ``preparation`` is ``"direct"`` or
    ``"hom_bunched"``; the latter models bunched-state preparation on a
    balanced splitter and mixes distinguishable-photon predictions in
    with weight 1 - visibility.  It requires a doubly occupied boson
    state.
    """

    state: OccupationState
    preparation: str = "direct"
    visibility: float = BUNCHED_PREPARATION_VISIBILITY
    statistics: str | None = None

    def __post_init__(self):
        if self.preparation not in ("direct", "hom_bunched"):
            raise ValueError(f"unknown preparation {self.preparation!r}")
        if self.preparation == "hom_bunched":
            if not 0.0 <= self.visibility <= 1.0:
                raise ValueError("visibility must lie in [0, 1]")
            if self.state.particle.kind != BOSON or 2 not in self.state.occupations:
                raise ValueError("hom_bunched requires a doubly occupied boson state")

    def label(self) -> str:
        return self.state.label()


@dataclass(frozen=True)
class DetectionModel:
    """Photon-number-resolving detection via per-port two-way splitters.

    ``splitter_ratios`` holds the first-arm probability of each output
    port (pairs summing to 1 are also accepted).  Coincidence windows
    are modeled as pure accept/reject; timing is not simulated.
    """

    splitter_ratios: tuple = (0.5, 0.5, 0.5, 0.5)
    trials: int = 100_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        ratios = []
        for r in self.splitter_ratios:
            if isinstance(r, (tuple, list)):
                if len(r) != 2 or abs(r[0] + r[1] - 1.0) > 1e-6:
                    raise ValueError("splitter ratio pairs must sum to 1 within 1e-6")
                r = r[0]
            r = float(r)
            if not 0.0 < r < 1.0:
                raise ValueError("splitter ratios must lie strictly inside (0, 1)")
            ratios.append(r)
        object.__setattr__(self, "splitter_ratios", tuple(ratios))

    def coincidence_efficiency(self, port: int) -> float:
        """Probability that a bunched pair on ``port`` fires both arms."""
        r = self.splitter_ratios[port]
        return 2.0 * r * (1.0 - r)


@dataclass(frozen=True)
class ScanPoint:
    length_mm: float
    probability: float | None
    sigma: float | None


@dataclass
class ScanResult:
    """Per-input success-probability curves over propagation length."""

    subspace: Subspace
    mode: str  # "theory" | "synthetic-experiment" | "ingested"
    curves: dict = field(default_factory=dict)  # input label -> list[ScanPoint]

    def lengths(self, label):
        return np.array([p.length_mm for p in self.curves[label]])

    def probabilities(self, label):
        return np.array([np.nan if p.probability is None else p.probability
                         for p in self.curves[label]])

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "subspace": hol.subspace_to_json(self.subspace),
            "curves": {
                label: [
                    {"length_mm": p.length_mm, "probability": p.probability,
                     "sigma": p.sigma}
                    for p in points
                ]
                for label, points in self.curves.items()
            },
        }

    def write_csv(self, path, label=None):
        """Two-column-per-point curve export: length, probability, sigma."""
        labels = [label] if label else list(self.curves)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["input_state", "length_mm", "probability", "sigma"])
            for lab in labels:
                for p in self.curves[lab]:
                    writer.writerow([
                        lab, f"{p.length_mm:.17g}",
                        "" if p.probability is None else f"{p.probability:.17g}",
                        "" if p.sigma is None else f"{p.sigma:.17g}",
                    ])


# ----------------------------------------------------------- theory curves


def _ideal_target_index(sub: Subspace, ideal, input_state) -> int:
    """Member hit by the input under ``ideal``, the single-particle
    delta = pi cycle; only the input's column over the members is lifted."""
    amps = np.abs(lift_unitary_batch(ideal[None], sub.basis, sub.member_indices,
                                     [sub.basis.index_of(input_state)])[0, :, 0])
    m = int(np.argmax(amps))
    if abs(amps[m] - 1.0) > 1e-8:
        raise ValueError(
            f"input {input_state.label()} has no sharp image inside the subspace"
        )
    return m


def _distagg_probs(u_stack, members, input_modes):
    """Number-state outcome probabilities for independent photons."""
    ia, ib = input_modes
    out = np.empty((u_stack.shape[0], len(members)))
    for mi, member in enumerate(members):
        o1, o2 = member.mode_list()
        p = np.abs(u_stack[:, o1, ia] * u_stack[:, o2, ib]) ** 2
        if o1 != o2:
            p = p + np.abs(u_stack[:, o2, ia] * u_stack[:, o1, ib]) ** 2
        out[:, mi] = p
    return out


class CurveEngine:
    """Batched outcome probabilities of a structure family over lengths.

    The family (default: the calibrated Jx structure) gives one
    single-particle evolution stack.  Each query lifts only the
    amplitudes it reads: the input's column over the outcome states.
    """

    def __init__(self, lengths, family: StructureFamily | None = None):
        family = family or jx4_family(FLAT_COUPLING_PER_MM)
        self.lengths = np.asarray(lengths, dtype=float)
        self.u_stack = family.stack(self.lengths)
        self._ideal = family.pattern.unitary(math.pi)

    def target_index(self, sub: Subspace, input_state) -> int:
        """Member hit by the input under the ideal (delta = pi) evolution."""
        return _ideal_target_index(sub, self._ideal, input_state)

    def outcome_probabilities(self, sub: Subspace, spec: InputSpec,
                              over_members=True) -> np.ndarray:
        """(L, n_outcomes) outcome probabilities for one input.

        Outcomes are the subspace members (``over_members``) or the full
        basis; rows are not normalized (post-selection happens later).
        """
        stats = spec.statistics or (
            DISTINGUISHABLE_STATS if sub.particle.kind == DISTINGUISHABLE else INDISTINGUISHABLE
        )
        if spec.preparation == "hom_bunched":
            direct = replace(spec, preparation="direct")
            p_ind = self.outcome_probabilities(sub, direct, over_members)
            p_dis = self.outcome_probabilities(
                sub, replace(direct, statistics=DISTINGUISHABLE_STATS), over_members)
            v = spec.visibility
            return v * p_ind + (1 - v) * p_dis

        if stats == DISTINGUISHABLE_STATS and sub.particle.kind == BOSON:
            if sub.basis.particles != 2:
                raise ValueError("distinguishable statistics need two particles")
            states = sub.members if over_members else sub.basis.states
            return _distagg_probs(self.u_stack, states, spec.state.mode_list())
        rows = sub.member_indices if over_members else None
        col = [sub.basis.index_of(spec.state)]
        return np.abs(lift_unitary_batch(self.u_stack, sub.basis, rows, col)[:, :, 0]) ** 2

    def success_curve(self, sub: Subspace, spec: InputSpec) -> np.ndarray:
        """Post-selected success probability per length."""
        probs = self.outcome_probabilities(sub, spec)
        target = self.target_index(sub, spec.state)
        total = probs.sum(axis=1)
        return probs[:, target] / total


def success_probability(sub: Subspace, spec: InputSpec, system: CoupledModeSystem) -> float:
    """P(ideal outcome | outcome in subspace) at the system's length."""
    if spec.state.occupations not in {m.occupations for m in sub.members}:
        raise ValueError("input state must be a member of the subspace")
    family = StructureFamily(system.pattern, lambda _: evolve(system).matrix[None])
    engine = CurveEngine([system.length], family)
    return float(engine.success_curve(sub, spec)[0])


def scan(sub: Subspace, inputs, lengths=STRUCTURE_LENGTHS_MM, mode: str = "theory",
         detection: DetectionModel | None = None,
         family: StructureFamily | None = None) -> ScanResult:
    """Success-probability scan over structure lengths.

    ``theory`` returns exact probabilities; ``synthetic-experiment``
    Poisson-samples counts per detector channel, pushes them through
    the detection model, and re-estimates, attaching one-sigma Poisson
    uncertainties.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size == 0 or np.any(np.diff(lengths) <= 0):
        raise ValueError("lengths must be a non-empty ascending list")
    inputs = [spec if isinstance(spec, InputSpec) else InputSpec(spec) for spec in inputs]
    member_keys = {m.occupations for m in sub.members}
    for spec in inputs:
        if spec.state.occupations not in member_keys:
            raise ValueError(f"input {spec.label()} is outside the subspace")

    engine = CurveEngine(lengths, family)
    if mode == "theory":
        result = ScanResult(sub, "theory")
        for spec in inputs:
            curve = engine.success_curve(sub, spec)
            result.curves[spec.label()] = [
                ScanPoint(float(length), float(p), 0.0) for length, p in zip(lengths, curve)
            ]
        return result
    if mode != "synthetic-experiment":
        raise ValueError(f"unknown scan mode {mode!r}")

    detection = detection or DetectionModel()
    if detection.trials <= 0:
        raise ValueError("synthetic scans need a positive Poisson trial count")
    result = ScanResult(sub, "synthetic-experiment")
    for i, spec in enumerate(inputs):
        target = engine.target_index(sub, spec.state)
        full = engine.outcome_probabilities(sub, spec, over_members=False)
        points = []
        for j, length in enumerate(lengths):
            rng = np.random.default_rng(np.random.SeedSequence((detection.seed, i, j)))
            counts = _sample_counts(sub, spec, full[j], detection, rng)
            weights, variances = _estimate_member_weights(sub, spec, counts, detection)
            points.append(_success_from_weights(float(length), weights, variances, target))
        result.curves[spec.label()] = points
    return result


# -------------------------------------------------------------- detection


def _pair_label(port_a, arm_a, port_b, arm_b) -> str:
    names = sorted([f"{port_a + 1}{'ab'[arm_a]}", f"{port_b + 1}{'ab'[arm_b]}"])
    return "-".join(names)


def detect(state_probs, model: DetectionModel, basis) -> dict:
    """Map a two-photon number-state distribution to detector-pair
    coincidence probabilities.

    A bunched state on port k fires the two arms of splitter k with
    probability 2 r_k (1 - r_k) (other events lose the coincidence);
    an anti-bunched state on ports j != k distributes over the four
    cross-port arm pairs by the respective ratios.
    """
    probs = np.asarray(state_probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("state distribution must be normalized")
    if basis.particles != 2 or basis.particle.kind not in (BOSON, FERMION):
        raise ValueError("detector model covers two indistinguishable particles")
    ratios = model.splitter_ratios
    out = {}
    for p, state in zip(probs, basis.states):
        o1, o2 = state.mode_list()
        if o1 == o2:
            out[_pair_label(o1, 0, o1, 1)] = out.get(_pair_label(o1, 0, o1, 1), 0.0) \
                + p * model.coincidence_efficiency(o1)
        else:
            for arm_a in (0, 1):
                for arm_b in (0, 1):
                    w = (ratios[o1] if arm_a == 0 else 1 - ratios[o1]) * \
                        (ratios[o2] if arm_b == 0 else 1 - ratios[o2])
                    label = _pair_label(o1, arm_a, o2, arm_b)
                    out[label] = out.get(label, 0.0) + p * w
    return out


def invert_counts(pair_counts: dict, model: DetectionModel, basis) -> tuple[dict, dict]:
    """Estimate number-state weights (and variances) from pair counts.

    Bunched states divide the same-port coincidence count by
    2 r (1 - r); anti-bunched states sum their four cross-port pairs.
    Zero-count channels contribute one unit of variance so that quoted
    uncertainties never collapse to zero.
    """
    weights, variances = {}, {}
    for state in basis.states:
        o1, o2 = state.mode_list()
        if o1 == o2:
            n = pair_counts.get(_pair_label(o1, 0, o1, 1), 0.0)
            eff = model.coincidence_efficiency(o1)
            weights[state.occupations] = n / eff
            variances[state.occupations] = max(n, 1.0) / eff ** 2
        else:
            labels = [_pair_label(o1, a, o2, b) for a in (0, 1) for b in (0, 1)]
            n = sum(pair_counts.get(lab, 0.0) for lab in labels)
            weights[state.occupations] = n
            variances[state.occupations] = max(n, 1.0)
    return weights, variances


def _sample_counts(sub, spec, full_probs, model: DetectionModel, rng) -> dict:
    """Poisson counts per detector channel for one (input, length)."""
    stats = spec.statistics or (
        DISTINGUISHABLE_STATS if sub.particle.kind == DISTINGUISHABLE else INDISTINGUISHABLE
    )
    basis = sub.basis
    counts = {}
    if basis.particles == 1:
        for p, state in zip(full_probs, basis.states):
            mode = state.mode_list()[0]
            counts[f"m{mode + 1}"] = int(rng.poisson(model.trials * p))
        return counts
    if basis.particle.kind == DISTINGUISHABLE:
        for p, state in zip(full_probs, basis.states):
            labels = basis.particle.labels
            key = "-".join(f"{lab}{m + 1}" for lab, m in zip(labels, state.occupations))
            counts[key] = int(rng.poisson(model.trials * p))
        return counts
    if stats == DISTINGUISHABLE_STATS:
        # heralded pairs resolve the mode multiset directly
        for p, state in zip(full_probs, basis.states):
            o1, o2 = state.mode_list()
            counts[f"n{o1 + 1}{o2 + 1}"] = int(rng.poisson(model.trials * p))
        return counts
    pair_probs = detect(full_probs / full_probs.sum() if abs(full_probs.sum() - 1) > 1e-9
                        else full_probs, model, basis)
    for label, p in pair_probs.items():
        counts[label] = int(rng.poisson(model.trials * p))
    return counts


def _estimate_member_weights(sub, spec, counts: dict, model: DetectionModel):
    stats = spec.statistics or (
        DISTINGUISHABLE_STATS if sub.particle.kind == DISTINGUISHABLE else INDISTINGUISHABLE
    )
    basis = sub.basis
    weights = np.zeros(sub.dimension)
    variances = np.zeros(sub.dimension)
    if basis.particles == 1:
        for mi, member in enumerate(sub.members):
            n = counts.get(f"m{member.mode_list()[0] + 1}", 0.0)
            weights[mi] = n
            variances[mi] = max(n, 1.0)
        return weights, variances
    if basis.particle.kind == DISTINGUISHABLE:
        labels = basis.particle.labels
        for mi, member in enumerate(sub.members):
            key = "-".join(f"{lab}{m + 1}" for lab, m in zip(labels, member.occupations))
            n = counts.get(key, 0.0)
            weights[mi] = n
            variances[mi] = max(n, 1.0)
        return weights, variances
    if stats == DISTINGUISHABLE_STATS:
        for mi, member in enumerate(sub.members):
            o1, o2 = member.mode_list()
            n = counts.get(f"n{o1 + 1}{o2 + 1}", 0.0)
            weights[mi] = n
            variances[mi] = max(n, 1.0)
        return weights, variances
    w_all, v_all = invert_counts(counts, model, basis)
    for mi, member in enumerate(sub.members):
        weights[mi] = w_all[member.occupations]
        variances[mi] = v_all[member.occupations]
    return weights, variances


def _success_from_weights(length, weights, variances, target) -> ScanPoint:
    s = float(weights[target])
    f = float(weights.sum() - s)
    var_s = float(variances[target])
    var_f = float(variances.sum() - var_s)
    total = s + f
    if total <= 0:
        return ScanPoint(length, None, None)
    p = s / total
    var_p = (f * f * var_s + s * s * var_f) / total ** 4
    return ScanPoint(length, p, math.sqrt(var_p))


# ---------------------------------------------------------------- plateaus


@dataclass(frozen=True)
class PlateauInterval:
    start: float
    end: float

    @property
    def width(self) -> float:
        return max(self.end - self.start, 0.0)

    def clipped(self, lo: float, hi: float) -> "PlateauInterval":
        return PlateauInterval(max(self.start, lo), min(self.end, hi))


@dataclass
class PlateauReport:
    rule: str
    per_input: dict  # label -> PlateauInterval
    mean_width: float

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "per_input": {
                lab: {"start_mm": iv.start, "end_mm": iv.end, "width_mm": iv.width}
                for lab, iv in self.per_input.items()
            },
            "mean_width_mm": self.mean_width,
        }


def _slope_edge(lengths, excess, peak: int, step: int) -> float:
    """Edge reached from ``peak`` in direction ``step`` (+1 or -1) while the
    slope excess stays negative; undefined (NaN) samples stop the walk and
    the interpolation to the excess's zero crossing."""
    i = peak
    while 0 <= i + step < len(lengths) and excess[i + step] < 0:
        i += step
    j = i + step
    if 0 <= j < len(lengths) and not np.isnan(excess[i] + excess[j]):
        t = -excess[i] / (excess[j] - excess[i])
        return lengths[i] + t * (lengths[j] - lengths[i])
    return lengths[i]


def plateau_interval(lengths, probs, rule: str = THEORY_RULE,
                     slope_limit: float = SLOPE_LIMIT_PER_MM,
                     step_limit: float = EXPERIMENTAL_STEP_LIMIT) -> PlateauInterval:
    """Contiguous stability region around the curve's peak.

    Theory rule: |dp/dL| < slope_limit (central differences; the edge
    positions are interpolated between grid samples).  Experimental
    rule: consecutive-point differences below ``step_limit``, edges at
    the first/last conforming sample.  Undefined (NaN) points are never
    the peak and end the region; a curve without defined points raises
    ValueError.
    """
    lengths = np.asarray(lengths, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if np.all(np.isnan(probs)):
        raise ValueError("curve has no defined points")
    peak = int(np.nanargmax(probs))
    if rule == THEORY_RULE:
        if len(lengths) < 5:
            raise ValueError("theory rule needs a dense grid")
        excess = np.abs(np.gradient(probs, lengths)) - slope_limit
        return PlateauInterval(float(_slope_edge(lengths, excess, peak, -1)),
                               float(_slope_edge(lengths, excess, peak, +1)))
    if rule == EXPERIMENTAL_RULE:
        if len(lengths) < 3:
            raise ValueError("experimental rule needs at least 3 points")
        i = peak
        while i + 1 < len(lengths) and abs(probs[i + 1] - probs[i]) < step_limit:
            i += 1
        j = peak
        while j - 1 >= 0 and abs(probs[j - 1] - probs[j]) < step_limit:
            j -= 1
        return PlateauInterval(float(lengths[j]), float(lengths[i]))
    raise ValueError(f"unknown plateau rule {rule!r}")


def plateau_report(result: ScanResult, rule: str = THEORY_RULE,
                   clip: tuple[float, float] | None = None) -> PlateauReport:
    """Per-input plateaus and their mean width for a scan result."""
    per_input = {}
    for label, points in result.curves.items():
        lengths = np.array([p.length_mm for p in points])
        probs = np.array([p.probability for p in points], dtype=float)
        interval = plateau_interval(lengths, probs, rule)
        if clip is not None:
            interval = interval.clipped(*clip)
        per_input[label] = interval
    mean = float(np.mean([iv.width for iv in per_input.values()]))
    return PlateauReport(rule, per_input, mean)


def theory_plateau_widths(sub: Subspace, inputs, lo: float = 60.0, hi: float = 115.0,
                          grid_step: float = 0.005,
                          restricted_window: tuple = (80.0, 100.0),
                          engine: "CurveEngine" = None) -> tuple[float, float]:
    """(restricted, unrestricted) mean plateau widths on a dense grid."""
    lengths = np.arange(lo, hi + grid_step / 2, grid_step)
    if engine is None:
        engine = CurveEngine(lengths)
    widths_r, widths_u = [], []
    for spec in inputs:
        spec = spec if isinstance(spec, InputSpec) else InputSpec(spec)
        curve = engine.success_curve(sub, spec)
        interval = plateau_interval(lengths, curve, THEORY_RULE)
        widths_u.append(interval.width)
        widths_r.append(interval.clipped(*restricted_window).width)
    return float(np.mean(widths_r)), float(np.mean(widths_u))


def plateau_width_delta(sub: Subspace, spec: InputSpec,
                        omega: float = FLAT_COUPLING_PER_MM,
                        slope_limit: float = SLOPE_LIMIT_PER_MM,
                        samples: int = 60_001) -> float:
    """Independent plateau width in accumulated-phase units.

    Recomputes the success curve directly as a function of delta on its
    own dense grid (no envelope or length axis involved) and finds the
    |dp/d delta| < slope_limit / omega region around the peak.  Used to
    cross-check the length-axis computation: width_mm * omega must
    match this value.
    """
    spec = spec if isinstance(spec, InputSpec) else InputSpec(spec)
    deltas = np.linspace(0.02 * math.pi, 1.98 * math.pi, samples)
    pattern = jx_pattern(4)
    engine = CurveEngine(deltas, StructureFamily(pattern, pattern.unitary_batch))
    curve = engine.success_curve(sub, spec)
    interval = plateau_interval(deltas, curve, THEORY_RULE,
                                slope_limit=slope_limit / omega)
    return interval.width


# ------------------------------------------------- preparation and fidelity


def hom_dip(delays, visibility: float, width: float = 1.0) -> np.ndarray:
    """Normalized coincidence rate 1 - v * exp(-(tau/width)^2)."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    delays = np.asarray(delays, dtype=float)
    return 1.0 - visibility * np.exp(-((delays / width) ** 2))


def fidelity(p_theory, p_exp) -> float:
    """Bhattacharyya overlap F = (sum_j sqrt(p_j q_j))^2.

    Both distributions must be over the same outcomes and normalized
    within 1e-6.  When the theory assigns probability 1 to a single
    outcome this reduces to that outcome's experimental probability.
    """
    p = np.asarray(p_theory, dtype=float)
    q = np.asarray(p_exp, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must cover the same outcome set")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("probabilities must be non-negative")
    for name, dist in (("theory", p), ("experiment", q)):
        if abs(dist.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} distribution must sum to 1 within 1e-6")
    return float(np.sum(np.sqrt(p * q)) ** 2)


# ------------------------------------------------------------- count files


COUNT_COLUMNS = ("structure_id", "length_mm", "input_state", "detector_pair", "counts")


def simulate_counts(sub: Subspace, inputs, lengths=STRUCTURE_LENGTHS_MM,
                    detection: DetectionModel | None = None,
                    family: StructureFamily | None = None) -> list[dict]:
    """Synthetic count records in the count-file schema."""
    detection = detection or DetectionModel()
    if detection.trials <= 0:
        raise ValueError("count simulation needs a positive Poisson trial count")
    lengths = np.asarray(lengths, dtype=float)
    inputs = [spec if isinstance(spec, InputSpec) else InputSpec(spec) for spec in inputs]
    engine = CurveEngine(lengths, family)
    rows = []
    for i, spec in enumerate(inputs):
        full = engine.outcome_probabilities(sub, spec, over_members=False)
        for j, length in enumerate(lengths):
            rng = np.random.default_rng(np.random.SeedSequence((detection.seed, i, j)))
            counts = _sample_counts(sub, spec, full[j], detection, rng)
            for channel in sorted(counts):
                rows.append({
                    "structure_id": f"s{j + 1}",
                    "length_mm": float(length),
                    "input_state": spec.label(),
                    "detector_pair": channel,
                    "counts": counts[channel],
                })
    return rows


def write_counts_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COUNT_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["length_mm"] = f"{float(row['length_mm']):.17g}"
            writer.writerow(out)


_INPUT_LABEL = re.compile(r"^\|([0-9]+)>$")
_INPUT_LABEL_DIST = re.compile(r"^\|([a-z][0-9]+(?: [a-z][0-9]+)*)>$")


def _parse_input_label(label: str, sub: Subspace) -> InputSpec:
    m = _INPUT_LABEL.match(label)
    if m and sub.particle.kind in (BOSON, FERMION):
        occ = tuple(int(c) for c in m.group(1))
        return InputSpec(sub.basis.state(occ))
    m = _INPUT_LABEL_DIST.match(label)
    if m and sub.particle.kind == DISTINGUISHABLE:
        parts = m.group(1).split()
        occ = tuple(int(p[1:]) - 1 for p in parts)
        return InputSpec(sub.basis.state(occ))
    raise ValueError(f"input state {label!r} does not match the subspace")


def ingest_counts(path, sub: Subspace, detection: DetectionModel | None = None,
                  family: StructureFamily | None = None) -> ScanResult:
    """Rebuild success probabilities from a count CSV.

    Expects the :data:`COUNT_COLUMNS` schema.  Malformed rows raise a
    ValueError naming the line number; groups with zero post-selected
    counts yield an undefined-probability point (None, not 0).  The
    family (default: the calibrated Jx structure) fixes each input's
    ideal outcome, as in :func:`scan`.
    """
    detection = detection or DetectionModel()
    grouped = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            warnings.warn(f"count file {path} is empty")
            return ScanResult(sub, "ingested")
        missing = set(COUNT_COLUMNS) - set(reader.fieldnames)
        if missing:
            raise ValueError(f"count file missing columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                length = float(row["length_mm"])
                counts = float(row["counts"])
                label = row["input_state"]
                channel = row["detector_pair"]
                if counts < 0 or not label or not channel:
                    raise ValueError
            except (TypeError, ValueError, KeyError):
                raise ValueError(f"malformed count row at line {lineno}") from None
            key = (label, length)
            grouped.setdefault(key, {})
            grouped[key][channel] = grouped[key].get(channel, 0.0) + counts

    if not grouped:
        warnings.warn(f"count file {path} has no data rows")
        return ScanResult(sub, "ingested")

    ideal = (family or jx4_family(FLAT_COUPLING_PER_MM)).pattern.unitary(math.pi)
    result = ScanResult(sub, "ingested")
    labels = sorted({label for label, _ in grouped}, key=str)
    for label in labels:
        spec = _parse_input_label(label, sub)
        target = _ideal_target_index(sub, ideal, spec.state)
        points = []
        for (lab, length) in sorted((k for k in grouped if k[0] == label), key=lambda k: k[1]):
            counts = grouped[(lab, length)]
            weights, variances = _estimate_member_weights(sub, spec, counts, detection)
            points.append(_success_from_weights(length, weights, variances, target))
        result.curves[label] = points
    return result
