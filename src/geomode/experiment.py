"""Simulator and analyzer of the four-waveguide stability experiment.

Success-probability scans over structure length, post-selected onto a
cyclic subspace; detection with Poisson counting noise; input
preparation including interference-based bunching with finite
visibility; plateau-width extraction under the theory (slope) and
experimental (step) rules; Bhattacharyya fidelities; and CSV count-data
export/ingestion so externally measured counts run through the same
pipeline.  Theory, synthetic and ingested curves alike are one
:class:`Curve` of float arrays per input, NaN where a point is undefined.

Detection
---------
One :class:`ChannelMap` per (basis, input statistics, detection model)
covers single-photon, assignment, heralded and splitter (photon-number
resolving) detection for whole (lengths, channels) arrays; point j of
input i draws its channels in map order from the stream
``default_rng(SeedSequence((seed, i, j)))``.  The PCG64 seed words of
all points of one input are derived in one batch that reproduces
numpy's SeedSequence hash (:func:`_stream_seed_words`, pinned against
``SeedSequence`` by the tests), so the streams are numpy's own.

Statistics conventions
----------------------
An input can be launched with the subspace's native statistics or, for
number-state subspaces, with ``distinguishable`` statistics: its N
photons are then independent (heralded, time-separated) and outcome
probabilities aggregate over the photon-to-mode assignments of each
member's mode multiset, Per(|U|^2[out, in]) / prod n_out!.
Assignment-level subspaces (built over a distinguishable-particle
basis) keep each assignment as its own member.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import warnings
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import holonomy as hol
from . import report as rp
from .coupledmode import (
    FLAT_COUPLING_PER_MM,
    IDEAL_LENGTH_MM,
    SLOPE_LIMIT_PER_MM,
    STRUCTURE_LENGTHS_MM,
    ConstantSegment,
    CoupledModeSystem,
    Envelope,
    StructureFamily,
    jx4_structure,
    jx_pattern,
)
from .coupledmode import evolve  # noqa: F401 -- re-exported: U(0 -> L) of one system
from .fock import BOSON, DISTINGUISHABLE, FERMION, OccupationState, lift_unitary_batch
from .fock import lift_unitary  # noqa: F401 -- re-exported: the validated single-matrix lift
from .holonomy import Subspace

DEFAULT_SEED = 1022

THEORY_RULE = "theory_1p5pct_per_mm"
EXPERIMENTAL_RULE = "experimental_5pct_step"
EXPERIMENTAL_STEP_LIMIT = 0.05

#: Length axis (mm) of the theory plateau widths, and the realized scan
#: window that the restricted widths are clipped to.
THEORY_LO_MM, THEORY_HI_MM = 60.0, 115.0
RESTRICTED_WINDOW_MM = (80.0, 100.0)
#: Phase samples of the delta-axis plateau width over (0.02 pi, 1.98 pi).
DELTA_AXIS_SAMPLES = 60_001

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
    port.  Coincidence windows are modeled as pure accept/reject; timing
    is not simulated.
    """

    splitter_ratios: tuple = (0.5, 0.5, 0.5, 0.5)
    trials: int = 100_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        try:
            ratios = tuple(map(float, self.splitter_ratios))
        except TypeError:
            raise ValueError("splitter ratios must be numbers") from None
        if not all(0.0 < r < 1.0 for r in ratios):
            raise ValueError("splitter ratios must lie strictly inside (0, 1)")
        object.__setattr__(self, "splitter_ratios", ratios)

    def coincidence_efficiency(self, port: int) -> float:
        """Probability that a bunched pair on ``port`` fires both arms."""
        r = self.splitter_ratios[port]
        return 2.0 * r * (1.0 - r)


class Curve(NamedTuple):
    """One input's success curve: lengths (mm), success probabilities and
    their one-sigma uncertainties, float arrays of one size; probability
    and sigma are NaN where a point is undefined (no post-selected
    counts)."""

    lengths: np.ndarray
    probability: np.ndarray
    sigma: np.ndarray


@dataclass
class ScanResult:
    """Per-input success-probability curves over propagation length."""

    subspace: Subspace
    mode: str  # "theory" | "synthetic-experiment" | "ingested"
    curves: dict = field(default_factory=dict)  # input label -> Curve

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "subspace": hol.subspace_to_json(self.subspace),
            "curves": {
                label: [{"length_mm": x, "probability": p, "sigma": s}
                        for x, p, s in zip(*(a.tolist() for a in curve))]
                for label, curve in self.curves.items()
            },
        }

    def write_csv(self, path):
        """One CSV row per point: input label, length, probability, sigma."""
        rp.write_csv(path, ("input_state", "length_mm", "probability", "sigma"),
                     chain.from_iterable(zip(repeat(label), *(a.tolist() for a in curve))
                                         for label, curve in self.curves.items()))


# ----------------------------------------------------------- theory curves


def _statistics(sub: Subspace, spec: InputSpec) -> str:
    """The input's launch statistics (default: the subspace's own)."""
    return spec.statistics or (
        DISTINGUISHABLE_STATS if sub.particle.kind == DISTINGUISHABLE else INDISTINGUISHABLE
    )


def _input_specs(sub: Subspace, inputs) -> list[InputSpec]:
    """``inputs`` as :class:`InputSpec` (a bare state is launched
    directly); raises ValueError for an input outside the subspace."""
    specs = [spec if isinstance(spec, InputSpec) else InputSpec(spec) for spec in inputs]
    member_keys = {m.occupations for m in sub.members}
    for spec in specs:
        if spec.state.occupations not in member_keys:
            raise ValueError(f"input {spec.label()} is outside the subspace")
    return specs


def _ideal_targets(sub: Subspace, ideal, states) -> np.ndarray:
    """Member hit by each input state under ``ideal``, the family's
    single-particle cycle; the inputs' columns over the members are lifted
    in one call."""
    amps = np.abs(lift_unitary_batch(ideal[None], sub.basis, sub.member_indices,
                                     [sub.basis.index_of(state) for state in states])[0])
    targets = np.argmax(amps, axis=0)
    blurred = np.abs(amps[targets, np.arange(len(targets))] - 1.0) > 1e-8
    if blurred.any():
        raise ValueError(f"input {states[blurred.argmax()].label()} has no sharp image "
                         "inside the subspace")
    return targets


class CurveEngine:
    """Batched outcome probabilities of a structure family over lengths.

    The family (default: the calibrated Jx structure's) gives one
    single-particle evolution stack over non-empty, strictly ascending,
    finite lengths.  Each query lifts only the amplitudes it reads: the
    input's column over the outcome states, one input at a time.
    """

    def __init__(self, lengths, family: StructureFamily | None = None):
        lengths = np.asarray(lengths, dtype=float)
        if (lengths.ndim != 1 or lengths.size == 0 or not np.all(np.isfinite(lengths))
                or np.any(np.diff(lengths) <= 0)):
            raise ValueError("lengths must be a non-empty ascending list of finite numbers")
        family = family or StructureFamily(jx4_structure(IDEAL_LENGTH_MM))
        self.lengths = lengths
        self.u_stack = family.stack(self.lengths)
        self._ideal = family.cycle()

    @cached_property
    def _transition_stack(self) -> np.ndarray:
        """|U|^2 of the stack: single-photon transition probabilities,
        squared in place so that a long stack costs one real copy."""
        p = np.abs(self.u_stack)
        return np.square(p, out=p)

    def outcome_probabilities(self, sub: Subspace, spec: InputSpec,
                              over_members=True) -> np.ndarray:
        """(L, n_outcomes) outcome probabilities for one input.

        Outcomes are the subspace members (``over_members``) or the full
        basis; rows are not normalized (post-selection happens later).
        """
        stats = _statistics(sub, spec)
        if spec.preparation == "hom_bunched":
            direct = replace(spec, preparation="direct")
            p_ind = self.outcome_probabilities(sub, direct, over_members)
            p_dis = self.outcome_probabilities(
                sub, replace(direct, statistics=DISTINGUISHABLE_STATS), over_members)
            v = spec.visibility
            return v * p_ind + (1 - v) * p_dis

        rows = np.array(sub.member_indices) if over_members else np.arange(sub.basis.size)
        col = [sub.basis.index_of(spec.state)]
        if stats == DISTINGUISHABLE_STATS and sub.particle.kind == BOSON:
            # Independent photons reach the output multiset with probability
            # Per(|U|^2[out, in]) / prod n_out!; the kernel divides by
            # sqrt(prod n_out! prod n_in!).
            norms = sub.basis.norms
            lifted = lift_unitary_batch(self._transition_stack, sub.basis, rows, col)[:, :, 0]
            lifted *= norms[col[0]] / norms[rows]
            return lifted
        probs = np.abs(lift_unitary_batch(self.u_stack, sub.basis, rows, col)[:, :, 0])
        return np.square(probs, out=probs)

    def success_curve(self, sub: Subspace, inputs) -> np.ndarray:
        """(L, n) post-selected success probabilities, one column per
        input; the inputs' targets come from one lift of the cycle.  Each
        column is one input's target over its contiguous member sum."""
        targets = _ideal_targets(sub, self._ideal, [spec.state for spec in inputs])
        curves = np.empty((len(targets), len(self.lengths)))
        for curve, spec, target in zip(curves, inputs, targets):
            probs = self.outcome_probabilities(sub, spec)
            np.divide(probs[:, target], probs.sum(axis=1), out=curve)
        return curves.T


def scan(sub: Subspace, inputs, lengths=STRUCTURE_LENGTHS_MM, mode: str = "theory",
         detection: DetectionModel | None = None,
         family: StructureFamily | None = None) -> ScanResult:
    """Success-probability scan over structure lengths.

    ``theory`` returns exact probabilities; ``synthetic-experiment``
    Poisson-samples counts per detector channel, pushes them through
    the detection model, and re-estimates, attaching one-sigma Poisson
    uncertainties.
    """
    inputs = _input_specs(sub, inputs)
    engine = CurveEngine(lengths, family)
    lengths = engine.lengths
    if mode == "theory":
        block = engine.success_curve(sub, inputs).T
        return ScanResult(sub, "theory", {spec.label(): Curve(lengths, p, np.zeros_like(p))
                                          for spec, p in zip(inputs, block)})
    if mode != "synthetic-experiment":
        raise ValueError(f"unknown scan mode {mode!r}")

    detection = detection or DetectionModel()
    if detection.trials <= 0:
        raise ValueError("synthetic scans need a positive Poisson trial count")
    result = ScanResult(sub, "synthetic-experiment")
    targets = _ideal_targets(sub, engine._ideal, [spec.state for spec in inputs])
    for i, (spec, target) in enumerate(zip(inputs, targets)):
        channels, counts = _sample_channels(engine, sub, spec, detection, i)
        result.curves[spec.label()] = _success_points(lengths, sub, target,
                                                      *channels.estimate(counts))
    return result


# -------------------------------------------------------------- detection


@dataclass(frozen=True)
class ChannelMap:
    """Detector channels of a Fock basis under one input statistics and
    detection model.

    Channel ``c`` (``labels[c]``) clicks with probability ``click[c]``
    when basis state ``source[c]`` arrives.  Channels are in Poisson draw
    order: by state, and for an anti-bunched pair on the splitters by
    arms aa, ab, ba, bb.  A state's weight is its channels' count over
    its ``efficiency`` (2 r (1 - r) if bunched on a splitter, else 1).
    """

    labels: tuple
    source: np.ndarray
    click: np.ndarray
    efficiency: np.ndarray

    def rates(self, probs, trials) -> np.ndarray:
        """(L, C) Poisson means for (L, S) basis-state distributions; a
        distribution off normalization by more than 1e-9 is renormalized."""
        probs = np.asarray(probs, dtype=float)
        total = probs.sum(axis=-1, keepdims=True)
        probs = np.where(np.abs(total - 1.0) > 1e-9, probs / total, probs)
        return trials * (probs[..., self.source] * self.click)

    def estimate(self, counts) -> tuple[np.ndarray, np.ndarray]:
        """(L, S) state weights and variances from (L, C) channel counts; a
        state without counts keeps one unit of variance, so sigma never
        collapses to zero."""
        first = np.flatnonzero(np.diff(self.source, prepend=-1))
        n = np.add.reduceat(counts, first, axis=-1)
        return n / self.efficiency, np.maximum(n, 1.0) / self.efficiency ** 2


def channel_map(basis, statistics: str, model: DetectionModel) -> ChannelMap:
    """Channels for the four detection cases.

    One particle: one mode detector per mode (``m3``).  Distinguishable
    particles: one event per photon-to-mode assignment (``a1-b3``).
    ``distinguishable`` statistics on a number-state basis: heralded
    pairs resolve the mode multiset (``n14``).  Otherwise two photons
    meet one two-way splitter per output port (``1a-2b``): a bunched
    state on port k fires both arms of splitter k with probability
    2 r_k (1 - r_k); an anti-bunched state on ports j != k spreads over
    the four cross-port arm pairs by the ratios.
    """
    ratios = model.splitter_ratios
    entries = []
    efficiency = np.ones(basis.size)
    for s, state in enumerate(basis.states):
        modes = state.mode_list()
        if basis.particles == 1:
            channels = [(f"m{modes[0] + 1}", 1.0)]
        elif basis.particle.kind == DISTINGUISHABLE:
            channels = [("-".join(f"{lab}{m + 1}" for lab, m
                                  in zip(basis.particle.labels, state.occupations)), 1.0)]
        elif basis.particles != 2:
            raise ValueError("synthetic detection covers one or two photons "
                             f"(this basis has {basis.particles})")
        elif statistics == DISTINGUISHABLE_STATS:
            channels = [(f"n{modes[0] + 1}{modes[1] + 1}", 1.0)]
        elif modes[1] >= len(ratios):
            raise ValueError(f"detection model has no splitter on output port {modes[1] + 1}")
        elif modes[0] == modes[1]:
            efficiency[s] = model.coincidence_efficiency(modes[0])
            channels = [(f"{modes[0] + 1}a-{modes[0] + 1}b", efficiency[s])]
        else:
            arms = [[(f"{m + 1}a", ratios[m]), (f"{m + 1}b", 1.0 - ratios[m])] for m in modes]
            channels = [("-".join(sorted((name_a, name_b))), p_a * p_b)
                        for name_a, p_a in arms[0] for name_b, p_b in arms[1]]
        entries += [(label, s, p) for label, p in channels]
    labels, source, click = zip(*entries)
    return ChannelMap(labels, np.array(source), np.array(click), efficiency)


def detect(state_probs, model: DetectionModel, basis) -> dict:
    """Detector-pair coincidence probabilities of a two-photon
    number-state distribution (the splitter case of :func:`channel_map`)."""
    probs = np.asarray(state_probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("state distribution must be normalized")
    if basis.particles != 2 or basis.particle.kind not in (BOSON, FERMION):
        raise ValueError("detector model covers two indistinguishable particles")
    channels = channel_map(basis, INDISTINGUISHABLE, model)
    return dict(zip(channels.labels, (probs[channels.source] * channels.click).tolist()))


def invert_counts(pair_counts: dict, model: DetectionModel, basis) -> tuple[dict, dict]:
    """Number-state weights and variances, keyed by occupations, from
    detector-pair counts (the splitter case of :func:`channel_map`)."""
    channels = channel_map(basis, INDISTINGUISHABLE, model)
    counts = np.array([pair_counts.get(label, 0.0) for label in channels.labels])
    keys = [state.occupations for state in basis.states]
    return tuple(dict(zip(keys, a.tolist())) for a in channels.estimate(counts))


# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _entropy_words(n) -> list[int]:
    """Little-endian uint32 words of a non-negative integer, as
    SeedSequence splits it (one word for 0)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, carrying its running hash
    constant from call to call."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> np.uint32(16)


def _stream_seed_words(seed, input_index: int, points: int) -> np.ndarray:
    """(points, 4) uint64 PCG64 seed words: row j equals
    ``SeedSequence((seed, input_index, j)).generate_state(4, np.uint64)``.

    numpy's hash runs once over uint32 arrays with one lane per point:
    the entropy words of each integer, hashmix into the 4-word pool,
    every pool word mixed into every other, the words beyond the pool
    (seeds of 2^64 and up) mixed into each pool word, and eight output
    words paired little-endian into uint64.  j < 2^32 is one word.
    """
    entropy = [np.full(points, w, dtype=np.uint32)
               for w in _entropy_words(seed) + _entropy_words(input_index)]
    entropy.append(np.arange(points, dtype=np.uint32))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    zero = np.zeros(points, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([output(pool[k % _POOL_SIZE]) for k in range(8)], axis=1).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


class _SeedWords(ISeedSequence):
    """The seed sequence of one point, its PCG64 words already generated."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("precomputed seed words serve PCG64's four uint64 words only")
        return self.words


def _sample_channels(engine: CurveEngine, sub: Subspace, spec: InputSpec,
                     model: DetectionModel, input_index: int):
    """The input's channel map and (L, C) Poisson counts; point j draws its
    channels in order from its own stream, seeded by (seed, input_index, j)."""
    channels = channel_map(sub.basis, _statistics(sub, spec), model)
    rates = channels.rates(engine.outcome_probabilities(sub, spec, over_members=False),
                           model.trials)
    words = _stream_seed_words(model.seed, input_index, len(rates))
    counts = np.empty(rates.shape, dtype=np.int64)
    for j, lam in enumerate(rates):
        counts[j] = np.random.Generator(np.random.PCG64(_SeedWords(words[j]))).poisson(lam)
    return channels, counts


def _success_points(lengths, sub: Subspace, target: int, weights, variances) -> Curve:
    """Post-selected success probability and its Poisson sigma per length
    from (L, S) state weights; at zero post-selected weight both are 0/0,
    NaN (undefined)."""
    w, v = weights[:, sub.member_indices], variances[:, sub.member_indices]
    s, f = w[:, target], w.sum(axis=1) - w[:, target]
    var_s, var_f = v[:, target], v.sum(axis=1) - v[:, target]
    total = s + f
    with np.errstate(divide="ignore", invalid="ignore"):
        return Curve(lengths, s / total,
                     np.sqrt((f * f * var_s + s * s * var_f) / total ** 4))


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


def _run_length(holds) -> int:
    """Number of leading True values of a boolean array."""
    fails = np.flatnonzero(~holds)
    return int(fails[0]) if fails.size else len(holds)


def _slope_edge(lengths, excess, peak: int, step: int) -> float:
    """Edge reached from ``peak`` in direction ``step`` (+1 or -1) while the
    slope excess stays negative; undefined (NaN) samples stop the walk and
    the interpolation to the excess's zero crossing.

    The walk is one search for the first sample ahead of the peak where
    ``excess < 0`` fails (NaN fails it too); the edge is interpolated
    between the last sample that holds and that one.
    """
    ahead = excess[peak + 1:] if step > 0 else excess[:peak][::-1]
    i = peak + step * _run_length(ahead < 0)
    j = i + step
    if 0 <= j < len(lengths) and not np.isnan(excess[i] + excess[j]):
        t = -excess[i] / (excess[j] - excess[i])
        return lengths[i] + t * (lengths[j] - lengths[i])
    return lengths[i]


def plateau_interval(lengths, probs, rule: str = THEORY_RULE,
                     slope_limit: float = SLOPE_LIMIT_PER_MM):
    """Contiguous stability region around the curve's peak: one interval
    for one curve (L,), a list of n for a block (L, n) of curves.

    Theory rule: |dp/dL| < slope_limit (central differences, taken for
    the whole block at once and element by element, so each column's
    are those of the curve alone; the edge positions are interpolated
    between grid samples).  Experimental rule: consecutive-point
    differences below EXPERIMENTAL_STEP_LIMIT, edges at the first/last
    conforming sample.  Undefined (NaN) points are never the peak and end
    the region; a curve without defined points raises ValueError.
    """
    lengths = np.asarray(lengths, dtype=float)
    probs = np.asarray(probs, dtype=float)
    curves = probs[:, None] if probs.ndim == 1 else probs
    if np.isnan(curves).all(axis=0).any():
        raise ValueError("curve has no defined points")
    peaks = np.nanargmax(curves, axis=0)
    if rule == THEORY_RULE:
        if len(lengths) < 5:
            raise ValueError("theory rule needs a dense grid")
        excess = np.abs(np.gradient(curves, lengths, axis=0)) - slope_limit
        intervals = [PlateauInterval(float(_slope_edge(lengths, e, peak, -1)),
                                     float(_slope_edge(lengths, e, peak, +1)))
                     for e, peak in zip(excess.T, peaks)]
    elif rule == EXPERIMENTAL_RULE:
        if len(lengths) < 3:
            raise ValueError("experimental rule needs at least 3 points")
        steady = np.abs(np.diff(curves, axis=0)) < EXPERIMENTAL_STEP_LIMIT
        intervals = [PlateauInterval(float(lengths[peak - _run_length(s[:peak][::-1])]),
                                     float(lengths[peak + _run_length(s[peak:])]))
                     for s, peak in zip(steady.T, peaks)]
    else:
        raise ValueError(f"unknown plateau rule {rule!r}")
    return intervals if probs.ndim > 1 else intervals[0]


def plateau_report(lengths, curves, labels, rule: str = THEORY_RULE,
                   clip: tuple[float, float] | None = None) -> PlateauReport:
    """Per-input plateaus of an (L, n) block of success curves over
    ``lengths``, one column per label, and their mean width."""
    intervals = plateau_interval(lengths, curves, rule)
    if clip is not None:
        intervals = [iv.clipped(*clip) for iv in intervals]
    per_input = dict(zip(labels, intervals))
    return PlateauReport(rule, per_input, float(np.mean([iv.width for iv in per_input.values()])))


def theory_lengths(grid_step: float) -> np.ndarray:
    """The dense length axis [THEORY_LO_MM, THEORY_HI_MM] of the theory widths."""
    return np.arange(THEORY_LO_MM, THEORY_HI_MM + grid_step / 2, grid_step)


def theory_plateau_widths(sub: Subspace, inputs, engine: CurveEngine) -> tuple[float, float]:
    """(restricted, unrestricted) mean plateau widths over the engine's
    lengths, the restricted ones clipped to RESTRICTED_WINDOW_MM."""
    intervals = plateau_interval(engine.lengths,
                                 engine.success_curve(sub, _input_specs(sub, inputs)))
    return (float(np.mean([iv.clipped(*RESTRICTED_WINDOW_MM).width for iv in intervals])),
            float(np.mean([iv.width for iv in intervals])))


@cache
def _delta_axis_engine() -> CurveEngine:
    """The Jx4 engine over DELTA_AXIS_SAMPLES phases in (0.02 pi, 1.98 pi),
    built at the first call and shared by every later one.  Under one
    constant segment of value 1 a structure's length is its phase.  Its
    phase axis and evolution stack are read-only."""
    deltas = np.linspace(0.02 * math.pi, 1.98 * math.pi, DELTA_AXIS_SAMPLES)
    unit = CoupledModeSystem(jx_pattern(4), Envelope((ConstantSegment(1.0, math.pi),)))
    engine = CurveEngine(deltas, StructureFamily(unit))
    engine.lengths.flags.writeable = False
    engine.u_stack.flags.writeable = False
    return engine


def plateau_width_delta(sub: Subspace, spec: InputSpec) -> float:
    """Independent plateau width in accumulated-phase units.

    Recomputes the success curve directly as a function of delta on its
    own dense grid (no envelope or length axis involved) and finds the
    |dp/d delta| < SLOPE_LIMIT_PER_MM / FLAT_COUPLING_PER_MM region
    around the peak.  Used to cross-check the length-axis computation:
    width_mm * FLAT_COUPLING_PER_MM must match this value.  The delta-axis
    engine is built once per process (about 15 MB, plus |U|^2 once a
    distinguishable input asks for it); each call lifts only its input's
    column over the members.
    """
    engine = _delta_axis_engine()
    curve = engine.success_curve(sub, _input_specs(sub, [spec]))[:, 0]
    interval = plateau_interval(engine.lengths, curve, THEORY_RULE,
                                slope_limit=SLOPE_LIMIT_PER_MM / FLAT_COUPLING_PER_MM)
    return interval.width


# ------------------------------------------------- preparation and fidelity


def hom_dip(delays, visibility: float) -> np.ndarray:
    """Normalized coincidence rate 1 - v * exp(-tau^2), delays in units
    of the photons' coherence time."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    delays = np.asarray(delays, dtype=float)
    return 1.0 - visibility * np.exp(-(delays ** 2))


def fidelity(p_theory, p_exp) -> float:
    """Bhattacharyya overlap F = (sum_j sqrt(p_j q_j))^2.

    Both distributions must be 1-D sequences of finite numbers over the
    same outcomes, normalized within 1e-6.  When the theory assigns
    probability 1 to a single outcome this reduces to that outcome's
    experimental probability.
    """
    p, q = np.asarray(p_theory), np.asarray(p_exp)
    for name, dist in (("theory", p), ("experiment", q)):
        if dist.ndim != 1 or dist.dtype.kind not in "iuf" or not np.all(np.isfinite(dist)):
            raise ValueError(f"{name} distribution must be a list of finite numbers")
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
                    family: StructureFamily | None = None) -> list[tuple]:
    """Synthetic count rows: tuples of :data:`COUNT_COLUMNS` fields, length
    as written (17 significant digits), per input and length the
    channels sorted by label."""
    detection = detection or DetectionModel()
    if detection.trials <= 0:
        raise ValueError("count simulation needs a positive Poisson trial count")
    lengths = np.asarray(lengths, dtype=float)
    inputs = _input_specs(sub, inputs)
    engine = CurveEngine(lengths, family)
    rows = []
    for i, spec in enumerate(inputs):
        channels, counts = _sample_channels(engine, sub, spec, detection, i)
        order = sorted(range(len(channels.labels)), key=channels.labels.__getitem__)
        names = [channels.labels[c] for c in order]
        label = spec.label()
        for j, (length, point) in enumerate(zip(lengths.tolist(), counts[:, order].tolist())):
            rows.extend(zip(repeat(f"s{j + 1}"), repeat(f"{length:.17g}"), repeat(label),
                            names, point))
    return rows


def write_counts_csv(path, rows):
    """Write the header and ``rows``, tuples of :data:`COUNT_COLUMNS` fields."""
    rp.write_csv(path, COUNT_COLUMNS, rows)


#: Records per block of the count-file tokenizer.  The whole file is read
#: and split into one string per record first; only the field lists are
#: made per block and live while their block is coded, so the peak holds
#: every record's line plus one block's fields (a quoted file goes through
#: ``csv.reader`` as one block).
_INGEST_BLOCK = 8192


def _count_blocks(path):
    """The header fields of a count file (None if it is empty) and its
    non-blank records after the header as ``(cells, widths, lines)``
    blocks: the records' fields in one flat list, each record's field
    count and the file line on which it ends, blank lines counted.

    A file without ``"`` is split on line breaks and commas; a file with
    quoted fields goes through ``csv.reader`` and its ``line_num``."""
    with open(path, newline="") as fh:
        text = fh.read()
    if '"' in text:
        reader = csv.reader(io.StringIO(text, newline=""))
        del text
        header, rows, lines = next(reader, None), [], []
        for row in filter(None, reader):
            rows.append(row)
            lines.append(reader.line_num)
        widths = np.fromiter(map(len, rows), np.intp, len(rows))
        return header, [(list(chain.from_iterable(rows)), widths, np.array(lines, np.intp))
                        ] if rows else []
    if not text:
        return None, []
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    records = text.split("\n")
    del text
    header = records.pop(0).split(",")
    lines = np.flatnonzero(np.fromiter(map(len, records), np.intp, len(records))) + 2
    records = list(filter(None, records))

    def blocks():
        done = 0
        while records:  # each block's records are freed as it is handed out
            block = records[:_INGEST_BLOCK]
            del records[:_INGEST_BLOCK]
            widths = np.fromiter(map(str.count, block, repeat(",")), np.intp, len(block)) + 1
            yield ",".join(block).split(","), widths, lines[done:done + len(block)]
            done += len(block)
    return header, blocks()


def _picked_fields(cells, widths, picks) -> list[list[str]]:
    """Field ``k`` of every record of a block, for each ``k`` in ``picks``;
    ``""`` where a record has no field ``k``."""
    if widths.min() == widths.max():
        width = int(widths[0])
        if width > max(picks):
            return [cells[k::width] for k in picks]
    starts = np.cumsum(widths) - widths
    cells.append("")  # index -1: the field a short record lacks
    return [list(map(cells.__getitem__, np.where(widths > k, starts + k, -1).tolist()))
            for k in picks]


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def ingest_counts(path, sub: Subspace, detection: DetectionModel | None = None,
                  family: StructureFamily | None = None) -> ScanResult:
    """Rebuild success probabilities from a count CSV.

    Expects the :data:`COUNT_COLUMNS` schema, in any column order and
    with extra columns allowed.  The file is read once and split into
    columns: on commas and line breaks when it holds no ``"``, else by
    ``csv.reader`` (quoted fields).  Each column is coded by one dict
    of its distinct values, so a number is parsed once per distinct
    text, and the counts are grouped by one ``np.add.at`` per input.

    A malformed row (too few fields, a length or count that is not a
    finite number, a negative count, an empty input state or channel)
    raises a ValueError naming the file line of the first such row,
    blank lines counted; groups with zero post-selected counts yield an
    undefined-probability point (NaN, not 0).  An ``input_state`` is
    the label of a state of the subspace's basis (``|2000>``,
    ``|a1 b3>``).  Each input's channel map follows its first row:
    heralded (``nXY`` labels) or the subspace's own detection.  An
    unknown input state or channel raises a ValueError naming its line.
    The family (default: the calibrated Jx structure) fixes each input's
    ideal outcome, as in :func:`scan`.
    """
    detection = detection or DetectionModel()
    header, blocks = _count_blocks(path)
    if header is None:
        warnings.warn(f"count file {path} is empty")
        return ScanResult(sub, "ingested")
    missing = set(COUNT_COLUMNS) - set(header)
    if missing:
        raise ValueError(f"count file missing columns {sorted(missing)}")
    picks = [header.index(name) for name in COUNT_COLUMNS[1:]]
    # per column, distinct text -> code; a text not yet seen gets the dict's length
    indexes = [defaultdict() for _ in picks]
    for index in indexes:
        index.default_factory = index.__len__
    parts = []
    for cells, widths, lines in blocks:
        fields = _picked_fields(cells, widths, picks)
        del cells
        parts.append([widths <= max(picks), lines] + [
            np.fromiter(map(index.__getitem__, column), np.intp, len(column))
            for index, column in zip(indexes, fields)])
    if not parts:
        warnings.warn(f"count file {path} has no data rows")
        return ScanResult(sub, "ingested")
    short, lines, length_code, label_code, channel_code, count_code = map(
        np.concatenate, zip(*parts))
    del parts
    length_index, label_index, channel_index, count_index = indexes
    lengths = np.array([_float_or_nan(text) for text in length_index])[length_code]
    values = np.array([_float_or_nan(text) for text in count_index])[count_code]
    with np.errstate(invalid="ignore", over="ignore"):
        bad = short | (values < 0) | ~np.isfinite(lengths + values)
    bad |= (label_code == label_index.get("", -1)) | (channel_code == channel_index.get("", -1))
    if bad.any():
        raise ValueError(f"malformed count row at line {lines[bad.argmax()]}")

    ideal = (family or StructureFamily(jx4_structure(IDEAL_LENGTH_MM))).cycle()
    states = {state.label(): state for state in sub.basis.states}
    names = list(channel_index)
    result = ScanResult(sub, "ingested")
    for label in sorted(label_index):
        rows = np.flatnonzero(label_code == label_index[label])
        if label not in states:
            raise ValueError(f"unknown input_state {label!r} at line {lines[rows[0]]}")
        spec = InputSpec(states[label])
        statistics = (DISTINGUISHABLE_STATS if names[channel_code[rows[0]]].startswith("n")
                      else _statistics(sub, spec))
        channels = channel_map(sub.basis, statistics, detection)
        index = {name: c for c, name in enumerate(channels.labels)}
        column = np.array([index.get(name, -1) for name in names])[channel_code[rows]]
        if (column < 0).any():
            row = rows[(column < 0).argmax()]
            raise ValueError(f"unknown detector_pair {names[channel_code[row]]!r} "
                             f"at line {lines[row]}")
        grid, at = np.unique(lengths[rows], return_inverse=True)
        counts = np.zeros((grid.size, len(channels.labels)))
        np.add.at(counts, (at, column), values[rows])
        target, = _ideal_targets(sub, ideal, [spec.state])
        result.curves[label] = _success_points(grid, sub, target, *channels.estimate(counts))
    return result
