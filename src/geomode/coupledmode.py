"""Coupled-mode systems with a global envelope and their evolution operators.

A system is H(z) = Omega(z) * kappa + kappa_static, with kappa a
Hermitian coupling pattern, Omega(z) >= 0 a piecewise envelope in
rad/mm, and an optional static part.  When the static part vanishes (or
commutes with the pattern) the Hamiltonians at different z commute and
the evolution depends only on the accumulated phase
delta(z) = int_0^z Omega; the evolution operator is then computed
exactly from the eigendecomposition of the pattern.  Otherwise the
midpoint rule steps through z.  :func:`ordered_products` is the one
path-ordered product of exponentials of the package: the midpoint
stepper and the gauge-field reconstruction of the holonomy
(:func:`holonomy.holonomy_from_gauge_field`) both call it.  Envelopes,
Hamiltonians and :func:`evolution_on_grid` take arrays of positions
(U(0 -> z) along a structure is ``evolution_on_grid(system, [z])[0]``);
:func:`evolve` is U(0 -> L) over the whole structure.

A :class:`StructureFamily` maps an array of lengths to a stack of
evolution operators for any system: a length stretches the envelope's
one constant segment and keeps the others.  The module also builds the
calibrated four-waveguide Jx structure used throughout the package:
nearest-neighbour couplings (sqrt(3)/2, 1, sqrt(3)/2), zero detuning, a
30 mm cosine fan-in/out in waveguide separation with exponentially
distance-dependent coupling, and a flat section, its constant segment.
Two frozen calibration constants pin the model: the flat coupling
strength (from the single-photon outer-pair stability width, 23.7 mm)
and the ramp sharpness (so that one cycle, delta = pi, completes at the
ideal length 84.9 mm).
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .fock import HERMITIAN_TOL

#: Default propagation-length derivative limit defining a plateau (1.5 %/mm).
SLOPE_LIMIT_PER_MM = 0.015
#: Mean stability-plateau width of the single-photon outer-mode pair used
#: to calibrate the flat coupling (mm, full length axis).
CALIBRATION_WIDTH_MM = 23.7
#: Length at which the structure completes one cycle (delta = pi).
IDEAL_LENGTH_MM = 84.9
#: Length of each cosine fan section.
RAMP_LENGTH_MM = 30.0
#: Flat coupling strength, rad/mm; solves
#: outer_pair_width_mm(omega) == CALIBRATION_WIDTH_MM.
FLAT_COUPLING_PER_MM = 0.08424871417403404
#: Separation-ramp sharpness (fan amplitude over coupling decay length);
#: solves delta(IDEAL_LENGTH_MM) == pi given FLAT_COUPLING_PER_MM.
RAMP_SHARPNESS = 4.018128255630664

#: Largest step (mm) of the midpoint rule for non-commuting systems, in the
#: evolution and in the gauge-field reconstruction of the holonomy.
STEP_MM = 0.01

#: The seven realized structure lengths: 80 mm to 100 mm in steps of 10/3 mm.
STRUCTURE_LENGTHS_MM = tuple(80.0 + 10.0 * k / 3.0 for k in range(7))


class CouplingPattern:
    """Hermitian M x M coupling matrix (diagonal entries are detunings)."""

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("coupling pattern must be a square matrix")
        if not np.max(np.abs(m - m.conj().T)) < HERMITIAN_TOL:  # False for NaN entries
            raise ValueError(f"coupling pattern must be finite, Hermitian within {HERMITIAN_TOL}")
        m.setflags(write=False)
        self.matrix = m
        self.modes = m.shape[0]

    @cached_property
    def _eigh(self):
        return np.linalg.eigh(self.matrix)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh[0]

    def unitary(self, delta: float) -> np.ndarray:
        """exp(-1j * delta * pattern), exactly unitary via eigendecomposition."""
        lam, v = self._eigh
        return (v * np.exp(-1j * delta * lam)) @ v.conj().T

    def unitary_batch(self, deltas) -> np.ndarray:
        """Stack of exp(-1j * delta_k * pattern) over an array of phases."""
        lam, v = self._eigh
        phases = np.exp(-1j * np.multiply.outer(np.asarray(deltas, dtype=float), lam))
        return np.einsum("ij,...j,kj->...ik", v, phases, v.conj())


def jx_pattern(modes: int) -> CouplingPattern:
    """Nearest-neighbour chain with couplings kappa_{k,k+1} = sqrt(k(M-k))/2.

    Realizes a spin-(M-1)/2 x-rotation generator; M = 4 gives couplings
    (sqrt(3)/2, 1, sqrt(3)/2) and eigenvalues (+-1/2, +-3/2).
    """
    if modes < 2:
        raise ValueError("jx pattern needs at least 2 modes")
    m = np.zeros((modes, modes))
    for k in range(1, modes):
        c = 0.5 * math.sqrt(k * (modes - k))
        m[k - 1, k] = c
        m[k, k - 1] = c
    return CouplingPattern(m)


# ------------------------------------------------------------- envelopes


@dataclass(frozen=True)
class ConstantSegment:
    """Omega(z) = value over the segment."""

    value: float
    length: float

    def __post_init__(self):
        if self.value < 0 or self.length <= 0:
            raise ValueError("constant segment needs value >= 0 and length > 0")

    def value_at(self, z):
        return self.value * np.ones_like(np.asarray(z, dtype=float))

    def phase_to(self, z):
        return self.value * np.asarray(z, dtype=float)

    @property
    def total_phase(self):
        return self.value * self.length


@dataclass(frozen=True)
class CosineRampSegment:
    """Half-cosine ramp from ``start`` to ``end`` over the segment."""

    start: float
    end: float
    length: float

    def __post_init__(self):
        if min(self.start, self.end) < 0 or self.length <= 0:
            raise ValueError("cosine ramp needs non-negative endpoints and length > 0")

    def value_at(self, z):
        x = np.pi * np.asarray(z, dtype=float) / self.length
        return self.start + (self.end - self.start) * (1 - np.cos(x)) / 2

    def phase_to(self, z):
        z = np.asarray(z, dtype=float)
        sine = np.sin(np.pi * z / self.length) * self.length / np.pi
        return self.start * z + (self.end - self.start) * (z - sine) / 2

    @property
    def total_phase(self):
        return (self.start + self.end) * self.length / 2


#: Terms of the Bessel series of :func:`_exp_cos_integral` (I_0 .. I_199).
_SERIES_TERMS = 200
#: Trapezoid points on the period of exp(lam * cos(theta)).
_BESSEL_POINTS = 1024


@lru_cache(maxsize=128)
def _bessel_i(lam: float) -> np.ndarray:
    """Modified Bessel functions I_k(lam) for k = 0 .. _SERIES_TERMS - 1.

    I_k(lam) is the k-th Fourier cosine coefficient of the periodic
    function exp(lam * cos(theta)), and the trapezoid rule gets such
    coefficients to rounding error: on n points aliasing adds
    I_{n-k} + I_{n+k}, below 1e-190 relative to I_0 for n = 1024,
    k < 200 and lam up to 709, where exp(lam) overflows.  The rule runs
    on the scaled exp(lam * (cos(theta) - 1)), which stays in [0, 1].
    """
    theta = 2.0 * np.pi * np.arange(_BESSEL_POINTS) / _BESSEL_POINTS
    scaled = np.fft.rfft(np.exp(lam * (np.cos(theta) - 1.0))).real / _BESSEL_POINTS
    values = scaled[:_SERIES_TERMS] * math.exp(lam)
    values.setflags(write=False)
    return values


@lru_cache(maxsize=128)
def _exp_cos_series(lam: float, sign: float) -> tuple:
    """(I_0(lam), ((k, 2 sign^k I_k(lam) / k), ...)) up to the first term
    below machine epsilon times I_0, the rounding noise of the coefficients."""
    bessel = _bessel_i(lam)
    cutoff = np.finfo(float).eps * bessel[0]
    terms = []
    for k in range(1, _SERIES_TERMS):
        coeff = 2.0 * (sign ** k) * bessel[k] / k
        if abs(coeff) < cutoff:
            break
        terms.append((k, coeff))
    return bessel[0], tuple(terms)


def _exp_cos_integral(x, lam: float, sign: float) -> np.ndarray:
    """int_0^x exp(sign * lam * cos(phi)) dphi via the Bessel series."""
    x = np.asarray(x, dtype=float)
    i0, terms = _exp_cos_series(lam, sign)
    total = i0 * x
    for k, coeff in terms:
        total = total + coeff * np.sin(k * x)
    return total


def _bisect(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """A root of f in [lo, hi], where f(lo) and f(hi) differ in sign, to within xtol."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError("f(lo) and f(hi) must have different signs")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # the bracket is two adjacent floats
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ExpCosineRampSegment:
    """Coupling ramp from a cosine fan in waveguide separation.

    The separation follows a half-cosine between the decoupled facet
    spacing and the flat-section spacing while the coupling depends
    exponentially on separation, giving
    Omega(z) = peak * exp(-sharpness * (1 +- cos(pi z / length)))
    (rising: +, falling: -).  At the outer end the coupling is
    suppressed by exp(-2 * sharpness).
    """

    peak: float
    sharpness: float
    length: float
    rising: bool = True

    def __post_init__(self):
        if self.peak < 0 or self.length <= 0 or self.sharpness <= 0:
            raise ValueError("exp-cosine ramp needs peak >= 0, sharpness > 0, length > 0")

    def value_at(self, z):
        x = np.pi * np.asarray(z, dtype=float) / self.length
        cos = np.cos(x) if self.rising else -np.cos(x)
        return self.peak * np.exp(-self.sharpness * (1 + cos))

    def phase_to(self, z):
        x = np.pi * np.asarray(z, dtype=float) / self.length
        sign = -1.0 if self.rising else 1.0
        scale = self.peak * math.exp(-self.sharpness) * self.length / np.pi
        return scale * _exp_cos_integral(x, self.sharpness, sign)

    @property
    def total_phase(self):
        # sin(k*pi) = 0, so only the Bessel I0 term survives
        return self.peak * math.exp(-self.sharpness) * _bessel_i(self.sharpness)[0] * self.length


@dataclass(frozen=True)
class Envelope:
    """Piecewise non-negative envelope Omega(z) over z in [0, L].

    ``value`` and ``phase`` take one position or an array of positions;
    a scalar position gives a float.
    """

    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise ValueError("envelope needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def length(self) -> float:
        return float(sum(s.length for s in self.segments))

    def _locate(self, z: np.ndarray):
        """Segment index and local coordinate; a boundary belongs to the segment ending there."""
        ends = np.cumsum([s.length for s in self.segments])
        starts = np.concatenate(([0.0], ends[:-1]))
        k = np.minimum(np.searchsorted(ends, z), len(self.segments) - 1)
        return k, z - starts[k]

    def value(self, z):
        """Omega(z); zero outside [0, L]."""
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        inside = (zs >= 0) & (zs <= self.length + 1e-12)
        k, local = self._locate(np.minimum(zs, self.length))
        out = np.zeros(zs.shape)
        for i, seg in enumerate(self.segments):
            here = inside & (k == i)
            out[here] = seg.value_at(np.minimum(local[here], seg.length))
        return float(out[0]) if np.ndim(z) == 0 else out

    def phase(self, z):
        """int_0^z Omega, exact per-segment analytic integrals.

        Positions outside [0, L] clamp to the boundary value (the
        structure is decoupled beyond its ends).  A position within
        1e-15 of a segment's end takes that segment's total phase.
        """
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        k, local = self._locate(np.clip(zs, 0.0, self.length))
        before = np.cumsum([0.0] + [s.total_phase for s in self.segments])
        out = before[k]
        for i, seg in enumerate(self.segments):
            here = k == i
            if not here.any():
                continue  # phase_to of an exp-cosine ramp sums a Bessel series
            part = local[here]
            out[here] += np.where(part >= seg.length - 1e-15, seg.total_phase,
                                  seg.phase_to(part))
        return float(out[0]) if np.ndim(z) == 0 else out

    @property
    def total_phase(self) -> float:
        return float(sum(s.total_phase for s in self.segments))


# --------------------------------------------------------------- systems


class CoupledModeSystem:
    """H(z) = Omega(z) * pattern + static_pattern over z in [0, length]."""

    def __init__(self, pattern: CouplingPattern, envelope: Envelope, static_pattern=None):
        self.pattern = pattern
        self.envelope = envelope
        self.static_pattern = static_pattern
        if static_pattern is not None and static_pattern.modes != pattern.modes:
            raise ValueError("static pattern size mismatch")
        self.modes = pattern.modes

    @property
    def length(self) -> float:
        return self.envelope.length

    @cached_property
    def commuting_family(self) -> bool:
        if self.static_pattern is None:
            return True
        comm = (self.pattern.matrix @ self.static_pattern.matrix
                - self.static_pattern.matrix @ self.pattern.matrix)
        return bool(np.max(np.abs(comm)) < 1e-12)

    def hamiltonian(self, z) -> np.ndarray:
        """H(z), or the (Z, M, M) stack over an array of positions."""
        omega = np.asarray(self.envelope.value(z))
        h = omega[..., None, None] * self.pattern.matrix
        if self.static_pattern is not None:
            h = h + self.static_pattern.matrix
        return h


def ordered_products(generators, weights, ends) -> np.ndarray:
    """Running ordered products exp(-1j * w_k * g_k) ... exp(-1j * w_0 * g_0).

    ``generators`` is an (n, d, d) stack of Hermitian matrices and
    ``weights`` their n real weights; every factor comes from one batched
    eigendecomposition and is exactly unitary.  Returns the running
    product through factor k for each index k in ``ends``, shape
    (len(ends), d, d).
    """
    lam, v = np.linalg.eigh(generators)
    weights = np.asarray(weights, dtype=float)
    factors = (v * np.exp(-1j * weights[:, None] * lam)[:, None, :]) @ np.swapaxes(v.conj(), 1, 2)
    u = np.eye(factors.shape[-1], dtype=complex)
    for i, factor in enumerate(factors):
        u = factor @ u
        factors[i] = u  # the running products replace the consumed factors
    return factors[ends]


def _stepper_stack(system: CoupledModeSystem, zs: np.ndarray, max_step: float) -> np.ndarray:
    """U(0 -> z) for each z in ``zs`` by one chained midpoint-rule product.

    The positions are visited in ascending order; each interval between
    consecutive positions is cut into equal steps of at most ``max_step``,
    and each step contributes exp(-1j * h * H(midpoint)).
    """
    knots, where = np.unique(zs, return_inverse=True)
    starts = np.concatenate(([0.0], knots[:-1]))
    spans = knots - starts
    steps = np.maximum(1, np.ceil(spans / max_step).astype(int))
    h = np.repeat(spans / steps, steps)
    within = np.arange(h.size) - np.repeat(np.cumsum(steps) - steps, steps)
    mids = np.repeat(starts, steps) + (within + 0.5) * h
    return ordered_products(system.hamiltonian(mids), h, np.cumsum(steps) - 1)[where.reshape(-1)]


def _commuting_stack(system: CoupledModeSystem, phases, lengths) -> np.ndarray:
    """exp(-1j * phase * pattern) times exp(-1j * z * static), when there is a
    static part, for each (phase, z) pair of a commuting system."""
    u = system.pattern.unitary_batch(phases)
    if system.static_pattern is not None:
        u = u @ system.static_pattern.unitary_batch(lengths)
    return u


def evolution_on_grid(system: CoupledModeSystem, grid) -> np.ndarray:
    """U(0 -> z) for each z in the grid, shape (Z, M, M).

    Commuting systems evaluate exactly from the pattern spectrum;
    otherwise the midpoint-product integrator steps through the grid
    positions.  Outside [0, L] the coupling is zero and only the static
    part acts.
    """
    grid = np.asarray(grid, dtype=float)
    if not system.commuting_family:
        return _stepper_stack(system, grid, STEP_MM)
    return _commuting_stack(system, system.envelope.phase(grid), grid)


def evolve(system: CoupledModeSystem) -> np.ndarray:
    """U(0 -> L) over the whole structure, as :func:`evolution_on_grid` computes it.

    ``U[j, k]`` is the amplitude for mode k at 0 to end in mode j at L;
    equivalently a_k^dag(L) = sum_j U[j, k] a_j^dag(0).
    """
    return evolution_on_grid(system, [system.length])[0]


# ------------------------------------------------- the Jx(4) structure


def outer_pair_width_mm(omega: float) -> float:
    """Stability-plateau width (mm) of the single-photon outer-mode pair.

    Closed form: post-selected transfer probability
    p = sin^6(d/2) / (sin^6 + cos^6) with d = delta, so
    |dp/dd| = 3 (sc)^5 / (s^6 + c^6)^2; the plateau around d = pi ends
    where |dp/dL| = SLOPE_LIMIT_PER_MM with dd/dL = omega.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    threshold = SLOPE_LIMIT_PER_MM / omega

    def slope(delta):
        s, c = math.sin(delta / 2), math.cos(delta / 2)
        return 3 * (s * c) ** 5 / (s ** 6 + c ** 6) ** 2

    peak_slope = slope(math.pi / 2)  # maximum of the slope profile
    if threshold >= peak_slope:
        # slope never reaches the limit: plateau spans the whole cycle
        return 2 * math.pi / omega
    u_star = _bisect(lambda u: slope(math.pi - u) - threshold, 1e-12, math.pi / 2, xtol=1e-14)
    return 2 * u_star / omega


def calibrate_flat_coupling() -> float:
    """Flat coupling (rad/mm) whose outer-pair width is CALIBRATION_WIDTH_MM."""
    return _bisect(lambda om: outer_pair_width_mm(om) - CALIBRATION_WIDTH_MM,
                   1e-3, 2.0, xtol=1e-15)


def calibrate_ramp_sharpness(omega_flat: float = FLAT_COUPLING_PER_MM) -> float:
    """Ramp sharpness so that delta(IDEAL_LENGTH_MM) = pi.

    Total phase of a structure of length L with ramps of length
    r = RAMP_LENGTH_MM is omega * (2 r exp(-s) I0(s) + L - 2 r); the
    sharpness s solves exp(-s) I0(s) = (pi / omega - (L_id - 2 r)) / (2 r).
    """
    target = ((math.pi / omega_flat - (IDEAL_LENGTH_MM - 2 * RAMP_LENGTH_MM))
              / (2 * RAMP_LENGTH_MM))
    if not 0 < target < 1:
        raise ValueError("no ramp sharpness reaches delta = pi for these parameters")
    return _bisect(lambda s: math.exp(-s) * _bessel_i(s)[0] - target, 1e-9, 200.0, xtol=1e-14)


def jx4_structure(length_mm: float,
                  omega_flat: float = FLAT_COUPLING_PER_MM) -> CoupledModeSystem:
    """The calibrated four-waveguide structure at a given total length.

    Envelope: exp-cosine fan-in over RAMP_LENGTH_MM, flat coupling
    ``omega_flat`` over the varied middle section, mirrored fan-out.
    The ramp sharpness completes one cycle (delta = pi) at
    IDEAL_LENGTH_MM.
    """
    if not 2 * RAMP_LENGTH_MM <= length_mm < math.inf:
        raise ValueError(f"total length must be finite and at least {2 * RAMP_LENGTH_MM} mm")
    sharpness = (RAMP_SHARPNESS if omega_flat == FLAT_COUPLING_PER_MM
                 else calibrate_ramp_sharpness(omega_flat))
    segments = [ExpCosineRampSegment(omega_flat, sharpness, RAMP_LENGTH_MM, rising=True)]
    flat = length_mm - 2 * RAMP_LENGTH_MM
    if flat > 0:
        segments.append(ConstantSegment(omega_flat, flat))
    segments.append(ExpCosineRampSegment(omega_flat, sharpness, RAMP_LENGTH_MM, rising=False))
    return CoupledModeSystem(jx_pattern(4), Envelope(tuple(segments)))


def jx4_delta(length_mm):
    """Total accumulated phase of the calibrated structure at given lengths, in closed form."""
    lengths = np.asarray(length_mm, dtype=float)
    eff = 2 * RAMP_LENGTH_MM * math.exp(-RAMP_SHARPNESS) * _bessel_i(RAMP_SHARPNESS)[0]
    return FLAT_COUPLING_PER_MM * (eff + lengths - 2 * RAMP_LENGTH_MM)


# ------------------------------------------------------ structure families


@dataclass(frozen=True)
class StructureFamily:
    """One system's structures indexed by their length L: L stretches the
    envelope's one :class:`ConstantSegment` to L - L_f, L_f being the other
    segments' total length.  ``phase`` and ``stack`` raise ValueError for an
    envelope without exactly one constant segment and for a length not
    positive or below L_f.  ``cycle()``, U(0 -> L) of the system as
    configured, defines each input's ideal outcome for every system.
    """

    system: CoupledModeSystem

    def _stretched(self, lengths):
        """(constant segment's index, L_f, the other segments' phase, lengths)."""
        segments = self.system.envelope.segments
        constant = [k for k, s in enumerate(segments) if isinstance(s, ConstantSegment)]
        if len(constant) != 1:
            raise ValueError("a structure family stretches the envelope's one constant "
                             f"segment; this envelope has {len(constant)}")
        others = segments[:constant[0]] + segments[constant[0] + 1:]
        fixed = sum(s.length for s in others)
        lengths = np.asarray(lengths, dtype=float)
        if not np.all((lengths >= fixed) & (lengths > 0)):
            raise ValueError(f"structure lengths must be positive and at least {fixed} mm")
        return constant[0], fixed, float(sum(s.total_phase for s in others)), lengths

    def phase(self, lengths) -> np.ndarray:
        """Total accumulated phase of the structure at each length."""
        k, fixed, fixed_phase, lengths = self._stretched(lengths)
        omega = self.system.envelope.segments[k].value
        ratio = fixed_phase / omega if omega else math.inf
        if ratio == math.inf:  # omega is 0, or too small to divide by
            return fixed_phase + omega * (lengths - fixed)
        return omega * (ratio + lengths - fixed)

    def stack(self, lengths) -> np.ndarray:
        """(L, M, M) single-particle evolution operators, one per length.  A
        non-commuting system is stepped once, to the stretched segment's ends a
        and b and to the structure's end; H is constant on the segment, so
        U(L) = U(0 -> end) U(0 -> b)^dag exp(-1j H_flat (L - L_f)) U(0 -> a)."""
        system = self.system
        if system.commuting_family:
            return _commuting_stack(system, self.phase(lengths), np.asarray(lengths, float))
        k, fixed, _, lengths = self._stretched(lengths)
        segments = system.envelope.segments
        a = sum(s.length for s in segments[:k])
        u_a, u_b, u_end = evolution_on_grid(system, [a, a + segments[k].length, system.length])
        flat = CouplingPattern(segments[k].value * system.pattern.matrix
                               + system.static_pattern.matrix)
        return u_end @ u_b.conj().T @ flat.unitary_batch(lengths - fixed) @ u_a

    def cycle(self) -> np.ndarray:
        """U(0 -> L) of the configured system."""
        return evolve(self.system)


# ----------------------------------------------------------------- JSON


_SEGMENT_KINDS = {
    "constant": (ConstantSegment, ("value_per_mm", "length_mm")),
    "cosine_ramp": (CosineRampSegment, ("start_per_mm", "end_per_mm", "length_mm")),
    "exp_cosine_ramp": (ExpCosineRampSegment,
                        ("peak_per_mm", "sharpness", "length_mm", "rising")),
}


def segment_to_json(seg) -> dict:
    for kind, (cls, keys) in _SEGMENT_KINDS.items():
        if isinstance(seg, cls):
            return {"kind": kind, **dict(zip(keys, astuple(seg)))}
    raise TypeError(f"unknown segment type {type(seg)!r}")


def is_finite_number(value) -> bool:
    """A finite JSON number: an int or float, not a bool, within float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def segment_from_json(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError("an envelope segment must be a JSON object")
    kind = doc.get("kind")
    if kind not in _SEGMENT_KINDS:
        raise ValueError(f"unknown envelope segment kind {kind!r}")
    cls, keys = _SEGMENT_KINDS[kind]
    missing = [k for k in keys if k not in doc and k != "rising"]
    if missing:
        raise ValueError(f"segment {kind!r} missing fields {missing}")
    args = [doc[k] for k in keys if k in doc]
    for key, value in zip(keys, args):
        if not (isinstance(value, bool) if key == "rising" else is_finite_number(value)):
            want = "true or false" if key == "rising" else "a finite number"
            raise ValueError(f"segment {kind!r} field {key!r} must be {want}, not {value!r}")
    return cls(*args)


def matrix_to_json(m: np.ndarray):
    """[[re, im], ...] rows of a complex matrix."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def evolution_to_json(u: np.ndarray, delta: float) -> dict:
    """The report of a single-particle evolution operator at phase ``delta``."""
    return {"modes": u.shape[0], "delta": float(delta), "matrix": matrix_to_json(u)}


def _matrix_from_json(rows):
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError, OverflowError):
        raise ValueError("a matrix must be a list of rows of [re, im] pairs of floats") from None


def system_to_json(system: CoupledModeSystem) -> dict:
    doc = {
        "modes": system.modes,
        "pattern": matrix_to_json(system.pattern.matrix),
        "envelope": [segment_to_json(s) for s in system.envelope.segments],
        "length_mm": system.length,
    }
    if system.static_pattern is not None:
        doc["static_pattern"] = matrix_to_json(system.static_pattern.matrix)
    return doc


def system_from_json(doc: dict) -> CoupledModeSystem:
    try:
        modes, length = doc["modes"], doc.get("length_mm", 0.0)
        pattern = CouplingPattern(_matrix_from_json(doc["pattern"]))
        segments = doc["envelope"]
    except KeyError as exc:
        raise ValueError(f"system definition missing field {exc}") from None
    if not isinstance(modes, int) or isinstance(modes, bool):
        raise ValueError(f"modes must be a JSON integer, not {modes!r}")
    if not is_finite_number(length):
        raise ValueError(f"length_mm must be a finite number, not {length!r}")
    if not isinstance(segments, list):
        raise ValueError("envelope must be a list of segments")
    if pattern.modes != modes:
        raise ValueError("pattern size does not match the declared mode count")
    envelope = Envelope(tuple(segment_from_json(s) for s in segments))
    if "length_mm" in doc and not abs(envelope.length - length) <= 1e-9:
        raise ValueError("length_mm does not match the envelope segments")
    static = None
    if doc.get("static_pattern") is not None:
        static = CouplingPattern(_matrix_from_json(doc["static_pattern"]))
    return CoupledModeSystem(pattern, envelope, static)
