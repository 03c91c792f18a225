import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import iv

from geomode import coupledmode as cm


@pytest.fixture(scope="module")
def ideal_system():
    return cm.jx4_structure(cm.IDEAL_LENGTH_MM)


# ---------------------------------------------------------------- pattern


def test_jx_couplings_m4():
    p = cm.jx_pattern(4)
    off = [p.matrix[k, k + 1].real for k in range(3)]
    assert off == pytest.approx([math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2])
    assert np.allclose(np.diag(p.matrix), 0)


def test_jx_coupling_m2():
    assert cm.jx_pattern(2).matrix[0, 1] == pytest.approx(0.5)


def test_jx_spectrum_is_spin_three_halves():
    lam = cm.jx_pattern(4).eigenvalues
    assert np.allclose(sorted(lam), [-1.5, -0.5, 0.5, 1.5], atol=1e-12)


def test_pattern_rejects_non_hermitian():
    with pytest.raises(ValueError):
        cm.CouplingPattern([[0, 1], [0.5, 0]])


# --------------------------------------------------------------- envelope


def test_constant_segment_phase():
    seg = cm.ConstantSegment(0.25, 8.0)
    assert seg.total_phase == pytest.approx(2.0)
    assert float(seg.phase_to(3.0)) == pytest.approx(0.75)


def test_cosine_ramp_matches_quadrature():
    seg = cm.CosineRampSegment(0.0, 0.1, 30.0)
    assert float(seg.value_at(0.0)) == pytest.approx(0.0)
    assert float(seg.value_at(30.0)) == pytest.approx(0.1)
    for z in (5.0, 17.3, 30.0):
        num, _ = quad(lambda t: float(seg.value_at(t)), 0, z)
        assert float(seg.phase_to(z)) == pytest.approx(num, abs=1e-12)


def test_exp_cosine_ramp_matches_quadrature():
    for rising in (True, False):
        seg = cm.ExpCosineRampSegment(0.09, 4.0, 30.0, rising=rising)
        for z in (4.0, 15.0, 26.0, 30.0):
            num, _ = quad(lambda t: float(seg.value_at(t)), 0, z, limit=200)
            assert float(seg.phase_to(z)) == pytest.approx(num, abs=1e-11)
        assert seg.total_phase == pytest.approx(float(seg.phase_to(30.0)), abs=1e-12)


@pytest.mark.parametrize("lam", [1e-9, 0.5, cm.RAMP_SHARPNESS, 20.0, 100.0, 200.0])
def test_bessel_coefficients_match_scipy(lam):
    k = np.arange(cm._SERIES_TERMS)
    reference = iv(k, lam)
    assert np.max(np.abs(cm._bessel_i(lam) - reference)) <= 1e-14 * reference[0]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_exp_cos_series_stops_at_coefficient_noise(sign):
    # the trapezoid coefficients carry ~1e-16 relative noise, so a sharp
    # ramp must not run through all the noisy tail terms
    _, terms = cm._exp_cos_series(20.0, sign)
    assert len(terms) < 60


@given(sharpness=st.floats(1e-3, 50.0), length=st.floats(1.0, 100.0),
       fraction=st.floats(0.0, 1.0), rising=st.booleans())
def test_exp_cosine_ramp_phase_matches_quadrature(sharpness, length, fraction, rising):
    seg = cm.ExpCosineRampSegment(0.09, sharpness, length, rising=rising)
    z = fraction * length
    num, _ = quad(lambda t: float(seg.value_at(t)), 0, z, limit=200, epsabs=0, epsrel=1e-13)
    assert float(seg.phase_to(z)) == pytest.approx(num, abs=1e-14 * seg.peak * length)


def test_exp_cosine_ramp_is_decoupled_at_facet():
    seg = cm.ExpCosineRampSegment(cm.FLAT_COUPLING_PER_MM, cm.RAMP_SHARPNESS, 30.0)
    assert float(seg.value_at(0.0)) < 5e-4 * cm.FLAT_COUPLING_PER_MM
    assert float(seg.value_at(30.0)) == pytest.approx(cm.FLAT_COUPLING_PER_MM)


def test_envelope_length_and_values(ideal_system):
    env = ideal_system.envelope
    assert env.length == pytest.approx(cm.IDEAL_LENGTH_MM)
    assert env.value(45.0) == pytest.approx(cm.FLAT_COUPLING_PER_MM)
    assert env.value(-1.0) == 0.0 and env.value(200.0) == 0.0


def _mixed_envelope():
    """One segment of every kind, including both exp-cosine directions."""
    return cm.Envelope((
        cm.ExpCosineRampSegment(0.09, 3.0, 12.0, rising=True),
        cm.ConstantSegment(0.09, 7.5),
        cm.CosineRampSegment(0.09, 0.02, 9.25),
        cm.ExpCosineRampSegment(0.02, 2.0, 6.0, rising=False),
    ))


def _walk_phase(env, z):
    """Reference: the segment-by-segment scalar walk of int_0^z Omega."""
    if z <= 0:
        return 0.0
    remaining = min(z, env.length)
    total = 0.0
    for seg in env.segments:
        if remaining >= seg.length - 1e-15:
            total += seg.total_phase
            remaining -= seg.length
            if remaining <= 1e-15:
                break
        else:
            return total + float(seg.phase_to(remaining))
    return total


def _walk_value(env, z):
    """Reference: Omega(z) from the first segment whose end is >= z."""
    if z < 0 or z > env.length + 1e-12:
        return 0.0
    z = min(z, env.length)
    offset = 0.0
    for seg in env.segments:
        if z <= offset + seg.length or seg is env.segments[-1]:
            return float(seg.value_at(min(z - offset, seg.length)))
        offset += seg.length


def test_array_envelope_matches_scalar_calls():
    env = _mixed_envelope()
    ends = np.cumsum([s.length for s in env.segments])
    grid = np.concatenate([
        [-3.0, -1e-13, 0.0, 1e-16], ends, ends - 1e-16, ends + 1e-14, ends + 1e-9,
        np.linspace(0.0, env.length, 97), [env.length + 1e-13, env.length + 2.0, 1e3],
    ])
    phases = env.phase(grid)
    values = env.value(grid)
    assert phases.shape == values.shape == grid.shape
    for z, p, v in zip(grid, phases, values):
        assert isinstance(env.phase(z), float) and isinstance(env.value(z), float)
        assert env.phase(z) == p and env.value(z) == v
        assert p == pytest.approx(_walk_phase(env, z), rel=1e-14, abs=1e-15)
        assert v == pytest.approx(_walk_value(env, z), rel=1e-14, abs=1e-15)
    assert phases[0] == 0.0 and values[0] == 0.0
    assert env.phase(1e3) == env.phase(env.length) and env.value(1e3) == 0.0


def test_hamiltonian_stack_matches_scalar_calls(ideal_system):
    grid = np.array([0.0, 12.5, 30.0, 61.2, ideal_system.length])
    stack = ideal_system.hamiltonian(grid)
    assert stack.shape == (5, 4, 4)
    for z, h in zip(grid, stack):
        assert np.array_equal(h, ideal_system.hamiltonian(z))


# ------------------------------------------------------ accumulated phase


def test_phase_zero_at_origin(ideal_system):
    assert ideal_system.envelope.phase(0.0) == 0.0


def test_cycle_completes_at_ideal_length(ideal_system):
    assert ideal_system.envelope.phase(cm.IDEAL_LENGTH_MM) == pytest.approx(math.pi, abs=1e-10)


def test_flat_section_slope_is_omega():
    d1 = cm.jx4_structure(90.0).envelope.total_phase
    d2 = cm.jx4_structure(97.5).envelope.total_phase
    assert (d2 - d1) / 7.5 == pytest.approx(cm.FLAT_COUPLING_PER_MM, abs=1e-12)


def test_jx4_delta_matches_envelope():
    for length in cm.STRUCTURE_LENGTHS_MM:
        sys_ = cm.jx4_structure(length)
        assert float(cm.jx4_delta(length)) == pytest.approx(
            sys_.envelope.total_phase, abs=1e-10
        )


def test_structure_lengths():
    rounded = [round(length, 2) for length in cm.STRUCTURE_LENGTHS_MM]
    assert rounded == [80.0, 83.33, 86.67, 90.0, 93.33, 96.67, 100.0]


def test_structure_rejects_short_lengths():
    with pytest.raises(ValueError):
        cm.jx4_structure(59.0)


@pytest.mark.parametrize("length", [math.nan, math.inf])
def test_structure_rejects_non_finite_lengths(length):
    with pytest.raises(ValueError, match="finite"):
        cm.jx4_structure(length)


# ---------------------------------------------------------------- evolve


def test_evolve_zero_interval_is_identity(ideal_system):
    u = cm.evolution_on_grid(ideal_system, [0.0])[0]
    assert np.allclose(u, np.eye(4), atol=1e-14)


def test_double_flip_at_cycle_end(ideal_system):
    u = cm.evolve(ideal_system)
    expected = 1j * np.fliplr(np.eye(4))
    assert np.max(np.abs(u - expected)) < 1e-8


def test_evolve_matches_expm_oracle(ideal_system):
    # compare against scipy.linalg.expm at delta = pi/2
    target = math.pi / 2
    kappa = ideal_system.pattern.matrix
    u = ideal_system.pattern.unitary(target)
    assert np.max(np.abs(u - expm(-1j * target * kappa))) < 1e-10


def test_evolution_composes(ideal_system):
    z1, z2 = 42.0, 80.0
    u1, u2 = cm.evolution_on_grid(ideal_system, [z1, z2])
    phase = ideal_system.envelope.phase
    u12 = ideal_system.pattern.unitary(phase(z2) - phase(z1))
    assert np.max(np.abs(u2 @ u1.conj().T - u12)) < 1e-9


def test_commuting_evolution_commutes_with_pattern(ideal_system):
    kappa = ideal_system.pattern.matrix
    for u in cm.evolution_on_grid(ideal_system, np.linspace(0, ideal_system.length, 7)):
        assert np.max(np.abs(u @ kappa - kappa @ u)) < 1e-9


def test_spin_transfer_closed_form(ideal_system):
    deltas = np.arange(0.0, 2 * np.pi, 0.01)
    u = ideal_system.pattern.unitary_batch(deltas)
    p11 = np.abs(u[:, 0, 0]) ** 2
    p41 = np.abs(u[:, 3, 0]) ** 2
    assert np.max(np.abs(p11 - np.cos(deltas / 2) ** 6)) < 1e-9
    assert np.max(np.abs(p41 - np.sin(deltas / 2) ** 6)) < 1e-9


def test_stepper_reproduces_commuting_fast_path(ideal_system):
    zs = np.array([25.0, 35.0])  # spans ramp end and flat section
    fast = cm.evolution_on_grid(ideal_system, zs)
    stepped = cm._stepper_stack(ideal_system, zs, 1e-3)
    assert np.max(np.abs(fast - stepped)) < 1e-7


def test_non_commuting_system_uses_stepper():
    static = cm.CouplingPattern(np.diag([0.05, 0.0, 0.0, -0.05]))
    sys_ = cm.CoupledModeSystem(
        cm.jx_pattern(4), cm.Envelope((cm.ConstantSegment(0.08, 10.0),)), static
    )
    assert not sys_.commuting_family
    u = cm._stepper_stack(sys_, np.array([10.0]), 1e-3)[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9
    # oracle: fine Magnus-free product with very small steps
    u_ref = np.eye(4, dtype=complex)
    n = 40000
    h = 10.0 / n
    for factor in expm(-1j * h * sys_.hamiltonian((np.arange(n) + 0.5) * h)):
        u_ref = factor @ u_ref
    assert np.max(np.abs(u - u_ref)) < 1e-6


def test_commuting_static_part_folds_in():
    static = cm.CouplingPattern(0.03 * np.eye(4))
    sys_ = cm.CoupledModeSystem(
        cm.jx_pattern(4), cm.Envelope((cm.ConstantSegment(0.08, 10.0),)), static
    )
    assert sys_.commuting_family
    fast = cm.evolve(sys_)
    stepped = cm._stepper_stack(sys_, np.array([10.0]), 1e-3)[0]
    assert np.max(np.abs(fast - stepped)) < 1e-7


# ------------------------------------------------------------ calibration


def test_frozen_flat_coupling_matches_calibration():
    assert cm.calibrate_flat_coupling() == pytest.approx(
        cm.FLAT_COUPLING_PER_MM, abs=1e-12
    )


def test_frozen_sharpness_matches_calibration():
    assert cm.calibrate_ramp_sharpness() == pytest.approx(cm.RAMP_SHARPNESS, abs=1e-10)


def test_outer_pair_width_at_default_coupling():
    assert cm.outer_pair_width_mm(cm.FLAT_COUPLING_PER_MM) == pytest.approx(
        cm.CALIBRATION_WIDTH_MM, abs=1e-9
    )


# ------------------------------------------------------------------ JSON


def test_system_json_round_trip(ideal_system):
    doc = cm.system_to_json(ideal_system)
    back = cm.system_from_json(doc)
    assert back.modes == 4
    assert np.allclose(back.pattern.matrix, ideal_system.pattern.matrix)
    assert back.length == pytest.approx(ideal_system.length)
    assert back.envelope.phase(50.0) == pytest.approx(ideal_system.envelope.phase(50.0))


def test_system_json_rejects_bad_length(ideal_system):
    doc = cm.system_to_json(ideal_system)
    doc["length_mm"] = 12.0
    with pytest.raises(ValueError):
        cm.system_from_json(doc)


def test_segment_json_unknown_kind():
    with pytest.raises(ValueError):
        cm.segment_from_json({"kind": "spline"})


# ---------------------------------------------------- evolution kernel


def _stretched(system, length):
    """The system with its one constant segment stretched to a total ``length``
    (dropped when the other segments already make up that length)."""
    segments = system.envelope.segments
    k = next(i for i, s in enumerate(segments) if isinstance(s, cm.ConstantSegment))
    flat = length - sum(s.length for i, s in enumerate(segments) if i != k)
    middle = (cm.ConstantSegment(segments[k].value, flat),) if flat > 0 else ()
    env = cm.Envelope(segments[:k] + middle + segments[k + 1:])
    return cm.CoupledModeSystem(system.pattern, env, system.static_pattern)


def _per_length(system, lengths):
    return np.stack([cm.evolve(_stretched(system, L)) for L in lengths])


def _stepped_per_length(system, lengths, max_step):
    return np.stack([cm._stepper_stack(_stretched(system, L), np.array([float(L)]), max_step)[0]
                     for L in lengths])


def test_preset_family_matches_per_length_structures():
    lengths = np.array([60.0, 71.3, 80.0, 84.9, 93.3333, 115.0])
    for omega in (cm.FLAT_COUPLING_PER_MM, 0.09):
        family = cm.StructureFamily(cm.jx4_structure(cm.IDEAL_LENGTH_MM, omega_flat=omega))
        want = np.stack([cm.evolve(cm.jx4_structure(L, omega_flat=omega)) for L in lengths])
        assert np.max(np.abs(family.stack(lengths) - want)) <= 1e-13
    with pytest.raises(ValueError, match="at least 60.0 mm"):
        family.stack([59.9, 80.0])


def test_family_phase_is_the_closed_form_bit_for_bit():
    """The preset's family phase equals :func:`jx4_delta` exactly on the theory
    axes, the seven structure lengths and 60-200 mm in 0.01 mm steps."""
    family = cm.StructureFamily(cm.jx4_structure(cm.IDEAL_LENGTH_MM))
    axes = [np.arange(60.0, 115.0 + step / 2, step) for step in (0.01, 0.005)]
    axes += [np.array(cm.STRUCTURE_LENGTHS_MM), np.arange(60.0, 200.0 + 0.005, 0.01)]
    assert sum(map(len, axes)) == 30_510
    for lengths in axes:
        assert np.array_equal(family.phase(lengths), cm.jx4_delta(lengths))
    assert np.max(np.abs(family.cycle() - cm.jx_pattern(4).unitary(math.pi))) < 1e-15


def test_file_family_matches_evolve_commuting(ideal_system):
    static = cm.CouplingPattern(0.02 * np.eye(4))
    system = cm.CoupledModeSystem(ideal_system.pattern, ideal_system.envelope, static)
    lengths = np.array([60.0, 71.3, 84.9, 90.0, 120.0])
    family = cm.StructureFamily(system)
    assert np.max(np.abs(family.stack(lengths) - _per_length(system, lengths))) <= 1e-13
    for bad in ([0.0, 70.0], [59.9, 70.0], [-1.0]):
        with pytest.raises(ValueError, match="positive and at least 60.0 mm"):
            family.stack(bad)


def test_file_family_non_commuting_within_stepper_accuracy(ideal_system):
    static = cm.CouplingPattern(np.diag([0.01, 0.0, 0.0, 0.0]))
    system = cm.CoupledModeSystem(ideal_system.pattern, ideal_system.envelope, static)
    assert not system.commuting_family
    lengths = np.array([60.0, 72.5117, 84.9, 95.00013, 130.0])
    stack = cm.StructureFamily(system).stack(lengths)
    # each length on its own step partition: both are O(h^2) midpoint products
    assert np.max(np.abs(stack - _per_length(system, lengths))) < 1e-9
    fine = _stepped_per_length(system, lengths, 2.5e-3)
    assert np.max(np.abs(stack - fine)) < 1e-7


@pytest.mark.parametrize("segments, count", [
    ((cm.CosineRampSegment(0.0, 0.1, 30.0),), 0),
    ((cm.ConstantSegment(0.1, 30.0), cm.ConstantSegment(0.2, 30.0)), 2),
], ids=["no-constant-segment", "two-constant-segments"])
def test_family_needs_one_constant_segment(segments, count):
    """Without exactly one constant segment a family has no length axis; its
    cycle, the configured system's own evolution, is still there."""
    system = cm.CoupledModeSystem(cm.jx_pattern(4), cm.Envelope(segments))
    family = cm.StructureFamily(system)
    for method in (family.phase, family.stack):
        with pytest.raises(ValueError, match=f"this envelope has {count}$"):
            method([80.0])
    assert np.array_equal(family.cycle(), cm.evolve(system))


@pytest.mark.parametrize("value", [0.0, 5e-324])
def test_family_phase_of_a_vanishing_stretched_segment(value):
    """A stretched segment of value 0, or too small to divide the other
    segments' phase by, adds no phase: the phase stays finite."""
    ramp = cm.CosineRampSegment(0.0, 0.5, 2.0)
    system = cm.CoupledModeSystem(cm.jx_pattern(4),
                                  cm.Envelope((ramp, cm.ConstantSegment(value, 1.0))))
    assert np.array_equal(cm.StructureFamily(system).phase([2.0, 50.0]), [0.5, 0.5])


def _hermitian(rng, modes, scale):
    a = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    return scale * (a + a.conj().T) / 2


@st.composite
def _family_cases(draw):
    """(system, lengths): a random pattern under an envelope of 1-3 segments,
    one of them constant (value 0 included) and the ramps meeting it without
    a jump, an optional static part, and lengths from the other segments'
    total up."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = draw(st.integers(2, 4))
    value = draw(st.sampled_from([0.0, 0.05, 0.3]) | st.floats(0.0, 0.3))
    ramp_length = st.floats(2.0, 20.0)
    segments = [cm.ConstantSegment(value, draw(ramp_length))]
    if draw(st.booleans()):
        segments.insert(0, draw(st.sampled_from([True, False])) and cm.ExpCosineRampSegment(
            value, draw(st.floats(0.5, 4.0)), draw(ramp_length), rising=True)
            or cm.CosineRampSegment(draw(st.floats(0.0, 0.3)), value, draw(ramp_length)))
    if draw(st.booleans()):
        segments.append(draw(st.sampled_from([True, False])) and cm.ExpCosineRampSegment(
            value, draw(st.floats(0.5, 4.0)), draw(ramp_length), rising=False)
            or cm.CosineRampSegment(value, draw(st.floats(0.0, 0.3)), draw(ramp_length)))
    pattern = cm.CouplingPattern(_hermitian(rng, modes, 1.0))
    static = draw(st.sampled_from([None, "commuting", "non-commuting"]))
    if static == "commuting":
        static = cm.CouplingPattern(0.03 * np.eye(modes) + 0.2 * pattern.matrix)
    elif static == "non-commuting":
        static = cm.CouplingPattern(_hermitian(rng, modes, 0.05))
    fixed = sum(s.length for s in segments if not isinstance(s, cm.ConstantSegment))
    extra = draw(st.lists(st.sampled_from([0.0]) | st.floats(0.0, 30.0), min_size=1,
                          max_size=3))
    lengths = fixed + np.array(extra)
    assume(np.all(lengths > 0))
    return cm.CoupledModeSystem(pattern, cm.Envelope(tuple(segments)), static), lengths


@settings(deadline=None)
@given(case=_family_cases())
def test_family_stack_is_the_stretched_system(case):
    """stack(L) is U(0 -> L) of the system with its constant segment
    stretched to L: exactly up to rounding when the Hamiltonians commute,
    within the midpoint rule's accuracy when they do not."""
    system, lengths = case
    family = cm.StructureFamily(system)
    stretched = [_stretched(system, L) for L in lengths]
    phases = [s.envelope.total_phase for s in stretched]
    assert np.allclose(family.phase(lengths), phases, rtol=1e-13, atol=1e-13)
    tolerance = 1e-12 if system.commuting_family else 1e-7
    want = np.stack([cm.evolve(s) for s in stretched])
    assert np.max(np.abs(family.stack(lengths) - want)) < tolerance
    assert np.array_equal(family.cycle(), cm.evolve(system))


@given(n=st.integers(1, 20), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(n=1, d=4, seed=0)
def test_ordered_products_match_expm_chain(n, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    generators = (a + np.swapaxes(a.conj(), 1, 2)) / 2
    weights = rng.uniform(-2.0, 2.0, n)
    ends = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
    chain = [np.eye(d, dtype=complex)]
    for g, w in zip(generators, weights):
        chain.append(expm(-1j * w * g) @ chain[-1])
    got = cm.ordered_products(generators, weights, ends)
    assert got.shape == (len(ends), d, d)
    assert np.max(np.abs(got - np.stack(chain[1:])[ends])) < 1e-12


def test_evolution_on_grid_accepts_any_order(ideal_system):
    static = cm.CouplingPattern(np.diag([0.01, 0.0, 0.0, 0.0]))
    system = cm.CoupledModeSystem(ideal_system.pattern, ideal_system.envelope, static)
    grid = np.array([50.0, 3.0, 50.0, 20.0])
    u = cm.evolution_on_grid(system, grid)
    assert np.array_equal(u[0], u[2])
    per_position = np.stack([cm.evolution_on_grid(system, [z])[0] for z in grid])
    assert np.max(np.abs(u - per_position)) < 1e-7
    # before z = 0 only the static part acts, as on the commuting path
    back = cm.evolution_on_grid(system, [-2.0])[0]
    assert np.max(np.abs(back - static.unitary(-2.0))) < 1e-14
