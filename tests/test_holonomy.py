import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomode import coupledmode as cm
from geomode import fock
from geomode import holonomy as hol
from geomode.fock import OccupationState, ParticleType, enumerate_basis, vacuum_expectation

BOSON = ParticleType.boson()
FERMION = ParticleType.fermion()
DIST_AB = ParticleType.distinguishable("a", "b")


@pytest.fixture(scope="module")
def system():
    return cm.jx4_structure(cm.IDEAL_LENGTH_MM)


@pytest.fixture(scope="module")
def boson_basis():
    return enumerate_basis(4, 2, BOSON)


@pytest.fixture(scope="module")
def dist_basis():
    return enumerate_basis(4, 2, DIST_AB)


def sub_boson(basis, *occs):
    return hol.subspace_from_states(basis, occs)


def random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def oracle_k_element(bra, ket, h, particle):
    """<bra|H|ket> through the vacuum-expectation reduction."""
    modes = h.shape[0]
    e = np.eye(modes)
    norm = math.sqrt(bra.norm_factorial() * ket.norm_factorial())
    if particle.kind == "distinguishable":
        labels = particle.labels
        bra_ops = [(e[m], False, lab) for lab, m in zip(labels[::-1], bra.occupations[::-1])]
        ket_ops = [(e[m], True, lab) for lab, m in zip(labels, ket.occupations)]
        total = 0.0
        for lab in labels:
            for j in range(modes):
                for k in range(modes):
                    if h[j, k] == 0:
                        continue
                    seq = bra_ops + [(e[j], True, lab), (e[k], False, lab)] + ket_ops
                    total += h[j, k] * vacuum_expectation(seq, particle)
        return total / norm
    bra_ops = [(e[m], False) for m in reversed(bra.mode_list())]
    ket_ops = [(e[m], True) for m in ket.mode_list()]
    total = 0.0
    for j in range(modes):
        for k in range(modes):
            if h[j, k] == 0:
                continue
            seq = bra_ops + [(e[j], True), (e[k], False)] + ket_ops
            total += h[j, k] * vacuum_expectation(seq, particle)
    return total / norm


# --------------------------------------------------------- mode coupling


def test_mode_coupling_commuting_system_is_envelope_times_pattern(system):
    zs = np.array([0.0, 20.0, 45.0, 84.0])
    j = hol.mode_coupling_on_grid(system, zs)
    expected = system.envelope.value(zs)[:, None, None] * system.pattern.matrix
    assert np.max(np.abs(j - expected)) < 1e-10


def test_mode_coupling_zero_where_envelope_vanishes():
    sys_ = cm.CoupledModeSystem(
        cm.jx_pattern(4),
        cm.Envelope((cm.CosineRampSegment(0.0, 0.1, 10.0),)),
    )
    j = hol.mode_coupling_on_grid(sys_, [0.0])
    assert np.max(np.abs(j)) < 1e-12


def test_mode_coupling_zero_detuning_diagonal(system):
    j = hol.mode_coupling_on_grid(system, [40.0])[0]
    assert np.max(np.abs(np.diag(j))) < 1e-10


def test_mode_coupling_family_independent(system):
    """The phase-adjusted family's phase cancels in Phi^dag H Phi."""
    grid = [37.0]
    h = system.hamiltonian(np.asarray(grid))
    j1, j2 = (np.einsum("zji,zjk,zkl->zil", phi.conj(), h, phi)
              for phi in (hol.mode_family_matrices(system, grid, hol.HEISENBERG),
                          hol.mode_family_matrices(system, grid, hol.PHASE_ADJUSTED)))
    assert np.max(np.abs(j1 - j2)) < 1e-12
    assert np.array_equal(j1, hol.mode_coupling_on_grid(system, grid))


# -------------------------------------------------- K closed forms/oracle


def _random_states(rng, modes, particle, count):
    basis = enumerate_basis(modes, 2, particle)
    idx = rng.integers(0, basis.size, size=(count, 2))
    return [(basis.states[i], basis.states[j]) for i, j in idx]


@pytest.mark.parametrize("particle", [BOSON, FERMION, DIST_AB])
def test_k_two_particle_matches_oracle(particle):
    rng = np.random.default_rng(101)
    pairs = _random_states(rng, 4, particle, 200)
    for bra, ket in pairs:
        h = random_hermitian(4, rng)
        got = hol.k_two_particle(bra, ket, h, particle)
        want = oracle_k_element(bra, ket, h, particle)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_k_two_particle_rejects_fermion_double_occupation():
    st = OccupationState(BOSON, 4, (2, 0, 0, 0))
    with pytest.raises(ValueError):
        hol.k_two_particle(st, st, np.eye(4), FERMION)


def test_k_two_particle_examples(boson_basis):
    # zero-detuning J supported on nearest neighbours only
    j = cm.jx_pattern(4).matrix
    s0200 = boson_basis.state((0, 2, 0, 0))
    s0020 = boson_basis.state((0, 0, 2, 0))
    s0110 = boson_basis.state((0, 1, 1, 0))
    # (2,2) vs (2,3): proportional to J_23
    v = hol.k_two_particle(s0200, s0110, j, BOSON)
    assert abs(v) > 0.5  # inner-mode coupling shows up
    assert v == pytest.approx(math.sqrt(2) * j[1, 2])
    # (2,2) vs (3,3) with zero detunings -> 0
    assert hol.k_two_particle(s0200, s0020, j, BOSON) == 0
    # all four modes distinct, J has no coupling between untouched pairs
    s1010 = boson_basis.state((1, 0, 1, 0))
    s0101 = boson_basis.state((0, 1, 0, 1))
    jd = np.zeros((4, 4))
    jd[0, 2] = jd[2, 0] = 0.7  # couples modes sharing no state pair
    assert hol.k_two_particle(s1010, s0101, jd, BOSON) == 0


def test_k_two_particle_distinguishable_all_modes_differ(dist_basis):
    j = cm.jx_pattern(4).matrix
    bra = dist_basis.state((0, 2))  # a1 b3
    ket = dist_basis.state((1, 0))  # a2 b1
    assert hol.k_two_particle(bra, ket, j, DIST_AB) == 0


def test_k_n_boson_reduces_to_single_particle():
    rng = np.random.default_rng(5)
    j = random_hermitian(4, rng)
    for k in range(4):
        for l in range(4):
            assert hol.k_n_boson([k], [l], j) == pytest.approx(j[k, l])


def test_k_n_boson_matches_two_particle_form(boson_basis):
    rng = np.random.default_rng(7)
    for _ in range(200):
        j = random_hermitian(4, rng)
        bra = boson_basis.states[rng.integers(0, 10)]
        ket = boson_basis.states[rng.integers(0, 10)]
        a = hol.k_n_boson(bra.mode_list(), ket.mode_list(), j)
        b = hol.k_two_particle(bra, ket, j, BOSON)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_k_n_boson_three_particles_matches_lifted_oracle():
    rng = np.random.default_rng(11)
    basis = enumerate_basis(4, 3, BOSON)
    for _ in range(200):
        j = random_hermitian(4, rng)
        lifted = fock.lift_hamiltonian(j, basis)
        bi, ki = rng.integers(0, basis.size, size=2)
        bra, ket = basis.states[bi], basis.states[ki]
        got = hol.k_n_boson(bra.mode_list(), ket.mode_list(), j)
        want = lifted[bi, ki]
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_k_n_boson_vacuum_energy_term():
    # nonzero <H> enters through -(N-1)<H> on permutation-matched states
    j = np.diag([0.0, 0.0, 0.0, 0.0])
    got = hol.k_n_boson([0, 1], [0, 1], j, h_vac=0.25)
    assert got == pytest.approx(-0.25)


def test_k_n_boson_length_mismatch():
    with pytest.raises(ValueError):
        hol.k_n_boson([0, 1], [0], np.eye(4))


# ------------------------------------------------------------- K matrices


def test_k_matrix_outer_pair_vanishes(system):
    b1 = enumerate_basis(4, 1, BOSON)
    sub = hol.subspace_from_states(b1, [(1, 0, 0, 0), (0, 0, 0, 1)])
    k = hol.k_matrix(sub, system)
    assert k.max_abs < hol.holonomic_tolerance(system)


def test_k_matrix_inner_pair_is_coupling(system):
    b1 = enumerate_basis(4, 1, BOSON)
    sub = hol.subspace_from_states(b1, [(0, 1, 0, 0), (0, 0, 1, 0)])
    k = hol.k_matrix(sub, system)
    # off-diagonal element is Omega(z) * kappa_23 = Omega(z)
    mid = len(k.grid) // 2
    omega = system.envelope.value(k.grid[mid])
    assert abs(k.matrices[mid][0, 1]) == pytest.approx(omega, rel=1e-9)


def test_k_matrix_bunched_inner_pair_vanishes(system, boson_basis):
    sub = sub_boson(boson_basis, (0, 2, 0, 0), (0, 0, 2, 0))
    k = hol.k_matrix(sub, system)
    assert k.max_abs < hol.holonomic_tolerance(system)


@pytest.mark.parametrize("members", [
    [(0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 1, 0)],
    [(2, 0, 0, 0), (0, 0, 0, 2), (1, 0, 0, 1)],
    [(1, 1, 0, 0), (0, 0, 1, 1)],
])
def test_k_matrix_closed_form_matches_lifted(system, boson_basis, members):
    sub = sub_boson(boson_basis, *members)
    grid = np.linspace(0.0, system.length, 41)
    k1 = hol.gauge_field(sub, system, grid, hol.HEISENBERG)
    k2 = hol.k_matrix_lifted(sub, system, grid)
    assert np.max(np.abs(k1.matrices - k2.matrices)) < 1e-8


def test_k_matrix_hermitian(system, boson_basis):
    sub = sub_boson(boson_basis, (0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 1, 0))
    k = hol.k_matrix(sub, system)
    assert k.max_hermiticity_residual < 1e-10


def test_k_matrix_distinguishable_matches_lifted(system, dist_basis):
    sub = hol.subspace_from_states(dist_basis, [(0, 2), (1, 0), (2, 3), (3, 1)])
    grid = np.linspace(0.0, system.length, 21)
    k1 = hol.gauge_field(sub, system, grid, hol.HEISENBERG)
    k2 = hol.k_matrix_lifted(sub, system, grid)
    assert np.max(np.abs(k1.matrices - k2.matrices)) < 1e-8
    assert k1.max_abs < hol.holonomic_tolerance(system)


def _jx_system(modes, detuned):
    """Jx(modes) under the preset envelope; detuned adds diag(0.01, 0, ...)."""
    envelope = cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope
    static = None
    if detuned:
        static = cm.CouplingPattern(np.diag([0.01] + [0.0] * (modes - 1)))
    return cm.CoupledModeSystem(cm.jx_pattern(modes), envelope, static)


@pytest.mark.parametrize("detuned", [False, True])
@pytest.mark.parametrize("particle,modes,members", [
    (FERMION, 5, [(1, 1, 1, 0, 0), (0, 0, 1, 1, 1), (1, 1, 0, 1, 0), (0, 1, 1, 1, 0)]),
    (ParticleType.distinguishable("a", "b", "c"), 4,
     [(0, 2, 1), (3, 1, 2), (1, 2, 1), (2, 3, 0), (0, 0, 0)]),
])
def test_k_matrix_many_particles_matches_lifted(particle, modes, members, detuned):
    system = _jx_system(modes, detuned)
    assert system.commuting_family != detuned
    basis = enumerate_basis(modes, 3, particle)
    sub = hol.subspace_from_states(basis, members)
    grid = np.linspace(0.0, system.length, 21)
    k1 = hol.gauge_field(sub, system, grid, hol.HEISENBERG)
    k2 = hol.k_matrix_lifted(sub, system, grid)
    assert k1.max_abs > 1e-3
    assert np.max(np.abs(k1.matrices - k2.matrices)) < 1e-10


# -------------------------------------------------------------- cyclicity


def test_single_photon_cyclic_subspaces(system):
    b1 = enumerate_basis(4, 1, BOSON)
    outer = hol.subspace_from_states(b1, [(1, 0, 0, 0), (0, 0, 0, 1)])
    check = hol.check_subspace(outer, system)
    assert check.cyclic
    # the cycle swaps the two members with phase i
    assert np.max(np.abs(check.matrix - np.array([[0, 1j], [1j, 0]]))) < 1e-8
    mixed = hol.subspace_from_states(b1, [(1, 0, 0, 0), (0, 1, 0, 0)])
    check = hol.check_subspace(mixed, system)
    assert not check.cyclic and not check.holonomic and check.classification is None


def test_full_basis_is_cyclic(system, boson_basis):
    sub = hol.subspace_from_states(boson_basis, [s.occupations for s in boson_basis.states])
    assert hol.check_subspace(sub, system).cyclic


def dense_projector_residual(columns, member_indices) -> float:
    """max |P - V_m V_m^dag| through the whole (S, S) product."""
    w = columns @ columns.conj().T
    w[member_indices, member_indices] -= 1.0
    return float(np.max(np.abs(w)))


def test_projector_residual_matches_dense_formula():
    """Row blocks give the dense formula's maximum bit for bit: (S, d)
    columns near the members' unit vectors, off by noise of 1e-12 to 1,
    S on and off the block edges, and members anywhere."""
    rng = np.random.default_rng(7)
    block = hol._RESIDUAL_BLOCK
    sizes = [1, 2, block - 1, block, block + 1, 2 * block, 2401]
    sizes += rng.integers(3, 2402, 30 - len(sizes)).tolist()
    for size in sizes:
        dim = int(rng.integers(1, min(size, 6) + 1))
        members = sorted(rng.choice(size, dim, replace=False).tolist())
        noise = rng.normal(size=(size, dim)) + 1j * rng.normal(size=(size, dim))
        columns = 10.0 ** rng.uniform(-12, 0) * noise
        columns[members, range(dim)] += 1.0
        assert hol.projector_residual(columns, members) == \
            dense_projector_residual(columns, members), (size, dim)


def test_projector_residual_of_a_2401_state_pair_is_blocked():
    """The pair {|a1 b1 c1 d1>, |a7 b7 c7 d7>} of four distinguishable
    particles on Jx(7): the residual is the dense one, and the peak stays
    far below the 132 MiB of the dense (S, S) product and its modulus."""
    jx7 = cm.CoupledModeSystem(cm.jx_pattern(7), cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)
    basis = enumerate_basis(7, 4, ParticleType.distinguishable(*"abcd"))
    members = [basis.index_of(basis.state((m,) * 4)) for m in (0, 6)]
    columns = fock.lift_unitary(cm.evolve(jx7), basis, cols=members)
    tracemalloc.start()
    try:
        residual = hol.projector_residual(columns, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual == dense_projector_residual(columns, members)
    assert residual < hol.CYCLIC_TOL
    assert peak < 32 * 2**20


# -------------------------------------------------------------- holonomies


def test_single_photon_holonomy(system):
    b1 = enumerate_basis(4, 1, BOSON)
    sub = hol.subspace_from_states(b1, [(1, 0, 0, 0), (0, 0, 0, 1)])
    h = hol.extract_holonomy(sub, system)
    expected = np.array([[0, 1j], [1j, 0]])
    assert np.max(np.abs(h.matrix - expected)) < 1e-8
    assert h.classification == hol.NON_SCALAR


def test_three_state_bunched_holonomy(system, boson_basis):
    sub = sub_boson(boson_basis, (2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2))
    h = hol.extract_holonomy(sub, system)
    expected = -np.fliplr(np.eye(3))
    assert np.max(np.abs(h.matrix - expected)) < 1e-8
    assert h.classification == hol.NON_SCALAR


@pytest.mark.parametrize("members", [
    [(2, 0, 0, 0), (0, 0, 0, 2)],
    [(0, 2, 0, 0), (0, 0, 2, 0)],
])
def test_bunched_pair_holonomies(system, boson_basis, members):
    sub = sub_boson(boson_basis, *members)
    h = hol.extract_holonomy(sub, system)
    assert np.max(np.abs(h.matrix + np.fliplr(np.eye(2)))) < 1e-8


def test_distinguishable_four_state_holonomy(system, dist_basis):
    sub = hol.subspace_from_states(dist_basis, [(0, 2), (1, 0), (2, 3), (3, 1)])
    h = hol.extract_holonomy(sub, system)
    assert np.max(np.abs(h.matrix + np.fliplr(np.eye(4)))) < 1e-8
    assert h.classification == hol.NON_SCALAR


def test_swap_pair_holonomy_is_scalar(system, boson_basis):
    sub = sub_boson(boson_basis, (1, 0, 0, 1), (0, 1, 1, 0))
    h = hol.extract_holonomy(sub, system)
    assert np.max(np.abs(h.matrix + np.eye(2))) < 1e-8
    assert h.classification == hol.SCALAR


def test_extract_rejects_non_cyclic(system, boson_basis):
    sub = sub_boson(boson_basis, (2, 0, 0, 0), (0, 2, 0, 0))
    with pytest.raises(hol.NotCyclicError):
        hol.extract_holonomy(sub, system)


def test_extract_rejects_non_holonomic(system, boson_basis):
    sub = sub_boson(boson_basis, (0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 1, 0))
    with pytest.raises(hol.NotHolonomicError) as err:
        hol.extract_holonomy(sub, system)
    assert err.value.max_k > 1e-3


def test_classification_invariances(system, boson_basis):
    sub = sub_boson(boson_basis, (1, 0, 0, 1), (0, 1, 1, 0))
    h = hol.extract_holonomy(sub, system)
    # invariant under global phase and under member reordering
    assert hol.classify_phases(list(np.exp(0.7j) * np.diag(h.matrix))) == hol.SCALAR
    sub_r = sub_boson(boson_basis, (0, 1, 1, 0), (1, 0, 0, 1))
    assert hol.extract_holonomy(sub_r, system).classification == hol.SCALAR


def matrix_class(block):
    """The classification of a holonomy block B read from the matrix itself:
    scalar if max |B - (tr B / d) I| < 1e-8, else diagonal if every
    off-diagonal entry is below 1e-8, else non-scalar."""
    d = len(block)
    if np.max(np.abs(block - np.trace(block) / d * np.eye(d))) < 1e-8:
        return hol.SCALAR
    if np.max(np.abs(block - np.diag(np.diag(block)))) < 1e-8:
        return hol.DIAGONAL
    return hol.NON_SCALAR


@given(data=st.data())
def test_classify_phases_at_the_tolerance_edge(data):
    # unit phases spread by up to ~6e-8 around a common phase, so the spread
    # straddles the 1e-8 tolerance; a None row stands for a 2e-8 off-diagonal
    # entry in that row of the matrix the oracle reads
    d = data.draw(st.integers(1, 5))
    offsets = data.draw(st.lists(st.floats(-2.9e-8, 2.9e-8), min_size=d, max_size=d))
    linked = data.draw(st.lists(st.booleans(), min_size=d, max_size=d)) if d > 1 else [False]
    phases = np.exp(1j * (data.draw(st.floats(0.0, 2 * np.pi)) + np.array(offsets)))
    block = np.diag(phases)
    for i in np.flatnonzero(linked):
        block[i, (i + 1) % d] = 2e-8
    marked = [None if row else p for row, p in zip(linked, phases)]
    expected = matrix_class(block)
    assert hol.classify_phases(marked) == expected
    # a global phase and a reordering leave the class alone
    turn = np.exp(1j * data.draw(st.floats(0.0, 2 * np.pi)))
    assert hol.classify_phases([p if p is None else turn * p for p in marked]) == expected
    order = data.draw(st.permutations(range(d)))
    assert hol.classify_phases([marked[i] for i in order]) == expected


# ------------------------------------------------------------ gauge field


def test_gauge_field_outer_pair_phase_adjusted(system):
    b1 = enumerate_basis(4, 1, BOSON)
    sub = hol.subspace_from_states(b1, [(1, 0, 0, 0), (0, 0, 0, 1)])
    grid = np.linspace(5.0, system.length - 5.0, 41)
    a = hol.gauge_field(sub, system, grid, hol.PHASE_ADJUSTED)
    omegas = np.array([system.envelope.value(z) for z in grid])
    expected = 0.5 * omegas[:, None, None] * np.eye(2)
    scale = max(float(np.max(omegas)), 1e-12)
    assert np.max(np.abs(a.matrices - expected)) < 1e-5 * scale


@pytest.mark.parametrize("members,factor", [
    ([(2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2)], 1.0),
    ([(2, 0, 0, 0), (0, 0, 0, 2)], 1.0),
    ([(0, 2, 0, 0), (0, 0, 2, 0)], 1.0),
])
def test_gauge_field_two_particle_identity(system, boson_basis, members, factor):
    sub = sub_boson(boson_basis, *members)
    grid = np.linspace(5.0, system.length - 5.0, 21)
    a = hol.gauge_field(sub, system, grid, hol.PHASE_ADJUSTED)
    omegas = np.array([system.envelope.value(z) for z in grid])
    expected = factor * omegas[:, None, None] * np.eye(sub.dimension)
    assert np.max(np.abs(a.matrices - expected)) < 1e-5 * float(np.max(omegas))


def test_gauge_field_distinguishable_identity(system, dist_basis):
    sub = hol.subspace_from_states(dist_basis, [(0, 2), (1, 0), (2, 3), (3, 1)])
    grid = np.linspace(5.0, system.length - 5.0, 21)
    a = hol.gauge_field(sub, system, grid, hol.PHASE_ADJUSTED)
    omegas = np.array([system.envelope.value(z) for z in grid])
    expected = omegas[:, None, None] * np.eye(4)
    assert np.max(np.abs(a.matrices - expected)) < 1e-5 * float(np.max(omegas))


def test_gauge_field_heisenberg_hermitian(system, boson_basis):
    sub = sub_boson(boson_basis, (2, 0, 0, 0), (0, 0, 0, 2))
    grid = np.linspace(5.0, system.length - 5.0, 21)
    a = hol.gauge_field(sub, system, grid, hol.HEISENBERG)
    assert a.max_hermiticity_residual < 1e-6
    with pytest.raises(ValueError, match="unknown mode family"):
        hol.gauge_field(sub, system, grid, "adiabatic")


def ket_difference_gauge(sub, system, zs, family, step):
    """i <Phi_m | d_z Phi_n> of the lifted member kets by Richardson-extrapolated
    central differences, (4 CD(step/2) - CD(step)) / 3."""
    offsets = np.array([0.0, step / 2, -step / 2, step, -step])
    phi = hol.mode_family_matrices(system, (offsets[:, None] + zs).ravel(), family)
    kets = fock.lift_unitary_batch(np.moveaxis(phi, 0, -1), sub.basis)
    kets = np.moveaxis(kets[:, list(sub.member_indices)], -1, 0)
    center, half_p, half_m, full_p, full_m = kets.reshape(5, len(zs), *kets.shape[1:])

    def central(plus, minus, h):
        return 1j * np.einsum("zsm,zsn->zmn", center.conj(), (plus - minus) / (2 * h))

    return (4 * central(half_p, half_m, step / 2) - central(full_p, full_m, step)) / 3


def test_gauge_field_interior_is_central_difference(system, boson_basis):
    sub = sub_boson(boson_basis, (2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2))
    grid = np.linspace(0.0, system.length, 201)
    a = hol.gauge_field(sub, system, grid, hol.PHASE_ADJUSTED)
    omega_max = float(np.max(system.envelope.value(grid)))
    want = ket_difference_gauge(sub, system, grid[1:-1], hol.PHASE_ADJUSTED,
                                1e-3 * system.length)
    assert np.max(np.abs(a.matrices[1:-1] - want)) < 1e-8 * omega_max
    # exact at the ends too: A = Omega * identity for this subspace
    for i in (0, -1):
        omega = system.envelope.value(grid[i])
        assert np.max(np.abs(a.matrices[i] - omega * np.eye(3))) < 1e-12 * omega_max


def test_gauge_field_non_commuting_system(system, boson_basis):
    static = cm.CouplingPattern(np.diag([0.01, 0.0, 0.0, 0.0]))
    detuned = cm.CoupledModeSystem(system.pattern, system.envelope, static)
    assert not detuned.commuting_family
    sub = sub_boson(boson_basis, (2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2))
    a = hol.gauge_field(sub, detuned)
    assert a.grid[0] == 0.0 and a.grid[-1] == detuned.length
    assert np.all(np.isfinite(a.matrices))
    rebuilt = hol.holonomy_from_gauge_field(sub, detuned)
    assert np.all(np.isfinite(rebuilt))
    # over a whole basis the transport undoes the family's own motion, so the
    # reconstruction is the identity up to the midpoint rule's O(h^2) error
    # (3.5e-9 at the evolution's 0.01 mm steps)
    full = hol.Subspace(boson_basis, boson_basis.states)
    whole = hol.holonomy_from_gauge_field(full, detuned)
    assert np.max(np.abs(whole - np.eye(boson_basis.size))) < 1e-8


@pytest.mark.parametrize("detuning", [None, 0.01])
@pytest.mark.parametrize("family", [hol.HEISENBERG, hol.PHASE_ADJUSTED])
@pytest.mark.parametrize("particles,particle", [(2, BOSON), (3, BOSON), (2, FERMION),
                                               (2, DIST_AB)],
                         ids=["2-bosons", "3-bosons", "2-fermions", "2-distinguishable"])
def test_gauge_field_matches_ket_difference(system, detuning, family, particles, particle):
    if detuning is not None:
        static = cm.CouplingPattern(np.diag([detuning, 0.0, 0.0, 0.0]))
        system = cm.CoupledModeSystem(system.pattern, system.envelope, static)
    basis = enumerate_basis(4, particles, particle)
    sub = hol.Subspace(basis, basis.states)
    grid = np.linspace(0.0, system.length, 23)[1:-1]
    a = hol.gauge_field(sub, system, grid, family)
    omega_max = float(np.max(system.envelope.value(grid)))
    assert a.max_hermiticity_residual < 1e-12
    # plain central differences miss by 7e-5 to 4e-4 * omega_max here
    want = ket_difference_gauge(sub, system, grid, family, 1e-3 * system.length)
    assert np.max(np.abs(a.matrices - want)) < 1e-6 * omega_max


# --------------------------------------------- two-particle gauge relation


def _smooth_family(rng, modes):
    g1 = random_hermitian(modes, rng)
    g2 = random_hermitian(modes, rng)

    def phi(t):
        lam, v = np.linalg.eigh(g1 + t * g2)
        w = (v * np.exp(-1j * t * lam)) @ v.conj().T
        return w

    return phi


@pytest.mark.parametrize("particle", [BOSON, FERMION, DIST_AB])
def test_gauge_relation_matches_finite_difference(particle):
    rng = np.random.default_rng(211)
    basis = enumerate_basis(4, 2, particle)
    h_fd = 1e-5
    checks = 0
    for trial in range(50):
        phi = _smooth_family(rng, 4)
        t0 = float(rng.uniform(0.2, 1.2))
        f0, fp, fm = phi(t0), phi(t0 + h_fd), phi(t0 - h_fd)
        a_single = 1j * f0.conj().T @ ((fp - fm) / (2 * h_fd))
        lift0 = fock.lift_unitary(f0, basis)
        liftp = fock.lift_unitary_batch(np.stack([fp, fm], axis=-1), basis)
        a_two = 1j * lift0.conj().T @ ((liftp[..., 0] - liftp[..., 1]) / (2 * h_fd))
        bi, ki = rng.integers(0, basis.size, size=2)
        bra, ket = basis.states[bi], basis.states[ki]
        got = hol.k_two_particle(bra, ket, a_single, particle)
        want = a_two[bi, ki]
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))
        checks += 1
    assert checks == 50


@given(particle=st.sampled_from([BOSON, FERMION, DIST_AB]), seed=st.integers(0, 2**32 - 1))
def test_one_body_lift_matches_two_particle_gauge_relation(particle, seed):
    a = random_hermitian(4, np.random.default_rng(seed))
    basis = enumerate_basis(4, 2, particle)
    lifted = fock.lift_one_body(a, basis)
    for bi, bra in enumerate(basis.states):
        for ki, ket in enumerate(basis.states):
            want = hol.k_two_particle(bra, ket, a, particle)
            assert abs(lifted[bi, ki] - want) < 1e-12


def test_gauge_relation_all_modes_distinct_is_zero():
    basis = enumerate_basis(4, 2, BOSON)
    a = np.ones((4, 4))
    bra = basis.state((1, 1, 0, 0))
    ket = basis.state((0, 0, 1, 1))
    assert hol.k_two_particle(bra, ket, a, BOSON) == 0


def test_gauge_relation_bunched_element():
    basis = enumerate_basis(4, 2, BOSON)
    a = 0.5 * np.eye(4)  # single-particle gauge field Omega/2 with Omega=1
    bra = ket = basis.state((2, 0, 0, 0))
    assert hol.k_two_particle(bra, ket, a, BOSON) == pytest.approx(1.0)


# --------------------------------------------------- Eq.-style reconstruction


@pytest.mark.parametrize("members", [
    [(1, 0, 0, 0), (0, 0, 0, 1)],
    [(2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2)],
    [(0, 2, 0, 0), (0, 0, 2, 0)],
    [(1, 0, 0, 1), (0, 1, 1, 0)],
])
def test_gauge_reconstruction_matches_holonomy(system, members):
    n = sum(members[0])
    basis = enumerate_basis(4, n, BOSON)
    sub = hol.subspace_from_states(basis, members)
    direct = hol.extract_holonomy(sub, system).matrix
    rebuilt = hol.holonomy_from_gauge_field(sub, system)
    assert np.max(np.abs(rebuilt - direct)) < 1e-12


@pytest.mark.parametrize("members", [
    [(2, 0, 0, 0), (0, 0, 0, 2)],
    [(2, 0, 0, 0), (0, 0, 0, 2), (1, 0, 0, 1)],
])
def test_gauge_reconstruction_with_a_commuting_static_part_is_closed_form(
        system, boson_basis, monkeypatch, members):
    """A static part that commutes with the pattern keeps the family
    commuting: the reconstruction takes the closed form, sampling no gauge
    field.  The static part (pi / 84.9)(kappa^2 - 3/4) turns the cycle's
    static factor into the scalar i and vanishes on these members."""
    kappa = system.pattern.matrix
    static = cm.CouplingPattern(math.pi / 84.9 * (kappa @ kappa - 0.75 * np.eye(4)))
    commuting = cm.CoupledModeSystem(system.pattern, system.envelope, static)
    assert commuting.commuting_family
    sub = sub_boson(boson_basis, *members)
    direct = hol.extract_holonomy(sub, commuting).matrix

    def sampled(*args, **kwargs):
        raise AssertionError("the commuting reconstruction sampled the gauge field")
    monkeypatch.setattr(hol, "gauge_field", sampled)
    rebuilt = hol.holonomy_from_gauge_field(sub, commuting)
    assert np.max(np.abs(rebuilt - direct)) < 1e-14


# --------------------------------------------- Heisenberg-picture condition


def test_heisenberg_condition_examples():
    pattern = cm.jx_pattern(4)
    e = np.eye(4)
    assert hol.heisenberg_condition([e[0], e[3]], pattern)
    assert not hol.heisenberg_condition([e[1], e[2]], pattern)
    assert hol.heisenberg_condition([e[2]], pattern)  # zero detuning


def test_heisenberg_condition_matches_double_commutator_oracle():
    # scalar reduction equals <0| phi_c [H, phi_b^dag] |0> from ladder algebra
    rng = np.random.default_rng(31)
    pattern = cm.CouplingPattern(random_hermitian(4, rng))
    q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    vecs = [q[:, 0], q[:, 1]]
    h = pattern.matrix
    e = np.eye(4)
    for c in vecs:
        for b in vecs:
            scalar = np.vdot(c, h @ b)
            total = 0.0
            for j in range(4):
                for k in range(4):
                    seq = [(c.conj(), False), (e[j], True), (e[k], False), (b, True)]
                    total += h[j, k] * vacuum_expectation(seq, BOSON)
            assert abs(scalar - total) < 1e-10


def test_heisenberg_condition_agrees_with_j_nullity():
    rng = np.random.default_rng(37)
    pattern = cm.jx_pattern(4)
    hits = 0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k)))
        vecs = [q[:, i] for i in range(k)]
        j = np.array([[np.vdot(a, pattern.matrix @ b) for b in vecs] for a in vecs])
        null = bool(np.max(np.abs(j)) < 1e-10)
        assert hol.heisenberg_condition(vecs, pattern) == null
        hits += 1
    assert hits == 100


def test_heisenberg_condition_implies_vanishing_k(system):
    # the {1,4} mode pair passes, so every subspace built from those
    # modes has K = 0, for one and two particles
    e = np.eye(4)
    assert hol.heisenberg_condition([e[0], e[3]], system.pattern)
    b1 = enumerate_basis(4, 1, BOSON)
    b2 = enumerate_basis(4, 2, BOSON)
    subs = [
        hol.subspace_from_states(b1, [(1, 0, 0, 0), (0, 0, 0, 1)]),
        hol.subspace_from_states(b2, [(2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2)]),
    ]
    for sub in subs:
        assert hol.k_matrix(sub, system).max_abs < hol.holonomic_tolerance(system)


# ------------------------------------------------------------------- JSON


def test_subspace_json_round_trip(boson_basis):
    doc = {"particle": "boson", "states": [[2, 0, 0, 0], [0, 0, 0, 2]]}
    sub = hol.subspace_from_json(doc)
    assert sub.dimension == 2
    assert sub.basis.modes == 4
    back = hol.subspace_to_json(sub)
    assert back["states"] == [[2, 0, 0, 0], [0, 0, 0, 2]]


def test_subspace_json_distinguishable():
    doc = {"particle": "distinguishable", "modes": 4,
           "states": [{"a": 1, "b": 3}, {"a": 2, "b": 1}]}
    sub = hol.subspace_from_json(doc)
    assert sub.members[0].occupations == (0, 2)
    assert hol.subspace_to_json(sub)["states"][0] == {"a": 1, "b": 3}


def test_subspace_rejects_duplicates(boson_basis):
    with pytest.raises(ValueError):
        sub_boson(boson_basis, (2, 0, 0, 0), (2, 0, 0, 0))
