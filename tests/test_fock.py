import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

from geomode import fock
from geomode.fock import (
    FockBasis,
    OccupationState,
    ParticleType,
    enumerate_basis,
    lift_hamiltonian,
    lift_one_body,
    lift_unitary,
    lift_unitary_batch,
    permanent,
    permanent_naive,
    vacuum_expectation,
)

BOSON = ParticleType.boson()
FERMION = ParticleType.fermion()
DIST_AB = ParticleType.distinguishable("a", "b")


def random_unitary(n, rng):
    return unitary_group.rvs(n, random_state=rng)


def random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- bases


def test_basis_sizes_four_mode_system():
    assert enumerate_basis(4, 2, BOSON).size == 10
    assert enumerate_basis(4, 1, BOSON).size == 4
    assert enumerate_basis(4, 2, DIST_AB).size == 16
    assert enumerate_basis(4, 2, FERMION).size == 6


def test_basis_ordering_deterministic():
    b = enumerate_basis(4, 2, BOSON)
    occs = [s.occupations for s in b.states]
    assert occs[0] == (2, 0, 0, 0)
    assert occs == sorted(occs, reverse=True)
    assert b.index_of((2, 0, 0, 0)) == 0
    # distinguishable ordering is ascending on per-label mode tuples
    d = enumerate_basis(4, 2, DIST_AB)
    assert d.states[0].occupations == (0, 0)
    assert d.states[-1].occupations == (3, 3)


def test_fermion_requires_enough_modes():
    with pytest.raises(ValueError):
        enumerate_basis(2, 3, FERMION)


def test_fermion_state_rejects_double_occupation():
    with pytest.raises(ValueError):
        OccupationState(FERMION, 4, (2, 0, 0, 0))


def test_distinguishable_labels_unique():
    with pytest.raises(ValueError):
        ParticleType.distinguishable("a", "a")


def test_state_labels():
    st = OccupationState(BOSON, 4, (2, 0, 0, 0))
    assert st.label() == "|2000>"
    st = OccupationState(DIST_AB, 4, (0, 2))
    assert st.label() == "|a1 b3>"


# ------------------------------------------------------------ permanent


def test_permanent_identity_and_ones():
    assert permanent(np.eye(3)) == pytest.approx(1.0)
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0)


def test_permanent_matches_naive_expansion():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4, 5):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ryser = permanent(m)
        naive = permanent_naive(m)
        assert abs(ryser - naive) < 1e-12 * max(1.0, abs(naive))


def test_permanent_guards():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent(np.ones((13, 13)))


# --------------------------------------------------------- lift_unitary


def test_lift_identity_is_identity():
    for ptype in (BOSON, FERMION, DIST_AB):
        b = enumerate_basis(4, 2, ptype)
        v = lift_unitary(np.eye(4), b)
        assert np.allclose(v, np.eye(b.size), atol=1e-12)


def test_lift_double_flip_two_bosons():
    u = 1j * np.fliplr(np.eye(4))
    b = enumerate_basis(4, 2, BOSON)
    v = lift_unitary(u, b)
    # a1^dag -> i a4^dag, so |2000> -> -|0002> and |1001> -> -|1001>
    e = np.eye(b.size)
    col = v[:, b.index_of((2, 0, 0, 0))]
    assert np.allclose(col, -e[b.index_of((0, 0, 0, 2))], atol=1e-12)
    col = v[:, b.index_of((1, 0, 0, 1))]
    assert np.allclose(col, -e[b.index_of((1, 0, 0, 1))], atol=1e-12)


def test_hong_ou_mandel_zero_coincidence():
    bs = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    b = enumerate_basis(2, 2, BOSON)
    v = lift_unitary(bs, b)
    i11 = b.index_of((1, 1))
    assert abs(v[i11, i11]) < 1e-12
    # photons bunch: |11> -> (|20> - |02>)/sqrt(2)
    assert abs(v[b.index_of((2, 0)), i11]) == pytest.approx(1 / math.sqrt(2))


def test_lift_rejects_non_unitary():
    b = enumerate_basis(3, 2, BOSON)
    with pytest.raises(ValueError):
        lift_unitary(np.ones((3, 3)), b)


@pytest.mark.parametrize("kind", ["boson", "fermion", "distinguishable"])
def test_lifted_matrices_are_unitary(kind):
    rng = np.random.default_rng(11)
    for modes, particles in [(4, 2), (5, 3), (6, 3)]:
        if kind == "distinguishable":
            pt = ParticleType.distinguishable(*"abc"[:particles])
        else:
            pt = ParticleType(kind)
        b = enumerate_basis(modes, particles, pt)
        v = lift_unitary(random_unitary(modes, rng), b)
        assert np.max(np.abs(v.conj().T @ v - np.eye(b.size))) < 1e-9


def test_boson_lifting_composes():
    rng = np.random.default_rng(3)
    b = enumerate_basis(4, 2, BOSON)
    u1 = random_unitary(4, rng)
    u2 = random_unitary(4, rng)
    left = lift_unitary(u2 @ u1, b)
    right = lift_unitary(u2, b) @ lift_unitary(u1, b)
    assert np.max(np.abs(left - right)) < 1e-9


# ----------------------------------------------------- lift_hamiltonian


def test_lift_hamiltonian_number_operator():
    d = np.diag([0.3, -0.1, 0.7, 1.1])
    b = enumerate_basis(4, 2, BOSON)
    h = lift_hamiltonian(d, b)
    i = b.index_of((2, 0, 0, 0))
    assert h[i, i] == pytest.approx(2 * 0.3)
    j = b.index_of((0, 1, 0, 1))
    assert h[j, j] == pytest.approx(-0.1 + 1.1)


def test_lift_hamiltonian_single_particle_is_identity_map():
    rng = np.random.default_rng(13)
    h = random_hermitian(4, rng)
    b = enumerate_basis(4, 1, BOSON)
    assert np.allclose(lift_hamiltonian(h, b), h, atol=1e-12)


@pytest.mark.parametrize("ptype", [BOSON, FERMION, DIST_AB])
def test_lift_hamiltonian_is_hermitian(ptype):
    rng = np.random.default_rng(17)
    b = enumerate_basis(4, 2, ptype)
    h = lift_hamiltonian(random_hermitian(4, rng), b)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


@pytest.mark.parametrize("ptype", [BOSON, FERMION, DIST_AB])
@pytest.mark.parametrize("delta", [0.1, 1.0, math.pi])
def test_lift_hamiltonian_generates_lift_unitary(ptype, delta):
    rng = np.random.default_rng(19)
    h = random_hermitian(4, rng)
    b = enumerate_basis(4, 2, ptype)
    left = lift_unitary(expm(-1j * delta * h), b)
    right = expm(-1j * delta * lift_hamiltonian(h, b))
    assert np.max(np.abs(left - right)) < 1e-8


def _sandwich(bra, h, ket, ptype):
    """<bra| sum h_jk a_j^dag a_k |ket> via the vacuum-expectation oracle,
    with the operator summed over the labels of distinguishable particles."""
    modes = bra.modes
    norm = math.sqrt(bra.norm_factorial() * ket.norm_factorial())
    e = np.eye(modes)
    labels = ptype.labels or (None,) * len(ket.mode_list())
    bra_ops = [(e[m], False, lab) for m, lab in reversed(list(zip(bra.mode_list(), labels)))]
    ket_ops = [(e[m], True, lab) for m, lab in zip(ket.mode_list(), labels)]
    total = 0.0
    for lab in ptype.labels or (None,):
        for j in range(modes):
            for k in range(modes):
                seq = bra_ops + [(e[j], True, lab), (e[k], False, lab)] + ket_ops
                total += h[j, k] * vacuum_expectation(seq, ptype)
    return total / norm


# ----------------------------------------------------- vacuum expectation


def test_vacuum_expectation_single_contraction():
    e = np.eye(4)
    for k in range(4):
        for j in range(4):
            val = vacuum_expectation([(e[k], False), (e[j], True)], BOSON)
            assert val == pytest.approx(1.0 if k == j else 0.0)


def test_vacuum_expectation_two_pairs():
    # <0| a_n a_p^dag a_l a_q^dag |0> = delta_np * delta_lq
    e = np.eye(4)
    rng = np.random.default_rng(29)
    for _ in range(20):
        n, p, l, q = rng.integers(0, 4, size=4)
        seq = [(e[n], False), (e[p], True), (e[l], False), (e[q], True)]
        val = vacuum_expectation(seq, BOSON)
        assert val == pytest.approx(float(n == p) * float(l == q))


def test_vacuum_expectation_three_pairs():
    # <0| a_n a_k^dag a_m a_p^dag a_l a_q^dag |0> = d_nk d_lq d_mp
    e = np.eye(3)
    for n, k, m, p, l, q in itertools.product(range(3), repeat=6):
        seq = [
            (e[n], False), (e[k], True), (e[m], False),
            (e[p], True), (e[l], False), (e[q], True),
        ]
        val = vacuum_expectation(seq, BOSON)
        assert val == pytest.approx(float(n == k) * float(l == q) * float(m == p))


def test_vacuum_expectation_unbalanced_is_exactly_zero():
    rng = np.random.default_rng(31)
    for ptype in (BOSON, FERMION):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            seq = []
            for _ in range(n):
                seq.append((rng.normal(size=3), bool(rng.integers(0, 2))))
            n_dag = sum(1 for _, d in seq if d)
            if 2 * n_dag == len(seq):
                seq.append((rng.normal(size=3), True))
            assert vacuum_expectation(seq, ptype) == 0.0


def test_fermion_antisymmetry():
    e = np.eye(4)
    base = [(e[0], False), (e[1], False), (e[0], True), (e[1], True)]
    swapped = [(e[0], False), (e[1], False), (e[1], True), (e[0], True)]
    v1 = vacuum_expectation(base, FERMION)
    v2 = vacuum_expectation(swapped, FERMION)
    assert v1 == pytest.approx(-v2)
    assert abs(v1) == pytest.approx(1.0)


def test_vacuum_expectation_distinguishable_labels():
    e = np.eye(4)
    seq = [
        (e[1], False, "a"), (e[2], False, "b"),
        (e[2], True, "b"), (e[1], True, "a"),
    ]
    assert vacuum_expectation(seq, DIST_AB) == pytest.approx(1.0)
    # cross-label contraction never fires
    seq = [(e[1], False, "a"), (e[1], True, "b")]
    assert vacuum_expectation(seq, DIST_AB) == pytest.approx(0.0)


def test_vacuum_expectation_sequence_cap():
    e = np.eye(2)
    seq = [(e[0], False)] * 9
    with pytest.raises(ValueError):
        vacuum_expectation(seq, BOSON)


def test_fermion_lift_matches_oracle_signs():
    rng = np.random.default_rng(37)
    h = (lambda m: (m + m.conj().T) / 2)(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    b = enumerate_basis(4, 2, FERMION)
    lifted = lift_hamiltonian(h, b)
    for bra in b.states:
        for ket in b.states:
            oracle = _sandwich(bra, h, ket, FERMION)
            got = lifted[b.index_of(bra), b.index_of(ket)]
            assert abs(got - oracle) < 1e-10


# ----------------------------------------------------- one-body lift


def test_one_body_lists_are_cached_and_read_only():
    b = enumerate_basis(4, 2, BOSON)
    lists = b.one_body
    assert b.one_body is lists
    assert len(lists) == 5 and len(lists[0]) <= b.size * 2 * 4
    for x in lists:
        with pytest.raises(ValueError):
            x[0] = 0


@pytest.mark.parametrize("particle", [BOSON, FERMION], ids=["boson", "fermion"])
def test_one_body_of_the_vacuum_is_empty_integer_lists(particle):
    basis = enumerate_basis(4, 0, particle)
    assert [(x.size, x.dtype.kind) for x in basis.one_body] == [(0, "i")] * 4 + [(0, "f")]
    assert np.array_equal(lift_one_body(np.eye(4), basis), np.zeros((1, 1)))


def test_one_body_number_operator_distinguishable():
    # both labels in mode 0: a_0^dag a_0 counts two particles
    b = enumerate_basis(3, 2, DIST_AB)
    i = b.index_of((0, 0))
    assert lift_hamiltonian(np.diag([1.0, 0.0, 0.0]), b)[i, i] == 2.0
    assert np.array_equal(lift_hamiltonian(np.eye(3), b), 2.0 * np.eye(b.size))


@st.composite
def bases(draw, max_particles=3):
    kind = draw(st.sampled_from(["boson", "fermion", "distinguishable"]))
    modes = draw(st.integers(1, 4))
    particles = draw(st.integers(1, min(max_particles, modes) if kind == "fermion"
                                 else max_particles))
    if kind == "distinguishable":
        ptype = ParticleType.distinguishable(*"abcd"[:particles])
    else:
        ptype = ParticleType(kind)
    return enumerate_basis(modes, particles, ptype)


def index_subsets(size):
    return st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True)


@given(basis=bases(), seed=st.integers(0, 2**32 - 1))
def test_lift_hamiltonian_matches_vacuum_expectation_oracle(basis, seed):
    # one column of the lift, every row, against the ladder-operator algebra
    rng = np.random.default_rng(seed)
    h = random_hermitian(basis.modes, rng)
    col = int(rng.integers(basis.size))
    lifted = lift_hamiltonian(h, basis)
    for row, bra in enumerate(basis.states):
        oracle = _sandwich(bra, h, basis.states[col], basis.particle)
        assert abs(lifted[row, col] - oracle) < 1e-10


@given(basis=bases(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lift_one_body_on_members_is_the_restricted_full_lift(basis, seed, data):
    rng = np.random.default_rng(seed)
    shape = data.draw(st.sampled_from([(), (2,), (2, 3)])) + (basis.modes, basis.modes)
    ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    members = data.draw(index_subsets(basis.size))
    full = lift_one_body(ops, basis)
    assert np.array_equal(lift_one_body(ops, basis, members),
                          full[(..., *np.ix_(members, members))])


@given(basis=bases(), seed=st.integers(0, 2**32 - 1))
def test_lift_hamiltonian_conjugation_matches_lift_unitary(basis, seed):
    # lift_U(u)^dag lift_H(h) lift_U(u) = lift_H(u^dag h u): the one-body
    # lift against the permanent / determinant / per-label lift
    rng = np.random.default_rng(seed)
    h = random_hermitian(basis.modes, rng)
    u = random_unitary(basis.modes, rng)
    v = lift_unitary(u, basis)
    left = v.conj().T @ lift_hamiltonian(h, basis) @ v
    right = lift_hamiltonian(u.conj().T @ h @ u, basis)
    assert np.max(np.abs(left - right)) < 1e-10 * max(1.0, float(np.max(np.abs(h))))


@given(basis=bases(), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
def test_lift_hamiltonian_is_linear(basis, seed, alpha, beta):
    rng = np.random.default_rng(seed)
    h1 = random_hermitian(basis.modes, rng)
    h2 = random_hermitian(basis.modes, rng)
    left = lift_hamiltonian(alpha * h1 + beta * h2, basis)
    right = alpha * lift_hamiltonian(h1, basis) + beta * lift_hamiltonian(h2, basis)
    assert np.max(np.abs(left - right)) < 1e-10


def reference_lift(u, basis):
    """Entry-wise lift: Ryser permanents over sqrt(prod n_s! prod n_t!) for
    bosons, determinants for fermions, per-label products otherwise."""
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for col, t in enumerate(basis.states):
        for row, s in enumerate(basis.states):
            block = u[np.ix_(s.mode_list(), t.mode_list())]
            if basis.particle.kind == "boson":
                norm = math.sqrt(s.norm_factorial() * t.norm_factorial())
                out[row, col] = permanent(block) / norm
            elif basis.particle.kind == "fermion":
                out[row, col] = np.linalg.det(block)
            else:
                out[row, col] = np.prod(np.diag(block))
    return out


@given(basis=bases(max_particles=4), seed=st.integers(0, 2**32 - 1))
def test_lift_unitary_matches_entrywise_reference(basis, seed):
    u = random_unitary(basis.modes, np.random.default_rng(seed))
    assert np.max(np.abs(lift_unitary(u, basis) - reference_lift(u, basis))) < 1e-12


@given(basis=bases(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_lift_unitary_batch_block_matches_lift_unitary(basis, seed, data):
    # the permutation-sum kernel against the entry-wise Ryser / determinant /
    # per-label reference, on any block of rows and columns
    rng = np.random.default_rng(seed)
    us = np.stack([random_unitary(basis.modes, rng) for _ in range(2)])
    rows = data.draw(index_subsets(basis.size))
    cols = data.draw(index_subsets(basis.size))
    block = lift_unitary_batch(us, basis, rows, cols)
    assert block.shape == (2, len(rows), len(cols))
    for z, u in enumerate(us):
        assert np.max(np.abs(block[z] - reference_lift(u, basis)[np.ix_(rows, cols)])) < 1e-12


@given(basis=bases(), seed=st.integers(0, 2**32 - 1))
def test_lift_unitary_batch_is_a_unitary_representation(basis, seed):
    # lift(UV) = lift(U) lift(V), and every lift is unitary
    rng = np.random.default_rng(seed)
    u = random_unitary(basis.modes, rng)
    v = random_unitary(basis.modes, rng)
    lu, lv, luv = lift_unitary_batch(np.stack([u, v, u @ v]), basis)
    assert np.max(np.abs(luv - lu @ lv)) < 1e-12
    for m in (lu, lv, luv):
        assert np.max(np.abs(m.conj().T @ m - np.eye(basis.size))) < 1e-12
