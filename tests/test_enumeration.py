import hashlib
import json
from itertools import chain, combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomode import cli
from geomode import coupledmode as cm
from geomode import fock
from geomode import enumeration as enum
from geomode import holonomy as hol
from geomode.fock import ParticleType, enumerate_basis
from test_holonomy import matrix_class

BOSON = ParticleType.boson()
FERMION = ParticleType.fermion()
DIST_AB = ParticleType.distinguishable("a", "b")


@pytest.fixture(scope="module")
def system():
    return cm.jx4_structure(cm.IDEAL_LENGTH_MM)


PRESET_ENVELOPE = cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope
DETUNING = cm.CouplingPattern(np.diag([0.01, 0.0, 0.0, 0.0]))


def _two_pair_system(static=None):
    """Coupling 1 on modes 0-1 and 0.7 on modes 2-3 under the preset envelope;
    at delta = pi the first pair closes on -1 and the second one mixes."""
    kappa = np.zeros((4, 4))
    kappa[0, 1] = kappa[1, 0] = 1.0
    kappa[2, 3] = kappa[3, 2] = 0.7
    return cm.CoupledModeSystem(cm.CouplingPattern(kappa), PRESET_ENVELOPE, static)


def _constant_system(pattern, delta):
    omega = cm.FLAT_COUPLING_PER_MM
    return cm.CoupledModeSystem(pattern, cm.Envelope((cm.ConstantSegment(omega, delta / omega),)))


# systems whose cycle does not permute basis states up to phases
NON_PERMUTATION_SYSTEMS = {
    "two-pair": _two_pair_system(),
    "two-pair-non-commuting": _two_pair_system(DETUNING),
    "detuned-jx4": cm.CoupledModeSystem(cm.jx_pattern(4), PRESET_ENVELOPE, DETUNING),
    "quarter-cycle-jx4": _constant_system(cm.jx_pattern(4), 0.5 * np.pi),
}


@pytest.fixture(scope="module")
def two_boson_report(system):
    return enum.enumerate_holonomic(system, enumerate_basis(4, 2, BOSON))


# ------------------------------------------------------------------ orbits


def test_single_photon_orbits(system):
    basis = enumerate_basis(4, 1, BOSON)
    dec = enum.decompose_orbits(system, basis)
    orbit_sets = {frozenset(o) for o in dec.orbits}
    i = basis.index_of
    assert orbit_sets == {
        frozenset({i((1, 0, 0, 0)), i((0, 0, 0, 1))}),
        frozenset({i((0, 1, 0, 0)), i((0, 0, 1, 0))}),
    }


def test_two_boson_orbits(system):
    basis = enumerate_basis(4, 2, BOSON)
    dec = enum.decompose_orbits(system, basis)
    sizes = sorted(len(o) for o in dec.orbits)
    assert sizes == [1, 1, 2, 2, 2, 2]
    i = basis.index_of
    orbit_sets = {frozenset(o) for o in dec.orbits}
    assert frozenset({i((2, 0, 0, 0)), i((0, 0, 0, 2))}) in orbit_sets
    assert frozenset({i((0, 2, 0, 0)), i((0, 0, 2, 0))}) in orbit_sets
    assert frozenset({i((1, 1, 0, 0)), i((0, 0, 1, 1))}) in orbit_sets
    assert frozenset({i((1, 0, 1, 0)), i((0, 1, 0, 1))}) in orbit_sets
    assert frozenset({i((1, 0, 0, 1))}) in orbit_sets
    assert frozenset({i((0, 1, 1, 0))}) in orbit_sets


def test_identity_cycle_gives_singleton_orbits():
    # delta = 2 pi: the cycle unitary is -1 (half-integer spectrum), a
    # pure phase, so every state is a fixed point
    basis = enumerate_basis(4, 2, BOSON)
    dec = enum.decompose_orbits(_constant_system(cm.jx_pattern(4), 2 * np.pi), basis)
    assert all(len(o) == 1 for o in dec.orbits)
    assert dec.orbit_count == basis.size


def test_mode_shift_orbits_take_two_search_steps():
    # a circulant whose delta = pi cycle moves every photon one mode on; a
    # four-state orbit is two links away from its first state
    dft = np.exp(0.5j * np.pi * np.outer(range(4), range(4))) / 2
    shift = cm.CouplingPattern(dft @ np.diag(np.arange(4) / 2) @ dft.conj().T)
    basis = enumerate_basis(4, 2, BOSON)
    dec = enum.decompose_orbits(_constant_system(shift, np.pi), basis)
    i = basis.index_of
    assert {frozenset(o) for o in dec.orbits} == {
        frozenset({i((2, 0, 0, 0)), i((0, 2, 0, 0)), i((0, 0, 2, 0)), i((0, 0, 0, 2))}),
        frozenset({i((1, 1, 0, 0)), i((0, 1, 1, 0)), i((0, 0, 1, 1)), i((1, 0, 0, 1))}),
        frozenset({i((1, 0, 1, 0)), i((0, 1, 0, 1))}),
    }


def test_quarter_cycle_has_one_component():
    # delta = pi / 2 spreads every single photon over all four modes
    basis = enumerate_basis(4, 1, BOSON)
    dec = enum.decompose_orbits(NON_PERMUTATION_SYSTEMS["quarter-cycle-jx4"], basis)
    assert dec.orbits == ((0, 1, 2, 3),)
    assert enum.count_subspaces(dec) == (14, 0)


# Components of non-permutation cycles: (component sizes in order of their
# smallest index, cyclic count) per particle number, bosons.
@pytest.mark.parametrize("name,particles,sizes,cyclic", [
    ("two-pair", 1, [1, 1, 2], 6),
    ("two-pair", 2, [1, 1, 2, 1, 2, 3], 62),
    ("two-pair", 3, [1, 1, 2, 1, 2, 3, 1, 2, 3, 4], 1022),
    ("two-pair-non-commuting", 1, [2, 2], 2),
    ("two-pair-non-commuting", 2, [3, 4, 3], 6),
    ("two-pair-non-commuting", 3, [4, 6, 6, 4], 14),
    ("detuned-jx4", 1, [4], 0),
    ("detuned-jx4", 2, [10], 0),
    ("detuned-jx4", 3, [20], 0),
])
def test_component_census(name, particles, sizes, cyclic):
    system = NON_PERMUTATION_SYSTEMS[name]
    basis = enumerate_basis(4, particles, BOSON)
    report = enum.enumerate_holonomic(system, basis)
    dec = enum.decompose_orbits(system, basis)
    assert [len(c) for c in dec.orbits] == sizes
    assert all(list(c) == sorted(c) for c in dec.orbits)
    assert sorted(i for c in dec.orbits for i in c) == list(range(basis.size))
    assert report.cyclic_subspaces == len(report.records) == cyclic


# ------------------------------------------------------------------ counts


def test_single_photon_counts(system):
    basis = enumerate_basis(4, 1, BOSON)
    assert enum.count_subspaces(enum.decompose_orbits(system, basis)) == (14, 2)


def test_two_boson_counts(system):
    basis = enumerate_basis(4, 2, BOSON)
    assert enum.count_subspaces(enum.decompose_orbits(system, basis)) == (1022, 62)


def test_distinguishable_counts(system):
    basis = enumerate_basis(4, 2, DIST_AB)
    dec = enum.decompose_orbits(system, basis)
    assert dec.orbit_count == 8  # eight two-cycles, no fixed points
    assert enum.count_subspaces(dec) == (2 ** 16 - 2, 2 ** 8 - 2)


def test_counts_reject_tiny_basis(system):
    basis = enumerate_basis(1, 1, BOSON)
    with pytest.raises(ValueError):
        enum.count_subspaces(enum.decompose_orbits(system, basis))


# ------------------------------------------------------------- enumeration


def test_single_photon_enumeration(system):
    report = enum.enumerate_holonomic(system, enumerate_basis(4, 1, BOSON))
    assert report.total_subspaces == 14
    assert report.cyclic_subspaces == 2
    assert len(report.records) == 2
    holonomic_ge2 = report.holonomic_records(2)
    assert len(holonomic_ge2) == 1
    assert set(holonomic_ge2[0].members) == {"|1000>", "|0001>"}


def test_two_boson_enumeration_counts(two_boson_report):
    report = two_boson_report
    assert report.total_subspaces == 1022
    assert report.cyclic_subspaces == 62
    assert len(report.records) == 62
    ge2 = report.holonomic_records(2)
    assert len(ge2) == 17
    by_class = {}
    for r in ge2:
        by_class[r.classification] = by_class.get(r.classification, 0) + 1
    assert by_class[hol.NON_SCALAR] == 16
    assert by_class.get(hol.SCALAR, 0) == 1


def test_two_boson_scalar_subspace_identity(two_boson_report):
    scalars = [r for r in two_boson_report.holonomic_records(2)
               if r.classification == hol.SCALAR]
    assert len(scalars) == 1
    assert set(scalars[0].members) == {"|1001>", "|0110>"}


def test_largest_holonomic_subspace_has_six_states(two_boson_report):
    ge2 = two_boson_report.holonomic_records(2)
    largest = max(ge2, key=lambda r: r.dimension)
    assert largest.dimension == 6
    assert set(largest.members) == {
        "|2000>", "|0002>", "|0200>", "|0020>", "|1010>", "|0101>",
    }


def test_known_non_holonomic_subspaces(two_boson_report):
    by_members = {frozenset(r.members): r for r in two_boson_report.records}
    fig3f = by_members[frozenset({"|0200>", "|0020>", "|0110>"})]
    assert fig3f.cyclic and not fig3f.holonomic
    fig4a = by_members[frozenset({"|1010>", "|0101>", "|1100>", "|0011>"})]
    assert fig4a.cyclic and not fig4a.holonomic


def test_monotonicity_of_holonomic_subspaces(two_boson_report):
    ge1 = two_boson_report.records
    holonomic_sets = [frozenset(r.member_indices) for r in ge1 if r.holonomic]
    cyclic = {frozenset(r.member_indices): r.holonomic for r in ge1}
    for big in holonomic_sets:
        for other, is_h in cyclic.items():
            if other < big:
                assert is_h, "cyclic subset of a holonomic subspace must be holonomic"


def _jx_system(modes):
    """Jx(modes) under the preset envelope (modes = 4 is the preset)."""
    return cm.CoupledModeSystem(cm.jx_pattern(modes), cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope)


@pytest.mark.parametrize("modes,particles,cyclic,ge2", [
    (4, 3, 1022, 55),
    (5, 2, 510, 87),
    (6, 2, 4094, 299),
])
def test_boson_census_counts(modes, particles, cyclic, ge2):
    report = enum.enumerate_holonomic(_jx_system(modes), enumerate_basis(modes, particles, BOSON))
    assert report.cyclic_subspaces == cyclic
    assert len(report.holonomic_records(2)) == ge2


# Particle-number census lines: Jx(M) under the preset envelope, (cyclic,
# holonomic dim >= 2) per particle number and statistics.
@pytest.mark.parametrize("modes,particles,kind,cyclic,ge2", [
    (2, 1, "boson", 0, 0),
    (3, 1, "boson", 2, 1),
    (4, 1, "boson", 2, 1),
    (5, 1, "boson", 6, 3),
    (6, 1, "boson", 6, 2),
    (2, 2, "boson", 2, 1),
    (3, 2, "boson", 14, 6),
    (3, 2, "fermion", 2, 1),
    (4, 2, "fermion", 14, 6),
    (5, 2, "fermion", 62, 17),
    (6, 2, "fermion", 510, 87),
])
def test_census_lines(modes, particles, kind, cyclic, ge2):
    report = enum.enumerate_holonomic(_jx_system(modes),
                                      enumerate_basis(modes, particles, ParticleType(kind)))
    assert report.cyclic_subspaces == cyclic
    assert len(report.holonomic_records(2)) == ge2


def test_two_bosons_are_holonomic_where_one_photon_is_not():
    # Jx(2) has no proper cyclic subspace for one photon, but a holonomic
    # {|20>, |02>} for two bosons
    system = _jx_system(2)
    assert enum.enumerate_holonomic(system, enumerate_basis(2, 1, BOSON)).records == []
    report = enum.enumerate_holonomic(system, enumerate_basis(2, 2, BOSON))
    assert [r.members for r in report.holonomic_records(2)] == [("|20>", "|02>")]


@pytest.mark.parametrize("modes", [2, 3, 4, 5])
def test_fermions_on_one_more_mode_count_like_bosons(modes):
    # an observed identity of the census (it fits Lambda^2(spin j) = Sym^2(spin j - 1/2))
    def counts(m, particle):
        report = enum.enumerate_holonomic(_jx_system(m), enumerate_basis(m, 2, particle))
        return report.cyclic_subspaces, len(report.holonomic_records(2))
    assert counts(modes + 1, FERMION) == counts(modes, BOSON)


def pst_chain(spectrum) -> np.ndarray:
    """The persymmetric Jacobi matrix with ``spectrum`` (distinct, ascending):
    Lanczos on diag(lambda) from the weights 1 / |prod_{j != k} (lambda_k -
    lambda_j)|, which are those of a mirror-symmetric chain."""
    lam = np.asarray(spectrum, dtype=float)
    weights = np.array([1 / abs(np.prod(np.delete(lam[k] - lam, k)))
                        for k in range(len(lam))])
    q, previous = np.sqrt(weights / weights.sum()), np.zeros(len(lam))
    diagonal, couplings = [], []
    for k in range(len(lam)):
        r = lam * q
        diagonal.append(q @ r)
        r -= diagonal[-1] * q + (couplings[-1] * previous if couplings else 0.0)
        if k < len(lam) - 1:
            couplings.append(np.linalg.norm(r))
            previous, q = q, r / couplings[-1]
    return np.diag(diagonal) + np.diag(couplings, 1) + np.diag(couplings, -1)


@pytest.mark.parametrize("modes,spectrum,kind,holonomic", [
    (4, (-3.5, -0.5, 0.5, 3.5), "boson", 19),
    (4, (-3.5, -0.5, 0.5, 3.5), "fermion", 8),
    (5, (-4, -1, 0, 1, 4), "boson", 90),
    (5, (-4, -1, 0, 1, 4), "fermion", 19),
])
def test_perfect_state_transfer_chains_share_the_census(modes, spectrum, kind, holonomic):
    """A perfect-state-transfer chain whose eigenvalue gaps are odd, as
    Jx(M)'s are, under the preset envelope gives Jx(M)'s census for two
    particles: the same cyclic unions, holonomic verdicts and classes."""
    chain = pst_chain(spectrum)
    assert np.allclose(chain, chain[::-1, ::-1], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(chain), spectrum, atol=1e-12)
    pattern = cm.CouplingPattern(chain)
    mirror = np.eye(modes)[::-1]
    assert np.allclose(np.abs(pattern.unitary_batch(np.pi)), mirror, atol=1e-12)
    envelope = cm.jx4_structure(cm.IDEAL_LENGTH_MM).envelope
    basis = enumerate_basis(modes, 2, ParticleType(kind))
    records = [[(r.members, r.holonomic, r.classification)
                for r in enum.enumerate_holonomic(cm.CoupledModeSystem(p, envelope),
                                                  basis).records]
               for p in (pattern, cm.jx_pattern(modes))]
    assert records[0] == records[1]
    assert sum(is_holonomic for _, is_holonomic, _ in records[0]) == holonomic


def _census_totals(modes, particles, particle):
    """(S, cyclic, holonomic, holonomic dim >= 2, non-scalar, scalar) on Jx(modes)."""
    report = enum.enumerate_holonomic(_jx_system(modes),
                                      enumerate_basis(modes, particles, particle))
    by_class = report.holonomic_by_class()
    return (report.basis.size, report.cyclic_subspaces, report.holonomic_count,
            len(report.holonomic_records(2)), by_class[hol.NON_SCALAR], by_class[hol.SCALAR])


# Census identities of SU(2) reciprocity, as pairs of (modes, particles, kind):
# N bosons on Jx(M) count like N fermions on Jx(M + N - 1) and like M - 1
# bosons on Jx(N + 1); with M = 2, like one particle on Jx(N + 1).
CENSUS_IDENTITIES = (
    [((m, n, "boson"), (m + n - 1, n, "fermion"))
     for m, n in [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]]
    + [((4, 2, "boson"), (3, 3, "boson")), ((5, 2, "boson"), (3, 4, "boson"))]
    + [((2, n, "boson"), (n + 1, 1, "boson")) for n in range(2, 6)])


@pytest.mark.parametrize("left,right", CENSUS_IDENTITIES,
                         ids=[f"{a[2]}({a[0]},{a[1]})={b[2]}({b[0]},{b[1]})"
                              for a, b in CENSUS_IDENTITIES])
def test_census_identities_on_totals(left, right):
    totals = _census_totals(left[0], left[1], ParticleType(left[2]))
    assert _census_totals(right[0], right[1], ParticleType(right[2])) == totals
    expected = {(4, 2): (10, 62, 19, 17, 16, 3), (5, 2): (15, 510, 90, 87, 83, 7)}
    if left[2] == "boson" and left[:2] in expected:
        assert totals == expected[left[:2]]


@pytest.mark.parametrize("modes,particles", [(4, 2), (3, 3)])
def test_enumeration_max_k_matches_lifted_oracle(modes, particles):
    # every record's max|K| against the lifted-kets K of its own union
    system = _jx_system(modes)
    basis = enumerate_basis(modes, particles, BOSON)
    report = enum.enumerate_holonomic(system, basis)
    assert len(report.records) == 62
    for r in report.records:
        sub = hol.Subspace(basis, tuple(basis.states[i] for i in r.member_indices))
        assert abs(r.max_k - hol.k_matrix_lifted(sub, system).max_abs) < 1e-10


#: H = 0: the holonomic tolerance and K are both exactly 0
ZERO_COUPLING = cm.CoupledModeSystem(cm.CouplingPattern(np.zeros((4, 4))), PRESET_ENVELOPE)


@pytest.mark.parametrize("name,particle", [
    pytest.param(name, particle, id=kind if name == "jx4" else f"{name}-{kind}")
    for name in ("jx4", "two-pair", "two-pair-non-commuting")
    for particle, kind in [(BOSON, "bosons"), (FERMION, "fermions"),
                           (DIST_AB, "distinguishable")]
] + [pytest.param("zero-coupling", particle, id=f"zero-coupling-{kind}")
      for particle, kind in [(BOSON, "bosons"), (FERMION, "fermions")]])
def test_check_subspace_agrees_with_census(system, name, particle):
    # the census reads one basis-wide K table and lifted cycle; the check
    # rebuilds both per subspace and must reach the same verdict bit for bit
    system = {"jx4": system, "zero-coupling": ZERO_COUPLING, **NON_PERMUTATION_SYSTEMS}[name]
    basis = enumerate_basis(4, 2, particle)
    report = enum.enumerate_holonomic(system, basis)
    assert report.records
    if name == "jx4":
        assert report.holonomic_count > 0
    if name == "zero-coupling":
        assert report.holonomic_count == len(report.records) == 2 ** basis.size - 2
    for r in report.records:
        sub = hol.Subspace(basis, tuple(basis.states[i] for i in r.member_indices))
        check = hol.check_subspace(sub, system)
        assert check.cyclic
        assert (check.holonomic, check.classification) == (r.holonomic, r.classification)
        assert check.k.max_abs == r.max_k


def _dist(particles):
    return ParticleType.distinguishable(*"abc"[:particles])


# (system, modes, particles, statistics); the (4,4), (8,2), (8,3) and (6,3)
# boson censuses stop at the cap and are checked on their partial records.
# Detuned Jx4 is left out: its cycle has one component, so no cyclic union.
CLASS_CENSUSES = {
    **{f"bosons({m},{n})": (_jx_system(m), m, n, BOSON)
       for m, n in [(4, 2), (4, 3), (5, 2), (6, 2), (3, 3), (4, 4), (8, 2), (8, 3), (6, 3)]},
    **{f"fermions({m},{n})": (_jx_system(m), m, n, FERMION) for m, n in [(5, 2), (6, 3)]},
    **{f"distinguishable({m},{n})": (_jx_system(m), m, n, _dist(n)) for m, n in [(4, 2), (3, 3)]},
    "two-pair-bosons(4,2)": (NON_PERMUTATION_SYSTEMS["two-pair"], 4, 2, BOSON),
    "two-pair-distinguishable(4,2)": (NON_PERMUTATION_SYSTEMS["two-pair"], 4, 2, _dist(2)),
}


@pytest.mark.parametrize("name", sorted(CLASS_CENSUSES))
def test_census_classes_match_the_matrix_classification(name):
    # each holonomic record's class, read from its components' phases,
    # against the (d, d) block of the lifted cycle read as a matrix
    system, modes, particles, particle = CLASS_CENSUSES[name]
    basis = enumerate_basis(modes, particles, particle)
    try:
        records = enum.enumerate_holonomic(system, basis).records
    except enum.EnumerationCapError as err:
        records = err.partial_report.records
    v = fock.lift_unitary(cm.evolve(system), basis)
    assert any(r.holonomic for r in records)
    for r in records:
        block = v[np.ix_(r.member_indices, r.member_indices)]
        assert r.classification == (matrix_class(block) if r.holonomic else None)


def test_enumeration_lifts_the_cycle_once(system, monkeypatch):
    calls = []
    lift = fock.lift_unitary
    monkeypatch.setattr(fock, "lift_unitary", lambda *a: calls.append(1) or lift(*a))
    report = enum.enumerate_holonomic(system, enumerate_basis(4, 2, BOSON))
    assert len(calls) == 1
    assert len(report.holonomic_records(2)) == 17


def test_union_of_orbits_characterization_single_photon(system):
    basis = enumerate_basis(4, 1, BOSON)
    assert enum.verify_union_of_orbits_characterization(system, basis)


def test_union_of_orbits_characterization_two_boson(system):
    basis = enumerate_basis(4, 2, BOSON)
    assert enum.verify_union_of_orbits_characterization(system, basis)


@pytest.mark.parametrize("particles,particle", [(1, BOSON), (2, BOSON), (2, FERMION)],
                         ids=["1-boson", "2-bosons", "2-fermions"])
@pytest.mark.parametrize("name", sorted(NON_PERMUTATION_SYSTEMS))
def test_union_of_components_characterization(name, particles, particle):
    basis = enumerate_basis(4, particles, particle)
    assert enum.verify_union_of_orbits_characterization(NON_PERMUTATION_SYSTEMS[name], basis)


COUPLINGS = st.sampled_from([0.0, 0.0, 0.3, 0.7, 1.0, -0.5])


@settings(max_examples=60)
@given(upper=st.lists(COUPLINGS, min_size=10, max_size=10),
       particle=st.sampled_from([BOSON, FERMION]))
def test_union_of_components_characterization_random_patterns(upper, particle):
    # any symmetric pattern under the preset envelope: its cyclic sets are
    # the unions of the cycle's components, by the projector test on every subset
    kappa = np.zeros((4, 4))
    kappa[np.triu_indices(4)] = upper
    kappa = kappa + np.triu(kappa, 1).T
    system = cm.CoupledModeSystem(cm.CouplingPattern(kappa), PRESET_ENVELOPE)
    assert enum.verify_union_of_orbits_characterization(system, enumerate_basis(4, 2, particle))


def test_distinguishable_enumeration_examples(system):
    basis = enumerate_basis(4, 2, DIST_AB)
    report = enum.enumerate_holonomic(system, basis)
    by_members = {frozenset(r.member_indices): r for r in report.records}
    idx = basis.index_of
    fig4c = frozenset({idx((0, 2)), idx((1, 0)), idx((2, 3)), idx((3, 1))})
    assert by_members[fig4c].holonomic
    assert by_members[fig4c].classification == hol.NON_SCALAR
    fig4b = frozenset({
        idx((0, 2)), idx((2, 0)), idx((1, 3)), idx((3, 1)),
        idx((0, 1)), idx((1, 0)), idx((2, 3)), idx((3, 2)),
    })
    assert by_members[fig4b].cyclic and not by_members[fig4b].holonomic


def test_enumeration_cap_and_resume(system):
    # the capped records and those resumed from each token are the uncapped
    # records in their order; the caps fall inside dimensions 3 and 4
    basis = enumerate_basis(4, 2, BOSON)
    full = enum.enumerate_holonomic(system, basis).records
    for cap in (10, 20):
        assert full[cap - 1].dimension == full[cap].dimension
        records, token = [], 0
        while True:
            try:
                records += enum.enumerate_holonomic(system, basis, cap=cap,
                                                    resume_token=token).records
                break
            except enum.EnumerationCapError as err:
                assert err.resume_token == token + cap
                assert len(err.partial_report.records) == cap
                records += err.partial_report.records
                token = err.resume_token
        assert token == 60
        assert records == full
        assert enum.enumerate_holonomic(system, basis, resume_token=cap).records == full[cap:]


BASES = [enumerate_basis(4, 2, BOSON), enumerate_basis(3, 3, BOSON),
         enumerate_basis(5, 2, FERMION), enumerate_basis(4, 2, DIST_AB)]


@settings(max_examples=80)
@given(data=st.data())
def test_ordered_unions_match_brute_force(data):
    # random partitions into up to 10 components and random non-negative
    # tables, symmetric or not: order, members and max_k of the unions
    # in a window of the census order
    basis = data.draw(st.sampled_from(BASES))
    n = data.draw(st.integers(1, 10))
    rest = data.draw(st.lists(st.integers(0, n - 1), min_size=basis.size - n,
                              max_size=basis.size - n))
    owner = data.draw(st.permutations(list(range(n)) + rest))
    orbits = tuple(sorted(tuple(i for i, c in enumerate(owner) if c == k) for k in range(n)))
    entries = data.draw(st.lists(st.sampled_from([0.0, 1e-9, 0.25, 0.5, 1.0]),
                                 min_size=basis.size ** 2, max_size=basis.size ** 2))
    k_table = np.reshape(entries, (basis.size, basis.size))
    if data.draw(st.booleans()):  # a computed |K| table is symmetric only to rounding
        k_table = np.maximum(k_table, k_table.T)
    labels = [state.label() for state in basis.states]
    unions = [tuple(sorted(chain.from_iterable(o for c, o in enumerate(orbits) if mask >> c & 1)))
              for mask in range(1, 2 ** n - 1)]
    want = sorted(unions, key=lambda m: (len(m), [labels[i] for i in m]))
    start = data.draw(st.integers(0, len(want)))
    stop = data.draw(st.none() | st.integers(0, len(want) + 2))
    dec = enum.OrbitDecomposition(basis, orbits, (None,) * n)
    unions = enum.ordered_unions(dec, enum.orbit_graph(dec, k_table), start, stop)
    assert [m for m, _, _ in unions] == want[start:stop]
    assert [k for _, k, _ in unions] == [np.max(k_table[np.ix_(m, m)]) for m in want[start:stop]]
    assert all(m == tuple(sorted(chain.from_iterable(orbits[c] for c in comps)))
               and list(comps) == sorted(comps) for m, _, comps in unions)


def test_report_serialization(tmp_path, two_boson_report):
    doc = two_boson_report.to_json()
    assert doc["totals"]["subspaces"] == 1022
    assert doc["totals"]["cyclic"] == 62
    assert doc["totals"]["holonomic_dim_ge_2"] == 17
    assert len(doc["subspaces"]) == 62
    csv_path = tmp_path / "summary.csv"
    two_boson_report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 63  # header + one row per cyclic subspace
    # deterministic ordering: sorted by dimension then labels
    dims = [int(line.split(",")[1]) for line in lines[1:]]
    assert dims == sorted(dims)


# ------------------------------------------------------------ pinned bytes


CENSUS_HASHES = json.loads((Path(__file__).parent / "data" / "census_hashes.json").read_text())
CENSUS_SYSTEMS = {"jx3": _jx_system(3), "jx4": _jx_system(4), "jx5": _jx_system(5),
                  "two-pair": NON_PERMUTATION_SYSTEMS["two-pair"],
                  "detuned-jx4": NON_PERMUTATION_SYSTEMS["detuned-jx4"]}


@pytest.mark.parametrize("case", sorted(CENSUS_HASHES["cases"]))
def test_census_report_hashes(tmp_path, case):
    """enumerate through the CLI reproduces the stored sha256 of both reports."""
    spec = CENSUS_HASHES["cases"][case]
    config = tmp_path / "system.json"
    config.write_text(json.dumps(cm.system_to_json(CENSUS_SYSTEMS[spec["system"]])))
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out-dir", str(out), "enumerate",
                     *spec["args"]]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in spec["sha256"]}
    assert got == spec["sha256"]


def test_census_of_28_components_stops_at_the_cap(tmp_path, capsys):
    # three bosons on Jx(6) have 28 components: enumerate exits 3 at the
    # default cap, and the partial records are the first 4096 unions of an
    # independent walk over component subsets up to the boundary dimension
    system = _jx_system(6)
    config = tmp_path / "jx6.json"
    config.write_text(json.dumps(cm.system_to_json(system)))
    assert cli.main(["--config", str(config), "--out-dir", str(tmp_path / "out"), "enumerate",
                     "--particles", "3"]) == 3
    assert capsys.readouterr().err == (
        "error[cap-exceeded]: 268435454 cyclic subspaces exceed the cap of 4096; "
        "rerun with --cap 268435454\n")
    assert not (tmp_path / "out").exists()

    basis = enumerate_basis(6, 3, BOSON)
    with pytest.raises(enum.EnumerationCapError) as err:
        enum.enumerate_holonomic(system, basis)
    records = err.value.partial_report.records
    orbits = enum.decompose_orbits(system, basis).orbits
    assert len(orbits) == 28
    boundary = records[-1].dimension
    labels = [state.label() for state in basis.states]
    unions = [m for r in range(1, boundary // min(map(len, orbits)) + 1)
              for combo in combinations(orbits, r)
              for m in [tuple(sorted(chain.from_iterable(combo)))] if len(m) <= boundary]
    want = sorted(unions, key=lambda m: (len(m), [labels[i] for i in m]))[:enum.ENUMERATION_CAP]
    k_table = np.max(np.abs(hol.k_matrix(hol.Subspace(basis, basis.states), system).matrices),
                     axis=0)
    assert [r.member_indices for r in records] == want
    assert [r.members for r in records] == [tuple(labels[i] for i in m) for m in want]
    assert [r.max_k for r in records] == [np.max(k_table[np.ix_(m, m)]) for m in want]
