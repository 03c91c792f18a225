import numpy as np
import pytest

from geomode import coupledmode as cm
from geomode import enumeration as enum
from geomode import holonomy as hol
from geomode.fock import ParticleType, enumerate_basis

BOSON = ParticleType.boson()
DIST_AB = ParticleType.distinguishable("a", "b")


@pytest.fixture(scope="module")
def system():
    return cm.jx4_structure(cm.IDEAL_LENGTH_MM)


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
    omega = cm.FLAT_COUPLING_PER_MM
    sys_ = cm.CoupledModeSystem(
        cm.jx_pattern(4),
        cm.Envelope((cm.ConstantSegment(omega, 2 * np.pi / omega),)),
    )
    basis = enumerate_basis(4, 2, BOSON)
    dec = enum.decompose_orbits(sys_, basis)
    assert all(len(o) == 1 for o in dec.orbits)
    assert dec.orbit_count == basis.size


def test_non_permutation_evolution_raises():
    omega = cm.FLAT_COUPLING_PER_MM
    sys_ = cm.CoupledModeSystem(
        cm.jx_pattern(4),
        cm.Envelope((cm.ConstantSegment(omega, 0.5 * np.pi / omega),)),
    )
    basis = enumerate_basis(4, 1, BOSON)
    with pytest.raises(enum.UnsupportedEvolutionError):
        enum.decompose_orbits(sys_, basis)


# ------------------------------------------------------------------ counts


def test_single_photon_counts(system):
    basis = enumerate_basis(4, 1, BOSON)
    assert enum.count_subspaces(basis, system=system) == (14, 2)


def test_two_boson_counts(system):
    basis = enumerate_basis(4, 2, BOSON)
    assert enum.count_subspaces(basis, system=system) == (1022, 62)


def test_distinguishable_counts(system):
    basis = enumerate_basis(4, 2, DIST_AB)
    dec = enum.decompose_orbits(system, basis)
    assert dec.orbit_count == 8  # eight two-cycles, no fixed points
    assert enum.count_subspaces(basis, dec) == (2 ** 16 - 2, 2 ** 8 - 2)


def test_counts_reject_tiny_basis(system):
    basis = enumerate_basis(1, 1, BOSON)
    with pytest.raises(ValueError):
        enum.count_subspaces(basis, system=system)


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


@pytest.mark.parametrize("modes,particles", [(4, 2), (3, 3)])
def test_enumeration_max_k_matches_lifted_oracle(modes, particles):
    # every record's max|K| against the lifted-kets K of its own union
    system = _jx_system(modes)
    basis = enumerate_basis(modes, particles, BOSON)
    report = enum.enumerate_holonomic(system, basis)
    assert len(report.records) == 62
    for r in report.records:
        sub = hol.Subspace(basis, tuple(basis.states[i] for i in r.member_indices))
        assert abs(r.max_k - hol.k_matrix(sub, system, method="lifted").max_abs) < 1e-10


def test_union_of_orbits_characterization_single_photon(system):
    basis = enumerate_basis(4, 1, BOSON)
    assert enum.verify_union_of_orbits_characterization(system, basis)


def test_union_of_orbits_characterization_two_boson(system):
    basis = enumerate_basis(4, 2, BOSON)
    assert enum.verify_union_of_orbits_characterization(system, basis)


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
    basis = enumerate_basis(4, 2, BOSON)
    with pytest.raises(enum.EnumerationCapError) as err:
        enum.enumerate_holonomic(system, basis, cap=10)
    partial = err.value.partial_report
    assert len(partial.records) == 10
    resumed = enum.enumerate_holonomic(system, basis, resume_token=err.value.resume_token)
    assert len(partial.records) + len(resumed.records) == 62


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
