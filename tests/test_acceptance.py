"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] criterion NN PASS/FAIL`` line
(run pytest with ``-s`` to see them live) and asserts the criterion at
its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from geomode import coupledmode as cm
from geomode import enumeration as en
from geomode import experiment as xp
from geomode import fock
from geomode import holonomy as hol
from geomode import reference as ref
from geomode.fock import OccupationState, ParticleType, enumerate_basis, vacuum_expectation

BOSON = ParticleType.boson()
FERMION = ParticleType.fermion()
DIST_AB = ParticleType.distinguishable("a", "b")


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} {status}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def system():
    return cm.jx4_structure(cm.IDEAL_LENGTH_MM)


@pytest.fixture(scope="module")
def b1():
    return enumerate_basis(4, 1, BOSON)


@pytest.fixture(scope="module")
def b2():
    return enumerate_basis(4, 2, BOSON)


def test_c01_double_flip_exactness(system):
    t0 = time.time()
    u = cm.evolve(system)
    expected = 1j * np.fliplr(np.eye(4))
    dev = float(np.max(np.abs(u - expected)))
    elapsed = time.time() - t0
    report(1, dev < 1e-8 and elapsed < 1.0,
           f"max|U - i*antidiag| = {dev:.2e}, {elapsed * 1000:.0f} ms")


def test_c02_subspace_counts(system, b1, b2):
    t0 = time.time()
    counts1 = en.count_subspaces(en.decompose_orbits(system, b1))
    counts2 = en.count_subspaces(en.decompose_orbits(system, b2))
    elapsed = time.time() - t0
    report(2, counts1 == (14, 2) and counts2 == (1022, 62) and elapsed < 5.0,
           f"single photon {counts1}, two bosons {counts2}, {elapsed:.2f} s")


def test_c03_holonomy_matrices(system, b1, b2):
    basis_d = enumerate_basis(4, 2, DIST_AB)
    cases = [
        (hol.subspace_from_states(b1, [(1, 0, 0, 0), (0, 0, 0, 1)]),
         np.array([[0, 1j], [1j, 0]])),
        (hol.subspace_from_states(b2, [(2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2)]),
         -np.fliplr(np.eye(3))),
        (hol.subspace_from_states(b2, [(2, 0, 0, 0), (0, 0, 0, 2)]),
         -np.fliplr(np.eye(2))),
        (hol.subspace_from_states(b2, [(0, 2, 0, 0), (0, 0, 2, 0)]),
         -np.fliplr(np.eye(2))),
        (hol.subspace_from_states(basis_d, [(0, 2), (1, 0), (2, 3), (3, 1)]),
         -np.fliplr(np.eye(4))),
    ]
    worst = 0.0
    for sub, expected in cases:
        h = hol.extract_holonomy(sub, system)
        worst = max(worst, float(np.max(np.abs(h.matrix - expected))))
    report(3, worst < 1e-8, f"{len(cases)} matrices, worst deviation {worst:.2e}")


def test_c04_gauge_fields(system, b1, b2):
    basis_d = enumerate_basis(4, 2, DIST_AB)
    grid = np.linspace(1.0, system.length - 1.0, 101)
    omegas = np.array([system.envelope.value(z) for z in grid])
    scale = float(np.max(omegas))
    cases = [
        (hol.subspace_from_states(b1, [(1, 0, 0, 0), (0, 0, 0, 1)]), 0.5),
        (hol.subspace_from_states(b2, [(2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2)]), 1.0),
        (hol.subspace_from_states(b2, [(2, 0, 0, 0), (0, 0, 0, 2)]), 1.0),
        (hol.subspace_from_states(b2, [(0, 2, 0, 0), (0, 0, 2, 0)]), 1.0),
        (hol.subspace_from_states(basis_d, [(0, 2), (1, 0), (2, 3), (3, 1)]), 1.0),
    ]
    worst = 0.0
    for sub, factor in cases:
        a = hol.gauge_field(sub, system, grid, hol.PHASE_ADJUSTED)
        expected = factor * omegas[:, None, None] * np.eye(sub.dimension)
        worst = max(worst, float(np.max(np.abs(a.matrices - expected))))
    report(4, worst < 1e-12 * scale,
           f"worst |A - expected| = {worst:.2e} vs {1e-12 * scale:.2e}")


def _random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def _oracle_two_particle(bra, ket, h, particle):
    e = np.eye(h.shape[0])
    norm = math.sqrt(bra.norm_factorial() * ket.norm_factorial())
    if particle.kind == "distinguishable":
        labels = particle.labels
        bra_ops = [(e[m], False, lab)
                   for lab, m in zip(labels[::-1], bra.occupations[::-1])]
        ket_ops = [(e[m], True, lab) for lab, m in zip(labels, ket.occupations)]
        total = 0.0
        for lab in labels:
            for j in range(4):
                for k in range(4):
                    if h[j, k] == 0:
                        continue
                    seq = bra_ops + [(e[j], True, lab), (e[k], False, lab)] + ket_ops
                    total += h[j, k] * vacuum_expectation(seq, particle)
        return total / norm
    bra_ops = [(e[m], False) for m in reversed(bra.mode_list())]
    ket_ops = [(e[m], True) for m in ket.mode_list()]
    total = 0.0
    for j in range(4):
        for k in range(4):
            if h[j, k] == 0:
                continue
            seq = bra_ops + [(e[j], True), (e[k], False)] + ket_ops
            total += h[j, k] * vacuum_expectation(seq, particle)
    return total / norm


def test_c05_oracle_equivalence():
    rng = np.random.default_rng(20240917)
    worst = 0.0
    checks = 0
    for particle in (BOSON, FERMION, DIST_AB):
        basis = enumerate_basis(4, 2, particle)
        for _ in range(200):
            h = _random_hermitian(4, rng)
            bra = basis.states[rng.integers(0, basis.size)]
            ket = basis.states[rng.integers(0, basis.size)]
            got = hol.k_two_particle(bra, ket, h, particle)
            want = _oracle_two_particle(bra, ket, h, particle)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
            checks += 1
    for n in (1, 2, 3):
        basis = enumerate_basis(4, n, BOSON)
        for _ in range(200):
            h = _random_hermitian(4, rng)
            lifted = fock.lift_hamiltonian(h, basis)
            bi, ki = rng.integers(0, basis.size, size=2)
            bra, ket = basis.states[bi], basis.states[ki]
            got = hol.k_n_boson(bra.mode_list(), ket.mode_list(), h)
            want = lifted[bi, ki]
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
            checks += 1
    report(5, worst < 1e-9, f"{checks} random instances, worst relative dev {worst:.2e}")


def test_c06_two_particle_gauge_relation():
    rng = np.random.default_rng(7031)
    h_fd = 1e-5
    worst = 0.0
    checks = 0
    for particle in (BOSON, FERMION, DIST_AB):
        basis = enumerate_basis(4, 2, particle)
        for _ in range(50):
            g1, g2 = _random_hermitian(4, rng), _random_hermitian(4, rng)

            def phi(t):
                lam, v = np.linalg.eigh(g1 + t * g2)
                return (v * np.exp(-1j * t * lam)) @ v.conj().T

            t0 = float(rng.uniform(0.2, 1.2))
            f0, fp, fm = phi(t0), phi(t0 + h_fd), phi(t0 - h_fd)
            a_single = 1j * f0.conj().T @ ((fp - fm) / (2 * h_fd))
            lift0 = fock.lift_unitary(f0, basis)
            lifts = fock.lift_unitary_batch(np.stack([fp, fm], axis=-1), basis)
            a_two = 1j * lift0.conj().T @ ((lifts[..., 0] - lifts[..., 1]) / (2 * h_fd))
            bi, ki = rng.integers(0, basis.size, size=2)
            got = hol.k_two_particle(basis.states[bi], basis.states[ki], a_single, particle)
            worst = max(worst, abs(got - a_two[bi, ki]))
            checks += 1
    report(6, worst < 1e-6, f"{checks} random families, worst |dev| = {worst:.2e}")


def _holonomic_reference_subspaces():
    seen = {}
    for row in ref.REFERENCE_WIDTHS:
        sub = ref.holonomy_check_subspace(row)
        key = (sub.particle.kind, tuple(sorted(s.occupations for s in sub.members)))
        seen.setdefault(key, sub)
    return list(seen.values())


def test_c07_gauge_reconstruction(system):
    worst = 0.0
    subs = _holonomic_reference_subspaces()
    for sub in subs:
        direct = hol.extract_holonomy(sub, system).matrix
        rebuilt = hol.holonomy_from_gauge_field(sub, system)
        worst = max(worst, float(np.max(np.abs(rebuilt - direct))))
    report(7, worst < 1e-12,
           f"{len(subs)} holonomic subspaces reconstructed, worst dev {worst:.2e}")


def test_c08_reference_membership(system, b1, b2):
    ok = True
    details = []
    for row in ref.REFERENCE_WIDTHS:
        sub = ref.holonomy_check_subspace(row)
        try:
            hol.extract_holonomy(sub, system)
        except (hol.NotCyclicError, hol.NotHolonomicError) as exc:
            ok = False
            details.append(f"{row.key()}: {exc}")
    for row in ref.NON_HOLONOMIC_REFERENCES:
        sub = ref.row_subspace(row)
        check = hol.check_subspace(sub, system)
        if not (check.cyclic and not check.holonomic):
            ok = False
            details.append(f"{row.key()}: expected cyclic-but-not-holonomic")
    report(8, ok, "; ".join(details) or
           f"{len(ref.REFERENCE_WIDTHS)} holonomic + "
           f"{len(ref.NON_HOLONOMIC_REFERENCES)} non-holonomic rows verified")


def test_c09_plateau_width_table():
    engine = xp.CurveEngine(xp.theory_lengths(0.01))
    comps = ref.compare_reference_widths(engine)
    failures = [c for c in comps if not c.passed]
    widths = {c.row: c.unrestricted_mm for c in comps}
    sep_ok = all(w >= ref.HOLONOMIC_WIDTH_FLOOR_MM - 1e-9 for w in widths.values())
    non_h = ref.non_holonomic_widths(engine)
    sep_ok &= all(w <= ref.NON_HOLONOMIC_WIDTH_MM for _, w in non_h)
    # independent recomputation in accumulated-phase units
    delta_worst = 0.0
    fine = xp.CurveEngine(xp.theory_lengths(0.005))
    for c in comps:
        row = c.row
        sub = ref.row_subspace(row)
        spec = ref.row_inputs(row)[0]
        _, unrestricted = xp.theory_plateau_widths(sub, [spec], fine)
        width_delta = xp.plateau_width_delta(sub, spec)
        delta_worst = max(
            delta_worst, abs(unrestricted * cm.FLAT_COUPLING_PER_MM - width_delta))
    ok = not failures and sep_ok and delta_worst < 1e-3
    detail = (f"{len(comps)} width rows within max(15%, 1.5 mm); separation "
              f"{'holds' if sep_ok else 'BROKEN'}; worst delta-units dev "
              f"{delta_worst:.2e} rad")
    if failures:
        detail += "; failures: " + ", ".join(c.row.key() for c in failures)
    report(9, ok, detail)


def test_c10_enumeration_totals(system, b2):
    rep = en.enumerate_holonomic(system, b2)
    ge2 = rep.holonomic_records(2)
    scalars = [r for r in ge2 if r.classification == hol.SCALAR]
    non_scalar = [r for r in ge2 if r.classification == hol.NON_SCALAR]
    scalar_ok = (len(scalars) == 1
                 and set(scalars[0].members) == {"|1001>", "|0110>"})
    sub = hol.subspace_from_states(b2, [(1, 0, 0, 1), (0, 1, 1, 0)])
    h = hol.extract_holonomy(sub, system)
    minus_identity = float(np.max(np.abs(h.matrix + np.eye(2)))) < 1e-8
    ok = len(ge2) == 17 and scalar_ok and len(non_scalar) == 16 and minus_identity
    report(10, ok,
           f"dim>=2 holonomic = {len(ge2)} (16 non-scalar + 1 scalar -> -identity); "
           f"catalogue lists 16 subspaces; stated non-Abelian count "
           f"{ref.STATED_NON_ABELIAN_COUNT} surfaces as a discrepancy")


def test_c11_experiment_pipeline(tmp_path, b2):
    sub = hol.subspace_from_states(b2, [(2, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 2)])
    inputs = [xp.InputSpec(m) for m in sub.members]
    model = xp.DetectionModel(splitter_ratios=xp.CALIBRATED_SPLITTERS,
                              trials=100_000, seed=xp.DEFAULT_SEED)
    rows = xp.simulate_counts(sub, inputs, detection=model)
    path = tmp_path / "counts.csv"
    xp.write_counts_csv(path, rows)
    ingested = xp.ingest_counts(path, sub, model)
    theory = xp.scan(sub, inputs)
    worst_pull = 0.0
    for label in theory.curves:
        pt = theory.curves[label].probability
        pi = ingested.curves[label].probability
        sig = ingested.curves[label].sigma
        worst_pull = max(worst_pull, float(np.max(np.abs(pi - pt) / sig)))
    dip = float(np.min(xp.hom_dip(np.linspace(-4, 4, 2001), 0.986)))
    dip_ok = abs(dip - (1 - 0.986)) < 1e-12
    fid_ok = (
        xp.fidelity([0.25, 0.75], [0.25, 0.75]) == 1.0
        and xp.fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0
        and xp.fidelity([1.0, 0.0], [0.9, 0.1]) < 1.0
        and xp.fidelity([0.5, 0.5], [0.25, 0.75]) > 0.0
    )
    ok = worst_pull < 5.0 and dip_ok and fid_ok
    report(11, ok,
           f"count round trip worst pull {worst_pull:.2f} sigma; dip min "
           f"{dip:.6f}; fidelity properties exact")


def test_c12_heisenberg_condition(system):
    pattern = system.pattern
    e = np.eye(4)
    examples_ok = (hol.heisenberg_condition([e[0], e[3]], pattern)
                   and not hol.heisenberg_condition([e[1], e[2]], pattern))
    rng = np.random.default_rng(4242)
    agree = 0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        q, _ = np.linalg.qr(rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k)))
        vecs = [q[:, i] for i in range(k)]
        j = np.array([[np.vdot(a, pattern.matrix @ b) for b in vecs] for a in vecs])
        null = bool(np.max(np.abs(j)) < 1e-10)
        if hol.heisenberg_condition(vecs, pattern) == null:
            agree += 1
    report(12, examples_ok and agree == 100,
           f"mode examples ok; {agree}/100 random mode sets agree with J nullity")
