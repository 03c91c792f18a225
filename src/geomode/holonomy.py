"""Cyclic-subspace machinery: couplings, dynamical contributions, gauge
fields, and holonomies.

A subspace is a set of multi-particle basis states.  Its evolution over
one cycle splits into a geometric part (the gauge field A of a chosen
mode-basis family) and a dynamical part (the matrix K of the
Hamiltonian between the evolved member states).  The subspace is
holonomic when K vanishes along the cycle; the holonomy is then the
end-of-cycle unitary restricted to the member span.

Two mode-basis families are supported: ``heisenberg`` uses the columns
of the single-particle evolution operator U(z) as mode vectors (the
propagating waveguide modes), and ``phase_adjusted`` multiplies them by
exp(-i delta(z)/2), which makes the gauge field of the flat-coupling
Jx structure a multiple of the identity.

K is computed two ways: the closed form contracts the basis's one-body
tensor <s| a_a^dag a_b |t> (see :func:`fock.one_body_tensor`) with the
single-particle mode coupling J(z), one contraction for every
statistics and particle number; an independent "lifted" path
sandwiches the second-quantized Hamiltonian between the evolved member
kets, built from permanents and determinants.  The two must agree;
tests enforce it.  The per-element reference formulas
:func:`k_two_particle`, :func:`k_n_boson` and
:func:`gauge_relation_two_particle` are kept as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .coupledmode import CoupledModeSystem, evolution_on_grid, evolve
from .fock import (
    BOSON,
    DISTINGUISHABLE,
    FERMION,
    FockBasis,
    OccupationState,
    ParticleType,
    enumerate_basis,
)

HEISENBERG = "heisenberg"
PHASE_ADJUSTED = "phase_adjusted"

SCALAR = "scalar"
DIAGONAL = "diagonal"
NON_SCALAR = "non_scalar"

CYCLIC_TOL = 1e-8
HOLONOMIC_TOL_SCALE = 1e-8
CLASSIFY_TOL = 1e-8
K_GRID_POINTS = 201


class NotCyclicError(ValueError):
    """Raised when a subspace is not mapped onto itself by the cycle."""

    def __init__(self, residual: float):
        super().__init__(f"subspace is not cyclic (projector residual {residual:.3e})")
        self.residual = residual


class NotHolonomicError(ValueError):
    """Raised when a cyclic subspace has a non-vanishing dynamical part."""

    def __init__(self, max_k: float, element=None):
        detail = f" at element {element}" if element is not None else ""
        super().__init__(f"dynamical contribution does not vanish (max |K| = {max_k:.3e}{detail})")
        self.max_k = max_k
        self.element = element


@dataclass(frozen=True)
class Subspace:
    """Ordered set of basis states spanning a candidate cyclic subspace."""

    basis: FockBasis
    members: tuple[OccupationState, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("subspace needs at least one member state")
        seen = set()
        for st in self.members:
            self.basis.index_of(st)  # raises KeyError for foreign states
            if st.occupations in seen:
                raise ValueError("subspace members must be distinct")
            seen.add(st.occupations)

    @property
    def particle(self) -> ParticleType:
        return self.basis.particle

    @property
    def dimension(self) -> int:
        return len(self.members)

    @property
    def member_indices(self) -> tuple[int, ...]:
        return tuple(self.basis.index_of(s) for s in self.members)

    def labels(self) -> list[str]:
        return [s.label() for s in self.members]


def subspace_from_states(basis: FockBasis, states) -> Subspace:
    members = []
    for st in states:
        if isinstance(st, OccupationState):
            members.append(basis.state(st.occupations))
        else:
            members.append(basis.state(tuple(st)))
    return Subspace(basis, tuple(members))


def subspace_from_json(doc: dict, modes: int | None = None) -> Subspace:
    """Build a subspace (and its basis) from a JSON document.

    Schema: ``{"particle": "boson"|"fermion"|"distinguishable",
    "states": [[2,0,0,0], ...] or [{"a": 1, "b": 3}, ...]}`` with
    1-based mode numbers in the per-label form.  ``modes`` is required
    for distinguishable states unless given in the document.
    """
    try:
        kind = doc["particle"]
        raw_states = doc["states"]
    except KeyError as exc:
        raise ValueError(f"subspace definition missing field {exc}") from None
    if not raw_states:
        raise ValueError("subspace needs at least one state")
    modes = doc.get("modes", modes)

    if kind == DISTINGUISHABLE:
        labels = sorted(raw_states[0].keys())
        ptype = ParticleType.distinguishable(*labels)
        if modes is None:
            raise ValueError("distinguishable subspaces must declare 'modes'")
        occs = []
        for st in raw_states:
            if sorted(st.keys()) != labels:
                raise ValueError("inconsistent labels across states")
            occs.append(tuple(int(st[lab]) - 1 for lab in labels))
        particles = len(labels)
    else:
        ptype = ParticleType(kind)
        occs = [tuple(int(n) for n in st) for st in raw_states]
        if modes is None:
            modes = len(occs[0])
        particles = sum(occs[0])
        if any(len(o) != modes for o in occs):
            raise ValueError("occupation vectors must all have the same length")
        if any(sum(o) != particles for o in occs):
            raise ValueError("states must share one particle number")
    basis = enumerate_basis(modes, particles, ptype)
    return subspace_from_states(basis, occs)


def subspace_to_json(sub: Subspace) -> dict:
    if sub.particle.kind == DISTINGUISHABLE:
        states = [
            {lab: m + 1 for lab, m in zip(sub.particle.labels, s.occupations)}
            for s in sub.members
        ]
    else:
        states = [list(s.occupations) for s in sub.members]
    return {"particle": sub.particle.kind, "modes": sub.basis.modes, "states": states}


# ------------------------------------------------------- mode families


def mode_family_matrices(system: CoupledModeSystem, grid, family: str = HEISENBERG) -> np.ndarray:
    """Columns are the family's single-particle mode vectors at each z."""
    u = evolution_on_grid(system, grid)
    if family == HEISENBERG:
        return u
    if family == PHASE_ADJUSTED:
        deltas = system.envelope.phase(np.asarray(grid, dtype=float))
        return u * np.exp(-0.5j * deltas)[:, None, None]
    raise ValueError(f"unknown mode family {family!r}")


def mode_coupling(system: CoupledModeSystem, z: float, family: str = HEISENBERG) -> np.ndarray:
    """J(z): the Hamiltonian sandwiched between the family's mode vectors."""
    return mode_coupling_on_grid(system, [z], family)[0]


def mode_coupling_on_grid(system: CoupledModeSystem, grid, family: str = HEISENBERG) -> np.ndarray:
    phi = mode_family_matrices(system, grid, family)
    h = system.hamiltonian(np.asarray(grid, dtype=float))
    return np.einsum("zji,zjk,zkl->zil", phi.conj(), h, phi)


# --------------------------------------------------- closed-form K terms


def _two_particle_norm(modes_pair) -> float:
    a, b = modes_pair
    return math.sqrt(2.0) if a == b else 1.0


def k_two_particle(bra: OccupationState, ket: OccupationState, j_matrix: np.ndarray,
                   particle: ParticleType | None = None) -> complex:
    """Dynamical-contribution element between two-particle states.

    Bosons:   N [d_AD J_BC + d_AC J_BD + d_BD J_AC + d_BC J_AD]
    Fermions: N [d_AD J_BC - d_AC J_BD - d_BD J_AC + d_BC J_AD]
    Distinguishable (two labels): d_BD J_AC + d_AC J_BD per label.

    (A, B) are the bra modes with the operator order reversed by the
    adjoint, (C, D) the ket modes in creation order; N normalizes
    doubly occupied states.  Elements are between unit-norm kets, so
    they match the lifted-Hamiltonian matrix elements directly.
    """
    particle = particle or bra.particle
    j = np.asarray(j_matrix)
    if particle.kind == DISTINGUISHABLE:
        (p, q), (r, s) = bra.occupations, ket.occupations
        return complex((q == s) * j[p, r] + (p == r) * j[q, s])

    bra_modes, ket_modes = bra.mode_list(), ket.mode_list()
    if len(bra_modes) != 2 or len(ket_modes) != 2:
        raise ValueError("states must contain exactly two particles")
    if particle.kind == FERMION and (bra_modes[0] == bra_modes[1] or ket_modes[0] == ket_modes[1]):
        raise ValueError("fermion states cannot doubly occupy a mode")

    b_, a_ = bra_modes  # adjoint reverses the bra creation order
    c_, d_ = ket_modes
    sign = 1.0 if particle.kind == BOSON else -1.0
    raw = (
        (a_ == d_) * j[b_, c_]
        + sign * (a_ == c_) * j[b_, d_]
        + sign * (b_ == d_) * j[a_, c_]
        + (b_ == c_) * j[a_, d_]
    )
    norm = _two_particle_norm(bra_modes) * _two_particle_norm(ket_modes)
    return complex(raw / norm)


def _delta_matrix(k_modes, l_modes) -> np.ndarray:
    k = np.asarray(k_modes)[:, None]
    l = np.asarray(l_modes)[None, :]
    return (k == l).astype(float)


def _minor(m: np.ndarray, row: int, col: int) -> np.ndarray:
    keep_r = [i for i in range(m.shape[0]) if i != row]
    keep_c = [j for j in range(m.shape[1]) if j != col]
    return m[np.ix_(keep_r, keep_c)]


def k_n_boson(k_modes, l_modes, j_matrix: np.ndarray, h_vac: complex = 0.0) -> complex:
    """N-boson dynamical-contribution element from the permutation sum.

    sum_{mu,nu} J[k_nu, l_mu] * per(D without row nu / col mu)
    - (N-1) <H> per(D), with D the Kronecker-delta matrix of the mode
    lists, normalized to unit-norm kets.  N is capped at 4.
    """
    k_modes = tuple(k_modes)
    l_modes = tuple(l_modes)
    if len(k_modes) != len(l_modes):
        raise ValueError("bra and ket mode lists must have equal length")
    n = len(k_modes)
    if n == 0 or n > 4:
        raise ValueError("particle number must be between 1 and 4")
    j = np.asarray(j_matrix)
    d = _delta_matrix(k_modes, l_modes)
    total = 0.0 + 0.0j
    for nu in range(n):
        for mu in range(n):
            total += j[k_modes[nu], l_modes[mu]] * fock.permanent_naive(_minor(d, nu, mu))
    if n > 1 and h_vac != 0:
        total -= (n - 1) * h_vac * fock.permanent_naive(d)
    norm = 1.0
    for modes in (k_modes, l_modes):
        counts = {}
        for m in modes:
            counts[m] = counts.get(m, 0) + 1
        norm *= math.prod(math.factorial(c) for c in counts.values())
    return complex(total / math.sqrt(norm))


@dataclass(frozen=True)
class DynamicalContribution:
    """K sampled on a z grid: matrices[i] is K(grid[i]) over the members."""

    grid: np.ndarray
    matrices: np.ndarray
    subspace: Subspace

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrices)))

    def worst_element(self):
        idx = np.unravel_index(int(np.argmax(np.abs(self.matrices))), self.matrices.shape)
        return idx[1], idx[2]

    @property
    def max_hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.matrices - np.conj(np.swapaxes(self.matrices, 1, 2)))))


def k_matrix(sub: Subspace, system: CoupledModeSystem, grid=None,
             family: str = HEISENBERG, method: str = "closed_form") -> DynamicalContribution:
    """Dynamical contribution of a subspace along the cycle.

    ``closed_form`` contracts the basis's one-body tensor, restricted to
    the members, with the mode coupling J(z): K = sum_ab J_ab a_a^dag a_b
    for any statistics and any particle number.  ``lifted`` sandwiches
    the second-quantized Hamiltonian between the evolved member kets
    (permanents / determinants / per-label products).  Both paths agree
    to tight tolerance (enforced in tests).
    """
    if grid is None:
        grid = np.linspace(0.0, system.length, K_GRID_POINTS)
    grid = np.asarray(grid, dtype=float)
    idx = list(sub.member_indices)

    if method == "closed_form":
        t = fock.one_body_tensor(sub.basis)[np.ix_(idx, idx)]
        j = mode_coupling_on_grid(system, grid, family)
        return DynamicalContribution(grid, np.tensordot(j, t, axes=([1, 2], [2, 3])), sub)

    if method != "lifted":
        raise ValueError(f"unknown K method {method!r}")

    kets = _member_kets_batch(sub, system, grid, family)  # (Z, S, dim)
    h_pattern = fock.lift_hamiltonian(system.pattern.matrix, sub.basis)
    h_static = (
        fock.lift_hamiltonian(system.static_pattern.matrix, sub.basis)
        if system.static_pattern is not None else None
    )
    bras = np.swapaxes(kets.conj(), 1, 2)
    out = system.envelope.value(grid)[:, None, None] * (bras @ (h_pattern @ kets))
    if h_static is not None:
        out = out + bras @ (h_static @ kets)
    return DynamicalContribution(grid, out, sub)


def holonomic_tolerance(system: CoupledModeSystem, scale: float = HOLONOMIC_TOL_SCALE) -> float:
    """Absolute |K| threshold: scale times the coupling magnitude."""
    omega_max = float(np.max(system.envelope.value(np.linspace(0.0, system.length, 101))))
    h_scale = float(np.max(np.abs(system.pattern.matrix))) * omega_max
    if system.static_pattern is not None:
        h_scale += float(np.max(np.abs(system.static_pattern.matrix)))
    return scale * h_scale


# ------------------------------------------------------------ gauge field


@dataclass(frozen=True)
class GaugeField:
    """A(z) = i <Phi_m | d_z Phi_n> sampled on a grid, over the members."""

    grid: np.ndarray
    matrices: np.ndarray
    subspace: Subspace
    family: str

    @property
    def max_hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.matrices - np.conj(np.swapaxes(self.matrices, 1, 2)))))


def _member_kets_batch(sub: Subspace, system: CoupledModeSystem, grid, family: str) -> np.ndarray:
    """(Z, S, dim) lifted family kets of the members: their lifted columns."""
    phi = mode_family_matrices(system, grid, family)
    return fock.lift_unitary_batch(phi, sub.basis, cols=sub.member_indices)


def _gauge_samples(sub, system, grid, family, step):
    zs = np.asarray(grid, dtype=float)
    hi = np.minimum(zs + step, system.length)
    lo = np.maximum(zs - step, 0.0)
    plus = _member_kets_batch(sub, system, hi, family)
    minus = _member_kets_batch(sub, system, lo, family)
    center = _member_kets_batch(sub, system, zs, family)
    deriv = (plus - minus) / (hi - lo)[:, None, None]
    return 1j * np.einsum("zsm,zsn->zmn", center.conj(), deriv)


def gauge_field(sub: Subspace, system: CoupledModeSystem, grid=None,
                family: str = PHASE_ADJUSTED, step: float | None = None,
                hermiticity_limit: float = 1e-6) -> GaugeField:
    """Gauge field of the family's member kets by central differences.

    Difference points are clamped to [0, L], which makes the difference
    one-sided within ``step`` of either end.  ``step`` defaults to 1e-3
    of the system length.  If the Hermiticity residual exceeds
    ``hermiticity_limit`` the estimate is refined by Richardson
    extrapolation (half step).
    """
    if grid is None:
        grid = np.linspace(0.0, system.length, K_GRID_POINTS)
    grid = np.asarray(grid, dtype=float)
    if step is None:
        step = 1e-3 * system.length
    a = _gauge_samples(sub, system, grid, family, step)
    residual = float(np.max(np.abs(a - np.conj(np.swapaxes(a, 1, 2)))))
    if residual > hermiticity_limit:
        a_half = _gauge_samples(sub, system, grid, family, step / 2)
        a = (4 * a_half - a) / 3
    return GaugeField(grid, a, sub, family)


def gauge_relation_two_particle(a_single: np.ndarray, bra: OccupationState,
                                ket: OccupationState,
                                particle: ParticleType | None = None) -> complex:
    """Two-particle gauge-field element from the single-particle one.

    Bosons:   N [ d_BD A_AC + d_BC A_AD + d_AD A_BC + d_AC A_BD]
    Fermions: N [-d_BD A_AC + d_BC A_AD + d_AD A_BC - d_AC A_BD]
    Distinguishable: d_BD A_AC + d_AC A_BD per label, with the same
    index conventions as :func:`k_two_particle`.
    """
    particle = particle or bra.particle
    a = np.asarray(a_single)
    if particle.kind == DISTINGUISHABLE:
        (p, q), (r, s) = bra.occupations, ket.occupations
        return complex((q == s) * a[p, r] + (p == r) * a[q, s])

    b_, a_ = bra.mode_list()
    c_, d_ = ket.mode_list()
    sign = 1.0 if particle.kind == BOSON else -1.0
    raw = (
        sign * (b_ == d_) * a[a_, c_]
        + (b_ == c_) * a[a_, d_]
        + (a_ == d_) * a[b_, c_]
        + sign * (a_ == c_) * a[b_, d_]
    )
    norm = _two_particle_norm(bra.mode_list()) * _two_particle_norm(ket.mode_list())
    return complex(raw / norm)


# ------------------------------------------------------------- cyclicity


@dataclass(frozen=True)
class CyclicityResult:
    cyclic: bool
    residual: float
    #: (target member index, phase) per member when the cycle maps
    #: members to members up to phase; None otherwise.
    permutation: tuple | None

    def __bool__(self):
        return self.cyclic


def lifted_cycle_unitary(sub_or_basis, system: CoupledModeSystem,
                         z_end: float | None = None) -> np.ndarray:
    basis = sub_or_basis.basis if isinstance(sub_or_basis, Subspace) else sub_or_basis
    u = evolve(system, 0.0, z_end).matrix
    return fock.lift_unitary(u, basis)


def is_cyclic(sub: Subspace, system: CoupledModeSystem, z_end: float | None = None,
              tol: float = CYCLIC_TOL) -> CyclicityResult:
    """Projector test of the subspace under the system's lifted cycle."""
    return projector_cyclicity(lifted_cycle_unitary(sub, system, z_end), sub.member_indices, tol)


def projector_cyclicity(v: np.ndarray, member_indices, tol: float = CYCLIC_TOL) -> CyclicityResult:
    """Projector test: the span of the basis states ``member_indices``
    must be invariant under the lifted cycle ``v`` (an (S, S) matrix)."""
    idx = list(member_indices)
    p = np.zeros(v.shape)
    p[idx, idx] = 1.0
    residual = float(np.max(np.abs(p - v @ p @ v.conj().T)))
    cyclic = residual < tol
    permutation = None
    if cyclic:
        r = v[np.ix_(idx, idx)]
        perm = []
        for n in range(len(idx)):
            col = r[:, n]
            m = int(np.argmax(np.abs(col)))
            if abs(abs(col[m]) - 1.0) < 1e-6:
                perm.append((m, complex(col[m])))
            else:
                perm = None
                break
        if perm is not None:
            permutation = tuple(perm)
    return CyclicityResult(cyclic, residual, permutation)


# -------------------------------------------------------------- holonomy


@dataclass(frozen=True)
class Holonomy:
    """End-of-cycle unitary over the member states, waveguide basis."""

    matrix: np.ndarray
    classification: str
    max_k: float
    subspace: Subspace

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def classify_unitary(matrix: np.ndarray, tol: float = CLASSIFY_TOL) -> str:
    dim = matrix.shape[0]
    c = np.trace(matrix) / dim
    if np.max(np.abs(matrix - c * np.eye(dim))) < tol:
        return SCALAR
    if np.max(np.abs(matrix - np.diag(np.diag(matrix)))) < tol:
        return DIAGONAL
    return NON_SCALAR


def extract_holonomy(sub: Subspace, system: CoupledModeSystem,
                     z_end: float | None = None, grid=None,
                     tol_scale: float = HOLONOMIC_TOL_SCALE) -> Holonomy:
    """Holonomy of a cyclic subspace with vanishing dynamical part.

    Raises :class:`NotCyclicError` / :class:`NotHolonomicError`
    otherwise; the latter carries max |K| and the offending element.
    """
    v = lifted_cycle_unitary(sub, system, z_end)
    idx = list(sub.member_indices)
    cyc = projector_cyclicity(v, idx)
    if not cyc:
        raise NotCyclicError(cyc.residual)
    if grid is None:
        grid = np.linspace(0.0, z_end if z_end is not None else system.length, K_GRID_POINTS)
    k = k_matrix(sub, system, grid)
    tol = holonomic_tolerance(system, tol_scale)
    if k.max_abs >= tol:
        raise NotHolonomicError(k.max_abs, k.worst_element())
    r = v[np.ix_(idx, idx)]
    if np.max(np.abs(r.conj().T @ r - np.eye(len(idx)))) > 1e-9:
        raise NotCyclicError(cyc.residual)
    return Holonomy(r, classify_unitary(r), k.max_abs, sub)


def holonomy_from_gauge_field(sub: Subspace, system: CoupledModeSystem,
                              z_end: float | None = None, steps: int = 2000,
                              family: str = PHASE_ADJUSTED,
                              fd_step: float | None = None) -> np.ndarray:
    """Path-ordered reconstruction of the holonomy from the gauge field.

    Multiplies midpoint exponentials of i A(z) dz along the cycle and
    maps the result back to the waveguide basis with the end-of-cycle
    overlap of the family kets (the family is periodic only up to a
    permutation).  For a holonomic subspace this reproduces
    :func:`extract_holonomy` to finite-difference accuracy.
    """
    if z_end is None:
        z_end = system.length
    h = z_end / steps
    mids = (np.arange(steps) + 0.5) * h
    a = gauge_field(sub, system, mids, family, step=fd_step).matrices
    lams, vecs = np.linalg.eigh(a)
    g = np.eye(sub.dimension, dtype=complex)
    for lam, v in zip(lams, vecs):
        g = ((v * np.exp(1j * h * lam)) @ v.conj().T) @ g
    start = _member_kets_batch(sub, system, [0.0], family)[0]
    end = _member_kets_batch(sub, system, [z_end], family)[0]
    closure = start.conj().T @ end
    return closure @ g


# -------------------------------------------- Heisenberg-picture condition


def heisenberg_condition(mode_vectors, pattern, tol: float = 1e-10) -> bool:
    """Mode-level condition: the double commutator of the Hamiltonian
    with every pair of the given modes must vanish.

    For a bilinear Hamiltonian the double commutator reduces to the
    scalar v_c^dag kappa v_b; returns True iff all such scalars vanish.
    """
    vecs = [np.asarray(v, dtype=complex) for v in mode_vectors]
    gram = np.array([[abs(np.vdot(a, b) - (i == j)) for j, b in enumerate(vecs)]
                     for i, a in enumerate(vecs)])
    if np.max(gram) > 1e-10:
        raise ValueError("mode vectors must be orthonormal")
    m = pattern.matrix if hasattr(pattern, "matrix") else np.asarray(pattern)
    for c in vecs:
        for b in vecs:
            if abs(np.vdot(c, m @ b)) >= tol:
                return False
    return True
