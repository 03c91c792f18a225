"""Cyclic-subspace machinery: couplings, dynamical contributions, gauge
fields, and holonomies.

A subspace is a set of multi-particle basis states.  Its evolution over
one cycle splits into a geometric part (the gauge field A of a chosen
mode-basis family) and a dynamical part (the matrix K of the
Hamiltonian between the evolved member states).  The subspace is
holonomic when K vanishes along the cycle; the holonomy is then the
end-of-cycle unitary restricted to the member span.  One verdict,
:func:`check_subspace`, runs the projector test and computes K and that
restricted unitary; the CLI's ``check`` and :func:`extract_holonomy`
read it.

Two mode-basis families are supported: ``heisenberg`` uses the columns
of the single-particle evolution operator U(z) as mode vectors (the
propagating waveguide modes), and ``phase_adjusted`` multiplies them by
exp(-i delta(z)/2), which makes the gauge field of the flat-coupling
Jx structure a multiple of the identity.

Every N-particle generator is the one-body lift
(:func:`fock.lift_one_body`) of a single-particle matrix over the
members, for every statistics and particle number: K lifts the mode
coupling J(z), the gauge field the single-particle field
i Phi^dag d_z Phi (J(z) in the Heisenberg family, J(z) + Omega(z)/2 in
the phase-adjusted one), so both are exact, and only the members'
block is allocated.  The oracles are kept apart from that path:
:func:`k_matrix_lifted` sandwiches the second-quantized Hamiltonian
between the evolved member kets, and the per-element formulas
:func:`k_two_particle` (which also gives two-particle gauge-field
elements from the single-particle field) and :func:`k_n_boson`; tests
hold them to the lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .coupledmode import STEP_MM, CoupledModeSystem, evolution_on_grid, evolve
from .coupledmode import matrix_to_json, midpoint_stepper, ordered_products
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
HEISENBERG_TOL = 1e-10
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


def subspace_from_states(basis: FockBasis, states) -> Subspace:
    return Subspace(basis, tuple(basis.state(st) for st in states))


def _json_int(value) -> int:
    """``int(value)`` of a JSON entry; ValueError for a list, object or null."""
    try:
        return int(value)
    except (TypeError, OverflowError):
        raise ValueError(f"expected an integer, not {value!r}") from None


def subspace_from_json(doc: dict, modes: int | None = None) -> Subspace:
    """Build a subspace (and its basis) from a JSON document.

    Schema: ``{"particle": "boson"|"fermion"|"distinguishable",
    "states": [[2,0,0,0], ...] or [{"a": 1, "b": 3}, ...]}`` with
    1-based mode numbers in the per-label form.  ``modes`` is required
    for distinguishable states unless given in the document.
    """
    if not isinstance(doc, dict):
        raise ValueError("subspace definition must be a JSON object")
    try:
        kind = doc["particle"]
        raw_states = doc["states"]
    except KeyError as exc:
        raise ValueError(f"subspace definition missing field {exc}") from None
    shape = dict if kind == DISTINGUISHABLE else list
    if not isinstance(raw_states, list) or not all(isinstance(st, shape) for st in raw_states):
        raise ValueError(f"subspace 'states' must be a list of JSON "
                         f"{'objects' if shape is dict else 'arrays'}")
    if not raw_states:
        raise ValueError("subspace needs at least one state")
    modes = doc.get("modes", modes)
    modes = None if modes is None else _json_int(modes)

    if kind == DISTINGUISHABLE:
        labels = sorted(raw_states[0].keys())
        ptype = ParticleType.distinguishable(*labels)
        if modes is None:
            raise ValueError("distinguishable subspaces must declare 'modes'")
        occs = []
        for st in raw_states:
            if sorted(st.keys()) != labels:
                raise ValueError("inconsistent labels across states")
            occs.append(tuple(_json_int(st[lab]) - 1 for lab in labels))
        particles = len(labels)
    else:
        ptype = ParticleType(kind)
        occs = [tuple(_json_int(n) for n in st) for st in raw_states]
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


def mode_coupling_on_grid(system: CoupledModeSystem, grid) -> np.ndarray:
    """J(z): the Hamiltonian sandwiched between the Heisenberg mode vectors.

    The phase-adjusted family gives the same J: its phase cancels in the
    sandwich.
    """
    phi = mode_family_matrices(system, grid)
    h = system.hamiltonian(np.asarray(grid, dtype=float))
    return np.einsum("zji,zjk,zkl->zil", phi.conj(), h, phi)


def _cycle_grid(system: CoupledModeSystem, grid) -> np.ndarray:
    """``grid`` as floats, or K_GRID_POINTS equal points over [0, L]."""
    if grid is None:
        return np.linspace(0.0, system.length, K_GRID_POINTS)
    return np.asarray(grid, dtype=float)


# --------------------------------------------------- closed-form K terms


def k_two_particle(bra: OccupationState, ket: OccupationState, j_matrix: np.ndarray,
                   particle: ParticleType | None = None) -> complex:
    """Dynamical-contribution element between two-particle states.

    Bosons:   N [d_AD J_BC + d_AC J_BD + d_BD J_AC + d_BC J_AD]
    Fermions: N [d_AD J_BC - d_AC J_BD - d_BD J_AC + d_BC J_AD]
    Distinguishable (two labels): d_BD J_AC + d_AC J_BD per label.

    (A, B) are the bra modes with the operator order reversed by the
    adjoint, (C, D) the ket modes in creation order; N normalizes
    doubly occupied states.  Elements are between unit-norm kets, so
    they match the lifted-Hamiltonian matrix elements directly.  Any
    one-body generator lifts by the same formula: with the
    single-particle gauge field i Phi^dag d_z Phi in place of J it gives
    the two-particle gauge-field element.
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
    norm = (math.sqrt(2.0) if a_ == b_ else 1.0) * (math.sqrt(2.0) if c_ == d_ else 1.0)
    return complex(raw / norm)


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
    d = (np.asarray(k_modes)[:, None] == np.asarray(l_modes)[None, :]).astype(float)
    total = 0.0 + 0.0j
    for nu in range(n):
        for mu in range(n):
            minor = np.delete(np.delete(d, nu, axis=0), mu, axis=1)
            total += j[k_modes[nu], l_modes[mu]] * fock.permanent_naive(minor)
    if n > 1 and h_vac != 0:
        total -= (n - 1) * h_vac * fock.permanent_naive(d)
    norm = math.prod(math.factorial(modes.count(m))
                     for modes in (k_modes, l_modes) for m in set(modes))
    return complex(total / math.sqrt(norm))


@dataclass(frozen=True)
class DynamicalContribution:
    """K (or a gauge field A) sampled on a z grid: matrices[i] is K(grid[i])
    over the members."""

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


def k_matrix(sub: Subspace, system: CoupledModeSystem) -> DynamicalContribution:
    """Dynamical contribution of a subspace along the cycle, in the
    Heisenberg mode family: the one-body lift of the mode coupling J(z)
    over the members, i.e. K = sum_ab J_ab a_a^dag a_b for any
    statistics and any particle number.  :func:`k_matrix_lifted` is its
    oracle.
    """
    return gauge_field(sub, system, family=HEISENBERG)


def k_matrix_lifted(sub: Subspace, system: CoupledModeSystem, grid=None) -> DynamicalContribution:
    """Oracle for :func:`k_matrix`: the second-quantized Hamiltonian
    sandwiched between the evolved member kets (permanents /
    determinants / per-label products).  Tests hold the two together.
    """
    grid = _cycle_grid(system, grid)
    kets = _member_kets_batch(sub, system, grid, HEISENBERG)  # (Z, S, dim)
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


def holonomic_tolerance(system: CoupledModeSystem) -> float:
    """Absolute |K| threshold: HOLONOMIC_TOL_SCALE times the coupling magnitude."""
    omega_max = float(np.max(system.envelope.value(np.linspace(0.0, system.length, 101))))
    h_scale = float(np.max(np.abs(system.pattern.matrix))) * omega_max
    if system.static_pattern is not None:
        h_scale += float(np.max(np.abs(system.static_pattern.matrix)))
    return HOLONOMIC_TOL_SCALE * h_scale


# ------------------------------------------------------------ gauge field


def _member_kets_batch(sub: Subspace, system: CoupledModeSystem, grid, family: str) -> np.ndarray:
    """(Z, S, dim) lifted family kets of the members: their lifted columns,
    lifted length-last from the family stack transposed once."""
    phi = np.moveaxis(mode_family_matrices(system, grid, family), 0, -1)
    kets = fock.lift_unitary_batch(phi, sub.basis, cols=sub.member_indices)
    return np.ascontiguousarray(np.moveaxis(kets, -1, 0))


def gauge_field(sub: Subspace, system: CoupledModeSystem, grid=None,
                family: str = PHASE_ADJUSTED) -> DynamicalContribution:
    """Gauge field A(z) = i <Phi_m | d_z Phi_n> of the family's member
    kets, exactly.

    A(z) is the one-body lift of the single-particle field
    i Phi^dag d_z Phi: the mode coupling J(z) in the Heisenberg family
    (where A is K) and J(z) + Omega(z)/2 * 1 in the phase-adjusted
    one.  It is Hermitian by construction.
    """
    grid = _cycle_grid(system, grid)
    a = mode_coupling_on_grid(system, grid)
    if family == PHASE_ADJUSTED:
        a = a + 0.5 * system.envelope.value(grid)[:, None, None] * np.eye(system.modes)
    elif family != HEISENBERG:
        raise ValueError(f"unknown mode family {family!r}")
    return DynamicalContribution(grid, fock.lift_one_body(a, sub.basis, sub.member_indices),
                                 sub)


# ------------------------------------------------------------- the verdict


#: Rows of V_m V_m^dag that :func:`projector_residual` forms at a time.
_RESIDUAL_BLOCK = 256


def projector_residual(columns: np.ndarray, member_indices) -> float:
    """Projector test: max |P - V P V^dag| = max |P - V_m V_m^dag| for the
    projector P on the basis states ``member_indices`` and their columns
    V_m (S, d) of the lifted cycle V; below CYCLIC_TOL the span is cyclic.
    The (S, S) product is formed and reduced _RESIDUAL_BLOCK rows at a time."""
    adjoint, members = columns.conj().T, np.asarray(member_indices)
    maxima = []
    for lo in range(0, len(columns), _RESIDUAL_BLOCK):
        w = columns[lo:lo + _RESIDUAL_BLOCK] @ adjoint
        rows = members[(members >= lo) & (members < lo + len(w))]
        w[rows - lo, rows] -= 1.0
        maxima.append(np.max(np.abs(w)))
    return float(np.max(maxima))


def classify_phases(phases) -> str:
    """Non-scalar if any of a holonomy's diagonal ``phases`` is None (a linked
    state), else scalar if all lie within CYCLIC_TOL of their mean, else diagonal."""
    if None in phases:
        return NON_SCALAR
    mean = sum(phases) / len(phases)
    return SCALAR if all(abs(p - mean) < CYCLIC_TOL for p in phases) else DIAGONAL


@dataclass(frozen=True)
class SubspaceCheck:
    """The cycle's verdict on a subspace.

    ``matrix`` is the lifted end-of-cycle unitary restricted to the
    members (waveguide basis): the holonomy when the subspace is
    holonomic, i.e. cyclic with max |K| at or below ``tolerance``.
    """

    subspace: Subspace
    residual: float
    k: DynamicalContribution
    tolerance: float
    matrix: np.ndarray

    @property
    def cyclic(self) -> bool:
        return self.residual < CYCLIC_TOL

    @property
    def holonomic(self) -> bool:
        return self.cyclic and self.k.max_abs <= self.tolerance

    @property
    def classification(self) -> str | None:
        """Scalar / diagonal / non-scalar for a holonomic subspace, else None."""
        phases = np.diag(self.matrix)
        linked = np.max(np.abs(self.matrix - np.diag(phases)), axis=1) > CYCLIC_TOL
        return classify_phases(np.where(linked, None, phases).tolist()) if self.holonomic else None

    def to_json(self) -> dict:
        """The check report: the verdict, then the worst K element or the holonomy."""
        doc = {"subspace": subspace_to_json(self.subspace), "cyclic": self.cyclic,
               "projector_residual": self.residual, "max_k": self.k.max_abs,
               "holonomic_tolerance": self.tolerance, "holonomic": self.holonomic,
               "verdict": "holonomic" if self.holonomic
               else "cyclic-not-holonomic" if self.cyclic else "not-cyclic"}
        if self.holonomic:
            doc.update(classification=self.classification, holonomy=matrix_to_json(self.matrix))
        elif self.cyclic:
            doc["worst_element"] = [self.subspace.members[i].label()
                                    for i in self.k.worst_element()]
        return doc


def check_subspace(sub: Subspace, system: CoupledModeSystem) -> SubspaceCheck:
    """Lift the cycle's member columns once, run the projector test and compute K."""
    idx = list(sub.member_indices)
    v = fock.lift_unitary(evolve(system), sub.basis, cols=idx)
    return SubspaceCheck(sub, projector_residual(v, idx), k_matrix(sub, system),
                         holonomic_tolerance(system), v[idx])


def extract_holonomy(sub: Subspace, system: CoupledModeSystem) -> SubspaceCheck:
    """The check of a cyclic subspace with vanishing dynamical part; its
    ``matrix`` is the holonomy.

    Raises :class:`NotCyclicError` / :class:`NotHolonomicError`
    otherwise; the latter carries max |K| and the offending element.
    """
    check = check_subspace(sub, system)
    if not check.cyclic:
        raise NotCyclicError(check.residual)
    if not check.holonomic:
        raise NotHolonomicError(check.k.max_abs, check.k.worst_element())
    r = check.matrix
    if np.max(np.abs(r.conj().T @ r - np.eye(len(r)))) > 1e-9:
        raise NotCyclicError(check.residual)
    return check


def holonomy_from_gauge_field(sub: Subspace, system: CoupledModeSystem) -> np.ndarray:
    """Path-ordered reconstruction P exp(i int A dz) of the holonomy.

    Transports by the gauge field A of the phase-adjusted family along
    the cycle and maps the result back to the waveguide basis with the
    end-of-cycle overlap of the family kets (the family is periodic only
    up to a permutation).  For a commuting family A(z) = Omega(z) C + D,
    C = lift(pattern + 1/2) and D = lift(static), so the ordered product is
    coupledmode's one exponential, exp(i (delta(L) C + L D)), whenever the
    members' blocks of C and D commute, as on a holonomic subspace, where D
    vanishes; otherwise coupledmode's one stepper, :func:`midpoint_stepper`,
    steps -A.  For a holonomic subspace this reproduces :func:`extract_holonomy`.
    """
    if system.commuting_family:
        one_body = system.pattern.matrix + 0.5 * np.eye(system.modes)
        integral = system.envelope.total_phase * one_body
        if system.static_pattern is not None:
            integral = integral + system.length * system.static_pattern.matrix
        a = fock.lift_one_body(integral, sub.basis, sub.member_indices)
        g = ordered_products(a[None], [-1.0], [0])[0]
    else:
        g = midpoint_stepper(lambda z: -gauge_field(sub, system, z).matrices, [system.length],
                             STEP_MM)[0]
    start, end = _member_kets_batch(sub, system, [0.0, system.length], PHASE_ADJUSTED)
    closure = start.conj().T @ end
    return closure @ g


# -------------------------------------------- Heisenberg-picture condition


def heisenberg_condition(mode_vectors, pattern) -> bool:
    """Mode-level condition: the double commutator of the Hamiltonian
    with every pair of the given modes must vanish.

    For a bilinear Hamiltonian the double commutator reduces to the
    scalar v_c^dag kappa v_b; returns True iff all such scalars vanish.
    """
    vecs = [np.asarray(v, dtype=complex) for v in mode_vectors]
    gram = np.array([[abs(np.vdot(a, b) - (i == j)) for j, b in enumerate(vecs)]
                     for i, a in enumerate(vecs)])
    if np.max(gram) > HEISENBERG_TOL:
        raise ValueError("mode vectors must be orthonormal")
    m = pattern.matrix if hasattr(pattern, "matrix") else np.asarray(pattern)
    for c in vecs:
        for b in vecs:
            if abs(np.vdot(c, m @ b)) >= HEISENBERG_TOL:
                return False
    return True
