"""Exhaustive subspace enumeration via orbit decomposition.

For systems whose cycle maps basis states to basis states up to a
phase, cyclicity of a subset of basis states is equivalent to being a
union of orbits of the induced permutation.  Enumeration therefore
walks the 2^(#orbits) - 2 orbit unions, K-checks each one against one
basis-wide table of max_z |K|, and classifies the holonomic survivors.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import holonomy as hol
from .coupledmode import CoupledModeSystem
from .fock import FockBasis

ENUMERATION_CAP = 4096
PERMUTATION_TOL = 1e-8


class UnsupportedEvolutionError(ValueError):
    """The cycle is not a permutation-with-phases on the basis."""


class EnumerationCapError(RuntimeError):
    """Too many cyclic subspaces; carries a resume token and partial report."""

    def __init__(self, cap, partial_report, resume_token):
        super().__init__(
            f"cyclic subspace count exceeds cap {cap}; resume with token {resume_token}"
        )
        self.partial_report = partial_report
        self.resume_token = resume_token


@dataclass(frozen=True)
class OrbitDecomposition:
    """Orbits of the end-of-cycle signed permutation on basis states."""

    basis: FockBasis
    #: target index per basis state
    permutation: tuple[int, ...]
    #: phase accompanying each mapping
    phases: tuple[complex, ...]
    #: orbits as tuples of basis-state indices
    orbits: tuple[tuple[int, ...], ...]

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def orbit_phase(self, orbit) -> complex:
        """Product of phases around the orbit (the cycle's eigenphase power)."""
        p = 1.0 + 0.0j
        for i in orbit:
            p *= self.phases[i]
        return complex(p)


def decompose_orbits(system: CoupledModeSystem, basis: FockBasis,
                     z_end: float | None = None,
                     tol: float = PERMUTATION_TOL) -> OrbitDecomposition:
    """Orbit partition of the basis under the end-of-cycle evolution.

    Raises :class:`UnsupportedEvolutionError` when the lifted cycle is
    not a permutation with phases (fall back to per-subspace projector
    tests in that case).
    """
    v = hol.lifted_cycle_unitary(basis, system, z_end)
    n = basis.size
    perm = []
    phases = []
    for col in range(n):
        column = v[:, col]
        row = int(np.argmax(np.abs(column)))
        phase = column[row]
        off = np.abs(column).copy()
        off[row] = 0.0
        if abs(abs(phase) - 1.0) > tol or np.max(off) > tol:
            raise UnsupportedEvolutionError(
                "cycle evolution does not permute the basis states (column "
                f"{col} has residual {np.max(off):.3e})"
            )
        perm.append(row)
        phases.append(complex(phase))

    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        i = start
        while not seen[i]:
            seen[i] = True
            orbit.append(i)
            i = perm[i]
        orbits.append(tuple(orbit))
    return OrbitDecomposition(basis, tuple(perm), tuple(phases), tuple(orbits))


def count_subspaces(basis: FockBasis, decomposition: OrbitDecomposition | None = None,
                    system: CoupledModeSystem | None = None) -> tuple[int, int]:
    """(total, cyclic) counts of nonempty proper basis-state subsets.

    total = 2^dim - 2; cyclic = 2^(#orbits) - 2 (unions of orbits).
    """
    if basis.size < 2:
        raise ValueError("subspace counting needs a basis of dimension >= 2")
    if decomposition is None:
        if system is None:
            raise ValueError("need either an orbit decomposition or a system")
        decomposition = decompose_orbits(system, basis)
    total = 2 ** basis.size - 2
    cyclic = 2 ** decomposition.orbit_count - 2
    return total, cyclic


@dataclass(frozen=True)
class SubspaceRecord:
    members: tuple[str, ...]
    member_indices: tuple[int, ...]
    dimension: int
    cyclic: bool
    max_k: float
    holonomic: bool
    classification: str | None
    #: dimension-1 subspaces are Abelian whatever the phase
    abelian_by_construction: bool = False


@dataclass
class EnumerationReport:
    basis: FockBasis
    total_subspaces: int
    cyclic_subspaces: int
    records: list[SubspaceRecord] = field(default_factory=list)

    @property
    def holonomic_count(self) -> int:
        return sum(1 for r in self.records if r.holonomic)

    def holonomic_by_class(self) -> dict:
        out = {hol.SCALAR: 0, hol.DIAGONAL: 0, hol.NON_SCALAR: 0}
        for r in self.records:
            if r.holonomic:
                out[r.classification] += 1
        return out

    def holonomic_records(self, min_dimension: int = 1):
        return [r for r in self.records if r.holonomic and r.dimension >= min_dimension]

    def to_json(self) -> dict:
        by_class = self.holonomic_by_class()
        return {
            "particle": self.basis.particle.kind,
            "modes": self.basis.modes,
            "particles": self.basis.particles,
            "totals": {
                "subspaces": self.total_subspaces,
                "cyclic": self.cyclic_subspaces,
                "holonomic": self.holonomic_count,
                "holonomic_scalar": by_class[hol.SCALAR],
                "holonomic_diagonal": by_class[hol.DIAGONAL],
                "holonomic_non_scalar": by_class[hol.NON_SCALAR],
                "holonomic_dim_ge_2": len(self.holonomic_records(2)),
            },
            "subspaces": [
                {
                    "members": list(r.members),
                    "dimension": r.dimension,
                    "cyclic": r.cyclic,
                    "max_k": r.max_k,
                    "holonomic": r.holonomic,
                    "classification": r.classification,
                    "abelian_by_construction": r.abelian_by_construction,
                }
                for r in self.records
            ],
        }

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["members", "dimension", "cyclic", "holonomic",
                             "classification", "max_k"])
            for r in self.records:
                writer.writerow([
                    " ".join(r.members), r.dimension, r.cyclic, r.holonomic,
                    r.classification or "", f"{r.max_k:.17g}",
                ])


def _orbit_unions(orbits, skip_full=True):
    """All nonempty (proper, unless skip_full is False) unions of orbits."""
    n = len(orbits)
    top = (1 << n) - 1
    for mask in range(1, top + 1):
        if skip_full and mask == top:
            continue
        members = []
        for i in range(n):
            if mask & (1 << i):
                members.extend(orbits[i])
        yield mask, tuple(sorted(members))


def enumerate_holonomic(system: CoupledModeSystem, basis: FockBasis,
                        cap: int = ENUMERATION_CAP,
                        k_grid_points: int = hol.K_GRID_POINTS,
                        resume_token: int = 0,
                        include_full: bool = False) -> EnumerationReport:
    """K-check every cyclic subspace and classify the holonomic ones.

    Cyclic subspaces are the orbit unions of the end-of-cycle
    permutation.  Raises :class:`EnumerationCapError` (carrying the
    partial report and a resume token) when their number exceeds
    ``cap``.  Records are sorted by (dimension, member labels).
    """
    decomposition = decompose_orbits(system, basis)
    total, cyclic = count_subspaces(basis, decomposition)
    n_unions = 2 ** decomposition.orbit_count - (1 if include_full else 2)
    report = EnumerationReport(basis, total, cyclic)

    grid = np.linspace(0.0, system.length, k_grid_points)
    tol = hol.holonomic_tolerance(system)
    # A union's closed-form K is the basis-wide K restricted to its
    # members, so one (S, S) table of max_z |K| serves every union.
    k_table = np.max(np.abs(hol.k_matrix(hol.Subspace(basis, basis.states), system, grid)
                            .matrices), axis=0)
    v = hol.lifted_cycle_unitary(basis, system)
    candidates = sorted(
        _orbit_unions(decomposition.orbits, skip_full=not include_full),
        key=lambda mc: (len(mc[1]), [basis.states[i].label() for i in mc[1]]),
    )

    records = []
    for pos, (mask, member_idx) in enumerate(candidates):
        if pos < resume_token:
            continue
        if len(records) >= cap:
            report.records = records
            raise EnumerationCapError(cap, report, pos)
        max_k = float(np.max(k_table[np.ix_(member_idx, member_idx)]))
        holonomic = max_k < tol
        classification = None
        if holonomic:
            r = v[np.ix_(member_idx, member_idx)]
            classification = hol.classify_unitary(r)
        records.append(SubspaceRecord(
            members=tuple(basis.states[i].label() for i in member_idx),
            member_indices=member_idx,
            dimension=len(member_idx),
            cyclic=True,
            max_k=max_k,
            holonomic=holonomic,
            classification=classification,
            abelian_by_construction=len(member_idx) == 1,
        ))
    report.records = records
    assert len(records) == n_unions - min(resume_token, n_unions)
    return report


def verify_union_of_orbits_characterization(system: CoupledModeSystem,
                                            basis: FockBasis,
                                            max_dim: int = 10) -> bool:
    """Exhaustively check: projector-cyclic iff union of orbits.

    Only feasible for small bases (2^dim subsets); used as a
    correctness oracle for the enumeration shortcut.
    """
    if basis.size > max_dim:
        raise ValueError("exhaustive verification limited to small bases")
    decomposition = decompose_orbits(system, basis)
    union_sets = {frozenset(m) for _, m in _orbit_unions(decomposition.orbits)}
    v = hol.lifted_cycle_unitary(basis, system)
    for r in range(1, basis.size):
        for combo in itertools.combinations(range(basis.size), r):
            projector_cyclic = hol.projector_cyclicity(v, combo).cyclic
            if projector_cyclic != (frozenset(combo) in union_sets):
                return False
    return True
