"""Exhaustive subspace enumeration via the cycle's connected components.

A span of basis states is invariant under the lifted end-of-cycle
unitary V iff V has no entry between it and its complement, so the
cyclic subsets are exactly the unions of the connected components of
the support graph {(i, j) : |V_ij| > CYCLIC_TOL}.  For a cycle that
permutes basis states up to phases the components are its orbits.
Enumeration walks the 2^(#components) - 2 unions, K-checks each one
against one basis-wide table of max_z |K|, and classifies the
holonomic survivors.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import fock
from . import holonomy as hol
from .coupledmode import CoupledModeSystem, evolve
from .fock import FockBasis

ENUMERATION_CAP = 4096
#: Largest basis the exhaustive 2^dim projector check will walk.
EXHAUSTIVE_MAX_DIM = 10


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
    """Connected components of the end-of-cycle unitary's support graph."""

    basis: FockBasis
    #: components as ascending tuples of basis-state indices, ordered by
    #: their smallest index
    orbits: tuple[tuple[int, ...], ...]
    #: the lifted end-of-cycle unitary (S, S) the components were read from
    cycle: np.ndarray = field(compare=False, repr=False)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def decompose_orbits(system: CoupledModeSystem, basis: FockBasis) -> OrbitDecomposition:
    """Partition the basis into the connected components of the lifted
    cycle's support {(i, j) : |V_ij| > CYCLIC_TOL}, by breadth-first search."""
    v = fock.lift_unitary(evolve(system), basis)
    linked = np.abs(v) > hol.CYCLIC_TOL
    linked |= linked.T
    unlabeled = np.ones(basis.size, dtype=bool)
    components = []
    while unlabeled.any():
        frontier = np.flatnonzero(unlabeled)[:1]
        members = []
        while frontier.size:
            unlabeled[frontier] = False
            members.append(frontier)
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & unlabeled)
        components.append(tuple(np.sort(np.concatenate(members)).tolist()))
    return OrbitDecomposition(basis, tuple(components), v)


def count_subspaces(decomposition: OrbitDecomposition) -> tuple[int, int]:
    """(total, cyclic) counts of nonempty proper basis-state subsets.

    total = 2^dim - 2; cyclic = 2^(#components) - 2 (their unions).
    """
    size = decomposition.basis.size
    if size < 2:
        raise ValueError("subspace counting needs a basis of dimension >= 2")
    return 2 ** size - 2, 2 ** decomposition.orbit_count - 2


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


def _orbit_unions(orbits):
    """All nonempty proper unions of components, members ascending."""
    n = len(orbits)
    for mask in range(1, (1 << n) - 1):
        members = []
        for i in range(n):
            if mask & (1 << i):
                members.extend(orbits[i])
        yield tuple(sorted(members))


def enumerate_holonomic(system: CoupledModeSystem, basis: FockBasis,
                        cap: int = ENUMERATION_CAP,
                        resume_token: int = 0) -> EnumerationReport:
    """K-check every cyclic subspace and classify the holonomic ones.

    Cyclic subspaces are the unions of the cycle's connected
    components.  Raises :class:`EnumerationCapError` (carrying the
    partial report and a resume token) when their number exceeds
    ``cap``.  Records are sorted by (dimension, member labels).
    """
    decomposition = decompose_orbits(system, basis)
    total, cyclic = count_subspaces(decomposition)
    report = EnumerationReport(basis, total, cyclic)

    tol = hol.holonomic_tolerance(system)
    # A union's closed-form K is the basis-wide K restricted to its
    # members, so one (S, S) table of max_z |K| serves every union.
    k_table = np.max(np.abs(hol.k_matrix(hol.Subspace(basis, basis.states), system)
                            .matrices), axis=0)
    labels = [state.label() for state in basis.states]
    candidates = sorted(
        _orbit_unions(decomposition.orbits),
        key=lambda idx: (len(idx), [labels[i] for i in idx]),
    )

    records = []
    for pos, member_idx in enumerate(candidates):
        if pos < resume_token:
            continue
        if len(records) >= cap:
            report.records = records
            raise EnumerationCapError(cap, report, pos)
        max_k = float(np.max(k_table[np.ix_(member_idx, member_idx)]))
        holonomic = max_k < tol
        classification = None
        if holonomic:
            r = decomposition.cycle[np.ix_(member_idx, member_idx)]
            classification = hol.classify_unitary(r)
        records.append(SubspaceRecord(
            members=tuple(labels[i] for i in member_idx),
            member_indices=member_idx,
            dimension=len(member_idx),
            cyclic=True,
            max_k=max_k,
            holonomic=holonomic,
            classification=classification,
            abelian_by_construction=len(member_idx) == 1,
        ))
    report.records = records
    assert len(records) == cyclic - min(resume_token, cyclic)
    return report


def verify_union_of_orbits_characterization(system: CoupledModeSystem,
                                            basis: FockBasis) -> bool:
    """Exhaustively check: projector-cyclic iff union of components.

    Only feasible for small bases (2^dim subsets, dim at most
    EXHAUSTIVE_MAX_DIM); used as a correctness oracle for the
    enumeration shortcut.
    """
    if basis.size > EXHAUSTIVE_MAX_DIM:
        raise ValueError("exhaustive verification limited to small bases")
    decomposition = decompose_orbits(system, basis)
    union_sets = {frozenset(m) for m in _orbit_unions(decomposition.orbits)}
    for r in range(1, basis.size):
        for combo in itertools.combinations(range(basis.size), r):
            projector_cyclic = hol.projector_residual(decomposition.cycle, combo) < hol.CYCLIC_TOL
            if projector_cyclic != (frozenset(combo) in union_sets):
                return False
    return True
