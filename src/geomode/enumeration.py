"""Exhaustive subspace enumeration via the cycle's connected components.

A span of basis states is invariant under the lifted end-of-cycle
unitary V iff V has no entry between it and its complement, so the
cyclic subsets are exactly the unions of the connected components of
the support graph {(i, j) : |V_ij| > CYCLIC_TOL}.  For a cycle that
permutes basis states up to phases the components are its orbits.
One basis-wide table of max_z |K| becomes the component graph
(:func:`orbit_graph`); the unions are built by dimension, only up to the
cap (:func:`ordered_unions`), and the holonomic ones classed by component phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations

import numpy as np

from . import fock
from . import holonomy as hol
from . import report as rp
from .coupledmode import CoupledModeSystem, evolve
from .fock import FockBasis

ENUMERATION_CAP = 4096
#: Largest basis the exhaustive 2^dim projector check will walk.
EXHAUSTIVE_MAX_DIM = 10


class EnumerationCapError(RuntimeError):
    """Too many cyclic subspaces; carries a resume token and partial report."""

    def __init__(self, cap, partial_report, resume_token):
        super().__init__(f"cyclic subspace count exceeds cap {cap}; "
                         f"resume with token {resume_token}")
        self.partial_report = partial_report
        self.resume_token = resume_token


@dataclass(frozen=True)
class OrbitDecomposition:
    """Connected components of the end-of-cycle unitary's support graph."""

    basis: FockBasis
    #: components as ascending tuples of basis-state indices, ordered by
    #: their smallest index
    orbits: tuple[tuple[int, ...], ...]
    #: per component, the cycle's diagonal entry if it is one state, else None:
    #: no |V_ij| between components exceeds CYCLIC_TOL, so these class a union
    phases: tuple[complex | None, ...]

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
    phases = tuple(complex(v[c[0], c[0]]) if len(c) == 1 else None for c in components)
    return OrbitDecomposition(basis, tuple(components), phases)


def count_subspaces(decomposition: OrbitDecomposition) -> tuple[int, int]:
    """(total, cyclic) = (2^dim - 2, 2^(#components) - 2): the nonempty
    proper basis-state subsets, and those that are unions of components."""
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
        return len(self.holonomic_records())

    def holonomic_by_class(self) -> dict:
        classes = [r.classification for r in self.holonomic_records()]
        return {c: classes.count(c) for c in (hol.SCALAR, hol.DIAGONAL, hol.NON_SCALAR)}

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
                {"members": list(r.members), "dimension": r.dimension, "cyclic": r.cyclic,
                 "max_k": r.max_k, "holonomic": r.holonomic,
                 "classification": r.classification,
                 "abelian_by_construction": r.abelian_by_construction}
                for r in self.records
            ],
        }

    def write_csv(self, path):
        rp.write_csv(path, ("members", "dimension", "cyclic", "holonomic", "classification",
                            "max_k"),
                     [(" ".join(r.members), r.dimension, r.cyclic, r.holonomic,
                       r.classification or "", r.max_k) for r in self.records])


def orbit_graph(decomposition: OrbitDecomposition, k_table: np.ndarray) -> np.ndarray:
    """The (n, n) table of max ``k_table`` over components i x j of the n
    components; the diagonal is each component's own max."""
    order = np.concatenate(decomposition.orbits)
    starts = np.cumsum([0] + [len(o) for o in decomposition.orbits[:-1]])
    rows = np.maximum.reduceat(k_table[order], starts, axis=0)
    return np.maximum.reduceat(rows[:, order], starts, axis=1)


def ordered_unions(decomposition: OrbitDecomposition, graph: np.ndarray,
                   start: int = 0, stop: int | None = None):
    """(members, max_k, components) of the unions at [start, stop) in census
    order (dimension, then member labels in basis-index order, then component
    bitmask): ascending state and component indices, and the max of ``graph``
    over the union's component pairs.  Per-dimension counts, the
    coefficients of prod_c (1 + x^|c|), fix ``top``, the smallest dimension
    whose unions reach ``stop``; a 0/1 knapsack over the components builds
    each union up to ``top`` once, fewer than (n + 1) ``stop`` of them."""
    orbits, size, n = decomposition.orbits, decomposition.basis.size, decomposition.orbit_count
    stop = (1 << n) - 2 if stop is None else min(stop, (1 << n) - 2)
    counts = [1] + [0] * size  # counts[d]: unions of dimension d, the empty one included
    for orbit in orbits:
        for d in range(size, len(orbit) - 1, -1):
            counts[d] += counts[d - len(orbit)]
    top = next(d for d, reached in enumerate(accumulate(counts)) if reached > stop)
    rows = np.maximum(graph, graph.T).tolist()  # a computed |K| is symmetric only to rounding
    # levels[d]: (component bitmask, components, members, max_k) of the unions of dimension d
    levels = [[(0, (), (), 0.0)]] + [[] for _ in range(top)]
    for c, orbit in enumerate(orbits):
        row = rows[c]
        for d in range(top, len(orbit) - 1, -1):
            levels[d] += [(mask | 1 << c, comps + (c,), tuple(sorted(members + orbit)),
                           max(k, row[c], *map(row.__getitem__, comps)))
                          for mask, comps, members, k in levels[d - len(orbit)]]
    labels = [state.label() for state in decomposition.basis.states]
    unions = sorted((d, [labels[i] for i in m], mask, m, k, comps)
                    for d in range(1, top + 1) for mask, comps, m, k in levels[d])[start:stop]
    return [u[3:] for u in unions]


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
    report = EnumerationReport(basis, *count_subspaces(decomposition))
    tol = hol.holonomic_tolerance(system)
    # A union's closed-form K is the basis-wide K restricted to its
    # members, so one (S, S) table of max_z |K| serves every union.
    k_table = np.max(np.abs(hol.k_matrix(hol.Subspace(basis, basis.states), system)
                            .matrices), axis=0)
    unions = ordered_unions(decomposition, orbit_graph(decomposition, k_table),
                            resume_token, resume_token + cap)
    labels, phases = [state.label() for state in basis.states], decomposition.phases
    report.records = [
        SubspaceRecord(tuple(map(labels.__getitem__, m)), m, len(m), True, k, k <= tol,
                       hol.classify_phases([phases[c] for c in comps]) if k <= tol else None,
                       len(m) == 1)
        for m, k, comps in unions]
    if report.cyclic_subspaces > resume_token + cap:
        raise EnumerationCapError(cap, report, resume_token + cap)
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
    no_k = np.zeros((decomposition.orbit_count,) * 2)
    union_sets = {frozenset(m) for m, _, _ in ordered_unions(decomposition, no_k)}
    v = fock.lift_unitary(evolve(system), basis)
    for r in range(1, basis.size):
        for combo in combinations(range(basis.size), r):
            residual = hol.projector_residual(v[:, combo], combo)
            if (residual < hol.CYCLIC_TOL) != (frozenset(combo) in union_sets):
                return False
    return True
