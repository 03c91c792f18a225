"""Multi-particle state spaces over M optical modes.

Provides ordered Fock bases for bosons, fermions, and distinguishable
particles, the lifting of single-particle unitaries to multi-particle
operators (permanents / determinants / per-label products), the
one-body lift of any single-particle matrix, and a brute-force
vacuum-expectation evaluator for ladder-operator strings.  Every
unitary lift runs through one kernel, :func:`lift_unitary_batch`,
which sums the N! permutation products of a whole stack of matrices at
once, for just the block of entries a caller reads; every one-body
lift runs through :func:`lift_one_body`, which reads the basis's
operator <s| a_a^dag a_b |t> as coordinate lists of at most S*N*M
entries, for the whole basis or a subset of it.  :func:`lift_unitary`
and :func:`lift_hamiltonian` validate one matrix and call them.  Ryser's
:func:`permanent` and :func:`permanent_naive` are kept as oracles.
The unitary kernel, the one-body lists and the vacuum-expectation
evaluator are built independently of each other so that they can be
used to validate each other.  A basis is immutable; its state index,
mode table, norms and one-body lists are cached properties, each built
at its first use.

Conventions
-----------
* Modes are indexed 0..M-1.
* Boson and fermion states are stored as per-mode occupation counts;
  distinguishable states as one mode index per particle label.
* Normalized kets: |n> = prod_k (a_k^dag)^{n_k} / sqrt(n_k!) |0>.
  Fermion reference kets apply creation operators in increasing mode
  order.
* ``lift_hamiltonian(h)`` represents sum_{jk} h[j,k] a_j^dag a_k, so it
  generates ``lift_unitary(expm(-1j*delta*h))``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BOSON = "boson"
FERMION = "fermion"
DISTINGUISHABLE = "distinguishable"

PERMANENT_SIZE_CAP = 12
VACUUM_SEQUENCE_CAP = 8

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class ParticleType:
    """Statistics of the particles populating a basis.

    ``kind`` is one of :data:`BOSON`, :data:`FERMION`,
    :data:`DISTINGUISHABLE`.  Distinguishable particles carry an ordered
    tuple of unique labels (e.g. ``("a", "b")``).
    """

    kind: str
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (BOSON, FERMION, DISTINGUISHABLE):
            raise ValueError(f"unknown particle kind {self.kind!r}")
        if self.kind == DISTINGUISHABLE:
            if not self.labels:
                raise ValueError("distinguishable particles need at least one label")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("distinguishable labels must be unique")
        elif self.labels:
            raise ValueError("labels are only meaningful for distinguishable particles")

    @classmethod
    def boson(cls) -> "ParticleType":
        return cls(BOSON)

    @classmethod
    def fermion(cls) -> "ParticleType":
        return cls(FERMION)

    @classmethod
    def distinguishable(cls, *labels: str) -> "ParticleType":
        if not labels:
            labels = ("a", "b")
        return cls(DISTINGUISHABLE, tuple(labels))

    @property
    def exchange_sign(self) -> int:
        """+1 for bosons (and across distinguishable labels), -1 for fermions."""
        return -1 if self.kind == FERMION else 1


@dataclass(frozen=True)
class OccupationState:
    """One basis ket over ``modes`` modes.

    For bosons/fermions ``occupations`` holds per-mode counts; for
    distinguishable particles it holds the mode index of each label, in
    label order.
    """

    particle: ParticleType
    modes: int
    occupations: tuple[int, ...]

    def __post_init__(self):
        occ = tuple(int(n) for n in self.occupations)
        object.__setattr__(self, "occupations", occ)
        if self.modes < 1:
            raise ValueError("mode count must be positive")
        if self.particle.kind == DISTINGUISHABLE:
            if len(occ) != len(self.particle.labels):
                raise ValueError("one mode index required per label")
            if any(m < 0 or m >= self.modes for m in occ):
                raise ValueError("mode index out of range")
        else:
            if len(occ) != self.modes:
                raise ValueError("occupation vector length must equal mode count")
            if any(n < 0 for n in occ):
                raise ValueError("occupations must be non-negative")
            if self.particle.kind == FERMION and any(n > 1 for n in occ):
                raise ValueError("fermion occupations must be 0 or 1")

    def mode_list(self) -> tuple[int, ...]:
        """Occupied modes with multiplicity.

        Bosons/fermions: ascending; distinguishable: in label order.
        """
        if self.particle.kind == DISTINGUISHABLE:
            return self.occupations
        return tuple(mode for mode, n in enumerate(self.occupations) for _ in range(n))

    def norm_factorial(self) -> float:
        """prod_k n_k! (1 for fermions and distinguishable particles)."""
        if self.particle.kind != BOSON:
            return 1.0
        return float(math.prod(math.factorial(n) for n in self.occupations))

    def label(self) -> str:
        if self.particle.kind == DISTINGUISHABLE:
            inner = " ".join(
                f"{lab}{mode + 1}" for lab, mode in zip(self.particle.labels, self.occupations)
            )
            return f"|{inner}>"
        return "|" + "".join(str(n) for n in self.occupations) + ">"


@dataclass(frozen=True)
class FockBasis:
    """Deterministically ordered N-particle basis over M modes.

    Ordering: bosons/fermions descending lexicographic on occupation
    vectors (so e.g. |2000> comes first); distinguishable ascending
    lexicographic on per-label mode tuples.
    """

    particle: ParticleType
    modes: int
    particles: int
    states: tuple[OccupationState, ...]

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, state) -> int:
        occ = state.occupations if isinstance(state, OccupationState) else tuple(state)
        try:
            return self.state_index[occ]
        except KeyError:
            raise KeyError(f"state {occ} not in basis") from None

    def state(self, occupations) -> OccupationState:
        return self.states[self.index_of(occupations)]

    @cached_property
    def state_index(self) -> dict:
        """Occupations -> position of each state in the basis."""
        return {s.occupations: i for i, s in enumerate(self.states)}

    @cached_property
    def mode_table(self) -> np.ndarray:
        """(S, N) array: the :meth:`OccupationState.mode_list` of each state."""
        table = np.array([s.mode_list() for s in self.states], dtype=int)
        table.setflags(write=False)
        return table

    @cached_property
    def norms(self) -> np.ndarray:
        """sqrt(prod n_k!) of each state, the normalization of its ket."""
        norms = np.sqrt([s.norm_factorial() for s in self.states])
        norms.setflags(write=False)
        return norms

    @cached_property
    def one_body(self) -> tuple[np.ndarray, ...]:
        """Coordinate lists ``(row, col, a, b, value)`` of the one-body
        operator: <row| a_a^dag a_b |col> = value, zero elsewhere.

        One entry per column state, occupied mode b (one per label for
        distinguishable particles) and target mode a, so at most S*N*M
        entries; sorted by (row, col), read-only.  Values follow the
        ladder rules: sqrt(n_b) * sqrt(n_a - delta_ab + 1) for bosons, the
        product of the two ladder signs for fermions, and 1 for
        distinguishable particles (whose label moves from b to a).
        """
        m, kind = self.modes, self.particle.kind
        occ = np.array([s.occupations for s in self.states], dtype=int)
        # every (column state, label) pair, or (column state, occupied mode b)
        col, slot = np.nonzero(occ >= 0 if kind == DISTINGUISHABLE else occ)
        b = occ[col, slot] if kind == DISTINGUISHABLE else slot
        col, slot, b = (np.repeat(x, m) for x in (col, slot, b))
        a = np.tile(np.arange(m), len(col) // m)
        new, entry, value = occ[col], np.arange(len(col)), np.ones(len(col))
        if kind == DISTINGUISHABLE:
            new[entry, slot] = a
        else:
            new[entry, b] -= 1
            if kind == BOSON:
                value = np.sqrt(occ[col, b]) * np.sqrt(new[entry, a] + 1)
            else:
                # a_b and then a_a^dag each pass the occupied modes below them
                below = np.cumsum(occ, axis=1) - occ
                value = np.where((below[col, b] + below[col, a] - (b < a)) % 2, -1.0, 1.0)
            new[entry, a] += 1
        # a fermion created on an occupied mode leaves the basis: no entry
        row = np.array([self.state_index.get(k, -1) for k in map(tuple, new.tolist())],
                       dtype=int)
        keep = np.flatnonzero(row >= 0)
        keep = keep[np.lexsort((col[keep], row[keep]))]
        lists = tuple(x[keep] for x in (row, col, a, b, value))
        for x in lists:
            x.setflags(write=False)
        return lists


def basis_size(modes: int, particles: int, particle: ParticleType) -> int:
    if particle.kind == BOSON:
        return math.comb(modes + particles - 1, particles)
    if particle.kind == FERMION:
        return math.comb(modes, particles)
    return modes ** particles


def enumerate_basis(modes: int, particles: int, particle: ParticleType) -> FockBasis:
    """Build the ordered N-particle basis over ``modes`` modes.

    Sizes: C(M+N-1, N) bosons, C(M, N) fermions, M**N distinguishable.
    Raises ValueError for fermions with N > M.
    """
    if modes < 1:
        raise ValueError("mode count must be >= 1")
    if particles < 0:
        raise ValueError("particle count must be >= 0")
    if particle.kind == FERMION and particles > modes:
        raise ValueError(f"cannot place {particles} fermions in {modes} modes")
    if particle.kind == DISTINGUISHABLE and len(particle.labels) != particles:
        raise ValueError("distinguishable particle count must match label count")

    if particle.kind == DISTINGUISHABLE:
        occs = sorted(itertools.product(range(modes), repeat=particles))
    else:
        combos = (itertools.combinations_with_replacement if particle.kind == BOSON
                  else itertools.combinations)
        occs = sorted((tuple(map(combo.count, range(modes)))
                       for combo in combos(range(modes), particles)), reverse=True)

    states = tuple(OccupationState(particle, modes, occ) for occ in occs)
    expected = basis_size(modes, particles, particle)
    assert len(states) == expected, "basis size mismatch"
    return FockBasis(particle, modes, particles, states)


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return (m.ndim == 2 and m.shape[0] == m.shape[1]
            and np.max(np.abs(m - m.conj().T)) < HERMITIAN_TOL)


def is_unitary(m: np.ndarray) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return np.max(np.abs(m.conj().T @ m - eye)) < UNITARY_TOL


def permanent(m: np.ndarray) -> complex:
    """Permanent via Ryser's inclusion-exclusion with Gray-code updates.

    Capped at 12x12; larger inputs raise ValueError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("permanent requires a square matrix")
    n = m.shape[0]
    if n > PERMANENT_SIZE_CAP:
        raise ValueError(f"permanent capped at {PERMANENT_SIZE_CAP}x{PERMANENT_SIZE_CAP}")
    if n == 0:
        return complex(1.0)

    # Gray-code iteration over non-empty column subsets: per = (-1)^n *
    # sum_S (-1)^{|S|} prod_i (sum_{j in S} m_ij)
    col_sum = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray_prev = 0
    sign_size = 1
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        changed = gray ^ gray_prev
        j = changed.bit_length() - 1
        col_sum += m[:, j] if gray & changed else -m[:, j]
        sign_size = -sign_size
        gray_prev = gray
        total += sign_size * np.prod(col_sum)
    return complex((-1) ** n * total)


def permanent_naive(m: np.ndarray) -> complex:
    """Permanent by direct sum over permutations (oracle for small n)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n > 8:
        raise ValueError("naive permanent limited to n <= 8")
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        total += math.prod(m[i, perm[i]] for i in range(n))
    return complex(total)


def lift_unitary(u, basis: FockBasis, cols=None) -> np.ndarray:
    """Lift a single-particle M x M unitary to the N-particle basis.

    Checks that ``u`` is an M x M unitary and returns
    ``lift_unitary_batch(u[:, :, None], basis, cols=cols)[:, :, 0]``:
    permanents for bosons, determinants for fermions, per-label products
    for distinguishable particles.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (basis.modes, basis.modes):
        raise ValueError(f"input matrix must be {basis.modes} x {basis.modes}, "
                         "the basis mode count")
    if not is_unitary(u):
        raise ValueError(f"input matrix is not unitary within {UNITARY_TOL}")
    return lift_unitary_batch(u[:, :, None], basis, cols=cols)[:, :, 0]


def lift_unitary_batch(u_batch: np.ndarray, basis: FockBasis, rows=None, cols=None) -> np.ndarray:
    """Lift a length-last stack of single-particle unitaries:
    (M, M, Z) -> (R, C, Z).

    Returns the block <rows| lift(U_z) |cols> for the basis indices
    ``rows`` and ``cols`` (default: the whole basis, giving (S, S, Z));
    only that block is allocated.  An entry <s|lift(U)|t> sums
    sign(sigma) prod_i U[s_i, t_sigma(i)] over the permutations sigma of
    the occupied modes (every sigma for bosons, with sign +1, and for
    fermions, with its parity; the identity alone for distinguishable
    particles) and divides by sqrt(prod n_s! prod n_t!).  The stack index
    is the last, contiguous axis, so each factor U[s_i, t_j, :] is one
    row of the (M*M, Z) view.  Any stack of matrices is accepted, and a
    real stack gives a real block: for bosons, the stack |U|**2 gives
    permanents of the transition probabilities of independent photons.
    :func:`lift_unitary` is the validated single-unitary form.
    """
    u = np.asarray(u_batch)
    m = basis.modes
    if u.ndim != 3 or u.shape[:2] != (m, m):
        raise ValueError("expected an (M, M, Z) stack of matrices")
    n = basis.particles
    rows = np.arange(basis.size) if rows is None else np.asarray(rows, dtype=int)
    cols = np.arange(basis.size) if cols is None else np.asarray(cols, dtype=int)
    dtype = np.result_type(u.dtype, float)
    if n == 0:  # the vacuum lifts to 1
        return np.ones((len(rows), len(cols), u.shape[2]), dtype=dtype)
    r, c = basis.mode_table[rows], basis.mode_table[cols]
    flat = u.reshape(m * m, -1).astype(dtype, copy=False)
    perms = ([tuple(range(n))] if basis.particle.kind == DISTINGUISHABLE
             else itertools.permutations(range(n)))
    # a long stack holds three blocks, each allocated once: the sum, the term
    # and its next factor; "clip" lets np.take write in place (no index is out of range)
    out = term = factor = None
    for perm in perms:  # the identity, an even permutation, comes first
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        odd = basis.particle.kind == FERMION and inversions % 2
        term = np.take(flat, r[:, 0, None] * m + c[None, :, perm[0]], axis=0,
                       out=term, mode="clip")
        for i, j in enumerate(perm[1:], start=1):
            factor = np.take(flat, r[:, i, None] * m + c[None, :, j], axis=0,
                             out=factor, mode="clip")
            term *= factor
        if out is None:  # 0 + term, as a zero start gives it: -0 becomes +0
            out, term = term, None
            out += 0.0
        else:  # an odd fermion term subtracts
            (np.subtract if odd else np.add)(out, term, out=out)
    norms = np.outer(basis.norms[rows], basis.norms[cols])
    # x / 1 keeps x's bits: the sum holds no -0 (see above), and finite
    # values pass a division by 1 or by 1 + 0j unchanged
    if (norms != 1.0).any():
        out /= norms[:, :, None]
    return out


def lift_one_body(ops, basis: FockBasis, members=None) -> np.ndarray:
    """The one-body lift sum_ab X[a,b] a_a^dag a_b of a stack (..., M, M)
    of single-particle matrices X: (..., d, d) over the basis indices
    ``members``, in their given order (default: the whole basis).

    Keeps the entries of :attr:`FockBasis.one_body` between members,
    gathers each (row, col) run into one column of an (M*M, runs)
    coefficient matrix and multiplies the flattened stack by it.  For
    distinguishable particles the same X acts on every label.
    """
    ops = np.asarray(ops)
    m, lead = basis.modes, ops.shape[:-2]
    if ops.ndim < 2 or ops.shape[-2:] != (m, m):
        raise ValueError("expected a (..., M, M) stack of matrices")
    rows, cols, a, b, values = basis.one_body
    size = basis.size if members is None else len(members)
    if members is not None:
        pos = np.full(basis.size, -1)
        pos[np.asarray(members, dtype=int)] = np.arange(size)
        rows, cols = pos[rows], pos[cols]
        keep = (rows >= 0) & (cols >= 0)
        rows, cols, a, b, values = (x[keep] for x in (rows, cols, a, b, values))
    # runs of one (row, col) stay contiguous under the injective member map
    key = rows * size + cols
    starts = np.diff(key, prepend=-1) != 0
    coeffs = np.zeros((m * m, np.count_nonzero(starts)))
    np.add.at(coeffs, (a * m + b, np.cumsum(starts) - 1), values)
    out = np.zeros(lead + (size * size,), dtype=np.result_type(ops, float))
    out[..., key[starts]] = ops.reshape(lead + (m * m,)) @ coeffs
    return out.reshape(lead + (size, size))


def lift_hamiltonian(h, basis: FockBasis) -> np.ndarray:
    """Represent sum_{jk} h[j,k] a_j^dag a_k on the N-particle basis.

    Checks that ``h`` is an M x M Hermitian matrix and returns its
    :func:`lift_one_body` over the whole basis, which is Hermitian too.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (basis.modes, basis.modes):
        raise ValueError("matrix dimension must equal the basis mode count")
    if not is_hermitian(h):
        raise ValueError(f"input matrix is not Hermitian within {HERMITIAN_TOL}")
    return lift_one_body(h, basis)


def _norm_factor(factor):
    """Normalize a vacuum_expectation factor to (coeffs, dagger, label)."""
    if len(factor) == 2:
        coeffs, dagger = factor
        label = None
    elif len(factor) == 3:
        coeffs, dagger, label = factor
    else:
        raise ValueError("factor must be (coeffs, dagger) or (coeffs, dagger, label)")
    return np.asarray(coeffs, dtype=complex), bool(dagger), label


def vacuum_expectation(factors, particle: ParticleType) -> complex:
    """<0| f_1 f_2 ... f_n |0> for linear combinations of ladder operators.

    Each factor is ``(coeffs, dagger)`` or ``(coeffs, dagger, label)``:
    ``sum_k coeffs[k] a_k`` (or its dagger analogue built from the same
    coefficient vector; pass conjugated coefficients yourself if
    needed).  Evaluation is by repeated use of
    a_k a_j^dag = delta_kj +/- a_j^dag a_k (upper sign bosons, lower
    fermions); operators carrying different distinguishable labels
    commute.  Sequences longer than 8 are rejected.
    """
    ops = [_norm_factor(f) for f in factors]
    if len(ops) > VACUUM_SEQUENCE_CAP:
        raise ValueError(f"operator sequence capped at {VACUUM_SEQUENCE_CAP} factors")
    if particle.kind == DISTINGUISHABLE:
        valid = set(particle.labels)
        for _, _, label in ops:
            if label not in valid:
                raise ValueError(f"unknown label {label!r}")
    return _vac(tuple((tuple(c), d, l) for c, d, l in ops), particle)


def _vac(ops, particle: ParticleType) -> complex:
    if not ops:
        return complex(1.0)
    first_dag = next((i for i, (_, d, _) in enumerate(ops) if d), None)
    if first_dag is None or first_dag == 0:
        return complex(0.0)
    i = first_dag
    (cl, _, ll), (cr, _, lr) = ops[i - 1], ops[i]
    total = 0.0 + 0.0j
    if ll == lr:
        contraction = np.dot(cl, cr)
        if contraction != 0:
            total += contraction * _vac(ops[: i - 1] + ops[i + 1 :], particle)
        sign = particle.exchange_sign
    else:
        sign = 1
    swapped = ops[: i - 1] + (ops[i], ops[i - 1]) + ops[i + 1 :]
    total += sign * _vac(swapped, particle)
    return complex(total)
