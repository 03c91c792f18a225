"""Multi-particle state spaces over M optical modes.

Provides ordered Fock bases for bosons, fermions, and distinguishable
particles, the lifting of single-particle unitaries to multi-particle
operators (permanents / determinants / per-label products), the
one-body tensor T[s, t, a, b] = <s| a_a^dag a_b |t> that lifts every
one-body operator, and a brute-force vacuum-expectation evaluator for
ladder-operator strings.  Unitaries are lifted two ways:
:func:`lift_unitary` validates one matrix and evaluates Ryser
permanents entry by entry, and :func:`lift_unitary_batch` sums the N!
permutation products of a whole stack at once, for just the block of
entries a caller reads.  The unitary lifts, the one-body tensor and
the vacuum-expectation evaluator are built independently of each other
so that they can be used to validate each other.

Conventions
-----------
* Modes are indexed 0..M-1.
* Boson and fermion states are stored as per-mode occupation counts;
  distinguishable states as one mode index per particle label.
* Normalized kets: |n> = prod_k (a_k^dag)^{n_k} / sqrt(n_k!) |0>.
  Fermion reference kets apply creation operators in increasing mode
  order.
* ``lift_hamiltonian(h)`` represents sum_{jk} h[j,k] a_j^dag a_k (the
  one-body tensor contracted with h), so it generates
  ``lift_unitary(expm(-1j*delta*h))``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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

    @property
    def particle_count(self) -> int:
        if self.particle.kind == DISTINGUISHABLE:
            return len(self.occupations)
        return sum(self.occupations)

    def mode_list(self) -> tuple[int, ...]:
        """Occupied modes with multiplicity.

        Bosons/fermions: ascending; distinguishable: in label order.
        """
        if self.particle.kind == DISTINGUISHABLE:
            return self.occupations
        out = []
        for mode, n in enumerate(self.occupations):
            out.extend([mode] * n)
        return tuple(out)

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
    _index: dict = field(repr=False, hash=False, compare=False, default_factory=dict)
    _cache: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, state) -> int:
        occ = state.occupations if isinstance(state, OccupationState) else tuple(state)
        try:
            return self._index[occ]
        except KeyError:
            raise KeyError(f"state {occ} not in basis") from None

    def state(self, occupations) -> OccupationState:
        return self.states[self.index_of(occupations)]

    def vector(self, state) -> np.ndarray:
        """Unit basis vector for the given state."""
        v = np.zeros(self.size, dtype=complex)
        v[self.index_of(state)] = 1.0
        return v


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
        occs = []
        if particle.kind == BOSON:
            for modes_combo in itertools.combinations_with_replacement(range(modes), particles):
                occ = [0] * modes
                for m in modes_combo:
                    occ[m] += 1
                occs.append(tuple(occ))
        else:
            for modes_combo in itertools.combinations(range(modes), particles):
                occ = [0] * modes
                for m in modes_combo:
                    occ[m] = 1
                occs.append(tuple(occ))
        occs.sort(reverse=True)

    states = tuple(OccupationState(particle, modes, occ) for occ in occs)
    expected = basis_size(modes, particles, particle)
    assert len(states) == expected, "basis size mismatch"
    basis = FockBasis(particle, modes, particles, states)
    basis._index.update({s.occupations: i for i, s in enumerate(states)})
    return basis


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) < tol


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return np.max(np.abs(m.conj().T @ m - eye)) < tol


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
        if gray & changed:
            col_sum += m[:, j]
            sign_size = -sign_size
        else:
            col_sum -= m[:, j]
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


def _as_label_matrices(u, particle: ParticleType) -> dict:
    if isinstance(u, dict):
        missing = set(particle.labels) - set(u)
        if missing:
            raise ValueError(f"no matrix for labels {sorted(missing)}")
        return {lab: np.asarray(u[lab], dtype=complex) for lab in particle.labels}
    u = np.asarray(u, dtype=complex)
    return {lab: u for lab in particle.labels}


def lift_unitary(u, basis: FockBasis) -> np.ndarray:
    """Lift a single-particle M x M unitary to the N-particle basis.

    Bosons: entries are permanents of the occupation-restricted
    submatrix divided by sqrt(prod n_out! * prod n_in!).  Fermions:
    determinants.  Distinguishable: products of per-label entries
    (pass a dict ``{label: matrix}`` to use different matrices per
    label).
    """
    if basis.particle.kind == DISTINGUISHABLE:
        mats = _as_label_matrices(u, basis.particle)
        for lab, m in mats.items():
            if m.shape != (basis.modes, basis.modes):
                raise ValueError(f"matrix for label {lab!r} has wrong shape")
            if not is_unitary(m):
                raise ValueError(f"matrix for label {lab!r} is not unitary within {UNITARY_TOL}")
        out = np.ones((basis.size, basis.size), dtype=complex)
        for li, lab in enumerate(basis.particle.labels):
            m = mats[lab]
            rows = np.array([s.occupations[li] for s in basis.states])
            out = out * m[np.ix_(rows, rows)]
        return out

    u = np.asarray(u, dtype=complex)
    if u.shape != (basis.modes, basis.modes):
        raise ValueError("matrix dimension must equal the basis mode count")
    if not is_unitary(u):
        raise ValueError(f"input matrix is not unitary within {UNITARY_TOL}")

    out = np.zeros((basis.size, basis.size), dtype=complex)
    mode_lists = [s.mode_list() for s in basis.states]
    norms = np.array([math.sqrt(s.norm_factorial()) for s in basis.states])
    for col, cols_modes in enumerate(mode_lists):
        sub_cols = u[:, cols_modes]
        for row, rows_modes in enumerate(mode_lists):
            block = sub_cols[rows_modes, :]
            if basis.particle.kind == BOSON:
                amp = permanent(block) / (norms[row] * norms[col])
            else:
                amp = np.linalg.det(block)
            out[row, col] = amp
    return out


def lift_unitary_batch(u_batch: np.ndarray, basis: FockBasis, rows=None, cols=None) -> np.ndarray:
    """Lift a stack of single-particle unitaries: (Z, M, M) -> (Z, R, C).

    Returns the block <rows| lift(U_z) |cols> for the basis indices
    ``rows`` and ``cols`` (default: the whole basis, giving (Z, S, S));
    only that block is allocated.  An entry <s|lift(U)|t> sums
    sign(sigma) prod_i U[s_i, t_sigma(i)] over the permutations sigma of
    the occupied modes (every sigma for bosons, with sign +1, and for
    fermions, with its parity; the identity alone for distinguishable
    particles) and divides by sqrt(prod n_s! prod n_t!).  Inputs are
    assumed unitary (use :func:`lift_unitary` when validation is wanted).
    """
    u = np.asarray(u_batch, dtype=complex)
    if u.ndim != 3 or u.shape[1:] != (basis.modes, basis.modes):
        raise ValueError("expected a (Z, M, M) stack of matrices")
    n = basis.particles
    rows = np.arange(basis.size) if rows is None else np.asarray(rows, dtype=int)
    cols = np.arange(basis.size) if cols is None else np.asarray(cols, dtype=int)
    modes = np.array([s.mode_list() for s in basis.states], dtype=int)
    norms = np.sqrt([s.norm_factorial() for s in basis.states])
    r, c = modes[rows], modes[cols]
    perms = ([tuple(range(n))] if basis.particle.kind == DISTINGUISHABLE
             else itertools.permutations(range(n)))
    out = np.zeros((u.shape[0], len(rows), len(cols)), dtype=complex)
    for perm in perms:
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        sign = -1 if basis.particle.kind == FERMION and inversions % 2 else 1
        out += math.prod((u[:, r[:, i, None], c[None, :, j]] for i, j in enumerate(perm)),
                         start=sign)
    return out / np.outer(norms[rows], norms[cols])


def _annihilate(occ: tuple, mode: int, kind: str):
    """Apply a_mode; returns (factor, new_occupations) or None."""
    if kind == BOSON:
        n = occ[mode]
        if n == 0:
            return None
        new = list(occ)
        new[mode] = n - 1
        return math.sqrt(n), tuple(new)
    if occ[mode] == 0:
        return None
    sign = -1.0 if sum(occ[:mode]) % 2 else 1.0
    new = list(occ)
    new[mode] = 0
    return sign, tuple(new)


def _create(occ: tuple, mode: int, kind: str):
    if kind == BOSON:
        n = occ[mode]
        new = list(occ)
        new[mode] = n + 1
        return math.sqrt(n + 1), tuple(new)
    if occ[mode] == 1:
        return None
    sign = -1.0 if sum(occ[:mode]) % 2 else 1.0
    new = list(occ)
    new[mode] = 1
    return sign, tuple(new)


def one_body_tensor(basis: FockBasis) -> np.ndarray:
    """T[s, t, a, b] = <s| a_a^dag a_b |t> on the basis, cached on it.

    Built once from the ladder rules (for distinguishable particles, by
    moving each label in turn from mode b to mode a), so any one-body
    operator sum_ab X[a,b] a_a^dag a_b is T contracted with X.  The
    entries are real; the cached array is read-only.
    """
    cached = basis._cache.get("one_body")
    if cached is not None:
        return cached
    m = basis.modes
    t = np.zeros((basis.size, basis.size, m, m))
    kind = basis.particle.kind
    for col, st in enumerate(basis.states):
        occ = st.occupations
        if kind == DISTINGUISHABLE:
            for li, b in enumerate(occ):
                for a in range(m):
                    t[basis.index_of(occ[:li] + (a,) + occ[li + 1 :]), col, a, b] += 1.0
            continue
        for b in range(m):
            down = _annihilate(occ, b, kind)
            if down is None:
                continue
            f1, occ1 = down
            for a in range(m):
                up = _create(occ1, a, kind)
                if up is not None:
                    f2, occ2 = up
                    t[basis.index_of(occ2), col, a, b] = f1 * f2
    t.setflags(write=False)
    basis._cache["one_body"] = t
    return t


def lift_hamiltonian(h, basis: FockBasis) -> np.ndarray:
    """Represent sum_{jk} h[j,k] a_j^dag a_k on the N-particle basis.

    For distinguishable particles the same single-particle matrix acts
    on every label.  The result is Hermitian whenever ``h`` is.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (basis.modes, basis.modes):
        raise ValueError("matrix dimension must equal the basis mode count")
    if not is_hermitian(h):
        raise ValueError(f"input matrix is not Hermitian within {HERMITIAN_TOL}")
    return np.tensordot(one_body_tensor(basis), h, axes=([2, 3], [0, 1]))


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
