"""Single-substep time-Galerkin blocks and a sequential integrator.

A substep holds its free modes (Legendre modes 0..q-n_s) and its
end-of-step side value, (q + 2 - n_s) * d unknowns, with one row per test
mode of order q + 1 - n_s.  The n_s side conditions are substituted, not
solved: the scheme's state_map gives the full coefficients from the free
modes and the side values.  substep_tables owns a substep's time
coefficients: the small dense tables W_M and W_L over its own unknowns
and its earlier side values, whose rows are kron(W_M, M) + kron(W_L, L);
they carry no flux columns.  build_substep_block makes those rows a
SubstepBlock, plain sparse matrices for the standalone solvers below.  A
coupling window lays the same tables along each subdomain's chain of
substeps and puts them on the spatial matrices' triplets itself, with
flux columns that it stacks from the cross_moments table over the
substep edges, the only part that depends on a substep's place in the
window (the table is timepoly's, and the window reads it as
dgit.cross_moments).  assemble_substep, one subdomain's block of an
operator set, stays public; the benchmark's probes wrap it.  Blocks are
solved standalone: solve_substep solves one, and integrate marches one
block of a uniform grid through every step.  solve_substep returns a
substep's coefficients and side value; integrate returns only what it
solves, the free modes and the side values of every step, and
march_coeffs forms the coefficients of the steps a caller reads, as
substep_coeffs does for a window's substeps.  integrate steps a small
system with a dense propagator built once from the block's factor (one
mat-vec per step), and a larger one as solve_substep does (a sparse
history product and a sparse triangular solve per step);
DENSE_PROPAGATOR_ENTRIES sets where.

A block's matrix does not depend on the quadrature of the data terms.
Every load is a Load, factors(t) @ vectors: K time factors times K
spatial vectors.  load_moments, and the window's data rows built from
_chunk_moments, integrate the K factors under exact Gauss rules or
endpoint-trapezoid evaluation, then make one product with the vectors;
trapezoid turns the pinned-endpoint q=1 scheme into classical
Crank-Nicolson.  A load given pointwise, a callable of a 1-D array of
times that returns their (nt, d) values, is the K = d case with identity
vectors, whose moments are those of its values.
solve_substep and integrate use exact Gauss rules, integrate with
load_npts points per step; the quadrature times of many substeps are
evaluated in one call of the factors.  integrate's dense form multiplies
a step's factor moments with A^-1 of each unit moment, solved once, so
its steps form no d-vector moments.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .timepoly import (
    Interval,
    SchemeSpec,
    cross_moments,  # noqa: F401 -- the window's flux table, read as dgit.cross_moments
    derivative_overlap,
    gauss_rule,
    legendre_table,
)

LOAD_QUAD_PTS = 8
#: Values a chunk holds, summed over the arrays it holds per item.
#: integrate takes a chunk of steps at a time: per step, the K factor
#: values at its load_npts Gauss points, its (test_order + 1) K factor
#: moments, its n_own data terms and its n_own solved values.
#: coupling.WindowOperator takes a chunk of windows: per window, its row of
#: data terms and, per load, the factor values and factor moments of its
#: substeps (one factor value per substep edge under trapezoid, where
#: neighbouring substeps share theirs, LOAD_QUAD_PTS per substep under
#: exact).  Each load's factors are called once per chunk.
#: verify.error_norms queries its oracle for a chunk of windows at a time,
#: counting the oracle values a chunk queries.
LOAD_BATCH_VALUES = 2**14
#: integrate steps with a dense propagator when it has at most this many
#: entries, and with the sparse block and its factor above.
DENSE_PROPAGATOR_ENTRIES = 2**16


@dataclasses.dataclass(frozen=True, eq=False)
class Load:
    """A load factors(t) @ vectors: K time factors times K spatial vectors.

    factors maps a 1-D array of nt times to their (nt, K) values (the
    loads that fespace.assemble builds also map a scalar time to (K,)).
    vectors is the (K, d) array, dense or sparse, or None for the identity,
    K = d: a load given by its values.  Called, a load gives its (nt, d)
    values.
    """

    factors: Callable
    vectors: object = None

    def __call__(self, t) -> np.ndarray:
        return self.combine(np.asarray(self.factors(t), dtype=float))

    def count(self, d: int) -> int:
        """K, the number of factors of a load with d-vector values."""
        return d if self.vectors is None else self.vectors.shape[0]

    def combine(self, moments: np.ndarray) -> np.ndarray:
        """(..., K) values or moments of the factors times the vectors: (..., d).

        Each row is its own product, a batched row product or a sparse one,
        so its bits do not depend on the rows computed with it.
        """
        V = self.vectors
        if V is None:
            return moments
        if sp.issparse(V):
            rows = moments.reshape(-1, V.shape[0]) @ V
            return rows.reshape(moments.shape[:-1] + (V.shape[1],))
        return np.matmul(moments[..., None, :], V)[..., 0, :]


def as_load(fn) -> Optional[Load]:
    """fn as a Load: a Load or None as it is, any other callable with identity vectors."""
    return fn if fn is None or isinstance(fn, Load) else Load(fn)


def load_times(quadrature: str, npts: int) -> int:
    """Load times a step adds to a chunk: one edge (trapezoid) or npts Gauss points."""
    return 1 if quadrature == "trapezoid" else npts


def chunk_size(values: int) -> int:
    """Items per chunk when each adds this many values: LOAD_BATCH_VALUES // values, at least 1."""
    return max(1, LOAD_BATCH_VALUES // max(1, values))


def factorize(A: sp.spmatrix):
    """Sparse LU of A; the one place that chooses how mrcouple factorizes.

    The column ordering is minimum degree on A^T + A: window and substep
    matrices are close to structurally symmetric (mass and stiffness blocks
    plus flux rows), where it gives about half the fill of SuperLU's
    default COLAMD at nx >= 32 (0.53x on the nx=32 MMS window, 393,878
    against 745,658 entries; 0.54x on the nx=64 forcing-free window,
    2,244,497 against 4,188,995) and ties on small matrices.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _factor_moments(
    spec: SchemeSpec, edges: np.ndarray, factors: Callable, quadrature: str, npts: int
) -> np.ndarray:
    """(steps, test_order + 1, K) moments of the factors over the steps between edges.

    The factors are evaluated once for the whole run of steps: at every
    step's Gauss points (exact), or at the edges, so that neighbouring
    steps share their endpoint value (trapezoid).
    """
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)[:, None, None]
    t_o = spec.test_order
    if quadrature == "trapezoid":
        vals = factors(edges)
        sign = (-1.0) ** np.arange(t_o + 1)
        return half * (sign[None, :, None] * vals[:-1, None, :] + vals[1:, None, :])
    x, w = gauss_rule(npts)
    ts = a[:, None] + (x + 1.0) * half[:, :, 0]  # (steps, npts)
    vals = factors(ts.ravel())
    vals = vals.reshape(len(a), npts, vals.shape[-1])
    return half * np.einsum("mj,kjd->kmd", legendre_table(t_o, x) * w, vals)


def _chunk_moments(
    spec: SchemeSpec,
    edges: np.ndarray,
    load_fn: Optional[Callable],
    d: int,
    quadrature: str,
    npts: int,
) -> np.ndarray:
    """Data terms of the contiguous steps between edges, one row per step.

    Each row is laid out like load_moments: the step's factor moments
    (_factor_moments, one call of the factors) times the load's vectors.
    """
    load = as_load(load_fn)
    if load is None:
        return np.zeros((len(edges) - 1, (spec.test_order + 1) * d))
    moments = _factor_moments(spec, edges, load.factors, quadrature, npts)
    return load.combine(moments).reshape(len(edges) - 1, -1)


def load_moments(
    spec: SchemeSpec,
    interval: Interval,
    load_fn: Optional[Callable],
    d: int,
    *,
    quadrature: str = "exact",
) -> np.ndarray:
    """Data term of one substep: integral of load(t) against each test mode.

    Laid out like the substep rows, one d-slab per test mode.  load_fn is
    a Load, or a callable of a 1-D array of times giving their (nt, d)
    values; its factors are called once, with all quadrature times
    (LOAD_QUAD_PTS Gauss points).
    Trapezoid quadrature uses endpoint values only, which is the
    classical treatment of forcing data for the pinned-endpoint q=1 scheme.
    """
    edges = np.array([interval.a, interval.b])
    return _chunk_moments(spec, edges, load_fn, d, quadrature, LOAD_QUAD_PTS)[0]


@dataclasses.dataclass
class SubstepBlock:
    """Variational rows of one substep, keyed to the unknowns [c_0..c_{q-n_s}, U].

    matrix couples the substep's own unknowns; prev[j], for j < spec.reach,
    the side value j+1 steps back.  Rows are one d-slab per test mode,
    (q + 2 - n_s) * d in total.
    """

    spec: SchemeSpec
    interval: Interval
    d: int
    matrix: sp.csr_matrix
    prev: list
    _lu: object = dataclasses.field(default=None, repr=False)

    def lu(self):
        if self._lu is None:
            self._lu = factorize(self.matrix)
        return self._lu


def substep_tables(spec: SchemeSpec, interval: Interval) -> tuple:
    """(W_M, W_L): the time tables of one substep's rows, of its mass and of its operator.

    Both are (test_order + 1, test_order + 1 + reach) over the substep's
    own slots (free modes, then its side value) and the side values
    U^{n-1}, ..., U^{n-reach}: W_M = -G^T S + jumps and W_L = K S, with S
    the scheme's state_map, G the derivative overlap and K the mass of the
    Legendre modes over the step.  The substep's rows are
    kron(W_M, M) + kron(W_L, L).
    """
    q, t_o, reach = spec.q, spec.test_order, spec.reach
    own = t_o + 1  # free modes, then the side value
    S = np.pad(spec.state_map, ((0, 0), (0, 1)))[:, : own + reach]  # the columns read
    W_M = -derivative_overlap(q, t_o).T @ S
    W_M[:, own - 1] += 1.0  # P_m(1) U^n
    W_M[:, own] -= (-1.0) ** np.arange(t_o + 1)  # P_m(-1) U^{n-1}
    # integral over the step of P_a P_m: dt / (2m + 1) on the diagonal
    K = np.zeros((t_o + 1, q + 1))
    m = np.arange(min(q, t_o) + 1)
    K[m, m] = interval.length / (2 * m + 1)
    return W_M, K @ S


def build_substep_block(
    M: sp.spmatrix,
    L: Optional[sp.spmatrix],
    spec: SchemeSpec,
    interval: Interval,
) -> SubstepBlock:
    """Assemble the rows of one substep for a system with mass M and operator L.

    Over [own unknowns, U^{n-1}, ..., U^{n-reach}] they are
    kron(W_M, M) + kron(W_L, L), the tables of substep_tables.
    """
    own, reach = spec.test_order + 1, spec.reach
    W_M, W_L = substep_tables(spec, interval)
    rows = sp.kron(W_M, M)
    if L is not None:
        rows = rows + sp.kron(W_L, L)
    rows = rows.tocsc()
    d = M.shape[0]
    matrix = rows[:, : own * d].tocsr()
    prev = [rows[:, (own + j) * d : (own + j + 1) * d].tocsr() for j in range(reach)]
    return SubstepBlock(spec=spec, interval=interval, d=d, matrix=matrix, prev=prev)


def assemble_substep(ops, i: int, spec: SchemeSpec, interval: Interval) -> SubstepBlock:
    """Substep block for subdomain i of an assembled operator set.

    The window operator does not build blocks: it puts the tables of
    substep_tables on the operator set's triplets.
    """
    return build_substep_block(ops.M[i], ops.L[i], spec, interval)


def _subtract_history(block: SubstepBlock, history: Sequence[np.ndarray], rhs: np.ndarray) -> None:
    """rhs -= prev[j] @ history[j] for the spec.reach side values the block reads."""
    reach = block.spec.reach
    if len(history) < reach:
        raise ValueError(f"substep reaches back {reach} side values, history has {len(history)}")
    for prevj, value in zip(block.prev, history):
        rhs -= prevj @ value


def substep_coeffs(spec: SchemeSpec, slots: np.ndarray, past: Sequence[np.ndarray]) -> np.ndarray:
    """Legendre coefficients (n, q + 1, d) of n substeps.

    slots (n, q + 2 - n_s, d) holds their free modes and side values;
    past[l - 1], (n, d), the side value l steps before each substep's own,
    for l = 1..reach.  Each substep is its own matrix product, so batching
    changes no bit.
    """
    S, own = spec.state_map, spec.test_order + 1
    out = S[:, :own] @ slots
    for l, U in enumerate(past[: S.shape[1] - own], start=1):
        out += S[:, own + l - 1, None] * U[:, None, :]
    return out


def march_coeffs(
    spec: SchemeSpec, free: np.ndarray, side_values: np.ndarray, history0: Sequence, steps
) -> np.ndarray:
    """Legendre coefficients (len(steps), q + 1, d) of the steps `steps` of a march.

    free and side_values are what integrate returns, history0 what it was
    given: the side values before the start, newest first, of which a
    scheme reads reach - 1 (none for reach 1).  Step n's own side value is
    side_values[n + 1]; the one l steps before it is side_values[n + 1 - l],
    or history0[l - n - 2] before the start.  The gathered steps go through
    substep_coeffs together, so each step's coefficients are the ones of
    any other batch, bit for bit.  A blown-up march gives inf and nan
    without warnings; the callers check the result and name the phase.
    """
    reach = spec.reach
    if len(history0) < reach - 1:
        raise ValueError(f"substep reaches back {reach} side values, history has {len(history0) + 1}")
    steps = np.asarray(steps)
    slots = np.concatenate((free[steps], side_values[steps + 1][:, None]), axis=1)
    past = []
    for l in range(1, reach + 1):
        k = steps + 1 - l  # the side value's index, negative before the start
        U = side_values[np.maximum(k, 0)]
        for j in np.flatnonzero(k < 0):
            U[j] = history0[-k[j] - 1]
        past.append(U)
    with np.errstate(over="ignore", invalid="ignore"):
        return substep_coeffs(spec, slots, past)


def solve_substep(
    block: SubstepBlock,
    history: Sequence[np.ndarray],
    load_fn: Optional[Callable] = None,
):
    """Solve one substep given its trailing side values (newest first).

    The data term is integrated exactly, as load_moments does.  Returns the
    state's (q + 1, d) Legendre coefficients and the new side value.
    """
    rhs = load_moments(block.spec, block.interval, load_fn, block.d)
    _subtract_history(block, history, rhs)
    slots = block.lu().solve(rhs).reshape(1, -1, block.d)
    past = [value[None] for value in history[: block.spec.reach]]
    return substep_coeffs(block.spec, slots, past)[0], slots[0, -1]


def side_condition_residual(
    spec: SchemeSpec, interval: Interval, coeffs: np.ndarray, side_values: Sequence[np.ndarray]
) -> float:
    """Max violation of the side conditions by the state with these coefficients on interval.

    side_values = [U^n, U^{n-1}, ...].
    """
    tab = legendre_table(len(coeffs) - 1, interval.to_reference(spec.side_times(interval)))
    values = np.tensordot(tab, coeffs, axes=(0, 0))  # (n_s, ncols)
    worst = 0.0
    for k in range(spec.n_s):
        target = np.zeros(coeffs.shape[1])
        for l in range(spec.k_s + 1):
            if l < len(side_values):
                target += spec.D[k, l] * side_values[l]
        worst = max(worst, float(np.max(np.abs(values[k] - target))))
    return worst


def _sparse_steps(
    block: SubstepBlock, free: np.ndarray, sides: np.ndarray, load: Optional[Load]
) -> Callable:
    """Step as solve_substep does: subtract the history, then solve with the factor."""
    spec, d, lu = block.spec, block.d, block.lu()
    reach, n_own = spec.reach, block.matrix.shape[0]

    def advance(moments, n0, count):
        if load is None:
            rhs_rows = np.zeros((count, n_own))
        else:
            rhs_rows = load.combine(moments).reshape(count, n_own)
        for i, rhs in enumerate(rhs_rows):
            n = n0 + i  # the step reads sides[n : n + reach] and writes sides[n + reach]
            _subtract_history(block, sides[n : n + reach][::-1], rhs)
            slots = lu.solve(rhs).reshape(-1, d)
            free[n], sides[n + reach] = slots[:-1], slots[-1]

    return advance


def _dense_steps(
    block: SubstepBlock, free: np.ndarray, sides: np.ndarray, load: Optional[Load]
) -> Callable:
    """Step with the dense propagator G = A^-1 [P_reach .. P_1] and A^-1 of the unit moments.

    A step is s_n = A^-1 m_n - G [U_{n-reach}; ..; U_{n-1}]: G's columns
    run oldest first, so the history is a contiguous slice of sides.  With
    m_n the step's factor moments c_{a,k} times the unit moments e_a (x)
    V_k (V_k row k of the load's vectors, e_a test mode a), A^-1 m_n is
    c_n times the rows A^-1 (e_a (x) V_k), solved once: (test_order + 1) K
    of them, or A^-1 itself for identity vectors.  The step loop computes
    only the side value, from G's last d rows; a chunk's data terms and
    its free modes are batched products of row mat-vecs, so a step's are
    the same however the steps are chunked.
    """
    spec, d, lu = block.spec, block.d, block.lu()
    reach, n_own = spec.reach, block.matrix.shape[0]
    G = lu.solve(np.hstack([p.toarray() for p in block.prev[::-1]]))
    G_side, G_rest = G[-d:], G[:-d]
    unit = None
    if load is not None:
        V = load.vectors
        if V is None:
            units = np.eye(n_own)
        else:
            V = V.toarray() if sp.issparse(V) else np.asarray(V)
            units = np.kron(np.eye(spec.test_order + 1), V.T)
        unit = lu.solve(units).T
    # row n: the side values step n reads, U_{n-reach} .. U_{n-1}
    history = np.lib.stride_tricks.sliding_window_view(sides.reshape(-1), reach * d)[::d]

    def advance(moments, n0, count):
        if unit is None:
            data = np.zeros((count, n_own))
        else:
            data = np.matmul(moments.reshape(count, 1, -1), unit)[:, 0]
        data_side, new = data[:, -d:], sides[n0 + reach : n0 + reach + count]
        for i, past in enumerate(history[n0 : n0 + count]):
            np.subtract(data_side[i], G_side @ past, out=new[i])
        if len(G_rest):
            rest = data[:, :-d] - np.matmul(G_rest, history[n0 : n0 + count, :, None])[:, :, 0]
            free[n0 : n0 + count] = rest.reshape(count, -1, d)

    return advance


def integrate(
    M: sp.spmatrix,
    L: Optional[sp.spmatrix],
    load_fn: Optional[Callable],
    u0: np.ndarray,
    spec: SchemeSpec,
    boundaries: np.ndarray,
    *,
    history0: Optional[Sequence[np.ndarray]] = None,
    load_npts: int = LOAD_QUAD_PTS,
):
    """March a single linear system M u' = -L u + load through uniform time steps.

    boundaries are the step edges, at least two; every step has the first
    step's length to within 1e-12 relative, so one block and one
    factorization serve them all.  The data terms are integrated exactly,
    with load_npts Gauss points per step, for a chunk of steps at a time
    (sized by LOAD_BATCH_VALUES), with one call of the load's factors per
    chunk.  Returns what the steps solve, (free, side_values): free[n],
    shape (test_order, d), the free modes of the state on (boundaries[n],
    boundaries[n+1]), empty for Crank-Nicolson, whose side conditions pin
    both ends, and side_values[n] the state at boundaries[n]
    (side_values[0] = u0).  march_coeffs forms the Legendre coefficients
    of the steps a caller reads from them and history0.

    A step solves A s_n = m_n - sum_j P_j U_{n-j}, in one of two forms:
    - sparse: subtract the history with the block's sparse prev matrices
      and solve with its factor, as solve_substep does, bit for bit;
    - dense, when the propagator G = A^-1 [P_reach .. P_1] has at most
      DENSE_PROPAGATOR_ENTRIES entries (n_own * reach * d, n_own =
      (test_order + 1) * d): G and A^-1 of the load's unit moments are
      built once from the factor, a chunk's data terms are one batched
      product of its factor moments with the latter, and a step is one
      dense mat-vec of G's side-value rows on the side values, ending
      within roundoff of the sparse form (1e-14 to 5e-14 relative after
      1,024 steps in the runs below).
    Measured in one session on a 2-core Intel Xeon guest with one BLAS
    thread: microseconds per step, sparse -> dense, over 1,024 steps of the
    MMS coupled system at nx = 8, 10, 12 and 16 with its load (4 Gauss
    points), G's entries in parentheses; * marks the form the rule picks.

        d    crank-nicolson      cg2                 dg1                 dg2
        112  31 -> 18*  (13k)    61 -> 32*  (25k)    49 -> 35*  (38k)    77 -> 73*  (50k)
        180  33 -> 23*  (32k)    57 -> 52*  (65k)    73* -> 119 (97k)    134* -> 279 (130k)
        264  48* -> 42  (70k)    93* -> 125 (139k)   129* -> 385 (209k)  385* -> 628 (279k)
        480  70* -> 124 (230k)   173* -> 570 (461k)  189* -> 1173 (691k) 472* -> 2324 (922k)

    The dense form wins or ties up to 2^16 entries and loses from about
    10^5; A^-1, (test_order + 1) / reach times G's size, is what makes dg2
    tie at d = 112.
    """
    boundaries = np.asarray(boundaries, dtype=float)
    n_steps = len(boundaries) - 1
    if n_steps < 1:
        raise ValueError("integrate needs at least one step")
    block = build_substep_block(M, L, spec, Interval(boundaries[0], boundaries[1]))
    lengths = np.diff(boundaries)
    dt = block.interval.length
    if not np.all(np.abs(lengths - dt) <= 1e-12 * np.maximum(1.0, lengths)):
        raise ValueError("integrate needs uniform steps: a step length differs from the first")
    reach, d = spec.reach, M.shape[0]
    # side values in time order: the reach - 1 before u0 from history0, u0, one per step
    lead = list(history0 or [])[: reach - 1][::-1]
    if len(lead) + 1 < reach:
        raise ValueError(f"substep reaches back {reach} side values, history has {len(lead) + 1}")
    sides = np.empty((reach + n_steps, d))
    sides[: reach - 1], sides[reach - 1] = np.reshape(lead, (-1, d)), u0
    dense = block.matrix.shape[0] * reach * d <= DENSE_PROPAGATOR_ENTRIES
    load = as_load(load_fn)
    free = np.empty((n_steps, spec.test_order, d))
    advance = (_dense_steps if dense else _sparse_steps)(block, free, sides, load)
    own = spec.test_order + 1
    K = 0 if load is None else load.count(d)
    chunk = chunk_size(load_npts * K + own * (K + 2 * d))
    moments = None
    for n0 in range(0, n_steps, chunk):
        n1 = min(n0 + chunk, n_steps)
        if load is not None:
            edges = boundaries[n0 : n1 + 1]
            moments = _factor_moments(spec, edges, load.factors, "exact", load_npts)
        # a march that blows up runs on through inf and nan without
        # warnings; the callers check its result and name the phase
        with np.errstate(over="ignore", invalid="ignore"):
            advance(moments, n0, n1 - n0)
    return free, sides[reach - 1 :]
