"""Single-substep time-Galerkin blocks and a sequential integrator.

A substep holds its free modes (Legendre modes 0..q-n_s) and its
end-of-step side value, (q + 2 - n_s) * d unknowns, with one row per test
mode of order q + 1 - n_s.  The n_s side conditions are substituted, not
solved: the scheme's state_map gives the full coefficients from the free
modes and the side values.  Blocks are plain sparse matrices over a
substep's own unknowns and its earlier side values; they carry no flux
columns.  A coupling window chains one block per subdomain: the
block's matrix on the diagonal of every substep, each prev[j] shifted onto
the side value j+1 substeps back, and flux columns that the window stacks
from the cross_moments table over the substep edges, the only part that
depends on a substep's place in the window (the table is timepoly's, and
the window reads it as dgit.cross_moments).  Blocks can also be solved
standalone: solve_substep solves one, and integrate marches one block of
a uniform grid through every step; both return plain coefficient and
side-value arrays.  integrate steps a small system with a dense
propagator built once from the block's factor (one mat-vec per step), and
a larger one as solve_substep does (a sparse history product and a
sparse triangular solve per step); DENSE_PROPAGATOR_ENTRIES sets where.

A block's matrix does not depend on the quadrature of the data terms.
load_moments, and the window's data rows built from _chunk_moments, take
exact Gauss rules or endpoint-trapezoid evaluation; the latter turns the
pinned-endpoint q=1 scheme into classical Crank-Nicolson.  solve_substep
and integrate use exact Gauss rules, integrate with load_npts points per
step.  A load takes a 1-D array of times and returns their (nt, d)
values, so the quadrature times of many substeps are evaluated in one
call.
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
#: Values per load call, counted as the quadrature evaluates them:
#: one load value per step edge under trapezoid (neighbouring steps share
#: theirs), npts per step under exact quadrature.  integrate evaluates the
#: data terms of chunk_size(load_npts * d) steps in one load call,
#: coupling.WindowOperator those of a chunk of windows, counting every
#: substep of both subdomains, and verify.error_norms queries its oracle
#: for a chunk of windows at a time.
LOAD_BATCH_VALUES = 2**14
#: integrate steps with a dense propagator when it has at most this many
#: entries, and with the sparse block and its factor above.
DENSE_PROPAGATOR_ENTRIES = 2**16


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


def _chunk_moments(
    spec: SchemeSpec,
    edges: np.ndarray,
    load_fn: Optional[Callable],
    d: int,
    quadrature: str,
    npts: int,
) -> np.ndarray:
    """Data terms of the contiguous steps between edges, one row per step.

    Each row is laid out like load_moments.  The load is evaluated once for
    the whole run of steps: at every step's Gauss points (exact), or at the
    edges, so that neighbouring steps share their endpoint value (trapezoid).
    """
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)[:, None, None]
    t_o = spec.test_order
    if load_fn is None:
        return np.zeros((len(a), (t_o + 1) * d))
    if quadrature == "trapezoid":
        vals = load_fn(edges)
        sign = (-1.0) ** np.arange(t_o + 1)
        out = half * (sign[None, :, None] * vals[:-1, None, :] + vals[1:, None, :])
    else:
        x, w = gauss_rule(npts)
        ts = a[:, None] + (x + 1.0) * half[:, :, 0]  # (steps, npts)
        vals = load_fn(ts.ravel()).reshape(len(a), npts, d)
        out = half * np.einsum("mj,kjd->kmd", legendre_table(t_o, x) * w, vals)
    return out.reshape(len(a), -1)


def load_moments(
    spec: SchemeSpec,
    interval: Interval,
    load_fn: Optional[Callable],
    d: int,
    *,
    quadrature: str = "exact",
) -> np.ndarray:
    """Data term of one substep: integral of load(t) against each test mode.

    Laid out like the substep rows, one d-slab per test mode.  load_fn
    maps a 1-D array of times to their (nt, d) load values and is called
    once, with all quadrature times (LOAD_QUAD_PTS Gauss points).
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


def build_substep_block(
    M: sp.spmatrix,
    L: Optional[sp.spmatrix],
    spec: SchemeSpec,
    interval: Interval,
) -> SubstepBlock:
    """Assemble the rows of one substep for a system with mass M and operator L.

    Over [own unknowns, U^{n-1}, ..., U^{n-reach}] they are
    kron(-G^T S + jumps, M) + kron(K S, L), S the scheme's state_map.
    """
    q, t_o, reach = spec.q, spec.test_order, spec.reach
    own = t_o + 1  # free modes, then the side value
    S = np.pad(spec.state_map, ((0, 0), (0, 1)))[:, : own + reach]  # the columns read
    W_M = -derivative_overlap(q, t_o).T @ S
    W_M[:, own - 1] += 1.0  # P_m(1) U^n
    W_M[:, own] -= (-1.0) ** np.arange(t_o + 1)  # P_m(-1) U^{n-1}
    rows = sp.kron(W_M, M)
    if L is not None:
        # integral over the step of P_a P_m: dt / (2m + 1) on the diagonal
        K = np.zeros((t_o + 1, q + 1))
        m = np.arange(min(q, t_o) + 1)
        K[m, m] = interval.length / (2 * m + 1)
        rows = rows + sp.kron(K @ S, L)
    rows = rows.tocsc()
    d = M.shape[0]
    matrix = rows[:, : own * d].tocsr()
    prev = [rows[:, (own + j) * d : (own + j + 1) * d].tocsr() for j in range(reach)]
    return SubstepBlock(spec=spec, interval=interval, d=d, matrix=matrix, prev=prev)


def assemble_substep(ops, i: int, spec: SchemeSpec, interval: Interval) -> SubstepBlock:
    """Substep block for subdomain i of an assembled operator set."""
    return build_substep_block(ops.M[i], ops.L[i], spec, interval)


def _subtract_history(block: SubstepBlock, history: Sequence[np.ndarray], rhs: np.ndarray) -> None:
    """rhs -= prev[j] @ history[j] for the spec.reach side values the block reads."""
    reach = block.spec.reach
    if len(history) < reach:
        raise ValueError(f"substep reaches back {reach} side values, history has {len(history)}")
    for prevj, value in zip(block.prev, history):
        rhs -= prevj @ value


def substep_coeffs(spec: SchemeSpec, slots: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Legendre coefficients (n, q + 1, d) of n consecutive substeps.

    slots (n, q + 2 - n_s, d) holds their free modes and side values; U
    (n + reach, d) the side values in time order, the substeps' own last.
    Each substep is its own matrix product, so batching changes no bit.
    """
    S, own, reach = spec.state_map, spec.test_order + 1, spec.reach
    out = S[:, :own] @ slots
    for l in range(1, min(reach, S.shape[1] - own) + 1):
        out += S[:, own + l - 1, None] * U[reach - l : reach - l + len(slots), None, :]
    return out


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
    U = np.vstack([*history[: block.spec.reach][::-1], slots[0, -1]])
    return substep_coeffs(block.spec, slots, U)[0], slots[0, -1]


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


def _sparse_steps(block: SubstepBlock, sides: np.ndarray) -> Callable:
    """Step as solve_substep does: subtract the history, then solve with the factor."""
    reach, d, lu = block.spec.reach, block.d, block.lu()

    def advance(moments, n0, slots):
        for i, rhs in enumerate(moments):
            n = n0 + i  # the step reads sides[n : n + reach] and writes sides[n + reach]
            _subtract_history(block, sides[n : n + reach][::-1], rhs)
            slots[i] = lu.solve(rhs).reshape(-1, d)
            sides[n + reach] = slots[i, -1]

    return advance


def _dense_steps(block: SubstepBlock, sides: np.ndarray) -> Callable:
    """Step with the dense propagator G = A^-1 [P_reach .. P_1] and A^-1.

    A step is s_n = A^-1 m_n - G [U_{n-reach}; ..; U_{n-1}]: G's columns
    run oldest first, so the history is a contiguous slice of sides.  The
    data terms A^-1 m_n of a chunk are one batched product of row
    mat-vecs, so a step's are the same however the steps are chunked.
    """
    reach, d, lu = block.spec.reach, block.d, block.lu()
    G = lu.solve(np.hstack([p.toarray() for p in block.prev[::-1]]))
    inv_t = lu.solve(np.eye(block.matrix.shape[0])).T
    flat = sides.reshape(-1)

    def advance(moments, n0, slots):
        data = np.matmul(moments[:, None, :], inv_t)[:, 0]
        own = slots.reshape(len(slots), -1)
        for i in range(len(moments)):
            n = n0 + i
            np.subtract(data[i], G @ flat[n * d : (n + reach) * d], out=own[i])
            sides[n + reach] = slots[i, -1]

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
    with load_npts Gauss points per step, for a chunk of steps at a time,
    with one load call per chunk.  Returns (coeffs, side_values):
    coeffs[n], shape (q+1, d), the Legendre coefficients of the state on
    (boundaries[n], boundaries[n+1]), and side_values[n] the state at
    boundaries[n] (side_values[0] = u0).

    A step solves A s_n = m_n - sum_j P_j U_{n-j}, in one of two forms:
    - sparse: subtract the history with the block's sparse prev matrices
      and solve with its factor, as solve_substep does, bit for bit;
    - dense, when the propagator G = A^-1 [P_reach .. P_1] has at most
      DENSE_PROPAGATOR_ENTRIES entries (n_own * reach * d, n_own =
      (test_order + 1) * d): G and A^-1 are built once from the factor,
      and a step is one dense mat-vec of G on the side values, ending
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
    advance = (_dense_steps if dense else _sparse_steps)(block, sides)
    chunk = chunk_size(load_npts * d)
    coeffs = np.empty((n_steps, spec.q + 1, d))
    slots = np.empty((min(chunk, n_steps), spec.test_order + 1, d))
    for n0 in range(0, n_steps, chunk):
        n1 = min(n0 + chunk, n_steps)
        moments = _chunk_moments(spec, boundaries[n0 : n1 + 1], load_fn, d, "exact", load_npts)
        # a march that blows up runs on through inf and nan without
        # warnings; the callers check its result and name the phase
        with np.errstate(over="ignore", invalid="ignore"):
            advance(moments, n0, slots[: n1 - n0])
            coeffs[n0:n1] = substep_coeffs(spec, slots[: n1 - n0], sides[n0 : n1 + reach])
    return coeffs, sides[reach - 1 :]
