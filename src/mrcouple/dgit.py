"""Single-substep time-Galerkin blocks and a sequential integrator.

A substep holds one polynomial state of order q plus one end-of-step
side value, constrained by n_s pointwise side conditions and by
variational rows tested against polynomials of order q + 1 - n_s; row
and unknown counts both equal (q + 2) * d.  Blocks are plain sparse
matrices over a substep's own unknowns and its earlier side values; they
carry no flux columns.  A coupling window chains one block per
subdomain: the block's matrix on the diagonal of every substep, each
prev[j] shifted onto the side value j+1 substeps back, and flux columns
that the window stacks from the cross_moments table over the substep
edges, the only part that depends on a substep's place in the window.
Blocks can also be solved standalone: solve_substep solves one, and
integrate marches one block of a uniform grid through every step,
returning plain coefficient and side-value arrays.

Quadrature of the data terms is switchable between exact Gauss rules
and endpoint-trapezoid evaluation; the latter turns the pinned-endpoint
q=1 scheme into classical Crank-Nicolson.  A load marked with batched()
is evaluated at all quadrature times of many substeps in one call; any
other load callable is called once per time.
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
    TimePoly,
    derivative_overlap,
    gauss_rule,
    legendre_table,
    points_for_degree,
)

LOAD_QUAD_PTS = 8
#: Load values per batched evaluation: integrate evaluates the data terms of
#: max(1, LOAD_BATCH_VALUES // (npts * d)) steps in one load call.
LOAD_BATCH_VALUES = 2**14


def _empty(rows: int, cols: int) -> sp.csr_matrix:
    return sp.csr_matrix((rows, cols))


def factorize(A: sp.spmatrix):
    """Sparse LU of A; the one place that chooses how mrcouple factorizes.

    The column ordering is minimum degree on A^T + A: window and substep
    matrices are close to structurally symmetric (mass and stiffness blocks
    plus flux rows), where it gives less than half the fill of SuperLU's
    default COLAMD at nx >= 32 and ties on small matrices.
    """
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")


def cross_moments(
    edges: np.ndarray, window: Interval, order_sub: int, order_win: int, quadrature: str = "exact"
) -> np.ndarray:
    """X[n, a, b] = integral over substep n of P_a(substep) * P_b(window) dt.

    Substep n runs from edges[n] to edges[n + 1]; the table couples
    window-scale flux modes to substep-scale test and trial modes.  The
    exact rule is a Gauss rule exact for the polynomial integrand; the
    trapezoid rule replaces each substep integral by dt/2 * [value(a) +
    value(b)], equal to the exact table whenever the integrand has degree
    <= 1.  Shape (M, order_sub + 1, order_win + 1).
    """
    a, b = edges[:-1, None], edges[1:, None]
    length = b - a
    if quadrature == "trapezoid":
        t, w = np.hstack([a, b]), 0.5 * length * np.ones(2)
    else:
        x, w = gauss_rule(points_for_degree(order_sub + order_win))
        t, w = a + 0.5 * (x + 1.0) * length, 0.5 * length * w
    tab_s = legendre_table(order_sub, 2.0 * (t - a) / length - 1.0)  # (order_sub+1, M, pts)
    tab_w = legendre_table(order_win, window.to_reference(t))
    return np.matmul(tab_s.transpose(1, 0, 2) * w[:, None, :], tab_w.transpose(1, 2, 0))


def batched(load_fn: Callable) -> Callable:
    """Declare that load_fn also takes a 1-D array of times, returning (nt, d).

    A scalar time must still give the (d,) vector.  Returns load_fn itself.
    """
    load_fn.batched = True
    return load_fn


def _load_values(load_fn: Callable, ts: np.ndarray) -> np.ndarray:
    """Values of a load at the 1-D array of times ts, shape (len(ts), d).

    One call for a batched load, one call per time otherwise (where a
    scalar value stands for a load vector of length 1).
    """
    if getattr(load_fn, "batched", False) is True:
        return np.asarray(load_fn(ts), dtype=float)
    return np.stack([np.asarray(load_fn(t), dtype=float) for t in ts]).reshape(len(ts), -1)


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
    out = np.zeros((len(a), spec.q + 2, d))
    if load_fn is None:
        return out.reshape(len(a), -1)
    t_o, base = spec.test_order, spec.n_s
    if quadrature == "trapezoid":
        vals = _load_values(load_fn, edges)
        sign = (-1.0) ** np.arange(t_o + 1)
        out[:, base:] = half * (sign[None, :, None] * vals[:-1, None, :] + vals[1:, None, :])
    else:
        x, w = gauss_rule(npts)
        ts = a[:, None] + (x + 1.0) * half[:, :, 0]  # (steps, npts)
        vals = _load_values(load_fn, ts.ravel()).reshape(len(a), npts, d)
        out[:, base:] = half * np.einsum("mj,kjd->kmd", legendre_table(t_o, x) * w, vals)
    return out.reshape(len(a), -1)


def load_moments(
    spec: SchemeSpec,
    interval: Interval,
    load_fn: Optional[Callable],
    d: int,
    *,
    quadrature: str = "exact",
    npts: int = LOAD_QUAD_PTS,
) -> np.ndarray:
    """Data term of one substep: integral of load(t) against each test mode.

    Laid out like the substep rows (side rows zero, then one d-slab per
    test mode).  load_fn maps a time to the (d,) load vector; a load marked
    with batched() is called once with all quadrature times, any other
    callable once per time.  Trapezoid quadrature uses endpoint values
    only, which is the classical treatment of forcing data for the
    pinned-endpoint q=1 scheme.
    """
    edges = np.array([interval.a, interval.b])
    return _chunk_moments(spec, edges, load_fn, d, quadrature, npts)[0]


@dataclasses.dataclass
class SubstepBlock:
    """Linear rows of one substep, keyed to the unknowns [c_0..c_q, U].

    matrix couples the substep's own unknowns; prev[j] the side value
    j+1 steps back.  Rows are ordered side conditions first, variational
    rows after, (q + 2) * d in total.  quadrature is the rule of the data
    terms that solve_substep integrates.
    """

    spec: SchemeSpec
    interval: Interval
    d: int
    quadrature: str
    matrix: sp.csr_matrix
    prev: list
    _lu: object = dataclasses.field(default=None, repr=False)

    def lu(self):
        if self._lu is None:
            self._lu = factorize(self.matrix)
        return self._lu


def operator_weights(spec: SchemeSpec, dt: float) -> np.ndarray:
    """K[m, a] = integral over a step of length dt of P_a(t) P_m(t), (test_order+1, q+1).

    The operator term of a substep's variational rows is kron(K, L).
    """
    K = np.zeros((spec.test_order + 1, spec.q + 1))
    for m in range(min(spec.q, spec.test_order) + 1):
        K[m, m] = dt / (2 * m + 1)
    return K


def build_substep_block(
    M: sp.spmatrix,
    L: Optional[sp.spmatrix],
    spec: SchemeSpec,
    interval: Interval,
    *,
    quadrature: str = "exact",
) -> SubstepBlock:
    """Assemble the rows of one substep for a system with mass M and operator L.

    The operator term enters the variational rows with the weights of
    operator_weights, which is how a window solver can split it off the
    assembled matrix.
    """
    if quadrature not in ("exact", "trapezoid"):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    q, n_s, t_o = spec.q, spec.n_s, spec.test_order
    d = M.shape[0]
    dt = interval.length
    I_d = sp.identity(d, format="csr")

    # Side rows: values of the modal expansion at the side nodes vs side values.
    if n_s:
        x = 2.0 * np.asarray(spec.thetas) - 1.0
        Psi = legendre_table(q, x).T  # (n_s, q+1)
        side_c = sp.kron(Psi, I_d)
        side_U = sp.kron(-spec.D[:, :1], I_d)
    else:
        side_c = _empty(0, (q + 1) * d)
        side_U = _empty(0, d)

    # Variational rows: mass/derivative structure, operator term, U coupling.
    G = derivative_overlap(q, t_o)  # (q+1, t_o+1)
    K_M = -G.T  # (t_o+1, q+1)
    var_c = sp.kron(K_M, M)
    if L is not None:
        var_c = var_c + sp.kron(operator_weights(spec, dt), L)
    var_U = sp.kron(np.ones((t_o + 1, 1)), M)

    matrix = sp.bmat([[side_c, side_U], [var_c, var_U]], format="csr")

    # Couplings to earlier side values; index j reaches back j+1 steps.
    alt = np.array([[-((-1.0) ** m)] for m in range(t_o + 1)])
    prev = []
    n_back = max(spec.k_s, 1)
    for j in range(n_back):
        l = j + 1  # column of D coupling U^{n-l}
        side_part = (
            sp.kron(-spec.D[:, l : l + 1], I_d)
            if n_s and l < spec.D.shape[1]
            else _empty(n_s * d, d)
        )
        var_part = sp.kron(alt, M) if j == 0 else _empty((t_o + 1) * d, d)
        prev.append(sp.vstack([side_part, var_part], format="csr"))

    return SubstepBlock(
        spec=spec, interval=interval, d=d, quadrature=quadrature, matrix=matrix, prev=prev
    )


def assemble_substep(
    ops, i: int, spec: SchemeSpec, interval: Interval, *, quadrature: str = "exact"
) -> SubstepBlock:
    """Substep block for subdomain i of an assembled operator set."""
    return build_substep_block(ops.M[i], ops.L[i], spec, interval, quadrature=quadrature)


def _subtract_history(block: SubstepBlock, history: Sequence[np.ndarray], rhs: np.ndarray) -> None:
    """rhs -= prev[j] @ history[j] for each earlier side value the block reads."""
    for j, prevj in enumerate(block.prev):
        if j < len(history):
            rhs -= prevj @ history[j]
        elif prevj.nnz:
            raise ValueError(f"substep reaches back {j + 1} side values, history has {len(history)}")


def solve_substep(
    block: SubstepBlock,
    history: Sequence[np.ndarray],
    load_fn: Optional[Callable] = None,
    *,
    load_npts: int = LOAD_QUAD_PTS,
):
    """Solve one substep given its trailing side values (newest first).

    Returns the state polynomial and the new side value.
    """
    rhs = load_moments(
        block.spec, block.interval, load_fn, block.d, quadrature=block.quadrature, npts=load_npts
    )
    _subtract_history(block, history, rhs)
    x = block.lu().solve(rhs)
    q, d = block.spec.q, block.d
    return TimePoly(block.interval, x[: (q + 1) * d].reshape(q + 1, d)), x[(q + 1) * d :]


def side_condition_residual(
    spec: SchemeSpec, poly: TimePoly, side_values: Sequence[np.ndarray]
) -> float:
    """Max violation of the side conditions; side_values = [U^n, U^{n-1}, ...]."""
    worst = 0.0
    times = spec.side_times(poly.interval)
    for k in range(spec.n_s):
        target = np.zeros(poly.ncols)
        for l in range(spec.k_s + 1):
            if l < len(side_values):
                target += spec.D[k, l] * side_values[l]
        worst = max(worst, float(np.max(np.abs(poly(times[k]) - target))))
    return worst


def integrate(
    M: sp.spmatrix,
    L: Optional[sp.spmatrix],
    load_fn: Optional[Callable],
    u0: np.ndarray,
    spec: SchemeSpec,
    boundaries: np.ndarray,
    *,
    quadrature: str = "exact",
    history0: Optional[Sequence[np.ndarray]] = None,
    load_npts: int = LOAD_QUAD_PTS,
):
    """March a single linear system M u' = -L u + load through uniform time steps.

    boundaries are the step edges, at least two; every step has the first
    step's length to within 1e-12 relative, so one block and one
    factorization serve them all.  The data terms are computed for a chunk
    of steps at a time, with one load call per chunk when the load is
    batched.  Returns (coeffs, side_values): coeffs[n], shape (q+1, d), the
    Legendre coefficients of the state on (boundaries[n], boundaries[n+1]),
    and side_values[n] the state at boundaries[n] (side_values[0] = u0).
    """
    boundaries = np.asarray(boundaries, dtype=float)
    n_steps = len(boundaries) - 1
    if n_steps < 1:
        raise ValueError("integrate needs at least one step")
    block = build_substep_block(
        M, L, spec, Interval(boundaries[0], boundaries[1]), quadrature=quadrature
    )
    lengths = np.diff(boundaries)
    dt = block.interval.length
    if not np.all(np.abs(lengths - dt) <= 1e-12 * np.maximum(1.0, lengths)):
        raise ValueError("integrate needs uniform steps: a step length differs from the first")
    lu = block.lu()
    q, d = spec.q, M.shape[0]
    chunk = max(1, LOAD_BATCH_VALUES // max(1, load_npts * d))
    coeffs = np.empty((n_steps, q + 1, d))
    side_values = np.empty((n_steps + 1, d))
    side_values[0] = u0
    history = [side_values[0], *(history0 or [])]
    for n in range(n_steps):
        if n % chunk == 0:
            moments = _chunk_moments(
                spec, boundaries[n : n + chunk + 1], load_fn, d, quadrature, load_npts
            )
        rhs = moments[n % chunk]
        _subtract_history(block, history, rhs)
        x = lu.solve(rhs)
        coeffs[n] = x[: (q + 1) * d].reshape(q + 1, d)
        side_values[n + 1] = x[(q + 1) * d :]
        history.insert(0, side_values[n + 1])
        del history[max(spec.k_s, 1) + 1 :]
    return coeffs, side_values
