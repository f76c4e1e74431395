"""Coupling-window assembly, solvers, and the interface property checks.

Between two synchronization times the substeps of both subdomains and
the window-scale flux polynomials form one square linear system.  The
interface traces of the substep states are projected onto the window
polynomial space of order r_i; the fluxes are the coupling-matrix
combination of those projections.  The window's flux rows state that
rule once; window_traces reads the same projections back from a solved
window through timepoly.project_pieces, under the window's quadrature,
so flux_solve on them gives the window's fluxes.  The trace variables
are eliminated algebraically at assembly, so the monolithic unknowns are
the substeps' free modes and side values, and the flux modes (ordered
last, the block the fixed-point solver reduces the window to).
A solved window, WindowSolution, holds read-only arrays: per subdomain
the Legendre coefficients of its substep states, its side values, and
the (r_i + 1, d_gamma) Legendre coefficients of its flux on the window,
with d_gamma = 0 for a problem without an interface.

Two solvers work on that one matrix A.  The direct solver factorizes it
once and reuses the factor for every window.  The fixed-point solver
splits it as A = P + N, with N the block of A at the substep rows and the
flux columns, read off the assembled matrix: the lagged sweep
x <- P^{-1}(b - N x) solves every substep implicitly for the flux of the
previous sweep, then the flux from the new states.  Since N reads only
the flux, the sweep is the affine map f <- y_F - K f on the n_F flux
unknowns, with y = P^{-1} b and K the flux rows of P^{-1} N.  Its fixed
point, the direct solution, is f = (I + K)^{-1} y_F: I + K is A_FF^{-1} S,
with S the Schur complement of the substep block, so one small LU of it,
formed once per operator, takes the place of the sweeps, whether or not
they would contract.  A window costs two P-solves, and both solvers
check the same relative residual.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np
import scipy.sparse as sp

from . import dgit
from .fespace import FeOperators
from .timepoly import (
    Interval,
    SchemeSpec,
    continuous_galerkin,
    gauss_on,
    gauss_rule,
    legendre_table,
    points_for_degree,
    project_l2,
    project_pieces,
)

RESIDUAL_TOL = 1e-10

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    """Window solve failed (singular factorization or bad residual)."""


@dataclasses.dataclass(frozen=True)
class WindowConfig:
    """Multirate clock: N windows on (0, t_f), M_i substeps and flux order r_i."""

    t_f: float
    N: int
    M: tuple = (1, 1)
    r: tuple = (1, 1)

    def __post_init__(self):
        if not (math.isfinite(self.t_f) and self.t_f > 0):
            raise ValueError(f"final time must be positive and finite, got {self.t_f}")
        if self.N < 1 or self.M[0] < 1 or self.M[1] < 1:
            raise ValueError("window and substep counts must be at least 1")
        if self.r[0] < 0 or self.r[1] < 0:
            raise ValueError("flux orders must be nonnegative")
        for i in range(2):
            # the last substep, furthest from 0, is the first to be degenerate
            try:
                Interval(self.t_f - self.dt_sub(i), self.t_f)
            except ValueError as err:
                raise ValueError(f"substeps of subdomain {i + 1} are too short: {err}") from None

    @property
    def dt(self) -> float:
        return self.t_f / self.N

    def dt_sub(self, i: int) -> float:
        return self.dt / self.M[i]

    def sync_times(self) -> np.ndarray:
        return self.t_f * np.arange(self.N + 1) / self.N

    def window(self, n: int) -> Interval:
        """Coupling window n, 1-based."""
        return Interval(self.t_f * (n - 1) / self.N, self.t_f * n / self.N)

    def substep_edges(self, i: int, n: int) -> np.ndarray:
        w = self.window(n)
        return np.linspace(w.a, w.b, self.M[i] + 1)

    def history_problems(self, spec: SchemeSpec) -> list:
        """Why the scheme's side conditions cannot read their history, by config key.

        How far the side conditions read is spec.reach, the last nonzero
        column of D.  A scheme with reach > 1 finds no history before
        window 1, so that window is filled from a reference solve, and the
        scheme windows after it may reach back at most one window.
        """
        if spec.reach == 1:
            return []
        # column l of D weighs the side value l steps back
        problems = [
            f"window.N: {self.N} leaves no scheme window; the side conditions reach back "
            f"{spec.reach} side values (scheme.D column {spec.reach}), so window 1 is "
            "filled from a reference solve"
        ] if self.N < 2 else []
        return problems + [
            f"scheme.D: the side conditions reach back {spec.reach} side values, more "
            f"than M{i + 1}+1={self.M[i] + 1}; they may reach back at most one window "
            "of history"
            for i in range(2)
            if spec.reach > self.M[i] + 1
        ]


class FluxModes(np.ndarray):
    """A window flux: its (r_i + 1, d_gamma) Legendre coefficients on the window.

    An ndarray in every respect; coeffs, the same values as a base ndarray,
    is the name perfbench's fixed-point gate reads them by.
    """

    @property
    def coeffs(self) -> np.ndarray:
        return self.view(np.ndarray)


@dataclasses.dataclass
class WindowSolution:
    """State of one solved coupling window, as read-only arrays.

    F holds copies of the fluxes passed in, as FluxModes.
    """

    index: int
    window: Interval
    u: tuple  # per subdomain: (M_i, q + 1, d_i) Legendre coefficients of its substeps
    U: tuple  # per subdomain: (M_i + 1, d_i) side values, row 0 incoming
    F: tuple  # per subdomain: (r_i + 1, d_gamma) Legendre coefficients of its flux
    residual: float = float("nan")
    initialized_from_reference: bool = False

    def __post_init__(self):
        self.F = tuple(np.array(f, dtype=float).view(FluxModes) for f in self.F)
        for a in self.u + self.U + self.F:
            a.flags.writeable = False

    def edges(self, i: int) -> np.ndarray:
        """Substep edges of subdomain i: substep n runs from edges[n] to edges[n + 1]."""
        return np.linspace(self.window.a, self.window.b, len(self.u[i]) + 1)

    def at_gauss(self, i: int, npts: int) -> tuple:
        """(t, w, values) of subdomain i on an npts-point Gauss rule of each substep.

        t and w, the times and weights, are (M_i, npts); values, (M_i, npts, d_i).
        """
        x, w = gauss_rule(npts)
        edges = self.edges(i)
        dt = np.diff(edges)[:, None]
        values = np.einsum("ap,nad->npd", legendre_table(self.u[i].shape[1] - 1, x), self.u[i])
        return edges[:-1, None] + 0.5 * (x + 1.0) * dt, 0.5 * dt * w, values


def require_finite(phase: str, *arrays) -> None:
    """Raise SolverError naming the phase if an array holds a non-finite value."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise SolverError(f"{phase} produced non-finite values")


def _residual(rhs: np.ndarray, Ax: np.ndarray) -> float:
    """The relative residual |rhs - Ax| / max(|rhs|, |Ax|) that both window solvers check."""
    norm = float(np.linalg.norm(Ax - rhs))
    return norm / max(float(np.linalg.norm(rhs)), float(np.linalg.norm(Ax)), 1e-300)


def step_restriction_ratio(cfg: WindowConfig, h: float) -> float:
    """The mesh-and-step ratio dt * (h^-2 + h^-1) that summary.json reports.

    It bounds no solver: both window solvers solve the window system
    exactly, whatever the step and the coupling strength.
    """
    if h <= 0:
        raise ValueError("mesh parameter must be positive")
    return cfg.dt * (h**-2 + h**-1)


def flux_solve(traces: tuple, B: np.ndarray, r: tuple, g: tuple = (None, None)) -> tuple:
    """Window fluxes from the projected traces: F_i = Pi_{r_i}(B-combination - g_i).

    traces holds per subdomain the Legendre coefficients on the window of
    its projected interface trace, (order + 1, d_gamma); the fluxes come
    back alike, (r_i + 1, d_gamma).  g_i, when present, holds the
    coefficients on the window of the projected trace-space representation
    of the interface data, M_gamma^-1 g_i.
    Modes of a trace beyond its own order contribute nothing, so with
    equal orders and row-wise antisymmetric B the two fluxes cancel
    identically.
    """
    B = np.asarray(B, dtype=float)
    out = []
    for i in range(2):
        coeffs = np.zeros((r[i] + 1, traces[0].shape[1]))
        for j, ug in enumerate(traces):
            upto = min(r[i], len(ug) - 1)
            coeffs[: upto + 1] += B[i, j] * ug[: upto + 1]
        if g[i] is not None:
            upto = min(r[i], len(g[i]) - 1)
            coeffs[: upto + 1] -= g[i][: upto + 1]
        out.append(coeffs)
    return tuple(out)


def window_traces(sol: WindowSolution, ops: FeOperators, quadrature: str = "exact") -> tuple:
    """Projected interface traces of a solved window, as its flux rows combine them.

    Both rules are project_pieces of one array of trace coefficients per
    substep, under the window's quadrature.  Exact quadrature projects the
    traces T_i u_n of the state polynomials.  The trapezoid flux rows read
    substep n only through its side values U_{n-1}, U_n, which are the
    polynomial's end values only for schemes pinned at both ends; each
    piece is then one mode, the trace T_i (U_{n-1} + U_n) / 2 of their
    average.  Each trace is (r_i + 1, d_gamma) coefficients on the window;
    flux_solve on them reproduces the window's fluxes (interface data, if
    any, passed projected under the same rule).
    """
    out = []
    for i in range(2):
        T = ops.T[i]
        if quadrature == "exact":
            M_i, k, d = sol.u[i].shape
            coeffs = (T @ sol.u[i].reshape(-1, d).T).T.reshape(M_i, k, ops.d_gamma)
        else:
            ends = (T @ sol.U[i].T).T
            coeffs = 0.5 * (ends[1:] + ends[:-1])[:, None]
        out.append(project_pieces(sol.edges(i), coeffs, len(sol.F[i]) - 1, quadrature))
    return tuple(out)


class WindowOperator:
    """Monolithic window system; assembled once, factorized once, reused per window.

    Unknown layout: substep groups of both subdomains (each substep holds
    its free modes, then its side value; the side conditions have no rows,
    see dgit), then the flux modes of subdomain 1, then subdomain 2.  A
    window reads, per subdomain, the last spec.reach of the side values
    before it (the previous window's U, or u0[None] for the first) through
    one assembled map, past, whose columns hold them newest first, and
    solves matrix @ x = data terms - past @ (those side values).

    Each subdomain's substeps form a chain with one pair of time tables,
    since all substeps of a side have one length: dgit.substep_tables
    gives W_M and W_L of a substep, whose own columns repeat on the
    diagonal and whose column of U^{n-l} couples each substep to the side
    value l substeps back (for the first l substeps a column of past).
    The flux columns of all substeps are stacked from one table of
    substep-versus-window Legendre moments (dgit.cross_moments).  Every
    part is put as kron(table, spatial matrix) triplets on the spatial
    matrices' entries, which FeOperators converts once and every operator
    built on it reuses (_assemble_matrix).

    The data terms (body-force and interface-data moments) of a window do
    not depend on the windows before it.  The operator holds them for a
    chunk of consecutive windows, computed with one call of each load's
    factors when a window misses the chunk held.  The chunk is sized by
    dgit.LOAD_BATCH_VALUES over the values a window adds: its row of dim
    data terms, and per load its K factor values and its factor moments.
    A body load of side i adds M_i (p + test_order + 1) K values, with p
    its factor times per substep (1 under trapezoid quadrature, where
    neighbouring substeps share an edge, LOAD_QUAD_PTS under exact); an
    interface load adds (n_t + r_i + 1) K, with n_t its factor times per
    window (M_i + 1 substep edges, or LOAD_QUAD_PTS Gauss points).

    solver="direct" factorizes the matrix.  solver="fixed-point" factorizes
    P = matrix - N, with N the block of the matrix at the substep rows and
    the flux columns.  Its build adds one solve with P for the n_F columns
    of N, which gives the lagged sweep's map K (n_F, n_F), and the LU of
    I + K, whose solve gives the sweep's fixed point on the flux.
    """

    def __init__(
        self,
        ops: FeOperators,
        spec: SchemeSpec,
        cfg: WindowConfig,
        *,
        quadrature: str = "exact",
        solver: str = "direct",
    ):
        if quadrature not in ("exact", "trapezoid"):
            raise ValueError(f"unknown quadrature {quadrature!r}")
        if solver not in ("direct", "fixed-point"):
            raise ValueError(f"unknown solver {solver!r}")
        if 0 in ops.d_omega:
            raise ValueError(
                f"subdomain {ops.d_omega.index(0) + 1} has no unknowns (d_omega = {ops.d_omega}); "
                "a mesh one cell wide (nx = 1) has no free nodes"
            )
        self.ops, self.spec, self.cfg = ops, spec, cfg
        self.quadrature = quadrature
        self.solver = solver
        d = ops.d_omega
        dG = ops.d_gamma
        self._sub_size = tuple((spec.test_order + 1) * d[i] for i in range(2))
        self._dom_off = (0, cfg.M[0] * self._sub_size[0])
        self._flux_off = (
            self._dom_off[1] + cfg.M[1] * self._sub_size[1],
            self._dom_off[1] + cfg.M[1] * self._sub_size[1] + (cfg.r[0] + 1) * dG,
        )
        self.dim = self._flux_off[1] + (cfg.r[1] + 1) * dG
        self._past_off = (0, spec.reach * d[0])

        # Template window: geometry is shared by every window, and the first
        # substep of a side stands for all of them.
        self._template = cfg.window(1)
        self._edges = tuple(cfg.substep_edges(i, 1) for i in range(2))
        # Interface data moments per flux mode: weights @ g at the substep
        # edges (trapezoid) or at the window's Gauss points (exact).
        self._g_weights = []
        for i in range(2):
            if ops.load_g[i] is None:
                self._g_weights.append(None)
            elif quadrature == "trapezoid":
                # substep n averages g at edges n - 1 and n
                X = dgit.cross_moments(self._edges[i], self._template, 0, cfg.r[i], "trapezoid")
                w = 0.5 * X[:, 0].T  # (r_i+1, M_i)
                self._g_weights.append(np.pad(w, ((0, 0), (0, 1))) + np.pad(w, ((0, 0), (1, 0))))
            else:
                t, w = gauss_on(self._template, dgit.LOAD_QUAD_PTS)
                self._g_weights.append(w * legendre_table(cfg.r[i], self._template.to_reference(t)))
        # Data terms of a chunk of consecutive windows; _rhs reads its rows.
        # A window adds its row and, per load, its factor values and moments.
        self._has_data = ops.has_f or ops.has_g
        times = dgit.load_times(quadrature, dgit.LOAD_QUAD_PTS)
        values = self.dim
        for i in range(2):
            if ops.load_f[i] is not None:
                values += cfg.M[i] * (times + spec.test_order + 1) * ops.load_f[i].count(d[i])
            if ops.load_g[i] is not None:
                values += sum(self._g_weights[i].shape) * ops.load_g[i].count(dG)
        self._chunk = dgit.chunk_size(values)
        self._rows, self._rows_first = np.empty((0, self.dim)), 1
        self.matrix, self._past = self._assemble_matrix()
        # solve applies one factor: of the matrix, or of P for the fixed point
        factored = self.matrix
        if solver == "fixed-point":
            n = self._flux_off[0]
            A = self.matrix
            self._lagged = A[:n, n:]
            factored = sp.bmat([[A[:n, :n], None], [A[n:, :n], A[n:, n:]]])
        try:
            self._lu = dgit.factorize(factored)
            if solver == "fixed-point":
                # K, the flux rows of P^{-1} N: the sweep f <- y_F - K f with
                # y = P^{-1} rhs has the fixed point f = (I + K)^{-1} y_F
                lagged = np.zeros((self.dim, self.dim - n))
                lagged[:n] = self._lagged.toarray()
                K = self._lu.solve(lagged)[n:]
                self._flux_lu = dgit.factorize(sp.csc_matrix(np.eye(self.dim - n) + K))
        except RuntimeError as err:
            raise SolverError(f"window factorization failed: {err}") from err

    def _assemble_matrix(self) -> tuple:
        """(matrix, past): the window's rows over its unknowns and over the past values.

        Every part is kron(W, B) of a small dense table W of time
        coefficients and a spatial matrix B, put as triplets: B's entries,
        which ops converts once for every operator built on it
        (FeOperators.spatial_triplets and interface_triplets), placed at
        W's nonzeros.  Each output matrix is one COO->CSR conversion of
        them.  Within a side, W addresses the substep rows and columns in
        slots of d_i: q + 2 - n_s per substep, its side value last.

        A side's substep rows are the tables W_M and W_L of
        dgit.substep_tables, laid along the chain: each substep's own
        columns on the diagonal, and its column of U^{n-l} on the side
        value l substeps back, a past value for the first l substeps.  They
        are put once, on the shared pattern of M_i and L_i, with the values
        W_M m + W_L l and their exact zeros dropped, as the sum
        kron(W_M, M_i) + kron(W_L, L_i) of one substep block stores them.
        """
        ops, cfg, spec = self.ops, self.cfg, self.spec
        reach = spec.reach
        own = spec.test_order + 1  # slots per substep
        n_past = self._past_off[1] + reach * ops.d_omega[1]
        unknowns, past = ([], [], []), ([], [], [])
        # the index arithmetic stays in the index type the CSR results take
        index = np.int32 if 2 * (self.dim + n_past) < 2**31 else np.int64

        def nonzero(W):
            return (k.astype(index) for k in np.nonzero(W))

        def put(W, B, r0, c0):
            # kron(W, B) at (r0, c0), B as (rows, cols, data, shape) triplets;
            # it lies wholly among the unknowns, or wholly among the past
            # values in the columns from dim on
            rows, cols, data = unknowns if c0 < self.dim else past
            b_row, b_col, b_data, (n_rows, n_cols) = B
            a, c = nonzero(W)
            rows.append((r0 + a[:, None] * n_rows + b_row).ravel())
            c0 = c0 if c0 < self.dim else c0 - self.dim
            cols.append((c0 + c[:, None] * n_cols + b_col).ravel())
            data.append((W[a, c][:, None] * b_data).ravel())

        def put_back(W, B, r0, i, l):
            # kron(W, B) with column n of W on the side value l substeps before
            # substep n's own, in a table over all side values in time order:
            # the reach past values (newest first in past), then the substeps'
            M_i = W.shape[1]
            sides = np.zeros((len(W), reach + M_i))
            sides[:, reach - l : reach - l + M_i] = W
            slots = np.zeros((len(W), M_i, own))
            slots[:, :, -1] = sides[:, reach:]
            put(slots.reshape(len(W), -1), B, r0, self._dom_off[i])
            put(sides[:, reach - 1 :: -1], B, r0, self.dim + self._past_off[i])

        def chain(W, M_i):
            # one substep's table over [own slots, U^{n-1}, ..] as the side's
            # table over [all substep slots, past values newest first]
            out = np.zeros((M_i * own, M_i * own + reach))
            for n in range(M_i):
                band = out[n * own : (n + 1) * own]
                band[:, n * own : (n + 1) * own] = W[:, :own]
                for l in range(1, reach + 1):
                    band[:, (n - l + 1) * own - 1 if n >= l else M_i * own + l - n - 1] = (
                        W[:, own + l - 1]
                    )
            return out

        mass_gamma, trace_mass = ops.interface_triplets
        for i in range(2):
            M_i, d, r0 = cfg.M[i], ops.d_omega[i], self._dom_off[i]
            W_M, W_L = (
                chain(W, M_i)
                for W in dgit.substep_tables(spec, Interval(self._edges[i][0], self._edges[i][1]))
            )
            b_row, b_col, m, l = ops.spatial_triplets[i]
            slots = M_i * own
            for (rows, cols, data), c0, cut in (
                (unknowns, r0, slice(None, slots)),
                (past, self._past_off[i], slice(slots, None)),
            ):
                Wm, Wl = W_M[:, cut], W_L[:, cut]
                a, c = nonzero((Wm != 0) | (Wl != 0))
                values = Wm[a, c][:, None] * m + Wl[a, c][:, None] * l
                rr = r0 + a[:, None] * d + b_row
                cc = c0 + c[:, None] * d + b_col
                kept = values != 0
                if not kept.all():
                    rr, cc, values = rr[kept], cc[kept], values[kept]
                rows.append(rr.ravel())
                cols.append(cc.ravel())
                data.append(values.ravel())
            X = dgit.cross_moments(
                self._edges[i], self._template, spec.test_order, cfg.r[i], self.quadrature
            )
            put(X.reshape(-1, cfg.r[i] + 1), trace_mass[i], r0, self._flux_off[i])

        # Flux definition rows: window mass times flux modes minus the
        # projected trace combination of both subdomains.  Both quadratures
        # read substep n through a table R over [own slots, U_{n-1}, ...]:
        # exact through its state polynomial (R the state_map), trapezoid
        # through the average of its side values U_{n-1} and U_n.
        R = np.pad(spec.state_map, ((0, 0), (0, 1)))[:, : own + reach]
        if self.quadrature == "trapezoid":
            R = 0.5 * (np.eye(1, own + reach, own - 1) + np.eye(1, own + reach, own))
        window = self._template
        for i in range(2):
            r_i = cfg.r[i]
            base = self._flux_off[i]
            put(np.diag(window.length / (2 * np.arange(r_i + 1) + 1)), mass_gamma, base, base)
            for j in range(2):
                bij = ops.B[i, j]
                if bij == 0.0:
                    continue
                r_cut = min(r_i, cfg.r[j])  # trace of subdomain j has order r_j
                X = dgit.cross_moments(self._edges[j], window, len(R) - 1, r_cut, self.quadrature)
                C = -bij * np.einsum("nab,ac->bnc", X, R)  # (r_cut + 1, M_j, own + reach)
                # T_j^T M_gamma transposed: its CSC entries, in the same order
                rows, cols, data, shape = trace_mass[j]
                MgT = (cols, rows, data, shape[::-1])
                put(C[:, :, :own].reshape(r_cut + 1, -1), MgT, base, self._dom_off[j])
                for l in range(1, reach + 1):
                    put_back(C[:, :, own + l - 1], MgT, base, j, l)

        def joined(pieces):
            # the pieces are dropped once joined, so they and the join are not both held
            out = np.concatenate(pieces)
            pieces.clear()
            return out

        def assembled(parts, ncols):
            rows, cols, data = (joined(p) for p in parts)
            return sp.coo_matrix((data, (rows, cols)), shape=(self.dim, ncols)).tocsr()

        return assembled(unknowns, self.dim), assembled(past, n_past)

    def _past_values(self, before) -> list:
        """Per side, the last spec.reach rows of before: the side values the window reads."""
        reach = self.spec.reach
        for side, d in zip(before, self.ops.d_omega):
            if np.shape(side)[1:] != (d,):
                raise ValueError(
                    f"side values before the window must be (k, {d}): the previous window's U, "
                    f"or u0[None]; got shape {np.shape(side)}"
                )
            if len(side) < reach:
                raise ValueError(f"window needs {reach} historic side values, have {len(side)}")
        return [side[-reach:] for side in before]

    def _data_rows(self, first: int, count: int) -> np.ndarray:
        """Data terms of the windows first..first + count - 1, one row each.

        Every load's factors are called once for all of them, and their
        moments combined with its vectors row by row.  The times repeat the
        arithmetic of cfg.window, of np.linspace in cfg.substep_edges and of
        gauss_on, so a row is bitwise the one of its window computed alone.
        """
        ops, spec, cfg = self.ops, self.spec, self.cfg
        sync = cfg.t_f * np.arange(first - 1, first + count) / cfg.N
        a = sync[:-1, None]  # one window a row
        length = sync[1:, None] - a
        rows = np.zeros((count, self.dim))
        for i in range(2):
            M_i = cfg.M[i]
            # the substep edges of all windows; a window's last is the next one's first
            edges = np.concatenate(((np.arange(M_i) * (length / M_i) + a).ravel(), sync[-1:]))
            if ops.load_f[i] is not None:
                lo = self._dom_off[i]
                rows[:, lo : lo + M_i * self._sub_size[i]] = dgit._chunk_moments(
                    spec, edges, ops.load_f[i], ops.d_omega[i], self.quadrature, dgit.LOAD_QUAD_PTS
                ).reshape(count, -1)
            W, load = self._g_weights[i], ops.load_g[i]
            if W is not None:
                if self.quadrature == "trapezoid":
                    z = load.factors(edges)
                    z = np.concatenate((z[:-1].reshape(count, M_i, -1), z[M_i::M_i, None]), axis=1)
                else:
                    t = a + 0.5 * (gauss_rule(dgit.LOAD_QUAD_PTS)[0] + 1.0) * length
                    z = load.factors(t.ravel()).reshape(count, t.shape[1], -1)
                lo = self._flux_off[i]
                rows[:, lo : lo + len(W) * ops.d_gamma] = -load.combine(W @ z).reshape(count, -1)
        return rows

    def _rhs(self, past, window_index: int) -> np.ndarray:
        """Data terms of the window minus self._past @ (past, newest first).

        past holds per side the spec.reach side values the window reads, in
        time order (_past_values).  The data terms are a row of the chunk of
        windows held, which starts at the first window that misses it
        (_data_rows); without loads there is none.
        """
        if not 1 <= window_index <= self.cfg.N:
            raise ValueError(f"window index {window_index} is outside 1..{self.cfg.N}")
        history = self._past @ np.concatenate([v[::-1].ravel() for v in past])
        if not self._has_data:
            # 0 - history, not -history: a zero of it stays +0.0, as zero data minus it
            return np.subtract(0.0, history, out=history)
        k = window_index - self._rows_first
        if not 0 <= k < len(self._rows):
            count = min(self._chunk, self.cfg.N + 1 - window_index)
            self._rows, self._rows_first, k = self._data_rows(window_index, count), window_index, 0
        return self._rows[k] - history

    def solve(self, before, window_index: int = 1) -> WindowSolution:
        """Solve one window with the operator's solver.

        before holds per subdomain the side values before the window in time
        order, (k, d_i) with k >= spec.reach: the previous window's U, or
        u0[None] for the first window.  The fixed point solves for the flux
        f = (I + K)^{-1} y_F, y = P^{-1} rhs, then x = P^{-1}(rhs - N f).  A
        SolverError names the window, "window n: ...".
        """
        past = self._past_values(before)
        rhs = self._rhs(past, window_index)
        x = self._lu.solve(rhs)
        if self.solver == "fixed-point":
            n = self._flux_off[0]
            b = rhs.copy()
            b[:n] -= self._lagged @ self._flux_lu.solve(x[n:])
            x = self._lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SolverError(
                f"window {window_index}: window factorization produced non-finite values"
            )
        rel = _residual(rhs, self.matrix @ x)
        if rel > RESIDUAL_TOL:
            raise SolverError(
                f"window {window_index}: window solve residual {rel:.3e} exceeds {RESIDUAL_TOL:.1e}"
            )
        return self._extract(x, past, window_index, rel)

    def _extract(self, x, past, window_index, residual):
        """The window's states, from the solve vector x and the side values past it read.

        The substeps of a side are one (M_i, q + 2 - n_s, d_i) block of x:
        the free modes first, the side value last.  u, a new array, applies
        the scheme's state_map to them and to the side values before them.
        """
        spec, d, dG, cfg = self.spec, self.ops.d_omega, self.ops.d_gamma, self.cfg
        u, U, F = [], [], []
        for i, read in enumerate(past):
            lo = self._dom_off[i]
            slots = x[lo : lo + cfg.M[i] * self._sub_size[i]].reshape(cfg.M[i], -1, d[i])
            # side values in time order: the reach before the window, then the substeps'
            sides = np.vstack([read, slots[:, -1]])
            # row j of back[l - 1]: the side value l steps before substep j's own
            back = [sides[j : j + cfg.M[i]] for j in range(spec.reach - 1, -1, -1)]
            u.append(dgit.substep_coeffs(spec, slots, back))
            U.append(sides[spec.reach - 1 :])
            lo = self._flux_off[i]
            F.append(x[lo : lo + (cfg.r[i] + 1) * dG].reshape(cfg.r[i] + 1, dG))
        return WindowSolution(
            window_index, cfg.window(window_index), tuple(u), tuple(U), tuple(F), residual
        )


def solve_window_fixed_point(
    ops: FeOperators,
    spec: SchemeSpec,
    cfg: WindowConfig,
    before,
    *,
    quadrature: str = "exact",
) -> WindowSolution:
    """Window 1 solved by WindowOperator's fixed-point solver.

    before is as for WindowOperator.solve.  The result is the fixed point
    of the lagged sweeps, which solve the substeps of both subdomains
    implicitly with the flux of the previous sweep, then the flux rows
    from the new states.
    """
    op = WindowOperator(ops, spec, cfg, quadrature=quadrature, solver="fixed-point")
    return op.solve(before)


# ---------------------------------------------------------------------------
# Property checks.


def check_flux_conservation(sol: WindowSolution, ops: FeOperators, mode: str = "strong") -> float:
    """Relative residual of the flux cancellation identity on one window.

    strong compares the flux polynomials coefficientwise (requires equal
    orders); weak tests the sum against window polynomials up to the
    smaller order.  The residual is divided by the size of side 1's
    flux; 0 when that is 0.
    """
    if not ops.conservation_compatible:
        raise ValueError(
            "flux conservation requires row-wise antisymmetric coupling "
            "(B[0,:] = -B[1,:]) and opposite interface data (g1 = -g2)"
        )
    F1, F2 = sol.F
    if mode == "strong":
        if len(F1) != len(F2):
            raise ValueError("strong conservation is defined for equal flux orders")
        residual = float(np.max(np.abs(F1 + F2), initial=0.0))
        scale = float(np.max(np.abs(F1), initial=0.0))
    elif mode == "weak":
        dt = sol.window.length
        residual = scale = 0.0
        for p in range(min(len(F1), len(F2))):
            m1 = dt / (2 * p + 1) * (ops.M_gamma @ F1[p])
            m2 = dt / (2 * p + 1) * (ops.M_gamma @ F2[p])
            residual = max(residual, float(np.max(np.abs(m1 + m2), initial=0.0)))
            scale = max(scale, float(np.max(np.abs(m1), initial=0.0)))
    else:
        raise ValueError(f"unknown conservation mode {mode!r}")
    return residual / scale if scale > 0 else 0.0


def interfacial_energy_term(sol: WindowSolution, ops: FeOperators, mode: str = "exact") -> float:
    """Interface work term of one window; nonpositive for semidefinite coupling.

    exact mode integrates -(F_i, T_i u_i) over every substep with the full
    state u_i (sol.at_gauss), not the state truncated to the test order
    q + 1 - n_s that the energy identity pairs with F_i (they agree when
    r_i <= q + 1 - n_s); cn mode uses the endpoint-average sums of the
    classical q=1 quadrature.
    """
    if ops.has_g:
        raise ValueError("interfacial energy sign requires zero interface data")
    if not ops.b_psd:
        raise ValueError("interfacial energy sign requires positive semidefinite coupling")

    def flux_at(F, t):
        return np.tensordot(legendre_table(len(F) - 1, sol.window.to_reference(t)), F, axes=(0, 0))

    total = 0.0
    for i in range(2):
        F = sol.F[i]
        if mode == "cn":
            # per substep, dt_i times the product of endpoint averages
            edges = sol.edges(i)
            f = flux_at(F, edges)
            u, f, w = 0.5 * (sol.U[i][1:] + sol.U[i][:-1]), 0.5 * (f[1:] + f[:-1]), np.diff(edges)
        elif mode == "exact":
            t, w, u = sol.at_gauss(i, points_for_degree(sol.u[i].shape[1] + len(F) - 2))
            u, f, w = u.reshape(-1, u.shape[-1]), flux_at(F, t.ravel()), w.ravel()
        else:
            raise ValueError(f"unknown energy mode {mode!r}")
        total -= float(np.sum((ops.T[i] @ u.T) * (ops.M_gamma @ f.T) * w))
    return total


# ---------------------------------------------------------------------------
# Coupled single-system form and the simulation driver.


def coupled_system(ops: FeOperators):
    """Fold the interface condition into one block system M u' = -L u + b(t).

    Returns (M, L, load, slices); load is None when the problem has no data.
    It is a dgit.Load like the operators' own: its factors are the parts'
    factors side by side (body force, then interface data, of subdomain 1,
    then of 2), and its sparse vectors place each part's vectors at its
    subdomain's unknowns, an interface part's multiplied by T_i, so that
    b(t) = f_1(t) + T_1^T g_1(t) on the unknowns of 1, and alike for 2.
    Useful for reference solves and for single-rate comparisons.
    """
    d1, d2 = ops.d_omega
    M = sp.block_diag(ops.M, format="csr")
    grid = [[ops.L[0], None], [None, ops.L[1]]]
    for i in range(2):
        for j in range(2):
            if ops.B[i, j] == 0.0:
                continue
            term = ops.B[i, j] * (ops.T[i].T @ ops.M_gamma @ ops.T[j])
            grid[i][j] = term if grid[i][j] is None else grid[i][j] + term
    Lc = sp.bmat(grid, format="csr")
    load = None
    if ops.has_f or ops.has_g:
        parts = []  # (load, the map from its vector space onto the coupled unknowns)
        for i, offset in enumerate((0, d1)):
            lift = sp.eye(ops.d_omega[i], d1 + d2, k=offset, format="csr")
            parts += [(ops.load_f[i], lift), (ops.load_g[i], ops.T[i] @ lift)]
        parts = [(part, onto) for part, onto in parts if part is not None]
        vectors = sp.vstack([
            (onto if part.vectors is None else sp.csr_matrix(part.vectors) @ onto)
            for part, onto in parts
        ], format="csr")

        def factors(t) -> np.ndarray:
            return np.concatenate([part.factors(t) for part, _ in parts], axis=-1)

        load = dgit.Load(factors, vectors)

    return M, Lc, load, (slice(0, d1), slice(d1, d1 + d2))


@dataclasses.dataclass
class Trajectory:
    """Every window of a run, collected from march."""

    windows: list


def _fill_first_window(ops, spec, cfg) -> WindowSolution:
    """Window 1, solved with a fine single-rate reference integrator.

    Supplies starting data for schemes whose side conditions reach further
    back than the initial state.  The substep states and the interface
    traces are exact L2 projections (project_pieces) of the fine piecewise
    solution, and the fluxes are flux_solve of the traces, with the
    interface data passed as the order-r_i projection of ops.g_trace,
    M_gamma^-1 g.
    """
    Mc, Lc, load, slices = coupled_system(ops)
    fine = 32 * cfg.M[0] * cfg.M[1]
    window = cfg.window(1)
    edges = np.linspace(0.0, window.b, fine + 1)
    u0, scheme = np.concatenate(ops.u0), continuous_galerkin(2)
    free, side = dgit.integrate(Mc, Lc, load, u0, scheme, edges)
    coeffs = dgit.march_coeffs(scheme, free, side, (), np.arange(fine))
    require_finite("reference fill of window 1", coeffs, side)
    u, U, traces = [], [], []
    for i in range(2):
        mine = coeffs[:, :, slices[i]]
        per_sub = fine // cfg.M[i]
        u.append(np.stack([
            project_pieces(edges[k : k + per_sub + 1], mine[k : k + per_sub], spec.q)
            for k in range(0, fine, per_sub)
        ]))
        U.append(side[::per_sub, slices[i]].copy())
        trace = (ops.T[i] @ mine.reshape(-1, ops.d_omega[i]).T).T
        trace = trace.reshape(mine.shape[:2] + (ops.d_gamma,))
        traces.append(project_pieces(edges, trace, max(cfg.r)))
    g = tuple(
        project_l2(lambda t, i=i: ops.g_trace(i, np.atleast_1d(t))[0], window, cfg.r[i])
        if ops.load_g[i] is not None
        else None
        for i in range(2)
    )
    F = flux_solve(traces, ops.B, cfg.r, g)
    return WindowSolution(1, window, tuple(u), tuple(U), F, initialized_from_reference=True)


def march(
    ops: FeOperators,
    spec: SchemeSpec,
    cfg: WindowConfig,
    *,
    quadrature: str = "exact",
    solver: str = "direct",
):
    """Yield the windows 1..N in order, each as soon as it is solved.

    The run starts from ops.u0.  A scheme whose side conditions reach back
    more than one side value (spec.reach > 1) gets window 1 from the
    reference fill, every other window from one WindowOperator.  Between
    two windows the generator keeps only what the next one reads, the last
    window's side values U, so a consumer that drops each window holds one
    at a time.  A window reads back no further than the one before it
    (WindowConfig.history_problems).
    """
    problems = cfg.history_problems(spec)
    if problems:
        raise ValueError("; ".join(problems))
    op = WindowOperator(ops, spec, cfg, quadrature=quadrature, solver=solver)
    before = tuple(np.asarray(v, dtype=float)[None] for v in ops.u0)
    for n in range(1, cfg.N + 1):
        filled = n == 1 and spec.reach > 1
        sol = _fill_first_window(ops, spec, cfg) if filled else op.solve(before, n)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "window %d: residual %.3e, reference-filled %s",
                n, sol.residual, sol.initialized_from_reference,
            )
        yield sol
        before = sol.U


def run_simulation(
    ops: FeOperators,
    spec: SchemeSpec,
    cfg: WindowConfig,
    *,
    quadrature: str = "exact",
    solver: str = "direct",
) -> Trajectory:
    """Every window of march, collected; for callers that revisit windows."""
    return Trajectory(list(march(ops, spec, cfg, quadrature=quadrature, solver=solver)))


@dataclasses.dataclass(frozen=True)
class WindowDiagnostics:
    conservation_mode: str  # strong for equal flux orders, weak otherwise
    energy_mode: str  # cn for the trapezoid variant, exact otherwise
    conservation: np.ndarray  # per window, the relative residual
    work: np.ndarray  # per window, the interface work term
    sync_times: np.ndarray  # (N + 1,): the start of window 1, then each window's end
    side_energies: np.ndarray  # (N + 1, 2): 1/2 U_i^T M_i U_i at each synchronization time

    @property
    def energies(self) -> np.ndarray:
        return self.side_energies[:, 0] + self.side_energies[:, 1]


def window_diagnostics(
    windows, ops: FeOperators, cfg: WindowConfig, quadrature: str
) -> WindowDiagnostics:
    """Per-window diagnostics of windows, any iterable of consecutive windows.

    Reads each window once and keeps none, so march's windows stream
    through it.  Per window: the flux conservation residual and the
    interface work term, each nan where the problem lacks the check's
    preconditions (an interface, and for conservation antisymmetric
    coupling and opposite interface data, for the work term zero interface
    data and positive semidefinite coupling); per synchronization time,
    from the first window's incoming side values on, the side energies.
    """
    cons_mode = "strong" if cfg.r[0] == cfg.r[1] else "weak"
    energy_mode = "cn" if quadrature == "trapezoid" else "exact"
    can_cons = ops.conservation_compatible and ops.d_gamma > 0
    can_work = (not ops.has_g) and ops.b_psd and ops.d_gamma > 0

    def energies(sol, row):
        return [0.5 * float(U[row] @ (ops.M[i] @ U[row])) for i, U in enumerate(sol.U)]

    cons, work, times, side_energies = [], [], [], []
    for sol in windows:
        if not times:
            times.append(sol.window.a)
            side_energies.append(energies(sol, 0))
        cons.append(check_flux_conservation(sol, ops, cons_mode) if can_cons else math.nan)
        work.append(interfacial_energy_term(sol, ops, energy_mode) if can_work else math.nan)
        times.append(sol.window.b)
        side_energies.append(energies(sol, -1))
    return WindowDiagnostics(
        cons_mode, energy_mode, np.array(cons), np.array(work), np.array(times),
        np.array(side_energies).reshape(-1, 2),
    )


def export_trajectory_csv(diag: WindowDiagnostics, stream) -> None:
    """Per-window energy and interface diagnostics, 17 significant digits."""

    def fmt(x: float) -> str:
        return f"{x:.17g}"

    stream.write("window,t_sync,energy_1,energy_2,flux_conservation_residual,interfacial_energy_term\n")
    e1, e2 = diag.side_energies[0]
    stream.write(f"0,{fmt(diag.sync_times[0])},{fmt(e1)},{fmt(e2)},nan,nan\n")
    for n, (cons, work) in enumerate(zip(diag.conservation, diag.work), start=1):
        e1, e2 = diag.side_energies[n]
        stream.write(
            f"{n},{fmt(diag.sync_times[n])},{fmt(e1)},{fmt(e2)},{fmt(cons)},{fmt(work)}\n"
        )
