"""Coupling-window assembly, solvers, and the interface property checks.

Between two synchronization times the substeps of both subdomains and
the window-scale flux polynomials form one square linear system.  The
interface traces of the substep states are projected onto the window
polynomial space of order r_i; the fluxes are the coupling-matrix
combination of those projections.  The trace variables are eliminated
algebraically at assembly, so the monolithic unknowns are the substep
coefficients, the side values, and the flux modes (ordered last, so an
interface-reduced solver could be added without relayout).

Two solvers work on that one matrix A.  The direct solver factorizes it
once and reuses the factor for every window.  The fixed-point solver
splits it as A = P + N, with N the block of A at the substep rows and the
flux columns, read off the assembled matrix: each sweep solves every
substep implicitly for the flux of the previous sweep, then the flux from
the new states, x <- P^{-1}(b - N x).  Its fixed point is the direct
solution, and both solvers check the same relative residual.  The sweeps
contract while the coupling is weak against each subdomain's implicit
response over a substep; strong coupling on long substeps makes them
diverge, which raises ContractionError.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import dgit
from .fespace import FeOperators
from .timepoly import (
    Interval,
    SchemeSpec,
    TimePoly,
    continuous_galerkin,
    gauss_on,
    legendre_table,
    points_for_degree,
    project_l2,
    project_l2_broken,
)

RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    """Direct window solve failed (singular factorization or bad residual)."""


class ContractionError(RuntimeError):
    """The lagged window iteration failed to contract."""

    def __init__(self, message, *, iterations=0, factor=float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.factor = factor


@dataclasses.dataclass(frozen=True)
class WindowConfig:
    """Multirate clock: N windows on (0, t_f), M_i substeps and flux order r_i."""

    t_f: float
    N: int
    M: tuple = (1, 1)
    r: tuple = (1, 1)
    N0: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.t_f) and self.t_f > 0):
            raise ValueError(f"final time must be positive and finite, got {self.t_f}")
        if self.N < 1 or self.M[0] < 1 or self.M[1] < 1:
            raise ValueError("window and substep counts must be at least 1")
        if self.r[0] < 0 or self.r[1] < 0:
            raise ValueError("flux orders must be nonnegative")
        if self.N0 is not None and self.N0 < 1:
            raise ValueError("initialization window count must be at least 1")
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

    def n_init(self, spec: SchemeSpec) -> int:
        """Windows filled from reference data before the scheme takes over."""
        if self.N0 is not None:
            return self.N0
        return 1 if spec.k_s <= 1 else 2


@dataclasses.dataclass
class WindowSolution:
    """State of one solved coupling window."""

    index: int
    window: Interval
    u: tuple  # per subdomain: list of M_i substep TimePolys
    U: tuple  # per subdomain: (M_i + 1, d_i) side values, row 0 incoming
    F: tuple  # per subdomain: window flux TimePoly (d_gamma columns)
    residual: float = float("nan")
    iterations: int = 0
    initialized_from_reference: bool = False

    def substeps(self, i: int) -> int:
        return len(self.u[i])


def _residual(rhs: np.ndarray, Ax: np.ndarray) -> tuple:
    """(|rhs - Ax|, |rhs - Ax| / max(|rhs|, |Ax|)); both window solvers check the latter."""
    norm = float(np.linalg.norm(Ax - rhs))
    return norm, norm / max(float(np.linalg.norm(rhs)), float(np.linalg.norm(Ax)), 1e-300)


def step_restriction_ratio(cfg: WindowConfig, h: float) -> float:
    """The mesh-and-step ratio dt * (h^-2 + h^-1) that summary.json reports.

    It does not decide whether the fixed-point sweeps contract: that
    depends on the coupling against each subdomain's implicit response.
    """
    if h <= 0:
        raise ValueError("mesh parameter must be positive")
    return cfg.dt * (h**-2 + h**-1)


def trace_projection(
    substeps: Sequence[TimePoly],
    window: Interval,
    r: int,
    *,
    mode: str = "exact",
) -> TimePoly:
    """Project broken substep traces onto the window polynomial space.

    exact mode is the L2 projection of the piecewise polynomial; the
    endpoint-average mode replaces each substep integral on the right side
    by dt_i * (average of values) * (average of test mode), matching the
    quadrature with which the classical q=1 scheme is derived.
    """
    if mode == "exact":
        out = project_l2_broken(list(substeps), r)
        if not out.interval.close_to(window):
            raise ValueError("substeps do not tile the window")
        return out
    edges = np.array([p.interval.a for p in substeps] + [substeps[-1].interval.b])
    # dt_i times the average of mode p at the ends of substep n, (M, r+1)
    weights = dgit.cross_moments(edges, window, 0, r, "trapezoid")[:, 0]
    avg = np.stack([0.5 * (p.left() + p.right()) for p in substeps])
    scale = (2 * np.arange(r + 1) + 1) / window.length
    return TimePoly(window, scale[:, None] * (weights.T @ avg))


def flux_solve(
    u_g1: TimePoly,
    u_g2: TimePoly,
    B: np.ndarray,
    r: tuple,
    g: tuple = (None, None),
) -> tuple:
    """Window fluxes from the projected traces: F_i = Pi_{r_i}(B-combination - g_i).

    g_i, when present, is the trace-space representation of the interface
    data as a TimePoly on the same window.  Modes of a trace beyond its
    own order contribute nothing, so with equal orders and row-wise
    antisymmetric B the two fluxes cancel identically.
    """
    window = u_g1.interval
    ncols = u_g1.ncols
    B = np.asarray(B, dtype=float)
    out = []
    for i in range(2):
        coeffs = np.zeros((r[i] + 1, ncols))
        for j, ug in enumerate((u_g1, u_g2)):
            upto = min(r[i], ug.order)
            coeffs[: upto + 1] += B[i, j] * ug.coeffs[: upto + 1]
        if g[i] is not None:
            gi = project_l2(g[i], window, r[i]) if not isinstance(g[i], TimePoly) else g[i]
            upto = min(r[i], gi.order)
            coeffs[: upto + 1] -= gi.coeffs[: upto + 1]
        out.append(TimePoly(window, coeffs))
    return tuple(out)


def window_traces(sol: WindowSolution, ops: FeOperators, quadrature: str = "exact") -> tuple:
    """Projected interface traces of a solved window, as its flux rows combine them.

    Exact quadrature projects the traces of the state polynomials.  The
    trapezoid flux rows read substep n only through its side values
    U_{n-1}, U_n, which are the polynomial's end values only for schemes
    pinned at both ends; each trace piece is then the line through their
    traces.  flux_solve on the result reproduces the window's fluxes.
    """
    out = []
    for i in range(2):
        T, polys = ops.T[i], sol.u[i]
        if quadrature == "exact":
            pieces = [TimePoly(p.interval, (T @ p.coeffs.T).T) for p in polys]
        else:
            ends = (T @ sol.U[i].T).T
            mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
            pieces = [TimePoly(p.interval, np.stack([mid[n], half[n]])) for n, p in enumerate(polys)]
        out.append(trace_projection(pieces, sol.window, sol.F[i].order, mode=quadrature))
    return tuple(out)


class WindowOperator:
    """Monolithic window system; assembled once, factorized once, reused per window.

    Unknown layout: substep groups of both subdomains (each substep holds
    its modal coefficients then its side value), then the flux modes of
    subdomain 1, then subdomain 2.  What a window reads from before its
    start enters through one assembled map, past: its columns hold per
    subdomain the incoming side value, then the max(k_s, 1) - 1 side values
    before it, newest first, and a window solves
    matrix @ x = data terms - past @ (those side values).

    Each subdomain's substeps form a chain of one substep block, since all
    substeps of a side have one length: the block's matrix repeats on the
    diagonal, its prev[j] couples each substep to the side value j+1
    substeps back (for the first j+1 substeps a column of past), and the
    flux columns of all substeps are stacked from one table of
    substep-versus-window Legendre moments (dgit.cross_moments).

    solver="direct" factorizes the matrix.  solver="fixed-point" factorizes
    P = matrix - N, with N the block of the matrix at the substep rows and
    the flux columns, and sweeps each window until the relative residual
    drops to fp_tol, in at most fp_max_iter sweeps.
    """

    def __init__(
        self,
        ops: FeOperators,
        spec: SchemeSpec,
        cfg: WindowConfig,
        *,
        quadrature: str = "exact",
        solver: str = "direct",
        fp_tol: float = 1e-10,
        fp_max_iter: int = 200,
    ):
        if quadrature not in ("exact", "trapezoid"):
            raise ValueError(f"unknown quadrature {quadrature!r}")
        if solver not in ("direct", "fixed-point"):
            raise ValueError(f"unknown solver {solver!r}")
        if fp_max_iter < 1 or not (math.isfinite(fp_tol) and fp_tol > 0):
            raise ValueError(
                f"fixed-point settings need fp_max_iter >= 1 and a finite fp_tol > 0, "
                f"got {fp_max_iter} and {fp_tol}"
            )
        self.ops, self.spec, self.cfg = ops, spec, cfg
        self.quadrature = quadrature
        self.solver = solver
        self.fp_tol, self.fp_max_iter = fp_tol, fp_max_iter
        q = spec.q
        d = ops.d_omega
        dG = ops.d_gamma
        self._sub_size = tuple((q + 2) * d[i] for i in range(2))
        self._dom_off = (0, cfg.M[0] * self._sub_size[0])
        self._flux_off = (
            self._dom_off[1] + cfg.M[1] * self._sub_size[1],
            self._dom_off[1] + cfg.M[1] * self._sub_size[1] + (cfg.r[0] + 1) * dG,
        )
        self.dim = self._flux_off[1] + (cfg.r[1] + 1) * dG
        self._n_past = max(spec.k_s, 1)
        self._past_off = (0, self._n_past * d[0])

        # Template window: geometry is shared by every window, and one block,
        # of the first substep, stands for every substep of a side.
        self._template = cfg.window(1)
        self._edges = tuple(cfg.substep_edges(i, 1) for i in range(2))
        self.blocks = tuple(
            dgit.assemble_substep(
                ops, i, spec, Interval(self._edges[i][0], self._edges[i][1]), quadrature=quadrature
            )
            for i in range(2)
        )
        # Side values before the window, the incoming one included, that the
        # structurally nonzero blocks of each subdomain read; prev[j] of the
        # first substep reaches furthest, j + 1 side values back.
        self._reach = tuple(
            max((j + 1 for j, prevj in enumerate(blk.prev) if prevj.nnz), default=1)
            for blk in self.blocks
        )
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
        except RuntimeError as err:
            raise SolverError(f"window factorization failed: {err}") from err

    # -- unknown offsets -------------------------------------------------
    def _sub_off(self, i: int, n: int) -> int:
        """Column of substep n (1-based) of subdomain i."""
        return self._dom_off[i] + (n - 1) * self._sub_size[i]

    def _U_off(self, i: int, n: int) -> int:
        return self._sub_off(i, n) + (self.spec.q + 1) * self.ops.d_omega[i]

    def _assemble_matrix(self) -> tuple:
        """(matrix, past): the window's rows over its unknowns and over the past values.

        Every block is kron(W, B) of a small table W of time coefficients
        and a spatial matrix B.  Within a side, W addresses the substep
        rows and columns in slots of d_i: q + 2 per substep, its side value
        last.
        """
        ops, cfg = self.ops, self.cfg
        q, dG = self.spec.q, ops.d_gamma
        unknowns, past = ([], [], []), ([], [], [])

        def put(W, B, r0, c0):
            # kron(W, B) at (r0, c0); it lies wholly among the unknowns, or
            # wholly among the past values in the columns from dim on
            rows, cols, data = unknowns if c0 < self.dim else past
            a, c = np.nonzero(W)
            b = B.tocoo()
            rows.append((r0 + a[:, None] * B.shape[0] + b.row).ravel())
            c0 = c0 if c0 < self.dim else c0 - self.dim
            cols.append((c0 + c[:, None] * B.shape[1] + b.col).ravel())
            data.append((W[a, c][:, None] * b.data).ravel())

        side_value = np.eye(1, q + 2, q + 1)  # the last slot of a substep
        incoming = [self.dim + off for off in self._past_off]  # past column of U_0
        TtMg = [(ops.T[i].T @ ops.M_gamma).tocsr() for i in range(2)]
        for i, blk in enumerate(self.blocks):
            M_i, r0 = cfg.M[i], self._dom_off[i]
            put(np.eye(M_i), blk.matrix, r0, r0)
            # prev[j] of substep n reads side value n - 1 - j: that of substep
            # n - 1 - j, or for n <= j + 1 past value j + 1 - n (0 is the
            # incoming one)
            for j, prevj in enumerate(blk.prev):
                put(np.kron(np.eye(M_i, k=-(j + 1)), side_value), prevj, r0, r0)
                put(np.eye(M_i, j + 1)[:, ::-1], prevj, r0, incoming[i])
            if dG:
                X = dgit.cross_moments(
                    self._edges[i], self._template, self.spec.test_order, cfg.r[i], self.quadrature
                )
                # no flux in the side-condition rows of a substep
                X = np.pad(X, ((0, 0), (self.spec.n_s, 0), (0, 0))).reshape(-1, cfg.r[i] + 1)
                put(X, TtMg[i], r0, self._flux_off[i])

        # Flux definition rows: window mass times flux modes minus the
        # projected trace combination of both subdomains.
        window = self._template
        for i in range(2):
            r_i = cfg.r[i]
            base = self._flux_off[i]
            put(np.diag(window.length / (2 * np.arange(r_i + 1) + 1)), ops.M_gamma, base, base)
            for j in range(2):
                bij = ops.B[i, j]
                if bij == 0.0 or dG == 0:
                    continue
                r_cut = min(r_i, cfg.r[j])  # trace of subdomain j has order r_j
                MgT = TtMg[j].T
                if self.quadrature == "trapezoid":
                    # substep n reads its side values U_{n-1} and U_n alike:
                    # as U_n at its own side value, as U_{n-1} at the one of
                    # substep n - 1, or for n = 1 at the incoming value
                    X = dgit.cross_moments(self._edges[j], window, 0, r_cut, "trapezoid")
                    W = np.kron(-0.5 * bij * X[:, 0].T, side_value)
                    put(W, MgT, base, self._dom_off[j])
                    put(W[:, q + 2 :], MgT, base, self._dom_off[j])
                    put(W[:, q + 1 : q + 2], MgT, base, incoming[j])
                else:
                    X = dgit.cross_moments(self._edges[j], window, q, r_cut)
                    # no trace term at the side value of a substep
                    W = np.pad(-bij * X, ((0, 0), (0, 1), (0, 0))).reshape(-1, r_cut + 1).T
                    put(W, MgT, base, self._dom_off[j])

        def assembled(parts, ncols):
            rows, cols, data = (np.concatenate(p) for p in parts)
            return sp.coo_matrix((data, (rows, cols)), shape=(self.dim, ncols)).tocsr()

        n_past = self._past_off[1] + self._n_past * ops.d_omega[1]
        return assembled(unknowns, self.dim), assembled(past, n_past)

    def _rhs(self, incoming, histories, window_index: int) -> np.ndarray:
        """Data terms of the window minus past @ (incoming side values, histories)."""
        ops, spec, cfg = self.ops, self.spec, self.cfg
        d = ops.d_omega
        rhs = np.zeros(self.dim)
        before = []
        for i in range(2):
            edges = cfg.substep_edges(i, window_index)
            if ops.load_f[i] is not None:
                # one load call covers every substep of the window
                lo = self._dom_off[i]
                rhs[lo : lo + cfg.M[i] * self._sub_size[i]] = dgit._chunk_moments(
                    spec, edges, ops.load_f[i], d[i], self.quadrature, dgit.LOAD_QUAD_PTS
                ).ravel()
            if self._g_weights[i] is not None:
                if self.quadrature == "trapezoid":
                    t = edges
                else:
                    t = gauss_on(cfg.window(window_index), dgit.LOAD_QUAD_PTS)[0]
                lo = self._flux_off[i]
                rhs[lo : lo + (cfg.r[i] + 1) * ops.d_gamma] = -(
                    self._g_weights[i] @ ops.g_vec(i, t)
                ).ravel()
            values = [incoming[i], *histories[i]][: self._n_past]
            if len(values) < self._reach[i]:
                raise ValueError(
                    f"window needs {self._reach[i]} historic side values, have {len(values)}"
                )
            before += values + [np.zeros(d[i])] * (self._n_past - len(values))
        rhs -= self._past @ np.concatenate(before)
        return rhs

    def solve(
        self, incoming, histories=((), ()), window_index: int = 1, flux_guess=None
    ) -> WindowSolution:
        """Solve one window with the operator's solver.

        flux_guess (per subdomain a flux TimePoly, e.g. the previous
        window's F) starts the fixed-point iteration; the direct solve
        ignores it.
        """
        rhs = self._rhs(incoming, histories, window_index)
        if self.solver == "fixed-point":
            x, rel, sweeps = self._fixed_point(rhs, flux_guess)
            return self._extract(x, incoming, window_index, residual=rel, iterations=sweeps)
        x = self._lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise SolverError("window factorization produced non-finite values")
        rel = _residual(rhs, self.matrix @ x)[1]
        if rel > RESIDUAL_TOL:
            raise SolverError(f"window solve residual {rel:.3e} exceeds {RESIDUAL_TOL:.1e}")
        return self._extract(x, incoming, window_index, residual=rel)

    def _fixed_point(self, rhs, flux_guess):
        """Sweeps x <- P^{-1}(rhs - N x); returns (x, relative residual, sweeps).

        Starts from the guessed flux (zero without one): N reads nothing
        else.  After a sweep from x_prev the residual rhs - matrix @ x is
        N (x_prev - x), so the stop test costs no product with the matrix.
        Stops when the residual, relative as in the direct solve, drops to
        fp_tol; sustained growth of its norm, or fp_max_iter sweeps without
        convergence, raise ContractionError.
        """
        n = self._flux_off[0]
        lagged = np.zeros(n)
        if flux_guess is not None and self.ops.d_gamma:
            lagged = self._lagged @ np.concatenate([np.ravel(F.coeffs) for F in flux_guess])
        b = rhs.copy()
        residuals = []
        for it in range(1, self.fp_max_iter + 1):
            b[:n] = rhs[:n] - lagged
            x = self._lu.solve(b)
            lagged = self._lagged @ x[n:]
            b[:n] += lagged  # now matrix @ x
            norm, rel = _residual(rhs, b)
            residuals.append(norm)
            if rel <= self.fp_tol:
                return x, rel, it
            growing = len(residuals) >= 4 and residuals[-1] > residuals[-2] > residuals[-3]
            if growing and residuals[-1] > 10 * residuals[0]:
                factor = residuals[-1] / residuals[-2]
                raise ContractionError(
                    f"window iteration diverging "
                    f"(residual growth factor {factor:.3f} after {it} sweeps)",
                    iterations=it,
                    factor=factor,
                )
        factor = (
            residuals[-1] / residuals[-2]
            if len(residuals) >= 2 and residuals[-2] > 0
            else float("nan")
        )
        raise ContractionError(
            f"window iteration did not reach tol={self.fp_tol:g} in {self.fp_max_iter} sweeps "
            f"(last relative residual {rel:.3e})",
            iterations=self.fp_max_iter,
            factor=factor,
        )

    def _extract(self, x, incoming, window_index, residual, iterations=0) -> WindowSolution:
        ops, spec, cfg = self.ops, self.spec, self.cfg
        q = spec.q
        d = ops.d_omega
        dG = ops.d_gamma
        window = cfg.window(window_index)
        u, U, F = [], [], []
        for i in range(2):
            edges = cfg.substep_edges(i, window_index)
            polys = []
            side = np.empty((cfg.M[i] + 1, d[i]))
            side[0] = incoming[i]
            for n in range(1, cfg.M[i] + 1):
                off = self._sub_off(i, n)
                coeffs = x[off : off + (q + 1) * d[i]].reshape(q + 1, d[i])
                polys.append(TimePoly(Interval(edges[n - 1], edges[n]), coeffs))
                side[n] = x[self._U_off(i, n) : self._U_off(i, n) + d[i]]
            u.append(polys)
            U.append(side)
            if dG:
                off = self._flux_off[i]
                fc = x[off : off + (cfg.r[i] + 1) * dG].reshape(cfg.r[i] + 1, dG)
                F.append(TimePoly(window, fc))
            else:
                F.append(None)
        for side in U:
            side.flags.writeable = False
        return WindowSolution(
            index=window_index,
            window=window,
            u=tuple(u),
            U=tuple(U),
            F=tuple(F),
            residual=residual,
            iterations=iterations,
        )


def solve_window_fixed_point(
    ops: FeOperators,
    spec: SchemeSpec,
    cfg: WindowConfig,
    incoming,
    histories=((), ()),
    window_index: int = 1,
    *,
    quadrature: str = "exact",
    tol: float = 1e-10,
    max_iter: int = 200,
    flux_guess=None,
) -> WindowSolution:
    """Lagged window iteration: the flux of the previous sweep on the right side.

    Each sweep solves the substeps of both subdomains implicitly with the
    flux at the previous iterate, then the flux rows from the new states
    (WindowOperator's splitting).  Terminates when the relative window
    residual drops to tol; sustained growth raises ContractionError.
    """
    op = WindowOperator(
        ops,
        spec,
        cfg,
        quadrature=quadrature,
        solver="fixed-point",
        fp_tol=tol,
        fp_max_iter=max_iter,
    )
    return op.solve(incoming, histories, window_index, flux_guess=flux_guess)


# ---------------------------------------------------------------------------
# Property checks.


@dataclasses.dataclass(frozen=True)
class ConservationReport:
    mode: str
    residual: float
    scale: float

    @property
    def relative(self) -> float:
        return self.residual / self.scale if self.scale > 0 else 0.0


def check_flux_conservation(sol: WindowSolution, ops: FeOperators, mode: str = "strong") -> ConservationReport:
    """Residual of the flux cancellation identity on one window.

    strong compares the flux polynomials coefficientwise (requires equal
    orders); weak tests the sum against window polynomials up to the
    smaller order; cn tests the endpoint-average sums of the classical
    q=1 quadrature against constants.
    """
    if not ops.conservation_compatible:
        raise ValueError(
            "flux conservation requires row-wise antisymmetric coupling "
            "(B[0,:] = -B[1,:]) and opposite interface data (g1 = -g2)"
        )
    F1, F2 = sol.F
    if F1 is None or F2 is None:
        return ConservationReport(mode, 0.0, 0.0)
    scale = float(np.max(np.abs(F1.coeffs))) if F1.coeffs.size else 0.0
    if mode == "strong":
        if F1.order != F2.order:
            raise ValueError("strong conservation is defined for equal flux orders")
        residual = float(np.max(np.abs(F1.coeffs + F2.coeffs)))
        return ConservationReport(mode, residual, scale)
    if mode == "weak":
        s = min(F1.order, F2.order)
        dt = sol.window.length
        worst = 0.0
        ref = 0.0
        for p in range(s + 1):
            m1 = dt / (2 * p + 1) * (ops.M_gamma @ F1.coeffs[p])
            m2 = dt / (2 * p + 1) * (ops.M_gamma @ F2.coeffs[p])
            worst = max(worst, float(np.max(np.abs(m1 + m2))))
            ref = max(ref, float(np.max(np.abs(m1))))
        return ConservationReport(mode, worst, ref)
    if mode == "cn":
        total = np.zeros(ops.d_gamma)
        ref = 0.0
        for i, F in enumerate((F1, F2)):
            vals = np.stack([F(p.interval.a) for p in sol.u[i]] + [F(sol.u[i][-1].interval.b)])
            avg = 0.5 * (vals[:-1] + vals[1:])
            part = (sol.u[i][0].interval.length) * avg.sum(axis=0)
            total += ops.M_gamma @ part
            ref = max(ref, float(np.max(np.abs(ops.M_gamma @ part))))
        return ConservationReport(mode, float(np.max(np.abs(total))), ref)
    raise ValueError(f"unknown conservation mode {mode!r}")


def interfacial_energy_term(sol: WindowSolution, ops: FeOperators, mode: str = "exact") -> float:
    """Interface work term of one window; nonpositive for semidefinite coupling.

    exact mode integrates -(F_i, u_i) over every substep; cn mode uses the
    endpoint-average sums of the classical q=1 quadrature.
    """
    if ops.has_g:
        raise ValueError("interfacial energy sign requires zero interface data")
    if not ops.b_psd:
        raise ValueError("interfacial energy sign requires positive semidefinite coupling")
    if ops.d_gamma == 0:
        return 0.0
    total = 0.0
    for i in range(2):
        F = sol.F[i]
        if mode == "cn":
            for n, piece in enumerate(sol.u[i]):
                dt_i = piece.interval.length
                u_avg = 0.5 * (sol.U[i][n] + sol.U[i][n + 1])
                f_avg = 0.5 * (F(piece.interval.a) + F(piece.interval.b))
                total -= dt_i * float((ops.T[i] @ u_avg) @ (ops.M_gamma @ f_avg))
        elif mode == "exact":
            for piece in sol.u[i]:
                npts = points_for_degree(piece.order + F.order)
                t, w = gauss_on(piece.interval, npts)
                for tk, wk in zip(t, w):
                    total -= wk * float((ops.T[i] @ piece(tk)) @ (ops.M_gamma @ F(tk)))
        else:
            raise ValueError(f"unknown energy mode {mode!r}")
    return total


# ---------------------------------------------------------------------------
# Coupled single-system form and the simulation driver.


def coupled_system(ops: FeOperators):
    """Fold the interface condition into one block system M u' = -L u + b(t).

    Returns (M, L, load, slices); load is None when the problem has no data
    and, like the operators' own loads, takes a time or an array of times.
    Useful for reference solves and for single-rate comparisons.
    """
    d1, d2 = ops.d_omega
    M = sp.block_diag(ops.M, format="csr")
    grid = [[ops.L[0].tolil(), sp.lil_matrix((d1, d2))], [sp.lil_matrix((d2, d1)), ops.L[1].tolil()]]
    if ops.d_gamma:
        for i in range(2):
            for j in range(2):
                if ops.B[i, j] == 0.0:
                    continue
                grid[i][j] = grid[i][j] + ops.B[i, j] * (ops.T[i].T @ ops.M_gamma @ ops.T[j])
    Lc = sp.bmat(grid, format="csr")
    load = None
    if ops.has_f or ops.has_g:
        Tt = tuple(ops.T[i].T.tocsr() for i in range(2))

        @dgit.batched
        def load(t) -> np.ndarray:
            parts = []
            for i in range(2):
                v = ops.f_vec(i, t)
                if ops.load_g[i] is not None:
                    v = v + (Tt[i] @ ops.g_vec(i, t).T).T
                parts.append(v)
            return np.concatenate(parts, axis=-1)

    return M, Lc, load, (slice(0, d1), slice(d1, d1 + d2))


@dataclasses.dataclass
class Trajectory:
    """Sequentially solved windows plus the synchronized energy history."""

    windows: list
    sync_times: np.ndarray
    side_energies: np.ndarray  # (N + 1, 2): 1/2 U_i^T M_i U_i at each synchronization time
    spec: SchemeSpec
    cfg: WindowConfig
    quadrature: str
    solver: str

    @property
    def energies(self) -> np.ndarray:
        return self.side_energies[:, 0] + self.side_energies[:, 1]


def _fill_init_windows(ops, spec, cfg, u0, n_init: int):
    """Solve the leading windows with a fine single-rate reference integrator.

    Supplies starting data for schemes whose side conditions reach further
    back than the available history.  The substep states and the fluxes
    are exact L2 projections of the fine piecewise solution and of its
    trace combinations, integrated piece by piece with the cross_moments
    table of the fine steps.
    """
    Mc, Lc, load, slices = coupled_system(ops)
    n_fine_per_sub = 32
    fine_per_window = n_fine_per_sub * cfg.M[0] * cfg.M[1]
    edges = np.linspace(0.0, cfg.window(n_init - 1).b, (n_init - 1) * fine_per_window + 1)
    fine_spec = continuous_galerkin(2)
    coeffs, side = dgit.integrate(Mc, Lc, load, np.concatenate(u0), fine_spec, edges)

    def project(lo: int, pieces: np.ndarray, target: Interval, k: int) -> TimePoly:
        # order-k projection onto target of the fine pieces lo, lo + 1, ...
        X = dgit.cross_moments(edges[lo : lo + len(pieces) + 1], target, fine_spec.q, k)
        scale = (2 * np.arange(k + 1) + 1)[:, None] / target.length
        return TimePoly(target, scale * np.einsum("nac,nab->bc", pieces, X))

    Mg_lu = dgit.factorize(ops.M_gamma) if (ops.d_gamma and ops.has_g) else None
    windows = []
    for w in range(1, n_init):
        window = cfg.window(w)
        lo = (w - 1) * fine_per_window
        fine = coeffs[lo : lo + fine_per_window]
        u, U, F = [], [], []
        for i in range(2):
            sub_edges = cfg.substep_edges(i, w)
            per_sub = fine_per_window // cfg.M[i]
            u.append(
                [
                    project(
                        lo + n * per_sub,
                        fine[n * per_sub : (n + 1) * per_sub, :, slices[i]],
                        Interval(sub_edges[n], sub_edges[n + 1]),
                        spec.q,
                    )
                    for n in range(cfg.M[i])
                ]
            )
            side_i = side[lo : lo + fine_per_window + 1 : per_sub, slices[i]].copy()
            side_i.flags.writeable = False
            U.append(side_i)
        if ops.d_gamma:
            traces = [
                (ops.T[j] @ fine[:, :, slices[j]].reshape(-1, ops.d_omega[j]).T).T.reshape(
                    fine_per_window, fine_spec.q + 1, ops.d_gamma
                )
                for j in range(2)
            ]
        for i in range(2):
            if not ops.d_gamma:
                F.append(None)
                continue
            Fi = project(lo, ops.B[i, 0] * traces[0] + ops.B[i, 1] * traces[1], window, cfg.r[i])
            if ops.has_g:
                Fi = Fi - project_l2(
                    lambda t, i=i: Mg_lu.solve(ops.g_vec(i, t)), window, cfg.r[i], npts=16
                )
            F.append(Fi)
        windows.append(
            WindowSolution(
                index=w,
                window=window,
                u=tuple(u),
                U=tuple(U),
                F=tuple(F),
                initialized_from_reference=True,
            )
        )
    return windows


def run_simulation(
    ops: FeOperators,
    spec: SchemeSpec,
    cfg: WindowConfig,
    *,
    quadrature: str = "exact",
    solver: str = "direct",
    u0=None,
    fp_tol: float = 1e-10,
    fp_max_iter: int = 200,
) -> Trajectory:
    """March the coupled problem through all windows sequentially."""
    if solver not in ("direct", "fixed-point"):
        raise ValueError(f"unknown solver {solver!r}")
    u0 = tuple(np.asarray(v, dtype=float) for v in (u0 if u0 is not None else ops.u0))
    n_init = cfg.n_init(spec)
    if n_init > cfg.N:
        raise ValueError(
            f"{n_init - 1} initialization windows leave no scheme window (N={cfg.N})"
        )
    if n_init > 1:
        for i in range(2):
            if spec.k_s > cfg.M[i] + 1:
                raise ValueError("side conditions reach back beyond one window of history")
    windows = list(_fill_init_windows(ops, spec, cfg, u0, n_init)) if n_init > 1 else []
    op = WindowOperator(
        ops,
        spec,
        cfg,
        quadrature=quadrature,
        solver=solver,
        fp_tol=fp_tol,
        fp_max_iter=fp_max_iter,
    )

    # Each window, reference-filled or solved, hands the next one its last
    # side values and the ones before them, newest first.
    incoming, histories, flux_guess = u0, ((), ()), None
    depth = max(spec.k_s - 1, 1)
    for n in range(1, cfg.N + 1):
        if n >= n_init:
            try:
                windows.append(op.solve(incoming, histories, n, flux_guess=flux_guess))
            except ContractionError as err:
                raise ContractionError(
                    f"window {n}: {err}",
                    iterations=err.iterations,
                    factor=err.factor,
                ) from err
            except SolverError as err:
                raise SolverError(f"window {n}: {err}") from err
        sol = windows[n - 1]
        incoming = tuple(sol.U[i][-1] for i in range(2))
        histories = tuple(([*sol.U[i][-2::-1]] + list(histories[i]))[:depth] for i in range(2))
        if sol.F[0] is not None:
            flux_guess = sol.F

    states = [u0] + [tuple(sol.U[i][-1] for i in range(2)) for sol in windows]
    side_energies = np.array(
        [[0.5 * float(v @ (ops.M[i] @ v)) for i, v in enumerate(state)] for state in states]
    )
    return Trajectory(windows, cfg.sync_times(), side_energies, spec, cfg, quadrature, solver)


def export_trajectory_csv(traj: Trajectory, ops: FeOperators, stream) -> None:
    """Per-window energy and interface diagnostics, 17 significant digits."""
    cons_mode = "strong" if traj.cfg.r[0] == traj.cfg.r[1] else "weak"
    energy_mode = "cn" if traj.quadrature == "trapezoid" else "exact"
    can_cons = ops.conservation_compatible and ops.d_gamma > 0
    can_energy = (not ops.has_g) and ops.b_psd and ops.d_gamma > 0

    def fmt(x: float) -> str:
        return f"{x:.17g}"

    stream.write("window,t_sync,energy_1,energy_2,flux_conservation_residual,interfacial_energy_term\n")
    e1, e2 = traj.side_energies[0]
    stream.write(f"0,{fmt(traj.sync_times[0])},{fmt(e1)},{fmt(e2)},nan,nan\n")
    for n, sol in enumerate(traj.windows, start=1):
        e1, e2 = traj.side_energies[n]
        cons = (
            fmt(check_flux_conservation(sol, ops, cons_mode).relative) if can_cons else "nan"
        )
        energy = fmt(interfacial_energy_term(sol, ops, energy_mode)) if can_energy else "nan"
        stream.write(f"{n},{fmt(traj.sync_times[n])},{fmt(e1)},{fmt(e2)},{cons},{energy}\n")
