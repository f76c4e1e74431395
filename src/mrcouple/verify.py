"""Manufactured solutions, overkill reference solves, and rate estimation.

The manufactured forcings are closed forms read off each preset's table;
the library never imports sympy (the test suite checks the closed forms
against a symbolic derivation).

Temporal convergence is measured against the semi-discrete solution of
the same spatial system, so spatial discretization error cancels by
construction: the reference is a single-rate, exactly-coupled solve with
a tiny step.  A scheme whose side conditions reach back more than one
side value gets window 1 from the coupling module's own fine single-rate
solve (cg2 at 32*M1*M2 steps), so its starting error sits far below the
measured ones; error norms skip that window.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from . import coupling, dgit
from .coupling import WindowConfig, coupled_system, run_simulation
from .fespace import AdvectionSpec, FeOperators, ProblemSpec, Separable
from .timepoly import SchemeSpec, crank_nicolson, dg, gauss_rule, legendre_table

ROUNDOFF_FLOOR = 1e-12


@dataclasses.dataclass(frozen=True)
class MmsPreset:
    """A manufactured pair u_i = sin(pi x) p_i(y) b(t).

    p holds the coefficients of the quadratics p_1, p_2 in ascending
    powers of y; time names b: "exp" for exp(-t), "linear" for 1 + t/2.
    """

    p: tuple
    time: str


MMS_PRESETS = {
    # (1 - y)(1 + y/2) and (1 + y)(1 - y/2)
    "smooth": MmsPreset(p=((1.0, -0.5, -0.5), (1.0, 0.5, -0.5)), time="exp"),
    # (1 - y)(y + 1/2) and -(1 + y)(1/2 - y): mirror negatives across y = 0
    "antisym": MmsPreset(p=((0.5, 0.5, -1.0), (-0.5, 0.5, 1.0)), time="exp"),
    "polyt": MmsPreset(p=((1.0, -0.5, -0.5), (1.0, 0.5, -0.5)), time="linear"),
}

# time kind -> (b, b')
_TIME_FACTORS = {
    "exp": (
        lambda t: np.exp(-np.asarray(t, dtype=float)),
        lambda t: -np.exp(-np.asarray(t, dtype=float)),
    ),
    "linear": (
        lambda t: 1.0 + 0.5 * np.asarray(t, dtype=float),
        lambda t: np.full(np.shape(t), 0.5),
    ),
}


@dataclasses.dataclass
class ManufacturedCase:
    """Exact solution pair plus the forcings that make it solve the model."""

    name: str
    problem: ProblemSpec
    exact: tuple  # u_i(x, y, t)


def _space_factors(c: tuple, nu: float, velocity: Callable) -> tuple:
    """a = sin(pi x) p(y) for p with coefficients c, and -nu lap a + s . grad a."""

    def a(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.sin(np.pi * x) * (c[0] + y * (c[1] + y * c[2]))

    def operator(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        sin, cos = np.sin(np.pi * x), np.cos(np.pi * x)
        p = c[0] + y * (c[1] + y * c[2])
        sx, sy = velocity(x, y)
        return (
            nu * sin * (np.pi**2 * p - 2.0 * c[2])
            + sx * np.pi * cos * p
            + sy * sin * (c[1] + 2.0 * c[2] * y)
        )

    return a, operator


def mms_case(
    name: str,
    *,
    nu: tuple = (1.0, 0.5),
    B=None,
    advection: tuple = (AdvectionSpec(), AdvectionSpec()),
) -> ManufacturedCase:
    """Build a manufactured case from the closed forms of its preset.

    With u_i = a_i(x, y) b(t) and a steady, divergence-free advection field
    s_i, both forcings are Separable: f_i = a_i b' + (-nu_i lap a_i +
    s_i . grad a_i) b, and g_i is the flux condition rearranged for g_i,
    [B_i0 a_1 + B_i1 a_2 + nu_i n_i d_y a_i]_{y=0} b, with n_i the outward
    normal of each subdomain at the interface.
    """
    if name not in MMS_PRESETS:
        raise ValueError(f"unknown manufactured preset {name!r}; have {sorted(MMS_PRESETS)}")
    if B is None:
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
    B = np.asarray(B, dtype=float).reshape(2, 2)
    preset = MMS_PRESETS[name]
    b, db = _TIME_FACTORS[preset.time]
    normals = (-1, 1)  # outward y-component at the interface, per subdomain
    f_fns, g_fns, u0_fns, u_fns = [], [], [], []
    for i, c in enumerate(preset.p):
        a, operator = _space_factors(c, nu[i], advection[i].velocity(i + 1))
        f_fns.append(Separable(((a, db), (operator, b))))
        # a_j(x, 0) = p_j(0) sin(pi x) and d_y a_i(x, 0) = p_i'(0) sin(pi x)
        k = B[i, 0] * preset.p[0][0] + B[i, 1] * preset.p[1][0] + nu[i] * normals[i] * c[1]
        g_fns.append(
            Separable(((lambda x, k=k: k * np.sin(np.pi * np.asarray(x, dtype=float)), b),))
        )
        u_fns.append(lambda x, y, t, a=a: a(x, y) * b(t))
        u0_fns.append(lambda x, y, a=a: a(x, y) * b(0.0))

    problem = ProblemSpec(
        nu=tuple(nu),
        advection=tuple(advection),
        B=B,
        f=tuple(f_fns),
        g=tuple(g_fns),
        u0=tuple(u0_fns),
    )
    return ManufacturedCase(name=name, problem=problem, exact=tuple(u_fns))


# ---------------------------------------------------------------------------
# Overkill reference trajectories.


@dataclasses.dataclass
class ReferenceTrajectory:
    """Dense single-rate solve of the exactly-coupled system, queryable in time.

    It holds what dgit.integrate solves with scheme: free[n], shape
    (test_order, d1 + d2), the free modes on the step (boundaries[n],
    boundaries[n + 1]), and sides[n], the state at boundaries[n].  For
    "cn" free is empty, so the oracle holds (n_steps + 1) (d1 + d2)
    floats; for "dg2" free holds the step's three Legendre coefficients
    and sides one value more per step.  coeffs forms the coefficients of
    the steps a query reads; a query outside (boundaries[0],
    boundaries[-1]) reads the first or last step's polynomial.
    """

    boundaries: np.ndarray
    free: np.ndarray
    sides: np.ndarray
    scheme: SchemeSpec
    slices: tuple
    ops: FeOperators

    def coeffs(self, steps) -> np.ndarray:
        """Legendre coefficients (len(steps), q + 1, d1 + d2) of the given steps."""
        return dgit.march_coeffs(self.scheme, self.free, self.sides, (), steps)

    def states(self, ts) -> np.ndarray:
        """Coupled state at each of the 1-D array of times ts, (nt, d1 + d2)."""
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.boundaries, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.free) - 1)
        a, b = self.boundaries[idx], self.boundaries[idx + 1]
        tab = legendre_table(self.scheme.q, 2.0 * (ts - a) / (b - a) - 1.0)
        return np.einsum("ak,kad->kd", tab, self.coeffs(idx))

    def fluxes(self, i: int, ts, states: Optional[np.ndarray] = None) -> np.ndarray:
        """Pointwise interface flux at each of the times ts, (nt, d_gamma).

        states, if given, holds the coupled state at ts (as from states(ts)).
        """
        ts = np.asarray(ts, dtype=float)
        X = self.states(ts) if states is None else states
        ops = self.ops
        u1, u2 = X[:, self.slices[0]], X[:, self.slices[1]]
        out = (ops.B[i, 0] * (ops.T[0] @ u1.T) + ops.B[i, 1] * (ops.T[1] @ u2.T)).T
        if ops.load_g[i] is not None:
            out = out - ops.g_trace(i, ts)
        return out


_SPIN_UP_STEPS = 1024


def prepare_initial_state(
    ops: FeOperators, t_burn: float = 0.25, *, system: Optional[tuple] = None
) -> tuple:
    """Evolve the raw initial data through a fine burn-in ending at t = 0.

    Nodal interpolants generally sit off the slow manifold of the spatially
    discrete system; the resulting stiff transient (decay rates of order
    nu/h^2) swamps coarse-step temporal error measurements.  Running the
    overkill integrator over (-t_burn, 0) hands back initial data through
    which the semi-discrete solution is smooth in time, so measured rates
    reflect the scheme rather than the preparation of the data.  The
    burn-in takes _SPIN_UP_STEPS Crank-Nicolson steps on system, the
    coupled_system(ops) it marches on, built here if not given (it does
    not read ops.u0, so one serves the spin-up and the oracle).  The
    states are copies, so they do not keep the burn-in's side values
    alive.
    """
    if t_burn <= 0:
        return tuple(np.asarray(v, dtype=float) for v in ops.u0)
    Mc, Lc, load, slices = system or coupled_system(ops)
    edges = np.linspace(-t_burn, 0.0, _SPIN_UP_STEPS + 1)
    _, side = dgit.integrate(
        Mc, Lc, load, np.concatenate(ops.u0), crank_nicolson(), edges, load_npts=4
    )
    coupling.require_finite("spin-up", side)
    return tuple(side[-1][s].copy() for s in slices)


_ORACLE_STEPS_PER_UNIT_TIME = {"cn": 2**12, "dg2": 2**9}


def oracle_step_count(t_f: float, n_steps: Optional[int] = None, scheme: str = "cn") -> int:
    """Steps of reference_solve on (0, t_f): n_steps if given, else the
    scheme's default rate (2^12 steps per unit time for "cn", 2^9 for
    "dg2"), at least 64."""
    if scheme not in _ORACLE_STEPS_PER_UNIT_TIME:
        raise ValueError(f"unknown reference scheme {scheme!r}")
    if n_steps is not None:
        return n_steps
    return max(64, int(round(_ORACLE_STEPS_PER_UNIT_TIME[scheme] * t_f)))


def reference_solve(
    ops: FeOperators,
    t_f: float,
    n_steps: Optional[int] = None,
    *,
    scheme: str = "cn",
    system: Optional[tuple] = None,
) -> ReferenceTrajectory:
    """Single-rate overkill solve of the coupled system on (0, t_f), from ops.u0.

    scheme "cn" uses the pinned-endpoint q=1 method, "dg2" the purely
    variational q=2 method; oracle_step_count gives the step count.  The
    march runs on system, coupled_system(ops), built here if not given;
    a study passes the one its spin-up marched on.
    """
    n_steps = oracle_step_count(t_f, n_steps, scheme)
    sp_scheme = crank_nicolson() if scheme == "cn" else dg(2)
    Mc, Lc, load, slices = system or coupled_system(ops)
    start = np.concatenate(ops.u0)
    boundaries = np.linspace(0.0, t_f, n_steps + 1)
    free, sides = dgit.integrate(Mc, Lc, load, start, sp_scheme, boundaries, load_npts=4)
    coupling.require_finite("oracle solve", free, sides)
    return ReferenceTrajectory(boundaries, free, sides, sp_scheme, slices, ops)


# ---------------------------------------------------------------------------
# Error norms and convergence studies.


@dataclasses.dataclass
class ErrorReport:
    """Errors of a multirate trajectory against a reference in the mass norm."""

    l2: tuple  # per-subdomain broken space-time L2 error
    nodal: tuple  # per-subdomain arrays of side-value errors at all substeps
    sync: np.ndarray  # combined side-value error at each synchronization time
    flux_l2: tuple  # per-subdomain L2-in-time flux error

    @property
    def l2_total(self) -> float:
        return math.sqrt(self.l2[0] ** 2 + self.l2[1] ** 2)

    @property
    def sync_max(self) -> float:
        return float(np.max(self.sync)) if len(self.sync) else 0.0

    @property
    def nodal_max(self) -> float:
        return max(
            (float(np.max(a)) if len(a) else 0.0) for a in self.nodal
        )

    @property
    def flux_total(self) -> float:
        return math.sqrt(self.flux_l2[0] ** 2 + self.flux_l2[1] ** 2)


def _mass_sq(M, diffs: np.ndarray) -> np.ndarray:
    """diffs[k]^T M diffs[k] for every row k, from one product with M.

    Both factors are C-ordered, so each row's sum runs the same way
    however many rows there are.
    """
    diffs = np.ascontiguousarray(diffs)
    return np.einsum("kd,kd->k", diffs, np.ascontiguousarray((M @ diffs.T).T))


def _window_sums(terms: np.ndarray) -> np.ndarray:
    """Per window (leading axis), the sum of its weighted squared errors."""
    return terms.reshape(len(terms), -1).sum(axis=1)


def _chunk_errors(ops: FeOperators, oracle: ReferenceTrajectory, part: list, npts: int):
    """(l2_sq, nodal, sync, flux_sq) of the solved windows in part, from one oracle query.

    l2_sq and flux_sq hold per side each window's squared error; nodal per
    side the side-value errors at every substep end, window by window; sync
    the combined error at each window's end.  Every value is computed row
    by row, a window's from its own rows, so it has the same bits whichever
    windows share its chunk.
    """
    a = np.array([sol.window.a for sol in part])
    b = np.array([sol.window.b for sol in part])
    length = (b - a)[:, None]
    x, w = gauss_rule(npts)
    times, subs, flux = [], [], []
    for i in range(2):
        u = np.stack([sol.u[i] for sol in part])  # (K, M_i, q + 1, d_i)
        edges = np.linspace(a, b, u.shape[1] + 1, axis=1)  # each window's sol.edges(i)
        dt = np.diff(edges, axis=1)[:, :, None]
        vals = np.einsum("ap,knad->knpd", legendre_table(u.shape[2] - 1, x), u)
        subs.append((0.5 * dt * w, vals))
        times += [(edges[:, :-1, None] + 0.5 * (x + 1.0) * dt).ravel(), edges[:, 1:].ravel()]
        # each window's gauss_on rule and its flux there
        xf, wf = gauss_rule(len(part[0].F[i]) + 3)
        tf = a[:, None] + 0.5 * (xf + 1.0) * length
        coeffs = np.stack([sol.F[i] for sol in part])  # (K, r_i + 1, d_gamma)
        tab = legendre_table(coeffs.shape[1] - 1, 2.0 * (tf - a[:, None]) / length - 1.0)
        flux.append((tf.ravel(), 0.5 * length * wf, np.einsum("akp,kag->kpg", tab, coeffs)))
        times.append(flux[i][0])
    ref = np.split(oracle.states(np.concatenate(times)), np.cumsum([len(t) for t in times])[:-1])
    l2_sq, nodal, flux_sq = [], [], []
    for i in range(2):
        side, (w_sub, vals) = oracle.slices[i], subs[i]
        at_gauss, at_ends, at_flux = ref[3 * i : 3 * i + 3]
        d = vals.shape[-1]
        diff = vals.reshape(-1, d) - at_gauss[:, side]
        l2_sq.append(_window_sums(w_sub * _mass_sq(ops.M[i], diff).reshape(w_sub.shape)))
        ends = np.stack([sol.U[i][1:] for sol in part]).reshape(-1, d)
        nodal.append(np.sqrt(np.maximum(0.0, _mass_sq(ops.M[i], ends - at_ends[:, side]))))
        tf, wf, F = flux[i]
        diff = F.reshape(len(tf), ops.d_gamma) - oracle.fluxes(i, tf, at_flux)
        flux_sq.append(_window_sums(wf * _mass_sq(ops.M_gamma, diff).reshape(wf.shape)))
    # the last substep end of a side is the window end
    last = [nodal[i].reshape(len(part), -1)[:, -1] for i in range(2)]
    return l2_sq, nodal, np.sqrt(last[0] ** 2 + last[1] ** 2), flux_sq


def error_norms(ops: FeOperators, windows, oracle: ReferenceTrajectory) -> ErrorReport:
    """All error norms of a run's windows, skipping a reference-filled one.

    windows is any iterable of the run's windows, e.g. march's.  The
    substep counts M_i, the state order q and the flux orders r_i are read
    off the first solved window.  The solved windows are taken a chunk at
    a time, sized by dgit.chunk_size over the oracle values a chunk
    queries, and only that chunk is held.  Per chunk the oracle is queried
    once, per side at every window's substep Gauss times, substep ends and
    flux Gauss times, and each norm makes one mass product per side.  The
    l2 and flux norms keep one squared error per window and sum them once,
    with math.fsum, so no bit of the report depends on the chunking.
    """
    solved = (sol for sol in windows if not sol.initialized_from_reference)
    first = next(solved, None)
    l2_sq, flux_sq, nodal, sync = ([], []), ([], []), ([], []), []
    if first is not None:
        npts = first.u[0].shape[1] + 3  # q + 4
        # oracle times of a window: per side and substep npts Gauss points and
        # its end, and per flux the order + 4 Gauss points of the window
        per_window = sum(len(first.u[i]) * (npts + 1) + len(first.F[i]) + 3 for i in range(2))
        chunk = dgit.chunk_size(per_window * sum(ops.d_omega))
        solved = itertools.chain([first], solved)
        while part := list(itertools.islice(solved, chunk)):
            part_l2, part_nodal, part_sync, part_flux = _chunk_errors(ops, oracle, part, npts)
            for i in range(2):
                l2_sq[i].append(part_l2[i])
                flux_sq[i].append(part_flux[i])
                nodal[i].append(part_nodal[i])
            sync.append(part_sync)

    def joined(parts: list) -> np.ndarray:
        return np.concatenate([np.empty(0), *parts])

    return ErrorReport(
        l2=tuple(math.sqrt(math.fsum(joined(v))) for v in l2_sq),
        nodal=tuple(joined(v) for v in nodal),
        sync=joined(sync),
        flux_l2=tuple(math.sqrt(math.fsum(joined(v))) for v in flux_sq),
    )


@dataclasses.dataclass
class RateRow:
    level: int
    dt: float
    dt_sub: tuple
    err_l2: tuple
    err_sync: float
    err_target: float
    rate_running: float
    excluded: bool = False


@dataclasses.dataclass
class RateTable:
    target: str
    rows: list
    observed_rate: float
    notes: list

    def write_csv(self, stream) -> None:
        stream.write("level,dt,dt1,dt2,err_l2_u1,err_l2_u2,err_sync,rate_running\n")
        for r in self.rows:
            stream.write(
                f"{r.level},{r.dt:.17g},{r.dt_sub[0]:.17g},{r.dt_sub[1]:.17g},"
                f"{r.err_l2[0]:.17g},{r.err_l2[1]:.17g},{r.err_sync:.17g},"
                f"{r.rate_running:.17g}\n"
            )


def convergence_study(
    ops: FeOperators,
    spec: SchemeSpec,
    base_cfg: WindowConfig,
    levels: int,
    *,
    target: str = "l2",
    quadrature: str = "exact",
    solver: str = "direct",
    oracle_scheme: str = "cn",
    oracle_steps: Optional[int] = None,
    spin_up: float = 0.0,
    map: Callable = map,
) -> RateTable:
    """Halve the window size `levels - 1` times and fit the error decay rate.

    Substep counts and flux orders stay fixed, so the substep sizes halve
    with the window.  The study starts from ops.u0; a positive spin_up
    replaces it with the burn-in state of prepare_initial_state, in a copy
    of ops (dataclasses.replace).  Levels whose error sits at the
    roundoff floor are excluded from the fit and noted.

    Spin-up and the oracle are computed once, here, both marching on
    one coupled_system(ops), which does not depend on the initial data;
    `map(fn, configs)` then applies the level function (one
    run_simulation and its error_norms) to each level's WindowConfig,
    coarsest first, and must yield fn's (config, ErrorReport) results in
    that order.
    """
    if levels < 3:
        raise ValueError("a rate needs at least 3 refinement levels")
    if target not in ("l2", "nodal", "sync", "flux"):
        raise ValueError(f"unknown study target {target!r}")
    system = coupled_system(ops)
    if spin_up > 0.0:
        ops = dataclasses.replace(ops, u0=prepare_initial_state(ops, spin_up, system=system))
    oracle = reference_solve(ops, base_cfg.t_f, oracle_steps, scheme=oracle_scheme, system=system)
    level = functools.partial(
        _level_errors, ops, spec, oracle, quadrature=quadrature, solver=solver
    )
    configs = [dataclasses.replace(base_cfg, N=base_cfg.N * 2**lvl) for lvl in range(levels)]
    return rate_table(target, list(map(level, configs)))


def _level_errors(ops, spec, oracle, cfg: WindowConfig, **run_kwargs) -> tuple:
    """One study level: (cfg, error_norms of run_simulation on cfg)."""
    traj = run_simulation(ops, spec, cfg, **run_kwargs)
    return cfg, error_norms(ops, traj.windows, oracle)


def rate_table(target: str, results: Sequence[tuple]) -> RateTable:
    """Rows, running rates and the fitted rate of a refinement study.

    results holds (level config, ErrorReport) pairs, coarsest first.  Levels
    whose error sits at the roundoff floor are excluded from the fit and
    noted.
    """
    rows, notes = [], []
    prev = None
    for lvl, (cfg, rep) in enumerate(results):
        err = {
            "l2": rep.l2_total,
            "nodal": rep.nodal_max,
            "sync": rep.sync_max,
            "flux": rep.flux_total,
        }[target]
        running = float("nan")
        if prev is not None and err > 0 and prev > 0:
            running = math.log2(prev / err)
        excluded = err < ROUNDOFF_FLOOR
        if excluded:
            notes.append(f"level {lvl}: error {err:.3e} at roundoff floor, excluded from fit")
        rows.append(
            RateRow(
                level=lvl,
                dt=cfg.dt,
                dt_sub=(cfg.dt_sub(0), cfg.dt_sub(1)),
                err_l2=rep.l2,
                err_sync=rep.sync_max,
                err_target=err,
                rate_running=running,
                excluded=excluded,
            )
        )
        prev = err
    fit = [(math.log(r.dt), math.log(r.err_target)) for r in rows if not r.excluded and r.err_target > 0]
    if len(fit) >= 2:
        xs = np.array([p[0] for p in fit])
        ys = np.array([p[1] for p in fit])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
        notes.append("too few usable levels for a rate fit")
    return RateTable(target=target, rows=rows, observed_rate=slope, notes=notes)
