"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
alongside the pytest status.
"""

import time
import zlib

import numpy as np
import pytest
import scipy.sparse as sp

import mrcouple as mc
from mrcouple import coupling, dgit
from mrcouple.timepoly import Interval, SchemeSpec, legendre_table

from test_coupling import agreement_bound, sweep_map, window_difference
from test_dgit import march_states
from test_timepoly import dense_ls_projection, poly_values


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


CONSERVATIVE_B = np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.fixture(scope="module")
def mesh8_ops():
    m1, m2 = mc.build_mesh(1, 8, 8), mc.build_mesh(2, 8, 8)
    imap = mc.match_interfaces(m1, m2)
    spec = mc.ProblemSpec(
        nu=(1.0, 0.5),
        B=CONSERVATIVE_B,
        u0=(
            lambda x, y: np.sin(np.pi * x) * (1.0 - y),
            lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
        ),
    )
    return mc.assemble(m1, m2, imap, spec)


@pytest.fixture(scope="module")
def mms_study_ops():
    case = mc.mms_case("smooth", nu=(1.0, 0.5), B=CONSERVATIVE_B)
    m1, m2 = mc.build_mesh(1, 4, 4), mc.build_mesh(2, 4, 4)
    imap = mc.match_interfaces(m1, m2)
    return mc.assemble(m1, m2, imap, case.problem)


def test_01_strong_flux_conservation(mesh8_ops):
    start = time.perf_counter()
    cfg = mc.WindowConfig(t_f=0.5, N=10, M=(2, 3), r=(1, 1))
    traj = mc.run_simulation(mesh8_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
    worst, scale = 0.0, 0.0
    for sol in traj.windows:
        worst = max(worst, float(np.max(np.abs(sol.F[0] + sol.F[1]))))
        scale = max(scale, float(np.max(np.abs(sol.F[0]))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 * scale and elapsed < 10.0
    report(
        1,
        "strong-flux-conservation",
        ok,
        f"max |F1+F2| = {worst:.3e} vs 1e-11*scale = {1e-11 * scale:.3e}, {elapsed:.1f}s",
    )


def test_02_weak_flux_conservation(mesh8_ops):
    cfg = mc.WindowConfig(t_f=0.5, N=10, M=(2, 3), r=(1, 0))
    traj = mc.run_simulation(mesh8_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
    worst_weak, strong_max, scale = 0.0, 0.0, 0.0
    for sol in traj.windows:
        worst_weak = max(worst_weak, mc.check_flux_conservation(sol, mesh8_ops, "weak"))
        F1, F2 = sol.F
        strong = np.max(np.abs(F1 + np.pad(F2, ((0, len(F1) - len(F2)), (0, 0)))))
        strong_max = max(strong_max, float(strong))
        scale = max(scale, float(np.max(np.abs(F1))))
    ok = worst_weak <= 1e-11 and strong_max > 1e-6 * scale
    report(
        2,
        "weak-flux-conservation",
        ok,
        f"weak rel residual {worst_weak:.3e}, strong residual {strong_max:.3e} "
        f"(> 1e-6*scale = {1e-6 * scale:.3e})",
    )


@pytest.mark.parametrize(
    "B",
    [np.eye(2), CONSERVATIVE_B, np.array([[2.0, -1.0], [-1.0, 1.0]])],
    ids=["identity", "conservative", "general-psd"],
)
def test_03_interfacial_energy_sign(B):
    m1, m2 = mc.build_mesh(1, 8, 8), mc.build_mesh(2, 8, 8)
    imap = mc.match_interfaces(m1, m2)
    spec = mc.ProblemSpec(
        nu=(1.0, 0.5),
        B=B,
        u0=(
            lambda x, y: np.sin(np.pi * x) * (1.0 - y),
            lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
        ),
    )
    ops = mc.assemble(m1, m2, imap, spec)
    cfg = mc.WindowConfig(t_f=1.0, N=20, M=(2, 3), r=(1, 1))
    traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
    energies = mc.window_diagnostics(traj.windows, ops, cfg, "trapezoid").energies
    e0 = energies[0]
    worst_term = max(mc.interfacial_energy_term(sol, ops, "cn") for sol in traj.windows)
    monotone = bool(np.all(np.diff(energies) <= 1e-12 * e0))
    ok = worst_term <= 1e-12 * e0 and monotone
    report(
        3,
        "interfacial-energy-sign",
        ok,
        f"max term {worst_term:.3e} vs 1e-12*E0 = {1e-12 * e0:.3e}, monotone={monotone}",
    )


def test_04_temporal_convergence_unconstrained(mms_study_ops):
    start = time.perf_counter()
    base = mc.WindowConfig(t_f=1.0, N=4, M=(1, 2), r=(1, 1))
    l2 = mc.convergence_study(
        mms_study_ops, mc.crank_nicolson(), base, 5,
        target="l2", quadrature="trapezoid", spin_up=0.25,
    )
    sync = mc.convergence_study(
        mms_study_ops, mc.crank_nicolson(), base, 5,
        target="sync", quadrature="trapezoid", spin_up=0.25,
    )
    elapsed = time.perf_counter() - start
    ok = 1.8 <= l2.observed_rate <= 2.2 and 1.8 <= sync.observed_rate <= 2.2 and elapsed < 120
    report(
        4,
        "temporal-convergence-r1",
        ok,
        f"L2 rate {l2.observed_rate:.3f}, sync rate {sync.observed_rate:.3f}, {elapsed:.0f}s",
    )


def test_05_coupling_limited_convergence(mms_study_ops):
    # With constant-in-time test functions every substep update sees only
    # substep averages of the flux, and the projection deficit has zero
    # window mean, so state errors superconverge past the dt^(r+1) bound;
    # the window-order barrier is carried by the flux variable itself.
    base = mc.WindowConfig(t_f=1.0, N=4, M=(1, 2), r=(0, 0))
    table = mc.convergence_study(
        mms_study_ops, mc.crank_nicolson(), base, 5,
        target="flux", quadrature="trapezoid", spin_up=0.25,
    )
    ok = 0.8 <= table.observed_rate <= 1.2
    report(5, "coupling-limited-convergence", ok, f"flux rate {table.observed_rate:.3f}")


@pytest.mark.parametrize("scheme_name", ["crank-nicolson", "dg1"])
def test_06_single_rate_degeneration(scheme_name):
    m1, m2 = mc.build_mesh(1, 8, 8), mc.build_mesh(2, 8, 8)
    imap = mc.match_interfaces(m1, m2)
    spec = mc.ProblemSpec(
        nu=(1.0, 0.5),
        B=CONSERVATIVE_B,
        f=(lambda x, y, t: np.sin(np.pi * x) * (1 - y) * np.cos(2 * t) * np.ones_like(x * y), None),
        u0=(
            lambda x, y: np.sin(np.pi * x) * (1.0 - y),
            lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
        ),
    )
    ops = mc.assemble(m1, m2, imap, spec)
    scheme = mc.shipped_schemes()[scheme_name]
    cfg = mc.WindowConfig(t_f=0.3, N=6, M=(1, 1), r=(scheme.q, scheme.q))
    traj = mc.run_simulation(ops, scheme, cfg, quadrature="exact")
    Mc, Lc, load, (s1, s2) = coupling.coupled_system(ops)
    _, side = dgit.integrate(Mc, Lc, load, np.concatenate(ops.u0), scheme, cfg.sync_times())
    worst = 0.0
    for n, sol in enumerate(traj.windows, start=1):
        scale = max(np.max(np.abs(side[n])), 1e-300)
        diff = max(
            np.max(np.abs(sol.U[0][-1] - side[n][s1])), np.max(np.abs(sol.U[1][-1] - side[n][s2]))
        )
        worst = max(worst, diff / scale)
    ok = worst <= 1e-10
    report(6, f"single-rate-degeneration[{scheme_name}]", ok, f"max rel diff {worst:.3e}")


def test_07_fixed_point_direct_equivalence():
    # coupling strong against each subdomain's response: the lagged sweeps
    # would contract on the short window only; the fixed point solves both
    stiff = mc.from_matrices(
        [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], 5.0 * CONSERVATIVE_B,
        u0=(np.array([1.0]), np.array([-1.0])),
    )
    tol = 1e-10
    before = tuple(v[None] for v in stiff.u0)
    diffs = []
    for t_f in (0.01, 1.0):
        cfg = mc.WindowConfig(t_f=t_f, N=1, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(stiff, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        direct = op.solve(before)
        fp = mc.solve_window_fixed_point(
            stiff, mc.crank_nicolson(), cfg, before, quadrature="trapezoid"
        )
        diffs.append(max(
            float(np.max(np.abs(got[i] - want[i])))
            for got, want in ((fp.U, direct.U), (fp.F, direct.F))
            for i in range(2)
        ))
    ok = max(diffs) <= 10 * tol
    report(
        7,
        "fixed-point-direct-equivalence",
        ok,
        f"max diff {diffs[0]:.3e} at t_f = 0.01, {diffs[1]:.3e} at t_f = 1 (bound {10 * tol:g})",
    )


@pytest.fixture(scope="module")
def vortex8_meshes():
    m1, m2 = mc.build_mesh(1, 8, 8), mc.build_mesh(2, 8, 8)
    return m1, m2, mc.match_interfaces(m1, m2)


@pytest.mark.parametrize("k", [10.0, 100.0, 1000.0])
def test_11_strong_coupling(vortex8_meshes, k):
    # B = k [[1, -1], [-1, 1]] beyond where the lagged sweeps contract (the
    # spectral radius of their map K exceeds 1): the fixed point still
    # solves every window, within the bound derived from cond(I + K), and
    # keeps the conservation and interface-sign gates
    spec = mc.ProblemSpec(
        nu=(1.0, 0.5),
        advection=(mc.AdvectionSpec(kind="vortex"),) * 2,
        B=k * CONSERVATIVE_B,
        u0=(
            lambda x, y: np.sin(np.pi * x) * (1.0 - y),
            lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
        ),
    )
    ops = mc.assemble(*vortex8_meshes, spec)
    cfg = mc.WindowConfig(t_f=0.2, N=10, M=(2, 3), r=(1, 1))
    worst_ratio, worst_cons, worst_term, monotone = 0.0, 0.0, -np.inf, True
    least_radius = np.inf
    for scheme in mc.shipped_schemes().values():
        for quadrature in ("exact", "trapezoid"):
            op = mc.WindowOperator(ops, scheme, cfg, quadrature=quadrature, solver="fixed-point")
            bound = agreement_bound(op)
            radius = float(np.max(np.abs(np.linalg.eigvals(sweep_map(op)))))
            least_radius = min(least_radius, radius)
            fp = list(mc.march(ops, scheme, cfg, quadrature=quadrature, solver="fixed-point"))
            direct = mc.march(ops, scheme, cfg, quadrature=quadrature)
            for got, want in zip(fp, direct):
                worst_ratio = max(worst_ratio, window_difference(got, want) / bound)
            diag = mc.window_diagnostics(fp, ops, cfg, quadrature)
            e0 = diag.energies[0]
            worst_cons = max(worst_cons, float(np.max(diag.conservation)))
            worst_term = max(worst_term, float(np.max(diag.work)) / e0)
            monotone = monotone and bool(np.all(np.diff(diag.energies) <= 1e-12 * e0))
    ok = (
        least_radius > 1.0 and worst_ratio <= 1.0 and worst_cons <= 1e-11
        and worst_term <= 1e-12 and monotone
    )
    report(
        11,
        f"strong-coupling[k={k:g}]",
        ok,
        f"sweep radius at least {least_radius:.2f}, "
        f"max difference {worst_ratio:.3f} of its bound, conservation {worst_cons:.3e}, "
        f"max interfacial term {worst_term:.3e} E0, monotone={monotone}",
    )


def test_08_exactness_and_side_conditions():
    worst_state, worst_side = 0.0, 0.0
    for name, spec in sorted(mc.shipped_schemes().items()):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        d = 3
        R = rng.standard_normal((d, d))
        M = sp.csr_matrix(R @ R.T + d * np.eye(d))
        coeffs = rng.standard_normal((spec.q + 1, d))
        boundaries = np.linspace(0.0, 0.5, 6)
        whole = Interval(boundaries[0], boundaries[-1])
        exact = lambda t: poly_values(whole, coeffs, t)
        # d/dt on the interval is 2 / length times d/dx on the reference [-1, 1]
        du = np.polynomial.legendre.legder(coeffs, scl=2.0 / whole.length)
        load = lambda t: (M @ poly_values(whole, du, t).T).T
        history0 = [exact(boundaries[0] - k * (boundaries[1] - boundaries[0])) for k in range(1, spec.k_s + 1)]
        march = dgit.integrate(
            M, None, load, exact(boundaries[0]), spec, boundaries, history0=history0
        )
        states, side = march_states(spec, march, history0), march[1]
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        for n, state in enumerate(states, start=1):
            step = Interval(boundaries[n - 1], boundaries[n])
            worst_state = max(
                worst_state,
                float(np.max(np.abs(state - mc.project_l2(exact, step, spec.q)))) / scale,
                float(np.max(np.abs(side[n] - exact(boundaries[n])))) / scale,
            )
            hist = [side[n - k] if n - k >= 0 else history0[k - n - 1] for k in range(0, spec.k_s + 1)]
            worst_side = max(
                worst_side, dgit.side_condition_residual(spec, step, state, hist) / scale
            )
    ok = worst_state <= 1e-10 and worst_side <= 1e-11
    report(
        8,
        "polynomial-exactness",
        ok,
        f"max state error {worst_state:.3e}, max side-condition residual {worst_side:.3e}",
    )


def test_09_dtilde_j_infrastructure():
    cn = mc.crank_nicolson()
    table_ok = np.allclose(cn.dtilde.matrix, [[1.0, -1.0], [1.0, 1.0]]) and np.isclose(
        cn.dtilde.determinant, 2.0
    )
    worst = 0.0
    schemes = mc.shipped_schemes()
    assert len(schemes) >= 5
    for name, spec in sorted(schemes.items()):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        iv = Interval(0.1, 0.35)
        for _ in range(100):
            # the low modes and the values at the side times, mapped back by node_map
            coeffs = rng.standard_normal((spec.q + 1, 2))
            samples = poly_values(iv, coeffs, spec.side_times(iv))
            back = spec.node_map @ np.vstack([coeffs[: spec.test_order], samples])
            scale = max(1.0, float(np.max(np.abs(coeffs))))
            worst = max(worst, float(np.max(np.abs(back - coeffs))) / scale)
    rejected = False
    try:
        SchemeSpec(q=2, n_s=2, k_s=1, thetas=(0.5, 0.5), D=[[0.0, 1.0], [1.0, 0.0]])
    except mc.SchemeError:
        rejected = True
    ok = table_ok and worst <= 1e-11 and rejected
    report(
        9,
        "dtilde-j-infrastructure",
        ok,
        f"CN table ok={table_ok}, round-trip max {worst:.3e}, repeated-node spec rejected={rejected}",
    )


def test_10_projection_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):
        k = int(rng.integers(0, 4))
        ncols = int(rng.integers(1, 3))
        a = float(rng.uniform(-1.0, 0.5))
        b = a + float(rng.uniform(0.4, 2.0))
        window = Interval(a, b)
        if case % 2 == 0:
            # smooth non-polynomial input against the plain projector
            c = rng.standard_normal((3, ncols))

            def f(t, c=c):
                t = np.atleast_1d(np.asarray(t, dtype=float))
                return (
                    c[0][None, :] * np.exp(-t)[:, None]
                    + c[1][None, :] * np.sin(t)[:, None]
                    + c[2][None, :] * (t**2)[:, None]
                )

            got = mc.project_l2(lambda t: f(t)[0], window, k)
            oracle = dense_ls_projection(f, window, k, n_total=10_000)
        else:
            # broken polynomial input, pieces of mixed order zero-padded to
            # order 2, against the piecewise projector
            n_pieces = int(rng.integers(2, 5))
            edges = np.linspace(a, b, n_pieces + 1)
            raw = [rng.standard_normal((int(rng.integers(1, 4)), ncols)) for _ in range(n_pieces)]
            pieces = np.stack([np.pad(c, ((0, 3 - len(c)), (0, 0))) for c in raw])
            got = mc.project_pieces(edges, pieces, k)

            def f(t, pieces=pieces, edges=edges):
                # each sample on its own piece: one table over all of them
                idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(pieces) - 1)
                x = 2.0 * (t - edges[idx]) / (edges[idx + 1] - edges[idx]) - 1.0
                return np.einsum("at,tac->tc", legendre_table(2, x), pieces[idx])

            oracle = dense_ls_projection(
                f, window, k, n_total=10_000,
                pieces=[Interval(x0, x1) for x0, x1 in zip(edges[:-1], edges[1:])],
            )
        scale = max(1.0, float(np.max(np.abs(oracle))))
        worst = max(worst, float(np.max(np.abs(got - oracle))) / scale)
    ok = worst <= 1e-10
    report(10, "projection-oracles", ok, f"max relative deviation {worst:.3e} over 50 cases")
