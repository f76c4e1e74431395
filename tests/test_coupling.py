import io

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import mrcouple as mc
from mrcouple import coupling, dgit
from mrcouple.timepoly import Interval, SchemeSpec, TimePoly, legendre_table


def incoming(ops):
    return tuple(np.asarray(v) for v in ops.u0)


class TestWindowConfig:
    def test_sync_times_exact(self):
        cfg = mc.WindowConfig(t_f=1.0, N=8)
        t = cfg.sync_times()
        assert t[0] == 0.0 and t[-1] == 1.0
        assert np.allclose(np.diff(t), cfg.dt)

    def test_substep_edges_hit_window_ends(self):
        cfg = mc.WindowConfig(t_f=0.7, N=3, M=(3, 5))
        for i in range(2):
            edges = cfg.substep_edges(i, 2)
            w = cfg.window(2)
            assert edges[0] == w.a and edges[-1] == w.b
            assert len(edges) == cfg.M[i] + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.WindowConfig(t_f=1.0, N=0)
        with pytest.raises(ValueError):
            mc.WindowConfig(t_f=1.0, N=1, M=(0, 1))
        with pytest.raises(ValueError):
            mc.WindowConfig(t_f=1.0, N=1, r=(-1, 0))
        with pytest.raises(ValueError):
            mc.WindowConfig(t_f=-1.0, N=1)
        for t_f in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive and finite"):
                mc.WindowConfig(t_f=t_f, N=1)
        with pytest.raises(ValueError, match="subdomain 2 are too short"):
            mc.WindowConfig(t_f=1e-13, N=1, M=(1, 100))


class TestStepRestriction:
    def test_formula(self):
        cfg = mc.WindowConfig(t_f=0.01, N=1)
        assert mc.step_restriction_ratio(cfg, 1.0) == pytest.approx(0.02)
        assert mc.step_restriction_ratio(cfg, 0.1) == pytest.approx(1.1)

    def test_monotone_in_dt(self):
        ratios = [
            mc.step_restriction_ratio(mc.WindowConfig(t_f=dt, N=1), 0.5) for dt in (0.01, 0.02, 0.04)
        ]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_bad_h(self):
        with pytest.raises(ValueError):
            mc.step_restriction_ratio(mc.WindowConfig(t_f=1.0, N=1), 0.0)


class TestTraceProjection:
    def test_single_substep_identity(self):
        rng = np.random.default_rng(0)
        piece = TimePoly(Interval(0.0, 0.5), rng.standard_normal((2, 3)))
        out = mc.trace_projection([piece], piece.interval, 1)
        assert np.allclose(out.coeffs, piece.coeffs, atol=1e-14)

    def test_two_constants_average(self):
        pieces = [TimePoly(Interval(0.0, 0.5), [[2.0]]), TimePoly(Interval(0.5, 1.0), [[4.0]])]
        out = mc.trace_projection(pieces, Interval(0.0, 1.0), 0)
        assert out.coeffs[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_cn_variant_matches_midpoint_sampling(self):
        # for linear pieces and window order <= 1 the endpoint-average rule
        # equals sampling states and tests at the substep midpoints
        rng = np.random.default_rng(1)
        window = Interval(0.0, 0.4)
        edges = np.linspace(0.0, 0.4, 5)
        pieces = [
            TimePoly(Interval(a, b), rng.standard_normal((2, 2)))
            for a, b in zip(edges[:-1], edges[1:])
        ]
        out = mc.trace_projection(pieces, window, 1, mode="trapezoid")
        dt_i = edges[1] - edges[0]
        mids = 0.5 * (edges[:-1] + edges[1:])
        tab = legendre_table(1, window.to_reference(mids))
        oracle = np.zeros((2, 2))
        for n, piece in enumerate(pieces):
            for p in range(2):
                oracle[p] += dt_i * piece(mids[n]) * tab[p, n]
        for p in range(2):
            oracle[p] *= (2 * p + 1) / window.length
        assert np.allclose(out.coeffs, oracle, atol=1e-13)

    def test_exact_mode_requires_tiling(self):
        pieces = [TimePoly(Interval(0.0, 0.5), [[1.0]])]
        with pytest.raises(ValueError):
            mc.trace_projection(pieces, Interval(0.0, 1.0), 0)


class TestFluxSolve:
    def test_equal_traces_conservative_pair(self):
        window = Interval(0.0, 1.0)
        c = TimePoly(window, [[2.0], [0.3]])
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F1, F2 = mc.flux_solve(c, c, B, (1, 1))
        assert np.max(np.abs(F1.coeffs)) < 1e-14
        assert np.max(np.abs(F2.coeffs)) < 1e-14

    def test_strong_cancellation_random(self):
        rng = np.random.default_rng(2)
        window = Interval(0.0, 0.2)
        u1 = TimePoly(window, rng.standard_normal((3, 4)))
        u2 = TimePoly(window, rng.standard_normal((3, 4)))
        B = np.array([[0.7, -1.3], [-0.7, 1.3]])
        F1, F2 = mc.flux_solve(u1, u2, B, (2, 2))
        scale = np.max(np.abs(F1.coeffs))
        assert np.max(np.abs(F1.coeffs + F2.coeffs)) < 1e-12 * scale

    def test_weak_cancellation_mixed_orders(self):
        rng = np.random.default_rng(3)
        window = Interval(0.0, 0.2)
        u1 = TimePoly(window, rng.standard_normal((2, 2)))
        u2 = TimePoly(window, rng.standard_normal((1, 2)))
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F1, F2 = mc.flux_solve(u1, u2, B, (1, 0))
        # order-0 moments cancel; the linear mode of F1 generally survives
        assert np.max(np.abs(F1.coeffs[0] + F2.coeffs[0])) < 1e-13
        assert np.max(np.abs(F1.coeffs[1])) > 1e-8

    def test_polynomial_g_enters_exactly(self):
        window = Interval(0.0, 1.0)
        u1 = TimePoly(window, [[1.0]])
        u2 = TimePoly(window, [[0.0]])
        g1 = TimePoly(window, [[0.5], [0.25]])
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F1, _ = mc.flux_solve(u1, u2, B, (1, 1), g=(g1, None))
        assert F1.coeffs[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert F1.coeffs[1, 0] == pytest.approx(-0.25, abs=1e-14)


class TestWindowAssembly:
    def test_toy_dimension_count(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(toy_ops, mc.crank_nicolson(), cfg)
        # substeps: (q+2) unknowns each, then (r_i+1) flux modes per side
        assert op.dim == 3 * 1 + 3 * 2 + 2 + 2 == 13

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", ["cg2", "dg1"])
    def test_substeps_of_a_side_share_one_block(self, smooth_ops, scheme_name, quadrature):
        # all substeps of a side have one length: the window repeats one block
        cfg = mc.WindowConfig(t_f=0.3, N=3, M=(3, 5), r=(1, 2))
        scheme = mc.shipped_schemes()[scheme_name]
        op = mc.WindowOperator(smooth_ops, scheme, cfg, quadrature=quadrature)
        for i in range(2):
            size = op._sub_size[i]
            diagonal = [
                op.matrix[o : o + size, o : o + size].toarray()
                for o in (op._sub_off(i, n) for n in range(1, cfg.M[i] + 1))
            ]
            assert np.array_equal(diagonal[0], op.blocks[i].matrix.toarray())
            assert all(np.array_equal(block, diagonal[0]) for block in diagonal[1:])

    def test_decoupled_equals_independent_runs(self):
        Z = np.zeros((2, 2))
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], [[1.0]], [[1.0]], [[0.5]], [[1.0]], [[1.0]], Z,
            u0=(np.array([1.0]), np.array([2.0])),
        )
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg, quadrature="exact")
        # closed-form trapezoidal recursions per subdomain
        rho1 = (1 - 0.05 * 2.0) / (1 + 0.05 * 2.0)
        dt2 = 0.05
        rho2 = (1 - dt2 / 2 * 0.5) / (1 + dt2 / 2 * 0.5)
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(rho1**4, rel=1e-12)
        assert traj.windows[-1].U[1][-1][0] == pytest.approx(2.0 * rho2**8, rel=1e-12)

    def test_mirror_symmetry(self):
        m1, m2 = mc.build_mesh(1, 4, 4), mc.build_mesh(2, 4, 4)
        imap = mc.match_interfaces(m1, m2)
        f1 = lambda x, y, t: np.sin(np.pi * x) * (1 - y) * (0.5 + y) * np.exp(-t)
        spec = mc.ProblemSpec(
            nu=(1.0, 1.0),
            f=(f1, lambda x, y, t: -f1(x, -y, t)),
            u0=(lambda x, y: np.sin(np.pi * x) * (1 - y), lambda x, y: -np.sin(np.pi * x) * (1 + y)),
        )
        ops = mc.assemble(m1, m2, imap, spec)
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(2, 2), r=(1, 1))
        traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg, quadrature="exact")
        # mirror pairing of free dofs via coordinates
        free1 = np.flatnonzero(m1.free_dof >= 0)
        coord2dof2 = {
            (round(x, 12), round(y, 12)): m2.free_dof[n]
            for n, (x, y) in enumerate(m2.nodes)
            if m2.free_dof[n] >= 0
        }
        perm = np.array([coord2dof2[(round(x, 12), round(-y, 12))] for x, y in m1.nodes[free1]])
        for sol in traj.windows:
            for n in range(cfg.M[0] + 1):
                assert np.allclose(sol.U[0][n], -sol.U[1][n][perm], atol=1e-11)

    def test_direct_residual_recorded(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(2, 3), r=(1, 1))
        op = mc.WindowOperator(toy_ops, mc.crank_nicolson(), cfg)
        sol = op.solve(incoming(toy_ops))
        assert sol.residual < 1e-12

    def test_residual_check_rejects_wrong_factor(self, decay_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(2, 3), r=(1, 1))
        op = mc.WindowOperator(decay_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        op._lu = dgit.factorize(op.matrix + 1e-6 * sp.identity(op.dim, format="csr"))
        with pytest.raises(mc.SolverError, match="residual"):
            op.solve(incoming(decay_ops))

    def test_keep_traces(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(toy_ops, mc.crank_nicolson(), cfg)
        sol = op.solve(incoming(toy_ops))
        kept = mc.window_traces(sol, toy_ops)
        # the stored trace satisfies its defining projection identity
        traces = [
            TimePoly(p.interval, (toy_ops.T[0] @ p.coeffs.T).T) for p in sol.u[0]
        ]
        direct = mc.trace_projection(traces, sol.window, 1)
        assert np.allclose(direct.coeffs, kept[0].coeffs, atol=1e-12)

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", sorted(mc.shipped_schemes()))
    def test_kept_traces_reproduce_flux(self, toy_ops, scheme_name, quadrature):
        # the traces are the ones the flux rows combine, also in trapezoid
        # mode, where they average side values rather than polynomial ends
        cfg = mc.WindowConfig(t_f=0.05, N=1, M=(2, 3), r=(1, 1))
        scheme = mc.shipped_schemes()[scheme_name]
        op = mc.WindowOperator(toy_ops, scheme, cfg, quadrature=quadrature)
        sol = op.solve(incoming(toy_ops))
        F = mc.flux_solve(*mc.window_traces(sol, toy_ops, quadrature), toy_ops.B, cfg.r)
        for i in range(2):
            assert np.max(np.abs(F[i].coeffs - sol.F[i].coeffs)) <= 1e-12

    def test_singular_window_rejected(self):
        # zero mass on one side makes the window system singular
        Z = [[0.0]]
        with pytest.raises(ValueError):
            mc.from_matrices(Z, [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], np.eye(2))


class TestBatchedWindowLoads:
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_one_load_call_per_subdomain_per_window(self, smooth_ops, quadrature, monkeypatch):
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(2, 3), r=(1, 1))
        op = coupling.WindowOperator(smooth_ops, mc.crank_nicolson(), cfg, quadrature=quadrature)
        expected = op._rhs(incoming(smooth_ops), ((), ()), 2)
        calls = {"f": [0, 0], "g": [0, 0]}

        def wrap(kind, i, fn):
            @dgit.batched
            def load(t):
                calls[kind][i] += 1
                return fn(t)

            return load

        for kind in ("f", "g"):
            loads = getattr(smooth_ops, f"load_{kind}")
            monkeypatch.setattr(
                smooth_ops, f"load_{kind}", tuple(wrap(kind, i, fn) for i, fn in enumerate(loads))
            )
        sol = op.solve(incoming(smooth_ops), window_index=2)
        assert calls == {"f": [1, 1], "g": [1, 1]}
        assert np.array_equal(op._rhs(incoming(smooth_ops), ((), ()), 2), expected)
        assert sol.residual < coupling.RESIDUAL_TOL


class TestFactorize:
    @pytest.fixture(scope="class")
    def free_ops16(self):
        m1, m2 = mc.build_mesh(1, 16, 16), mc.build_mesh(2, 16, 16)
        spec = mc.ProblemSpec(
            nu=(1.0, 0.5),
            u0=(
                lambda x, y: np.sin(np.pi * x) * (1.0 - y),
                lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
            ),
        )
        return mc.assemble(m1, m2, mc.match_interfaces(m1, m2), spec)

    CFG = mc.WindowConfig(t_f=0.05, N=5, M=(2, 3), r=(1, 1))

    def test_less_fill_than_colamd(self, free_ops16):
        op = mc.WindowOperator(free_ops16, mc.crank_nicolson(), self.CFG, quadrature="trapezoid")
        ours = dgit.factorize(op.matrix)
        colamd = spla.splu(op.matrix.tocsc())
        assert ours.L.nnz + ours.U.nnz < colamd.L.nnz + colamd.U.nnz

    def test_direct_run_matches_colamd(self, free_ops16, monkeypatch):
        def run():
            return mc.run_simulation(
                free_ops16, mc.crank_nicolson(), self.CFG, quadrature="trapezoid"
            )

        ours = run()
        monkeypatch.setattr(dgit, "factorize", lambda A: spla.splu(A.tocsc()))
        colamd = run()
        for sol, ref in zip(ours.windows, colamd.windows):
            for i in range(2):
                scale = np.max(np.abs(ref.U[i]))
                assert np.max(np.abs(sol.U[i] - ref.U[i])) <= 1e-12 * scale
                assert np.max(np.abs(sol.F[i].coeffs - ref.F[i].coeffs)) <= 1e-12 * scale


class TestSingleRateDegeneration:
    @pytest.mark.parametrize("scheme_name", ["crank-nicolson", "dg1"])
    def test_matches_unsplit_solve(self, decay_ops, scheme_name):
        scheme = mc.shipped_schemes()[scheme_name]
        cfg = mc.WindowConfig(t_f=0.2, N=4, M=(1, 1), r=(scheme.q, scheme.q))
        traj = mc.run_simulation(decay_ops, scheme, cfg, quadrature="exact")
        Mc, Lc, load, (s1, s2) = coupling.coupled_system(decay_ops)
        _, side = dgit.integrate(
            Mc, Lc, load, np.concatenate(decay_ops.u0), scheme, cfg.sync_times()
        )
        for n, sol in enumerate(traj.windows, start=1):
            ref = side[n]
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(sol.U[0][-1] - ref[s1])) < 1e-10 * scale
            assert np.max(np.abs(sol.U[1][-1] - ref[s2])) < 1e-10 * scale


class TestFixedPoint:
    def test_trivial_converges_in_two_sweeps(self):
        Z = np.zeros((2, 2))
        ops = mc.from_matrices(
            [[1.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], Z,
            load_f=(lambda t: np.array([1.0]), None),
            u0=(np.array([0.5]), np.array([1.0])),
        )
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 2), r=(0, 0))
        sol = mc.solve_window_fixed_point(
            ops, mc.crank_nicolson(), cfg, incoming(ops), quadrature="exact"
        )
        assert sol.iterations <= 2
        assert sol.U[0][-1][0] == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize(
        "settings",
        [
            {"fp_max_iter": 0},
            {"fp_tol": 0.0},
            {"fp_tol": -1.0},
            {"fp_tol": float("nan")},
            {"fp_tol": float("inf")},
        ],
    )
    def test_bad_settings_rejected(self, toy_ops, settings):
        cfg = mc.WindowConfig(t_f=0.05, N=1, M=(1, 1))
        with pytest.raises(ValueError, match="fixed-point settings"):
            mc.WindowOperator(toy_ops, mc.crank_nicolson(), cfg, solver="fixed-point", **settings)

    def test_matches_direct_within_tolerance(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.05, N=1, M=(2, 3), r=(1, 1))
        tol = 1e-10
        op = mc.WindowOperator(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        direct = op.solve(incoming(toy_ops))
        fp = mc.solve_window_fixed_point(
            toy_ops, mc.crank_nicolson(), cfg, incoming(toy_ops),
            quadrature="trapezoid", tol=tol,
        )
        assert fp.iterations <= 50
        for i in range(2):
            assert np.max(np.abs(fp.U[i][-1] - direct.U[i][-1])) <= 10 * tol
            assert np.max(np.abs(fp.F[i].coeffs - direct.F[i].coeffs)) <= 10 * tol

    def test_violating_step_raises(self):
        # strong coupling against a weak subdomain response
        B = 5.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        stiff = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], B,
            u0=(np.array([1.0]), np.array([-1.0])),
        )
        ok_cfg = mc.WindowConfig(t_f=0.01, N=1, M=(1, 2), r=(1, 1))
        sol = mc.solve_window_fixed_point(stiff, mc.crank_nicolson(), ok_cfg, incoming(stiff))
        assert sol.iterations <= 50
        bad_cfg = mc.WindowConfig(t_f=1.0, N=1, M=(1, 2), r=(1, 1))
        with pytest.raises(mc.ContractionError) as err:
            mc.solve_window_fixed_point(stiff, mc.crank_nicolson(), bad_cfg, incoming(stiff))
        assert err.value.factor >= 1.0

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_unmoved_first_sweep_is_not_convergence(self, quadrature):
        # without an operator term the first sweep from a zero flux keeps
        # the states at their incoming values; only the residual, which
        # reads the flux, shows that the window is not solved
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ops = mc.from_matrices(
            [[1.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], B,
            u0=(np.array([1.0]), np.array([-1.0])),
        )
        cfg = mc.WindowConfig(t_f=1.0, N=1, M=(1, 2), r=(1, 1))
        tol = 1e-10
        direct = mc.WindowOperator(ops, mc.crank_nicolson(), cfg, quadrature=quadrature).solve(
            incoming(ops)
        )
        fp = mc.solve_window_fixed_point(
            ops, mc.crank_nicolson(), cfg, incoming(ops),
            quadrature=quadrature, tol=tol, max_iter=1000,
        )
        assert fp.iterations > 1 and fp.residual <= tol
        for i in range(2):
            assert np.max(np.abs(fp.U[i][-1] - direct.U[i][-1])) <= 10 * tol
            assert np.max(np.abs(fp.F[i].coeffs - direct.F[i].coeffs)) <= 10 * tol

    def test_run_simulation_fixed_point_solver(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.2, N=4, M=(1, 2), r=(1, 1))
        direct = mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        fp = mc.run_simulation(
            toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid", solver="fixed-point"
        )
        for i in range(2):
            assert np.allclose(
                fp.windows[-1].U[i][-1], direct.windows[-1].U[i][-1], atol=1e-8
            )

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", sorted(mc.shipped_schemes()))
    def test_agrees_with_direct_for_every_scheme(self, toy_ops, scheme_name, quadrature):
        # both solvers solve the one window matrix, whether or not the
        # scheme's polynomial is pinned at the step ends
        scheme = mc.shipped_schemes()[scheme_name]
        cfg = mc.WindowConfig(t_f=0.05, N=1, M=(2, 3), r=(1, 1))
        tol = 1e-12
        op = mc.WindowOperator(toy_ops, scheme, cfg, quadrature=quadrature)
        direct = op.solve(incoming(toy_ops))
        fp = mc.solve_window_fixed_point(
            toy_ops, scheme, cfg, incoming(toy_ops), quadrature=quadrature, tol=tol
        )
        for i in range(2):
            assert np.max(np.abs(fp.U[i][-1] - direct.U[i][-1])) <= 10 * tol
            assert np.max(np.abs(fp.F[i].coeffs - direct.F[i].coeffs)) <= 10 * tol

    def test_run_assembles_and_factorizes_once(self, toy_ops, monkeypatch):
        calls = {"assemble_substep": 0, "factorize": 0}
        for name in calls:

            def counted(*args, _name=name, _orig=getattr(dgit, name), **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(dgit, name, counted)
        cfg = mc.WindowConfig(t_f=0.2, N=4, M=(2, 3), r=(1, 1))
        mc.run_simulation(
            toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid", solver="fixed-point"
        )
        assert calls == {"assemble_substep": 2, "factorize": 1}  # one block per side


@pytest.fixture(scope="module")
def traj_equal_orders(toy_ops):
    cfg = mc.WindowConfig(t_f=0.5, N=5, M=(2, 3), r=(1, 1))
    return mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")


class TestConservation:

    def test_strong(self, toy_ops, traj_equal_orders):
        for sol in traj_equal_orders.windows:
            rep = mc.check_flux_conservation(sol, toy_ops, "strong")
            assert rep.relative <= 1e-12

    def test_cn_identity(self, toy_ops, traj_equal_orders):
        for sol in traj_equal_orders.windows:
            rep = mc.check_flux_conservation(sol, toy_ops, "cn")
            assert rep.residual <= 1e-12 * max(rep.scale, 1e-300)

    def test_weak_with_mixed_orders(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.5, N=5, M=(2, 3), r=(1, 0))
        traj = mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        saw_strong_violation = False
        for sol in traj.windows:
            rep = mc.check_flux_conservation(sol, toy_ops, "weak")
            assert rep.relative <= 1e-12
            # strong cancellation fails in the linear mode
            if np.max(np.abs(sol.F[0].coeffs[1])) > 1e-8:
                saw_strong_violation = True
        assert saw_strong_violation

    def test_strong_requires_equal_orders(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 1), r=(1, 0))
        traj = mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg)
        with pytest.raises(ValueError, match="equal flux orders"):
            mc.check_flux_conservation(traj.windows[0], toy_ops, "strong")

    def test_incompatible_coupling_rejected(self):
        ops = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]],
            np.array([[1.0, 0.0], [1.0, 0.0]]),
            u0=(np.array([1.0]), np.array([0.5])),
        )
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 1), r=(1, 1))
        traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg)
        with pytest.raises(ValueError, match="antisymmetric"):
            mc.check_flux_conservation(traj.windows[0], ops, "strong")

    def test_exact_flux_conservation_with_polynomial_g(self):
        # opposite interface data cancels under the exact-quadrature flux rows
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        g = lambda t: np.array([0.3 + 0.7 * t])
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], [[1.0]], [[1.0]], [[0.5]], [[1.0]], [[1.0]], B,
            load_g=(g, lambda t: -g(t)),
            u0=(np.array([1.0]), np.array([-0.3])),
        )
        cfg = mc.WindowConfig(t_f=0.3, N=3, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg, quadrature="exact")
        for sol in traj.windows:
            rep = mc.check_flux_conservation(sol, ops, "strong")
            assert rep.relative <= 1e-12


class TestInterfacialEnergy:
    @pytest.mark.parametrize(
        "B",
        [np.eye(2), np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[2.0, -1.0], [-1.0, 1.0]])],
    )
    def test_nonpositive_for_psd(self, B):
        ops = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.5]], [[1.0]], [[1.0]], B,
            u0=(np.array([1.0]), np.array([-0.4])),
        )
        cfg = mc.WindowConfig(t_f=0.5, N=5, M=(2, 3), r=(1, 1))
        for quad, mode in (("trapezoid", "cn"), ("exact", "exact")):
            traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg, quadrature=quad)
            e0 = traj.energies[0]
            for sol in traj.windows:
                assert mc.interfacial_energy_term(sol, ops, mode) <= 1e-12 * e0

    def test_skew_coupling_gives_zero(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ops = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], B,
            u0=(np.array([1.0]), np.array([0.7])),
        )
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg, quadrature="exact")
        for sol in traj.windows:
            assert abs(mc.interfacial_energy_term(sol, ops, "exact")) < 1e-12

    def test_preconditions(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 1), r=(1, 1))
        traj = mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg)
        sol = traj.windows[0]
        bad = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], -np.eye(2)
        )
        with pytest.raises(ValueError, match="semidefinite"):
            mc.interfacial_energy_term(sol, bad, "exact")
        withg = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], np.eye(2),
            load_g=(lambda t: np.array([1.0]), None),
        )
        with pytest.raises(ValueError, match="zero interface data"):
            mc.interfacial_energy_term(sol, withg, "exact")


class TestRunSimulation:
    def test_energy_history_monotone_for_decay(self, decay_ops):
        cfg = mc.WindowConfig(t_f=1.0, N=10, M=(2, 3), r=(1, 1))
        traj = mc.run_simulation(decay_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        assert len(traj.energies) == 11
        assert np.all(np.diff(traj.energies) <= 1e-12 * traj.energies[0])

    def test_window_jump_vanishes_for_pinned_scheme(self, decay_ops):
        cfg = mc.WindowConfig(t_f=0.3, N=3, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(decay_ops, mc.crank_nicolson(), cfg, quadrature="exact")
        prev = incoming(decay_ops)
        for sol in traj.windows:
            for i in range(2):
                first = sol.u[i][0]
                scale = max(1.0, np.max(np.abs(sol.U[i])))
                assert np.max(np.abs(first(sol.window.a) - prev[i])) < 1e-11 * scale
            prev = tuple(sol.U[i][-1] for i in range(2))

    def test_window_jump_recorded_for_discontinuous_scheme(self, decay_ops):
        cfg = mc.WindowConfig(t_f=0.3, N=3, M=(1, 1), r=(1, 1))
        traj = mc.run_simulation(decay_ops, mc.dg(1), cfg, quadrature="exact")
        jumps = []
        prev = incoming(decay_ops)
        for sol in traj.windows:
            jumps.append(np.max(np.abs(sol.u[0][0](sol.window.a) - prev[0])))
            prev = tuple(sol.U[i][-1] for i in range(2))
        assert all(np.isfinite(j) for j in jumps)
        assert max(jumps) > 0.0  # jumps exist but stay finite

    def test_reachback_scheme_initializes_from_reference(self, toy_linear_ops):
        spec = SchemeSpec(
            q=1, n_s=2, k_s=2, thetas=(0.0, 1.0),
            D=[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], name="cn-clone",
        )
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(toy_linear_ops, spec, cfg, quadrature="exact")
        assert traj.windows[0].initialized_from_reference
        assert not traj.windows[1].initialized_from_reference
        # the zero reach-back column makes this scheme CN in disguise;
        # the exact solution here is linear, so both are exact
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(1.4, abs=1e-9)
        assert traj.windows[-1].U[1][-1][0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    def test_two_step_scheme_with_two_init_windows(self, toy_linear_ops, solver):
        # two reference-filled windows hand a history over to a k_s = 2 scheme
        spec = SchemeSpec(
            q=1, n_s=2, k_s=2, thetas=(0.0, 1.0),
            D=[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], name="cn-clone",
        )
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1), N0=3)
        fp_tol = 1e-10
        traj = mc.run_simulation(
            toy_linear_ops, spec, cfg, quadrature="exact", solver=solver, fp_tol=fp_tol
        )
        flags = [sol.initialized_from_reference for sol in traj.windows]
        assert flags == [True, True, False, False]
        tol = 1e-9 if solver == "direct" else fp_tol
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(1.4, abs=tol)
        assert traj.windows[-1].U[1][-1][0] == pytest.approx(0.5, abs=tol)

    # The left node takes the mean of the new side value and the one two
    # steps back: exact for the linear toy, and it reads the history.
    MEAN_TWO_BACK = SchemeSpec(
        q=1, n_s=2, k_s=2, thetas=(0.0, 1.0),
        D=[[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]], name="mean-two-back",
    )

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    @pytest.mark.parametrize("N0", [None, 3])
    def test_two_step_scheme_reads_handed_over_history(self, toy_linear_ops, solver, N0):
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1), N0=N0)
        fp_tol = 1e-10
        traj = mc.run_simulation(
            toy_linear_ops, self.MEAN_TWO_BACK, cfg, quadrature="exact", solver=solver,
            fp_tol=fp_tol,
        )
        n_init = cfg.n_init(self.MEAN_TWO_BACK)
        flags = [sol.initialized_from_reference for sol in traj.windows]
        assert flags == [w < n_init for w in range(1, cfg.N + 1)]
        tol = 1e-9 if solver == "direct" else fp_tol
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(1.4, abs=tol)
        assert traj.windows[-1].U[1][-1][0] == pytest.approx(0.5, abs=tol)

    def test_short_history_rejected(self, toy_linear_ops):
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(toy_linear_ops, self.MEAN_TWO_BACK, cfg)
        with pytest.raises(ValueError, match="needs 2 historic side values, have 1"):
            op.solve(incoming(toy_linear_ops), ((), ()), 2)

    def test_two_step_window_depends_on_history(self, toy_linear_ops):
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(toy_linear_ops, self.MEAN_TWO_BACK, cfg, quadrature="exact")
        op = mc.WindowOperator(toy_linear_ops, self.MEAN_TWO_BACK, cfg)
        prev = traj.windows[0]
        inc = tuple(prev.U[i][-1] for i in range(2))
        hist = tuple([prev.U[i][-2]] for i in range(2))
        bent = tuple([h[0] + 0.01] for h in hist)
        same = op.solve(inc, hist, 2)
        moved = op.solve(inc, bent, 2)
        assert np.array_equal(same.U[0], traj.windows[1].U[0])
        assert np.max(np.abs(moved.U[0][-1] - same.U[0][-1])) > 1e-4

    def test_unknown_solver_rejected(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1)
        with pytest.raises(ValueError):
            mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg, solver="newton")

    def test_explicit_initialization_count(self, toy_linear_ops):
        # forcing extra reference-filled windows onto a one-step scheme
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1), N0=3)
        traj = mc.run_simulation(toy_linear_ops, mc.crank_nicolson(), cfg, quadrature="exact")
        flags = [sol.initialized_from_reference for sol in traj.windows]
        assert flags == [True, True, False, False]
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(1.4, abs=1e-9)

    @pytest.mark.parametrize("M,r", [((1, 2), (1, 1)), ((2, 3), (2, 0))])
    def test_reference_windows_project_the_fine_solution(self, smooth_ops, M, r):
        ops = smooth_ops
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=M, r=r, N0=3)
        traj = mc.run_simulation(ops, mc.dg(1), cfg, quadrature="exact")
        # the fine solve behind the filled windows: 32 steps per substep of each side
        Mc, Lc, load, slices = coupling.coupled_system(ops)
        per_window = 32 * M[0] * M[1]
        edges = np.linspace(0.0, cfg.window(2).b, 2 * per_window + 1)
        coeffs, side = dgit.integrate(
            Mc, Lc, load, np.concatenate(ops.u0), mc.continuous_galerkin(2), edges
        )
        ivs = [Interval(a, b) for a, b in zip(edges[:-1], edges[1:])]
        traces = [[TimePoly(iv, (ops.T[j] @ c[:, slices[j]].T).T) for iv, c in zip(ivs, coeffs)]
                  for j in range(2)]
        Mg = ops.M_gamma.tocsc()

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

        for sol in traj.windows[:2]:
            assert sol.initialized_from_reference
            lo = (sol.index - 1) * per_window
            for i in range(2):
                per_sub = per_window // M[i]
                for n, got in enumerate(sol.u[i]):
                    k = lo + n * per_sub
                    pieces = [TimePoly(iv, c[:, slices[i]])
                              for iv, c in zip(ivs[k : k + per_sub], coeffs[k : k + per_sub])]
                    assert close(got.coeffs, mc.project_l2_broken(pieces, 1).coeffs)
                assert np.array_equal(sol.U[i], side[lo : lo + per_window + 1 : per_sub, slices[i]])
                combo = [a.scaled(ops.B[i, 0]) + b.scaled(ops.B[i, 1])
                         for a, b in zip(*(t[lo : lo + per_window] for t in traces))]
                g = mc.project_l2(
                    lambda t: spla.spsolve(Mg, ops.g_vec(i, t)), sol.window, r[i], npts=16
                )
                assert close(sol.F[i].coeffs, mc.project_l2_broken(combo, r[i]).coeffs - g.coeffs)

    def test_initialization_cannot_swallow_all_windows(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.2, N=2, N0=3)
        with pytest.raises(ValueError, match="no scheme window"):
            mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg)

    def test_solved_windows_are_immutable(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg)
        with pytest.raises(ValueError):
            traj.windows[0].U[0][0] = 9.9
        with pytest.raises(ValueError):
            traj.windows[0].u[0][0].coeffs[0, 0] = 9.9

    def test_interface_free_operator_pair(self):
        # a zero-row trace matrix decouples the systems entirely
        T = np.zeros((0, 1))
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], T, [[1.0]], [[0.5]], T, np.zeros((0, 0)), np.eye(2),
            u0=(np.array([1.0]), np.array([2.0])),
        )
        assert ops.d_gamma == 0
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg, quadrature="exact")
        assert traj.windows[-1].F == (None, None)
        rho1 = (1 - 0.05 * 2.0) / (1 + 0.05 * 2.0)
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(rho1**2, rel=1e-12)


class TestExportCsv:
    def test_columns_and_determinism(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(2, 3), r=(1, 1))
        outputs = []
        for _ in range(2):
            traj = mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
            buf = io.StringIO()
            mc.export_trajectory_csv(traj, toy_ops, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        lines = outputs[0].strip().splitlines()
        assert lines[0] == (
            "window,t_sync,energy_1,energy_2,flux_conservation_residual,interfacial_energy_term"
        )
        assert len(lines) == 1 + 1 + cfg.N
        last = lines[-1].split(",")
        assert float(last[4]) <= 1e-12  # conservation residual column
