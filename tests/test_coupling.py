import dataclasses
import io
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import mrcouple as mc
from mrcouple import coupling, dgit, fespace
from mrcouple.timepoly import (
    Interval,
    SchemeSpec,
    gauss_on,
    legendre_table,
    points_for_degree,
)

from test_timepoly import poly_values
from test_verify import pointwise_error_norms


def before_first(ops):
    """Per side, the side values before window 1: u0 as one row."""
    return tuple(np.asarray(v)[None] for v in ops.u0)


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


class TestWindowResidual:
    def test_ratio_survives_norms_that_overflow(self):
        # the plain norms' squares overflow at 2^600 and 2^1000; a
        # power-of-two scaling leaves the ratio's bits as they are
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(50)
        Ax = rhs + 1e-6 * rng.standard_normal(50)
        plain = np.linalg.norm(Ax - rhs) / max(np.linalg.norm(rhs), np.linalg.norm(Ax))
        assert coupling._residual(rhs, Ax) == plain
        for scale in (2.0**600, 2.0**1000):
            assert coupling._residual(scale * rhs, scale * Ax) == plain
        assert coupling._residual(np.zeros(3), np.zeros(3)) == 0.0

    def test_non_finite_entry_gives_an_infinite_residual(self):
        assert coupling._residual(np.array([1.0, np.inf]), np.ones(2)) == np.inf
        assert coupling._residual(np.ones(2), np.array([np.nan, 1.0])) == np.inf


class TestFluxSolve:
    def test_equal_traces_conservative_pair(self):
        c = np.array([[2.0], [0.3]])
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F1, F2 = mc.flux_solve((c, c), B, (1, 1))
        assert F1.shape == F2.shape == (2, 1)
        assert np.max(np.abs(F1)) < 1e-14
        assert np.max(np.abs(F2)) < 1e-14

    def test_strong_cancellation_random(self):
        rng = np.random.default_rng(2)
        u1 = rng.standard_normal((3, 4))
        u2 = rng.standard_normal((3, 4))
        B = np.array([[0.7, -1.3], [-0.7, 1.3]])
        F1, F2 = mc.flux_solve((u1, u2), B, (2, 2))
        scale = np.max(np.abs(F1))
        assert np.max(np.abs(F1 + F2)) < 1e-12 * scale

    def test_weak_cancellation_mixed_orders(self):
        rng = np.random.default_rng(3)
        u1 = rng.standard_normal((2, 2))
        u2 = rng.standard_normal((1, 2))
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F1, F2 = mc.flux_solve((u1, u2), B, (1, 0))
        # order-0 moments cancel; the linear mode of F1 generally survives
        assert np.max(np.abs(F1[0] + F2[0])) < 1e-13
        assert np.max(np.abs(F1[1])) > 1e-8

    def test_polynomial_g_enters_exactly(self):
        u1 = np.array([[1.0]])
        u2 = np.array([[0.0]])
        g1 = np.array([[0.5], [0.25]])
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        F1, _ = mc.flux_solve((u1, u2), B, (1, 1), g=(g1, None))
        assert F1[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert F1[1, 0] == pytest.approx(-0.25, abs=1e-14)

    def test_projected_g_cut_to_the_flux_order(self):
        traces = (np.zeros((2, 1)), np.zeros((2, 1)))
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        g = mc.project_l2(lambda t: np.array([t]), Interval(0.0, 1.0), 1)
        F1, F2 = mc.flux_solve(traces, B, (1, 0), g=(g, g))
        # t on (0, 1) is 1/2 + P_1 / 2; order 0 keeps the mean
        assert np.allclose(F1, [[-0.5], [-0.5]], rtol=0, atol=1e-14)
        assert np.allclose(F2, [[-0.5]], rtol=0, atol=1e-14)


class TestWindowAssembly:
    def test_toy_dimension_count(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(toy_ops, mc.crank_nicolson(), cfg)
        # substeps: (q+2-n_s) unknowns each, then (r_i+1) flux modes per side
        assert op.dim == 1 * 1 + 1 * 2 + 2 + 2 == 7

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize(
        "scheme_name", ["cg2", "dg1", "mean-two-back", "thirds-three-back"]
    )
    def test_substeps_of_a_side_share_one_block(self, smooth_ops, scheme_name, quadrature):
        # all substeps of a side have one length: the window repeats one block,
        # and the column map places its links to the side values back
        cfg = mc.WindowConfig(t_f=0.3, N=3, M=(3, 5), r=(1, 2))
        scheme = TestTableAssembly.SCHEMES[scheme_name]
        op = mc.WindowOperator(smooth_ops, scheme, cfg, quadrature=quadrature)
        own = scheme.test_order + 1
        for i in range(2):
            size, d = op._sub_size[i], smooth_ops.d_omega[i]
            diagonal = [
                op.matrix[o : o + size, o : o + size].toarray()
                for o in op._dom_off[i] + size * np.arange(cfg.M[i])
            ]
            block = dgit.build_substep_block(
                smooth_ops.M[i], smooth_ops.L[i], scheme, Interval(*cfg.substep_edges(i, 1)[:2])
            )
            assert np.array_equal(diagonal[0], block.matrix.toarray())
            assert all(np.array_equal(block, diagonal[0]) for block in diagonal[1:])
            # U^{n-l} of substep n: a side value of the window (n >= l) or a past value
            columns = op._columns(i)
            assert columns.shape == (cfg.M[i], own + scheme.reach)
            for n in range(cfg.M[i]):
                rows = slice(op._dom_off[i] + n * size, op._dom_off[i] + (n + 1) * size)
                assert columns[n, 0] == rows.start
                for l in range(1, scheme.reach + 1):
                    c = columns[n, own + l - 1]
                    # the side value of substep n - l, else past value l - n - 1
                    assert c == (columns[n - l, own - 1] if n >= l else
                                 op.dim + op._past_off[i] + (l - n - 1) * d)
                    A, c = (op.matrix, c) if n >= l else (op._past, c - op.dim)
                    link = A[rows, c : c + d].toarray()
                    assert link.tobytes() == block.prev[l - 1].toarray().tobytes()

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
        sol = op.solve(before_first(toy_ops))
        assert sol.residual < 1e-12

    def test_residual_check_rejects_wrong_factor(self, decay_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(2, 3), r=(1, 1))
        op = mc.WindowOperator(decay_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        op._lu = dgit.factorize(op.matrix + 1e-6 * sp.identity(op.dim, format="csr"))
        with pytest.raises(mc.SolverError, match=r"^window 1: window solve residual"):
            op.solve(before_first(decay_ops))

    def test_keep_traces(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(toy_ops, mc.crank_nicolson(), cfg)
        sol = op.solve(before_first(toy_ops))
        kept = mc.window_traces(sol, toy_ops)
        # each stored trace satisfies its defining projection identity: the
        # substep traces minus it have no moment against a window mode <= 1
        for i in range(2):
            t, w, u = sol.at_gauss(i, 4)
            trace = np.einsum("gd,npd->npg", toy_ops.T[i].toarray(), u)
            resid = trace - poly_values(sol.window, kept[i], t.ravel()).reshape(trace.shape)
            tab = legendre_table(1, sol.window.to_reference(t))
            moments = np.einsum("qnp,np,npg->qg", tab, w, resid)
            assert np.max(np.abs(moments)) < 1e-12

    @pytest.mark.parametrize("r", [(1, 1), (2, 1), (0, 2)], ids=lambda r: f"r{r[0]}{r[1]}")
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", sorted(mc.shipped_schemes()))
    def test_kept_traces_reproduce_flux(self, toy_ops, scheme_name, quadrature, r):
        # the traces are the ones the flux rows combine, also in trapezoid
        # mode, where they average side values rather than polynomial ends;
        # for r >= 2 its endpoint rule differs from the exact one
        cfg = mc.WindowConfig(t_f=0.05, N=1, M=(2, 3), r=r)
        scheme = mc.shipped_schemes()[scheme_name]
        op = mc.WindowOperator(toy_ops, scheme, cfg, quadrature=quadrature)
        sol = op.solve(before_first(toy_ops))
        F = mc.flux_solve(mc.window_traces(sol, toy_ops, quadrature), toy_ops.B, cfg.r)
        for i in range(2):
            assert np.max(np.abs(F[i] - sol.F[i])) <= 1e-12

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", sorted(mc.shipped_schemes()))
    def test_solved_substeps_meet_their_side_conditions(
        self, smooth_ops, scheme_name, quadrature, solver
    ):
        # the window has no side-condition rows: the state map substitutes them
        spec = mc.shipped_schemes()[scheme_name]
        low = spec.q + 1 - spec.n_s
        expand = np.zeros((spec.q + 1, low + spec.k_s + 1))
        expand[:low, :low] = np.eye(low)
        expand[low:, low:] = spec.D
        assert np.array_equal(spec.state_map, spec.node_map @ expand)
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(2, 3), r=(1, 1))
        traj = mc.run_simulation(
            smooth_ops, spec, cfg, quadrature=quadrature, solver=solver
        )
        for sol in traj.windows:
            for i in range(2):
                scale = max(np.max(np.abs(sol.u[i])), np.max(np.abs(sol.U[i])))
                edges = sol.edges(i)
                for n, coeffs in enumerate(sol.u[i]):
                    step = Interval(edges[n], edges[n + 1])
                    # U[i][n] is U_{n-1} of substep n + 1: the incoming value for n = 0
                    resid = dgit.side_condition_residual(
                        spec, step, coeffs, [sol.U[i][n + 1], sol.U[i][n]]
                    )
                    assert resid <= 1e-11 * scale

    def test_empty_subdomain_rejected(self):
        # one cell across leaves no free nodes, interface nodes included
        m1, m2 = mc.build_mesh(1, 1, 2), mc.build_mesh(2, 1, 2)
        ops = mc.assemble(m1, m2, mc.match_interfaces(m1, m2), mc.ProblemSpec())
        assert ops.d_omega == (0, 0)
        with pytest.raises(ValueError, match=r"subdomain 1 has no unknowns .*nx = 1"):
            mc.run_simulation(ops, mc.crank_nicolson(), mc.WindowConfig(t_f=0.1, N=1))

    def test_singular_window_rejected(self):
        # zero mass on one side makes the window system singular
        Z = [[0.0]]
        with pytest.raises(ValueError):
            mc.from_matrices(Z, [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], np.eye(2))


class TestBatchedWindowLoads:
    @staticmethod
    def reference_rhs(op, ops, before, n):
        # the window's data terms computed alone, from its own substep edges
        # and interface data times, minus the past (one side value a side)
        cfg, quadrature = op.cfg, op.quadrature
        rhs = np.zeros(op.dim)
        for i in range(2):
            edges = cfg.substep_edges(i, n)
            lo = op._dom_off[i]
            rhs[lo : lo + cfg.M[i] * op._sub_size[i]] = dgit._chunk_moments(
                op.spec, edges, ops.load_f[i], ops.d_omega[i], quadrature, dgit.LOAD_QUAD_PTS
            ).ravel()
            t = edges
            if quadrature == "exact":
                t = gauss_on(cfg.window(n), dgit.LOAD_QUAD_PTS)[0]
            lo = op._flux_off[i]
            load = ops.load_g[i]
            g = load.combine(op._g_weights[i] @ load.factors(t))
            rhs[lo : lo + (cfg.r[i] + 1) * ops.d_gamma] = -g.ravel()
        rhs -= op._past @ np.concatenate([side[-1] for side in before])
        return rhs

    @staticmethod
    def window_values(ops, cfg, quadrature):
        # the values a crank-nicolson window adds to a chunk of the smooth
        # preset: its row, and per load its factor values and moments, with
        # K = 2 body-force and K = 1 interface-data factors a side
        trapezoid = quadrature == "trapezoid"
        d1, d2 = ops.d_omega
        dim = cfg.M[0] * d1 + cfg.M[1] * d2 + (cfg.r[0] + cfg.r[1] + 2) * ops.d_gamma
        times = 1 if trapezoid else dgit.LOAD_QUAD_PTS  # body factor times a substep
        body = sum(cfg.M[i] * (times + 1) * 2 for i in range(2))
        g_times = [cfg.M[i] + 1 if trapezoid else dgit.LOAD_QUAD_PTS for i in range(2)]
        interface = sum((g_times[i] + cfg.r[i] + 1) * 1 for i in range(2))
        return dim + body + interface

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_one_load_call_per_subdomain_per_chunk(self, smooth_ops, quadrature, monkeypatch):
        cfg = mc.WindowConfig(t_f=0.2, N=5, M=(2, 3), r=(1, 1))
        per_window = self.window_values(smooth_ops, cfg, quadrature)
        monkeypatch.setattr(dgit, "LOAD_BATCH_VALUES", 2 * per_window)  # chunks 1-2, 3-4, 5
        calls = {"f": [0, 0], "g": [0, 0]}

        def wrap(kind, i, load):
            def factors(t):
                calls[kind][i] += 1
                return load.factors(t)

            return dgit.Load(factors, load.vectors)

        ops = dataclasses.replace(
            smooth_ops,
            load_f=tuple(wrap("f", i, fn) for i, fn in enumerate(smooth_ops.load_f)),
            load_g=tuple(wrap("g", i, fn) for i, fn in enumerate(smooth_ops.load_g)),
        )
        op = coupling.WindowOperator(ops, mc.crank_nicolson(), cfg, quadrature=quadrature)
        assert op._chunk == 2
        seen = []
        rhs_of = op._rhs

        def recorded(*args):
            seen.append((args, rhs_of(*args)))
            return seen[-1][1]

        monkeypatch.setattr(op, "_rhs", recorded)
        u = before_first(ops)
        for n in range(1, cfg.N + 1):
            sol = op.solve(u, n)
            assert sol.residual < coupling.RESIDUAL_TOL
            u = sol.U
        assert calls == {"f": [3, 3], "g": [3, 3]}
        assert [args[1] for args, _ in seen] == list(range(1, cfg.N + 1))
        for (u, n), rhs in seen:
            assert np.array_equal(rhs, self.reference_rhs(op, smooth_ops, u, n))

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_chunk_counts_the_values_a_window_adds(self, smooth_ops, quadrature, monkeypatch):
        # a window adds its row, and the factor values and moments of its
        # loads: each body load's at its substeps' edges, one per substep
        # (trapezoid), or at LOAD_QUAD_PTS Gauss points per substep
        cfg = mc.WindowConfig(t_f=0.2, N=5, M=(2, 3), r=(1, 1))
        per_window = self.window_values(smooth_ops, cfg, quadrature)
        for budget, chunk in [(3 * per_window, 3), (3 * per_window - 1, 2), (per_window - 1, 1)]:
            monkeypatch.setattr(dgit, "LOAD_BATCH_VALUES", budget)
            op = coupling.WindowOperator(smooth_ops, mc.crank_nicolson(), cfg, quadrature=quadrature)
            assert op._chunk == chunk

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", sorted(mc.shipped_schemes()))
    def test_windows_out_of_order_solve_as_in_order(
        self, smooth_ops, scheme_name, quadrature, solver
    ):
        # the held chunk starts at the first window that misses it: 3 holds
        # 3-5, 1 holds 1-5, then 3 and 4 read rows 2 and 3 of it
        spec = mc.shipped_schemes()[scheme_name]
        cfg = mc.WindowConfig(t_f=0.2, N=5, M=(2, 3), r=(1, 1))
        settings = dict(quadrature=quadrature, solver=solver)
        in_order = list(mc.march(smooth_ops, spec, cfg, **settings))
        op = mc.WindowOperator(smooth_ops, spec, cfg, **settings)
        assert op._chunk >= cfg.N
        for n in (3, 1, 3, 4):
            # the inputs march handed window n
            u = in_order[n - 2].U if n > 1 else before_first(smooth_ops)
            sol = op.solve(u, n)
            ref = in_order[n - 1]
            for i in range(2):
                assert np.array_equal(sol.u[i], ref.u[i])
                assert np.array_equal(sol.U[i], ref.U[i])
                assert np.array_equal(sol.F[i], ref.F[i])
            assert sol.residual == ref.residual

    def test_no_data_rows_without_loads(self, decay_ops, monkeypatch):
        cfg = mc.WindowConfig(t_f=0.2, N=4, M=(2, 3), r=(1, 1))
        op = mc.WindowOperator(decay_ops, mc.crank_nicolson(), cfg)
        monkeypatch.setattr(op, "_data_rows", None)  # calling it would raise
        rhs = op._rhs(before_first(decay_ops), 2)
        assert np.array_equal(rhs, 0.0 - op._past @ np.concatenate(decay_ops.u0))


    def test_one_window_chunks_are_held(self, smooth_ops, monkeypatch):
        # a chunk of one window is held like any other: its row serves the
        # window again without a second evaluation of the loads
        monkeypatch.setattr(dgit, "LOAD_BATCH_VALUES", 1)
        cfg = mc.WindowConfig(t_f=0.2, N=4, M=(2, 3), r=(1, 1))
        op = mc.WindowOperator(smooth_ops, mc.crank_nicolson(), cfg)
        assert op._chunk == 1
        before = before_first(smooth_ops)
        first = op._rhs(before, 2)
        assert len(op._rows) == 1 and op._rows_first == 2
        assert np.array_equal(first, self.reference_rhs(op, smooth_ops, before, 2))
        rows = op._data_rows
        monkeypatch.setattr(op, "_data_rows", None)  # calling it would raise
        assert np.array_equal(op._rhs(before, 2), first)
        monkeypatch.setattr(op, "_data_rows", rows)
        assert np.array_equal(op._rhs(before, 3), self.reference_rhs(op, smooth_ops, before, 3))
        assert len(op._rows) == 1 and op._rows_first == 3


def pointwise(load):
    """The same load given by its values: identity vectors, no factors."""
    return None if load is None else dgit.Load(lambda t: load(t))


class TestFactoredMoments:
    @staticmethod
    def coupled_values(ops, t):
        # the coupled data f_i + T_i^T g_i of each side, from the parts' values
        return np.concatenate(
            [ops.f_vec(i, t) + (ops.T[i].T @ ops.g_vec(i, t).T).T for i in range(2)], axis=-1
        )

    def test_coupled_load_places_the_parts(self, smooth_ops):
        _, _, load, slices = coupling.coupled_system(smooth_ops)
        t = np.linspace(0.0, 1.0, 7)
        assert load.count(sum(smooth_ops.d_omega)) == 6  # 2 + 1 factors a side
        want = self.coupled_values(smooth_ops, t)
        assert np.max(np.abs(load(t) - want)) <= 1e-14 * np.max(np.abs(want))
        assert load(0.3).shape == (sum(smooth_ops.d_omega),)
        V = load.vectors.toarray()
        F1, G1 = smooth_ops.load_f[0].vectors, smooth_ops.load_g[0].vectors
        assert np.array_equal(V[:2, slices[0]], F1) and not V[:2, slices[1]].any()
        assert np.array_equal(V[2:3, slices[0]], G1 @ smooth_ops.T[0].toarray())

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme", sorted(mc.shipped_schemes()))
    def test_coupled_moments_equal_pointwise(self, smooth_ops, scheme, quadrature):
        spec = mc.shipped_schemes()[scheme]
        _, _, load, _ = coupling.coupled_system(smooth_ops)
        d, edges = sum(smooth_ops.d_omega), np.linspace(0.1, 0.7, 7)
        got = dgit._chunk_moments(spec, edges, load, d, quadrature, dgit.LOAD_QUAD_PTS)
        values = dgit.Load(lambda t: self.coupled_values(smooth_ops, t))
        want = dgit._chunk_moments(spec, edges, values, d, quadrature, dgit.LOAD_QUAD_PTS)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme", sorted(mc.shipped_schemes()))
    def test_window_rows_equal_pointwise(self, smooth_ops, scheme, quadrature):
        # the body-force and interface-data rows of a chunk of windows
        spec = mc.shipped_schemes()[scheme]
        cfg = mc.WindowConfig(t_f=0.2, N=5, M=(2, 3), r=(1, 2))
        plain = dataclasses.replace(
            smooth_ops,
            load_f=tuple(map(pointwise, smooth_ops.load_f)),
            load_g=tuple(map(pointwise, smooth_ops.load_g)),
        )
        got = mc.WindowOperator(smooth_ops, spec, cfg, quadrature=quadrature)._data_rows(1, 5)
        want = mc.WindowOperator(plain, spec, cfg, quadrature=quadrature)._data_rows(1, 5)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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
                assert np.max(np.abs(sol.F[i] - ref.F[i])) <= 1e-12 * scale


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


def lagged_factor(op):
    """(n, LU of P): P is op.matrix without its block N at the substep rows and flux columns.

    n is the number of substep unknowns; P is factored here with splu,
    apart from the factors under test.
    """
    A = op.matrix
    n = op.dim - sum((r + 1) * op.ops.d_gamma for r in op.cfg.r)
    return n, spla.splu(sp.bmat([[A[:n, :n], None], [A[n:, :n], A[n:, n:]]]).tocsc())


def plain_sweeps(op, rhs, tol=1e-10, max_iter=200):
    """The lagged sweep over the whole window, x <- P^{-1}(rhs - N x), one P-solve a sweep.

    P and N are slices of op.matrix (lagged_factor).  The sweeps start
    from a zero flux and stop when the relative residual rhs - matrix @ x,
    formed outright, drops to tol; three growing residuals in a row, the
    last over ten times the first, count as divergence.  Returns (x,
    sweeps, growth factor), x None when the sweeps diverge or run out.
    """
    A = op.matrix
    n, lu = lagged_factor(op)
    flux = np.zeros(op.dim - n)
    residuals = []
    for sweep in range(1, max_iter + 1):
        b = rhs.copy()
        b[:n] -= A[:n, n:] @ flux
        x = lu.solve(b)
        Ax = A @ x
        residuals.append(np.linalg.norm(rhs - Ax))
        if residuals[-1] <= tol * max(np.linalg.norm(rhs), np.linalg.norm(Ax)):
            return x, sweep, float("nan")
        flux = x[n:]
        growing = len(residuals) >= 4 and residuals[-1] > residuals[-2] > residuals[-3]
        if growing and residuals[-1] > 10 * residuals[0]:
            return None, sweep, residuals[-1] / residuals[-2]
    return None, max_iter, residuals[-1] / residuals[-2] if max_iter > 1 else float("nan")


def lagged_solve(op) -> np.ndarray:
    """P^{-1} [N; 0] of op.matrix, on all flux columns at once."""
    n, lu = lagged_factor(op)
    lagged = np.zeros((op.dim, op.dim - n))
    lagged[:n] = op.matrix[:n, n:].toarray()
    return lu.solve(lagged)


def sweep_map(op) -> np.ndarray:
    """K, the flux rows of P^{-1} [N; 0] of op.matrix: a sweep is f <- y_F - K f."""
    return lagged_solve(op)[op._flux_off[0] :]


def flux_condition(op) -> float:
    """cond(I + K) of a fixed-point operator."""
    K = sweep_map(op)
    return float(np.linalg.cond(np.eye(len(K)) + K))


# The fixed point solves S f = rhs_F - A_Fs y with an LU, which is
# backward stable: relative to the window's scale, its flux errs by about
# cond(I + K) times the error of its data, which the A_ss-solves give to
# a small multiple of eps (I + K = A_FF^{-1} S, A_FF the flux rows' window
# mass); the direct solve errs by a multiple of eps too.  AGREEMENT_FACTOR
# covers those multiples.  The largest ratio of window_difference to
# cond(I + K) * eps seen on the configurations of acceptance test 11
# (nx = 8, every shipped scheme and quadrature, k = 10 to 1000) and on the
# same with k = 1, cond(I + K) 1.2 to 380, was 17.5; over 300 random draws
# of test_agrees_with_direct_for_random_psd_coupling's space it was 70.5.
AGREEMENT_FACTOR = 1000


def agreement_bound(op) -> float:
    """Bound on window_difference between the fixed point of op and the direct solve."""
    return AGREEMENT_FACTOR * flux_condition(op) * np.finfo(float).eps


def window_difference(got, want) -> float:
    """The largest difference of side values or fluxes, relative to want's largest entry."""
    pairs = [(got.U[i], want.U[i]) for i in range(2)] + [(got.F[i], want.F[i]) for i in range(2)]
    scale = max(float(np.max(np.abs(w))) for _, w in pairs)
    return max(float(np.max(np.abs(g - w))) for g, w in pairs) / scale


class TestFixedPoint:
    def test_trivial_matches_its_one_sweep(self):
        # without coupling the first sweep solves the window
        Z = np.zeros((2, 2))
        ops = mc.from_matrices(
            [[1.0]], [[0.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]], Z,
            load_f=(lambda t: np.array([1.0]), None),
            u0=(np.array([0.5]), np.array([1.0])),
        )
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 2), r=(0, 0))
        sol = mc.solve_window_fixed_point(
            ops, mc.crank_nicolson(), cfg, before_first(ops), quadrature="exact"
        )
        assert sol.U[0][-1][0] == pytest.approx(0.6, abs=1e-12)
        op = mc.WindowOperator(ops, mc.crank_nicolson(), cfg, solver="fixed-point")
        past = op._past_values(before_first(ops))
        x, sweeps, _ = plain_sweeps(op, op._rhs(past, 1))
        assert sweeps == 1
        ref = op._extract(x, past, 1, 0.0)
        for i in range(2):
            assert np.max(np.abs(sol.U[i] - ref.U[i])) <= 1e-14
            assert np.max(np.abs(sol.F[i] - ref.F[i])) <= 1e-14

    def test_matches_direct_within_tolerance(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.05, N=1, M=(2, 3), r=(1, 1))
        tol = 1e-10
        op = mc.WindowOperator(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        direct = op.solve(before_first(toy_ops))
        fp = mc.solve_window_fixed_point(
            toy_ops, mc.crank_nicolson(), cfg, before_first(toy_ops), quadrature="trapezoid"
        )
        for i in range(2):
            assert np.max(np.abs(fp.U[i][-1] - direct.U[i][-1])) <= 10 * tol
            assert np.max(np.abs(fp.F[i] - direct.F[i])) <= 10 * tol

    def test_solves_where_the_sweeps_diverge(self):
        # strong coupling against a weak subdomain response: the lagged
        # sweeps contract on a short window only, and the fixed point solves both
        B = 5.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        stiff = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], B,
            u0=(np.array([1.0]), np.array([-1.0])),
        )
        before = before_first(stiff)
        for t_f, contracts in ((0.01, True), (1.0, False)):
            cfg = mc.WindowConfig(t_f=t_f, N=1, M=(1, 2), r=(1, 1))
            op = mc.WindowOperator(stiff, mc.crank_nicolson(), cfg, solver="fixed-point")
            fp = mc.solve_window_fixed_point(stiff, mc.crank_nicolson(), cfg, before)
            direct = mc.WindowOperator(stiff, mc.crank_nicolson(), cfg).solve(before)
            assert fp.residual <= coupling.RESIDUAL_TOL
            assert window_difference(fp, direct) <= agreement_bound(op)
            past = op._past_values(before)
            x, sweeps, factor = plain_sweeps(op, op._rhs(past, 1))
            if contracts:
                assert sweeps <= 50
                assert window_difference(fp, op._extract(x, past, 1, 0.0)) <= 1e-9
            else:
                assert x is None and factor >= 1.0

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_solves_past_an_unmoved_first_sweep(self, quadrature):
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
            before_first(ops)
        )
        fp = mc.solve_window_fixed_point(
            ops, mc.crank_nicolson(), cfg, before_first(ops), quadrature=quadrature
        )
        assert fp.residual <= tol
        for i in range(2):
            assert np.max(np.abs(fp.U[i][-1] - direct.U[i][-1])) <= 10 * tol
            assert np.max(np.abs(fp.F[i] - direct.F[i])) <= 10 * tol
        # the sweeps take more than the unmoved first one to the same window
        op = mc.WindowOperator(ops, mc.crank_nicolson(), cfg, quadrature=quadrature,
                               solver="fixed-point")
        past = op._past_values(before_first(ops))
        first, _, _ = plain_sweeps(op, op._rhs(past, 1), max_iter=1)
        assert first is None
        x, sweeps, _ = plain_sweeps(op, op._rhs(past, 1), tol=tol, max_iter=1000)
        assert sweeps > 1
        limit = op._extract(x, past, 1, 0.0)
        for i in range(2):
            assert np.max(np.abs(fp.U[i][-1] - limit.U[i][-1])) <= 10 * tol
            assert np.max(np.abs(fp.F[i] - limit.F[i])) <= 10 * tol

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
        direct = op.solve(before_first(toy_ops))
        fp = mc.solve_window_fixed_point(
            toy_ops, scheme, cfg, before_first(toy_ops), quadrature=quadrature
        )
        for i in range(2):
            assert np.max(np.abs(fp.U[i][-1] - direct.U[i][-1])) <= 10 * tol
            assert np.max(np.abs(fp.F[i] - direct.F[i])) <= 10 * tol

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", sorted(mc.shipped_schemes()))
    def test_matches_plain_sweep_limit(self, toy_ops, scheme_name, quadrature):
        # where the plain sweeps contract, every window is their limit
        scheme = mc.shipped_schemes()[scheme_name]
        cfg = mc.WindowConfig(t_f=0.2, N=4, M=(2, 3), r=(1, 1))
        op = mc.WindowOperator(toy_ops, scheme, cfg, quadrature=quadrature, solver="fixed-point")
        before = before_first(toy_ops)
        for n in range(1, cfg.N + 1):
            sol = op.solve(before, n)
            past = op._past_values(before)
            x, _, _ = plain_sweeps(op, op._rhs(past, n), tol=1e-13)
            ref = op._extract(x, past, n, 0.0)
            for i in range(2):
                for got, want in ((sol.U[i], ref.U[i]), (sol.F[i], ref.F[i])):
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            before = sol.U

    @settings(max_examples=30, deadline=None)
    @given(
        R=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        strength=st.floats(-1.0, 3.0),
        nx=st.integers(2, 3),
        ny=st.integers(1, 2),
        M=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        r=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        t_f=st.sampled_from([0.05, 0.2, 1.0]),
        scheme_name=st.sampled_from(sorted(mc.shipped_schemes())),
        quadrature=st.sampled_from(["exact", "trapezoid"]),
    )
    def test_agrees_with_direct_for_random_psd_coupling(
        self, R, strength, nx, ny, M, r, t_f, scheme_name, quadrature
    ):
        # B = 10^strength R R^T / 2: positive semidefinite, entries up to 10^strength
        R = np.reshape(R, (2, 2))
        B = 10.0**strength * (R @ R.T) / 2
        m1, m2 = mc.build_mesh(1, nx, ny), mc.build_mesh(2, nx, ny)
        spec = mc.ProblemSpec(
            nu=(1.0, 0.5),
            B=B,
            u0=(
                lambda x, y: np.sin(np.pi * x) * (1.0 - y),
                lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
            ),
        )
        ops = mc.assemble(m1, m2, mc.match_interfaces(m1, m2), spec)
        scheme = mc.shipped_schemes()[scheme_name]
        cfg = mc.WindowConfig(t_f=t_f, N=2, M=M, r=r)
        op = mc.WindowOperator(ops, scheme, cfg, quadrature=quadrature, solver="fixed-point")
        bound = agreement_bound(op)
        fp = mc.march(ops, scheme, cfg, quadrature=quadrature, solver="fixed-point")
        for got, want in zip(fp, mc.march(ops, scheme, cfg, quadrature=quadrature)):
            assert window_difference(got, want) <= bound

    def test_factor_does_not_see_the_coupling_strength(self):
        # the fixed point factors the substep block A_ss, which holds no B:
        # its fill is the same at k = 1 and k = 100, where a factor that
        # took in the flux rows grew with k
        m1, m2 = mc.build_mesh(1, 8, 8), mc.build_mesh(2, 8, 8)
        imap = mc.match_interfaces(m1, m2)
        scheme = mc.crank_nicolson()
        cfg = mc.WindowConfig(t_f=0.2, N=3, M=(4, 16), r=(1, 1))
        fills = []
        for k in (1.0, 100.0):
            spec = mc.ProblemSpec(
                nu=(1.0, 0.5),
                advection=(mc.AdvectionSpec(kind="vortex"),) * 2,
                B=k * np.array([[1.0, -1.0], [-1.0, 1.0]]),
                u0=(
                    lambda x, y: np.sin(np.pi * x) * (1.0 - y),
                    lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
                ),
            )
            ops = mc.assemble(m1, m2, imap, spec)
            op = mc.WindowOperator(ops, scheme, cfg, solver="fixed-point")
            fills.append(op._lu.L.nnz + op._lu.U.nnz)
        assert fills[0] == fills[1]
        bound = agreement_bound(op)
        fp = mc.march(ops, scheme, cfg, solver="fixed-point")
        for got, want in zip(fp, mc.march(ops, scheme, cfg)):
            assert window_difference(got, want) <= bound

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_blocks_are_the_full_lagged_solve(self, smooth_ops, quadrature):
        # P^{-1} [N; 0] of the window matrix solved on all flux columns at
        # once: at the substep rows it is Z_i at side i's rows of side i's
        # flux columns, 0 elsewhere
        cfg = mc.WindowConfig(t_f=0.3, N=1, M=(2, 3), r=(1, 2))
        scheme = mc.shipped_schemes()["dg1"]
        op = mc.WindowOperator(smooth_ops, scheme, cfg, quadrature=quadrature, solver="fixed-point")
        n = op._flux_off[0]
        full = lagged_solve(op)
        sides = [slice(lo, lo + cfg.M[i] * op._sub_size[i]) for i, lo in enumerate(op._dom_off)]
        fluxes = [slice(op._flux_off[0] - n, op._flux_off[1] - n), slice(op._flux_off[1] - n, None)]
        assert [len(Z) for Z in op._blocks] == [s.stop - s.start for s in sides]
        for i, Z in enumerate(op._blocks):
            want = full[sides[i], fluxes[i]]
            assert np.any(want != 0) and Z.shape == want.shape
            assert np.max(np.abs(Z - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.all(full[sides[1 - i], fluxes[i]] == 0.0)

    @pytest.mark.parametrize("scheme_name", ["crank-nicolson", "dg1"])
    def test_agrees_with_direct_over_several_column_chunks(self, scheme_name):
        # nx = 16 and r = (2, 2): 45 flux columns a side, two solves of A_ss each
        m1, m2 = mc.build_mesh(1, 16, 16), mc.build_mesh(2, 16, 16)
        spec = mc.ProblemSpec(
            nu=(1.0, 0.5),
            B=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            u0=(
                lambda x, y: np.sin(np.pi * x) * (1.0 - y),
                lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
            ),
        )
        ops = mc.assemble(m1, m2, mc.match_interfaces(m1, m2), spec)
        scheme = mc.shipped_schemes()[scheme_name]
        cfg = mc.WindowConfig(t_f=0.1, N=2, M=(2, 3), r=(2, 2))
        assert (cfg.r[0] + 1) * ops.d_gamma == 45 > coupling.SOLVE_COLUMNS
        bound = agreement_bound(mc.WindowOperator(ops, scheme, cfg, solver="fixed-point"))
        fp = mc.march(ops, scheme, cfg, solver="fixed-point")
        for got, want in zip(fp, mc.march(ops, scheme, cfg)):
            assert window_difference(got, want) <= bound

    def test_run_assembles_and_factorizes_once(self, toy_ops, monkeypatch):
        calls = {"csr_triplets": 0, "transpose": 0, "factorize": 0}
        factors = []

        class CountedLU:
            def __init__(self, lu):
                self.lu, self.solves = lu, []
                factors.append(self)

            def solve(self, b):
                self.solves.append(np.shape(b))
                return self.lu.solve(b)

        class CountedTranspose(sp.csr_matrix):
            def transpose(self, *args, **kwargs):
                calls["transpose"] += 1
                return super().transpose(*args, **kwargs)

        def count(module, name, wrap=lambda out: out):
            orig = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return wrap(orig(*args, **kwargs))

            monkeypatch.setattr(module, name, counted)

        count(fespace, "csr_triplets")
        count(dgit, "factorize", CountedLU)
        # one flux column a build solve, so each side's two take two solves,
        # none wider than SOLVE_COLUMNS
        monkeypatch.setattr(coupling, "SOLVE_COLUMNS", 1)
        # operators with nothing converted yet, whose T_i count their transposes
        ops = dataclasses.replace(toy_ops, T=tuple(CountedTranspose(T) for T in toy_ops.T))
        cfg = mc.WindowConfig(t_f=0.2, N=4, M=(2, 3), r=(1, 1))
        mc.run_simulation(
            ops, mc.crank_nicolson(), cfg, quadrature="trapezoid", solver="fixed-point"
        )
        # A_ss, then S; A_ss-solves on the flux columns in chunks, then one a
        # window, and one S solve a window
        assert calls["factorize"] == 2
        substeps, flux = factors
        n_F = 2 * (cfg.r[0] + 1)
        n = substeps.lu.shape[0]
        assert substeps.solves == [(n, 1)] * n_F + [(n,)] * cfg.N
        assert flux.solves == [(n_F,)] * cfg.N
        assert flux.lu.shape == (n_F, n_F)
        converted = dict(calls)
        assert converted["csr_triplets"] > 0 and converted["transpose"] == 2
        # a second operator, as a study's next level builds it, reuses them:
        # it converts no spatial matrix and forms no T_i^T M_gamma again
        mc.WindowOperator(ops, mc.crank_nicolson(), dataclasses.replace(cfg, N=8))
        assert calls["csr_triplets"] == converted["csr_triplets"]
        assert calls["transpose"] == converted["transpose"]


@pytest.fixture(scope="module")
def traj_equal_orders(toy_ops):
    cfg = mc.WindowConfig(t_f=0.5, N=5, M=(2, 3), r=(1, 1))
    return mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")


class TestConservation:

    def test_strong(self, toy_ops, traj_equal_orders):
        for sol in traj_equal_orders.windows:
            assert mc.check_flux_conservation(sol, toy_ops, "strong") <= 1e-12

    def test_weak_with_mixed_orders(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.5, N=5, M=(2, 3), r=(1, 0))
        traj = mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        saw_strong_violation = False
        for sol in traj.windows:
            assert mc.check_flux_conservation(sol, toy_ops, "weak") <= 1e-12
            # strong cancellation fails in the linear mode
            if np.max(np.abs(sol.F[0][1])) > 1e-8:
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
            assert mc.check_flux_conservation(sol, ops, "strong") <= 1e-12


def pointwise_interfacial_energy(sol, ops, cfg, mode):
    """interfacial_energy_term written as a loop over substeps and quadrature points."""
    total = 0.0
    for i in range(2):
        edges = cfg.substep_edges(i, sol.index)
        F = lambda t: poly_values(sol.window, sol.F[i], t)
        for n, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if mode == "cn":
                u_avg = 0.5 * (sol.U[i][n] + sol.U[i][n + 1])
                f_avg = 0.5 * (F(a) + F(b))
                total -= (b - a) * float((ops.T[i] @ u_avg) @ (ops.M_gamma @ f_avg))
                continue
            piece = Interval(a, b)
            degree = len(sol.u[i][n]) + len(sol.F[i]) - 2
            for tk, wk in zip(*gauss_on(piece, points_for_degree(degree))):
                u = poly_values(piece, sol.u[i][n], tk)
                total -= wk * float((ops.T[i] @ u) @ (ops.M_gamma @ F(tk)))
    return total


class TestInterfacialEnergy:
    @pytest.mark.parametrize("quadrature,mode", [("trapezoid", "cn"), ("exact", "exact")])
    @pytest.mark.parametrize("scheme_name", ["crank-nicolson", "cg2"])
    def test_equals_pointwise_loop(self, decay_ops, scheme_name, quadrature, mode):
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(2, 3), r=(1, 2))
        scheme = mc.shipped_schemes()[scheme_name]
        traj = mc.run_simulation(decay_ops, scheme, cfg, quadrature=quadrature)
        for sol in traj.windows:
            want = pointwise_interfacial_energy(sol, decay_ops, cfg, mode)
            assert want < 0
            got = mc.interfacial_energy_term(sol, decay_ops, mode)
            assert got == pytest.approx(want, rel=1e-12, abs=0)

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
            e0 = mc.window_diagnostics(traj.windows, ops, cfg, quad).energies[0]
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
        windows = mc.march(decay_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        energies = mc.window_diagnostics(windows, decay_ops, cfg, "trapezoid").energies
        assert len(energies) == 11
        assert np.all(np.diff(energies) <= 1e-12 * energies[0])

    def test_window_jump_vanishes_for_pinned_scheme(self, decay_ops):
        cfg = mc.WindowConfig(t_f=0.3, N=3, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(decay_ops, mc.crank_nicolson(), cfg, quadrature="exact")
        prev = decay_ops.u0
        for sol in traj.windows:
            for i in range(2):
                first = Interval(*cfg.substep_edges(i, sol.index)[:2])
                scale = max(1.0, np.max(np.abs(sol.U[i])))
                start = poly_values(first, sol.u[i][0], sol.window.a)
                assert np.max(np.abs(start - prev[i])) < 1e-11 * scale
            prev = tuple(sol.U[i][-1] for i in range(2))

    def test_window_jump_recorded_for_discontinuous_scheme(self, decay_ops):
        cfg = mc.WindowConfig(t_f=0.3, N=3, M=(1, 1), r=(1, 1))
        traj = mc.run_simulation(decay_ops, mc.dg(1), cfg, quadrature="exact")
        jumps = []
        prev = decay_ops.u0
        for sol in traj.windows:
            first = Interval(*cfg.substep_edges(0, sol.index)[:2])
            jumps.append(np.max(np.abs(poly_values(first, sol.u[0][0], sol.window.a) - prev[0])))
            prev = tuple(sol.U[i][-1] for i in range(2))
        assert all(np.isfinite(j) for j in jumps)
        assert max(jumps) > 0.0  # jumps exist but stay finite

    def test_reachback_scheme_initializes_from_reference(self, toy_linear_ops):
        spec = SchemeSpec(
            q=1, n_s=2, k_s=2, thetas=(0.0, 1.0),
            D=[[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]], name="mean-two-back",
        )
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(toy_linear_ops, spec, cfg, quadrature="exact")
        assert traj.windows[0].initialized_from_reference
        assert not traj.windows[1].initialized_from_reference
        # the left node reads the side value two steps back (reach 2); the
        # mean of U^{n+1} and U^{n-1} is exact for the linear solution here
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(1.4, abs=1e-9)
        assert traj.windows[-1].U[1][-1][0] == pytest.approx(0.5, abs=1e-9)

    # The left node takes the mean of the new side value and the one two
    # steps back: exact for the linear toy, and it reads the history.
    MEAN_TWO_BACK = SchemeSpec(
        q=1, n_s=2, k_s=2, thetas=(0.0, 1.0),
        D=[[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]], name="mean-two-back",
    )

    # The left node is U^n extrapolated from U^{n+1} and U^{n-2}: exact for
    # the linear toy, and window 2 reads three side values of window 1.
    THIRDS_THREE_BACK = SchemeSpec(
        q=1, n_s=2, k_s=3, thetas=(0.0, 1.0),
        D=[[2 / 3, 0.0, 0.0, 1 / 3], [1.0, 0.0, 0.0, 0.0]], name="thirds-three-back",
    )

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    @pytest.mark.parametrize("reach", [2, 3])
    def test_two_step_scheme_reads_handed_over_history(self, toy_linear_ops, reach, solver):
        spec = {2: self.MEAN_TWO_BACK, 3: self.THIRDS_THREE_BACK}[reach]
        assert spec.reach == reach
        # the fewest substeps on side 1 that let window 2 reach back into window 1
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(reach - 1, reach), r=(1, 1))
        traj = mc.run_simulation(toy_linear_ops, spec, cfg, quadrature="exact", solver=solver)
        flags = [sol.initialized_from_reference for sol in traj.windows]
        assert flags == [True, False, False, False]
        tol = 1e-10
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(1.4, abs=tol)
        assert traj.windows[-1].U[1][-1][0] == pytest.approx(0.5, abs=tol)

    def test_short_history_rejected(self, toy_linear_ops):
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(toy_linear_ops, self.MEAN_TWO_BACK, cfg)
        with pytest.raises(ValueError, match="needs 2 historic side values, have 1"):
            op.solve(before_first(toy_linear_ops), 2)

    def test_side_values_must_be_rows(self, toy_linear_ops):
        # the bare u0 vector is not the side values before the window, even with d_i == 1
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(toy_linear_ops, mc.crank_nicolson(), cfg)
        with pytest.raises(ValueError, match=r"must be \(k, 1\): .*u0\[None\]; got shape \(1,\)"):
            op.solve(tuple(toy_linear_ops.u0))

    @pytest.mark.parametrize("n", [0, 5])
    def test_window_index_outside_march_rejected(self, smooth_ops, n):
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        op = mc.WindowOperator(smooth_ops, mc.crank_nicolson(), cfg)
        with pytest.raises(ValueError, match=f"window index {n} is outside 1..4"):
            op.solve(before_first(smooth_ops), n)

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    def test_interface_data_of_per_time_loads(self, solver):
        # B = 0 leaves each flux the negated projection of M_gamma^-1 g_i, in
        # the reference-filled window as in the solved ones
        g = (lambda t: np.array([1.0 + t * t]), lambda t: np.array([-3.0 * t]))
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], [[1.0]], [[1.0]], [[0.5]], [[1.0]], [[2.0]], np.zeros((2, 2)),
            load_g=g, u0=(np.array([1.0]), np.array([-0.3])),
        )
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(2, 1))
        traj = mc.run_simulation(ops, self.MEAN_TWO_BACK, cfg, quadrature="exact", solver=solver)
        assert [sol.initialized_from_reference for sol in traj.windows] == [True] + [False] * 3
        for sol in traj.windows:
            for i in range(2):
                expect = -mc.project_l2(lambda t: g[i](t) / 2.0, sol.window, cfg.r[i])
                assert np.allclose(sol.F[i], expect, rtol=0.0, atol=1e-13)

    def test_two_step_window_depends_on_history(self, toy_linear_ops):
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(toy_linear_ops, self.MEAN_TWO_BACK, cfg, quadrature="exact")
        op = mc.WindowOperator(toy_linear_ops, self.MEAN_TWO_BACK, cfg)
        prev = traj.windows[0].U
        # the side value before the incoming one, moved
        bent = tuple(np.vstack([U[:-2], U[-2:-1] + 0.01, U[-1:]]) for U in prev)
        same = op.solve(prev, 2)
        moved = op.solve(bent, 2)
        assert np.array_equal(same.U[0], traj.windows[1].U[0])
        assert np.max(np.abs(moved.U[0][-1] - same.U[0][-1])) > 1e-4

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_rows_before_the_read_ones_change_nothing(self, toy_linear_ops, quadrature, solver):
        # a window reads the last spec.reach rows of before and no others
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        settings = dict(quadrature=quadrature, solver=solver)
        traj = mc.run_simulation(toy_linear_ops, self.MEAN_TWO_BACK, cfg, **settings)
        op = mc.WindowOperator(toy_linear_ops, self.MEAN_TWO_BACK, cfg, **settings)
        prev = traj.windows[0]
        rng = np.random.default_rng(7)
        longer = tuple(np.vstack([rng.standard_normal((3, U.shape[1])), U]) for U in prev.U)
        want = op.solve(prev.U, 2)
        got = op.solve(longer, 2)
        for i in range(2):
            for name in ("u", "U", "F"):
                assert np.array_equal(getattr(got, name)[i], getattr(want, name)[i])
        assert got.residual == want.residual

    def test_unknown_solver_rejected(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.1, N=1)
        with pytest.raises(ValueError):
            mc.run_simulation(toy_ops, mc.crank_nicolson(), cfg, solver="newton")

    @pytest.mark.parametrize("M,r", [((1, 2), (1, 1)), ((2, 3), (2, 0))])
    def test_reference_window_projects_the_fine_solution(self, smooth_ops, M, r):
        ops = smooth_ops
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=M, r=r)
        traj = mc.run_simulation(ops, self.MEAN_TWO_BACK, cfg, quadrature="exact")
        # the fine solve behind the filled window: 32 steps per substep of each side
        Mc, Lc, load, slices = coupling.coupled_system(ops)
        per_window = 32 * M[0] * M[1]
        edges = np.linspace(0.0, cfg.window(1).b, per_window + 1)
        fill = mc.continuous_galerkin(2)
        free, side = dgit.integrate(Mc, Lc, load, np.concatenate(ops.u0), fill, edges)
        coeffs = dgit.march_coeffs(fill, free, side, (), np.arange(per_window))
        traces = [np.einsum("gd,nad->nag", ops.T[j].toarray(), coeffs[:, :, slices[j]])
                  for j in range(2)]
        Mg = ops.M_gamma.tocsc()

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

        sol = traj.windows[0]
        assert sol.initialized_from_reference
        assert not any(later.initialized_from_reference for later in traj.windows[1:])
        for i in range(2):
            per_sub = per_window // M[i]
            for n, got in enumerate(sol.u[i]):
                k = n * per_sub
                pieces = coeffs[k : k + per_sub, :, slices[i]]
                assert close(got, mc.project_pieces(edges[k : k + per_sub + 1], pieces, 1))
            assert np.array_equal(sol.U[i], side[::per_sub, slices[i]])
            combo = ops.B[i, 0] * traces[0] + ops.B[i, 1] * traces[1]
            g = mc.project_l2(lambda t: spla.spsolve(Mg, ops.g_vec(i, t)), sol.window, r[i])
            assert close(sol.F[i], mc.project_pieces(edges, combo, r[i]) - g)

    def test_initialization_cannot_swallow_all_windows(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.2, N=1)
        with pytest.raises(ValueError, match="window.N: 1 leaves no scheme window"):
            mc.run_simulation(toy_ops, self.MEAN_TWO_BACK, cfg)

    def test_window_states_are_read_only_arrays(self, toy_linear_ops):
        # a reference-filled and a solved window carry their states alike
        spec = self.MEAN_TWO_BACK
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(toy_linear_ops, spec, cfg, quadrature="exact")
        filled, solved = traj.windows[:2]
        assert filled.initialized_from_reference and not solved.initialized_from_reference
        for sol in (filled, solved):
            for i in range(2):
                shape = (cfg.M[i], spec.q + 1, toy_linear_ops.d_omega[i])
                assert isinstance(sol.u[i], np.ndarray) and sol.u[i].shape == shape
                assert np.array_equal(sol.edges(i), cfg.substep_edges(i, sol.index))
                with pytest.raises(ValueError):
                    sol.U[i][0] = 9.9
                with pytest.raises(ValueError):
                    sol.u[i][0, 0, 0] = 9.9
                assert isinstance(sol.F[i], np.ndarray)
                assert sol.F[i].shape == (cfg.r[i] + 1, toy_linear_ops.d_gamma)
                with pytest.raises(ValueError):
                    sol.F[i][0, 0] = 9.9

    def test_interface_free_operator_pair(self):
        # a zero-row trace matrix decouples the systems entirely, whatever B
        T, B = np.zeros((0, 1)), np.array([[1.0, -1.0], [-1.0, 1.0]])
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], T, [[1.0]], [[0.5]], T, np.zeros((0, 0)), B,
            u0=(np.array([1.0]), np.array([2.0])),
        )
        assert ops.d_gamma == 0
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(ops, mc.crank_nicolson(), cfg, quadrature="exact")
        rho1 = (1 - 0.05 * 2.0) / (1 + 0.05 * 2.0)
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(rho1**2, rel=1e-12)
        # the same path end to end: a reference-filled window, the fixed point,
        # the diagnostics and the error norms
        cfg = mc.WindowConfig(t_f=0.2, N=3, M=(1, 2), r=(2, 0))
        for solver in ("direct", "fixed-point"):
            traj = mc.run_simulation(ops, self.MEAN_TWO_BACK, cfg, solver=solver)
            assert [sol.initialized_from_reference for sol in traj.windows] == [True, False, False]
            for sol in traj.windows:
                for i in range(2):
                    assert isinstance(sol.F[i], np.ndarray)
                    assert sol.F[i].shape == (cfg.r[i] + 1, 0)
                    assert not sol.F[i].flags.writeable
                assert mc.check_flux_conservation(sol, ops, "weak") == 0.0
                assert mc.interfacial_energy_term(sol, ops, "exact") == 0.0
            diag = mc.window_diagnostics(traj.windows, ops, cfg, "exact")
            assert np.all(np.isnan(diag.conservation)) and np.all(np.isnan(diag.work))
            assert np.all(np.diff(diag.energies) < 0)
            oracle = mc.reference_solve(ops, cfg.t_f, n_steps=256)
            rep = mc.error_norms(ops, traj.windows, oracle)
            l2, _, nodal, sync = pointwise_error_norms(
                ops, self.MEAN_TWO_BACK, cfg, traj.windows, oracle
            )
            assert rep.flux_l2 == (0.0, 0.0)
            assert np.allclose(rep.l2, l2, rtol=1e-12, atol=0)
            assert np.allclose(rep.sync, sync, rtol=1e-12, atol=0)
            for i in range(2):
                assert np.allclose(rep.nodal[i], nodal[i], rtol=1e-12, atol=0)


class TestExportCsv:
    def test_columns_and_determinism(self, toy_ops):
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(2, 3), r=(1, 1))
        outputs = []
        for _ in range(2):
            windows = mc.march(toy_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
            buf = io.StringIO()
            mc.export_trajectory_csv(mc.window_diagnostics(windows, toy_ops, cfg, "trapezoid"), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        lines = outputs[0].strip().splitlines()
        assert lines[0] == (
            "window,t_sync,energy_1,energy_2,flux_conservation_residual,interfacial_energy_term"
        )
        assert len(lines) == 1 + 1 + cfg.N
        last = lines[-1].split(",")
        assert float(last[4]) <= 1e-12  # conservation residual column


def reach_two_twin(spec):
    """spec with its first side condition averaged with the side value two
    steps back: the same nodes and state order, with window 1 reference-filled."""
    D = np.pad(spec.D, ((0, 0), (0, 2 - spec.k_s)))
    D[0] *= 0.5
    D[0, 2] += 0.5
    return SchemeSpec(q=spec.q, n_s=spec.n_s, k_s=2, thetas=spec.thetas, D=D)


class TestWindowDiagnostics:
    def test_csv_columns_are_the_diagnostics(self, decay_ops):
        # mixed flux orders: weak conservation; exact quadrature: exact work term
        cfg = mc.WindowConfig(t_f=0.2, N=3, M=(1, 2), r=(1, 0))
        traj = mc.run_simulation(decay_ops, mc.dg(1), cfg, quadrature="exact")
        diag = coupling.window_diagnostics(traj.windows, decay_ops, cfg, "exact")
        assert (diag.conservation_mode, diag.energy_mode) == ("weak", "exact")
        buf = io.StringIO()
        mc.export_trajectory_csv(diag, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == list(cfg.sync_times())
        assert [row[4] for row in rows[1:]] == [f"{v:.17g}" for v in diag.conservation]
        assert [row[5] for row in rows[1:]] == [f"{v:.17g}" for v in diag.work]
        assert np.all(diag.work <= 1e-12 * diag.energies[0])
        for sol, row in zip(traj.windows, rows[1:]):
            want = [0.5 * float(v @ (decay_ops.M[i] @ v)) for i, v in enumerate(u[-1] for u in sol.U)]
            assert [float(e) for e in row[2:4]] == want

    def test_decay_is_monotone(self, decay_ops):
        cfg = mc.WindowConfig(t_f=1.0, N=10, M=(2, 3), r=(1, 1))
        windows = mc.march(decay_ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
        diag = mc.window_diagnostics(windows, decay_ops, cfg, "trapezoid")
        tol = 1e-12 * diag.energies[0]
        assert np.all(np.diff(diag.energies) <= tol)
        assert np.all(diag.work <= tol)

    def test_nan_where_a_precondition_fails(self, toy_ops):
        signed = mc.from_matrices(
            [[1.0]], [[0.2]], [[1.0]], [[1.0]], [[0.2]], [[1.0]], [[1.0]], -np.eye(2),
            u0=(np.array([1.0]), np.array([1.0])),
        )
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(1, 2), r=(1, 1))
        for ops in (toy_ops, signed):
            windows = mc.march(ops, mc.crank_nicolson(), cfg, quadrature="trapezoid")
            diag = mc.window_diagnostics(windows, ops, cfg, "trapezoid")
            assert (diag.conservation_mode, diag.energy_mode) == ("strong", "cn")
            assert np.all(np.isfinite(diag.conservation)) == ops.conservation_compatible
            assert np.all(np.isfinite(diag.work)) == ops.b_psd
            assert np.all(np.isfinite(diag.energies))
            assert len(diag.conservation) == len(diag.work) == cfg.N


    # every shipped scheme, the reach-two twin of each one with side
    # conditions, and reach-two schemes of state orders 1 and 2
    SCHEMES = {
        **mc.shipped_schemes(),
        **{
            f"{name}-reach-two": reach_two_twin(spec)
            for name, spec in mc.shipped_schemes().items()
            if spec.n_s > 0
        },
        **{
            f"mean-two-back{q}": SchemeSpec(
                q=q, n_s=2, k_s=2, thetas=(0.0, 1.0), D=[[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]
            )
            for q in (1, 2)
        },
    }

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_streamed_equal_collected(self, decay_ops, scheme_name, quadrature, solver):
        scheme = self.SCHEMES[scheme_name]
        cfg = mc.WindowConfig(t_f=0.15, N=3, M=(2, 3), r=(1, 1))
        run = dict(quadrature=quadrature, solver=solver)
        streamed = mc.window_diagnostics(
            mc.march(decay_ops, scheme, cfg, **run), decay_ops, cfg, quadrature
        )
        traj = mc.run_simulation(decay_ops, scheme, cfg, **run)
        collected = mc.window_diagnostics(traj.windows, decay_ops, cfg, quadrature)
        assert traj.windows[0].initialized_from_reference == (scheme.reach == 2)
        assert np.all(np.isfinite(streamed.conservation)) and np.all(np.isfinite(streamed.work))
        for field in dataclasses.fields(coupling.WindowDiagnostics):
            np.testing.assert_array_equal(
                getattr(streamed, field.name), getattr(collected, field.name), strict=True
            )


class TestHistoryProblems:
    def test_keyed_problems_match_run_simulation(self, toy_linear_ops):
        reach_two = SchemeSpec(
            q=1, n_s=2, k_s=2, thetas=(0.0, 1.0), D=[[0, 2, -1], [1, 0, 0]], name="reach-two"
        )
        reach_three = SchemeSpec(
            q=1, n_s=1, k_s=3, thetas=(1.0,), D=[[0.5, 0, 0, 0.5]], name="reach-three"
        )
        cases = [
            (
                mc.WindowConfig(t_f=0.4, N=4, M=(1, 2)),
                reach_three,
                "scheme.D: the side conditions reach back 3 side values, more than M1+1=2",
            ),
            (mc.WindowConfig(t_f=0.4, N=1), reach_two, "window.N: 1 leaves no scheme window"),
        ]
        for cfg, spec, message in cases:
            problems = cfg.history_problems(spec)
            assert len(problems) == 1 and message in problems[0]
            with pytest.raises(ValueError, match=re.escape(message)):
                mc.run_simulation(toy_linear_ops, spec, cfg)
        assert mc.WindowConfig(t_f=0.4, N=2).history_problems(reach_two) == []
        # one window is no problem for a scheme that reads no history
        assert mc.WindowConfig(t_f=0.4, N=1).history_problems(mc.crank_nicolson()) == []

    @pytest.mark.parametrize("scheme_name", sorted(mc.shipped_schemes()))
    def test_one_window_is_solved_by_a_one_step_scheme(self, toy_linear_ops, scheme_name):
        # no shipped scheme reads history: N = 1 leaves its one window to the scheme
        spec = mc.shipped_schemes()[scheme_name]
        cfg = mc.WindowConfig(t_f=0.1, N=1, M=(1, 2), r=(1, 1))
        assert spec.reach == 1 and cfg.history_problems(spec) == []
        traj = mc.run_simulation(toy_linear_ops, spec, cfg, quadrature="exact")
        assert [sol.initialized_from_reference for sol in traj.windows] == [False]
        if spec.q >= 1:
            # linear in time, so exact for every scheme of state order 1 or more
            assert traj.windows[0].U[0][-1][0] == pytest.approx(1.1, abs=1e-9)
            assert traj.windows[0].U[1][-1][0] == pytest.approx(-0.1, abs=1e-9)

    def test_history_rule_reads_reach_not_k_s(self, toy_linear_ops):
        # zero columns of D past the last nonzero one read no history: such
        # a scheme runs at M1 = 1 and is solved from window 1
        k_s_three = SchemeSpec(q=1, n_s=0, k_s=3, thetas=(), D=np.zeros((0, 4)), name="k3")
        cn_clone = SchemeSpec(
            q=1, n_s=2, k_s=2, thetas=(0.0, 1.0), D=[[0, 1, 0], [1, 0, 0]], name="cn-clone"
        )
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        for spec in (k_s_three, cn_clone):
            assert spec.reach == 1
            assert cfg.history_problems(spec) == []
            traj = mc.run_simulation(toy_linear_ops, spec, cfg, quadrature="exact")
            assert not any(sol.initialized_from_reference for sol in traj.windows)
        # cn-clone is Crank-Nicolson in disguise, exact for the linear toy
        assert traj.windows[-1].U[0][-1][0] == pytest.approx(1.4, abs=1e-9)
        assert traj.windows[-1].U[1][-1][0] == pytest.approx(0.5, abs=1e-9)


def blockwise_assembly(op):
    """(matrix, past) of op, assembled block by block as the substep blocks place them.

    The reference for the window's table assembly: one dgit.build_substep_block
    per side, its matrix on the diagonal of every substep and its prev[j]
    shifted along the chain, then the flux columns and rows; every part is
    kron(W, B) at W's nonzeros, with B's entries read by tocoo, and each
    matrix one COO->CSR conversion.
    """
    ops, cfg, spec = op.ops, op.cfg, op.spec
    reach, own, dim = spec.reach, spec.test_order + 1, op.dim
    unknowns, past = ([], [], []), ([], [], [])

    def put(W, B, r0, c0):
        rows, cols, data = unknowns if c0 < dim else past
        a, c = np.nonzero(W)
        b = B.tocoo()
        rows.append((r0 + a[:, None] * B.shape[0] + b.row).ravel())
        c0 = c0 if c0 < dim else c0 - dim
        cols.append((c0 + c[:, None] * B.shape[1] + b.col).ravel())
        data.append((W[a, c][:, None] * b.data).ravel())

    def put_back(W, B, r0, i, l):
        M_i = W.shape[1]
        sides = np.zeros((len(W), reach + M_i))
        sides[:, reach - l : reach - l + M_i] = W
        slots = np.zeros((len(W), M_i, own))
        slots[:, :, -1] = sides[:, reach:]
        put(slots.reshape(len(W), -1), B, r0, op._dom_off[i])
        put(sides[:, reach - 1 :: -1], B, r0, dim + op._past_off[i])

    TtMg = [(ops.T[i].T @ ops.M_gamma).tocsr() for i in range(2)]
    for i in range(2):
        edges = op._edges[i]
        blk = dgit.build_substep_block(ops.M[i], ops.L[i], spec, Interval(edges[0], edges[1]))
        M_i, r0 = cfg.M[i], op._dom_off[i]
        put(np.eye(M_i), blk.matrix, r0, r0)
        for j, prevj in enumerate(blk.prev):
            put_back(np.eye(M_i), prevj, r0, i, j + 1)
        X = dgit.cross_moments(edges, op._template, spec.test_order, cfg.r[i], op.quadrature)
        put(X.reshape(-1, cfg.r[i] + 1), TtMg[i], r0, op._flux_off[i])
    R = np.pad(spec.state_map, ((0, 0), (0, 1)))[:, : own + reach]
    if op.quadrature == "trapezoid":
        R = 0.5 * (np.eye(1, own + reach, own - 1) + np.eye(1, own + reach, own))
    window = op._template
    for i in range(2):
        r_i, base = cfg.r[i], op._flux_off[i]
        put(np.diag(window.length / (2 * np.arange(r_i + 1) + 1)), ops.M_gamma, base, base)
        for j in range(2):
            bij = ops.B[i, j]
            if bij == 0.0:
                continue
            r_cut = min(r_i, cfg.r[j])
            X = dgit.cross_moments(op._edges[j], window, len(R) - 1, r_cut, op.quadrature)
            C = -bij * np.einsum("nab,ac->bnc", X, R)
            MgT = TtMg[j].T
            put(C[:, :, :own].reshape(r_cut + 1, -1), MgT, base, op._dom_off[j])
            for l in range(1, reach + 1):
                put_back(C[:, :, own + l - 1], MgT, base, j, l)

    def assembled(parts, ncols):
        rows, cols, data = (np.concatenate(p) for p in parts)
        return sp.coo_matrix((data, (rows, cols)), shape=(dim, ncols)).tocsr()

    return assembled(unknowns, dim), assembled(past, op._past.shape[1])


def assert_same_bits(got, want):
    """The same compressed matrix: shape, index arrays and the bits of every value."""
    assert got.format == want.format and got.shape == want.shape
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.data.tobytes() == want.data.tobytes(), "data"


class TestTableAssembly:
    """The window's table assembly stores the blockwise assembly's matrices bit for bit."""

    SCHEMES = {
        **mc.shipped_schemes(),
        "mean-two-back": TestRunSimulation.MEAN_TWO_BACK,
        "thirds-three-back": TestRunSimulation.THIRDS_THREE_BACK,
    }

    @staticmethod
    def build(ops, scheme, cfg, quadrature, solver, monkeypatch):
        """The operator and the matrices it factorized: the matrix, or A_ss and S (fixed point)."""
        factored = []
        factorize = dgit.factorize

        def capture(A):
            factored.append(A.tocsc())
            return factorize(A)

        monkeypatch.setattr(dgit, "factorize", capture)
        op = mc.WindowOperator(ops, scheme, cfg, quadrature=quadrature, solver=solver)
        monkeypatch.setattr(dgit, "factorize", factorize)
        return op, factored

    def check(self, op, factored):
        matrix, past = blockwise_assembly(op)
        assert_same_bits(op.matrix, matrix)
        assert_same_bits(op._past, past)
        if op.solver == "fixed-point":
            n = op._flux_off[0]
            substeps, S = factored
            assert_same_bits(substeps, matrix[:n, :n].tocsc())
            # S, the Schur complement of the substep block, from a dense solve
            A = matrix.toarray()
            want = A[n:, n:] - A[n:, :n] @ np.linalg.solve(A[:n, :n], A[:n, n:])
            assert np.max(np.abs(S.toarray() - want)) <= 1e-12 * np.max(np.abs(want))
        else:
            (factored,) = factored
            assert_same_bits(factored, matrix.tocsc())

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_equals_blockwise(self, smooth_ops, scheme_name, quadrature, solver, monkeypatch):
        scheme = self.SCHEMES[scheme_name]
        Ms = [(1, 1), (1, 2), (2, 3), (3, 2), (4, 5)]
        rs = [(0, 0), (1, 2), (2, 1)]
        for M, r in zip(Ms, rs * 2):
            cfg = mc.WindowConfig(t_f=0.3, N=3, M=M, r=r)
            self.check(*self.build(smooth_ops, scheme, cfg, quadrature, solver, monkeypatch))

    @staticmethod
    def differing_patterns():
        """A from_matrices pair whose M_i and L_i store different entries.

        Each matrix is less than half full, as scipy's kron needs to keep
        the sparse add of the blockwise assembly (at half full and above it
        stores dense blocks, explicit zeros included).
        """
        d = 8
        M = 4.0 * np.eye(d) + np.eye(d, k=1) + np.eye(d, k=-1)
        L1 = 2.0 * np.eye(d) - 0.5 * (np.eye(d, k=3) + np.eye(d, k=-3))
        L2 = np.eye(d) + 0.25 * np.eye(d, k=2)
        T1, T2 = np.eye(2, d, k=d - 2), np.eye(2, d)
        Mg = np.array([[2.0, 0.5], [0.5, 2.0]])
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        return mc.from_matrices(M, L1, T1, 0.5 * M, L2, T2, Mg, B)

    @pytest.mark.parametrize("solver", ["direct", "fixed-point"])
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme_name", ["crank-nicolson", "dg1", "thirds-three-back"])
    def test_differing_patterns(self, scheme_name, quadrature, solver, monkeypatch):
        ops = self.differing_patterns()
        for i in range(2):
            assert 2 * max(ops.M[i].nnz, ops.L[i].nnz) < ops.d_omega[i] ** 2
            assert not np.array_equal(ops.M[i].indices, ops.L[i].indices)

        def stored_zero(A, r, c):
            A = A.tolil()
            A[r, c] = 1.0
            A = A.tocsr()
            A[r, c] = 0.0  # an entry already stored stays stored
            return A

        def stores(A, r, c):
            return c in A.indices[A.indptr[r] : A.indptr[r + 1]]

        # explicit zeros: M_1 stores one where L_1 stores nothing, and L_1
        # one where M_1 stores nothing; the window's rows drop both
        zeros = dataclasses.replace(
            ops, M=(stored_zero(ops.M[0], 0, 5), ops.M[1]), L=(stored_zero(ops.L[0], 7, 2), ops.L[1])
        )
        M1, L1 = zeros.M[0], zeros.L[0]
        assert stores(M1, 0, 5) and not stores(L1, 0, 5) and M1[0, 5] == 0.0
        assert stores(L1, 7, 2) and not stores(M1, 7, 2) and L1[7, 2] == 0.0
        scheme = self.SCHEMES[scheme_name]
        for ops in (ops, zeros):
            for M in [(1, 2), (4, 5)]:
                cfg = mc.WindowConfig(t_f=0.3, N=3, M=M, r=(1, 2))
                self.check(*self.build(ops, scheme, cfg, quadrature, solver, monkeypatch))
