import dataclasses
import zlib

import numpy as np
import pytest
import scipy.sparse as sp

import mrcouple as mc
from mrcouple import dgit
from mrcouple.fespace import _per_time
from mrcouple.timepoly import Interval, SchemeSpec

from test_timepoly import poly_values


def random_spd(d, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, d))
    return sp.csr_matrix(R @ R.T + d * np.eye(d))


def scalar_block(spec, interval, L=0.0):
    return dgit.build_substep_block(sp.csr_matrix(np.eye(1)), sp.csr_matrix([[L]]), spec, interval)


class TestBlockStructure:
    @pytest.mark.parametrize("q,n_s", [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (3, 2), (2, 3)])
    def test_square_counts(self, q, n_s):
        thetas = tuple(np.linspace(0.0, 1.0, n_s)) if n_s > 1 else ((1.0,) if n_s else ())
        D = np.zeros((n_s, 1))
        D[:, 0] = 1.0
        spec = SchemeSpec(q=q, n_s=n_s, k_s=0, thetas=thetas, D=D)
        d = 3
        blk = dgit.build_substep_block(
            random_spd(d, q + 10 * n_s), None, spec, Interval(0.0, 0.5)
        )
        assert blk.matrix.shape == ((q + 2 - n_s) * d, (q + 2 - n_s) * d)

    def test_block_row_count_example(self):
        spec = mc.downwind(2)  # q = 2, one side condition
        blk = dgit.build_substep_block(random_spd(3, 0), None, spec, Interval(0.0, 1.0))
        assert blk.matrix.shape[0] == 9


class TestCrossMoments:
    # substeps that do not line up with the window, nor with each other
    EDGES = np.array([0.13, 0.21, 0.34, 0.5])
    WINDOW = Interval(0.1, 0.6)

    @staticmethod
    def _values(order, interval, t):
        ref = 2.0 * (t - interval.a) / interval.length - 1.0
        return np.array([np.polynomial.legendre.Legendre.basis(k)(ref) for k in range(order + 1)])

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("order_sub", range(4))
    @pytest.mark.parametrize("order_win", range(4))
    def test_matches_independent_integration(self, order_sub, order_win, quadrature):
        got = dgit.cross_moments(self.EDGES, self.WINDOW, order_sub, order_win, quadrature)
        assert got.shape == (len(self.EDGES) - 1, order_sub + 1, order_win + 1)
        for n, (a, b) in enumerate(zip(self.EDGES[:-1], self.EDGES[1:])):
            sub = Interval(a, b)
            if quadrature == "exact":
                x, w = np.polynomial.legendre.leggauss(10)
                t, w = a + 0.5 * (x + 1.0) * (b - a), 0.5 * (b - a) * w
            else:
                t, w = np.array([a, b]), np.array([0.5, 0.5]) * (b - a)
            want = (self._values(order_sub, sub, t) * w) @ self._values(order_win, self.WINDOW, t).T
            assert np.max(np.abs(got[n] - want)) <= 1e-15

    def test_rules_agree_on_linear_integrands(self):
        exact = dgit.cross_moments(self.EDGES, self.WINDOW, 0, 1)
        trap = dgit.cross_moments(self.EDGES, self.WINDOW, 0, 1, "trapezoid")
        assert np.max(np.abs(exact - trap)) <= 1e-15


class TestScalarSolves:
    def test_steady_state_preserved_without_side_conditions(self):
        spec = mc.dg(0)
        blk = scalar_block(spec, Interval(0.0, 0.3))
        coeffs, U = dgit.solve_substep(blk, [np.array([2.5])])
        assert U[0] == pytest.approx(2.5, abs=1e-14)
        assert coeffs.shape == (1, 1)
        assert coeffs[0, 0] == pytest.approx(2.5, abs=1e-14)

    def test_cn_closed_form(self):
        # trapezoidal update for u' = -u from 1: (1 - dt/2) / (1 + dt/2)
        blk = scalar_block(mc.crank_nicolson(), Interval(0.0, 0.1), L=1.0)
        coeffs, U = dgit.solve_substep(blk, [np.array([1.0])])
        assert U[0] == pytest.approx(19.0 / 21.0, abs=1e-14)
        assert poly_values(blk.interval, coeffs, 0.0)[0] == pytest.approx(1.0, abs=1e-14)
        assert poly_values(blk.interval, coeffs, 0.1)[0] == pytest.approx(19.0 / 21.0, abs=1e-14)

    def test_backward_euler_closed_form(self):
        blk = scalar_block(mc.backward_euler(), Interval(0.0, 0.1), L=1.0)
        _, U = dgit.solve_substep(blk, [np.array([1.0])])
        assert U[0] == pytest.approx(1.0 / 1.1, abs=1e-14)

    def test_cn_local_order_three(self):
        errs = []
        dts = [0.2 / 2**k for k in range(6)]
        for dt in dts:
            blk = scalar_block(mc.crank_nicolson(), Interval(0.0, dt), L=1.0)
            _, U = dgit.solve_substep(blk, [np.array([1.0])])
            errs.append(abs(U[0] - np.exp(-dt)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 2.8 < slope < 3.2

    def test_cn_energy_decay_spd(self):
        d = 4
        M = random_spd(d, 1)
        R = np.random.default_rng(2).standard_normal((d, d))
        L = sp.csr_matrix(R @ R.T + 0.1 * np.eye(d))
        blk = dgit.build_substep_block(M, L, mc.crank_nicolson(), Interval(0.0, 0.3))
        U0 = np.random.default_rng(3).standard_normal(d)
        _, U1 = dgit.solve_substep(blk, [U0])
        assert U1 @ (M @ U1) <= U0 @ (M @ U0) + 1e-12


class TestTrapezoidAgreement:
    def test_trapezoid_load_is_endpoint_average(self):
        spec = mc.crank_nicolson()
        iv = Interval(0.2, 0.4)
        load = lambda t: np.sin(t)[:, None]
        exact = dgit.load_moments(spec, iv, load, 1, quadrature="exact")
        trap = dgit.load_moments(spec, iv, load, 1, quadrature="trapezoid")
        expected = 0.5 * iv.length * (np.sin(0.2) + np.sin(0.4))
        assert trap[0] == pytest.approx(expected, abs=1e-15)
        # trapezoid differs from the exact integral at O(dt^3)
        assert trap[0] == pytest.approx(exact[0], abs=iv.length**3)


class TestPolynomialExactness:
    @pytest.mark.parametrize("name", sorted(mc.shipped_schemes()))
    def test_reproduces_polynomials_without_operator(self, name):
        spec = mc.shipped_schemes()[name]
        d = 3
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        M = random_spd(d, 5)
        iv = Interval(0.0, 0.25)
        want = rng.standard_normal((spec.q + 1, d))
        exact = lambda t: poly_values(iv, want, t)
        load = lambda t: (M @ _derivative(exact, iv, t).T).T
        blk = dgit.build_substep_block(M, None, spec, iv)
        history = [exact(iv.a - k * iv.length) for k in range(0, spec.k_s + 1)]
        coeffs, U = dgit.solve_substep(blk, history, load_fn=load)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(U - exact(iv.b))) < 1e-10 * scale
        assert np.max(np.abs(coeffs - want)) < 1e-10 * scale

    @pytest.mark.parametrize(
        "name", sorted(name for name, s in mc.shipped_schemes().items() if s.n_s > 0)
    )
    def test_side_conditions_satisfied(self, name):
        spec = mc.shipped_schemes()[name]
        d = 2
        M = random_spd(d, 8)
        L = random_spd(d, 9)
        blk = dgit.build_substep_block(M, L, spec, Interval(0.0, 0.2))
        rng = np.random.default_rng(10)
        hist = [rng.standard_normal(d) for _ in range(spec.k_s + 1)]
        coeffs, U = dgit.solve_substep(blk, hist, load_fn=lambda t: np.ones((len(t), d)))
        resid = dgit.side_condition_residual(spec, blk.interval, coeffs, [U] + hist)
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        assert resid < 1e-11 * scale


def _derivative(poly, interval, t):
    eps = 1e-6 * max(1.0, interval.length)
    # exact derivative via mode shifting is overkill here; central differences
    # on a polynomial of low order are exact to roundoff at this step size
    return (poly(t + eps) - poly(t - eps)) / (2 * eps)


class TestIntegrate:
    def test_exponential_decay(self):
        M = sp.csr_matrix(np.eye(1))
        L = sp.csr_matrix([[1.0]])
        coeffs, side = dgit.integrate(
            M, L, None, np.array([1.0]), mc.crank_nicolson(), np.linspace(0, 1, 257)
        )
        assert coeffs.shape == (256, 2, 1) and side.shape == (257, 1)
        assert side[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-5)

    def test_history_requirement_enforced(self):
        spec = SchemeSpec(
            q=1, n_s=2, k_s=2, thetas=(0.0, 1.0),
            D=[[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]], name="cn-reachback",
        )
        blk = scalar_block(spec, Interval(0.0, 0.1))
        with pytest.raises(ValueError, match="history"):
            dgit.solve_substep(blk, [np.array([1.0])])

    def test_side_node_before_step_start(self):
        # side-condition nodes may sit outside the step; the polynomial
        # extension makes the rows well defined
        spec = SchemeSpec(
            q=1, n_s=2, k_s=1, thetas=(-0.5, 1.0), D=[[0.0, 1.0], [1.0, 0.0]],
            name="reach-before",
        )
        blk = scalar_block(spec, Interval(0.0, 0.1), L=1.0)
        coeffs, U = dgit.solve_substep(blk, [np.array([1.0])])
        assert poly_values(blk.interval, coeffs, -0.05)[0] == pytest.approx(1.0, abs=1e-13)
        assert poly_values(blk.interval, coeffs, 0.1)[0] == pytest.approx(U[0], abs=1e-13)

    def test_dg2_beats_cn_accuracy(self):
        M = sp.csr_matrix(np.eye(1))
        L = sp.csr_matrix([[1.0]])
        grid = np.linspace(0, 1, 33)
        _, cn = dgit.integrate(M, L, None, np.array([1.0]), mc.crank_nicolson(), grid)
        _, dg2 = dgit.integrate(M, L, None, np.array([1.0]), mc.dg(2), grid)
        ref = np.exp(-1.0)
        assert abs(dg2[-1][0] - ref) < abs(cn[-1][0] - ref) / 50

    # k_s = 2: the left node is the mean of the new side value and the one
    # two steps back, so the first step reads history0
    MEAN_TWO_BACK = SchemeSpec(
        q=1, n_s=2, k_s=2, thetas=(0.0, 1.0),
        D=[[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]], name="mean-two-back",
    )

    @pytest.mark.parametrize("scheme", ["crank-nicolson", "dg2", "mean-two-back"])
    def test_equals_step_by_step_march(self, scheme, step_form):
        spec = self.MEAN_TWO_BACK if scheme == "mean-two-back" else mc.shipped_schemes()[scheme]
        d = 3
        M, L = random_spd(d, 11), random_spd(d, 12)
        load = lambda t: np.stack([np.sin(t), np.cos(2 * t), 1.0 + t], axis=-1)
        rng = np.random.default_rng(13)
        u0 = rng.standard_normal(d)
        history0 = [rng.standard_normal(d) for _ in range(spec.k_s - 1)]
        edges = np.linspace(0.0, 0.6, 13)
        coeffs, side = dgit.integrate(M, L, load, u0, spec, edges, history0=history0)
        # the march reuses the first step's block, as integrate does
        first = dgit.build_substep_block(M, L, spec, Interval(edges[0], edges[1]))
        history, steps, sides = [u0, *history0], [], [u0]
        for n in range(len(edges) - 1):
            blk = dataclasses.replace(first, interval=Interval(edges[n], edges[n + 1]))
            step, U = dgit.solve_substep(blk, history, load_fn=load)
            steps.append(step)
            sides.append(U)
            history = [U, *history][: max(spec.k_s, 1) + 1]
        steps, sides = np.array(steps), np.array(sides)
        assert np.array_equal(side[0], u0)
        if step_form == "sparse":  # solve_substep's own operations, bit for bit
            assert np.array_equal(coeffs, steps) and np.array_equal(side, sides)
        else:  # the dense propagator, within roundoff
            scale = float(np.max(np.abs(sides)))
            assert np.max(np.abs(side - sides)) <= 1e-12 * scale
            assert np.max(np.abs(coeffs - steps)) <= 1e-12 * scale

    def test_start_short_of_reach_is_rejected(self, step_form):
        # mean-two-back reads two side values; u0 alone is one, and the
        # march must not fill the other in
        M = sp.identity(2, format="csr")
        with pytest.raises(ValueError, match="reaches back 2 side values, history has 1"):
            dgit.integrate(
                M, M, None, np.ones(2), self.MEAN_TWO_BACK, np.linspace(0.0, 1.0, 5)
            )

    def test_size_rule_picks_the_step_form(self, monkeypatch):
        d = 4
        M, L = random_spd(d, 21), random_spd(d, 22)
        args = (M, L, lambda t: np.cos(t)[:, None] * np.arange(1.0, d + 1), np.ones(d))
        spec, edges = mc.continuous_galerkin(2), np.linspace(0.0, 1.0, 9)
        built = []
        dense_steps = dgit._dense_steps
        monkeypatch.setattr(dgit, "_dense_steps", lambda *a: built.append(a) or dense_steps(*a))
        entries = 2 * d * d  # n_own * reach * d: two own slabs, one side value back
        monkeypatch.setattr(dgit, "DENSE_PROPAGATOR_ENTRIES", entries)
        dense = dgit.integrate(*args, spec, edges)
        assert len(built) == 1
        monkeypatch.setattr(dgit, "DENSE_PROPAGATOR_ENTRIES", entries - 1)
        sparse = dgit.integrate(*args, spec, edges)
        assert len(built) == 1
        scale = float(np.max(np.abs(sparse[1])))
        assert np.max(np.abs(dense[1] - sparse[1])) <= 1e-12 * scale

    def test_rejects_non_uniform_grid(self):
        M = sp.csr_matrix(np.eye(1))
        edges = np.array([0.0, 0.1, 0.2, 0.35])
        with pytest.raises(ValueError, match="uniform"):
            dgit.integrate(M, M, None, np.array([1.0]), mc.crank_nicolson(), edges)
        # a last-bit difference, as linspace makes, is uniform
        edges = np.linspace(0.0, 0.3, 4)
        edges[2] += 1e-17
        dgit.integrate(M, M, None, np.array([1.0]), mc.crank_nicolson(), edges)


class TestBatchedIntegrate:
    # a load is evaluated at all quadrature times of a chunk of steps in one
    # call; fespace._per_time adapts a per-time callable t -> (d,) to that form
    @pytest.mark.parametrize("scheme", ["crank-nicolson", "cg2"])
    def test_batched_load_matches_per_time(self, smooth_ops, scheme):
        Mc, Lc, load, _ = mc.coupled_system(smooth_ops)
        u0 = np.concatenate(smooth_ops.u0)
        # more than two chunks, the last one partial; a step adds its K
        # factor values and (test_order + 1) K factor moments, its data
        # terms and its slots
        spec = mc.shipped_schemes()[scheme]
        d, K, own = Mc.shape[0], load.count(Mc.shape[0]), spec.test_order + 1
        chunk = max(1, dgit.LOAD_BATCH_VALUES // (dgit.LOAD_QUAD_PTS * K + own * (K + 2 * d)))
        edges = np.linspace(0.0, 0.5, 2 * chunk + 4)
        batched = dgit.integrate(Mc, Lc, load, u0, spec, edges)
        per_time = dgit.integrate(Mc, Lc, _per_time(lambda t: load(t)), u0, spec, edges)
        scale = float(np.max(np.abs(per_time[1])))
        assert np.max(np.abs(batched[1] - per_time[1])) <= 1e-12 * scale
        assert np.max(np.abs(batched[0] - per_time[0])) <= 1e-12 * scale

    def test_chunk_counts_the_values_a_step_adds(self, monkeypatch, step_form):
        # a plain load of d = 2 values a time has K = d factors; a
        # crank-nicolson step adds their values at its npts Gauss points,
        # their one moment, and its d data terms and d slots
        d, npts = 2, 3
        per_step = d * npts + d + 2 * d
        sizes = []

        def load(t):
            sizes.append(len(t))
            return np.stack([np.cos(t), np.sin(3.0 * t)], axis=-1)

        M = sp.identity(d, format="csr")
        args = (M, 2.0 * M, load, np.ones(d), mc.crank_nicolson(), np.linspace(0.0, 1.0, 14))
        default = dgit.integrate(*args, load_npts=npts)
        assert sizes == [13 * npts]  # one chunk of 13 steps
        monkeypatch.setattr(dgit, "LOAD_BATCH_VALUES", 6 * per_step)
        sizes.clear()
        chunked = dgit.integrate(*args, load_npts=npts)
        assert sizes == [n * npts for n in (6, 6, 1)]
        for a, b in zip(default, chunked):
            assert np.array_equal(a, b)

    def test_chunking_changes_no_bit_of_a_larger_system(self, monkeypatch, step_form):
        # from about 6 unknowns a step, a BLAS product of a chunk's rows as
        # one matrix gives a row other bits than that row on its own
        d = 8
        M, L = random_spd(d, 31), random_spd(d, 32)
        load = lambda t: np.cos(np.outer(t, np.arange(1.0, d + 1)))
        args = (M, L, load, np.ones(d), mc.crank_nicolson(), np.linspace(0.0, 1.0, 14))
        default = dgit.integrate(*args)
        monkeypatch.setattr(dgit, "LOAD_BATCH_VALUES", d * dgit.LOAD_QUAD_PTS)
        chunked = dgit.integrate(*args)  # one step a chunk
        for a, b in zip(default, chunked):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_scalar_valued_per_time_load(self, quadrature):
        iv = Interval(0.0, 0.1)
        got = dgit.load_moments(
            mc.crank_nicolson(), iv, _per_time(np.sin), 1, quadrature=quadrature
        )
        want = dgit.load_moments(
            mc.crank_nicolson(), iv, lambda t: np.sin(t)[:, None], 1, quadrature=quadrature
        )
        assert np.array_equal(got, want) and got[-1] > 0

    def test_load_moments_batched_and_per_time_agree(self, smooth_ops):
        _, _, load, _ = mc.coupled_system(smooth_ops)
        d = sum(smooth_ops.d_omega)
        iv = Interval(0.2, 0.3)
        for quadrature in ("exact", "trapezoid"):
            a = dgit.load_moments(mc.dg(2), iv, load, d, quadrature=quadrature)
            per_time = _per_time(lambda t: load(t))
            b = dgit.load_moments(mc.dg(2), iv, per_time, d, quadrature=quadrature)
            assert a.shape == ((2 + 2) * d,)
            assert np.max(np.abs(a - b)) <= 1e-13 * float(np.max(np.abs(b)))


    @pytest.mark.parametrize("scheme", ["crank-nicolson", "dg1", "cg2", "dg2"])
    def test_coupled_load_chunking_changes_no_bit(self, smooth_ops, scheme, monkeypatch, step_form):
        # the coupled MMS load in chunks of every size from one step to all
        # of them: the batched row products give every step the same bits
        Mc, Lc, load, _ = mc.coupled_system(smooth_ops)
        spec = mc.shipped_schemes()[scheme]
        args = (Mc, Lc, load, np.concatenate(smooth_ops.u0), spec)
        edges = np.linspace(0.0, 0.3, 12)
        whole = dgit.integrate(*args, edges)
        d, K, own = Mc.shape[0], load.count(Mc.shape[0]), spec.test_order + 1
        per_step = dgit.LOAD_QUAD_PTS * K + own * (K + 2 * d)
        for budget in (1, 2 * per_step, 5 * per_step):  # chunks of 1, 2 and 5 steps
            monkeypatch.setattr(dgit, "LOAD_BATCH_VALUES", budget)
            chunked = dgit.integrate(*args, edges)
            for a, b in zip(whole, chunked):
                assert np.array_equal(a, b), budget


class TestChunkMoments:
    # the window's data rows take a run of substeps in one load call, in
    # either quadrature; integrate takes its chunks in exact quadrature only
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme", sorted(mc.shipped_schemes()))
    def test_rows_are_the_steps_alone_from_one_load_call(self, scheme, quadrature):
        spec = mc.shipped_schemes()[scheme]
        d, npts = 2, dgit.LOAD_QUAD_PTS
        edges = np.linspace(0.1, 0.7, 7)
        sizes = []

        def load(t):
            sizes.append(len(t))
            return np.stack([np.sin(3.0 * t), np.exp(-t)], axis=-1)

        rows = dgit._chunk_moments(spec, edges, load, d, quadrature, npts)
        # the edges, shared by neighbouring steps (trapezoid), or every step's Gauss points
        assert sizes == [len(edges) if quadrature == "trapezoid" else (len(edges) - 1) * npts]
        assert rows.shape == (len(edges) - 1, (spec.test_order + 1) * d)
        for n, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            alone = dgit.load_moments(spec, Interval(a, b), load, d, quadrature=quadrature)
            assert np.array_equal(rows[n], alone), n
