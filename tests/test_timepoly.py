import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrcouple as mc
from mrcouple.timepoly import (
    Interval,
    SchemeError,
    SchemeSpec,
    TimePoly,
    build_dtilde,
    derivative_overlap,
    gauss_on,
    j_norm,
    legendre_table,
    points_for_degree,
)


def dense_ls_projection(f, interval, k, n_total=10_000, pieces=None):
    """Weighted least-squares oracle: normal equations on dense Gauss samples.

    Sampling piecewise (at Gauss points of each piece, with weights) makes
    the discrete normal equations reproduce the continuous projection
    exactly for piecewise-polynomial inputs.
    """
    pieces = pieces or [interval]
    x10, w10 = np.polynomial.legendre.leggauss(10)
    panels = max(1, n_total // (10 * len(pieces)))
    ts, ws = [], []
    for piece in pieces:
        edges = np.linspace(piece.a, piece.b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        ts.append((mid[:, None] + half[:, None] * x10[None, :]).ravel())
        ws.append((half[:, None] * w10[None, :]).ravel())
    t = np.concatenate(ts)
    w = np.concatenate(ws)
    V = legendre_table(k, interval.to_reference(t)).T  # (npts, k+1)
    vals = np.asarray(f(t), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    G = V.T @ (w[:, None] * V)
    rhs = V.T @ (w[:, None] * vals)
    return np.linalg.solve(G, rhs)


class TestLegendre:
    def test_mode_zero_is_one(self):
        assert mc.legendre_eval(0, 0.3) == 1.0

    def test_mode_one_is_identity(self):
        assert mc.legendre_eval(1, -1.0) == -1.0

    def test_quadratic_value(self):
        # (3 x^2 - 1) / 2 at x = 0.5
        assert mc.legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_against_numpy_series(self):
        xs = np.linspace(-1, 1, 33)
        for j in range(9):
            ref = np.polynomial.legendre.legval(xs, [0.0] * j + [1.0])
            assert np.max(np.abs(mc.legendre_eval(j, xs) - ref)) < 1e-13

    def test_table_matches_single_eval(self):
        xs = np.linspace(-1, 1, 7)
        tab = legendre_table(5, xs)
        for j in range(6):
            assert np.allclose(tab[j], mc.legendre_eval(j, xs))

    def test_negative_mode_rejected(self):
        with pytest.raises(ValueError):
            mc.legendre_eval(-1, 0.0)


class TestGauss:
    def test_midpoint(self):
        x, w = mc.gauss_rule(1)
        assert np.allclose(x, [0.0]) and np.allclose(w, [2.0])

    def test_two_point(self):
        x, w = mc.gauss_rule(2)
        assert np.allclose(np.sort(x), [-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert np.allclose(w, [1.0, 1.0])

    def test_quartic_with_three_points(self):
        x, w = mc.gauss_rule(3)
        assert float(w @ x**4) == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_exactness_degree(self, n):
        x, w = mc.gauss_rule(n)
        for k in range(0, 2 * n, 2):
            assert float(w @ x**k) == pytest.approx(2.0 / (k + 1), rel=1e-13)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            mc.gauss_rule(0)

    def test_rule_is_cached_and_read_only(self):
        x, w = mc.gauss_rule(7)
        x2, w2 = mc.gauss_rule(7)
        assert x is x2 and w is w2
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        t, wt = gauss_on(Interval(1.0, 3.0), 7)
        assert np.allclose(t, 2.0 + x) and np.allclose(wt, w)


class TestInterval:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0 + 1e-16)

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_reference_round_trip(self):
        iv = Interval(0.3, 1.7)
        ts = np.linspace(0.3, 1.7, 9)
        assert np.allclose(iv.from_reference(iv.to_reference(ts)), ts)


class TestProjectL2:
    def test_mean_of_linear(self):
        p = mc.project_l2(lambda t: t, Interval(0.0, 1.0), 0)
        assert p.coeffs[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_reproduces_quadratic(self):
        iv = Interval(0.0, 1.0)
        p = mc.project_l2(lambda t: t**2, iv, 2)
        ts = np.linspace(0, 1, 11)
        assert np.max(np.abs(p(ts)[:, 0] - ts**2)) < 1e-13

    def test_indicator_matches_gram_solve(self):
        iv = Interval(0.0, 1.0)
        f = lambda t: np.where(np.asarray(t) < 0.5, 1.0, 0.0)
        halves = [Interval(0.0, 0.5), Interval(0.5, 1.0)]
        oracle = dense_ls_projection(f, iv, 1, pieces=halves)
        # analytic solve of the 2x2 normal equations: p(t) = 5/4 - 3/2 t
        assert oracle[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert oracle[1, 0] == pytest.approx(-0.75, abs=1e-12)
        pieces = [TimePoly(halves[0], [[1.0]]), TimePoly(halves[1], [[0.0]])]
        p = mc.project_l2_broken(pieces, 1)
        assert np.max(np.abs(p.coeffs - oracle)) < 1e-12

    def test_vector_valued(self):
        iv = Interval(-1.0, 3.0)
        p = mc.project_l2(lambda t: np.array([t, t**2]), iv, 2)
        ts = np.linspace(-1, 3, 7)
        vals = p(ts)
        assert np.max(np.abs(vals[:, 0] - ts)) < 1e-12
        assert np.max(np.abs(vals[:, 1] - ts**2)) < 1e-11

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_ls_oracle_smooth(self, seed):
        rng = np.random.default_rng(seed)
        a, b = sorted(rng.uniform(-2, 2, 2))
        iv = Interval(float(a), float(b) + 0.5)
        c = rng.standard_normal(3)
        f = lambda t: c[0] * np.exp(-t) + c[1] * t**3 + c[2]
        k = int(rng.integers(0, 4))
        p = mc.project_l2(f, iv, k)
        oracle = dense_ls_projection(f, iv, k, n_total=4000)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(p.coeffs - oracle)) < 1e-10 * scale


class TestProjectBroken:
    def test_single_piece_identity(self):
        piece = TimePoly(Interval(0.0, 2.0), [[1.0], [0.5], [-0.2]])
        p = mc.project_l2_broken([piece], 2)
        assert np.allclose(p.coeffs, piece.coeffs, atol=1e-14)

    def test_two_constants_average(self):
        pieces = [TimePoly(Interval(0.0, 0.5), [[2.0]]), TimePoly(Interval(0.5, 1.0), [[4.0]])]
        p = mc.project_l2_broken(pieces, 0)
        assert p.coeffs[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_two_linears_match_ls_oracle(self):
        rng = np.random.default_rng(3)
        pieces = [
            TimePoly(Interval(0.0, 0.4), rng.standard_normal((2, 1))),
            TimePoly(Interval(0.4, 1.0), rng.standard_normal((2, 1))),
        ]
        p = mc.project_l2_broken(pieces, 1)

        def f(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return np.where(t[:, None] < 0.4, pieces[0](t), pieces[1](t))

        oracle = dense_ls_projection(
            f, Interval(0.0, 1.0), 1, pieces=[q.interval for q in pieces]
        )
        assert np.max(np.abs(p.coeffs - oracle)) < 1e-12

    def test_gap_rejected(self):
        pieces = [TimePoly(Interval(0.0, 0.4), [[1.0]]), TimePoly(Interval(0.5, 1.0), [[1.0]])]
        with pytest.raises(ValueError):
            mc.project_l2_broken(pieces, 0)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    k=st.integers(0, 5),
)
def test_projection_idempotent(coeffs, k):
    poly = TimePoly(Interval(0.0, 1.0), np.asarray(coeffs)[:, None])
    once = mc.project_l2(poly, poly.interval, k)
    twice = mc.project_l2(once, poly.interval, k)
    scale = max(1.0, np.max(np.abs(once.coeffs)))
    assert np.max(np.abs(twice.coeffs - once.padded(k).coeffs)) < 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=4, max_size=7),
    k=st.integers(0, 2),
)
def test_projection_orthogonality(coeffs, k):
    iv = Interval(0.5, 2.0)
    poly = TimePoly(iv, np.asarray(coeffs)[:, None])
    p = mc.project_l2(poly, iv, k)
    resid = poly - p.padded(poly.order)
    t, w = gauss_on(iv, points_for_degree(2 * poly.order))
    tab = legendre_table(k, iv.to_reference(t))
    scale = max(1.0, float(np.max(np.abs(poly.coeffs))))
    for j in range(k + 1):
        moment = float((w * tab[j]) @ resid(t)[:, 0])
        assert abs(moment) < 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(
    shift=st.floats(-3, 3),
    scale=st.floats(0.1, 4.0),
    coeffs=st.lists(st.floats(-3, 3), min_size=3, max_size=5),
)
def test_projection_affine_invariance(shift, scale, coeffs):
    k = 1
    base = Interval(-1.0, 1.0)
    mapped = Interval(shift - scale, shift + scale)
    poly_ref = TimePoly(base, np.asarray(coeffs)[:, None])
    poly_map = TimePoly(mapped, np.asarray(coeffs)[:, None])
    p_ref = mc.project_l2(poly_ref, base, k)
    p_map = mc.project_l2(poly_map, mapped, k)
    # modal coefficients are affine invariants of the projection
    tol = 1e-11 * max(1.0, np.max(np.abs(coeffs)))
    assert np.max(np.abs(p_ref.coeffs - p_map.coeffs)) < tol


class TestDtilde:
    def test_crank_nicolson_table(self):
        rep = build_dtilde(mc.crank_nicolson())
        assert np.allclose(rep.matrix, [[1.0, -1.0], [1.0, 1.0]])
        assert rep.determinant == pytest.approx(2.0, abs=1e-14)
        assert rep.nonsingular

    def test_single_endpoint(self):
        rep = build_dtilde(SchemeSpec(q=1, n_s=1, k_s=0, thetas=(1.0,), D=[[1.0]]))
        assert np.allclose(rep.matrix, [[1.0]])
        assert rep.determinant == pytest.approx(1.0)

    def test_repeated_nodes_singular(self):
        spec = SchemeSpec(
            q=2, n_s=2, k_s=1, thetas=(0.5, 0.5), D=[[0.0, 1.0], [1.0, 0.0]],
            unsafe_diagnostic=True,
        )
        rep = build_dtilde(spec)
        assert not rep.nonsingular
        assert rep.determinant == pytest.approx(0.0, abs=1e-14)

    def test_no_side_conditions_trivially_nonsingular(self):
        rep = build_dtilde(mc.dg(2))
        assert rep.nonsingular and rep.matrix.shape == (0, 0)

    def test_singular_spec_rejected_without_diagnostic_mode(self):
        with pytest.raises(SchemeError, match="side-condition"):
            SchemeSpec(q=2, n_s=2, k_s=1, thetas=(0.5, 0.5), D=[[0.0, 1.0], [1.0, 0.0]])

    def test_reconstruction_refused_on_singular_spec(self):
        spec = SchemeSpec(
            q=2, n_s=2, k_s=1, thetas=(0.5, 0.5), D=[[0.0, 1.0], [1.0, 0.0]],
            unsafe_diagnostic=True,
        )
        with pytest.raises(SchemeError):
            mc.j_reconstruct(None, [np.zeros(1), np.zeros(1)], spec, Interval(0, 1))


class TestSchemeValidation:
    def test_bad_theta_order(self):
        with pytest.raises(SchemeError, match="strictly increasing"):
            SchemeSpec(q=1, n_s=2, k_s=1, thetas=(1.0, 0.0), D=[[0.0, 1.0], [1.0, 0.0]])

    def test_theta_above_one(self):
        with pytest.raises(SchemeError, match="exceed"):
            SchemeSpec(q=1, n_s=2, k_s=1, thetas=(0.0, 1.5), D=[[0.0, 1.0], [1.0, 0.0]])

    def test_wrong_d_shape(self):
        with pytest.raises(SchemeError, match="shape"):
            SchemeSpec(q=1, n_s=2, k_s=1, thetas=(0.0, 1.0), D=[[1.0, 0.0]])

    def test_negative_theta_allowed(self):
        spec = SchemeSpec(q=1, n_s=2, k_s=1, thetas=(-0.5, 1.0), D=[[0.0, 1.0], [1.0, 0.0]])
        assert spec.dtilde.nonsingular

    def test_ns_beyond_q_plus_one(self):
        with pytest.raises(SchemeError):
            SchemeSpec(q=0, n_s=2, k_s=1, thetas=(0.0, 1.0), D=[[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "thetas, D",
        [((1.0,), [[float("nan")]]), ((1.0,), [[float("inf")]]), ((float("nan"),), [[1.0]])],
    )
    def test_non_finite_nodes_or_table_rejected(self, thetas, D):
        # a NaN in D once constructed and failed only at the first solve
        with pytest.raises(SchemeError, match="must be finite"):
            SchemeSpec(q=1, n_s=1, k_s=0, thetas=thetas, D=D)


class TestJMapping:
    @pytest.mark.parametrize("name", sorted(mc.shipped_schemes()))
    def test_round_trip_identity(self, name):
        spec = mc.shipped_schemes()[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        iv = Interval(0.25, 0.75)
        for _ in range(100):
            poly = TimePoly(iv, rng.standard_normal((spec.q + 1, 3)))
            proj, samples = mc.j_decompose(poly, spec)
            back = mc.j_reconstruct(proj, samples, spec, iv)
            scale = max(1.0, np.max(np.abs(poly.coeffs)))
            assert np.max(np.abs(back.coeffs - poly.coeffs)) < 1e-11 * scale

    def test_cn_reconstruction_is_interpolant(self):
        spec = mc.crank_nicolson()
        iv = Interval(0.0, 0.2)
        U0, U1 = np.array([2.0]), np.array([3.0])
        poly = mc.j_reconstruct(None, [U0, U1], spec, iv)
        assert poly(0.0)[0] == pytest.approx(2.0, abs=1e-13)
        assert poly(0.2)[0] == pytest.approx(3.0, abs=1e-13)
        assert poly(0.1)[0] == pytest.approx(2.5, abs=1e-13)

    def test_wrong_order_rejected(self):
        spec = mc.crank_nicolson()
        with pytest.raises(ValueError):
            mc.j_decompose(TimePoly(Interval(0, 1), np.zeros((3, 1))), spec)

    def test_norm_equivalence(self):
        spec = mc.downwind(2)
        rng = np.random.default_rng(11)
        for dt in (1.0, 0.01):
            iv = Interval(0.0, dt)
            ratios = []
            for _ in range(100):
                poly = TimePoly(iv, rng.standard_normal((spec.q + 1, 2)))
                proj, samples = mc.j_decompose(poly, spec)
                ratios.append(
                    j_norm(proj, samples, dt) / math.sqrt(poly.l2_norm_sq())
                )
            ratios = np.asarray(ratios)
            # bounded above and below, uniformly in the interval length
            assert 0.3 < ratios.min() and ratios.max() < 4.0

    def test_weighted_vs_unweighted_norm(self):
        spec = mc.crank_nicolson()
        iv = Interval(0.0, 0.5)
        poly = TimePoly(iv, np.array([[1.0], [0.5]]))
        proj, samples = mc.j_decompose(poly, spec)
        w = j_norm(proj, samples, iv.length, weighted=True)
        u = j_norm(proj, samples, iv.length, weighted=False)
        assert u > w  # dt < 1 shrinks the sample part


class TestTimePoly:
    def test_addition_requires_matching_interval(self):
        a = TimePoly(Interval(0, 1), [[1.0]])
        b = TimePoly(Interval(0, 2), [[1.0]])
        with pytest.raises(ValueError):
            a + b

    def test_evaluation_outside_interval_extends(self):
        p = TimePoly(Interval(0.0, 1.0), [[0.5], [0.5]])  # t on (0,1)
        assert p(2.0)[0] == pytest.approx(2.0, abs=1e-14)

    def test_l2_norm_modal(self):
        p = TimePoly(Interval(0.0, 2.0), [[3.0], [1.0]])
        # 2 * (9/1 + 1/3)
        assert p.l2_norm_sq() == pytest.approx(2 * (9 + 1 / 3), rel=1e-14)

    def test_derivative_overlap_table(self):
        G = derivative_overlap(3, 3)
        expected = np.zeros((4, 4))
        for j in range(4):
            for m in range(4):
                if m > j and (m - j) % 2 == 1:
                    expected[j, m] = 2.0
        assert np.array_equal(G, expected)
