import collections
import dataclasses
import io
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import mrcouple as mc
from mrcouple import cli, coupling, dgit, verify
from mrcouple.timepoly import Interval, gauss_on, legendre_table

from test_timepoly import poly_values

ADVECTIONS = {
    "zero": mc.AdvectionSpec(),
    "constant": mc.AdvectionSpec("constant", sx=0.6),
    "vortex": mc.AdvectionSpec("vortex", amplitude=0.8),
}


# The presets as symbolic factors a_1, a_2 and b (u_i = a_i b), written out
# independently of verify.MMS_PRESETS.
SYMBOLIC_FORMS = {
    "smooth": ("sin(pi*x)*(1 - y)*(1 + y/2)", "sin(pi*x)*(1 + y)*(1 - y/2)", "exp(-t)"),
    "antisym": ("sin(pi*x)*(1 - y)*(y + 1/2)", "-sin(pi*x)*(1 + y)*(1/2 - y)", "exp(-t)"),
    "polyt": ("sin(pi*x)*(1 - y)*(1 + y/2)", "sin(pi*x)*(1 + y)*(1 - y/2)", "1 + t/2"),
}


def symbolic_pieces(name, nu, B, adv, i):
    """Every factor of subdomain i's forcings, and u_i, derived with sympy."""
    sympy = pytest.importorskip("sympy")
    x, y, t = sympy.symbols("x y t", real=True)
    *a, b = (sympy.sympify(s, locals={"x": x, "y": y, "t": t}) for s in SYMBOLIC_FORMS[name])
    if adv.kind == "vortex":  # curl of the streamfunction
        psi = adv.amplitude * x * (1 - x) * y * ((1 - y) if i == 0 else (1 + y))
        s = (sympy.diff(psi, y), -sympy.diff(psi, x))
    else:
        s = (adv.sx if adv.kind == "constant" else 0, 0)
    flux_div = sum(
        sympy.diff(nu[i] * sympy.diff(a[i], v) - s_v * a[i], v) for v, s_v in zip((x, y), s)
    )
    normal = (-1, 1)[i]
    g = (B[i, 0] * a[0] + B[i, 1] * a[1] + nu[i] * normal * sympy.diff(a[i], y)).subs(y, 0)
    u = a[i] * b
    return {
        "a": sympy.lambdify((x, y), a[i]),
        "op": sympy.lambdify((x, y), -flux_div),
        "g": sympy.lambdify((x,), g),
        "b": sympy.lambdify((t,), b),
        "db": sympy.lambdify((t,), sympy.diff(b, t)),
        "u": sympy.lambdify((x, y, t), u),
    }


class TestManufactured:
    def test_interface_data_consistency(self, smooth_case):
        # derived g satisfies the flux condition: check one rearrangement
        # numerically via finite differences of the exact solution
        x, t = 0.37, 0.41
        eps = 1e-6
        u1 = smooth_case.exact[0]
        du1dy = (u1(x, eps, t) - u1(x, -eps, t)) / (2 * eps)
        B = smooth_case.problem.B
        lhs = 1.0 * (-1.0) * du1dy  # nu_1 * n_1 . grad u1
        rhs = (
            B[0, 0] * u1(x, 0.0, t)
            + B[0, 1] * smooth_case.exact[1](x, 0.0, t)
            - smooth_case.problem.g[0](x, t)
        )
        assert lhs == pytest.approx(-rhs, abs=1e-6)

    @pytest.mark.parametrize("name", ["smooth", "antisym", "polyt"])
    def test_interface_data_satisfies_flux_condition(self, name):
        case = mc.mms_case(name, nu=(0.7, 1.3))
        B, nu, u = case.problem.B, (0.7, 1.3), case.exact
        x, t, eps = np.array([0.13, 0.37, 0.81]), 0.41, 1e-6
        for i, normal in enumerate((-1.0, 1.0)):
            dudy = (u[i](x, eps, t) - u[i](x, -eps, t)) / (2 * eps)
            expected = B[i, 0] * u[0](x, 0.0, t) + B[i, 1] * u[1](x, 0.0, t) + nu[i] * normal * dudy
            assert np.allclose(case.problem.g[i](x, t), expected, rtol=0, atol=1e-8)

    # (nu, B): a general coupling, and mms_case's default B at the
    # viscosities of the smooth_case fixture
    MODELS = {
        "general": ((0.7, 1.3), np.array([[1.3, -0.7], [-0.2, 0.9]])),
        "default": ((1.0, 0.5), None),
    }

    @pytest.mark.parametrize("name", sorted(SYMBOLIC_FORMS))
    @pytest.mark.parametrize("kind", sorted(ADVECTIONS))
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_closed_forms_match_symbolic_derivation(self, name, kind, model):
        (nu, B), adv = self.MODELS[model], ADVECTIONS[kind]
        case = mc.mms_case(name, nu=nu, B=B, advection=(adv, adv))
        B = case.problem.B
        rng = np.random.default_rng(3)
        x, t = rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 2.0, 40)
        for i in range(2):
            y = rng.uniform(0.0, 1.0, 40) * (1.0 if i == 0 else -1.0)
            sym = symbolic_pieces(name, nu, B, adv, i)
            (a, db), (op, b) = case.problem.f[i].terms
            ((g_space, g_time),) = case.problem.g[i].terms
            pairs = [
                (a(x, y), sym["a"](x, y)),
                (db(t), sym["db"](t)),
                (op(x, y), sym["op"](x, y)),
                (b(t), sym["b"](t)),
                (g_space(x), sym["g"](x)),
                (g_time(t), sym["b"](t)),
                (case.exact[i](x, y, t), sym["u"](x, y, t)),
                (case.problem.u0[i](x, y), sym["u"](x, y, 0.0)),
            ]
            for actual, expected in pairs:
                assert np.shape(actual) == (40,)
                np.testing.assert_allclose(actual, np.broadcast_to(expected, (40,)), rtol=1e-13)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown manufactured"):
            mc.mms_case("nope")

    def test_antisym_pair_is_mirror_negative(self):
        case = mc.mms_case("antisym")
        xs = np.linspace(0.1, 0.9, 5)
        ys = np.linspace(0.1, 0.9, 5)
        for t in (0.0, 0.5):
            v1 = case.exact[0](xs, ys, t)
            v2 = case.exact[1](xs, -ys, t)
            assert np.allclose(v1, -v2, atol=1e-13)


class TestReferenceSolve:
    def test_steady_problem_constant_oracle(self):
        # L u* = load with u0 = u* keeps the coupled solution steady
        B = np.zeros((2, 2))
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], [[1.0]], [[1.0]], [[4.0]], [[1.0]], [[1.0]], B,
            load_f=(lambda t: np.array([2.0 * 3.0]), lambda t: np.array([4.0 * 0.5])),
            u0=(np.array([3.0]), np.array([0.5])),
        )
        oracle = mc.reference_solve(ops, 1.0, n_steps=128)
        for t in (0.0, 0.33, 1.0):
            v1, v2 = oracle.states([t])[0]
            assert v1 == pytest.approx(3.0, abs=1e-12)
            assert v2 == pytest.approx(0.5, abs=1e-12)

    def test_exponential_decay_accuracy(self):
        ops = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], np.zeros((2, 2)),
            u0=(np.array([1.0]), np.array([1.0])),
        )
        oracle = mc.reference_solve(ops, 1.0)
        v1, _ = oracle.states([1.0])[0]
        assert v1 == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_self_convergence_on_halving(self, smooth_ops):
        coarse = mc.reference_solve(smooth_ops, 0.5, n_steps=1024)
        fine = mc.reference_solve(smooth_ops, 0.5, n_steps=2048)
        ts = np.linspace(0.05, 0.5, 7)
        drift = np.max(np.abs(coarse.states(ts) - fine.states(ts)))
        assert drift < 1e-7

    def test_step_count(self, toy_linear_ops):
        assert verify.oracle_step_count(0.25) == 1024
        assert verify.oracle_step_count(0.25, scheme="dg2") == 128
        assert verify.oracle_step_count(0.001) == 64
        assert verify.oracle_step_count(0.25, 10, "dg2") == 10
        with pytest.raises(ValueError, match="unknown reference scheme"):
            verify.oracle_step_count(1.0, scheme="rk4")
        cn = mc.reference_solve(toy_linear_ops, 0.25)
        assert cn.free.shape == (1024, 0, 2) and cn.sides.shape == (1025, 2)
        assert cn.coeffs(np.arange(1024)).shape == (1024, 2, 2)
        dg2 = mc.reference_solve(toy_linear_ops, 0.25, scheme="dg2")
        assert dg2.free.shape == (128, 3, 2) and dg2.sides.shape == (129, 2)
        assert dg2.coeffs(np.arange(128)).shape == (128, 3, 2)

    def test_unknown_scheme(self, smooth_ops):
        with pytest.raises(ValueError):
            mc.reference_solve(smooth_ops, 1.0, scheme="rk4")

    def test_flux_query_includes_interface_data(self, smooth_ops):
        oracle = mc.reference_solve(smooth_ops, 0.25, n_steps=256)
        F1 = oracle.fluxes(0, [0.1])[0]
        F2 = oracle.fluxes(1, [0.1])[0]
        assert F1.shape == (smooth_ops.d_gamma,)
        assert np.all(np.isfinite(F1)) and np.all(np.isfinite(F2))


@pytest.fixture(scope="module")
def run_and_oracle(toy_linear_ops):
    cfg = mc.WindowConfig(t_f=0.5, N=5, M=(1, 2), r=(1, 1))
    traj = mc.run_simulation(toy_linear_ops, mc.crank_nicolson(), cfg, quadrature="exact")
    oracle = mc.reference_solve(toy_linear_ops, 0.5, n_steps=512)
    return traj, oracle


def counting_loads(ops):
    """ops with load_f replaced by loads that count the calls of their factors, and the counts."""
    calls = [0, 0]

    def wrap(i, load):
        def factors(t):
            calls[i] += 1
            return load.factors(t)

        return dgit.Load(factors, load.vectors)

    load_f = tuple(wrap(i, fn) for i, fn in enumerate(ops.load_f))
    return dataclasses.replace(ops, load_f=load_f), calls


class TestBatchedLoadCalls:
    def test_reference_solve_calls_load_once_per_chunk(self, smooth_ops):
        ops, calls = counting_loads(smooth_ops)
        n_steps = 256
        # the coupled load's K = 6 factors (two body-force terms and one
        # interface-data term a side): a crank-nicolson step adds their values
        # at 4 Gauss points, their one moment, and d data terms and d slots
        d, K = sum(ops.d_omega), 6
        chunk = max(1, dgit.LOAD_BATCH_VALUES // (4 * K + K + 2 * d))
        verify.reference_solve(ops, 0.25, n_steps)
        assert chunk < n_steps
        assert 1 <= max(calls) <= math.ceil(n_steps / chunk) + 1
        assert calls[0] == calls[1]


def counting_factors(spec, counts):
    """spec with each Separable factor wrapped to count its calls in counts.

    Keys are (space|time, f|g, subdomain, term).
    """

    def count(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    def wrap(kind, i, sep):
        return mc.Separable(
            tuple(
                (count(("space", kind, i, k), a), count(("time", kind, i, k), b))
                for k, (a, b) in enumerate(sep.terms)
            )
        )

    return dataclasses.replace(
        spec,
        f=tuple(wrap("f", i, fn) for i, fn in enumerate(spec.f)),
        g=tuple(wrap("g", i, fn) for i, fn in enumerate(spec.g)),
    )


class TestSeparableFastPath:
    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    def test_spatial_factors_evaluated_only_at_assembly(self, mesh_pair, smooth_case, quadrature):
        counts = collections.Counter()
        spec = counting_factors(smooth_case.problem, counts)
        ops = mc.assemble(*mesh_pair, spec)
        # building the spec and the operators evaluates each spatial factor once, nothing else
        space = sorted(k for k in counts if k[0] == "space")
        assert len(space) == 6 and dict(counts) == dict.fromkeys(space, 1)
        time_keys = [("time",) + k[1:] for k in space]

        # the conservation flag reads the assembled interface vectors: g's time factors, once
        counts.clear()
        assert not ops.conservation_compatible
        assert dict(counts) == {k: 1 for k in time_keys if k[1] == "g"}

        counts.clear()
        cfg = mc.WindowConfig(t_f=0.2, N=2, M=(2, 3), r=(1, 1))
        op = coupling.WindowOperator(ops, mc.crank_nicolson(), cfg, quadrature=quadrature)
        sol = op.solve(tuple(v[None] for v in ops.u0), 2)
        assert sol.residual < coupling.RESIDUAL_TOL
        assert dict(counts) == dict.fromkeys(time_keys, 1)

        counts.clear()
        verify.reference_solve(ops, 0.25, 256)
        assert set(counts) == set(time_keys)
        assert len(set(counts.values())) == 1


class TestReferenceQueries:
    TIMES = np.array([-0.01, 0.0, 0.003, 1 / 64, 0.1, 0.17, 0.25, 0.3])

    @pytest.fixture(scope="class")
    def oracle(self, smooth_ops):
        return mc.reference_solve(smooth_ops, 0.25, n_steps=64)

    def test_states_match_piecewise_polynomials(self, oracle):
        b = oracle.boundaries
        got = oracle.states(self.TIMES)
        for k, t in enumerate(self.TIMES):
            n = min(max(int(np.searchsorted(b, t, side="right")) - 1, 0), len(b) - 2)
            want = poly_values(Interval(b[n], b[n + 1]), oracle.coeffs([n])[0], t)
            assert np.array_equal(got[k], oracle.states([t])[0])
            assert np.allclose(got[k], want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    @staticmethod
    def eager_states(oracle, ts):
        """The states as an oracle holding every step's coefficients gives them.

        The coefficients of all steps, from the march's free modes and side
        values through the scheme's state map (reach 1), then the
        evaluation of the queried steps' polynomials.
        """
        S, own = oracle.scheme.state_map, oracle.scheme.test_order + 1
        slots = np.concatenate((oracle.free, oracle.sides[1:, None]), axis=1)
        coeffs = S[:, :own] @ slots
        if S.shape[1] > own:
            coeffs += S[:, own, None] * oracle.sides[:-1, None, :]
        b = oracle.boundaries
        idx = np.clip(np.searchsorted(b, ts, side="right") - 1, 0, len(coeffs) - 1)
        a, b = b[idx], b[idx + 1]
        tab = legendre_table(coeffs.shape[1] - 1, 2.0 * (ts - a) / (b - a) - 1.0)
        return np.einsum("ak,kad->kd", tab, coeffs[idx])

    @pytest.mark.parametrize("scheme", ["cn", "dg2"])
    def test_states_equal_the_eager_coefficients(self, smooth_ops, scheme):
        # the gathered steps' coefficients, bit for bit the ones of every
        # step formed at once; on step edges, inside steps and outside the march
        oracle = mc.reference_solve(smooth_ops, 0.25, n_steps=64, scheme=scheme)
        b = oracle.boundaries
        ts = np.concatenate([self.TIMES, b, 0.5 * (b[:-1] + b[1:]), [-1.0, 2.0]])
        assert np.array_equal(oracle.states(ts), self.eager_states(oracle, ts))
        assert oracle.scheme.reach == 1

    @pytest.mark.parametrize("scheme, own_values", [("cn", 0), ("dg2", 3)])
    def test_oracle_holds_what_the_march_solves(self, smooth_ops, scheme, own_values):
        # per step the free modes (none for Crank-Nicolson, the three
        # coefficients for dg2) and one side value, plus u0
        n, d = 64, sum(smooth_ops.d_omega)
        oracle = mc.reference_solve(smooth_ops, 0.25, n_steps=n, scheme=scheme)
        # a view keeps its base alive: count the arrays the oracle keeps
        floats = sum((a if a.base is None else a.base).size for a in (oracle.free, oracle.sides))
        assert floats == n * own_values * d + (n + 1) * d
        if scheme == "cn":
            assert floats <= (n + 1) * d

    def test_fluxes_match_pointwise_formula(self, oracle, smooth_ops):
        ops = smooth_ops
        for i in range(2):
            got = oracle.fluxes(i, self.TIMES)
            assert got.shape == (len(self.TIMES), ops.d_gamma)
            for k, t in enumerate(self.TIMES):
                u = oracle.states([t])[0]
                u1, u2 = u[oracle.slices[0]], u[oracle.slices[1]]
                g = spla.spsolve(ops.M_gamma.tocsc(), ops.g_vec(i, t))
                want = ops.B[i, 0] * (ops.T[0] @ u1) + ops.B[i, 1] * (ops.T[1] @ u2) - g
                assert np.allclose(got[k], want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
                single = oracle.fluxes(i, [t])[0]
                assert np.allclose(single, got[k], rtol=0, atol=1e-15 * np.max(np.abs(want)))


def pointwise_error_norms(ops, spec, cfg, windows, oracle):
    """error_norms written with one scalar oracle query per quadrature point."""
    q = spec.q
    l2_sq, flux_sq, nodal, sync = [0.0, 0.0], [0.0, 0.0], [[], []], []

    def state(i, t):
        return oracle.states([t])[0][oracle.slices[i]]

    def mass_norm(i, v):
        return math.sqrt(max(0.0, float(v @ (ops.M[i] @ v))))

    for sol in windows:
        if sol.initialized_from_reference:
            continue
        for i in range(2):
            edges = cfg.substep_edges(i, sol.index)
            for n, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
                for tk, wk in zip(*gauss_on(Interval(a, b), q + 4)):
                    diff = poly_values(Interval(a, b), sol.u[i][n], tk) - state(i, tk)
                    l2_sq[i] += wk * float(diff @ (ops.M[i] @ diff))
                nodal[i].append(mass_norm(i, sol.U[i][n + 1] - state(i, b)))
            for tk, wk in zip(*gauss_on(sol.window, len(sol.F[i]) + 3)):
                diff = poly_values(sol.window, sol.F[i], tk) - oracle.fluxes(i, [tk])[0]
                flux_sq[i] += wk * float(diff @ (ops.M_gamma @ diff))
        end = sol.window.b
        sync.append(math.sqrt(sum(mass_norm(i, sol.U[i][-1] - state(i, end)) ** 2 for i in range(2))))
    return np.sqrt(l2_sq), np.sqrt(flux_sq), nodal, sync


class TestErrorNorms:
    @pytest.mark.parametrize("r", [(1, 1), (0, 2)])
    def test_batched_equals_pointwise(self, smooth_ops, r):
        cfg = mc.WindowConfig(t_f=0.2, N=4, M=(2, 3), r=r)
        traj = mc.run_simulation(smooth_ops, mc.crank_nicolson(), cfg)
        oracle = mc.reference_solve(smooth_ops, 0.2, n_steps=128)
        rep = mc.error_norms(smooth_ops, traj.windows, oracle)
        l2, flux, nodal, sync = pointwise_error_norms(
            smooth_ops, mc.crank_nicolson(), cfg, traj.windows, oracle
        )
        assert np.allclose(rep.l2, l2, rtol=1e-12, atol=0)
        assert np.allclose(rep.flux_l2, flux, rtol=1e-12, atol=0)
        assert min(rep.flux_l2) > 0
        for i in range(2):
            assert np.allclose(rep.nodal[i], nodal[i], rtol=1e-12, atol=0)
        assert np.allclose(rep.sync, sync, rtol=1e-12, atol=0)

    # the left node is the mean of the new side value and the one two steps
    # back, so window 1 is reference-filled
    MEAN_TWO_BACK = mc.SchemeSpec(
        q=1, n_s=2, k_s=2, thetas=(0.0, 1.0), D=[[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]
    )

    def test_chunk_size_changes_no_norm(self, smooth_ops, monkeypatch):
        # window 1 of 6 is reference-filled and skipped; the other five are
        # one chunk at the default budget and five chunks of one at budget 1
        cfg = mc.WindowConfig(t_f=0.2, N=6, M=(2, 3), r=(0, 2))
        traj = mc.run_simulation(smooth_ops, self.MEAN_TWO_BACK, cfg)
        assert [sol.initialized_from_reference for sol in traj.windows] == [True] + [False] * 5
        oracle = mc.reference_solve(smooth_ops, 0.2, n_steps=128)
        states, calls = oracle.states, []

        def counted(ts):
            calls.append(len(ts))
            return states(ts)

        monkeypatch.setattr(oracle, "states", counted)
        whole = mc.error_norms(smooth_ops, traj.windows, oracle)
        monkeypatch.setattr(dgit, "LOAD_BATCH_VALUES", 1)
        single = mc.error_norms(smooth_ops, traj.windows, oracle)
        assert len(calls) == 6 and calls[0] == sum(calls[1:])
        assert len(whole.sync) == 5 and [len(a) for a in whole.nodal] == [10, 15]
        for field in dataclasses.fields(verify.ErrorReport):
            got, want = (getattr(rep, field.name) for rep in (single, whole))
            per_side = zip(got, want) if isinstance(got, tuple) else [(got, want)]
            for a, b in per_side:
                assert np.allclose(a, b, rtol=1e-13, atol=0), field.name
        assert min(whole.flux_l2) > 0

    def test_any_iterable_of_windows(self, smooth_ops, monkeypatch):
        # march's generator gives bitwise the norms of the collected list,
        # its reference-filled window 1 skipped, in one chunk and in chunks
        # of one window; no solved window gives zero norms
        cfg = mc.WindowConfig(t_f=0.2, N=6, M=(2, 3), r=(0, 2))
        spec = self.MEAN_TWO_BACK
        windows = mc.run_simulation(smooth_ops, spec, cfg).windows
        oracle = mc.reference_solve(smooth_ops, 0.2, n_steps=128)

        def assert_bitwise(got, want):
            for field in dataclasses.fields(verify.ErrorReport):
                a, b = getattr(got, field.name), getattr(want, field.name)
                for x, y in zip(a, b) if isinstance(a, tuple) else [(a, b)]:
                    assert np.shape(x) == np.shape(y) and np.array_equal(x, y), field.name

        for budget in (dgit.LOAD_BATCH_VALUES, 1):
            monkeypatch.setattr(dgit, "LOAD_BATCH_VALUES", budget)
            listed = mc.error_norms(smooth_ops, windows, oracle)
            assert len(listed.sync) == 5
            assert_bitwise(mc.error_norms(smooth_ops, mc.march(smooth_ops, spec, cfg), oracle), listed)
        empty = verify.ErrorReport((0.0, 0.0), (np.empty(0), np.empty(0)), np.empty(0), (0.0, 0.0))
        for nothing_solved in ([], iter(()), windows[:1]):
            assert_bitwise(mc.error_norms(smooth_ops, nothing_solved, oracle), empty)

    def test_linear_solution_errors_at_floor(self, toy_linear_ops, run_and_oracle):
        traj, oracle = run_and_oracle
        rep = mc.error_norms(toy_linear_ops, traj.windows, oracle)
        assert rep.l2_total < 1e-11
        assert rep.sync_max < 1e-11
        assert rep.nodal_max < 1e-11
        assert rep.flux_total < 1e-11

    def test_perturbed_side_value_shows_up(self, toy_linear_ops, run_and_oracle):
        traj, oracle = run_and_oracle
        sol = traj.windows[2]
        eps = 1e-3
        U = tuple(np.array(u, copy=True) for u in sol.U)
        U[0][1] = U[0][1] + eps
        windows = list(traj.windows)
        windows[2] = dataclasses.replace(sol, U=U)
        rep = mc.error_norms(toy_linear_ops, windows, oracle)
        assert rep.nodal_max == pytest.approx(eps, rel=1e-6)

    def test_l2_additivity_over_windows(self, toy_linear_ops):
        cfg = mc.WindowConfig(t_f=0.4, N=4, M=(1, 2), r=(1, 1))
        traj = mc.run_simulation(toy_linear_ops, mc.crank_nicolson(), cfg)
        oracle = mc.reference_solve(toy_linear_ops, 0.4, n_steps=256)
        total = mc.error_norms(toy_linear_ops, traj.windows, oracle)
        pieces = [mc.error_norms(toy_linear_ops, [sol], oracle) for sol in traj.windows]
        for i in range(2):
            total_sq = sum(p.l2[i] ** 2 for p in pieces)
            assert total_sq == pytest.approx(total.l2[i] ** 2, rel=1e-10, abs=1e-28)


class TestConvergenceStudy:
    def test_cn_second_order_on_toy(self):
        # decaying coupled toy with analytic-style dynamics
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], [[1.0]], [[1.0]], [[0.5]], [[1.0]], [[1.0]], B,
            u0=(np.array([1.0]), np.array([-0.3])),
        )
        base = mc.WindowConfig(t_f=1.0, N=4, M=(1, 2), r=(1, 1))
        table = verify.convergence_study(
            ops, mc.crank_nicolson(), base, 4, target="l2", quadrature="trapezoid"
        )
        assert 1.8 <= table.observed_rate <= 2.2
        # errors above the roundoff floor decrease monotonically with dt
        errs = [r.err_target for r in table.rows if not r.excluded]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_linear_exact_solution_hits_floor(self, toy_linear_ops):
        base = mc.WindowConfig(t_f=0.5, N=2, M=(1, 2), r=(1, 1))
        table = verify.convergence_study(
            toy_linear_ops, mc.crank_nicolson(), base, 3, target="l2", quadrature="exact"
        )
        assert all(row.excluded for row in table.rows)
        assert any("roundoff floor" in note for note in table.notes)
        assert np.isnan(table.observed_rate)

    def test_insufficient_levels_rejected(self, toy_linear_ops):
        base = mc.WindowConfig(t_f=0.5, N=2)
        with pytest.raises(ValueError):
            verify.convergence_study(toy_linear_ops, mc.crank_nicolson(), base, 2)

    def test_rate_csv_schema(self, toy_linear_ops):
        base = mc.WindowConfig(t_f=0.5, N=2, M=(1, 2), r=(1, 1))
        table = verify.convergence_study(
            toy_linear_ops, mc.crank_nicolson(), base, 3, target="l2"
        )
        buf = io.StringIO()
        table.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "level,dt,dt1,dt2,err_l2_u1,err_l2_u2,err_sync,rate_running"
        assert len(lines) == 4

    def test_spin_up_is_initial_data_in_the_operators(self):
        # a study with spin_up writes the rates of a study without it on
        # operators that hold the spun-up state
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], [[1.0]], [[1.0]], [[0.5]], [[1.0]], [[1.0]], B,
            u0=(np.array([1.0]), np.array([-0.3])),
        )
        base = mc.WindowConfig(t_f=0.5, N=2, M=(1, 2), r=(1, 1))

        def rates_csv(ops, spin_up):
            table = verify.convergence_study(
                ops, mc.crank_nicolson(), base, 3, quadrature="trapezoid", oracle_steps=256,
                spin_up=spin_up,
            )
            buf = io.StringIO()
            table.write_csv(buf)
            return buf.getvalue()

        spun = dataclasses.replace(ops, u0=verify.prepare_initial_state(ops, 0.1))
        assert rates_csv(ops, 0.1) == rates_csv(spun, 0.0) != rates_csv(ops, 0.0)

    def test_spin_up_and_oracle_run_once_whatever_the_map(self, toy_linear_ops, monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            verify, "prepare_initial_state", counted("spin-up", verify.prepare_initial_state)
        )
        monkeypatch.setattr(verify, "reference_solve", counted("oracle", verify.reference_solve))
        seen = []

        def recording_map(fn, configs):
            configs = list(configs)
            seen.extend(configs)
            return map(fn, configs)

        base = mc.WindowConfig(t_f=0.5, N=2, M=(1, 2), r=(1, 1))
        levels = 4

        def study(executor):
            calls.clear()
            table = verify.convergence_study(
                toy_linear_ops, mc.crank_nicolson(), base, levels,
                quadrature="trapezoid", oracle_steps=256, spin_up=0.1, map=executor,
            )
            assert calls == {"spin-up": 1, "oracle": 1}
            return table

        recorded = study(recording_map)
        assert [cfg.N for cfg in seen] == [base.N * 2**lvl for lvl in range(levels)]
        assert not all(row.excluded for row in recorded.rows)
        # the loads are closures: the forked workers inherit the level function
        forked = study(cli._forked_map(2))
        assert repr(forked.rows) == repr(recorded.rows)
        assert forked.notes == recorded.notes


class TestOracleIndependence:
    def test_rates_agree_between_oracles(self):
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ops = mc.from_matrices(
            [[1.0]], [[2.0]], [[1.0]], [[1.0]], [[0.5]], [[1.0]], [[1.0]], B,
            u0=(np.array([1.0]), np.array([-0.3])),
        )
        base = mc.WindowConfig(t_f=1.0, N=4, M=(1, 2), r=(1, 1))
        rates = []
        for scheme in ("cn", "dg2"):
            table = verify.convergence_study(
                ops, mc.crank_nicolson(), base, 4,
                target="l2", quadrature="trapezoid", oracle_scheme=scheme,
            )
            rates.append(table.observed_rate)
        assert abs(rates[0] - rates[1]) < 0.1


class TestPreparedInitialState:
    def test_burn_in_reduces_transient(self, smooth_ops):
        raw = tuple(np.asarray(v) for v in smooth_ops.u0)
        prep = verify.prepare_initial_state(smooth_ops, 0.25)
        assert not np.allclose(prep[0], raw[0])
        # copies: a view would keep the burn-in's (steps + 1, d) side values alive
        assert all(v.base is None for v in prep)
        # the prepared state is finite and of comparable magnitude
        assert np.max(np.abs(prep[0])) < 10 * max(1.0, np.max(np.abs(raw[0])))

    def test_blow_up_is_named(self, step_form):
        # u' = 1000 u overflows within a unit span of fine steps
        grow = [[-1000.0]]
        ops = mc.from_matrices(
            [[1.0]], grow, [[1.0]], [[1.0]], grow, [[1.0]], [[1.0]], [[1.0, -1.0], [-1.0, 1.0]],
            u0=(np.ones(1), np.ones(1)),
        )
        with pytest.raises(coupling.SolverError, match="spin-up produced non-finite values"):
            verify.prepare_initial_state(ops, 1.0)
        for scheme in ("cn", "dg2"):
            with pytest.raises(coupling.SolverError, match="oracle solve produced non-finite"):
                verify.reference_solve(ops, 1.0, 4096, scheme=scheme)

    def test_zero_burn_in_is_identity(self, smooth_ops):
        prep = verify.prepare_initial_state(smooth_ops, 0.0)
        assert np.allclose(prep[0], smooth_ops.u0[0])
        assert np.allclose(prep[1], smooth_ops.u0[1])
