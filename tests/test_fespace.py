import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import mrcouple as mc
from mrcouple import dgit, fespace
from mrcouple.cli import _pulse_forcing
from mrcouple.timepoly import legendre_table
from mrcouple.fespace import (
    N_GP_MATRIX,
    AdvectionSpec,
    Separable,
    _assemble_domain,
    _interface_mass,
    _shape_table,
    local_mass,
    local_stiffness,
)


def dense_bilinear_load(mesh, w_nodal, nu, n_gp=6):
    """Independent dense-quadrature evaluation of a(w_h, phi_j) on free dofs."""
    xi, eta, W, N, dNxi, dNeta = _shape_table(n_gp)
    hx, hy = mesh.hx, mesh.hy
    detj = hx * hy / 4.0
    gx, gy = (2.0 / hx) * dNxi, (2.0 / hy) * dNeta
    out = np.zeros(mesh.n_free)
    for quad in mesh.quads:
        wl = w_nodal[quad]
        dwx = wl @ gx
        dwy = wl @ gy
        for a in range(4):
            dof = mesh.free_dof[quad[a]]
            if dof >= 0:
                out[dof] += nu * detj * float(W @ (dwx * gx[a] + dwy * gy[a]))
    return out


def elementwise_assembly(mesh, nu, adv):
    """Reference (M, A, B_adv): one element at a time, one entry at a time."""
    xi, eta, W, N, dNxi, dNeta = _shape_table(N_GP_MATRIX)
    hx, hy = mesh.hx, mesh.hy
    detj = hx * hy / 4.0
    gx, gy = (2.0 / hx) * dNxi, (2.0 / hy) * dNeta
    m_loc, a_loc = local_mass(hx, hy), local_stiffness(hx, hy, nu)
    velocity = adv.velocity(mesh.subdomain)
    rows, cols, m_vals, a_vals, b_vals = [], [], [], [], []
    for quad in mesh.quads:
        dofs = mesh.free_dof[quad]
        x0, y0 = mesh.nodes[quad[0]]
        b_loc = np.zeros((4, 4))
        if not adv.is_zero:
            sx, sy = velocity(x0 + hx * (1 + xi) / 2.0, y0 + hy * (1 + eta) / 2.0)
            b_loc = detj * (N * W) @ (sx * gx + sy * gy).T
        for a in range(4):
            for b in range(4):
                if dofs[a] >= 0 and dofs[b] >= 0:
                    rows.append(dofs[a])
                    cols.append(dofs[b])
                    m_vals.append(m_loc[a, b])
                    a_vals.append(a_loc[a, b])
                    b_vals.append(b_loc[a, b])
    shape = (mesh.n_free, mesh.n_free)
    return tuple(
        sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        for vals in (m_vals, a_vals, b_vals)
    )


@pytest.fixture(scope="module")
def meshes():
    m1, m2 = mc.build_mesh(1, 4, 4), mc.build_mesh(2, 4, 4)
    return m1, m2, mc.match_interfaces(m1, m2)


def scalar_pair(B, **loads) -> mc.FeOperators:
    """One unknown per subdomain and one on the interface, all matrices 1."""
    one = [[1.0]]
    return mc.from_matrices(one, one, one, one, one, one, one, B, **loads)


def minimal_mesh_pair(**spec) -> mc.FeOperators:
    """Assembled on 2x1 grids: one free dof per subdomain, the interface midpoint."""
    m1, m2 = mc.build_mesh(1, 2, 1), mc.build_mesh(2, 2, 1)
    return mc.assemble(m1, m2, mc.match_interfaces(m1, m2), mc.ProblemSpec(**spec))


CONSERVATIVE_B = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestProblemSpec:
    def test_bad_nu(self):
        with pytest.raises(ValueError):
            mc.ProblemSpec(nu=(0.0, 1.0))


class TestCheckFlags:
    def test_flags_conservative_pair(self):
        ops = scalar_pair(CONSERVATIVE_B)
        assert ops.conservation_compatible and ops.b_psd

    def test_flags_identity(self):
        ops = scalar_pair(np.eye(2))
        assert not ops.conservation_compatible and ops.b_psd

    def test_flags_skew(self):
        ops = scalar_pair(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert ops.b_psd  # symmetric part is zero

    def test_flags_negative(self):
        ops = scalar_pair(-np.eye(2))
        assert not ops.b_psd

    def test_opposite_g_keeps_compatibility(self):
        g = lambda x, t: np.sin(np.pi * x) * (1 + t)
        ops = minimal_mesh_pair(g=(g, lambda x, t: -g(x, t)))
        assert ops.d_gamma == 1 and ops.conservation_compatible

    def test_unbalanced_g_breaks_compatibility(self):
        g = lambda x, t: np.sin(np.pi * x) * (1 + t)
        ops = minimal_mesh_pair(g=(g, None))
        assert ops.d_gamma == 1 and not ops.conservation_compatible

    def test_replaced_coupling_is_judged_anew(self):
        ops = scalar_pair(CONSERVATIVE_B)
        assert ops.conservation_compatible and ops.b_psd
        identity = dataclasses.replace(ops, B=np.eye(2))
        assert not identity.conservation_compatible and identity.b_psd
        negative = dataclasses.replace(ops, B=-np.eye(2))
        assert not negative.b_psd

    def test_replaced_interface_data_is_judged_anew(self):
        g = lambda t: np.array([1.0 + t])
        ops = scalar_pair(CONSERVATIVE_B, load_g=(g, lambda t: -g(t)), u0=(np.ones(1), np.ones(1)))
        assert ops.conservation_compatible
        same = dataclasses.replace(ops, load_g=(ops.load_g[0], ops.load_g[0]))
        assert not same.conservation_compatible
        # the diagnostics leave the conservation column undefined for it
        cfg = mc.WindowConfig(t_f=0.3, N=3, M=(1, 2), r=(1, 1))
        diag = mc.window_diagnostics(mc.march(same, mc.crank_nicolson(), cfg), same, cfg, "exact")
        assert np.all(np.isnan(diag.conservation))

    def test_direct_construction_judges_its_coupling(self):
        one = sp.csr_matrix(np.ones((1, 1)))
        ops = mc.FeOperators(M=(one, one), L=(one, one), T=(one, one), M_gamma=one, B=-np.eye(2))
        assert not ops.b_psd and not ops.conservation_compatible

    def test_coupling_is_a_read_only_copy(self):
        B = CONSERVATIVE_B.copy()
        ops = scalar_pair(B)
        B[0, 0] = 5.0
        assert ops.B[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            ops.B[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ops.B = -np.eye(2)
        assert ops.conservation_compatible and ops.b_psd

    def test_building_calls_no_load(self):
        calls = []

        def g(t):
            calls.append(t)
            return np.array([1.0 + t])

        ops = scalar_pair(CONSERVATIVE_B, load_g=(g, lambda t: -g(t)))
        assert calls == []
        assert ops.conservation_compatible and calls
        count = len(calls)
        assert ops.conservation_compatible and len(calls) == count  # computed once


class TestAssembly:
    def test_single_element_zero_system(self):
        m1, m2 = mc.build_mesh(1, 1, 1), mc.build_mesh(2, 1, 1)
        imap = mc.match_interfaces(m1, m2)
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec())
        assert ops.d_omega == (0, 0) and ops.d_gamma == 0

    def test_mass_total_matches_dense_quadrature(self, meshes):
        m1, m2, imap = meshes
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec())
        xi, eta, W, N, _, _ = _shape_table(6)
        detj = m1.hx * m1.hy / 4.0
        # sum_ij M_ij = integral of s^2, s = sum of free basis functions
        total = 0.0
        row_oracle = np.zeros(m1.n_free)
        for quad in m1.quads:
            free = np.array([m1.free_dof[n] >= 0 for n in quad], dtype=float)
            svals = free @ N
            total += detj * float(W @ svals**2)
            for a in range(4):
                dof = m1.free_dof[quad[a]]
                if dof >= 0:
                    row_oracle[dof] += detj * float(W @ (N[a] * svals))
        M = ops.M[0]
        assert float(M.sum()) == pytest.approx(total, rel=1e-12)
        assert np.allclose(np.asarray(M.sum(axis=1)).ravel(), row_oracle, atol=1e-13)

    def test_matrix_symmetry(self, meshes):
        m1, m2, imap = meshes
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec(nu=(2.0, 0.3)))
        A = [_assemble_domain(m, nu, AdvectionSpec())[1] for m, nu in ((m1, 2.0), (m2, 0.3))]
        for mat in (*ops.M, *A, ops.M_gamma):
            scale = abs(mat).max()
            assert abs(mat - mat.T).max() <= 1e-12 * scale

    def test_mass_spd(self, meshes):
        m1, m2, imap = meshes
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec())
        for mat in (*ops.M, ops.M_gamma):
            np.linalg.cholesky(mat.toarray())

    def test_stiffness_annihilates_constants_elementwise(self):
        A = local_stiffness(0.25, 0.5, nu=1.3)
        assert np.max(np.abs(A.sum(axis=1))) < 1e-14

    def test_local_mass_total_is_area(self):
        M = local_mass(0.25, 0.5)
        assert M.sum() == pytest.approx(0.125, rel=1e-14)

    def test_diffusion_psd(self, meshes):
        m1, m2, _ = meshes
        for m in (m1, m2):
            A = _assemble_domain(m, 1.0, AdvectionSpec())[1]
            eig = np.linalg.eigvalsh(A.toarray())
            assert eig.min() > -1e-12

    @pytest.mark.parametrize(
        "adv",
        [AdvectionSpec(kind="constant", sx=0.7), AdvectionSpec(kind="vortex", amplitude=1.5)],
    )
    def test_advection_skew(self, meshes, adv):
        m1, m2, _ = meshes
        for m in (m1, m2):
            B_adv = _assemble_domain(m, 1.0, adv)[2]
            scale = max(abs(B_adv).max(), 1e-30)
            assert abs(B_adv + B_adv.T).max() <= 1e-10 * scale

    @pytest.mark.parametrize("nx", [3, 5])
    @pytest.mark.parametrize("subdomain", [1, 2])
    @pytest.mark.parametrize(
        "adv",
        [
            AdvectionSpec(),
            AdvectionSpec(kind="constant", sx=0.7),
            AdvectionSpec(kind="vortex", amplitude=1.5),
        ],
        ids=["zero", "constant", "vortex"],
    )
    def test_matches_elementwise_assembly(self, nx, subdomain, adv):
        mesh = mc.build_mesh(subdomain, nx, nx + 1)
        reference = elementwise_assembly(mesh, 0.7, adv)
        for got, want in zip(_assemble_domain(mesh, 0.7, adv), reference):
            got.sort_indices()
            want.sort_indices()
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            scale = np.max(np.abs(want.data))
            assert np.max(np.abs(got.data - want.data)) <= 1e-15 * scale

    def test_vortex_boundary_tangency(self):
        adv = AdvectionSpec(kind="vortex", amplitude=2.0)
        for sub, yspan in ((1, (0.0, 1.0)), (2, (-1.0, 0.0))):
            vel = adv.velocity(sub)
            xs = np.linspace(0, 1, 11)
            for ybot in yspan:
                sx, sy = vel(xs, np.full_like(xs, ybot))
                assert np.max(np.abs(sy)) < 1e-14  # no normal flow through y-edges
            for xside in (0.0, 1.0):
                ys = np.linspace(*yspan, 11)
                sx, sy = vel(np.full_like(ys, xside), ys)
                assert np.max(np.abs(sx)) < 1e-14

    def test_trace_selection(self, meshes):
        m1, m2, imap = meshes
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec())
        for i, dofs in enumerate((imap.dofs_1, imap.dofs_2)):
            for k in range(imap.d_gamma):
                v = np.zeros(ops.d_omega[i])
                v[dofs[k]] = 1.0
                picked = ops.T[i] @ v
                expected = np.zeros(imap.d_gamma)
                expected[k] = 1.0
                assert np.array_equal(picked, expected)

    def test_steady_diffusion_residual(self, meshes):
        m1 = meshes[0]
        nu = 1.7
        A = _assemble_domain(m1, nu, AdvectionSpec())[1]
        w_nodal = m1.nodes[:, 0] * (1 - m1.nodes[:, 0]) * (1 - m1.nodes[:, 1])
        w_free = w_nodal[m1.free_dof >= 0]
        oracle = dense_bilinear_load(m1, w_nodal, nu)
        resid = A @ w_free - oracle
        assert np.max(np.abs(resid)) < 1e-10

    def test_interface_mass_row_sums(self, meshes):
        m1, m2, imap = meshes
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec())
        # hat masses on a uniform grid: h inside, 5h/6 next to the eliminated corners
        sums = np.asarray(ops.M_gamma.sum(axis=1)).ravel()
        h = m1.hx
        expected = np.full(imap.d_gamma, h)
        expected[0] = expected[-1] = 5 * h / 6
        assert np.allclose(sums, expected, atol=1e-14)

    def test_load_vector_matches_dense(self, meshes):
        m1, m2, imap = meshes
        f = lambda x, y, t: (1.0 + t) * x * np.ones_like(y)
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec(f=(f, None)))
        vec = ops.f_vec(0, 0.3)
        xi, eta, W, N, _, _ = _shape_table(8)
        detj = m1.hx * m1.hy / 4.0
        oracle = np.zeros(m1.n_free)
        for quad in m1.quads:
            x0, y0 = m1.nodes[quad[0]]
            xg = x0 + m1.hx * (1 + xi) / 2
            yg = y0 + m1.hy * (1 + eta) / 2
            for a in range(4):
                dof = m1.free_dof[quad[a]]
                if dof >= 0:
                    oracle[dof] += detj * float(W @ (f(xg, yg, 0.3) * N[a]))
        assert np.allclose(vec, oracle, atol=1e-12)
        assert np.allclose(ops.f_vec(1, 0.3), 0.0)


@pytest.fixture(scope="module")
def pulse_ops(meshes):
    m1, m2, imap = meshes
    return mc.assemble(m1, m2, imap, mc.ProblemSpec(f=_pulse_forcing()))


class TestBatchedLoads:
    TIMES = np.array([0.0, 0.013, 0.25, 0.5, 0.77, 1.0])

    @pytest.mark.parametrize("name", ["smooth_ops", "pulse_ops"])
    def test_batched_equals_per_time(self, name, request):
        ops = request.getfixturevalue(name)
        checked = 0
        for vec, i in ((ops.f_vec, 0), (ops.f_vec, 1), (ops.g_vec, 0), (ops.g_vec, 1)):
            batched = vec(i, self.TIMES)
            stacked = np.stack([vec(i, t) for t in self.TIMES])
            assert batched.shape == stacked.shape == (len(self.TIMES), stacked.shape[1])
            scale = max(float(np.max(np.abs(stacked))), 1e-300)
            assert np.max(np.abs(batched - stacked)) <= 1e-13 * scale
            checked += float(np.max(np.abs(stacked))) > 0
        assert checked == (4 if name == "smooth_ops" else 2)

    def test_scalar_time_gives_vector(self, smooth_ops, pulse_ops):
        assert smooth_ops.f_vec(0, 0.3).shape == (smooth_ops.d_omega[0],)
        assert smooth_ops.g_vec(1, 0.3).shape == (smooth_ops.d_gamma,)
        assert pulse_ops.g_vec(0, 0.3).shape == (pulse_ops.d_gamma,)
        assert pulse_ops.g_vec(0, self.TIMES).shape == (len(self.TIMES), pulse_ops.d_gamma)

    def test_from_matrices_adapts_per_time_loads(self, toy_linear_ops):
        vals = toy_linear_ops.f_vec(0, self.TIMES)
        assert vals.shape == (len(self.TIMES), 1)
        assert np.allclose(vals[:, 0], 4.3 + self.TIMES, rtol=0, atol=1e-15)
        assert np.allclose(toy_linear_ops.f_vec(1, self.TIMES)[:, 0], 0.55 + 2 * self.TIMES)


def moments_of_values(spec, edges, values, quadrature, npts):
    """The data terms of the steps between edges from the (nt, d) values of a load.

    An independent evaluation: one step at a time, with no factors.
    """
    x, w = mc.gauss_rule(npts)
    rows = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = np.arange(spec.test_order + 1)
        if quadrature == "trapezoid":
            va, vb = values(np.array([a, b]))
            row = 0.5 * (b - a) * (((-1.0) ** m)[:, None] * va + vb)
        else:
            tab = np.polynomial.legendre.legvander(x, spec.test_order).T  # (t_o + 1, npts)
            row = 0.5 * (b - a) * (tab * w) @ values(a + 0.5 * (x + 1.0) * (b - a))
        rows.append(row.ravel())
    return np.array(rows)


class TestFactoredMoments:
    EDGES = np.linspace(0.1, 0.7, 7)

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme", sorted(mc.shipped_schemes()))
    @pytest.mark.parametrize("name", ["smooth_ops", "pulse_ops"])
    def test_equal_pointwise_moments(self, name, scheme, quadrature, request):
        # every body and interface load: K factor moments times the vectors
        # against the moments of the load's values
        ops = request.getfixturevalue(name)
        spec = mc.shipped_schemes()[scheme]
        checked = 0
        for load, d in [(f, d) for f, d in zip(ops.load_f, ops.d_omega)] + [
            (g, ops.d_gamma) for g in ops.load_g
        ]:
            if load is None:
                continue
            assert load.vectors is not None and load.count(d) < d
            got = dgit._chunk_moments(spec, self.EDGES, load, d, quadrature, dgit.LOAD_QUAD_PTS)
            want = moments_of_values(spec, self.EDGES, load, quadrature, dgit.LOAD_QUAD_PTS)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            checked += 1
        assert checked == (4 if name == "smooth_ops" else 2)

    @pytest.mark.parametrize("quadrature", ["exact", "trapezoid"])
    @pytest.mark.parametrize("scheme", sorted(mc.shipped_schemes()))
    def test_plain_and_per_time_loads_are_their_values(self, meshes, scheme, quadrature):
        # a plain pointwise load and a per-time load have identity vectors:
        # their values are their factors, and their moments are integrated
        # from those values with no product
        m1, m2, imap = meshes
        plain_ops = mc.assemble(
            m1, m2, imap, mc.ProblemSpec(f=(lambda x, y, t: np.cos(3.0 * t) * x * (1 - y), None))
        )
        per_time = mc.from_matrices(
            np.eye(2), np.eye(2), [[1.0, 0.0]], [[1.0]], [[0.5]], [[1.0]], [[1.0]], np.eye(2),
            load_f=(lambda t: np.array([np.sin(t), np.exp(-t)]), None),
        )
        spec = mc.shipped_schemes()[scheme]
        for load, d in ((plain_ops.load_f[0], m1.n_free), (per_time.load_f[0], 2)):
            assert load.vectors is None and load.count(d) == d
            t = np.linspace(0.0, 1.0, 5)
            assert np.array_equal(load(t), load.factors(t))
            got = dgit._chunk_moments(spec, self.EDGES, load, d, quadrature, dgit.LOAD_QUAD_PTS)
            # the moments of the values, in one batch as the chunk evaluates them
            a, b = self.EDGES[:-1], self.EDGES[1:]
            half = 0.5 * (b - a)[:, None, None]
            if quadrature == "trapezoid":
                vals = load.factors(self.EDGES)
                sign = (-1.0) ** np.arange(spec.test_order + 1)
                want = half * (sign[None, :, None] * vals[:-1, None, :] + vals[1:, None, :])
            else:
                x, w = mc.gauss_rule(dgit.LOAD_QUAD_PTS)
                ts = a[:, None] + (x + 1.0) * half[:, :, 0]
                vals = load.factors(ts.ravel()).reshape(len(a), len(x), d)
                tab = legendre_table(spec.test_order, x)
                want = half * np.einsum("mj,kjd->kmd", tab * w, vals)
            assert np.array_equal(got, want.reshape(len(a), -1))

    def test_g_trace_solves_the_interface_vectors_once(self, smooth_ops, monkeypatch):
        calls = []

        def counted(A):
            calls.append(A.shape)
            return factorize(A)

        factorize = fespace.factorize
        monkeypatch.setattr(fespace, "factorize", counted)
        ops = dataclasses.replace(smooth_ops)  # nothing cached yet
        Mg = ops.M_gamma.toarray()
        for t in (np.array([0.1, 0.4]), np.array([0.0, 0.5, 0.9]), 0.3):
            for i in range(2):
                want = np.linalg.solve(Mg, np.atleast_2d(ops.g_vec(i, t)).T).T.reshape(
                    np.shape(t) + (ops.d_gamma,)
                )
                got = ops.g_trace(i, t)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert calls == [(ops.d_gamma, ops.d_gamma)]
        assert ops._g_traces[0].count(ops.d_gamma) == 1  # one vector solved a side


class TestFromMatrices:
    def test_scalar_toy(self, toy_ops):
        assert toy_ops.d_omega == (1, 1) and toy_ops.d_gamma == 1
        assert toy_ops.conservation_compatible and toy_ops.b_psd

    def test_non_spd_mass_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            mc.from_matrices([[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], np.eye(2))

    def test_asymmetric_mass_rejected(self):
        M = [[1.0, 0.2], [0.0, 1.0]]
        L = np.eye(2)
        T = np.zeros((1, 2))
        with pytest.raises(ValueError, match="symmetric"):
            mc.from_matrices(M, L, T, np.eye(2), L, T, [[1.0]], np.eye(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mc.from_matrices([[1.0]], np.eye(2), [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], np.eye(2))

    def test_matches_minimal_mesh_assembly(self):
        # one free dof per subdomain: 2x1 grids leave only the interface midpoint
        m1, m2 = mc.build_mesh(1, 2, 1), mc.build_mesh(2, 2, 1)
        imap = mc.match_interfaces(m1, m2)
        spec = mc.ProblemSpec(nu=(1.0, 2.0))
        ops = mc.assemble(m1, m2, imap, spec)
        assert ops.d_omega == (1, 1) and ops.d_gamma == 1
        rebuilt = mc.from_matrices(
            ops.M[0].toarray(), ops.L[0].toarray(), ops.T[0].toarray(),
            ops.M[1].toarray(), ops.L[1].toarray(), ops.T[1].toarray(),
            ops.M_gamma.toarray(), spec.B,
        )
        for a, b in zip((*ops.M, *ops.L, ops.M_gamma), (*rebuilt.M, *rebuilt.L, rebuilt.M_gamma)):
            assert np.allclose(a.toarray(), b.toarray())

    def test_g_sampling_controls_compatibility(self):
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        g = lambda t: np.array([1.0 + t])
        ops = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], B,
            load_g=(g, lambda t: -g(t)),
        )
        assert ops.conservation_compatible
        ops2 = mc.from_matrices(
            [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], B,
            load_g=(g, g),
        )
        assert not ops2.conservation_compatible

    def test_interface_data_without_interface(self):
        # an interface with no unknowns has empty data vectors
        ops = mc.from_matrices(
            [[1.0]], [[1.0]], np.zeros((0, 1)), [[1.0]], [[1.0]], np.zeros((0, 1)),
            np.zeros((0, 0)), [[1.0, -1.0], [-1.0, 1.0]],
            load_g=(lambda t: np.zeros(0), None), u0=(np.ones(1), np.ones(1)),
        )
        assert ops.d_gamma == 0 and ops.conservation_compatible
        cfg = mc.WindowConfig(t_f=0.2, N=2)
        energies = mc.window_diagnostics(mc.march(ops, mc.crank_nicolson(), cfg), ops, cfg, "exact").energies
        assert energies[-1] < energies[0]


def coercivity(ops) -> float:
    """Smallest eigenvalue of the symmetric part of L over both subdomains."""
    return min(float(np.linalg.eigvalsh(0.5 * (L + L.T).toarray())[0]) for L in ops.L)


class TestCoercivity:
    def test_pure_diffusion_positive(self, meshes):
        m1, m2, imap = meshes
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec())
        assert coercivity(ops) > 0.0

    def test_zero_operator(self):
        Z = [[0.0]]
        ops = mc.from_matrices([[1.0]], Z, [[1.0]], [[1.0]], Z, [[1.0]], [[1.0]], np.zeros((2, 2)))
        assert coercivity(ops) == pytest.approx(0.0, abs=1e-14)

    def test_skew_advection_leaves_coercivity_unchanged(self, meshes):
        m1, m2, imap = meshes
        plain = mc.assemble(m1, m2, imap, mc.ProblemSpec())
        adv = AdvectionSpec(kind="vortex", amplitude=1.0)
        with_adv = mc.assemble(m1, m2, imap, mc.ProblemSpec(advection=(adv, adv)))
        assert coercivity(plain) == pytest.approx(coercivity(with_adv), abs=1e-8)


class TestInterfaceMass:
    @pytest.mark.parametrize("nx", [1, 4, 33])
    def test_matches_dense_p1_mass(self, nx):
        m1, m2 = mc.build_mesh(1, nx, 2), mc.build_mesh(2, nx, 3)
        imap = mc.match_interfaces(m1, m2)
        n = nx - 1  # interior interface nodes
        dense = (m1.hx / 6.0) * (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
        got = _interface_mass(m1, imap)
        assert got.shape == (n, n) == (imap.d_gamma, imap.d_gamma)
        assert np.max(np.abs(got.toarray() - dense), initial=0.0) <= 1e-15


def plain(fn):
    """The same pointwise data as a plain callable, with no separable split."""
    return lambda *args: fn(*args)


class TestSeparableLoads:
    TIMES = np.array([0.0, 0.013, 0.25, 0.5, 0.77, 1.0])

    def assert_loads_equal(self, sep_ops, plain_ops, kinds=("f", "g")):
        for kind in kinds:
            for i in range(2):
                vec_s, vec_p = getattr(sep_ops, f"{kind}_vec"), getattr(plain_ops, f"{kind}_vec")
                for t in (0.37, self.TIMES):
                    a, b = vec_s(i, t), vec_p(i, t)
                    assert a.shape == b.shape
                    scale = float(np.max(np.abs(b)))
                    assert scale > 0
                    assert np.max(np.abs(a - b)) <= 1e-13 * scale

    @pytest.mark.parametrize("name", ["smooth", "antisym", "polyt"])
    @pytest.mark.parametrize(
        "adv",
        [AdvectionSpec(), AdvectionSpec("constant", sx=0.7), AdvectionSpec("vortex", amplitude=0.8)],
        ids=["zero", "constant", "vortex"],
    )
    def test_mms_equals_pointwise_quadrature(self, meshes, name, adv):
        m1, m2, imap = meshes
        spec = mc.mms_case(name, advection=(adv, adv)).problem
        assert all(isinstance(fn, Separable) for fn in (*spec.f, *spec.g))
        plain_spec = dataclasses.replace(
            spec, f=tuple(map(plain, spec.f)), g=tuple(map(plain, spec.g))
        )
        self.assert_loads_equal(
            mc.assemble(m1, m2, imap, spec), mc.assemble(m1, m2, imap, plain_spec)
        )

    def test_pulse_equals_pointwise_quadrature(self, meshes, pulse_ops):
        m1, m2, imap = meshes
        f = _pulse_forcing()
        assert all(isinstance(fn, Separable) for fn in f)
        plain_ops = mc.assemble(m1, m2, imap, mc.ProblemSpec(f=tuple(map(plain, f))))
        self.assert_loads_equal(pulse_ops, plain_ops, kinds=("f",))

    def test_pointwise_call_sums_the_terms(self):
        sep = Separable(((lambda x, y: x * y, lambda t: 1.0 + t), (lambda x, y: x, np.cos)))
        x, y, t = np.array([0.1, 0.4]), np.array([0.3, 0.9]), np.array([0.2, 0.7])
        assert np.allclose(sep(x, y, t), x * y * (1.0 + t) + x * np.cos(t), rtol=0, atol=1e-16)
        assert sep.time_factors(0.5).shape == (2,)
        assert sep.time_factors(t).shape == (2, 2)

    def test_constant_factors_broadcast(self, meshes):
        m1, m2, imap = meshes
        sep = Separable(((lambda x, y: 2.0, lambda t: 3.0),))
        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec(f=(sep, None)))
        const = mc.assemble(m1, m2, imap, mc.ProblemSpec(f=(lambda x, y, t: 6.0 + 0 * x, None)))
        assert ops.f_vec(0, self.TIMES).shape == (len(self.TIMES), m1.n_free)
        assert np.allclose(ops.f_vec(0, self.TIMES), const.f_vec(0, self.TIMES), rtol=1e-14)
        assert np.allclose(ops.f_vec(0, 0.4), const.f_vec(0, 0.4), rtol=1e-14)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="at least one term"):
            Separable(())

    def test_plain_callable_keeps_batched_quadrature(self, meshes):
        m1, m2, imap = meshes
        calls = []

        def f(x, y, t):
            calls.append(np.shape(t))
            return (1.0 + t) * x**3 * (1.0 + y)

        ops = mc.assemble(m1, m2, imap, mc.ProblemSpec(f=(f, None)))
        assert calls == []
        vals = ops.f_vec(0, self.TIMES)
        assert calls == [(len(self.TIMES), 1, 1)]
        xi, eta, W, N, _, _ = _shape_table(8)
        detj = m1.hx * m1.hy / 4.0
        for k, t in enumerate(self.TIMES):
            oracle = np.zeros(m1.n_free)
            for quad in m1.quads:
                x0, y0 = m1.nodes[quad[0]]
                fx = f(x0 + m1.hx * (1 + xi) / 2, y0 + m1.hy * (1 + eta) / 2, t)
                for a in range(4):
                    dof = m1.free_dof[quad[a]]
                    if dof >= 0:
                        oracle[dof] += detj * float(W @ (fx * N[a]))
            assert np.allclose(vals[k], oracle, rtol=0, atol=1e-13)
