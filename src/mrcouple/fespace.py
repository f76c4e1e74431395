"""Assembly of the spatial operators for the two coupled subdomains.

Produces, per subdomain: the mass matrix, the diffusion matrix, the
advection matrix in the divergence form b(v, w) = integral of
div(s v) * w, their sum L, the boolean trace restriction onto the
interface unknowns, and the interface mass matrix.  Homogeneous
Dirichlet conditions on the exterior boundary are imposed by dof
elimination, so the reduced mass matrices stay symmetric positive
definite.

Matrix terms use a 2x2 Gauss rule per element, which is exact for
bilinear elements and for the shipped advection presets (they are
polynomial by construction); load vectors use a 4x4 rule, applied to
the pointwise data by one precomputed sparse quadrature-to-dof matrix Q
so that a load evaluates many times in one call.  Data given as a
Separable sum of space-time products sum_k a_k(x) b_k(t) is integrated
in space once, at assembly: its load at times t is the (nt, K) matrix of
the time factors times the K assembled vectors Q a_k.  Any other
callable is evaluated at every quadrature point and time of a call.  A
backdoor constructor accepts raw matrices so that small ODE systems can
drive the time integrators directly.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .dgit import factorize
from .mesh import InterfaceMap, Mesh
from .timepoly import gauss_rule

log = logging.getLogger(__name__)

N_GP_MATRIX = 2
N_GP_LOAD = 4

_SYM_TOL = 1e-12


def _shape_table(n_gp: int):
    """Bilinear shape values/derivatives at tensor Gauss points of [-1,1]^2."""
    x, w = gauss_rule(n_gp)
    XI, ETA = np.meshgrid(x, x, indexing="ij")
    xi, eta = XI.ravel(), ETA.ravel()
    W = np.outer(w, w).ravel()
    N = 0.25 * np.stack(
        [(1 - xi) * (1 - eta), (1 + xi) * (1 - eta), (1 + xi) * (1 + eta), (1 - xi) * (1 + eta)]
    )
    dNxi = 0.25 * np.stack([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    dNeta = 0.25 * np.stack([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    return xi, eta, W, N, dNxi, dNeta


@dataclasses.dataclass(frozen=True)
class Separable:
    """Pointwise data sum_k a_k(*points) * b_k(t): a short sum of space-time products.

    terms holds the (a_k, b_k) pairs.  a_k takes the point coordinates,
    (x, y) for a body force or x for interface data; b_k takes a scalar
    time or an array of times.  Called like any load callable,
    (*points, t) -> values, it gives the sum, so every pointwise consumer
    works unchanged; assemble integrates each a_k once instead.
    """

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a separable forcing needs at least one term")

    def __call__(self, *args):
        *points, t = args
        return sum(a(*points) * b(t) for a, b in self.terms)

    def time_factors(self, t) -> np.ndarray:
        """b_1(t), ..., b_K(t) along a last axis: (K,) for a scalar t, (nt, K) for times."""
        shape = np.shape(t)
        return np.stack([np.broadcast_to(b(t), shape) for _, b in self.terms], axis=-1)


@dataclasses.dataclass(frozen=True)
class AdvectionSpec:
    """Steady advection preset; all presets are divergence free.

    kind "zero", "constant" (field (sx, 0)), or "vortex" (curl of the
    polynomial streamfunction a * x(1-x) * y(1 -/+ y), which vanishes with
    zero tangential derivative on the whole subdomain boundary).
    """

    kind: str = "zero"
    sx: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "vortex"):
            raise ValueError(f"unknown advection preset {self.kind!r}")

    def velocity(self, subdomain: int) -> Callable:
        if self.kind == "zero":
            return lambda x, y: (np.zeros_like(x), np.zeros_like(y))
        if self.kind == "constant":
            sx = self.sx
            return lambda x, y: (np.full_like(x, sx), np.zeros_like(y))
        a = self.amplitude
        if subdomain == 1:
            return lambda x, y: (a * x * (1 - x) * (1 - 2 * y), -a * (1 - 2 * x) * y * (1 - y))
        return lambda x, y: (a * x * (1 - x) * (1 + 2 * y), -a * (1 - 2 * x) * y * (1 + y))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "constant" and self.sx == 0.0)


def _opposite(g, times) -> bool:
    """Whether interface data g = (g1, g2), callables of t or None for zero, cancel at times."""
    worst = ref = 0.0
    for t in times:
        v1, v2 = (np.asarray(0.0 if gi is None else gi(t), dtype=float) for gi in g)
        # initial=0.0: an interface with no unknowns has empty data
        worst = max(worst, float(np.max(np.abs(v1 + v2), initial=0.0)))
        ref = max(ref, float(np.max(np.abs(v1), initial=0.0)), 1.0)
    return worst <= 1e-10 * ref


def _b_flags(B: np.ndarray) -> tuple[bool, bool]:
    """(row-wise antisymmetry of B, positive semidefiniteness) flags."""
    scale = max(1.0, float(np.max(np.abs(B))))
    compatible = abs(B[0, 0] + B[1, 0]) <= 1e-14 * scale and abs(B[0, 1] + B[1, 1]) <= 1e-14 * scale
    sym = 0.5 * (B + B.T)
    psd = bool(np.min(np.linalg.eigvalsh(sym)) >= -1e-12 * scale)
    return compatible, psd


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """Continuous model data for the coupled pair of advection-diffusion problems."""

    nu: tuple = (1.0, 1.0)
    advection: tuple = (AdvectionSpec(), AdvectionSpec())
    B: np.ndarray = dataclasses.field(default_factory=lambda: np.array([[1.0, -1.0], [-1.0, 1.0]]))
    f: tuple = (None, None)
    g: tuple = (None, None)
    u0: tuple = (None, None)
    conservation_compatible: bool = dataclasses.field(init=False)
    b_psd: bool = dataclasses.field(init=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float).reshape(2, 2).copy()
        B.flags.writeable = False
        object.__setattr__(self, "B", B)
        if self.nu[0] <= 0 or self.nu[1] <= 0:
            raise ValueError("diffusivities must be positive")
        compat, psd = _b_flags(B)
        if compat:
            xs = np.linspace(0.05, 0.95, 7)
            g = [None if gi is None else (lambda t, gi=gi: gi(xs, t)) for gi in self.g]
            compat = _opposite(g, (0.0, 0.31, 0.77))
        object.__setattr__(self, "conservation_compatible", compat)
        object.__setattr__(self, "b_psd", psd)


@dataclasses.dataclass
class FeOperators:
    """Assembled spatial operators shared by all time-integration machinery.

    load_f[i] maps t to the body-force vector (f_i, phi_j); load_g[i] maps
    t to the interface data vector (g_i, mu_j); None means identically zero.
    Every load takes a 1-D array of nt times and gives their (nt, d)
    values; from_matrices adapts per-time callables to that form.  The
    loads that assemble builds also take a scalar time, giving a (d,)
    vector.  f_vec, g_vec and g_trace follow the loads' convention.
    """

    M: tuple
    L: tuple
    T: tuple
    M_gamma: sp.csr_matrix
    B: np.ndarray
    A: tuple | None = None
    B_adv: tuple | None = None
    load_f: tuple = (None, None)
    load_g: tuple = (None, None)
    u0: tuple | None = None
    h: float = 1.0
    conservation_compatible: bool = True
    b_psd: bool = True
    _mg_lu: object = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self_d = tuple(m.shape[0] for m in self.M)
        for i in range(2):
            if self.L[i].shape != (self_d[i], self_d[i]):
                raise ValueError(f"L[{i}] shape {self.L[i].shape} != mass shape")
            if self.T[i].shape != (self.d_gamma, self_d[i]):
                raise ValueError(f"T[{i}] shape {self.T[i].shape} inconsistent with interface")
        if self.M_gamma.shape[0] != self.M_gamma.shape[1]:
            raise ValueError("interface mass must be square")
        if self.u0 is None:
            self.u0 = tuple(np.zeros(d) for d in self_d)
        for i in range(2):
            if len(self.u0[i]) != self_d[i]:
                raise ValueError(f"u0[{i}] has wrong length")
        self.B = np.asarray(self.B, dtype=float).reshape(2, 2)

    @property
    def d_omega(self) -> tuple:
        return tuple(m.shape[0] for m in self.M)

    @property
    def d_gamma(self) -> int:
        return self.M_gamma.shape[0]

    @property
    def has_f(self) -> bool:
        return any(fn is not None for fn in self.load_f)

    @property
    def has_g(self) -> bool:
        return any(fn is not None for fn in self.load_g)

    def f_vec(self, i: int, t) -> np.ndarray:
        """Body-force vector at a time, (d,), or at a 1-D array of times, (nt, d)."""
        return _load_or_zero(self.load_f[i], t, self.d_omega[i])

    def g_vec(self, i: int, t) -> np.ndarray:
        """Interface data vector at a time, (d_gamma,), or at times, (nt, d_gamma)."""
        return _load_or_zero(self.load_g[i], t, self.d_gamma)

    def g_trace(self, i: int, t) -> np.ndarray:
        """M_gamma^-1 g_vec(i, t): the interface data as a trace, shaped as g_vec.

        The interface mass is factorized once, on the first call.
        """
        if self._mg_lu is None:
            self._mg_lu = factorize(self.M_gamma)
        return self._mg_lu.solve(self.g_vec(i, t).T).T


def _load_or_zero(fn, t, d: int) -> np.ndarray:
    if fn is None:
        return np.zeros(np.shape(t) + (d,))
    return np.asarray(fn(t), dtype=float)


def _per_time(fn):
    """Load of a per-time callable t -> (d,): one call per time of a 1-D array."""
    if fn is None:
        return None
    return lambda ts: np.stack([np.asarray(fn(t), dtype=float) for t in ts]).reshape(len(ts), -1)


def local_mass(hx: float, hy: float) -> np.ndarray:
    """Element mass matrix of a hx-by-hy bilinear quad."""
    _, _, W, N, _, _ = _shape_table(N_GP_MATRIX)
    detj = hx * hy / 4.0
    return detj * (N * W) @ N.T


def local_stiffness(hx: float, hy: float, nu: float = 1.0) -> np.ndarray:
    """Element diffusion matrix; its rows sum to zero (constants in the kernel)."""
    _, _, W, _, dNxi, dNeta = _shape_table(N_GP_MATRIX)
    detj = hx * hy / 4.0
    gx, gy = (2.0 / hx) * dNxi, (2.0 / hy) * dNeta
    return nu * detj * ((gx * W) @ gx.T + (gy * W) @ gy.T)


def _assemble_domain(mesh: Mesh, nu: float, adv: AdvectionSpec):
    """(M, A, B_adv) on the free dofs of one subdomain."""
    xi, eta, W, N, dNxi, dNeta = _shape_table(N_GP_MATRIX)
    hx, hy = mesh.hx, mesh.hy
    detj = hx * hy / 4.0
    gx, gy = (2.0 / hx) * dNxi, (2.0 / hy) * dNeta
    dofs = mesh.free_dof[mesh.quads]  # (nel, 4)
    rows = np.broadcast_to(dofs[:, :, None], dofs.shape + (4,))
    cols = np.broadcast_to(dofs[:, None, :], rows.shape)
    valid = (rows >= 0) & (cols >= 0)
    if adv.is_zero:
        b_loc = np.zeros(rows.shape)
    else:
        origins = mesh.nodes[mesh.quads[:, 0]]
        sx, sy = adv.velocity(mesh.subdomain)(
            origins[:, :1] + hx * (1 + xi) / 2.0, origins[:, 1:] + hy * (1 + eta) / 2.0
        )  # (nel, ngp)
        # divergence form: rows test, cols trial; all presets have div s = 0
        conv = sx[:, None, :] * gx + sy[:, None, :] * gy
        b_loc = (detj * (N * W))[None] @ conv.transpose(0, 2, 1)

    def build(local):
        vals = np.broadcast_to(local, rows.shape)[valid]
        return sp.coo_matrix(
            (vals, (rows[valid], cols[valid])), shape=(mesh.n_free, mesh.n_free)
        ).tocsr()

    return build(local_mass(hx, hy)), build(local_stiffness(hx, hy, nu)), build(b_loc)


def _interface_segments(mesh: Mesh, imap: InterfaceMap) -> np.ndarray:
    """(nx, 2) interface slots of the end nodes of each interface segment, -1 for none."""
    iy = 0 if mesh.subdomain == 1 else mesh.ny
    left = iy * (mesh.nx + 1) + np.arange(mesh.nx)
    slot = np.full(len(mesh.nodes), -1, dtype=int)
    slot[mesh.interface_nodes] = np.arange(imap.d_gamma)
    return np.stack([slot[left], slot[left + 1]], axis=1)


def _interface_mass(mesh: Mesh, imap: InterfaceMap) -> sp.csr_matrix:
    """1D mass matrix of the interface trace space (zero at the endpoints)."""
    d_gamma = imap.d_gamma
    if d_gamma == 0:
        return sp.csr_matrix((0, 0))
    seg = _interface_segments(mesh, imap)
    loc = (mesh.hx / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    rows = np.broadcast_to(seg[:, :, None], (len(seg), 2, 2))
    cols = np.broadcast_to(seg[:, None, :], rows.shape)
    vals = np.broadcast_to(loc, rows.shape)
    valid = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (vals[valid], (rows[valid], cols[valid])), shape=(d_gamma, d_gamma)
    ).tocsr()


def _quadrature_load(fn: Callable, points: tuple, dofs: np.ndarray, local: np.ndarray, n_rows: int):
    """Load t -> Q @ fn(*points, t) of pointwise data fn, for a time or an array of times.

    points are the (ncell, ngp) coordinate arrays of the quadrature points;
    dofs (ncell, nloc) holds the row of each local shape function (negative
    for none) and local (nloc, ngp) its values times the quadrature weights,
    so Q[dofs[c, a], c * ngp + g] = local[a, g].  A Separable fn is
    integrated in space here, once: the load is then b(t) @ F with
    F[k] = Q @ a_k(*points).  Any other fn must broadcast an array t of
    shape (nt, 1, 1) against the points.
    """
    shape = points[0].shape
    vals = np.broadcast_to(local[None], dofs.shape + shape[1:])
    cols = np.broadcast_to(np.arange(points[0].size).reshape(shape)[:, None, :], vals.shape)
    rows = np.broadcast_to(dofs[:, :, None], vals.shape)
    valid = rows >= 0
    Q = sp.csr_matrix((vals[valid], (rows[valid], cols[valid])), shape=(n_rows, points[0].size))

    if isinstance(fn, Separable):
        spatial = [np.broadcast_to(np.asarray(a(*points), dtype=float), shape) for a, _ in fn.terms]
        F = np.stack([Q @ values.ravel() for values in spatial])  # (K, n_rows)

        def separable_load(t) -> np.ndarray:
            return fn.time_factors(np.asarray(t, dtype=float)) @ F

        return separable_load

    def load(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        pointwise = np.broadcast_to(fn(*points, t[..., None, None]), t.shape + shape)
        flat = np.asarray(pointwise, dtype=float).reshape(-1, Q.shape[1])
        return (Q @ flat.T).T.reshape(t.shape + (n_rows,))

    return load


def _volume_load(mesh: Mesh, f: Callable) -> Callable:
    """t -> vector of (f(., t), phi_j) over the free dofs, also for an array of times."""
    xi, eta, W, N, _, _ = _shape_table(N_GP_LOAD)
    hx, hy = mesh.hx, mesh.hy
    origins = mesh.nodes[mesh.quads[:, 0]]
    XG = origins[:, :1] + hx * (1 + xi)[None, :] / 2.0  # (nel, ngp)
    YG = origins[:, 1:] + hy * (1 + eta)[None, :] / 2.0
    local = (hx * hy / 4.0) * N * W  # (4, ngp)
    return _quadrature_load(f, (XG, YG), mesh.free_dof[mesh.quads], local, mesh.n_free)


def _interface_load(mesh: Mesh, imap: InterfaceMap, g: Callable) -> Callable:
    """t -> vector of (g(., t), mu_j) over the interface unknowns, also for an array of times."""
    x1, w1 = gauss_rule(N_GP_LOAD)
    hx = mesh.hx
    XG = np.arange(mesh.nx)[:, None] * hx + hx * (1 + x1)[None, :] / 2.0  # (nseg, ngp)
    local = (hx / 2.0) * np.stack([(1 - x1) / 2.0, (1 + x1) / 2.0]) * w1  # (2, ngp)
    return _quadrature_load(g, (XG,), _interface_segments(mesh, imap), local, imap.d_gamma)


def assemble(mesh1: Mesh, mesh2: Mesh, imap: InterfaceMap, spec: ProblemSpec) -> FeOperators:
    """Assemble all spatial operators for a matched mesh pair."""
    meshes = (mesh1, mesh2)
    M, A, B_adv, L, T, u0 = [], [], [], [], [], []
    for i, mesh in enumerate(meshes):
        Mi, Ai, Bi = _assemble_domain(mesh, spec.nu[i], spec.advection[i])
        M.append(Mi)
        A.append(Ai)
        B_adv.append(Bi)
        L.append((Ai + Bi).tocsr())
        dofs = imap.dofs_1 if i == 0 else imap.dofs_2
        Ti = sp.coo_matrix(
            (np.ones(len(dofs)), (np.arange(len(dofs)), dofs)),
            shape=(imap.d_gamma, mesh.n_free),
        ).tocsr()
        T.append(Ti)
        if spec.u0[i] is not None:
            free_nodes = np.flatnonzero(mesh.free_dof >= 0)
            xy = mesh.nodes[free_nodes]
            u0.append(np.asarray(spec.u0[i](xy[:, 0], xy[:, 1]), dtype=float))
        else:
            u0.append(np.zeros(mesh.n_free))
        peclet = _cell_peclet(mesh, spec.nu[i], spec.advection[i])
        if peclet > 2.0:
            log.info("subdomain %d: cell Peclet number %.2f (advection-dominated)", i + 1, peclet)

    M_gamma = _interface_mass(mesh1, imap)
    load_f = tuple(
        _volume_load(meshes[i], spec.f[i]) if spec.f[i] is not None else None for i in range(2)
    )
    load_g = tuple(
        _interface_load(meshes[i], imap, spec.g[i]) if spec.g[i] is not None else None
        for i in range(2)
    )
    return FeOperators(
        M=tuple(M),
        L=tuple(L),
        T=tuple(T),
        M_gamma=M_gamma,
        B=spec.B,
        A=tuple(A),
        B_adv=tuple(B_adv),
        load_f=load_f,
        load_g=load_g,
        u0=tuple(u0),
        h=max(mesh1.h, mesh2.h),
        conservation_compatible=spec.conservation_compatible,
        b_psd=spec.b_psd,
    )


def _cell_peclet(mesh: Mesh, nu: float, adv: AdvectionSpec) -> float:
    if adv.is_zero:
        return 0.0
    xs = np.linspace(0, 1, 9)
    ys = np.linspace(0, 1, 9) if mesh.subdomain == 1 else np.linspace(-1, 0, 9)
    X, Y = np.meshgrid(xs, ys)
    sx, sy = adv.velocity(mesh.subdomain)(X, Y)
    smax = float(np.max(np.hypot(sx, sy)))
    return smax * max(mesh.hx, mesh.hy) / (2.0 * nu)


def _check_spd(name: str, mat) -> None:
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)
    if dense.size == 0:
        return
    if np.max(np.abs(dense - dense.T)) > _SYM_TOL * max(1.0, np.max(np.abs(dense))):
        raise ValueError(f"{name} is not symmetric")
    try:
        np.linalg.cholesky(dense)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{name} is not positive definite") from err


def from_matrices(
    M1,
    L1,
    T1,
    M2,
    L2,
    T2,
    M_gamma,
    B,
    *,
    load_f=(None, None),
    load_g=(None, None),
    u0=None,
) -> FeOperators:
    """Matrix-defined backdoor for toy systems; bypasses any mesh.

    Mass matrices (volume and interface) must be symmetric positive
    definite.  load_f / load_g supply already-assembled load vectors as
    per-time functions t -> (d,); the operators wrap each one into a load
    that takes a 1-D array of times and calls it once per time.  Conservation
    compatibility is judged from B and, when interface loads are present,
    from samples of their sum.
    """
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in (M1, L1, T1, M2, L2, T2, M_gamma)]
    M1, L1, T1, M2, L2, T2, M_gamma = mats
    _check_spd("M1", M1)
    _check_spd("M2", M2)
    _check_spd("M_gamma", M_gamma)
    B = np.asarray(B, dtype=float).reshape(2, 2)
    compat, psd = _b_flags(B)
    compat = compat and _opposite(load_g, (0.0, 0.37, 1.0))
    return FeOperators(
        M=(sp.csr_matrix(M1), sp.csr_matrix(M2)),
        L=(sp.csr_matrix(L1), sp.csr_matrix(L2)),
        T=(sp.csr_matrix(T1), sp.csr_matrix(T2)),
        M_gamma=sp.csr_matrix(M_gamma),
        B=B,
        load_f=tuple(_per_time(fn) for fn in load_f),
        load_g=tuple(_per_time(fn) for fn in load_g),
        u0=u0,
        conservation_compatible=compat,
        b_psd=psd,
    )
