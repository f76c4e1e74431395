"""Polynomials in time over a fixed interval, in a Legendre modal basis.

Everything downstream (substep states, interface traces, window fluxes)
is a vector-valued polynomial in time, held as a plain (order + 1, ncols)
array of Legendre coefficients on its interval, one mode per row;
np.tensordot(legendre_table(order, interval.to_reference(t)), coeffs,
axes=(0, 0)) evaluates one.  Shifted Legendre modes keep L2 projection,
truncation and orthogonality checks diagonal, and makes the side-condition solvability matrix a plain
Vandermonde-like evaluation table.  One table, cross_moments, holds the
moments of substep modes against window modes, under the exact or the
trapezoid rule: project_pieces(edges, coeffs, k, quadrature), the one
projection of a piecewise polynomial (the window traces and the
reference fill use it), and the window assembly's flux rows and columns
all read it.  project_l2 projects a callable, such as interface data.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy.linalg import block_diag

__all__ = [
    "SchemeError",
    "Interval",
    "SchemeSpec",
    "DtildeReport",
    "legendre_table",
    "gauss_rule",
    "gauss_on",
    "derivative_overlap",
    "cross_moments",
    "project_l2",
    "project_pieces",
    "crank_nicolson",
    "backward_euler",
    "dg",
    "downwind",
    "continuous_galerkin",
    "shipped_schemes",
]

#: |det| below this multiple of ||Dtilde||_F counts as singular.
DTILDE_RTOL = 1e-12

_DEGENERATE_RTOL = 1e-14


class SchemeError(ValueError):
    """Raised for ill-posed time-stepping scheme definitions."""


@dataclasses.dataclass(frozen=True)
class Interval:
    """Open time interval (a, b) with a < b and non-degenerate length."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval endpoints must be finite, got ({a}, {b})")
        scale = max(1.0, abs(a), abs(b))
        if not b - a > _DEGENERATE_RTOL * scale:
            raise ValueError(f"degenerate interval ({a}, {b})")

    @property
    def length(self) -> float:
        return self.b - self.a

    def to_reference(self, t):
        """Map physical time onto the reference interval [-1, 1]."""
        return 2.0 * (np.asarray(t, dtype=float) - self.a) / self.length - 1.0

    def from_reference(self, x):
        return self.a + 0.5 * (np.asarray(x, dtype=float) + 1.0) * self.length


def legendre_table(order: int, x) -> np.ndarray:
    """Stack P_0(x)..P_order(x); shape (order+1,) + shape(x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((order + 1,) + x.shape)
    out[0] = 1.0
    if order >= 1:
        out[1] = x
    for n in range(1, order):
        out[n + 1] = ((2 * n + 1) * x * out[n] - n * out[n - 1]) / (n + 1)
    return out


@functools.cache
def gauss_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], exact to degree 2n-1.

    Cached per point count; the arrays are read-only and shared by callers.
    """
    if n < 1:
        raise ValueError("quadrature rule needs at least one point")
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_on(interval: Interval, n: int):
    """Gauss rule mapped onto an interval (weights include the Jacobian)."""
    x, w = gauss_rule(n)
    return interval.from_reference(x), 0.5 * interval.length * w


def points_for_degree(deg: int) -> int:
    """Smallest Gauss point count integrating polynomials of this degree exactly."""
    return max(1, (deg + 2) // 2)


def derivative_overlap(trial_order: int, test_order: int) -> np.ndarray:
    """G[j, m] = integral of P_j * P_m' over [-1, 1].

    Equals 2 when m > j with odd m - j, else 0; independent of the
    physical interval because the Jacobians of dt and d/dt cancel.
    """
    G = np.zeros((trial_order + 1, test_order + 1))
    for j in range(trial_order + 1):
        for m in range(j + 1, test_order + 1):
            if (m - j) % 2 == 1:
                G[j, m] = 2.0
    return G


def cross_moments(
    edges: np.ndarray, window: Interval, order_sub: int, order_win: int, quadrature: str = "exact"
) -> np.ndarray:
    """X[n, a, b] = integral over substep n of P_a(substep) * P_b(window) dt.

    Substep n runs from edges[n] to edges[n + 1]; the table couples
    window-scale flux modes to substep-scale test and trial modes.  The
    exact rule is a Gauss rule exact for the polynomial integrand; the
    trapezoid rule replaces each substep integral by dt/2 * [value(a) +
    value(b)], equal to the exact table whenever the integrand has degree
    <= 1.  Shape (M, order_sub + 1, order_win + 1).
    """
    a, b = edges[:-1, None], edges[1:, None]
    length = b - a
    if quadrature == "trapezoid":
        t, w = np.hstack([a, b]), 0.5 * length * np.ones(2)
    else:
        x, w = gauss_rule(points_for_degree(order_sub + order_win))
        t, w = a + 0.5 * (x + 1.0) * length, 0.5 * length * w
    tab_s = legendre_table(order_sub, 2.0 * (t - a) / length - 1.0)  # (order_sub+1, M, pts)
    tab_w = legendre_table(order_win, window.to_reference(t))
    return np.matmul(tab_s.transpose(1, 0, 2) * w[:, None, :], tab_w.transpose(1, 2, 0))


def project_l2(f, interval: Interval, k: int) -> np.ndarray:
    """L2-orthogonal projection of a callable t -> vector onto polynomials of order k.

    Returns the (k + 1, ncols) Legendre coefficients on the interval.  f is
    called once per point of a 32-point Gauss rule, which is exact for
    polynomial input whose order plus k is at most 63 and accurate to
    roundoff for analytic f.  Raises ValueError if the projection is not
    finite.
    """
    if k < 0:
        raise ValueError("target order must be nonnegative")
    t, w = gauss_on(interval, 32)
    vals = np.stack([np.ravel(np.asarray(f(ti), dtype=float)) for ti in t])
    tab = legendre_table(k, interval.to_reference(t))
    coeffs = np.empty((k + 1, vals.shape[1]))
    for j in range(k + 1):
        coeffs[j] = (2 * j + 1) / interval.length * ((w * tab[j]) @ vals)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"projection onto ({interval.a}, {interval.b}) is not finite")
    return coeffs


def project_pieces(edges, coeffs: np.ndarray, k: int, quadrature: str = "exact") -> np.ndarray:
    """Order-k L2 projection of a piecewise polynomial onto (edges[0], edges[-1]).

    Piece n runs from edges[n] to edges[n + 1] with Legendre coefficients
    coeffs[n], shape (order + 1, ncols); a piece of lower order comes
    padded with zero rows.  The integrals on the right side split piece by
    piece under the cross_moments rule named by quadrature: the exact rule
    leaves the (k + 1, ncols) result no quadrature error, the trapezoid
    rule takes each piece's length times the average of the integrand at
    its ends.
    """
    if k < 0:
        raise ValueError("target order must be nonnegative")
    edges = np.asarray(edges, dtype=float)
    window = Interval(edges[0], edges[-1])
    X = cross_moments(edges, window, coeffs.shape[1] - 1, k, quadrature)
    scale = (2 * np.arange(k + 1) + 1)[:, None] / window.length
    return scale * np.einsum("nac,nab->bc", coeffs, X)


@dataclasses.dataclass(frozen=True)
class DtildeReport:
    """Solvability table for the side conditions of a scheme.

    Entry (j, k) is P_{k+1+q-n_s} evaluated at 2*theta_j - 1; the scheme's
    node_map exists exactly when this matrix is nonsingular.
    """

    matrix: np.ndarray
    determinant: float
    nonsingular: bool


def _dtilde_report(table: np.ndarray) -> DtildeReport:
    det = float(np.linalg.det(table))  # 1 for the empty table of n_s = 0
    scale = float(np.linalg.norm(table))
    return DtildeReport(table, det, abs(det) > DTILDE_RTOL * max(scale, 1e-300))


@dataclasses.dataclass(frozen=True)
class SchemeSpec:
    """Definition of a single-step-family time scheme.

    q is the trial polynomial order, n_s the number of pointwise side
    conditions at nodes theta_k (relative to the step), k_s how many side
    values the conditions reach back, and D the n_s x (k_s+1) coefficient
    matrix: value at node k equals sum_l D[k, l] * U^{n+1-l}.

    Construction raises SchemeError for schemes with non-finite nodes or
    D, or whose side-condition table is singular (the message gives its
    determinant).

    Computed once: node_map J maps [modes 0..q-n_s, values at the side
    nodes] to the q+1 Legendre coefficients; state_map S = J @
    blockdiag(I, D) maps [modes 0..q-n_s, U^{n+1}, U^n, ...,
    U^{n+1-k_s}] to them.  reach,
    the last nonzero column of D and at least 1, counts the side values
    before its own that a substep reads (the jump term reads one).
    """

    q: int
    n_s: int
    k_s: int
    thetas: tuple
    D: np.ndarray
    name: str = ""
    dtilde: DtildeReport = dataclasses.field(init=False, repr=False, compare=False)
    node_map: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    state_map: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    reach: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        thetas = tuple(float(t) for t in self.thetas)
        D = np.asarray(self.D, dtype=float)
        if D.size == 0:
            D = np.zeros((0, self.k_s + 1))
        D = np.atleast_2d(D)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "D", D)
        problems = []
        if self.q < 0:
            problems.append("trial order q must be >= 0")
        if not 0 <= self.n_s <= self.q + 1:
            problems.append(f"n_s={self.n_s} outside [0, q+1]")
        if self.k_s < 0:
            problems.append("k_s must be >= 0")
        if len(thetas) != self.n_s:
            problems.append(f"expected {self.n_s} side-condition nodes, got {len(thetas)}")
        if any(b - a <= 0 for a, b in zip(thetas, thetas[1:])):
            problems.append("side-condition nodes must be strictly increasing")
        if thetas and thetas[-1] > 1.0:
            problems.append("side-condition nodes must not exceed 1")
        if D.shape != (self.n_s, self.k_s + 1):
            problems.append(f"D has shape {D.shape}, expected ({self.n_s}, {self.k_s + 1})")
        finite = all(math.isfinite(t) for t in thetas)
        if not (finite and np.all(np.isfinite(D))):
            problems.append("side-condition nodes and D must be finite")
        consistent = finite and len(thetas) == self.n_s and 0 <= self.n_s <= self.q + 1
        low = self.q + 1 - self.n_s  # modes below the pinned ones
        # values of the modes at the side nodes; the pinned modes' columns are Dtilde
        psi = legendre_table(self.q, 2.0 * np.asarray(thetas) - 1.0).T if consistent else None
        report = _dtilde_report(psi[:, low:] if consistent else np.zeros((0, 0)))
        object.__setattr__(self, "dtilde", report)
        if not report.nonsingular:
            problems.append(
                "side-condition check failed: the Legendre evaluation matrix at the "
                f"given nodes is singular (det={report.determinant:.3e})"
            )
        if problems:
            raise SchemeError("; ".join(problems))
        J = np.eye(self.q + 1)
        J[low:] = np.linalg.solve(report.matrix, np.hstack([-psi[:, :low], np.eye(self.n_s)]))
        S = J @ block_diag(np.eye(low), D)
        nonzero = np.flatnonzero(np.any(D != 0, axis=0))
        object.__setattr__(self, "reach", max(1, int(nonzero[-1]) if nonzero.size else 1))
        for name, value in (("node_map", J), ("state_map", S), ("D", D)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def test_order(self) -> int:
        """Order of the variational test space, q + 1 - n_s."""
        return self.q + 1 - self.n_s

    def side_times(self, interval: Interval) -> np.ndarray:
        """Physical times of the side conditions for one substep."""
        return interval.a + np.asarray(self.thetas) * interval.length


# ---------------------------------------------------------------------------
# Shipped scheme presets.


def crank_nicolson() -> SchemeSpec:
    """Trapezoidal scheme: linear-in-time states pinned at both step ends."""
    return SchemeSpec(
        q=1, n_s=2, k_s=1, thetas=(0.0, 1.0), D=[[0.0, 1.0], [1.0, 0.0]], name="crank-nicolson"
    )


def backward_euler() -> SchemeSpec:
    """Constant-in-time states pinned at the step end."""
    return SchemeSpec(q=0, n_s=1, k_s=0, thetas=(1.0,), D=[[1.0]], name="backward-euler")


def dg(q: int) -> SchemeSpec:
    """Purely variational scheme of order q with no side conditions."""
    return SchemeSpec(q=q, n_s=0, k_s=0, thetas=(), D=np.zeros((0, 1)), name=f"dg{q}")


def downwind(q: int) -> SchemeSpec:
    """Order-q scheme with one side condition tying the state to U at the step end."""
    return SchemeSpec(q=q, n_s=1, k_s=0, thetas=(1.0,), D=[[1.0]], name=f"downwind{q}")


def continuous_galerkin(q: int) -> SchemeSpec:
    """Order-q scheme pinned at both step ends; q=1 recovers crank_nicolson."""
    if q < 1:
        raise SchemeError("continuous scheme needs q >= 1")
    return SchemeSpec(
        q=q, n_s=2, k_s=1, thetas=(0.0, 1.0), D=[[0.0, 1.0], [1.0, 0.0]], name=f"cg{q}"
    )


def shipped_schemes() -> dict:
    """The named schemes bundled with the package."""
    return {
        "crank-nicolson": crank_nicolson(),
        "backward-euler": backward_euler(),
        "dg1": dg(1),
        "dg2": dg(2),
        "cg2": continuous_galerkin(2),
        "downwind1": downwind(1),
    }
