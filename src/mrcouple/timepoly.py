"""Polynomials in time over a fixed interval, in a Legendre modal basis.

Everything downstream (substep states, interface traces, window fluxes)
is a vector-valued polynomial in time.  Representing them in shifted
Legendre modes keeps L2 projection, truncation and orthogonality checks
diagonal, and makes the side-condition solvability matrix a plain
Vandermonde-like evaluation table.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np

__all__ = [
    "SchemeError",
    "Interval",
    "TimePoly",
    "SchemeSpec",
    "DtildeReport",
    "legendre_eval",
    "legendre_table",
    "gauss_rule",
    "gauss_on",
    "derivative_overlap",
    "project_l2",
    "project_l2_broken",
    "build_dtilde",
    "j_decompose",
    "j_reconstruct",
    "j_norm",
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

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def to_reference(self, t):
        """Map physical time onto the reference interval [-1, 1]."""
        return 2.0 * (np.asarray(t, dtype=float) - self.a) / self.length - 1.0

    def from_reference(self, x):
        return self.a + 0.5 * (np.asarray(x, dtype=float) + 1.0) * self.length

    def close_to(self, other: "Interval", rtol: float = 1e-12) -> bool:
        scale = max(1.0, abs(self.a), abs(self.b))
        return abs(self.a - other.a) <= rtol * scale and abs(self.b - other.b) <= rtol * scale


def legendre_eval(j: int, x):
    """Value of the degree-j Legendre polynomial, normalized so P_j(1) = 1."""
    if j < 0:
        raise ValueError("mode index must be nonnegative")
    x = np.asarray(x, dtype=float)
    if j == 0:
        return np.ones_like(x) if x.ndim else 1.0
    pm, p = np.ones_like(x), x.copy()
    for n in range(1, j):
        pm, p = p, ((2 * n + 1) * x * p - n * pm) / (n + 1)
    return p if x.ndim else float(p)


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


@dataclasses.dataclass(frozen=True)
class TimePoly:
    """Vector-valued polynomial on an interval, one Legendre mode per row.

    coeffs has shape (order+1, ncols); column k is the time evolution of
    spatial degree of freedom k.  Evaluation outside the interval is the
    natural polynomial extension.
    """

    interval: Interval
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("coeffs must be a 2-d array with at least one mode row")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def ncols(self) -> int:
        return self.coeffs.shape[1]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        tab = legendre_table(self.order, self.interval.to_reference(t))
        vals = np.tensordot(tab, self.coeffs, axes=(0, 0))
        # tensordot puts the mode contraction first: shape t.shape + (ncols,)
        return vals if t.ndim else vals.reshape(self.ncols)

    def left(self) -> np.ndarray:
        return self(self.interval.a)

    def right(self) -> np.ndarray:
        return self(self.interval.b)

    def _compatible(self, other: "TimePoly"):
        if self.ncols != other.ncols or not self.interval.close_to(other.interval):
            raise ValueError("polynomials live on different intervals or sizes")

    def __add__(self, other: "TimePoly") -> "TimePoly":
        self._compatible(other)
        n = max(self.order, other.order) + 1
        c = np.zeros((n, self.ncols))
        c[: self.order + 1] += self.coeffs
        c[: other.order + 1] += other.coeffs
        return TimePoly(self.interval, c)

    def __sub__(self, other: "TimePoly") -> "TimePoly":
        return self + other.scaled(-1.0)

    def scaled(self, s: float) -> "TimePoly":
        return TimePoly(self.interval, s * self.coeffs)

    def truncated(self, k: int) -> "TimePoly":
        """L2 projection onto order k; in modal form a row truncation."""
        if k < 0:
            raise ValueError("target order must be nonnegative")
        if k >= self.order:
            return self
        return TimePoly(self.interval, self.coeffs[: k + 1])

    def padded(self, k: int) -> "TimePoly":
        if k <= self.order:
            return self
        c = np.zeros((k + 1, self.ncols))
        c[: self.order + 1] = self.coeffs
        return TimePoly(self.interval, c)

    def l2_norm_sq(self, weight=None) -> float:
        """Integral of |p(t)|^2 dt, optionally with a spatial weight matrix."""
        total = 0.0
        for j in range(self.order + 1):
            cj = self.coeffs[j]
            sq = float(cj @ (weight @ cj)) if weight is not None else float(cj @ cj)
            total += sq * self.interval.length / (2 * j + 1)
        return total

    def derivative(self) -> "TimePoly":
        """Time derivative, exact in the modal representation."""
        if self.order == 0:
            return TimePoly(self.interval, np.zeros((1, self.ncols)))
        c = np.zeros((self.order, self.ncols))
        for j in range(self.order):
            for m in range(j + 1, self.order + 1):
                if (m - j) % 2 == 1:
                    c[j] += (2 * j + 1) * self.coeffs[m]
        return TimePoly(self.interval, 2.0 / self.interval.length * c)


def project_l2(f, interval: Interval, k: int, *, npts: int | None = None) -> TimePoly:
    """L2-orthogonal projection of f onto polynomials of order k.

    f may be a TimePoly (projected exactly via a Gauss rule of matching
    degree, regardless of its own interval) or a callable t -> vector.
    For callables the default 32-point rule is exact for any polynomial
    input of order <= 63 and accurate to roundoff for analytic f; pass
    npts explicitly for rough integrands.
    """
    if k < 0:
        raise ValueError("target order must be nonnegative")
    if isinstance(f, TimePoly):
        n = points_for_degree(f.order + k)
        fn, ncols = f, f.ncols
    else:
        n = npts if npts is not None else 32
        fn = f
        ncols = np.atleast_1d(np.asarray(f(interval.midpoint), dtype=float)).size
    t, w = gauss_on(interval, n)
    vals = np.stack([np.atleast_1d(np.asarray(fn(ti), dtype=float)).reshape(ncols) for ti in t])
    tab = legendre_table(k, interval.to_reference(t))
    coeffs = np.empty((k + 1, ncols))
    for j in range(k + 1):
        coeffs[j] = (2 * j + 1) / interval.length * ((w * tab[j]) @ vals)
    return TimePoly(interval, coeffs)


def project_l2_broken(pieces: Sequence[TimePoly], k: int) -> TimePoly:
    """Project a piecewise polynomial, given as contiguous tiles, onto order k.

    The integrals on the right side split piece by piece, where a Gauss rule
    of matching degree is exact, so the result carries no quadrature error.
    """
    if not pieces:
        raise ValueError("no pieces given")
    ncols = pieces[0].ncols
    for p, q in zip(pieces, pieces[1:]):
        scale = max(1.0, abs(p.interval.b))
        if abs(p.interval.b - q.interval.a) > 1e-12 * scale or q.ncols != ncols:
            raise ValueError("pieces do not tile the window contiguously")
    window = Interval(pieces[0].interval.a, pieces[-1].interval.b)
    coeffs = np.zeros((k + 1, ncols))
    for piece in pieces:
        t, w = gauss_on(piece.interval, points_for_degree(piece.order + k))
        vals = piece(t)
        tab = legendre_table(k, window.to_reference(t))
        for j in range(k + 1):
            coeffs[j] += (w * tab[j]) @ vals
    for j in range(k + 1):
        coeffs[j] *= (2 * j + 1) / window.length
    return TimePoly(window, coeffs)


@dataclasses.dataclass(frozen=True)
class DtildeReport:
    """Solvability table for the side conditions of a scheme.

    Entry (j, k) is P_{k+1+q-n_s} evaluated at 2*theta_j - 1; the scheme's
    decompose/reconstruct pair is a bijection exactly when this matrix is
    nonsingular.
    """

    matrix: np.ndarray
    determinant: float
    nonsingular: bool


def _dtilde_matrix(q: int, thetas: Sequence[float]) -> np.ndarray:
    n_s = len(thetas)
    mat = np.empty((n_s, n_s))
    for j, theta in enumerate(thetas):
        x = 2.0 * theta - 1.0
        for k in range(n_s):
            mat[j, k] = legendre_eval(k + 1 + q - n_s, x)
    return mat


def _dtilde_report(q: int, thetas: Sequence[float]) -> DtildeReport:
    if len(thetas) == 0:
        return DtildeReport(np.zeros((0, 0)), 1.0, True)
    mat = _dtilde_matrix(q, thetas)
    det = float(np.linalg.det(mat))
    scale = float(np.linalg.norm(mat))
    return DtildeReport(mat, det, abs(det) > DTILDE_RTOL * max(scale, 1e-300))


@dataclasses.dataclass(frozen=True)
class SchemeSpec:
    """Definition of a single-step-family time scheme.

    q is the trial polynomial order, n_s the number of pointwise side
    conditions at nodes theta_k (relative to the step), k_s how many side
    values the conditions reach back, and D the n_s x (k_s+1) coefficient
    matrix: value at node k equals sum_l D[k, l] * U^{n+1-l}.

    Construction rejects schemes with non-finite nodes or D, or whose
    side-condition table is singular, unless unsafe_diagnostic is set
    (then reconstruction will fail instead).
    """

    q: int
    n_s: int
    k_s: int
    thetas: tuple
    D: np.ndarray
    name: str = ""
    unsafe_diagnostic: bool = False
    dtilde: DtildeReport = dataclasses.field(init=False, repr=False, compare=False)

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
        report = _dtilde_report(self.q, thetas) if consistent else _dtilde_report(0, ())
        object.__setattr__(self, "dtilde", report)
        if not report.nonsingular:
            problems.append(
                "side-condition check failed: the Legendre evaluation matrix at the "
                f"given nodes is singular (det={report.determinant:.3e})"
            )
        if problems and not self.unsafe_diagnostic:
            raise SchemeError("; ".join(problems))
        D.flags.writeable = False

    @property
    def test_order(self) -> int:
        """Order of the variational test space, q + 1 - n_s."""
        return self.q + 1 - self.n_s

    def side_times(self, interval: Interval) -> np.ndarray:
        """Physical times of the side conditions for one substep."""
        return interval.a + np.asarray(self.thetas) * interval.length


def build_dtilde(spec: SchemeSpec) -> DtildeReport:
    """Side-condition solvability report for a scheme (empty table if n_s=0)."""
    return _dtilde_report(spec.q, spec.thetas)


def j_decompose(v: TimePoly, spec: SchemeSpec):
    """Split an order-q polynomial into its low-order projection plus samples.

    Returns (projection, samples): the L2 projection onto order q - n_s
    (None when n_s = q + 1) and the values at the side-condition times.
    """
    if v.order != spec.q:
        raise ValueError(f"polynomial order {v.order} does not match scheme q={spec.q}")
    proj = None if spec.n_s == spec.q + 1 else v.truncated(spec.q - spec.n_s)
    samples = [v(t) for t in spec.side_times(v.interval)]
    return proj, samples


def j_reconstruct(projection, samples, spec: SchemeSpec, interval: Interval | None = None) -> TimePoly:
    """Invert j_decompose; requires the scheme's side-condition table nonsingular."""
    if not spec.dtilde.nonsingular:
        raise SchemeError("cannot reconstruct: side-condition matrix is singular")
    if len(samples) != spec.n_s:
        raise ValueError(f"expected {spec.n_s} samples, got {len(samples)}")
    if projection is None:
        if spec.n_s != spec.q + 1:
            raise ValueError("projection may be omitted only when n_s = q + 1")
        if interval is None:
            raise ValueError("interval required when no projection is given")
        ncols = np.atleast_1d(np.asarray(samples[0])).size
    else:
        interval = projection.interval
        ncols = projection.ncols
    coeffs = np.zeros((spec.q + 1, ncols))
    if projection is not None:
        coeffs[: projection.order + 1] = projection.coeffs
    if spec.n_s == 0:
        return TimePoly(interval, coeffs)
    x = 2.0 * np.asarray(spec.thetas) - 1.0
    tab = legendre_table(spec.q, x)  # (q+1, n_s)
    rhs = np.stack([np.atleast_1d(np.asarray(s, dtype=float)).reshape(ncols) for s in samples])
    known = tab[: spec.q + 1 - spec.n_s].T @ coeffs[: spec.q + 1 - spec.n_s]
    unknown = np.linalg.solve(spec.dtilde.matrix, rhs - known)
    coeffs[spec.q + 1 - spec.n_s :] = unknown
    return TimePoly(interval, coeffs)


def j_norm(projection, samples, dt: float, *, weighted: bool = True) -> float:
    """Norm of a decomposed pair; with weighted=True samples carry a dt factor."""
    total = projection.l2_norm_sq() if projection is not None else 0.0
    factor = dt if weighted else 1.0
    for s in samples:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        total += factor * float(s @ s)
    return math.sqrt(total)


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
