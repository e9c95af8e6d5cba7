"""Polyhedral cone geometry: validated cones, Gram matrices, eigenvalues,
and the equal-margin ball.

A cone is the intersection of half-spaces {y : (y, a_i) >= 0} through the
origin, described by the unit inward normals a_1, ..., a_n of its walls.
The normals must be linearly independent ("general position"), which makes
the Gram matrix of pairwise inner products positive definite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateArrangement,
    DimensionMismatch,
    InvalidState,
    NotPositiveDefinite,
    ZeroVector,
)

# Unit-norm drift beyond this sets the `renormalized` warning flag.
NORM_WARN_TOL = 1e-6
# Smallest singular value of the normal matrix below this is degenerate.
INDEPENDENCE_TOL = 1e-9
# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53
# Cyclic Jacobi stops once the off-diagonal Frobenius norm is below
# _JACOBI_OFF_TOL, or after _JACOBI_MAX_SWEEPS sweeps.
_JACOBI_OFF_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100


def is_int(x) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _freeze(a) -> np.ndarray:
    """A read-only float64 copy of a, so that the caller's own array stays
    writable."""
    a = np.array(a, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A polyhedral cone in R^m given by n independent unit inward normals.

    `normals` has shape (n, m); row i is the unit normal of wall i.  The
    instance is immutable.  It derives `matrix`, `gram_matrix`, `lambda_min`,
    `basis`, `span` and, for n = m only, `rays` and `ball` once, on first
    use; a copy made by `dataclasses.replace` derives its own.
    """

    dim: int
    normals: np.ndarray
    renormalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "normals", _freeze(self.normals))

    @property
    def n_walls(self) -> int:
        return self.normals.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The (m, n) matrix A whose columns are the wall normals."""
        return _freeze(self.normals.T)

    @cached_property
    def gram_matrix(self) -> "GramMatrix":
        return gram(self)

    @cached_property
    def lambda_min(self) -> float:
        """A certified lower end of the Gram matrix's smallest eigenvalue,
        from `min_eigenvalue`."""
        return min_eigenvalue(self.gram_matrix)

    @cached_property
    def basis(self) -> np.ndarray:
        """`orthonormal_rows` of the normals: a basis of their span, (n, m)."""
        return _freeze(orthonormal_rows(self.normals))

    @property
    def span(self) -> "ConeSpec":
        """The cone in R^n on which its constants are computed: the cone
        itself for n = m, and for n < m `make_cone(n, normals @ basis.T)`,
        built once, where a point y of R^m has coordinates basis @ y."""
        return self if self.n_walls == self.dim else self._in_basis

    @cached_property
    def _in_basis(self) -> "ConeSpec":
        # Apart from `span`, so that a square cone never caches itself.
        return make_cone(self.n_walls, self.normals @ self.basis.T)

    @cached_property
    def rays(self) -> np.ndarray:
        """The inverse of `normals` (n = m, else DimensionMismatch): column k
        is the edge ray r_k, with (r_k, a_j) = 1 for j = k and 0 otherwise."""
        if self.n_walls != self.dim:
            raise DimensionMismatch(f"rays need n = m, got n={self.n_walls}, m={self.dim}")
        try:
            return _freeze(np.linalg.inv(self.normals))
        except np.linalg.LinAlgError as exc:
            raise DegenerateArrangement("normal matrix is singular") from exc

    @cached_property
    def ball(self) -> "InscribedBall":
        """The unit direction e at equal margin d from every wall (n = m),
        from `_solve_ball`."""
        return _solve_ball(self)


@dataclass(frozen=True, eq=False)
class InscribedBall:
    """Unit direction e at margin d from every wall, (e, a_i) = d.

    This is the cone's inscribed ball (the largest ball about a unit
    vector in Q) only when G^{-1} 1 >= 0; otherwise that ball is larger,
    with radius sin S(Q) > d.
    """

    d: float
    e: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e", _freeze(self.e))


def _solve_ball(cone: ConeSpec) -> InscribedBall:
    """Solve (e, a_i) = d for the unit center e and radius d (n = m, else
    DimensionMismatch).

    With A the matrix of normal columns, e^T A = d (1, ..., 1) gives
    d = 1 / ||(1, ..., 1) A^{-1}|| and e^T = d (1, ..., 1) A^{-1}.
    """
    if cone.n_walls != cone.dim:
        raise DimensionMismatch(f"the ball needs n = m, got n={cone.n_walls}, m={cone.dim}")
    a = cone.matrix
    try:
        w = np.linalg.solve(a.T, np.ones(cone.n_walls))
    except np.linalg.LinAlgError as exc:
        raise DegenerateArrangement("normal matrix is singular") from exc
    nrm = float(np.linalg.norm(w))
    d = 1.0 / nrm
    e = w * d
    resid = np.abs(e @ a - d).max()
    if resid > 1e-10:
        raise DegenerateArrangement(f"inscribed-ball residual {resid:.2e} too large")
    return InscribedBall(d=d, e=e)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric matrix of inner products between the wall normals."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if self.order < 1 or e.shape != (self.order, self.order):
            raise DimensionMismatch(
                f"expected a {self.order}x{self.order} matrix, got {e.shape}"
            )
        if not np.isfinite(e).all():
            raise DegenerateArrangement("Gram matrix entries must be finite")
        if np.abs(e - e.T).max(initial=0.0) > 1e-14:
            raise DimensionMismatch("Gram matrix must be symmetric within 1e-14")
        object.__setattr__(self, "entries", _freeze(e))

    @property
    def is_positive_definite(self) -> bool:
        """True when `min_eigenvalue` certifies lambda_min > 0."""
        return min_eigenvalue(self) > 0.0


def as_gram(g) -> GramMatrix:
    """g itself if it is a GramMatrix, else the square array g validated as
    one: DimensionMismatch for a wrong shape or an asymmetric array, and
    DegenerateArrangement for a NaN or infinite entry."""
    if isinstance(g, GramMatrix):
        return g
    e = np.asarray(g, dtype=np.float64)
    return GramMatrix(order=e.shape[0] if e.ndim else 0, entries=e)


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the upper triangle in fixed row-major order, annihilating one
    off-diagonal entry per rotation, until the off-diagonal Frobenius norm
    drops below _JACOBI_OFF_TOL (at most _JACOBI_MAX_SWEEPS sweeps).
    Returns the eigenvalues sorted ascending.  Raises DimensionMismatch
    for a matrix that is not square or is empty and DegenerateArrangement
    for a NaN or infinite entry.  No library route calls it (see
    `min_eigenvalue`); the tests use it as a reference.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = len(a) if a.ndim == 2 else 0
    if n < 1 or a.shape != (n, n):
        raise DimensionMismatch("eigensolver needs a non-empty square matrix")
    if not np.isfinite(a).all():
        raise DegenerateArrangement("eigensolver needs finite entries")
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(max(0.0, (a * a).sum() - (a.diagonal() ** 2).sum()))
        if off < _JACOBI_OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:  # denormal pivots would overflow tau
                    a[p, q] = a[q, p] = 0.0
                    continue
                # Rotation angle that zeroes a[p, q].
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                a[p], a[q] = c * a[p] - s * a[q], s * a[p] + c * a[q]
                a[:, p], a[:, q] = c * a[:, p] - s * a[:, q], s * a[:, p] + c * a[:, q]
                a[p, q] = a[q, p] = 0.0
    return np.sort(a.diagonal(), kind="stable")


def make_cone(dim: int, normals) -> ConeSpec:
    """Validate direction vectors and build a ConeSpec.

    Input vectors are renormalized to unit length; a deviation larger than
    1e-6 only sets the `renormalized` flag.  Raises DegenerateArrangement
    for a NaN or infinite component and unless the smallest singular value
    of the normal matrix is certified above 1e-9 (lambda_min above 1e-18),
    ZeroVector for a (near-)zero input, and DimensionMismatch for a `dim`
    that is not an integer, normals that are not a rectangular array of
    numbers, a wrong component count or more normals than dimensions.
    """
    if not is_int(dim):
        raise DimensionMismatch(f"dim must be an integer, got {dim!r}")
    try:
        raw = np.asarray(normals)
    except ValueError as exc:
        raise DimensionMismatch(f"normals must be a rectangular array: {exc}") from None
    if raw.dtype.kind not in "iuf":
        raise DimensionMismatch(f"normals must be numbers, got {raw.dtype} entries")
    arr = np.atleast_2d(raw.astype(np.float64, copy=False))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(
            f"normals must each have {dim} components, got shape {arr.shape}"
        )
    n = arr.shape[0]
    if n < 1 or n > dim:
        raise DimensionMismatch(f"need 1 <= n <= dim, got n={n}, dim={dim}")
    if not np.isfinite(arr).all():
        raise DegenerateArrangement("normals must have finite components")
    with np.errstate(over="ignore"):  # a length past the float range is inf
        norms = np.linalg.norm(arr, axis=1)
    rows, lengths = arr, norms
    odd = norms == math.inf
    if odd.any():
        # A row whose norm is past the float range is scaled by a power of
        # two near its largest |entry| before its norm is taken, so the
        # squares do not overflow; the scaling is exact, and so is undoing it
        # for the row's length.  No row needs it against underflow: a row of
        # norm 1e-12 or more has an entry whose square does not underflow,
        # and a smaller one is a zero vector.
        _, exponents = np.frexp(np.abs(arr[odd]).max(axis=1))
        rows, lengths = arr.copy(), norms.copy()
        rows[odd] = np.ldexp(arr[odd], -exponents[:, None])
        lengths[odd] = np.linalg.norm(rows[odd], axis=1)
        with np.errstate(over="ignore"):
            norms[odd] = np.ldexp(lengths[odd], exponents)
    if np.any(norms < 1e-12):
        raise ZeroVector("every normal must be a nonzero direction vector")
    flagged = bool(np.any(np.abs(norms - 1.0) > NORM_WARN_TOL))
    unit = rows / lengths[:, None]

    cone = ConeSpec(dim=dim, normals=unit, renormalized=flagged)
    # The one eigenvalue solve of the cone: lambda_min stays memoized.
    sigma_min = math.sqrt(max(cone.lambda_min, 0.0))
    if sigma_min <= INDEPENDENCE_TOL:
        raise DegenerateArrangement(
            f"normals are (numerically) dependent: sigma_min={sigma_min:.3e}"
        )
    return cone


def gram(cone: ConeSpec) -> GramMatrix:
    """Gram matrix (a_i, a_j) of the cone's wall normals."""
    g = cone.normals @ cone.normals.T
    g = 0.5 * (g + g.T)
    return GramMatrix(order=cone.n_walls, entries=g)


def min_eigenvalue(g) -> float:
    """A certified lower end of the smallest eigenvalue of a symmetric matrix
    (GramMatrix, or an array validated by `as_gram`): the larger of
    `_cholesky_end` and `_gershgorin_end`, each rounded toward -inf.

    For a diagonal matrix, such as an orthant's Gram matrix, it is the
    smallest diagonal entry exactly.
    """
    a = as_gram(g).entries
    return max(_cholesky_end(a), _gershgorin_end(a))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """The rows of z scaled to unit length; a row whose norm is below 1e-12
    is left as it is."""
    norms = np.linalg.norm(z, axis=-1)
    norms[norms < 1e-12] = 1.0
    return z / norms[..., None]


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _gamma(k: int) -> float:
    """An upper bound on gamma_k = k u / (1 - k u), u the unit roundoff."""
    ku = k * _UNIT_ROUNDOFF
    return _up(ku / (1.0 - ku))


def _cholesky_end(a: np.ndarray) -> float:
    """A lower end of lambda_min(a) from one LAPACK eigenvalue solve and,
    as a rule, one Cholesky factorization, or -inf.

    With lam the computed smallest eigenvalue and s = 4 gamma_{n+1} tr|a|
    (tr|a| is the sum of the computed |eigenvalues|, tr a for a Gram
    matrix), factor A = fl(a - sigma I) at sigma = lam - s.  If the
    factorization runs to completion with factor L, then A + dA = L L^T
    with |dA| <= gamma_{n+1} |L| |L^T| for any order of its sums, barring
    underflow (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 10.3; Rump, BIT 46, 2006), so L L^T >= 0 gives
    lambda_min(A) >= -gamma_{n+1} ||L||_F^2.  Forming A moves each diagonal
    entry by at most u |A_ii|, so

        lambda_min(a) >= sigma - u max|A_ii| - gamma_{n+1} ||L||_F^2,

    evaluated with every step rounded toward -inf.  Underflow adds at most
    about n^3 2^-1074 to dA, less than the last rounding step takes off any
    end above 1e-280.  When the factorization fails, s doubles, until s
    exceeds tr|a|, and the end is -inf, as it is when tr|a| is past the
    float range.  The computed lam itself is never returned.
    """
    n = len(a)
    lams = np.linalg.eigvalsh(a)
    scale = sum(abs(x) for x in lams.tolist())  # inf past the float range
    gamma = _gamma(n + 1)
    slack = 4.0 * gamma * scale
    while 0.0 < slack <= scale < math.inf:
        sigma = float(lams[0]) - slack
        shifted = a.copy()
        shifted.flat[:: n + 1] -= sigma
        try:
            factor = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            slack *= 2.0
            continue
        # ||L||_F^2 of n^2 squares, summed in any order, is at most the
        # computed sum over 1 - gamma_{n^2}.
        frobenius = _up(float(np.vdot(factor, factor)) / _down(1.0 - _gamma(n * n)))
        diagonal = _up(_UNIT_ROUNDOFF * float(np.abs(shifted.diagonal()).max()))
        return _down(_down(sigma - diagonal) - _up(gamma * frobenius))
    return -math.inf


def _gershgorin_end(a: np.ndarray) -> float:
    """min_i (a_ii - sum_{j != i} |a_ij|), a lower end of lambda_min(a) by
    Gershgorin's theorem, with each step rounded toward -inf.  A row with no
    nonzero off-diagonal entry gives its a_ii exactly."""
    n = len(a)
    off = np.abs(a)
    off.flat[:: n + 1] = 0.0
    radii = off.sum(axis=1)
    if n > 2:
        # A sum of n - 1 terms >= 0 (exact for one term) is at most the
        # computed one times 1 + gamma_{n-1}.
        radii = np.where(radii > 0.0, np.nextafter(radii + radii * _gamma(n - 1), math.inf), 0.0)
    ends = a.diagonal() - radii
    return float(np.where(radii > 0.0, np.nextafter(ends, -math.inf), ends).min())


def require_positive_definite(g) -> float:
    """min_eigenvalue that raises NotPositiveDefinite unless it is > 0."""
    lam = min_eigenvalue(g)
    if lam <= 0.0:
        raise NotPositiveDefinite(f"lambda_min={lam:.3e} <= 0")
    return lam


def orthonormal_rows(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the rows' span by modified Gram-Schmidt, in row
    order; raises DegenerateArrangement for a row within 1e-9 of the span
    of the rows before it."""
    basis = np.zeros(vectors.shape)
    for i, v in enumerate(vectors):
        w = v.copy()
        for b in basis[:i]:
            w -= (w @ b) * b
        nw = np.linalg.norm(w)
        if nw <= INDEPENDENCE_TOL:
            raise DegenerateArrangement("normals are dependent under orthogonalization")
        basis[i] = w / nw
    return basis


def contains(cone: ConeSpec, point, tol: float = 0.0) -> bool:
    """True when (point, a_i) >= -tol for every wall normal a_i.  Raises
    DimensionMismatch for a wrong component count and InvalidState for a
    non-finite component."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (cone.dim,):
        raise DimensionMismatch(f"point must have {cone.dim} components")
    if not np.isfinite(p).all():
        raise InvalidState("point must have finite components")
    return bool((p @ cone.matrix >= -tol).all())
