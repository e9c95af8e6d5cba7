"""Polyhedral cone geometry: validated cones, Gram matrices, eigenvalues.

A cone is the intersection of half-spaces {y : (y, a_i) >= 0} through the
origin, described by the unit inward normals a_1, ..., a_n of its walls.
The normals must be linearly independent ("general position"), which makes
the Gram matrix of pairwise inner products positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateArrangement,
    DimensionMismatch,
    NotPositiveDefinite,
    ZeroVector,
)

# Unit-norm drift beyond this sets the `renormalized` warning flag.
NORM_WARN_TOL = 1e-6
# Smallest singular value of the normal matrix below this is degenerate.
INDEPENDENCE_TOL = 1e-9
# Cyclic Jacobi stops once the off-diagonal Frobenius norm is below
# _JACOBI_OFF_TOL, or after _JACOBI_MAX_SWEEPS sweeps.
_JACOBI_OFF_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 100


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A polyhedral cone in R^m given by n independent unit inward normals.

    `normals` has shape (n, m); row i is the unit normal of wall i.  The
    instance is immutable; derived quantities are memoized lazily.
    """

    dim: int
    normals: np.ndarray
    renormalized: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "normals", _freeze(self.normals))

    @property
    def n_walls(self) -> int:
        return self.normals.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The (m, n) matrix A whose columns are the wall normals."""
        if "matrix" not in self._cache:
            self._cache["matrix"] = _freeze(self.normals.T)
        return self._cache["matrix"]

    @property
    def gram_matrix(self) -> "GramMatrix":
        if "gram" not in self._cache:
            self._cache["gram"] = gram(self)
        return self._cache["gram"]

    @property
    def lambda_min(self) -> float:
        """Minimal eigenvalue of the Gram matrix (memoized)."""
        if "lambda_min" not in self._cache:
            self._cache["lambda_min"] = min_eigenvalue(self.gram_matrix)
        return self._cache["lambda_min"]


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric matrix of inner products between the wall normals."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (self.order, self.order):
            raise DimensionMismatch(
                f"expected a {self.order}x{self.order} matrix, got {e.shape}"
            )
        if np.abs(e - e.T).max(initial=0.0) > 1e-14:
            raise DimensionMismatch("Gram matrix must be symmetric within 1e-14")
        object.__setattr__(self, "entries", _freeze(e))

    @property
    def is_positive_definite(self) -> bool:
        return min_eigenvalue(self) > 0.0


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the upper triangle in fixed row-major order, annihilating one
    off-diagonal entry per rotation, until the off-diagonal Frobenius norm
    drops below _JACOBI_OFF_TOL (at most _JACOBI_MAX_SWEEPS sweeps).
    Returns the eigenvalues sorted ascending.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch("eigensolver needs a square matrix")
    if n == 1:
        return a.diagonal().copy()

    # Rotations run on Python float rows: the same IEEE operations as
    # numpy slices, in the same order, without per-slice call overhead.
    rows = a.tolist()
    for _ in range(_JACOBI_MAX_SWEEPS):
        a = np.array(rows)
        off = math.sqrt(max(0.0, (a * a).sum() - (a.diagonal() ** 2).sum()))
        if off < _JACOBI_OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = rows[p][q]
                if abs(apq) < 1e-300:  # denormal pivots would overflow tau
                    rows[p][q] = 0.0
                    rows[q][p] = 0.0
                    continue
                # Rotation angle that zeroes a[p, q].
                tau = (rows[q][q] - rows[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                row_p = rows[p]
                row_q = rows[q]
                rows[p] = [c * x - s * y for x, y in zip(row_p, row_q)]
                rows[q] = [s * x + c * y for x, y in zip(row_p, row_q)]
                for r in rows:
                    x = r[p]
                    y = r[q]
                    r[p] = c * x - s * y
                    r[q] = s * x + c * y
                rows[p][q] = 0.0
                rows[q][p] = 0.0

    diagonal = np.array([rows[i][i] for i in range(n)])
    return diagonal[np.argsort(diagonal, kind="stable")]


def make_cone(dim: int, normals) -> ConeSpec:
    """Validate direction vectors and build a ConeSpec.

    Input vectors are renormalized to unit length; a deviation larger than
    1e-6 only sets the `renormalized` flag.  Raises DegenerateArrangement
    for a NaN or infinite component and when the smallest singular value
    of the normal matrix is below 1e-9,
    ZeroVector for a (near-)zero input, and DimensionMismatch for a wrong
    component count or more normals than dimensions.
    """
    arr = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatch(
            f"normals must each have {dim} components, got shape {arr.shape}"
        )
    n = arr.shape[0]
    if n < 1 or n > dim:
        raise DimensionMismatch(f"need 1 <= n <= dim, got n={n}, dim={dim}")
    if not np.isfinite(arr).all():
        raise DegenerateArrangement("normals must have finite components")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms < 1e-12):
        raise ZeroVector("every normal must be a nonzero direction vector")
    flagged = bool(np.any(np.abs(norms - 1.0) > NORM_WARN_TOL))
    unit = arr / norms[:, None]

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
    """Smallest eigenvalue of a symmetric matrix (GramMatrix or array)."""
    entries = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=np.float64)
    return float(jacobi_eigenvalues(entries)[0])


def require_positive_definite(g) -> float:
    """min_eigenvalue that raises NotPositiveDefinite when lambda_min <= 0."""
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
        basis[i] = gram_schmidt_row(v, basis[:i])
    return basis


def gram_schmidt_row(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The next row of `orthonormal_rows` after the orthonormal rows of
    `basis`: v less its parts along them in order, normalized."""
    w = v.copy()
    for b in basis:
        w -= (w @ b) * b
    nw = np.linalg.norm(w)
    if nw <= INDEPENDENCE_TOL:
        raise DegenerateArrangement("normals are dependent under orthogonalization")
    return w / nw


def reduce_to_span(dim: int, normals):
    """Express a cone with n <= m walls in an orthonormal basis of the span.

    Returns (reduced cone in R^n, basis) where basis has shape (n, m) and
    row k is the k-th basis vector.  The Gram matrix is preserved, and a
    point y in R^m projects to coordinates basis @ y in the reduced space.
    """
    cone = make_cone(dim, normals)
    basis = orthonormal_rows(cone.normals)
    reduced = cone.normals @ basis.T
    return make_cone(cone.n_walls, reduced), _freeze(basis)


def contains(cone: ConeSpec, point, tol: float = 0.0) -> bool:
    """True when (point, a_i) >= -tol for every wall normal a_i."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (cone.dim,):
        raise DimensionMismatch(f"point must have {cone.dim} components")
    return bool((p @ cone.matrix >= -tol).all())
