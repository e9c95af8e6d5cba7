"""Minimax solvers on the unit sphere.

Five routes are provided for the nonsmooth sphere problems that arise
from cone geometry:

* the sign-vertex formula for min over unit y of max_i |(y, a_i)|: the
  largest vertex of the parallelotope {y : |(y, a_i)| <= 1}, one product
  with the rays A^-1 for all 2^(n-1) sign vectors, and past the formula's
  range a one-flip ascent over the same vertices from nine starts, which
  gives delta from above in polynomial time; the same product over the
  2^n - 1 nonzero 0/1 vectors gives the floor delta_Q of the largest face
  distance, and its vertex, where that floor is often attained;
* one non-negative least-squares kernel (`nnls`, Lawson and Hanson 1974)
  for nearest points in a cone: max over unit u of min_i (u, a_i) as
  1 / min{|u| : (u, a_i) >= 1}, with both ends certified, and the
  distance from a point to each face: |(y, a_i)| where the foot on the
  face's hyperplane lies in the face, and otherwise the distance to the
  cone over that face's rays, an upper end whether or not the solve
  converged;
* outer approximation of C = min over sphere-in-cone of the largest face
  distance (`outer_approximation_min_max_face_distance`): C is 1 / the
  largest norm over the convex set where the largest face distance is at
  most 1, which lies in every polytope P_k of a shrinking sequence that
  starts from the 0/1 parallelotope and takes cuts from the face feet;
  the largest vertex of P_k gives lo, the face distances there give hi,
  and the rounds stop at a gap of 1e-4 or at a vertex cap;
* projected subgradient descent of the largest face distance with step
  halving, vectorized across the starts it is given, on the exact face
  distances of `FaceDistance`: the multistart oracle that the tests check
  C against;
* dense grid minimization (circle / Fibonacci sphere) with a local zoom
  stage, for dimensions 2 and 3, which the test oracles build on.

The exact equal-margin enumeration of max over unit u of min_i (u, a_i)
(`max_min_margin`, 2^n - 1 subsets) stays as an oracle for the tests.  The
library routes take a square `ConeSpec` (n < m: DimensionMismatch; the
constants pass `cone.span`) and read its `normals` and its one inverse
`rays`; the oracles and `nnls` take arrays.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateArrangement, InvalidParameter
from .geometry import ConeSpec, _unit_rows, orthonormal_rows

# Eigenvectors of G^-1 whose sign patterns start the flip ascent, beside
# all ones, and the least relative rise of s^T G^-1 s that counts as a flip.
_FLIP_STARTS = 8
_FLIP_RISE = 1e-12
# The iteration cap of the multistart face-distance route, its first step
# length, and the iterations without improvement after which it stops.
_ITERS = 500
_FACE_STEP0 = 0.25
_STALL_LIMIT = 60
# Global grid points of the grid minimization (circle for dim 2, Fibonacci
# sphere for dim 3), and points per axis of each local zoom.
_CIRCLE_POINTS = 200_000
_FIBONACCI_POINTS = 1 << 20
_ZOOM_STEPS = 201
_FEAS_TOL = 1e-9
# Entries per block in the blocked loops below, which bound each product's
# memory.  In `FaceDistance` a block's product is at most 2^18 multiply-adds,
# which OpenBLAS keeps on one thread (its default multithreading threshold);
# larger ones start its threads, which doubled the CPU time per
# face-distance point at n = 5 and 6 and made wall time erratic.  In
# `_largest_vertex` a block holds 2^18 right-hand-side entries, so its
# product is n * 2^18 multiply-adds, which OpenBLAS spreads over its
# threads; one product over the whole vertex table instead took
# `bounds_report` 1.6-1.8 times as long at n = 15, 16.
_BLOCK_ENTRIES = 1 << 18
# Stopping gap of C's bracket (absolute).
_GAP = 1e-4
# Least margin of a point that is evaluated for hi.
_PUSH = 1e-15
# Most vertices the outer approximation of C holds: its rounds stop before
# an update would take the vertex list past it, and a cone with more 0/1
# vertices than this has no rounds.
_VERTEX_CAP = 1 << 14
# Rounding allowance of 1 / |v| for the largest vertex v of the outer
# approximation when it is used as a lower end of C, round 0's floor
# delta_Q of `zero_one_vertex` among them: against exact rational solves
# of v's tight constraints, v = `cone.rays` @ x was off by at most 7.3e-15
# relative on the 86 cones with cuts among random_cone(n, n, 20241,
# n*1000+c), n = 3..6, c < 25.
_VERTEX_ERROR = 1e-12
# Points per distances_and_feet call in max_face_distance, which bounds the
# feet array (k, n, m).
_MAX_DISTANCE_ROWS = 1 << 12


# ---------------------------------------------------------------------------
# Exact equal-margin enumeration
# ---------------------------------------------------------------------------

def max_min_margin(normals: np.ndarray):
    """Maximize min_i (u, a_i) over the unit ball, exactly.

    The objective is concave, so the optimum is attained at a unit vector
    lying in the span of its active normals, with equal margins there.  All
    2^n - 1 candidate active subsets are enumerated; each candidate is a
    feasible unit vector, so the best min-margin over all walls is exact.
    The library takes this maximum from `nearest_point_margin`; the tests
    check it against this enumeration.

    Returns (value, argmax unit vector).  A value <= 0 means the cone of
    the given normals has empty interior.
    """
    arr = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    n = arr.shape[0]
    best_val = -np.inf
    best_u = None
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            # The least-norm u with (u, a_i) = 1 on the subset, from its
            # rows rather than from their Gram matrix, whose condition
            # number is their square.
            u0 = np.linalg.lstsq(arr[list(subset)], np.ones(k), rcond=None)[0]
            nrm = np.linalg.norm(u0)
            if nrm < 1e-12:
                continue
            u = u0 / nrm
            val = float((u @ arr.T).min())
            if val > best_val:
                best_val = val
                best_u = u
    if best_u is None:
        raise DegenerateArrangement("no equal-margin candidate could be formed")
    return best_val, best_u


def _largest_vertex(cone: ConeSpec, first: int, stop: int, rhs):
    """The vertex y with (y, a_i) = x_i of largest norm, over the right-hand
    sides x = column k of rhs(codes) for codes first..stop-1.

    Each vertex is y = R x with the rays R = A^-1 (`cone.rays`), inverted
    from the normals rather than from G, whose condition number is their
    square, in blocks of bounded size.  Returns (1 / |y|, y / |y|, code).
    """
    rays = cone.rays
    step = max(1, _BLOCK_ENTRIES // cone.n_walls)
    best_q, best_y, best_code = 0.0, None, None
    for s0 in range(first, stop, step):
        codes = np.arange(s0, min(s0 + step, stop))
        y = rays @ rhs(codes)
        q = (y * y).sum(axis=0)
        k = int(q.argmax())
        if q[k] > best_q:
            best_q, best_y, best_code = float(q[k]), y[:, k], int(codes[k])
    root = math.sqrt(best_q)
    return 1.0 / root, best_y / root, best_code


def min_max_abs_margin(cone: ConeSpec):
    """Minimize max_i |(y, a_i)| over unit y, exactly, for n = m walls.

    P = {y : |(y, a_i)| <= 1} is a parallelotope whose vertex y_s
    with (y_s, a_i) = s_i has |y_s|^2 = s^T G^{-1} s.  The objective is
    1-homogeneous, so its minimum over unit y is 1 / max over P of |y|,
    and the convex |y| is largest at a vertex.  Opposite sign vectors give
    opposite vertices, so s_1 = +1.

    Returns (value, argmin unit vector).
    """
    n = cone.n_walls
    bits = np.arange(n - 1)

    def signs(codes):
        s = np.ones((n, len(codes)))
        s[1:] -= 2.0 * ((codes >> bits[:, None]) & 1)
        return s

    return _largest_vertex(cone, 0, 1 << (n - 1), signs)[:2]


def flip_min_max_abs_margin(cone: ConeSpec):
    """min over unit y of max_i |(y, a_i)| from above, by a one-flip ascent
    over the sign vertices of `min_max_abs_margin`, in polynomial time.

    G^-1 = R^T R from the rays R = A^-1 that `_largest_vertex` reads, so
    it is inverted from the normals, never from G.  From all ones and from
    the sign patterns of the top _FLIP_STARTS eigenvectors of G^-1,
    s^T G^-1 s rises by flipping the sign whose flip raises it most, while
    that rise is more than a relative _FLIP_RISE, at most n^2 times.
    Every vertex y_s gives the unit vector y_s / |y_s| whose largest
    |margin| is 1 / |y_s|, so the value, from the largest vertex found, is
    an estimate from above wherever the ascent stops.

    Returns (value, unit vector, starts).
    """
    n = cone.n_walls
    inv_gram = cone.rays.T @ cone.rays
    top = np.linalg.eigh(inv_gram)[1][:, -_FLIP_STARTS:]
    s = np.hstack([np.ones((n, 1)), np.where(top >= 0.0, 1.0, -1.0)])
    cols = np.arange(s.shape[1])
    diag = np.diag(inv_gram)[:, None]
    for _ in range(n * n):
        hs = inv_gram @ s
        # Flipping s_i changes s^T G^-1 s by 4 (G^-1_ii - s_i (G^-1 s)_i).
        rise = 4.0 * (diag - s * hs)
        i = rise.argmax(axis=0)
        flip = rise[i, cols] > _FLIP_RISE * (s * hs).sum(axis=0)
        if not flip.any():
            break
        s[i[flip], cols[flip]] *= -1.0
    value, y, _ = _largest_vertex(cone, 0, s.shape[1], lambda codes: s[:, codes])
    return value, y, s.shape[1]


class ZeroOneVertex(NamedTuple):
    """delta_Q = 1 / max |y_x| over the vertices (y_x, a_i) = x_i, x in
    {0, 1}^n nonzero, with y_Q = y_x / |y_x| at the largest and its support
    S = {i : x_i = 1} as a boolean mask."""

    value: float
    y: np.ndarray
    support: np.ndarray


def zero_one_vertex(cone: ConeSpec) -> ZeroOneVertex:
    """The floor delta_Q <= C of the largest face distance, and its vertex.

    On the cone, dist(y, B_i) >= (y, a_i) because B_i lies in the
    hyperplane (x, a_i) = 0.  For unit y in the cone let t = max_i (y, a_i)
    > 0: y / t lies in the parallelotope {0 <= (y, a_i) <= 1}, whose norm is
    largest at a vertex, so t >= delta_Q and C >= delta_Q.  The vertices
    are solved as in `min_max_abs_margin`, from 0/1 right-hand sides, and
    delta_Q is exact up to rounding: at most 7.4e-15 relative against
    exact rational solves from the same normals on the 100 cones
    random_cone(n, n, 20241, n*1000+c), n = 3..6, c < 25.  y_Q lies in the
    cone and on every wall outside S.
    """
    n = cone.n_walls
    bits = np.arange(n)
    value, y, code = _largest_vertex(
        cone, 1, 1 << n, lambda codes: ((codes >> bits[:, None]) & 1).astype(np.float64)
    )
    return ZeroOneVertex(value, y, (code >> bits) & 1 == 1)


# ---------------------------------------------------------------------------
# Nearest points by non-negative least squares
# ---------------------------------------------------------------------------

def nnls(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x >= 0 minimizing |r x - b|, so that r x is the point of the cone
    spanned by the columns of r nearest to b (Lawson and Hanson, Solving
    Least Squares Problems, 1974, ch. 23; the same active-set scheme as
    Wolfe's nearest point in a polytope, Math. Programming 11, 1976).

    The passive set takes the column of largest gradient r^T (b - r x)
    while that is above a rounding tolerance.  When the least-squares
    solve on the passive columns is not positive, x moves toward it only
    until a passive entry reaches 0, and the entries at 0 leave the set.
    Every iterate is >= 0, so r x lies in the cone whether or not the
    solve converged; after 3k solves the current iterate is returned.
    """
    k = r.shape[1]
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    tol = 10.0 * max(r.shape) * np.finfo(np.float64).eps * np.linalg.norm(r) * np.linalg.norm(b)
    grow = True
    for _ in range(3 * k):
        if grow:
            w = r.T @ (b - r @ x)
            w[passive] = -np.inf
            j = int(w.argmax())
            if not w[j] > tol:
                break
            passive[j] = True
        z = np.zeros(k)
        z[passive] = np.linalg.lstsq(r[:, passive], b, rcond=None)[0]
        grow = bool((z[passive] > 0.0).all())
        if grow:
            x = z
            continue
        # x >= 0 >= z on `neg`, so each ratio is in [0, 1]; x = z = 0 gives 0.
        neg = passive & (z <= 0.0)
        gap = np.maximum(x[neg] - z[neg], np.finfo(np.float64).tiny)
        alpha = (x[neg] / gap).min()
        x = np.maximum(x + alpha * (z - x), 0.0)
        passive &= x > 0.0
        x[~passive] = 0.0
    return x


class MarginBracket(NamedTuple):
    """lower <= max over unit u of min_i (u, a_i) <= upper."""

    lower: float
    upper: float


def nearest_point_margin(cone: ConeSpec) -> MarginBracket:
    """Bracket max over unit u of min_i (u, a_i) for n = m independent
    normals with one NNLS, in polynomial time.

    With A the matrix of rows a_i and R = A^-1 (`cone.rays`), the maximum is
    1 / min{|u| : A u >= 1}, since a unit u of least margin t > 0 gives
    u / t.  Write u = R (1 + w) with w >= 0: the minimum is |R 1 + R w*|
    for w* = nnls(R, -R 1), the distance from R 1 to the cone spanned by
    the columns of -R.  Both ends hold whether or not the solve converged:

    * any w >= 0 gives A u >= 1, so the least margin of u / |u| is a lower
      end;
    * for mu >= 0 with sum 1, min_i (v, a_i) <= (v, A^T mu) <= |A^T mu|
      for every unit v, which gives the upper end.  mu is A^-T u (the
      multipliers of the least-norm problem at its optimum) clipped at 0,
      set to 0 on the walls that w* leaves slack (w*_i > 0) and scaled to
      sum 1.

    The two ends were within 6.4e-15 of each other on
    random_cone(n, n, 20241, n*1000+c), n = 2..10.
    """
    arr, rays = cone.normals, cone.rays
    centre = rays.sum(axis=1)
    w = nnls(rays, -centre)
    u = centre + rays @ w
    u /= math.sqrt(u @ u)
    mu = np.maximum(rays.T @ u, 0.0)
    mu[w > 0.0] = 0.0
    total = mu.sum()
    upper = float(np.linalg.norm(mu @ arr)) / total if total > 0.0 else 1.0
    return MarginBracket(float((arr @ u).min()), min(upper, 1.0))


def nearest_point_face_distances(cone: ConeSpec, y: np.ndarray):
    """dist(y, B_i) for every face of a cone with n = m walls, and the
    feet, shapes (n,) and (n, m), from the hyperplane feet first and one
    NNLS for each face whose hyperplane foot leaves it.

    B_i lies in the hyperplane (x, a_i) = 0, whose nearest point to y is
    p_i = y - (y, a_i) a_i, at distance |(y, a_i)|.  One product gives
    the margins (p_i, a_j) of all n of these feet; where those on the
    walls j != i are all >= 0, p_i lies in B_i, so it is the foot of y on
    B_i and the distance is |(y, a_i)|.  `constants.bfk_constant`'s closed
    form is this shortcut taken by every face at y_Q.  For the other
    faces: the rays r_k = A^-1 e_k satisfy (r_k, a_j) = 1 for j = k and 0
    otherwise, so B_i is the set of the non-negative combinations of the
    rays k != i, and the foot is the NNLS nearest point on them.  A foot
    is such a combination whether or not its solve converged, so each
    distance is an upper end, up to rounding.  No table of size 2^n is
    built.
    """
    arr, rays = cone.normals, cone.rays
    margins = arr @ y
    feet = y - margins[:, None] * arr
    # Foot i lies on wall i up to rounding; that margin does not count.
    inside = feet @ arr.T >= 0.0
    np.fill_diagonal(inside, True)
    for i in np.flatnonzero(~inside.all(axis=1)):
        face = np.delete(rays, i, axis=1)
        feet[i] = face @ nnls(face, y)
    diff = y - feet
    return np.sqrt((diff * diff).sum(axis=1)), feet


# ---------------------------------------------------------------------------
# Dense grid oracles (dim 2 and 3)
# ---------------------------------------------------------------------------

def circle_points(count: int) -> np.ndarray:
    phi = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(phi), np.sin(phi)], axis=1)


def fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)


def _tangent_zoom(f_batch, center: np.ndarray, radius: float):
    """Evaluate f on a tangent-plane grid around a sphere point, normalized."""
    m = center.shape[0]
    base = np.zeros(m)
    base[int(np.abs(center).argmin())] = 1.0
    t1 = base - (base @ center) * center
    t1 /= np.linalg.norm(t1)
    offs = np.linspace(-radius, radius, _ZOOM_STEPS)
    if m == 2:
        pts = center[None, :] + offs[:, None] * t1[None, :]
    else:
        t2 = np.cross(center, t1)
        uu, vv = np.meshgrid(offs, offs, indexing="ij")
        pts = (
            center[None, :]
            + uu.reshape(-1, 1) * t1[None, :]
            + vv.reshape(-1, 1) * t2[None, :]
        )
    pts = _unit_rows(pts)
    vals = f_batch(pts)
    j = int(np.argmin(vals))
    return float(vals[j]), pts[j].copy()


def sphere_grid_minimize(f_batch, dim: int, seeds: np.ndarray | None = None):
    """Two-stage dense-grid minimization of f over the unit sphere.

    Stage one scans a global grid (circle for dim 2, Fibonacci sphere with
    2^20 points for dim 3) plus any caller-supplied seed points; stage
    two re-scans a fine local grid around the incumbent.  `f_batch` maps an
    (k, dim) array to k values and may return +inf off its domain.
    """
    if dim == 2:
        grid = circle_points(_CIRCLE_POINTS)
        gap = 2.0 * math.pi / _CIRCLE_POINTS
    elif dim == 3:
        grid = fibonacci_sphere(_FIBONACCI_POINTS)
        gap = math.sqrt(4.0 * math.pi / _FIBONACCI_POINTS)
    else:
        raise InvalidParameter("grid oracle supports dim 2 and 3 only")
    if seeds is not None and len(seeds):
        grid = np.vstack([grid, np.atleast_2d(seeds)])

    vals = f_batch(grid)
    j = int(np.argmin(vals))
    best_val, best_pt = float(vals[j]), grid[j].copy()
    if not math.isfinite(best_val):
        raise DegenerateArrangement("grid oracle found no feasible point")

    # Local zooms shrink the bracket geometrically around the incumbent.
    radius = 2.0 * gap
    for _ in range(2):
        zv, zp = _tangent_zoom(f_batch, best_pt, radius)
        if zv < best_val:
            best_val, best_pt = zv, zp
        radius = max(4.0 * radius / _ZOOM_STEPS, 1e-12)
    return best_val, best_pt


# ---------------------------------------------------------------------------
# Distances to cone faces and projection onto the cone
# ---------------------------------------------------------------------------

class FaceDistance:
    """Exact Euclidean distances from points to the faces of a cone.

    Face i is {x : (x, a_i) = 0, (x, a_j) >= 0 for all j}.  The projection
    of a point onto face i lands in the relative interior of one of its
    sub-faces, so enumerating all additional active subsets T of the other
    walls, projecting onto each affine piece, and keeping the feasible
    minimum is exact.  This holds for points outside the cone too, so the
    distance function is defined on the whole sphere.  Projectors are
    precomputed once per cone and applied as one matrix product.
    """

    def __init__(self, normals: np.ndarray):
        arr = np.atleast_2d(np.asarray(normals, dtype=np.float64))
        self.normals = arr
        self.n, self.m = arr.shape

        # I - U^T U for the orthonormal basis U of the rows in the tuple:
        # the projector onto the subspace where those walls' margins are 0.
        def projector(rows):
            basis = orthonormal_rows(arr[list(rows)])
            return np.eye(self.m) - basis.T @ basis

        faces = [
            projector((i, *extra))
            for i in range(self.n)
            for k in range(self.n)
            for extra in itertools.combinations([j for j in range(self.n) if j != i], k)
        ]
        cone = [np.eye(self.m)] + [
            projector(subset)
            for k in range(1, self.n + 1)
            for subset in itertools.combinations(range(self.n), k)
        ]
        self._faces = self._stack(faces)
        self._cone = self._stack(cone)

    def _stack(self, projectors) -> np.ndarray:
        """Projectors P_p side by side, shape (m, (m + n) * count).

        Column c * count + p is column c of P_p, and column
        (m + j) * count + p is P_p a_j, so one product with the points gives
        every projection and every margin of every projection.
        """
        mats = np.stack(projectors)
        count = mats.shape[0]
        feet = mats.transpose(1, 2, 0).reshape(self.m, self.m * count)
        margins = (mats @ self.normals.T).transpose(1, 2, 0).reshape(self.m, self.n * count)
        return np.hstack([feet, margins])

    def _nearest_feasible(self, points: np.ndarray, stacked: np.ndarray, groups: int):
        """Nearest cone-feasible projection of each point within each of
        `groups` equal groups of projectors.

        Returns squared distances (k, groups) and feet (k, groups, m).
        """
        k, m = points.shape
        count = stacked.shape[1] // (m + self.n)
        d2min = np.empty((k, groups))
        feet = np.empty((k, m, groups))
        step = max(1, _BLOCK_ENTRIES // stacked.size)
        for s in range(0, k, step):
            pts = points[s : s + step]
            b = pts.shape[0]
            out = pts @ stacked
            proj = out[:, : m * count].reshape(b, m, count)
            ok = out[:, m * count :].reshape(b, self.n, count).min(axis=1) >= -_FEAS_TOL
            d2 = ((proj - pts[:, :, None]) ** 2).sum(axis=1)
            d2[~ok] = np.inf
            d2 = d2.reshape(b, groups, -1)
            pick = d2.argmin(axis=2)
            row, group = np.ogrid[:b, :groups]
            d2min[s : s + b] = d2[row, group, pick]
            proj = proj.reshape(b, m, groups, -1)
            feet[s : s + b] = proj[row[:, :, None], np.arange(m)[:, None], group[:, None], pick[:, None]]
        return d2min, feet.transpose(0, 2, 1)

    def distances_and_feet(self, points: np.ndarray):
        """Face distances plus the projection feet, shapes (k, n) and (k, n, m)."""
        pts = np.atleast_2d(points)
        d2, feet = self._nearest_feasible(pts, self._faces, self.n)
        return np.sqrt(d2), feet

    def max_face_distance(self, points: np.ndarray) -> np.ndarray:
        """max_i dist(y, B_i) for each point (rows), shape (k,)."""
        pts = np.atleast_2d(points)
        step = _MAX_DISTANCE_ROWS
        return np.concatenate(
            [
                self.distances_and_feet(pts[s : s + step])[0].max(axis=1)
                for s in range(0, pts.shape[0], step)
            ]
        )

    def project_to_cone(self, points: np.ndarray) -> np.ndarray:
        """Exact Euclidean projection of each point onto the cone."""
        pts = np.atleast_2d(points)
        return self._nearest_feasible(pts, self._cone, 1)[1][:, 0]


def multistart_min_max_face_distance(face: FaceDistance, interior_seed: np.ndarray, starts: np.ndarray):
    """Minimize max_i dist(y, B_i) over the unit sphere inside the cone by
    projected subgradient descent, vectorized across starts.

    The multistart oracle that the tests check C against; the library
    takes C from `outer_approximation_min_max_face_distance` alone.  Starts
    are the rows of `starts`, projected onto the cone, plus
    `interior_seed`.  Iterates stay feasible: each step is projected back
    onto the cone and renormalized.  The reported value is the best
    feasible evaluation seen, hence always an estimate from above.  Stops
    early once the incumbent has not improved for _STALL_LIMIT iterations
    (the best start's step has collapsed by then).  Returns (value, point,
    starts).
    """
    y = face.project_to_cone(starts)
    norms = np.linalg.norm(y, axis=1)
    y[norms < 1e-9] = interior_seed
    y = np.vstack([y, interior_seed[None, :]])
    y = _unit_rows(y)
    total = y.shape[0]

    dists, feet = face.distances_and_feet(y)
    f = dists.max(axis=1)
    eta = np.full(total, _FACE_STEP0)
    best_val = float(f.min())
    best_y = y[int(f.argmin())].copy()
    rows = np.arange(total)
    stalled = 0
    for _ in range(_ITERS):
        worst = dists.argmax(axis=1)
        # Subgradient of the active distance: unit vector from the face
        # projection toward the point.
        diff = y - feet[rows, worst]
        dn = np.linalg.norm(diff, axis=1)
        dn[dn < 1e-300] = 1.0
        grad = diff / dn[:, None]
        cand = face.project_to_cone(y - eta[:, None] * grad)
        cn = np.linalg.norm(cand, axis=1)
        dead = cn < 1e-9
        cand[dead] = y[dead]
        cand = _unit_rows(cand)
        cand_d, cand_feet = face.distances_and_feet(cand)
        cand_f = cand_d.max(axis=1)
        better = cand_f < f
        y = np.where(better[:, None], cand, y)
        dists = np.where(better[:, None], cand_d, dists)
        feet = np.where(better[:, None, None], cand_feet, feet)
        f = np.where(better, cand_f, f)
        eta = np.where(better, eta, eta * 0.5)
        fmin = float(f.min())
        if fmin < best_val - 1e-13:
            best_val = fmin
            best_y = y[int(f.argmin())].copy()
            stalled = 0
        else:
            stalled += 1
            if stalled >= _STALL_LIMIT:
                break
        if eta.max() < 1e-14:
            break
    return best_val, best_y, total


# ---------------------------------------------------------------------------
# C by outer approximation
# ---------------------------------------------------------------------------

def _pushed_inside(cone: ConeSpec, y):
    """Two rows of y as a feasible unit point, or None.

    y moves toward the ball's centre e (`cone.ball`) until every margin is
    at least _PUSH (by about _PUSH / the least margin of e, which bounds the
    change in f) and is normalized.  Two rows keep the products on BLAS's
    matrix-matrix path: a one-row product can round the last bit otherwise,
    which would move the ends that C reports without rounds (past n = 14)
    by an ulp.
    """
    at = cone.normals.T
    inward = cone.ball.e
    pair = np.vstack([y, y])
    margin = (pair @ at)[0].min()
    if margin < _PUSH:
        depth = (np.vstack([inward, inward]) @ at)[0].min()
        if not depth > 0.0:
            return None
        pair = pair + (2.0 * _PUSH - margin) / depth * inward
    pair = _unit_rows(pair)
    if (pair @ at).min() < 0.0:
        return None
    return pair


class _Polytope:
    """P = {x : 0 <= x_j <= 1, (h_k, x) <= 1 for each cut h_k} in the
    coordinates x_j = (y, a_j), with its vertices and their tight sets.

    Constraint j < n is x_j >= 0, n + j is x_j <= 1, and 2n + k is cut k.
    A vertex's tight set holds bit c % 64 of word c // 64 for each
    constraint c that it lies on.  P starts as the cube, whose 2^n
    vertices are the 0/1 vertices of `zero_one_vertex`.
    """

    def __init__(self, n: int):
        self.n = n
        ones = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        self.x = ones.astype(np.float64)
        # Distinct bits, so their sum is their union; 2n <= 64 bits here.
        self.tight = (np.uint64(1) << (np.arange(n) + n * ones).astype(np.uint64)).sum(
            axis=1, dtype=np.uint64, keepdims=True
        )
        self.cuts = np.empty((0, n))

    def cut(self, h: np.ndarray) -> int | None:
        """Add the cut (h, x) <= 1 and update the vertex list on-line
        (Chen, Hansen and Jaumard, Oper. Res. Lett. 10, 1991).

        A cut that takes no vertex more than a relative 1e-9 outside it is
        not added (returns 0).  Otherwise it is relaxed until no kept
        vertex lies outside it, a weaker cut that holds wherever the first
        does, and a kept vertex on it counts as inside, as if each cut's
        right side were raised by an infinitesimal that dwarfs those of
        the cuts before it.  So P stays simple: every vertex lies on
        exactly n constraints, and two vertices are adjacent exactly when
        they share n - 1 of them, which hold on a line that meets P in the
        segment between the two.  Such pairs share a key, a tight set less
        one of its bits, and a new vertex lies on each edge from a cut-off
        vertex to a kept one.  Its coordinates are interpolated, so an x_j
        that is 0 or 1 at both ends stays exact.  Returns the number of
        vertices removed, or None, leaving P as it was, when the new list
        would hold more than _VERTEX_CAP vertices.
        """
        x, tight, n = self.x, self.tight, self.n
        s = x @ h - 1.0
        # x lies in [0, 1]^n, so |(h, x)| <= |h|_1.
        out = s > 1e-9 * (1.0 + np.abs(h).sum())
        if not out.any():
            return 0
        h = h / (1.0 + s[~out].max(initial=0.0))
        s = x @ h - 1.0
        # The tight sets less each of their n bits, in row order.
        bits = np.unpackbits(tight.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        pos = np.nonzero(bits)[1]
        rows = np.repeat(np.arange(len(x)), n)
        keys = tight[rows]
        keys[np.arange(len(keys)), pos // 64] ^= np.uint64(1) << (pos % 64).astype(np.uint64)
        # Equal keys get equal ids: the ranks of the distinct keys in order.
        order = np.lexsort(keys.T)
        ranked = keys[order]
        ids = np.empty(len(keys), dtype=np.int64)
        ids[order] = np.cumsum(np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])) - 1
        kept = ~out[rows]
        partner = np.full(len(keys), -1)
        partner[ids[kept]] = rows[kept]
        w = partner[ids[~kept]]
        hit = w >= 0
        u, w, shared = rows[~kept][hit], w[hit], keys[~kept][hit]
        keep = ~out
        if keep.sum() + len(u) > _VERTEX_CAP:
            return None
        word, bit = divmod(2 * n + len(self.cuts), 64)
        if word == tight.shape[1]:
            shared = np.hstack([shared, np.zeros((len(u), 1), dtype=np.uint64)])
            tight = np.hstack([tight, np.zeros((len(x), 1), dtype=np.uint64)])
        shared[:, word] |= np.uint64(1 << bit)
        t = s[w] / (s[w] - s[u])
        self.x = np.concatenate([x[keep], x[w] + t[:, None] * (x[u] - x[w])])
        self.tight = np.concatenate([tight[keep], shared])
        self.cuts = np.vstack([self.cuts, h])
        return int(out.sum())


def _cuts(cone: ConeSpec, u, dists, feet, level) -> np.ndarray:
    """Rows h of the cuts (h, x) <= 1, in the coordinates x = A y, from
    the faces with dist(u, B_i) > level at the unit point u.

    A has the normals as rows, so B_i = {x >= 0, x_i = 0} and g = A^T h
    lies in the polar of B_i exactly when h_k <= 0 for every k != i.  Then
    (h, x) = (g, y) <= dist(y, B_i) for every y whenever |g| <= 1, since
    dist(y, B_i) is the largest (g, y) over unit g in the polar.  h starts
    from the subgradient g_i = (u - p_i) / |u - p_i| at the foot p_i,
    as h_k = (g_i, r_k) for the rays r_k = A^-1 e_k.  Its entries k != i
    are clipped at 0, which is g <- g - sum_{k != i} max(0, (g, r_k)) a_k,
    and it is divided by max(1, |A^T h|).  So a cut holds however inexact
    the foot and the rays are, up to the rounding of |A^T h|, and it is
    tight at u where the foot is exact.
    """
    far = np.flatnonzero(dists > level)
    h = ((u - feet[far]) / dists[far, None]) @ cone.rays
    other = np.arange(cone.n_walls) != far[:, None]
    h[other] = np.minimum(h[other], 0.0)
    norm = np.sqrt(((h @ cone.normals) ** 2).sum(axis=1))
    return h / np.maximum(1.0, norm)[:, None]


class Bracket(NamedTuple):
    """lo <= C <= hi, and hi - lo <= 1e-4 when `complete`, from the outer
    approximation of `outer_approximation_min_max_face_distance`.  lo is
    at least the floor delta_Q of `zero_one_vertex` less its 1e-12
    rounding allowance, when that floor was solved."""

    lo: float
    hi: float
    # The feasible unit point whose largest face distance is hi.
    best: np.ndarray
    # Points evaluated: the ball's centre, and the largest vertex of each
    # round.
    evaluations: int
    # False when the rounds stopped before the gap closed: at the vertex
    # cap, on a round that cut off no vertex, or with no rounds at all.
    complete: bool


def outer_approximation_min_max_face_distance(
    cone: ConeSpec, vertex: ZeroOneVertex | None
) -> Bracket:
    """Certified bracket on C = min over unit y in the cone of max_i dist(y, B_i).

    f = max_i dist(., B_i) is convex and 1-homogeneous, so C = 1 / max{|y| :
    y in K} for the convex K = {y in Q : f(y) <= 1}, a concave maximization
    that outer approximation solves (Hoffman, Math. Programming 20, 1981).
    On Q, dist(y, B_i) >= (y, a_i), so K lies in the parallelotope P_0 =
    {0 <= (y, a_i) <= 1}, whose largest vertex is y_Q / delta_Q
    (`zero_one_vertex`, which the caller solves, or skips: `vertex` None).
    Each round takes the largest vertex v of P_k, which holds K:

    * lo = max(lo, 1 / |v| - 1e-12), the allowance for the rounding of the
      vertex solves, as for delta_Q;
    * hi = min(hi, f(v / |v|)), with v / |v| moved inside the cone by
      `_pushed_inside` and f from the feet of
      `nearest_point_face_distances`, an upper end whether or not its
      NNLS solves converged; the ball's centre e (`cone.ball`) is
      evaluated first;
    * every face with dist(v, B_i) > 1 adds the cut of `_cuts` to P_k.

    The rounds stop when hi - lo <= 1e-4, when a round cuts off no vertex,
    or before an update would take the vertex list past _VERTEX_CAP.  When
    2^n already passes the cap, or without a vertex, there are no rounds:
    hi is f at e and at y_Q, and lo is delta_Q less its allowance
    (0 without a vertex).
    """
    return _outer_approximation(cone, vertex)[0]


def _outer_approximation(cone: ConeSpec, vertex):
    """`outer_approximation_min_max_face_distance`, and its last P_k (None
    without rounds)."""
    hi, best, evaluations = math.inf, cone.ball.e, 0

    def evaluate(y):
        nonlocal hi, best, evaluations
        pair = _pushed_inside(cone, y)
        if pair is None:
            return None
        u = pair[0]
        dists, feet = nearest_point_face_distances(cone, u)
        evaluations += 1
        if dists.max() < hi:
            hi, best = float(dists.max()), u
        return u, dists, feet

    evaluate(cone.ball.e)
    if vertex is None:
        return Bracket(0.0, hi, best, evaluations, False), None
    lo = vertex.value - _VERTEX_ERROR
    n = cone.n_walls
    poly = _Polytope(n) if 1 << n <= _VERTEX_CAP else None
    y, level, capped = vertex.y, vertex.value, False
    while True:
        point = evaluate(y)
        if capped or poly is None or point is None or hi - lo <= _GAP:
            break
        removed = 0
        for h in _cuts(cone, *point, level):
            count = poly.cut(h)
            capped = count is None
            if capped:
                break
            removed += count
        if not removed:
            break
        level, y, _ = _largest_vertex(cone, 0, len(poly.x), lambda codes: poly.x[codes].T)
        lo = max(lo, level - _VERTEX_ERROR)
    return Bracket(lo, hi, best, evaluations, hi - lo <= _GAP), poly
