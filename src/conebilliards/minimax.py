"""Minimax solvers on the unit sphere.

Five routes are provided for the nonsmooth sphere problems that arise
from cone geometry:

* the sign-vertex formula for min over unit y of max_i |(y, a_i)|: the
  largest vertex of the parallelotope {y : |(y, a_i)| <= 1}, one linear
  solve for all 2^(n-1) sign vectors;
* exact stationary-point enumeration (equal-margin subsets) for
  max over unit u of min_i (u, a_i), valid because every optimizer lies in
  the span of its active normals with equal margins;
* deterministic multistart projected subgradient descent with step halving,
  vectorized across starts: delta's route past the formula's range, and
  for face distances the multistart oracle that the tests check C against;
* a cube-sphere branch-and-bound (after Piyavskii 1972; Shubert 1972)
  that brackets the minimum of the largest face distance over
  sphere-in-cone to 1e-4, with a Lipschitz and a first-order lower bound
  on each cell (the face distances are 1-Lipschitz, convex and
  1-homogeneous; the latter is a minorant its children inherit), and an
  active-set Newton solve of the KKT conditions whose point sets the
  upper end and whose multipliers give a linear minorant of the largest
  face distance on the whole cone; the minorant is valid for any
  multipliers of the right signs, so the certificate never rests on the
  solve converging;
* dense grid minimization (circle / Fibonacci sphere) with a local zoom
  stage, for dimensions 2 and 3, which the test oracles build on.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateArrangement
from .geometry import gram_schmidt_row, orthonormal_rows

# Fixed scramble seed: starts are low-discrepancy yet reproducible.
_SOBOL_SEED = 20090
# Starts (Sobol points, plus the interior seed for face distances) and the
# iteration cap of the multistart routes; their first step lengths for
# max |margin| and for face distances; and the iterations without
# improvement after which the face-distance route stops.
N_STARTS = 256
_ITERS = 500
_ABS_STEP0 = 0.5
_FACE_STEP0 = 0.25
_STALL_LIMIT = 60
# Global grid points of the grid minimization (circle for dim 2, Fibonacci
# sphere for dim 3), and points per axis of each local zoom.
_CIRCLE_POINTS = 200_000
_FIBONACCI_POINTS = 1 << 20
_ZOOM_STEPS = 201
_FEAS_TOL = 1e-9
# Multiply-adds per matrix product in the blocked loops below.  OpenBLAS
# keeps a product of up to 2^18 on one thread (its default multithreading
# threshold); larger ones start its threads, which doubled the CPU time per
# face-distance point at n = 5 and 6 and made wall time erratic.
_BLOCK_ENTRIES = 1 << 18
# Stopping gap of the branch-and-bound (absolute).
_BNB_ATOL = 1e-4
# Frank-Wolfe steps for the weights of the first-order cell bound, and the
# rounding error allowed in a projection foot: against 40-digit projections
# it was at most 5.2e-15 at 960 points of random_cone(n, n, 20241, n*1000+k),
# n = 3..6, k < 6.  Steps: evaluations, ms of the branch-and-bound on those
# cones n = 3..5, k < 25 (2 vCPU, CPU time): 1: 55,794, 929; 2: 49,497, 887;
# 3: 48,389, 985; 4: 48,832, 1014; 8: 49,398, 1213.
_FW_STEPS = 2
_FOOT_ERROR = 1e-14
# The KKT Newton solve of the branch-and-bound runs once a level's cells are
# within _NEWTON_RADIUS of their centres (0.05 to 0.3 gave evaluation
# counts within 2x of one another on random_cone(n, n, 20241, n*1000+c),
# n = 3..6), takes at most _NEWTON_STEPS steps of at most _NEWTON_REACH per
# active set, stops at a step under _NEWTON_STOP, and tries at most
# _NEWTON_ROUNDS active sets.
_NEWTON_RADIUS = 0.1
_NEWTON_STEPS = 12
_NEWTON_REACH = 0.1
_NEWTON_ROUNDS = 4
_NEWTON_STOP = 1e-8
# A wall passes through a foot when its margin there is at most _ON_WALL
# (rounded on-wall margins were under 1e-16); at a Newton point, a face is
# at the maximum within a relative _KKT_TIE and a wall within _KKT_TIE.
_ON_WALL = 1e-12
_KKT_TIE = 1e-9
# Least margin of a Newton point that is offered as hi.
_PUSH = 1e-15
# Work budget of the branch-and-bound, in face projections (a point costs
# n 2^(n-1)): about 6 s on one core at n = 6; the cones measured at
# n = 6, 7 used at most 56% of it, those at n <= 5 under 1%, and two of
# the three at n = 8 ran out of it.  A cut search returns a wider bracket,
# still certified, and C is that bracket as on every other cone.
_BNB_PROJECTIONS = 1 << 26
# Points per distances_and_feet call in max_face_distance and in the
# branch-and-bound, which bounds the feet array (k, n, m).
_MAX_DISTANCE_ROWS = 1 << 12


def sphere_starts(dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit sphere in R^dim."""
    if dim == 1:
        return np.array([[1.0], [-1.0]] * ((count + 1) // 2))[:count]
    # Imported here: scipy.stats costs about a second and 70 MB at import,
    # and only the multistart routes draw Sobol starts.
    from scipy.stats import qmc

    sob = qmc.Sobol(d=dim, scramble=True, seed=_SOBOL_SEED)
    m = max(1, math.ceil(math.log2(count)))
    u = sob.random_base2(m)[:count]
    # Inverse-normal map sends the low-discrepancy cube to the sphere.
    from scipy.special import ndtri

    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    pts = z / norms[:, None]
    pts[np.linalg.norm(z, axis=1) < 1e-12] = np.eye(dim)[0]
    return pts


def _normalize_rows(y: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(y, axis=1)
    n[n < 1e-300] = 1.0
    return y / n[:, None]


# ---------------------------------------------------------------------------
# Exact equal-margin enumeration
# ---------------------------------------------------------------------------

def max_min_margin(normals: np.ndarray):
    """Maximize min_i (u, a_i) over the unit ball, exactly.

    The objective is concave, so the optimum is attained at a unit vector
    lying in the span of its active normals, with equal margins there.  All
    2^n - 1 candidate active subsets are enumerated; each candidate is a
    feasible unit vector, so the best min-margin over all walls is exact.

    Returns (value, argmax unit vector).  A value <= 0 means the cone of
    the given normals has empty interior.
    """
    arr = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    n = arr.shape[0]
    best_val = -np.inf
    best_u = None
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            sub = arr[list(subset)]
            g = sub @ sub.T
            try:
                w = np.linalg.solve(g, np.ones(k))
            except np.linalg.LinAlgError:
                continue
            u0 = w @ sub
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


def min_max_abs_margin(normals: np.ndarray):
    """Minimize max_i |(y, a_i)| over unit y in the span of the normals, exactly.

    P = {y in span : |(y, a_i)| <= 1} is a parallelotope whose vertex y_s
    with (y_s, a_i) = s_i has |y_s|^2 = s^T G^{-1} s.  The objective is
    1-homogeneous, so its minimum over unit y is 1 / max over P of |y|,
    and the convex |y| is largest at a vertex.  Opposite sign vectors give
    opposite vertices, so s_1 = +1.  The vertices are solved in an
    orthonormal basis of the span, from the normals rather than from G,
    whose condition number is their square, in blocks of bounded size.

    Returns (value, argmin unit vector).
    """
    arr = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    n = arr.shape[0]
    basis = orthonormal_rows(arr)
    coords = arr @ basis.T
    bits = np.arange(n - 1)
    step = max(1, _BLOCK_ENTRIES // n)
    best_q, best_z = 0.0, None
    for s0 in range(0, 1 << (n - 1), step):
        codes = np.arange(s0, min(s0 + step, 1 << (n - 1)))
        signs = np.ones((n, len(codes)))
        signs[1:] -= 2.0 * ((codes >> bits[:, None]) & 1)
        z = np.linalg.solve(coords, signs)
        q = (z * z).sum(axis=0)
        k = int(q.argmax())
        if q[k] > best_q:
            best_q, best_z = float(q[k]), z[:, k]
    root = math.sqrt(best_q)
    return 1.0 / root, best_z @ basis / root


# ---------------------------------------------------------------------------
# Multistart projected subgradient descent
# ---------------------------------------------------------------------------

def multistart_min_max_abs(normals: np.ndarray):
    """Multistart subgradient route for min over the sphere of max |margin|.

    All N_STARTS Sobol starts advance in lockstep as one array; a start
    that fails to improve halves its step.  Returns (value, argmin vector,
    starts used).
    """
    arr = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    m = arr.shape[1]
    y = sphere_starts(m, N_STARTS)
    margins = y @ arr.T
    f = np.abs(margins).max(axis=1)
    eta = np.full(N_STARTS, _ABS_STEP0)
    rows = np.arange(N_STARTS)
    for _ in range(_ITERS):
        idx = np.abs(margins).argmax(axis=1)
        s = np.sign(margins[rows, idx])
        s[s == 0.0] = 1.0
        grad = s[:, None] * arr[idx]
        cand = _normalize_rows(y - eta[:, None] * grad)
        cand_margins = cand @ arr.T
        cand_f = np.abs(cand_margins).max(axis=1)
        better = cand_f < f
        y = np.where(better[:, None], cand, y)
        margins = np.where(better[:, None], cand_margins, margins)
        f = np.where(better, cand_f, f)
        eta = np.where(better, eta, eta * 0.5)
        if eta.max() < 1e-14:
            break
    best = int(f.argmin())
    return float(f[best]), y[best].copy(), N_STARTS


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
    pts = _normalize_rows(pts)
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
        raise ValueError("grid oracle supports dim 2 and 3 only")
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
        # One projector per row tuple (i, j < k < ...), from its prefix's
        # basis: the rows `orthonormal_rows` gives, bit for bit.
        projectors = {}
        stack = [((i,), gram_schmidt_row(arr[i], arr[:0])[None]) for i in range(self.n)]
        while stack:
            rows, basis = stack.pop()
            projectors[rows] = np.eye(self.m) - basis.T @ basis
            for j in range(rows[-1] + 1 if len(rows) > 1 else 0, self.n):
                if j != rows[0]:
                    stack.append(((*rows, j), np.vstack([basis, gram_schmidt_row(arr[j], basis)])))
        faces = [
            projectors[(i, *extra)]
            for i in range(self.n)
            for k in range(self.n)
            for extra in itertools.combinations([j for j in range(self.n) if j != i], k)
        ]
        cone = [np.eye(self.m)] + [
            projectors[subset]
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


def multistart_min_max_face_distance(face: FaceDistance, interior_seed: np.ndarray):
    """Minimize max_i dist(y, B_i) over the unit sphere inside the cone.

    The multistart oracle that the tests check C against; the library
    takes C from `branch_and_bound_min_max_face_distance` alone.  Starts
    are N_STARTS - 1 Sobol points plus `interior_seed`.  Iterates stay
    feasible: each step is projected back onto the cone and renormalized.
    The reported value is the best feasible evaluation seen, hence always
    an estimate from above.  Stops early once the incumbent has not
    improved for _STALL_LIMIT iterations (the best start's step has
    collapsed by then).  Returns (value, point, starts).
    """
    m = face.m
    y = face.project_to_cone(sphere_starts(m, N_STARTS - 1))
    norms = np.linalg.norm(y, axis=1)
    y[norms < 1e-9] = interior_seed
    y = np.vstack([y, interior_seed[None, :]])
    y = _normalize_rows(y)
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
        cand = _normalize_rows(cand)
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
# Cube-sphere branch-and-bound
# ---------------------------------------------------------------------------

def _cube_faces(m: int):
    """Centres of the 2m faces of [-1, 1]^m, and each face's corner offsets
    (+-1 on the m - 1 free axes), shapes (2m, m) and (2m, 2^(m-1), m)."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m - 1)))
    centres = np.zeros((2 * m, m))
    offsets = np.zeros((2 * m, len(signs), m))
    for k in range(m):
        free = [j for j in range(m) if j != k]
        for t, sign in enumerate((1.0, -1.0)):
            centres[2 * k + t, k] = sign
            offsets[2 * k + t][:, free] = signs
    return centres, offsets


def _cell_radii(x, axis, h, signs) -> np.ndarray:
    """Longest chord from each normalized centre to its normalized corners
    k = x + h s, s = +-1 off `axis` (rows of `signs`), in blocks: with
    S = (s, x), 2 - 2 (x, k) / (|x| |k|) = 2 h^2 (|x|^2 (m - 1) - S^2) /
    (|x| |k| (|x| |k| + |x|^2 + h S)), free of cancellation."""
    k, m = x.shape
    q = signs.shape[0]
    free = x[np.arange(m) != axis[:, None]].reshape(k, m - 1)
    r = np.empty(k)
    step = max(1, _BLOCK_ENTRIES // q)
    for s in range(0, k, step):
        xx = (x[s : s + step] ** 2).sum(axis=1)[:, None]
        sums = free[s : s + step] @ signs.T
        xk = np.sqrt(xx * (xx + 2.0 * h * sums + (m - 1) * h * h))
        chord2 = 2.0 * h * h * (xx * (m - 1) - sums * sums) / (xk * (xk + xx + h * sums))
        r[s : s + step] = np.sqrt(chord2.max(axis=1))
    return r


def _first_order_lower(c, dists, feet, r, target=np.inf) -> np.ndarray:
    """Lower bound on f over each cell from subgradients of the face distances.

    f_i = dist(., B_i) is convex and 1-homogeneous, so f_i(y) >= (g_i, y)
    for every y, where g_i = (c - p_i) / |c - p_i| and p_i is the foot of c
    on face i (g_i = 0 when f_i(c) = 0).  A unit y of the cell lies within
    angle rho = 2 asin(r / 2) of c, so for any lambda in the simplex, with
    G = sum_i lambda_i g_i,

        f(y) >= (G, y) >= cos(rho) (G, c) - sin(rho) |G - (G, c) c|

    when rho <= pi / 2.  Rounding of the foot turns g_i by up to about
    2 |p_i error| / f_i(c), so face i also pays _FOOT_ERROR / f_i(c) in the
    sum; faces very near c then get no weight.  The weights start at the
    face of largest distance (which gives about f(c) - r) and take up to
    _FW_STEPS Frank-Wolfe steps with exact line search on this concave
    bound; near the nonsmooth minimum they cancel the tangential parts and
    the error falls to O(r^2).  The steps stop once every bound reaches
    `target`, since the line search never lowers one.  Any lambda is
    sound: an inexact one costs tightness, not validity.
    Shapes: c (k, m), dists (k, n), feet (k, n, m), r (k,).

    Also returns each cell's minorant (G, slack): f(y) >= (G, y) - slack
    for every y, so it bounds the cell's children too.
    """
    diff = c[:, None, :] - feet
    norm = np.sqrt((diff * diff).sum(axis=2))
    inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
    g = diff * inv[:, :, None]
    h = (g * c[:, None, :]).sum(axis=2)
    t = g - h[:, :, None] * c[:, None, :]
    cos_r, sin_r = _cos_sin(r)
    # Each face's rounding allowance, and the radial part of its bound.
    e = np.where(norm > 0.0, 2.0 * _FOOT_ERROR * inv, 0.0)
    v = cos_r[:, None] * h - e
    rows = np.arange(len(c))
    j = dists.argmax(axis=1)
    a, tang, gs, slack = v[rows, j], t[rows, j], g[rows, j], e[rows, j]
    for _ in range(_FW_STEPS):
        length = np.sqrt((tang * tang).sum(axis=1))
        if (a - sin_r * length >= target).all():
            break
        u = tang / np.where(length > 0.0, length, 1.0)[:, None]
        score = v - sin_r[:, None] * (t @ u[:, :, None])[:, :, 0]
        j = score.argmax(axis=1)
        # Maximize alpha gamma - sin_r |tang + gamma w| over gamma in [0, 1].
        w = t[rows, j] - tang
        alpha = v[rows, j] - a
        b = (tang * w).sum(axis=1)
        cw = (w * w).sum(axis=1)
        slope = sin_r * np.sqrt(cw)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = alpha / sin_r
            z = ratio * np.sqrt(np.maximum(0.0, length * length * cw - b * b) / (cw - ratio * ratio))
            gamma = np.clip((z - b) / cw, 0.0, 1.0)
        gamma = np.where(alpha >= slope, 1.0, np.where(alpha <= -slope, 0.0, gamma))
        a = a + gamma * alpha
        tang = tang + gamma[:, None] * w
        gs = gs + gamma[:, None] * (g[rows, j] - gs)
        slack = slack + gamma * (e[rows, j] - slack)
    bound = a - sin_r * np.sqrt((tang * tang).sum(axis=1))
    return np.where(cos_r >= 0.0, bound, -np.inf), gs, slack


def _evaluate(face: FaceDistance, y: np.ndarray):
    """Face distances and feet at one point, shapes (n,) and (n, m).

    Two rows keep the product on BLAS's matrix-matrix path, which also
    evaluates the cell centres; a one-row product takes the matrix-vector
    path, whose rounding differs in the last bit.
    """
    dists, feet = face.distances_and_feet(np.vstack([y, y]))
    return dists[0], feet[0]


def _subfaces(normals, feet, faces) -> np.ndarray:
    """Walls through the foot of each face in the mask `faces`, as a boolean
    (faces.sum(), n) array; each row holds its own face."""
    on = feet[faces] @ normals.T <= _ON_WALL
    on[:, faces] |= np.eye(len(on), dtype=bool)
    return on


def _projectors(normals, on) -> np.ndarray:
    """Projector Q onto the span of the walls of each row of `on`: while the
    foot stays on that sub-face, f_i(y) = |Q y|.  Shape (len(on), m, m).

    With A_J the rows of those walls, Q = A_J^T (A_J A_J^T)^-1 A_J; each
    Gram matrix is padded with the identity off J, so one batched solve
    gives every Q.
    """
    gram = np.where(on[:, :, None] & on[:, None, :], normals @ normals.T, np.eye(len(normals)))
    rows = np.where(on[:, :, None], normals, 0.0)
    return rows.transpose(0, 2, 1) @ np.linalg.solve(gram, rows)


def _newton(q, walls, y, f0):
    """Newton's method on the KKT system of min t over unit y subject to
    |Q_i y| <= t for each projector Q_i of `q` and (a_j, y) >= 0 for the
    rows a_j of `walls`, all held as equalities:

        sum_i lam_i g_i - sum_j nu_j a_j = mu y,   sum_i lam_i = 1,
        |Q_i y| = t,   (a_j, y) = 0,   |y| = 1,

    with g_i = Q_i y / |Q_i y| and Hessian (Q_i - g_i g_i^T) / |Q_i y|.
    Steps move y by at most _NEWTON_REACH, and a step under _NEWTON_STOP
    ends the iteration without moving y.  Returns (y, lam, nu, t), or
    None when a step fails: a singular or non-finite system, or a face
    distance below f0 / 4, where the local model is no longer trusted (it
    also keeps 1 / |Q_i y| finite).
    """
    k, m = q.shape[:2]
    w = len(walls)
    lam, nu = np.full(k, 1.0 / k), np.zeros(w)
    t = mu = f0
    # Unknowns (y, lam, nu, t, mu); rows: stationarity, faces, walls,
    # sum of lam, |y|.  The wall and constant blocks never change.
    jac = np.zeros((m + k + w + 2, m + k + w + 2))
    jac[:m, m + k : m + k + w] = -walls.T
    jac[m + k : m + k + w, :m] = walls
    jac[m : m + k, -2] = -1.0
    jac[-2, m : m + k] = 1.0
    res = np.zeros(m + k + w + 2)
    diag = np.arange(m)
    for _ in range(_NEWTON_STEPS):
        qy = q @ y
        f = np.sqrt((qy * qy).sum(axis=1))
        if not (f > 0.25 * f0).all():
            return None
        g = qy / f[:, None]
        s = lam / f
        jac[:m, :m] = (s @ q.reshape(k, -1)).reshape(m, m) - (g.T * s) @ g
        jac[diag, diag] -= mu
        jac[:m, m : m + k] = g.T
        jac[m : m + k, :m] = g
        jac[:m, -1] = -y
        jac[-1, :m] = y
        res[:m] = lam @ g - nu @ walls - mu * y
        res[m : m + k] = f - t
        res[m + k : m + k + w] = walls @ y
        res[-2] = lam.sum() - 1.0
        # Nothing non-finite reaches LAPACK, and nothing leaves it.
        if not (np.isfinite(jac).all() and np.isfinite(res).all()):
            return None
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(step).all():
            return None
        length = math.sqrt(step[:m] @ step[:m])
        if length > _NEWTON_REACH:
            step *= _NEWTON_REACH / length
        lam = lam - step[m : m + k]
        nu = nu - step[m + k : m + k + w]
        t -= step[-2]
        mu -= step[-1]
        if length <= _NEWTON_STOP:
            break
        y = y - step[:m]
        y /= math.sqrt(y @ y)
    return y, lam, nu, t


class _KKTResult(NamedTuple):
    # A Newton point, its exact face distances and feet.
    y: np.ndarray
    dists: np.ndarray
    feet: np.ndarray
    # Masks of the faces and walls held active, and their multipliers.
    faces: np.ndarray
    lam: np.ndarray
    walls: np.ndarray
    nu: np.ndarray


def _kkt_point(face: FaceDistance, y: np.ndarray, tol: float) -> _KKTResult | None:
    """Active-set Newton solve of the KKT conditions of min max_i f_i over
    the sphere in the cone, from the feasible unit point y.

    Faces within `tol` of the largest distance at y and walls with margin
    at most `tol` start active.  After each solve, a multiplier below
    -_KKT_TIE drops its face or wall; otherwise faces above the Newton
    value and walls with negative margin are added, and the sub-face of
    every foot is read again at the new point.  The loop stops when
    nothing changes.  Returns the Newton point of least exact value, if
    it is within _KKT_TIE of the cone and no worse than y, else None.
    Nothing here needs to converge for the bracket to stay sound: see
    `_minorant`.
    """
    normals = face.normals
    dists, feet = _evaluate(face, y)
    top = start = float(dists.max())
    faces = dists >= top - tol
    walls = normals @ y <= tol
    on = _subfaces(normals, feet, faces)
    best, best_top = None, top * (1.0 + _KKT_TIE)
    for _ in range(_NEWTON_ROUNDS):
        try:
            q = _projectors(normals, on)
        except np.linalg.LinAlgError:
            break
        solved = _newton(q, normals[walls], y, top)
        if solved is None:
            break
        moved, lam, nu, t = solved
        if moved is not y:
            y = moved
            dists, feet = _evaluate(face, y)
        top = float(dists.max())
        margins = normals @ y
        if top <= best_top and margins.min() >= -_KKT_TIE:
            best, best_top = _KKTResult(y, dists, feet, faces, lam, walls, nu), top
        elif top > start + tol:
            # Far worse than the start: this active set leads elsewhere.
            break
        multipliers = np.concatenate([lam, nu])
        worst = int(multipliers.argmin())
        if multipliers[worst] < -_KKT_TIE:
            faces, walls = faces.copy(), walls.copy()
            if worst < len(lam):
                faces[np.flatnonzero(faces)[worst]] = False
            else:
                walls[np.flatnonzero(walls)[worst - len(lam)]] = False
            if not faces.any():
                break
            on = _subfaces(normals, feet, faces)
            continue
        new_faces = faces | (dists > t + _KKT_TIE * t)
        new_walls = walls | (margins < -_KKT_TIE)
        new_on = _subfaces(normals, feet, new_faces)
        if (new_faces == faces).all() and (new_walls == walls).all() and (new_on == on).all():
            break
        faces, walls, on = new_faces, new_walls, new_on
    return best


def _minorant(result: _KKTResult, normals: np.ndarray):
    """(G, slack) with f(y) >= (G, y) - slack for every y in the cone.

    Each f_i is convex and 1-homogeneous, so f_i(y) >= (g_i, y) for the
    subgradient g_i = (y_n - p_i) / |y_n - p_i| from the exact foot p_i at
    any point y_n.  For lam in the simplex and nu >= 0, f >= sum_i lam_i
    f_i >= (sum_i lam_i g_i, y) >= (sum_i lam_i g_i - sum_j nu_j a_j, y)
    on the cone, where every (a_j, y) >= 0.  The multipliers are clipped
    to that set, so the bound holds whether or not Newton converged; at a
    KKT point G = C y* and the bound is C (y*, y).  Rounding of the feet
    costs _FOOT_ERROR / f_i per face, as in `_first_order_lower`.
    """
    diff = result.y - result.feet[result.faces]
    norm = np.sqrt((diff * diff).sum(axis=1))
    lam = np.where(norm > 0.0, np.maximum(result.lam, 0.0), 0.0)
    if not lam.sum() > 0.0:
        return None
    lam /= lam.sum()
    inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
    g = diff * inv[:, None]
    gs = lam @ g - np.maximum(result.nu, 0.0) @ normals[result.walls]
    return gs, 2.0 * _FOOT_ERROR * float(lam @ inv)


def _cos_sin(r):
    """cos and sin of the angle rho = 2 asin(r / 2) subtended by a chord r."""
    return 1.0 - 0.5 * r * r, r * np.sqrt(np.maximum(0.0, 1.0 - 0.25 * r * r))


def _minorant_lower(c, r, gs, slack) -> np.ndarray:
    """Best lower bound over each cell from the minorants (rows of gs, less
    their slacks): for unit y within angle rho of the unit centre c,
    (G, y) >= cos(rho) (G, c) - sin(rho) |G - (G, c) c| when rho <= pi / 2
    (and when that is negative, f >= 0 is larger).  Shapes: c (k, m),
    r (k,), and gs (p, m), slack (p,) for minorants shared by all cells,
    or gs (k, p, m), slack (k, p) for each cell's own."""
    cos_r, sin_r = _cos_sin(r)
    h = (c[:, None, :] * gs).sum(axis=2)
    tang = gs - h[:, :, None] * c[:, None, :]
    tn = np.sqrt((tang * tang).sum(axis=2))
    bound = (cos_r[:, None] * h - sin_r[:, None] * tn - slack).max(axis=1)
    return np.where(cos_r >= 0.0, bound, -np.inf)


def _open_cells(x, which, half, signs, at, carried, minorants, top):
    """The cells x (rows) that meet the cone ((c, a_i) >= -r) and that no
    minorant lifts to `top`, as (x, which, centre, radius, least margin,
    minorant bound), and the least bound of the others (inf: none).
    `carried` holds each cell's minorant, `minorants` the shared ones."""
    c = _normalize_rows(x)
    r = _cell_radii(x, which // 2, half, signs)
    margin = (c @ at).min(axis=1)
    prior = _minorant_lower(c, r, carried[0][:, None, :], carried[1][:, None])
    if len(minorants[1]):
        prior = np.maximum(prior, _minorant_lower(c, r, *minorants))
    prior -= 1e-12
    alive = margin >= -r
    closed = alive & (prior >= top)
    alive &= ~closed
    least = float(prior[closed].min()) if closed.any() else np.inf
    return (x[alive], which[alive], c[alive], r[alive], margin[alive], prior[alive]), least


def _keep_best(hi, best, f, points):
    """(hi, best), or the first point (row of `points`) of least f when its
    f is below hi."""
    if len(f):
        k = int(np.argmin(f))
        if f[k] < hi:
            return float(f[k]), points[k]
    return hi, best


def _kept_point(face: FaceDistance, y, inward):
    """y as a feasible unit point to keep, with its f, or None.

    y moves toward the interior point `inward` until every margin is at
    least _PUSH (by about _PUSH / the least margin of `inward`, which
    bounds the change in f) and is normalized.
    """
    at = face.normals.T
    pair = np.vstack([y, y])
    margin = (pair @ at)[0].min()
    if margin < _PUSH:
        depth = (np.vstack([inward, inward]) @ at)[0].min()
        if not depth > 0.0:
            return None
        pair = pair + (2.0 * _PUSH - margin) / depth * inward
    pair = _normalize_rows(pair)
    if (pair @ at).min() < 0.0:
        return None
    return pair[0], face.max_face_distance(pair)[0]


class Bracket(NamedTuple):
    """Result of the branch-and-bound: lo <= C <= hi, and hi - lo <= 1e-4
    (up to a 1e-12 rounding allowance) when `complete`."""

    lo: float
    hi: float
    # The feasible unit point that attains hi.
    best: np.ndarray
    # Centres (and the seed) whose face distances were computed.
    evaluations: int
    # False when the budget stopped the search before the gap closed.
    complete: bool


def branch_and_bound_min_max_face_distance(
    face: FaceDistance, interior_seed: np.ndarray
) -> Bracket:
    """Certified bracket on C = min over unit y in the cone of max_i dist(y, B_i).

    The sphere is covered by the 2m faces of the cube [-1, 1]^m, split
    into squares and normalized.  For a cell with normalized centre c, let
    r be the longest chord from c to a normalized corner; (x, c) / |x| is
    positive (for m <= 16) and quasi-concave on the square, so its minimum
    is at a corner and no point of the cell is farther from c.  Then:

    * the cell misses the cone when (c, a_i) < -r for some wall i;
    * f >= f(c) - r on the cell, whether or not c lies in the cone, because
      f(y) = max_i dist(y, B_i) is 1-Lipschitz on all of R^m, being a
      maximum of distances to sets;
    * f >= the first-order bound of `_first_order_lower` on the cell,
      computed for the cells that the other bounds would split and that
      it can close (it is at most cos(rho) f(c)), or for every such cell
      when the budget may stop the search after the level;
    * f >= (G, y) - slack on the cell for its parent's Frank-Wolfe
      minorant, and on the cell and cone for every minorant of a KKT solve
      (`_minorant`), bounded over the cell by `_minorant_lower`; a cell
      they close stops unevaluated, and `evaluations` counts only the
      evaluated centres;
    * hi, the best f at a feasible centre or Newton point, bounds C from
      above.

    Once the cells are within _NEWTON_RADIUS of their centres and some
    would split, `_kkt_point` runs from the best feasible point.  A point
    it finds below hi, moved inside the cone and evaluated exactly, joins
    the kept points, and its minorant bounds this level's cells and every
    later one.  It runs again when a centre falls below its point, or, if
    it did not lower hi, once hi has fallen by the stopping gap.  At a
    KKT point the minorant is C (y*, y), which closes every cell within
    about sqrt(2e-4 / C) radians of the minimizer y*.

    Level by level, a cell is split into 2^(m-1) children while the largest
    of its lower bounds is below hi - 1e-4, and lo is the least lower
    bound of the cells that stopped, so hi - lo <= 1e-4 up to a 1e-12
    allowance for rounding.  If the children left open would take the
    work past 2^26 face projections (n 2^(n-1) per evaluation), the split
    cells stop too, and the bracket is wider but still certified, with
    `complete` False.
    """
    m = face.m
    at = face.normals.T
    x, offsets = _cube_faces(m)
    signs = offsets[0, :, 1:]
    q = len(signs)
    max_points = _BNB_PROJECTIONS // (face.n << (face.n - 1))
    complete = True
    best = interior_seed
    hi = float(face.max_face_distance(interior_seed[None])[0])
    evaluations = 1
    # Minorants from the KKT solves (rows, less their slacks), and the hi
    # below which the solve runs again.
    gs, slacks = np.empty((0, m)), np.empty(0)
    newton_top = np.inf
    half = 1.0
    # The 2m faces carry no minorant (slack inf), and none of them closes.
    carried = np.zeros((2 * m, m)), np.full(2 * m, np.inf)
    cells, lo = _open_cells(x, np.arange(2 * m), half, signs, at, carried, (gs, slacks), np.inf)
    count = len(cells[0])
    while count:
        x, which, c, r, margin, prior = cells
        # Whether the budget can stop the search after this level.
        may_stop = evaluations + len(c) * (1 + q) > max_points
        lower = np.empty(len(c))
        grads, slack = np.zeros((len(c), m)), np.full(len(c), np.inf)
        for s in range(0, len(c), _MAX_DISTANCE_ROWS):
            block = slice(s, s + _MAX_DISTANCE_ROWS)
            cb, rb = c[block], r[block]
            dists, feet = face.distances_and_feet(cb)
            f = dists.max(axis=1)
            feasible = margin[block] >= 0.0
            hi, best = _keep_best(hi, best, f[feasible], cb[feasible])
            # 1e-12 absorbs rounding in f and r, far below the stopping gap.
            low = np.maximum(f - rb - 1e-12, prior[block])
            # hi can only fall later in the level, so these include every
            # cell that the Lipschitz bound and the minorants would split.
            weak = low < hi - _BNB_ATOL
            # Past this target a cell stops.
            target = hi - _BNB_ATOL + 1e-12
            if not may_stop:
                # The first-order bound is at most cos(rho) f(c), because
                # (g_i, c) = f_i(c); below the target it would split anyway.
                weak &= (1.0 - 0.5 * rb * rb) * f + 1e-12 >= target
            if weak.any():
                first, grads[block][weak], slack[block][weak] = _first_order_lower(
                    cb[weak], dists[weak], feet[weak], rb[weak], target
                )
                low[weak] = np.maximum(low[weak], first - 1e-12)
            lower[block] = low
        evaluations += len(c)
        split = lower < hi - _BNB_ATOL
        if split.any() and r.max() <= _NEWTON_RADIUS and hi < newton_top:
            found = _kkt_point(face, best, min(float(r.max()), 0.5 * hi))
            newton_top = hi - _BNB_ATOL
            if found is not None:
                if found.dists.max() < hi:
                    kept = _kept_point(face, found.y, interior_seed)
                    if kept is not None:
                        hi, best = _keep_best(hi, best, [kept[1]], kept[0][None])
                        newton_top = hi
                bound = _minorant(found, face.normals)
                if bound is not None:
                    gs = np.vstack([gs, bound[0]])
                    slacks = np.append(slacks, bound[1])
                    fresh = _minorant_lower(c, r, gs[-1:], slacks[-1:])
                    lower = np.maximum(lower, fresh - 1e-12)
            split = lower < hi - _BNB_ATOL
        if not split.all():
            lo = min(lo, float(lower[~split].min()))
        # The children left open, screened in blocks of parents: each
        # inherits its parent's Frank-Wolfe minorant.
        half *= 0.5
        rows, step = np.flatnonzero(split), max(1, _BLOCK_ENTRIES // (q * m))
        kids, count = [], 0
        for p in (rows[s : s + step] for s in range(0, len(rows), step)):
            kx = (x[p, None, :] + half * offsets[which[p]]).reshape(-1, m)
            carried = np.repeat(grads[p], q, axis=0), np.repeat(slack[p], q)
            top = hi - _BNB_ATOL
            cells, least = _open_cells(kx, np.repeat(which[p], q), half, signs, at, carried, (gs, slacks), top)
            lo = min(lo, least)
            kids.append(cells)
            count += len(cells[0])
            if evaluations + count > max_points:
                # The budget stops the search at the split cells.
                lo = min(lo, float(lower[split].min()))
                complete, count = False, 0
                break
        if count:
            cells = [np.concatenate(part) for part in zip(*kids)]
    if not math.isfinite(lo):
        raise DegenerateArrangement("branch-and-bound found no cell inside the cone")
    return Bracket(lo, hi, best, evaluations, complete)
