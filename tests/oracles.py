"""Independent oracles for delta and C, built from the `minimax` routines.

The library computes delta by the sign-vertex formula (up to n = 16, and
by a flip ascent over the same vertices past it) and C by its closed
forms and the certified outer approximation.  These routes check them from
above: multistart projected subgradient descent from Sobol starts, and,
in dimension 2 and 3, dense grid minimization on the sphere.  Each
returns its value clamped as the library clamps its own: at most 1, and
at least the a-priori sqrt(lambda_min / n) less 1e-12.  scipy draws the
Sobol starts here, in the tests; the library imports none of it.
"""

import functools
import math

import numpy as np

from conebilliards import minimax
from conebilliards.constants import inscribed_ball
from conebilliards.errors import DegenerateArrangement
from conebilliards.geometry import _unit_rows
from conebilliards.minimax import _ITERS, FaceDistance

# Fixed scramble seed: starts are low-discrepancy yet reproducible.
_SOBOL_SEED = 20090
# Starts of the multistart routes (Sobol points, plus the interior seed for
# face distances), and the first step length for max |margin|.
N_STARTS = 256
_ABS_STEP0 = 0.5


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
        cand = _unit_rows(y - eta[:, None] * grad)
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


def _a_priori(cone):
    return math.sqrt(max(cone.lambda_min, 0.0) / cone.n_walls)


def _delta(cone, value):
    return float(min(max(value, _a_priori(cone) - 1e-12), 1.0))


def _c(cone, value):
    if not 0.0 < value <= 1.0 + 1e-9:
        raise DegenerateArrangement(f"nondegeneracy constant {value} outside (0, 1]")
    return max(min(value, 1.0), _a_priori(cone) - 1e-12)


def delta_multistart(cone) -> float:
    """delta from above: max_i |(y, a_i)| descended from Sobol starts."""
    return _delta(cone, multistart_min_max_abs(cone.normals)[0])


def delta_grid(cone) -> float:
    """delta from above: max_i |(y, a_i)| on a dense sphere grid (dim <= 3)."""
    at = cone.matrix

    def f_batch(pts):
        # Column by column: numpy reduces short rows slowly, and a maximum
        # is exact in any order.
        return functools.reduce(np.maximum, np.abs(pts @ at).T)

    return _delta(cone, minimax.sphere_grid_minimize(f_batch, cone.dim)[0])


def c_multistart(cone) -> float:
    """C from above: the largest face distance descended, inside the cone,
    from N_STARTS - 1 Sobol starts and the inscribed centre."""
    face = FaceDistance(cone.normals)
    starts = sphere_starts(cone.dim, N_STARTS - 1)
    value, _, _ = minimax.multistart_min_max_face_distance(face, inscribed_ball(cone).e, starts)
    return _c(cone, value)


def c_grid(cone) -> float:
    """C from above: the largest face distance on the points of a dense
    sphere grid that lie in the cone, plus the inscribed centre (dim <= 3)."""
    face = FaceDistance(cone.normals)
    at = cone.matrix

    def f_batch(pts):
        vals = np.full(pts.shape[0], np.inf)
        ok = functools.reduce(np.minimum, (pts @ at).T) >= -1e-12
        if ok.any():
            vals[ok] = face.max_face_distance(pts[ok])
        return vals

    seed = inscribed_ball(cone).e
    return _c(cone, minimax.sphere_grid_minimize(f_batch, cone.dim, seeds=seed[None, :])[0])
