"""Independent oracles for delta and C, built from the `minimax` routines.

The library computes delta by the sign-vertex formula (up to n = 16) and C
by its closed forms and the certified branch-and-bound.  These routes
check them from above: multistart projected subgradient descent from
Sobol starts, and, in dimension 2 and 3, dense grid minimization on the
sphere.  Each returns its value clamped as the library clamps its own:
at most 1, and at least the a-priori sqrt(lambda_min / n) less 1e-12.
"""

import functools
import math

import numpy as np

from conebilliards import minimax
from conebilliards.constants import inscribed_ball
from conebilliards.errors import DegenerateArrangement
from conebilliards.minimax import FaceDistance


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
    return _delta(cone, minimax.multistart_min_max_abs(cone.normals)[0])


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
    from Sobol starts and the inscribed centre."""
    face = FaceDistance(cone.normals)
    value, _, _ = minimax.multistart_min_max_face_distance(face, inscribed_ball(cone).e)
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
