"""Scalar characteristics of a polyhedral cone and its collision bounds.

For a cone with n independent unit normals this module computes, on the
cone's `span` (the cone itself when the normals span R^n):

* the equal-margin radius d and center direction e, from (e, a_i) = d on
  every wall: the inscribed ball's radius only when G^{-1} 1 >= 0, and
  otherwise below it, since the largest ball about a unit vector in Q has
  radius sin S(Q);
* delta = min over unit y of max_i |(y, a_i)|, and psi = arcsin(delta);
* the charge S(Q) = max over rays in Q of the least angle to a wall, the
  arrangement charge phi = min of S over all full-dimensional sign cones,
  which equals psi (see `charge_phi`);
* the nondegeneracy constant C = min over unit y in Q of max_i dist(y, B_i),
  at least the floor delta_Q of the largest 0/1 vertex and equal to it
  where that vertex's feet lie in their faces, and otherwise bracketed by
  outer approximation from that vertex;
* every collision-count bound built from these constants.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateArrangement, InvalidParameter, NotACone
from .geometry import ConeSpec, GramMatrix, InscribedBall, as_gram, is_int
from . import minimax


class EstimateMethod(enum.Enum):
    """How a constant was obtained: closed_form is exact up to rounding
    (delta and phi up to n = 16, and C of wedges and of the cones whose
    largest 0/1 vertex has every face-distance foot in its face, orthants
    among them); nearest_point is one NNLS with certified ends (S(Q));
    multistart is an estimate from above, the best of a few ascents over
    sign vertices (delta and phi past n = 16); outer_approximation is a
    certified interval (every other C)."""

    closed_form = "closed_form"
    nearest_point = "nearest_point"
    multistart = "multistart"
    outer_approximation = "outer_approximation"


@dataclass(frozen=True)
class ConstantEstimate:
    """A computed constant plus how it was obtained.

    `value` is always a valid estimate from above for minimization targets
    (exact for closed forms); `certified_lower` is a lower bound when one
    is available: the value itself for a closed form, the a-priori
    sqrt(lambda_min / n) for the multistart route, or for C's outer
    approximation the larger of that and the bracket's lo, which is at
    least the floor delta_Q less its rounding allowance where that floor
    is solved (n <= 16).  The
    constant lies in [certified_lower, value].  S(Q) is a maximum: its
    value is its certified lower end, within 1e-12 of the upper end of
    `minimax.nearest_point_margin` on every cone tested.  `starts_used`
    counts the sign vectors, NNLS problems or flip-ascent starts the route
    solved; every route of C reports 0.
    """

    value: float
    certified_lower: float | None
    method: EstimateMethod
    starts_used: int

    def __post_init__(self):
        if self.certified_lower is not None and self.certified_lower > self.value + 1e-9:
            raise InvalidParameter(
                f"certified lower bound {self.certified_lower} exceeds value {self.value}"
            )


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """All constants of a cone and every collision bound assembled from
    them, computed on `cone`: the `span` of the cone given."""

    lambda_min: float
    d: float
    delta: float
    psi: float
    charge_SQ: float
    charge_phi: float
    bfk_C: float
    bound_main: float
    bound_dd: float
    bound_sevryuk: float
    bound_bfk: float
    bound_wedge: int | None
    bound_tridiagonal: int | None
    tridiagonal_applicable: bool
    cone: ConeSpec = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


# The data fields in declaration order; the cone is not data.  BOUNDS are
# the collision-count bounds among them, None where a bound does not apply.
BoundsReport.FIELDS = tuple(f.name for f in fields(BoundsReport) if f.name != "cone")
BoundsReport.BOUNDS = tuple(name for name in BoundsReport.FIELDS if name.startswith("bound_"))


def ceil_snapped(x: float) -> int:
    """Ceiling that forgives floating noise up to 1e-9 relative around
    integers.  Raises InvalidParameter for NaN, +-inf or a non-number."""
    if not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise InvalidParameter(f"ceil_snapped needs a finite number, got {x!r}")
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


def _cone(cone) -> ConeSpec:
    """cone itself; NotACone for anything that is not a ConeSpec (raw
    normals go through `make_cone` first)."""
    if not isinstance(cone, ConeSpec):
        raise NotACone(f"expected a ConeSpec from make_cone, got {type(cone).__name__}")
    return cone


def inscribed_ball(cone: ConeSpec) -> InscribedBall:
    """The unit centre e and radius d with (e, a_i) = d: `cone.ball`, solved
    once per cone, and DimensionMismatch for n < m walls.  e lies in Q, but
    it is the centre of the inscribed ball only when G^{-1} 1 >= 0; see
    `InscribedBall`."""
    return _cone(cone).ball


# Largest n at which the 2^n vertex enumerations run: delta's sign-vertex
# formula (2^(n-1) vertices) and C's floor delta_Q (2^n - 1).  Past it,
# delta and phi come from the flip ascent over the same sign vertices, an
# estimate from above in polynomial time, and C has no floor but the
# a-priori one, and no closed form.
_ENUMERATION_MAX_N = 16


def capacity_delta(cone: ConeSpec) -> ConstantEstimate:
    """Capacity delta = min over unit y of max_i |(y, a_i)|; psi = arcsin(delta).

    Computed on `cone.span`, since the minimum lies in the span of the
    normals.  Up to n = 16 the sign-vertex formula of
    `minimax.min_max_abs_margin` gives delta exactly, and the value is its
    own certified lower end.  Past it, the one-flip ascent of
    `minimax.flip_min_max_abs_margin` over the same sign vertices gives an
    estimate from above (method multistart), with the a-priori
    sqrt(lambda_min / n) as the lower end; it matched the formula exactly
    on every cone tested at n = 2..16.
    """
    cone = _cone(cone).span
    n = cone.n_walls
    lower = math.sqrt(max(cone.lambda_min, 0.0) / n)
    if n <= _ENUMERATION_MAX_N:
        value = min(max(minimax.min_max_abs_margin(cone)[0], lower - 1e-12), 1.0)
        return ConstantEstimate(value, value, EstimateMethod.closed_form, 1 << (n - 1))
    value, _, used = minimax.flip_min_max_abs_margin(cone)
    return ConstantEstimate(min(max(value, lower - 1e-12), 1.0), lower, EstimateMethod.multistart, used)


def charge_SQ(cone: ConeSpec) -> ConstantEstimate:
    """Charge S(Q): largest least angle between a ray inside Q and a wall.

    sin S(Q) = max over unit u of min_i (u, a_i) = 1 / min{|u| : A u >= 1},
    from one NNLS (`minimax.nearest_point_margin`).  The value is the
    arcsine of its lower end, the least margin of a feasible unit vector,
    and is its own certified lower end; its upper end, from the clipped
    multipliers, was within 6.4e-15 of it on every cone tested.  It is
    computed on `cone.span`: the maximum is attained there, since a
    component off the span changes no margin and takes up norm.
    """
    value = math.asin(min(1.0, minimax.nearest_point_margin(_cone(cone).span).lower))
    return ConstantEstimate(value, value, EstimateMethod.nearest_point, 1)


def charge_phi(cone: ConeSpec) -> ConstantEstimate:
    """Arrangement charge phi = min over signs s of S(Q_s), where
    Q_s = {y : s_i (y, a_i) >= 0}; it equals psi = arcsin(delta).

    Let y_s be the vertex (y_s, a_i) = s_i of {y : |(y, a_i)| <= 1}, so that
    delta = 1 / max_s |y_s|.  Then s_i (y_s, a_i) >= 1, so every sign cone
    has sin S(Q_s) >= 1 / |y_s| >= delta.  At the vertex of largest norm,
    optimality gives y_s = sum_i mu_i s_i a_i with mu >= 0, so
    (u, y_s) >= sum_i mu_i = |y_s|^2 whenever s_i (u, a_i) >= 1, and that
    sign cone has sin S = delta exactly.  So phi takes delta's route
    (`capacity_delta`): exact up to n = 16, and past it the flip ascent's
    estimate from above, with arcsin(sqrt(lambda_min / n)) as its certified
    end, both on `cone.span`.  Like every constant it takes a `ConeSpec`;
    raw normals go through `make_cone` first.
    """
    delta = capacity_delta(cone)
    return ConstantEstimate(
        math.asin(delta.value), math.asin(delta.certified_lower), delta.method, delta.starts_used
    )


def _wedge_angle(g: GramMatrix) -> float:
    """Opening angle theta = arccos(-(a_1, a_2)) of a two-wall cone."""
    return math.acos(min(1.0, max(-1.0, -g.entries[0, 1])))


def bfk_constant(cone: ConeSpec) -> ConstantEstimate:
    """Nondegeneracy constant C = min over unit y in Q of max_i dist(y, B_i).

    Computed on `cone.span`, as a component off the span moves no distance.

    Every two-wall cone in R^2 is a wedge, minimized on its bisector:
    C = sin(theta / 2).  Otherwise, up to n = 16, C starts from the
    floor delta_Q = 1 / max |y_x| over the vertices (y_x, a_i) = x_i, x in
    {0, 1}^n (`minimax.zero_one_vertex`): C >= delta_Q because
    dist(y, B_i) >= (y, a_i) on Q.  Let y_Q be the largest vertex,
    normalized, with support S = {i : x_i = 1}.  For i outside S, y_Q lies
    on B_i; for i in S the foot of y_Q on the hyperplane of wall i is
    y_Q - delta_Q a_i, with margins delta_Q (x_j - G_ij).  When G_ij <= 0
    for every i in S and j outside S, every foot lies in its face, so
    f(y_Q) = delta_Q and C = delta_Q, exact up to rounding as for delta:
    the closed form, with no face distance computed.  It is the shortcut
    of `minimax.nearest_point_face_distances` taken by every face at y_Q,
    which needs no NNLS there exactly when this rule holds.  An orthant
    is the case S = every wall, where delta_Q = 1 / sqrt(n); so is the
    half-line (n = 1), where C = delta_Q = 1 because the only face is the
    apex.

    Otherwise C is bracketed by outer approximation
    (`minimax.outer_approximation_min_max_face_distance`, method
    outer_approximation).  f = max_i dist(., B_i) is convex and
    1-homogeneous, so C = 1 / max{|y| : y in K} for the convex
    K = {y in Q : f(y) <= 1}, and K lies in the parallelotope
    {0 <= (y, a_i) <= 1}, whose largest vertex is y_Q / delta_Q.  Each
    round takes the largest vertex v of the current polytope: 1 / |v|
    less a 1e-12 rounding allowance is a lower end, the largest face
    distance at v / |v|, moved inside the cone, is an upper end (from the
    hyperplane foot where it lies in its face, and otherwise from one NNLS
    on the face's rays), and each face with dist(v, B_i) > 1 adds a cut
    from its foot, clipped to that face's polar so that it holds however
    inexact the foot.  The rounds stop once the ends are within 1e-4,
    when a round cuts off no vertex, or before the vertex list passes its
    cap of 2^14; past n = 14 there are no rounds, and the ends are those
    of the inscribed centre e and of y_Q.  `value` = hi, the largest face
    distance at the returned point, and `certified_lower` =
    max(lo, sqrt(lambda_min / n)), where lo is at least delta_Q less 1e-12
    up to n = 16 and 0 past it (no vertex is solved there).  `starts_used`
    is 0.  Any feasible evaluation is <= 1 because the apex belongs to
    every face, so 0 < C <= 1 always holds for the value.
    """
    cone = _cone(cone).span
    n = cone.n_walls
    lower = math.sqrt(max(cone.lambda_min, 0.0) / n)

    if n == 2:
        closed = math.sin(_wedge_angle(cone.gram_matrix) / 2.0)
        return ConstantEstimate(closed, closed, EstimateMethod.closed_form, 0)
    vertex = None
    if n <= _ENUMERATION_MAX_N:
        vertex = minimax.zero_one_vertex(cone)
        support = vertex.support
        if (cone.gram_matrix.entries[np.ix_(support, ~support)] <= 0.0).all():
            closed = min(vertex.value, 1.0)
            return ConstantEstimate(closed, closed, EstimateMethod.closed_form, 0)

    bracket = minimax.outer_approximation_min_max_face_distance(cone, vertex)
    value = bracket.hi
    lower = max(lower, bracket.lo)

    if not 0.0 < value <= 1.0 + 1e-9:
        raise DegenerateArrangement(f"nondegeneracy constant {value} outside (0, 1]")
    value = max(min(value, 1.0), lower - 1e-12)
    return ConstantEstimate(value, min(lower, value), EstimateMethod.outer_approximation, 0)


def tridiagonal_case(g) -> tuple[bool, int | None]:
    """Check the banded special case and return (applicable, its sharp bound
    n(n+1)/2), or (False, None).

    Applicable when every neighbor product (a_i, a_{i+1}) >= -1/2 - 1e-12
    and |(a_i, a_j)| <= 1e-12 for |i - j| > 1.  An array goes through
    `GramMatrix` first.
    """
    entries = as_gram(g).entries
    n = entries.shape[0]
    if (np.diag(entries, 1) >= -0.5 - 1e-12).all() and (np.abs(np.triu(entries, 2)) <= 1e-12).all():
        return True, n * (n + 1) // 2
    return False, None


def _check_wedge_angle(theta) -> None:
    if not (isinstance(theta, numbers.Real) and 0.0 < theta < math.pi):
        raise InvalidParameter(f"wedge angle must lie in (0, pi), got {theta}")


def sharp_bound(theta: float) -> int:
    """ceil(pi / theta), the sharp reflection bound of a wedge of angle theta,
    with `ceil_snapped`'s forgiveness; `bounds_report`'s bound_wedge.
    Raises InvalidParameter unless 0 < theta < pi."""
    _check_wedge_angle(theta)
    return ceil_snapped(math.pi / theta)


def _power_bound(factor, base: float, exponent: int) -> float:
    """factor * base^exponent as a float, or inf past the float range."""
    try:
        return factor * base ** exponent
    except OverflowError:
        return math.inf


def main_bound(n: int, lambda_min: float) -> float:
    """n! (4 / lambda_min)^(n-1), as a float; inf past the float range.

    Raises InvalidParameter unless n is an integer >= 1 and lambda_min is
    a finite number > 0.
    """
    if not (is_int(n) and n >= 1):
        raise InvalidParameter(f"n must be an integer >= 1, got {n!r}")
    if not (isinstance(lambda_min, numbers.Real) and math.isfinite(lambda_min) and lambda_min > 0.0):
        raise InvalidParameter(f"lambda_min must be finite and > 0, got {lambda_min!r}")
    return _power_bound(math.factorial(n), 4.0 / lambda_min, n - 1)


def step_cap(n: int, lambda_min: float) -> int:
    """Default simulation budget ceil(main_bound) + 1, at most sys.maxsize;
    the inputs are checked as in `main_bound`."""
    bound = main_bound(n, lambda_min)
    return int(math.ceil(bound)) + 1 if bound < sys.maxsize else sys.maxsize


def _sevryuk_bound(n: int, phi: float) -> float:
    """Sevryuk's (sin^2 phi / 2) (4 / sin^2 phi)^(2^(n-1)) - 1, written as
    2 (4 / sin^2 phi)^(2^(n-1) - 1) - 1 so that it overflows to inf only past
    the float range, by `_power_bound`'s rule."""
    return _power_bound(2.0, 4.0 / math.sin(phi) ** 2, 2 ** (n - 1) - 1) - 1.0


def bounds_report(cone: ConeSpec) -> BoundsReport:
    """Assemble every constant and collision bound for a cone.

    Everything is computed on `cone.span`, which is also the report's
    `cone`: for fewer walls than dimensions that is the cone in the span of
    its normals, with the same Gram matrix and constants.
    """
    cone = _cone(cone).span
    n = cone.n_walls
    lam = cone.lambda_min
    ball = inscribed_ball(cone)
    delta_est = capacity_delta(cone)
    psi = math.asin(delta_est.value)
    sq = charge_SQ(cone)
    c_est = bfk_constant(cone)

    g = cone.gram_matrix
    applicable, tri_bound = tridiagonal_case(g)

    # Each bound decreases as its constant grows, so it is computed from the
    # certified lower end of the constant's interval, never from an estimate
    # from above.  phi = psi, and Sevryuk's bound takes phi's lower end
    # arcsin(delta_low).
    d = ball.d
    delta_low = delta_est.certified_lower
    return BoundsReport(
        lambda_min=lam,
        d=d,
        delta=delta_est.value,
        psi=psi,
        charge_SQ=sq.value,
        charge_phi=psi,
        bfk_C=c_est.value,
        bound_main=main_bound(n, lam),
        bound_dd=_power_bound(1.0, 4.0 / (d * delta_low), n - 1),
        bound_sevryuk=_sevryuk_bound(n, math.asin(delta_low)),
        bound_bfk=_power_bound(8.0, 1.0 / c_est.certified_lower + 2.0, 2 * (n - 1)),
        bound_wedge=sharp_bound(_wedge_angle(g)) if n == 2 else None,
        bound_tridiagonal=tri_bound,
        tridiagonal_applicable=applicable,
        cone=cone,
    )
