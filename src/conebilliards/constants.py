"""Scalar characteristics of a polyhedral cone and its collision bounds.

For a cone with n independent unit normals spanning R^n this module
computes:

* the equal-margin radius d and center direction e, from (e, a_i) = d on
  every wall: the inscribed ball's radius only when G^{-1} 1 >= 0, and
  otherwise below it, since the largest ball about a unit vector in Q has
  radius sin S(Q);
* delta = min over unit y of max_i |(y, a_i)|, and psi = arcsin(delta);
* the charge S(Q) = max over rays in Q of the least angle to a wall, the
  arrangement charge phi = min of S over all full-dimensional sign cones,
  which equals psi (see `charge_phi`);
* the nondegeneracy constant C = min over unit y in Q of max_i dist(y, B_i);
* every collision-count bound built from these constants.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateArrangement, DimensionMismatch
from .geometry import ConeSpec, GramMatrix, make_cone, reduce_to_span
from . import minimax
from .minimax import FaceDistance


class EstimateMethod(enum.Enum):
    """How a constant was obtained: closed_form is exact up to rounding
    (delta up to n = 16, phi, and C of wedges and orthants);
    subset_enumeration is exact (S(Q)); multistart is an estimate from
    above (delta past n = 16); branch_and_bound is a certified interval
    (every other C)."""

    closed_form = "closed_form"
    subset_enumeration = "subset_enumeration"
    multistart = "multistart"
    branch_and_bound = "branch_and_bound"


@dataclass(frozen=True)
class ConstantEstimate:
    """A computed constant plus how it was obtained.

    `value` is always a valid estimate from above for minimization targets
    (exact for closed forms and enumerations); `certified_lower` is a lower
    bound when one is available: the value itself for a closed form, the
    a-priori sqrt(lambda_min / n) for the multistart route, or the larger
    end of a branch-and-bound certificate.  The constant lies in
    [certified_lower, value].  `starts_used` counts the sign vectors,
    subsets or multistart starts the route solved; the branch-and-bound
    and the closed forms of C report 0.
    """

    value: float
    certified_lower: float | None
    method: EstimateMethod
    starts_used: int

    def __post_init__(self):
        if self.certified_lower is not None and self.certified_lower > self.value + 1e-9:
            raise ValueError(
                f"certified lower bound {self.certified_lower} exceeds value {self.value}"
            )


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
        e = np.ascontiguousarray(self.e, dtype=np.float64)
        e.flags.writeable = False
        object.__setattr__(self, "e", e)


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """All constants of a cone and every collision bound assembled from them."""

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

    FIELDS = (
        "lambda_min",
        "d",
        "delta",
        "psi",
        "charge_SQ",
        "charge_phi",
        "bfk_C",
        "bound_main",
        "bound_dd",
        "bound_sevryuk",
        "bound_bfk",
        "bound_wedge",
        "bound_tridiagonal",
        "tridiagonal_applicable",
    )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


def ceil_snapped(x: float, tol: float = 1e-9) -> int:
    """Ceiling that forgives sub-tolerance floating noise around integers."""
    r = round(x)
    if abs(x - r) <= tol * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


def _require_square(cone: ConeSpec, what: str) -> None:
    if cone.n_walls != cone.dim:
        raise DimensionMismatch(
            f"{what} needs as many walls as dimensions "
            f"(got n={cone.n_walls}, m={cone.dim}); reduce_to_span first"
        )


def inscribed_ball(cone: ConeSpec) -> InscribedBall:
    """Solve (e, a_i) = d for the unit center e and radius d (n = m).

    e lies in Q, but it is the centre of the inscribed ball only when
    G^{-1} 1 >= 0; see `InscribedBall`.

    With A the matrix of normal columns, e^T A = d (1, ..., 1) gives
    d = 1 / ||(1, ..., 1) A^{-1}|| and e^T = d (1, ..., 1) A^{-1}.
    """
    _require_square(cone, "inscribed_ball")
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


# delta's sign-vertex formula solves 2^(n-1) vertices; past this n the
# multistart route estimates delta from above.
_FORMULA_MAX_N = 16


def capacity_delta(cone: ConeSpec) -> ConstantEstimate:
    """Capacity delta = min over unit y of max_i |(y, a_i)|; psi = arcsin(delta).

    Up to n = 16 the sign-vertex formula of `minimax.min_max_abs_margin`
    gives delta exactly, and the value is its own certified lower end.
    Past it, multistart projected subgradient descent gives an estimate
    from above, with the a-priori sqrt(lambda_min / n) as the lower end.
    """
    _require_square(cone, "capacity_delta")
    n = cone.n_walls
    lower = math.sqrt(max(cone.lambda_min, 0.0) / n)
    if n <= _FORMULA_MAX_N:
        value, _ = minimax.min_max_abs_margin(cone.normals)
        value = float(min(max(value, lower - 1e-12), 1.0))
        return ConstantEstimate(value, value, EstimateMethod.closed_form, 1 << (n - 1))
    value, _, used = minimax.multistart_min_max_abs(cone.normals)
    value = float(min(max(value, lower - 1e-12), 1.0))
    return ConstantEstimate(value, lower, EstimateMethod.multistart, used)


def charge_SQ(cone: ConeSpec) -> ConstantEstimate:
    """Charge S(Q): largest least angle between a ray inside Q and a wall.

    Equal-margin subset enumeration solves the concave problem
    max over ||u|| <= 1 of min_i (u, a_i) exactly; the charge is the
    arcsine of that optimal margin.
    """
    val, _ = minimax.max_min_margin(cone.normals)
    val = min(1.0, max(-1.0, val))
    return ConstantEstimate(
        value=math.asin(val),
        certified_lower=None,
        method=EstimateMethod.subset_enumeration,
        starts_used=2 ** cone.n_walls - 1,
    )


def charge_phi(normals) -> ConstantEstimate:
    """Arrangement charge phi = min over signs s of S(Q_s), where
    Q_s = {y : s_i (y, a_i) >= 0}; it equals psi = arcsin(delta).

    Let y_s be the vertex (y_s, a_i) = s_i of {y : |(y, a_i)| <= 1}, so that
    delta = 1 / max_s |y_s|.  Then s_i (y_s, a_i) >= 1, so every sign cone
    has sin S(Q_s) >= 1 / |y_s| >= delta.  At the vertex of largest norm,
    optimality gives y_s = sum_i mu_i s_i a_i with mu >= 0, so
    (u, y_s) >= sum_i mu_i = |y_s|^2 whenever s_i (u, a_i) >= 1, and that
    sign cone has sin S = delta exactly.  Raw arrays go through `make_cone`.
    """
    if not isinstance(normals, ConeSpec):
        arr = np.atleast_2d(np.asarray(normals, dtype=np.float64))
        normals = make_cone(arr.shape[1], arr)
    value, _ = minimax.min_max_abs_margin(normals.normals)
    value = math.asin(min(1.0, value))
    return ConstantEstimate(
        value=value,
        certified_lower=value,
        method=EstimateMethod.closed_form,
        starts_used=1 << (normals.n_walls - 1),
    )


def _wedge_angle(g: GramMatrix) -> float:
    """Opening angle theta = arccos(-(a_1, a_2)) of a two-wall cone."""
    return math.acos(min(1.0, max(-1.0, -g.entries[0, 1])))


def _bfk_closed_form(cone: ConeSpec) -> float | None:
    """C where a closed form is known, else None.

    Every two-wall cone in R^2 is a wedge, minimized on its bisector:
    C = sin(theta / 2).  In an orthant (identity Gram matrix) the distance
    to face i is the i-th coordinate, so C = 1 / sqrt(n).
    """
    n = cone.n_walls
    g = cone.gram_matrix
    if n == 2:
        return math.sin(_wedge_angle(g) / 2.0)
    if np.abs(g.entries - np.eye(n)).max() <= 1e-12:
        return 1.0 / math.sqrt(n)
    return None


def bfk_constant(cone: ConeSpec) -> ConstantEstimate:
    """Nondegeneracy constant C = min over unit y in Q of max_i dist(y, B_i).

    Wedges and orthants have a closed form.  Otherwise face distances are
    exact (active-set enumeration), and the outer minimum over the
    sphere-in-cone is bracketed by the cube-sphere branch-and-bound, whose
    cells carry a Lipschitz and a first-order lower bound, stopped once
    hi - lo <= 1e-4.  A split cell's first-order bound is a linear minorant
    on the whole sphere, so its children inherit it, and a child that it
    closes is never evaluated (the bracket's `evaluations` counts evaluated
    centres only).

    Once its cells are small, an active-set Newton solve of the KKT
    conditions gives a point, evaluated exactly, and multipliers lam
    (faces) and nu >= 0 (walls) whose linear minorant
    f(y) >= (sum lam_i g_i - sum nu_j a_j, y) holds on the whole cone for
    any such multipliers, converged or not, and bounds every cell near the
    minimizer.  `value` = hi, the best feasible centre or Newton point, and
    `certified_lower` = max(lo, sqrt(lambda_min / n)), so
    value - certified_lower <= 1e-4, and `starts_used` is 0.

    When the work budget cuts the search (none of the cones measured at
    n <= 7; two of three at n = 8), the same two ends are returned and the
    interval is only wider.  Any feasible evaluation is <= 1 because the
    apex belongs to every face, so 0 < C <= 1 always holds for the value.
    """
    _require_square(cone, "bfk_constant")
    n = cone.n_walls
    lower = math.sqrt(max(cone.lambda_min, 0.0) / n)

    if n == 1:
        # dist(y, {0}) = ||y|| = 1 on the unit sphere.
        return ConstantEstimate(1.0, lower, EstimateMethod.closed_form, 0)
    closed = _bfk_closed_form(cone)
    if closed is not None:
        return ConstantEstimate(closed, closed, EstimateMethod.closed_form, 0)

    bracket = minimax.branch_and_bound_min_max_face_distance(
        FaceDistance(cone.normals), inscribed_ball(cone).e
    )
    value = bracket.hi
    lower = max(lower, bracket.lo)

    if not 0.0 < value <= 1.0 + 1e-9:
        raise DegenerateArrangement(f"nondegeneracy constant {value} outside (0, 1]")
    value = min(value, 1.0)
    value = max(value, lower - 1e-12)
    return ConstantEstimate(value, min(lower, value), EstimateMethod.branch_and_bound, 0)


def tridiagonal_case(g) -> tuple[bool, int | None]:
    """Check the banded special case and return its sharp bound n(n+1)/2.

    Applicable when (a_i, a_j) = 0 for |i - j| > 1 and every neighbor
    product (a_i, a_{i+1}) >= -1/2, both within tolerance.
    """
    entries = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=np.float64)
    n = entries.shape[0]
    for i in range(n):
        for j in range(i + 2, n):
            if abs(entries[i, j]) > 1e-12:
                return False, None
    for i in range(n - 1):
        if entries[i, i + 1] < -0.5 - 1e-12:
            return False, None
    return True, n * (n + 1) // 2


def _power_bound(factor, base: float, exponent: int) -> float:
    """factor * base^exponent as a float, or inf past the float range."""
    try:
        return factor * base ** exponent
    except OverflowError:
        return math.inf


def main_bound(n: int, lambda_min: float) -> float:
    """n! (4 / lambda_min)^(n-1), as a float; inf past the float range."""
    return _power_bound(math.factorial(n), 4.0 / lambda_min, n - 1)


def step_cap(n: int, lambda_min: float) -> int:
    """Default simulation budget ceil(main_bound) + 1, at most sys.maxsize."""
    bound = main_bound(n, lambda_min)
    return int(math.ceil(bound)) + 1 if bound < sys.maxsize else sys.maxsize


def _sevryuk_bound(n: int, phi: float) -> float:
    s2 = math.sin(phi) ** 2
    log_val = math.log(s2 / 2.0) + (2.0 ** (n - 1)) * math.log(4.0 / s2)
    if log_val > 700.0:
        return math.inf
    return math.exp(log_val) - 1.0


def bounds_report(cone: ConeSpec) -> BoundsReport:
    """Assemble every constant and collision bound for a cone.

    A cone with fewer walls than dimensions is first reduced to the span
    of its normals, which preserves the Gram matrix and all constants.
    """
    if cone.n_walls < cone.dim:
        cone, _ = reduce_to_span(cone.dim, cone.normals)
    n = cone.n_walls
    lam = cone.lambda_min
    ball = inscribed_ball(cone)
    delta_est = capacity_delta(cone)
    psi = math.asin(delta_est.value)
    sq = charge_SQ(cone)
    c_est = bfk_constant(cone)

    g = cone.gram_matrix
    applicable, tri_bound = tridiagonal_case(g)
    wedge_bound = None
    if n == 2:
        wedge_bound = ceil_snapped(math.pi / _wedge_angle(g))

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
        bound_wedge=wedge_bound,
        bound_tridiagonal=tri_bound if applicable else None,
        tridiagonal_applicable=applicable,
        cone=cone,
    )
