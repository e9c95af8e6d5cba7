"""Scalar characteristics of a polyhedral cone and its collision bounds.

For a cone with n independent unit normals spanning R^n this module
computes:

* the inscribed-ball radius d and center direction e, from (e, a_i) = d;
* delta = min over unit y of max_i |(y, a_i)|, and psi = arcsin(delta);
* the charge S(Q) = max over rays in Q of the least angle to a wall, the
  arrangement charge phi = min of S over all full-dimensional sign cones;
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
from .geometry import ConeSpec, GramMatrix, gram, make_cone, min_eigenvalue, reduce_to_span
from . import minimax
from .minimax import FaceDistance


class EstimateMethod(enum.Enum):
    closed_form = "closed_form"
    subset_enumeration = "subset_enumeration"
    multistart = "multistart"
    grid_oracle = "grid_oracle"


@dataclass(frozen=True)
class ConstantEstimate:
    """A computed constant plus how it was obtained.

    `value` is always a valid estimate from above for minimization targets;
    `certified_lower` is an a-priori lower bound when one is available.
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
    """Radius d and unit center direction e of the cone's inscribed ball."""

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


def capacity_delta(
    cone: ConeSpec,
    method: str = "auto",
    n_starts: int = 256,
    iters: int = 500,
):
    """Compute delta = min over unit y of max_i |(y, a_i)| and psi = arcsin(delta).

    Methods: "enumeration" (exact stationary-point enumeration, default for
    n <= 12), "multistart" (projected subgradient, estimate from above),
    "grid" (dense grid oracle, dim <= 3).  The certified lower bound
    sqrt(lambda_min / n) is reported alongside the value.

    Returns (ConstantEstimate, psi).
    """
    _require_square(cone, "capacity_delta")
    n = cone.n_walls
    lam = cone.lambda_min
    lower = math.sqrt(max(lam, 0.0) / n)

    if method == "auto":
        method = "enumeration" if n <= 12 else "multistart"
    if method == "enumeration":
        value, _ = minimax.min_max_abs_margin(cone.normals)
        used = (3 ** n - 1) // 2
        how = EstimateMethod.subset_enumeration
    elif method == "multistart":
        value, _, used = minimax.multistart_min_max_abs(
            cone.normals, n_starts=n_starts, iters=iters
        )
        how = EstimateMethod.multistart
    elif method == "grid":
        at = cone.matrix

        def f_batch(pts):
            return np.abs(pts @ at).max(axis=1)

        value, _ = minimax.sphere_grid_minimize(f_batch, cone.dim)
        used = 0
        how = EstimateMethod.grid_oracle
    else:
        raise ValueError(f"unknown method {method!r}")

    value = float(min(max(value, lower - 1e-12), 1.0))
    est = ConstantEstimate(
        value=value, certified_lower=lower, method=how, starts_used=used
    )
    psi = math.asin(min(1.0, max(-1.0, value)))
    return est, psi


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
    """Arrangement charge phi: least charge among all full-dimensional sign cones.

    Each sign pattern eps defines the cone {y : eps_i (y, a_i) >= 0}; with
    independent normals every such cone has nonempty interior (optimal
    margin > 0), which is verified rather than assumed.  Opposite patterns
    give mirror cones, so only half of them are enumerated.
    """
    if isinstance(normals, ConeSpec):
        arr = normals.normals
    else:
        arr = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    n = arr.shape[0]
    best = math.pi / 2.0
    feasible = 0
    for bits in range(2 ** (n - 1)):
        eps = np.ones(n)
        for k in range(n - 1):
            if (bits >> k) & 1:
                eps[k + 1] = -1.0
        val, _ = minimax.max_min_margin(eps[:, None] * arr)
        if val <= 1e-9:
            continue
        feasible += 1
        best = min(best, math.asin(min(1.0, val)))
    if feasible == 0:
        raise DegenerateArrangement("no sign cone has interior; normals dependent?")
    return ConstantEstimate(
        value=best,
        certified_lower=None,
        method=EstimateMethod.subset_enumeration,
        starts_used=feasible,
    )


def bfk_constant(
    cone: ConeSpec,
    method: str = "auto",
    n_starts: int = 256,
    iters: int = 500,
) -> ConstantEstimate:
    """Nondegeneracy constant C = min over unit y in Q of max_i dist(y, B_i).

    Face distances are exact (active-set enumeration); the outer minimum
    over the sphere-in-cone uses multistart projected subgradient descent,
    cross-checked against (and refined by) the dense grid oracle when the
    dimension is at most 3.  Any feasible evaluation is <= 1 because the
    apex belongs to every face, so 0 < C <= 1 always holds for the value.
    """
    _require_square(cone, "bfk_constant")
    n = cone.n_walls
    lam = cone.lambda_min
    lower = math.sqrt(max(lam, 0.0) / n)
    face = FaceDistance(cone.normals)
    seed = inscribed_ball(cone).e

    if n == 1:
        # dist(y, {0}) = ||y|| = 1 on the unit sphere.
        return ConstantEstimate(1.0, lower, EstimateMethod.closed_form, 0)

    candidates: list[tuple[float, EstimateMethod, int]] = []
    if method in ("auto", "multistart"):
        val, _, used = minimax.multistart_min_max_face_distance(
            face, seed, n_starts=n_starts, iters=iters
        )
        candidates.append((val, EstimateMethod.multistart, used))
    if method == "grid" or (method == "auto" and cone.dim <= 3):
        at = cone.matrix

        def f_batch(pts):
            vals = np.full(pts.shape[0], np.inf)
            ok = (pts @ at).min(axis=1) >= -1e-12
            if ok.any():
                vals[ok] = face.max_face_distance(pts[ok])
            return vals

        val, _ = minimax.sphere_grid_minimize(
            f_batch, cone.dim, seeds=seed[None, :]
        )
        candidates.append((val, EstimateMethod.grid_oracle, 0))
    if not candidates:
        raise ValueError(f"unknown method {method!r}")

    value, how, used = min(candidates, key=lambda c: c[0])
    if not 0.0 < value <= 1.0 + 1e-9:
        raise DegenerateArrangement(f"nondegeneracy constant {value} outside (0, 1]")
    value = min(value, 1.0)
    value = max(value, lower - 1e-12)
    return ConstantEstimate(value, lower, how, used)


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
    delta_est, psi = capacity_delta(cone)
    sq = charge_SQ(cone)
    phi = charge_phi(cone)
    c_est = bfk_constant(cone)

    g = cone.gram_matrix
    applicable, tri_bound = tridiagonal_case(g)
    wedge_bound = None
    if n == 2:
        theta = math.acos(min(1.0, max(-1.0, -g.entries[0, 1])))
        wedge_bound = ceil_snapped(math.pi / theta)

    d = ball.d
    delta = delta_est.value
    return BoundsReport(
        lambda_min=lam,
        d=d,
        delta=delta,
        psi=psi,
        charge_SQ=sq.value,
        charge_phi=phi.value,
        bfk_C=c_est.value,
        bound_main=main_bound(n, lam),
        bound_dd=_power_bound(1.0, 4.0 / (d * delta), n - 1),
        bound_sevryuk=_sevryuk_bound(n, phi.value),
        bound_bfk=_power_bound(8.0, 1.0 / c_est.value + 2.0, 2 * (n - 1)),
        bound_wedge=wedge_bound,
        bound_tridiagonal=tri_bound if applicable else None,
        tridiagonal_applicable=applicable,
        cone=cone,
    )
