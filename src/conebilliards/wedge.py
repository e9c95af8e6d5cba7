"""Two-wall cones (planar wedges): sharp bound, unfolding, velocity arcs.

A wedge with angle theta admits at most ceil(pi / theta) reflections.
Unfolding reflects each trajectory segment into successive mirror copies
of the wedge, turning the billiard path into a straight line; the velocity
chain v_0, ..., v_N turns by the angle theta at every interior vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import _wedge_angle, ceil_snapped
from .errors import AlternationError, ConeMismatch, InvalidParameter, TooFewEvents, WrongWallCount
from .geometry import ConeSpec, make_cone
from .simulator import Terminal, TrajectoryRecord


@dataclass(frozen=True, eq=False)
class WedgeSpec:
    """Wedge angle theta in (0, pi) plus the underlying two-wall cone."""

    theta: float
    cone: ConeSpec


def wedge_angle(cone: ConeSpec) -> float:
    """theta = arccos(-(a_1, a_2)) for a two-wall cone."""
    if cone.n_walls != 2:
        raise WrongWallCount(f"wedge operations need 2 walls, got {cone.n_walls}")
    return _wedge_angle(cone.gram_matrix)


def wedge_from_cone(cone: ConeSpec) -> WedgeSpec:
    return WedgeSpec(theta=wedge_angle(cone), cone=cone)


def wedge_from_angle(theta: float) -> WedgeSpec:
    """Planar wedge between the positive x-axis and the ray at angle theta."""
    if not 0.0 < theta < math.pi:
        raise InvalidParameter(f"wedge angle must lie in (0, pi), got {theta}")
    cone = make_cone(2, [[0.0, 1.0], [math.sin(theta), -math.cos(theta)]])
    return WedgeSpec(theta=theta, cone=cone)


def sharp_bound(theta: float) -> int:
    """ceil(pi / theta), the sharp reflection bound for a wedge."""
    if not 0.0 < theta < math.pi:
        raise InvalidParameter(f"wedge angle must lie in (0, pi), got {theta}")
    return ceil_snapped(math.pi / theta)


def _check_same_cone(record: TrajectoryRecord, wedge: WedgeSpec) -> None:
    if not np.array_equal(record.cone.normals, wedge.cone.normals):
        raise ConeMismatch("record was not produced in this wedge")


def _reorthonormalize(mat: np.ndarray) -> np.ndarray:
    c0 = mat[:, 0] / np.linalg.norm(mat[:, 0])
    c1 = mat[:, 1] - (mat[:, 1] @ c0) * c0
    c1 /= np.linalg.norm(c1)
    return np.column_stack([c0, c1])


def unfold(record: TrajectoryRecord, wedge: WedgeSpec) -> np.ndarray:
    """Unfold a wedge trajectory into a straight polyline.

    Segment k is mapped by the composition of the reflections at the first
    k walls hit; breakpoints of the image are collinear.  Returns an array
    of N + 2 points: start, one per collision, and a final point on the
    last segment (one time unit past it for escaping trajectories).
    """
    _check_same_cone(record, wedge)
    eye = np.eye(2)
    transform = eye.copy()
    points = [np.array(record.initial.q)]
    for ev in record.events:
        points.append(transform @ ev.q_at)
        normal = wedge.cone.normals[ev.wall]
        transform = transform @ (eye - 2.0 * np.outer(normal, normal))
        transform = _reorthonormalize(transform)
    final = record.final_state
    if record.terminal is Terminal.ESCAPED or record.n_collisions == 0:
        tail = final.q + final.v
    else:
        last = record.events[-1]
        tail = final.q if final.t > last.t else final.q + final.v
    points.append(transform @ tail)
    return np.array(points)


def collinearity_residual(points: np.ndarray) -> float:
    """Largest distance from the points to their least-squares line."""
    pts = np.asarray(points, dtype=np.float64)
    center = pts.mean(axis=0)
    centered = pts - center
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    residuals = centered - np.outer(centered @ direction, direction)
    return float(np.linalg.norm(residuals, axis=1).max(initial=0.0))


@dataclass(frozen=True)
class ArcReport:
    """Interior turning angles of the velocity chain and their total."""

    theta: float
    angles: np.ndarray
    max_angle_error: float
    total_turning: float
    turning_ok: bool

    @property
    def passed(self) -> bool:
        return self.max_angle_error < 1e-9 and self.turning_ok


def velocity_arc_check(record: TrajectoryRecord, wedge: WedgeSpec) -> ArcReport:
    """Verify the velocity-arc picture on an alternating wedge trajectory.

    At every interior velocity v_k the angle of the polyline
    v_{k-1}, v_k, v_{k+1} equals theta, and the accumulated arc satisfies
    2 theta (N - 1) < 2 pi.  Needs at least two collisions.
    """
    _check_same_cone(record, wedge)
    n_col = record.n_collisions
    if n_col < 2:
        raise TooFewEvents(f"velocity-arc check needs >= 2 collisions, got {n_col}")
    walls = record.wall_sequence()
    for a, b in zip(walls, walls[1:]):
        if a == b:
            raise AlternationError("consecutive collisions on the same wall")
    vels = record.velocities
    angles = []
    for k in range(1, n_col):
        u = vels[k - 1] - vels[k]
        w = vels[k + 1] - vels[k]
        cosang = (u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
        angles.append(math.acos(min(1.0, max(-1.0, cosang))))
    angles = np.array(angles)
    total = 2.0 * wedge.theta * (n_col - 1)
    return ArcReport(
        theta=wedge.theta,
        angles=angles,
        max_angle_error=float(np.abs(angles - wedge.theta).max()),
        total_turning=total,
        turning_ok=total < 2.0 * math.pi + 1e-9,
    )
