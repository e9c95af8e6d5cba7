"""Elastic point particles on a line and their cone-billiard image.

In mass-weighted coordinates y_i = sqrt(m_i) x_i the ordering constraints
x_1 <= ... <= x_N become a polyhedral cone with N - 1 walls, and each
elastic two-body collision becomes a specular reflection at the matching
wall.  The event-driven simulator here is independent of the cone
simulator and serves as its cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import step_cap
from .errors import InvalidState, NonpositiveMass, TooFewBalls
from .geometry import ConeSpec, _freeze, is_int, make_cone
# The cone simulator's grazing and tie tolerances, so that the two
# simulators decide the same events and `conjugacy_check` can match them.
from .simulator import APPROACH_TOL, CORNER_REL_TOL, BilliardState, Terminal, run


def _check_masses(masses: np.ndarray) -> None:
    if not (np.isfinite(masses) & (masses > 0.0)).all():
        raise NonpositiveMass("all masses must be finite and positive")


@dataclass(frozen=True, eq=False)
class HardBallSystem:
    """Point balls on a line: masses, strictly increasing positions, velocities,
    all finite."""

    masses: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        for name in ("masses", "positions", "velocities"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        n = len(self.masses)
        if n < 2:
            raise TooFewBalls("need at least two balls")
        if len(self.positions) != n or len(self.velocities) != n:
            raise InvalidState("masses, positions, velocities must have equal length")
        _check_masses(self.masses)
        if not (np.isfinite(self.positions).all() and np.isfinite(self.velocities).all()):
            raise InvalidState("positions and velocities must be finite")
        if np.any(np.diff(self.positions) <= 0.0):
            raise InvalidState("positions must be strictly increasing")

    @property
    def n_balls(self) -> int:
        return len(self.masses)


@dataclass(frozen=True, eq=False)
class BallEvent:
    """One elastic collision between adjacent balls i and i + 1."""

    t: float
    pair: tuple
    velocities_after: tuple


@dataclass(frozen=True, eq=False)
class BallTrajectory:
    system: HardBallSystem
    events: tuple
    terminal: Terminal
    final_positions: np.ndarray
    final_velocities: np.ndarray
    final_time: float

    @property
    def n_collisions(self) -> int:
        return len(self.events)

    def pair_sequence(self) -> list[int]:
        return [ev.pair[0] for ev in self.events]


@dataclass(frozen=True, eq=False)
class CoordinateMap:
    """Mass-weighted coordinate change between ball states and cone states."""

    masses: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.sqrt(self.masses)

    def to_cone(self, positions, velocities):
        """Return (q, unit velocity, speed); cone time = speed * ball time."""
        w = self.weights
        q = w * np.asarray(positions, dtype=np.float64)
        u = w * np.asarray(velocities, dtype=np.float64)
        speed = float(np.linalg.norm(u))
        v = u / speed if speed > 0.0 else u
        return q, v, speed

    def from_cone(self, q, v, speed: float = 1.0):
        w = self.weights
        return np.asarray(q) / w, speed * np.asarray(v) / w


def balls_to_cone(masses) -> tuple[ConeSpec, CoordinateMap]:
    """Cone of the ordering constraints in mass-weighted coordinates.

    Wall i (0-based, for balls i and i + 1) has unit normal proportional
    to -1/sqrt(m_i) in slot i and +1/sqrt(m_{i+1}) in slot i + 1, which
    makes the Gram matrix tridiagonal with neighbor products
    -1 / sqrt((1 + m_{i+1}/m_i)(1 + m_{i+1}/m_{i+2})).
    """
    m = np.asarray(masses, dtype=np.float64)
    if len(m) < 2:
        raise TooFewBalls("need at least two balls")
    _check_masses(m)
    n = len(m)
    normals = np.zeros((n - 1, n))
    for i in range(n - 1):
        normals[i, i] = -1.0 / math.sqrt(m[i])
        normals[i, i + 1] = 1.0 / math.sqrt(m[i + 1])
    cone = make_cone(n, normals)
    return cone, CoordinateMap(masses=m)


def simulate_balls(system: HardBallSystem, max_events: int | None = None) -> BallTrajectory:
    """Event-driven elastic simulation until separation or the event budget.

    Two leading collision times within relative tolerance form a multiple
    contact, reported as Terminal.CORNER_HIT exactly like the cone simulator,
    and, as there, a first collision time past the float range is an
    escape.  Raises InvalidState for a budget that is not an integer >= 1,
    as `run` does.
    """
    n = system.n_balls
    if max_events is None:
        cone, _ = balls_to_cone(system.masses)
        max_events = step_cap(n - 1, cone.lambda_min)
    if not (is_int(max_events) and max_events >= 1):
        raise InvalidState(f"max_events must be an integer >= 1, got {max_events!r}")

    # The event loop runs on Python floats: the same IEEE operations, in the
    # same order, as on numpy arrays, without numpy's per-call overhead on
    # arrays of a few entries.
    x = system.positions.tolist()
    v = system.velocities.tolist()
    m = system.masses.tolist()
    pairs = range(n - 1)
    t = 0.0
    events = []
    terminal = None
    while len(events) < max_events:
        times = [math.inf] * (n - 1)
        for k in pairs:
            closing = v[k] - v[k + 1]
            if closing > APPROACH_TOL:
                times[k] = max(0.0, (x[k + 1] - x[k]) / closing)
        t_hit = min(times)
        if t_hit == math.inf:
            # No pair approaches, or the first hit time is past the float
            # range: an escape, as in the cone kernel's `_first_hits`.
            terminal = Terminal.ESCAPED
            break
        i = times.index(t_hit)
        times[i] = math.inf
        x = [xk + t_hit * vk for xk, vk in zip(x, v)]
        t += t_hit
        if min(times) - t_hit < CORNER_REL_TOL * (1.0 + t_hit):
            terminal = Terminal.CORNER_HIT
            break
        x[i + 1] = x[i]  # balls touch exactly at the collision
        mi, mj = m[i], m[i + 1]
        vi, vj = v[i], v[i + 1]
        v[i] = ((mi - mj) * vi + 2.0 * mj * vj) / (mi + mj)
        v[i + 1] = ((mj - mi) * vj + 2.0 * mi * vi) / (mi + mj)
        events.append(BallEvent(t=t, pair=(i, i + 1), velocities_after=(v[i], v[i + 1])))
    if terminal is None:
        terminal = Terminal.STEP_LIMIT
    return BallTrajectory(
        system=system,
        events=tuple(events),
        terminal=terminal,
        final_positions=np.array(x),
        final_velocities=np.array(v),
        final_time=t,
    )


@dataclass(frozen=True, eq=False)
class ConjugacyReport:
    """Comparison of the ball simulation with its cone-billiard image."""

    matched: bool
    n_ball_events: int
    n_cone_events: int
    pair_sequence: list
    wall_sequence: list
    max_time_error: float
    terminal_balls: Terminal
    terminal_cone: Terminal


def conjugacy_check(system: HardBallSystem) -> ConjugacyReport:
    """Run both simulators within step_cap's budget and compare event-by-event.

    Event counts and wall/pair index sequences must agree exactly; event
    times agree within 1e-8 relative after rescaling cone time by the
    mass-weighted speed.  A NaN time error (inf / inf, where the rescaled
    ball time is past the float range) is reported and fails the match.
    """
    cone, cmap = balls_to_cone(system.masses)
    horizon = step_cap(cone.n_walls, cone.lambda_min)
    balls = simulate_balls(system, max_events=horizon)
    q0, v0, speed = cmap.to_cone(system.positions, system.velocities)
    # At rest the cone state has no direction to run; like the balls, which
    # have no approaching pair, it escapes with no event.
    cone_events, cone_terminal = (), Terminal.ESCAPED
    if speed > 0.0:
        cone_traj = run(BilliardState(q=q0, v=v0), cone, max_steps=horizon)
        cone_events, cone_terminal = cone_traj.events, cone_traj.terminal
    walls = [ev.wall for ev in cone_events]
    pairs = balls.pair_sequence()
    max_err = 0.0
    sequences_match = walls == pairs and len(cone_events) == balls.n_collisions
    if sequences_match:
        for ball_ev, cone_ev in zip(balls.events, cone_events):
            expected = speed * ball_ev.t
            err = abs(cone_ev.t - expected) / max(1.0, abs(expected))
            # max() would drop a NaN error (inf / inf); it is kept, and
            # fails the match below.
            if not err <= max_err and not math.isnan(max_err):
                max_err = err
    matched = (
        sequences_match
        and balls.terminal == cone_terminal
        and max_err <= 1e-8
    )
    return ConjugacyReport(
        matched=matched,
        n_ball_events=balls.n_collisions,
        n_cone_events=len(cone_events),
        pair_sequence=pairs,
        wall_sequence=walls,
        max_time_error=max_err,
        terminal_balls=balls.terminal,
        terminal_cone=cone_terminal,
    )
