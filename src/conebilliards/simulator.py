"""Exact billiard flow in a polyhedral cone.

A unit-speed particle moves on straight lines inside the cone and reflects
specularly at the walls: v -> v - 2 (v, a) a at a wall with unit inward
normal a.  Reaching two walls at once (a corner) terminates the motion,
which is undefined there.  A trajectory with no approaching wall escapes
to infinity.
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import BoundsReport, step_cap
from .errors import ConeMismatch, InvalidState
from .geometry import ConeSpec, reduce_to_span

# Walls with velocity margin above -APPROACH_TOL are treated as grazing,
# i.e. non-approaching; candidate hit times this close (relative) collide.
APPROACH_TOL = 1e-12
CORNER_REL_TOL = 1e-12
CONTAINMENT_TOL = 1e-9


class Terminal(enum.Enum):
    ESCAPED = "Escaped"
    CORNER_HIT = "CornerHit"
    STEP_LIMIT = "StepLimit"


# run_batch's terminal codes -1 (still live), 0 and 1, shifted by one.
_TERMINALS = np.array([Terminal.STEP_LIMIT, Terminal.ESCAPED, Terminal.CORNER_HIT], dtype=object)


@dataclass(frozen=True, eq=False)
class BilliardState:
    """Particle position q, unit velocity v, and elapsed time t."""

    q: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for name in ("q", "v"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class CollisionEvent:
    """One specular reflection: time, wall index, and the velocity jump."""

    t: float
    wall: int
    q_at: np.ndarray
    v_before: np.ndarray
    v_after: np.ndarray


@dataclass(frozen=True)
class Escape:
    """No wall ahead; the particle leaves the cone forever."""


@dataclass(frozen=True)
class CornerHit:
    """Two or more walls reached simultaneously; motion undefined beyond."""

    t: float
    q_at: np.ndarray


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """A finished trajectory: events in time order plus the velocity chain."""

    initial: BilliardState
    events: tuple
    terminal: Terminal
    velocities: np.ndarray
    final_state: BilliardState
    cone: ConeSpec = field(repr=False)

    @property
    def n_collisions(self) -> int:
        return len(self.events)

    def wall_sequence(self) -> list[int]:
        return [ev.wall for ev in self.events]


def _row_min(x: np.ndarray) -> np.ndarray:
    """x.min(axis=1), column by column.  Minimum is exact, so the order does
    not matter; numpy 2.4 reduces a row of a few entries at about 50 ns a
    row on an x86-64 core, against about 1.5 ns for one column minimum."""
    low = x[:, 0]
    for j in range(1, x.shape[1]):
        low = np.minimum(low, x[:, j])
    return low


def _reflect(q: np.ndarray, v: np.ndarray, t: np.ndarray, normals: np.ndarray):
    """Row-wise flight by t onto the walls (re-projected exactly onto them)
    and unit-speed reflection; shared by next_event and run_batch."""
    q_at = q + t[:, None] * v
    q_at -= (q_at * normals).sum(axis=1)[:, None] * normals
    v_after = v - 2.0 * (v * normals).sum(axis=1)[:, None] * normals
    v_after /= np.linalg.norm(v_after, axis=1)[:, None]
    return q_at, v_after


def next_event(state: BilliardState, cone: ConeSpec):
    """Advance to the next wall: CollisionEvent, Escape, or CornerHit.

    Candidate times are t_i = -(q, a_i) / (v, a_i) over walls the velocity
    approaches; the smallest wins, and two leaders within relative
    tolerance mean the trajectory runs into a corner.
    """
    a = cone.matrix
    q = state.q
    v = state.v
    margins = q @ a
    if margins.min() < -CONTAINMENT_TOL:
        raise InvalidState(f"position outside the cone: min margin {margins.min():.2e}")
    vel_along = v @ a
    approaching = vel_along < -APPROACH_TOL
    if not approaching.any():
        return Escape()
    times = np.full(cone.n_walls, np.inf)
    times[approaching] = np.maximum(0.0, -margins[approaching] / vel_along[approaching])
    wall = int(times.argmin())
    t_hit = float(times[wall])
    if cone.n_walls > 1:
        times[wall] = np.inf
        t_second = float(times.min())
        if t_second - t_hit < CORNER_REL_TOL * (1.0 + t_hit):
            return CornerHit(t=state.t + t_hit, q_at=q + t_hit * v)
    q_at, v_after = _reflect(
        q[None], v[None], np.array([t_hit]), cone.normals[wall][None]
    )
    return CollisionEvent(
        t=state.t + t_hit, wall=wall, q_at=q_at[0], v_before=v, v_after=v_after[0]
    )


def run(initial: BilliardState, cone: ConeSpec, max_steps: int | None = None) -> TrajectoryRecord:
    """Iterate next_event until escape, a corner, or the step budget.

    The default budget is ceil(n! (4 / lambda_min)^(n-1)) + 1, so hitting
    the StepLimit means either a bound violation or numerical breakdown,
    and a warning is emitted.
    """
    q = np.array(initial.q, dtype=np.float64)
    v = np.array(initial.v, dtype=np.float64)
    if q.shape != (cone.dim,) or v.shape != (cone.dim,):
        raise InvalidState(f"state vectors must have {cone.dim} components")
    speed = np.linalg.norm(v[None], axis=1)[0]  # the form run_batch uses
    if abs(speed - 1.0) > 1e-9:
        raise InvalidState(f"velocity must be a unit vector, got norm {speed}")
    v /= speed
    if (q @ cone.matrix).min() < -CONTAINMENT_TOL:
        raise InvalidState("initial position outside the cone")
    if max_steps is None:
        max_steps = step_cap(cone.n_walls, cone.lambda_min)
    if max_steps < 1:
        raise InvalidState("max_steps must be >= 1")

    start = BilliardState(q=q, v=v, t=float(initial.t))
    t = start.t
    events = []
    velocities = [v.copy()]
    terminal = None
    final = None
    while len(events) < max_steps:
        out = next_event(BilliardState(q=q, v=v, t=t), cone)
        if isinstance(out, CollisionEvent):
            events.append(out)
            velocities.append(out.v_after.copy())
            q = np.array(out.q_at)
            v = np.array(out.v_after)
            t = out.t
        elif isinstance(out, Escape):
            terminal = Terminal.ESCAPED
            final = BilliardState(q=q, v=v, t=t)
            break
        else:
            terminal = Terminal.CORNER_HIT
            final = BilliardState(q=out.q_at, v=v, t=out.t)
            break
    if terminal is None:
        terminal = Terminal.STEP_LIMIT
        final = BilliardState(q=q, v=v, t=t)
        _warn_step_limit("trajectory", max_steps)
    return TrajectoryRecord(
        initial=start,
        events=tuple(events),
        terminal=terminal,
        velocities=np.array(velocities),
        final_state=final,
        cone=cone,
    )


def _warn_step_limit(what: str, max_steps: int) -> None:
    warnings.warn(
        f"{what} exceeded {max_steps} steps; collision bound violated "
        "or numerical breakdown",
        RuntimeWarning,
        stacklevel=3,
    )


def run_batch(q0: np.ndarray, v0: np.ndarray, cone: ConeSpec, max_steps: int | None = None):
    """Advance many trajectories of one cone in lockstep.

    Applies the stepping rules of `run` (grazing tolerance, corner tie
    rule, and the shared `_reflect`) to all rows of q0, v0 at once, with
    the same arithmetic, so the two agree bit for bit.  Only live rows are
    kept, compacted when a row stops, with `live` mapping them back to
    their input rows.  Returns (collision counts, zigzag lengths, per-row
    Terminal values); rows that reach the step budget get one warning per
    call.
    """
    a = cone.matrix
    q = np.array(q0, dtype=np.float64)
    v = np.array(v0, dtype=np.float64)
    k = q.shape[0]
    if max_steps is None:
        max_steps = step_cap(cone.n_walls, cone.lambda_min)
    counts = np.zeros(k, dtype=np.int64)
    zigzag = np.zeros(k)
    terminal = np.full(k, -1, dtype=np.int64)  # -1 alive, 0 escaped, 1 corner
    speeds = np.linalg.norm(v, axis=1)
    if np.abs(speeds - 1.0).max() > 1e-9:
        raise InvalidState("velocities must be unit vectors")
    v /= speeds[:, None]
    if (q @ a).min() < -CONTAINMENT_TOL:
        raise InvalidState("an initial position lies outside the cone")

    live = np.arange(k)  # input row of each row of q and v
    rows = np.arange(k)
    zz = np.zeros(k)  # zigzag lengths of the live rows
    for step in range(max_steps):
        margins = q @ a
        vel_along = v @ a
        approaching = vel_along < -APPROACH_TOL
        times = np.where(
            approaching,
            np.maximum(0.0, -margins / np.where(approaching, vel_along, -1.0)),
            np.inf,
        )
        wall = times.argmin(axis=1)
        t1 = times[rows, wall]
        escaped = t1 == np.inf  # no wall ahead
        # The corner test sees escaped rows at t1 = 0 against t2 = inf, so
        # it fails there without computing inf - inf.
        t1[escaped] = 0.0
        times[rows, wall] = np.inf
        t2 = _row_min(times)
        corner = t2 - t1 < CORNER_REL_TOL * (1.0 + t1)
        stop = escaped | corner
        if stop.any():
            done = live[stop]
            terminal[done] = corner[stop]  # 0 escaped, 1 corner
            counts[done] = step
            zigzag[done] = zz[stop]
            keep = ~stop
            live, q, v, wall, t1, zz = live[keep], q[keep], v[keep], wall[keep], t1[keep], zz[keep]
            rows = rows[: len(live)]
            if len(live) == 0:
                break
        q_new, v_new = _reflect(q, v, t1, cone.normals[wall])
        zz += np.linalg.norm(v_new - v, axis=1)
        q, v = q_new, v_new

    if len(live):
        counts[live] = max_steps
        zigzag[live] = zz
        _warn_step_limit(f"{len(live)} of {k} trajectories", max_steps)
    return counts, zigzag, _TERMINALS[terminal + 1]


def zigzag_length(record: TrajectoryRecord) -> float:
    """Length of the polygonal line through the velocity sequence."""
    if record.n_collisions == 0:
        return 0.0
    diffs = np.diff(record.velocities, axis=0)
    # Summed in event order, as run_batch accumulates it.
    return float(np.cumsum(np.linalg.norm(diffs, axis=1))[-1])


@dataclass(frozen=True)
class BoundCheck:
    name: str
    observed: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class AuditVerdict:
    """Pass/fail result of every bound check on one trajectory or a batch's maxima."""

    n_collisions: int
    zigzag: float
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n_collisions": self.n_collisions,
            "zigzag": self.zigzag,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "observed": c.observed,
                    "limit": c.limit,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def check_bounds(n_collisions: int, zigzag: float, report: BoundsReport) -> AuditVerdict:
    """Check a collision count and zigzag length against every bound in the
    report; the zigzag check allows 1e-9 slack on the 2/d ceiling.

    Every check reads observed <= limit, so a batch of trajectories passes
    exactly when its largest count and largest zigzag length pass.
    """
    limits = [
        ("bound_main", report.bound_main),
        ("bound_dd", report.bound_dd),
        ("bound_sevryuk", report.bound_sevryuk),
        ("bound_bfk", report.bound_bfk),
    ]
    if report.bound_wedge is not None:
        limits.append(("bound_wedge", report.bound_wedge))
    if report.tridiagonal_applicable and report.bound_tridiagonal is not None:
        limits.append(("bound_tridiagonal", report.bound_tridiagonal))
    checks = [
        BoundCheck(name, n_collisions, limit, n_collisions <= limit) for name, limit in limits
    ]
    ceiling = 2.0 / report.d
    checks.append(BoundCheck("lemma_zigzag", zigzag, ceiling, zigzag <= ceiling + 1e-9))
    return AuditVerdict(n_collisions=n_collisions, zigzag=zigzag, checks=tuple(checks))


def audit(record: TrajectoryRecord, report: BoundsReport) -> AuditVerdict:
    """Check a trajectory against every bound in the report built from its
    cone.  A cone with fewer walls than dimensions matches through its span
    reduction, as in bounds_report: motion orthogonal to the span changes
    neither the count nor the zigzag length."""
    cone = record.cone
    if cone.n_walls < cone.dim:
        cone, _ = reduce_to_span(cone.dim, cone.normals)
    if report.cone is not None and not np.array_equal(cone.normals, report.cone.normals):
        raise ConeMismatch("record and report were built from different cones")
    return check_bounds(record.n_collisions, zigzag_length(record), report)


# ---------------------------------------------------------------------------
# Serialization (doubles survive the round trip bit-exactly: json uses the
# shortest decimal representation that reproduces each double)
# ---------------------------------------------------------------------------

def record_to_dict(record: TrajectoryRecord, verdict: AuditVerdict | None = None) -> dict:
    doc = {
        "initial": {
            "q": record.initial.q.tolist(),
            "v": record.initial.v.tolist(),
            "t": record.initial.t,
        },
        "events": [
            {
                "t": ev.t,
                "wall": ev.wall,
                "q_at": ev.q_at.tolist(),
                "v_before": ev.v_before.tolist(),
                "v_after": ev.v_after.tolist(),
            }
            for ev in record.events
        ],
        "terminal": record.terminal.value,
        "final": {
            "q": record.final_state.q.tolist(),
            "v": record.final_state.v.tolist(),
            "t": record.final_state.t,
        },
    }
    if verdict is not None:
        doc["audit"] = verdict.to_dict()
    return doc


def record_to_json(record: TrajectoryRecord, verdict: AuditVerdict | None = None) -> str:
    return json.dumps(record_to_dict(record, verdict), indent=2)


def record_from_dict(doc: dict, cone: ConeSpec) -> TrajectoryRecord:
    initial = BilliardState(
        q=np.array(doc["initial"]["q"]),
        v=np.array(doc["initial"]["v"]),
        t=doc["initial"]["t"],
    )
    events = tuple(
        CollisionEvent(
            t=ev["t"],
            wall=ev["wall"],
            q_at=np.array(ev["q_at"]),
            v_before=np.array(ev["v_before"]),
            v_after=np.array(ev["v_after"]),
        )
        for ev in doc["events"]
    )
    velocities = [initial.v] + [ev.v_after for ev in events]
    final = BilliardState(
        q=np.array(doc["final"]["q"]), v=np.array(doc["final"]["v"]), t=doc["final"]["t"]
    )
    return TrajectoryRecord(
        initial=initial,
        events=events,
        terminal=Terminal(doc["terminal"]),
        velocities=np.array(velocities),
        final_state=final,
        cone=cone,
    )


def record_from_json(text: str, cone: ConeSpec) -> TrajectoryRecord:
    return record_from_dict(json.loads(text), cone)
