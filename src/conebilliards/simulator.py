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
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import BoundsReport, step_cap
from .errors import ConeMismatch, InvalidState
from .geometry import ConeSpec, _freeze, is_int

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
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class CollisionEvent:
    """One specular reflection: time, wall index, and the velocity jump."""

    t: float
    wall: int
    q_at: np.ndarray
    v_before: np.ndarray
    v_after: np.ndarray


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
    and unit-speed reflection, for the rows `_first_hits` let through."""
    q_at = q + t[:, None] * v
    q_at -= (q_at * normals).sum(axis=1)[:, None] * normals
    v_after = v - 2.0 * (v * normals).sum(axis=1)[:, None] * normals
    v_after /= np.linalg.norm(v_after, axis=1)[:, None]
    return q_at, v_after


def _first_hits(q: np.ndarray, v: np.ndarray, a: np.ndarray):
    """The stepping rule of `run` and `run_batch`, for every row of q, v.

    Candidate times are t_i = -(q, a_i) / (v, a_i) over the walls the
    velocity approaches (margin below -APPROACH_TOL); the smallest, t1 at
    `wall`, wins.  A row with no candidate escapes; a row whose second
    smallest time is within CORNER_REL_TOL (1 + t1) of t1 runs into a
    corner.  Returns (wall, t1, escaped, corner), with t1 = 0 on escaped
    rows.
    """
    margins = q @ a
    vel_along = v @ a
    approaching = vel_along < -APPROACH_TOL
    divisor = np.where(approaching, vel_along, -1.0)
    times = np.where(approaching, np.maximum(0.0, -margins / divisor), np.inf)
    rows = np.arange(len(q))
    wall = times.argmin(axis=1)
    t1 = times[rows, wall]
    escaped = t1 == np.inf  # no wall ahead
    # The corner test sees escaped rows at t1 = 0 against t2 = inf, so it
    # fails there without computing inf - inf.
    t1[escaped] = 0.0
    times[rows, wall] = np.inf
    t2 = _row_min(times)
    corner = t2 - t1 < CORNER_REL_TOL * (1.0 + t1)
    return wall, t1, escaped, corner


def _check_start(q: np.ndarray, v: np.ndarray, cone: ConeSpec, max_steps: int | None):
    """The entry check of `run` and `run_batch` on rows of start states:
    finite components, one per dimension, unit speeds, positions inside the
    cone, and an integer budget of at least one step (step_cap's by default).
    Returns the velocities scaled to unit speed and the budget."""
    if q.ndim != 2 or len(q) == 0 or q.shape[1] != cone.dim or v.shape != q.shape:
        raise InvalidState(f"need one or more start states of {cone.dim} components")
    if not (np.isfinite(q).all() and np.isfinite(v).all()):
        raise InvalidState("positions and velocities must be finite")
    speeds = np.linalg.norm(v, axis=1)
    if (np.abs(speeds - 1.0) > 1e-9).any():
        raise InvalidState("velocities must be unit vectors")
    if ((q @ cone.matrix) < -CONTAINMENT_TOL).any():
        raise InvalidState("an initial position lies outside the cone")
    if max_steps is None:
        max_steps = step_cap(cone.n_walls, cone.lambda_min)
    if not (is_int(max_steps) and max_steps >= 1):
        raise InvalidState(f"max_steps must be an integer >= 1, got {max_steps!r}")
    return v / speeds[:, None], max_steps


def run(initial: BilliardState, cone: ConeSpec, max_steps: int | None = None) -> TrajectoryRecord:
    """Step one trajectory through `_first_hits` on a one-row array, as
    `run_batch` steps its live rows, until escape, a corner, or the step
    budget, recording every reflection as a CollisionEvent.

    The default budget is ceil(n! (4 / lambda_min)^(n-1)) + 1, so hitting
    the StepLimit means either a bound violation or numerical breakdown,
    and a warning is emitted.
    """
    t = float(initial.t)
    if not math.isfinite(t):
        raise InvalidState(f"start time must be finite, got {t}")
    q = np.array(initial.q, dtype=np.float64)[None]
    v, max_steps = _check_start(q, np.array(initial.v, dtype=np.float64)[None], cone, max_steps)
    start = BilliardState(q=q[0], v=v[0], t=t)
    events = []
    velocities = [v[0]]
    terminal = Terminal.STEP_LIMIT
    for _ in range(max_steps):
        wall, t1, escaped, corner = _first_hits(q, v, cone.matrix)
        if escaped[0]:
            terminal = Terminal.ESCAPED
            break
        t += float(t1[0])
        if corner[0]:
            terminal = Terminal.CORNER_HIT
            q = q + t1[0] * v
            break
        q_at, v_after = _reflect(q, v, t1, cone.normals[wall])
        events.append(
            CollisionEvent(t=t, wall=int(wall[0]), q_at=q_at[0], v_before=v[0], v_after=v_after[0])
        )
        velocities.append(v_after[0])
        q, v = q_at, v_after
    else:
        _warn_step_limit("trajectory", max_steps)
    return TrajectoryRecord(
        initial=start,
        events=tuple(events),
        terminal=terminal,
        velocities=np.array(velocities),
        final_state=BilliardState(q=q[0], v=v[0], t=t),
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

    Each step applies `_first_hits`, then the shared `_reflect`, to all
    live rows at once, as `run` does to its one row, so the two agree bit
    for bit.
    Only live rows are kept, compacted when a row stops, with `live`
    mapping them back to their input rows.  Returns (collision counts,
    zigzag lengths, per-row Terminal values); rows that reach the step
    budget get one warning per call.
    """
    q = np.array(q0, dtype=np.float64)
    v, max_steps = _check_start(q, np.array(v0, dtype=np.float64), cone, max_steps)
    k = q.shape[0]
    counts = np.zeros(k, dtype=np.int64)
    zigzag = np.zeros(k)
    terminal = np.full(k, -1, dtype=np.int64)  # -1 alive, 0 escaped, 1 corner

    live = np.arange(k)  # input row of each row of q and v
    zz = np.zeros(k)  # zigzag lengths of the live rows
    for step in range(max_steps):
        wall, t1, escaped, corner = _first_hits(q, v, cone.matrix)
        stop = escaped | corner
        if stop.any():
            done = live[stop]
            terminal[done] = corner[stop]  # 0 escaped, 1 corner
            counts[done] = step
            zigzag[done] = zz[stop]
            keep = ~stop
            live, q, v, wall, t1, zz = live[keep], q[keep], v[keep], wall[keep], t1[keep], zz[keep]
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
    """Check a collision count against every bound the report sets (each of
    `BoundsReport.BOUNDS` that is not None, in field order), then a zigzag
    length against the lemma's 2/d ceiling, with 1e-9 slack.

    Every check reads observed <= limit, so a batch of trajectories passes
    exactly when its largest count and largest zigzag length pass.
    """
    checks = [
        BoundCheck(name, n_collisions, limit, n_collisions <= limit)
        for name in BoundsReport.BOUNDS
        if (limit := getattr(report, name)) is not None
    ]
    ceiling = 2.0 / report.d
    checks.append(BoundCheck("lemma_zigzag", zigzag, ceiling, zigzag <= ceiling + 1e-9))
    return AuditVerdict(n_collisions=n_collisions, zigzag=zigzag, checks=tuple(checks))


def audit(record: TrajectoryRecord, report: BoundsReport) -> AuditVerdict:
    """Check a trajectory against every bound in the report built from its
    cone, which holds `record.cone.span`: motion orthogonal to the span
    changes neither the count nor the zigzag length.  Raises ConeMismatch
    when the report was built from another cone."""
    cone = record.cone.span
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
