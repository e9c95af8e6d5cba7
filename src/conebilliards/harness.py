"""Reproducible experiment driver: random cones, ensembles, adversarial search.

All randomness flows from a counter-based Philox generator keyed by
(seed, stream), with Gaussians produced by an explicit Box-Muller
transform of its uniforms, so identical seeds give identical results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import bounds_report, inscribed_ball
from .errors import DegenerateArrangement, DegenerateSampling, DimensionMismatch, InvalidParameter
# `audit` and `jacobi_eigenvalues` are not called here; they stay importable
# from this module, where the profiling code in perfbench/ looks them up by
# name.
from .geometry import ConeSpec, _as_point, _unit_rows, is_int, jacobi_eigenvalues, make_cone
from .simulator import (
    BilliardState,
    TrajectoryRecord,
    _row_min,
    audit,
    check_bounds,
    run,
    run_batch,
)

_MASK64 = (1 << 64) - 1
# Resampling floor on the smallest singular value of the normal matrix.
_SAMPLING_FLOOR = 1e-3
# Most uniforms one batch of rejection rounds in `interior_starts` draws.
_MAX_BLOCK_UNIFORMS = 4096


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); counter-based, reproducible.
    Raises InvalidParameter unless both are integers."""
    if not (is_int(seed) and is_int(stream)):
        raise InvalidParameter(f"seed and stream must be integers, got {seed!r}, {stream!r}")
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Normals from uniforms in [0, 1), interleaved pairwise along the last
    axis: the fixed transform behind every Gaussian of this module."""
    r = np.sqrt(-2.0 * np.log(1.0 - u1))  # 1 - u1 in (0, 1] keeps the log finite
    z = np.empty(u1.shape[:-1] + (2 * u1.shape[-1],))
    z[..., 0::2] = r * np.cos(2.0 * np.pi * u2)
    z[..., 1::2] = r * np.sin(2.0 * np.pi * u2)
    return z


def gaussians(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normals via Box-Muller on Philox uniforms (fixed transform)."""
    pairs = (count + 1) // 2
    u = rng.random(2 * pairs)
    return _box_muller(u[:pairs], u[pairs:])[:count]


def sphere_sample(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` points uniform on the unit sphere in R^dim."""
    return _unit_rows(gaussians(rng, count * dim).reshape(count, dim))


def random_cone(n: int, dim: int, seed: int, stream: int = 0) -> ConeSpec:
    """Random cone with normals uniform on the sphere, resampled until the
    smallest singular value of the normal matrix exceeds 1e-3.  Raises
    DimensionMismatch unless n and dim are integers with 1 <= n <= dim."""
    if not (is_int(n) and is_int(dim) and 1 <= n <= dim):
        raise DimensionMismatch(f"need integers 1 <= n <= dim, got n={n!r}, dim={dim!r}")
    rng = make_rng(seed, stream)
    for _ in range(1000):
        try:
            cone = make_cone(dim, sphere_sample(rng, n, dim))
        except DegenerateArrangement:
            continue
        if math.sqrt(max(cone.lambda_min, 0.0)) > _SAMPLING_FLOOR:
            return cone
    raise DegenerateSampling("1000 attempts without a well-conditioned cone")


def interior_start(
    rng: np.random.Generator, cone: ConeSpec, center: np.ndarray
) -> BilliardState:
    """One start drawn by `interior_starts` (its count = 1 case)."""
    q, v = interior_starts(rng, cone, center, 1)
    return BilliardState(q=q[0], v=v[0])


def interior_starts(
    rng: np.random.Generator, cone: ConeSpec, center: np.ndarray, count: int
):
    """(Q, V) arrays of shape (count, m): q = center + 0.1 u with u uniform
    in the unit ball, redrawn until inside the cone; v uniform on the sphere.

    Each rejection round gives every pending row a candidate from one
    sphere direction and one radius; up to 1000 rounds run, and rows still
    pending take the center.  Rounds between two accepting ones draw equally
    many uniforms, so they are drawn and tested in blocks (1, 4, 16, ...
    rounds, at most 4096 uniforms): after a block in which round r accepts,
    the generator is rewound and advanced by rounds 0..r only.  The draws,
    and so the starts and the generator's next state, are those of one
    round at a time.  Raises InvalidParameter unless count is an integer
    >= 0, and for a center that `contains` would refuse.
    """
    if not (is_int(count) and count >= 0):
        raise InvalidParameter(f"count must be an integer >= 0, got {count!r}")
    center = _as_point(cone, center)
    a = cone.matrix
    dim = cone.dim
    q = np.empty((count, dim))
    pending = np.arange(count)
    rounds_left = 1000
    block = 1
    while len(pending) and rounds_left:
        p = len(pending)
        pairs = (p * dim + 1) // 2
        per_round = 2 * pairs + p  # sphere_sample's uniforms, then the radii
        block = min(block, rounds_left, max(1, _MAX_BLOCK_UNIFORMS // per_round))
        state = rng.bit_generator.state if block > 1 else None
        u = rng.random((block, per_round))
        z = _box_muller(u[:, :pairs], u[:, pairs : 2 * pairs])[:, : p * dim]
        radii = u[:, 2 * pairs :].reshape(-1) ** (1.0 / dim)
        cand = center + 0.1 * radii[:, None] * _unit_rows(z.reshape(-1, dim))
        inside = _row_min(cand @ a) >= 0.0  # round r holds rows r*p .. r*p + p - 1
        first = int(inside.argmax())
        if not inside[first]:
            rounds_left -= block
            block *= 4
            continue
        r = first // p
        if r + 1 < block:
            rng.bit_generator.state = state
            rng.random((r + 1) * per_round)
        rounds_left -= r + 1
        hit = inside[r * p : (r + 1) * p]
        q[pending[hit]] = cand[r * p : (r + 1) * p][hit]
        pending = pending[~hit]
    if len(pending):
        q[pending] = center
    v = sphere_sample(rng, count, dim)
    return q, v


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    n_walls: int
    dim: int
    trials: int
    seed: int
    max_steps_override: int | None = None
    output_path: str | None = None
    format: str = "csv"
    # Trajectories per cone; defaults to `trials` when unset.
    paths_per_cone: int | None = None

    def __post_init__(self):
        if not (is_int(self.trials) and self.trials >= 1):
            raise InvalidParameter(f"trials must be an integer >= 1, got {self.trials!r}")
        if not is_int(self.seed):
            raise InvalidParameter(f"seed must be an integer, got {self.seed!r}")
        if not (is_int(self.dim) and self.dim >= 1):
            raise InvalidParameter(f"dim must be an integer >= 1, got {self.dim!r}")
        if not (is_int(self.n_walls) and 1 <= self.n_walls <= self.dim):
            raise InvalidParameter(
                f"n_walls must be an integer in 1..dim={self.dim}, got {self.n_walls!r}"
            )
        if self.format not in ("csv", "structured"):
            raise InvalidParameter(f"unknown format {self.format!r}")
        for name in ("max_steps_override", "paths_per_cone"):
            value = getattr(self, name)
            if not (value is None or (is_int(value) and value >= 1)):
                raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class EnsembleRow:
    cone_id: int
    seed: int
    lambda_min: float
    d: float
    delta: float
    C: float
    phi: float
    bound_main: float
    bound_dd: float
    bound_sevryuk: float
    bound_bfk: float
    max_observed_N: int
    zigzag_max_L: float
    lemma1_ceiling: float
    all_checks_pass: bool

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


EnsembleRow.FIELDS = tuple(f.name for f in fields(EnsembleRow))


def format_value(v) -> str:
    """CSV text of a value: round-tripping 17-digit doubles, true/false, "" for None."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def csv_line(values) -> str:
    """One CSV line of values (or of field names) in `format_value` text."""
    return ",".join(format_value(v) for v in values) + "\n"


# Streams are partitioned so cone sampling and trajectory sampling never
# overlap: stream = trial index for cones, trial + _IC_STREAM_BASE for starts.
_IC_STREAM_BASE = 1 << 32


def ensemble_run(config: ExperimentConfig) -> list[EnsembleRow]:
    """Random-cone ensemble: per cone, compute the bounds report, fire many
    random trajectories in one `run_batch`, and audit their largest count
    and zigzag length once (`check_bounds`), which passes exactly when
    every trajectory would.

    Rows are written incrementally when `output_path` is set, so partial
    results survive a failure.  Identical configs produce byte-identical
    output files.
    """
    rows: list[EnsembleRow] = []
    handle = open(config.output_path, "w") if config.output_path else None
    try:
        if handle and config.format == "csv":
            handle.write(csv_line(EnsembleRow.FIELDS))
            handle.flush()
        for trial in range(config.trials):
            cone = random_cone(config.n_walls, config.dim, config.seed, stream=trial).span
            report = bounds_report(cone)
            center = inscribed_ball(cone).e
            rng = make_rng(config.seed, stream=_IC_STREAM_BASE + trial)
            q, v = interior_starts(rng, cone, center, config.paths_per_cone or config.trials)
            counts, zigzag, _ = run_batch(q, v, cone, max_steps=config.max_steps_override)
            verdict = check_bounds(int(counts.max()), float(zigzag.max()), report)
            row = EnsembleRow(
                cone_id=trial,
                seed=config.seed,
                lambda_min=report.lambda_min,
                d=report.d,
                delta=report.delta,
                C=report.bfk_C,
                phi=report.charge_phi,
                bound_main=report.bound_main,
                bound_dd=report.bound_dd,
                bound_sevryuk=report.bound_sevryuk,
                bound_bfk=report.bound_bfk,
                max_observed_N=verdict.n_collisions,
                zigzag_max_L=verdict.zigzag,
                lemma1_ceiling=2.0 / report.d,
                all_checks_pass=verdict.all_passed,
            )
            rows.append(row)
            if handle and config.format == "csv":
                handle.write(csv_line(row.to_dict().values()))
                handle.flush()
        if handle and config.format == "structured":
            handle.write(json.dumps([row.to_dict() for row in rows], indent=2) + "\n")
    finally:
        if handle:
            handle.close()
    return rows


# ---------------------------------------------------------------------------
# Adversarial search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SearchResult:
    """`best_state` is the winning start in the cone's own R^m; `best_record`
    is its trajectory in `cone.span`, where the search runs, so for n < m
    `best_state` is `best_record.initial` mapped back through `cone.basis`."""

    best_n: int
    best_state: BilliardState
    best_record: TrajectoryRecord


def _wall_hugging_starts(cone: ConeSpec, center: np.ndarray):
    """Rays nearly parallel to a wall, aimed deep into a two-wall cone.

    Unfolding shows these maximize wall crossings, so they seed the search
    for the sharp wedge bound.
    """
    starts = []
    for w in range(2):
        normal = cone.normals[w]
        other = cone.normals[1 - w]
        g = np.array([-normal[1], normal[0]])
        if g @ other < 0:
            g = -g
        for h_exp in np.linspace(-6.0, -1.0, 6):
            h = 10.0 ** h_exp
            q = g + h * center
            for s_exp in np.linspace(-8.0, -1.0, 15):
                s = 10.0 ** s_exp
                for sign in (1.0, -1.0):
                    v = -(g + sign * s * normal)
                    starts.append((q, v / np.linalg.norm(v)))
    return starts


def adversarial_search(cone: ConeSpec, budget: int, seed: int) -> SearchResult:
    """Maximize the collision count over initial conditions.

    Deterministic under the seed: wall-hugging heuristics (two-wall cones),
    random interior starts, then simulated annealing around the incumbent,
    all drawn from one Philox stream.  `budget` counts trajectory runs.
    The search runs in `cone.span`; see `SearchResult`.
    """
    if not (is_int(budget) and budget >= 1):
        raise InvalidParameter(f"budget must be an integer >= 1, got {budget!r}")
    work = cone.span
    center = inscribed_ball(work).e
    rng = make_rng(seed, stream=0)
    evaluations = 0

    best = (-1, None, None)

    def evaluate(q, v):
        nonlocal evaluations, best
        state = BilliardState(q=q, v=v / np.linalg.norm(v))
        rec = run(state, work)
        evaluations += 1
        if rec.n_collisions > best[0]:
            best = (rec.n_collisions, state, rec)
        return rec.n_collisions

    if work.n_walls == 2:
        for q, v in _wall_hugging_starts(work, center):
            if evaluations >= budget // 2:
                break
            evaluate(q, v)

    # The hugging starts stop at budget // 2, so these fit in the budget.
    for _ in range(max(1, (budget - evaluations) // 2)):
        state = interior_start(rng, work, center)
        evaluate(state.q, state.v)

    # Annealing walk around the incumbent.
    cur_n, cur_state = best[0], best[1]
    q, v = cur_state.q, cur_state.v
    remaining = budget - evaluations
    for k in range(max(0, remaining)):
        temp = max(0.02, 1.0 * (1.0 - k / max(1, remaining)))
        dv = gaussians(rng, work.dim)
        v_new = v + 0.3 * temp * dv
        v_new /= np.linalg.norm(v_new)
        q_new = q + 0.1 * temp * gaussians(rng, work.dim)
        if (q_new @ work.matrix).min() < 0.0:
            q_new = q
        n_new = evaluate(q_new, v_new)
        if n_new >= cur_n or rng.random() < math.exp((n_new - cur_n) / temp):
            cur_n, q, v = n_new, q_new, v_new

    best_n, best_state, best_record = best
    if work is not cone:  # the winning start, back in R^m
        q, v = best_state.q @ cone.basis, best_state.v @ cone.basis
        best_state = BilliardState(q=q, v=v, t=best_state.t)
    return SearchResult(best_n=best_n, best_state=best_state, best_record=best_record)
