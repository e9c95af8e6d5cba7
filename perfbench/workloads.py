"""The four benchmark workloads and their correctness gates.

Each workload turns the command-line seed into a fixed list of op inputs
(`items`), runs one op through the package's public functions (`op`), and
checks the op's outputs (`check`), which returns the number of reflections
the op simulated or raises `GateFailure`.  Package functions are looked up
on their modules at call time, so the tracer's patched names take effect.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

# Cone shapes (and ball masses, which fix the hard-ball cone) come from this
# fixed seed, the reference seed of the repository's layer tables; the
# command-line seed draws everything else.  Per-cone cost varies by 10x
# across random cones, so shapes drawn from the command-line seed would make
# the run-to-run spread a property of the draw, not of the program.
REFERENCE_SEED = 20241
# Keeps start-point streams apart from cone streams when the seeds coincide.
_START_STREAM_BASE = 1 << 33
_SYSTEM_STREAM = 7


class GateFailure(Exception):
    """An op returned an output that fails its correctness gate."""


def import_package(root: Path):
    """Import `conebilliards` from `root/src`, never from anywhere else."""
    src = (root / "src").resolve()
    if not (src / "conebilliards" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {src}")
    sys.path.insert(0, str(src))
    import conebilliards

    if Path(conebilliards.__file__).resolve().parent != src / "conebilliards":
        raise SystemExit(f"perfbench: imported {conebilliards.__file__}, not {src}")
    return conebilliards


def _gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


class Bounds:
    """op = one `bounds_report` (the `conebilliards bounds` path).

    The pool is random_cone(n, n, REFERENCE_SEED, stream=n*1000+c) for
    n = 2..5 and c = 0, 1, plus the 3-orthant and a wedge, whose C and
    delta have closed forms.  The seed draws the wedge angle and the order
    of every cone's walls, which leaves every constant unchanged.  (A seeded
    rotation would too, but it moves the multistart's cost by up to 2x.)
    """

    name = "bounds"

    def __init__(self, cb, seed: int):
        self.cb = cb
        rng = cb.harness.make_rng(seed, stream=0)
        theta = float(rng.uniform(0.3, 2.8))
        pool = [(np.eye(3), 1.0 / math.sqrt(3.0), None)]
        pool.append((cb.wedge.wedge_from_angle(theta).cone.normals, math.sin(theta / 2.0), theta))
        for c in range(2):
            for n in (2, 3, 4, 5):
                cone = cb.harness.random_cone(n, n, REFERENCE_SEED, stream=n * 1000 + c)
                pool.append((cone.normals, None, None))
        self.items = [
            (normals[rng.permutation(len(normals))], closed_c, theta)
            for normals, closed_c, theta in pool
        ]

    def op(self, item):
        normals = item[0]
        cone = self.cb.geometry.make_cone(normals.shape[1], normals)
        return self.cb.constants.bounds_report(cone)

    def check(self, item, rep) -> int:
        _, closed_c, theta = item
        n = rep.cone.n_walls
        lam = rep.lambda_min
        certified_lower = math.sqrt(max(lam, 0.0) / n)
        _gate(rep.d ** 2 * n >= lam - 1e-9, "d^2 n >= lambda_min")
        _gate(rep.delta ** 2 >= lam / n - 1e-9, "delta^2 >= lambda_min / n")
        _gate(rep.charge_phi <= rep.psi + 1e-9, "phi <= psi")
        _gate(0.0 < rep.bfk_C <= 1.0, "0 < C <= 1")
        _gate(0.0 < rep.charge_SQ <= math.pi / 2, "0 < S(Q) <= pi/2")
        _gate(certified_lower <= rep.bfk_C + 1e-12, "certified lower end of C <= C")
        _gate(certified_lower <= rep.delta + 1e-12, "certified lower end of delta <= delta")
        if closed_c is not None:
            # C is an estimate from above: never below the closed form, and
            # within the 1e-3 gap that the oracles are held to.
            _gate(closed_c - 1e-9 <= rep.bfk_C <= closed_c + 1e-3, f"C = {closed_c} closed form")
        if theta is not None:
            _gate(rep.bound_wedge == self.cb.wedge.sharp_bound(theta), "wedge bound ceil(pi/theta)")
        return 0


class Theorem:
    """op = one cone of the criterion-1 loop: random_cone, inscribed_ball,
    main_bound, interior_starts for 100 paths, then run_batch; n = 2..5.

    Cones are random_cone(n, n, REFERENCE_SEED, stream=n*100000+c); the seed
    draws the start points.
    """

    name = "theorem"
    paths_per_cone = 100
    pool_size = 600

    def __init__(self, cb, seed: int):
        self.cb = cb
        self.seed = seed
        self.items = [(2 + k % 4, k // 4) for k in range(self.pool_size)]

    def op(self, item):
        n, c = item
        h = self.cb.harness
        cone = h.random_cone(n, n, REFERENCE_SEED, stream=n * 100_000 + c)
        bound = self.cb.constants.main_bound(n, cone.lambda_min)
        ball = self.cb.constants.inscribed_ball(cone)
        rng = h.make_rng(self.seed, stream=_START_STREAM_BASE + n * 100_000 + c)
        q, v = h.interior_starts(rng, cone, ball.e, self.paths_per_cone)
        counts, zigzag, terminals = self.cb.simulator.run_batch(
            q, v, cone, max_steps=int(math.ceil(bound)) + 1
        )
        return bound, ball.d, counts, zigzag, terminals

    def check(self, item, out) -> int:
        bound, d, counts, zigzag, terminals = out
        _gate(counts.max() <= bound, "N <= n! (4 / lambda_min)^(n-1)")
        _gate(zigzag.max() <= 2.0 / d + 1e-9, "zigzag <= 2/d")
        _gate(
            all(t is not self.cb.simulator.Terminal.STEP_LIMIT for t in terminals),
            "no StepLimit",
        )
        return int(counts.sum())


class _RunCounter:
    """Stands in for `harness.run` and adds up the reflections it returns."""

    def __init__(self, run):
        self.run = run
        self.events = 0

    def __call__(self, *args, **kwargs):
        record = self.run(*args, **kwargs)
        self.events += record.n_collisions
        return record


class Ensemble:
    """op = one cone of `ensemble_run` at walls = 3, dim = 3 (the
    `conebilliards ensemble` path).

    The pool is the configs with seeds REFERENCE_SEED + k; the command-line
    seed sets their order.  `paths_per_cone` makes `bounds_report` and the
    scalar run + audit loop each take about half of a pass.
    """

    name = "ensemble"
    paths_per_cone = 7000
    pool_size = 2

    def __init__(self, cb, seed: int):
        self.cb = cb
        order = cb.harness.make_rng(seed, stream=0).permutation(self.pool_size)
        self.items = [
            cb.harness.ExperimentConfig(
                n_walls=3,
                dim=3,
                trials=1,
                seed=REFERENCE_SEED + int(k),
                paths_per_cone=self.paths_per_cone,
            )
            for k in order
        ]

    def op(self, config):
        h = self.cb.harness
        counter = _RunCounter(h.run)
        h.run = counter
        try:
            rows = h.ensemble_run(config)
        finally:
            h.run = counter.run
        return rows, counter.events

    def check(self, config, out) -> int:
        rows, events = out
        _gate(len(rows) == 1, "one row per cone")
        _gate(rows[0].all_checks_pass, "all_checks_pass")
        return events


class Records:
    """op = one `conjugacy_check` of a random HardBallSystem with 3-8 balls,
    masses spread over two decades; both simulators keep per-event records.

    Ball counts and masses come from REFERENCE_SEED; the seed draws the
    positions and velocities.
    """

    name = "records"
    pool_size = 1200

    def __init__(self, cb, seed: int):
        self.cb = cb
        shapes = cb.harness.make_rng(REFERENCE_SEED, stream=_SYSTEM_STREAM)
        rng = cb.harness.make_rng(seed, stream=_START_STREAM_BASE + _SYSTEM_STREAM)
        self.items = []
        for _ in range(self.pool_size):
            k = int(shapes.integers(3, 9))
            self.items.append(
                cb.hardball.HardBallSystem(
                    masses=10.0 ** shapes.uniform(-1.0, 1.0, k),
                    positions=np.cumsum(0.2 + rng.random(k)),
                    velocities=rng.standard_normal(k),
                )
            )

    def op(self, system):
        return self.cb.hardball.conjugacy_check(system)

    def check(self, system, report) -> int:
        _gate(report.matched, "ball and cone event sequences match")
        return report.n_ball_events + report.n_cone_events


WORKLOADS = {w.name: w for w in (Bounds, Theorem, Ensemble, Records)}
