"""Acceptance suite.

Each test prints one [PASS]/[FAIL] line for its criterion and asserts at
the stated tolerance.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from conebilliards.constants import (
    bfk_constant,
    bounds_report,
    capacity_delta,
    charge_phi,
    inscribed_ball,
    main_bound,
)
from conebilliards.geometry import gram, jacobi_eigenvalues, make_cone
from conebilliards.hardball import HardBallSystem, conjugacy_check, simulate_balls
from conebilliards.harness import (
    ExperimentConfig,
    adversarial_search,
    ensemble_run,
    interior_starts,
    make_rng,
    random_cone,
)
from conebilliards.simulator import run_batch
from conebilliards.wedge import sharp_bound, wedge_from_angle
from oracles import c_grid, c_multistart, delta_grid, delta_multistart

CONE_SEED = 20240
IC_SEED = 20241


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def theorem_ensemble():
    """>= 1000 random cones per n in {2..5}, 100 random trajectories each."""
    t0 = time.time()
    viol_main = 0
    viol_lemma = 0
    total_traj = 0
    for n in (2, 3, 4, 5):
        for c in range(1000):
            cone = random_cone(n, n, seed=CONE_SEED, stream=n * 100_000 + c)
            bound = main_bound(n, cone.lambda_min)
            ball = inscribed_ball(cone)
            rng = make_rng(IC_SEED, stream=n * 100_000 + c)
            q, v = interior_starts(rng, cone, ball.e, 100)
            counts, zigzag, _ = run_batch(
                q, v, cone, max_steps=int(math.ceil(bound)) + 1
            )
            total_traj += 100
            if counts.max() > bound:
                viol_main += 1
            if zigzag.max() > 2.0 / ball.d + 1e-9:
                viol_lemma += 1
    return viol_main, viol_lemma, total_traj, time.time() - t0


def test_criterion_1_theorem_bound(theorem_ensemble):
    viol_main, _, total, elapsed = theorem_ensemble
    ok = viol_main == 0 and elapsed <= 120.0
    _criterion(
        1,
        ok,
        f"N <= n!(4/lambda_min)^(n-1) on {total} trajectories over 4000 cones, "
        f"{viol_main} violations, {elapsed:.1f}s",
    )


def test_criterion_2_lemma_zigzag(theorem_ensemble):
    _, viol_lemma, total, _ = theorem_ensemble
    _criterion(
        2,
        viol_lemma == 0,
        f"zigzag length <= 2/d + 1e-9 on {total} trajectories, {viol_lemma} violations",
    )


def test_criterion_3_wedge_sharpness():
    targets = [(math.pi / 2, 2), (math.pi / 3, 3), (2 * math.pi / 5, 3), (math.pi / 5, 5)]
    results = []
    ok = True
    for theta, expected in targets:
        wedge = wedge_from_angle(theta)
        found = adversarial_search(wedge.cone, budget=3000, seed=17).best_n
        results.append(found)
        ok = ok and found == expected == sharp_bound(theta)
    _criterion(3, ok, f"search attains ceil(pi/theta) exactly: found {results}, want [2, 3, 3, 5]")


def test_criterion_4_constant_inequalities():
    bad = 0
    checked = 0
    for n in (2, 3, 4, 5):
        for c in range(25):
            cone = random_cone(n, n, seed=CONE_SEED + 1, stream=n * 1000 + c)
            rep = bounds_report(cone)
            checked += 1
            ok = (
                rep.d ** 2 * n >= rep.lambda_min - 1e-9
                and rep.delta ** 2 >= rep.lambda_min / n - 1e-9
                and rep.charge_phi <= rep.psi + 1e-9
                and 0.0 < rep.bfk_C <= 1.0
                and 0.0 < rep.charge_SQ <= math.pi / 2
            )
            if not ok:
                bad += 1
    _criterion(
        4,
        bad == 0,
        f"d^2 n >= lam, delta^2 >= lam/n, phi <= psi, 0 < C <= 1, "
        f"0 < S(Q) <= pi/2 on {checked} random cones, {bad} violations",
    )


@pytest.fixture(scope="module")
def oracle_cones():
    """The 100 criterion-5 cones (m <= 3) with delta and C from every route."""
    out = []
    for m, count in ((2, 50), (3, 50)):
        for c in range(count):
            cone = random_cone(m, m, seed=CONE_SEED + 2, stream=m * 1000 + c)
            out.append(
                {
                    "d_multi": delta_multistart(cone),
                    "d_grid": delta_grid(cone),
                    "c_multi": c_multistart(cone),
                    "c_grid": c_grid(cone),
                    "c_auto": bfk_constant(cone),
                }
            )
    return out


def test_criterion_5_oracle_agreement(oracle_cones):
    worst_delta = max(abs(r["d_multi"] - r["d_grid"]) for r in oracle_cones)
    worst_c = max(abs(r["c_multi"] - r["c_grid"]) for r in oracle_cones)
    ok = worst_delta <= 1e-3 and worst_c <= 1e-3
    _criterion(
        5,
        ok,
        f"multistart vs grid on 100 cones (m <= 3): worst |delta diff| = "
        f"{worst_delta:.2e}, worst |C diff| = {worst_c:.2e}, tolerance 1e-3",
    )


def test_certified_C_below_both_oracles(oracle_cones):
    # The certified lower end of C (closed form at m = 2, closed form or
    # outer approximation at m = 3) lies below every feasible evaluation of
    # the oracles; 1e-12 covers rounding in those evaluations (up to 6e-16
    # on the wedges).
    worst = max(
        r["c_auto"].certified_lower - min(r["c_grid"], r["c_multi"])
        for r in oracle_cones
    )
    assert worst <= 1e-12, worst


def test_criterion_6_closed_forms():
    worst = 0.0
    for n in range(2, 9):
        cone = make_cone(n, np.eye(n))
        ball = inscribed_ball(cone)
        est = capacity_delta(cone)
        worst = max(
            worst,
            abs(ball.d - 1.0 / math.sqrt(n)),
            abs(est.value - 1.0 / math.sqrt(n)),
            abs(cone.lambda_min - 1.0),
        )
    for theta in np.linspace(0.1, math.pi - 0.1, 20):
        cone = wedge_from_angle(float(theta)).cone
        ball = inscribed_ball(cone)
        worst = max(
            worst,
            abs(ball.d - math.sin(theta / 2.0)),
            abs(cone.lambda_min - (1.0 - abs(math.cos(theta)))),
        )
    _criterion(
        6,
        worst < 1e-10,
        f"orthant d = delta = 1/sqrt(n), lam = 1 (n in 2..8); wedge d = sin(theta/2), "
        f"lam = 1 - |cos theta| (20 angles); worst error {worst:.2e}",
    )


def test_criterion_7_hardball_conjugacy():
    rng = make_rng(CONE_SEED + 3, 0)
    mismatches = 0
    for _ in range(200):
        n_balls = int(rng.integers(3, 7))
        masses = 10.0 ** rng.uniform(-1.0, 1.0, n_balls)
        positions = np.cumsum(0.2 + rng.random(n_balls))
        velocities = rng.standard_normal(n_balls)
        system = HardBallSystem(masses=masses, positions=positions, velocities=velocities)
        report = conjugacy_check(system)
        if not (report.matched and report.max_time_error <= 1e-8):
            mismatches += 1
    cap_breaks = 0
    for _ in range(100):
        n_balls = int(rng.integers(3, 7))
        positions = np.cumsum(0.2 + rng.random(n_balls))
        velocities = rng.standard_normal(n_balls)
        system = HardBallSystem(
            masses=np.ones(n_balls), positions=positions, velocities=velocities
        )
        traj = simulate_balls(system)
        if traj.n_collisions > (n_balls - 1) * n_balls // 2:
            cap_breaks += 1
    ok = mismatches == 0 and cap_breaks == 0
    _criterion(
        7,
        ok,
        f"200 random systems conjugate within 1e-8 ({mismatches} mismatches); "
        f"equal-mass cap (N-1)N/2 never exceeded ({cap_breaks} breaks)",
    )


def test_criterion_8_sign_flip_invariance():
    worst = 0.0
    idx = 0
    for n in (2, 3, 4, 5):
        for c in range(25):
            cone = random_cone(n, n, seed=CONE_SEED + 4, stream=n * 1000 + c)
            flipped = np.array(cone.normals)
            flipped[idx % n] = -flipped[idx % n]
            other = make_cone(cone.dim, flipped)
            idx += 1
            s1 = np.sort(jacobi_eigenvalues(gram(cone).entries))
            s2 = np.sort(jacobi_eigenvalues(gram(other).entries))
            d1 = capacity_delta(cone)
            d2 = capacity_delta(other)
            psi1, psi2 = math.asin(d1.value), math.asin(d2.value)
            p1 = charge_phi(cone)
            p2 = charge_phi(other)
            worst = max(
                worst,
                float(np.abs(s1 - s2).max()),
                abs(d1.value - d2.value),
                abs(psi1 - psi2),
                abs(p1.value - p2.value),
            )
    _criterion(
        8,
        worst < 1e-9,
        f"sign flip changes spectrum, delta, psi, phi by {worst:.2e} < 1e-9 "
        f"over 100 cones",
    )


def test_criterion_9_determinism(tmp_path):
    outputs = {}
    for fmt in ("csv", "structured"):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"ens_{fmt}_{tag}.txt"
            ensemble_run(
                ExperimentConfig(
                    n_walls=2,
                    dim=2,
                    trials=3,
                    seed=13579,
                    output_path=str(out),
                    format=fmt,
                    paths_per_cone=10,
                )
            )
            blobs.append(out.read_bytes())
        outputs[fmt] = blobs[0] == blobs[1]
    ok = all(outputs.values())
    _criterion(
        9,
        ok,
        f"repeated ensembles are byte-identical: {outputs}",
    )
