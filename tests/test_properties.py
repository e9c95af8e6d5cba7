"""Property-based checks of the dynamical and spectral invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conebilliards.constants import inscribed_ball, main_bound
from conebilliards.geometry import gram, jacobi_eigenvalues, make_cone
from conebilliards.harness import interior_starts, make_rng, random_cone
from conebilliards.simulator import (
    BilliardState,
    Terminal,
    run,
    run_batch,
    zigzag_length,
)

SIM_SETTINGS = settings(max_examples=40, deadline=None)

cone_params = st.tuples(st.integers(2, 5), st.integers(0, 10_000))
state_seed = st.integers(0, 10_000)


def build(n, stream):
    return random_cone(n, n, seed=314, stream=stream)


@SIM_SETTINGS
@given(params=cone_params, seed=state_seed)
def test_trajectory_invariants(params, seed):
    """Energy, reflection identity, containment, lemma ceiling, progress."""
    n, stream = params
    cone = build(n, stream)
    ball = inscribed_ball(cone)
    rng = make_rng(seed, 1)
    q0, v0 = interior_starts(rng, cone, ball.e, 1)
    rec = run(BilliardState(q=q0[0], v=v0[0]), cone)

    # unit speed after every reflection
    assert np.abs(np.linalg.norm(rec.velocities, axis=1) - 1.0).max() < 1e-12

    total = 0.0
    for k, ev in enumerate(rec.events):
        dv = rec.velocities[k + 1] - rec.velocities[k]
        norm = np.linalg.norm(dv)
        total += norm
        # velocity jump is a nonnegative multiple of the wall normal
        assert np.linalg.norm(dv - norm * cone.normals[ev.wall]) < 1e-10
        # wall-progress identity ties the jump to the inscribed ball
        assert abs(dv @ ball.e - ball.d * norm) < 1e-10
        # collision points land on their wall and stay in the cone
        assert abs(ev.q_at @ cone.normals[ev.wall]) < 1e-9
        assert (ev.q_at @ cone.matrix).min() >= -1e-9
    assert total <= 2.0 / ball.d + 1e-9
    assert rec.n_collisions <= main_bound(n, cone.lambda_min)

    walls = rec.wall_sequence()
    for a, b in zip(walls, walls[1:]):
        assert a != b


@SIM_SETTINGS
@given(params=cone_params, seed=state_seed)
@example(params=(2, 2), seed=5135)  # 35 collisions, a last flight of 34,473 units
@example(params=(4, 313), seed=319)  # 140 collisions, escape at t = 7214
def test_time_reversibility(params, seed):
    n, stream = params
    cone = build(n, stream)
    ball = inscribed_ball(cone)
    rng = make_rng(seed, 2)
    q0, v0 = interior_starts(rng, cone, ball.e, 1)
    rec = run(BilliardState(q=q0[0], v=v0[0]), cone)
    if rec.terminal is not Terminal.ESCAPED or rec.n_collisions == 0:
        return
    final = rec.final_state
    start_back = BilliardState(q=final.q + final.v, v=-final.v)
    with warnings.catch_warnings():
        # the reversed run continues into the forward pre-history and may
        # hit the deliberately small step cap
        warnings.simplefilter("ignore", RuntimeWarning)
        back = run(start_back, cone, max_steps=rec.n_collisions + 8)
    walls_fwd = rec.wall_sequence()
    assert back.wall_sequence()[: rec.n_collisions] == walls_fwd[::-1]
    # Event times of both runs come from differences of times up to t_end,
    # and positions of magnitude |q|, each rounded at about 1e-16 relative,
    # so errors are compared relative to those scales, as conjugacy_check
    # compares event times: an error of 5e-8 at t = 34,474 is 1.5e-12.
    t_end = final.t + 1.0
    for k, ev in enumerate(reversed(rec.events)):
        assert abs(back.events[k].t - (t_end - ev.t)) <= 1e-8 * max(1.0, t_end)
        q_scale = max(1.0, float(np.linalg.norm(ev.q_at)))
        assert np.abs(back.events[k].q_at - ev.q_at).max() <= 1e-8 * q_scale


@SIM_SETTINGS
@given(params=cone_params, seed=state_seed, count=st.integers(1, 6))
@example(params=(2, 432), seed=0, count=2)  # 1100 collisions: summation order shows
def test_run_batch_equivalence(params, seed, count):
    n, stream = params
    cone = build(n, stream)
    ball = inscribed_ball(cone)
    rng = make_rng(seed, 3)
    q, v = interior_starts(rng, cone, ball.e, count)
    counts, zz, terms = run_batch(q, v, cone)
    for i in range(count):
        rec = run(BilliardState(q=q[i], v=v[i]), cone)
        assert rec.n_collisions == counts[i]
        assert zigzag_length(rec) == zz[i]
        assert rec.terminal == terms[i]


@settings(max_examples=30, deadline=None)
@given(params=cone_params, wall=st.integers(0, 4))
def test_sign_flip_spectrum_invariance(params, wall):
    n, stream = params
    cone = build(n, stream)
    flipped = np.array(cone.normals)
    flipped[wall % n] = -flipped[wall % n]
    other = make_cone(cone.dim, flipped)
    s1 = np.sort(jacobi_eigenvalues(gram(cone).entries))
    s2 = np.sort(jacobi_eigenvalues(gram(other).entries))
    np.testing.assert_allclose(s1, s2, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.1, 50.0), params=cone_params)
def test_direction_scaling_invariance(scale, params):
    n, stream = params
    cone = build(n, stream)
    rescaled = make_cone(cone.dim, scale * cone.normals)
    np.testing.assert_allclose(rescaled.normals, cone.normals, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), extra=st.integers(1, 3), stream=st.integers(0, 5_000))
def test_reduction_preserves_gram(n, extra, stream):
    from conebilliards.harness import sphere_sample
    from conebilliards.errors import DegenerateArrangement

    dim = n + extra
    rng = make_rng(271, stream)
    normals = sphere_sample(rng, n, dim)
    try:
        cone = make_cone(dim, normals)
    except DegenerateArrangement:
        return
    reduced, basis = cone.span, cone.basis
    np.testing.assert_allclose(gram(reduced).entries, gram(cone).entries, atol=1e-12)
    np.testing.assert_allclose(basis @ basis.T, np.eye(n), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.15, 3.0), seed=state_seed)
def test_wedge_bound_is_integer_sharp(theta, seed):
    from conebilliards.wedge import sharp_bound, wedge_from_angle

    wedge = wedge_from_angle(theta)
    bound = sharp_bound(theta)
    ball = inscribed_ball(wedge.cone)
    rng = make_rng(seed, 4)
    q, v = interior_starts(rng, wedge.cone, ball.e, 20)
    counts, _, _ = run_batch(q, v, wedge.cone)
    assert counts.max() <= bound  # exact integer comparison


@settings(max_examples=25, deadline=None)
@given(
    n_balls=st.integers(2, 5),
    seed=state_seed,
)
def test_hardball_conjugacy_property(n_balls, seed):
    from conebilliards.hardball import HardBallSystem, conjugacy_check

    rng = make_rng(seed, 5)
    masses = 10.0 ** rng.uniform(-1, 1, n_balls)
    positions = np.cumsum(0.3 + rng.random(n_balls))
    velocities = rng.standard_normal(n_balls)
    system = HardBallSystem(masses=masses, positions=positions, velocities=velocities)
    report = conjugacy_check(system)
    assert report.matched
