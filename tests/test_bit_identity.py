"""The fast paths of the cone sampler, the start sampler, the row
normalization, the stepping kernel and the hard-ball event loop against the
code they replaced (kept here as reference oracles) or against the scalar
`run`: every output must agree bit for bit, and the random generator must
end in the same state.  The tests' own reference solvers, the cyclic Jacobi
and the face-distance projector table, are checked against numpy's
`eigvalsh` and `pinv`."""

import itertools
import math
import warnings

import numpy as np
import pytest

from conebilliards import geometry
from conebilliards.constants import bounds_report, inscribed_ball, step_cap
from conebilliards.errors import InvalidState, ZeroVector
from conebilliards.geometry import (
    gram,
    jacobi_eigenvalues,
    make_cone,
    min_eigenvalue,
)
from conebilliards.hardball import (
    BallEvent,
    HardBallSystem,
    balls_to_cone,
    conjugacy_check,
    simulate_balls,
)
from conebilliards.harness import interior_starts, make_rng, random_cone
from conebilliards.minimax import FaceDistance, min_max_abs_margin
from conebilliards.simulator import (
    APPROACH_TOL,
    CONTAINMENT_TOL,
    CORNER_REL_TOL,
    BilliardState,
    CollisionEvent,
    Terminal,
    TrajectoryRecord,
    run,
    run_batch,
    zigzag_length,
)
from conebilliards.wedge import wedge_from_angle


def _gaussians_reference(rng, count):
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:count]


def _sphere_sample_reference(rng, count, dim):
    z = _gaussians_reference(rng, count * dim).reshape(count, dim)
    norms = np.linalg.norm(z, axis=1)
    norms[norms < 1e-12] = 1.0
    return z / norms[:, None]


def random_cone_reference(n, dim, seed, stream=0):
    """Tests each candidate by its own eigenvalue solve before make_cone."""
    rng = make_rng(seed, stream)
    for _ in range(1000):
        normals = _sphere_sample_reference(rng, n, dim)
        lam = float(jacobi_eigenvalues(normals @ normals.T)[0])
        if math.sqrt(max(lam, 0.0)) > 1e-3:
            return make_cone(dim, normals)
    raise AssertionError("no well-conditioned cone")


def interior_starts_reference(rng, cone, center, count):
    """One rejection round at a time."""
    a = cone.matrix
    dim = cone.dim
    q = np.empty((count, dim))
    pending = np.arange(count)
    for _ in range(1000):
        if len(pending) == 0:
            break
        directions = _sphere_sample_reference(rng, len(pending), dim)
        radii = rng.random(len(pending)) ** (1.0 / dim)
        cand = center + 0.1 * radii[:, None] * directions
        ok = (cand @ a).min(axis=1) >= 0.0
        q[pending[ok]] = cand[ok]
        pending = pending[~ok]
    if len(pending):
        q[pending] = center
    v = _sphere_sample_reference(rng, count, dim)
    return q, v


def _assert_eigenvalues_match_numpy(m):
    vals = jacobi_eigenvalues(m)
    assert np.isfinite(vals).all()
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(m), rtol=0.0, atol=1e-12)


class TestJacobi:
    """The cyclic Jacobi, the tests' reference eigenvalue solver, against
    LAPACK's symmetric solver."""

    def test_unit_row_grams_and_symmetric_matrices(self):
        rng = make_rng(901, 0)
        for n in range(1, 11):
            for _ in range(12):
                rows = rng.standard_normal((n, n))
                rows /= np.linalg.norm(rows, axis=1)[:, None]
                _assert_eigenvalues_match_numpy(rows @ rows.T)
                s = rng.standard_normal((n, n))
                _assert_eigenvalues_match_numpy(0.5 * (s + s.T))

    def test_zero_and_denormal_pivots(self):
        # Exact zeros, and a denormal between equal diagonal entries, take the
        # skip branch; rotating there would turn the pair by 45 degrees.
        m = np.diag([3.0, 1.0, 2.0, 1.0])
        m[0, 2] = m[2, 0] = 0.25
        m[1, 3] = m[3, 1] = 5e-310
        _assert_eigenvalues_match_numpy(m)
        _assert_eigenvalues_match_numpy(np.eye(6))

    def test_sweep_cap(self, monkeypatch):
        import conebilliards.geometry as geometry

        rng = make_rng(902, 0)
        s = rng.standard_normal((7, 7))
        m = 0.5 * (s + s.T)
        full = jacobi_eigenvalues(m)
        _assert_eigenvalues_match_numpy(m)
        for sweeps in (1, 2):
            monkeypatch.setattr(geometry, "_JACOBI_MAX_SWEEPS", sweeps)
            # the cap binds: the full run differs
            assert not np.array_equal(jacobi_eigenvalues(m), full)


class TestOneEigenvaluePerCone:
    def test_criterion_4_cones(self):
        for n in (2, 3, 4, 5):
            for c in range(25):
                cone = random_cone(n, n, seed=20241, stream=n * 1000 + c)
                assert cone.lambda_min == min_eigenvalue(gram(cone))

    def test_hardball_cones(self):
        rng = make_rng(903, 0)
        for balls in range(3, 9):
            for _ in range(10):
                cone, _ = balls_to_cone(10.0 ** rng.uniform(-1.0, 1.0, balls))
                assert cone.lambda_min == min_eigenvalue(gram(cone))

    def test_make_cone_solves_once(self, monkeypatch):
        calls = []
        original = geometry.min_eigenvalue

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(geometry, "min_eigenvalue", counting)
        cone = make_cone(3, [(1, 0, 0), (0.6, 0.8, 0), (0, 0.3, 1)])
        cone.lambda_min
        gram(cone)
        assert len(calls) == 1

    def test_random_cone_matches_reference(self):
        for n in (2, 3, 4, 5):
            for c in range(40):
                for seed, stream in ((20241, n * 100_000 + c), (20242, n * 1000 + c)):
                    new = random_cone(n, n, seed, stream)
                    ref = random_cone_reference(n, n, seed, stream)
                    assert np.array_equal(new.normals, ref.normals)
        wide = random_cone(3, 5, 7, 11)
        assert np.array_equal(wide.normals, random_cone_reference(3, 5, 7, 11).normals)


    def test_library_routes_call_no_jacobi(self, monkeypatch):
        # The cyclic Jacobi stays only as a reference for the tests.
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            raise AssertionError("jacobi_eigenvalues called")

        monkeypatch.setattr(geometry, "jacobi_eigenvalues", counting)
        for n in (2, 3, 5):
            bounds_report(random_cone(n, n, 20241, n * 1000))
        bounds_report(random_cone(3, 5, 7, 0))
        rng = make_rng(904, 0)
        for balls in (3, 6):
            masses = 10.0 ** rng.uniform(-1.0, 1.0, balls)
            system = HardBallSystem(masses, np.cumsum(rng.random(balls) + 0.1), rng.standard_normal(balls))
            conjugacy_check(system)
            simulate_balls(system)
        assert calls == []


def unit_rows_reference(rows):
    """make_cone's row normalization before plain norms came first: every
    row scaled by a power of two near its largest |entry|, then divided by
    its norm.  Returns (lengths, unit rows); a zero row's unit row is NaN."""
    _, exponents = np.frexp(np.abs(rows).max(axis=1))
    scaled = np.ldexp(rows, -exponents[:, None])
    scaled_norms = np.linalg.norm(scaled, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ldexp(scaled_norms, exponents), scaled / scaled_norms[:, None]


def test_plain_norms_match_scaled_rows():
    # Plain norms first, and the power-of-two scaling only for rows past
    # the float range: every unit row and every renormalized flag stays as
    # it was, at every scale the cone accepts.
    rng = make_rng(905, 0)
    for k in range(400):
        m = 2 + k % 5
        rows = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-11.0, 11.0, (m, 1))
        if k % 4 == 0:  # entries whose squares underflow beside the others
            rows[0, 1:] *= 10.0 ** rng.uniform(-300.0, -140.0, m - 1)
        if k % 4 == 1:  # and rows whose squares overflow
            rows[-1] *= 10.0 ** rng.uniform(150.0, 296.0)
        norms, unit = unit_rows_reference(rows)
        if norms.min() < 1e-12:
            with pytest.raises(ZeroVector):
                make_cone(m, rows)
            continue
        cone = make_cone(m, rows)
        assert np.array_equal(cone.normals, unit)
        assert cone.renormalized == bool(np.any(np.abs(norms - 1.0) > 1e-6))
    # Below 1e-12 a row is a zero vector on either side of 1e-150.
    for scale in (1e-13, 1e-149, 1e-151, 1e-300, 5e-324):
        rows = np.eye(3)
        rows[1] = rng.standard_normal(3) * scale
        assert unit_rows_reference(rows)[0][1] < 1e-12
        with pytest.raises(ZeroVector):
            make_cone(3, rows)


def simulate_balls_reference(system, max_events):
    """The event loop on numpy arrays of the ball coordinates."""
    x = np.array(system.positions)
    v = np.array(system.velocities)
    m = system.masses
    n = system.n_balls
    t = 0.0
    events = []
    terminal = None
    while len(events) < max_events:
        gaps = np.diff(x)
        closing = v[:-1] - v[1:]
        approaching = closing > APPROACH_TOL
        if not approaching.any():
            terminal = Terminal.ESCAPED
            break
        times = np.full(n - 1, np.inf)
        times[approaching] = np.maximum(0.0, gaps[approaching] / closing[approaching])
        i = int(times.argmin())
        t_hit = float(times[i])
        times[i] = np.inf
        if float(times.min()) - t_hit < CORNER_REL_TOL * (1.0 + t_hit):
            x = x + t_hit * v
            t += t_hit
            terminal = Terminal.CORNER_HIT
            break
        x = x + t_hit * v
        x[i + 1] = x[i]
        t += t_hit
        mi, mj = m[i], m[i + 1]
        vi, vj = v[i], v[i + 1]
        v[i] = ((mi - mj) * vi + 2.0 * mj * vj) / (mi + mj)
        v[i + 1] = ((mj - mi) * vj + 2.0 * mi * vi) / (mi + mj)
        events.append(
            BallEvent(t=t, pair=(i, i + 1), velocities_after=(float(v[i]), float(v[i + 1])))
        )
    return events, terminal or Terminal.STEP_LIMIT, x, v, t


def _assert_same_balls(system, max_events):
    traj = simulate_balls(system, max_events=max_events)
    events, terminal, x, v, t = simulate_balls_reference(system, max_events)
    assert traj.terminal is terminal
    assert [(e.t, e.pair, e.velocities_after) for e in traj.events] == [
        (e.t, e.pair, e.velocities_after) for e in events
    ]
    for ours, ref in zip(traj.events, events):
        assert type(ours.t) is type(ref.t) is float
        assert all(type(u) is float for u in ours.velocities_after)
    assert traj.final_positions.dtype == traj.final_velocities.dtype == np.float64
    assert np.array_equal(traj.final_positions, x) and np.array_equal(traj.final_velocities, v)
    assert traj.final_time == t and type(traj.final_time) is type(t)
    return traj


class TestSimulateBallsAgainstReference:
    def test_random_systems(self):
        rng = make_rng(906, 0)
        terminals = set()
        for k in range(600):
            balls = 2 + k % 8
            masses = 10.0 ** rng.uniform(-2.0, 2.0, balls)
            positions = np.cumsum(rng.random(balls) + 1e-3)
            velocities = rng.standard_normal(balls)
            if k % 7 == 0:
                velocities[rng.integers(balls)] = 0.0
            system = HardBallSystem(masses, positions, velocities)
            cone, _ = balls_to_cone(masses)
            cap = step_cap(balls - 1, cone.lambda_min)
            terminals.add(_assert_same_balls(system, cap).terminal)
            _assert_same_balls(system, 1 + k % 3)
        assert terminals == {Terminal.ESCAPED}

    def test_tie_rest_and_budget(self):
        # Two pairs closing at once, every ball at rest, and a budget that
        # stops a trajectory early.
        tie = HardBallSystem(np.ones(3), np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, -1.0]))
        assert _assert_same_balls(tie, 10).terminal is Terminal.CORNER_HIT
        rest = HardBallSystem(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0]), np.zeros(3))
        assert _assert_same_balls(rest, 10).terminal is Terminal.ESCAPED
        chase = HardBallSystem(
            np.array([100.0, 0.01, 100.0]), np.array([0.0, 1.0, 2.5]), np.array([1.0, 0.0, -1.0])
        )
        assert _assert_same_balls(chase, 2).terminal is Terminal.STEP_LIMIT
        assert _assert_same_balls(chase, 10_000).n_collisions > 2


def _assert_same_starts(cone, center, count, seed, stream):
    rng = make_rng(seed, stream)
    ref_rng = make_rng(seed, stream)
    q, v = interior_starts(rng, cone, center, count)
    ref_q, ref_v = interior_starts_reference(ref_rng, cone, center, count)
    assert np.array_equal(q, ref_q)
    assert np.array_equal(v, ref_v)
    assert rng.random() == ref_rng.random()
    return q


class TestInteriorStarts:
    def test_thin_theorem_cone(self):
        # d = 0.0018: round by round, its 100 starts take all 1000 rounds
        cone = random_cone(5, 5, 20241, stream=500117)
        center = inscribed_ball(cone).e
        for seed in (1, 2, 601):
            _assert_same_starts(cone, center, 100, seed, (1 << 33) + 500117)

    def test_rounds_run_out(self):
        cone = wedge_from_angle(1e-7).cone
        center = inscribed_ball(cone).e
        q = _assert_same_starts(cone, center, 5, 3, 4)
        assert (q == center).all(axis=1).any()  # the center fallback ran

    def test_assorted_cones_and_counts(self):
        for n in (2, 3, 4, 5):
            for c in range(6):
                cone = random_cone(n, n, 20241, stream=n * 1000 + c)
                center = inscribed_ball(cone).e
                for count in (1, 7, 100):
                    _assert_same_starts(cone, center, count, 17, n * 10 + c)


def face_projectors_reference(normals):
    """The projector tables of `FaceDistance` from the pseudoinverse: I -
    pinv(A_T) A_T for the matrix A_T of each row tuple's rows, the faces'
    tuples (i, *extra), then the identity and the cone's subsets in
    increasing order."""
    n, m = normals.shape

    def projector(rows):
        a = normals[list(rows)]
        return np.eye(m) - np.linalg.pinv(a) @ a

    faces = [
        projector((i, *extra))
        for i in range(n)
        for k in range(n)
        for extra in itertools.combinations([j for j in range(n) if j != i], k)
    ]
    cone = [np.eye(m)] + [
        projector(subset)
        for k in range(1, n + 1)
        for subset in itertools.combinations(range(n), k)
    ]
    return faces, cone


@pytest.mark.parametrize("n", range(2, 8))
def test_face_projectors_match_reference(n):
    for normals in (
        random_cone(n, n, seed=20241, stream=n * 1000).normals,
        random_cone(n, n, seed=77, stream=n).normals,
        np.eye(n),
    ):
        face = FaceDistance(normals)
        faces, cone = face_projectors_reference(normals)
        np.testing.assert_allclose(face._faces, face._stack(faces), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(face._cone, face._stack(cone), rtol=0.0, atol=1e-12)


def min_max_abs_margin_reference(cone):
    """The sign-vertex solve as one product of the rays with all 2^(n-1)
    sign vectors, without the blocks and the right-hand-side callback that
    it shares with the 0/1 vertices."""
    n = cone.n_walls
    codes = np.arange(1 << (n - 1))
    signs = np.ones((n, len(codes)))
    signs[1:] -= 2.0 * ((codes >> np.arange(n - 1)[:, None]) & 1)
    y = cone.rays @ signs
    q = (y * y).sum(axis=0)
    k = int(q.argmax())
    root = math.sqrt(q[k])
    return 1.0 / root, y[:, k] / root


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_sign_vertices_match_reference(n):
    # n = 16 solves its 2^15 sign vectors in two blocks
    for cone in (
        random_cone(n, n, seed=20241, stream=n * 1000),
        random_cone(n, n, seed=20241, stream=n * 1000 + 1),
        random_cone(n, n + 2, seed=5, stream=n).span,
        make_cone(n, np.eye(n)),
    ):
        value, y = min_max_abs_margin(cone)
        ref_value, ref_y = min_max_abs_margin_reference(cone)
        assert value == ref_value
        assert (y == ref_y).all()


def test_run_batch_mixed_terminals_match_run():
    """One batch with escapes, a corner hit and StepLimit rows."""
    cone = wedge_from_angle(math.pi / 12).cone
    center = inscribed_ball(cone).e
    rng = make_rng(904, 0)
    q, v = interior_starts(rng, cone, center, 40)
    q = np.vstack([q, 2.0 * center, center])
    u = center / np.linalg.norm(center)
    v = np.vstack([v, -u, u])  # into the apex: corner; outward: escape
    max_steps = 4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        counts, zz, terms = run_batch(q, v, cone, max_steps=max_steps)
    assert sum(issubclass(w.category, RuntimeWarning) for w in caught) == 1
    seen = set(terms)
    assert {Terminal.ESCAPED, Terminal.CORNER_HIT, Terminal.STEP_LIMIT} <= seen
    assert terms[-2] is Terminal.CORNER_HIT and terms[-1] is Terminal.ESCAPED
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i in range(len(q)):
            rec = run(BilliardState(q=q[i], v=v[i]), cone, max_steps=max_steps)
            assert rec.n_collisions == counts[i]
            assert zigzag_length(rec) == zz[i]
            assert rec.terminal == terms[i]


@pytest.mark.parametrize("max_steps", [1, 5, None])
def test_run_batch_matches_run_in_three_dimensions(max_steps):
    cone = random_cone(3, 3, 20241, stream=3001)
    center = inscribed_ball(cone).e
    q, v = interior_starts(make_rng(905, 0), cone, center, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        counts, zz, terms = run_batch(q, v, cone, max_steps=max_steps)
        for i in range(len(q)):
            rec = run(BilliardState(q=q[i], v=v[i]), cone, max_steps=max_steps)
            assert (rec.n_collisions, zigzag_length(rec), rec.terminal) == (
                counts[i],
                zz[i],
                terms[i],
            )


def test_run_batch_corner_tolerance_matches_run():
    """Near-ties around the corner rule t2 - t1 < 1e-12 (1 + t1) at t1 = sqrt(2)."""
    cone = make_cone(2, [(1.0, 0.0), (0.0, 1.0)])
    q = np.array([(1.0, 1.0 + gap) for gap in (1.4e-12, 2e-12)])
    v = np.tile(-np.ones(2) / math.sqrt(2.0), (2, 1))
    counts, zz, terms = run_batch(q, v, cone)
    assert list(terms) == [Terminal.CORNER_HIT, Terminal.ESCAPED]
    for i in range(2):
        rec = run(BilliardState(q=q[i], v=v[i]), cone)
        assert (rec.n_collisions, zigzag_length(rec), rec.terminal) == (counts[i], zz[i], terms[i])


def next_event_reference(state, cone):
    """The scalar stepper `run` used before the shared row kernel: a
    CollisionEvent, None for an escape, or (t, q_at) for a corner hit."""
    a = cone.matrix
    q = state.q
    v = state.v
    margins = q @ a
    if margins.min() < -CONTAINMENT_TOL:
        raise InvalidState(f"position outside the cone: min margin {margins.min():.2e}")
    vel_along = v @ a
    approaching = vel_along < -APPROACH_TOL
    if not approaching.any():
        return None
    times = np.full(cone.n_walls, np.inf)
    times[approaching] = np.maximum(0.0, -margins[approaching] / vel_along[approaching])
    wall = int(times.argmin())
    t_hit = float(times[wall])
    if cone.n_walls > 1:
        times[wall] = np.inf
        t_second = float(times.min())
        if t_second - t_hit < CORNER_REL_TOL * (1.0 + t_hit):
            return state.t + t_hit, q + t_hit * v
    # The reflection on one-row arrays, as in the row-wise `_reflect`.
    normals = cone.normals[wall][None]
    q_at = q[None] + t_hit * v[None]
    q_at -= (q_at * normals).sum(axis=1)[:, None] * normals
    v_after = v[None] - 2.0 * (v[None] * normals).sum(axis=1)[:, None] * normals
    v_after /= np.linalg.norm(v_after, axis=1)[:, None]
    return CollisionEvent(
        t=state.t + t_hit, wall=wall, q_at=q_at[0], v_before=v, v_after=v_after[0]
    )


def run_reference(initial, cone, max_steps=None):
    """`run` as a loop over `next_event_reference`, one frozen state per event."""
    q = np.array(initial.q, dtype=np.float64)
    v = np.array(initial.v, dtype=np.float64)
    speed = np.linalg.norm(v[None], axis=1)[0]
    v /= speed
    if max_steps is None:
        max_steps = step_cap(cone.n_walls, cone.lambda_min)
    start = BilliardState(q=q, v=v, t=float(initial.t))
    t = start.t
    events = []
    terminal = Terminal.STEP_LIMIT
    final = None
    while len(events) < max_steps:
        out = next_event_reference(BilliardState(q=q, v=v, t=t), cone)
        if isinstance(out, CollisionEvent):
            events.append(out)
            q, v, t = np.array(out.q_at), np.array(out.v_after), out.t
        elif out is None:
            terminal = Terminal.ESCAPED
            break
        else:
            terminal = Terminal.CORNER_HIT
            final = BilliardState(q=out[1], v=v, t=out[0])
            break
    return TrajectoryRecord(
        initial=start,
        events=tuple(events),
        terminal=terminal,
        final_state=final or BilliardState(q=q, v=v, t=t),
        cone=cone,
    )


def _assert_same_state(a, b):
    assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v) and a.t == b.t


def _assert_same_record(rec, ref):
    _assert_same_state(rec.initial, ref.initial)
    assert rec.n_collisions == ref.n_collisions
    for ev, ref_ev in zip(rec.events, ref.events):
        assert (ev.t, ev.wall) == (ref_ev.t, ref_ev.wall)
        assert np.array_equal(ev.q_at, ref_ev.q_at)
        assert np.array_equal(ev.v_before, ref_ev.v_before)
        assert np.array_equal(ev.v_after, ref_ev.v_after)
    assert rec.terminal is ref.terminal
    assert np.array_equal(rec.velocities, ref.velocities)
    _assert_same_state(rec.final_state, ref.final_state)


def _assert_run_matches_reference(cone, q, v, max_steps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for t0 in (0.0, 2.75):
            for i in range(len(q)):
                state = BilliardState(q=q[i], v=v[i], t=t0)
                _assert_same_record(
                    run(state, cone, max_steps=max_steps),
                    run_reference(state, cone, max_steps=max_steps),
                )


class TestRunAgainstReference:
    """`run` steps through the row kernel it shares with `run_batch`; every
    event and final state equals the scalar stepper it replaced."""

    @pytest.mark.parametrize("max_steps", [3, None])
    def test_random_cones(self, max_steps):
        for n in range(1, 8):
            for c in range(3):
                cone = random_cone(n, n, 20241, stream=n * 1000 + c)
                center = inscribed_ball(cone).e
                q, v = interior_starts(make_rng(906, n * 10 + c), cone, center, 12)
                # Into the apex (a corner hit once n > 1) and straight out.
                u = center / np.linalg.norm(center)
                q = np.vstack([q, 2.0 * center, center])
                v = np.vstack([v, -u, u])
                # 5e-10 outside wall 0 (inside the start tolerance) and into
                # it: the negative hit time is clipped to 0.
                a0 = cone.normals[0]
                q = np.vstack([q, center - (center @ a0 + 5e-10) * a0])
                v = np.vstack([v, -a0])
                if n > 1:
                    # Along wall 0, approaching it at 5e-13 < APPROACH_TOL:
                    # grazing, so the start escapes.
                    w = u - (u @ a0) * a0
                    w = w / np.linalg.norm(w) - 5e-13 * a0
                    q = np.vstack([q, center])
                    v = np.vstack([v, w / np.linalg.norm(w)])
                _assert_run_matches_reference(cone, q, v, max_steps)

    @pytest.mark.parametrize("max_steps", [3, None])
    def test_wedges(self, max_steps):
        for theta in (math.pi / 12, math.pi / 3, 2.0):
            cone = wedge_from_angle(theta).cone
            center = inscribed_ball(cone).e
            q, v = interior_starts(make_rng(907, 0), cone, center, 20)
            _assert_run_matches_reference(cone, q, v, max_steps)

    @pytest.mark.parametrize("max_steps", [3, None])
    def test_hardball_cone_with_fewer_walls(self, max_steps):
        rng = make_rng(908, 0)
        for balls in (3, 4, 6):
            cone, cmap = balls_to_cone(10.0 ** rng.uniform(-1.0, 1.0, balls))
            assert cone.n_walls < cone.dim
            starts = []
            for _ in range(10):
                x = np.sort(rng.uniform(-5.0, 5.0, balls))
                q, u, _ = cmap.to_cone(x, rng.standard_normal(balls))
                starts.append((q, u))
            q, v = (np.array(s) for s in zip(*starts))
            _assert_run_matches_reference(cone, q, v, max_steps)
