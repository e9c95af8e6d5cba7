import math

import numpy as np
import pytest

from conebilliards.errors import ConeBilliardsError, ConeMismatch, TooFewEvents, WrongWallCount
from conebilliards.geometry import make_cone
from conebilliards.harness import adversarial_search, interior_starts, make_rng
from conebilliards.constants import inscribed_ball
from conebilliards.simulator import BilliardState, Terminal, run
from conebilliards.wedge import (
    collinearity_residual,
    sharp_bound,
    unfold,
    velocity_arc_check,
    wedge_angle,
    wedge_from_angle,
    wedge_from_cone,
)


class TestWedgeAngle:
    def test_orthonormal(self):
        assert wedge_angle(make_cone(2, np.eye(2))) == pytest.approx(math.pi / 2)

    def test_acute_product(self):
        cone = wedge_from_angle(math.pi / 3).cone
        assert cone.normals[0] @ cone.normals[1] == pytest.approx(-0.5, abs=1e-15)
        assert wedge_angle(cone) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_obtuse_product(self):
        cone = wedge_from_angle(2 * math.pi / 3).cone
        assert cone.normals[0] @ cone.normals[1] == pytest.approx(0.5, abs=1e-15)
        assert wedge_angle(cone) == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_wall_count(self, orthant3):
        with pytest.raises(WrongWallCount):
            wedge_angle(orthant3)

    def test_spec_consistency(self):
        w = wedge_from_angle(1.234)
        assert abs(w.theta - wedge_angle(w.cone)) < 1e-12

    def test_wedge_from_cone(self):
        cone = make_cone(2, [[0.0, 1.0], [math.sin(1.234), -math.cos(1.234)]])
        w = wedge_from_cone(cone)
        assert w.cone is cone
        assert w.theta == wedge_angle(cone)
        assert abs(w.theta - 1.234) < 1e-12
        with pytest.raises(WrongWallCount):
            wedge_from_cone(make_cone(3, np.eye(3)))


class TestSharpBound:
    @pytest.mark.parametrize(
        "theta,expected",
        [(math.pi / 2, 2), (math.pi / 3, 3), (2 * math.pi / 5, 3), (math.pi / 5, 5)],
    )
    def test_values(self, theta, expected):
        assert sharp_bound(theta) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sharp_bound(0.0)
        with pytest.raises(ValueError):
            sharp_bound(math.pi)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.pi, 4.0, math.nan])
    def test_out_of_range_is_a_package_error(self, theta):
        with pytest.raises(ConeBilliardsError):
            sharp_bound(theta)
        with pytest.raises(ConeBilliardsError):
            wedge_from_angle(theta)


class TestUnfold:
    def test_zero_collision_record(self):
        w = wedge_from_angle(math.pi / 2)
        ball = inscribed_ball(w.cone)
        rec = run(BilliardState(q=ball.e.copy(), v=ball.e.copy()), w.cone)
        pts = unfold(rec, w)
        assert pts.shape == (2, 2)
        assert collinearity_residual(pts) < 1e-12

    def test_one_collision_right_angle(self):
        w = wedge_from_angle(math.pi / 2)
        rec = run(
            BilliardState(q=np.array([1.0, 1.0]), v=np.array([0.0, -1.0])), w.cone
        )
        assert rec.n_collisions == 1
        pts = unfold(rec, w)
        assert pts.shape == (3, 2)
        assert collinearity_residual(pts) < 1e-10

    def test_three_collision_third(self):
        w = wedge_from_angle(math.pi / 3)
        result = adversarial_search(w.cone, budget=500, seed=5)
        rec = result.best_record
        assert rec.n_collisions == 3
        pts = unfold(rec, w)
        assert pts.shape == (5, 2)
        assert collinearity_residual(pts) < 1e-8

    def test_corner_record(self):
        # Aimed at the apex: no reflection, and the record ends at the corner.
        w = wedge_from_angle(math.pi / 2)
        v = -np.ones(2) / math.sqrt(2.0)
        rec = run(BilliardState(q=np.ones(2), v=v), w.cone)
        assert rec.terminal is Terminal.CORNER_HIT and rec.n_collisions == 0
        pts = unfold(rec, w)
        assert pts.shape == (2, 2)
        np.testing.assert_allclose(pts[1], rec.final_state.q + v, atol=1e-15)
        assert collinearity_residual(pts) < 1e-12

    def test_step_limit_record(self):
        # Stopped after two of its three reflections: the last point is one
        # time unit along the last segment.
        w = wedge_from_angle(math.pi / 3)
        start = adversarial_search(w.cone, budget=500, seed=5).best_state
        with pytest.warns(RuntimeWarning, match="exceeded 2 steps"):
            rec = run(start, w.cone, max_steps=2)
        assert rec.terminal is Terminal.STEP_LIMIT and rec.n_collisions == 2
        pts = unfold(rec, w)
        assert pts.shape == (4, 2)
        assert collinearity_residual(pts) < 1e-8
        full = unfold(run(start, w.cone), w)
        np.testing.assert_allclose(pts[:3], full[:3], atol=1e-12)

    def test_cone_mismatch(self):
        w1 = wedge_from_angle(math.pi / 2)
        w2 = wedge_from_angle(math.pi / 3)
        ball = inscribed_ball(w1.cone)
        rec = run(BilliardState(q=ball.e.copy(), v=ball.e.copy()), w1.cone)
        with pytest.raises(ConeMismatch):
            unfold(rec, w2)

    def test_random_records_stay_collinear(self):
        rng = make_rng(61, 0)
        for k in range(20):
            theta = 0.2 + 2.6 * rng.random()
            w = wedge_from_angle(theta)
            ball = inscribed_ball(w.cone)
            q, v = interior_starts(rng, w.cone, ball.e, 5)
            for i in range(5):
                rec = run(BilliardState(q=q[i], v=v[i]), w.cone)
                if rec.terminal is Terminal.CORNER_HIT:
                    continue
                assert collinearity_residual(unfold(rec, w)) < 1e-8


class TestVelocityArc:
    def _generic_record(self, theta, n_wanted, seed=0):
        # aim across the wedge so reflections are well separated from grazing
        w = wedge_from_angle(theta)
        rng = make_rng(seed, 0)
        ball = inscribed_ball(w.cone)
        for _ in range(3000):
            q, v = interior_starts(rng, w.cone, ball.e, 1)
            rec = run(BilliardState(q=q[0], v=v[0]), w.cone)
            if rec.n_collisions == n_wanted:
                return w, rec
        raise AssertionError("no record with the requested collision count")

    def test_right_angle_two_collisions(self):
        w, rec = self._generic_record(math.pi / 2, 2)
        report = velocity_arc_check(rec, w)
        assert report.angles.shape == (1,)
        assert report.max_angle_error < 1e-9
        assert report.turning_ok and report.passed

    def test_third_three_collisions(self):
        w, rec = self._generic_record(math.pi / 3, 3)
        report = velocity_arc_check(rec, w)
        assert report.angles.shape == (2,)
        assert report.max_angle_error < 1e-9
        assert report.total_turning == pytest.approx(4 * math.pi / 3, abs=1e-12)
        assert report.total_turning < 2 * math.pi

    def test_too_few_events(self):
        w = wedge_from_angle(math.pi / 2)
        rec = run(
            BilliardState(q=np.array([1.0, 1.0]), v=np.array([0.0, -1.0])), w.cone
        )
        with pytest.raises(TooFewEvents):
            velocity_arc_check(rec, w)

    def test_rejects_non_alternating_record(self):
        # simulated wedge trajectories always alternate; build a synthetic
        # record with a repeated wall to hit the guard
        from conebilliards.errors import AlternationError
        from conebilliards.simulator import CollisionEvent, TrajectoryRecord

        w = wedge_from_angle(math.pi / 2)
        v = np.array([0.0, -1.0])
        ev = CollisionEvent(
            t=1.0, wall=0, q_at=np.array([1.0, 0.0]), v_before=v, v_after=-v
        )
        ev2 = CollisionEvent(
            t=2.0, wall=0, q_at=np.array([1.0, 1.0]), v_before=-v, v_after=v
        )
        rec = TrajectoryRecord(
            initial=BilliardState(q=np.array([1.0, 1.0]), v=v),
            events=(ev, ev2),
            terminal=Terminal.ESCAPED,
            final_state=BilliardState(q=np.array([1.0, 1.0]), v=v, t=2.0),
            cone=w.cone,
        )
        with pytest.raises(AlternationError):
            velocity_arc_check(rec, w)


class TestSharpness:
    @pytest.mark.parametrize(
        "theta,expected",
        [(math.pi / 2, 2), (math.pi / 3, 3), (2 * math.pi / 5, 3), (math.pi / 5, 5)],
    )
    def test_search_attains_and_never_exceeds(self, theta, expected):
        w = wedge_from_angle(theta)
        result = adversarial_search(w.cone, budget=3000, seed=17)
        assert result.best_n == expected == sharp_bound(theta)

    def test_integer_bound_holds_on_ensembles(self):
        rng = make_rng(62, 0)
        for k in range(10):
            theta = 0.3 + 2.4 * rng.random()
            w = wedge_from_angle(theta)
            bound = sharp_bound(theta)
            ball = inscribed_ball(w.cone)
            q, v = interior_starts(rng, w.cone, ball.e, 100)
            for i in range(100):
                rec = run(BilliardState(q=q[i], v=v[i]), w.cone)
                assert rec.n_collisions <= bound


class TestCornerRule:
    def test_survivors_never_hit_corner_later(self):
        # a wedge trajectory that survives its first collision cannot reach
        # the corner afterwards
        rng = make_rng(63, 0)
        for k in range(20):
            theta = 0.3 + 2.4 * rng.random()
            w = wedge_from_angle(theta)
            ball = inscribed_ball(w.cone)
            q, v = interior_starts(rng, w.cone, ball.e, 50)
            for i in range(50):
                rec = run(BilliardState(q=q[i], v=v[i]), w.cone)
                if rec.n_collisions >= 1:
                    assert rec.terminal is not Terminal.CORNER_HIT
