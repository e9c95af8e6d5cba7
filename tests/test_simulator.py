import json
import math
import warnings

import numpy as np
import pytest

from conebilliards.constants import bounds_report, inscribed_ball
from conebilliards.errors import ConeMismatch, InvalidState
from conebilliards.geometry import make_cone
from conebilliards.harness import interior_starts, make_rng, random_cone
from conebilliards.simulator import (
    BilliardState,
    CollisionEvent,
    Terminal,
    audit,
    check_bounds,
    record_from_json,
    record_to_json,
    run,
    run_batch,
    zigzag_length,
)

from conftest import cone_suite


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestFirstStep:
    def test_axis_aligned_reflection(self, orthant2):
        rec = run(BilliardState(q=np.array([1.0, 1.0]), v=np.array([-1.0, 0.0])), orthant2)
        assert rec.n_collisions == 1 and rec.terminal is Terminal.ESCAPED
        out = rec.events[0]
        assert isinstance(out, CollisionEvent)
        assert out.wall == 0
        assert out.t == pytest.approx(1.0)
        np.testing.assert_allclose(out.v_after, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.q_at, [0.0, 1.0], atol=1e-15)

    def test_escape(self, orthant2):
        rec = run(BilliardState(q=np.array([1.0, 1.0]), v=np.array([0.0, 1.0]), t=0.5), orthant2)
        assert rec.n_collisions == 0 and rec.terminal is Terminal.ESCAPED
        np.testing.assert_array_equal(rec.final_state.q, [1.0, 1.0])
        np.testing.assert_array_equal(rec.final_state.v, [0.0, 1.0])
        assert rec.final_state.t == 0.5

    def test_corner(self, orthant2):
        rec = run(BilliardState(q=np.array([1.0, 1.0]), v=unit([-1.0, -1.0])), orthant2)
        assert rec.n_collisions == 0 and rec.terminal is Terminal.CORNER_HIT
        assert rec.final_state.t == pytest.approx(math.sqrt(2.0))
        np.testing.assert_allclose(rec.final_state.q, [0.0, 0.0], atol=1e-12)

    def test_rejects_outside_position(self, orthant2):
        with pytest.raises(InvalidState):
            run(BilliardState(q=np.array([-1.0, 1.0]), v=np.array([0.0, 1.0])), orthant2)
        with pytest.raises(InvalidState):
            run_batch(np.array([[1.0, 1.0], [-1.0, 1.0]]), np.array([[0.0, 1.0]] * 2), orthant2)


class TestEntryCheck:
    """`run` and `run_batch` check their start states the same way."""

    @pytest.mark.parametrize(
        "q, v",
        [
            ((math.nan, 1.0), (0.0, 1.0)),
            ((1.0, 1.0), (math.nan, 0.0)),
            ((math.inf, 1.0), (-1.0, 0.0)),
            ((1.0, 1.0), (-math.inf, 0.0)),
        ],
    )
    def test_non_finite_state_rejected(self, orthant2, q, v):
        with pytest.raises(InvalidState, match="finite"):
            run(BilliardState(q=np.array(q), v=np.array(v)), orthant2)
        with pytest.raises(InvalidState, match="finite"):
            run_batch(np.array([q]), np.array([v]), orthant2)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_time_rejected(self, orthant2, t0):
        state = BilliardState(q=np.array([1.0, 1.0]), v=np.array([-1.0, 0.0]), t=t0)
        with pytest.raises(InvalidState, match="finite"):
            run(state, orthant2)

    @pytest.mark.parametrize("max_steps", [0, -3, 2.5, True])
    def test_budget_below_one_rejected(self, orthant2, max_steps):
        q = np.array([1.0, 2.0])
        v = unit([-2.0, -1.0])
        with pytest.raises(InvalidState, match="max_steps"):
            run(BilliardState(q=q, v=v), orthant2, max_steps=max_steps)
        with pytest.raises(InvalidState, match="max_steps"):
            run_batch(q[None], v[None], orthant2, max_steps=max_steps)

    def test_shapes_rejected(self, orthant2):
        with pytest.raises(InvalidState):
            run(BilliardState(q=np.ones(3), v=unit([-1.0, 0.0, 0.0])), orthant2)
        with pytest.raises(InvalidState):
            run_batch(np.ones(2), unit([-1.0, 0.0]), orthant2)  # one state, not a batch
        with pytest.raises(InvalidState):
            run_batch(np.ones((2, 2)), np.array([[-1.0, 0.0]]), orthant2)
        with pytest.raises(InvalidState):
            run_batch(np.empty((0, 2)), np.empty((0, 2)), orthant2)


class TestRun:
    def test_hand_integrable_two_collisions(self, orthant2):
        # Unfolded coordinates 1 - 2t/sqrt5 and 2 - t/sqrt5 each cross zero
        # exactly once for t > 0 (at t = sqrt5/2 and t = 2 sqrt5), so the
        # folded trajectory reflects twice, x-wall first.
        rec = run(BilliardState(q=np.array([1.0, 2.0]), v=unit([-2.0, -1.0])), orthant2)
        assert rec.n_collisions == 2
        assert rec.terminal is Terminal.ESCAPED
        assert rec.wall_sequence() == [0, 1]
        assert rec.events[0].t == pytest.approx(math.sqrt(5) / 2, abs=1e-12)
        assert rec.events[1].t == pytest.approx(2 * math.sqrt(5), abs=1e-12)

    def test_wedge_never_exceeds_sharp_bound(self):
        from conebilliards.wedge import wedge_from_angle

        cone = wedge_from_angle(math.pi / 3).cone
        center = inscribed_ball(cone).e
        rng = make_rng(21, 0)
        q, v = interior_starts(rng, cone, center, 500)
        counts, _, _ = run_batch(q, v, cone)
        assert counts.max() <= 3

    def test_escape_along_center(self):
        for cone in cone_suite((2, 3, 4), 2, seed=51):
            ball = inscribed_ball(cone)
            rec = run(BilliardState(q=ball.e.copy(), v=ball.e.copy()), cone)
            assert rec.n_collisions == 0
            assert rec.terminal is Terminal.ESCAPED

    def test_velocities_chain_matches_events(self, orthant2):
        rec = run(BilliardState(q=np.array([1.0, 2.0]), v=unit([-2.0, -1.0])), orthant2)
        assert rec.velocities.shape == (rec.n_collisions + 1, 2)
        for k, ev in enumerate(rec.events):
            np.testing.assert_array_equal(rec.velocities[k], ev.v_before)
            np.testing.assert_array_equal(rec.velocities[k + 1], ev.v_after)
        times = [ev.t for ev in rec.events]
        assert times == sorted(times)

    def test_non_unit_velocity_rejected(self, orthant2):
        with pytest.raises(InvalidState):
            run(BilliardState(q=np.array([1.0, 1.0]), v=np.array([-2.0, 0.0])), orthant2)

    def test_step_limit_warns(self, orthant2):
        with pytest.warns(RuntimeWarning):
            rec = run(BilliardState(q=np.array([1.0, 2.0]), v=unit([-2.0, -1.0])), orthant2, max_steps=1)
        assert rec.terminal is Terminal.STEP_LIMIT
        assert rec.n_collisions == 1


class TestZigzag:
    def test_zero_collisions(self, orthant2):
        rec = run(BilliardState(q=np.array([1.0, 1.0]), v=np.array([0.0, 1.0])), orthant2)
        assert zigzag_length(rec) == 0.0

    def test_head_on_reflection(self, orthant2):
        rec = run(BilliardState(q=np.array([1.0, 0.5]), v=np.array([-1.0, 0.0])), orthant2)
        assert rec.n_collisions == 1
        assert zigzag_length(rec) == pytest.approx(2.0, abs=1e-12)
        assert zigzag_length(rec) <= 2.0 / inscribed_ball(orthant2).d

    def test_wedge_three_collision_ceiling(self):
        from conebilliards.harness import adversarial_search
        from conebilliards.wedge import wedge_from_angle

        cone = wedge_from_angle(math.pi / 3).cone
        result = adversarial_search(cone, budget=500, seed=3)
        rec = result.best_record
        assert rec.n_collisions == 3
        assert zigzag_length(rec) <= 2.0 / math.sin(math.pi / 6) + 1e-9


class TestAudit:
    def test_all_pass_on_orthant(self, orthant2):
        rep = bounds_report(orthant2)
        rng = make_rng(22, 0)
        q, v = interior_starts(rng, orthant2, inscribed_ball(orthant2).e, 50)
        for i in range(50):
            rec = run(BilliardState(q=q[i], v=v[i]), orthant2)
            verdict = audit(rec, rep)
            assert verdict.all_passed
            assert rec.n_collisions <= 2

    def test_zero_collision_trivially_passes(self, orthant2):
        rep = bounds_report(orthant2)
        ball = inscribed_ball(orthant2)
        rec = run(BilliardState(q=ball.e.copy(), v=ball.e.copy()), orthant2)
        verdict = audit(rec, rep)
        assert verdict.all_passed and verdict.n_collisions == 0

    def test_cone_mismatch(self, orthant2, orthant3):
        rep = bounds_report(orthant3)
        rec = run(BilliardState(q=np.array([1.0, 1.0]), v=np.array([0.0, 1.0])), orthant2)
        with pytest.raises(ConeMismatch):
            audit(rec, rep)

    def test_fewer_walls_than_dimensions(self):
        # bounds_report works on the span reduction; the record lives in R^3.
        cone = make_cone(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rep = bounds_report(cone)
        assert rep.cone.dim == 2
        rec = run(BilliardState(q=np.array([1.0, 2.0, 3.0]), v=unit([-2.0, -1.0, 0.5])), cone)
        verdict = audit(rec, rep)
        assert verdict.n_collisions == 2 and verdict.all_passed
        other = make_cone(3, [[1.0, 0.0, 0.0], unit([1.0, 1.0, 0.0])])
        with pytest.raises(ConeMismatch):
            audit(run(BilliardState(q=np.array([1.0, 2.0, 3.0]), v=unit([0.0, 1.0, 0.0])), other), rep)

    def test_check_bounds_on_maxima(self, orthant2):
        rep = bounds_report(orthant2)
        rec = run(BilliardState(q=np.array([1.0, 2.0]), v=unit([-2.0, -1.0])), orthant2)
        assert check_bounds(rec.n_collisions, zigzag_length(rec), rep) == audit(rec, rep)
        ceiling = 2.0 / rep.d
        assert check_bounds(2, ceiling + 5e-10, rep).all_passed  # 1e-9 slack
        failed = check_bounds(3, ceiling + 2e-9, rep)
        assert [c.name for c in failed.checks if not c.passed] == ["bound_wedge", "lemma_zigzag"]

    def test_check_names_cover_bounds(self, orthant2):
        rep = bounds_report(orthant2)
        rec = run(BilliardState(q=np.array([1.0, 2.0]), v=unit([-2.0, -1.0])), orthant2)
        names = {c.name for c in audit(rec, rep).checks}
        assert {"bound_main", "bound_dd", "bound_sevryuk", "bound_bfk",
                "bound_wedge", "bound_tridiagonal", "lemma_zigzag"} == names


class TestSerialization:
    def test_round_trip_bit_exact(self, orthant2):
        rec = run(BilliardState(q=np.array([1.0, 2.0]), v=unit([-2.0, -1.0])), orthant2)
        text = record_to_json(rec, audit(rec, bounds_report(orthant2)))
        back = record_from_json(text, orthant2)
        assert back.n_collisions == rec.n_collisions
        assert back.terminal == rec.terminal
        np.testing.assert_array_equal(back.initial.q, rec.initial.q)
        np.testing.assert_array_equal(back.initial.v, rec.initial.v)
        for a, b in zip(back.events, rec.events):
            assert a.t == b.t and a.wall == b.wall
            np.testing.assert_array_equal(a.q_at, b.q_at)
            np.testing.assert_array_equal(a.v_before, b.v_before)
            np.testing.assert_array_equal(a.v_after, b.v_after)
        doc = json.loads(text)
        assert doc["terminal"] == "Escaped"
        assert "audit" in doc


class TestRunBatch:
    def test_matches_scalar_run(self):
        rng = make_rng(23, 0)
        for trial in range(30):
            n = int(rng.integers(1, 6))
            cone = random_cone(n, n, seed=500, stream=trial)
            ball = inscribed_ball(cone)
            q, v = interior_starts(rng, cone, ball.e, 8)
            counts, zz, terms = run_batch(q, v, cone)
            for i in range(8):
                rec = run(BilliardState(q=q[i], v=v[i]), cone)
                assert rec.n_collisions == counts[i]
                assert zigzag_length(rec) == zz[i]
                assert rec.terminal == terms[i]

    def test_step_limit_warns_once(self, orthant2):
        q = np.array([[1.0, 2.0]] * 3)
        v = np.array([unit([-2.0, -1.0]), unit([-2.0, -1.0]), [0.0, 1.0]])
        with pytest.warns(RuntimeWarning, match="2 of 3 trajectories exceeded 1 steps") as caught:
            counts, _, terms = run_batch(q, v, orthant2, max_steps=1)
        assert len(caught) == 1
        assert list(counts) == [1, 1, 0]
        assert list(terms) == [Terminal.STEP_LIMIT, Terminal.STEP_LIMIT, Terminal.ESCAPED]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_batch(q, v, orthant2)

    def test_default_cap_with_infinite_bound(self):
        # 171! (4 / 1)^170 is past the float range, so main_bound is inf.
        cone = make_cone(171, np.eye(171))
        q = np.ones(171)
        v = np.zeros(171)
        v[0] = -1.0
        rec = run(BilliardState(q=q, v=v), cone)
        counts, _, terms = run_batch(q[None], v[None], cone)
        assert rec.n_collisions == counts[0] == 1
        assert rec.terminal == terms[0] == Terminal.ESCAPED
