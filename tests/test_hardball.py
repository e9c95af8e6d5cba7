import math

import numpy as np
import pytest

from conebilliards.constants import tridiagonal_case
from conebilliards.errors import InvalidState, NonpositiveMass, TooFewBalls
from conebilliards.geometry import gram
from conebilliards.hardball import (
    HardBallSystem,
    balls_to_cone,
    conjugacy_check,
    simulate_balls,
)
from conebilliards.harness import make_rng
from conebilliards.simulator import Terminal


def system(masses, positions, velocities):
    return HardBallSystem(
        masses=np.array(masses, dtype=float),
        positions=np.array(positions, dtype=float),
        velocities=np.array(velocities, dtype=float),
    )


def random_system(rng, n_balls):
    masses = 10.0 ** rng.uniform(-1.0, 1.0, n_balls)
    positions = np.cumsum(0.2 + rng.random(n_balls))
    velocities = rng.standard_normal(n_balls)
    return system(masses, positions, velocities)


class TestBallsToCone:
    def test_two_equal_masses(self):
        cone, cmap = balls_to_cone([1.0, 1.0])
        assert cone.n_walls == 1 and cone.dim == 2
        np.testing.assert_allclose(cone.normals[0], [-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_three_equal_masses(self):
        cone, _ = balls_to_cone([1.0, 1.0, 1.0])
        g = gram(cone).entries
        np.testing.assert_allclose(g, [[1, -0.5], [-0.5, 1]], atol=1e-14)

    def test_middle_heavy(self):
        cone, _ = balls_to_cone([1.0, 2.0, 1.0])
        g = gram(cone).entries
        expected = -1.0 / math.sqrt((1 + 2 / 1) * (1 + 2 / 1))
        assert g[0, 1] == pytest.approx(expected, abs=1e-14)
        assert g[0, 1] == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_neighbor_product_formula(self):
        rng = make_rng(71, 0)
        for _ in range(20):
            m = 10.0 ** rng.uniform(-1, 1, 4)
            cone, _ = balls_to_cone(m)
            g = gram(cone).entries
            for i in range(2):
                expected = -1.0 / math.sqrt(
                    (1 + m[i + 1] / m[i]) * (1 + m[i + 1] / m[i + 2])
                )
                assert g[i, i + 1] == pytest.approx(expected, abs=1e-12)
            assert abs(g[0, 2]) < 1e-15  # tridiagonal

    def test_validation(self):
        with pytest.raises(TooFewBalls):
            balls_to_cone([1.0])
        with pytest.raises(NonpositiveMass):
            balls_to_cone([1.0, -1.0])

    def test_coordinate_map_round_trip(self):
        _, cmap = balls_to_cone([1.0, 4.0, 9.0])
        x = np.array([0.0, 1.0, 3.0])
        v = np.array([1.0, -0.5, 0.25])
        q, u, speed = cmap.to_cone(x, v)
        np.testing.assert_allclose(q, np.sqrt([1, 4, 9]) * x)
        x2, v2 = cmap.from_cone(q, u, speed)
        np.testing.assert_allclose(x2, x, atol=1e-14)
        np.testing.assert_allclose(v2, v, atol=1e-14)


class TestSimulateBalls:
    def test_equal_mass_swap(self):
        traj = simulate_balls(system([1, 1], [0, 1], [1, 0]))
        assert traj.n_collisions == 1
        assert traj.terminal is Terminal.ESCAPED
        ev = traj.events[0]
        assert ev.pair == (0, 1)
        assert ev.velocities_after == pytest.approx((0.0, 1.0))

    def test_three_equal_masses_three_collisions(self):
        # (0, 1, 3) spacing keeps the meetings separated: swaps at t = 1,
        # 1.5, 2 and then the velocities are sorted
        traj = simulate_balls(system([1, 1, 1], [0, 1, 3], [1, 0, -1]))
        assert traj.n_collisions == 3
        assert traj.pair_sequence() == [0, 1, 0]
        times = [ev.t for ev in traj.events]
        assert times == pytest.approx([1.0, 1.5, 2.0])
        np.testing.assert_allclose(traj.final_velocities, [-1, 0, 1])

    def test_triple_simultaneous_contact_is_corner(self):
        # equal spacing makes all three balls meet at one point at t = 1
        traj = simulate_balls(system([1, 1, 1], [0, 1, 2], [1, 0, -1]))
        assert traj.terminal is Terminal.CORNER_HIT
        assert traj.n_collisions == 0
        np.testing.assert_allclose(traj.final_positions, [1, 1, 1])

    def test_heavy_wall_near_reversal(self):
        traj = simulate_balls(system([1, 1e6], [0, 1], [1, -1]))
        assert traj.n_collisions == 1
        v_light, v_heavy = traj.events[0].velocities_after
        # closed-form two-body update
        expected_light = ((1 - 1e6) * 1 + 2e6 * (-1)) / (1 + 1e6)
        assert v_light == pytest.approx(expected_light, rel=1e-12)
        assert v_heavy == pytest.approx(-1.0, abs=1e-5)

    def test_conservation_laws(self):
        rng = make_rng(72, 0)
        for _ in range(50):
            sys_ = random_system(rng, int(rng.integers(2, 6)))
            p0 = float(np.sum(sys_.masses * sys_.velocities))
            e0 = float(np.sum(sys_.masses * sys_.velocities ** 2) / 2)
            traj = simulate_balls(sys_)
            v = np.array(sys_.velocities)
            for ev in traj.events:
                i, j = ev.pair
                v[i], v[j] = ev.velocities_after
                assert np.sum(sys_.masses * v) == pytest.approx(p0, abs=1e-10)
                assert np.sum(sys_.masses * v ** 2) / 2 == pytest.approx(e0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(InvalidState):
            system([1, 1], [1, 0], [0, 0])  # not increasing
        with pytest.raises(InvalidState):
            HardBallSystem(
                masses=np.array([1.0, 1.0]),
                positions=np.array([0.0, 1.0]),
                velocities=np.array([0.0]),
            )

    @pytest.mark.parametrize(
        "positions, velocities",
        [
            ([0, math.nan], [1, -1]),
            ([0, math.inf], [1, -1]),
            ([-math.inf, 0], [1, -1]),
            ([0, 1], [math.inf, -1]),
            ([0, 1], [1, math.nan]),
            ([0, 1], [1, -math.inf]),
        ],
    )
    def test_rejects_non_finite_state(self, positions, velocities):
        with pytest.raises(InvalidState, match="finite"):
            system([1, 1], positions, velocities)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_rejects_non_finite_mass(self, mass):
        with pytest.raises(NonpositiveMass, match="finite and positive"):
            system([1, mass], [0, 1], [1, -1])
        with pytest.raises(NonpositiveMass, match="finite and positive"):
            balls_to_cone([1.0, mass])

    @pytest.mark.parametrize("max_events", [0, -2, 2.5, True])
    def test_rejects_event_budget_below_one(self, max_events):
        # as run and run_batch reject max_steps < 1
        with pytest.raises(InvalidState):
            simulate_balls(system([1, 1], [0, 1], [1, -1]), max_events=max_events)


class TestConjugacy:
    def test_equal_masses(self):
        rng = make_rng(73, 0)
        for _ in range(20):
            sys_ = random_system(rng, 3)
            sys_ = system([1, 1, 1], sys_.positions, sys_.velocities)
            report = conjugacy_check(sys_)
            assert report.matched
            assert report.n_ball_events <= 3

    def test_unequal_masses(self):
        rng = make_rng(74, 0)
        for _ in range(20):
            sys_ = random_system(rng, 3)
            sys_ = system([1, 3, 1], sys_.positions, sys_.velocities)
            report = conjugacy_check(sys_)
            assert report.matched
            assert report.max_time_error <= 1e-8

    def test_two_balls(self):
        rng = make_rng(75, 0)
        for _ in range(10):
            sys_ = random_system(rng, 2)
            report = conjugacy_check(sys_)
            assert report.matched
            assert report.n_ball_events in (0, 1)

    def test_balls_at_rest(self):
        # No pair approaches, so both sides escape with no event.
        report = conjugacy_check(system([1, 2, 3], [0, 1, 3], [0, 0, 0]))
        assert vars(report) == {
            "matched": True,
            "n_ball_events": 0,
            "n_cone_events": 0,
            "pair_sequence": [],
            "wall_sequence": [],
            "max_time_error": 0.0,
            "terminal_balls": Terminal.ESCAPED,
            "terminal_cone": Terminal.ESCAPED,
        }

    def test_speed_is_preserved_in_image(self):
        rng = make_rng(76, 0)
        sys_ = random_system(rng, 4)
        cone, cmap = balls_to_cone(sys_.masses)
        _, _, speed = cmap.to_cone(sys_.positions, sys_.velocities)
        traj = simulate_balls(sys_)
        _, _, speed_after = cmap.to_cone(traj.final_positions, traj.final_velocities)
        assert speed_after == pytest.approx(speed, rel=1e-12)


class TestEqualMassBound:
    def test_gram_is_tridiagonal_with_minus_half(self):
        for n_balls in (3, 4, 5, 6):
            cone, _ = balls_to_cone(np.ones(n_balls))
            g = gram(cone).entries
            applicable, bound = tridiagonal_case(g)
            assert applicable
            assert bound == (n_balls - 1) * n_balls // 2
            for i in range(n_balls - 2):
                assert g[i, i + 1] == pytest.approx(-0.5, abs=1e-14)

    def test_collision_cap_on_random_runs(self):
        rng = make_rng(77, 0)
        for _ in range(50):
            n_balls = int(rng.integers(3, 7))
            sys_ = random_system(rng, n_balls)
            sys_ = system(np.ones(n_balls), sys_.positions, sys_.velocities)
            traj = simulate_balls(sys_)
            assert traj.n_collisions <= (n_balls - 1) * n_balls // 2
