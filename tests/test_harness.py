import math
import warnings

import numpy as np
import pytest

from conebilliards import geometry, harness
from conebilliards.constants import bounds_report, inscribed_ball
from conebilliards.errors import ConeBilliardsError, DimensionMismatch, InvalidParameter
from conebilliards.geometry import gram, make_cone
from conebilliards.harness import (
    EnsembleRow,
    ExperimentConfig,
    adversarial_search,
    ensemble_run,
    gaussians,
    interior_start,
    interior_starts,
    make_rng,
    random_cone,
    rows_to_csv,
    sphere_sample,
)
from conebilliards.simulator import BilliardState, audit, run


class TestRandomCone:
    def test_determinism(self):
        a = random_cone(2, 2, 42)
        b = random_cone(2, 2, 42)
        assert np.array_equal(a.normals, b.normals)
        c = random_cone(2, 2, 43)
        assert not np.array_equal(a.normals, c.normals)

    def test_streams_differ(self):
        a = random_cone(3, 3, 42, stream=0)
        b = random_cone(3, 3, 42, stream=1)
        assert not np.array_equal(a.normals, b.normals)

    def test_conditioning_floor(self):
        for s in range(50):
            cone = random_cone(3, 3, 7, stream=s)
            assert math.sqrt(cone.lambda_min) > 1e-3

    def test_wide_cone_reduces_with_same_gram(self):
        cone = random_cone(2, 5, 1)
        reduced = cone.span
        np.testing.assert_allclose(
            gram(reduced).entries, gram(cone).entries, atol=1e-12
        )

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            random_cone(3, 2, 0)

    @pytest.mark.parametrize("n, dim", [(-1, 3), (2.5, 3), (2, 3.0), (True, 3), ("2", 3)])
    def test_rejects_non_integer_or_negative_counts(self, n, dim):
        with pytest.raises(DimensionMismatch):
            random_cone(n, dim, 1)

    @pytest.mark.parametrize("seed, stream", [(1.5, 0), (1, 1.5), (True, 0), (1, "0")])
    def test_rejects_non_integer_seed_or_stream(self, seed, stream):
        with pytest.raises(InvalidParameter):
            make_rng(seed, stream)
        with pytest.raises(InvalidParameter):
            random_cone(3, 3, seed, stream)
        # numpy integers are integers
        make_rng(np.int64(1), np.uint8(0))

    def test_degenerate_sampling_surfaces(self, monkeypatch):
        import conebilliards.harness as harness
        from conebilliards.errors import DegenerateSampling

        def dependent(rng, count, dim):
            row = np.zeros(dim)
            row[0] = 1.0
            return np.tile(row, (count, 1))

        monkeypatch.setattr(harness, "sphere_sample", dependent)
        with pytest.raises(DegenerateSampling):
            harness.random_cone(2, 2, 0)


class TestSampling:
    def test_gaussians_deterministic(self):
        z1 = gaussians(make_rng(5, 1), 100)
        z2 = gaussians(make_rng(5, 1), 100)
        np.testing.assert_array_equal(z1, z2)

    def test_sphere_sample_unit_norm(self):
        pts = sphere_sample(make_rng(6, 0), 1000, 4)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    @staticmethod
    def _rejection_start(rng, cone, center):
        """Scalar reference: one ball point per try, then one velocity;
        also returns the number of tries."""
        for tries in range(1, 1001):
            direction = sphere_sample(rng, 1, cone.dim)[0]
            q = center + 0.1 * (rng.random() ** (1.0 / cone.dim) * direction)
            if (q @ cone.matrix).min() >= 0.0:
                break
        else:
            q = center.copy()
        return q, sphere_sample(rng, 1, cone.dim)[0], tries

    def test_single_start_matches_rejection_sampler(self):
        retries = 0
        for stream in range(60):
            n = 2 + stream % 4
            cone = random_cone(n, n, seed=8, stream=stream)
            center = inscribed_ball(cone).e
            rng_ref, rng_batch, rng_one = (make_rng(stream, 2) for _ in range(3))
            for _ in range(5):
                q_ref, v_ref, tries = self._rejection_start(rng_ref, cone, center)
                retries += tries - 1
                q, v = interior_starts(rng_batch, cone, center, 1)
                one = interior_start(rng_one, cone, center)
                # one ulp at the scale of |q|: 0.1 r u is multiplied in another order
                assert np.abs(q[0] - q_ref).max() <= np.spacing(np.abs(q_ref).max())
                np.testing.assert_array_equal(v[0], v_ref)
                np.testing.assert_array_equal(one.q, q[0])
                np.testing.assert_array_equal(one.v, v[0])
            # same number of draws: the three streams stay in step
            assert rng_ref.random() == rng_batch.random() == rng_one.random()
        assert retries > 0  # the rejection path was exercised

    @pytest.mark.parametrize("count", [-1, 2.5, True, "3"])
    def test_rejects_a_bad_count(self, count):
        cone = random_cone(3, 3, seed=8)
        with pytest.raises(InvalidParameter):
            interior_starts(make_rng(1, 2), cone, inscribed_ball(cone).e, count)

    def test_zero_count_gives_empty_starts(self):
        cone = random_cone(3, 3, seed=8)
        q, v = interior_starts(make_rng(1, 2), cone, inscribed_ball(cone).e, 0)
        assert q.shape == v.shape == (0, 3)


class TestEnsembleRun:
    def test_small_ensemble_passes(self, tmp_path):
        out = tmp_path / "rows.csv"
        config = ExperimentConfig(
            n_walls=2, dim=2, trials=5, seed=11, output_path=str(out), paths_per_cone=20
        )
        rows = ensemble_run(config)
        assert len(rows) == 5
        for row in rows:
            assert row.all_checks_pass
            assert row.max_observed_N <= row.bound_main
            assert row.zigzag_max_L <= row.lemma1_ceiling + 1e-9
        text = out.read_text()
        assert text.splitlines()[0] == ",".join(EnsembleRow.FIELDS)
        assert len(text.splitlines()) == 6

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            ensemble_run(
                ExperimentConfig(
                    n_walls=2, dim=3, trials=3, seed=99, output_path=str(out), paths_per_cone=10
                )
            )
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("n_walls, dim", [(3, 3), (2, 3)])
    def test_one_ball_solve_per_cone(self, monkeypatch, n_walls, dim):
        # bounds_report, C's outer approximation (cone 0 at 3 walls) and the
        # start sampler all read the cone's equal-margin ball; it is solved
        # once per cone, the reduced one when n < m.
        solved = []
        solve = geometry._solve_ball

        def counted(cone):
            solved.append(cone)
            return solve(cone)

        monkeypatch.setattr(geometry, "_solve_ball", counted)
        config = ExperimentConfig(n_walls=n_walls, dim=dim, trials=3, seed=20241, paths_per_cone=10)
        ensemble_run(config)
        assert len(solved) == 3
        assert len({id(cone) for cone in solved}) == 3
        assert all(cone.n_walls == cone.dim == n_walls for cone in solved)

    def test_trials_used_for_paths_when_unset(self, tmp_path):
        config = ExperimentConfig(n_walls=2, dim=2, trials=3, seed=1)
        rows = ensemble_run(config)
        assert len(rows) == 3

    def test_csv_17_digit_round_trip(self):
        config = ExperimentConfig(n_walls=2, dim=2, trials=2, seed=5, paths_per_cone=5)
        rows = ensemble_run(config)
        text = rows_to_csv(rows)
        header, *lines = text.strip().splitlines()
        cols = header.split(",")
        for row, line in zip(rows, lines):
            parsed = dict(zip(cols, line.split(",")))
            assert float(parsed["lambda_min"]) == row.lambda_min
            assert float(parsed["d"]) == row.d
            assert int(parsed["max_observed_N"]) == row.max_observed_N

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_walls=3, dim=2, trials=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_walls=2, dim=2, trials=0, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_walls=2, dim=2, trials=1, seed=0, paths_per_cone=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_walls": 3, "dim": 2, "trials": 1},
            {"n_walls": 2, "dim": 2, "trials": 0},
            {"n_walls": 2, "dim": 2, "trials": 1, "paths_per_cone": 0},
            {"n_walls": 2, "dim": 2, "trials": 1, "format": "xml"},
        ],
    )
    def test_config_errors_are_package_errors(self, kwargs):
        with pytest.raises(ConeBilliardsError):
            ExperimentConfig(seed=0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 2.5},
            {"trials": True},
            {"seed": 1.5},
            {"max_steps_override": 2.5},
            {"max_steps_override": 0},
            {"paths_per_cone": 2.5},
            {"n_walls": 1.5},
            {"n_walls": 0},
            {"n_walls": True},
            {"dim": "3"},
            {"dim": 2.0},
            {"n_walls": 2, "dim": 0},
        ],
    )
    def test_config_rejects_bad_counts(self, kwargs):
        config = {"n_walls": 2, "dim": 2, "trials": 1, "seed": 0, **kwargs}
        with pytest.raises(InvalidParameter):
            ExperimentConfig(**config)

    @staticmethod
    def _scalar_rows(config):
        """Reference: per-path run + audit on the same interior_starts draws."""
        rows = []
        for trial in range(config.trials):
            report = bounds_report(random_cone(config.n_walls, config.dim, config.seed, stream=trial))
            rcone = report.cone
            rng = make_rng(config.seed, stream=harness._IC_STREAM_BASE + trial)
            q, v = interior_starts(rng, rcone, inscribed_ball(rcone).e, config.paths_per_cone)
            verdicts = [
                audit(run(BilliardState(q=qi, v=vi), rcone, max_steps=config.max_steps_override), report)
                for qi, vi in zip(q, v)
            ]
            rows.append(
                (
                    max(x.n_collisions for x in verdicts),
                    max(x.zigzag for x in verdicts),
                    all(x.all_passed for x in verdicts),
                )
            )
        return rows

    @pytest.mark.parametrize("n_walls, dim", [(2, 2), (3, 3), (2, 3)])
    def test_batched_rows_match_scalar_reference(self, n_walls, dim):
        config = ExperimentConfig(n_walls=n_walls, dim=dim, trials=2, seed=31, paths_per_cone=60)
        rows = ensemble_run(config)
        got = [(r.max_observed_N, r.zigzag_max_L, r.all_checks_pass) for r in rows]
        assert got == self._scalar_rows(config)
        assert all(isinstance(r.max_observed_N, int) and type(r.zigzag_max_L) is float for r in rows)

    def test_step_limit_rows_match_scalar_reference(self):
        config = ExperimentConfig(
            n_walls=2, dim=2, trials=2, seed=31, paths_per_cone=60, max_steps_override=1
        )
        with pytest.warns(RuntimeWarning, match="trajectories exceeded 1 steps"):
            rows = ensemble_run(config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = self._scalar_rows(config)
        assert [(r.max_observed_N, r.zigzag_max_L, r.all_checks_pass) for r in rows] == expected
        assert all(r.max_observed_N == 1 for r in rows)


class TestAdversarialSearch:
    def test_wedge_third_attains_three(self):
        from conebilliards.wedge import wedge_from_angle

        cone = wedge_from_angle(math.pi / 3).cone
        result = adversarial_search(cone, budget=2000, seed=2)
        assert result.best_n == 3

    def test_orthant3_attains_three(self, orthant3):
        result = adversarial_search(orthant3, budget=800, seed=4)
        assert result.best_n == 3

    def test_two_fifths_never_four(self):
        from conebilliards.wedge import wedge_from_angle

        cone = wedge_from_angle(2 * math.pi / 5).cone
        result = adversarial_search(cone, budget=3000, seed=6)
        assert result.best_n == 3

    def test_deterministic_under_seed(self, orthant2):
        r1 = adversarial_search(orthant2, budget=300, seed=9)
        r2 = adversarial_search(orthant2, budget=300, seed=9)
        assert r1.best_n == r2.best_n
        np.testing.assert_array_equal(r1.best_state.q, r2.best_state.q)
        np.testing.assert_array_equal(r1.best_state.v, r2.best_state.v)

    @pytest.mark.parametrize("budget", [0, -1, 2.5, True])
    def test_rejects_empty_budget(self, orthant2, budget):
        with pytest.raises(ConeBilliardsError):
            adversarial_search(orthant2, budget=budget, seed=0)
        with pytest.raises(ValueError):
            adversarial_search(orthant2, budget=budget, seed=0)

    def test_wide_cone_maps_back_to_ambient(self):
        cone = make_cone(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        result = adversarial_search(cone, budget=300, seed=3)
        assert result.best_state.q.shape == (4,)
        assert result.best_n <= 2

    def test_wide_cone_searches_its_span(self):
        cone = random_cone(3, 5, 7, 0)
        result = adversarial_search(cone, budget=40, seed=3)
        assert result.best_record.cone is cone.span
        initial = result.best_record.initial
        np.testing.assert_array_equal(result.best_state.q, initial.q @ cone.basis)
        np.testing.assert_array_equal(result.best_state.v, initial.v @ cone.basis)
        assert run(result.best_state, cone).n_collisions == result.best_n


def test_span_solves_no_eigenvalues_after_the_report(monkeypatch):
    # The span of an n < m cone is built, and its lambda_min solved, once:
    # by the first reader.  Every later reader takes it as it is.
    cone = random_cone(3, 5, 7, 0)
    calls = []
    solve = geometry.min_eigenvalue

    def counted(g):
        calls.append(g.entries.shape)
        return solve(g)

    monkeypatch.setattr(geometry, "min_eigenvalue", counted)
    report = bounds_report(cone)
    assert calls == [(3, 3)]
    rng = make_rng(5, 0)
    center = inscribed_ball(cone.span).e @ cone.basis
    for _ in range(10):
        state = interior_start(rng, cone, center)
        assert audit(run(state, cone), report).all_passed
    assert len(calls) == 1
    adversarial_search(cone, budget=20, seed=1)
    assert len(calls) == 1
