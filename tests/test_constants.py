import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from conebilliards import geometry
from conebilliards.constants import (
    ConstantEstimate,
    EstimateMethod,
    bfk_constant,
    bounds_report,
    capacity_delta,
    ceil_snapped,
    charge_SQ,
    charge_phi,
    inscribed_ball,
    main_bound,
    tridiagonal_case,
)
from conebilliards.errors import (
    ConeBilliardsError,
    DegenerateArrangement,
    DimensionMismatch,
    InvalidParameter,
)
from conebilliards.geometry import gram, make_cone
from conebilliards.hardball import balls_to_cone
from conebilliards.harness import interior_starts, make_rng, random_cone
from conebilliards.minimax import flip_min_max_abs_margin, zero_one_vertex
from conebilliards.simulator import run_batch
from conebilliards.wedge import wedge_from_angle

from conftest import cone_suite
from oracles import c_grid, c_multistart, delta_grid, delta_multistart


def wedge_cone(theta):
    return wedge_from_angle(theta).cone


# --- independent brute-force oracles (kept deliberately simple) -----------

def delta_circle_oracle(cone, samples=2_000_001):
    phi = np.linspace(0.0, 2 * np.pi, samples)
    y = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    return float(np.abs(y @ cone.matrix).max(axis=1).min())


def charge_circle_oracle(cone, samples=2_000_001):
    phi = np.linspace(0.0, 2 * np.pi, samples)
    y = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    margins = y @ cone.matrix
    inside = margins.min(axis=1) >= 0.0
    return float(np.arcsin(np.clip(margins[inside].min(axis=1).max(), -1, 1)))


def bfk_orthant_oracle(dim, samples=500_000):
    # In the orthant the foot of every face projection stays feasible, so
    # dist(y, B_i) is just the i-th coordinate.
    if dim == 2:
        phi = np.linspace(0.0, np.pi / 2, samples)
        y = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    else:
        i = np.arange(samples)
        golden = math.pi * (3.0 - math.sqrt(5.0))
        z = 1.0 - 2.0 * (i + 0.5) / samples
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        y = np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=1)
        y = y[(y >= 0).all(axis=1)]
    return float(y.max(axis=1).min())


class TestInscribedBall:
    def test_orthant(self):
        for n in (2, 3, 5):
            ball = inscribed_ball(make_cone(n, np.eye(n)))
            assert ball.d == pytest.approx(1.0 / math.sqrt(n), abs=1e-14)
            np.testing.assert_allclose(ball.e, np.full(n, 1.0 / math.sqrt(n)), atol=1e-14)

    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 3])
    def test_wedge_closed_form(self, theta):
        cone = wedge_cone(theta)
        ball = inscribed_ball(cone)
        # oracle: solve the 2x2 equal-margin system directly
        sol = np.linalg.solve(cone.normals, np.ones(2))
        d_oracle = 1.0 / np.linalg.norm(sol)
        assert ball.d == pytest.approx(d_oracle, abs=1e-14)
        assert ball.d == pytest.approx(math.sin(theta / 2), abs=1e-12)

    def test_defining_equations(self):
        for cone in cone_suite((2, 3, 4, 5), 5, seed=41):
            ball = inscribed_ball(cone)
            assert np.abs(cone.normals @ ball.e - ball.d).max() < 1e-10
            assert abs(np.linalg.norm(ball.e) - 1.0) < 1e-12
            assert ball.d > 0.0

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            inscribed_ball(make_cone(3, [(1, 0, 0), (0, 1, 0)]))


class TestCapacityDelta:
    def test_orthant(self):
        for n in (2, 3, 4):
            est = capacity_delta(make_cone(n, np.eye(n)))
            assert est.value == pytest.approx(1.0 / math.sqrt(n), abs=1e-12)
            assert math.asin(est.value) == pytest.approx(math.asin(1.0 / math.sqrt(n)), abs=1e-12)

    def test_right_angle_wedge_equality_case(self):
        cone = wedge_cone(math.pi / 2)
        est = capacity_delta(cone)
        assert est.value == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert est.certified_lower == pytest.approx(math.sqrt(cone.lambda_min / 2), abs=1e-12)
        assert est.value == pytest.approx(est.certified_lower, abs=1e-10)

    @pytest.mark.parametrize("theta", [math.pi / 3, 2 * math.pi / 5, 2.5])
    def test_wedge_against_circle_oracle(self, theta):
        cone = wedge_cone(theta)
        est = capacity_delta(cone)
        assert est.value == pytest.approx(delta_circle_oracle(cone), abs=2e-6)
        assert est.value == pytest.approx(math.sin(min(theta, math.pi - theta) / 2), abs=1e-12)

    def test_methods_agree(self):
        for cone in cone_suite((2, 3), 5, seed=42):
            exact = capacity_delta(cone).value
            multi = delta_multistart(cone)
            assert multi >= exact - 1e-9
            assert abs(multi - exact) < 1e-3
            assert abs(delta_grid(cone) - exact) < 1e-3

    def test_half_line(self):
        est = capacity_delta(make_cone(1, [[1.0]]))
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert math.asin(est.value) == pytest.approx(math.pi / 2, abs=1e-14)


class TestChargeSQ:
    def test_orthant_diagonal(self, orthant2):
        est = charge_SQ(orthant2)
        assert est.value == pytest.approx(math.pi / 4, abs=1e-12)
        assert est.value == pytest.approx(charge_circle_oracle(orthant2), abs=2e-6)
        assert est.method is EstimateMethod.nearest_point
        assert est.certified_lower == est.value

    def test_wedge_all_active(self):
        cone = wedge_cone(math.pi / 3)
        est = charge_SQ(cone)
        assert est.value == pytest.approx(math.pi / 6, abs=1e-12)
        assert est.value == pytest.approx(charge_circle_oracle(cone), abs=2e-6)

    def test_half_space(self):
        est = charge_SQ(make_cone(1, [[1.0]]))
        assert est.value == pytest.approx(math.pi / 2, abs=1e-14)


class TestChargePhi:
    def test_orthant_symmetry(self, orthant2):
        est = charge_phi(orthant2)
        assert est.value == pytest.approx(math.pi / 4, abs=1e-12)

    def test_wedge_third(self):
        cone = wedge_cone(math.pi / 3)
        est = charge_phi(cone)
        assert est.value == pytest.approx(math.pi / 6, abs=1e-12)

    def test_single_hyperplane(self):
        est = charge_phi(make_cone(1, [[1.0]]))
        assert est.value == pytest.approx(math.pi / 2, abs=1e-14)

    def test_never_exceeds_cone_charge(self):
        for cone in cone_suite((2, 3, 4), 5, seed=43):
            assert charge_phi(cone).value <= charge_SQ(cone).value + 1e-9

    def test_raw_arrays_are_validated(self):
        # charge_phi takes a cone, as every constant does: raw normals are
        # validated and normalized by make_cone on the way in
        with pytest.raises(DegenerateArrangement):
            make_cone(2, [[1.0, 0.0], [2.0, 0.0]])
        # rows are normalized first: this is the 2-orthant
        cone = make_cone(2, [[3.0, 0.0], [0.0, 1.0]])
        assert charge_phi(cone).value == pytest.approx(math.pi / 4, abs=1e-15)


class TestBfkConstant:
    def test_orthant2(self, orthant2):
        est = bfk_constant(orthant2)
        assert est.value == pytest.approx(math.sqrt(2) / 2, abs=1e-6)
        assert est.value == pytest.approx(bfk_orthant_oracle(2), abs=1e-5)

    def test_half_line(self):
        # The 0/1-vertex closed form: C = delta_Q = 1, the distance to the apex.
        for normals in ([[1.0]], [[-2.5]]):
            est = bfk_constant(make_cone(1, normals))
            assert est == ConstantEstimate(1.0, 1.0, EstimateMethod.closed_form, 0)
        # One wall in R^3 reduces to the half-line: 8 (1 / C + 2)^0 = 8.
        rep = bounds_report(make_cone(3, [[0.0, 0.6, -0.8]]))
        assert rep.bfk_C == 1.0
        assert rep.bound_bfk == 8.0

    def test_orthant3(self, orthant3):
        est = bfk_constant(orthant3)
        assert est.value == pytest.approx(1.0 / math.sqrt(3), abs=1e-5)
        # the inline oracle's own resolution is ~ sqrt(4 pi / samples)
        assert est.value == pytest.approx(bfk_orthant_oracle(3, samples=2_000_000), abs=2e-3)

    def test_wedge_closed_form(self):
        # planar wedge: the bisector minimizes, giving C = sin(theta / 2)
        for theta in (math.pi / 3, math.pi / 2, 2.2):
            est = bfk_constant(wedge_cone(theta))
            assert est.value == pytest.approx(math.sin(theta / 2), abs=1e-6)

    def test_range_and_certificate(self):
        for cone in cone_suite((2, 3, 4), 4, seed=44):
            est = bfk_constant(cone)
            assert 0.0 < est.value <= 1.0
            assert est.certified_lower <= est.value + 1e-12

    def test_closed_form_wedges_against_grid(self):
        # every n = 2 cone of acceptance criterion 4
        for c in range(25):
            cone = random_cone(2, 2, seed=20241, stream=2000 + c)
            est = bfk_constant(cone)
            assert est.method is EstimateMethod.closed_form
            assert est.certified_lower == est.value
            assert est.value == pytest.approx(c_grid(cone), abs=1e-6)

    def test_closed_form_orthants(self):
        for n in range(2, 9):
            est = bfk_constant(make_cone(n, np.eye(n)))
            assert est.method is EstimateMethod.closed_form
            assert est.value == pytest.approx(1.0 / math.sqrt(n), abs=1e-15)
            assert est.certified_lower == est.value
        # a rotated orthant has the identity Gram matrix too
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        est = bfk_constant(make_cone(4, q.T))
        assert est.method is EstimateMethod.closed_form
        assert est.value == pytest.approx(0.5, abs=1e-15)

    def test_outer_approximation_certificate(self):
        # The criterion-4 cones at n = 4, 5 against the multistart oracle.
        # The multistart is an estimate from above that stalls on some of
        # them (by 4.4e-3 on stream 5003), so only one side is held to 1e-4.
        # C is the closed form delta_Q exactly where every face-distance
        # foot of the largest 0/1 vertex lies in its face (streams 5001,
        # 5005, 5007 and 5014), and the outer approximation's bracket
        # elsewhere, which replaced the cube-sphere branch-and-bound.
        closed = []
        for n in (4, 5):
            for c in range(25):
                cone = random_cone(n, n, seed=20241, stream=n * 1000 + c)
                est = bfk_constant(cone)
                multi = c_multistart(cone)
                vertex = zero_one_vertex(cone)
                s = vertex.support
                if (cone.gram_matrix.entries[np.ix_(s, ~s)] <= 0.0).all():
                    closed.append(n * 1000 + c)
                    assert est.method is EstimateMethod.closed_form
                    assert est.value == est.certified_lower == vertex.value
                else:
                    assert est.method is EstimateMethod.outer_approximation
                    assert est.certified_lower >= vertex.value - 1e-12
                assert est.certified_lower <= multi
                assert est.value <= multi + 1e-4
                assert est.certified_lower >= math.sqrt(cone.lambda_min / n)
                # stopping rule of the outer approximation
                assert est.value - est.certified_lower <= 1e-4 + 1e-12
                assert est.starts_used == 0
        assert closed == [5001, 5005, 5007, 5014]

    def test_budget_cut_reports_its_bracket(self, monkeypatch):
        # Rounds stopped by the vertex cap are reported as they stand, like
        # complete ones: value is the bracket's hi, and no starts are drawn.
        from conebilliards import minimax

        cone = random_cone(4, 4, seed=20241, stream=4000)
        monkeypatch.setattr(minimax, "_VERTEX_CAP", 30)
        bracket = minimax.outer_approximation_min_max_face_distance(cone, zero_one_vertex(cone))
        cut = bfk_constant(cone)
        assert not bracket.complete
        assert cut.method is EstimateMethod.outer_approximation
        assert cut.value == bracket.hi
        assert cut.starts_used == 0
        assert cut.certified_lower == max(bracket.lo, math.sqrt(cone.lambda_min / 4))
        assert cut.certified_lower == 0.11590484211299605
        monkeypatch.undo()
        full = bfk_constant(cone)
        assert cut.certified_lower <= full.value <= cut.value

    def test_pinned_multistart_miss(self):
        # 256 Sobol starts stop at 0.146031 here; feasible points reach 0.14562
        est = bfk_constant(random_cone(4, 4, seed=20241, stream=4002))
        assert est.value <= 0.14570
        assert c_multistart(random_cone(4, 4, seed=20241, stream=4002)) > 0.146


class TestTridiagonal:
    @pytest.mark.parametrize(
        "g, error",
        [
            (np.ones((2, 3)), DimensionMismatch),
            (np.zeros((0, 0)), DimensionMismatch),
            (np.array([[1.0, 0.0], [0.5, 1.0]]), DimensionMismatch),
            (np.array([[math.nan, 0.0], [0.0, 1.0]]), DegenerateArrangement),
        ],
        ids=["non-square", "empty", "asymmetric", "nan"],
    )
    def test_rejects_arrays_that_are_no_gram_matrix(self, g, error):
        with pytest.raises(error):
            tridiagonal_case(g)

    def test_identity(self):
        ok, bound = tridiagonal_case(np.eye(3))
        assert ok and bound == 6

    def test_equal_mass_pairwise(self):
        ok, bound = tridiagonal_case(np.array([[1, -0.5], [-0.5, 1]]))
        assert ok and bound == 3

    def test_banded_violation(self):
        g = np.eye(3)
        g[0, 2] = g[2, 0] = 0.2
        ok, bound = tridiagonal_case(g)
        assert not ok and bound is None

    def test_neighbor_floor(self):
        g = np.array([[1, -0.6], [-0.6, 1]])
        ok, bound = tridiagonal_case(g)
        assert not ok

    @pytest.mark.parametrize(
        "i, j, at",
        [(0, 2, 1e-12), (0, 2, -1e-12), (0, 1, -0.5 - 1e-12), (1, 2, -0.5 - 1e-12)],
        ids=["band", "band-negative", "neighbor-first", "neighbor-last"],
    )
    def test_tolerances_are_inclusive(self, i, j, at):
        # An entry exactly at its tolerance passes; one ulp past it fails.
        g = np.eye(3)
        g[i, j] = g[j, i] = at
        assert tridiagonal_case(g) == (True, 6)
        past = g.copy()
        past[i, j] = past[j, i] = np.nextafter(at, math.copysign(math.inf, at))
        assert tridiagonal_case(past) == (False, None)


class TestBoundsReport:
    def test_orthant2(self, orthant2):
        rep = bounds_report(orthant2)
        assert rep.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_main == pytest.approx(8.0)
        assert rep.bound_wedge == 2

    def test_wedge_third(self):
        rep = bounds_report(wedge_cone(math.pi / 3))
        assert rep.lambda_min == pytest.approx(0.5, abs=1e-12)
        assert rep.bound_main == pytest.approx(16.0)
        assert rep.bound_wedge == 3

    def test_orthant3_simulated_maximum(self, orthant3):
        rep = bounds_report(orthant3)
        assert rep.bound_main == pytest.approx(96.0)
        rng = make_rng(99, 0)
        q, v = interior_starts(rng, orthant3, inscribed_ball(orthant3).e, 500)
        counts, _, _ = run_batch(q, v, orthant3)
        assert counts.max() == 3  # each wall at most once in an orthant

    def test_reduces_wide_cones(self):
        rep = bounds_report(make_cone(4, [(1, 0, 0, 0), (0, 1, 0, 0)]))
        assert rep.cone.dim == 2
        assert rep.bound_wedge == 2

    def test_invariant_suite(self):
        for cone in cone_suite((2, 3, 4), 6, seed=45):
            n = cone.n_walls
            rep = bounds_report(cone)
            assert rep.d ** 2 * n >= rep.lambda_min - 1e-9
            assert rep.delta ** 2 >= rep.lambda_min / n - 1e-9
            assert rep.charge_phi <= rep.psi + 1e-9
            assert 0.0 < rep.charge_SQ <= math.pi / 2
            assert 0.0 < rep.charge_phi <= math.pi / 2
            assert 0.0 < rep.bfk_C <= 1.0
            assert 0.0 < rep.psi <= math.pi / 2
            assert rep.d >= math.sqrt(rep.lambda_min / n) - 1e-9
            assert rep.bound_main >= 1.0
            assert rep.bound_dd >= 1.0
            assert rep.bound_sevryuk > 0.0
            assert rep.bound_bfk > 0.0

    def test_bounds_from_certified_ends(self):
        for cone in cone_suite((2, 3, 4), 4, seed=45):
            n = cone.n_walls
            rep = bounds_report(cone)
            c_est = bfk_constant(cone)
            assert rep.bfk_C == c_est.value
            assert rep.bound_bfk == 8.0 * (1.0 / c_est.certified_lower + 2.0) ** (2 * (n - 1))
            # a bound from the certified end is never below one from the value
            assert rep.bound_bfk >= 8.0 * (1.0 / rep.bfk_C + 2.0) ** (2 * (n - 1))
            # delta is a closed form here, so its value is the certified end
            assert rep.bound_dd == (4.0 / (rep.d * rep.delta)) ** (n - 1)
            assert rep.charge_phi == rep.psi == math.asin(rep.delta)

    def test_bound_dd_uses_certified_delta_off_enumeration(self, monkeypatch):
        import conebilliards.constants as constants
        from conebilliards.constants import _sevryuk_bound

        cone = next(cone_suite((3,), 1, seed=53))
        exact = bounds_report(cone)
        # n = 3 takes the flip route that delta takes past n = 16
        monkeypatch.setattr(constants, "_FORMULA_MAX_N", 2)
        rep = bounds_report(cone)
        est = capacity_delta(cone)
        assert est.method is EstimateMethod.multistart
        assert est.value == flip_min_max_abs_margin(cone)[0]
        assert est.certified_lower < est.value
        assert rep.delta == est.value
        assert rep.bound_dd == (4.0 / (rep.d * est.certified_lower)) ** 2
        assert rep.bound_dd > exact.bound_dd
        # Sevryuk's bound takes phi's certified end arcsin(delta_low) too
        assert rep.bound_sevryuk == _sevryuk_bound(3, math.asin(est.certified_lower))
        assert rep.bound_sevryuk > exact.bound_sevryuk

    def test_sign_flip_invariants(self):
        for cone in cone_suite((2, 3, 4), 3, seed=46):
            delta0 = capacity_delta(cone)
            psi0 = math.asin(delta0.value)
            phi0 = charge_phi(cone)
            flipped = np.array(cone.normals)
            flipped[0] = -flipped[0]
            other = make_cone(cone.dim, flipped)
            delta1 = capacity_delta(other)
            psi1 = math.asin(delta1.value)
            phi1 = charge_phi(other)
            assert abs(delta0.value - delta1.value) < 1e-9
            assert abs(psi0 - psi1) < 1e-9
            assert abs(phi0.value - phi1.value) < 1e-9

    @pytest.mark.parametrize(
        "n, seed, stream", [(3, 20241, 0), (3, 20242, 0), (4, 20241, 4000), (17, 20241, 17000)]
    )
    def test_frame_derived_once(self, monkeypatch, n, seed, stream):
        # The rays A^-1 come from the cone, once, however many rounds C's
        # outer approximation takes, and past n = 16 the flip ascent reads
        # them too.  A square cone needs no orthonormal basis.
        cone = random_cone(n, n, seed, stream)
        calls = {"inv": 0, "orthonormal_rows": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        monkeypatch.setattr(geometry, "orthonormal_rows", counted("orthonormal_rows", geometry.orthonormal_rows))
        bounds_report(cone)
        assert calls == {"inv": 1, "orthonormal_rows": 0}


def _sevryuk_exact(n, phi):
    """(sin^2 phi / 2) (4 / sin^2 phi)^(2^(n-1)) - 1 in exact arithmetic on
    the double sin(phi), rounded once."""
    s2 = Fraction(math.sin(phi)) ** 2
    return float(s2 / 2 * (4 / s2) ** (2 ** (n - 1)) - 1)


class TestSevryukBound:
    def test_within_rounding_of_the_exact_value(self):
        from conebilliards.constants import _sevryuk_bound

        for cone in cone_suite((2, 3, 4, 5, 6), 5, seed=47):
            n = cone.n_walls
            phi = bounds_report(cone).charge_phi
            exact = _sevryuk_exact(n, phi)
            assert abs(_sevryuk_bound(n, phi) - exact) <= 1e-14 * exact

    def test_finite_up_to_the_float_range(self):
        from conebilliards.constants import _sevryuk_bound

        # 2 (4 / sin^2 phi)^3 - 1 is about 1.49e306 here, below the float
        # maximum, although its logarithm is past 700.
        phi = math.asin(math.sqrt(math.exp(-233.38)))
        exact = _sevryuk_exact(3, phi)
        assert 1e306 < exact < sys.float_info.max
        assert abs(_sevryuk_bound(3, phi) - exact) <= 1e-14 * exact
        # and only past it inf
        assert _sevryuk_bound(3, math.asin(math.sqrt(math.exp(-237.0)))) == math.inf


def test_ceil_snapped():
    assert ceil_snapped(math.pi / (math.pi / 5)) == 5
    assert ceil_snapped(2.5) == 3
    assert ceil_snapped(2.0) == 2
    assert ceil_snapped(2.0 + 1e-12) == 2
    assert ceil_snapped(2.0 + 1e-6) == 3


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, "3", None])
def test_ceil_snapped_rejects_non_finite(x):
    with pytest.raises(InvalidParameter):
        ceil_snapped(x)


def _wide_cones():
    """random_cone(n, m, 7, c) cones with fewer walls than dimensions, then
    40 hard-ball cones (N balls, N - 1 walls in R^N)."""
    for n, m in ((2, 3), (3, 5), (4, 6), (3, 4), (5, 7)):
        for c in range(20):
            yield random_cone(n, m, 7, c)
    rng = make_rng(25, 0)
    for k in range(40):
        yield balls_to_cone(rng.uniform(0.2, 5.0, size=3 + k % 5))[0]


def test_constants_of_a_wide_cone_are_its_report_fields():
    for cone in _wide_cones():
        assert cone.n_walls < cone.dim
        rep = bounds_report(cone)
        assert rep.cone is cone.span
        assert charge_phi(cone).value == rep.charge_phi
        assert capacity_delta(cone).value == rep.delta
        assert charge_SQ(cone).value == rep.charge_SQ
        assert bfk_constant(cone).value == rep.bfk_C
        assert inscribed_ball(cone.span).d == rep.d


@pytest.mark.parametrize(
    "n, lambda_min",
    [(3, 0.0), (2, -1.0), (2, math.nan), (2, math.inf), (2.5, 1.0), (0, 1.0), (True, 1.0), (2, "1")],
)
def test_bounds_reject_bad_inputs(n, lambda_min):
    from conebilliards.constants import step_cap

    for fn in (main_bound, step_cap):
        with pytest.raises(InvalidParameter):
            fn(n, lambda_min)


def test_main_bound_values():
    assert main_bound(2, 1.0) == pytest.approx(8.0)
    assert main_bound(3, 1.0) == pytest.approx(96.0)


def test_bounds_past_float_range_are_infinite():
    from conebilliards.constants import _power_bound, step_cap

    assert main_bound(90, 1e-3) == math.inf
    assert main_bound(171, 0.5) == math.inf
    assert step_cap(171, 0.5) == sys.maxsize
    assert _power_bound(1.0, 1e3, 200) == math.inf  # the d-delta form
    # finite values keep the plain formula bit for bit
    for n, lam in ((2, 1.0), (5, 0.01), (40, 0.3), (100, 0.9)):
        assert main_bound(n, lam) == float(math.factorial(n)) * (4.0 / lam) ** (n - 1)
    assert step_cap(5, 0.01) == int(math.ceil(main_bound(5, 0.01))) + 1
    assert step_cap(40, 0.3) == sys.maxsize


def test_bounds_report_imports_no_scipy():
    # Also with a vertex cap of 20, which stops the rounds on stream 5000
    # before the first: C is still reported without scipy.  The n = 9, 16
    # and 17 cones take the same route, and at n = 17 delta takes the flip
    # ascent.
    import subprocess
    import textwrap

    for cap in (None, 20):
        code = textwrap.dedent(
            f"""
            import sys
            import conebilliards
            from conebilliards import minimax
            if {cap} is not None:
                minimax._VERTEX_CAP = {cap}
            for n in (9, 16, 17):
                conebilliards.bounds_report(conebilliards.random_cone(n, n, seed=20241, stream=n * 1000))
            cone = conebilliards.random_cone(5, 5, seed=20241, stream=5000)
            conebilliards.bounds_report(cone)
            print(any(name.split(".")[0] == "scipy" for name in sys.modules))
            vertex = minimax.zero_one_vertex(cone)
            print(minimax.outer_approximation_min_max_face_distance(cone, vertex).complete)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False", str(cap is None)]


def test_constant_estimate_validates_certificate():
    for error in (ValueError, ConeBilliardsError):
        with pytest.raises(error):
            ConstantEstimate(
                value=0.1, certified_lower=0.5, method=EstimateMethod.multistart, starts_used=1
            )


@pytest.mark.parametrize(
    "fn", [capacity_delta, charge_SQ, charge_phi, bfk_constant, inscribed_ball, bounds_report]
)
@pytest.mark.parametrize(
    "bad",
    [[(1.0, 0.0), (0.0, 1.0)], np.eye(2), None, "cone", gram(make_cone(2, np.eye(2)))],
    ids=["list", "array", "none", "text", "gram"],
)
def test_constants_take_only_a_cone(fn, bad):
    # Raw normals used to reach `cone.span` and end in a bare AttributeError.
    with pytest.raises(ConeBilliardsError) as info:
        fn(bad)
    assert isinstance(info.value, TypeError)
