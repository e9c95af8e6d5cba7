"""The NNLS nearest-point kernel: S(Q) with both ends certified, and face
distances without the projector table, which C's outer approximation
evaluates at every n."""

import math

import numpy as np
import pytest

from conebilliards import minimax
from conebilliards.constants import (
    EstimateMethod,
    bfk_constant,
    bounds_report,
    charge_SQ,
    inscribed_ball,
)
from conebilliards.geometry import make_cone, reduce_to_span
from conebilliards.harness import random_cone
from conebilliards.minimax import (
    FaceDistance,
    max_min_margin,
    nearest_point_face_distances,
    nearest_point_margin,
    nnls,
    zero_one_vertex,
)
from conebilliards.wedge import wedge_from_angle

# The enumeration's value is itself the least margin of a unit vector, so
# it is a lower end too; on these cones it lay up to 2.5e-15 below the
# NNLS lower end (streams 8004 and 8012).
ENUMERATION_ERROR = 3e-15


def margin_cones():
    for n in range(2, 9):
        for c in range(25):
            yield random_cone(n, n, seed=20241, stream=n * 1000 + c)
    yield make_cone(3, np.eye(3))
    yield wedge_from_angle(math.pi / 3).cone
    yield make_cone(1, [[1.0]])


def cone_points(cone, count, seed):
    """`count` random unit points of the cone, from positive weights on
    its rays."""
    rays = np.linalg.inv(cone.normals)
    weights = np.random.default_rng(seed).exponential(size=(count, cone.n_walls))
    points = weights @ rays.T
    return points / np.linalg.norm(points, axis=1)[:, None]


def test_nnls_against_scipy():
    from scipy.optimize import nnls as scipy_nnls

    rng = np.random.default_rng(5)
    for m, k in ((3, 2), (5, 5), (8, 4), (6, 9)):
        for _ in range(20):
            r = rng.standard_normal((m, k))
            b = rng.standard_normal(m)
            x = nnls(r, b)
            ref, residual = scipy_nnls(r, b)
            assert (x >= 0.0).all()
            assert np.linalg.norm(r @ x - b) == pytest.approx(residual, abs=1e-12)
            np.testing.assert_allclose(r @ x, r @ ref, atol=1e-12)


def test_nnls_edge_cases():
    # A point on the far side of every column: x = 0 at once.
    r = np.eye(3)
    assert (nnls(r, -np.ones(3)) == 0.0).all()
    # k = 0 columns: nothing to solve.
    assert nnls(np.zeros((2, 0)), np.ones(2)).shape == (0,)


def test_margin_ends_bracket_the_enumeration():
    for cone in margin_cones():
        ends = nearest_point_margin(cone)
        exact, _ = max_min_margin(cone.normals)
        assert ends.lower - ENUMERATION_ERROR <= exact <= ends.upper + 1e-15
        # The two ends may cross by rounding, by an ulp or two.
        assert -1e-15 <= ends.upper - ends.lower <= 1e-12


def test_charge_SQ_is_its_certified_lower_end():
    for cone in (make_cone(3, np.eye(3)), random_cone(5, 5, seed=20241, stream=5000)):
        est = charge_SQ(cone)
        assert est.method is EstimateMethod.nearest_point
        assert est.certified_lower == est.value
        assert est.value == math.asin(nearest_point_margin(cone).lower)


def test_charge_SQ_reduces_wide_cones():
    rng = np.random.default_rng(11)
    for n, m in ((2, 4), (3, 5), (1, 3)):
        normals = rng.standard_normal((n, m))
        cone = make_cone(m, normals)
        est = charge_SQ(cone)
        assert est.value == charge_SQ(cone.span).value
        assert est.value == pytest.approx(charge_SQ(reduce_to_span(m, normals)[0]).value, abs=1e-14)
        exact, _ = max_min_margin(cone.normals)
        assert math.sin(est.value) == pytest.approx(exact, abs=ENUMERATION_ERROR)


def count_nnls(monkeypatch):
    """Replace `minimax.nnls` with a copy that records each call; returns
    the list of calls."""
    calls = []
    solve = minimax.nnls

    def counted(r, b):
        calls.append(1)
        return solve(r, b)

    monkeypatch.setattr(minimax, "nnls", counted)
    return calls


def feet_leaving_their_face(cone, y):
    """Faces i whose hyperplane foot y - (y, a_i) a_i has a negative margin
    on some other wall, one face at a time."""
    leaving = 0
    for i, a in enumerate(cone.normals):
        foot = y - (y @ a) * a
        leaving += any(foot @ b < 0.0 for j, b in enumerate(cone.normals) if j != i)
    return leaving


def test_face_distances_against_projector_table(monkeypatch):
    calls = count_nnls(monkeypatch)
    faces = 0
    for n in range(3, 9):
        for c in range(3):
            cone = random_cone(n, n, seed=20241, stream=n * 1000 + c)
            points = np.vstack([inscribed_ball(cone).e, cone_points(cone, 20, n * 10 + c)])
            table, table_feet = FaceDistance(cone.normals).distances_and_feet(points)
            faces += n * len(points)
            for y, dists, feet in zip(points, table, table_feet):
                got, got_feet = nearest_point_face_distances(cone, y)
                np.testing.assert_allclose(got, dists, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got_feet, feet, rtol=0, atol=1e-12)
    # Both branches ran: hyperplane feet, and NNLS where they leave the face.
    assert 0 < len(calls) < faces


def test_no_nnls_at_the_equal_margin_centre(monkeypatch):
    # Every hyperplane foot e - d a_i of the centre has margins
    # d (1 - G_ij) >= 0, so no face needs its NNLS.
    cone = random_cone(5, 5, seed=20241, stream=5000)
    ball = inscribed_ball(cone)
    calls = count_nnls(monkeypatch)
    dists, feet = nearest_point_face_distances(cone, ball.e)
    assert not calls
    np.testing.assert_allclose(dists, ball.d, rtol=1e-14)
    np.testing.assert_allclose(feet, ball.e - ball.d * cone.normals, rtol=0, atol=1e-15)


def test_nnls_only_where_the_hyperplane_foot_leaves_the_face(monkeypatch):
    calls = count_nnls(monkeypatch)
    for n in range(3, 9):
        cone = random_cone(n, n, seed=20241, stream=n * 1000 + 1)
        for y in cone_points(cone, 10, n):
            calls.clear()
            nearest_point_face_distances(cone, y)
            assert len(calls) == feet_leaving_their_face(cone, y)


def test_closed_form_is_the_shortcut_at_the_vertex(monkeypatch):
    # bfk_constant's rule G_ij <= 0 across y_Q's support says that every
    # hyperplane foot of y_Q lies in its face, so it holds exactly where
    # the face distances at y_Q need no NNLS; there, f(y_Q) = delta_Q.
    calls = count_nnls(monkeypatch)
    closed = 0
    for n in range(3, 7):
        for c in range(25):
            cone = random_cone(n, n, seed=20241, stream=n * 1000 + c)
            vertex = zero_one_vertex(cone)
            calls.clear()
            dists, _ = nearest_point_face_distances(cone, vertex.y)
            shortcut = not calls
            assert (bfk_constant(cone).method is EstimateMethod.closed_form) == shortcut
            if shortcut:
                closed += 1
                assert dists.max() == pytest.approx(vertex.value, rel=1e-14, abs=0)
    assert closed == 14


# (value, certified_lower) of the cube-sphere branch-and-bound on these two
# cones, which took 15.5 s and 3.2 s of CPU and moved neither of C's two
# ends; the outer approximation's rounds tighten both, up to the vertex cap.
SEARCHED = {
    9000: (0.04880579946465456, 0.037689336795955646),
    12000: (0.03269547713544076, 0.016151181986001774),
}


@pytest.mark.parametrize("stream", sorted(SEARCHED))
def test_ends_match_the_search_past_eight(stream):
    n = stream // 1000
    est = bfk_constant(random_cone(n, n, seed=20241, stream=stream))
    value, lower = SEARCHED[stream]
    assert est.method is EstimateMethod.outer_approximation
    assert est.value < value - 1e-3
    assert est.certified_lower > lower + 1e-3


def test_bounds_report_past_the_search():
    for n in range(9, 18):
        for c in range(2 if n <= 16 else 1):
            cone = random_cone(n, n, seed=20241, stream=n * 1000 + c)
            rep = bounds_report(cone)
            est = bfk_constant(cone)
            assert rep.bfk_C == est.value
            assert est.method is EstimateMethod.outer_approximation
            assert est.certified_lower <= rep.bfk_C <= 1.0
            assert est.certified_lower >= math.sqrt(cone.lambda_min / n)
            if n <= 16:
                assert est.certified_lower >= zero_one_vertex(cone).value - 1e-12
            assert 0.0 < rep.charge_SQ <= math.pi / 2
            assert not math.isnan(rep.bound_bfk)


def test_search_solves_the_vertex_once(monkeypatch):
    calls = []
    solve = minimax.zero_one_vertex

    def counted(normals):
        calls.append(1)
        return solve(normals)

    monkeypatch.setattr(minimax, "zero_one_vertex", counted)
    est = bfk_constant(random_cone(4, 4, seed=20241, stream=4000))
    assert est.method is EstimateMethod.outer_approximation
    assert len(calls) == 1
