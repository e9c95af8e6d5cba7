"""The floor delta_Q of C from the largest 0/1 vertex, and the closed form
C = delta_Q where that vertex's face-distance feet lie in their faces."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conebilliards import minimax
from conebilliards.constants import EstimateMethod, bfk_constant
from conebilliards.geometry import make_cone
from conebilliards.harness import random_cone
from conebilliards.minimax import FaceDistance, zero_one_vertex

# Rounding allowance of delta_Q wherever it is used as an end of C.
ALLOWANCE = 1e-12


def exact_vertex_square(normals) -> Fraction:
    """max over nonzero x in {0, 1}^n of x^T G^{-1} x, exactly, for the Gram
    matrix of the float normals: 1 / delta_Q^2."""
    rows = [[Fraction(v) for v in row] for row in normals.tolist()]
    n = len(rows)
    g = [[sum(p * q for p, q in zip(rows[i], rows[j])) for j in range(n)] for i in range(n)]
    # Gauss-Jordan on [G | I]; G is positive definite, so no pivoting.
    aug = [g[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = aug[k][k]
        aug[k] = [v / pivot for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                factor = aug[i][k]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[k])]
    inv = [row[n:] for row in aug]
    best = Fraction(0)
    for code in range(1, 1 << n):
        s = [i for i in range(n) if code >> i & 1]
        best = max(best, sum(inv[i][j] for i in s for j in s))
    return best


def below_exact(value: float, square: Fraction) -> bool:
    """value <= 1 / sqrt(square), decided exactly."""
    return value <= 0.0 or Fraction(value) ** 2 * square <= 1


def criterion_4_cones():
    for n in (3, 4, 5):
        for c in range(25):
            yield random_cone(n, n, seed=20241, stream=n * 1000 + c)


def test_floor_and_closed_form_against_exact_solves():
    closed = {3: 0, 4: 0, 5: 0}
    for cone in criterion_4_cones():
        n = cone.n_walls
        square = exact_vertex_square(cone.normals)
        vertex = zero_one_vertex(cone)
        # The floor the search uses lies below the exact delta_Q.
        assert below_exact(vertex.value - ALLOWANCE, square)
        assert not below_exact(vertex.value + ALLOWANCE, square)
        est = bfk_constant(cone)
        # The rule holds exactly where y_Q attains delta_Q, which the exact
        # face distances confirm independently.
        f_hat = FaceDistance(cone.normals).max_face_distance(np.vstack([vertex.y, vertex.y]))[0]
        assert (est.method is EstimateMethod.closed_form) == (f_hat - vertex.value <= ALLOWANCE)
        if est.method is EstimateMethod.closed_form:
            closed[n] += 1
            assert est.value == est.certified_lower == vertex.value
            assert below_exact(est.value - ALLOWANCE, square)
            assert not below_exact(est.value + ALLOWANCE, square)
        else:
            assert est.method is EstimateMethod.outer_approximation
            assert est.certified_lower >= vertex.value - ALLOWANCE
            assert est.value - est.certified_lower <= 1e-4 + 1e-12
    assert closed == {3: 7, 4: 0, 5: 4}


# Brackets of the branch-and-bound on these cones before the closed form.
SEARCHED_BRACKETS = {
    3001: (0.045202735837059659, 0.045302571398089145),
    5001: (0.11309119434979531, 0.11319085408095149),
}


@pytest.mark.parametrize("stream", sorted(SEARCHED_BRACKETS))
def test_closed_form_inside_the_searched_bracket(stream, monkeypatch):
    searched = []
    search = minimax.outer_approximation_min_max_face_distance

    def counted(cone, vertex):
        searched.append(cone.n_walls)
        return search(cone, vertex)

    monkeypatch.setattr(minimax, "outer_approximation_min_max_face_distance", counted)
    n = stream // 1000
    est = bfk_constant(random_cone(n, n, seed=20241, stream=stream))
    lo, hi = SEARCHED_BRACKETS[stream]
    assert est.method is EstimateMethod.closed_form
    assert lo <= est.certified_lower == est.value <= hi
    assert searched == []
    # the counter sees the search where the rule fails
    bfk_constant(random_cone(4, 4, seed=20241, stream=4000))
    assert searched == [4]


def test_vertex_is_on_the_walls_off_its_support():
    for n in range(1, 7):
        cone = random_cone(n, n, seed=20241, stream=n * 1000 + 3)
        vertex = zero_one_vertex(cone)
        assert np.linalg.norm(vertex.y) == pytest.approx(1.0, abs=1e-14)
        margins = cone.normals @ vertex.y
        expected = np.where(vertex.support, vertex.value, 0.0)
        assert np.abs(margins - expected).max() <= 1e-14
        assert vertex.support.any()


@pytest.mark.parametrize("n", range(2, 9))
def test_orthant_is_the_all_walls_case(n):
    vertex = zero_one_vertex(make_cone(n, np.eye(n)))
    assert vertex.support.all()
    assert vertex.value == pytest.approx(1.0 / math.sqrt(n), abs=1.1e-16)


def test_wedges_keep_their_own_closed_form():
    # Past 120 degrees the foot on one wall leaves its face, and
    # C = sin(theta / 2) lies above delta_Q.
    theta = 2.5
    cone = make_cone(2, [[0.0, 1.0], [math.sin(theta), -math.cos(theta)]])
    est = bfk_constant(cone)
    assert est.method is EstimateMethod.closed_form
    assert est.value == math.sin(theta / 2.0)
    assert zero_one_vertex(cone).value < est.value - 0.1
