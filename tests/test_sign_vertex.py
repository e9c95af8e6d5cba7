"""delta and phi from the sign-vertex formula against the equal-margin
enumerations that computed them before, kept here as reference oracles."""

import itertools
import math

import numpy as np
import pytest

from conebilliards.constants import EstimateMethod, bounds_report, capacity_delta, charge_phi
from conebilliards.geometry import make_cone
from conebilliards.harness import random_cone
from conebilliards.minimax import max_min_margin, min_max_abs_margin
from oracles import delta_multistart


def min_max_abs_margin_reference(normals):
    """min over unit y of max_i |(y, a_i)| by (subset, sign) enumeration.

    Every sphere-stationary point lies in the span of its active signed
    normals with equal absolute margins; (3^n - 1) / 2 candidates.
    """
    n = normals.shape[0]
    best = np.inf
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            sub = normals[list(subset)]
            for signs in itertools.product((1.0, -1.0), repeat=k - 1):
                signed = np.array((1.0,) + signs)[:, None] * sub
                try:
                    w = np.linalg.solve(signed @ signed.T, np.ones(k))
                except np.linalg.LinAlgError:
                    continue
                y = w @ signed
                if np.linalg.norm(y) < 1e-12:
                    continue
                y /= np.linalg.norm(y)
                best = min(best, float(np.abs(y @ normals.T).max()))
    return best


def charge_phi_reference(normals):
    """Least charge arcsin(max min_i s_i (u, a_i)) over the 2^(n-1) sign cones."""
    n = normals.shape[0]
    best = math.pi / 2
    for signs in itertools.product((1.0, -1.0), repeat=n - 1):
        eps = np.array((1.0,) + signs)
        val, _ = max_min_margin(eps[:, None] * normals)
        assert val > 1e-9, "every sign cone of independent normals has interior"
        best = min(best, math.asin(min(1.0, val)))
    return best


def test_matches_enumerations_on_criterion_4_cones():
    for n in range(2, 7):
        for c in range(25):
            cone = random_cone(n, n, seed=20241, stream=n * 1000 + c)
            delta_ref = min_max_abs_margin_reference(cone.normals)
            phi_ref = charge_phi_reference(cone.normals)
            assert math.sin(phi_ref) == pytest.approx(delta_ref, rel=1e-10)
            est = capacity_delta(cone)
            assert est.method is EstimateMethod.closed_form
            assert est.certified_lower == est.value
            assert est.value == pytest.approx(delta_ref, rel=1e-10)
            phi = charge_phi(cone)
            assert phi.value == pytest.approx(phi_ref, rel=1e-10)
            assert math.sin(phi.value) == pytest.approx(est.value, rel=1e-15)


def test_argmin_attains_the_value():
    for n in range(1, 7):
        cone = random_cone(n, n, seed=20241, stream=n * 1000)
        value, y = min_max_abs_margin(cone)
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(cone.normals @ y).max() == pytest.approx(value, rel=1e-12)


def test_span_restricted_when_walls_are_fewer():
    normals = np.array([(1.0, 0.2, 0.0, -0.3), (0.4, -1.0, 0.5, 0.0), (0.1, 0.3, 1.0, 0.2)])
    wide = make_cone(4, normals)
    value, y = min_max_abs_margin(wide.span)
    y = y @ wide.basis
    assert value == pytest.approx(min_max_abs_margin_reference(wide.normals), rel=1e-10)
    assert value == pytest.approx(capacity_delta(wide).value, rel=1e-12)
    assert charge_phi(wide).value == pytest.approx(charge_phi_reference(wide.normals), rel=1e-10)
    # the argmin lies in the span of the normals
    residual = y - np.linalg.lstsq(wide.normals.T, y, rcond=None)[0] @ wide.normals
    assert np.abs(residual).max() < 1e-12


@pytest.mark.parametrize("n", [12, 16])
def test_exact_past_the_enumeration_range(n):
    # The enumerations above take minutes at these n, and the multistart
    # stops far above delta.
    cone = random_cone(n, n, seed=20241, stream=n * 1000)
    est = capacity_delta(cone)
    assert est.method is EstimateMethod.closed_form
    assert est.value <= delta_multistart(cone) + 1e-12
    assert math.sin(charge_phi(cone).value) == pytest.approx(est.value, rel=1e-15)


def test_multistart_past_the_formula_range():
    # Past n = 16 delta and phi come from the flip ascent over the sign
    # vertices: an estimate from above, with the a-priori lower end.  phi
    # takes the same route from a square cone or n < m walls, so it is psi,
    # as in the bounds report, and never runs the 2^(n-1) formula.
    cone = random_cone(17, 17, seed=20241, stream=17000)
    est = capacity_delta(cone)
    assert est.method is EstimateMethod.multistart
    assert est.certified_lower == math.sqrt(cone.lambda_min / 17)
    assert est.certified_lower <= est.value <= 1.0
    assert est.value == pytest.approx(0.0018131853982790232, rel=1e-12)
    phi = charge_phi(cone)
    assert phi.method is EstimateMethod.multistart
    assert phi.value == bounds_report(cone).charge_phi == math.asin(est.value)
    assert phi.certified_lower == math.asin(est.certified_lower)
    for n, m in ((17, 19), (22, 22)):
        wide = random_cone(n, m, seed=20241, stream=n * 1000)
        phi = charge_phi(wide)
        assert phi.method is EstimateMethod.multistart
        assert math.asin(math.sqrt(wide.span.lambda_min / n)) == phi.certified_lower <= phi.value


def test_flip_route_matches_the_formula(monkeypatch):
    import conebilliards.constants as constants

    cones = [
        random_cone(n, n, seed=20241, stream=n * 1000 + c)
        for n in range(2, 17)
        for c in range(25 if n <= 6 else 3)
    ]
    exact = [capacity_delta(cone).value for cone in cones]
    monkeypatch.setattr(constants, "_ENUMERATION_MAX_N", 1)
    for cone, value in zip(cones, exact):
        est = capacity_delta(cone)
        assert est.method is EstimateMethod.multistart
        assert est.value == pytest.approx(value, rel=1e-15, abs=0.0)
        assert est.certified_lower == math.sqrt(cone.lambda_min / cone.n_walls)
        # At n = 2 delta is sqrt(lambda_min / 2) exactly, so the rounding
        # of lambda_min shows; the library allows 1e-12 for it.
        assert est.certified_lower <= est.value + 1e-12
