import dataclasses
import gc
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conebilliards import geometry
from conebilliards.constants import bounds_report
from conebilliards.errors import (
    ConeBilliardsError,
    DegenerateArrangement,
    DimensionMismatch,
    InvalidParameter,
    InvalidState,
    NotPositiveDefinite,
    ZeroVector,
)
from conebilliards.geometry import (
    ConeSpec,
    GramMatrix,
    contains,
    gram,
    jacobi_eigenvalues,
    make_cone,
    min_eigenvalue,
    orthonormal_rows,
    require_positive_definite,
)
from conebilliards.hardball import HardBallSystem, balls_to_cone
from conebilliards.harness import make_rng, random_cone, sphere_sample
from conebilliards.simulator import BilliardState, record_from_json
from conebilliards.wedge import sharp_bound, wedge_from_angle

from conftest import cone_suite


class TestMakeCone:
    def test_orthant(self):
        cone = make_cone(2, [(1, 0), (0, 1)])
        assert cone.n_walls == 2 and cone.dim == 2
        np.testing.assert_allclose(cone.normals, np.eye(2))
        assert not cone.renormalized

    def test_renormalizes_scaled_directions(self):
        cone = make_cone(2, [(2, 0), (0, 3)])
        np.testing.assert_allclose(cone.normals, np.eye(2), atol=1e-15)
        assert cone.renormalized

    def test_repeated_normal_is_degenerate(self):
        with pytest.raises(DegenerateArrangement):
            make_cone(2, [(1, 0), (1, 0)])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            make_cone(2, [(0, 0), (0, 1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component(self, bad):
        # NaN fails every comparison, so without its own check it passed
        # the independence test and reached bounds_report as NaN normals.
        with pytest.raises(DegenerateArrangement):
            make_cone(2, [(1, bad), (0, 1)])
        with pytest.raises(ConeBilliardsError):
            bounds_report(make_cone(3, [(1, 0, 0), (0, 1, 0), (0, bad, 1)]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_cone(3, [(1, 0), (0, 1)])
        with pytest.raises(DimensionMismatch):
            make_cone(2, [(1, 0), (0, 1), (1, 1)])

    @pytest.mark.parametrize(
        "dim, normals",
        [
            (2.0, [(1, 0), (0, 1)]),
            (2, [(1, 0), (0,)]),
            (2, [(1, "x"), (0, 1)]),
            (2, [(1, "1"), (0, 1)]),
        ],
        ids=["dim-float", "ragged", "text", "numeric-text"],
    )
    def test_malformed_input(self, dim, normals):
        with pytest.raises(DimensionMismatch):
            make_cone(dim, normals)

    def test_replaced_normals_derive_their_own_frame(self):
        # A copy with new normals shares nothing derived from the old ones.
        normals = np.array([[1.0, 0.0], [0.6, 0.8]])
        old = make_cone(2, np.eye(2))
        assert (old.basis == np.eye(2)).all() and (old.rays == np.eye(2)).all()
        assert old.ball.d == pytest.approx(math.sqrt(0.5))
        copy = dataclasses.replace(old, normals=normals)
        fresh = make_cone(2, normals)
        assert copy.lambda_min == fresh.lambda_min == pytest.approx(0.4)
        np.testing.assert_array_equal(copy.gram_matrix.entries, fresh.gram_matrix.entries)
        np.testing.assert_array_equal(copy.matrix, fresh.matrix)
        np.testing.assert_array_equal(copy.basis, fresh.basis)
        np.testing.assert_array_equal(copy.rays, fresh.rays)
        assert copy.ball.d == fresh.ball.d
        np.testing.assert_array_equal(copy.ball.e, fresh.ball.e)
        assert old.lambda_min == 1.0

    def test_wide_cone_has_no_rays_or_ball(self):
        # The inverse and the equal-margin ball belong to square cones; a
        # cone with fewer walls than dimensions reads them on its span.
        wide = random_cone(2, 3, 7, 0)
        for name in ("rays", "ball"):
            with pytest.raises(DimensionMismatch):
                getattr(wide, name)
        assert wide.span.rays.shape == (2, 2)
        assert wide.span.ball.d > 0.0

    def test_singular_normals_without_make_cone(self):
        twice = ConeSpec(dim=2, normals=np.array([[1.0, 0.0], [1.0, 0.0]]))
        for name in ("rays", "ball"):
            with pytest.raises(DegenerateArrangement):
                getattr(twice, name)

    def test_unit_norms_within_tolerance(self):
        cone = make_cone(3, [(1, 2, 2), (4, 0, 3), (0, 0, 5)])
        np.testing.assert_allclose(np.linalg.norm(cone.normals, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1.7e308])
    def test_large_finite_normals(self, scale):
        # The squares of these rows overflow; scaled first, they do not.
        cone = make_cone(2, [(scale, 0.0), (0.0, 1.0)])
        np.testing.assert_array_equal(cone.normals, np.eye(2))
        assert cone.renormalized
        diagonal = make_cone(2, [(scale, scale), (0.0, 1.0)])
        assert diagonal.normals[0, 0] == diagonal.normals[0, 1] == pytest.approx(math.sqrt(0.5), rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-13, 1e-200, 5e-324])
    def test_tiny_normals_stay_zero_vectors(self, scale):
        with pytest.raises(ZeroVector):
            make_cone(2, [(scale, 0.0), (0.0, 1.0)])

    def test_scaled_rows_are_bit_for_bit_the_plain_quotient(self):
        rng = make_rng(17, 0)
        for k in range(200):
            scale = 10.0 ** rng.uniform(-5.0, 5.0)
            rows = rng.standard_normal((3, 4)) * scale
            plain = rows / np.linalg.norm(rows, axis=1)[:, None]
            cone = make_cone(4, rows)
            np.testing.assert_array_equal(cone.normals, plain)
            assert cone.renormalized == bool(
                np.any(np.abs(np.linalg.norm(rows, axis=1) - 1.0) > 1e-6)
            )


class TestGram:
    def test_orthant_identity(self, orthant2):
        g = gram(orthant2)
        np.testing.assert_allclose(g.entries, np.eye(2))

    def test_wedge_half(self):
        cone = make_cone(2, [(0, 1), (math.sin(math.pi / 3), -math.cos(math.pi / 3))])
        g = gram(cone)
        np.testing.assert_allclose(g.entries, [[1, -0.5], [-0.5, 1]], atol=1e-15)

    def test_explicit_angle(self):
        a2 = (math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        g = gram(make_cone(2, [(1, 0), a2]))
        assert abs(g.entries[0, 1] - math.cos(2 * math.pi / 3)) < 1e-15
        np.testing.assert_allclose(g.entries, [[1, -0.5], [-0.5, 1]], atol=1e-15)

    def test_symmetric_unit_diagonal(self):
        for cone in cone_suite((2, 3, 4, 5), 5, seed=31):
            g = gram(cone)
            assert np.abs(g.entries - g.entries.T).max() < 1e-14
            assert np.abs(np.diag(g.entries) - 1.0).max() < 1e-12
            assert g.is_positive_definite


class TestMinEigenvalue:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries(self, bad):
        entries = [[bad, 0.0], [0.0, 1.0]]
        for fn in (min_eigenvalue, require_positive_definite, jacobi_eigenvalues):
            with pytest.raises(DegenerateArrangement):
                fn(np.array(entries))
        with pytest.raises(DegenerateArrangement):
            GramMatrix(order=2, entries=entries)

    def test_asymmetric_or_non_square_arrays(self):
        for fn in (min_eigenvalue, require_positive_definite):
            with pytest.raises(DimensionMismatch):
                fn(np.array([[1.0, 0.5], [0.0, 1.0]]))
            with pytest.raises(DimensionMismatch):
                fn(np.ones((2, 3)))
        for empty in (np.zeros((0, 0)), np.float64(1.0)):
            for fn in (min_eigenvalue, jacobi_eigenvalues):
                with pytest.raises(DimensionMismatch):
                    fn(empty)

    def test_identity(self):
        assert min_eigenvalue(np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_two_by_two_closed_form(self):
        # eigenvalues of [[1, c], [c, 1]] are 1 +/- c
        assert min_eigenvalue(np.array([[1, -0.5], [-0.5, 1]])) == pytest.approx(
            0.5, abs=1e-13
        )

    def test_quarter_turn_wedge(self):
        c = math.cos(math.pi / 4)
        lam = min_eigenvalue(np.array([[1.0, -c], [-c, 1.0]]))
        assert lam == pytest.approx(1.0 - c, abs=1e-13)
        assert lam == pytest.approx(0.2928932188134524, abs=1e-12)

    def test_matches_numpy_on_random_symmetric(self):
        rng = make_rng(12, 0)
        for n in (2, 3, 5, 8, 12):
            a = rng.standard_normal((n, n))
            s = 0.5 * (a + a.T)
            ours = jacobi_eigenvalues(s)
            ref = np.linalg.eigvalsh(s)
            np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-10)


class TestReduceToSpan:
    def test_coordinate_subspace(self):
        cone = make_cone(3, [(1, 0, 0), (0, 1, 0)])
        reduced, basis = cone.span, cone.basis
        assert reduced.dim == 2
        np.testing.assert_allclose(gram(reduced).entries, np.eye(2), atol=1e-12)
        assert basis.shape == (2, 3)

    def test_half_line(self):
        reduced = make_cone(3, [(1, 0, 0)]).span
        assert reduced.dim == 1 and reduced.n_walls == 1
        np.testing.assert_allclose(np.abs(reduced.normals), [[1.0]])

    def test_gram_preserved_random(self):
        rng = make_rng(14, 0)
        for _ in range(20):
            normals = sphere_sample(rng, 2, 4)
            try:
                cone = make_cone(4, normals)
            except DegenerateArrangement:
                continue
            reduced, basis = cone.span, cone.basis
            np.testing.assert_allclose(
                gram(reduced).entries, gram(cone).entries, atol=1e-12
            )
            # basis rows are orthonormal and reproduce the normals
            np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(reduced.normals @ basis, cone.normals, atol=1e-12)


def test_orthonormal_rows_rejects_a_dependent_row():
    rows = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [1.6, 0.8, 0.0]])
    basis = orthonormal_rows(rows[:2])
    np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-15)
    with pytest.raises(DegenerateArrangement):
        orthonormal_rows(rows)  # row 2 is row 0 + row 1
    rows[2, 2] = 1e-10  # within 1e-9 of the span of the rows before it
    with pytest.raises(DegenerateArrangement):
        orthonormal_rows(rows)


class TestSpan:
    def test_square_cone_is_its_own_span(self):
        cone = random_cone(3, 3, 7, 0)
        assert cone.span is cone
        # No cached self-reference: the cone is freed without the cyclic
        # collector.
        ref = weakref.ref(cone)
        gc.disable()
        try:
            bounds_report(cone)
            del cone
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("n, m", [(1, 3), (2, 3), (3, 5), (4, 6)])
    def test_wide_cone_span_is_built_once(self, n, m):
        cone = random_cone(n, m, 7, 0)
        span = cone.span
        assert span is cone.span
        assert (span.n_walls, span.dim) == (n, n)
        assert span.span is span
        fresh = make_cone(n, cone.normals @ cone.basis.T)
        np.testing.assert_array_equal(span.normals, fresh.normals)
        assert span.lambda_min == fresh.lambda_min
        np.testing.assert_allclose(span.normals @ cone.basis, cone.normals, atol=1e-14)


class TestContains:
    def test_inside(self, orthant2):
        assert contains(orthant2, (1, 1), 0.0)

    def test_outside(self, orthant2):
        assert not contains(orthant2, (-1, 1), 0.0)

    def test_tolerance_band(self, orthant2):
        assert contains(orthant2, (-1e-12, 1), 1e-9)

    def test_dimension_check(self, orthant2):
        with pytest.raises(DimensionMismatch):
            contains(orthant2, (1, 1, 1), 0.0)

    @pytest.mark.parametrize("point", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_point(self, orthant2, point):
        # as `run` rejects a non-finite position
        with pytest.raises(InvalidState):
            contains(orthant2, point, 0.0)


class TestSpectralInvariants:
    def test_aat_equals_ata_spectrum(self):
        rng = make_rng(15, 0)
        for n in (2, 3, 4, 6):
            a = rng.standard_normal((n, n))
            s1 = jacobi_eigenvalues(a @ a.T)
            s2 = jacobi_eigenvalues(a.T @ a)
            np.testing.assert_allclose(s1, s2, atol=1e-9, rtol=1e-9)

    def test_sign_flip_leaves_spectrum(self):
        for cone in cone_suite((2, 3, 4, 5), 4, seed=32):
            base = np.sort(jacobi_eigenvalues(gram(cone).entries))
            for i in range(cone.n_walls):
                flipped = np.array(cone.normals)
                flipped[i] = -flipped[i]
                other = make_cone(cone.dim, flipped)
                spec = np.sort(jacobi_eigenvalues(gram(other).entries))
                np.testing.assert_allclose(spec, base, atol=1e-12)

    def test_principal_submatrix_monotonicity(self):
        for cone in cone_suite((2, 3, 4, 5, 6), 3, seed=33):
            g = gram(cone).entries
            lam = min_eigenvalue(g)
            n = g.shape[0]
            for k in range(1, n + 1):
                for rows in itertools.combinations(range(n), k):
                    sub = g[np.ix_(rows, rows)]
                    assert min_eigenvalue(sub) >= lam - 1e-12

    def test_variational_characterization(self):
        # The sampled minimum of ||A x||^2 over random unit x can never be
        # below lambda_min (up to tolerance); and on the circle a dense scan
        # pins the value itself.
        rng = make_rng(16, 0)
        for cone in cone_suite((2, 3, 4), 3, seed=34):
            a = cone.matrix
            lam = cone.lambda_min
            x = sphere_sample(rng, 10_000, cone.dim)
            sampled = ((x @ a.T @ a) * x).sum(axis=1).min()
            assert sampled >= lam - 1e-6
        for cone in cone_suite((2,), 5, seed=35):
            a = cone.matrix
            phi = np.linspace(0.0, 2 * np.pi, 100_001)
            x = np.stack([np.cos(phi), np.sin(phi)], axis=1)
            dense = np.linalg.norm(x @ a, axis=1).min() ** 2
            assert abs(dense - cone.lambda_min) < 1e-6


def test_random_cone_determinism():
    c1 = random_cone(2, 2, 42)
    c2 = random_cone(2, 2, 42)
    assert np.array_equal(c1.normals, c2.normals)


def test_random_cone_conditioning():
    cone = random_cone(3, 3, 7)
    assert cone.lambda_min > 0.0


def test_caller_arrays_stay_writable():
    # Each frozen field is a read-only copy: the caller's array stays
    # writable and shares no memory with it.
    from conebilliards.constants import tridiagonal_case
    from conebilliards.geometry import InscribedBall
    from conebilliards.hardball import HardBallSystem
    from conebilliards.simulator import BilliardState

    def check(given, stored):
        assert given.flags.writeable and not stored.flags.writeable
        assert not np.shares_memory(given, stored)

    g = np.eye(3)
    tridiagonal_case(g)
    min_eigenvalue(g)
    require_positive_definite(g)
    check(g, GramMatrix(order=3, entries=g).entries)
    normals = np.eye(2)
    check(normals, ConeSpec(dim=2, normals=normals).normals)
    check(normals, make_cone(2, normals).normals)
    e = np.array([0.6, 0.8])
    check(e, InscribedBall(d=0.6, e=e).e)
    masses, positions, velocities = np.ones(3), np.arange(3.0), np.zeros(3)
    balls = HardBallSystem(masses=masses, positions=positions, velocities=velocities)
    check(masses, balls.masses)
    check(positions, balls.positions)
    check(velocities, balls.velocities)
    q, v = np.array([1.0, 2.0]), np.array([0.6, -0.8])
    state = BilliardState(q=q, v=v)
    check(q, state.q)
    check(v, state.v)


def _ldl_pivots(entries, shift):
    """The pivots of an LDL^T factorization of entries - shift * I in exact
    rationals, up to the first that is not positive."""
    n = len(entries)
    a = [[Fraction(x) for x in row] for row in entries.tolist()]
    for i in range(n):
        a[i][i] -= Fraction(shift)
    pivots = []
    for k in range(n):
        pivots.append(a[k][k])
        if a[k][k] <= 0:
            break
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return pivots


class TestCertifiedLambdaMin:
    def test_exact_rational_certificate(self):
        # G - lambda_min I of the stored Gram matrix is positive definite in
        # exact arithmetic, so lambda_min is below every eigenvalue of G.
        cones = [random_cone(n, n, 20241, n * 1000 + c) for n in range(2, 9) for c in range(5)]
        rng = make_rng(907, 0)
        for balls in range(3, 12):
            cones.append(balls_to_cone(np.ones(balls))[0])
            cones.append(balls_to_cone(10.0 ** rng.uniform(-1.0, 1.0, balls))[0])
        assert len(cones) >= 44
        for cone in cones:
            pivots = _ldl_pivots(cone.gram_matrix.entries, cone.lambda_min)
            assert len(pivots) == cone.n_walls and min(pivots) > 0

    def test_orthants_are_exact(self):
        for n in range(1, 9):
            for normals in (np.eye(n), -np.eye(n)[::-1]):
                cone = make_cone(n, normals)
                assert cone.lambda_min == 1.0
                assert bounds_report(cone).bound_main == math.factorial(n) * 4.0 ** (n - 1)

    def test_tight_on_random_cones(self):
        for n in range(2, 17):
            for c in range(3):
                cone = random_cone(n, n, 20241, n * 1000 + c)
                lam = float(np.linalg.eigvalsh(cone.gram_matrix.entries)[0])
                assert 0.0 < cone.lambda_min <= lam
                assert cone.lambda_min >= lam * (1.0 - 1e-7)

    def test_thin_wedges(self):
        # A 2x2 Gram matrix with unit diagonal has lambda_min = 1 - |g_12|,
        # and its Gershgorin end is that difference, rounded down.
        for theta in (3e-8, 1e-7):
            cone = wedge_from_angle(theta).cone
            g = cone.gram_matrix.entries
            assert g[0, 0] == g[1, 1] == 1.0
            exact = 1.0 - abs(g[0, 1])  # exact by Sterbenz's lemma
            assert cone.lambda_min == math.nextafter(exact, 0.0)
        # Below about 1.05e-8, cos(theta) rounds to 1: the stored Gram
        # matrix is singular.
        with pytest.raises(DegenerateArrangement):
            wedge_from_angle(1e-8)

    @staticmethod
    def _thin_cone(eps):
        # Two walls and a third at angle eps from their span: lambda_min is
        # about eps^2 / 2, and no Gershgorin row certifies it.
        c = math.cos(eps) / math.sqrt(2.0)
        return make_cone(3, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (c, c, math.sin(eps))])

    def test_thin_cone_boundary(self):
        # At eps = 1e-7 the Jacobi value 5.0e-15 was taken as lambda_min;
        # the certified end is not above 1e-18 there, so the cone raises.
        with pytest.raises(DegenerateArrangement):
            self._thin_cone(1e-7)
        cone = self._thin_cone(2e-7)
        pivots = _ldl_pivots(cone.gram_matrix.entries, cone.lambda_min)
        assert 1e-18 < cone.lambda_min and min(pivots) > 0

    def test_failed_factorization_doubles_the_slack(self, monkeypatch):
        # A failed Cholesky doubles the slack s of sigma = lam - s: the end
        # is then about lam - 2.25 s instead of lam - 1.25 s.
        g = random_cone(5, 5, 20241, 5000).gram_matrix.entries
        lam = float(np.linalg.eigvalsh(g)[0])
        slack = 4.0 * geometry._gamma(6) * float(np.abs(np.linalg.eigvalsh(g)).sum())
        first = geometry._cholesky_end(g)
        cholesky = np.linalg.cholesky
        calls = []

        def failing_once(a):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("forced")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing_once)
        end = geometry._cholesky_end(g)
        assert len(calls) == 2
        assert lam - 1.5 * slack < first < lam - slack
        assert lam - 3.0 * slack < end < lam - 1.5 * slack
        assert 0.0 < end < first

    def test_every_factorization_failing_leaves_gershgorin(self, monkeypatch):
        # The slack doubles until it passes tr|a|; the end is then -inf, and
        # min_eigenvalue is the Gershgorin end.
        g = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])
        calls = []

        def failing(a):
            calls.append(1)
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        assert geometry._cholesky_end(g) == -math.inf
        slack, attempts = 4.0 * geometry._gamma(4) * 6.0, 0
        while slack <= 6.0:
            slack, attempts = 2.0 * slack, attempts + 1
        assert len(calls) == attempts > 40
        assert min_eigenvalue(g) == geometry._gershgorin_end(g)
        assert 1.0 - 1e-15 < min_eigenvalue(g) < 1.0

    def test_larger_end_of_two(self):
        # Diagonal rows are exact, a dense block takes the Cholesky end, and
        # an indefinite or zero matrix still gets a lower end.
        g = np.eye(4)
        g[2, 3] = g[3, 2] = 0.5
        assert min_eigenvalue(g) <= 0.5
        assert min_eigenvalue(g) >= 0.5 - 1e-14
        assert min_eigenvalue(np.diag([3.0, 2.0, 5.0])) == 2.0
        assert min_eigenvalue(np.diag([1e308, 1e308])) == 1e308  # tr|G| is inf
        assert min_eigenvalue(-np.eye(3)) == -1.0
        assert min_eigenvalue(np.zeros((2, 2))) == 0.0
        assert -1.0 - 1e-14 <= min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])) <= -1.0
        with pytest.raises(NotPositiveDefinite):
            require_positive_definite(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert not GramMatrix(order=2, entries=np.ones((2, 2))).is_positive_definite


_MALFORMED = {
    "state-ragged-q": (InvalidState, lambda: BilliardState(q=[[1.0], [1.0, 2.0]], v=[0.0, 1.0])),
    "state-non-numeric-q": (InvalidState, lambda: BilliardState(q=["a", 1.0], v=[0.0, 1.0])),
    "balls-non-numeric-mass": (
        InvalidState,
        lambda: HardBallSystem(masses=[1, "a"], positions=[0.0, 1.0], velocities=[0.0, 0.0]),
    ),
    "balls-ragged": (
        InvalidState,
        lambda: HardBallSystem(masses=[[1.0], [1.0, 2.0]], positions=[0.0, 1.0], velocities=[0.0, 0.0]),
    ),
    "record-empty-document": (InvalidState, lambda: record_from_json("{}", make_cone(2, np.eye(2)))),
    "cone-spec-ragged": (DimensionMismatch, lambda: ConeSpec(dim=2, normals=[[1.0, 0.0], [0.0]])),
    "gram-ragged": (DimensionMismatch, lambda: GramMatrix(order=2, entries=[[1.0, 0.0], [0.0]])),
    "as-gram-ragged": (DimensionMismatch, lambda: min_eigenvalue([[1.0, 0.0], [0.0]])),
    "min-eigenvalue-non-numeric": (DimensionMismatch, lambda: min_eigenvalue([["a"]])),
    "contains-non-numeric": (DimensionMismatch, lambda: contains(make_cone(2, np.eye(2)), ["a", "b"])),
    "wedge-angle-non-numeric": (InvalidParameter, lambda: wedge_from_angle("a")),
    "sharp-bound-non-numeric": (InvalidParameter, lambda: sharp_bound("a")),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_raises_the_package_error(case):
    # A ragged or non-numeric array, a document without its fields, or an
    # angle that is not a number is refused with the error of the rule it
    # breaks, never with numpy's or Python's own ValueError or KeyError.
    error, build = _MALFORMED[case]
    with pytest.raises(error):
        build()
