import itertools
import math

import numpy as np
import pytest

from conebilliards.constants import inscribed_ball
from conebilliards.geometry import make_cone
from conebilliards.harness import random_cone
from conebilliards.minimax import (
    FaceDistance,
    _cell_radii,
    _KKTResult,
    _cube_faces,
    _evaluate,
    _first_order_lower,
    _kkt_point,
    _minorant,
    _minorant_lower,
    _normalize_rows,
    branch_and_bound_min_max_face_distance,
)
from conebilliards.wedge import wedge_from_angle

from conftest import cone_suite


def face_distances_reference(normals, points):
    """Distances from points to each face, one projection at a time.

    Face i's nearest point is the projection onto {(x, a_j) = 0, j in S}
    for some S containing i; every feasible projection is a point of the
    face, so the feasible minimum over all S is the distance.
    """
    n, m = normals.shape
    out = np.full((len(points), n), np.inf)
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        for k in range(n):
            for extra in itertools.combinations(rest, k):
                span = normals[[i, *extra]]
                # Orthogonal projector onto the complement of the span.
                proj = np.eye(m) - np.linalg.pinv(span) @ span
                for b, p in enumerate(points):
                    foot = proj @ p
                    if (normals @ foot).min() >= -1e-9:
                        out[b, i] = min(out[b, i], float(np.linalg.norm(p - foot)))
    return out


def cell_radii_reference(x, c, offsets, which, half):
    """Longest chord from each normalized centre c to the normalized corners
    x + half * offsets[which] of its cell, corner by corner."""
    corners = x[:, None, :] + half * offsets[which]
    corners = corners / np.linalg.norm(corners, axis=2, keepdims=True)
    return np.sqrt(((corners - c[:, None, :]) ** 2).sum(axis=2).max(axis=1))


def _radii(x, which, half, offsets):
    return _cell_radii(x, which // 2, half, offsets[0, :, 1:])


class TestFaceDistance:
    def test_matches_reference(self):
        rng = np.random.default_rng(7)
        for cone in cone_suite((2, 3, 4, 5), 2, seed=47):
            points = rng.standard_normal((40, cone.dim))
            face = FaceDistance(cone.normals)
            dists, feet = face.distances_and_feet(points)
            ref = face_distances_reference(cone.normals, points)
            np.testing.assert_allclose(dists, ref, atol=1e-12)
            # feet lie on their faces at the reported distance
            np.testing.assert_allclose(
                np.linalg.norm(points[:, None, :] - feet, axis=2), dists, atol=1e-12
            )
            margins = feet @ cone.matrix
            assert margins.min() >= -1e-9
            np.testing.assert_allclose(np.diagonal(margins, axis1=1, axis2=2), 0.0, atol=1e-12)
            np.testing.assert_allclose(face.max_face_distance(points), ref.max(axis=1), atol=1e-12)

    def test_orthant_distances_are_coordinates(self):
        face = FaceDistance(np.eye(3))
        y = np.abs(np.random.default_rng(8).standard_normal((50, 3)))
        np.testing.assert_allclose(face.distances_and_feet(y)[0], y, atol=1e-15)

    def test_max_face_distance_in_blocks(self):
        # more points than one call takes: the blocks are stitched in order
        cone = next(cone_suite((3,), 1, seed=48))
        face = FaceDistance(cone.normals)
        points = np.random.default_rng(9).standard_normal((5000, 3))
        whole = face.distances_and_feet(points)[0].max(axis=1)
        np.testing.assert_allclose(face.max_face_distance(points), whole, rtol=0, atol=1e-15)

    def test_project_to_cone(self):
        cone = next(cone_suite((3,), 1, seed=49))
        face = FaceDistance(cone.normals)
        points = np.random.default_rng(10).standard_normal((200, 3))
        proj = face.project_to_cone(points)
        assert (proj @ cone.matrix).min() >= -1e-9
        inside = (points @ cone.matrix).min(axis=1) >= 0.0
        np.testing.assert_allclose(proj[inside], points[inside], atol=1e-15)


def _bnb(cone):
    face = FaceDistance(cone.normals)
    return branch_and_bound_min_max_face_distance(face, inscribed_ball(cone).e)


class TestBranchAndBound:
    @pytest.mark.parametrize("theta", [0.2, math.pi / 3, math.pi / 2, 2.2, 3.0])
    def test_wedge_bracket(self, theta):
        lo, hi, best, evaluations, complete = _bnb(wedge_from_angle(theta).cone)
        c = math.sin(theta / 2.0)
        assert complete and evaluations > 0
        assert lo <= c <= hi + 1e-15
        assert hi - lo <= 1e-4 + 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_orthant_bracket(self, n):
        lo, hi, best, _, complete = _bnb(make_cone(n, np.eye(n)))
        assert complete
        assert lo <= 1.0 / math.sqrt(n) <= hi + 1e-15
        assert hi - lo <= 1e-4 + 1e-12

    def test_best_centres_feasible_and_sorted(self):
        cone = next(cone_suite((4,), 1, seed=50))
        face = FaceDistance(cone.normals)
        lo, hi, best, _, _ = _bnb(cone)
        # one point, feasible and of unit length, that attains hi
        assert best.shape == (4,)
        assert (best @ cone.matrix).min() >= 0.0
        assert abs(np.linalg.norm(best) - 1.0) <= 1e-15
        assert _evaluate(face, best)[0].max() == hi

    def test_six_walls_complete(self):
        # Lipschitz bounds alone needed 136k evaluations here (2 s)
        lo, hi, _, _, complete = _bnb(random_cone(6, 6, seed=20241, stream=6000))
        assert complete
        assert 0.0 < lo <= hi <= lo + 1e-4 + 1e-12

    def test_budget_keeps_a_valid_bracket(self, monkeypatch):
        from conebilliards import minimax

        cone = next(cone_suite((4,), 1, seed=51))
        lo_full, hi_full, _, full, complete = _bnb(cone)
        # 200 evaluations' worth of projections at n = 4
        monkeypatch.setattr(minimax, "_BNB_PROJECTIONS", 200 * 4 * 8)
        lo, hi, _, evaluations, cut = _bnb(cone)
        assert complete and not cut
        assert evaluations <= 200 < full
        assert lo <= lo_full + 1e-12
        assert hi >= hi_full - 1e-12
        assert lo <= hi_full

    def test_budget_counts_open_children_only(self, monkeypatch):
        # 782 evaluations complete stream 5000; children that an inherited
        # minorant closes cost nothing, so a budget of 800 evaluations is
        # enough, although the cells split there have far more children.
        from conebilliards import minimax

        monkeypatch.setattr(minimax, "_BNB_PROJECTIONS", 800 * 5 * 16)
        bracket = _bnb(random_cone(5, 5, seed=20241, stream=5000))
        assert bracket.complete and bracket.evaluations <= 800


class TestCellRadii:
    def test_closed_form_matches_corners(self):
        # Cells anywhere on every cube face, from half-width 1/2 down to
        # 2^-20, where the corner route loses digits to cancellation.
        rng = np.random.default_rng(15)
        worst = 0.0
        for m in range(2, 8):
            _, offsets = _cube_faces(m)
            for level in range(1, 21):
                half = 2.0 ** -level
                which = rng.integers(2 * m, size=50)
                x = rng.uniform(half - 1.0, 1.0 - half, (50, m))
                x[np.arange(50), which // 2] = np.where(which % 2 == 0, 1.0, -1.0)
                c = _normalize_rows(x)
                r = _radii(x, which, half, offsets)
                ref = cell_radii_reference(x, c, offsets, which, half)
                worst = max(worst, float(np.abs(r - ref).max()))
        assert worst <= 1e-14, worst

    def test_top_level(self):
        # The whole face of [-1, 1]^m: chord from the axis to a cube corner.
        for m in range(2, 8):
            x, offsets = _cube_faces(m)
            r = _radii(x, np.arange(2 * m), 1.0, offsets)
            expect = math.sqrt(2.0 - 2.0 / math.sqrt(m))
            np.testing.assert_allclose(r, expect, rtol=0, atol=1e-15)


class TestFirstOrderBound:
    @staticmethod
    def _cells(x, which, half, face, offsets, rng, samples):
        """First-order and Lipschitz bounds of the cells, f at the centres,
        and f at `samples` uniform points of each cell, normalized."""
        c = _normalize_rows(x)
        r = _radii(x, which, half, offsets)
        dists, feet = face.distances_and_feet(c)
        first, gs, slack = _first_order_lower(c, dists, feet, r)
        free = np.abs(offsets[which, 0])[:, None, :]
        u = rng.uniform(-1.0, 1.0, (len(x), samples, x.shape[1]))
        y = _normalize_rows((x[:, None, :] + half * u * free).reshape(-1, x.shape[1]))
        # every sampled point lies within the cell's radius of its centre
        chords = np.linalg.norm(y.reshape(len(x), samples, -1) - c[:, None, :], axis=2)
        assert (chords <= r[:, None] + 1e-15).all()
        f = face.max_face_distance(y).reshape(len(x), samples)
        # the minorant itself, pointwise on the sphere
        linear = (y.reshape(len(x), samples, -1) @ gs[:, :, None])[:, :, 0]
        assert (linear - slack[:, None] <= f + 1e-12).all()
        return first, dists.max(axis=1) - r, f

    def test_sound_on_cells(self):
        # Cells of every size around the minimizer, where the bound is
        # tight, and at random places, on the criterion-4 cones n = 3..5.
        rng = np.random.default_rng(12)
        worst = -np.inf
        for n in (3, 4, 5):
            _, offsets = _cube_faces(n)
            for k in range(25):
                cone = random_cone(n, n, seed=20241, stream=n * 1000 + k)
                face = FaceDistance(cone.normals)
                star = _bnb(cone).best
                axis = int(np.abs(star).argmax())
                on_face = star / abs(star[axis])
                for level in range(1, 13, 2):
                    half = 2.0 ** -level
                    faces = np.array([2 * axis + int(star[axis] < 0), rng.integers(2 * n)])
                    x = rng.uniform(half - 1.0, 1.0 - half, (2, n))
                    x[0] = np.clip(on_face + rng.uniform(-half, half, n) / 2, half - 1.0, 1.0 - half)
                    for row, which in enumerate(faces):
                        x[row, which // 2] = 1.0 if which % 2 == 0 else -1.0
                    first, lipschitz, f = self._cells(x, faces, half, face, offsets, rng, 300)
                    worst = max(worst, float((first - f.min(axis=1)).max()))
                    if level >= 7:
                        # near the minimum the first-order bound is the
                        # sharper one
                        assert first[0] > lipschitz[0]
        assert worst <= 1e-12, worst

    def test_children_inherit_a_sound_bound(self):
        # A split cell's minorant holds on the whole sphere, so it bounds
        # each of its 2^(n-1) children: the bound over each child is at
        # most the least f of 300 samples in it, around the minimizer and
        # at random, on the criterion-4 cones n = 3..5.
        rng = np.random.default_rng(16)
        worst, children = -np.inf, 0
        for n in (3, 4, 5):
            _, offsets = _cube_faces(n)
            q = offsets.shape[1]
            for k in range(6):
                cone = random_cone(n, n, seed=20241, stream=n * 1000 + k)
                face = FaceDistance(cone.normals)
                star = _bnb(cone).best
                for level in range(1, 12, 2):
                    half = 2.0 ** -level
                    cells = [_cell_around(p, half, n, rng) for p in (star, rng.standard_normal(n))]
                    x, which = (np.array(part) for part in zip(*cells))
                    c = _normalize_rows(x)
                    dists, feet = face.distances_and_feet(c)
                    _, gs, slack = _first_order_lower(c, dists, feet, _radii(x, which, half, offsets))
                    kids = (x[:, None, :] + 0.5 * half * offsets[which]).reshape(-1, n)
                    kid_which = np.repeat(which, q)
                    _, _, f = self._cells(kids, kid_which, 0.5 * half, face, offsets, rng, 300)
                    kid_r = _radii(kids, kid_which, 0.5 * half, offsets)
                    bound = _minorant_lower(
                        _normalize_rows(kids), kid_r,
                        np.repeat(gs, q, axis=0)[:, None, :], np.repeat(slack, q)[:, None],
                    )
                    worst = max(worst, float((bound - f.min(axis=1)).max()))
                    children += len(kids)
        assert children == 6 * 6 * 2 * (4 + 8 + 16)
        assert worst <= 1e-12, worst


def _cell_around(p, half, n, rng):
    """A cube-sphere cell of half-width `half` holding the unit point p,
    with p at a random place in it: (corner-face centre x, face index)."""
    axis = int(np.abs(p).argmax())
    on_face = p / abs(p[axis])
    x = np.clip(on_face + rng.uniform(-half, half, n) / 2, half - 1.0, 1.0 - half)
    x[axis] = on_face[axis]
    return x, 2 * axis + int(p[axis] < 0)


class TestKKTMinorant:
    @staticmethod
    def _check_cells(face, normals, bound, points, rng, levels=range(1, 13, 2)):
        """The minorant's cell bound against f at 200 samples of cell and
        cone, for cells of every size around each of `points`; returns the
        largest excess over the sampled minimum."""
        gs, slack = bound
        n = normals.shape[0]
        _, offsets = _cube_faces(n)
        worst = -np.inf
        for p in points:
            for level in levels:
                half = 2.0 ** -level
                x, which = _cell_around(p, half, n, rng)
                x, which = x[None], np.array([which])
                c = _normalize_rows(x)
                r = _radii(x, which, half, offsets)
                free = np.abs(offsets[which, 0])[:, None, :]
                u = rng.uniform(-1.0, 1.0, (1, 200, n))
                y = _normalize_rows((x[:, None, :] + half * u * free).reshape(-1, n))
                y = y[(y @ normals.T).min(axis=1) >= 0.0]
                if not len(y):
                    continue
                f = face.max_face_distance(y)
                # the minorant itself, pointwise on the cone
                assert ((y @ gs) - slack <= f + 1e-12).all()
                low = _minorant_lower(c, r, gs[None], np.array([slack]))[0]
                worst = max(worst, low - float(f.min()))
        return worst

    def test_sound_on_cells(self):
        # Cells of every size around the minimizer, where the bound is
        # tight, on walls through it, and far from it; on the criterion-4
        # cones n = 3..5 and from the KKT points the solve returns.
        rng = np.random.default_rng(13)
        worst = -np.inf
        tight = 0
        for n in (3, 4, 5):
            for k in range(8):
                cone = random_cone(n, n, seed=20241, stream=n * 1000 + k)
                face = FaceDistance(cone.normals)
                bracket = _bnb(cone)
                found = _kkt_point(face, bracket.best, 1e-2)
                if found is None:
                    continue
                bound = _minorant(found, cone.normals)
                star = found.y
                # a point on each wall near y*, and two random cone points
                on_walls = face.project_to_cone(star - 0.05 * cone.normals)
                far = face.project_to_cone(rng.standard_normal((2, n)))
                points = _normalize_rows(np.vstack([star, on_walls, far]))
                worst = max(worst, self._check_cells(face, cone.normals, bound, points, rng))
                # near y* the minorant closes a cell of radius 1e-3
                _, offsets = _cube_faces(n)
                x, which = _cell_around(star, 2.0 ** -11, n, rng)
                c = _normalize_rows(x[None])
                r = _radii(x[None], np.array([which]), 2.0 ** -11, offsets)
                low = _minorant_lower(c, r, bound[0][None], np.array([bound[1]]))[0]
                tight += bool(low >= bracket.hi - 1e-4)
        assert worst <= 1e-12, worst
        assert tight >= 20, tight

    def test_any_multipliers_are_sound(self):
        # Random points and multipliers of either sign: the clipped
        # multipliers still give a minorant, however poor.
        rng = np.random.default_rng(14)
        for cone in cone_suite((3, 4, 5), 2, seed=53):
            n = cone.n_walls
            face = FaceDistance(cone.normals)
            for _ in range(4):
                y = _normalize_rows(face.project_to_cone(rng.standard_normal((1, n))))[0]
                dists, feet = _evaluate(face, y)
                faces = rng.random(n) < 0.6
                faces[int(dists.argmax())] = True
                walls = rng.random(n) < 0.4
                result = _KKTResult(
                    y, dists, feet, faces, rng.normal(0.3, 0.5, faces.sum()),
                    walls, rng.normal(0.0, 0.5, walls.sum()),
                )
                bound = _minorant(result, cone.normals)
                if bound is None:
                    continue
                points = _normalize_rows(face.project_to_cone(rng.standard_normal((3, n))))
                worst = self._check_cells(face, cone.normals, bound, points, rng, levels=(1, 4, 8))
                assert worst <= 1e-12, worst


class TestKKTPoint:
    def test_stream_5000_minimizer_on_wall(self):
        cone = random_cone(5, 5, seed=20241, stream=5000)
        face = FaceDistance(cone.normals)
        found = _kkt_point(face, _bnb(cone).best, 1e-2)
        assert (found.y @ cone.matrix).min() >= -1e-12
        assert abs(np.linalg.norm(found.y) - 1.0) <= 1e-15
        assert (found.lam >= 0.0).all() and (found.nu >= -1e-9).all()
        assert found.walls.tolist() == [False, False, False, True, False]
        assert found.dists.max() <= 0.0595737 + 1e-12
        assert found.dists.max() == _evaluate(face, found.y)[0].max()

    def test_stream_5001_inscribed_centre(self):
        # C = d here: the minimizer is the inscribed centre, where every face
        # is at distance d
        cone = random_cone(5, 5, seed=20241, stream=5001)
        face = FaceDistance(cone.normals)
        ball = inscribed_ball(cone)
        found = _kkt_point(face, _bnb(cone).best, 1e-2)
        np.testing.assert_allclose(found.y, ball.e, atol=1e-9)
        assert found.dists.max() == pytest.approx(ball.d, abs=1e-12)
        assert found.faces.all() and (found.lam >= 0.0).all()

    def test_wrong_start_keeps_the_bracket(self, monkeypatch):
        # Newton started from the worst kept centre, reflected into the
        # cone's far corner: a poor start costs evaluations, never validity.
        from conebilliards import minimax

        kkt = minimax._kkt_point

        def far_start(face, y, tol):
            corner = _normalize_rows(np.linalg.inv(face.normals)[:, :1].T)[0]
            return kkt(face, _normalize_rows((corner + 0.01 * y)[None])[0], tol)

        for stream in (4000, 5000, 5001):
            cone = random_cone(stream // 1000, stream // 1000, seed=20241, stream=stream)
            lo, hi, *_ = _bnb(cone)
            monkeypatch.setattr(minimax, "_kkt_point", far_start)
            wrong = _bnb(cone)
            monkeypatch.undo()
            assert wrong.complete
            assert wrong.lo <= hi + 1e-12 and lo <= wrong.hi + 1e-12
            assert wrong.hi - wrong.lo <= 1e-4 + 1e-12

    @pytest.mark.parametrize("stream, limit", [(4000, 175), (4001, 685), (5000, 790)])
    def test_evaluation_counts(self, stream, limit):
        # Deterministic counts, pinned as upper limits (524, 1252 and 2033
        # when each child was evaluated; 1408, 2178 and 7525 without the
        # solve as well).
        n = stream // 1000
        bracket = _bnb(random_cone(n, n, seed=20241, stream=stream))
        assert bracket.complete and bracket.evaluations <= limit
