import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conebilliards import minimax
from conebilliards.errors import DimensionMismatch
from conebilliards.geometry import make_cone
from conebilliards.harness import random_cone
from conebilliards.minimax import (
    FaceDistance,
    _cuts,
    _largest_vertex,
    _outer_approximation,
    nearest_point_face_distances,
    zero_one_vertex,
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


@pytest.mark.parametrize(
    "route",
    [
        minimax.nearest_point_margin,
        lambda cone: nearest_point_face_distances(cone, np.ones(cone.dim)),
        minimax.min_max_abs_margin,
        minimax.flip_min_max_abs_margin,
        zero_one_vertex,
    ],
    ids=["margin", "face-distances", "sign-vertices", "flip", "zero-one-vertex"],
)
def test_wide_cone_is_rejected(route):
    # Every route reads the rays A^-1 of a square cone; a cone with fewer
    # walls than dimensions is reduced by `span` first, by the caller.
    wide = random_cone(2, 3, 7, 0)
    with pytest.raises(DimensionMismatch):
        route(wide)
    route(wide.span)


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




# ---------------------------------------------------------------------------
# C by outer approximation
# ---------------------------------------------------------------------------

# Rounding allowance of lo = 1 / |v| for the largest vertex v.
ALLOWANCE = 1e-12


def _outer(cone):
    return _outer_approximation(cone, zero_one_vertex(cone))


def criterion_4_cones(ns=(3, 4, 5)):
    for n in ns:
        for c in range(25):
            yield random_cone(n, n, seed=20241, stream=n * 1000 + c)


def constraints(poly):
    """Rows and right-hand sides of every constraint of P, in the order of
    its tight-set bits: -x_j <= 0, x_j <= 1, then (h_k, x) <= 1."""
    n = poly.n
    rows = np.vstack([-np.eye(n), np.eye(n), poly.cuts])
    rhs = np.concatenate([np.zeros(n), np.ones(n), np.ones(len(poly.cuts))])
    return rows, rhs


def brute_force_largest_norm(poly, normals):
    """max |y| over the vertices of P, y = A^-1 x, from the solution of
    every n-subset of its constraints that is feasible."""
    rows, rhs = constraints(poly)
    rays = np.linalg.inv(normals)
    best = 0.0
    subsets = itertools.combinations(range(len(rows)), poly.n)
    for chunk in iter(lambda: list(itertools.islice(subsets, 20_000)), []):
        chunk = np.array(chunk)
        a = rows[chunk]
        ok = np.abs(np.linalg.det(a)) > 1e-12
        x = np.linalg.solve(a[ok], rhs[chunk][ok][:, :, None])[:, :, 0]
        x = x[(x @ rows.T <= rhs + 1e-11).all(axis=1)]
        if len(x):
            best = max(best, float(np.linalg.norm(x @ rays.T, axis=1).max()))
    return best


def tight_bits(poly, k):
    words = poly.tight[k]
    return [c for c in range(64 * len(words)) if int(words[c // 64]) >> (c % 64) & 1]


def exact_solve(a, b):
    """x with a x = b, in Fractions, by Gauss-Jordan with pivoting."""
    n = len(a)
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(a, b)]
    for k in range(n):
        p = next(i for i in range(k, n) if aug[i][k] != 0)
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[k])]
    return [row[n] for row in aug]


def exact_square_norm(normals, x):
    """|y|^2 = x^T G^-1 x for (y, a_i) = x_i, exactly, for the Gram matrix
    of the float normals."""
    rows = [[Fraction(v) for v in row] for row in normals.tolist()]
    gram = [[sum(p * q for p, q in zip(r, s)) for s in rows] for r in rows]
    z = exact_solve(gram, x)
    return sum(p * q for p, q in zip(x, z))


# (certified lower end, value) of C by the cube-sphere branch-and-bound
# that the outer approximation replaced, on every cone n = 3..5, c < 25
# without a closed form.
BRANCH_AND_BOUND = {
    3000: (0.33825278441569473, 0.33835117427797756),
    3002: (0.4510498522191223, 0.4511210811737183),
    3004: (0.3735020011802317, 0.37359252819105165),
    3007: (0.2851788028906008, 0.2852333821547268),
    3008: (0.27549789854083767, 0.27559698514388514),
    3011: (0.46683268975317765, 0.46690811514717556),
    3012: (0.1866138112239954, 0.1866850875904142),
    3013: (0.15324396219695327, 0.15333302272155877),
    3014: (0.7178255904188748, 0.717875259195122),
    3016: (0.6722481521377653, 0.6723120433648241),
    3017: (0.40606965567026276, 0.4061686980515367),
    3018: (0.4287051238225831, 0.4287914036683705),
    3019: (0.6451336543045565, 0.6452037809983304),
    3020: (0.3258319659596417, 0.3259228312277473),
    3021: (0.3863046798593421, 0.3863634012931884),
    3022: (0.0840997522905426, 0.08418786959852102),
    3023: (0.4777564770703517, 0.4778502744618707),
    3024: (0.5167059133330426, 0.5167932333378112),
    4000: (0.12774955370208801, 0.12784671653229096),
    4001: (0.19353858205854424, 0.19355339765014956),
    4002: (0.14551853239196763, 0.14561784839822103),
    4003: (0.07525126860692041, 0.07533519152432026),
    4004: (0.24244845333961731, 0.24254605775178364),
    4005: (0.06726438214897364, 0.06735129140805642),
    4006: (0.3086063335046395, 0.3087010138941459),
    4007: (0.1868302478349284, 0.18692010867183712),
    4008: (0.11897241472344303, 0.11905519981425382),
    4009: (0.36393843685109917, 0.36403172681928936),
    4010: (0.24488711538918106, 0.24498170924518486),
    4011: (0.05549233335055309, 0.05549350137513626),
    4012: (0.0850851449798389, 0.0851574518694196),
    4013: (0.4169083300206422, 0.41700638663549827),
    4014: (0.0621292848499242, 0.06216404371836981),
    4015: (0.29579649304324357, 0.2958937051754296),
    4016: (0.004930813738365152, 0.00496692937753181),
    4017: (0.36709971387846896, 0.3671993007617707),
    4018: (0.32443261279259317, 0.3245316352750302),
    4019: (0.06145196858134239, 0.06150098533492884),
    4020: (0.0940080955751165, 0.09410314900702658),
    4021: (0.29252531759009026, 0.29261255298951994),
    4022: (0.15551611740116636, 0.15561396063880245),
    4023: (0.1031321277744588, 0.10322017556016189),
    4024: (0.03302658245424258, 0.03304713517111045),
    5000: (0.05947377195495247, 0.059573653863547175),
    5002: (0.015538565317159754, 0.01563153574564587),
    5003: (0.22990165659599832, 0.23000042839903254),
    5004: (0.048105568198680504, 0.04820348590852285),
    5006: (0.060362577305071316, 0.06038452906081439),
    5008: (0.19353525395369695, 0.19363513808449567),
    5009: (0.18123865729382083, 0.18133830431309586),
    5010: (0.14124646632610627, 0.14134610551248716),
    5011: (0.027169776065196067, 0.027268159960762428),
    5012: (0.0348395814965023, 0.034929562586438104),
    5013: (0.12824071856405167, 0.12832560627378053),
    5015: (0.20596635051383833, 0.20606480318477607),
    5016: (0.07660395926330003, 0.07669066670964528),
    5017: (0.16285308160546053, 0.16295234899200733),
    5018: (0.11456832839751493, 0.11466718890352638),
    5019: (0.008643461024187688, 0.008743420397675075),
    5020: (0.2942123787747041, 0.2943107343635798),
    5021: (0.10217993141495386, 0.1022781686828723),
    5022: (0.249643191079411, 0.24974263339524175),
    5023: (0.26068627350151935, 0.2607861411185476),
    5024: (0.039296398114066676, 0.03939606043213515),
}


class TestOuterApproximation:
    @pytest.mark.parametrize("theta", [0.2, math.pi / 3, math.pi / 2, 2.2, 3.0])
    def test_wedge_bracket(self, theta):
        lo, hi, _, evaluations, complete = _outer(wedge_from_angle(theta).cone)[0]
        c = math.sin(theta / 2.0)
        assert complete and evaluations > 0
        assert lo <= c <= hi + 1e-15
        assert hi - lo <= 1e-4

    @pytest.mark.parametrize("n", [3, 4])
    def test_orthant_bracket(self, n):
        lo, hi, _, _, complete = _outer(make_cone(n, np.eye(n)))[0]
        assert complete
        assert lo <= 1.0 / math.sqrt(n) <= hi + 1e-15
        assert hi - lo <= 1e-4

    def test_best_is_feasible_and_attains_hi(self):
        for cone in list(criterion_4_cones((3, 4))) + [wedge_from_angle(0.2).cone]:
            bracket, _ = _outer(cone)
            best = bracket.best
            assert best.shape == (cone.dim,)
            assert (best @ cone.matrix).min() >= 0.0
            assert abs(np.linalg.norm(best) - 1.0) <= 1e-15
            assert nearest_point_face_distances(cone, best)[0].max() == bracket.hi

    @pytest.mark.parametrize(
        "streams",
        [range(3000, 3025), range(4000, 4025), range(5000, 5012), (6001, 6002, 6007)],
        ids=["n3", "n4", "n5", "n6"],
    )
    def test_vertex_list_against_brute_force(self, streams):
        # The largest vertex of the final P, from its vertex list and from
        # every n-subset of its constraints.  An adjacency test that shares
        # n - 1 tight constraints without keeping P simple put a duplicate
        # vertex on a cut and lo above the true bound (stream 6009).
        checked = 0
        for stream in streams:
            cone = random_cone(stream // 1000, stream // 1000, seed=20241, stream=stream)
            _, poly = _outer(cone)
            if poly is None or not len(poly.cuts):
                continue
            rays = np.linalg.inv(cone.normals)
            listed = float(np.linalg.norm(poly.x @ rays.T, axis=1).max())
            brute = brute_force_largest_norm(poly, cone.normals)
            assert abs(listed - brute) <= 1e-12 * brute, stream
            # every vertex is feasible, and on exactly n of the constraints
            rows, rhs = constraints(poly)
            assert (poly.x @ rows.T <= rhs + 1e-12).all()
            assert (np.bitwise_count(poly.tight).sum(axis=1) == poly.n).all()
            checked += 1
        assert checked >= 3

    def test_tight_sets_past_one_word(self):
        # 80 cuts tangent to the circle |x| = 0.9 in the unit square, in a
        # shuffled order: 84 constraints need two words per tight set, and
        # the list must still be the polytope's vertex set.
        poly = minimax._Polytope(2)
        angles = np.linspace(0.01, math.pi / 2 - 0.01, 80)
        for theta in np.random.default_rng(18).permutation(angles):
            assert poly.cut(np.array([math.cos(theta), math.sin(theta)]) / 0.9) > 0
        assert poly.tight.shape[1] == 2
        assert (np.bitwise_count(poly.tight).sum(axis=1) == 2).all()
        rows, rhs = constraints(poly)
        found = []
        for pair in itertools.combinations(range(len(rows)), 2):
            a = rows[list(pair)]
            if abs(np.linalg.det(a)) > 1e-12:
                x = np.linalg.solve(a, rhs[list(pair)])
                if (rows @ x <= rhs + 1e-12).all():
                    found.append(x)
        brute = np.unique(np.round(found, 9), axis=0)
        listed = np.unique(np.round(poly.x, 9), axis=0)
        np.testing.assert_array_equal(listed, brute)

    def test_cuts_hold_with_inexact_feet(self):
        # (h_i, x) <= dist(y, B_i) for x = A y, at points of the cone, with
        # the exact feet and with feet moved off their faces by 1e-2.
        rng = np.random.default_rng(17)
        worst = -np.inf
        for cone in cone_suite((3, 4, 5, 6), 3, seed=54):
            arr = cone.normals
            n = len(arr)
            rays = np.linalg.inv(arr)
            face = FaceDistance(arr)
            w = rng.exponential(size=(300, n))
            w[np.arange(100), rng.integers(n, size=100)] = 0.0
            y = w @ rays.T
            y /= np.linalg.norm(y, axis=1)[:, None]
            exact = face.distances_and_feet(y)[0]
            for u in y[:6]:
                dists, feet = nearest_point_face_distances(cone, u)
                for noise in (0.0, 1e-2):
                    moved = feet + noise * rng.standard_normal(feet.shape)
                    # a cut for every face that u is off
                    far = dists > 0.0
                    h = _cuts(cone, u, dists, moved, 0.0)
                    assert h.shape == (far.sum(), n)
                    worst = max(worst, float(((y @ arr.T) @ h.T - exact[:, far]).max()))
                    if noise == 0.0:
                        # tight at u itself, as far as the NNLS foot is
                        # orthogonal to u - p: a rounding e in (u - p, p)
                        # costs e / dist
                        tight = h @ (arr @ u)
                        assert (np.abs(tight - dists[far]) <= 1e-12 + 1e-14 / dists[far]).all()
        assert worst <= 1e-12, worst

    def test_lo_allowance_against_exact_solves(self):
        # 1 / |v| for the largest listed vertex, against |v| solved exactly
        # from its n tight constraints, as the floor delta_Q is.
        worst, checked = 0.0, 0
        for cone in criterion_4_cones():
            bracket, poly = _outer(cone)
            if poly is None or not len(poly.cuts):
                continue
            level, _, k = _largest_vertex(cone, 0, len(poly.x), lambda codes: poly.x[codes].T)
            rows, rhs = constraints(poly)
            bits = tight_bits(poly, k)
            square = exact_square_norm(cone.normals, exact_solve(rows[bits].tolist(), rhs[bits].tolist()))
            exact = 1.0 / math.sqrt(square)
            worst = max(worst, abs(level - exact) / exact)
            # decided exactly: level - allowance <= 1 / |v| <= level + allowance
            assert Fraction(level - ALLOWANCE) ** 2 * square <= 1
            assert Fraction(level + ALLOWANCE) ** 2 * square >= 1
            assert bracket.lo <= level - ALLOWANCE + 1e-18
            checked += 1
        assert checked >= 60
        assert worst <= 1e-13, worst

    def test_six_walls_complete(self):
        # (certified lower end, value) of C before outer approximation: 6000
        # is a closed form, and 6009 and 7000 were searched by the
        # branch-and-bound.
        before = {
            6000: (0.12552911629425859, 0.12552911629425859),
            6009: (0.25458856738100455, 0.2546885034269781),
            7000: (0.1121038478892214, 0.11220364546929987),
        }
        for stream, (lo, hi) in before.items():
            n = stream // 1000
            bracket, _ = _outer(random_cone(n, n, seed=20241, stream=stream))
            assert bracket.complete
            assert 0.0 < bracket.lo <= bracket.hi <= bracket.lo + 1e-4
            assert bracket.lo <= hi and lo <= bracket.hi

    @pytest.mark.parametrize("stream", [5000, 6009, 7000])
    def test_cap_keeps_a_certified_bracket(self, stream, monkeypatch):
        n = stream // 1000
        cone = random_cone(n, n, seed=20241, stream=stream)
        full, whole = _outer(cone)
        cap = (1 << n) + 4 * n
        assert len(whole.x) > cap
        monkeypatch.setattr(minimax, "_VERTEX_CAP", cap)
        cut, poly = _outer(cone)
        assert len(poly.x) <= cap
        assert not cut.complete and cut.hi - cut.lo > 1e-4
        assert cut.lo <= full.lo and cut.hi >= full.hi
        assert cut.lo <= full.hi <= cut.hi
        # A cap below the 2^n vertices of P_0: the seed and y_Q alone.
        monkeypatch.setattr(minimax, "_VERTEX_CAP", (1 << n) - 1)
        ends, none = _outer(cone)
        assert none is None and ends.evaluations == 2
        assert ends.lo == zero_one_vertex(cone).value - ALLOWANCE
        assert ends.lo <= cut.lo and ends.hi >= cut.hi

    def test_no_bracket_disjoint_from_the_branch_and_bound(self):
        moved = 0
        for stream, (lo, hi) in BRANCH_AND_BOUND.items():
            n = stream // 1000
            bracket, _ = _outer(random_cone(n, n, seed=20241, stream=stream))
            assert bracket.complete and bracket.hi - bracket.lo <= 1e-4
            assert bracket.lo <= hi and lo <= bracket.hi, stream
            moved += bracket.lo != lo
        assert len(BRANCH_AND_BOUND) == 64 and moved == 64
