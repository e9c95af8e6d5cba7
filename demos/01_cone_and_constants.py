"""Walk through the geometric constants of a few polyhedral cones.

For each cone we print the Gram matrix, its minimal eigenvalue, the
inscribed ball (d, e), the capacity delta = sin(psi), the charges S(Q)
and phi, the nondegeneracy constant C, and every collision bound derived
from them.
"""

import math

import numpy as np

from conebilliards import (
    bounds_report,
    capacity_delta,
    charge_SQ,
    charge_phi,
    gram,
    inscribed_ball,
    make_cone,
    wedge_from_angle,
)


def describe(name, cone):
    print(f"\n=== {name} (n={cone.n_walls}, m={cone.dim}) ===")
    print("Gram matrix:")
    print(np.array_str(gram(cone).entries, precision=6))
    print(f"lambda_min          = {cone.lambda_min:.12f}")
    ball = inscribed_ball(cone)
    print(f"inscribed radius d  = {ball.d:.12f}   center e = {np.round(ball.e, 6)}")
    est = capacity_delta(cone)
    psi = math.asin(est.value)
    print(f"capacity delta      = {est.value:.12f}   (psi = {psi:.6f} rad, "
          f"certified lower bound {est.certified_lower:.6f}, via {est.method.value})")
    print(f"charge S(Q)         = {charge_SQ(cone).value:.12f} rad")
    print(f"charge phi          = {charge_phi(cone).value:.12f} rad")
    rep = bounds_report(cone)
    print(f"BFK constant C      = {rep.bfk_C:.12f}")
    print("collision bounds:")
    print(f"  main      n!(4/lam)^(n-1)      = {rep.bound_main:.6g}")
    print(f"  d-delta   (4/(d delta))^(n-1)  = {rep.bound_dd:.6g}")
    print(f"  Sevryuk                        = {rep.bound_sevryuk:.6g}")
    print(f"  BFK       8(1/C+2)^(2(n-1))    = {rep.bound_bfk:.6g}")
    if rep.bound_wedge is not None:
        print(f"  wedge     ceil(pi/theta)       = {rep.bound_wedge}")
    if rep.tridiagonal_applicable:
        print(f"  banded    n(n+1)/2             = {rep.bound_tridiagonal}")


describe("orthant in R^2", make_cone(2, np.eye(2)))
describe("orthant in R^3", make_cone(3, np.eye(3)))
describe("wedge of angle pi/3", wedge_from_angle(math.pi / 3).cone)

# a generic skewed cone
normals = [
    (1.0, 0.2, -0.1),
    (-0.3, 1.0, 0.2),
    (0.1, -0.4, 1.0),
]
describe("skewed cone in R^3", make_cone(3, normals))
