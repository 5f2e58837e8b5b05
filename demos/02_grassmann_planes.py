"""The oriented Grassmannian as unit simple multivectors: adapted frames,
the tangent basis, the tensor-product coefficients, and the complex
structure on codimension-two planes.

Run:  python3 demos/02_grassmann_planes.py
"""

import numpy as np

from skewflow import (
    embed,
    inner,
    jtilde_coeffs,
    normal_rotate,
    psi,
    psi_inv,
    random_adapted_frame,
    tangent_basis,
)
from skewflow.grassmann import frame_curve
from skewflow.verify import connection_residual

rng = np.random.default_rng(1)

print("== a random oriented 2-plane in R^4 ==")
frame = random_adapted_frame(rng, 2, 4)
point = embed(frame)
print("embedded coefficients:", np.round(point.xi.coeffs, 4))
print("unit norm:", inner(point.xi, point.xi))

print("\n== tangent basis: swap one plane leg for a normal leg ==")
basis = tangent_basis(frame)
gram = np.array(
    [[inner(basis[i][a], basis[j][b]) for j in range(2) for b in range(2)]
     for i in range(2) for a in range(2)]
)
print("Gram matrix of the four basis wedges:\n", np.round(gram, 12))

print("\n== coefficients against that basis are an isometry ==")
c = rng.standard_normal((2, 2))
d = rng.standard_normal((2, 2))
print("metric of images:     ", inner(psi(frame, c), psi(frame, d)))
print("Frobenius of matrices:", float(np.sum(c * d)))
print("round trip max error: ", np.max(np.abs(psi_inv(frame, psi(frame, c)) - c)))

print("\n== the quarter-turn of the normal plane ==")
w = rng.standard_normal(2) @ frame.nu
jw = normal_rotate(frame, w)
print("|w| = %.6f  |Jw| = %.6f  <w, Jw> = %.2e"
      % (np.linalg.norm(w), np.linalg.norm(jw), np.dot(w, jw)))
print("J(Jw) + w max component:", np.max(np.abs(normal_rotate(frame, jw) + w)))
print("orientation det(e1, e2, w, Jw) > 0:",
      np.linalg.det(np.vstack([frame.e, w, jw])) > 0)

print("\n== curves of planes: lines in R^3 and the round sphere ==")
frame3 = random_adapted_frame(rng, 1, 3)
u = frame3.e[0]
c3 = rng.standard_normal((1, 2))
v = psi(frame3, c3).coeffs
jv = psi(frame3, jtilde_coeffs(c3)).coeffs
print("for 1-planes in R^3 the coefficient rotation is the cross product:")
print("  J v      =", np.round(jv, 6))
print("  u x v    =", np.round(np.cross(u, v), 6))

print("\n== the tangent-basis connection matches the product connection ==")
curve = frame_curve(seed=5, m=2, n=4)
for h in (1e-2, 1e-3, 1e-4):
    print("  finite-difference mismatch at h=%.0e: %.3e" % (h, connection_residual(curve, h)))
print("second-order decay: the two covariant derivatives are the same operator.")
