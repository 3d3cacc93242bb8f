"""Norm-multiplying bilinear products: the real, complex, quaternion and
octonion multiplications, and their equivalence with orthogonal tuples."""

import numpy as np

from quadmorph import orthomul, osystem

# quaternion units multiply the way they should
mu = orthomul.standard_multiplication(4)
i, j, k = [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
print("i*j =", orthomul.multiply(mu, i, j))
print("j*i =", orthomul.multiply(mu, j, i))
print("i*i =", orthomul.multiply(mu, i, i))

# octonions are not associative: (e1*e2)*e4 != e1*(e2*e4)
oc = orthomul.standard_multiplication(8)
e = np.eye(8)
left = orthomul.multiply(oc, orthomul.multiply(oc, e[1], e[2]), e[4])
right = orthomul.multiply(oc, e[1], orthomul.multiply(oc, e[2], e[4]))
print("octonion associator nonzero:", not np.allclose(left, right))

# norms multiply at random factor pairs
rng = np.random.default_rng(0)
x, y = rng.standard_normal(8), rng.standard_normal(8)
prod = orthomul.multiply(oc, x, y)
print(f"|mu(x,y)| = {np.linalg.norm(prod):.12f}")
print(f"|x| |y|   = {np.linalg.norm(x) * np.linalg.norm(y):.12f}")

# square multiplications and orthogonal tuples are the same data
os_ = orthomul.to_osystem(mu)
print(f"as an orthogonal tuple: {os_.n} members on R^{os_.m}")
back = orthomul.from_osystem(os_)
print("round trip identical:",
      all(np.array_equal(a, b) for a, b in zip(back.slices, mu.slices)))

# rectangular slices work too, checked by the same slice identities
rect = orthomul.verify_orthomul([np.array([[1.0], [0.0]])])
print(f"padding product: R^{rect.p} x R^{rect.q} -> R^{rect.n_out}, "
      f"mu(2, 3) = {orthomul.multiply(rect, [2.0], [3.0])}")

# measure reports the slice identities' worst residual instead of raising
rep = orthomul.measure(oc)
print(f"octonion slice residual {rep.max_defect:.3e}, exact: {rep.exact}")
bent = orthomul.OrthogonalMultiplication(p=2, q=2, n_out=2,
                                         slices=(np.eye(2), np.diag([1.0, -1.0])))
rep = orthomul.measure(bent)
print(f"(1, diag(1, -1)) preserves norms: {rep.norm_preserving} "
      f"(residual {rep.max_defect:.3e})")
