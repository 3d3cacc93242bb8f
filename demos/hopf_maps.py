"""The doubled maps (|x|^2 - |y|^2, 2 mu(x,y)): quadratic harmonic morphisms
that restrict to sphere fibrations."""

import numpy as np

from quadmorph import orthomul, qhm

for n in (1, 2, 4, 8):
    phi = orthomul.hopf_construction(orthomul.standard_multiplication(n))
    sphere = qhm.sphere_restriction_check(phi)
    print(f"n={n}: map R^{phi.m} -> R^{phi.n}, "
          f"unit sphere -> sphere of radius {sphere.radius:g}: {sphere.holds}")

# without its last component the map sends some unit vector to 0
cut = qhm.sphere_restriction_check(qhm.verify_qhm(phi.components[:-1]))
print(f"R^16 -> R^8: spheres to spheres {cut.holds}, defect {cut.max_defect:g}")

# the n=1 case is just z^2 on the complex plane
z2 = orthomul.hopf_construction(orthomul.standard_multiplication(1))
for z in ([1, 0], [0, 1], [1, 1], [3, 4]):
    print(f"  phi({z}) = {qhm.evaluate(z2, z)}")

# every component is harmonic and the gradients stay conformal, which the
# finite-difference oracle confirms independently of the matrix identities
phi = orthomul.hopf_construction(orthomul.standard_multiplication(4))
report = qhm.sampled_check(phi.components, samples=500, seed=9)
print(f"sampled check: harmonic defect {report.max_harmonic_defect:.2e}, "
      f"gradient orthogonality defect {report.max_offdiagonal_defect:.2e}")

# evaluation agrees with the multiplication it was built from
mu = orthomul.standard_multiplication(4)
rng = np.random.default_rng(4)
x, y = rng.standard_normal(4), rng.standard_normal(4)
vals = qhm.evaluate(phi, np.concatenate([x, y]))
print("first component:", vals[0], "=", x @ x - y @ y)
print("rest:           ", vals[1:])
print("2 mu(x,y):      ", 2 * orthomul.multiply(mu, x, y))
