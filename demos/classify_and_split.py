"""A two-scale map on R^8: verification, spectrum, block normal form, the
single quadratic function behind all components (also with a kernel), and
the splitting."""

import numpy as np

from quadmorph import qhm
from quadmorph.core import sample_points, to_float

# phi(X) = (2x1^2+2x2^2+3x3^2+3x4^2-2x5^2-2x6^2-3x7^2-3x8^2,
#           4x1x5+4x2x6+6x3x8-6x4x7,
#          -4x1x6+4x2x5+6x3x7+6x4x8)
a1 = np.diag([2, 2, 3, 3, -2, -2, -3, -3]).astype(np.int64)
a2 = np.zeros((8, 8), dtype=np.int64)
for i, j, v in [(0, 4, 2), (1, 5, 2), (2, 7, 3), (3, 6, -3)]:
    a2[i, j] = a2[j, i] = v
a3 = np.zeros((8, 8), dtype=np.int64)
for i, j, v in [(0, 5, -2), (1, 4, 2), (2, 6, 3), (3, 7, 3)]:
    a3[i, j] = a3[j, i] = v

phi = qhm.verify_qhm([a1, a2, a3])
print(f"verified: {phi.n} components on R^{phi.m} (exact integer mode)")

report = qhm.classify(phi)
print(f"rank {report.q_rank}, positive eigenvalues {report.positive_eigenvalues}")
print(f"umbilical: {report.is_umbilical}")
print("splitting:", [(lam, s.m) for lam, s in report.splitting])

# normal form: G A1 G^T = diag(D, -D), later components pushed off-diagonal
nf = qhm.normal_form(phi)
print("D =", np.diag(to_float(nf.D)))
rebuilt = qhm.assemble_normal_form(nf)
print("reassembly residual:",
      max(np.max(np.abs(r - to_float(a))) for r, a in zip(rebuilt, phi.components)))

# every component is one function F composed with an orthogonal map
rep = qhm.single_function_representation(phi)
print(f"single function: scales {rep.scales}, block sizes {rep.block_sizes}")
X = sample_points(8, 5, seed=0)
for x in X:
    direct = qhm.evaluate(phi, x)
    via_f = [qhm.quadratic_form_value(rep.matrix, t @ x) for t in rep.transforms]
    assert np.allclose(direct, via_f)
print("phi^alpha(X) == F(G_alpha X) at sampled points")

# with two kernel directions appended, F gains two zero eigenvalues
padded = qhm.verify_qhm([np.pad(a, (0, 2)) for a in (a1, a2, a3)])
rep = qhm.single_function_representation(padded)
print("with a kernel: F = diag", np.diag(rep.matrix))
for x in sample_points(10, 5, seed=2):
    direct = qhm.evaluate(padded, x)
    via_f = [qhm.quadratic_form_value(rep.matrix, t @ x) for t in rep.transforms]
    assert np.allclose(direct, via_f)
print("phi^alpha(X) == F(G_alpha X) on R^10 at sampled points")

# the splitting reassembles the map from two unit-scale summands
Z = sample_points(8, 5, seed=1) @ to_float(report.split_change).T
for x, z in zip(sample_points(8, 5, seed=1), Z):
    total = np.zeros(3)
    offset = 0
    for lam, summand in report.splitting:
        total += lam * qhm.evaluate(summand, z[offset:offset + summand.m])
        offset += summand.m
    assert np.allclose(total, qhm.evaluate(phi, x))
print("phi == 3*(summand 1) + 2*(summand 2) in split coordinates")
