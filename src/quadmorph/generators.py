"""The Radon-Hurwitz number sigma(m) with its closed-form inverse, and the
integer generator families behind the existence constructions.

Every family here is exact int64 with entries in {0, +1, -1}.

Division-algebra products come from Cayley-Dickson doubling with the
convention (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)) and conjugation
(a,b)* = (a*, -b).  The product of two basis units is a signed unit; one
table of those signs and indices, built by applying the rule to the units
of each half, gives every left multiplication by a unit as a signed
permutation matrix; the tests check that table against the general product
of coefficient tuples.

The maximal families of mutually anticommuting skew orthogonal matrices
follow the classical period-8 pattern: complex, quaternion and octonion
left multiplications up to dimension 8, then a fixed 16-dimensional
doubling family combined, through its symmetric product element, with the
family four steps down the recursion, and finally a tensor with the
identity on the odd factor of the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ordered_product

__all__ = [
    "SigmaDecomposition",
    "hurwitz_radon",
    "minimal_domain_dimension",
    "left_multiplication_matrices",
    "skew_anticommuting_family",
]


@dataclass(frozen=True)
class SigmaDecomposition:
    """m = (2r+1) * 2^(c+4d) with 0 <= c <= 3; sigma = 2^c + 8d."""

    m: int
    r: int
    c: int
    d: int
    sigma: int


def hurwitz_radon(m: int) -> SigmaDecomposition:
    if m < 1:
        raise ValueError("m must be >= 1")
    odd, v = m, 0
    while odd % 2 == 0:
        odd //= 2
        v += 1
    c, d = v % 4, v // 4
    return SigmaDecomposition(m=m, r=(odd - 1) // 2, c=c, d=d, sigma=2**c + 8 * d)


def minimal_domain_dimension(n: int) -> int:
    """Smallest m with sigma(m) >= n, where an irreducible Clifford system with
    n+1 members fits in 2m.  sigma(m) reads the 2-adic part of m alone and
    sigma(2^(4a+c)) = 2^c + 8a, so n - 1 = 8a + r (0 <= r < 8) needs 2^c > r."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, r = divmod(n - 1, 8)
    return 2 ** (4 * a + r.bit_length())


def _unit_table(dim: int):
    """Index and sign of every unit product: e_i * e_j = sgn[i, j] e_idx[i, j].

    Built by doubling from the one-dimensional table.  Writing the units of
    the doubled algebra as (e_i, 0) and (0, e_i), the product rule and
    conj(e_j) = c_j e_j (c_0 = 1, else -1) give

        (e_i, 0)(e_j, 0) = (e_i e_j, 0)        (e_i, 0)(0, e_j) = (0, e_j e_i)
        (0, e_i)(e_j, 0) = (0, c_j e_i e_j)    (0, e_i)(0, e_j) = (-c_j e_j e_i, 0)
    """
    idx = np.zeros((dim, dim), dtype=np.intp)
    sgn = np.ones((dim, dim), dtype=np.int64)
    h = 1
    while h < dim:
        T, S = idx[:h, :h], sgn[:h, :h]
        conj = np.full(h, -1, dtype=np.int64)
        conj[0] = 1
        idx[:h, h:2 * h] = T.T + h
        idx[h:2 * h, :h] = T + h
        idx[h:2 * h, h:2 * h] = T.T
        sgn[:h, h:2 * h] = S.T
        sgn[h:2 * h, :h] = S * conj
        sgn[h:2 * h, h:2 * h] = -S.T * conj
        h *= 2
    return idx, sgn


def left_multiplication_matrices(dim: int) -> list:
    """Matrices of y -> e_i * y in the dim-dimensional Cayley-Dickson algebra
    for every unit e_0, ..., e_(dim-1), from one unit table."""
    if dim not in (1, 2, 4, 8):
        raise ValueError("dim must be one of 1, 2, 4, 8")
    idx, sgn = _unit_table(dim)
    mats = []
    for i in range(dim):
        M = np.zeros((dim, dim), dtype=np.int64)
        M[idx[i], np.arange(dim)] = sgn[i]
        mats.append(M)
    return mats


def _doubling_family_16():
    """Eight anticommuting skew orthogonal 16x16 matrices, plus their product.

    Members 1..7 pair an imaginary octonion left multiplication across the
    two 8-dimensional halves; member 8 is the plain rotation between halves.
    The ordered product of all eight is symmetric, orthogonal, squares to the
    identity and anticommutes with every member, which is what lets the
    recursion restart four steps down.
    """
    eye8 = np.eye(8, dtype=np.int64)
    members = []
    for block in left_multiplication_matrices(8)[1:]:
        K = np.zeros((16, 16), dtype=np.int64)
        K[:8, 8:] = block
        K[8:, :8] = block
        members.append(K)
    last = np.zeros((16, 16), dtype=np.int64)
    last[:8, 8:] = -eye8
    last[8:, :8] = eye8
    members.append(last)
    return members, ordered_product(members)


def _skew_family_power_of_two(v: int):
    if v == 0:
        return []
    if v < 4:  # the imaginary units of the complexes, quaternions, octonions
        return left_multiplication_matrices(2 ** v)[1:]
    members, product = _doubling_family_16()
    scale = 2 ** (v - 4)
    eye_scale = np.eye(scale, dtype=np.int64)
    family = [np.kron(K, eye_scale) for K in members]
    family += [np.kron(product, A) for A in _skew_family_power_of_two(v - 4)]
    return family


def skew_anticommuting_family(m: int):
    """Maximal family of skew orthogonal mutually anticommuting m x m matrices.

    The family has sigma(m) - 1 members with entries in {0, +1, -1}; together
    with the identity it forms a maximal orthogonal anticommuting system.
    """
    d = hurwitz_radon(m)
    eye_odd = np.eye(2 * d.r + 1, dtype=np.int64)
    return [np.kron(J, eye_odd) for J in _skew_family_power_of_two(d.c + 4 * d.d)]
