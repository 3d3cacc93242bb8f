"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and runs at desk scale; the conftest summary
hook prints one PASS/FAIL line per criterion after the run.
"""

import itertools

import numpy as np
import pytest

from quadmorph import clifford, orthomul, osystem, qhm
from quadmorph.clifford import EquivalenceStatus
from quadmorph.core import random_orthogonal, rel_residual, sample_points, to_float
from quadmorph.errors import VerificationError

from conftest import eight_dim_triple

SIGMA_TABLE = (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9)
MIN_DIM_TABLE = (1, 2, 4, 4, 8, 8, 8, 8)


def test_criterion_01_member_bound_table():
    for m, expected in enumerate(SIGMA_TABLE, start=1):
        assert osystem.hurwitz_radon(m).sigma == expected


def test_criterion_02_minimal_dimension_table():
    for n, expected in enumerate(MIN_DIM_TABLE, start=1):
        assert clifford.minimal_domain_dimension(n) == expected
    assert clifford.minimal_domain_dimension(9) == 16
    assert clifford.minimal_domain_dimension(10) == 32


def test_criterion_03_two_scale_golden_example():
    mats = eight_dim_triple()
    phi = qhm.verify_qhm(mats)  # exact mode: identities hold bit for bit
    assert all(c.dtype == np.int64 for c in phi.components)
    report = qhm.classify(phi)
    assert report.q_rank == 8
    assert report.positive_eigenvalues == pytest.approx((3.0, 3.0, 2.0, 2.0), abs=1e-12)
    assert not report.is_umbilical
    assert [lam for lam, _ in report.splitting] == pytest.approx([3.0, 2.0], abs=1e-12)
    rep = qhm.single_function_representation(phi)
    assert rep.scales == pytest.approx((3.0, 2.0), abs=1e-12)
    assert rep.block_sizes == (2, 2)
    assert sorted(np.diag(rep.matrix)) == pytest.approx([-3, -3, -2, -2, 2, 2, 3, 3])
    X = sample_points(8, 100, 0)
    for a, t in zip(phi.components, rep.transforms):
        direct = np.einsum("pi,ij,pj->p", X, to_float(a), X)
        via_f = np.einsum("pi,ij,pj->p", X @ t.T, rep.matrix, X @ t.T)
        assert np.max(np.abs(direct - via_f)) <= 1e-9 * max(1.0, np.max(np.abs(direct)))


def test_criterion_04_correspondence_round_trips():
    for m in range(1, 17):
        os_ = osystem.construct_range_maximal(m)
        back = osystem.from_clifford(osystem.to_clifford(os_))
        assert back.n == os_.n
        assert all(np.array_equal(a, b) for a, b in zip(back.matrices, os_.matrices))
    for n in range(1, 9):
        cs = clifford.construct_irreducible(n)
        assert cs.two_m <= 16
        rebuilt = osystem.to_clifford(osystem.from_clifford(cs))
        verdict = clifford.algebraically_equivalent(cs, rebuilt)
        assert verdict.status is EquivalenceStatus.EQUIVALENT, verdict.reason
        cert = verdict.certificate
        resid = max(rel_residual(cert @ to_float(p) @ cert.T, to_float(q))
                    for p, q in zip(cs.matrices, rebuilt.matrices))
        assert resid < 1e-8


def test_criterion_05_existence_sweep():
    for n in range(1, 10):
        phi = qhm.from_clifford(clifford.construct_irreducible(n))
        assert phi.m == 2 * clifford.minimal_domain_dimension(n)
        assert phi.n == n + 1
        eye = np.eye(phi.m, dtype=np.int64)
        for a in phi.components:
            assert np.array_equal(a @ a, eye)  # positive eigenvalue exactly 1
        report = qhm.classify(phi)
        assert report.is_umbilical
        assert report.positive_eigenvalues == pytest.approx((1.0,) * (phi.m // 2), abs=1e-12)
    for m in (1, 2, 4, 8, 16):
        os_ = osystem.construct_range_maximal(m)
        assert os_.n == osystem.hurwitz_radon(m).sigma
        eye2 = 2 * np.eye(m, dtype=np.int64)
        for i, a in enumerate(os_.matrices):
            for j, b in enumerate(os_.matrices):
                target = eye2 if i == j else 0 * eye2
                assert np.array_equal(a.T @ b + b.T @ a, target)


def test_criterion_06_odd_dimension_obstruction():
    false_accepts = 0
    for m in (3, 5, 7):
        for trial in range(1000):
            pair = [random_orthogonal(m, 10_000 * m + 2 * trial),
                    random_orthogonal(m, 10_000 * m + 2 * trial + 1)]
            try:
                osystem.verify_osystem(pair)
                false_accepts += 1
            except VerificationError:
                pass
    assert false_accepts == 0


def test_criterion_07_normal_form_and_splitting_sweep():
    bases = {n: qhm.from_clifford(clifford.construct_irreducible(n)) for n in (1, 2, 3, 4)}
    scale_pool = (1, 2, 3, 5)
    for trial in range(200):
        rng = np.random.default_rng(trial)
        base = bases[int(rng.integers(1, 5))]
        lam1 = int(scale_pool[rng.integers(4)])
        lam2 = int(scale_pool[rng.integers(4)])
        summed = qhm.direct_sum(qhm.scale(base, lam1), qhm.scale(base, lam2))
        g = random_orthogonal(summed.m, 40_000 + trial)
        phi = qhm.verify_qhm([g.T @ to_float(a) @ g for a in summed.components])
        nf = qhm.normal_form(phi)
        d_mat = to_float(nf.D)
        d_sq = d_mat @ d_mat
        for i, b in enumerate(nf.B):
            bf = to_float(b)
            assert rel_residual(d_mat @ bf, bf @ d_mat) <= 1e-8
            assert rel_residual(bf.T @ bf, d_sq) <= 1e-8
            for c in nf.B[i + 1:]:
                cf = to_float(c)
                anti = bf.T @ cf + cf.T @ bf
                assert np.max(np.abs(anti)) <= 1e-8 * max(1.0, np.max(np.abs(d_sq)))
        report = qhm.classify(phi)
        if lam1 == lam2:
            expected = [(float(lam1), 2 * base.m)]
        else:
            hi, lo = max(lam1, lam2), min(lam1, lam2)
            expected = [(float(hi), base.m), (float(lo), base.m)]
        got = [(lam, s.m) for lam, s in report.splitting]
        assert len(got) == len(expected), f"trial {trial}"
        for (lam_g, m_g), (lam_e, m_e) in zip(got, expected):
            assert abs(lam_g - lam_e) <= 1e-8 and m_g == m_e, f"trial {trial}"


def test_criterion_08_hopf_maps_and_quaternion_extension():
    for n in (1, 2, 4, 8):
        phi = orthomul.hopf_construction(orthomul.standard_multiplication(n))
        assert all(c.dtype == np.int64 for c in phi.components)
        rep = qhm.sphere_restriction_check(phi)
        assert rep.holds and abs(rep.radius - 1.0) <= 1e-12
        assert rep.max_defect <= 1e-12
    hopf4 = orthomul.hopf_construction(orthomul.standard_multiplication(4))
    quaternion_map = qhm.verify_qhm(hopf4.components[1:])  # R^8 -> R^4
    extended = qhm.range_extend(quaternion_map)
    assert extended.n == 5
    report = qhm.classify(extended)
    hopf_report = qhm.classify(hopf4)
    assert report.q_rank == hopf_report.q_rank == 8
    assert report.is_umbilical and hopf_report.is_umbilical
    assert max(abs(v - 1.0) for v in report.positive_eigenvalues) <= 1e-12


def test_criterion_09_isoparametric_sample_check():
    for m in (1, 2, 4, 8):
        f = np.diag([1.0] * m + [-1.0] * m)
        rep = qhm.verify_isoparametric(f)
        assert rep.holds
        assert rep.max_gradient_defect <= 1e-10
        assert rep.max_laplacian_defect <= 1e-10
        assert rep.laplacian_coefficient == 0.0


def test_criterion_10_sign_class_counting():
    for n in range(1, 13):
        for k in range(1, 6):
            expected = 2 ** (k - 1) if n % 4 == 0 else 1
            assert qhm.count_biequivalence_classes(n, k) == expected
    # enumeration: sign patterns of k summands modulo one global flip
    for k in range(1, 5):
        patterns = set()
        for signs in itertools.product((1, -1), repeat=k):
            canonical = signs if signs[0] == 1 else tuple(-s for s in signs)
            patterns.add(canonical)
        assert len(patterns) == qhm.count_biequivalence_classes(4, k)
    # the dichotomy behind it: flipping one member changes the class exactly
    # when the member count is 1 mod 4
    def flip_last(cs):
        mats = list(cs.matrices[:-1]) + [-cs.matrices[-1]]
        return clifford.verify_clifford(mats)

    four = clifford.construct_irreducible(3)
    verdict = clifford.algebraically_equivalent(four, flip_last(four))
    assert verdict.status is EquivalenceStatus.EQUIVALENT
    five = clifford.construct_irreducible(4)
    verdict = clifford.algebraically_equivalent(five, flip_last(five))
    assert verdict.status is EquivalenceStatus.NOT_EQUIVALENT
