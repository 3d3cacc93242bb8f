import numpy as np
import pytest

from quadmorph import clifford, osystem
from quadmorph.clifford import EquivalenceStatus
from quadmorph.core import identity_matrix, random_orthogonal, rel_residual, to_float
from quadmorph.errors import (
    AnticommutationViolated,
    ArityMismatch,
    NotSymmetric,
    OddDimension,
    RankMismatch,
    ShapeMismatch,
    UnbalancedEigenspaces,
    VerificationError,
)

from conftest import leaky_pair


@pytest.fixture(scope="module")
def c85():
    return clifford.construct_irreducible(4)


@pytest.fixture(scope="module")
def c85_flipped(c85):
    mats = [P.copy() for P in c85.matrices[:-1]] + [-c85.matrices[-1]]
    return clifford.verify_clifford(mats)


class TestVerify:
    def test_accepts_constructed_systems_exactly(self):
        for n in range(1, 10):
            cs = clifford.construct_irreducible(n)
            again = clifford.verify_clifford([P.copy() for P in cs.matrices])
            assert again.n == n + 1
            assert again.matrices[0].dtype == np.int64

    def test_rejects_odd_dimension(self):
        with pytest.raises(OddDimension):
            clifford.verify_clifford([np.eye(3, dtype=np.int64)])

    def test_rejects_non_symmetric(self):
        bad = np.array([[0, 1], [-1, 0]], dtype=np.int64)
        with pytest.raises(NotSymmetric) as err:
            clifford.verify_clifford([bad])
        assert err.value.index == 1

    def test_rejects_non_involution(self):
        with pytest.raises(AnticommutationViolated):
            clifford.verify_clifford([2 * np.eye(2, dtype=np.int64)])

    def test_rejects_commuting_pair(self):
        a = np.diag([1, 1, -1, -1]).astype(np.int64)
        b = np.diag([1, -1, 1, -1]).astype(np.int64)
        with pytest.raises(AnticommutationViolated) as err:
            clifford.verify_clifford([a, b])
        assert (err.value.i, err.value.j) == (1, 2)

    def test_float_tolerance_boundary(self, c85):
        floats = [to_float(P) for P in c85.matrices]
        floats[2] = floats[2] + 1e-12
        clifford.verify_clifford(floats)  # within identity_tol
        floats[2] = floats[2] + 1e-3
        with pytest.raises((AnticommutationViolated, NotSymmetric)):
            clifford.verify_clifford(floats)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ShapeMismatch):
            clifford.verify_clifford([np.eye(2, dtype=np.int64), np.eye(4, dtype=np.int64)])


class TestConstruction:
    def test_minimal_dimension_table(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 16, 10: 32,
                    11: 64, 12: 64, 16: 128, 17: 256}
        for n, m in expected.items():
            assert clifford.minimal_domain_dimension(n) == m

    def test_minimal_dimension_is_least_with_enough_members(self):
        for n in range(1, 12):
            m = clifford.minimal_domain_dimension(n)
            assert osystem.hurwitz_radon(m).sigma >= n
            for smaller in range(1, m):
                assert osystem.hurwitz_radon(smaller).sigma < n

    def test_constructed_shape_and_exactness(self):
        for n in (1, 4, 9):
            cs = clifford.construct_irreducible(n)
            assert cs.n == n + 1
            assert cs.two_m == 2 * clifford.minimal_domain_dimension(n)
            assert all(P.dtype == np.int64 for P in cs.matrices)

    def test_irreducibility_sweep(self):
        for n in range(1, 10):
            assert clifford.is_irreducible(clifford.construct_irreducible(n))

    def test_direct_sum_requires_matching_arity(self, c85):
        c22 = clifford.construct_irreducible(1)
        with pytest.raises(ArityMismatch):
            clifford.direct_sum(c85, c22)

    def test_direct_sum_is_reducible(self, c85):
        ds = clifford.direct_sum(c85, c85)
        assert ds.two_m == 16
        assert not clifford.is_irreducible(ds)


class TestStandardRepresentation:
    def test_exact_passthrough(self, c85):
        coords, os_ = clifford.to_standard_representation(c85)
        assert coords.dtype == np.int64
        assert np.array_equal(coords, identity_matrix(8))
        assert os_.matrices[0].dtype == np.int64

    def test_float_path_reconstructs_members(self, c85):
        g = random_orthogonal(8, 21)
        conj = clifford.verify_clifford([g @ to_float(P) @ g.T for P in c85.matrices])
        coords, os_ = clifford.to_standard_representation(conj)
        m = 4
        for P, tau in zip(conj.matrices[1:], os_.matrices):
            block = np.zeros((8, 8))
            block[:m, m:] = tau
            block[m:, :m] = tau.T
            assert rel_residual(coords @ P @ coords.T, block) < 1e-9
        first = np.diag([1.0] * m + [-1.0] * m)
        assert rel_residual(coords @ conj.matrices[0] @ coords.T, first) < 1e-9

    def test_dropped_diagonal_blocks_are_bounded(self):
        cs = clifford.CliffordSystem(two_m=4, n=2, matrices=leaky_pair())  # deliberately unverified
        with pytest.raises(AnticommutationViolated) as err:
            clifford.to_standard_representation(cs)
        assert (err.value.i, err.value.j) == (1, 2)
        assert err.value.residual == pytest.approx(1e-3, rel=1e-6)

    def test_uneven_sign_split_is_unbalanced_and_a_rank_mismatch(self):
        second = np.zeros((4, 4), dtype=np.int64)
        second[0, 3] = second[3, 0] = 1
        mats = (np.diag([1, 1, 1, -1]).astype(np.int64), second)
        cs = clifford.CliffordSystem(two_m=4, n=2, matrices=mats)  # deliberately unverified
        with pytest.raises(UnbalancedEigenspaces, match="split 3/1"):
            clifford.to_standard_representation(cs)
        assert issubclass(UnbalancedEigenspaces, RankMismatch)

    def test_single_member_is_rejected(self):
        cs = clifford.verify_clifford([np.diag([1, -1]).astype(np.int64)])
        with pytest.raises(ValueError):
            clifford.to_standard_representation(cs)


class TestCommutant:
    def test_irreducible_has_scalar_commutant(self, c85):
        assert clifford.symmetric_commutant_dimension(c85.matrices) == 1

    def test_direct_sum_commutants_detect_class_mix(self, c85, c85_flipped):
        same = clifford.direct_sum(c85, c85)
        mixed = clifford.direct_sum(c85, c85_flipped)
        assert clifford.symmetric_commutant_dimension(same.matrices) == 6
        assert clifford.symmetric_commutant_dimension(mixed.matrices) == 2

    def test_float_and_exact_paths_agree(self, c85):
        exact = clifford.symmetric_commutant_dimension(c85.matrices)
        floats = clifford.symmetric_commutant_dimension([to_float(P) for P in c85.matrices])
        assert exact == floats == 1

    def test_two_summand_split_system(self):
        c22 = clifford.construct_irreducible(1)
        ds = clifford.direct_sum(c22, c22)
        assert clifford.symmetric_commutant_dimension(ds.matrices) == 3


def commutant_nullity(mats) -> int:
    """Reference count: the nullity, by singular values, of the linear map
    S -> (S P_i - P_i S)_i on the symmetric matrices S."""
    size = mats[0].shape[0]
    members = [to_float(P) for P in mats]
    columns = []
    for i in range(size):
        for j in range(i, size):
            E = np.zeros((size, size))
            E[i, j] = E[j, i] = 1.0
            columns.append(np.concatenate([(E @ P - P @ E).ravel() for P in members]))
    s = np.linalg.svd(np.column_stack(columns), compute_uv=False)
    return len(columns) - int(np.sum(s > 1e-9 * s[0]))


def with_last_negated(cs):
    return clifford.verify_clifford(list(cs.matrices[:-1]) + [-cs.matrices[-1]])


def commutant_cases():
    irreducible = {n: clifford.construct_irreducible(n) for n in range(1, 8)}
    cases = {f"irreducible-{n}": cs for n, cs in irreducible.items()}
    for n in range(1, 5):  # the doubles that stay within two_m = 16
        cases[f"double-{n}"] = clifford.direct_sum(irreducible[n], irreducible[n])
    cases["mixed-4"] = clifford.direct_sum(irreducible[4], with_last_negated(irreducible[4]))
    c2 = irreducible[2]
    cases["triple-2"] = clifford.direct_sum(clifford.direct_sum(c2, with_last_negated(c2)), c2)
    return cases


COMMUTANT_CASES = commutant_cases()


@pytest.mark.parametrize("name", sorted(COMMUTANT_CASES))
def test_commutant_formula_matches_the_nullity(name):
    cs = COMMUTANT_CASES[name]
    g = random_orthogonal(cs.two_m, 31)
    conj = [g @ to_float(P) @ g.T for P in cs.matrices]
    reference = commutant_nullity(cs.matrices)
    assert commutant_nullity(conj) == reference
    assert clifford.symmetric_commutant_dimension(cs.matrices) == reference
    assert clifford.symmetric_commutant_dimension(conj) == reference
    assert clifford.is_irreducible(cs) == (reference == 1) == name.startswith("irreducible")


def test_commutant_requires_a_clifford_system():
    a = np.diag([1, 1, -1, -1]).astype(np.int64)
    b = np.diag([1, -1, 1, -1]).astype(np.int64)
    with pytest.raises(VerificationError):
        clifford.symmetric_commutant_dimension([a, b])
    with pytest.raises(VerificationError):
        clifford.symmetric_commutant_dimension([2 * a])


class TestEquivalence:
    def test_conjugated_copies_are_equivalent_with_certificate(self, c85):
        for seed in range(10):
            g = random_orthogonal(8, 50 + seed)
            conj = clifford.verify_clifford([g @ to_float(P) @ g.T for P in c85.matrices])
            verdict = clifford.algebraically_equivalent(c85, conj, seed=seed)
            assert verdict.status is EquivalenceStatus.EQUIVALENT
            worst = max(rel_residual(verdict.certificate @ to_float(P) @ verdict.certificate.T,
                                     to_float(Q))
                        for P, Q in zip(c85.matrices, conj.matrices))
            assert worst < 1e-8

    def test_sign_classes_are_distinguished(self, c85, c85_flipped):
        verdict = clifford.algebraically_equivalent(c85, c85_flipped)
        assert verdict.status is EquivalenceStatus.NOT_EQUIVALENT
        assert "trace" in verdict.reason

    def test_mixed_direct_sums_are_distinguished(self, c85, c85_flipped):
        same = clifford.direct_sum(c85, c85)
        mixed = clifford.direct_sum(c85, c85_flipped)
        verdict = clifford.algebraically_equivalent(same, mixed)
        assert verdict.status is EquivalenceStatus.NOT_EQUIVALENT
        assert "commutant" in verdict.reason

    def test_one_member_opposite_blocks(self):
        a = clifford.verify_clifford([np.diag([1, -1]).astype(np.int64)])
        b = clifford.verify_clifford([np.diag([-1, 1]).astype(np.int64)])
        verdict = clifford.algebraically_equivalent(a, b)
        assert verdict.status is EquivalenceStatus.EQUIVALENT

    def test_two_member_sign_flip_is_equivalent(self):
        taus_pos = osystem.verify_osystem([np.eye(1, dtype=np.int64)])
        taus_neg = osystem.verify_osystem([-np.eye(1, dtype=np.int64)])
        a = osystem.to_clifford(taus_pos)
        b = osystem.to_clifford(taus_neg)
        verdict = clifford.algebraically_equivalent(a, b)
        assert verdict.status is EquivalenceStatus.EQUIVALENT

    def test_shape_mismatch_raises(self, c85):
        c22 = clifford.construct_irreducible(1)
        with pytest.raises(ShapeMismatch):
            clifford.algebraically_equivalent(c85, c22)

    def test_direct_sum_association_is_equivalence(self):
        c22 = clifford.construct_irreducible(1)
        left = clifford.direct_sum(clifford.direct_sum(c22, c22), c22)
        right = clifford.direct_sum(c22, clifford.direct_sum(c22, c22))
        verdict = clifford.algebraically_equivalent(left, right)
        assert verdict.status is EquivalenceStatus.EQUIVALENT


@pytest.mark.parametrize("n, negate_last, status", [
    (11, False, EquivalenceStatus.EQUIVALENT),
    (12, True, EquivalenceStatus.NOT_EQUIVALENT),
])
def test_equivalence_is_decided_at_two_m_128(n, negate_last, status):
    cs = clifford.construct_irreducible(n)
    assert cs.two_m == 128
    mats = [to_float(P) for P in cs.matrices]
    if negate_last:
        mats[-1] = -mats[-1]
    g = random_orthogonal(cs.two_m, 60 + n)
    conj = clifford.verify_clifford([g @ P @ g.T for P in mats])
    verdict = clifford.algebraically_equivalent(cs, conj, seed=n)
    assert verdict.status is status
    if status is EquivalenceStatus.EQUIVALENT:
        R = verdict.certificate
        worst = max(rel_residual(R @ to_float(P) @ R.T, Q)
                    for P, Q in zip(cs.matrices, conj.matrices))
        assert worst <= 1e-8
        again = clifford.algebraically_equivalent(cs, conj, seed=n)
        assert np.array_equal(again.certificate, R)
    assert clifford.is_irreducible(cs) and clifford.is_irreducible(conj)


def test_intertwiner_rejects_mismatched_lists():
    with pytest.raises(ValueError):
        clifford.find_orthogonal_intertwiner([], [])
    with pytest.raises(ValueError):
        clifford.find_orthogonal_intertwiner([np.eye(2)], [])
