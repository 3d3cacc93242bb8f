import re

import numpy as np
import pytest

from quadmorph import clifford, core, osystem, qhm
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

from conftest import count_calls, diagonal_first_systems, leaky_pair


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
        clifford.verify_clifford(floats)  # within IDENTITY_TOL
        floats[2] = floats[2] + 1e-3
        with pytest.raises((AnticommutationViolated, NotSymmetric)):
            clifford.verify_clifford(floats)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ShapeMismatch):
            clifford.verify_clifford([np.eye(2, dtype=np.int64), np.eye(4, dtype=np.int64)])


class TestConstruction:
    def test_minimal_dimension_table(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 16, 10: 32,
                    11: 64, 12: 64, 16: 128, 17: 256, 10**6: 2**499999}
        for n, m in expected.items():
            assert clifford.minimal_domain_dimension(n) == m

    def test_minimal_dimension_is_least_with_enough_members(self):
        for n in range(1, 65):
            m = clifford.minimal_domain_dimension(n)
            assert osystem.hurwitz_radon(m).sigma >= n
            # every smaller k up to 2^12; past that (m reaches 2^31 at n = 64)
            # the powers of two below m, since sigma(k) reads k's 2-adic part
            below = range(1, m) if m <= 2**12 else [2**v for v in range(m.bit_length() - 1)]
            for smaller in below:
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

    @pytest.mark.parametrize("n", [1, 5, 11])
    def test_construction_checks_its_family_once_at_half_size(self, n, monkeypatch):
        relations = count_calls(monkeypatch, core, "pairwise_relation")
        halves = count_calls(monkeypatch, osystem, "verify_osystem")
        doubled = count_calls(monkeypatch, clifford, "verify_clifford")
        cs = clifford.construct_irreducible(n)
        assert len(relations) == 1 and doubled == []
        [(members, *_)] = halves
        assert [M.shape for M in members] == [(cs.two_m // 2,) * 2] * n

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

    def test_the_first_member_must_be_an_involution(self):
        # Stated change: eigenvalues +-2, or 3 and 1 against -1, -1, split
        # evenly by sign but break P_1^2 = I, which verify_clifford reports
        # as members 1 and 1; diag(3, 1, -1, -1) was a RankMismatch ("not
        # +/- pairs"), and diag(2, -2) passed through as A = I
        swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
        second = np.kron(swap, np.eye(2, dtype=np.int64))
        g = random_orthogonal(2, 3)
        for first, other, residual in (
                (np.diag([2, -2]).astype(np.int64), swap, 18 ** 0.5),
                (np.diag([2.0, -2.0]), to_float(swap), 3.0),
                (g @ np.diag([2.0, -2.0]) @ g.T, g @ to_float(swap) @ g.T, 3.0),
                (np.diag([3, 1, -1, -1]).astype(np.int64), second, 8.0)):
            cs = clifford.CliffordSystem(two_m=len(first), n=2,
                                         matrices=(first, other))  # deliberately unverified
            with pytest.raises(AnticommutationViolated, match="not \\+-1") as err:
                clifford.to_standard_representation(cs)
            assert (err.value.i, err.value.j) == (1, 1)
            assert err.value.residual == pytest.approx(residual, rel=1e-12)
            with pytest.raises(AnticommutationViolated) as verified:
                clifford.verify_clifford(cs.matrices)
            assert (verified.value.i, verified.value.j) == (1, 1)
            assert verified.value.residual == pytest.approx(residual, rel=1e-12)

    def test_single_member_is_rejected(self):
        cs = clifford.verify_clifford([np.diag([1, -1]).astype(np.int64)])
        with pytest.raises(ValueError):
            clifford.to_standard_representation(cs)

    @pytest.mark.slow
    def test_a_diagonal_first_member_splits_as_its_spectral_decomposition(self, monkeypatch):
        systems = diagonal_first_systems()
        assert len(systems) == 172
        for mats in systems:
            cs = clifford.verify_clifford(mats)
            sd = core.spectral_decompose(cs.matrices[0])
            ref_coords, _, taus, _ = core.eigenspace_split(cs.matrices, sd)
            reference = (ref_coords, *osystem.verify_osystem(taus).matrices)
            with monkeypatch.context() as mp:
                eigensolves = count_calls(mp, np.linalg, "eigh")
                coords, os_ = clifford.to_standard_representation(cs)
            assert eigensolves == []  # no eigensolve on a diagonal
            for got, want in zip((coords, *os_.matrices), reference, strict=True):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                                 want.tobytes())


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


def irreducibility_cases():
    """construct_irreducible(1..9), each also with its last member negated,
    the direct sums of those up to two_m 32, one triple sum, and every member
    prefix of all of them (duplicates kept once)."""
    bases = []
    for n in range(1, 10):
        cs = clifford.construct_irreducible(n)
        bases += [cs, with_last_negated(cs)]
    systems = list(bases)
    for i, a in enumerate(bases):
        for b in bases[i:]:
            if a.n == b.n and a.two_m + b.two_m <= 32:
                systems.append(clifford.direct_sum(a, b))
    c2 = bases[2]
    systems.append(clifford.direct_sum(clifford.direct_sum(c2, bases[3]), c2))
    seen, cases = set(), []
    for cs in systems:
        for k in range(1, cs.n + 1):
            key = b"".join(P.tobytes() for P in cs.matrices[:k])
            if key not in seen:
                seen.add(key)
                cases.append(clifford.verify_clifford(cs.matrices[:k]))
    return cases


def test_irreducibility_by_dimension_matches_the_commutant():
    for idx, cs in enumerate(irreducibility_cases()):
        g = random_orthogonal(cs.two_m, idx)
        conj = clifford.verify_clifford([g @ to_float(P) @ g.T for P in cs.matrices])
        reference = clifford.symmetric_commutant_dimension(cs.matrices) == 1
        assert clifford.is_irreducible(cs) == clifford.is_irreducible(conj) == reference


def test_irreducibility_multiplies_no_product(monkeypatch):
    cs = clifford.construct_irreducible(9)
    traces = count_calls(monkeypatch, clifford, "_ordered_product_trace")
    assert clifford.is_irreducible(cs)
    assert len(traces) == 0


def object_product_trace(mats):
    """Trace of the ordered product multiplied in Python integers."""
    prod = mats[0].astype(object)
    for P in mats[1:]:
        prod = prod @ P.astype(object)
    return sum(np.diagonal(prod).tolist())


@pytest.mark.parametrize("n", [pytest.param(n, marks=pytest.mark.slow) if n == 13 else n
                               for n in range(1, 14)])
def test_ordered_product_trace_is_exact(n):
    mats = clifford.construct_irreducible(n).matrices
    trace = clifford._ordered_product_trace(mats)
    assert type(trace) is float and trace == object_product_trace(mats)


def test_ordered_product_trace_does_not_wrap_around():
    # int64 reads (2^31 I)^5 = 2^155 I as 0; five members, since the product
    # is formed only for n = 1 (mod 4)
    big = 2**31 * np.eye(2, dtype=np.int64)
    assert clifford._ordered_product_trace([big] * 5) == 2.0**156


def test_ordered_product_traces_vanish_unless_n_is_1_mod_4():
    # the theorem behind _ordered_product_trace's closed form, on exact systems
    # and on seeded float conjugates of them
    for idx, cs in enumerate(irreducibility_cases()):
        g = random_orthogonal(cs.two_m, idx)
        conj = [g @ to_float(P) @ g.T for P in cs.matrices]
        exact_trace = sum(np.diagonal(core.ordered_product(cs.matrices)).tolist())
        float_trace = float(np.trace(core.ordered_product(conj)))
        if cs.n % 4 != 1:
            assert exact_trace == 0
            assert abs(float_trace) <= 1e-9 * cs.two_m
            assert clifford._ordered_product_trace(cs.matrices) == 0.0
            assert clifford._ordered_product_trace(conj) == 0.0
        else:
            assert clifford._ordered_product_trace(cs.matrices) == exact_trace
            assert clifford._ordered_product_trace(conj) == float_trace


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
        assert verdict.certificate is None
        # symmetric commutant dimensions 6 vs 2 (TestCommutant), decided by the traces
        assert verdict.reason == "ordered product traces differ (-16 vs 0)"

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


def test_equivalence_is_certified_once_at_the_callers_tol():
    # a seeded conjugate plus symmetric noise (E + E^T) / 2 of size ~3e-8
    cs = clifford.construct_irreducible(3)
    g = random_orthogonal(8, 7)
    E = 3e-8 * np.random.default_rng(3).standard_normal((cs.n, 8, 8))
    noisy = [g @ to_float(P) @ g.T + (e + e.T) / 2 for P, e in zip(cs.matrices, E)]
    other = clifford.verify_clifford(noisy, tol=1e-6)
    loose = clifford.algebraically_equivalent(cs, other, tol=1e-6)
    assert loose.status is EquivalenceStatus.EQUIVALENT
    assert loose.reason == "projected onto the intertwiners; certificate residual 8.310e-08"
    R = loose.certificate
    assert np.max(np.abs(R @ R.T - np.eye(8))) < 1e-12
    # the same projection fails the default tol as the conjugation it is
    strict = clifford.algebraically_equivalent(cs, other)
    assert strict.status is EquivalenceStatus.UNKNOWN and strict.certificate is None
    assert strict.reason == "candidate conjugation failed verification (8.310e-08)"


def test_intertwiner_rejects_mismatched_lists():
    with pytest.raises(ValueError):
        clifford.find_orthogonal_intertwiner([], [])
    with pytest.raises(ValueError):
        clifford.find_orthogonal_intertwiner([np.eye(2)], [])
    with pytest.raises(ValueError):
        clifford.find_orthogonal_intertwiner(np.empty((0, 2, 2)), np.empty((0, 2, 2)))
    with pytest.raises(ValueError):
        clifford.find_orthogonal_intertwiner(np.eye(2)[None], np.empty((0, 2, 2)))


def test_intertwiner_refuses_members_of_different_sizes(c85):
    narrow, wide = c85.matrices, clifford.construct_irreducible(5).matrices[:5]
    assert narrow[0].shape == (8, 8) and wide[0].shape == (16, 16)
    for targets, sources in ((narrow, wide), (wide, narrow)):
        with pytest.raises(ShapeMismatch):
            clifford.find_orthogonal_intertwiner(targets, sources)
    with pytest.raises(ShapeMismatch):
        clifford.find_orthogonal_intertwiner([np.eye(2, 3)], [np.eye(2, 3)])


def test_intertwiner_refuses_a_ragged_member_list(c85):
    narrow, wide = c85.matrices[0], clifford.construct_irreducible(5).matrices[0]
    ragged, even = [narrow, wide], [narrow, narrow]
    for targets, sources in ((ragged, even), (even, ragged), (ragged, ragged)):
        with pytest.raises(ShapeMismatch, match="^targets and sources must be square matrices of one size$"):
            clifford.find_orthogonal_intertwiner(targets, sources)


@pytest.mark.parametrize("members", ["3", [1.0, 2.0], [[1.0, 0.0], [0.0, -1.0]]])
def test_intertwiner_refuses_members_of_too_few_axes(members):
    # "3" reads as a 0-D array, whose shape has no last axis to index
    with pytest.raises(ShapeMismatch, match="^targets and sources must be square matrices of one size$"):
        clifford.find_orthogonal_intertwiner(members, members)


def test_intertwiner_takes_member_stacks(c85):
    g = random_orthogonal(8, 5)
    sources = [to_float(P) for P in c85.matrices]
    targets = [g @ P @ g.T for P in sources]
    from_lists = clifford.find_orthogonal_intertwiner(targets, sources, seed=3)
    from_stacks = clifford.find_orthogonal_intertwiner(np.stack(targets), np.stack(sources), seed=3)
    from_exact = clifford.find_orthogonal_intertwiner(np.stack(targets), np.stack(c85.matrices),
                                                      seed=3)
    assert np.array_equal(from_stacks, from_lists) and np.array_equal(from_exact, from_lists)
    assert max(rel_residual(from_stacks @ P @ from_stacks.T, T)
               for P, T in zip(sources, targets)) < 1e-12


def reference_projection(targets, sources, seed=0):
    """The seeded projection onto the intertwiners, formula for formula the
    earlier find_orthogonal_intertwiner: one to_float per member and use,
    out of place, from a fresh generator."""
    m = sources[0].shape[0]
    X = np.random.default_rng(seed).standard_normal((m, m))
    for T, S in zip(targets, sources):
        X = (X + to_float(T) @ X @ to_float(S)) / 2
    return X


def svd_polar_factor(X):
    """The polar factor of the projection from its SVD, or None for a singular one."""
    u, s, vt = np.linalg.svd(X)
    return None if s[-1] <= 1e-10 * max(1.0, s[0]) else u @ vt


def reference_intertwiner(targets, sources, seed=0):
    """Reference intertwiner, formula for formula find_orthogonal_intertwiner:
    for irreducible sources X / sqrt(|X|^2 / m) and two Newton-Schulz steps,
    else the SVD polar factor."""
    X = reference_projection(targets, sources, seed)
    m, n = X.shape[0], len(sources)
    if not (n >= 2 and m == 2 * clifford.minimal_domain_dimension(n - 1)):
        return svd_polar_factor(X)
    root_c = np.sqrt(np.vdot(X, X) / m)
    if root_c <= 1e-10:
        return None
    R = X / root_c
    for _ in range(2):
        R = R @ (1.5 * np.eye(m) - 0.5 * (R.T @ R))
    return R


def reference_equivalence(a, b, tol=core.IDENTITY_TOL, seed=0):
    """Reference decision, formula for formula the earlier algebraically_equivalent:
    both product traces for every n, the reference projection and one
    rel_residual per member."""
    traces = []
    for mats in (a.matrices, b.matrices):
        prod = core.ordered_product(mats)
        traces.append(float(to_float(np.array(sum(np.diagonal(prod).tolist()))))
                      if core.is_exact(prod) else float(np.trace(prod)))
    trace_a, trace_b = traces
    if abs(trace_a - trace_b) > tol * max(1.0, abs(trace_a), abs(trace_b)):
        return (EquivalenceStatus.NOT_EQUIVALENT, None,
                f"ordered product traces differ ({trace_a:g} vs {trace_b:g})")
    R = reference_intertwiner(b.matrices, a.matrices, seed)
    if R is None:
        return EquivalenceStatus.UNKNOWN, None, "the projected intertwiner failed verification"
    worst = max(rel_residual(R @ to_float(P) @ R.T, to_float(Q))
                for P, Q in zip(a.matrices, b.matrices))
    if worst <= tol:
        return (EquivalenceStatus.EQUIVALENT, R,
                f"projected onto the intertwiners; certificate residual {worst:.3e}")
    return (EquivalenceStatus.UNKNOWN, None,
            f"candidate conjugation failed verification ({worst:.3e})")


def test_equivalence_is_bit_identical_to_the_reference_decision():
    decided = set()
    for n in range(3, 10):
        cs = clifford.construct_irreducible(n)
        flipped = with_last_negated(cs)
        for seed in range(3):
            def conj(system, salt):
                g = random_orthogonal(system.two_m, 100 * n + 10 * seed + salt)
                return clifford.verify_clifford([g @ to_float(P) @ g.T for P in system.matrices])
            pairs = [(cs, conj(cs, 0)), (cs, conj(flipped, 1)), (conj(cs, 2), conj(flipped, 3)),
                     (clifford.direct_sum(cs, cs), conj(clifford.direct_sum(cs, flipped), 4))]
            for a, b in pairs:
                verdict = clifford.algebraically_equivalent(a, b, seed=seed)
                status, certificate, reason = reference_equivalence(a, b, seed=seed)
                assert (verdict.status, verdict.reason) == (status, reason)
                if certificate is None:
                    assert verdict.certificate is None
                else:
                    assert np.array_equal(verdict.certificate, certificate)
                decided.add(status)
    assert decided == {EquivalenceStatus.EQUIVALENT, EquivalenceStatus.NOT_EQUIVALENT}


def test_range_extension_is_bit_identical_with_the_reference_projection(monkeypatch):
    maps = []
    for n in (3, 5, 6, 7):
        exact = clifford.construct_irreducible(n).matrices
        g = random_orthogonal(exact[0].shape[0], n)
        maps += [qhm.verify_qhm(exact), qhm.verify_qhm([g @ to_float(P) @ g.T for P in exact])]
    extended = [qhm.range_extend(phi, seed=n) for n, phi in enumerate(maps)]
    monkeypatch.setattr(clifford, "find_orthogonal_intertwiner", reference_intertwiner)
    for n, (phi, ours) in enumerate(zip(maps, extended)):
        theirs = qhm.range_extend(phi, seed=n)
        assert len(ours.components) == len(theirs.components) > phi.n
        assert all(np.array_equal(A, B) for A, B in zip(ours.components, theirs.components))


RESIDUAL = re.compile(r"-?\d\.\d{3}e[+-]\d\d")


@pytest.mark.parametrize("noise", [0.0, 1e-10, 3e-8])
def test_the_schur_certificate_is_the_svd_polar_factor(noise, monkeypatch):
    """Oracle for the closed form on irreducible systems: the certificate is
    the SVD polar factor of the same projection, and the decision is the SVD
    route's up to the rounding of the residual the reason quotes."""
    svd_route = []
    for n in range(2, 12):
        cs = clifford.construct_irreducible(n)
        m = cs.two_m
        g = random_orthogonal(m, 200 + n)
        E = noise * np.random.default_rng(n).standard_normal((cs.n, m, m))
        noisy = clifford.CliffordSystem(m, cs.n, tuple(g @ to_float(P) @ g.T + (e + e.T) / 2
                                                       for P, e in zip(cs.matrices, E)))
        R = clifford.find_orthogonal_intertwiner(noisy.matrices, cs.matrices, seed=n)
        polar = svd_polar_factor(reference_projection(noisy.matrices, cs.matrices, seed=n))
        assert np.max(np.abs(R - polar)) <= 1e-13
        assert np.max(np.abs(R @ R.T - np.eye(m))) <= 1e-13
        svd_route.append((cs, noisy, clifford.algebraically_equivalent(cs, noisy, seed=n)))
    monkeypatch.setattr(clifford, "find_orthogonal_intertwiner",
                        lambda t, s, seed=0: svd_polar_factor(reference_projection(t, s, seed)))
    for n, (cs, noisy, ours) in enumerate(svd_route, start=2):
        theirs = clifford.algebraically_equivalent(cs, noisy, seed=n)
        assert ours.status is theirs.status
        assert RESIDUAL.sub("#", ours.reason) == RESIDUAL.sub("#", theirs.reason)
        assert np.allclose([float(v) for v in RESIDUAL.findall(ours.reason)],
                           [float(v) for v in RESIDUAL.findall(theirs.reason)], rtol=0, atol=1e-13)


def test_the_svd_runs_only_for_reducible_systems(monkeypatch, c85):
    svds = []
    original = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or original(*a, **k))
    g = random_orthogonal(8, 5)
    conj = clifford.verify_clifford([g @ to_float(P) @ g.T for P in c85.matrices])
    for c in (clifford.construct_irreducible(n) for n in range(1, 8)):
        assert clifford.algebraically_equivalent(c, c).status is EquivalenceStatus.EQUIVALENT
    assert clifford.algebraically_equivalent(c85, conj).status is EquivalenceStatus.EQUIVALENT
    assert svds == []
    twice = clifford.direct_sum(c85, c85)
    assert not clifford.is_irreducible(twice)
    assert clifford.algebraically_equivalent(twice, twice).status is EquivalenceStatus.EQUIVALENT
    assert len(svds) == 1


def test_the_seeded_start_is_drawn_once_and_read_only(c85):
    g = random_orthogonal(8, 5)
    targets = [g @ to_float(P) @ g.T for P in c85.matrices]
    start = clifford._seeded_start(3, 8)
    assert not start.flags.writeable
    with pytest.raises(ValueError):
        start[0, 0] = 0.0
    assert np.array_equal(start, np.random.default_rng(3).standard_normal((8, 8)))
    first = clifford.find_orthogonal_intertwiner(targets, c85.matrices, seed=3)
    first[...] = np.nan
    second = clifford.find_orthogonal_intertwiner(targets, c85.matrices, seed=3)
    again = clifford.find_orthogonal_intertwiner(targets, c85.matrices, seed=3)
    assert np.array_equal(second, again) and not np.isnan(second).any()
    assert clifford._seeded_start(3, 8) is start
    assert np.array_equal(start, np.random.default_rng(3).standard_normal((8, 8)))


def test_traces_are_formed_only_for_n_1_mod_4(monkeypatch, c85, c85_flipped):
    products = count_calls(monkeypatch, clifford, "ordered_product")
    c3 = clifford.construct_irreducible(2)  # three members
    assert clifford.algebraically_equivalent(c3, c3).status is EquivalenceStatus.EQUIVALENT
    assert len(products) == 0
    verdict = clifford.algebraically_equivalent(c85, c85_flipped)  # five members
    assert verdict.status is EquivalenceStatus.NOT_EQUIVALENT and len(products) == 2
    # Stated change: traces that agree never read as differing, so with a
    # non-positive tol the uncertifiable pair is UNKNOWN, not NOT_EQUIVALENT
    for tol in (0.0, -1.0):
        assert clifford.algebraically_equivalent(c3, c3, tol).status is EquivalenceStatus.UNKNOWN
    # A hand-built non-Clifford system is trusted to be one: its commuting
    # members (product trace 4) are not told apart by a trace, and the
    # certificate check leaves it UNKNOWN
    diagonals = tuple(np.diag(d).astype(np.int64)
                      for d in ([1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]))
    commuting = clifford.CliffordSystem(two_m=4, n=3, matrices=diagonals)
    verdict = clifford.algebraically_equivalent(c3, commuting)
    assert verdict.status is EquivalenceStatus.UNKNOWN and verdict.certificate is None


def test_a_nan_residual_is_unknown():
    # one member scaled by 1e300: its certificate residual is inf / inf = NaN,
    # which must not be read past as the others' passing residuals
    c4 = clifford.construct_irreducible(3)
    mats = [to_float(P) for P in c4.matrices]
    mats[-1] = 1e300 * mats[-1]
    huge = clifford.CliffordSystem(two_m=c4.two_m, n=c4.n, matrices=tuple(mats))  # unverified
    verdict = clifford.algebraically_equivalent(c4, huge)
    assert verdict.status is EquivalenceStatus.UNKNOWN and verdict.certificate is None
    assert verdict.reason == "candidate conjugation failed verification (nan)"


def test_inequivalent_systems_have_no_intertwiner_on_either_route(monkeypatch, c85, c85_flipped):
    # the projection onto the intertwiners of inequivalent systems vanishes:
    # sqrt(c) on the closed form, the least singular value on the SVD route
    svds = count_calls(monkeypatch, np.linalg, "svd")
    assert clifford.find_orthogonal_intertwiner(c85_flipped.matrices, c85.matrices) is None
    assert svds == []
    same, mixed = clifford.direct_sum(c85, c85), clifford.direct_sum(c85, c85_flipped)
    assert clifford.find_orthogonal_intertwiner(mixed.matrices, same.matrices) is None
    assert len(svds) == 1


def test_a_nan_member_is_unknown_on_the_svd_route():
    # a reducible pair takes the SVD, which does not converge on a NaN
    # projection: no intertwiner, UNKNOWN in either argument order
    twice = clifford.direct_sum(clifford.construct_irreducible(3), clifford.construct_irreducible(3))
    assert not clifford.is_irreducible(twice)
    mats = [to_float(P) for P in twice.matrices]
    mats[1] = mats[1].copy()
    mats[1][0, 0] = np.nan
    broken = clifford.CliffordSystem(two_m=twice.two_m, n=twice.n, matrices=tuple(mats))  # unverified
    for verdict in (clifford.algebraically_equivalent(twice, broken),
                    clifford.algebraically_equivalent(broken, twice)):
        assert verdict.status is EquivalenceStatus.UNKNOWN and verdict.certificate is None
        assert verdict.reason == "the projected intertwiner failed verification"
    assert clifford.find_orthogonal_intertwiner(mats, twice.matrices) is None


def test_a_nan_member_is_unknown_on_the_closed_form():
    # an irreducible pair takes no SVD, so a NaN projection reaches the
    # certificate check (an SVD raises LinAlgError on it) and reads UNKNOWN
    c4 = clifford.construct_irreducible(3)
    mats = [to_float(P) for P in c4.matrices]
    mats[0] = np.full_like(mats[0], np.nan)
    broken = clifford.CliffordSystem(two_m=c4.two_m, n=c4.n, matrices=tuple(mats))  # unverified
    verdict = clifford.algebraically_equivalent(c4, broken)
    assert verdict.status is EquivalenceStatus.UNKNOWN and verdict.certificate is None
    assert verdict.reason == "candidate conjugation failed verification (nan)"
