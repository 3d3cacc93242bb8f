import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmorph import clifford, osystem
from quadmorph.clifford import EquivalenceStatus
from quadmorph.core import random_orthogonal, to_float
from quadmorph.errors import (
    AnticommutationViolated,
    ArityMismatch,
    BadIndices,
    NotOrthogonal,
    ShapeMismatch,
)

SIGMA_FIRST_16 = [1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9]


class TestHurwitzRadon:
    def test_first_sixteen_values(self):
        assert [osystem.hurwitz_radon(m).sigma for m in range(1, 17)] == SIGMA_FIRST_16

    def test_hand_decompositions(self):
        d16 = osystem.hurwitz_radon(16)
        assert (d16.r, d16.c, d16.d, d16.sigma) == (0, 0, 1, 9)
        d12 = osystem.hurwitz_radon(12)  # 12 = 3 * 2^2
        assert (d12.r, d12.c, d12.d, d12.sigma) == (1, 2, 0, 4)
        d1 = osystem.hurwitz_radon(1)
        assert (d1.r, d1.c, d1.d, d1.sigma) == (0, 0, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=4096))
    def test_decomposition_reconstructs_and_bounds_hold(self, m):
        d = osystem.hurwitz_radon(m)
        assert 0 <= d.c <= 3
        assert d.r >= 0 and d.d >= 0
        assert (2 * d.r + 1) * 2 ** (d.c + 4 * d.d) == m
        assert d.sigma == 2**d.c + 8 * d.d

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=256))
    def test_sixteen_fold_periodicity(self, m):
        assert osystem.hurwitz_radon(16 * m).sigma == osystem.hurwitz_radon(m).sigma + 8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            osystem.hurwitz_radon(0)


class TestConstructRangeMaximal:
    def test_full_sweep_is_exact_and_maximal(self):
        for m in range(1, 65):
            os_ = osystem.construct_range_maximal(m)
            assert os_.m == m
            assert os_.n == osystem.hurwitz_radon(m).sigma
            assert all(t.dtype == np.int64 for t in os_.matrices)
            assert np.array_equal(os_.matrices[0], np.eye(m, dtype=np.int64))

    def test_combination_along_unit_vectors_is_orthogonal(self):
        for m in (2, 4, 8, 16):
            os_ = osystem.construct_range_maximal(m)
            taus = [to_float(t) for t in os_.matrices]
            rng = np.random.default_rng(m)
            for _ in range(100):
                x = rng.standard_normal(os_.n)
                x /= np.linalg.norm(x)
                comb = sum(xi * t for xi, t in zip(x, taus))
                assert np.max(np.abs(comb.T @ comb - np.eye(m))) < 1e-9


class TestVerify:
    def test_rejects_non_orthogonal_member(self):
        with pytest.raises(NotOrthogonal):
            osystem.verify_osystem([2 * np.eye(2, dtype=np.int64)])

    def test_rejects_transpose_commuting_pair(self):
        a = np.eye(2, dtype=np.int64)
        with pytest.raises(AnticommutationViolated):
            osystem.verify_osystem([a, a])

    def test_odd_dimension_pairs_always_rejected(self):
        rejected = 0
        total = 0
        for m in (3, 5, 7):
            for trial in range(1000):
                taus = [random_orthogonal(m, 1000 * m + 2 * trial),
                        random_orthogonal(m, 1000 * m + 2 * trial + 1)]
                total += 1
                try:
                    osystem.verify_osystem(taus)
                except AnticommutationViolated as err:
                    rejected += 1
                    if trial == 0:
                        assert "odd" in str(err)
        assert rejected == total == 3000

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ShapeMismatch):
            osystem.verify_osystem([np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)])


class TestCliffordCorrespondence:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
    def test_round_trip_is_identity_on_members(self, m):
        os_ = osystem.construct_range_maximal(m)
        back = osystem.from_clifford(osystem.to_clifford(os_))
        assert back.m == os_.m and back.n == os_.n
        for a, b in zip(os_.matrices, back.matrices):
            assert np.array_equal(a, b)

    def test_float_round_trip_is_bit_identical(self):
        os_ = osystem.construct_range_maximal(4)
        u, v = random_orthogonal(4, 3), random_orthogonal(4, 4)
        floats = osystem.verify_osystem([u @ to_float(t) @ v for t in os_.matrices])
        back = osystem.from_clifford(osystem.to_clifford(floats))
        for a, b in zip(floats.matrices, back.matrices):
            assert b.dtype == np.float64 and a.tobytes() == b.tobytes()

    def test_doubled_system_shape(self):
        os_ = osystem.construct_range_maximal(4)
        cs = osystem.to_clifford(os_)
        assert cs.two_m == 8 and cs.n == os_.n + 1
        half = np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(np.int64)
        assert np.array_equal(cs.matrices[0], half)

    def test_other_direction_stays_in_class(self):
        for m in (2, 4, 8):
            os_ = osystem.construct_range_maximal(m)
            cs = osystem.to_clifford(os_)
            again = osystem.to_clifford(osystem.from_clifford(cs))
            verdict = clifford.algebraically_equivalent(cs, again)
            assert verdict.status is EquivalenceStatus.EQUIVALENT

    def test_from_clifford_needs_two_members(self):
        cs = clifford.verify_clifford([np.diag([1, -1]).astype(np.int64)])
        with pytest.raises(ValueError):
            osystem.from_clifford(cs)


class TestCombinators:
    def test_transpose_system_is_valid(self):
        os_ = osystem.construct_range_maximal(8)
        t = osystem.transpose_system(os_)
        assert t.n == os_.n
        for a, b in zip(t.matrices, os_.matrices):
            assert np.array_equal(a, b.T)

    def test_sub_system_selects_in_order(self):
        os_ = osystem.construct_range_maximal(8)
        sub = osystem.sub_system(os_, [2, 0])
        assert sub.n == 2
        assert np.array_equal(sub.matrices[0], os_.matrices[2])
        assert np.array_equal(sub.matrices[1], os_.matrices[0])

    def test_sub_system_rejects_bad_indices(self):
        os_ = osystem.construct_range_maximal(4)
        with pytest.raises(BadIndices):
            osystem.sub_system(os_, [])
        with pytest.raises(BadIndices):
            osystem.sub_system(os_, [0, 0])
        with pytest.raises(BadIndices):
            osystem.sub_system(os_, [7])

    def test_direct_sum(self):
        a = osystem.construct_range_maximal(2)
        b = osystem.construct_range_maximal(2)
        ds = osystem.direct_sum(a, b)
        assert ds.m == 4 and ds.n == 2
        with pytest.raises(ArityMismatch):
            osystem.direct_sum(a, osystem.construct_range_maximal(1))
