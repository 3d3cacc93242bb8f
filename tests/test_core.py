import functools
import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadmorph import core
from quadmorph.clifford import construct_irreducible, verify_clifford
from quadmorph.errors import NoConvergence, ShapeMismatch, VerificationError
from quadmorph.orthomul import verify_orthomul
from quadmorph.osystem import verify_osystem
from quadmorph.qhm import verify_qhm
from conftest import count_calls, random_symmetric


class TestAsMatrix:
    def test_int_lists_land_in_int64(self):
        m = core.as_matrix([[1, -2], [0, 3]])
        assert m.dtype == np.int64
        assert core.is_exact(m)

    def test_fractions_land_in_object(self):
        m = core.as_matrix([[Fraction(1, 2), 0], [0, 1]])
        assert m.dtype == object
        assert m[0, 0] == Fraction(1, 2)
        assert core.is_exact(m)

    def test_rational_strings_parse(self):
        m = core.as_matrix([["2/4", "-1/3"], [0, 1]])
        assert m[0, 0] == Fraction(1, 2)
        assert m[0, 1] == Fraction(-1, 3)

    def test_floats_land_in_float64(self):
        m = core.as_matrix([[0.5, 0.0], [0.0, 1.0]])
        assert m.dtype == np.float64
        assert not core.is_exact(m)

    def test_huge_ints_stay_exact_in_object_dtype(self):
        big = 2**40
        m = core.as_matrix([[big]])
        assert m.dtype == object
        assert m[0, 0] == big

    @pytest.mark.parametrize("dtype", [np.int8, np.uint32, np.uint64])
    def test_other_integer_dtypes_follow_the_list_rule(self, dtype):
        top = np.iinfo(dtype).max
        m = core.as_matrix(np.array([[top, 0], [0, 1]], dtype=dtype))
        assert m.tolist() == [[top, 0], [0, 1]]
        assert m.dtype == (np.int64 if top < 2**32 else object)

    def test_uint64_entries_never_wrap_past_the_verifiers(self):
        top = 2**64 - 1
        with pytest.raises(VerificationError):
            verify_clifford([np.array([[top, 0], [0, 1]], dtype=np.uint64)])
        with pytest.raises(VerificationError):
            verify_osystem([np.eye(2, dtype=np.int64),
                            np.array([[0, top], [1, 0]], dtype=np.uint64)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        with pytest.raises(ValueError):
            core.as_matrix([[1.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError):
            core.as_matrix(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            core.as_matrix(np.array([[bad]], dtype=np.float32))

    @pytest.mark.parametrize("huge", [10**400, -10**400, Fraction(10**400, 3)],
                             ids=["int", "negative-int", "Fraction"])
    def test_exact_entries_beyond_float64_next_to_a_float_are_not_finite(self, huge):
        for rows in ([[huge, 0.5]], np.array([[huge, 0.5]], dtype=object)):
            with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
                core.as_matrix(rows)

    def test_every_verifier_reads_a_huge_integer_next_to_a_float_as_not_finite(self):
        rows = [[10**400, 0.5], [0.5, -10**400]]
        for verify in (verify_clifford, verify_osystem, verify_orthomul, verify_qhm):
            with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
                verify([rows])

    @pytest.mark.parametrize("rows", [[[1, "1/2"], [3]], [["1/2"], [3, 4]], [[1, 2], [3]],
                                      [1, 2], [["1/1", 0], [0]]])
    def test_ragged_rows_are_a_shape_mismatch(self, rows):
        with pytest.raises(ShapeMismatch):
            core.as_matrix(rows)
        for verify in (verify_clifford, verify_osystem, verify_orthomul, verify_qhm):
            with pytest.raises(ShapeMismatch):
                verify([rows])

    @pytest.mark.parametrize("shape", [(), (2,), (2, 2, 2)])
    def test_object_arrays_that_are_no_table_stay_a_shape_mismatch(self, shape):
        member = np.zeros(shape, dtype=object)
        assert core.as_matrix(member) is member
        for verify, noun in ((verify_clifford, "members"), (verify_osystem, "members"),
                             (verify_qhm, "components")):
            with pytest.raises(ShapeMismatch, match=f"^all {noun} must be square matrices"):
                verify([member])
        with pytest.raises(ShapeMismatch, match="^all slices must share one shape$"):
            verify_orthomul([member])

    def test_mode_promotion_is_one_way(self):
        exact = core.as_matrix([[1, 0], [0, 1]])
        approx = core.as_matrix([[1.0, 0.0], [0.0, 1.0]])
        a, b = core.common_mode(exact, approx)
        assert a.dtype == np.float64 and b.dtype == np.float64
        c, d = core.common_mode(exact, core.as_matrix([[Fraction(1, 2), 0], [0, 1]]))
        assert c.dtype == object and d.dtype == object
        assert core.is_exact(c) and core.is_exact(d)


EDGE_INTS = [2**32 - 1, -(2**32 - 1), 2**32, -(2**32), 2**63, 2**64]
ENTRIES = st.one_of(
    st.integers(), st.sampled_from(EDGE_INTS), st.booleans(), st.fractions(),
    st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.floats().map(np.float64))


def _mode_outcome(rows):
    """as_matrix's dtype and entries (type and repr), or its exception."""
    try:
        M = core.as_matrix(rows)
    except Exception as exc:
        return type(exc), str(exc)
    return M.dtype, M.shape, [[(type(x), repr(x)) for x in row] for row in M.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda cols: st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=3)))
@example([[1, 2**32]])
@example([[0.5, Fraction(1, 3)]])
def test_object_arrays_follow_the_list_rule(rows):
    assert _mode_outcome(np.array(rows, dtype=object)) == _mode_outcome(rows)


class TestResiduals:
    def test_rel_residual_floor_keeps_small_scales_absolute(self):
        a = np.array([[1e-12]])
        assert core.rel_residual(a, np.array([[0.0]])) == pytest.approx(1e-12)

    def test_reconstruction_residual_is_never_a_nan_read_as_zero(self, monkeypatch):
        monkeypatch.setattr(core, "check_symmetric", lambda mats, tol=None: None)
        monkeypatch.setattr(core, "frobenius", lambda a: float("nan"))
        with pytest.raises(NoConvergence):
            core.spectral_decompose(np.diag([2.0, 1.0, -1.0]))

    def test_block_diag_preserves_exactness(self):
        a = core.as_matrix([[1]])
        b = core.as_matrix([[2, 0], [0, 3]])
        out = core.block_diag2(a, b)
        assert out.dtype == np.int64
        assert out.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]


class TestSpectralDecompose:
    def test_swap_matrix_eigenpairs_are_deterministic(self):
        sd = core.spectral_decompose(np.array([[0, 1], [1, 0]], dtype=np.int64))
        assert np.allclose(sd.eigenvalues, [1.0, -1.0])
        r = 1 / np.sqrt(2)
        assert np.allclose(sd.eigenvectors[:, 0], [r, r])
        assert np.allclose(np.abs(sd.eigenvectors[:, 1]), [r, r])

    def test_diagonal_input_gives_signed_permutation_vectors(self):
        sd = core.spectral_decompose(np.diag([2, 2, 3, 3, -2, -2, -3, -3]).astype(np.int64))
        assert np.allclose(sd.eigenvalues, [3, 3, 2, 2, -2, -2, -3, -3])
        v = np.abs(sd.eigenvectors)
        assert np.allclose(v.sum(axis=0), 1.0)
        assert np.allclose(v * (1 - v), 0.0)

    def test_determinism_on_repeated_eigenvalues(self):
        a = random_symmetric(6, 5)
        a = a @ a.T  # cluster-prone spectrum
        sd1 = core.spectral_decompose(a)
        sd2 = core.spectral_decompose(a.copy())
        assert np.array_equal(sd1.eigenvectors, sd2.eigenvectors)

    def test_thousand_seeded_reconstructions(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(1000):
            size = int(rng.integers(1, 17))
            a = random_symmetric(size, 10_000 + trial)
            if trial % 3 == 0:
                # force repeated eigenvalues
                vals = rng.integers(-3, 4, size=size).astype(float)
                q = core.random_orthogonal(size, 20_000 + trial)
                a = q @ np.diag(vals) @ q.T
            sd = core.spectral_decompose(a)
            back = sd.eigenvectors @ np.diag(sd.eigenvalues) @ sd.eigenvectors.T
            worst = max(worst, core.rel_residual(back, a))
        assert worst <= core.IDENTITY_TOL

    def test_rank_invariant_under_orthogonal_conjugation(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            size = int(rng.integers(2, 10))
            rank = int(rng.integers(0, size + 1))
            vals = np.concatenate([rng.uniform(0.5, 3.0, rank), np.zeros(size - rank)])
            a = np.diag(vals)
            g = core.random_orthogonal(size, seed + 100)
            assert core.numeric_rank(g @ a @ g.T) == core.numeric_rank(a) == rank


def _gram_schmidt_decompose(a):
    """spectral_decompose with the modified Gram-Schmidt cluster loop it had
    before each column became one product pair: (eigenvalues, eigenvectors,
    the candidate columns chosen in each cluster)."""
    A = core.to_float(a)
    w, v = np.linalg.eigh((A + A.T) / 2.0)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    chosen = []
    for lo, hi in core.eigenvalue_clusters(w):
        if hi - lo == 1:
            v[:, lo] = core._sign_normalize(v[:, lo])
            continue
        proj = v[:, lo:hi] @ v[:, lo:hi].T
        basis, picks = [], []
        for i in range(len(w)):
            cand = proj[:, i].copy()
            for b in basis:
                cand -= (b @ cand) * b
            nrm = np.linalg.norm(cand)
            if nrm > 1e-6:
                basis.append(core._sign_normalize(cand / nrm))
                picks.append(i)
            if len(basis) == hi - lo:
                break
        v[:, lo:hi] = np.column_stack(basis)
        chosen.append(picks)
    return w, v, chosen


def _chosen_columns(w, v):
    """The candidate column behind each rebuilt cluster vector b_k: the first
    index i with |b_k[i]| = |(P e_i) . b_k| > 1e-6, since every earlier
    candidate was chosen before b_k or left a residual of at most 1e-6."""
    return [[int(np.argmax(np.abs(v[:, k]) > 1e-6)) for k in range(lo, hi)]
            for lo, hi in core.eigenvalue_clusters(w) if hi - lo > 1]


def _basis_cases():
    cases = []
    for n in (3, 7, 11):
        members = construct_irreducible(n).matrices
        g = core.random_orthogonal(members[0].shape[0], 100 + n)
        for idx in (0, 2):
            cases.append((f"irreducible{n}-member{idx + 1}-exact", members[idx]))
            cases.append((f"irreducible{n}-member{idx + 1}-float",
                          g @ core.to_float(members[idx]) @ g.T))
    paired = np.diag([3, 3, 2, 2, -2, -2, -3, -3]).astype(np.int64)
    g = core.random_orthogonal(8, 77)
    cases.append(("paired-clusters-exact", paired))
    cases.append(("paired-clusters-float", g @ core.to_float(paired) @ g.T))
    near = 1 - 0.9 * core.EIG_PAIR_TOL
    cases.append(("gap-below-eig-pair-tol",
                  g @ np.diag([10.0, 10, 1, near, -near, -1, -10, -10]) @ g.T))
    return cases


BASIS_CASES = _basis_cases()


class TestClusterBasisRegression:
    """spectral_decompose keeps the basis the Gram-Schmidt loop built."""

    @pytest.mark.parametrize("a", [a for _, a in BASIS_CASES], ids=[name for name, _ in BASIS_CASES])
    def test_same_basis_as_the_gram_schmidt_loop(self, a):
        w, v, chosen = _gram_schmidt_decompose(a)
        sd = core.spectral_decompose(a)
        assert np.array_equal(sd.eigenvalues, w)
        assert np.max(np.abs(sd.eigenvectors - v)) <= 1e-12
        assert chosen and _chosen_columns(w, v) == chosen
        assert _chosen_columns(sd.eigenvalues, sd.eigenvectors) == chosen
        if core.is_exact(a) and np.array_equal(a, np.diag(np.diag(a))):
            assert np.array_equal(sd.eigenvectors, v)

    def test_gap_case_is_one_cluster(self):
        _, a = BASIS_CASES[-1]
        w = core.spectral_decompose(a).eigenvalues
        assert (2, 4) in core.eigenvalue_clusters(w)


class TestExactRank:
    def test_matches_numeric_on_integer_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(-3, 4, size=(5, 5))
            exact = core.numeric_rank(core.as_matrix(a.tolist()))
            approx = core.numeric_rank(a.astype(float))
            assert exact == approx == np.linalg.matrix_rank(a)

    def test_fraction_rank(self):
        # rows are proportional: (1/2, 1/3) * 3 = (3/2, 1)
        singular = core.as_matrix([[Fraction(1, 2), Fraction(1, 3)],
                                   [Fraction(3, 2), Fraction(1, 1)]])
        assert core.numeric_rank(singular) == 1
        full = core.as_matrix([[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(1, 4), Fraction(1, 1)]])
        assert core.numeric_rank(full) == 2

    def test_orthogonal_rows_need_no_elimination(self, monkeypatch):
        calls = count_calls(monkeypatch, core, "exact_rank")
        signed_perm = core.as_matrix([[0, -2, 0, 0], [0, 0, 0, 0], [5, 0, 0, 0], [0, 0, 0, 1]])
        rational_rows = core.as_matrix([[Fraction(3, 5), Fraction(4, 5)],
                                        [Fraction(-4, 5), Fraction(3, 5)]])
        assert core.numeric_rank(signed_perm) == 3
        assert core.numeric_rank(rational_rows) == 2
        assert calls == []
        assert core.numeric_rank(core.as_matrix([[1, 1], [1, 1]])) == 1
        assert len(calls) == 1

    def test_gram_matrix_does_not_wrap_around(self):
        # every entry of (2^31 J_4)^2 is 4 * 2^62 = 2^64, which int64 reads as 0
        a = np.full((4, 4), 2**31, dtype=np.int64)
        assert not np.any(np.diagonal(a @ a))
        assert core.numeric_rank(a) == 1


def rank_test_matrices(peak):
    entry = st.one_of(st.just(0), st.integers(-peak, peak))
    return st.integers(1, 5).flatmap(lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(st.lists(entry, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 2**28, 2**31]).flatmap(rank_test_matrices))
@example([[2**31] * 4] * 4)
def test_exact_rank_from_the_gram_matrix_matches_elimination(rows):
    # peak 3 puts the Gram matrix in float64, peaks 2^28 and 2^31 in Python integers
    a = core.as_matrix(rows)
    assert core.numeric_rank(a) == core.exact_rank(a)
    fractions = core.as_matrix([[Fraction(x, 7) for x in row] for row in rows])
    assert core.numeric_rank(fractions) == core.exact_rank(a)


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(st.lists(small_fraction, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(st.lists(small_fraction, min_size=2, max_size=2), min_size=2, max_size=2))
def test_exact_arithmetic_is_associative_and_distributive(a, b, c):
    A, B, C = (core.as_matrix(x) for x in (a, b, c))
    assert np.array_equal((A @ B) @ C, A @ (B @ C))
    assert np.array_equal(A @ (B + C), A @ B + A @ C)


def test_random_orthogonal_is_orthogonal_and_deterministic():
    for seed in range(10):
        g = core.random_orthogonal(7, seed)
        assert core.rel_residual(g @ g.T, np.eye(7)) < 1e-12
        assert np.array_equal(g, core.random_orthogonal(7, seed))


def test_eigenvalue_clusters_gaps():
    groups = core.eigenvalue_clusters(np.array([3.0, 3.0 - 1e-12, 2.0, 1.0, 1.0]))
    assert groups == [(0, 2), (2, 3), (3, 5)]


class TestPairwiseRelation:
    def test_reports_worst_residual_and_first_failing_pair(self):
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        worst, failure = core.pairwise_relation([a, b], np.eye(2))
        assert worst == 0.0 and failure is None
        worst, failure = core.pairwise_relation([a, b + 1e-6 * a], np.eye(2))
        assert failure[:2] == (1, 2) and failure[2] > core.IDENTITY_TOL
        assert worst < 1e-12

    def test_nan_never_reads_as_a_residual_of_zero(self):
        nan = np.full((2, 2), np.nan)
        _, failure = core.pairwise_relation([nan], np.eye(2))
        assert failure is not None and np.isnan(failure[2])

    def test_exact_products_do_not_wrap_around(self):
        # a^2 + b^2 = 2^64 + 1, which int64 arithmetic reads as 1
        wrap = np.array([[1438793759, 4046803256], [4046803256, -1438793759]], dtype=np.int64)
        _, failure = core.pairwise_relation([wrap], np.eye(2, dtype=np.int64))
        assert failure is not None and failure[:2] == (1, 1)
        assert core.pairwise_relation([wrap])[1] is None  # one member agrees with itself

    def test_the_relation_has_no_transpose_knob(self):
        params = inspect.signature(core.pairwise_relation).parameters
        assert list(params) == ["mats", "target", "tol"]

    def test_integer_target_counts_toward_the_float64_bound(self):
        # the square is 2^53 everywhere, within the float64 bound, but float64
        # would round the target's 2^53 + 1 onto it
        member = np.full((2, 2), 2**26, dtype=np.int64)
        target = np.full((2, 2), 2**53, dtype=np.int64)
        assert core.pairwise_relation([member], target)[1] is None
        target[0, 0] += 1
        assert core.pairwise_relation([member], target)[1] == (1, 1, 1.0)


def _python_first_failure(rows, identity):
    """The first pair (i, j, Frobenius residual) failing M_i^T M_j + M_j^T M_i
    = 2 delta_ij T in unbounded Python integers, or None."""
    n = len(rows[0])

    def mul(a, b):
        return [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]

    left = [[list(col) for col in zip(*M)] for M in rows]
    target = ([[int(r == c) for c in range(n)] for r in range(n)] if identity
              else mul(left[0], rows[0]))
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            if i == j:
                value = mul(left[i], rows[i])
                diff = [[x - t for x, t in zip(r, s)] for r, s in zip(value, target)]
            else:
                p, q = mul(left[i], rows[j]), mul(left[j], rows[i])
                diff = [[x + y for x, y in zip(r, s)] for r, s in zip(p, q)]
            if any(any(row) for row in diff):
                return i + 1, j + 1, float(np.linalg.norm(np.array(diff, dtype=np.float64)))
    return None


# small entries, entries around the float64 (2^53) product bound of
# pairwise_relation and around 2^62, and entries beyond both
entry = st.one_of(st.integers(-1, 1), st.integers(2**25, 2**31), st.integers(-2**31, -2**25),
                  st.integers(-2**40, 2**40))


@st.composite
def integer_members(draw):
    """2 to 4 square integer members of one size, either free or the pair
    [[a, b], [b, -a]], [[-b, a], [a, b]] (equal squares, anticommuting),
    optionally with one entry shifted."""
    count = draw(st.integers(2, 4))
    if draw(st.booleans()):
        size = draw(st.integers(1, 4))
        square = st.lists(st.lists(entry, min_size=size, max_size=size),
                          min_size=size, max_size=size)
        return draw(st.lists(square, min_size=count, max_size=count))
    a, b = draw(entry), draw(entry)
    rows = [[[a, b], [b, -a]], [[-b, a], [a, b]]][: min(count, 2)]
    if draw(st.booleans()):
        rows[-1][0][0] += draw(st.sampled_from([1, 2**32, 2**40]))
    return rows


A26, B26 = 2**26, 2**26 + 1  # 2 * A26^2 = 2^53; A26^2 + B26^2 = 2^53 + 2^27 + 1 is odd


@settings(max_examples=200, deadline=None)
@given(integer_members(), st.booleans())
@example([[[1438793759, 4046803256], [4046803256, -1438793759]]] * 2, True)
# size * peak^2 = 2^53 exactly: the largest members that take the float64 route
@example([[[A26, 0], [0, -A26]], [[0, A26], [A26, 0]]], False)
@example([[[A26, 0], [0, -A26]], [[0, A26], [A26, 1]]], False)
@example([[[A26, A26], [A26, A26]]], True)
# size * peak^2 = 2^53 + 2^28 + 2, just past it: products and sums beyond 2^53
@example([[[A26, B26], [B26, -A26]], [[-B26, A26], [A26, B26]]], False)
@example([[[A26, B26], [B26, -A26]]], True)
@example([[[A26, B26], [B26, -A26]], [[-B26 + 1, A26], [A26, B26]]], False)
def test_exact_relation_verdict_matches_python_integers(rows, identity):
    mats = [np.array(M, dtype=np.int64) for M in rows]
    size = mats[0].shape[0]
    target = np.eye(size, dtype=np.int64) if identity else None
    _, failure = core.pairwise_relation(mats, target)
    assert failure == _python_first_failure(rows, identity)


def _two_product_relation(mats, target=None, transpose=False, tol=core.IDENTITY_TOL):
    """L(M_i) M_j + L(M_j) M_i = 2 delta_ij T, L the transpose or the
    identity, with both products of every off-diagonal pair and
    np.linalg.norm residuals: the reference the one-product kernel must
    reproduce, the plain relation (L the identity) on symmetric members."""

    def norm(a):
        try:
            with np.errstate(over="ignore"):
                return float(np.linalg.norm(core.to_float(a)))
        except ValueError:
            return float("inf")

    exact = core.is_exact(mats[0])
    if exact:
        dtype = core._product_dtype(mats, mats[0].shape[0], target)
        mats = [M.astype(dtype, copy=False) for M in mats]
        if target is not None and dtype == np.float64:
            target = target.astype(np.float64)
    left = [M.T for M in mats] if transpose else mats
    with np.errstate(over="ignore", invalid="ignore"):
        if target is None:
            target = left[0] @ mats[0]
        norms = [1.0 if exact else norm(M) for M in mats]
        target_norm = 1.0 if exact else norm(target)
        worst = 0.0
        for i in range(len(mats)):
            for j in range(i, len(mats)):
                if i == j:
                    value, expected, scale = left[i] @ mats[i], target, target_norm
                else:
                    value, expected = left[i] @ mats[j] + left[j] @ mats[i], 0
                    scale = norms[i] * norms[j]
                if exact:
                    failed = not np.all(value == expected)
                    resid = norm(value - expected) if failed else 0.0
                else:
                    resid = norm(value - expected) / max(1.0, scale)
                    failed = not (resid <= tol)
                if failed:
                    return worst, (i + 1, j + 1, resid)
                worst = max(worst, resid)
    return worst, None


@functools.lru_cache(maxsize=None)
def _canonical(n):
    return construct_irreducible(n).matrices


@st.composite
def relation_members(draw):
    """Exact members, symmetric (a canonical system) and free (small
    integers, rarely symmetric), and float ones: symmetric conjugates
    g P g^T and general U P Q^T of a canonical system, optionally perturbed
    by 1e-9."""
    kind = draw(st.sampled_from(["exact", "free", "conjugate", "general"]))
    if kind == "free":
        size, count = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        square = st.lists(st.lists(st.integers(-2, 2), min_size=size, max_size=size),
                          min_size=size, max_size=size)
        return [np.array(M, dtype=np.int64) for M in draw(st.lists(square, min_size=count,
                                                                      max_size=count))]
    members = list(_canonical(draw(st.integers(1, 9))))
    if kind == "exact":
        return members
    size, seed = members[0].shape[0], draw(st.integers(0, 2**16))
    u = core.random_orthogonal(size, seed)
    q = u if kind == "conjugate" else core.random_orthogonal(size, seed + 1)
    members = [u @ core.to_float(P) @ q.T for P in members]
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        members = [M + 1e-9 * rng.standard_normal(M.shape) for M in members]
    return members


def _assert_agree(got, want, exact):
    """Exact members: the same repr.  Float members: X^T and the second
    product are separate matrix products, the same sums up to their order,
    so the verdict and failing pair are the same and the residuals
    (relative to the pair's scale) agree to rounding."""
    if exact:
        assert repr(got) == repr(want)
        return
    assert (got[1] is None) == (want[1] is None)
    assert got[1] is None or got[1][:2] == want[1][:2]
    got_resid = [got[0]] + ([got[1][2]] if got[1] else [])
    want_resid = [want[0]] + ([want[1][2]] if want[1] else [])
    assert got_resid == pytest.approx(want_resid, rel=1e-9, abs=1e-13)


@settings(max_examples=300, deadline=None)
@given(relation_members(), st.booleans(), st.sampled_from([1e-9, 1e-6]))
@example([np.array([[0, 0], [0, 1]]), np.array([[0, 0], [1, 0]])], False, 1e-9)
@example([np.array([[0, 0], [0, 1]]), np.array([[0, 0], [1, 0]])], True, 1e-9)
def test_one_product_kernel_matches_the_two_product_loop(mats, identity, tol):
    target = None
    if identity:
        target = np.eye(mats[0].shape[0], dtype=mats[0].dtype)
    got = core.pairwise_relation(mats, target, tol)
    _assert_agree(got, _two_product_relation(mats, target, True, tol), core.is_exact(mats[0]))


@st.composite
def symmetric_members(draw):
    """Bitwise-symmetric members: a canonical system, optionally with one
    diagonal entry of its last member shifted by 1, or a float conjugate
    g P g^T of one, optionally perturbed by 1e-9, symmetrized as
    (M + M^T) / 2."""
    members = list(_canonical(draw(st.integers(1, 9))))
    if draw(st.booleans()):
        if draw(st.booleans()):
            k = draw(st.integers(0, len(members[-1]) - 1))
            members[-1] = members[-1].copy()
            members[-1][k, k] += 1
        return members
    size, seed = members[0].shape[0], draw(st.integers(0, 2**16))
    g = core.random_orthogonal(size, seed)
    members = [g @ core.to_float(P) @ g.T for P in members]
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        members = [M + 1e-9 * rng.standard_normal(M.shape) for M in members]
    return [(M + M.T) / 2 for M in members]


@settings(max_examples=300, deadline=None)
@given(symmetric_members(), st.booleans(), st.sampled_from([1e-9, 1e-6]))
def test_symmetric_members_read_the_plain_relation(mats, identity, tol):
    # P_j P_i = (P_i P_j)^T on symmetric members: the one relation is the
    # Clifford relation P_i P_j + P_j P_i = 2 delta_ij T
    assert all(np.array_equal(M, M.T) for M in mats)
    target = np.eye(mats[0].shape[0], dtype=mats[0].dtype) if identity else None
    got = core.pairwise_relation(mats, target, tol)
    _assert_agree(got, _two_product_relation(mats, target, False, tol), core.is_exact(mats[0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(-150, 150), st.integers(0, 2**16),
       st.sampled_from(["float", "int64", "fraction", "transposed"]))
def test_frobenius_is_bit_for_bit_the_norm(rows, cols, exponent, seed, kind):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) * 10.0**exponent
    if kind == "int64":
        a = rng.integers(-2**31, 2**31, size=(rows, cols))
    elif kind == "fraction":
        a = np.array([[Fraction(int(x), 7) for x in row] for row in
                      rng.integers(-1000, 1000, size=(rows, cols))], dtype=object)
    elif kind == "transposed":
        a = a.T
    value = core.frobenius(a)
    assert type(value) is float
    assert value == float(np.linalg.norm(a.astype(np.float64)))  # never NaN or -0.0 here


def test_frobenius_overflow_is_a_quiet_inf_and_nan_stays_nan():
    # filterwarnings = error: an overflow warning would fail here
    assert core.frobenius(np.full((3, 3), 1e200)) == float("inf")
    assert np.isnan(core.frobenius(np.array([[np.nan, 1.0]])))
    assert core.frobenius(np.array([[10**400, 1]], dtype=object)) == float("inf")


# ---------------------------------------------------------------------------
# ordered products


@st.composite
def integer_chains(draw):
    """1 to 6 square int64 members of one size, entries up to a peak of 1,
    2^8 or 2^31: the whole-chain float64 route, and steps that move from
    float64 to Python integers."""
    size, count = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    peak = draw(st.sampled_from([1, 2**8, 2**31]))
    row = st.lists(st.integers(-peak, peak), min_size=size, max_size=size)
    return draw(st.lists(st.lists(row, min_size=size, max_size=size),
                         min_size=count, max_size=count))


@settings(max_examples=200, deadline=None)
@given(integer_chains())
@example([[[2**31, 0], [0, 2**31]]] * 3)  # int64 reads (2^31 I)^3 = 2^93 I as 0
@example([[[-2**31, 2**31], [2**31, 2**31]]] * 6)
def test_ordered_product_matches_python_integers(rows):
    prod = core.ordered_product([np.array(M, dtype=np.int64) for M in rows])
    exact = functools.reduce(np.matmul, [np.array(M, dtype=object) for M in rows])
    assert prod.dtype in (np.int64, object) and prod.tolist() == exact.tolist()


def test_ordered_product_of_floats_multiplies_in_order():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((5, 5)) for _ in range(4)]
    assert np.array_equal(core.ordered_product(mats), ((mats[0] @ mats[1]) @ mats[2]) @ mats[3])


def test_ordered_product_of_signed_permutations_stays_int64():
    mats = construct_irreducible(13).matrices  # 14 members on R^256
    prod = core.ordered_product(mats)
    assert prod.dtype == np.int64
    assert np.array_equal(np.abs(prod).sum(axis=0), np.ones(256, dtype=np.int64))
