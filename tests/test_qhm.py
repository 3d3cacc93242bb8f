import hashlib
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmorph import clifford, core, orthomul, osystem, qhm, serialize
from quadmorph.core import IDENTITY_TOL, random_orthogonal, sample_points, to_float
from quadmorph.errors import (
    AlreadyRangeMaximal,
    ArityMismatch,
    DimensionMismatch,
    NotDomainMinimal,
    NotHarmonic,
    NotHorizontallyConformal,
    NotSymmetric,
    NotUmbilical,
    OddRank,
    QSingular,
    RankMismatch,
    ShapeMismatch,
    SharedKernelViolated,
    VerificationError,
    ZeroMap,
)

from conftest import (broken_canonical, count_calls, eight_dim_triple, float_canonical,
                      leaky_pair, random_symmetric, two_scale)

AGREEMENT_TRIALS = 250  # per branch: valid and broken
NORMAL_FORM_TRIALS = 200


def hopf(n):
    return orthomul.hopf_construction(orthomul.standard_multiplication(n))


def padded_triple(size=10):
    """The 8x8 triple embedded in a larger space with zero rows and columns."""
    mats = []
    for a in eight_dim_triple():
        big = np.zeros((size, size), dtype=np.int64)
        big[:8, :8] = a
        mats.append(big)
    return mats


def batch_eval(components, X):
    return np.stack(
        [np.einsum("pi,ij,pj->p", X, to_float(A), X) for A in components], axis=1)


# ---------------------------------------------------------------------------
# verification


def test_triple_verifies_exactly(split_scale_map):
    assert (split_scale_map.m, split_scale_map.n) == (8, 3)
    assert split_scale_map.components[0].dtype == np.int64


def test_rejects_zero_tuple():
    with pytest.raises(ZeroMap):
        qhm.verify_qhm([np.zeros((2, 2), dtype=np.int64)])


def test_rejects_nonzero_trace():
    with pytest.raises(NotHarmonic):
        qhm.verify_qhm([np.eye(2, dtype=np.int64)])


def test_rejects_asymmetric_component():
    with pytest.raises(NotSymmetric):
        qhm.verify_qhm([np.array([[0, 1], [0, 0]], dtype=np.int64)])


def test_rejects_repeated_component():
    a = np.diag([1, -1]).astype(np.int64)
    with pytest.raises(NotHorizontallyConformal):
        qhm.verify_qhm([a, a])


def test_rejects_mismatched_squares():
    a = np.diag([1, -1]).astype(np.int64)
    b = 2 * np.array([[0, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(NotHorizontallyConformal) as err:
        qhm.verify_qhm([a, b])
    assert "squares" in str(err.value)


def test_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        qhm.verify_qhm([])
    with pytest.raises(ShapeMismatch):
        qhm.verify_qhm([np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(ShapeMismatch):
        qhm.verify_qhm([np.zeros((2, 3))])


def test_evaluate_values(split_scale_map):
    assert np.allclose(qhm.evaluate(split_scale_map, [1, 0, 0, 0, 0, 0, 0, 0]), [2, 0, 0])
    x = np.arange(1.0, 9.0)
    vals = qhm.evaluate(split_scale_map, x)
    for v, a in zip(vals, split_scale_map.components):
        assert v == pytest.approx(x @ to_float(a) @ x)


def test_evaluate_checks_dimension(split_scale_map):
    with pytest.raises(DimensionMismatch):
        qhm.evaluate(split_scale_map, [1.0, 2.0])


def test_quadratic_form_value_checks_its_shapes():
    assert qhm.quadratic_form_value(np.eye(3), [1, 2, 3]) == 14.0
    with pytest.raises(DimensionMismatch, match="point has dimension 2"):
        qhm.quadratic_form_value(np.eye(3), [1, 2])
    with pytest.raises(ShapeMismatch):
        qhm.quadratic_form_value(np.ones((2, 3)), [1, 2, 3])


def test_sampled_check_passes_on_triple(split_scale_map):
    rep = qhm.sampled_check(split_scale_map.components, samples=32, seed=5)
    assert rep.passed and rep.samples == 32
    assert rep.max_harmonic_defect < 1e-10
    assert rep.max_offdiagonal_defect < 1e-10
    assert rep.max_diagonal_spread < 1e-10
    with pytest.raises(ValueError):
        qhm.sampled_check(split_scale_map.components, samples=0)


@pytest.mark.parametrize("samples", [0, -1])
def test_every_sampled_function_rejects_a_nonpositive_sample_count(samples):
    phi = qhm.from_clifford(clifford.construct_irreducible(2))
    calls = [
        lambda: qhm.sampled_check(phi.components, samples=samples),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="samples must be >= 1"):
            call()


@pytest.mark.parametrize("m", [3, 16, 64])
def test_form_values_match_a_per_point_loop(m):
    A = random_symmetric(m, m)
    X = sample_points(m, 9, m)
    shifted = X[:, None, :] + 0.5 * np.eye(m)[None, :, :]
    for P in (X, shifted):
        got = qhm._form_values(A, P)
        assert got.shape == P.shape[:-1]
        flat = P.reshape(-1, m)
        want = np.array([x @ A @ x for x in flat]).reshape(P.shape[:-1])
        scale = np.linalg.norm(A) * np.max(np.sum(flat * flat, axis=1))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _closed_form_defects(mats, samples, seed):
    """The three defects of sampled_check from the exact gradients 2 A x and
    Laplacians 2 tr A at the same seeded points."""
    mats = [to_float(np.asarray(M)) for M in mats]
    X = sample_points(mats[0].shape[0], samples, seed)
    harm = max(abs(2 * np.trace(A)) / max(1.0, np.linalg.norm(A)) for A in mats)
    grads = np.stack([2 * X @ A for A in mats])
    G = np.einsum("api,bpi->pab", grads, grads)
    diag = np.einsum("paa->pa", G)
    scale = np.maximum(1.0, diag.max(axis=1))
    off = ~np.eye(len(mats), dtype=bool)
    return (harm, np.max(np.abs(G[:, off]) / scale[:, None]),
            np.max((diag.max(axis=1) - diag.min(axis=1)) / scale))


@pytest.mark.parametrize("mats, broken", [
    ([np.diag([1.5, -0.5]), np.array([[0.0, 1.0], [1.0, 0.0]])], 0),  # trace 1
    ([np.diag([1.0, -1.0]), np.array([[0.3, 1.0], [1.0, -0.3]])], 1),  # not orthogonal
    ([np.diag([1.0, -1.0]), np.array([[0.0, 2.0], [2.0, 0.0]])], 2),  # squares differ
], ids=["harmonic", "offdiagonal", "spread"])
def test_sampled_check_reports_closed_form_defects(mats, broken):
    rep = qhm.sampled_check(mats, samples=16, seed=3)
    got = (rep.max_harmonic_defect, rep.max_offdiagonal_defect, rep.max_diagonal_spread)
    assert got == pytest.approx(_closed_form_defects(mats, 16, 3), rel=1e-9, abs=1e-12)
    assert got[broken] > IDENTITY_TOL
    assert not rep.passed


def test_default_sampled_route_accepts_at_two_m_128():
    phi = qhm.verify_qhm(clifford.construct_irreducible(11).matrices)
    assert phi.m == 128 and phi.n == 12


def test_matrix_and_sampled_paths_agree_on_valid_maps():
    # identities accept and the finite-difference oracle agrees, 250 ways
    base = hopf(4)
    for trial in range(AGREEMENT_TRIALS):
        rng = np.random.default_rng(trial)
        g = random_orthogonal(8, 1000 + trial)
        lam = rng.uniform(0.5, 2.0)
        mats = [lam * (g.T @ to_float(a) @ g) for a in base.components]
        mats = [m + 1e-12 * random_symmetric(8, 7 * trial + i)
                for i, m in enumerate(mats)]
        phi = qhm.verify_qhm(mats, seed=trial)  # raises on any disagreement
        assert phi.n == 5
        assert qhm.sampled_check(mats, samples=16, seed=trial).passed


def test_matrix_and_sampled_paths_agree_on_broken_maps():
    base = hopf(4)
    for trial in range(AGREEMENT_TRIALS):
        rng = np.random.default_rng(trial)
        g = random_orthogonal(8, 2000 + trial)
        lam = rng.uniform(0.5, 2.0)
        mats = [lam * (g.T @ to_float(a) @ g) for a in base.components]
        if trial % 2 == 0:
            mats[0] = mats[0].copy()
            mats[0][0, 0] += 1e-4  # breaks tracelessness
        else:
            mats[1] = mats[1] + 1e-4 * mats[0]  # breaks conformality
        with pytest.raises(VerificationError):
            qhm.verify_qhm(mats, seed=trial)
        assert not qhm.sampled_check(mats, samples=16, seed=trial).passed


# ---------------------------------------------------------------------------
# constructors and closure operations


def test_minimal_construction_sweep():
    # maps with 2..10 components on the smallest even-dimensional domains
    for k in range(1, 10):
        cs = clifford.construct_irreducible(k)
        phi = qhm.from_clifford(cs)
        assert phi.n == k + 1
        assert phi.m == 2 * clifford.minimal_domain_dimension(k)
        report = qhm.classify(phi)
        assert report.q_rank == phi.m  # components share one full even rank
        assert report.is_umbilical and report.is_q_nonsingular
        assert report.positive_eigenvalues == pytest.approx((1.0,) * (phi.m // 2))


def test_from_clifford_respects_direct_sums():
    a = clifford.construct_irreducible(2)
    b = clifford.construct_irreducible(2)
    via_systems = qhm.from_clifford(clifford.direct_sum(a, b))
    via_maps = qhm.direct_sum(qhm.from_clifford(a), qhm.from_clifford(b))
    assert all(np.array_equal(x, y)
               for x, y in zip(via_systems.components, via_maps.components))


def test_direct_sum_requires_matching_arity(split_scale_map):
    with pytest.raises(ArityMismatch):
        qhm.direct_sum(split_scale_map, hopf(1))


def test_scale_multiplies_the_spectrum():
    phi = qhm.scale(hopf(2), 2.5)
    report = qhm.classify(phi)
    assert report.positive_eigenvalues == pytest.approx((2.5, 2.5))
    assert report.is_umbilical


def test_scale_by_an_integer_never_wraps_around():
    # int64 reads 2^62 * 4 = 2^64 as 0
    phi = qhm.scale(qhm.scale(qhm.from_clifford(clifford.construct_irreducible(2)), 2**62), 4)
    want = [np.array(M, dtype=object) * 2**64
            for M in clifford.construct_irreducible(2).matrices]
    assert [M.tolist() for M in phi.components] == [M.tolist() for M in want]
    qhm.verify_qhm(phi.components)
    assert qhm.classify(phi).positive_eigenvalues == (2.0**64,) * 2
    assert qhm.scale(hopf(2), 3).components[0].dtype == np.int64
    assert qhm.scale(hopf(2), 2.5).components[0].dtype == np.float64
    assert qhm.scale(hopf(2), Fraction(1, 3)).components[0].dtype == object


def test_scale_stores_float_products_as_float64():
    phi = qhm.from_clifford(clifford.construct_irreducible(2))
    big = qhm.scale(qhm.scale(phi, 2**40), 0.5)  # Python-integer components times a float
    third = qhm.scale(qhm.scale(phi, 2.5), Fraction(1, 3))  # float components times a Fraction
    for scaled, value in ((big, 2.0**39), (third, 2.5 * (1 / 3))):
        assert [M.dtype for M in scaled.components] == [np.float64] * 3
        assert scaled.components[0][0, 0] == value
    assert serialize.encode(qhm.verify_qhm(big.components))["scalars"] == "float"
    assert qhm.scale(phi, np.int64(2**40)).components[0][0, 0] == 2**40  # no int64 wraparound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
            qhm.scale(qhm.scale(phi, 1e300), 1e300)


def test_scale_reads_a_python_integer_beyond_float64_times_a_float_as_not_finite():
    phi = qhm.from_clifford(clifford.construct_irreducible(2))
    huge = qhm.scale(phi, 10**400)
    assert huge.components[0].dtype == object
    for factor in (0.5, np.float64(0.5), np.float32(0.5)):
        with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
            qhm.scale(huge, factor)


def test_float_input_as_object_is_checked_as_float():
    g = random_orthogonal(8, 11)
    mats = [g @ to_float(P) @ g.T for P in clifford.construct_irreducible(3).matrices]
    phi, residuals = qhm.check_qhm(mats)
    as_objects, object_residuals = qhm.check_qhm([M.astype(object) for M in mats])
    assert object_residuals == residuals and max(residuals.values()) > 0
    assert all(np.array_equal(a, b) and b.dtype == np.float64
               for a, b in zip(phi.components, as_objects.components))


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), -np.inf, np.float32("nan")])
def test_scale_refuses_a_non_finite_factor(factor):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
            qhm.scale(hopf(2), factor)


def test_classify_rejects_blocks_that_couple_distinct_groups():
    # eigenvalues 1 + 1e-6 and 1 lie apart by more than EIG_PAIR_TOL, and the
    # block couples them by 1e-5: within verify's identity tolerance, beyond
    # classify's 1e3 * tol coupling bound
    D = np.diag([1 + 1e-6, 1.0])
    B = np.array([[1 + 1e-6, 1e-5], [-1e-5, 1.0]])
    phi = qhm.verify_qhm([core.block_diag2(D, -D), core.symmetric_off_diagonal(B)])
    with pytest.raises(RankMismatch, match="blocks couple distinct eigenvalue groups"):
        qhm.classify(phi)


@pytest.mark.parametrize("diagonal, error", [((2, -1, -1), OddRank),
                                              ((3, -1, -1, -1), RankMismatch),
                                              ((3, 1, -2, -2), RankMismatch),
                                              ((3, 1, -2, -2, 0), RankMismatch)])
def test_classify_says_a_valid_unpaired_map_has_no_splitting(diagonal, error):
    # one traceless form is a valid map whatever its spectrum, but only
    # eigenvalues that pair as +/- split into umbilical summands
    phi = qhm.verify_qhm([np.diag(diagonal).astype(np.int64)])
    with pytest.raises(error) as err:
        qhm.classify(phi)
    message = str(err.value)
    assert "do not pair as +/-" in message and "no umbilical splitting" in message
    assert "valid" not in message
    with pytest.raises(error) as same:
        qhm.single_function_representation(phi)
    assert type(same.value) is type(err.value) and str(same.value) == message


def _offdiagonal_map(diagonal, *blocks):
    """diag(diagonal) followed by [[0, B], [B^T, 0]] per block, unverified."""
    mats = [np.diag(diagonal)] + [core.symmetric_off_diagonal(np.array(B)) for B in blocks]
    return qhm.QuadraticHarmonicMorphism(m=len(diagonal), n=len(mats),
                                         components=tuple(M.astype(np.int64) for M in mats))


@pytest.mark.parametrize("function", [qhm.classify, qhm.single_function_representation,
                                      qhm.normal_form])
@pytest.mark.parametrize("phi, message", [
    (qhm.QuadraticHarmonicMorphism(m=4, n=2, components=(np.zeros((4, 4), dtype=np.int64),) * 2),
     "all components are zero"),
    (_offdiagonal_map((2, 1, -2, -1), [[0, 1], [1, 0]]),
     "eigenvalue matrix does not commute with a block"),
    (_offdiagonal_map((1, 1, -1, -1), np.eye(2), np.eye(2)),
     "blocks fail the transpose anticommutation relation"),
])
def test_one_decomposition_gives_one_verdict_per_fault(function, phi, message):
    with pytest.raises(RankMismatch, match=message):
        function(phi)  # deliberately unverified


def test_odd_dimensional_maps_are_never_full_rank():
    # a rank-deficient pair exists on R^3, but no full-rank map can
    a1 = np.diag([1, -1, 0]).astype(np.int64)
    a2 = np.zeros((3, 3), dtype=np.int64)
    a2[0, 1] = a2[1, 0] = 1
    phi = qhm.verify_qhm([a1, a2])
    assert not qhm.classify(phi).is_q_nonsingular
    with pytest.raises(QSingular):
        qhm.normal_form(phi)
    for trial in range(50):
        mats = [random_symmetric(5, 100 + 2 * trial + i) for i in range(2)]
        mats = [m - np.trace(m) / 5 * np.eye(5) for m in mats]
        with pytest.raises(VerificationError):
            qhm.verify_qhm(mats)


def test_distinct_scales_need_at_most_two_components():
    # with three components, diagonal blocks over distinct eigenvalues clash
    a1 = np.diag([2, 1, -2, -1]).astype(np.int64)

    def off(b):
        m = np.zeros((4, 4), dtype=np.int64)
        m[:2, 2:] = b
        m[2:, :2] = b.T
        return m

    a2 = off(np.diag([2, 1]).astype(np.int64))
    assert qhm.verify_qhm([a1, a2]).n == 2  # two components work fine
    a3 = off(np.diag([2, -1]).astype(np.int64))
    with pytest.raises(NotHorizontallyConformal):
        qhm.verify_qhm([a1, a2, a3])


# ---------------------------------------------------------------------------
# classification and splitting


def assert_splitting_reassembles(phi, report, points, seed):
    X = sample_points(phi.m, points, seed)
    direct = batch_eval(phi.components, X)
    Z = X @ to_float(report.split_change).T
    total = np.zeros_like(direct)
    offset = 0
    for lam, summand in report.splitting:
        total += lam * batch_eval(summand.components, Z[:, offset:offset + summand.m])
        offset += summand.m
    assert np.max(np.abs(direct - total)) <= 1e-8 * max(1.0, np.max(np.abs(direct)))


def test_classify_two_scale_map(split_scale_map):
    report = qhm.classify(split_scale_map)
    assert report.q_rank == 8 and report.zero_count == 0
    assert report.is_q_nonsingular and not report.is_umbilical
    assert report.positive_eigenvalues == pytest.approx((3.0, 3.0, 2.0, 2.0))
    assert [lam for lam, _ in report.splitting] == pytest.approx([3.0, 2.0])
    assert [s.m for _, s in report.splitting] == [4, 4]
    for _, summand in report.splitting:
        sub = qhm.classify(qhm.verify_qhm(summand.components))
        assert sub.is_umbilical
        assert sub.positive_eigenvalues == pytest.approx((1.0, 1.0))
    assert_splitting_reassembles(split_scale_map, report, 100, 11)


def test_classify_umbilical_map():
    phi = hopf(4)
    report = qhm.classify(phi)
    assert report.q_rank == 8 and report.is_umbilical
    assert len(report.splitting) == 1
    assert report.splitting[0][0] == pytest.approx(1.0)
    assert report.projection is None
    assert_splitting_reassembles(phi, report, 50, 12)


def test_classify_rank_deficient_embedding():
    phi = qhm.verify_qhm(padded_triple())
    report = qhm.classify(phi)
    assert report.q_rank == 8 and report.zero_count == 2
    assert not report.is_q_nonsingular
    assert report.projection is not None
    assert report.projection.dtype == np.int64  # axis-aligned kernel, exact
    assert [lam for lam, _ in report.splitting] == pytest.approx([3.0, 2.0])
    assert_splitting_reassembles(phi, report, 50, 13)


def test_repeated_eigenvalues_with_three_components(split_scale_map):
    # three or more components force every scale to repeat
    for phi in (split_scale_map, hopf(2), hopf(4)):
        if phi.n < 3:
            continue
        report = qhm.classify(phi)
        pos = np.array(report.positive_eigenvalues)
        for lam, _ in report.splitting:
            assert np.sum(np.abs(pos - lam) < 1e-6) >= 2


def test_splitting_of_scaled_sum():
    summand = hopf(2)
    phi0 = qhm.direct_sum(qhm.scale(summand, 2.5), qhm.scale(summand, 1.0))
    g = random_orthogonal(8, 21)
    phi = qhm.verify_qhm([g.T @ to_float(a) @ g for a in phi0.components])
    report = qhm.classify(phi)
    assert [lam for lam, _ in report.splitting] == pytest.approx([2.5, 1.0])
    assert [s.m for _, s in report.splitting] == [4, 4]
    assert_splitting_reassembles(phi, report, 50, 14)


# ---------------------------------------------------------------------------
# kernel projection


def test_projection_of_axis_aligned_kernel():
    phi = qhm.verify_qhm(padded_triple())
    proj, core = qhm.project_nonsingular(phi)
    assert proj.shape == (8, 10) and proj.dtype == np.int64
    assert all(np.array_equal(c, a) for c, a in zip(core.components, eight_dim_triple()))


def test_projection_of_rotated_kernel():
    g = random_orthogonal(10, 31)
    phi = qhm.verify_qhm([g.T @ to_float(a) @ g for a in padded_triple()])
    proj, core = qhm.project_nonsingular(phi)
    assert np.max(np.abs(proj @ proj.T - np.eye(8))) < 1e-9
    qhm.verify_qhm(core.components)
    X = sample_points(10, 50, 32)
    assert np.max(np.abs(batch_eval(phi.components, X)
                         - batch_eval(core.components, X @ proj.T))) < 1e-8


def test_projection_rejects_unshared_kernel():
    a1 = np.diag([1, -1, 0]).astype(np.int64)
    a2 = np.diag([0, 0, 1]).astype(np.int64)
    fake = qhm.QuadraticHarmonicMorphism(m=3, n=2, components=(a1, a2))
    with pytest.raises(SharedKernelViolated):
        qhm.project_nonsingular(fake)


def test_projection_ranks_exact_input_exactly():
    # exact rank 3, though the third eigenvalue, 1e-12, lies below the
    # eigenvalue cutoff: an exact map keeps its exact rank, which is odd.
    # A rational rotation of the last two axes leaves no zero row to drop.
    rot = np.array([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]], dtype=object)
    tail = rot @ np.diag([Fraction(1, 10**12), Fraction(0)]).astype(object) @ rot.T
    a1 = np.zeros((4, 4), dtype=object)
    a1[0, 0], a1[1, 1], a1[2:, 2:] = Fraction(1), Fraction(-1), tail
    tiny = qhm.QuadraticHarmonicMorphism(m=4, n=1, components=(a1,))  # deliberately unverified
    with pytest.raises(OddRank):
        qhm.project_nonsingular(tiny)


def test_projection_refuses_full_rank_input():
    with pytest.raises(ValueError):
        qhm.project_nonsingular(hopf(1))


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_exact_fast_path():
    phi = qhm.from_clifford(clifford.construct_irreducible(3))
    nf = qhm.normal_form(phi)
    assert np.array_equal(to_float(nf.change_of_coords), np.eye(8))
    assert np.array_equal(to_float(nf.D), np.eye(4))
    rebuilt = qhm.assemble_normal_form(nf)
    for r, a in zip(rebuilt, phi.components):
        assert np.max(np.abs(r - to_float(a))) < 1e-12


def test_normal_form_float_layout_passes_through():
    perm = [2, 3, 0, 1, 6, 7, 4, 5]  # eight_dim_triple with D = diag(3, 3, 2, 2)
    phi = qhm.verify_qhm([to_float(a)[np.ix_(perm, perm)] for a in eight_dim_triple()])
    nf = qhm.normal_form(phi)
    assert nf.change_of_coords.dtype == np.float64
    assert np.array_equal(nf.change_of_coords, np.eye(8))
    assert np.array_equal(nf.D, np.diag([3.0, 3.0, 2.0, 2.0]))
    for a, b in zip(phi.components[1:], nf.B):
        assert np.array_equal(b, a[:4, 4:])


def test_normal_form_bounds_the_dropped_diagonal_blocks():
    phi = qhm.QuadraticHarmonicMorphism(m=4, n=2, components=leaky_pair())  # deliberately unverified
    with pytest.raises(NotHorizontallyConformal) as err:
        qhm.normal_form(phi)
    assert (err.value.i, err.value.j) == (1, 2)
    assert err.value.residual == pytest.approx(1e-3, rel=1e-6)


def test_uneven_sign_split_is_a_rank_mismatch():
    phi = qhm.verify_qhm([np.diag([3, -1, -1, -1]).astype(np.int64)])
    with pytest.raises(RankMismatch):
        qhm.single_function_representation(phi)


def test_normal_form_gates():
    one_comp = qhm.verify_qhm([np.diag([1, -1]).astype(np.int64)])
    with pytest.raises(ValueError):
        qhm.normal_form(one_comp)
    with pytest.raises(QSingular):
        qhm.normal_form(qhm.verify_qhm(padded_triple()))


def test_normal_form_random_conjugation_sweep():
    bases = {k: qhm.from_clifford(clifford.construct_irreducible(k)) for k in (1, 2, 3)}
    scales = (1.0, 1.5, 2.0, 3.0)
    for trial in range(NORMAL_FORM_TRIALS):
        rng = np.random.default_rng(5000 + trial)
        base = bases[int(rng.integers(1, 4))]
        lam1 = scales[rng.integers(len(scales))]
        if rng.integers(2):
            lam2 = scales[rng.integers(len(scales))]
            phi0 = qhm.direct_sum(qhm.scale(base, lam1), qhm.scale(base, lam2))
        else:
            phi0 = qhm.scale(base, lam1)
        g = random_orthogonal(phi0.m, 9000 + trial)
        phi = qhm.verify_qhm([g.T @ to_float(a) @ g for a in phi0.components])
        nf = qhm.normal_form(phi)
        d = np.diag(to_float(nf.D))
        assert np.all(d > 0) and np.all(d[:-1] >= d[1:] - 1e-12)
        G = to_float(nf.change_of_coords)
        assert np.max(np.abs(G @ G.T - np.eye(phi.m))) < 1e-9
        rebuilt = qhm.assemble_normal_form(nf)
        for r, a in zip(rebuilt, phi.components):
            denom = max(1.0, np.max(np.abs(to_float(a))))
            assert np.max(np.abs(r - to_float(a))) / denom < 1e-8, f"trial {trial}"


# ---------------------------------------------------------------------------
# one quadratic function behind every component


def test_single_function_for_plane_map():
    rep = qhm.single_function_representation(hopf(1))
    assert rep.scales == pytest.approx((1.0,)) and rep.block_sizes == (1,)
    assert np.array_equal(rep.matrix, np.diag([1.0, -1.0]))


def test_single_function_for_two_scale_map(split_scale_map):
    rep = qhm.single_function_representation(split_scale_map)
    assert rep.scales == pytest.approx((3.0, 2.0))
    assert rep.block_sizes == (2, 2)
    assert np.array_equal(rep.matrix, np.diag([3.0, 3.0, 2.0, 2.0, -3.0, -3.0, -2.0, -2.0]))
    X = sample_points(8, 100, 41)
    for a, t in zip(split_scale_map.components, rep.transforms):
        assert np.max(np.abs(t @ t.T - np.eye(8))) < 1e-9
        direct = np.einsum("pi,ij,pj->p", X, to_float(a), X)
        via_f = np.einsum("pi,ij,pj->p", X @ t.T, rep.matrix, X @ t.T)
        assert np.max(np.abs(direct - via_f)) < 1e-9 * max(1.0, np.max(np.abs(direct)))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), lams=st.lists(st.sampled_from([1, 1.5, 2, 3]), min_size=1, max_size=2),
       seed=st.integers(0, 2**16), pad=st.integers(0, 2))
def test_single_function_transforms_come_from_one_normal_form(k, lams, seed, pad):
    base = qhm.from_clifford(clifford.construct_irreducible(k))
    summands = [qhm.scale(base, lam) for lam in lams]
    phi0 = summands[0] if len(lams) == 1 else qhm.direct_sum(*summands)
    g = random_orthogonal(phi0.m + pad, seed)
    phi = qhm.verify_qhm([g.T @ np.pad(to_float(a), (0, pad)) @ g for a in phi0.components])
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, core, "spectral_decompose")
        rep = qhm.single_function_representation(phi)
    assert len(calls) <= (2 if pad else 1)  # as in classify: the kernel, then the core
    assert rep.scales == pytest.approx(sorted(set(lams), reverse=True))
    X = sample_points(phi.m, 37, 1000 + seed)  # not the function's own points
    for a, t in zip(phi.components, rep.transforms):
        assert np.max(np.abs(t @ t.T - np.eye(phi.m))) < 1e-9
        direct = batch_eval([a], X)[:, 0]
        via_f = batch_eval([rep.matrix], X @ t.T)[:, 0]
        assert np.max(np.abs(direct - via_f)) < 1e-9 * max(1.0, np.max(np.abs(direct)))


def test_single_function_residual_is_never_a_nan_read_as_zero(monkeypatch, split_scale_map):
    # the NaN goes into the returned normal form, past the block relations
    original = qhm._decompose

    def nan_in_component_3(*args, **kwargs):
        *head, nf, d, groups = original(*args, **kwargs)
        block = to_float(nf.B[1]).copy()
        block[0, 0] = np.nan
        return (*head, replace(nf, B=(nf.B[0], block)), d, groups)

    monkeypatch.setattr(qhm, "_decompose", nan_in_component_3)
    with pytest.raises(VerificationError) as err:
        qhm.single_function_representation(split_scale_map)
    assert (err.value.i, err.value.j) == (1, 3)


def test_single_function_of_an_all_zero_map_is_a_rank_mismatch():
    zero = qhm.QuadraticHarmonicMorphism(m=4, n=2, components=(np.zeros((4, 4)),) * 2)
    with pytest.raises(RankMismatch):
        qhm.single_function_representation(zero)  # deliberately unverified


@pytest.mark.parametrize("leak", [3e-10, 1e-10])
def test_single_function_represents_every_map_that_verify_qhm_accepts(leak):
    phi = qhm.verify_qhm(list(leaky_pair(leak=leak)))
    rep = qhm.single_function_representation(phi)
    for a, t in zip(phi.components, rep.transforms):
        assert core.rel_residual(t.T @ rep.matrix @ t, a) <= IDENTITY_TOL


def test_single_function_names_the_component_that_is_not_f_composed_with_a_transform():
    phi = qhm.QuadraticHarmonicMorphism(m=4, n=2, components=leaky_pair(leak=1e-7))
    with pytest.raises(NotHorizontallyConformal) as err:
        qhm.single_function_representation(phi)  # deliberately unverified
    assert (err.value.i, err.value.j) == (1, 2)
    assert err.value.residual == pytest.approx(1e-7, rel=1e-3)


def test_single_function_of_a_map_with_a_kernel():
    phi = qhm.verify_qhm(padded_triple())
    rep = qhm.single_function_representation(phi)
    assert np.array_equal(rep.matrix, np.diag([3.0, 3, 2, 2, -3, -3, -2, -2, 0, 0]))
    assert rep.scales == tuple(lam for lam, _ in qhm.classify(phi).splitting)
    assert rep.block_sizes == (2, 2)
    for t in rep.transforms:
        assert t.shape == (10, 10)
        assert np.max(np.abs(t @ t.T - np.eye(10))) < 1e-12


def single_function_sweep():
    """(full-rank maps, maps with a kernel), all verified.  The first are
    every member prefix of construct_irreducible(1..9): exact, conjugated by
    a seeded rotation, and the conjugated sum 3 phi + 2 phi (162 maps); the
    second are each prefix with two zero coordinates appended, exact and
    conjugated (108 maps)."""
    def conjugate(mats, seed):
        g = random_orthogonal(mats[0].shape[0], seed)
        return [g.T @ to_float(a) @ g for a in mats]

    full, kernel = [], []
    for k in range(1, 10):
        members = clifford.construct_irreducible(k).matrices
        for count in range(1, len(members) + 1):
            prefix, seed = list(members[:count]), 100 * k + count
            padded = [np.pad(a, (0, 2)) for a in prefix]
            full += [prefix, conjugate(prefix, seed),
                     conjugate([core.block_diag2(3 * a, 2 * a) for a in prefix], seed)]
            kernel += [padded, conjugate(padded, seed)]
    return [qhm.verify_qhm(m) for m in full], [qhm.verify_qhm(m) for m in kernel]


@pytest.fixture(scope="module")
def sweep_maps():
    full, kernel = single_function_sweep()
    assert (len(full), len(kernel)) == (162, 108)
    return full, kernel


# SHA-256 of the full-rank outputs, taken before the identity replaced the samples
FULL_RANK_SWEEP_SHA256 = "3fa7f0267ec4986e09c8a279a00edb7758a36375af2b385d4643721d32db9764"


def test_single_function_keeps_every_full_rank_output(sweep_maps):
    digest = hashlib.sha256()
    for rep in map(qhm.single_function_representation, sweep_maps[0]):
        digest.update(repr((rep.scales, rep.block_sizes)).encode())
        for array in (rep.matrix, *rep.transforms):
            digest.update(array.tobytes())
    assert digest.hexdigest() == FULL_RANK_SWEEP_SHA256


def test_single_function_sweep_matches_a_pointwise_reference(sweep_maps):
    for index, phi in enumerate(sweep_maps[0] + sweep_maps[1]):
        rep = qhm.single_function_representation(phi)
        X = sample_points(phi.m, 16, 5000 + index)
        assert rep.scales == pytest.approx([lam for lam, _ in qhm.classify(phi).splitting])
        for a, t in zip(phi.components, rep.transforms):
            assert np.max(np.abs(t @ t.T - np.eye(phi.m))) < 1e-12, index
            assert core.rel_residual(t.T @ rep.matrix @ t, a) <= IDENTITY_TOL, index
            direct = batch_eval([a], X)[:, 0]
            via_f = batch_eval([rep.matrix], X @ t.T)[:, 0]
            assert np.max(np.abs(direct - via_f)) < 1e-9 * max(1.0, np.max(np.abs(direct))), index


def test_every_splitting_scale_is_a_positive_eigenvalue(sweep_maps):
    for index, phi in enumerate(sweep_maps[0] + sweep_maps[1]):
        report = qhm.classify(phi)
        assert {lam for lam, _ in report.splitting} <= set(report.positive_eigenvalues), index


# SHA-256 of project_nonsingular's (projection, core) on the maps with a
# kernel, taken while the projected core was still decomposed a second time
KERNEL_PROJECTION_SHA256 = "923fa9bd0a1f23e272eede3d18c0cff765a9b2c1bcf747fcdae1ca987e91de00"


def test_projection_keeps_every_kernel_output(sweep_maps):
    digest = hashlib.sha256()
    for phi in sweep_maps[1]:
        proj, core_map = qhm.project_nonsingular(phi)
        for array in (proj, *core_map.components):
            digest.update(repr((array.dtype.str, array.shape)).encode() + array.tobytes())
    assert digest.hexdigest() == KERNEL_PROJECTION_SHA256


# ---------------------------------------------------------------------------
# the Clifford system of an umbilical map


def coupled_map():
    """verify_qhm accepts it, but A_1 has the two eigenvalues 1 + 1e-6 and 1."""
    D = np.diag([1 + 1e-6, 1.0])
    B = np.array([[1 + 1e-6, 1e-5], [-1e-5, 1.0]])
    return qhm.verify_qhm([core.block_diag2(D, -D), core.symmetric_off_diagonal(B)])


def with_kernel(phi, size=2):
    return qhm.verify_qhm([core.block_diag2(A, np.zeros((size, size), dtype=A.dtype))
                           for A in phi.components])


@pytest.mark.parametrize("make", [
    lambda: with_kernel(qhm.from_clifford(clifford.construct_irreducible(3))),
    lambda: with_kernel(qhm.from_clifford(clifford.construct_irreducible(3)), size=1),
    lambda: qhm.verify_qhm(two_scale(clifford.construct_irreducible(3).matrices)),
    lambda: qhm.verify_qhm(two_scale(float_canonical(2))),
    coupled_map,
], ids=["kernel", "kernel on odd m", "two scales", "two float scales", "coupled scales"])
def test_only_umbilical_maps_scale_to_a_clifford_system(make):
    with pytest.raises(NotUmbilical, match="not lambda\\^2 I"):
        qhm.clifford_system(make())


def test_a_zero_map_has_no_clifford_system():
    with pytest.raises(ZeroMap):
        qhm.clifford_system(qhm.scale(qhm.from_clifford(clifford.construct_irreducible(3)), 0))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_a_scaled_map_gives_the_members_back(n, monkeypatch):
    decompositions = count_calls(monkeypatch, core, "spectral_decompose")
    cs = clifford.construct_irreducible(n)
    phi = qhm.from_clifford(cs)
    assert qhm.clifford_system(phi).matrices[0].dtype == np.int64  # passed through
    for scaled in (qhm.scale(phi, 3), qhm.scale(qhm.verify_qhm(float_canonical(n)), 3.0)):
        members = qhm.clifford_system(scaled).matrices
        assert all(np.array_equal(P, Q) for P, Q in zip(members, cs.matrices))
    assert decompositions == []


@pytest.mark.parametrize("n", range(1, 10))
def test_float_clifford_systems_keep_the_eigenvalue_scaling(n):
    """Seeded conjugates land within 2e-15 of the members divided by
    classify's eigenvalue, the scale clifford_system read before."""
    g = random_orthogonal(clifford.construct_irreducible(n).two_m, 40 + n)
    phi = qhm.verify_qhm([g @ P @ g.T for P in float_canonical(n)])
    lam = qhm.classify(phi).positive_eigenvalues[0]
    members = qhm.clifford_system(phi).matrices
    assert max(np.max(np.abs(P - A / lam)) for P, A in zip(members, phi.components)) <= 2e-15


# ---------------------------------------------------------------------------
# range extension


def test_extension_of_quaternion_prefix():
    full = hopf(4)
    prefix = qhm.verify_qhm(full.components[:4])
    extended = qhm.range_extend(prefix)
    assert extended.n == 5 and extended.m == 8
    report = qhm.classify(extended)
    assert report.q_rank == 8 and report.is_umbilical
    assert report.positive_eigenvalues == pytest.approx((1.0,) * 4)
    for a, b in zip(extended.components[:4], prefix.components):
        assert np.max(np.abs(to_float(a) - to_float(b))) < 1e-12


def test_extension_of_single_plane_component():
    phi = qhm.verify_qhm([np.diag([1, -1]).astype(np.int64)])
    extended = qhm.range_extend(phi)
    assert extended.n == 2 and extended.m == 2
    assert np.allclose(to_float(extended.components[1]), [[0, 1], [1, 0]])


def test_exact_plane_map_extends_to_its_exact_partner():
    A = np.array([[3, 4], [4, -3]], dtype=np.int64)
    extended = qhm.range_extend(qhm.verify_qhm([A]))
    first, partner = extended.components
    assert first.dtype == partner.dtype == np.int64
    assert np.array_equal(first, A) and np.array_equal(partner, [[-4, 3], [3, 4]])
    assert not np.any(A @ partner + partner @ A)
    assert np.array_equal(partner @ partner, A @ A)


def test_single_component_off_the_plane_is_not_minimal():
    phi = qhm.verify_qhm([np.diag([1, 1, -1, -1]).astype(np.int64)])
    with pytest.raises(NotDomainMinimal):
        qhm.range_extend(phi)


def test_split_map_is_not_domain_minimal(split_scale_map):
    with pytest.raises(NotDomainMinimal):
        qhm.range_extend(split_scale_map)


def test_reducible_map_is_not_domain_minimal():
    phi = qhm.direct_sum(hopf(1), hopf(1))
    with pytest.raises(NotDomainMinimal):
        qhm.range_extend(phi)


def test_rank_deficient_map_is_not_domain_minimal():
    with pytest.raises(NotDomainMinimal):
        qhm.range_extend(qhm.verify_qhm(padded_triple()))


def test_octonion_map_is_already_maximal():
    with pytest.raises(AlreadyRangeMaximal):
        qhm.range_extend(hopf(8))


def test_extension_of_scaled_rotated_prefix():
    full = hopf(4)
    g = random_orthogonal(8, 51)
    prefix = qhm.verify_qhm([1.5 * (g.T @ to_float(a) @ g) for a in full.components[:4]])
    extended = qhm.range_extend(prefix)
    assert extended.n == 5
    report = qhm.classify(extended)
    assert report.is_umbilical
    assert report.positive_eigenvalues == pytest.approx((1.5,) * 4)


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_extension_sweep_keeps_the_input_components(n):
    exact = clifford.construct_irreducible(n).matrices
    g = random_orthogonal(exact[0].shape[0], 70 + n)
    for mats in (exact, [2.0 * (g @ to_float(P) @ g.T) for P in exact]):
        phi = qhm.verify_qhm(mats)
        extended = qhm.range_extend(phi, seed=n)
        assert extended.n == osystem.hurwitz_radon(phi.m // 2).sigma + 1
        for a, b in zip(extended.components, phi.components):
            assert np.array_equal(to_float(a), to_float(b))


def test_extension_checks_the_canonical_system_once(monkeypatch):
    # the normal form, the canonical system and the result; the canonical
    # system is built once per sigma, so the second extension skips its check
    qhm._canonical_members.cache_clear()
    exact = clifford.construct_irreducible(5).matrices
    g = random_orthogonal(exact[0].shape[0], 5)
    calls = count_calls(monkeypatch, core, "pairwise_relation")
    for mats, expected in ((exact, 3), ([g @ to_float(P) @ g.T for P in exact], 2)):
        phi = qhm.verify_qhm(mats)
        calls.clear()
        qhm.range_extend(phi)
        assert len(calls) == expected
    canon = qhm._canonical_members(8)  # sigma(8) = 8: the cached entry
    assert len(canon) == 9 and not any(P.flags.writeable for P in canon)


def test_extension_certifies_once_through_verify_qhm(monkeypatch):
    # minimality is read from the dimension, so the associated system is
    # neither verified nor multiplied out; verify_qhm certifies the result
    exact = clifford.construct_irreducible(5).matrices
    g = random_orthogonal(exact[0].shape[0], 5)
    verified = count_calls(monkeypatch, clifford, "verify_clifford")
    traces = count_calls(monkeypatch, clifford, "_ordered_product_trace")
    for mats in (exact, [2.0 * (g @ to_float(P) @ g.T) for P in exact]):
        phi = qhm.verify_qhm(mats)
        verified.clear()
        traces.clear()
        assert qhm.range_extend(phi).n == 9
        assert len(verified) == len(traces) == 0


def test_plane_extension_needs_no_classification(monkeypatch):
    phi = qhm.verify_qhm([np.array([[3, 4], [4, -3]], dtype=np.int64)])
    classified = count_calls(monkeypatch, qhm, "classify")
    decomposed = count_calls(monkeypatch, core, "spectral_decompose")
    assert qhm.range_extend(phi).n == 2
    assert len(classified) == len(decomposed) == 0


def test_two_class_member_counts_are_never_extended():
    # 4j + 1 members are the only count with two irreducible classes; their
    # minimal domain already carries sigma = 4j, so extension never meets them
    for k in range(4, 41, 4):
        assert osystem.hurwitz_radon(clifford.minimal_domain_dimension(k)).sigma == k
    with pytest.raises(AlreadyRangeMaximal):
        qhm.range_extend(qhm.from_clifford(clifford.construct_irreducible(4)))


def test_short_prefix_is_not_domain_minimal():
    # three components on the eight-dimensional domain fit on half of it
    prefix = qhm.verify_qhm(hopf(4).components[:3])
    with pytest.raises(NotDomainMinimal):
        qhm.range_extend(prefix)


def test_decomposition_readers_reject_the_coupled_map():
    """range_extend and sphere_restriction_check read _decompose and build
    no splitting, so the coupled map meets their scale gates; only classify
    bounds the blocks' coupling (RankMismatch)."""
    phi = coupled_map()
    with pytest.raises(NotDomainMinimal, match="distinct eigenvalue scales"):
        qhm.range_extend(phi)
    with pytest.raises(NotUmbilical, match="not all equal"):
        qhm.sphere_restriction_check(phi)


def decomposition_reader_maps():
    """construct_irreducible(1..9) exact, as a seeded float conjugate, padded
    with one and with two zero coordinates, and the conjugated sum
    3 phi + 2 phi, plus the exact plane map: 46 verified maps."""
    maps = []
    for k in range(1, 10):
        members = clifford.construct_irreducible(k).matrices
        two_m = members[0].shape[0]
        g, g2 = random_orthogonal(two_m, 300 + k), random_orthogonal(2 * two_m, 400 + k)
        maps += [members, [g @ to_float(P) @ g.T for P in members],
                 [np.pad(P, (0, 1)) for P in members], [np.pad(P, (0, 2)) for P in members],
                 [g2 @ to_float(core.block_diag2(3 * P, 2 * P)) @ g2.T for P in members]]
    maps.append([np.array([[3, 4], [4, -3]], dtype=np.int64)])
    return [qhm.verify_qhm(m) for m in maps]


# SHA-256 of the outputs, taken while both routines still read classify
DECOMPOSITION_READERS_SHA256 = "74d43e914d202aa772f07f1688cf16dfccbf093b3dfc149eae4ddc1ddf98a3b5"


def test_decomposition_readers_keep_every_output():
    def outcome(func, phi):
        try:
            return func(phi)
        except VerificationError as exc:
            return f"{type(exc).__name__}: {exc}"

    maps = decomposition_reader_maps()
    assert len(maps) == 46
    digest = hashlib.sha256()
    for phi in maps:
        extended = outcome(qhm.range_extend, phi)
        if isinstance(extended, str):
            digest.update(extended.encode())
        else:
            for A in extended.components:
                digest.update(A.dtype.str.encode() + to_float(A).tobytes())
        digest.update(repr(outcome(qhm.sphere_restriction_check, phi)).encode())
    assert digest.hexdigest() == DECOMPOSITION_READERS_SHA256


# ---------------------------------------------------------------------------
# sign class counting


def test_class_counts():
    table = {(4, 1): 1, (4, 2): 2, (4, 3): 4, (8, 2): 2, (8, 4): 8,
             (12, 3): 4, (1, 5): 1, (2, 3): 1, (3, 7): 1, (5, 2): 1,
             (6, 4): 1, (7, 2): 1}
    for (n, k), expected in table.items():
        assert qhm.count_biequivalence_classes(n, k) == expected
    with pytest.raises(ValueError):
        qhm.count_biequivalence_classes(0, 2)
    with pytest.raises(ValueError):
        qhm.count_biequivalence_classes(4, 0)


# ---------------------------------------------------------------------------
# geometric sample checks


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_balanced_difference_form_is_isoparametric(m):
    f = np.diag([1.0] * m + [-1.0] * m)
    rep = qhm.verify_isoparametric(f)
    assert rep.holds
    assert rep.laplacian_coefficient == 0.0
    assert rep.scale == pytest.approx(1.0)
    assert rep.max_gradient_defect < 1e-10 and rep.max_laplacian_defect < 1e-10


def test_unbalanced_involution_is_isoparametric():
    rep = qhm.verify_isoparametric(np.diag([1.0, 1.0, 1.0, -1.0]))
    assert rep.holds
    assert rep.laplacian_coefficient == pytest.approx(4.0)


def test_single_coordinate_square_is_not_isoparametric():
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    rep = qhm.verify_isoparametric(m)
    assert not rep.holds and rep.max_gradient_defect > 1e-2


def test_isoparametric_input_gates():
    with pytest.raises(ShapeMismatch):
        qhm.verify_isoparametric(np.ones((2, 3)))
    with pytest.raises(NotSymmetric):
        qhm.verify_isoparametric(np.array([[0.0, 1.0], [0.0, 0.0]]))


def isoparametric_sweep_matrices():
    """Random symmetric matrices, 2.5 times seeded conjugates of signed
    involutions, and the hand-picked cases of the tests above."""
    rng = np.random.default_rng(24)
    mats = [random_symmetric(m, seed) for m in range(1, 13) for seed in range(17)]
    for m in range(1, 13):
        for seed in range(17):
            g = random_orthogonal(m, seed)
            mats.append(2.5 * (g * rng.choice([-1.0, 1.0], size=m)) @ g.T)
    mats += [np.diag([1.0] * m + [-1.0] * m) for m in (1, 2, 4, 8)]
    mats += [np.diag([1.0, 1.0, 1.0, -1.0]), np.diag([1.0, 0.0, 0.0]),
             np.diag([1.0, 2.0, -3.0]), 1e-6 * np.diag([1.0, 1.0, 1.0, -1.0])]
    return mats


def sampled_isoparametric_verdict(M, samples=64, seed=0):
    """The central-difference test at unit scale that the identity replaced."""
    (U,), _ = qhm._unit_scale([M])
    m, h = U.shape[0], 0.5
    X = sample_points(m, samples, seed)

    def form(P):
        return np.einsum("...i,ij,...j->...", P, U, P)

    plus, minus = form(X[:, None, :] + h * np.eye(m)), form(X[:, None, :] - h * np.eye(m))
    grad_sq = np.sum(((plus - minus) / (2 * h)) ** 2, axis=1)
    lap = np.sum(plus + minus - 2 * form(X)[:, None], axis=1) / h**2
    target = 4.0 * np.trace(U @ U) / m * np.sum(X * X, axis=1)
    c = 2.0 * np.trace(U)
    grad_defect = np.max(np.abs(grad_sq - target) / np.maximum(1.0, target))
    lap_defect = np.max(np.abs(lap - c)) / max(1.0, abs(c))
    return bool(grad_defect <= IDENTITY_TOL and lap_defect <= IDENTITY_TOL)


def test_isoparametric_identity_matches_the_sampled_verdict():
    mats = isoparametric_sweep_matrices()
    assert len(mats) == 416
    verdicts = [qhm.verify_isoparametric(M) for M in mats]
    assert [rep.holds for rep in verdicts] == [sampled_isoparametric_verdict(M) for M in mats]
    assert sum(rep.holds for rep in verdicts) == 17 + 204 + 6  # every 1 x 1 matrix holds
    for M, rep in zip(mats, verdicts):
        assert rep.max_laplacian_defect == 0.0
        assert rep.laplacian_coefficient == 2.0 * np.trace(M)
        assert (rep.max_gradient_defect <= 1e-14) == rep.holds


@pytest.mark.parametrize("rows, holds", [
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], True),
    ([[0, 2**32 - 1], [2**32 - 1, 0]], True),  # its square wraps around in int64
    ([[1, 0], [0, 2]], False),  # scale^2 = 5/2 is no integer
    ([[1, 0, 0], [0, 2, 0], [0, 0, -3]], False),
    ([["1/2", 0], [0, "1/3"]], False),
    ([["3/2", "-2"], ["-2", "-3/2"]], True),  # 5/2 times a rational reflection
])
def test_exact_isoparametric_input_is_decided_exactly(rows, holds):
    M = core.as_matrix(rows)
    rep = qhm.verify_isoparametric(M)
    assert core.is_exact(M) and rep.holds == holds
    assert (rep.max_gradient_defect == 0.0) == holds
    assert rep.holds == sampled_isoparametric_verdict(to_float(M))


def reference_isoparametric(f_matrix, tol=IDENTITY_TOL):
    """Formula for formula the earlier verify_isoparametric, whose exact
    target multiplied every entry of the identity by the Fraction scale^2."""
    (M,), u = qhm._unit_scale(core.square_matrices([f_matrix], "function matrices"))
    Mf = to_float(M)
    m = Mf.shape[0]
    scale_sq = float(np.trace(Mf @ Mf)) / m
    target = core.identity_matrix(m) * Fraction(sum(v * v for v in M.ravel().tolist()), m)
    worst, failure = core.pairwise_relation([M], target, tol=tol)
    return qhm.IsoparametricReport(holds=failure is None, scale=np.sqrt(scale_sq) * u,
                                   laplacian_coefficient=2.0 * float(np.trace(Mf)) * u,
                                   max_gradient_defect=failure[2] if failure else worst,
                                   max_laplacian_defect=0.0)


@pytest.mark.parametrize("rows, holds", [
    ([[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, -3, 0], [0, 0, 0, 3]], True),  # scale^2 = 9
    ([[0, 2**32 - 1], [2**32 - 1, 0]], True),  # scale^2 beyond int64
    ([[2, 0], [0, 0]], False),  # scale^2 = 2
    ([[1, 0, 0], [0, 2, 0], [0, 0, 0]], False),  # scale^2 = 5/3
    ([[2**40, 0], [0, -2**40]], True),  # object entries, unit scale^2 = 1
    ([["3/5", 0], [0, "-3/5"]], True),  # unit scale^2 = 36/25
    ([["3/5", 0], [0, "1/3"]], False),
    ([[2**40, 3], [3, 2**40]], False),
])
def test_exact_isoparametric_targets_give_the_reports_of_the_full_fraction_target(rows, holds):
    M = core.as_matrix(rows)
    rep = qhm.verify_isoparametric(M)
    assert rep.holds == holds
    assert rep == reference_isoparametric(M)


def test_isoparametric_verdicts_that_flip_at_the_tolerance_edge():
    """The identity's residual |M^2 - s^2 I| / max(1, s^2 sqrt(m)) and the
    sampled max |4 x^T (M^2 - s^2 I) x| / max(1, 4 s^2 |x|^2) normalise
    differently, so a float matrix with a defect near tol can flip.  On
    diag(1 + d, -1, 1, -1, ...) these do: the sampled defect (64 samples,
    seed 0) was above tol, the identity's is below."""
    for m, d in [(4, 1e-9), (16, 1.78e-9)]:
        M = np.diag([1.0 + d] + [(-1.0) ** i for i in range(1, m)])
        rep = qhm.verify_isoparametric(M)
        assert rep.holds and 0.8e-9 < rep.max_gradient_defect <= IDENTITY_TOL
        assert not sampled_isoparametric_verdict(M)


def test_spheres_map_to_spheres():
    rep = qhm.sphere_restriction_check(hopf(4))
    assert rep.holds and rep.radius == pytest.approx(1.0)
    assert rep.max_defect < 1e-12
    scaled = qhm.sphere_restriction_check(qhm.scale(hopf(4), 3.0))
    assert scaled.holds and scaled.radius == pytest.approx(3.0)


def test_sphere_check_needs_one_scale(split_scale_map):
    with pytest.raises(NotUmbilical):
        qhm.sphere_restriction_check(split_scale_map)


def sphere_sweep_maps():
    """The maps of construct_irreducible(1..9) and of their doubles, every
    component prefix of each, exact and as three seeded float conjugates,
    plus the Hopf maps padded with a two-dimensional kernel."""
    maps = []
    for n in range(1, 10):
        base = qhm.from_clifford(clifford.construct_irreducible(n))
        for phi in (base, qhm.direct_sum(base, base)):
            for k in range(1, phi.n + 1):
                prefix = qhm.verify_qhm(phi.components[:k])
                maps.append(prefix)
                for seed in range(3):
                    g = random_orthogonal(phi.m, seed)
                    maps.append(qhm.verify_qhm([g @ to_float(A) @ g.T for A in prefix.components]))
    for n in (1, 2, 4, 8):
        maps.append(qhm.verify_qhm([core.block_diag2(A, np.zeros((2, 2), dtype=np.int64))
                                    for A in hopf(n).components]))
    return maps


@pytest.fixture(scope="module")
def sphere_sweep():
    return [(phi, qhm.sphere_restriction_check(phi)) for phi in sphere_sweep_maps()]


def sampled_sphere_verdict(phi, samples=200, seed=3):
    """The sampled test of |phi(x)| = radius |x|^2 that the closed form replaced."""
    radius = qhm.classify(phi).positive_eigenvalues[0]
    X = sample_points(phi.m, samples, seed)
    vals = batch_eval(phi.components, X)
    target = radius * np.sum(X * X, axis=1)
    defect = np.max(np.abs(np.sqrt(np.sum(vals * vals, axis=1)) - target) / target)
    return bool(defect <= IDENTITY_TOL)


def test_sphere_verdict_matches_the_sampled_verdict(sphere_sweep):
    assert len(sphere_sweep) == 436
    assert sum(rep.holds for _, rep in sphere_sweep) == 16
    for phi, rep in sphere_sweep:
        assert rep.holds == sampled_sphere_verdict(phi), (phi.m, phi.n)
        assert rep.max_defect == (0.0 if rep.holds else 1.0)
        assert rep.holds == (phi.n == phi.m // 2 + 1 and qhm.classify(phi).is_q_nonsingular)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_a_kernel_breaks_the_sphere_restriction_even_when_n_is_m_half_plus_one(n):
    """A Hopf map padded by one zero coordinate has n = m // 2 + 1 on odd m,
    and sends that coordinate's unit vector to 0."""
    phi = qhm.verify_qhm([core.block_diag2(A, np.zeros((1, 1), dtype=np.int64))
                          for A in hopf(n).components])
    rep = qhm.sphere_restriction_check(phi)
    assert phi.n == phi.m // 2 + 1 and not rep.holds and rep.max_defect == 1.0
    assert not sampled_sphere_verdict(phi)
    assert not np.any(qhm.evaluate(phi, np.eye(phi.m)[-1]))


def test_a_failing_sphere_verdict_has_a_point_mapped_to_zero(sphere_sweep):
    """x = (a, b) in to_standard_representation coordinates, with b a unit
    vector and a a unit vector orthogonal to tau_1 b, ..., tau_(n-1) b; on a
    map with a kernel, a kernel vector."""
    witnessed = 0
    for phi, rep in sphere_sweep:
        if rep.holds:
            continue
        report = qhm.classify(phi)
        lam, half = report.positive_eigenvalues[0], phi.m // 2
        members = [to_float(A) / lam for A in phi.components]
        if not report.is_q_nonsingular:
            x = np.linalg.svd(members[0])[2][-1]
        else:
            if phi.n == 1:
                change, taus = core.spectral_decompose(members[0]).eigenvectors.T, ()
            else:
                cs = clifford.verify_clifford(members)
                change, os_ = clifford.to_standard_representation(cs)
                taus = os_.matrices
            b = np.eye(half)[0]
            a = np.linalg.svd(np.array([to_float(t) @ b for t in taus]))[2][-1] if taus else b
            x = to_float(change).T @ np.concatenate([a, b])
        assert np.max(np.abs(qhm.evaluate(phi, x))) <= 1e-12 * lam * (x @ x), (phi.m, phi.n)
        witnessed += 1
    assert witnessed == len(sphere_sweep) - 16


def test_component_one_is_decomposed_once(monkeypatch):
    g = random_orthogonal(8, 11)
    phi = qhm.verify_qhm([g @ to_float(a) @ g.T for a in hopf(4).components])
    calls = count_calls(monkeypatch, core, "spectral_decompose")
    qhm.classify(phi)
    assert len(calls) == 1
    calls.clear()
    qhm.single_function_representation(phi)
    assert len(calls) == 1


def test_exact_full_rank_classify_decomposes_once(monkeypatch):
    phi = qhm.verify_qhm(clifford.construct_irreducible(5).matrices)
    calls = count_calls(monkeypatch, core, "spectral_decompose")
    report = qhm.classify(phi)
    assert report.is_q_nonsingular and report.is_umbilical
    assert len(calls) == 1


def test_classify_reuses_component_one_for_the_kernel(monkeypatch):
    padded = [np.pad(to_float(P), (0, 2)) for P in clifford.construct_irreducible(3).matrices]
    g = random_orthogonal(10, 13)
    phi = qhm.verify_qhm([g @ M @ g.T for M in padded])
    calls = count_calls(monkeypatch, core, "spectral_decompose")
    ranks = count_calls(monkeypatch, core, "numeric_rank")
    report = qhm.classify(phi)
    assert report.zero_count == 2 and phi.n == 4
    assert len(calls) == 1  # component 1 alone; the core's normal form reuses it
    assert ranks == []  # a float map's rank is its count of kept eigenvalues


RANGE_MAXIMAL = {("irreducible", 4), ("hopf", 1), ("hopf", 2), ("hopf", 4), ("hopf", 8)}


@pytest.mark.parametrize("family,k", [("irreducible", k) for k in range(3, 8)]
                         + [("hopf", n) for n in (1, 2, 4, 8)])
def test_constructed_maps_are_ranked_without_elimination(monkeypatch, family, k):
    # A_1^2 is diagonal for every construction and Hopf map, so its count of
    # nonzero diagonal entries is the rank
    phi = qhm.from_clifford(clifford.construct_irreducible(k)) if family == "irreducible" else hopf(k)
    calls = count_calls(monkeypatch, core, "exact_rank")
    qhm.classify(phi)
    qhm.normal_form(phi)
    qhm.single_function_representation(phi)
    if (family, k) in RANGE_MAXIMAL:
        with pytest.raises(AlreadyRangeMaximal):
            qhm.range_extend(phi)
    else:
        assert qhm.range_extend(phi).n > phi.n
    assert calls == []


def rotated_two_scale_sum():
    """3 phi + 2 phi of construct_irreducible(3), conjugated by the rational
    rotation with cosine 3/5 and sine 4/5 in every plane (x_i, x_(8+i)), which
    mixes the two summands: an exact map whose A_1^2 is not diagonal."""
    base = clifford.construct_irreducible(3).matrices
    eye = np.eye(8, dtype=np.int64).astype(object)
    c, s = Fraction(3, 5), Fraction(4, 5)
    rot = np.block([[c * eye, -s * eye], [s * eye, c * eye]])
    return qhm.verify_qhm([rot @ core.block_diag2(3 * P, 2 * P) @ rot.T for P in base])


def test_exact_map_with_a_square_that_is_not_diagonal_is_eliminated_once(monkeypatch):
    phi = rotated_two_scale_sum()
    square = phi.components[0] @ phi.components[0]
    assert np.count_nonzero(square) > np.count_nonzero(np.diagonal(square))
    calls = count_calls(monkeypatch, core, "exact_rank")
    report = qhm.classify(phi)
    assert len(calls) == 1
    assert report.q_rank == 16 and report.is_q_nonsingular
    assert [lam for lam, _ in report.splitting] == pytest.approx([3.0, 2.0])
    assert [summand.m for _, summand in report.splitting] == [8, 8]


def rank_boundary_pair(s):
    """A_1 = diag(1, 1e-8, -1, -1e-8) and A_2 = [[0, B], [B^T, 0]] with
    B = diag(1, s): by singular values A_2 has rank 2 for s below rank_tol
    (1e-9, relative to A_2's largest singular value 1) and rank 4 above it,
    while A_1 has rank 4."""
    return [np.diag([1.0, 1e-8, -1.0, -1e-8]), core.symmetric_off_diagonal(np.diag([1.0, s]))]


@pytest.mark.parametrize("s", [1e-10, 5e-10])
def test_classify_verdict_does_not_depend_on_the_side_of_rank_tol(s):
    mats = rank_boundary_pair(s)
    assert core.numeric_rank(mats[1]) == 2
    report = qhm.classify(qhm.verify_qhm(mats))
    above = qhm.classify(qhm.verify_qhm(rank_boundary_pair(2e-9)))
    for r in (report, above):
        assert (r.q_rank, r.zero_count, r.is_q_nonsingular, r.is_umbilical) == (4, 0, True, False)
        assert [lam for lam, _ in r.splitting] == [1.0, 1e-8]
        assert [summand.m for _, summand in r.splitting] == [2, 2]


def half_rank_pair(size):
    """diag(1, 1, -1, -1) with [[0, diag(1, 0)], [diag(1, 0), 0]], padded with
    zeros to size x size: deliberately unverified, the second component has
    rank 2."""
    mats = [np.diag([1, 1, -1, -1]), core.symmetric_off_diagonal(np.diag([1, 0]))]
    return qhm.QuadraticHarmonicMorphism(
        m=size, n=2, components=tuple(np.pad(M, (0, size - 4)).astype(np.int64) for M in mats))


@pytest.mark.parametrize("size", [4, 6])
def test_unverified_component_of_lower_rank_fails_the_block_gram(size):
    with pytest.raises(RankMismatch, match="block gram matrix"):
        qhm.classify(half_rank_pair(size))


def test_unverified_component_off_the_kernel_violates_it():
    mats = (np.diag([1, -1, 0, 0]).astype(np.int64),
            core.symmetric_off_diagonal(np.eye(2, dtype=np.int64)))
    with pytest.raises(SharedKernelViolated):
        qhm.classify(qhm.QuadraticHarmonicMorphism(m=4, n=2, components=mats))


def two_scale_pair(drift):
    """A_1 = diag(1, 1e-4, -1, -1e-4) and A_2 = [[0, B], [B^T, 0]] with
    B = diag(1, 1e-4 + drift): A_2's small eigenvalues are off by drift."""
    b = np.diag([1.0, 1e-4 + drift])
    return [np.diag([1.0, 1e-4, -1.0, -1e-4]), core.symmetric_off_diagonal(b)]


def test_squares_within_tolerance_classify_despite_spread_small_eigenvalues():
    # The squares agree to ~2e-11, inside IDENTITY_TOL, although the small
    # eigenvalues differ by 1e-7, beyond EIG_PAIR_TOL: classify accepts what
    # verify_qhm accepts instead of comparing the two spectra.
    phi = qhm.verify_qhm(two_scale_pair(1e-7))
    report = qhm.classify(phi)
    assert tuple(lam for lam, _ in report.splitting) == (1.0, 1e-4)


def test_block_relations_reject_a_component_with_another_spectrum():
    mats = two_scale_pair(1e-3)
    with pytest.raises(NotHorizontallyConformal):
        qhm.verify_qhm(mats)
    phi = qhm.QuadraticHarmonicMorphism(m=4, n=2, components=tuple(mats))  # deliberately unverified
    with pytest.raises(RankMismatch, match="block gram matrix"):
        qhm.classify(phi)


@pytest.mark.slow
def test_verify_and_classify_at_two_m_256():
    cs = clifford.construct_irreducible(13)
    phi = qhm.verify_qhm(cs.matrices)
    assert (phi.m, phi.n) == (256, 14)
    g = random_orthogonal(256, 256)
    conj = qhm.verify_qhm([g @ to_float(P) @ g.T for P in cs.matrices])
    report = qhm.classify(conj)
    assert report.is_umbilical and report.q_rank == 256
    assert clifford.is_irreducible(cs)
    assert clifford.is_irreducible(clifford.verify_clifford(conj.components))


def traced_peak_mb(fn, *args, **kwargs):
    """(result, peak MB of memory traced while fn runs)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sampled_route_in_blocks_matches_one_block(monkeypatch):
    mats = [to_float(P) for P in clifford.construct_irreducible(11).matrices]
    X = sample_points(128, 64, 5)
    monkeypatch.setattr(qhm, "_SAMPLE_BLOCK_BYTES", 3 * 64 * 128 * 128 * 8)
    whole = qhm._central_differences(mats, X)
    monkeypatch.setattr(qhm, "_SAMPLE_BLOCK_BYTES", 3 * 5 * 128 * 128 * 8)
    blocked = qhm._central_differences(mats, X)  # 12 blocks of 5 samples, one of 4
    for a, b in zip(whole, blocked):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_sampled_route_memory_is_bounded_at_two_m_128():
    cs = clifford.construct_irreducible(11)
    report, peak = traced_peak_mb(qhm.sampled_check, cs.matrices, samples=64, seed=1)
    assert report.passed
    assert peak <= 8.0, f"sampled route peaked at {peak:.1f} MB"


@pytest.mark.slow
def test_verify_at_two_m_512(monkeypatch):
    """construct_irreducible(17) and check_qhm at 8 samples take ~7.5 s on a
    2-core machine with BLAS at one thread, and exact classify ~0.5 s more:
    A_1^2 is diagonal, so no component is ranked by elimination.  On float
    input the sampled route holds one block of shifted points and products,
    not the three arrays of samples * m^2 floats (~50 MB at 8 samples) of
    evaluating every point at once.  The members' document decodes back to
    int64 members bit for bit."""
    cs = clifford.construct_irreducible(17)
    back = serialize.decode(serialize.loads(serialize.dumps(serialize.encode(cs))))
    assert all(b.dtype == np.int64 and np.array_equal(b, a)
               for a, b in zip(cs.matrices, back.matrices, strict=True))
    phi, residuals = qhm.check_qhm(cs.matrices, samples=8)
    assert (phi.m, phi.n) == (512, 18)
    assert max(residuals.values()) <= IDENTITY_TOL
    calls = count_calls(monkeypatch, core, "exact_rank")
    report = qhm.classify(phi)
    assert report.q_rank == 512 and report.is_umbilical
    assert calls == []
    floats = [to_float(P) for P in cs.matrices]
    report, peak = traced_peak_mb(qhm.sampled_check, floats, samples=8, seed=2)
    assert report.passed
    assert peak <= 20.0, f"sampled route peaked at {peak:.1f} MB"


# ---------------------------------------------------------------------------
# one scale rule: every float check judges the map at unit scale


# constructed maps, all int64: canonical maps, a two-scale sum and a map
# with a two-dimensional kernel
SCALE_BUILDERS = {
    **{f"canonical {n}": (lambda n=n: list(clifford.construct_irreducible(n).matrices))
       for n in range(1, 6)},
    "2phi+phi": lambda: two_scale(list(clifford.construct_irreducible(2).matrices)),
    "padded": padded_triple,
}


def _times_power_of_two(mats, k):
    """2^k times the components, exactly: np.ldexp on floats; int64 while the
    entries stay below 2^31, Fractions beyond."""
    if mats[0].dtype == np.float64:
        return [np.ldexp(M, k) for M in mats]
    if 0 <= k <= 28:
        return [M * 2**k for M in mats]
    return [M.astype(object) * Fraction(2) ** k for M in mats]


def _verify_outcome(mats, k, exact):
    """check_qhm's residuals, or the rejection with its fields in phi's units
    (an exact rejection reports an absolute residual, which is left out)."""
    try:
        return "valid", qhm.check_qhm(mats, samples=8, seed=1)[1]
    except VerificationError as exc:
        fields = dict(vars(exc))
        if "trace" in fields:
            fields["trace"] = (fields["trace"] / Fraction(2) ** k if exact
                               else np.ldexp(fields["trace"], -k))
        if exact:
            fields.pop("residual", None)
        return type(exc).__name__, fields


def _classify_outcome(mats, k):
    """classify's report with its scales divided by 2^k, as bytes."""
    rep = qhm.classify(qhm.verify_qhm(mats, samples=8, seed=1))
    return (rep.q_rank, rep.zero_count, rep.is_q_nonsingular, rep.is_umbilical,
            [np.ldexp(v, -k) for v in rep.positive_eigenvalues],
            [(np.ldexp(lam, -k), s.m, [to_float(M).tobytes() for M in s.components])
             for lam, s in rep.splitting],
            rep.split_change.tobytes(),
            None if rep.projection is None else to_float(rep.projection).tobytes())


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(SCALE_BUILDERS)), as_float=st.booleans(),
       broken=st.booleans(), k=st.integers(min_value=-400, max_value=400),
       seed=st.integers(min_value=0, max_value=2**16), data=st.data())
def test_power_of_two_scaling_keeps_every_verdict_bit_for_bit(name, as_float, broken, k,
                                                              seed, data):
    mats = SCALE_BUILDERS[name]()
    if as_float:
        g = random_orthogonal(mats[0].shape[0], seed)
        mats = [g.T @ to_float(a) @ g for a in mats]
    if broken:
        size = mats[0].shape[0]
        c = data.draw(st.integers(0, len(mats) - 1))
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        mats[c] = mats[c].copy()
        mats[c][i, j] += 0.05 if as_float else 1
        if i != j:
            mats[c][j, i] += 0.05 if as_float else 1
    scaled = _times_power_of_two(mats, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = _verify_outcome(mats, 0, not as_float)
        assert _verify_outcome(scaled, k, not as_float) == verdict
        if verdict[0] == "valid":
            assert _classify_outcome(scaled, k) == _classify_outcome(mats, 0)


@pytest.mark.parametrize("factor", [1.0, 1e-2, 1e-4, 1e-5, 1e-6, 1e-8])
def test_small_broken_map_is_still_rejected(factor):
    with pytest.raises(NotHorizontallyConformal) as err:
        qhm.verify_qhm([factor * M for M in broken_canonical()])
    assert (err.value.i, err.value.j) == (1, 2)


@pytest.mark.parametrize("factor", [1e-6, 1e-9, 1e-10, 1e-100])
def test_small_two_scale_map_verifies_and_classifies(factor):
    phi = qhm.verify_qhm([factor * M for M in two_scale(float_canonical(3))])
    rep = qhm.classify(phi)
    assert [lam for lam, _ in rep.splitting] == pytest.approx([2 * factor, factor], rel=1e-12)
    assert [s.m for _, s in rep.splitting] == [8, 8]


def test_float_zero_map_is_decided_exactly():
    with pytest.raises(ZeroMap):
        qhm.verify_qhm([np.zeros((3, 3)), np.zeros((3, 3))])
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    assert qhm.verify_qhm([np.diag([tiny, -tiny])]).n == 1
    with pytest.raises(NotHarmonic):
        qhm.verify_qhm([np.diag([tiny, 0.0])])


@settings(max_examples=60, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False).filter(bool),
       i=st.integers(0, 2), j=st.integers(0, 2))
def test_a_float_map_with_a_nonzero_entry_is_not_a_zero_map(value, i, j):
    M = np.zeros((3, 3))
    M[i, j] = M[j, i] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if i == j:
            with pytest.raises(NotHarmonic):
                qhm.verify_qhm([M])
        else:  # one traceless component is a harmonic function
            assert qhm.verify_qhm([M]).n == 1


@pytest.mark.parametrize("k", [-300, -7, 5, 200])
def test_normal_form_projection_and_single_function_are_in_the_callers_units(k):
    two = two_scale(float_canonical(2))
    g = random_orthogonal(two[0].shape[0], 23)
    phi = qhm.verify_qhm([g.T @ a @ g for a in two])
    big = qhm.verify_qhm([np.ldexp(a, k) for a in phi.components])
    nf, nf_big = qhm.normal_form(phi), qhm.normal_form(big)
    assert nf_big.change_of_coords.tobytes() == nf.change_of_coords.tobytes()
    assert nf_big.D.tobytes() == np.ldexp(nf.D, k).tobytes()
    assert [B.tobytes() for B in nf_big.B] == [np.ldexp(B, k).tobytes() for B in nf.B]
    sf, sf_big = (qhm.single_function_representation(p) for p in (phi, big))
    assert sf_big.scales == tuple(np.ldexp(s, k) for s in sf.scales)
    assert sf_big.matrix.tobytes() == np.ldexp(sf.matrix, k).tobytes()
    h = random_orthogonal(10, 29)
    padded = [h.T @ to_float(a) @ h for a in padded_triple()]
    proj, core_map = qhm.project_nonsingular(qhm.verify_qhm(padded))
    proj_big, core_big = qhm.project_nonsingular(
        qhm.verify_qhm([np.ldexp(a, k) for a in padded]))
    assert proj_big.tobytes() == proj.tobytes()
    assert ([M.tobytes() for M in core_big.components]
            == [np.ldexp(M, k).tobytes() for M in core_map.components])


def test_exact_outputs_keep_their_mode_and_units():
    halves = [a.astype(object) * Fraction(1, 2) for a in padded_triple()]
    proj, core_map = qhm.project_nonsingular(qhm.verify_qhm(halves))
    assert proj.dtype == np.int64
    assert all(np.array_equal(M, a[:8, :8]) for M, a in zip(core_map.components, halves))
    nf = qhm.normal_form(qhm.verify_qhm([core.as_matrix([["1/2", 0], [0, "-1/2"]]),
                                         core.as_matrix([[0, "1/2"], ["1/2", 0]])]))
    assert nf.D.dtype == object and nf.D[0, 0] == Fraction(1, 2)
    assert nf.B[0].dtype == object and nf.B[0][0, 0] == Fraction(1, 2)


def test_isoparametric_verdict_does_not_depend_on_scale():
    f = np.diag([1.0, 2.0, -3.0])
    ref = qhm.verify_isoparametric(f)
    assert not ref.holds and ref.max_gradient_defect > 0.5
    for k in (-40, -1, 3):
        rep = qhm.verify_isoparametric(np.ldexp(f, k))
        assert (rep.holds, rep.max_gradient_defect, rep.max_laplacian_defect) == (
            ref.holds, ref.max_gradient_defect, ref.max_laplacian_defect)
        assert rep.scale == np.ldexp(ref.scale, k)
    rep = qhm.verify_isoparametric(1e-6 * f)
    assert not rep.holds and rep.max_gradient_defect > 0.5
    assert rep.scale == pytest.approx(1e-6 * np.sqrt(14 / 3), rel=1e-12)
    rep = qhm.verify_isoparametric(1e-6 * np.diag([1.0, 1.0, 1.0, -1.0]))
    assert rep.holds and rep.laplacian_coefficient == pytest.approx(4e-6, rel=1e-12)


def test_shared_kernel_defect_is_never_a_nan_read_as_zero(monkeypatch):
    g = random_orthogonal(10, 31)
    phi = qhm.verify_qhm([g.T @ to_float(a) @ g for a in padded_triple()])
    monkeypatch.setattr(qhm, "frobenius", lambda a: float("nan"))
    with pytest.raises(SharedKernelViolated):
        qhm.project_nonsingular(phi)


def test_a_zero_component_is_no_zero_division():
    """Deliberately unverified maps with one zero component: its Laplacian
    and its kernel defect are 0, not 0/0; the projection then stops at the
    block relations, as the zero block's gram matrix is no D^2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = qhm.sampled_check([np.diag([1.0, -1.0]), np.zeros((2, 2))], samples=8)
        assert rep.max_harmonic_defect < 1e-12 and rep.max_diagonal_spread == 1.0
        assert not rep.passed
        g = random_orthogonal(3, 5)
        phi = qhm.QuadraticHarmonicMorphism(
            m=3, n=2, components=(g @ np.diag([1.0, -1.0, 0.0]) @ g.T, np.zeros((3, 3))))
        with pytest.raises(RankMismatch, match="block gram matrix does not match"):
            qhm.project_nonsingular(phi)
