import numpy as np
import pytest

from quadmorph import clifford, core, orthomul, osystem, qhm
from quadmorph.core import DEFAULT_TOLERANCES, random_orthogonal, sample_points, to_float
from quadmorph.errors import (
    AlreadyRangeMaximal,
    ArityMismatch,
    DimensionMismatch,
    NotDomainMinimal,
    NotHarmonic,
    NotHorizontallyConformal,
    NotSymmetric,
    NotUmbilical,
    QSingular,
    RankMismatch,
    SampleDisagreement,
    ShapeMismatch,
    SharedKernelViolated,
    VerificationError,
    ZeroMap,
)

from conftest import eight_dim_triple, leaky_pair, random_symmetric

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


def test_sampled_check_passes_on_triple(split_scale_map):
    rep = qhm.sampled_check(split_scale_map.components, samples=32, seed=5)
    assert rep.passed and rep.samples == 32
    assert rep.max_harmonic_defect < 1e-10
    assert rep.max_offdiagonal_defect < 1e-10
    assert rep.max_diagonal_spread < 1e-10
    with pytest.raises(ValueError):
        qhm.sampled_check(split_scale_map.components, samples=0)


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
    assert got[broken] > DEFAULT_TOLERANCES.identity_tol
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


def test_single_function_defect_is_never_a_nan_read_as_zero(monkeypatch, split_scale_map):
    def nan_points(dim, count, seed):
        X = sample_points(dim, count, seed)
        X[0, 0] = np.nan
        return X

    monkeypatch.setattr(qhm, "sample_points", nan_points)
    with pytest.raises(SampleDisagreement):
        qhm.single_function_representation(split_scale_map)


def test_single_function_requires_full_rank():
    with pytest.raises(QSingular):
        qhm.single_function_representation(qhm.verify_qhm(padded_triple()))


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
    rep = qhm.verify_isoparametric(f, samples=128, seed=7)
    assert rep.holds
    assert rep.laplacian_coefficient == 0.0
    assert rep.scale == pytest.approx(1.0)
    assert rep.max_gradient_defect < 1e-10 and rep.max_laplacian_defect < 1e-10


def test_unbalanced_involution_is_isoparametric():
    rep = qhm.verify_isoparametric(np.diag([1.0, 1.0, 1.0, -1.0]), samples=64, seed=8)
    assert rep.holds
    assert rep.laplacian_coefficient == pytest.approx(4.0)


def test_single_coordinate_square_is_not_isoparametric():
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    rep = qhm.verify_isoparametric(m, samples=64, seed=9)
    assert not rep.holds and rep.max_gradient_defect > 1e-2


def test_isoparametric_input_gates():
    with pytest.raises(ShapeMismatch):
        qhm.verify_isoparametric(np.ones((2, 3)))
    with pytest.raises(NotSymmetric):
        qhm.verify_isoparametric(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spheres_map_to_spheres():
    rep = qhm.sphere_restriction_check(hopf(4), samples=64, seed=15)
    assert rep.holds and rep.radius == pytest.approx(1.0)
    assert rep.max_defect < 1e-12
    scaled = qhm.sphere_restriction_check(qhm.scale(hopf(4), 3.0), samples=64, seed=15)
    assert scaled.holds and scaled.radius == pytest.approx(3.0)


def test_sphere_check_needs_one_scale(split_scale_map):
    with pytest.raises(NotUmbilical):
        qhm.sphere_restriction_check(split_scale_map)


def count_spectral_calls(monkeypatch):
    """A list that grows by one per spectral_decompose call through either
    binding, qhm's or core's (which eigenspace_split uses)."""
    calls = []
    original = core.spectral_decompose

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (qhm, core):
        monkeypatch.setattr(module, "spectral_decompose", counting)
    return calls


def test_component_one_is_decomposed_once(monkeypatch):
    g = random_orthogonal(8, 11)
    phi = qhm.verify_qhm([g @ to_float(a) @ g.T for a in hopf(4).components])
    calls = count_spectral_calls(monkeypatch)
    qhm.classify(phi)
    assert len(calls) == phi.n
    calls.clear()
    qhm.single_function_representation(phi)
    assert len(calls) == phi.n


def test_classify_reuses_component_one_for_the_kernel(monkeypatch):
    padded = [np.pad(to_float(P), (0, 2)) for P in clifford.construct_irreducible(3).matrices]
    g = random_orthogonal(10, 13)
    phi = qhm.verify_qhm([g @ M @ g.T for M in padded])
    calls = count_spectral_calls(monkeypatch)
    report = qhm.classify(phi)
    assert report.zero_count == 2 and phi.n == 4
    assert len(calls) == 5  # four components, then the normal form of the core


@pytest.mark.slow
def test_verify_and_classify_at_two_m_256():
    cs = clifford.construct_irreducible(13)
    phi = qhm.verify_qhm(cs.matrices)
    assert (phi.m, phi.n) == (256, 14)
    g = random_orthogonal(256, 256)
    conj = qhm.verify_qhm([g @ to_float(P) @ g.T for P in cs.matrices])
    report = qhm.classify(conj)
    assert report.is_umbilical and report.q_rank == 256
