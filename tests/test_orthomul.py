import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from quadmorph import core, orthomul, osystem, qhm, serialize
from quadmorph.cli import run
from quadmorph.core import random_orthogonal, to_float
from quadmorph.errors import (
    AnticommutationViolated,
    DimensionMismatch,
    NotNormPreserving,
    NotOrthogonal,
    NotSquare,
    ShapeMismatch,
    UnsupportedDimension,
)

from conftest import count_calls


class TestStandardMultiplication:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_exists_and_is_exact(self, n):
        mu = orthomul.standard_multiplication(n)
        assert (mu.p, mu.q, mu.n_out) == (n, n, n)
        assert all(s.dtype == np.int64 for s in mu.slices)
        orthomul.verify_orthomul(mu.slices)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 16])
    def test_other_dimensions_are_refused(self, n):
        with pytest.raises(UnsupportedDimension):
            orthomul.standard_multiplication(n)

    def test_complex_product_values(self):
        mu = orthomul.standard_multiplication(2)
        assert np.allclose(orthomul.multiply(mu, [0, 1], [0, 1]), [-1, 0])
        assert np.allclose(orthomul.multiply(mu, [1, 0], [3, 4]), [3, 4])

    def test_quaternion_units(self):
        mu = orthomul.standard_multiplication(4)
        i, j, k = [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
        assert np.allclose(orthomul.multiply(mu, i, j), k)
        assert np.allclose(orthomul.multiply(mu, j, i), [0, 0, 0, -1])

    def test_multiply_checks_dimensions(self):
        mu = orthomul.standard_multiplication(2)
        with pytest.raises(DimensionMismatch):
            orthomul.multiply(mu, [1, 0, 0], [0, 1])


class TestVerify:
    def test_rejects_non_orthogonal_slice(self):
        bad = [np.eye(2, dtype=np.int64), np.array([[0, 2], [-2, 0]], dtype=np.int64)]
        with pytest.raises(NotNormPreserving):
            orthomul.verify_orthomul(bad)

    def test_rejects_norm_breaking_pair(self):
        pair = [np.eye(2, dtype=np.int64), np.diag([1, -1]).astype(np.int64)]
        with pytest.raises(NotNormPreserving):
            orthomul.verify_orthomul(pair)

    def test_sampled_path_accepts_rotated_slices(self):
        mu = orthomul.standard_multiplication(4)
        g = random_orthogonal(4, 3)
        rotated = [g @ to_float(s) for s in mu.slices]
        checked = orthomul.verify_orthomul(rotated)
        rep = orthomul.measure(checked)
        assert rep.norm_preserving and rep.max_defect < 1e-12

    def test_sampled_path_rejects_noise(self):
        mu = orthomul.standard_multiplication(4)
        noisy = [to_float(s) for s in mu.slices]
        noisy[2] = noisy[2] + 0.01
        with pytest.raises(NotNormPreserving):
            orthomul.verify_orthomul(noisy)

    def test_rectangular_padding_multiplication(self):
        # mu(x, y) = (x*y, 0): one 2x1 slice, norm preserving
        mu = orthomul.verify_orthomul([np.array([[1.0], [0.0]])])
        assert (mu.p, mu.q, mu.n_out) == (1, 1, 2)
        assert np.allclose(orthomul.multiply(mu, [2.0], [3.0]), [6.0, 0.0])

    def test_empty_slices(self):
        # R^1 x R^0 -> R^2 multiplies norms vacuously, R^1 x R^2 -> R^0 does not
        mu = orthomul.verify_orthomul([np.zeros((2, 0), dtype=np.int64)])
        assert (mu.p, mu.q, mu.n_out) == (1, 0, 2)
        with pytest.raises(NotNormPreserving):
            orthomul.verify_orthomul([np.zeros((0, 2), dtype=np.int64)])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ShapeMismatch):
            orthomul.verify_orthomul([np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)])


class TestMeasure:
    """measure reports the slice identities' residual and never raises."""

    @pytest.mark.parametrize("slices", [
        [np.array([[1], [0]], dtype=np.int64)],
        [np.vstack([s, np.zeros((1, 2), dtype=np.int64)])
         for s in orthomul.standard_multiplication(2).slices],
        orthomul.standard_multiplication(8).slices,
    ])
    def test_exact_slices_of_every_shape_are_exact(self, slices):
        rep = orthomul.measure(orthomul.verify_orthomul(slices))
        assert rep == orthomul.MultiplicationReport(norm_preserving=True, max_defect=0.0,
                                                    exact=True)

    def test_float_slices_report_the_verified_residual(self):
        g = random_orthogonal(4, 5)
        rotated = [g @ to_float(s) for s in orthomul.standard_multiplication(4).slices]
        mu, residuals = orthomul.check_orthomul(rotated)
        rep = orthomul.measure(mu)
        assert rep.norm_preserving and not rep.exact
        assert rep.max_defect == residuals["max_norm_defect"]

    @pytest.mark.parametrize("slices", [
        [np.eye(2, dtype=np.int64), np.diag([1, -1]).astype(np.int64)],
        [np.eye(2, dtype=np.int64), np.array([[0, 2], [-2, 0]], dtype=np.int64)],
        [to_float(s) + (0.01 if k == 2 else 0.0)
         for k, s in enumerate(orthomul.standard_multiplication(4).slices)],
    ])
    def test_failing_slices_report_the_failing_residual(self, slices):
        with pytest.raises(NotNormPreserving) as failure:
            orthomul.verify_orthomul(slices)
        d, q = slices[0].shape
        mu = orthomul.OrthogonalMultiplication(p=len(slices), q=q, n_out=d, slices=tuple(slices))
        rep = orthomul.measure(mu)
        assert not rep.norm_preserving and rep.max_defect == failure.value.residual > 0


def _outcome(check, mats):
    """(None, worst residual) when check accepts, else (failing pair, residual)."""
    try:
        _, residuals = check(mats)
    except NotOrthogonal as exc:
        return (exc.index, exc.index), exc.residual
    except (NotNormPreserving, AnticommutationViolated) as exc:
        return (exc.i, exc.j), exc.residual
    return None, next(iter(residuals.values()))


def _moved(mats, k, delta):
    """Float copies of mats with one entry of member k moved by delta."""
    out = [to_float(s).copy() for s in mats]
    out[k][k % out[k].shape[0], (k + 1) % out[k].shape[1]] += delta
    return out


class TestOneRoute:
    """Square slices are orthogonal member tuples, and verify_orthomul decides
    them exactly as verify_osystem does, for exact and float input alike."""

    @pytest.mark.parametrize("slices", [
        *(orthomul.standard_multiplication(n).slices for n in (1, 2, 4, 8)),
        *(osystem.construct_range_maximal(m).matrices for m in (2, 3, 4, 16)),
        [np.eye(2, dtype=np.int64), np.array([[0, 2], [-2, 0]], dtype=np.int64)],
        [np.eye(2, dtype=np.int64), np.diag([1, -1]).astype(np.int64)],
    ])
    def test_exact_sets(self, slices):
        assert _outcome(orthomul.check_orthomul, slices) == _outcome(
            osystem.check_osystem, slices)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delta", [1e-10, 1e-9, 3e-9, 1e-8])
    def test_rotated_quaternions_with_one_entry_moved(self, seed, delta):
        g, h = random_orthogonal(4, seed), random_orthogonal(4, seed + 10)
        rotated = [g @ to_float(s) @ h for s in orthomul.standard_multiplication(4).slices]
        k = seed + 1
        moved = _moved(rotated, k, delta)
        pair, resid = _outcome(orthomul.check_orthomul, moved)
        assert (pair, resid) == _outcome(osystem.check_osystem, moved)
        if delta <= 1e-10:
            assert pair is None
        if delta >= 3e-9:
            assert pair is not None
        if pair is not None:
            assert k + 1 in pair, f"slice {k + 1} was moved, {pair} was named"


def _verify_document(mu, tmp_path, *options):
    path = tmp_path / "mu.json"
    path.write_text(serialize.dumps(serialize.encode(mu)))
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = run(["verify", str(path), *options])
    return code, out.getvalue()


class TestVerifyDocument:
    @pytest.mark.parametrize("slices", [
        [random_orthogonal(4, 3) @ to_float(s) for s in orthomul.standard_multiplication(4).slices],
        [np.array([[1.0], [0.0]])],
        [np.vstack([s, np.zeros((1, 2), dtype=np.int64)])
         for s in orthomul.standard_multiplication(2).slices],
    ])
    def test_float_or_rectangular_slices_take_the_identity_route(self, slices, tmp_path,
                                                                 monkeypatch):
        mu = orthomul.verify_orthomul(slices)
        sampled = count_calls(monkeypatch, orthomul, "measure")
        relation = count_calls(monkeypatch, core, "pairwise_relation")
        code, out = _verify_document(mu, tmp_path)
        assert code == 0 and json.loads(out)["valid"] is True
        assert (len(sampled), len(relation)) == (0, 1)

    def test_samples_are_not_consulted(self, tmp_path):
        mu = orthomul.verify_orthomul([np.array([[1.0], [0.0]])])
        assert _verify_document(mu, tmp_path, "--samples", "0")[0] == 0


class TestOSystemCorrespondence:
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_round_trips_are_identities(self, m):
        os_ = osystem.construct_range_maximal(m)
        mu = orthomul.from_osystem(os_)
        assert (mu.p, mu.q, mu.n_out) == (os_.n, m, m)
        back = orthomul.to_osystem(mu)
        assert all(np.array_equal(a, b) for a, b in zip(back.matrices, os_.matrices))
        mu2 = orthomul.from_osystem(back)
        assert all(np.array_equal(a, b) for a, b in zip(mu2.slices, mu.slices))

    def test_from_osystem_verifies_its_result(self):
        eye = np.eye(2, dtype=np.int64)
        with pytest.raises(NotNormPreserving):
            orthomul.from_osystem(osystem.OSystem(m=2, n=2, matrices=(eye, eye)))

    def test_to_osystem_requires_square_slices(self):
        mu = orthomul.verify_orthomul([np.array([[1.0], [0.0]])])
        with pytest.raises(NotSquare):
            orthomul.to_osystem(mu)

    def test_left_factor_action_is_isometry(self):
        os_ = osystem.construct_range_maximal(8)
        mu = orthomul.from_osystem(os_)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(mu.p)
            x /= np.linalg.norm(x)
            mat = sum(xi * to_float(s) for xi, s in zip(x, mu.slices))
            assert np.max(np.abs(mat.T @ mat - np.eye(8))) < 1e-9


class TestHopfConstruction:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_standard_multiplications_give_valid_maps(self, n):
        phi = orthomul.hopf_construction(orthomul.standard_multiplication(n))
        assert (phi.m, phi.n) == (2 * n, n + 1)
        assert phi.components[0].dtype == np.int64
        first = np.diag([1] * n + [-1] * n).astype(np.int64)
        assert np.array_equal(phi.components[0], first)

    def test_values_match_the_definition(self):
        mu = orthomul.standard_multiplication(4)
        phi = orthomul.hopf_construction(mu)
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            vals = qhm.evaluate(phi, np.concatenate([x, y]))
            assert vals[0] == pytest.approx(x @ x - y @ y)
            assert np.allclose(vals[1:], 2 * orthomul.multiply(mu, x, y))

    def test_unequal_factors_are_refused(self):
        # x * y for scalar x and planar y: valid multiplication, p != q
        mu = orthomul.verify_orthomul([np.eye(2, dtype=np.int64)])
        assert (mu.p, mu.q) == (1, 2)
        with pytest.raises(ShapeMismatch):
            orthomul.hopf_construction(mu)
