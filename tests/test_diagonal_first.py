"""One diagonal rule: core.spectral_decompose reads an exactly diagonal
matrix off its diagonal, in the matrix's own mode and with no eigensolve,
and every diagonal-first object reads its order from there: Clifford
systems in to_standard_representation, and maps built from constructions
(with or without a kernel) in qhm._decompose."""

import dataclasses
import hashlib

import numpy as np
import pytest

from quadmorph import clifford, core, qhm, serialize
from quadmorph.cli import run
from quadmorph.core import to_float
from quadmorph.errors import NoConvergence, VerificationError

from conftest import count_calls, diagonal_first_systems, eight_dim_triple


def near_tie_map():
    """D = diag(1, 1 + 5e-9), A_1 = diag(D, -D), A_2 = [[0, D], [D, 0]]: two
    eigenvalues apart by less than EIG_PAIR_TOL but by more than tol."""
    D = np.diag([1.0, 1.0 + 5e-9])
    return [core.block_diag2(D, -D), core.symmetric_off_diagonal(D)]


def tiny_scale_map():
    """2^33 phi + 16 phi, phi = from_clifford(construct_irreducible(3)), with a
    zero coordinate on either side: exact, and at unit scale its +-1.86e-9
    eigenvalues and its kernel lie in one EIG_PAIR_TOL cluster."""
    phi = qhm.from_clifford(clifford.construct_irreducible(3))
    summed = qhm.direct_sum(qhm.scale(phi, 2**33), qhm.scale(phi, 16))
    return [np.pad(M, (1, 1)) for M in summed.components]


# ---------------------------------------------------------------------------
# maps that verify_qhm accepts and the cluster rebuild of eigh's output
# rejected ("reconstruction residual ... exceeds tolerance", exit 2)


@pytest.mark.parametrize("make, zero_count, scales", [
    (near_tie_map, 0, (1.0 + 5e-9, 1.0)),
    (tiny_scale_map, 2, (2.0**33,) * 4 + (16.0,) * 4),
], ids=["near tie", "tiny scale with a kernel"])
def test_a_diagonal_first_map_classifies_with_no_eigensolve(make, zero_count, scales,
                                                            monkeypatch):
    phi = qhm.verify_qhm(make())
    eigensolves = count_calls(monkeypatch, np.linalg, "eigh")
    report = qhm.classify(phi)
    assert eigensolves == []
    assert (report.zero_count, report.positive_eigenvalues) == (zero_count, scales)
    assert report.q_rank + report.zero_count == phi.m


@pytest.mark.parametrize("make", [near_tie_map, tiny_scale_map], ids=["near tie", "tiny scale"])
@pytest.mark.parametrize("command", ["verify", "classify", "split"])
def test_the_cli_accepts_and_classifies_a_diagonal_first_map(make, command, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(serialize.dumps(serialize.encode(qhm.verify_qhm(make()))))
    assert run([command, str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.xfail(strict=True, raises=NoConvergence,
                   reason="ROADMAP item 2: a conjugated A_1 still takes eigh and the cluster "
                          "rebuild, which item 10's repair replaces")
def test_a_conjugated_near_tie_map_classifies():
    g = core.random_orthogonal(4, 3)
    qhm.classify(qhm.verify_qhm([g @ M @ g.T for M in near_tie_map()]))


# ---------------------------------------------------------------------------
# outputs of diagonal-first objects, byte for byte as before the closed form


def diagonal_first_maps():
    """eight_dim_triple and 3 phi + phi for phi = from_clifford(
    construct_irreducible(k)), k = 1..9: exact and float64, each also with
    two zero coordinates appended (40 verified maps)."""
    exact = [eight_dim_triple()]
    for k in range(1, 10):
        phi = qhm.from_clifford(clifford.construct_irreducible(k))
        exact.append(list(qhm.direct_sum(qhm.scale(phi, 3), phi).components))
    maps = []
    for mats in exact:
        for mode in (mats, [to_float(M) for M in mats]):
            maps += [mode, [np.pad(M, (0, 2)) for M in mode]]
    return [qhm.verify_qhm(m) for m in maps]


def _feed(digest, value):
    """Hash value with its structure: arrays with dtype and shape, object
    arrays by their entries, dataclasses field by field."""
    if isinstance(value, np.ndarray):
        data = repr(value.tolist()).encode() if value.dtype == object else value.tobytes()
        digest.update(repr((value.dtype.str, value.shape)).encode() + data)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, tuple):
        digest.update(f"({len(value)}".encode())
        for item in value:
            _feed(digest, item)
    else:
        digest.update(repr(value).encode())


def diagonal_first_digest(systems, maps) -> str:
    """SHA-256 of to_standard_representation on systems, and of classify,
    normal_form, single_function_representation and project_nonsingular
    (their results, or the error's type and message) on maps."""
    digest = hashlib.sha256()
    for mats in systems:
        _feed(digest, clifford.to_standard_representation(clifford.verify_clifford(mats)))
    for phi in maps:
        for func in (qhm.classify, qhm.normal_form, qhm.single_function_representation,
                     qhm.project_nonsingular):
            try:
                _feed(digest, func(phi))
            except (VerificationError, ValueError) as exc:
                digest.update(f"{type(exc).__name__}: {exc}".encode())
    return digest.hexdigest()


# taken before spectral_decompose read a diagonal off in closed form, when
# to_standard_representation kept its own permutation and maps took eigh
DIAGONAL_FIRST_SHA256 = "6c0ac6c31a93604efdfb5023bbf1dc484e1ba05f104c950faf5340225711e19f"


@pytest.mark.slow
def test_diagonal_first_outputs_keep_their_bytes_with_no_eigensolve(monkeypatch):
    systems, maps = diagonal_first_systems(), diagonal_first_maps()
    assert (len(systems), len(maps)) == (172, 40)
    eigensolves = count_calls(monkeypatch, np.linalg, "eigh")
    assert diagonal_first_digest(systems, maps) == DIAGONAL_FIRST_SHA256
    assert eigensolves == []
