"""Non-finite input, exact products past int64, and fuzzed CLI documents."""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmorph import clifford, orthomul, osystem, qhm, serialize
from quadmorph.cli import run
from quadmorph.clifford import EquivalenceStatus
from quadmorph.core import as_matrix, random_orthogonal, spectral_decompose, to_float
from quadmorph.errors import (
    AnticommutationViolated,
    DocumentFormatError,
    NotNormPreserving,
    VerificationError,
)

NAN = float("nan")
WRAP = [[1438793759, 4046803256], [4046803256, -1438793759]]  # a^2 + b^2 = 2^64 + 1
DIMS = {"clifford": {"two_m": 2, "n": 1}, "osystem": {"m": 2, "n": 1},
        "orthomul": {"p": 1, "q": 2, "n_out": 2}, "qhm": {"m": 2, "n": 1}}
VERIFIERS = [clifford.verify_clifford, osystem.verify_osystem,
             orthomul.verify_orthomul, qhm.verify_qhm]


def cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def document(kind, matrix, scalars="float"):
    return {"kind": kind, "dims": DIMS[kind], "scalars": scalars, "matrices": [matrix]}


@pytest.mark.parametrize("verify", VERIFIERS)
def test_verifiers_reject_all_nan_input(verify):
    with pytest.raises(ValueError):
        verify([[[NAN, NAN], [NAN, NAN]]])
    with pytest.raises(ValueError):
        verify([np.full((2, 2), np.nan)])




def _float_conjugates():
    """One valid float candidate per verifier: canonical exact objects moved
    by seeded orthogonal matrices (Q P Q^T, U tau V)."""
    q, u, v = random_orthogonal(4, 1), random_orthogonal(4, 2), random_orthogonal(4, 3)
    members = [q @ to_float(P) @ q.T for P in clifford.construct_irreducible(2).matrices]
    taus = [u @ to_float(t) @ v for t in osystem.construct_range_maximal(4).matrices]
    return [members, taus, taus, members]


@pytest.mark.parametrize("tol", [NAN, 0.0, -1.0])
def test_a_nan_or_non_positive_tolerance_only_rejects(tol):
    candidates = _float_conjugates()
    for verify, candidate in zip(VERIFIERS, candidates):
        verify(candidate)
        with pytest.raises(VerificationError):
            verify(candidate, tol)
    a = clifford.verify_clifford(candidates[0])
    b = clifford.construct_irreducible(2)
    assert clifford.algebraically_equivalent(a, b).status is EquivalenceStatus.EQUIVALENT
    status = clifford.algebraically_equivalent(a, b, tol).status
    assert status in (EquivalenceStatus.UNKNOWN, EquivalenceStatus.NOT_EQUIVALENT)
@pytest.mark.parametrize("kind", sorted(DIMS))
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_documents_are_malformed(kind, token, tmp_path):
    text = json.dumps(document(kind, [[0.0, 0.0], [0.0, 0.0]])).replace("0.0", token)
    if token == "1e400":  # valid JSON that parses to inf
        with pytest.raises(DocumentFormatError):
            serialize.decode(serialize.loads(text))
    else:
        with pytest.raises(DocumentFormatError):
            serialize.loads(text)
    with pytest.raises(DocumentFormatError):
        serialize.decode(document(kind, [[NAN, NAN], [NAN, NAN]]))
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli(["verify", str(path)]) == (2, "")


def test_int64_wraparound_is_not_accepted(tmp_path):
    with pytest.raises(AnticommutationViolated):
        clifford.verify_clifford([WRAP])
    path = tmp_path / "wrap.json"
    path.write_text(json.dumps(document("clifford", WRAP, "rational")))
    assert cli(["verify", str(path)]) == (1, "")
    # one traceless component is a harmonic function, hence a valid map
    assert qhm.verify_qhm([WRAP]).n == 1


def test_exact_failures_beyond_the_float_range_are_still_rejected():
    huge = 10**400
    with pytest.raises(AnticommutationViolated) as err:
        clifford.verify_clifford([[[huge, 0], [0, -huge]]])
    assert err.value.residual == float("inf")


def test_exact_entries_beyond_the_float_range_are_a_value_error(tmp_path):
    huge = [[10**400, 0], [0, -10**400]]
    # the exact identities hold, but the sampled and spectral routes need floats
    for route in (qhm.verify_qhm, qhm.sampled_check,
                  lambda mats: spectral_decompose(as_matrix(mats[0]))):
        with pytest.raises(ValueError):
            route([huge])
    # the equivalence decision's one float64 stack per system follows to_float
    c2 = clifford.construct_irreducible(1)
    big = clifford.CliffordSystem(two_m=2, n=2, matrices=(as_matrix(huge), c2.matrices[1]))
    with pytest.raises(ValueError):
        clifford.algebraically_equivalent(c2, big)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(document("qhm", huge, "rational")))
    assert cli(["verify", str(path)]) == (2, "")


@pytest.mark.parametrize("call", [
    lambda: clifford.verify_clifford(None),
    lambda: osystem.verify_osystem(5),
    lambda: qhm.sampled_check(clifford.construct_irreducible(2).matrices, samples=2.5),
    lambda: clifford.construct_irreducible("3"),
    lambda: qhm.scale(qhm.from_clifford(clifford.construct_irreducible(2)), "2"),
])
def test_a_value_of_the_wrong_python_type_is_a_type_error(call):
    # the exception contract: QuadmorphError for mathematical and shape
    # faults, ValueError for non-finite or out-of-range numbers, and
    # TypeError for a value of the wrong Python type
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("bad", [10**400, NAN, float("inf")])
def test_points_must_be_finite(bad):
    phi = qhm.from_clifford(clifford.construct_irreducible(3))
    mu = orthomul.standard_multiplication(2)
    calls = [lambda: qhm.evaluate(phi, [bad] + [0] * 7),
             lambda: qhm.quadratic_form_value(phi.components[0], [0] * 7 + [bad]),
             lambda: orthomul.multiply(mu, [bad, 0], [1, 0]),
             lambda: orthomul.multiply(mu, [1, 0], [0, bad])]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                call()


@pytest.mark.parametrize("argv", [
    ["construct", "qhm", "--hopf", "2"], ["construct", "orthomul", "--n", "2"]])
def test_eval_rejects_non_finite_points(argv, tmp_path, capsys):
    path = str(tmp_path / "doc.json")
    assert run(argv + ["--out", path]) == 0
    flags = (["--point", "nan,0,0,0"] if "qhm" in argv else
             ["--x", "1,0", "--y", "0,inf"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eval", path] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix entries must be finite numbers\n"


# ---------------------------------------------------------------------------
# fuzzed documents: every outcome is an exit code, never a traceback

SEEDS = {
    "clifford": [M.tolist() for M in clifford.construct_irreducible(2).matrices],
    "osystem": [M.tolist() for M in osystem.construct_range_maximal(4).matrices],
    "orthomul": [M.tolist() for M in orthomul.standard_multiplication(2).slices],
    "qhm": [M.tolist() for M in orthomul.hopf_construction(
        orthomul.standard_multiplication(2)).components],
}
ODD_ENTRIES = [NAN, float("inf"), -float("inf"), 2**31, 2**32, 2**62, 2**63, 2**64 + 1,
               10**400, 1e308, 0.5, "1/3", "1/0", "x", True, None, [1]]


def _dims(kind, mats):
    rows, cols, count = len(mats[0]), len(mats[0][0]), len(mats)
    return {"clifford": {"two_m": rows, "n": count}, "osystem": {"m": rows, "n": count},
            "orthomul": {"p": count, "q": cols, "n_out": rows},
            "qhm": {"m": rows, "n": count}}[kind]


@st.composite
def mutated_documents(draw):
    """A valid or random small document, read as any kind, then up to three
    mutations of its entries (one or a whole member), row lengths, dims and
    scalars."""
    if draw(st.booleans()):
        mats = json.loads(json.dumps(SEEDS[draw(st.sampled_from(sorted(SEEDS)))]))
    else:
        size = draw(st.integers(1, 4))
        square = st.lists(st.lists(st.integers(-2, 2), min_size=size, max_size=size),
                          min_size=size, max_size=size)
        mats = draw(st.lists(square, min_size=1, max_size=4))
    kind = draw(st.sampled_from(sorted(SEEDS)))
    doc = {"kind": kind, "dims": _dims(kind, mats),
           "scalars": draw(st.sampled_from(["rational", "float"])), "matrices": mats}
    for _ in range(draw(st.integers(0, 3))):
        what = draw(st.sampled_from(["fill", "entry", "ragged", "dims", "scalars"]))
        member = draw(st.sampled_from(mats))
        row = draw(st.sampled_from(member))
        if what == "dims":
            doc["dims"][draw(st.sampled_from(sorted(doc["dims"])))] = draw(st.integers(0, 5))
        elif what == "scalars":
            doc["scalars"] = "float" if doc["scalars"] == "rational" else "rational"
        elif what == "fill":
            value = draw(st.sampled_from(ODD_ENTRIES))
            member[:] = [[value] * len(r) for r in member]
        elif row and what == "entry":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_ENTRIES))
        elif row:
            del row[draw(st.integers(0, len(row) - 1))]
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(doc=mutated_documents())
def test_fuzzed_documents_end_in_an_exit_code(doc, fuzz_dir):
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = cli(["verify", str(path)])
    assert code in (0, 1, 2)
    if code:
        assert out == ""
    else:
        assert json.loads(out)["valid"] is True
        entries = [x for M in doc["matrices"] for row in M for x in row]
        assert all(isinstance(x, str) or np.isfinite(float(x)) for x in entries)
        bound = Fraction(0) if doc["scalars"] == "rational" else Fraction(1e-9) ** 2
        worst = max(DEFINING_DEFECTS[doc["kind"]](
            [[[Fraction(x) for x in row] for row in M] for M in doc["matrices"]]))
        assert worst <= bound, f"{doc['kind']} accepted with squared defect {float(worst):.3e}"


BIG = 1e308  # finite, but its products overflow


@pytest.mark.parametrize("kind, first, flags, code", [
    ("clifford", [[BIG] * 4] * 4, [], 1),
    ("clifford", [[0, BIG, 0, 0], [-BIG, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], [], 1),
    ("osystem", [[BIG] * 4] * 4, [], 1),
    ("orthomul", [[BIG] * 2] * 2, [], 1),
    ("qhm", None, ["--point", "1e200,1e200,0,0"], 2),
    ("orthomul", None, ["--x", "1e200,1e200", "--y", "1e200,1"], 2),
])
def test_overflowing_products_end_in_one_line_without_a_warning(kind, first, flags, code,
                                                                 tmp_path, capsys):
    """A seed document, its first member replaced by finite entries whose
    products overflow (verify), or evaluated where the values overflow (eval)."""
    mats = json.loads(json.dumps(SEEDS[kind]))
    if first is not None:
        mats[0] = first
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": kind, "dims": _dims(kind, mats), "scalars": "float",
                                "matrices": mats}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(["eval" if flags else "verify", str(path)] + flags)
    captured = capsys.readouterr()
    assert got == code and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("rejected: " if code == 1 else "error: ")


# ---------------------------------------------------------------------------
# valid exact documents, half of them broken by one entry: verify accepts
# exactly those whose defining identities hold


def _hopf(n):
    return orthomul.hopf_construction(orthomul.standard_multiplication(n)).components


def _padded(slices, rows):
    """Slices with zero rows appended up to the given count: R^p x R^q -> R^rows."""
    return [np.vstack([s, np.zeros((rows - len(s), s.shape[1]), dtype=s.dtype)])
            for s in slices]


VALID = {
    kind: [[np.asarray(M) for M in mats] for mats in family if len(mats[0]) <= 8]
    for kind, family in {
        "clifford": [clifford.construct_irreducible(n).matrices for n in range(1, 5)],
        "osystem": [osystem.construct_range_maximal(m).matrices for m in range(1, 9)],
        "orthomul": [orthomul.standard_multiplication(n).slices for n in (1, 2, 4, 8)]
                    + [_padded(orthomul.standard_multiplication(n).slices, rows)
                       for n in (1, 2, 4) for rows in range(n + 1, 9)],
        "qhm": [_hopf(n) for n in (1, 2, 4)]
               + [qhm.from_clifford(clifford.construct_irreducible(n)).components
                  for n in range(1, 5)],
    }.items()
}


def _signed_permutation(draw, size):
    P = np.zeros((size, size), dtype=np.int64)
    P[np.arange(size), draw(st.permutations(range(size)))] = draw(
        st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
    return P


@st.composite
def exact_documents(draw):
    """A construct output with two_m <= 8, its members negated, reordered
    and conjugated by signed permutations (P M P^T for the symmetric kinds,
    P M Q otherwise), which keeps every defining identity; then, half of the
    time, one entry moved by +-1 or by +-1/10^6 (written as a rational
    string)."""
    kind = draw(st.sampled_from(sorted(VALID)))
    mats = draw(st.sampled_from(VALID[kind]))
    rows, cols = mats[0].shape
    P = _signed_permutation(draw, rows)
    Q = P.T if kind in ("clifford", "qhm") else _signed_permutation(draw, cols)
    order = draw(st.permutations(range(len(mats))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(mats), max_size=len(mats)))
    lists = [(sign * (P @ mats[k] @ Q)).tolist() for k, sign in zip(order, signs)]
    if draw(st.booleans()):
        row = draw(st.sampled_from(lists))[draw(st.integers(0, rows - 1))]
        col = draw(st.integers(0, cols - 1))
        moved = row[col] + draw(st.sampled_from([1, -1, Fraction(1, 10**6), Fraction(-1, 10**6)]))
        row[col] = int(moved) if moved.denominator == 1 else str(moved)
    return {"kind": kind, "dims": _dims(kind, lists), "scalars": "rational",
            "matrices": lists}


@settings(max_examples=100, deadline=None)
@given(doc=exact_documents())
def test_verify_accepts_exactly_the_valid_rational_documents(doc, fuzz_dir):
    path = fuzz_dir / "exact.json"
    path.write_text(json.dumps(doc))
    code, _ = cli(["verify", str(path)])
    worst = max(DEFINING_DEFECTS[doc["kind"]](
        [[[Fraction(x) for x in row] for row in M] for M in doc["matrices"]]))
    assert code == (0 if worst == 0 else 1), f"{doc['kind']} exit {code}, defect {worst}"


@pytest.mark.parametrize("doc", [
    # s^T s = 1 + 10^-12
    {"kind": "orthomul", "dims": {"p": 1, "q": 1, "n_out": 2}, "scalars": "rational",
     "matrices": [[[1], ["1/1000000"]]]},
    # slice 1 has s^T s = diag(1, 1 + 10^-12); slice 2 is exact
    {"kind": "orthomul", "dims": {"p": 2, "q": 2, "n_out": 3}, "scalars": "rational",
     "matrices": [[[1, 0], [0, 1], [0, "1/1000000"]], [[0, -1], [1, 0], [0, 0]]]},
])
def test_rectangular_slices_off_by_a_millionth_are_rejected(doc, tmp_path):
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc))
    code, out = cli(["verify", str(path)])
    assert (code, out) == (1, "")
    with pytest.raises(NotNormPreserving) as info:
        orthomul.verify_orthomul(serialize.decode(doc).slices)
    assert (info.value.i, info.value.j) == (1, 1)


# ---------------------------------------------------------------------------
# the defining identities recomputed in Fraction arithmetic, independently of
# the package: each defect is relative with the verifier's max(1, scale) floor


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _plus(a, b, sign=1):
    return [[x + sign * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def _sq_norm(a):
    return sum(x * x for row in a for x in row)


def _defect(value, target, scale_sq):
    """The square of |value - target| / max(1, scale), given scale^2: squares
    keep it exact, and it is 0 exactly when value == target."""
    return _sq_norm(_plus(value, target, -1)) / max(Fraction(1), scale_sq)


def _relation_defects(mats, transpose):
    """Defects of L(M_i) M_j + L(M_j) M_i = 2 delta_ij I over the pairs i <= j,
    relative as in the relation kernel: the diagonal terms to |I|, the others
    to |M_i| |M_j|."""
    left = [_transpose(M) if transpose else M for M in mats]
    size = len(mats[0][0])
    eye = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    zero = [[0] * size for _ in range(size)]
    for i, (Li, Mi) in enumerate(zip(left, mats)):
        yield _defect(_product(Li, Mi), eye, _sq_norm(eye))
        for Lj, Mj in zip(left[i + 1:], mats[i + 1:]):
            value = _plus(_product(Li, Mj), _product(Lj, Mi))
            yield _defect(value, zero, _sq_norm(Mi) * _sq_norm(Mj))


def _symmetry_defects(mats):
    return (_defect(M, _transpose(M), _sq_norm(M)) for M in mats)


def _qhm_defects(mats):
    """Symmetric, traceless, anticommuting components with equal squares."""
    yield from _symmetry_defects(mats)
    yield from (sum(M[i][i] for i in range(len(M))) ** 2 / max(Fraction(1), _sq_norm(M))
                for M in mats)
    square = _product(mats[0], mats[0])
    for i, Mi in enumerate(mats):
        yield _defect(_product(Mi, Mi), square, _sq_norm(square))
        for Mj in mats[i + 1:]:
            value = _plus(_product(Mi, Mj), _product(Mj, Mi))
            yield _defect(value, [[0] * len(Mi) for _ in Mi], _sq_norm(Mi) * _sq_norm(Mj))


DEFINING_DEFECTS = {
    "clifford": lambda mats: [*_symmetry_defects(mats), *_relation_defects(mats, False)],
    "osystem": lambda mats: list(_relation_defects(mats, True)),
    "orthomul": lambda mats: list(_relation_defects(mats, True)),
    "qhm": lambda mats: list(_qhm_defects(mats)),
}
