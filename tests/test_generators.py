import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmorph import generators, orthomul, qhm, serialize
from quadmorph.cli import run
from quadmorph.core import random_orthogonal
from quadmorph.osystem import hurwitz_radon

from conftest import count_calls, float_canonical, two_scale

# SHA-256 of each `construct` document (stdout, --seed 0, version 0.1.0) as
# the tuple-recursive product built them; the doubling table must keep them.
CONSTRUCT_DIGESTS = {
    "clifford --n 1":
        "94ee9a2e505d5601d2f0a5a8ddaefd0c0a30134786affe52d87ef781a3c3947e",
    "clifford --n 2":
        "921999f53075642a02f0123892336e4f8fa2f4057bc12853540c837a4b1b096d",
    "clifford --n 3":
        "c6f2a6a626b8bb674e489ed489928ac58bf0c72af5583b9b78b5dd774067aff6",
    "clifford --n 4":
        "b52789c483c4c29e06093811b147f316238a66e9ece617967bd3d74aaf330cf2",
    "clifford --n 5":
        "ff704300c1c880555439627cca9eab0162d208f64d1be45d1de92338061a5e8f",
    "clifford --n 6":
        "ab28ccef31474ba10ccd506787c0bfd2bb662846c14b290c7d260740c509f2fd",
    "clifford --n 7":
        "9e2696044b7d6d4329102fe8955676e9acad78a6924568b21e689c8cb9b4e661",
    "clifford --n 8":
        "649e0ed743f51b3eca9cf737c920880fc10e286211243351e57f62af47ca959e",
    "clifford --n 9":
        "4ecbc7664b92f623c0222df3764d215b3d98dee7d8568ef0dc03da9d0f796687",
    "clifford --n 10":
        "08b5a5a3fff1e147b063436b94178fb2982431ac298b8703ebc881b14461c513",
    "clifford --n 11":
        "2270b199e3eeaaed24352d4891e224ce7940a6bdfd9e62fecb3f852f46ca2191",
    "clifford --n 12":
        "bb2f8c093f2af557b0e15178f4b66fcefc4df60347f48a888a444c83f4080043",
    "clifford --n 13":
        "ee13677c74b59e9105d9a6d54487779f12fc8392c50f086dbe580af028a84679",
    "osystem --m 1":
        "9f88b92baeeb2cfb9c7f7660d7d12dc3e6a4148a05b6b85ba0fc6d0e08892e12",
    "osystem --m 2":
        "dbb15d812e96a33492836ed887dc42724f7aafe6fe9b553c8861b22ccf82d963",
    "osystem --m 3":
        "af028b5375fc234d1b54527fd8aed595171be2811268addcaac6136eca4645c2",
    "osystem --m 4":
        "2f524ebbf6669ba0e4da94123c538e0f77eab09659581b0fdf0f60f6d084aaae",
    "osystem --m 6":
        "793b6db288adfb1a1158306346f86bc911bc54677963f8d426c533bc9c1dcf19",
    "osystem --m 8":
        "e8e83b09265b112907169e0b81fc8cd4528b0b35d7de543183f9edc1017e911d",
    "osystem --m 12":
        "8db7551fcb78970f1b83eb5ac2d01bae072be631f1493d792aa14b84c3cf2c84",
    "osystem --m 16":
        "cf01bc8a3931e461b88d23b41f2fa03ae663a4aeaf140544ae9e639a493ebd11",
    "osystem --m 24":
        "b119aa103d34c6f8b74de5a92b3cc7bf69afff9f7375292c70b1bc58cb2fcab0",
    "osystem --m 32":
        "88fd434fa624f35f8c94ca4ae2e308454d73a69702a81ca7b362bd9ceedc0390",
    "osystem --m 64":
        "82084a0102693b794b4790ef502b6c2f5e7be7c06b1fc445352d57bb2e68e21a",
    "osystem --m 128":
        "882e8b4bb73b04784ef41131c4d838c94634d3745bcac7b5bbf2b67ac9bcc6de",
    "orthomul --n 1":
        "316beb1cd937d53de1593a92d8dbcbb631a380adf990977fd59ccf70281dad0a",
    "orthomul --n 2":
        "2f9b710679cdd20cc8e5d6932c0568e934e385ba586bdeb0d4c8f06c0c391f65",
    "orthomul --n 4":
        "0f4010dc8b2bed2ebe39f320ebdea0268746f97c1db6e5393796a3ff6598d0ab",
    "orthomul --n 8":
        "826b37ef9b61bbe87f763d68e437a8ad5cbeb3d32f366d466923c304f6f887e1",
    "qhm --hopf 1":
        "59fcb80ab06829a1217607c3ac2a926d1dcf342d0b2a00c917a1b1bbbe6f0d94",
    "qhm --hopf 2":
        "1a5eccbea03dbfc7ca3bb767f0157af2da2a24ec6c8726244a06524471d580e3",
    "qhm --hopf 4":
        "47d6712ead1d5b79c097222b79b781570ca14eca690b1194d02e9b9e6f5ffbf6",
    "qhm --hopf 8":
        "16c1ad1c501a6ec699b1360f86560f00000a63ab9d747258ef4e8d38af81bf5e",
}

# SHA-256 of the stdout of classify, split and convert --to clifford (all
# --seed 0) on the construct qhm documents above, as classify gave them when
# it decomposed every component; one decomposition must keep them.
DERIVED_DIGESTS = {
    ("classify", "--hopf 1"):
        "3a88466d837ddb7489a6a959f94ea1162b57cfb95d8fa5ad88afc29503e682b1",
    ("split", "--hopf 1"):
        "8b3a3ff15c52428ce40cdcac662f6b1112e6688e4235b6d6f08c09b84c6074eb",
    ("convert --to clifford", "--hopf 1"):
        "462afce99c39b79b9665ada1936a381b4eaf871e470b649c978053de5980f411",
    ("classify", "--hopf 2"):
        "68806e30bed8776192d2897cae4de628f186ec69b715dfa32dc12794173675eb",
    ("split", "--hopf 2"):
        "35a3088df33b5a5abef6bd6c063762708233bd9ccf0afd2af95e73112b6e93de",
    ("convert --to clifford", "--hopf 2"):
        "cdc80659194a5b15337120ddc08767a0317826dadf1261f6b0b01c6272cc96be",
    ("classify", "--hopf 4"):
        "2f292889d3b296983e0f63da32bac1c9c4b5cce41cd1dd42c77c319559fdf98b",
    ("split", "--hopf 4"):
        "a954c161ecde18f6dfeb98a4e1de9c505260f048f93b7ba0381e639808283453",
    ("convert --to clifford", "--hopf 4"):
        "c0f0969fbb5192965f397a0c72e141322d96ecb8e89f7877e977ff8c76993bca",
    ("classify", "--hopf 8"):
        "d94dae32f7e91ce4a4e551785c28630e43ef56cd4fdbe7dd6890f3482bf194bf",
    ("split", "--hopf 8"):
        "065810130f6fe4f87ac2fab3bb971a2dcc4c4fc2e98457f3e08c7643696aa8ce",
    ("convert --to clifford", "--hopf 8"):
        "7bf887db615095f4069bce6a4a4a6ad790d2c11e2178296a3f64248fddc1272e",
    ("classify", "--n 3"):
        "2f292889d3b296983e0f63da32bac1c9c4b5cce41cd1dd42c77c319559fdf98b",
    ("split", "--n 3"):
        "aa72048c2ea55215c05295078278fe7e9b96ed083e0e0934b71d19a6c90c6a8d",
    ("convert --to clifford", "--n 3"):
        "6ce5424cc717b8c661f5807e468125e9ff24eb1b9da172a832602138e2d29fa3",
    ("classify", "--n 5"):
        "d94dae32f7e91ce4a4e551785c28630e43ef56cd4fdbe7dd6890f3482bf194bf",
    ("split", "--n 5"):
        "4226fe1050232ea49d0a25a1845072939bca02be653a75cf2b2a35387975641c",
    ("convert --to clifford", "--n 5"):
        "2e60b24241ae9c55bbb7a168011e6265aa29fedfd03d1f1efae162d2ca3519cf",
    ("classify", "--n 7"):
        "d94dae32f7e91ce4a4e551785c28630e43ef56cd4fdbe7dd6890f3482bf194bf",
    ("split", "--n 7"):
        "d553df2f6bead2d2fc3959e380df4200560ca9743bd7da30d72a1969b8d57353",
    ("convert --to clifford", "--n 7"):
        "90bfb5281c71ec90af9d17a67845288ad04cf02815a3b2ee51d0d4fe07cc65f6",
    ("classify", "--n 9"):
        "efc7168a4634fb4c68aa3808023b59c7ea0fe879cca492dee073dc51380a74ef",
    ("split", "--n 9"):
        "875593a7e4d6016a15ce05477944e30bfb29ec9366cc69521011c91c970f041e",
    ("convert --to clifford", "--n 9"):
        "6ff04ab0c201600359b670f7285e15ea16daa5a46b922b0f89584b80044cb5ab",
}


def _kernel_padded():
    """The canonical --n 3 map on R^8 with two zero rows and columns added."""
    return [np.pad(a, (0, 2)) for a in float_canonical(3)]


# Float qhm documents: each map conjugated by a seeded orthogonal matrix, so
# that no entry is exactly 0 and the kernel of the padded map is not axis
# aligned.
FLOAT_SOURCES = {
    "--n 3": (lambda: float_canonical(3), 3),
    "--n 5": (lambda: float_canonical(5), 5),
    "--n 7": (lambda: float_canonical(7), 7),
    "2phi+phi": (lambda: two_scale(float_canonical(3)), 11),
    "padded": (_kernel_padded, 13),
}

# SHA-256 of the stdout of verify, classify and split (all --seed 0) on the
# float documents above, as the verifier gave them before its float checks
# judged every map at unit scale; on maps already at that scale the rule
# must keep them.
FLOAT_DIGESTS = {
    ("verify", "--n 3"):
        "ba99744a01f8409aec1c3b3ac065a4823c196fb2ab7558222cea8a8b32463195",
    ("classify", "--n 3"):
        "7a2c282d0722d9829b8fe6e14d3bc38e972b6f854cb903c30e906b28f3cddace",
    ("split", "--n 3"):
        "75aec4d91f7518dc8be339a8729d96e4dcf9a418c5597fe8cbb2948dacf71c04",
    ("verify", "--n 5"):
        "25b4fb7bc12b231e79aad9b6f9e6290df08849bd5475382d9f9751b0ba397e61",
    ("classify", "--n 5"):
        "cc6b6c088359f71c357ef5eae8dbbcd633213ebc9161974e396be6bbfde75e0e",
    ("split", "--n 5"):
        "50943e8f766d6f79584eb4f23bb4fea561953fb2802e5bae77f42b30c64da5c5",
    ("verify", "--n 7"):
        "64cea4a2069017275cdf4e71207ea03907bbd40ad8e737d0c67dad6eebf8c402",
    ("classify", "--n 7"):
        "31b9559e17acd336e893d7edd6871aed828f5e0b0252b2efebbd62b0c3eea1f3",
    ("split", "--n 7"):
        "662809d123c39341f8c69c023aeafbc24943d12d63abf6d1e00c08bdedcf0c9c",
    ("verify", "2phi+phi"):
        "82d58c20f3bae04ed4a6e61b8d17376a6534abd40dec0a6fe685caac7408beac",
    ("classify", "2phi+phi"):
        "3c6445130ddbf6675eaf750b1e80b7880812361c66180592e444bd052b07618c",
    ("split", "2phi+phi"):
        "a77b330b7e60930dcd5b48561b35dd1c034232951f0ed948f178ab789cb9d621",
    ("verify", "padded"):
        "b0ca5284b9f8a6ce36d8f4742215f96dfd1137de8a07037a931aae9c85bbec57",
    ("classify", "padded"):
        "6818b5c484126c1eb491492f80fe0d2753d2881bdb814715e4fe4ad33c6ed63d",
    ("split", "padded"):
        "40188971889aeeef272a452d4f2e582003750f8aefdc5eb7d11689702e8de290",
}


def _float_document(source):
    build, seed = FLOAT_SOURCES[source]
    mats = build()
    g = random_orthogonal(mats[0].shape[0], seed)
    phi = qhm.QuadraticHarmonicMorphism(m=g.shape[0], n=len(mats),
                                        components=tuple(g.T @ a @ g for a in mats))
    return serialize.dumps(serialize.encode(phi, command=f"conjugate {source}",
                                            seed=seed, version="0.1.0"))


# the general Cayley-Dickson product of coefficient tuples, the reference the
# unit table and the left multiplications are tested against


def cayley_dickson_conjugate(x):
    return (x[0],) + tuple(-v for v in x[1:])


def cayley_dickson_multiply(x, y):
    """Product of coefficient tuples of length 1, 2, 4 or 8 (exact ints)."""
    n = len(x)
    if n == 1:
        return (x[0] * y[0],)
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    left = tuple(p - q for p, q in zip(cayley_dickson_multiply(a, c),
                                       cayley_dickson_multiply(cayley_dickson_conjugate(d), b)))
    right = tuple(p + q for p, q in zip(cayley_dickson_multiply(d, a),
                                        cayley_dickson_multiply(b, cayley_dickson_conjugate(c))))
    return left + right


def _norm_sq(x):
    return sum(v * v for v in x)


class TestCayleyDickson:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_norm_is_multiplicative(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(40):
            x = tuple(int(v) for v in rng.integers(-5, 6, dim))
            y = tuple(int(v) for v in rng.integers(-5, 6, dim))
            z = cayley_dickson_multiply(x, y)
            assert _norm_sq(z) == _norm_sq(x) * _norm_sq(y)

    def test_complex_and_quaternion_units(self):
        # i*i = -1 in dimension 2
        assert cayley_dickson_multiply((0, 1), (0, 1)) == (-1, 0)
        # i*j = k, j*i = -k in dimension 4
        i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
        assert cayley_dickson_multiply(i, j) == k
        assert cayley_dickson_multiply(j, i) == (0, 0, 0, -1)

    def test_octonions_are_not_associative(self):
        e = [tuple(1 if t == s else 0 for t in range(8)) for s in range(8)]
        mul = cayley_dickson_multiply
        assert any(mul(mul(e[a], e[b]), e[c]) != mul(e[a], mul(e[b], e[c]))
                   for a in range(1, 8) for b in range(1, 8) for c in range(1, 8))

    def test_conjugation_reverses_products(self):
        conj, mul = cayley_dickson_conjugate, cayley_dickson_multiply
        rng = np.random.default_rng(3)
        for dim in (2, 4, 8):
            x = tuple(int(v) for v in rng.integers(-3, 4, dim))
            y = tuple(int(v) for v in rng.integers(-3, 4, dim))
            assert conj(mul(x, y)) == mul(conj(y), conj(x))


class TestUnitTable:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_every_unit_product_matches_the_reference(self, dim):
        idx, sgn = generators._unit_table(dim)
        units = [tuple(int(t == s) for t in range(dim)) for s in range(dim)]
        for i in range(dim):
            for j in range(dim):
                want = tuple(sgn[i, j] * v for v in units[idx[i, j]])
                assert cayley_dickson_multiply(units[i], units[j]) == want

    @pytest.mark.parametrize("command", sorted(CONSTRUCT_DIGESTS))
    def test_construct_documents_are_unchanged(self, command, capsys):
        assert run(["construct", *command.split(), "--seed", "0"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == CONSTRUCT_DIGESTS[command]

    @pytest.mark.parametrize("command,source", sorted(DERIVED_DIGESTS))
    def test_classify_split_and_convert_outputs_are_unchanged(self, command, source,
                                                              tmp_path, capsys):
        doc = tmp_path / "map.json"
        assert run(["construct", "qhm", *source.split(), "--seed", "0",
                    "--out", str(doc)]) == 0
        name, *options = command.split()
        assert run([name, str(doc), *options, "--seed", "0"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == DERIVED_DIGESTS[command, source]

    @pytest.mark.parametrize("command,source", sorted(FLOAT_DIGESTS))
    def test_verify_classify_and_split_of_float_documents_are_unchanged(
            self, command, source, tmp_path, capsys):
        doc = tmp_path / "map.json"
        doc.write_text(_float_document(source))
        assert run([command, str(doc), "--seed", "0"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == FLOAT_DIGESTS[command, source]


class TestLeftMultiplication:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_unit_matrices_are_orthogonal_signed_permutations(self, dim):
        eye = np.eye(dim, dtype=np.int64)
        for i in range(dim):
            L = generators.left_multiplication_matrices(dim)[i]
            assert L.dtype == np.int64
            assert np.array_equal(L.T @ L, eye)
            assert np.all(np.abs(L).sum(axis=0) == 1)
        assert np.array_equal(generators.left_multiplication_matrices(dim)[0], eye)

    def test_columns_agree_with_the_product(self):
        dim = 8
        for i in (1, 5):
            L = generators.left_multiplication_matrices(dim)[i]
            ei = tuple(1 if t == i else 0 for t in range(dim))
            for jcol in range(dim):
                ej = tuple(1 if t == jcol else 0 for t in range(dim))
                assert tuple(L[:, jcol]) == cayley_dickson_multiply(ei, ej)


@pytest.mark.parametrize("build", [lambda: generators.skew_anticommuting_family(4),
                                   lambda: generators.skew_anticommuting_family(8),
                                   lambda: generators.skew_anticommuting_family(48),
                                   lambda: orthomul.standard_multiplication(8)])
def test_a_family_builds_one_unit_table(build, monkeypatch):
    calls = count_calls(monkeypatch, generators, "_unit_table")
    build()
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=128))
def test_skew_family_sizes_and_relations(m):
    fam = generators.skew_anticommuting_family(m)
    assert len(fam) == hurwitz_radon(m).sigma - 1
    eye = np.eye(m, dtype=np.int64)
    for a, J in enumerate(fam):
        assert J.dtype == np.int64
        assert np.array_equal(J.T, -J)
        assert np.array_equal(J.T @ J, eye)
        for K in fam[a + 1:]:
            assert not np.any(J @ K + K @ J)


def test_odd_dimension_family_is_empty():
    for m in (1, 3, 7, 15):
        assert generators.skew_anticommuting_family(m) == []
