import json
from fractions import Fraction

import numpy as np
import pytest

from quadmorph import clifford, core, orthomul, osystem, qhm, serialize
from quadmorph.core import random_orthogonal, to_float
from quadmorph.errors import DocumentFormatError

from conftest import eight_dim_triple


def roundtrip(obj):
    return serialize.decode(serialize.loads(serialize.dumps(serialize.encode(obj))))


class TestRoundTrips:
    def test_clifford_exact(self):
        cs = clifford.construct_irreducible(2)
        back = roundtrip(cs)
        assert (back.two_m, back.n) == (cs.two_m, cs.n)
        assert all(np.array_equal(a, b) for a, b in zip(back.matrices, cs.matrices))
        assert back.matrices[0].dtype == np.int64
        clifford.verify_clifford(back.matrices)

    def test_osystem_exact(self):
        os_ = osystem.construct_range_maximal(8)
        back = roundtrip(os_)
        assert (back.m, back.n) == (8, 8)
        assert all(np.array_equal(a, b) for a, b in zip(back.matrices, os_.matrices))

    def test_orthomul_square_and_rectangular(self):
        mu = orthomul.standard_multiplication(4)
        back = roundtrip(mu)
        assert (back.p, back.q, back.n_out) == (4, 4, 4)
        assert all(np.array_equal(a, b) for a, b in zip(back.slices, mu.slices))
        rect = orthomul.verify_orthomul([np.array([[1.0], [0.0]])])
        back = roundtrip(rect)
        assert (back.p, back.q, back.n_out) == (1, 1, 2)
        assert back.slices[0].shape == (2, 1)

    def test_qhm_exact_and_float(self):
        phi = qhm.verify_qhm(eight_dim_triple())
        back = roundtrip(phi)
        assert all(np.array_equal(a, b) for a, b in zip(back.components, phi.components))
        g = random_orthogonal(8, 3)
        rotated = qhm.verify_qhm([g.T @ to_float(a) @ g for a in phi.components])
        back = roundtrip(rotated)
        # repr round-trip: float payloads come back bit for bit
        assert all(np.array_equal(a, b) for a, b in zip(back.components, rotated.components))
        assert back.components[0].dtype == np.float64

    def test_fraction_entries_survive(self):
        phi = qhm.verify_qhm([[[Fraction(1, 2), 0], [0, Fraction(-1, 2)]]])
        doc = serialize.encode(phi)
        assert doc["scalars"] == "rational"
        assert doc["matrices"][0][0][0] == "1/2"
        back = serialize.decode(json.loads(serialize.dumps(doc)))
        assert back.components[0][0, 0] == Fraction(1, 2)
        assert back.components[0][1, 1] == Fraction(-1, 2)

    def test_float_document_with_int64_members_emits_floats(self):
        phi = qhm.QuadraticHarmonicMorphism(m=2, n=2, components=(
            np.diag([1, -1]).astype(np.int64), np.array([[0.0, 1.0], [1.0, 0.0]])))
        doc = serialize.encode(phi)
        assert doc["scalars"] == "float"
        assert doc["matrices"][0] == [[1.0, 0.0], [0.0, -1.0]]
        assert all(type(v) is float for M in doc["matrices"] for row in M for v in row)
        assert '"matrices":[[[1.0,0.0],[0.0,-1.0]]' in serialize.dumps(doc)

    @pytest.mark.parametrize("exact", [True, False])
    def test_whole_matrix_conversion_matches_entrywise(self, exact):
        rng = np.random.default_rng(11)
        mats = [rng.integers(-2**31, 2**31, size=(3, 4)), np.array([[-0.0, np.pi, 1e300]]),
                core.as_matrix([[Fraction(1, 3), 2**40], [-7, Fraction(-5, 2)]])]
        for M in mats:
            if exact and M.dtype == np.float64:
                continue
            entrywise = [[(int(v) if Fraction(v).denominator == 1 else str(Fraction(v)))
                          if exact else float(v) for v in row] for row in M.tolist()]
            whole = serialize._matrix_to_json(M, exact)
            assert json.dumps(whole) == json.dumps(entrywise)
            assert [[type(v) for v in row] for row in whole] == \
                [[type(v) for v in row] for row in entrywise]

    def test_irrational_floats_survive(self):
        phi = qhm.verify_qhm([np.diag([np.pi, -np.pi])])
        back = roundtrip(phi)
        assert back.components[0][0, 0] == np.pi


class TestCanonicalDumps:
    def test_repeated_encoding_is_byte_identical(self):
        os_ = osystem.construct_range_maximal(4)
        a = serialize.dumps(serialize.encode(os_))
        b = serialize.dumps(serialize.encode(os_))
        assert a == b
        assert a.endswith("\n") and ": " not in a

    def test_key_order_does_not_matter(self):
        doc = serialize.encode(osystem.construct_range_maximal(2))
        shuffled = dict(reversed(list(doc.items())))
        assert serialize.dumps(shuffled) == serialize.dumps(doc)

    def test_meta_fields_are_recorded(self):
        doc = serialize.encode(osystem.construct_range_maximal(2),
                               command="construct-osystem", seed=7, version="0.1.0")
        assert doc["meta"] == {"command": "construct-osystem", "seed": 7, "version": "0.1.0"}

    def test_meta_is_optional_on_decode(self):
        doc = serialize.encode(osystem.construct_range_maximal(2))
        del doc["meta"]
        assert serialize.decode(doc).m == 2


class TestRejections:
    def base(self):
        return serialize.encode(qhm.verify_qhm(eight_dim_triple()))

    def expect_error(self, doc, fragment):
        with pytest.raises(DocumentFormatError) as err:
            serialize.decode(doc)
        assert fragment in str(err.value)

    def test_invalid_json_text(self):
        with pytest.raises(DocumentFormatError):
            serialize.loads("{truncated")

    def test_missing_keys(self):
        for key in ("kind", "dims", "scalars", "matrices"):
            doc = self.base()
            del doc[key]
            self.expect_error(doc, key)

    def test_unknown_kind_and_extra_keys(self):
        doc = self.base()
        doc["kind"] = "spinor"
        self.expect_error(doc, "unknown kind")
        doc = self.base()
        doc["payload"] = 1
        self.expect_error(doc, "unexpected")

    def test_bad_scalars_tag(self):
        doc = self.base()
        doc["scalars"] = "exact"
        self.expect_error(doc, "scalars")

    def test_bad_dims(self):
        doc = self.base()
        doc["dims"] = {"m": 8}
        self.expect_error(doc, "dims")
        doc = self.base()
        doc["dims"] = {"m": 0, "n": 3}
        self.expect_error(doc, "positive")
        doc = self.base()
        doc["dims"] = {"m": True, "n": 3}
        self.expect_error(doc, "positive")

    def test_wrong_matrix_count(self):
        doc = self.base()
        doc["matrices"] = doc["matrices"][:2]
        self.expect_error(doc, "expected 3")

    def test_wrong_matrix_shape(self):
        doc = self.base()
        doc["dims"] = {"m": 4, "n": 3}
        self.expect_error(doc, "disagree")

    def test_non_rectangular_matrix(self):
        doc = self.base()
        doc["matrices"][1] = [[0, 1], [1]]
        self.expect_error(doc, "rectangular")

    def test_empty_matrices(self):
        doc = self.base()
        doc["matrices"] = []
        self.expect_error(doc, "non-empty")
        doc = self.base()
        doc["matrices"][0] = [[]]
        self.expect_error(doc, "matrix 1")

    def test_boolean_entries(self):
        doc = self.base()
        doc["matrices"][0][0][0] = True
        self.expect_error(doc, "entries")

    def test_float_entry_under_rational_scalars(self):
        doc = self.base()
        doc["matrices"][0][0][0] = 1.5
        self.expect_error(doc, "rational entries")

    def test_string_entry_under_float_scalars(self):
        doc = self.base()
        doc["scalars"] = "float"
        doc["matrices"][0][0][0] = "1/2"
        self.expect_error(doc, "numbers")

    def test_zero_denominator(self):
        doc = self.base()
        doc["matrices"][0][0][0] = "1/0"
        self.expect_error(doc, "matrix 1")

    def test_encode_refuses_foreign_objects(self):
        with pytest.raises(DocumentFormatError):
            serialize.encode({"not": "a system"})
