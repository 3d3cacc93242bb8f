import io
import json
import subprocess
import sys

import numpy as np
import pytest

from quadmorph import clifford, core, orthomul, osystem, qhm, serialize
from quadmorph.cli import run
from quadmorph.core import random_orthogonal, to_float
from quadmorph.osystem import OSystem

from conftest import broken_canonical, count_calls, eight_dim_triple, float_canonical, two_scale


@pytest.fixture()
def triple_doc(tmp_path):
    phi = qhm.verify_qhm(eight_dim_triple())
    path = tmp_path / "triple.json"
    path.write_text(serialize.dumps(serialize.encode(phi)))
    return str(path)


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.encode(obj)))
    return str(path)


class TestSigma:
    def test_text_line(self, capsys):
        assert run(["sigma", "16"]) == 0
        assert capsys.readouterr().out == "m=16 r=0 c=0 d=1 sigma=9\n"
        assert run(["sigma", "12"]) == 0
        assert capsys.readouterr().out == "m=12 r=1 c=2 d=0 sigma=4\n"

    def test_json_format(self, capsys):
        assert run(["sigma", "16", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"m": 16, "r": 0, "c": 0, "d": 1, "sigma": 9}

    def test_bad_dimension(self, capsys):
        assert run(["sigma", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestConstructVerify:
    @pytest.mark.parametrize("argv", [
        ["construct", "clifford", "--n", "3"],
        ["construct", "osystem", "--m", "8"],
        ["construct", "orthomul", "--n", "4"],
        ["construct", "qhm", "--hopf", "2"],
        ["construct", "qhm", "--n", "2"],
    ])
    def test_constructed_documents_verify(self, argv, tmp_path, capsys):
        out = str(tmp_path / "obj.json")
        assert run(argv + ["--out", out]) == 0
        assert capsys.readouterr().out == ""
        assert run(["verify", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["kind"] == argv[1]

    def test_construct_output_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run(["construct", "osystem", "--m", "16", "--out", a]) == 0
        assert run(["construct", "osystem", "--m", "16", "--out", b]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_construct_needs_its_dimension_flag(self, capsys):
        assert run(["construct", "clifford"]) == 2
        assert "--n" in capsys.readouterr().err
        assert run(["construct", "qhm", "--hopf", "2", "--n", "3"]) == 2
        capsys.readouterr()

    def test_verify_rejects_broken_math(self, tmp_path, capsys):
        eye = np.eye(3, dtype=np.int64)
        bad = OSystem(m=3, n=2, matrices=(eye, eye.copy()))
        path = write_doc(tmp_path, "bad.json", bad)
        assert run(["verify", path]) == 1
        err = capsys.readouterr().err
        assert "rejected" in err and "odd" in err

    def test_verify_reports_format_problems(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"kind": "osystem", "dims"')
        assert run(["verify", str(path)]) == 2
        assert run(["verify", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

    def test_verify_reads_stdin(self, monkeypatch, capsys):
        text = serialize.dumps(serialize.encode(osystem.construct_range_maximal(4)))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["verify", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True


class TestOnePass:
    def test_verify_runs_the_sampled_route_once(self, triple_doc, monkeypatch, capsys):
        calls = []
        original = qhm.sampled_check

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(qhm, "sampled_check", counting)
        assert run(["verify", triple_doc, "--samples", "8", "--seed", "3"]) == 0
        assert len(calls) == 1
        payload = json.loads(capsys.readouterr().out)
        _, residuals = qhm.check_qhm(eight_dim_triple(), samples=8, seed=3)
        assert payload["residuals"] == residuals

    def test_verify_prints_the_verifier_residuals(self, tmp_path, capsys):
        g = random_orthogonal(8, 4)
        mats = [g @ to_float(P) @ g.T for P in clifford.construct_irreducible(3).matrices]
        path = write_doc(tmp_path, "cs.json", clifford.verify_clifford(mats))
        assert run(["verify", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        _, residuals = clifford.check_clifford(mats)
        assert payload["residuals"] == residuals
        assert 0 < residuals["max_relation_residual"] <= 1e-9
        path = write_doc(tmp_path, "mu.json", orthomul.standard_multiplication(4))
        assert run(["verify", path]) == 0
        assert json.loads(capsys.readouterr().out)["residuals"] == {"max_norm_defect": 0.0}


class TestClassifySplit:
    def test_classify_payload(self, triple_doc, capsys):
        assert run(["classify", triple_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q_rank"] == 8
        assert payload["is_umbilical"] is False
        assert payload["is_q_nonsingular"] is True
        assert payload["scales"] == [3.0, 2.0]
        assert payload["summand_dims"] == [4, 4]
        assert payload["positive_eigenvalues"] == pytest.approx([3, 3, 2, 2])

    def test_split_payload(self, triple_doc, capsys):
        assert run(["split", triple_doc]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["projection"] is None
        assert len(payload["summands"]) == 2
        change = np.array(payload["split_change"])
        assert change.shape == (8, 8)
        assert np.max(np.abs(change @ change.T - np.eye(8))) < 1e-9
        for sub in payload["summands"]:
            decoded = serialize.decode(sub)
            qhm.verify_qhm(decoded.components)

    def test_classify_of_a_constructed_map_needs_no_elimination(self, tmp_path, capsys,
                                                                monkeypatch):
        path = str(tmp_path / "q11.json")
        assert run(["construct", "qhm", "--n", "11", "--out", path]) == 0
        calls = count_calls(monkeypatch, core, "exact_rank")
        assert run(["classify", path, "--samples", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q_rank"] == 128 and payload["is_umbilical"] is True
        assert calls == []

    def test_classify_needs_a_qhm_document(self, tmp_path, capsys):
        path = write_doc(tmp_path, "os.json", osystem.construct_range_maximal(4))
        assert run(["classify", path]) == 2
        assert "qhm" in capsys.readouterr().err


class TestSmallScales:
    """Float documents are judged at unit scale, whatever their size."""

    @staticmethod
    def _doc(tmp_path, mats):
        return write_doc(tmp_path, "small.json", qhm.QuadraticHarmonicMorphism(
            m=mats[0].shape[0], n=len(mats), components=tuple(mats)))

    def test_small_broken_document_is_rejected(self, tmp_path, capsys):
        mats = [1e-6 * M for M in broken_canonical()]
        assert run(["verify", self._doc(tmp_path, mats)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("rejected: ")

    def test_small_valid_document_verifies_and_classifies(self, tmp_path, capsys):
        path = self._doc(tmp_path, [1e-10 * M for M in two_scale(float_canonical(3))])
        assert run(["verify", path]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        assert run(["classify", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scales"] == pytest.approx([2e-10, 1e-10], rel=1e-12)
        assert payload["summand_dims"] == [8, 8]


class TestConvert:
    def test_osystem_clifford_round_trip(self, tmp_path, capsys):
        src = write_doc(tmp_path, "os.json", osystem.construct_range_maximal(4))
        mid = str(tmp_path / "cs.json")
        back = str(tmp_path / "os2.json")
        assert run(["convert", src, "--to", "clifford", "--out", mid]) == 0
        assert run(["convert", mid, "--to", "osystem", "--out", back]) == 0
        a = serialize.decode(serialize.loads((tmp_path / "os.json").read_text()))
        b = serialize.decode(serialize.loads((tmp_path / "os2.json").read_text()))
        assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
        capsys.readouterr()

    def test_umbilical_map_scales_to_a_system(self, tmp_path, capsys):
        src = str(tmp_path / "hopf.json")
        assert run(["construct", "qhm", "--hopf", "4", "--out", src]) == 0
        assert run(["convert", src, "--to", "clifford"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "clifford" and payload["dims"] == {"two_m": 8, "n": 5}

    def test_two_scale_map_does_not_convert(self, triple_doc, capsys):
        assert run(["convert", triple_doc, "--to", "clifford"]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_osystem_conversions_use_the_tolerance(self, tmp_path, capsys):
        mats = [to_float(M) for M in osystem.construct_range_maximal(4).matrices]
        mats[1] = mats[1] + 1e-7 * np.random.default_rng(0).standard_normal((4, 4))
        src = write_doc(tmp_path, "noisy.json", OSystem(m=4, n=len(mats), matrices=tuple(mats)))
        commands = (["verify", src], ["convert", src, "--to", "clifford"],
                    ["convert", src, "--to", "orthomul"])
        assert [run(argv + ["--tol", "1e-5"]) for argv in commands] == [0, 0, 0]
        assert [run(argv) for argv in commands] == [1, 1, 1]
        capsys.readouterr()

    def test_every_source_and_target(self, tmp_path, capsys):
        sources = {"clifford": ["--n", "3"], "osystem": ["--m", "4"],
                   "orthomul": ["--n", "4"], "qhm": ["--n", "3"]}
        supported = {("qhm", "clifford"), ("clifford", "qhm"), ("clifford", "osystem"),
                     ("osystem", "clifford"), ("osystem", "orthomul"), ("orthomul", "osystem")}
        for src, flags in sources.items():
            path = str(tmp_path / f"{src}.json")
            assert run(["construct", src, *flags, "--out", path]) == 0
            for to in sources:
                code = run(["convert", path, "--to", to])
                out, err = capsys.readouterr()
                if (src, to) in supported:
                    assert code == 0 and json.loads(out)["kind"] == to
                else:
                    assert code == 2 and out == ""
                    assert f"no conversion from {src} to {to}" in err


def test_convert_rejects_an_invalid_source_through_its_conversion(tmp_path, capsys):
    eye = np.eye(2, dtype=np.int64)
    path = write_doc(tmp_path, "bad.json", OSystem(m=2, n=2, matrices=(eye, eye)))
    assert run(["convert", path, "--to", "qhm"]) == 2  # the pair is looked up first
    assert "no conversion from osystem to qhm" in capsys.readouterr().err
    assert run(["convert", path, "--to", "clifford"]) == 1
    assert "members 1 and 2 violate the anticommutation relation" in capsys.readouterr().err
    assert run(["convert", path, "--to", "orthomul"]) == 1
    assert "slices 1 and 2 break norm preservation" in capsys.readouterr().err


# the pairwise_relation and sampled_check calls of one convert request:
# each identity once, and every sampled check of the source kept
CONVERT_CENSUS = {
    ("qhm", "clifford"): (3, 1),  # equal squares, the block relations, the scaled system
    ("clifford", "qhm"): (2, 1),  # the Clifford relation, then the map's equal squares
    ("clifford", "osystem"): (2, 0),  # the system, then its blocks as an O-system
    ("osystem", "clifford"): (1, 0),
    ("osystem", "orthomul"): (1, 0),
    ("orthomul", "osystem"): (1, 0),
}


@pytest.mark.parametrize("src, to", sorted(CONVERT_CENSUS))
def test_convert_checks_each_identity_once(src, to, tmp_path, monkeypatch, capsys):
    flags = {"clifford": ["--n", "3"], "osystem": ["--m", "8"],
             "orthomul": ["--n", "4"], "qhm": ["--n", "3"]}[src]
    path = str(tmp_path / f"{src}.json")
    assert run(["construct", src, *flags, "--out", path]) == 0
    relations = count_calls(monkeypatch, core, "pairwise_relation")
    sampled = count_calls(monkeypatch, qhm, "sampled_check")
    assert run(["convert", path, "--to", to]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == to
    identities = {(repr([M.tolist() for M in mats]), repr([T.tolist() for T in target[:1]]))
                  for mats, *target in relations}
    assert (len(relations), len(sampled)) == CONVERT_CENSUS[src, to]
    assert len(identities) == len(relations)


class TestExtend:
    def test_extend_minimal_map(self, tmp_path, capsys):
        src = str(tmp_path / "phi.json")
        assert run(["construct", "qhm", "--n", "3", "--out", src]) == 0
        assert run(["extend", src]) == 0
        payload = json.loads(capsys.readouterr().out)
        extended = serialize.decode(payload)
        assert (extended.m, extended.n) == (8, 5)
        qhm.verify_qhm(extended.components)

    def test_extend_rejects_split_map(self, triple_doc, capsys):
        assert run(["extend", triple_doc]) == 1
        assert "rejected" in capsys.readouterr().err


class TestEval:
    def test_qhm_point(self, tmp_path, capsys):
        src = str(tmp_path / "hopf1.json")
        assert run(["construct", "qhm", "--hopf", "1", "--out", src]) == 0
        assert run(["eval", src, "--point", "1,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"kind": "qhm", "values": [1.0, 0.0]}

    def test_orthomul_factors(self, tmp_path, capsys):
        src = str(tmp_path / "mul.json")
        assert run(["construct", "orthomul", "--n", "2", "--out", src]) == 0
        assert run(["eval", src, "--x", "0,1", "--y", "0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"kind": "orthomul", "values": [-1.0, 0.0]}

    def test_missing_flags(self, tmp_path, capsys):
        src = str(tmp_path / "hopf1.json")
        assert run(["construct", "qhm", "--hopf", "1", "--out", src]) == 0
        assert run(["eval", src]) == 2
        assert "--point" in capsys.readouterr().err
        assert run(["eval", src, "--point", "1,oops"]) == 2
        capsys.readouterr()


class TestSeedsAndUsage:
    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_a_bad_tolerance_is_a_usage_error_for_every_command(self, tol, tmp_path, capsys):
        doc = str(tmp_path / "mul.json")
        assert run(["construct", "orthomul", "--n", "2", "--out", doc]) == 0
        for argv in (["verify", doc], ["sigma", "8"], ["construct", "osystem", "--m", "2"],
                     ["eval", doc, "--x", "1,0", "--y", "0,1"]):
            assert run(argv + ["--tol", tol]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: --tol must be a positive finite number, got {float(tol)}\n"

    def test_fresh_process_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "quadmorph.cli", "sigma", "8"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "m=8 r=0 c=3 d=0 sigma=8\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)")


@pytest.mark.parametrize("module, name, argv", [
    (osystem, "identity_matrix", ["construct", "osystem", "--m", "200000"]),
    (qhm, "sample_points", ["verify", "DOC", "--samples", "1000000000"]),
])
def test_running_out_of_memory_is_an_error(module, name, argv, triple_doc, monkeypatch,
                                            capsys):
    """A request too large for memory exits 2 with one error line, as a usage
    problem; exit 1 stays reserved for mathematical rejections."""
    monkeypatch.setattr(module, name, _out_of_memory)
    assert run([triple_doc if a == "DOC" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
