"""SHA-256 of stdout, stderr and the exit code of CLI requests.

Each case runs one `quadmorph` command in-process on desk-scale documents
built below: every subcommand, all 16 `convert` (source, --to) pairs, and a
valid, a broken, a float and a malformed document of each kind plus a
rectangular multiplication.  The digests were taken before the subcommands
shared one request path; that refactor must keep every byte.
"""

import contextlib
import hashlib
import io
import json
import sys
from unittest import mock

import numpy as np
import pytest

from quadmorph import clifford, orthomul, osystem, qhm, serialize
from quadmorph.cli import run
from quadmorph.core import random_orthogonal, to_float

from conftest import broken_canonical, eight_dim_triple

KINDS = ("clifford", "osystem", "orthomul", "qhm")


def _conjugate(mats, seed):
    g = random_orthogonal(mats[0].shape[0], seed)
    return [g @ to_float(M) @ g.T for M in mats]


def _documents():
    """name -> document text."""
    cl3 = clifford.construct_irreducible(3)
    cl_broken = [M.copy() for M in cl3.matrices]
    cl_broken[1][0, 1] += 1
    cl_broken[1][1, 0] += 1
    os8 = osystem.construct_range_maximal(8)
    u, v = random_orthogonal(8, 11), random_orthogonal(8, 12)
    eye3 = np.eye(3, dtype=np.int64)
    om4 = orthomul.standard_multiplication(4)
    om_broken = [S.copy() for S in om4.slices]
    om_broken[2][0, 0] += 2
    u4, v4 = random_orthogonal(4, 13), random_orthogonal(4, 14)
    qn3 = qhm.from_clifford(cl3)
    objects = {
        "clifford": cl3,
        "clifford-broken": clifford.CliffordSystem(two_m=8, n=4, matrices=tuple(cl_broken)),
        "clifford-float": clifford.CliffordSystem(two_m=8, n=4,
                                                  matrices=tuple(_conjugate(cl3.matrices, 7))),
        "osystem": os8,
        "osystem-broken": osystem.OSystem(m=3, n=2, matrices=(eye3, eye3.copy())),
        "osystem-float": osystem.OSystem(m=8, n=8,
                                         matrices=tuple(u @ to_float(T) @ v.T
                                                        for T in os8.matrices)),
        "orthomul": om4,
        "orthomul-broken": orthomul.OrthogonalMultiplication(p=4, q=4, n_out=4,
                                                             slices=tuple(om_broken)),
        "orthomul-float": orthomul.OrthogonalMultiplication(
            p=4, q=4, n_out=4, slices=tuple(u4 @ to_float(S) @ v4.T for S in om4.slices)),
        "orthomul-rect": orthomul.from_osystem(osystem.construct_range_maximal(6)),
        "qhm": qn3,
        "qhm-triple": qhm.QuadraticHarmonicMorphism(m=8, n=3,
                                                    components=tuple(eight_dim_triple())),
        "qhm-broken": qhm.QuadraticHarmonicMorphism(m=8, n=4,
                                                    components=tuple(broken_canonical())),
        "qhm-float": qhm.QuadraticHarmonicMorphism(m=8, n=4,
                                                   components=tuple(_conjugate(qn3.components, 5))),
        "hopf": orthomul.hopf_construction(orthomul.standard_multiplication(2)),
    }
    texts = {name: serialize.dumps(serialize.encode(obj, command=f"test {name}", seed=1,
                                                    version="0.1.0"))
             for name, obj in objects.items()}
    cl_doc = json.loads(texts["clifford"])
    os_doc = json.loads(texts["osystem"])
    om_doc = json.loads(texts["orthomul"])
    q_doc = json.loads(texts["qhm"])
    texts["clifford-malformed"] = json.dumps({**cl_doc, "dims": {"two_m": 6, "n": 4}})
    texts["osystem-malformed"] = json.dumps(
        {**os_doc, "matrices": [[[True] * 8] * 8] + os_doc["matrices"][1:]})
    texts["orthomul-malformed"] = json.dumps(
        {**om_doc, "matrices": [[[1, 0], [0]]] + om_doc["matrices"][1:]})
    texts["qhm-malformed"] = json.dumps(q_doc)[:-40]
    texts["unknown-kind"] = json.dumps({**cl_doc, "kind": "spinor"})
    return texts


def _cases():
    """name -> argv, '{doc}' naming a document of _documents()."""
    cases = {
        "sigma 12": ["sigma", "12"],
        "sigma 16 json": ["sigma", "16", "--format", "json"],
        "sigma 0": ["sigma", "0"],
        "construct clifford": ["construct", "clifford", "--n", "3"],
        "construct osystem": ["construct", "osystem", "--m", "6"],
        "construct orthomul": ["construct", "orthomul", "--n", "4"],
        "construct qhm hopf": ["construct", "qhm", "--hopf", "2"],
        "construct qhm n": ["construct", "qhm", "--n", "2"],
        "construct clifford foreign flags": ["construct", "clifford", "--n", "2", "--m", "4",
                                             "--hopf", "1"],
        "construct osystem foreign flags": ["construct", "osystem", "--m", "4", "--n", "3"],
        "construct orthomul foreign flags": ["construct", "orthomul", "--n", "2", "--m", "9"],
        "construct qhm foreign flags": ["construct", "qhm", "--n", "1", "--m", "9"],
        "construct clifford missing": ["construct", "clifford"],
        "construct osystem missing": ["construct", "osystem", "--n", "3"],
        "construct orthomul missing": ["construct", "orthomul", "--m", "4"],
        "construct qhm neither": ["construct", "qhm"],
        "construct qhm both": ["construct", "qhm", "--hopf", "2", "--n", "3"],
        "construct orthomul unsupported": ["construct", "orthomul", "--n", "3"],
        "construct qhm hopf unsupported": ["construct", "qhm", "--hopf", "3"],
        "construct out": ["construct", "osystem", "--m", "4", "--out", "{out}"],
        "eval point": ["eval", "{hopf}", "--point", "1,2,-0.5,3"],
        "eval x y": ["eval", "{orthomul}", "--x", "1,0,2,0", "--y", "0,1,0,-1"],
        "eval rect": ["eval", "{orthomul-rect}", "--x", "1,2", "--y", "1,0,0,0,0,1"],
        "eval float qhm": ["eval", "{qhm-float}", "--point", "1,0,0,0,0,0,0,2"],
        "eval missing point": ["eval", "{hopf}"],
        "eval missing y": ["eval", "{orthomul}", "--x", "1,0,0,0"],
        "eval bad point": ["eval", "{hopf}", "--point", "1,oops"],
        "eval clifford": ["eval", "{clifford}", "--point", "1"],
        "verify stdin": ["verify", "-"],
        "verify sampled": ["verify", "{qhm-float}", "--samples", "8", "--seed", "3"],
        "classify sampled": ["classify", "{qhm-float}", "--samples", "8", "--seed", "3"],
        "verify out": ["verify", "{osystem}", "--out", "{out}"],
        "verify tight tol": ["verify", "{osystem-float}", "--tol", "1e-18"],
        "split out": ["split", "{qhm-triple}", "--out", "{out}"],
        "unknown kind": ["verify", "{unknown-kind}"],
        "usage bad kind": ["construct", "spinor", "--n", "3"],
        "usage bad target": ["convert", "{qhm}", "--to", "spinor"],
        "usage no subcommand": [],
    }
    for kind in KINDS:
        for variant in ("", "-broken", "-float", "-malformed"):
            cases[f"verify {kind}{variant}"] = ["verify", "{%s%s}" % (kind, variant)]
            for to in KINDS:
                cases[f"convert {kind}{variant} {to}"] = [
                    "convert", "{%s%s}" % (kind, variant), "--to", to]
    cases["verify orthomul-rect"] = ["verify", "{orthomul-rect}"]
    for to in KINDS:
        cases[f"convert orthomul-rect {to}"] = ["convert", "{orthomul-rect}", "--to", to]
    for command in ("classify", "split", "extend"):
        for doc in ("qhm", "qhm-triple", "qhm-broken", "qhm-float", "qhm-malformed",
                    "hopf", "clifford", "osystem-malformed"):
            cases[f"{command} {doc}"] = [command, "{%s}" % doc]
    return cases


def digest(argv, documents, workdir) -> str:
    """SHA-256 over the exit code, stdout (plus the --out file) and stderr
    of one in-process run, a usage error's SystemExit code standing for the
    exit code; '{name}' in argv is the path of a document, '{out}' a fresh
    output path, and '-' reads the 'qhm' document."""
    paths = {}
    for name, text in documents.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(text)
    out_path = workdir / "out.json"
    if out_path.exists():
        out_path.unlink()
    paths["out"] = out_path
    argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(documents["qhm"])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(sys, "stdin", stdin):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    written = out_path.read_text() if out_path.exists() else ""
    record = f"{code}\n{out.getvalue()}{written}\0{err.getvalue()}"
    return hashlib.sha256(record.encode()).hexdigest()


DIGESTS = {
    'classify clifford':
        'ae40da20add172c6c0445454bc6b0fc85fb0b1ebd3643ffb092fe317cbeedeed',
    'classify hopf':
        '126ea081f1f35ffa8671299daaec213ac6ad9618faf193a982880279b6c6a39e',
    'classify osystem-malformed':
        'c1b144dcfdda222928da279e434741744456a3c458745bad212dc6344e3aac38',
    'classify qhm':
        '2f305b6fc03abb6769f94dcf962613728ddf4083178423c6d0ec4849725f7cbf',
    'classify qhm-broken':
        'f78bfd7303e6da5f635ea7247198414bfd6ea80d936fe2b4a904bf485d58a7af',
    'classify qhm-float':
        '5946f6294ef56634953ff63635e00bc96619bc91eff9a13577734f25b307c0e5',
    'classify qhm-malformed':
        '9f57a10985b35a57ecce043a42095a632692e3028eec9d5d53614d63a999d8db',
    'classify qhm-triple':
        '6853591f7e644ec1d663be9a2516b9b0018dc610036dce20fcfa283d068ea971',
    'classify sampled':
        '5946f6294ef56634953ff63635e00bc96619bc91eff9a13577734f25b307c0e5',
    'construct clifford':
        'c1c204d635b77ba0b284627585fc2b880c78b9457b7104189ff800cce26533b0',
    'construct clifford foreign flags':
        'bc88694b72fbc1420786660f6925516fa3ba8773db2c0125f860f04120a58c83',
    'construct clifford missing':
        '9b5f52839af19cbf81f029d585dbca84f72feb5fd991b991ec941bc9c45308c4',
    'construct orthomul':
        '483b7034258f9bfef9cf6feee4e2b72f75d3dfd78228ce963dd759b4c30c7112',
    'construct orthomul foreign flags':
        '1ba813cb9dd963f315f683ded0a58d11861eef86158883affa881620e51aa78b',
    'construct orthomul missing':
        '29fe6288eedd5bf1d761beb73a22229bf4d0155b01861a7ab4806441d3616c9c',
    'construct orthomul unsupported':
        '216ddde893c166e52ab12baf703f22ead0031f48687614a0e7f1c66c7b649dc3',
    'construct osystem':
        'cac23163880c39ef327816b1f7491c6c1393a5d19fa049cddaff602d8cf0ddb8',
    'construct osystem foreign flags':
        '55aa89bceb0588935c6314651e514017d736d85ba2bdce9172f654d9d1e17887',
    'construct osystem missing':
        '7104dc97926c017f8aabec696f414fd7ffca93c51a00bb4c47866f62b9674aa8',
    'construct out':
        '55aa89bceb0588935c6314651e514017d736d85ba2bdce9172f654d9d1e17887',
    'construct qhm both':
        '1bf80e65a1edd0440af2ddce5073e93c894befcf579f5df17438c0ffdc406f48',
    'construct qhm foreign flags':
        'ba08558aeda34b2171cb362ab64263ad156112bed8da4d57dc27e689d6e66b41',
    'construct qhm hopf':
        '5345f830c15246dc633b82ff642177d16f84a7344b0f923c628045baabb3629c',
    'construct qhm hopf unsupported':
        '216ddde893c166e52ab12baf703f22ead0031f48687614a0e7f1c66c7b649dc3',
    'construct qhm n':
        'dec27ddaf20423b91082dbe002319aeae5ae2e64051e12323492f7356b0ee90b',
    'construct qhm neither':
        '1bf80e65a1edd0440af2ddce5073e93c894befcf579f5df17438c0ffdc406f48',
    'convert clifford clifford':
        '1235b1d981248d63d71762a00c0c0a76cdbea9db7b4b67b657ef87fff4b03b2d',
    'convert clifford orthomul':
        '7e7c75804e8f588fd1b0277c4e52e74f1f1e5914b8ccd698f6ce28413e23b21e',
    'convert clifford osystem':
        'aa6c2120a0efe99fb7c3d6af062c5971b0b554e29d36d0cba47269560d14722c',
    'convert clifford qhm':
        'cbee264366af4e971c33b8624839abbe6ae0ff63343f33024b5cc128a5666883',
    'convert clifford-broken clifford':
        '1235b1d981248d63d71762a00c0c0a76cdbea9db7b4b67b657ef87fff4b03b2d',
    'convert clifford-broken orthomul':
        '7e7c75804e8f588fd1b0277c4e52e74f1f1e5914b8ccd698f6ce28413e23b21e',
    'convert clifford-broken osystem':
        'd67eab2f1607edce9442f8949cbca29bdc8aac5893d65a015f3a0c8b070de26a',
    'convert clifford-broken qhm':
        'd67eab2f1607edce9442f8949cbca29bdc8aac5893d65a015f3a0c8b070de26a',
    'convert clifford-float clifford':
        '1235b1d981248d63d71762a00c0c0a76cdbea9db7b4b67b657ef87fff4b03b2d',
    'convert clifford-float orthomul':
        '7e7c75804e8f588fd1b0277c4e52e74f1f1e5914b8ccd698f6ce28413e23b21e',
    'convert clifford-float osystem':
        'c135403cef24525d435c8817cfc3cfa6e17eea6d56839fd9c715b59ab9ac20a6',
    'convert clifford-float qhm':
        'edc178316f6b16a9546ead5e8760bcd2596b7db182d631e0e1a770bfd2b6b2b6',
    'convert clifford-malformed clifford':
        '031908e415cb9ef26ba445cee9a71edcfd58e1d826582d666b79046881ebb596',
    'convert clifford-malformed orthomul':
        '031908e415cb9ef26ba445cee9a71edcfd58e1d826582d666b79046881ebb596',
    'convert clifford-malformed osystem':
        '031908e415cb9ef26ba445cee9a71edcfd58e1d826582d666b79046881ebb596',
    'convert clifford-malformed qhm':
        '031908e415cb9ef26ba445cee9a71edcfd58e1d826582d666b79046881ebb596',
    'convert orthomul clifford':
        '5025c4fd52470bedadbb0f76558388b8054f2836384ffafdb3f1f724c328ce2e',
    'convert orthomul orthomul':
        '889105b45888b08d8b78f7759e1e97726753a522d145f89a92b41c892db6d91e',
    'convert orthomul osystem':
        'e1d3e8e22c15b5a92afe0e615934c51c130842879741707b8f4ea659bfb093fa',
    'convert orthomul qhm':
        'f565ad23bf0f40105f37433df31f31f195cfb64240c27108c10efcb044f6a754',
    'convert orthomul-broken clifford':
        '5025c4fd52470bedadbb0f76558388b8054f2836384ffafdb3f1f724c328ce2e',
    'convert orthomul-broken orthomul':
        '889105b45888b08d8b78f7759e1e97726753a522d145f89a92b41c892db6d91e',
    'convert orthomul-broken osystem':
        'e8b63214f97bf509f7284fea69b3670af4f32a38762cd7bac37df780e616619b',
    'convert orthomul-broken qhm':
        'f565ad23bf0f40105f37433df31f31f195cfb64240c27108c10efcb044f6a754',
    'convert orthomul-float clifford':
        '5025c4fd52470bedadbb0f76558388b8054f2836384ffafdb3f1f724c328ce2e',
    'convert orthomul-float orthomul':
        '889105b45888b08d8b78f7759e1e97726753a522d145f89a92b41c892db6d91e',
    'convert orthomul-float osystem':
        '24cf747205f671ca24b340b7a63281daacf5f02425a219af22d9f27e9a3d7c9e',
    'convert orthomul-float qhm':
        'f565ad23bf0f40105f37433df31f31f195cfb64240c27108c10efcb044f6a754',
    'convert orthomul-malformed clifford':
        'c5885cc81a34bbe41c038985fae3f2e2a68566cfca4054a76ec8f85baa133e10',
    'convert orthomul-malformed orthomul':
        'c5885cc81a34bbe41c038985fae3f2e2a68566cfca4054a76ec8f85baa133e10',
    'convert orthomul-malformed osystem':
        'c5885cc81a34bbe41c038985fae3f2e2a68566cfca4054a76ec8f85baa133e10',
    'convert orthomul-malformed qhm':
        'c5885cc81a34bbe41c038985fae3f2e2a68566cfca4054a76ec8f85baa133e10',
    'convert orthomul-rect clifford':
        '5025c4fd52470bedadbb0f76558388b8054f2836384ffafdb3f1f724c328ce2e',
    'convert orthomul-rect orthomul':
        '889105b45888b08d8b78f7759e1e97726753a522d145f89a92b41c892db6d91e',
    'convert orthomul-rect osystem':
        '5f2af0243b6116ba1371882eb2af05b4e19b171dda656a9951000bd1a7d9b501',
    'convert orthomul-rect qhm':
        'f565ad23bf0f40105f37433df31f31f195cfb64240c27108c10efcb044f6a754',
    'convert osystem clifford':
        'bb854af1ecb308d5f7c5d874c66f5d11fc6d8ec7796c50c5b00d78ce0c758f1a',
    'convert osystem orthomul':
        '9399226e0f2120365ab9f5c3809664b99ae858f8ff51fe107de228afeb680f34',
    'convert osystem osystem':
        '8d3bb0741ff220f49e37b577b5f22b6abab006ee8b2a050ba35dc74c0c0e0d14',
    'convert osystem qhm':
        'b0b1c9bb2da2cc64dfea31bb62a000184d706076016fd7089697334b6275d8da',
    'convert osystem-broken clifford':
        '3db34f86a5531a871f628697ee260538c6211e2245a772748afde976c53ab313',
    'convert osystem-broken orthomul':
        'b7fa323b709242c62bbf512906e0a5ec2ca2c0a71cfef92a42bda4269c3fafd6',
    'convert osystem-broken osystem':
        '8d3bb0741ff220f49e37b577b5f22b6abab006ee8b2a050ba35dc74c0c0e0d14',
    'convert osystem-broken qhm':
        'b0b1c9bb2da2cc64dfea31bb62a000184d706076016fd7089697334b6275d8da',
    'convert osystem-float clifford':
        'ce187519e82c3bb5dac02e86581872a58f6a28a46db1a66e282d2965981ea71f',
    'convert osystem-float orthomul':
        '8ea75a4e77fc65c3c057629d89d030c264ed1d6dca3fd46aa7dc3b50dcb890a3',
    'convert osystem-float osystem':
        '8d3bb0741ff220f49e37b577b5f22b6abab006ee8b2a050ba35dc74c0c0e0d14',
    'convert osystem-float qhm':
        'b0b1c9bb2da2cc64dfea31bb62a000184d706076016fd7089697334b6275d8da',
    'convert osystem-malformed clifford':
        'c1b144dcfdda222928da279e434741744456a3c458745bad212dc6344e3aac38',
    'convert osystem-malformed orthomul':
        'c1b144dcfdda222928da279e434741744456a3c458745bad212dc6344e3aac38',
    'convert osystem-malformed osystem':
        'c1b144dcfdda222928da279e434741744456a3c458745bad212dc6344e3aac38',
    'convert osystem-malformed qhm':
        'c1b144dcfdda222928da279e434741744456a3c458745bad212dc6344e3aac38',
    'convert qhm clifford':
        '5f962c61f34e97efe3ff9f928c40bd3bcea2984a26da1c6fdd3d76cfd5123967',
    'convert qhm orthomul':
        '0b983586d03743628bd923936e63161379c5d2a5e643b4b27f33066bef427353',
    'convert qhm osystem':
        '7b9e279621c588bddd95f76ca1526d885be5ef2111264d8aafd6e5c150fb3936',
    'convert qhm qhm':
        '0034e4b3f04ead01501ce2a2d1bac8795c0f6c6e89f7430bb0d6caf0c7254460',
    'convert qhm-broken clifford':
        'f78bfd7303e6da5f635ea7247198414bfd6ea80d936fe2b4a904bf485d58a7af',
    'convert qhm-broken orthomul':
        '0b983586d03743628bd923936e63161379c5d2a5e643b4b27f33066bef427353',
    'convert qhm-broken osystem':
        '7b9e279621c588bddd95f76ca1526d885be5ef2111264d8aafd6e5c150fb3936',
    'convert qhm-broken qhm':
        '0034e4b3f04ead01501ce2a2d1bac8795c0f6c6e89f7430bb0d6caf0c7254460',
    'convert qhm-float clifford':
        '85cd9bef0367a71f318e086b45c8c2886ba77c5b4a1ca77481bad783d8c0c4b4',
    'convert qhm-float orthomul':
        '0b983586d03743628bd923936e63161379c5d2a5e643b4b27f33066bef427353',
    'convert qhm-float osystem':
        '7b9e279621c588bddd95f76ca1526d885be5ef2111264d8aafd6e5c150fb3936',
    'convert qhm-float qhm':
        '0034e4b3f04ead01501ce2a2d1bac8795c0f6c6e89f7430bb0d6caf0c7254460',
    'convert qhm-malformed clifford':
        '9f57a10985b35a57ecce043a42095a632692e3028eec9d5d53614d63a999d8db',
    'convert qhm-malformed orthomul':
        '9f57a10985b35a57ecce043a42095a632692e3028eec9d5d53614d63a999d8db',
    'convert qhm-malformed osystem':
        '9f57a10985b35a57ecce043a42095a632692e3028eec9d5d53614d63a999d8db',
    'convert qhm-malformed qhm':
        '9f57a10985b35a57ecce043a42095a632692e3028eec9d5d53614d63a999d8db',
    'eval bad point':
        '4acf304d111f26e8cb525ef74c59efef8b0519ac1315e7be59eb2b8e3e29fc36',
    'eval clifford':
        'c2d1c009fddcf4b39c7128fc9a1fdce571fae43b0353ad83450421f4d9168fe6',
    'eval float qhm':
        'ada7170f8e19ba7ea3e997b01b9e011f89eb47017aa991dd8bf35f9d3fd39965',
    'eval missing point':
        '06b34777346bbf83b78871a8394af7977ad64aca95cbaaabf2785426e6059f76',
    'eval missing y':
        '564b2fd0902298acd40506be0e7d7dc904cbcb7a01335f19c0ad17f2b9b4c9a9',
    'eval point':
        'acdb7c6a4380d1b0e69e4d68cc9e85c1588f0bfc02215706100b6de1a7585dd9',
    'eval rect':
        'a3eaf86a5240b52c0ba8097547201f279969ad7a91e19c70e30257653a6a10eb',
    'eval x y':
        '1c61fd9c5254eb48251abb5fd7dfea12da12e1e6081025b58150851186f3aa33',
    'extend clifford':
        '4d18b0f730062e15377f70a9527e994f41736f3b06d24c832d76a7f90f29af47',
    'extend hopf':
        'b32bedb26037f843db4a1e2eb9d05a167d869b5ef6037958e7af00d51214abae',
    'extend osystem-malformed':
        'c1b144dcfdda222928da279e434741744456a3c458745bad212dc6344e3aac38',
    'extend qhm':
        '4fad8baef396e30145dda62ed73e6e00796f53486d5d8d380678082861441c10',
    'extend qhm-broken':
        'f78bfd7303e6da5f635ea7247198414bfd6ea80d936fe2b4a904bf485d58a7af',
    'extend qhm-float':
        '2212b68243f17c7dd1788bc5615ce48d5fe230d83ca48faf71830c349471fa7d',
    'extend qhm-malformed':
        '9f57a10985b35a57ecce043a42095a632692e3028eec9d5d53614d63a999d8db',
    'extend qhm-triple':
        '9fa1a46bb0f88d30cc6673dd35da01aa9778aedd7d9f282abc873bb29d789daf',
    'sigma 0':
        '6a614a9895128cf87abaa0aec0a8674be0f280d54c168fb85e4a086736c2dede',
    'sigma 12':
        'd1c0e7aedf027df3fa8a72a20af6f317aea56f28bc614bf343639ec4058dcc4e',
    'sigma 16 json':
        'a3a774b6b70c5a9d3d0ee5e35a696a3b588839211e5a20410be12da969f6caa4',
    'split clifford':
        '3cf2273b45a9265c59ea5d6a59266260f91f365d03de86b04edc3af410f68ccf',
    'split hopf':
        '4ad5eb4cc63af17ffbd3e488edb6432754c5b42b435577f7be0d4ad8a76d1351',
    'split osystem-malformed':
        'c1b144dcfdda222928da279e434741744456a3c458745bad212dc6344e3aac38',
    'split out':
        '8666ca0c1a74046e5da8e1d18772d0869f97cbd1fd93b5f8408575ff296ab3fa',
    'split qhm':
        '11d4e4da4295f33a6bdf3b0e0aab554021a43baf802ab8b6c1be5e3819483318',
    'split qhm-broken':
        'f78bfd7303e6da5f635ea7247198414bfd6ea80d936fe2b4a904bf485d58a7af',
    'split qhm-float':
        'ee58597f8671c028b32f603b288a5ee8dc17cc543779134dc739e82437ef5bd4',
    'split qhm-malformed':
        '9f57a10985b35a57ecce043a42095a632692e3028eec9d5d53614d63a999d8db',
    'split qhm-triple':
        '8666ca0c1a74046e5da8e1d18772d0869f97cbd1fd93b5f8408575ff296ab3fa',
    'unknown kind':
        'b3dd09575d1600cda57056ac1e75999c91b0b5aa81af799e2d31dcec4ebffd41',
    'usage bad kind':
        'ba2a45dbebf838e43650581c9a66563d0c9faee440bc721697f379c97c71e966',
    'usage bad target':
        'c7b2541d980359229934366b94a31c240d77f4b16762c22f465a8153cb3728db',
    'usage no subcommand':
        '0667010fde59e2416424c7be948874071b56ae3676c9249595be997c1d22e366',
    'verify clifford':
        '5275fbce950ac4236413a2591ce155a497490c9cf2f5c6636c2b76dfd9c84330',
    'verify clifford-broken':
        'd67eab2f1607edce9442f8949cbca29bdc8aac5893d65a015f3a0c8b070de26a',
    'verify clifford-float':
        '70be3ac8fe60e15c3cfe12dab04525e5a60a8c6f30fef58661324d471f839910',
    'verify clifford-malformed':
        '031908e415cb9ef26ba445cee9a71edcfd58e1d826582d666b79046881ebb596',
    'verify orthomul':
        '3a01223f9f4796de55152403543b3261e38e4da9e3cddfe3462515fedfb671c6',
    'verify orthomul-broken':
        'cb1e6730781f92edf675d01a3896ba5226562940575fe6ea2d365e5016a3bb14',
    'verify orthomul-float':
        '5b898679daef1c6e97040a7bea3807510e5fda194384e925d72d7def0d6b776f',
    'verify orthomul-malformed':
        'c5885cc81a34bbe41c038985fae3f2e2a68566cfca4054a76ec8f85baa133e10',
    'verify orthomul-rect':
        '7d8b1b52032e72094a456d912139fa3d9ff037f71a88ef1181783ade274d87a5',
    'verify osystem':
        '8d2b80e0dcbe668f3ff639426eb53b758c51e03dad551e31d4d6f992d9eb7232',
    'verify osystem-broken':
        '3db34f86a5531a871f628697ee260538c6211e2245a772748afde976c53ab313',
    'verify osystem-float':
        '23f3f7b54b61dbdcf883d0c2d3378bd04579d7bc79f34367340848eb3b937efa',
    'verify osystem-malformed':
        'c1b144dcfdda222928da279e434741744456a3c458745bad212dc6344e3aac38',
    'verify out':
        '8d2b80e0dcbe668f3ff639426eb53b758c51e03dad551e31d4d6f992d9eb7232',
    'verify qhm':
        '57121ab7cf994f752eaa329111f9836662c5598d2d214410fd241e69806fce0a',
    'verify qhm-broken':
        'f78bfd7303e6da5f635ea7247198414bfd6ea80d936fe2b4a904bf485d58a7af',
    'verify qhm-float':
        '44d05b5291a0af61e4d26b99069027061bdef518395ac699db80ce8f8d695fd6',
    'verify qhm-malformed':
        '9f57a10985b35a57ecce043a42095a632692e3028eec9d5d53614d63a999d8db',
    'verify sampled':
        'b5a64915798a2d223a43a582a7ac1959e67ec96d1ad9270d59bf622f5c667218',
    'verify stdin':
        '57121ab7cf994f752eaa329111f9836662c5598d2d214410fd241e69806fce0a',
    'verify tight tol':
        '0ea74beccdf60c0c79a11dd649f6f2ff414f0d45e26ec4560dde052f4b788fe7',
}


@pytest.fixture(scope="module")
def documents():
    return _documents()


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_cli_output_is_unchanged(name, documents, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    assert digest(_cases()[name], documents, tmp_path) == DIGESTS[name]
