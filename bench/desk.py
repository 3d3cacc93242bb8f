"""cli-desk: many short CLI calls on desk-scale documents.

All eight subcommands and all six conversions on documents with two_m <= 16:
Clifford systems, Hopf maps of dimension 1, 2, 4 and 8, O-systems with
m <= 16 and the multiplications on R^1, R^2, R^4 and R^8.  Rejections
(exit 1), malformed documents (exit 2), and the non-finite and int64
wraparound inputs that the ROADMAP lists as silently accepted.
"""

from __future__ import annotations

import json

import numpy as np

from answers import (classified, document, expect, expect_rejection, extended,
                     integer_clifford_accepts, qhm_defect, scaled_copy, sigma,
                     split_reassembles, values, verified, TOL)
from docs import conjugate, make_doc, orthogonal, scaled_sum, write
from harness import Job

KIND = "cli"
TIMEOUT = 30.0
NAN = float("nan")
WRAP = [[1438793759, 4046803256], [4046803256, -1438793759]]  # a^2 + b^2 = 2^64 + 1


def _minimal_half_dimension(n: int) -> int:
    """Smallest m carrying n orthogonal anticommuting members: sigma(m) >= n."""
    m = 1
    while sigma(m) < n:
        m *= 2
    return m


def _with_kernel(mats, k: int):
    """The map extended by k directions that every component annihilates."""
    return [np.pad(np.asarray(M, dtype=np.float64), (0, k)) for M in mats]


def _csv(vector) -> str:
    """Comma-separated exact reprs; passed as --opt=value since they may start with '-'."""
    return ",".join(map(repr, vector.tolist()))


def _sigma_answer(m: int):
    odd, v = m, 0
    while odd % 2 == 0:
        odd //= 2
        v += 1
    want = {"m": m, "r": (odd - 1) // 2, "c": v % 4, "d": v // 4, "sigma": sigma(m)}

    def parse(text):
        if text.startswith("{"):
            return json.loads(text)
        return {k: int(v) for k, v in (item.split("=") for item in text.split())}

    def check(res):
        if res.exit != 0:
            return f"exit {res.exit}"
        got = parse(res.output)
        return None if got == want else f"sigma output {got}, expected {want}"
    return check


def setup(seed: int, workdir):
    from quadmorph import clifford, orthomul, osystem

    rng = np.random.default_rng(seed)
    flags = ["--seed", str(seed)]
    jobs = []

    def add(name, check, *argv, **kw):
        jobs.append(Job(name, check, argv=[*argv, *flags], timeout=TIMEOUT, **kw))

    def save(name, kind, mats):
        return str(write(workdir / f"{name}.json", make_doc(kind, mats)))

    cl = {n: [np.asarray(M) for M in clifford.construct_irreducible(n).matrices]
          for n in (1, 2, 3, 5, 8)}
    hopf = {d: [np.asarray(M) for M in
                orthomul.hopf_construction(orthomul.standard_multiplication(d)).components]
            for d in (1, 2, 4, 8)}
    osys = {m: [np.asarray(M) for M in osystem.construct_range_maximal(m).matrices]
            for m in (1, 4, 8, 16)}
    om = {d: [np.asarray(S) for S in orthomul.standard_multiplication(d).slices]
          for d in (1, 2, 4, 8)}
    U, V = orthogonal(8, rng), orthogonal(8, rng)
    floats = {"clf3": ("clifford", conjugate(cl[3], rng)),
              "clf8": ("clifford", conjugate(cl[8], rng)),
              "osf8": ("osystem", [U @ T @ V.T for T in osys[8]]),
              "qnf5": ("qhm", conjugate(cl[5], rng)),
              "sum": ("qhm", conjugate(scaled_sum(cl[3], [2.0, 1.0]), rng)),
              "ker": ("qhm", conjugate(_with_kernel(cl[3], 2), rng))}

    objects = {}
    for n, mats in cl.items():
        objects[f"cl{n}"] = ("clifford", mats)
    for d, mats in hopf.items():
        objects[f"hopf{d}"] = ("qhm", mats)
    for m, mats in osys.items():
        objects[f"os{m}"] = ("osystem", mats)
    for d, mats in om.items():
        objects[f"om{d}"] = ("orthomul", mats)
    for n in (3, 5, 7):
        objects[f"qn{n}"] = ("qhm", [np.asarray(M) for M in
                                     clifford.construct_irreducible(n).matrices])
    objects.update(floats)
    path = {name: save(name, kind, mats) for name, (kind, mats) in objects.items()}
    mats_of = {name: [np.asarray(M, dtype=np.float64) for M in mats]
               for name, (_, mats) in objects.items()}

    for m in rng.integers(1, 4097, size=2):
        add(f"sigma-{m}", _sigma_answer(int(m)), "sigma", str(m))
    m = int(rng.integers(1, 4097))
    add(f"sigma-json-{m}", _sigma_answer(m), "sigma", str(m), "--format", "json")

    def construct(name, kind, dims, *argv):
        out = workdir / f"built-{name}.json"
        add(f"construct-{name}", expect(0, document(kind, dims, exact=True)),
            "construct", *argv, "--out", str(out), out=out)

    for n in (2, 6):
        construct(f"clifford-n{n}", "clifford",
                  {"two_m": 2 * _minimal_half_dimension(n), "n": n + 1}, "clifford", "--n", str(n))
    for m in (6, 16):
        construct(f"osystem-m{m}", "osystem", {"m": m, "n": sigma(m)}, "osystem", "--m", str(m))
    for d in (4, 8):
        construct(f"orthomul-n{d}", "orthomul", {"p": d, "q": d, "n_out": d},
                  "orthomul", "--n", str(d))
    construct("hopf4", "qhm", {"m": 8, "n": 5}, "qhm", "--hopf", "4")
    construct("qhm-n5", "qhm", {"m": 16, "n": 6}, "qhm", "--n", "5")

    for name, (kind, mats) in objects.items():
        dims = make_doc(kind, mats)["dims"]
        add(f"verify-{name}", expect(0, verified(kind, dims)), "verify", path[name])

    add("classify-hopf4", expect(0, classified(8, [1.0], [8])), "classify", path["hopf4"])
    add("classify-qnf5", expect(0, classified(16, [1.0], [16])), "classify", path["qnf5"])
    add("classify-sum", expect(0, classified(16, [2.0, 1.0], [8, 8])), "classify", path["sum"])
    add("classify-ker", expect(0, classified(10, [1.0], [8], zero_count=2)),
        "classify", path["ker"])
    add("split-ker", expect(0, split_reassembles(mats_of["ker"], [1.0], [8])),
        "split", path["ker"])
    add("split-qn3", expect(0, split_reassembles(mats_of["qn3"], [1.0], [8])),
        "split", path["qn3"])
    add("split-sum", expect(0, split_reassembles(mats_of["sum"], [2.0, 1.0], [8, 8])),
        "split", path["sum"])

    def convert(name, to, check):
        add(f"convert-{name}-{to}", check, "convert", path[name], "--to", to)

    convert("hopf2", "clifford", expect(0, scaled_copy(
        "clifford", {"two_m": 4, "n": 3}, mats_of["hopf2"], 1.0)))
    convert("qnf5", "clifford", expect(0, scaled_copy(
        "clifford", {"two_m": 16, "n": 6}, mats_of["qnf5"], 1.0)))
    convert("cl3", "qhm", expect(0, scaled_copy("qhm", {"m": 8, "n": 4}, mats_of["cl3"], 1.0)))
    convert("cl5", "osystem", expect(0, document("osystem", {"m": 8, "n": 5})))
    convert("clf8", "osystem", expect(0, document("osystem", {"m": 8, "n": 8})))
    convert("os8", "clifford", expect(0, document("clifford", {"two_m": 16, "n": 9})))
    convert("osf8", "clifford", expect(0, document("clifford", {"two_m": 16, "n": 9})))
    convert("os4", "orthomul", expect(0, scaled_copy(
        "orthomul", {"p": 4, "q": 4, "n_out": 4}, mats_of["os4"], 1.0)))
    convert("om8", "osystem", expect(0, scaled_copy(
        "osystem", {"m": 8, "n": 8}, mats_of["om8"], 1.0)))
    # only umbilical maps scale to a Clifford system
    convert("sum", "clifford", expect(1))

    for name in ("qn3", "qn5", "qn7", "qnf5"):
        mats = mats_of[name]
        add(f"extend-{name}", expect(0, extended(mats, sigma(mats[0].shape[0] // 2) + 1)),
            "extend", path[name])
    # hopf8 has 9 components on R^16, already sigma(8) + 1
    add("extend-hopf8", expect(1), "extend", path["hopf8"])

    point = rng.standard_normal(8)
    add("eval-hopf4", expect(0, values([point @ A @ point for A in mats_of["hopf4"]])),
        "eval", path["hopf4"], "--point=" + _csv(point))
    point = rng.standard_normal(16)
    add("eval-qnf5", expect(0, values([point @ A @ point for A in mats_of["qnf5"]])),
        "eval", path["qnf5"], "--point=" + _csv(point))
    x, y = rng.standard_normal(8), rng.standard_normal(8)
    add("eval-om8", expect(0, values(sum(xi * (S @ y) for xi, S in zip(x, mats_of["om8"])))),
        "eval", path["om8"], "--x=" + _csv(x), "--y=" + _csv(y))

    bad = [np.array(M) for M in cl[5]]
    bad[1][0, 1] += 1
    bad[1][1, 0] += 1
    bad_path = save("perturbed", "clifford", bad)
    add("verify-perturbed", expect(0 if integer_clifford_accepts([M.tolist() for M in bad]) else 1),
        "verify", bad_path)

    good = make_doc("clifford", cl[3])
    malformed = {"bad-json": json.dumps(good)[:-40],
                 "wrong-dims": json.dumps({**good, "dims": {"two_m": 6, "n": 4}}),
                 "unknown-kind": json.dumps({**good, "kind": "spinor"})}
    for name, text in malformed.items():
        add(f"verify-{name}", expect(2), "verify", str(write(workdir / f"{name}.json", text)))

    nan = [[NAN, NAN], [NAN, NAN]]
    for kind, dims in (("clifford", {"two_m": 2, "n": 1}), ("osystem", {"m": 2, "n": 1}),
                       ("qhm", {"m": 2, "n": 1})):
        doc = {"kind": kind, "dims": dims, "scalars": "float", "matrices": [nan], "meta": {}}
        add(f"verify-nan-{kind}", expect_rejection, "verify",
            str(write(workdir / f"nan-{kind}.json", doc)), defect="ROADMAP item 2a")
    wrap = {"kind": "clifford", "dims": {"two_m": 2, "n": 1}, "scalars": "rational",
            "matrices": [WRAP], "meta": {}}
    accepts = integer_clifford_accepts([WRAP])
    add("verify-wrap-clifford", expect(0) if accepts else expect(1), "verify",
        str(write(workdir / "wrap-clifford.json", wrap)), defect="ROADMAP item 2b")
    # a single traceless component is a harmonic function, hence a valid map
    # however large its entries: here the exact answer is to accept
    wrap_qhm = {**wrap, "kind": "qhm", "dims": {"m": 2, "n": 1}}
    accepts = qhm_defect([np.array(WRAP, dtype=np.float64)]) <= TOL
    add("verify-wrap-qhm", expect(0, verified("qhm", {"m": 2, "n": 1})) if accepts
        else expect(1), "verify", str(write(workdir / "wrap-qhm.json", wrap_qhm)))

    warmup = [Job("warmup-version", expect(0), argv=["--version"]),
              next(job for job in jobs if job.name == "verify-hopf2")]
    return jobs, warmup
