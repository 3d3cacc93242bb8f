"""pipeline-scale: the CLI pipeline on documents at two_m = 64 and 128.

Documents: the exact irreducible maps of ``construct qhm --n 10`` and
``--n 11`` (written by the construct jobs of each cycle), seeded float
orthogonal conjugates of both, and a seeded conjugate of the two-scale sum
3 phi + 2 phi of the n = 10 map, at 128.  Every document goes through
verify, classify, split and ``convert --to clifford``; ``extend`` runs only
where it rejects before the intertwiner search.
"""

from __future__ import annotations

import numpy as np

from answers import (classified, document, expect, scaled_copy, sigma,
                     split_reassembles, verified)
from docs import conjugate, make_doc, scaled_sum, write
from harness import Job

KIND = "cli"

# At the CLI's default of 64 samples one cycle takes ~140 s on a 2-core
# machine, several times the length of a benchmark run; 8 samples keep the
# sampled finite-difference route the largest single cost of a verify job.
SAMPLES = 8
TIMEOUT = 120.0


def setup(seed: int, workdir):
    from quadmorph import clifford

    rng = np.random.default_rng(seed)
    flags = ["--samples", str(SAMPLES), "--seed", str(seed)]
    exact = {n: [np.asarray(M) for M in clifford.construct_irreducible(n).matrices]
             for n in (10, 11)}
    jobs = []
    inputs = []
    for n in (10, 11):
        path = workdir / f"q{n}.json"
        mats = exact[n]
        dims = {"m": mats[0].shape[0], "n": len(mats)}
        jobs.append(Job(f"construct-n{n}", expect(0, document("qhm", dims, exact=True)),
                        argv=["construct", "qhm", "--n", str(n), "--out", str(path)],
                        out=path, timeout=TIMEOUT))
        inputs.append((f"q{n}", path, mats, [1.0]))
    for n in (10, 11):
        mats = conjugate(exact[n], rng)
        inputs.append((f"f{n}", write(workdir / f"f{n}.json", make_doc("qhm", mats)), mats, [1.0]))
    mats = conjugate(scaled_sum(exact[10], [3.0, 2.0]), rng)
    inputs.append(("s128", write(workdir / "s128.json", make_doc("qhm", mats)), mats, [3.0, 2.0]))

    for name, path, mats, scales in inputs:
        m, n = mats[0].shape[0], len(mats)
        summand_dims = [m // len(scales)] * len(scales)
        file_ = str(path)
        jobs += [
            Job(f"verify-{name}", expect(0, verified("qhm", {"m": m, "n": n})),
                argv=["verify", file_, *flags], timeout=TIMEOUT),
            Job(f"classify-{name}", expect(0, classified(m, scales, summand_dims)),
                argv=["classify", file_, *flags], timeout=TIMEOUT),
            Job(f"split-{name}", expect(0, split_reassembles(mats, scales, summand_dims)),
                argv=["split", file_, *flags], timeout=TIMEOUT),
        ]
        # only umbilical maps scale to a Clifford system
        convert = (expect(0, scaled_copy("clifford", {"two_m": m, "n": n}, mats, scales[0]))
                   if len(scales) == 1 else expect(1))
        jobs.append(Job(f"convert-{name}", convert,
                        argv=["convert", file_, "--to", "clifford", *flags], timeout=TIMEOUT))
        # a two-scale map is not domain-minimal; n = 10 already has sigma(32) + 1 components
        if len(scales) > 1 or n == sigma(m // 2) + 1:
            jobs.append(Job(f"extend-{name}", expect(1), argv=["extend", file_, *flags],
                            timeout=TIMEOUT))
    warmup = [Job("warmup-version", expect(0), argv=["--version"]),
              Job("warmup-verify-f10", expect(0), argv=["verify", str(inputs[2][1]), *flags],
                  timeout=TIMEOUT)]
    return jobs, warmup

