"""equivalence: algebraic equivalence, irreducibility and range extension in-process.

Pairs at two_m = 8, 16 and 32 (n = 3..9 members beyond the first):
  * a system against a seeded orthogonal conjugate            -> equivalent;
  * against a conjugate with its last member negated         -> equivalent
    unless n = 0 mod 4, where the product of all members flips sign;
  * direct sums phi + phi against phi + phi', phi + phi' against phi' + phi
    and phi' + phi' against phi + phi, decided by the trace of the ordered
    member product.
One job answers one pair: the equivalence verdict and ``is_irreducible`` on
both members.  ``range_extend`` runs on domain-minimal maps at n = 3, 5, 6, 7
in exact and conjugated float form.
two_m = 64 is left out: one equivalence call there takes ~33 s and GBs.
"""

from __future__ import annotations

import numpy as np

from answers import TOL, extension, sigma
from docs import conjugate
from harness import Job

KIND = "library"
TIMEOUT = 60.0


def _flip_last(mats):
    return mats[:-1] + [-mats[-1]]


def _direct_sum(a, b):
    return [np.block([[x, np.zeros_like(x)], [np.zeros_like(y), y]]) for x, y in zip(a, b)]


def _product_trace(mats) -> float:
    prod = np.eye(mats[0].shape[0])
    for M in mats:
        prod = prod @ M
    return float(np.trace(prod))


def _equivalence_answer(a, b, n: int) -> bool:
    """With n + 1 = 1 mod 4 members there are two irreducible modules, told
    apart by the sign of the member product; a module is fixed by how often
    it holds each, which dimension and product trace determine.  Otherwise
    the irreducible module is unique and equal dimensions suffice."""
    if n % 4 != 0:
        return True
    return abs(_product_trace(a) - _product_trace(b)) <= 1e-6 * a[0].shape[0]


def _pair_answer(a, b, equivalent: bool, irreducible: bool):
    """The verdict, with a certificate conjugating a onto b when equivalent,
    and the irreducibility of both members."""
    def check(res):
        verdict, irreducible_a, irreducible_b = res.output
        status = verdict.status.value
        if status != ("equivalent" if equivalent else "not_equivalent"):
            return f"verdict {status}, expected {'' if equivalent else 'not '}equivalent"
        if equivalent:
            R = np.asarray(verdict.certificate, dtype=np.float64)
            worst = max(np.linalg.norm(R @ P @ R.T - Q) / max(1.0, np.linalg.norm(Q))
                        for P, Q in zip(a, b))
            if not worst <= TOL:
                return f"certificate fails by {worst:.3e}"
        if (irreducible_a, irreducible_b) != (irreducible, irreducible):
            return f"irreducible {irreducible_a}, {irreducible_b}; expected {irreducible}"
        return None
    return check


def setup(seed: int, workdir):
    from quadmorph import clifford, qhm

    rng = np.random.default_rng(seed)
    jobs = []
    for n in range(3, 10):
        base = [np.asarray(M) for M in clifford.construct_irreducible(n).matrices]
        flipped = _flip_last(base)
        pairs = [("conj", base, conjugate(base, rng), True),
                 ("flip", base, conjugate(flipped, rng), True)]
        if 2 * base[0].shape[0] <= 32:
            pairs += [("sum", _direct_sum(base, base),
                       conjugate(_direct_sum(base, flipped), rng), False),
                      ("swap", _direct_sum(base, flipped),
                       conjugate(_direct_sum(flipped, base), rng), False),
                      ("neg", _direct_sum(flipped, flipped),
                       conjugate(_direct_sum(base, base), rng), False)]
        for tag, a, b, irreducible in pairs:
            sa, sb = clifford.verify_clifford(a), clifford.verify_clifford(b)
            jobs.append(Job(
                f"pair-{tag}-n{n}",
                _pair_answer(a, b, _equivalence_answer(a, b, n), irreducible),
                call=lambda sa=sa, sb=sb: (clifford.algebraically_equivalent(sa, sb, seed=seed),
                                           clifford.is_irreducible(sa),
                                           clifford.is_irreducible(sb)),
                timeout=TIMEOUT))
    for n in (3, 5, 6, 7):
        exact = [np.asarray(M) for M in clifford.construct_irreducible(n).matrices]
        total = sigma(exact[0].shape[0] // 2) + 1
        for form, mats in (("exact", exact), ("float", conjugate(exact, rng))):
            phi = qhm.verify_qhm(mats)
            check = extension([np.asarray(M, dtype=np.float64) for M in mats], total)
            jobs.append(Job(f"extend-{form}-n{n}",
                            lambda res, check=check: check(
                                [np.asarray(M, dtype=np.float64) for M in res.output.components]),
                            call=lambda phi=phi: qhm.range_extend(phi, seed=seed),
                            timeout=TIMEOUT))
    # one job of each size class warms BLAS and the allocator
    warmup = [job for job in jobs if job.name in
              ("pair-conj-n3", "pair-conj-n5", "pair-sum-n5", "extend-float-n5")]
    return jobs, warmup
