import re
import sys

import numpy as np
import pytest

from quadmorph import clifford, qhm
from quadmorph.core import block_diag2, random_orthogonal, to_float


def eight_dim_triple():
    """Frozen 8x8 integer component triple with eigenvalue scales 3 and 2.

    Verified exactly: traceless, pairwise anticommuting, equal squares
    (diag of the common square is (4,4,9,9,4,4,9,9)).
    """
    a1 = np.diag([2, 2, 3, 3, -2, -2, -3, -3]).astype(np.int64)
    a2 = np.zeros((8, 8), dtype=np.int64)
    for i, j, val in [(0, 4, 2), (1, 5, 2), (2, 7, 3), (3, 6, -3)]:
        a2[i, j] = val
        a2[j, i] = val
    a3 = np.zeros((8, 8), dtype=np.int64)
    for i, j, val in [(0, 5, -2), (1, 4, 2), (2, 6, 3), (3, 7, 3)]:
        a3[i, j] = val
        a3[j, i] = val
    return [a1, a2, a3]


@pytest.fixture(scope="session")
def split_scale_map():
    """The verified two-scale map built from eight_dim_triple()."""
    return qhm.verify_qhm(eight_dim_triple())


def float_canonical(n):
    """The members of construct_irreducible(n) as float64 components."""
    return [to_float(a) for a in clifford.construct_irreducible(n).matrices]


def two_scale(mats):
    """2 phi + phi, whose scales are 2 and 1 times phi's."""
    return [block_diag2(2 * a, a) for a in mats]


def broken_canonical():
    """float_canonical(3) with 0.05 added to entries (1, 5) and (5, 1) of
    component 2: its squares differ by ~5% relative."""
    mats = float_canonical(3)
    mats[1] = mats[1].copy()
    mats[1][1, 5] += 0.05
    mats[1][5, 1] += 0.05
    return mats


def diagonal_first_systems():
    """Members of construct_irreducible(2..9) doubled by direct sums up to
    two_m 256, exact and float, each as built and under a seeded coordinate
    permutation: P_1 stays diagonal, in the layout or out of it (172
    systems)."""
    systems = []
    for k in range(2, 10):
        cs = clifford.construct_irreducible(k)
        while cs.two_m <= 256:
            perm = np.random.default_rng(cs.two_m + k).permutation(cs.two_m)
            for mats in (cs.matrices, [to_float(P) for P in cs.matrices]):
                systems += [mats, [P[np.ix_(perm, perm)] for P in mats]]
            cs = clifford.direct_sum(cs, cs)
    return systems


def leaky_pair(seed: int = 17, leak: float = 1e-3):
    """Two 4x4 float members, rotated by a seeded orthogonal matrix: P_1 with
    eigenvalues (1, 1, -1, -1), and a second member whose diagonal blocks in
    P_1's eigenbasis carry relative mass leak; at 1e-3 it cannot reach
    off-diagonal block form."""
    g = random_orthogonal(4, seed)
    second = np.zeros((4, 4))
    second[:2, 2:] = second[2:, :2] = np.eye(2)
    second[:2, :2] = np.sqrt(2.0) * leak * np.diag([1.0, -1.0])
    return g @ np.diag([1.0, 1.0, -1.0, -1.0]) @ g.T, g @ second @ g.T


def random_symmetric(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((size, size))
    return (g + g.T) / 2


def count_calls(monkeypatch, module, name):
    """A list that grows by one per call of module.name through module (such
    as np.linalg) and every binding of that function in the quadmorph
    modules, by the call's positional arguments."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("quadmorph") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    pattern = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
    rows = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            match = pattern.search(str(getattr(rep, "nodeid", "")))
            if match is None or getattr(rep, "when", None) not in ("call", "setup"):
                continue
            num = int(match.group(1))
            desc = match.group(2).replace("_", " ")
            outcome = "PASS" if getattr(rep, "passed", False) else "FAIL"
            if rep.when == "call" or num not in rows:
                rows[num] = (outcome, desc)
    if rows:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for num in sorted(rows):
            outcome, desc = rows[num]
            terminalreporter.write_line(f"[criterion {num:02d}] {outcome} - {desc}")
