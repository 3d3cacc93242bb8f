import re

import numpy as np
import pytest

from quadmorph import qhm
from quadmorph.core import random_orthogonal


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


def leaky_pair(seed: int = 17):
    """Two 4x4 float members, rotated by a seeded orthogonal matrix: P_1 with
    eigenvalues (1, 1, -1, -1), and a second member whose diagonal blocks in
    P_1's eigenbasis carry relative mass 1e-3, so it cannot reach
    off-diagonal block form."""
    g = random_orthogonal(4, seed)
    second = np.zeros((4, 4))
    second[:2, 2:] = second[2:, :2] = np.eye(2)
    second[:2, :2] = np.sqrt(2.0) * 1e-3 * np.diag([1.0, -1.0])
    return g @ np.diag([1.0, 1.0, -1.0, -1.0]) @ g.T, g @ second @ g.T


def random_symmetric(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((size, size))
    return (g + g.T) / 2


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
