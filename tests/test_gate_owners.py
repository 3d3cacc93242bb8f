"""One owner per spectral gate: inside the package, qhm._decompose alone
raises the rank, odd-rank, +/- pairing and block-relation gates of a map
(the public project_nonsingular reads it), clifford.to_standard_representation
alone raises the
sign-count and +-1 gates of a Clifford system's first member, and
core.eigenspace_split, which both reach, raises nothing."""

import ast

from test_sampled_route import owners, references


def raising(text):
    """The owners of every raise statement whose message holds text."""
    return owners(lambda node: isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and isinstance(part.value, str) and text in part.value
        for part in ast.walk(node)))


MESSAGES = {
    "all components are zero": {"qhm._decompose"},
    # errors.OddRank builds a message of its own with these words; no
    # raise statement spells it out
    "do not pair as +/-": {"qhm._decompose"},
    # the block relations of the normal form
    "does not commute with a block": {"qhm._decompose"},
    "block gram matrix does not match": {"qhm._decompose"},
    "transpose anticommutation relation": {"qhm._decompose"},
    "eigenvalue signs split": {"clifford.to_standard_representation"},
    "eigenvalues are not +-1": {"clifford.to_standard_representation"},
}

NAMES = {
    "OddRank": {"qhm._decompose"},
    "UnbalancedEigenspaces": {"clifford.to_standard_representation"},
}


def test_each_gate_message_has_one_owner():
    for text, owner in MESSAGES.items():
        assert raising(text) == owner, text


def test_each_gate_error_has_one_owner():
    for name, owner in NAMES.items():
        assert references(name) == owner, name


def test_the_eigenspace_split_raises_nothing():
    raisers = owners(lambda node: isinstance(node, ast.Raise))
    assert "core.spectral_decompose" in raisers  # the census sees core's raises
    assert "core.eigenspace_split" not in raisers
