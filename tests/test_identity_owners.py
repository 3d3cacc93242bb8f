"""One owner per identity: inside the package, core.pairwise_relation is
called by one routine per identity, and classify is reached only where its
kernel projection or splitting is read; every other reader of a map's
spectrum reads qhm._decompose, which alone splits a map (and
to_standard_representation a Clifford system) into eigenspaces;
qhm.clifford_system reads umbilicity from pair (1, 1) of the Clifford
relation and lambda^2 from the helper that verify_isoparametric reads too.
The relation is M_i^T M_j + M_j^T M_i = 2 delta_ij T, which is the Clifford
relation on symmetric members, so every caller that means the latter checks
symmetry first."""

import ast

from test_sampled_route import owners, references

IDENTITY_OWNERS = {
    # M_i^T M_j + M_j^T M_i = 2 delta_ij I: O-system members, slices, and
    # Clifford members (P_i P_j + P_j P_i = 2 delta_ij I on symmetric P)
    "core._orthogonal_relation",
    "qhm.check_qhm",  # equal squares and anticommuting components
    "qhm._decompose",  # the block relations D B = B D, B_i^T B_j + B_j^T B_i = 2 delta_ij D^2
    "qhm.verify_isoparametric",  # M^2 = s^2 I
}

# the callers that read the relation on symmetric members
SYMMETRIC_PREMISE = {"clifford.check_clifford", "qhm.check_qhm", "qhm.verify_isoparametric"}


def test_each_identity_has_one_checking_routine():
    assert references("pairwise_relation") == IDENTITY_OWNERS


def test_the_orthogonal_relation_serves_every_kind():
    assert references("_orthogonal_relation") == {
        "clifford.check_clifford", "osystem.check_osystem", "orthomul.check_orthomul",
        "orthomul.measure"}


def _call_lines(func, name):
    return [node.lineno for node in ast.walk(func) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _checks_symmetry_first(node):
    """A function that calls check_symmetric before its first relation call."""
    if not isinstance(node, ast.FunctionDef):
        return False
    symmetric = _call_lines(node, "check_symmetric")
    relation = _call_lines(node, "pairwise_relation") + _call_lines(node, "_orthogonal_relation")
    return bool(symmetric and relation) and min(symmetric) < min(relation)


def test_the_symmetric_premise_is_checked_before_the_relation():
    callers = references("pairwise_relation") | references("_orthogonal_relation")
    assert SYMMETRIC_PREMISE <= callers
    assert SYMMETRIC_PREMISE <= owners(_checks_symmetry_first)


def test_classify_is_reached_only_for_its_projection_or_splitting():
    assert references("classify") == {"cli._cmd_classify", "cli._cmd_split"}


def test_one_routine_splits_a_map_into_eigenspaces():
    assert references("eigenspace_split") == {"qhm._decompose",
                                              "clifford.to_standard_representation"}


def test_the_decomposition_has_six_readers():
    assert references("_decompose") == {
        "qhm.classify", "qhm.normal_form", "qhm.project_nonsingular",
        "qhm.single_function_representation", "qhm.range_extend",
        "qhm.sphere_restriction_check"}


def test_one_eigendecomposition_ranks_and_splits_a_map():
    assert references("spectral_decompose") == {
        "core.eigenspace_split", "clifford.to_standard_representation", "qhm._decompose"}
    assert references("numeric_rank") == {"qhm._decompose"}


def test_lambda_squared_has_one_owner():
    assert references("_square_scale") == {"qhm.clifford_system", "qhm.verify_isoparametric"}
