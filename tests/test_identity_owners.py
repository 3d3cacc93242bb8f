"""One owner per identity: inside the package, core.pairwise_relation is
called by one routine per identity, and classify is reached only where its
kernel projection or splitting is read; every other reader of a map's
spectrum reads qhm._decompose, which alone splits a map (and
to_standard_representation a Clifford system) into eigenspaces;
qhm.clifford_system reads umbilicity from pair (1, 1) of the Clifford
relation and lambda^2 from the helper that verify_isoparametric reads too."""

from test_sampled_route import references

IDENTITY_OWNERS = {
    "clifford.check_clifford",  # P_i P_j + P_j P_i = 2 delta_ij I
    "osystem._orthogonal_relation",  # M_i^T M_j + M_j^T M_i = 2 delta_ij I, members and slices
    "qhm.check_qhm",  # equal squares and anticommuting components
    "qhm._decompose",  # the block relations D B = B D, B_i^T B_j + B_j^T B_i = 2 delta_ij D^2
    "qhm.verify_isoparametric",  # M^2 = s^2 I
}


def test_each_identity_has_one_checking_routine():
    assert references("pairwise_relation") == IDENTITY_OWNERS


def test_classify_is_reached_only_for_its_projection_or_splitting():
    assert references("classify") == {"cli._cmd_classify", "cli._cmd_split"}


def test_one_routine_splits_a_map_into_eigenspaces():
    assert references("eigenspace_split") == {"qhm._decompose",
                                              "clifford.to_standard_representation"}


def test_the_decomposition_has_five_readers():
    assert references("_decompose") == {
        "qhm.classify", "qhm.normal_form", "qhm.single_function_representation",
        "qhm.range_extend", "qhm.sphere_restriction_check"}


def test_lambda_squared_has_one_owner():
    assert references("_square_scale") == {"qhm.clifford_system", "qhm.verify_isoparametric"}
