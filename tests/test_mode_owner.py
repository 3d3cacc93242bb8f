"""One owner of the matrix mode rule: inside the package, the 2^32 storage
bound is written only in core._integer_storage, which as_matrix and every
product stored through it (qhm.scale's too) read; qhm keeps no copy of the
rule, reads no _peak and does not depend on osystem."""

import ast

from test_sampled_route import SOURCES, owners, references


def _is_two_to_the_32(node):
    return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and isinstance(node.left, ast.Constant) and node.left.value == 2
             and isinstance(node.right, ast.Constant) and node.right.value == 32)
            or (isinstance(node, ast.Constant) and node.value == 2**32))


def _imported_names(module):
    """Every module and name that module imports, with its aliases."""
    (path,) = [path for path in SOURCES if path.stem == module]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.update(alias.asname for alias in node.names)
    return names - {None}


def test_the_storage_bound_has_one_owner():
    assert owners(_is_two_to_the_32) == {"core._integer_storage"}


def test_qhm_keeps_no_copy_of_the_mode_rule():
    assert not any(owner.startswith("qhm.") for owner in references("_peak"))
    assert "_peak" not in _imported_names("qhm")
    assert "as_matrix" in _imported_names("qhm")


def test_qhm_does_not_depend_on_osystem():
    assert not any("osystem" in name for name in _imported_names("qhm"))
    assert not any(owner.startswith("qhm.") for owner in references("_osystem"))
