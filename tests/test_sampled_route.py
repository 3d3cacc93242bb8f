"""One routine runs the sampled route: inside the package, the central
differences are taken and seeded points are drawn only by qhm.sampled_check,
and only check_qhm, its one caller, raises SampleDisagreement when the
sampled route rejects what the identities accept."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "quadmorph").glob("*.py"))

ALLOWED = {
    "_central_differences": {"qhm.sampled_check"},
    "sample_points": {"qhm.sampled_check"},
    "SampleDisagreement": {"qhm.check_qhm"},
}


def owners(matches):
    """module.function for every function that holds a node for which
    matches(node) is true (the innermost one), and module.<module> outside
    functions."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for func in ast.walk(tree):  # outer functions come first, inner ones overwrite
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if matches(node):
                found.add(f"{path.stem}.{owner.get(node, '<module>')}")
    return found


def references(name):
    """The owners of every use of name, as a call or as a value."""
    return owners(lambda node: (isinstance(node, ast.Name) and node.id == name)
                  or (isinstance(node, ast.Attribute) and node.attr == name))


def test_the_package_sources_are_found():
    assert {"core.py", "qhm.py"} <= {path.name for path in SOURCES}


def test_only_the_sampled_routines_sample():
    for name, allowed in ALLOWED.items():
        assert references(name) == allowed, name
