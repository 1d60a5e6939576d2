"""Every top-level function and class in the package is used by the package.

A helper that only tests call belongs in `tests/oracle_helpers.py`, not in
`src/`.  The exceptions are references that tests compare the package
against and that no command needs.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ifsdim"

# the net-interval walks that tests check exploration, `locate_point` and
# the matrices against
TEST_REFERENCES = {"iter_net_intervals", "path_fulls", "path_left_endpoint"}


def _names_used(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_top_level_definition_is_referenced_in_the_package():
    statements = [
        statement
        for path in sorted(SOURCE.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    names = [_names_used(statement) for statement in statements]
    unreferenced = {
        definition.name
        for i, definition in enumerate(statements)
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
        and not any(definition.name in used for j, used in enumerate(names) if j != i)
    }
    # equality, so a reference that a command comes to use leaves the allowlist
    assert unreferenced == TEST_REFERENCES
