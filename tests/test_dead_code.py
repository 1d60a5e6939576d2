"""Every top-level function and class, and every method, is used by the package.

A helper that only tests call belongs in `tests/oracle_helpers.py`, not in
`src/`.  The exceptions are references that tests compare the package
against and that no command needs.  Methods are matched by name, so a
method that shares its name with a used one (`is_essential`, `width`)
passes unseen; dunder functions and methods, such as a module
`__getattr__`, are left out, since the language calls them.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ifsdim"

# the net-interval walks that tests check exploration, `locate_point` and
# the matrices against
TEST_REFERENCES = {"iter_net_intervals", "path_fulls", "path_left_endpoint"}


def _names_used(node):
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module):
    """(qualified name, node) of the top-level classes, and of the
    top-level functions and the methods that are not dunders."""
    for statement in module.body:
        if isinstance(statement, ast.ClassDef) or (
            isinstance(statement, ast.FunctionDef) and not _is_dunder(statement.name)
        ):
            yield statement.name, statement
        if isinstance(statement, ast.ClassDef):
            for member in statement.body:
                if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name):
                    yield f"{statement.name}.{member.name}", member


def test_every_definition_is_referenced_in_the_package():
    modules = [
        ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))
    ]
    used = sum((_names_used(module) for module in modules), Counter())
    unreferenced = {
        qualified
        for module in modules
        for qualified, node in _definitions(module)
        # a name used only inside its own definition is not used
        if used[node.name] == _names_used(node)[node.name]
    }
    # equality, so a reference that a command comes to use leaves the allowlist
    assert unreferenced == TEST_REFERENCES
