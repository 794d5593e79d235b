"""The package's import layers: relative imports between the modules of
src/attacksim form no cycle, and none of them names a private attribute,
so each decision has one home module that the others only import from;
each fast path kept in the code has its measured row in README; and each
function, class and method of the package is read by the package or the
benchmark, not only by tests."""

import ast
import graphlib
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "attacksim"


def relative_imports() -> dict[str, list[tuple[str, str]]]:
    """module -> (imported module, imported name) for every relative import
    in the module, those inside functions included; `from . import m`
    imports module m under the name m."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        pairs = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    pairs.append((node.module or alias.name, alias.name))
        found[path.stem] = pairs
    return found


def test_package_modules_are_found():
    assert {"graph", "engine", "attackers", "defenders", "ppo", "experiments", "cli"} <= set(
        relative_imports()
    )


def test_relative_imports_form_no_cycle():
    graph = {module: {target for target, _ in pairs} for module, pairs in relative_imports().items()}
    # raises CycleError naming the modules on a cycle
    graphlib.TopologicalSorter(graph).prepare()


def test_no_relative_import_names_a_private_attribute():
    private = [
        f"{module} imports {target}.{name}"
        for module, pairs in relative_imports().items()
        for target, name in pairs
        if name.startswith("_")
    ]
    assert private == []


def test_each_kept_fast_path_has_its_readme_row():
    # one `# kept:` comment beside each fast path, one measured row for it
    # in README's "Fast paths" table
    kept = sum(
        line.lstrip().startswith("# kept:")
        for path in PACKAGE.glob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
    )
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Fast paths\n", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    assert kept == len(table) - 2  # less the header and its rule


def test_every_src_name_has_a_caller_outside_tests():
    # each function, class and method of the package is read somewhere in
    # the package or the benchmark; a method only as an attribute, and a
    # re-export in __init__.py is no read
    defined, names, attributes = [], set(), set()
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for path in paths + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
    unread = sorted(
        name for name, is_method in defined
        if name not in attributes and (is_method or name not in names)
    )
    assert unread == []
