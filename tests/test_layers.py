"""The package's import layers: relative imports between the modules of
src/attacksim form no cycle, and none of them names a private attribute,
so each decision has one home module that the others only import from;
and each fast path kept in the code has its measured row in README."""

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
