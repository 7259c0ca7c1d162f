"""Every top-level definition in the library serves a suite, a command or
the benchmark, or is on a short allowlist that says why it stays.

Reachability is by name.  The roots are every definition in ``suites.py``
and ``cli.py``, the library's module-level code (constants, tables and
registries, but not ``__all__``), and every name ``perfbench/run.py`` and
``perfbench/workloads.py`` read, attributes and strings included.  A
reached definition reaches every top-level definition, in any module,
whose name it mentions.  Matching by name alone over-approximates, so a
definition left unreached is reached by no root.
"""
import ast
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "rankmat"
ROOT_MODULES = ("suites", "cli")
BENCHMARK = (ROOT / "perfbench" / "run.py", ROOT / "perfbench" / "workloads.py")

# module.name -> why it stays although no suite, command or workload reaches it
ALLOWED = {
    "formats.write_semigroup": "the parser round-trip tests write with it",
    "formats.write_matrix": "the parser round-trip tests write with it",
    "formats.write_oracle": "the parser round-trip tests write with it",
    "recovery.Seed": "the seed search's public entry point; recovery through an "
                     "oracle view (ROADMAP item 5) replaces it",
    "recovery._seed_of": "builds a Seed for find_seed and maximal_seed",
    "recovery.find_seed": "the seed search's public entry point; recovery through an "
                          "oracle view (ROADMAP item 5) replaces it",
    "recovery.maximal_seed": "the seed search's public entry point; recovery through an "
                             "oracle view (ROADMAP item 5) replaces it",
    "trees.PartiallyOrderedTree": "the star of the induction-basis suite (ROADMAP item 1)",
    "trees.document_preorder": "the star of the induction-basis suite (ROADMAP item 1)",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def is_all(statement) -> bool:
    return isinstance(statement, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets)


def library_modules(library=LIBRARY) -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(library.glob("*.py"))}


def unreached(library=LIBRARY, benchmark=BENCHMARK) -> set:
    definitions = {}  # name -> [(module, node)]
    roots = set()
    for module, tree in library_modules(library).items():
        for statement in tree.body:
            if isinstance(statement, DEFINITIONS):
                definitions.setdefault(statement.name, []).append((module, statement))
                if module in ROOT_MODULES:
                    roots.add(statement.name)
            elif not isinstance(statement, (ast.Import, ast.ImportFrom)) and not is_all(statement):
                roots |= names_in(statement)
    for path in benchmark:
        tree = ast.parse(path.read_text())
        roots |= names_in(tree)
        roots |= {n.value for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and n.value.isidentifier()}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        for module, node in definitions.get(name, ()):
            if (module, name) not in reached:
                reached.add((module, name))
                todo.extend(names_in(node))
    return {f"{module}.{name}" for name, found in definitions.items()
            for module, _ in found if (module, name) not in reached}


def test_every_definition_serves_a_suite_command_or_workload():
    assert unreached() == set(ALLOWED)


def undefined_exports(tree) -> list:
    """The ``__all__`` entries that name no top-level definition or
    assignment of the module itself, then each entry listed twice."""
    defined, exported = set(), []
    for statement in tree.body:
        if isinstance(statement, DEFINITIONS):
            defined.add(statement.name)
        elif is_all(statement):
            exported = [e.value for e in statement.value.elts]
        elif isinstance(statement, ast.Assign):
            defined |= {t.id for t in statement.targets if isinstance(t, ast.Name)}
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            defined.add(statement.target.id)
    repeated = sorted({name for name in exported if exported.count(name) > 1})
    return [name for name in exported if name not in defined] + repeated


@pytest.mark.parametrize("module", sorted(library_modules()))
def test_every_export_is_defined_in_its_module(module):
    assert undefined_exports(library_modules()[module]) == []


# ---------------------------------------------------------------------------
# the scan itself, on a made-up library and benchmark


def write_package(tmp_path, modules: dict, benchmark: str = "") -> tuple:
    library = tmp_path / "lib"
    library.mkdir()
    for name, source in modules.items():
        (library / f"{name}.py").write_text(textwrap.dedent(source))
    bench = tmp_path / "bench.py"
    bench.write_text(textwrap.dedent(benchmark))
    return library, (bench,)


def test_scan_reports_a_helper_only_tests_call(tmp_path):
    library, bench = write_package(tmp_path, {
        "cli": "def main():\n    return kernel()\n",
        "core": "def kernel():\n    return 1\n\ndef helper():\n    return 2\n",
    })
    assert unreached(library, bench) == {"core.helper"}


def test_scan_follows_names_across_modules_and_through_methods(tmp_path):
    library, bench = write_package(tmp_path, {
        "suites": "def suite():\n    return Box().size()\n",
        "core": """
            class Box:
                def size(self):
                    return _count()

            def _count():
                return 0

            def orphan():
                return Box()
            """,
    })
    assert unreached(library, bench) == {"core.orphan"}


def test_scan_roots_module_tables_but_not_all(tmp_path):
    library, bench = write_package(tmp_path, {
        "core": """
            __all__ = ["exported"]

            def registered():
                return 1

            def exported():
                return 2

            TABLE = {"r": registered}
            """,
    })
    assert unreached(library, bench) == {"core.exported"}


def test_scan_roots_names_attributes_and_strings_the_benchmark_reads(tmp_path):
    library, bench = write_package(tmp_path, {
        "core": """
            def by_name():
                return 1

            def by_attribute():
                return 2

            def by_string():
                return 3

            def unread():
                return 4
            """,
    }, benchmark="""
        from core import by_name
        import core
        by_name()
        core.by_attribute()
        getattr(core, "by_string")
        print("not an identifier: unread()")
        """)
    assert unreached(library, bench) == {"core.unread"}


def test_an_export_imported_from_another_module_is_reported():
    tree = ast.parse(textwrap.dedent("""
        from .caps import Overflow
        __all__ = ["Overflow", "kernel", "LIMIT", "kernel"]
        LIMIT: int = 3

        def kernel():
            return Overflow()
        """))
    assert undefined_exports(tree) == ["Overflow", "kernel"]
