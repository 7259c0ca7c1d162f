"""Every top-level definition in the library, and every method of a class
it reaches, serves a suite, a command or the benchmark, or is on a short
allowlist that says why it stays.

Reachability is by name.  The roots are every definition in ``suites.py``
and ``cli.py``, the library's module-level code (constants, tables and
registries, but not ``__all__``), and every name ``perfbench/run.py`` and
``perfbench/workloads.py`` read, attributes and strings included.  A
reached definition reaches every top-level definition, in any module,
whose name it mentions, and every method, property or staticmethod of a
reached class whose name it reads as an attribute (``x.name``) or an
identifier string.  A class's dunders run with the class, and a method's
reads count only once something else reaches it, so a method that only
calls itself stays unreached.  Methods of an unreached class are not
reported: the class is.

Matching by name alone over-approximates, so a definition left unreached
is reached by no root, but a method can hide behind another class's
attribute of the same name.  ``LaminarTree.parent`` and
``LinearPreorder.universe`` were deleted by hand for that reason: the
tree index's ``index.parent`` dict and ``Structure.universe`` (read as
``s.universe()``) kept them reached.  Dataclass fields are not checked,
since removing one changes ``==`` and ``hash``.
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
    "trees.PartiallyOrderedTree": "the star of the induction-basis suite (ROADMAP item 1)",
    "trees.document_preorder": "the star of the induction-basis suite (ROADMAP item 1)",
    "trees.LaminarTree.children": "public: hands out a node's children as leaf sets; the "
                                  "library's own walks, write_tree included, read parent links",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)


def reads_in(node) -> tuple:
    """The names (plain or attribute) and the attributes a piece of code
    reads; an identifier string, as ``getattr`` takes it, counts as both."""
    names, attributes = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
            attributes.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names.add(n.value)
            attributes.add(n.value)
    return names, attributes


def methods_of(node) -> list:
    """A class's methods, properties and staticmethods, dunders aside."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [s for s in node.body if isinstance(s, METHODS)
            and not (s.name.startswith("__") and s.name.endswith("__"))]


def code_of(node) -> list:
    """What runs once a definition is reached: a class's body less the
    methods, which are reached on their own."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    methods = methods_of(node)
    return node.decorator_list + node.bases + [s for s in node.body if s not in methods]


def is_all(statement) -> bool:
    return isinstance(statement, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets)


def library_modules(library=LIBRARY) -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(library.glob("*.py"))}


def unreached(library=LIBRARY, benchmark=BENCHMARK) -> set:
    # (key, node, owner): every top-level definition, with owner None, and
    # every method of a class, with the class's key as its owner
    definitions = []
    # the roots, and the code that runs from them
    reached, code = set(), [ast.parse(path.read_text()) for path in benchmark]
    for module, tree in library_modules(library).items():
        for statement in tree.body:
            if isinstance(statement, DEFINITIONS):
                key = f"{module}.{statement.name}"
                definitions.append((key, statement, None))
                definitions += [(f"{key}.{m.name}", m, key) for m in methods_of(statement)]
                if module in ROOT_MODULES:
                    reached.add(key)
                    code += code_of(statement)
            elif not isinstance(statement, (ast.Import, ast.ImportFrom)) and not is_all(statement):
                code.append(statement)
    names, attributes = set(), set()
    while code:
        for node in code:
            more_names, more_attributes = reads_in(node)
            names |= more_names
            attributes |= more_attributes
        code = []
        for key, node, owner in definitions:
            if key not in reached and (node.name in attributes and owner in reached
                                       if owner else node.name in names):
                reached.add(key)
                code += code_of(node)
    return {key for key, _, owner in definitions
            if key not in reached and (owner is None or owner in reached)}


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


METHODS_LIBRARY = {
    "suites": "def suite():\n    box = Box()\n    return box.used() + getattr(box, 'named')()\n",
    "core": """
        class Box:
            def __init__(self):
                self.size = 0

            def used(self):
                return self.size

            def named(self):
                return 1

            def test_only(self):
                return 2

            def recursive(self, n):
                return self.recursive(n - 1) if n else 0

            @property
            def timed(self):
                return 3

        class Unused:
            def anything(self):
                return 4
        """,
}


def test_scan_reports_methods_only_tests_or_their_own_body_read(tmp_path):
    library, bench = write_package(tmp_path, METHODS_LIBRARY)
    assert unreached(library, bench) == {
        "core.Box.test_only", "core.Box.recursive", "core.Box.timed", "core.Unused"}


def test_scan_roots_methods_the_benchmark_reads_as_attributes(tmp_path):
    library, bench = write_package(tmp_path, METHODS_LIBRARY, benchmark="""
        def run(box):
            return box.timed
        """)
    assert unreached(library, bench) == {
        "core.Box.test_only", "core.Box.recursive", "core.Unused"}


def test_an_export_imported_from_another_module_is_reported():
    tree = ast.parse(textwrap.dedent("""
        from .caps import Overflow
        __all__ = ["Overflow", "kernel", "LIMIT", "kernel"]
        LIMIT: int = 3

        def kernel():
            return Overflow()
        """))
    assert undefined_exports(tree) == ["Overflow", "kernel"]
