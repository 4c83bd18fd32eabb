"""Every top-level import of a specrg module is used in that module, specrg
runs on numpy alone (no module imports scipy, ``import specrg.cli`` loads none
of it, and the third-party packages imported are exactly the dependencies
declared in pyproject.toml), every definition in specrg is referred to by the
code of the program outside its own definition (a method or property only
through an attribute access), every annotated class field and every
non-dunder module-level name in specrg is read by the program, and every
defaulted parameter in specrg is passed by some call."""

import ast
import math
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "specrg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the program: the package and the benchmark that drives it
PROGRAM = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def test_detects_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.eye(2)\n"
    assert unused_imports(src) == ["line 2: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level package of every import anywhere in the source, function
    bodies included."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_detects_a_nested_import():
    src = "import numpy\ndef f():\n    from scipy.interpolate import PchipInterpolator\n"
    assert imported_modules(src) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert "scipy" not in imported_modules(path.read_text())


def test_importing_the_cli_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, specrg.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def third_party_imports(source: str) -> set[str]:
    """Top-level packages imported anywhere in the source that are neither in
    the standard library nor relative to its package."""
    return imported_modules(source) - set(sys.stdlib_module_names)


def declared_dependencies(pyproject: str) -> set[str]:
    """Package names of the ``[project] dependencies`` of a pyproject.toml."""
    import tomllib

    specs = tomllib.loads(pyproject)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", spec).group() for spec in specs}


def test_detects_third_party_imports():
    src = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
           "from . import fock\nfrom .model import spec\n"
           "def f():\n    from scipy.linalg import svd\n")
    assert third_party_imports(src) == {"numpy", "scipy"}
    toml = '[project]\nname = "a"\ndependencies = ["numpy>=1.24", "scipy"]\n'
    assert declared_dependencies(toml) == {"numpy", "scipy"}


def test_imports_are_the_declared_dependencies():
    used = set().union(*(third_party_imports(p.read_text()) for p in SRC.glob("*.py")))
    assert used == declared_dependencies((ROOT / "pyproject.toml").read_text())


def references(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, is_attribute) of every name the code refers to: variable
    names, attribute names (is_attribute True), keyword-argument names and
    imported names.  Docstrings, comments and the names of definitions are
    not references."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.end_lineno, True))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            out.append((node.arg, node.lineno, False))
        elif isinstance(node, ast.alias):
            out.append((node.name.split(".")[-1], node.lineno, False))
            if node.asname:
                out.append((node.asname, node.lineno, False))
    return out


def unnamed_definitions(sources: dict, defining: list) -> list[str]:
    """Non-dunder functions, classes and methods defined in the files named
    by ``defining`` that no code in ``sources`` (file name -> text) refers to
    outside the lines of their own definition.  A method or property is
    referred to only through an attribute access: a bare variable of the same
    name is not a use of it."""
    where = defaultdict(list)   # name -> [(file, line, is_attribute)]
    for name, text in sources.items():
        for ref, lineno, attribute in references(text):
            where[ref].append((name, lineno, attribute))
    dead = []
    for name in defining:
        tree = ast.parse(sources[name])
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if all((f == name and node.lineno <= line <= node.end_lineno)
                   or (id(node) in methods and not attribute)
                   for f, line, attribute in where[node.name]):
                dead.append(node.name)
    return sorted(dead)


def test_detects_an_unnamed_definition():
    # a docstring naming a definition, or another definition of the same
    # name, does not keep it alive
    sources = {"a.py": "def used():\n    \"\"\"Unlike dead.\"\"\"\n    return 1\n\n"
                       "def dead():\n    return dead\n\n"
                       "class C:\n    def __len__(self):\n        return used()\n\n"
                       "    def twin(self):\n        return 0\n\n"
                       "class D:\n    def twin(self):\n        return 1\n",
               "b.py": "from a import C as K, D\n# twin\nK().__len__(), D\n"}
    assert unnamed_definitions(sources, ["a.py"]) == ["dead", "twin", "twin"]


def test_detects_a_method_named_only_by_a_variable():
    # a local variable, a parameter or a keyword argument that shares a
    # method's name does not use it; an attribute access and a bare call of
    # a module-level function of the same name do
    sources = {"a.py": "class R:\n    def entry(self):\n        return 1\n\n"
                       "    def lines(self):\n        return 2\n\n"
                       "    @property\n    def top(self):\n        return 3\n\n"
                       "def run(entry=0):\n    top = entry\n    return top\n",
               "b.py": "from a import R, run\nentry = run(entry=1)\nprint(R().lines())\n"}
    assert unnamed_definitions(sources, ["a.py"]) == ["entry", "top"]
    sources["b.py"] += "print(R().top)\n"
    assert unnamed_definitions(sources, ["a.py"]) == ["entry"]


def test_every_definition_is_named_by_the_program():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PROGRAM}
    defining = [str(p.relative_to(ROOT)) for p in sorted(SRC.glob("*.py"))]
    assert unnamed_definitions(sources, defining) == []


def unread_fields(sources: dict, defining: list) -> list[str]:
    """``Class.field`` for every annotated field in the body of a class
    defined in the files named by ``defining`` that no code in ``sources``
    reads as an attribute.  Writing it, passing it by keyword or naming it
    in a docstring is not reading it."""
    read = {node.attr for text in sources.values() for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = []
    for name in defining:
        for cls in ast.walk(ast.parse(sources[name])):
            if not isinstance(cls, ast.ClassDef):
                continue
            dead += [f"{cls.name}.{node.target.id}" for node in cls.body
                     if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                     and node.target.id not in read]
    return sorted(dead)


def test_detects_an_unread_field():
    sources = {"a.py": "class C:\n    \"\"\"Unlike dead.\"\"\"\n\n"
                       "    kept: int\n    dead: int = 0\n    written: int = 1\n\n"
                       "c = C(2, dead=3)\nc.written = 4\n",
               "b.py": "from a import c\nprint(c.kept)\n"}
    assert unread_fields(sources, ["a.py"]) == ["C.dead", "C.written"]


def test_every_field_is_read_by_the_program():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PROGRAM}
    defining = [str(p.relative_to(ROOT)) for p in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources, defining) == []


def unread_constants(sources: dict, defining: list) -> list[str]:
    """``module.NAME`` for every non-dunder name bound by a module-level
    assignment in the files named by ``defining`` that no code in ``sources``
    reads, as a variable or as an attribute.  Writing it, or naming it in a
    docstring, is not reading it."""
    read = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    dead = []
    for name in defining:
        for stmt in ast.parse(sources[name]).body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            dead += [f"{Path(name).stem}.{node.id}" for target in targets
                     for node in ast.walk(target)
                     if isinstance(node, ast.Name)
                     and not (node.id.startswith("__") and node.id.endswith("__"))
                     and node.id not in read]
    return sorted(dead)


def test_detects_an_unread_constant():
    # a default value and an attribute read keep a name; a docstring, a
    # write and an import-only use do not, and dunder names are exempt
    sources = {"a.py": "\"\"\"Unlike DEAD.\"\"\"\n__version__ = '1'\nKEPT = 1\nDEAD = 2\n"
                       "DEFAULT = 3\nPAIR_A, PAIR_B = 4, 5\nNOTED: int = 6\n\n"
                       "def f(k=DEFAULT):\n    return PAIR_A\n",
               "b.py": "import a\nfrom a import NOTED\nprint(a.KEPT)\na.DEAD = 7\n"}
    assert unread_constants(sources, ["a.py"]) == ["a.DEAD", "a.NOTED", "a.PAIR_B"]


def test_every_module_constant_is_read_by_the_program():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PROGRAM}
    defining = [str(p.relative_to(ROOT)) for p in sorted(SRC.glob("*.py"))]
    assert unread_constants(sources, defining) == []


def passed_arguments(sources: dict) -> dict:
    """Callee name -> [(number of positional arguments, keyword names)] over
    every call in ``sources`` whose callee is a name or an attribute.  A
    call with *args passes every position; one with **kwargs has the
    keyword name None, which passes every keyword."""
    out = defaultdict(list)
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out[name].append((math.inf if starred else len(node.args),
                              {k.arg for k in node.keywords}))
    return out


def unpassed_parameters(sources: dict, defining: list) -> list[str]:
    """``function(parameter)`` (``Class.method(parameter)`` for a method)
    for every defaulted parameter of a function defined in the files named
    by ``defining`` that no call in ``sources`` passes, by position or by
    keyword.  Calls match by name; the calls of ``__init__`` are those
    through its class name, and a method's positions count after self."""
    calls = passed_arguments(sources)
    dead = []
    for name in defining:
        tree = ast.parse(sources[name])
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(node))
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            skip = 1 if cls is not None else 0   # self
            defaulted = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
            defaulted += [(math.inf, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            callee = cls if node.name == "__init__" else node.name
            label = node.name if cls is None else f"{cls}.{node.name}"
            for pos, arg in defaulted:
                if not any(n > pos or arg in kws or None in kws for n, kws in calls[callee]):
                    dead.append(f"{label}({arg})")
    return sorted(dead)


def test_detects_an_unpassed_parameter():
    # by position, by keyword, through *args and through the class name
    sources = {"a.py": "def f(x, y=1, *, z=2):\n    return x\n\n"
                       "class C:\n    def __init__(self, a=0, b=1):\n        self.a = a\n\n"
                       "    def m(self, k=3, j=4):\n        return k\n\n"
                       "f(1, z=3)\nC(5).m(7)\nf(*())\n",
               "b.py": "import a\na.C(b=2)\n"}
    assert unpassed_parameters(sources, ["a.py"]) == ["C.m(j)"]
    del sources["b.py"]
    sources["a.py"] = sources["a.py"].replace("f(*())\n", "")
    assert unpassed_parameters(sources, ["a.py"]) == ["C.__init__(b)", "C.m(j)", "f(y)"]


def test_every_defaulted_parameter_is_passed():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PROGRAM + TESTS}
    defining = [str(p.relative_to(ROOT)) for p in sorted(SRC.glob("*.py"))]
    assert unpassed_parameters(sources, defining) == []
