"""Source rules that hold for every module of the package."""

import ast
import functools
import importlib
import re
import symtable
import sys
from pathlib import Path

import semistable_lab

SOURCES = sorted(Path(semistable_lab.__file__).parent.glob("*.py"))


def test_no_bare_asserts():
    """Invariants raise AssertionError explicitly: a bare `assert` is
    stripped under `python -O`."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 1
    assert found == []


def test_runtime_imports_are_stdlib():
    """The package has no runtime dependency outside the standard library:
    every import is relative or names a standard-library module."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_no_unused_module_imports():
    """Every name a module imports at top level, `__future__` aside, is
    read somewhere in that module."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound
                      if name not in used]
    assert found == []


def _is_inverse_pow(node) -> bool:
    """A call pow(_, -1, _)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3):
        return False
    exp = node.args[1]
    if isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub):
        exp = exp.operand
        return isinstance(exp, ast.Constant) and exp.value == 1
    return isinstance(exp, ast.Constant) and exp.value == -1


def test_work_ring_inverse_has_one_home():
    """galois and padic invert units mod l^N only through
    PadicContext.invert_unit: pow(_, -1, _) appears once in those two
    modules, inside that method."""
    found, home = [], []
    for path in SOURCES:
        if path.name not in ("galois.py", "padic.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (path.name == "padic.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "invert_unit"):
                allowed.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if _is_inverse_pow(node):
                where = home if node.lineno in allowed else found
                where.append(f"{path.name}:{node.lineno}")
    assert len(home) == 1
    assert found == []


def _readme_tests_tokens() -> list[str]:
    """Each backticked name in the README "Tests" section."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## Tests\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`([^`\s]+)`", section)


def _readme_tests_names() -> set[str]:
    """Every dotted part of each backticked name in the README "Tests"
    section, so `padic.Lattice.declared_rank` names `declared_rank` too."""
    return {part for token in _readme_tests_tokens()
            for part in token.split(".")}


_SCOPE_NODES = {ast.Lambda: "lambda", ast.ListComp: "listcomp",
                ast.SetComp: "setcomp", ast.DictComp: "dictcomp",
                ast.GeneratorExp: "genexpr"}


def _scope_parts(node) -> tuple[list, list]:
    """The parts of a scope-making node read in the enclosing scope, and
    those read in its own: decorators, defaults, annotations, bases and a
    comprehension's first iterable belong to the enclosing scope."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords, node.body
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        outer = getattr(node, "decorator_list", []) + args.defaults
        outer += args.kw_defaults + [a.annotation for a in params]
        outer.append(getattr(node, "returns", None))
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        return [part for part in outer if part is not None], body
    first, *rest = node.generators
    inner = [first.target, *first.ifs, *rest]
    inner += [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
    return [first.iter], inner


def _global_reads(tree, table) -> list[tuple[str, int]]:
    """(name, line) of each bare name that is not local to its function.

    The symbol tables say which scope binds a name, so a parameter or a
    loop variable that shares a definition's name does not count as a
    reference to that definition."""
    reads = []

    def visit(node, table, children):
        if isinstance(node, ast.Name):
            try:
                local = (table.get_type() == "function"
                         and not table.lookup(node.id).is_global())
            except KeyError:  # a postponed annotation has no symbol
                local = False
            if not local:
                reads.append((node.id, node.lineno))
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            key = (node.name, node.lineno)
        elif type(node) in _SCOPE_NODES:
            key = (_SCOPE_NODES[type(node)], node.lineno)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, table, children)
            return
        outer, inner = _scope_parts(node)
        for part in outer:
            visit(part, table, children)
        scope = children[key].pop(0)
        grandchildren = _children_by_key(scope)
        for part in inner:
            visit(part, scope, grandchildren)

    visit(tree, table, _children_by_key(table))
    return reads


def _children_by_key(table) -> dict:
    children = {}
    for child in table.get_children():
        children.setdefault((child.get_name(), child.get_lineno()), []).append(child)
    return children


def test_unreferenced_definitions_are_named_in_readme():
    """A module-level function or class, or a method, that no code of the
    package references outside its own body is kept only for a reason the
    README "Tests" section gives, so it must be named there.  A bare name
    local to its function (a parameter or a variable) refers to no
    definition.  Dunders, the `_cmd_*` handlers and `main` are reached by
    the interpreter and the command line, not by name."""
    defs, refs = [], []
    for path in SOURCES:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(path, sub, f"{node.name}.{sub.name}")
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path, node, node.name))
        table = symtable.symtable(source, str(path), "exec")
        refs += [(name, path, line) for name, line in _global_reads(tree, table)]
        refs += [(node.attr, path, node.lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)]
    named = _readme_tests_names()
    found = []
    for path, node, qualname in defs:
        name = node.name
        if (name.startswith("__") and name.endswith("__")
                or name.startswith("_cmd_") or name == "main"
                or name in named):
            continue
        body = range(node.lineno, node.end_lineno + 1)
        if not any(ref == name and not (where == path and line in body)
                   for ref, where, line in refs):
            found.append(f"{path.name}:{qualname}")
    assert found == []


def _unread_fields(defining, reading) -> list[str]:
    """`Class.field` for each field of a NamedTuple class in the `defining`
    files that no file of `reading` reads as an attribute."""
    reads = set()
    for path in reading:
        reads |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)}
    found = []
    for path in defining:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None))
                    == "NamedTuple" for base in node.bases):
                found += [f"{node.name}.{sub.target.id}" for sub in node.body
                          if isinstance(sub, ast.AnnAssign)
                          and sub.target.id not in reads]
    return found


def test_record_fields_are_read():
    """Every field of a NamedTuple record in the package is read as an
    attribute somewhere in the package or its tests: a field that only
    echoes an input is not kept."""
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert _unread_fields(SOURCES, SOURCES + tests) == []


def test_record_field_rule_sees_an_unread_field(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import typing\n"
        "from typing import NamedTuple\n"
        "class A(NamedTuple):\n"
        "    read: int\n"
        "    unread: int\n"
        "class B(typing.NamedTuple):\n"
        "    stored: int\n"
        "class C:\n"
        "    plain: int\n"
        "def f(a, b):\n"
        "    b.stored = a.read\n")
    assert _unread_fields([source], [source]) == ["A.unread", "B.stored"]


def test_readme_tests_names_resolve():
    """Each module-qualified name in the README "Tests" section is an
    attribute of the package, so a routine that moves or goes leaves no
    stale line behind."""
    modules = {path.stem for path in SOURCES}
    checked, missing = 0, []
    for token in _readme_tests_tokens():
        head, *rest = token.split(".")
        if head not in modules or not rest:
            continue
        checked += 1
        try:
            functools.reduce(getattr, rest,
                             importlib.import_module(f"semistable_lab.{head}"))
        except AttributeError:
            missing.append(token)
    assert checked > 0
    assert missing == []


def _readme_limits_rows() -> list[list[str]]:
    """The cells of each body row of the README limits table; an escaped
    pipe inside a cell does not split it."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text().split("\n| limit | value | module | guards |\n",
                                      1)[1]
    rows = []
    for line in table.splitlines()[1:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        rows.append([cell.strip() for cell in cells])
    return rows


def test_readme_limits_names_resolve():
    """Each backticked name in the first column of the README limits table
    is an attribute of the module its third column names (the part before
    the first dot), so a limit that moves or is renamed leaves no stale row."""
    checked, missing = 0, []
    for limit, _, module, _ in _readme_limits_rows():
        home = importlib.import_module(
            "semistable_lab." + module.strip("`").split(".")[0])
        for name in re.findall(r"`([^`]+)`", limit):
            checked += 1
            if not hasattr(home, name):
                missing.append(f"{home.__name__}.{name}")
    assert checked > 0
    assert missing == []


_CACHE_DECORATORS = {"cache", "lru_cache"}
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                    "Counter"}
_MUTATORS = {"setdefault", "update", "append", "add", "extend", "insert",
             "__setitem__"}
_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)


def _is_container(node) -> bool:
    """A dict, list or set display, comprehension or constructor call."""
    if isinstance(node, _CONTAINER_NODES):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        return name in _CONTAINER_CALLS
    return False


def _process_caches(path: Path) -> list[str]:
    """`module.function` for each place in one module where a value can
    outlive the call that computed it: a functools cache or lru_cache, a
    `global` rebinding, a mutable default argument, or a write from a
    function to a module-level dict, list or set."""
    tree = ast.parse(path.read_text(), filename=str(path))
    shared = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(
                node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            shared.update(t.id for t in targets if isinstance(t, ast.Name))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        where = f"{path.stem}.{func.name}"
        for deco in func.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else (
                getattr(target, "id", None))
            if name in _CACHE_DECORATORS:
                found.append(where)
        defaults = func.args.defaults + func.args.kw_defaults
        found += [where for d in defaults if d is not None and _is_container(d)]
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.append(where)
            elif (isinstance(node, ast.Subscript)
                  and not isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in shared):
                found.append(where)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in shared):
                found.append(where)
    return found


def test_no_process_lifetime_cache():
    """Nothing a request computes outlives it: `curves.request_memo` holds
    what a request reuses, the box filter of `miyawaki-search` included,
    for that request only.  A prime-power table, say, is built per call
    and dropped."""
    found = sorted(set(sum((_process_caches(path) for path in SOURCES), [])))
    assert found == []


def test_process_cache_rule_sees_each_form(tmp_path):
    """The rule above flags each form of cache it looks for, and not a
    module-level table that no function writes to."""
    source = tmp_path / "sample.py"
    source.write_text(
        "import functools\n"
        "from functools import cache\n"
        "_MEMO = {}\n"
        "_SEEN = set()\n"
        "_TABLE = {1: 2}\n"
        "_LATE = None\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(x): return x\n"
        "@cache\n"
        "def b(x): return x\n"
        "def c(x):\n"
        "    _MEMO[x] = x\n"
        "def d(x):\n"
        "    _SEEN.add(x)\n"
        "def e(x, seen={}): return seen\n"
        "def f():\n"
        "    global _LATE\n"
        "    _LATE = 1\n"
        "def g(x): return _TABLE[x] + len({x: x})\n")
    assert _process_caches(source) == [f"sample.{n}" for n in "abcdef"]


_FILE_MODULES = {"os", "io", "pathlib", "shutil", "tempfile"}


def _file_access(path: Path) -> list[str]:
    """`module:line` for each call of `open` and each import of a module
    that reaches the file system in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call):
            func = node.func
            names = ["open"] if "open" in (
                getattr(func, "id", None), getattr(func, "attr", None)) else []
        else:
            continue
        found += [f"{path.stem}:{node.lineno}" for name in names
                  if name == "open" or name.split(".")[0] in _FILE_MODULES]
    return found


def test_package_opens_no_file():
    """The package reads and writes no file: its tables are Python values
    (the `dagger` seeds are `families.SEEDS`), and a report goes to
    stdout."""
    found = sum((_file_access(path) for path in SOURCES), [])
    assert found == []


def test_file_access_rule_sees_each_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import os.path\n"
        "import io, json\n"
        "from pathlib import Path\n"
        "from shutil import copy\n"
        "import tempfile as t\n"
        "from . import os\n"
        "def f(p): return open(p).read() + Path(p).open().read()\n"
        "def g(opener): return opener(1)\n")
    assert _file_access(source) == [
        f"sample:{n}" for n in (1, 2, 3, 4, 5, 7, 7)]
