"""Every public module-level name in ``src/procshadow``, and every option
of its public functions and methods, has a caller outside the tests.

A name counts as used when ``src/``, ``scripts/`` or ``perfbench/*.py``
mentions it as a name, an attribute or an import (its own definition
aside).  An option (a parameter with a default) counts as used when a
call there to a function or method of that name passes it by keyword or
by position.  The allowlists hold what is kept for the tests' sake, each
with its reason; they must not go stale either.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "verify_bin_independence": "the input-bin diagnostic that ACCEPTANCE 08 runs",
    "verify_moment_bound": "the second-moment diagnostic that ACCEPTANCE 09 runs",
    "shadow_norm_bruteforce": "the exact shadow norm that the f bounds are tested against",
    "pair_weight": "ACCEPTANCE 06 checks the paper's five-case weight table through it",
    "load_header": "reads a record file's header alone; only the tests and the CI smoke step do",
}

ALLOWED_OPTIONS = {
    ("estimate_observable", "n_groups"): "the paper's median-of-means estimator",
}


def _public_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not n.startswith("_")}


def _mentioned_names(tree: ast.Module) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _options(tree: ast.Module) -> list:
    """(function, option, positional index or None) of each public function's
    and public method's parameters that have a default."""
    found = []
    functions = [(node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            functions += [(node, True) for node in cls.body if isinstance(node, ast.FunctionDef)]
    for fn, method in functions:
        if fn.name.startswith("_"):
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        positional = [*fn.args.posonlyargs, *fn.args.args][1 if method and not static else 0:]
        first = len(positional) - len(fn.args.defaults)
        found += [(fn.name, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
        found += [(fn.name, arg.arg, None)
                  for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if default is not None]
    return found


def _passes(call: ast.Call, option: str, index) -> bool:
    if any(kw.arg in (option, None) for kw in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return index is not None and (starred or len(call.args) > index)


def _callee(call: ast.Call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


SOURCES = list((ROOT / "src" / "procshadow").glob("*.py"))
USERS = [*SOURCES, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _names_without_caller() -> set:
    public = set().union(*(_public_names(ast.parse(f.read_text())) for f in SOURCES))
    used = set().union(*(_mentioned_names(ast.parse(f.read_text())) for f in USERS))
    return public - used


def _options_without_caller() -> set:
    options = [o for f in SOURCES for o in _options(ast.parse(f.read_text()))]
    calls = [node for f in USERS for node in ast.walk(ast.parse(f.read_text()))
             if isinstance(node, ast.Call)]
    return {(fn, option) for fn, option, index in options
            if not any(_callee(c) == fn and _passes(c, option, index) for c in calls)}


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _names_without_caller()
    extra = unused - set(ALLOWED)
    assert not extra, f"no caller outside the tests: {sorted(extra)}"
    stale = set(ALLOWED) - unused
    assert not stale, f"allowlisted but called, or gone: {sorted(stale)}"


def _unused_imports(tree: ast.Module) -> set:
    """Names a module imports (``__future__`` aside) and never mentions as a name."""
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    """An unused import would count its name as called by the module."""
    unused = {f"{f.stem}.{name}" for f in SOURCES
              for name in _unused_imports(ast.parse(f.read_text()))}
    assert not unused, f"imported but never used: {sorted(unused)}"


def test_every_option_has_a_caller_outside_the_tests():
    unused = _options_without_caller()
    extra = unused - set(ALLOWED_OPTIONS)
    assert not extra, f"no caller outside the tests sets: {sorted(extra)}"
    stale = set(ALLOWED_OPTIONS) - unused
    assert not stale, f"allowlisted but set, or gone: {sorted(stale)}"
