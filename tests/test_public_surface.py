"""Every public module-level name in ``src/procshadow`` has a caller outside
the tests.

A name counts as used when ``src/``, ``scripts/`` or ``perfbench/*.py``
mentions it as a name, an attribute or an import (its own definition
aside).  The allowlist holds the names kept for the tests' sake, each
with its reason; it must not go stale either.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "verify_bin_independence": "the input-bin diagnostic that ACCEPTANCE 08 runs",
    "verify_moment_bound": "the second-moment diagnostic that ACCEPTANCE 09 runs",
    "shadow_norm_bruteforce": "the exact shadow norm that the f bounds are tested against",
    "pair_weight": "ACCEPTANCE 06 checks the paper's five-case weight table through it",
    "multitime_correlator_shadow_input": "the paper's estimator for a channel applied "
                                         "to a state shadow",
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


def _names_without_caller() -> set:
    sources = list((ROOT / "src" / "procshadow").glob("*.py"))
    users = [*sources, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    public = set().union(*(_public_names(ast.parse(f.read_text())) for f in sources))
    used = set().union(*(_mentioned_names(ast.parse(f.read_text())) for f in users))
    return public - used


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _names_without_caller()
    extra = unused - set(ALLOWED)
    assert not extra, f"no caller outside the tests: {sorted(extra)}"
    stale = set(ALLOWED) - unused
    assert not stale, f"allowlisted but called, or gone: {sorted(stale)}"
