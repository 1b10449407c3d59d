"""No public name exists only so that tests can call it: every
module-level public function, class and constant in the package is
read by the package, `scripts/` or the benchmark harness."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tracereplay"


def defined_names(tree: ast.Module) -> set[str]:
    """Public names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def read_names(tree: ast.Module) -> set[str]:
    """Names the code reads: loaded names, attributes and names imported
    from a module, f-strings included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_every_public_name_has_a_caller_outside_tests():
    modules = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    callers = [*modules.values()] + [
        ast.parse(path.read_text())
        for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
        if not path.name.startswith("test_")
    ]
    read = set().union(*map(read_names, callers))
    defined = {name: defined_names(tree) for name, tree in modules.items()}
    # AGENT_NAME is read only inside an f-string.
    assert {"AGENT_NAME", "push_and_replay"} <= defined["replay.py"] & read
    uncalled = {name: sorted(names - read)
                for name, names in defined.items() if names - read}
    assert uncalled == {}
