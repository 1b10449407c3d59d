"""Every name the package exports has a caller outside the tests."""

import ast
import io
import tokenize
from pathlib import Path

import tracereplay

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "tracereplay" / "__init__.py"


def exported_names() -> set[str]:
    """Public names `__init__` imports from its submodules, plus the
    generator names it re-exports on first use."""
    names = set(tracereplay._SYNTH_NAMES)
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return {n for n in names if not n.startswith("_")}


def caller_files() -> list[Path]:
    files = [*(ROOT / "src" / "tracereplay").glob("*.py"),
             *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [f for f in files if f != INIT and not f.name.startswith("test_")]


def used_names(source: str) -> set[str]:
    """Identifiers in code (not comments or strings), leaving out the
    name each `def` and `class` defines."""
    used = set()
    previous = None
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            used.add(token.string)
        previous = token.string
    return used


def test_every_export_has_a_caller_outside_tests():
    exported = exported_names()
    assert {"assemble_script", "parse_trace", "synthesize_trace"} <= exported
    used = set()
    for file in caller_files():
        used |= used_names(file.read_text())
    assert sorted(exported - used) == []
