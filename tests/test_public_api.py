"""The package's lazy export table: every name resolves to its
module's object, and every name has a caller outside the tests."""

import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import tracereplay

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "tracereplay" / "__init__.py"


def exported_names() -> set[str]:
    """Public names in the table `__init__` loads them through."""
    return {n for n in tracereplay._EXPORTS if not n.startswith("_")}


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


def test_lazy_exports_resolve_in_a_fresh_interpreter():
    code = """
import importlib, json
import tracereplay
listed = dir(tracereplay)  # before any name is resolved
same = all(
    getattr(tracereplay, name)
    is getattr(importlib.import_module("tracereplay." + module), name)
    for name, module in tracereplay._EXPORTS.items()
)
try:
    tracereplay.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
star = {}
exec("from tracereplay import *", star)
print(json.dumps({"same": same, "unknown": unknown,
                  "dir": listed, "star": sorted(star)}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    exports = set(tracereplay._EXPORTS)
    assert found["same"]
    assert found["unknown"] == "module 'tracereplay' has no attribute 'no_such_name'"
    assert exports <= set(found["dir"])
    assert set(found["star"]) - {"__builtins__"} == exports
    assert sorted(tracereplay.__all__) == sorted(exports)
